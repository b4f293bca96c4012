//! `micro_datapath` → `BENCH_datapath.json`: the chunk data path, serial
//! and parallel. Three measurements, all of this host and nothing
//! modelled, read together with the kernels dispatch picked (`gcm_kernel`):
//!
//! 1. **Single-thread AES-GCM** — the default lane's bulk path (on the
//!    hardware lane the fused kernels: CTR and GHASH in one pass) on one
//!    chunk-sized seal. One chunk sealed over and over stays in L2: this is
//!    what the kernel can do, not what a file sees.
//! 2. **Past the cache** — eight different chunks sealed, then opened, one
//!    after another into one reused buffer (`seal_into`/`open_into`, no
//!    allocation): 8 MiB in, 8 MiB out per pass, so every byte comes from
//!    and goes to memory the way an 8 MiB `write_file` moves it.
//! 3. **Chunk-path wall clock** — `nexus_core::datapath::{seal,open}_chunks`
//!    over an N-chunk file at 1/2/4/8 worker threads. The speedup column is
//!    what this host measured at its `host_parallelism`; with two cores the
//!    4- and 8-thread cells say what oversubscription costs, not what four
//!    cores would give. `one_thread_vs_streamed` is the one-thread cell over
//!    row 2's: the same kernels over the same bytes, so what is missing from
//!    1.0 is what allocating the output costs the chunk path.
//!
//! Floors: the parallel ciphertext is byte-identical to serial at every
//! thread count, `gcm_kernel` is `cpu::describe()`'s line, and in a full
//! run the one-thread chunk path keeps [`STREAMED_FLOOR`] of the streamed
//! row's throughput in both directions. No multi-thread floor is set.

use std::time::Duration;

use nexus_core::datapath::{open_chunks, seal_chunks};
use nexus_core::metadata::filenode::{ChunkContext, Filenode};
use nexus_core::NexusUuid;
use nexus_crypto::gcm::AesGcm;
use nexus_pool::ThreadPool;
use nexus_workloads::fileio::{file_contents, fill_deterministic};

use crate::json::Json;
use crate::{measure_micro, mibps, Report};

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];
const STREAM_CHUNKS: usize = 8;
/// Least share of the streamed row's throughput the one-thread chunk path
/// may keep. Ten full runs with write-once output buffers read 0.93–1.02
/// (seal) and 0.94–1.00 (open); five of the parent, which zero-filled the
/// output first, 0.62–0.70 and 0.65–0.82 on the same host the same hour.
const STREAMED_FLOOR: f64 = 0.85;

#[derive(Clone)]
pub(crate) struct Datapath {
    pub(crate) smoke: bool,
    host_parallelism: usize,
    pub(crate) gcm_kernel: String,
    file_bytes: usize,
    chunk_bytes: usize,
    chunks: usize,
    fused: Duration,
    pub(crate) stream_seal: Duration,
    stream_open: Duration,
    pub(crate) seal_wall: Vec<Duration>,
    open_wall: Vec<Duration>,
    pub(crate) parallel_output_identical_to_serial: bool,
}

impl Datapath {
    /// One-thread chunk-path throughput as a share of the streamed row's
    /// (reused buffers, no allocation), `[seal, open]`.
    fn one_thread_vs_streamed(&self) -> [f64; 2] {
        let stream_bytes = STREAM_CHUNKS * self.chunk_bytes;
        [(self.seal_wall[0], self.stream_seal), (self.open_wall[0], self.stream_open)]
            .map(|(chunked, streamed)| mibps(self.file_bytes, chunked) / mibps(stream_bytes, streamed))
    }
}

impl Report for Datapath {
    fn measure(smoke: bool) -> Datapath {
        let file_bytes = if smoke { 2 } else { 8 } * 1024 * 1024;
        let chunk_bytes = if smoke { 256 } else { 1024 } * 1024;
        // The single-thread rows seal one chunk's worth.
        let gcm_bytes = chunk_bytes;
        let gcm_kernel = nexus_crypto::cpu::describe();
        let host_parallelism = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        // 1. Single-thread AES-GCM: the lane's bulk path.
        let gcm = AesGcm::new_128(&[7u8; 16]);
        let pt = file_contents(gcm_bytes, 0xda7a);
        let nonce = [1u8; 12];
        let mut sealed = vec![0u8; gcm_bytes + nexus_crypto::gcm::TAG_LEN];
        let fused = measure_micro(|| gcm.seal_into(&nonce, b"aad", &pt, &mut sealed));

        // 2. The same kernel past the cache: eight chunks' worth of distinct
        // plaintext through one output buffer.
        let stream_bytes = STREAM_CHUNKS * gcm_bytes;
        let stream_pt = file_contents(stream_bytes, 0x57e4);
        let mut stream_ct = vec![0u8; STREAM_CHUNKS * sealed.len()];
        let stream_seal = measure_micro(|| {
            for (pt, out) in stream_pt.chunks(gcm_bytes).zip(stream_ct.chunks_mut(sealed.len())) {
                gcm.seal_into(&nonce, b"aad", pt, out);
            }
        });
        let mut stream_back = vec![0u8; stream_bytes];
        let stream_open = measure_micro(|| {
            for (ct, out) in stream_ct.chunks(sealed.len()).zip(stream_back.chunks_mut(gcm_bytes)) {
                gcm.open_into(&nonce, b"aad", ct, out).expect("own ciphertext");
            }
        });
        assert!(stream_back == stream_pt, "streamed open diverged from its plaintext");

        // 3. Chunk path at each worker count.
        let data = file_contents(file_bytes, 0x5eed);
        let chunks = Filenode::chunk_count_for(file_bytes as u64, chunk_bytes as u32) as usize;
        let uuid = NexusUuid([0x42; 16]);
        let contexts: Vec<ChunkContext> = (0..chunks)
            .map(|i| {
                let mut key = [0u8; 16];
                fill_deterministic(&mut key, i as u64);
                let mut nonce = [0u8; 12];
                fill_deterministic(&mut nonce, i as u64 ^ 0xff);
                ChunkContext { key, nonce }
            })
            .collect();
        let mut fnode = Filenode::new(uuid, NexusUuid([0; 16]), uuid, chunk_bytes as u32);
        fnode.size = file_bytes as u64;
        fnode.chunks = contexts.clone();

        let serial_ct = seal_chunks(&ThreadPool::new(1), &uuid, &data, chunk_bytes, &contexts);
        let (mut seal_wall, mut open_wall) = (Vec::new(), Vec::new());
        let mut identical = true;
        for &threads in &THREAD_SWEEP {
            let pool = ThreadPool::new(threads);
            identical &= seal_chunks(&pool, &uuid, &data, chunk_bytes, &contexts) == serial_ct;
            let t_seal = measure_micro(|| seal_chunks(&pool, &uuid, &data, chunk_bytes, &contexts));
            let t_open =
                measure_micro(|| open_chunks(&pool, &fnode, &serial_ct, 0, chunks as u64).unwrap());
            seal_wall.push(t_seal);
            open_wall.push(t_open);
        }

        Datapath {
            smoke,
            host_parallelism,
            gcm_kernel,
            file_bytes,
            chunk_bytes,
            chunks,
            fused,
            stream_seal,
            stream_open,
            seal_wall,
            open_wall,
            parallel_output_identical_to_serial: identical,
        }
    }

    fn gate(&self) {
        assert!(
            self.parallel_output_identical_to_serial,
            "parallel ciphertext must be byte-identical to serial"
        );
        // A throughput is never read without the kernel that produced it.
        assert!(
            self.gcm_kernel.starts_with("aes=") && self.gcm_kernel.contains(" sha="),
            "gcm_kernel must be cpu::describe()'s line, got {:?}",
            self.gcm_kernel
        );
        if !self.smoke {
            let [seal, open] = self.one_thread_vs_streamed();
            assert!(
                seal.min(open) >= STREAMED_FLOOR,
                "one-thread seal_chunks/open_chunks keep x{seal:.2}/x{open:.2} of the streamed \
                 kernel, under x{STREAMED_FLOOR}: is the output being filled before it is written?"
            );
        }
    }

    fn json(&self) -> Json {
        let stream_bytes = STREAM_CHUNKS * self.chunk_bytes;
        let seal_s = |d: &Duration| self.seal_wall[0].as_secs_f64() / d.as_secs_f64().max(1e-12);
        Json::obj()
            .field("bench", Json::Str("datapath".into()))
            .field("emitter", Json::Str("nexus-bench micro_datapath (scripts/bench.sh)".into()))
            .field("smoke", Json::Bool(self.smoke))
            .field("host_parallelism", Json::Int(self.host_parallelism as i64))
            .field("gcm_kernel", Json::Str(self.gcm_kernel.clone()))
            .field("file_bytes", Json::Int(self.file_bytes as i64))
            .field("chunk_bytes", Json::Int(self.chunk_bytes as i64))
            .field("chunks", Json::Int(self.chunks as i64))
            .field(
                "gcm_single_thread",
                Json::obj()
                    .field("bytes", Json::Int(self.chunk_bytes as i64))
                    .field("fused_mibps", Json::Num(mibps(self.chunk_bytes, self.fused))),
            )
            .field(
                "gcm_streamed",
                Json::obj()
                    .field("chunks", Json::Int(STREAM_CHUNKS as i64))
                    .field("bytes", Json::Int(stream_bytes as i64))
                    .field("seal_mibps", Json::Num(mibps(stream_bytes, self.stream_seal)))
                    .field("open_mibps", Json::Num(mibps(stream_bytes, self.stream_open))),
            )
            .field(
                "chunk_path",
                Json::obj()
                    .field("threads", Json::ints(THREAD_SWEEP.iter().map(|&n| n as i64)))
                    .field("seal_s", Json::nums(self.seal_wall.iter().map(Duration::as_secs_f64)))
                    .field(
                        "seal_mibps",
                        Json::nums(self.seal_wall.iter().map(|d| mibps(self.file_bytes, *d))),
                    )
                    .field("open_s", Json::nums(self.open_wall.iter().map(Duration::as_secs_f64)))
                    .field(
                        "open_mibps",
                        Json::nums(self.open_wall.iter().map(|d| mibps(self.file_bytes, *d))),
                    )
                    .field("measured_seal_speedup", Json::nums(self.seal_wall.iter().map(seal_s)))
                    .field("one_thread_vs_streamed", Json::nums(self.one_thread_vs_streamed())),
            )
            .field(
                "parallel_output_identical_to_serial",
                Json::Bool(self.parallel_output_identical_to_serial),
            )
    }
}
