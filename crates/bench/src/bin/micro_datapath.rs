//! Serial-vs-parallel chunk data-path micro-benchmark, and the emitter
//! behind `BENCH_datapath.json` (run via `scripts/bench.sh`).
//!
//! Three measurements, all of this host and nothing modelled, under a
//! header naming the kernels dispatch picked (`gcm_kernel` in the JSON):
//!
//! 1. **Single-thread AES-GCM** — the default lane's bulk path (on the
//!    hardware lane the fused kernels: CTR and GHASH in one pass) against
//!    the retained one-block-at-a-time scalar reference on one chunk-sized
//!    seal. One chunk sealed over and over stays in L2: this is what the
//!    kernel can do, not what a file sees.
//! 2. **Past the cache** — eight different chunks sealed, then opened, one
//!    after another into one reused buffer (`seal_into`/`open_into`, no
//!    allocation): 8 MiB in, 8 MiB out per pass, so every byte comes from
//!    and goes to memory the way an 8 MiB `write_file` moves it.
//! 3. **Chunk-path wall clock** — `nexus_core::datapath::{seal,open}_chunks`
//!    over an N-chunk file at 1/2/4/8 worker threads, asserting the
//!    parallel ciphertext is byte-identical to serial before timing. The
//!    speedup column is what this host measured at its
//!    `host_parallelism`; with two cores the 4- and 8-thread cells say
//!    what oversubscription costs, not what four cores would give.
//!
//! Flags: `--smoke` (small sizes, for `scripts/verify.sh`), `--json PATH`
//! (write the machine-readable document), `--file-mib N`, `--chunk-kib N`.

use std::time::Duration;

use nexus_bench::json::Json;
use nexus_bench::{arg_flag, arg_string, arg_usize, measure_micro, nanos, rule};
use nexus_core::datapath::{open_chunks, seal_chunks};
use nexus_core::metadata::filenode::{ChunkContext, Filenode};
use nexus_core::NexusUuid;
use nexus_crypto::gcm::AesGcm;
use nexus_pool::ThreadPool;
use nexus_workloads::fileio::{file_contents, fill_deterministic};

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn mibps(bytes: usize, d: Duration) -> f64 {
    bytes as f64 / d.as_secs_f64().max(1e-12) / (1024.0 * 1024.0)
}

fn main() {
    let smoke = arg_flag("--smoke");
    let file_mib = arg_usize("--file-mib", if smoke { 2 } else { 8 });
    let chunk_kib = arg_usize("--chunk-kib", if smoke { 256 } else { 1024 });
    let gcm_bytes = if smoke { 256 * 1024 } else { 1024 * 1024 };
    let gcm_kernel = nexus_crypto::cpu::describe();
    let chunk_size = chunk_kib * 1024;
    let file_bytes = file_mib * 1024 * 1024;
    let host_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    rule(78);
    println!("micro_datapath — serial vs parallel chunk data path");
    println!(
        "file {file_mib} MiB in {chunk_kib} KiB chunks; host parallelism {host_threads}; \
         median of 5 batched samples"
    );
    println!("crypto lanes: {gcm_kernel}");
    rule(78);

    // 1. Single-thread AES-GCM: the lane's bulk path vs scalar reference.
    let gcm = AesGcm::new_128(&[7u8; 16]);
    let pt = file_contents(gcm_bytes, 0xda7a);
    let nonce = [1u8; 12];
    let t_scalar = measure_micro(|| gcm.seal_detached_scalar(&nonce, b"aad", &pt));
    let mut sealed = vec![0u8; gcm_bytes + nexus_crypto::gcm::TAG_LEN];
    let t_fused = measure_micro(|| gcm.seal_into(&nonce, b"aad", &pt, &mut sealed));
    let gcm_speedup = t_scalar.as_secs_f64() / t_fused.as_secs_f64().max(1e-12);
    println!(
        "aes-gcm seal {gcm_bytes}B  scalar {:>10}  ({:>7.1} MiB/s)",
        nanos(t_scalar),
        mibps(gcm_bytes, t_scalar)
    );
    println!(
        "aes-gcm seal {gcm_bytes}B  fused {:>11}  ({:>7.1} MiB/s)  speedup x{gcm_speedup:.2}",
        nanos(t_fused),
        mibps(gcm_bytes, t_fused)
    );

    // 2. The same kernel past the cache: eight chunks' worth of distinct
    // plaintext through one output buffer.
    const STREAM_CHUNKS: usize = 8;
    let stream_bytes = STREAM_CHUNKS * gcm_bytes;
    let stream_pt = file_contents(stream_bytes, 0x57e4);
    let mut stream_ct = vec![0u8; STREAM_CHUNKS * sealed.len()];
    let t_stream_seal = measure_micro(|| {
        for (pt, out) in stream_pt.chunks(gcm_bytes).zip(stream_ct.chunks_mut(sealed.len())) {
            gcm.seal_into(&nonce, b"aad", pt, out);
        }
    });
    let mut stream_back = vec![0u8; stream_bytes];
    let t_stream_open = measure_micro(|| {
        for (ct, out) in stream_ct.chunks(sealed.len()).zip(stream_back.chunks_mut(gcm_bytes)) {
            gcm.open_into(&nonce, b"aad", ct, out).expect("own ciphertext");
        }
    });
    assert!(stream_back == stream_pt, "streamed open diverged from its plaintext");
    println!(
        "aes-gcm {STREAM_CHUNKS} x {gcm_bytes}B into reused buffers  \
         seal {:>10} ({:>7.1} MiB/s)   open {:>10} ({:>7.1} MiB/s)",
        nanos(t_stream_seal),
        mibps(stream_bytes, t_stream_seal),
        nanos(t_stream_open),
        mibps(stream_bytes, t_stream_open)
    );

    // 3. Chunk path at each worker count.
    let data = file_contents(file_bytes, 0x5eed);
    let n_chunks = Filenode::chunk_count_for(file_bytes as u64, chunk_size as u32) as usize;
    let uuid = NexusUuid([0x42; 16]);
    let contexts: Vec<ChunkContext> = (0..n_chunks)
        .map(|i| {
            let mut key = [0u8; 16];
            fill_deterministic(&mut key, i as u64);
            let mut nonce = [0u8; 12];
            fill_deterministic(&mut nonce, i as u64 ^ 0xff);
            ChunkContext { key, nonce }
        })
        .collect();
    let mut fnode = Filenode::new(uuid, NexusUuid([0; 16]), uuid, chunk_size as u32);
    fnode.size = file_bytes as u64;
    fnode.chunks = contexts.clone();

    let serial_ct = seal_chunks(&ThreadPool::new(1), &uuid, &data, chunk_size, &contexts);
    let mut seal_wall = Vec::new();
    let mut open_wall = Vec::new();
    for &threads in &THREAD_SWEEP {
        let pool = ThreadPool::new(threads);
        // Determinism gate: never time a configuration whose bytes differ.
        let ct = seal_chunks(&pool, &uuid, &data, chunk_size, &contexts);
        assert_eq!(ct, serial_ct, "parallel ciphertext diverged at {threads} threads");
        let t_seal = measure_micro(|| seal_chunks(&pool, &uuid, &data, chunk_size, &contexts));
        let t_open =
            measure_micro(|| open_chunks(&pool, &fnode, &serial_ct, 0, n_chunks as u64).unwrap());
        println!(
            "chunk path {threads} thread(s)   seal {:>10} ({:>7.1} MiB/s)   open {:>10} ({:>7.1} MiB/s)",
            nanos(t_seal),
            mibps(file_bytes, t_seal),
            nanos(t_open),
            mibps(file_bytes, t_open)
        );
        seal_wall.push(t_seal);
        open_wall.push(t_open);
    }

    let measured_speedup: Vec<f64> = seal_wall
        .iter()
        .map(|d| seal_wall[0].as_secs_f64() / d.as_secs_f64().max(1e-12))
        .collect();
    rule(78);

    if let Some(path) = arg_string("--json") {
        let doc = Json::obj()
            .field("bench", Json::Str("datapath".into()))
            .field("emitter", Json::Str("nexus-bench micro_datapath (scripts/bench.sh)".into()))
            .field("smoke", Json::Bool(smoke))
            .field("host_parallelism", Json::Int(host_threads as i64))
            .field("gcm_kernel", Json::Str(gcm_kernel))
            .field("file_bytes", Json::Int(file_bytes as i64))
            .field("chunk_bytes", Json::Int(chunk_size as i64))
            .field("chunks", Json::Int(n_chunks as i64))
            .field(
                "gcm_single_thread",
                Json::obj()
                    .field("bytes", Json::Int(gcm_bytes as i64))
                    .field("scalar_mibps", Json::Num(mibps(gcm_bytes, t_scalar)))
                    .field("fused_mibps", Json::Num(mibps(gcm_bytes, t_fused)))
                    .field("speedup", Json::Num(gcm_speedup)),
            )
            .field(
                "gcm_streamed",
                Json::obj()
                    .field("chunks", Json::Int(STREAM_CHUNKS as i64))
                    .field("bytes", Json::Int(stream_bytes as i64))
                    .field("seal_mibps", Json::Num(mibps(stream_bytes, t_stream_seal)))
                    .field("open_mibps", Json::Num(mibps(stream_bytes, t_stream_open))),
            )
            .field(
                "chunk_path",
                Json::obj()
                    .field("threads", Json::ints(THREAD_SWEEP.iter().map(|&n| n as i64)))
                    .field("seal_s", Json::nums(seal_wall.iter().map(Duration::as_secs_f64)))
                    .field(
                        "seal_mibps",
                        Json::nums(seal_wall.iter().map(|d| mibps(file_bytes, *d))),
                    )
                    .field("open_s", Json::nums(open_wall.iter().map(Duration::as_secs_f64)))
                    .field(
                        "open_mibps",
                        Json::nums(open_wall.iter().map(|d| mibps(file_bytes, *d))),
                    )
                    .field("measured_seal_speedup", Json::nums(measured_speedup.iter().copied())),
            )
            .field("parallel_output_identical_to_serial", Json::Bool(true));
        std::fs::write(&path, doc.render()).expect("write json");
        println!("wrote {path}");
    }
}
