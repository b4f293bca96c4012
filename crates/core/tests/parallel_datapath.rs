//! Property test for the parallel chunk data path: for random file sizes
//! (including exact chunk boundaries and the empty file), sealing and
//! opening through the worker pool at 1, 2, and 8 threads round-trips and
//! produces ciphertext byte-for-byte identical to the serial loop. This is
//! the determinism contract `nexus_core::datapath` documents; a scheduling
//! dependency anywhere in the fan-out breaks it. Every worker seals into
//! its slot of one shared buffer, so the serial bytes are also compared
//! with the per-chunk `AesGcm::seal` outputs laid end to end, and a forged
//! chunk must be named — the lowest one — at every width. A second test
//! does the same at production chunk sizes, where each chunk is long enough
//! for every stage of the hardware lane's AES-GCM chain (wide kernel, narrow
//! kernel, scalar tail), against the one-block-at-a-time reference.

use nexus_core::datapath::{open_chunks, seal_chunks};
use nexus_core::metadata::filenode::{ChunkContext, Filenode};
use nexus_core::{NexusError, NexusUuid};
use nexus_crypto::gcm::AesGcm;
use nexus_pool::ThreadPool;
use nexus_testkit::{shrink, spec, tk_assert, tk_assert_eq, Gen, Runner};

const CHUNK_SIZE: u32 = 256;

/// One generated case: the file contents (chunking derives from length).
fn gen_case(g: &mut Gen) -> Vec<u8> {
    // Bias toward interesting sizes: near chunk multiples and small files.
    let len = match g.usize_below(4) {
        0 => g.usize_in(0, 8),
        1 => {
            let chunks = g.usize_in(1, 8);
            let jitter = g.usize_in(0, 2);
            (chunks * CHUNK_SIZE as usize).saturating_sub(1) + jitter
        }
        _ => g.usize_in(0, 2048),
    };
    let mut data = vec![0u8; len];
    for chunk in data.chunks_mut(8) {
        let bytes = g.u64().to_le_bytes();
        chunk.copy_from_slice(&bytes[..chunk.len()]);
    }
    data
}

fn contexts_for(g: &mut Gen, n: usize) -> Vec<ChunkContext> {
    (0..n).map(|_| ChunkContext { key: g.bytes::<16>(), nonce: g.bytes::<12>() }).collect()
}

#[test]
fn parallel_seal_open_matches_serial_at_every_width() {
    Runner::new("parallel_seal_open_matches_serial_at_every_width")
        .cases(48)
        // Always-run corpus: empty file, one byte, exactly one chunk,
        // exactly two chunks, two chunks plus one byte.
        .regressions([
            Vec::new(),
            vec![0xa5],
            vec![0x5a; CHUNK_SIZE as usize],
            vec![0x3c; 2 * CHUNK_SIZE as usize],
            vec![0xc3; 2 * CHUNK_SIZE as usize + 1],
        ])
        .run(
            gen_case,
            |v| shrink::bytes(v),
            |data| {
                // Contexts derive from the data so regression cases are
                // self-contained; drawn once, shared by every width.
                let mut g = Gen::new(0x9e37 ^ data.len() as u64);
                let n_chunks = Filenode::chunk_count_for(data.len() as u64, CHUNK_SIZE) as usize;
                let contexts = contexts_for(&mut g, n_chunks);
                let uuid = NexusUuid(g.bytes::<16>());

                let serial =
                    seal_chunks(&ThreadPool::new(1), &uuid, data, CHUNK_SIZE as usize, &contexts);
                tk_assert_eq!(
                    serial.len(),
                    data.len() + n_chunks * 16,
                    "sealed size is plaintext plus one tag per chunk"
                );

                // The slot layout: chunk i's `seal` output at i × (chunk + tag).
                let mut laid_out = Vec::with_capacity(serial.len());
                for (idx, (chunk, ctx)) in
                    data.chunks(CHUNK_SIZE as usize).zip(&contexts).enumerate()
                {
                    let mut aad = uuid.0.to_vec();
                    aad.extend((idx as u64).to_le_bytes());
                    aad.extend((data.len() as u64).to_le_bytes());
                    laid_out.extend(AesGcm::new(&ctx.key).seal(&ctx.nonce, &aad, chunk));
                }
                tk_assert_eq!(&serial, &laid_out, "one buffer, same bytes as per-chunk seals");

                let mut fnode =
                    Filenode::new(uuid, NexusUuid([0; 16]), uuid, CHUNK_SIZE);
                fnode.size = data.len() as u64;
                fnode.chunks = contexts.clone();

                for workers in [2usize, 8] {
                    let pool = ThreadPool::new(workers);
                    let parallel =
                        seal_chunks(&pool, &uuid, data, CHUNK_SIZE as usize, &contexts);
                    tk_assert_eq!(
                        &parallel,
                        &serial,
                        "ciphertext must be byte-identical at {workers} workers"
                    );
                    let opened = open_chunks(&pool, &fnode, &serial, 0, n_chunks as u64)
                        .map_err(|e| format!("open failed at {workers} workers: {e}"))?;
                    tk_assert_eq!(&opened, data, "roundtrip at {workers} workers");
                }
                let opened = open_chunks(&ThreadPool::new(1), &fnode, &serial, 0, n_chunks as u64)
                    .map_err(|e| format!("serial open failed: {e}"))?;
                tk_assert_eq!(&opened, data, "serial roundtrip");

                // Forge two chunks (where there are two): every width names
                // the lower one and returns nothing else.
                if n_chunks > 0 {
                    let per = CHUNK_SIZE as usize + 16;
                    let low = g.usize_below(n_chunks);
                    let high = low + g.usize_below(n_chunks - low);
                    let mut forged = serial.clone();
                    // Distinct bits, so `low == high` is still a forgery.
                    for (chunk, bit) in [(low, 0x80), (high, 0x01)] {
                        // A chunk's last byte is always there (its tag), even
                        // when the chunk is the short last one.
                        let end = ((chunk + 1) * per).min(forged.len());
                        forged[end - 1] ^= bit;
                    }
                    for workers in [1usize, 2, 8] {
                        let result =
                            open_chunks(&ThreadPool::new(workers), &fnode, &forged, 0, n_chunks as u64);
                        let expected = format!("chunk {low} failed authentication");
                        tk_assert!(
                            matches!(&result, Err(NexusError::Integrity(m)) if *m == expected),
                            "workers={workers}, forged {low} and {high}: {result:?}"
                        );
                    }
                }
                Ok(())
            },
        );
}

/// A 3 MiB + 300-byte file at the default 1 MiB chunk size (three chunks of
/// whole 256-byte groups, then a 300-byte one: two 128-byte groups and a
/// tail) and at 1 MiB + 200 (every chunk, the short last one included, is
/// 256-byte groups, then one 128-byte group, then a tail — all three stages
/// of the hardware lane in one chunk): the slots hold the spec reference's
/// bytes at every width, and open at every width.
#[test]
fn megabyte_chunks_match_the_scalar_reference_through_every_kernel_stage() {
    const FILE: usize = 3 * (1 << 20) + 300;
    let mut g = Gen::new(0x3_0300);
    let mut data = vec![0u8; FILE];
    for chunk in data.chunks_mut(8) {
        chunk.copy_from_slice(&g.u64().to_le_bytes()[..chunk.len()]);
    }
    let uuid = NexusUuid(g.bytes::<16>());
    for chunk_size in [1usize << 20, (1 << 20) + 200] {
        let n_chunks = Filenode::chunk_count_for(FILE as u64, chunk_size as u32) as usize;
        let contexts = contexts_for(&mut g, n_chunks);
        let mut reference = Vec::with_capacity(FILE + n_chunks * 16);
        for (idx, (chunk, ctx)) in data.chunks(chunk_size).zip(&contexts).enumerate() {
            let mut aad = uuid.0.to_vec();
            aad.extend((idx as u64).to_le_bytes());
            aad.extend((FILE as u64).to_le_bytes());
            let (ct, tag) = spec::gcm_seal(&ctx.key, &ctx.nonce, &aad, chunk);
            reference.extend(ct);
            reference.extend(tag);
        }
        let mut fnode = Filenode::new(uuid, NexusUuid([0; 16]), uuid, chunk_size as u32);
        fnode.size = FILE as u64;
        fnode.chunks = contexts.clone();
        for workers in [1usize, 2, 8] {
            let pool = ThreadPool::new(workers);
            let sealed = seal_chunks(&pool, &uuid, &data, chunk_size, &contexts);
            assert!(sealed == reference, "chunk size {chunk_size}, {workers} workers: bytes");
            let opened = open_chunks(&pool, &fnode, &reference, 0, n_chunks as u64).unwrap();
            assert!(opened == data, "chunk size {chunk_size}, {workers} workers: roundtrip");
        }
    }
}
