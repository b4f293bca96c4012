//! The parallel chunk data path.
//!
//! NEXUS seals every file chunk under an independent key drawn fresh at
//! write time (§VI-A), so the chunk loops of `fs_encrypt`/`fs_decrypt` have
//! no cross-chunk data dependencies and fan out cleanly over the
//! [`nexus_pool`] worker pool.
//!
//! Output is **byte-identical for any worker count** because nothing
//! order-dependent happens inside the fan-out:
//!
//! - all per-chunk keys and nonces are drawn *serially* by the caller
//!   before the fan-out, so the RNG stream is consumed in the same order
//!   as the serial loop;
//! - each worker writes only its own indexed result slot, and the slots
//!   are concatenated in index order afterwards;
//! - on decrypt, the error surfaced is the one from the lowest-indexed
//!   failing chunk, matching where the serial loop would have stopped.

use nexus_crypto::gcm::AesGcm;
use nexus_pool::ThreadPool;

use crate::error::{NexusError, Result};
use crate::metadata::filenode::{ChunkContext, Filenode, CHUNK_OVERHEAD};
use crate::uuid::NexusUuid;
use crate::wire::Writer;

/// AAD binding a chunk to its file, position, and file size.
pub(crate) fn chunk_aad(data_uuid: &NexusUuid, index: u64, total_size: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.uuid(data_uuid).u64(index).u64(total_size);
    w.into_bytes()
}

/// Seals `data` into the concatenated chunked-ciphertext format using the
/// pre-drawn per-chunk `contexts` (one per chunk, in index order).
pub fn seal_chunks(
    pool: &ThreadPool,
    data_uuid: &NexusUuid,
    data: &[u8],
    chunk_size: usize,
    contexts: &[ChunkContext],
) -> Vec<u8> {
    let chunks: Vec<&[u8]> = data.chunks(chunk_size.max(1)).collect();
    debug_assert_eq!(chunks.len(), contexts.len(), "one context per chunk");
    let total = data.len() as u64;
    let sealed = pool.par_map_indexed(&chunks, |idx, chunk| {
        let ctx = &contexts[idx];
        let gcm = AesGcm::new(&ctx.key);
        let aad = chunk_aad(data_uuid, idx as u64, total);
        let mut out = Vec::new();
        gcm.seal_to(&ctx.nonce, &aad, chunk, &mut out);
        out
    });
    let mut ciphertext = Vec::with_capacity(data.len() + chunks.len() * CHUNK_OVERHEAD as usize);
    for piece in &sealed {
        ciphertext.extend_from_slice(piece);
    }
    ciphertext
}

/// Decrypts `count` chunks starting at chunk `first`, where `ciphertext`
/// begins exactly at chunk `first`'s ciphertext offset.
pub fn open_chunks(
    pool: &ThreadPool,
    fnode: &Filenode,
    ciphertext: &[u8],
    first: u64,
    count: u64,
) -> Result<Vec<u8>> {
    // Slice the span into per-chunk ciphertexts serially (pure arithmetic)
    // so structural errors surface before any crypto runs.
    let mut pieces: Vec<(u64, &ChunkContext, &[u8])> = Vec::with_capacity(count as usize);
    let mut cursor = 0usize;
    for idx in first..first + count {
        let ctx = fnode
            .chunks
            .get(idx as usize)
            .ok_or_else(|| NexusError::Integrity("missing chunk context".into()))?;
        let ct_len = (fnode.plaintext_chunk_len(idx) + CHUNK_OVERHEAD) as usize;
        let chunk_ct = ciphertext
            .get(cursor..cursor + ct_len)
            .ok_or_else(|| NexusError::Integrity("data object truncated".into()))?;
        cursor += ct_len;
        pieces.push((idx, ctx, chunk_ct));
    }
    let opened = pool.par_map_indexed(&pieces, |_, &(idx, ctx, chunk_ct)| {
        let gcm = AesGcm::new(&ctx.key);
        let aad = chunk_aad(&fnode.data_uuid, idx, fnode.size);
        let mut plain = Vec::new();
        gcm.open_to(&ctx.nonce, &aad, chunk_ct, &mut plain)
            .map(|()| plain)
            .map_err(|_| NexusError::Integrity(format!("chunk {idx} failed authentication")))
    });
    let mut out = Vec::with_capacity(ciphertext.len().saturating_sub(pieces.len() * CHUNK_OVERHEAD as usize));
    // Iterating in index order makes the surfaced error the lowest-indexed
    // failure, exactly as the serial loop would report.
    for piece in opened {
        out.extend_from_slice(&piece?);
    }
    Ok(out)
}

/// Pipelined fetch→decrypt over a whole data object: windows of `window`
/// chunks are fetched by `fetch(first_chunk, count)` while the pool opens
/// the previous window, so transfer and AES-GCM overlap instead of
/// serialising. Double-buffered: at most one window is in flight ahead of
/// the decryptor.
///
/// The plaintext is byte-identical to [`open_chunks`] over the full
/// ciphertext, and the surfaced error is still the lowest-indexed failure:
/// window `k`'s decrypt error is returned before window `k+1`'s fetch
/// result is even examined.
pub fn open_chunks_pipelined<F>(
    pool: &ThreadPool,
    fnode: &Filenode,
    window: usize,
    fetch: F,
) -> Result<Vec<u8>>
where
    F: Fn(u64, u64) -> Result<Vec<u8>> + Sync,
{
    let total = fnode.chunks.len() as u64;
    if total == 0 {
        return Ok(Vec::new());
    }
    let window = window.max(1) as u64;
    let mut out = Vec::with_capacity(fnode.size as usize);
    let mut first = 0u64;
    let mut inflight: Result<Vec<u8>> = fetch(0, window.min(total));
    while first < total {
        let count = window.min(total - first);
        let next_first = first + count;
        let next_count = window.min(total.saturating_sub(next_first));
        let span = inflight?;
        let fetch_ref = &fetch;
        let (plain, next) = std::thread::scope(|s| {
            let handle =
                (next_count > 0).then(|| s.spawn(move || fetch_ref(next_first, next_count)));
            let plain = open_chunks(pool, fnode, &span, first, count);
            let next = handle.map(|h| h.join().expect("prefetch thread panicked"));
            (plain, next)
        });
        out.extend_from_slice(&plain?);
        inflight = next.unwrap_or(Ok(Vec::new()));
        first = next_first;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_crypto::rng::{SecureRandom, SeededRandom};

    fn contexts_for(rng: &mut SeededRandom, n: usize) -> Vec<ChunkContext> {
        (0..n)
            .map(|_| {
                let mut key = [0u8; 16];
                rng.fill(&mut key);
                let mut nonce = [0u8; 12];
                rng.fill(&mut nonce);
                ChunkContext { key, nonce }
            })
            .collect()
    }

    fn filenode_with(contexts: Vec<ChunkContext>, size: u64, chunk_size: u32) -> Filenode {
        let mut fnode = Filenode::new(
            NexusUuid([1; 16]),
            NexusUuid([2; 16]),
            NexusUuid([3; 16]),
            chunk_size,
        );
        fnode.size = size;
        fnode.chunks = contexts;
        fnode
    }

    #[test]
    fn parallel_seal_open_matches_serial_bytes() {
        let chunk_size = 256u32;
        let mut rng = SeededRandom::new(77);
        for len in [0usize, 1, 255, 256, 257, 1024, 5000] {
            let mut data = vec![0u8; len];
            rng.fill(&mut data);
            let n_chunks = Filenode::chunk_count_for(len as u64, chunk_size) as usize;
            let contexts = contexts_for(&mut rng, n_chunks);
            let uuid = NexusUuid([9; 16]);

            let serial = seal_chunks(&ThreadPool::new(1), &uuid, &data, chunk_size as usize, &contexts);
            for workers in [2, 4, 8] {
                let parallel =
                    seal_chunks(&ThreadPool::new(workers), &uuid, &data, chunk_size as usize, &contexts);
                assert_eq!(parallel, serial, "len={len} workers={workers}");
            }

            let mut fnode = filenode_with(contexts, len as u64, chunk_size);
            fnode.data_uuid = uuid;
            let count = fnode.chunks.len() as u64;
            let serial_pt = open_chunks(&ThreadPool::new(1), &fnode, &serial, 0, count).unwrap();
            assert_eq!(serial_pt, data);
            for workers in [2, 8] {
                let pt = open_chunks(&ThreadPool::new(workers), &fnode, &serial, 0, count).unwrap();
                assert_eq!(pt, data, "len={len} workers={workers}");
            }
        }
    }

    #[test]
    fn open_reports_lowest_failing_chunk() {
        let chunk_size = 64u32;
        let mut rng = SeededRandom::new(78);
        let mut data = vec![0u8; 640];
        rng.fill(&mut data);
        let contexts = contexts_for(&mut rng, 10);
        let uuid = NexusUuid([4; 16]);
        let mut ct = seal_chunks(&ThreadPool::new(4), &uuid, &data, chunk_size as usize, &contexts);
        // Corrupt chunks 3 and 7; the error must name chunk 3 at any width.
        let per = chunk_size as usize + CHUNK_OVERHEAD as usize;
        ct[3 * per] ^= 1;
        ct[7 * per] ^= 1;
        let mut fnode = filenode_with(contexts, 640, chunk_size);
        fnode.data_uuid = uuid;
        for workers in [1, 2, 8] {
            let err = open_chunks(&ThreadPool::new(workers), &fnode, &ct, 0, 10).unwrap_err();
            assert!(err.to_string().contains("chunk 3"), "workers={workers}: {err}");
        }
    }

    #[test]
    fn pipelined_open_matches_whole_object_open() {
        let chunk_size = 128u32;
        let mut rng = SeededRandom::new(79);
        for len in [1usize, 127, 128, 129, 1000, 2048] {
            let mut data = vec![0u8; len];
            rng.fill(&mut data);
            let n_chunks = Filenode::chunk_count_for(len as u64, chunk_size) as usize;
            let contexts = contexts_for(&mut rng, n_chunks);
            let uuid = NexusUuid([8; 16]);
            let ct = seal_chunks(&ThreadPool::new(4), &uuid, &data, chunk_size as usize, &contexts);
            let mut fnode = filenode_with(contexts, len as u64, chunk_size);
            fnode.data_uuid = uuid;
            for window in [1usize, 2, 3, 4, 64] {
                let got = open_chunks_pipelined(&ThreadPool::new(4), &fnode, window, |first, count| {
                    let (start, _) = fnode.ciphertext_range(first);
                    let (last_start, last_len) = fnode.ciphertext_range(first + count - 1);
                    Ok(ct[start as usize..(last_start + last_len) as usize].to_vec())
                })
                .unwrap();
                assert_eq!(got, data, "len={len} window={window}");
            }
        }
    }

    #[test]
    fn pipelined_open_reports_lowest_failing_chunk() {
        let chunk_size = 64u32;
        let mut rng = SeededRandom::new(80);
        let mut data = vec![0u8; 640];
        rng.fill(&mut data);
        let contexts = contexts_for(&mut rng, 10);
        let uuid = NexusUuid([7; 16]);
        let mut ct = seal_chunks(&ThreadPool::new(4), &uuid, &data, chunk_size as usize, &contexts);
        let per = chunk_size as usize + CHUNK_OVERHEAD as usize;
        ct[5 * per] ^= 1;
        ct[9 * per] ^= 1;
        let mut fnode = filenode_with(contexts, 640, chunk_size);
        fnode.data_uuid = uuid;
        for window in [1usize, 3, 4] {
            let err = open_chunks_pipelined(&ThreadPool::new(2), &fnode, window, |first, count| {
                let (start, _) = fnode.ciphertext_range(first);
                let (last_start, last_len) = fnode.ciphertext_range(first + count - 1);
                Ok(ct[start as usize..(last_start + last_len) as usize].to_vec())
            })
            .unwrap_err();
            assert!(err.to_string().contains("chunk 5"), "window={window}: {err}");
        }
    }

    #[test]
    fn chunk_aad_is_positional() {
        let u = NexusUuid([5; 16]);
        assert_ne!(chunk_aad(&u, 0, 100), chunk_aad(&u, 1, 100));
        assert_ne!(chunk_aad(&u, 0, 100), chunk_aad(&u, 0, 101));
        assert_ne!(chunk_aad(&u, 0, 100), chunk_aad(&NexusUuid([6; 16]), 0, 100));
    }
}
