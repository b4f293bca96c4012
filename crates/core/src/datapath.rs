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
    fn chunk_aad_is_positional() {
        let u = NexusUuid([5; 16]);
        assert_ne!(chunk_aad(&u, 0, 100), chunk_aad(&u, 1, 100));
        assert_ne!(chunk_aad(&u, 0, 100), chunk_aad(&u, 0, 101));
        assert_ne!(chunk_aad(&u, 0, 100), chunk_aad(&NexusUuid([6; 16]), 0, 100));
    }
}
