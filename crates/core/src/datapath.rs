//! The parallel chunk data path.
//!
//! NEXUS seals every file chunk under an independent key drawn fresh at
//! write time (§VI-A), so the chunk loops of `fs_write`/`fs_decrypt` have
//! no cross-chunk data dependencies and fan out cleanly over the
//! [`nexus_pool`] worker pool.
//!
//! **One buffer per direction, written once.** [`seal_chunks`] reserves the
//! data object as a [`WriteOnce`] — capacity, no fill — and every worker
//! seals its chunk straight into that chunk's `chunk_size + CHUNK_OVERHEAD`
//! [`Slot`]; [`open_chunks`] reserves the plaintext the same way and every
//! worker opens into its slot. Nothing is sealed into a per-chunk buffer and
//! concatenated afterwards, and nothing zeroes 8 MiB that the kernel is
//! about to overwrite. The slots are disjoint pieces of the one buffer,
//! handed to the workers by [`ThreadPool::par_map_indexed_mut`]; a slot can
//! be sealed or opened into and nothing else, and the buffer becomes a
//! `Vec<u8>` only when every slot was filled — so neither the hand-out nor
//! the missing fill needs `unsafe` here (it lives in
//! [`nexus_crypto::write_once`]).
//!
//! Output is **byte-identical for any worker count** because nothing
//! order-dependent happens inside the fan-out:
//!
//! - all per-chunk keys and nonces are drawn *serially* by the caller
//!   before the fan-out, so the RNG stream is consumed in the same order
//!   as the serial loop;
//! - each worker writes only its own slot, and a slot's position is a
//!   function of its index alone;
//! - on decrypt, the error surfaced is the one from the lowest-indexed
//!   failing chunk, matching where the serial loop would have stopped.
//!
//! **Authentication on reads.** [`Slot::open`] decrypts in the same pass it
//! authenticates, zeroizes its slot when the tag does not match and leaves
//! it unfilled; on any failing chunk `open_chunks` drops the whole buffer —
//! the chunks that did authenticate included — and returns only the error.
//! No unauthenticated byte leaves the enclave call.

use nexus_crypto::gcm::AesGcm;
use nexus_crypto::write_once::{Slot, WriteOnce};
use nexus_pool::ThreadPool;

use crate::error::{NexusError, Result};
use crate::metadata::filenode::{ChunkContext, Filenode, CHUNK_OVERHEAD};
use crate::uuid::NexusUuid;

/// AAD binding a chunk to its file, position, and file size:
/// `uuid ‖ index LE ‖ size LE`.
pub(crate) fn chunk_aad(data_uuid: &NexusUuid, index: u64, total_size: u64) -> [u8; 32] {
    let mut aad = [0u8; 32];
    aad[..16].copy_from_slice(&data_uuid.0);
    aad[16..24].copy_from_slice(&index.to_le_bytes());
    aad[24..].copy_from_slice(&total_size.to_le_bytes());
    aad
}

/// One chunk's work in a fan-out: which chunk, under which key, from
/// which bytes, into which slot of the one output buffer.
struct Job<'a> {
    index: u64,
    context: &'a ChunkContext,
    input: &'a [u8],
    slot: Slot<'a>,
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
    let chunk_size = chunk_size.max(1);
    let overhead = CHUNK_OVERHEAD as usize;
    let n_chunks = data.len().div_ceil(chunk_size);
    assert_eq!(n_chunks, contexts.len(), "one context per chunk");
    let total = data.len() as u64;
    let mut ciphertext = WriteOnce::reserve(data.len() + n_chunks * overhead);
    // Every chunk but the last is `chunk_size` long, so chunk i's slot
    // starts at i × (chunk_size + overhead).
    let slots = ciphertext.slots(data.chunks(chunk_size).map(|chunk| chunk.len() + overhead));
    let mut jobs: Vec<Job<'_>> = data
        .chunks(chunk_size)
        .zip(slots)
        .zip(contexts)
        .zip(0..)
        .map(|(((input, slot), context), index)| Job { index, context, input, slot })
        .collect();
    pool.par_map_indexed_mut(&mut jobs, |_, job| {
        let gcm = AesGcm::new(&job.context.key);
        let aad = chunk_aad(data_uuid, job.index, total);
        job.slot.seal(&gcm, &job.context.nonce, &aad, job.input);
    });
    ciphertext.finish()
}

/// Decrypts `count` chunks starting at chunk `first`, where `ciphertext`
/// begins exactly at chunk `first`'s ciphertext offset.
///
/// # Errors
///
/// [`NexusError::Integrity`] naming the lowest-indexed chunk that fails
/// authentication (or a structural mismatch between the filenode and the
/// span, found before any crypto runs). Nothing of the plaintext buffer is
/// returned in that case.
pub fn open_chunks(
    pool: &ThreadPool,
    fnode: &Filenode,
    ciphertext: &[u8],
    first: u64,
    count: u64,
) -> Result<Vec<u8>> {
    // Slice the span into per-chunk ciphertexts serially (pure arithmetic)
    // so structural errors surface before any crypto runs — and before
    // anything is allocated: the filenode bounds the chunk list, and the
    // span the plaintext.
    let contexts = first
        .checked_add(count)
        .and_then(|end| fnode.chunks.get(usize::try_from(first).ok()?..usize::try_from(end).ok()?))
        .ok_or_else(|| NexusError::Integrity("missing chunk context".into()))?;
    let overhead = CHUNK_OVERHEAD as usize;
    let mut pieces: Vec<(u64, &ChunkContext, &[u8])> = Vec::with_capacity(contexts.len());
    let mut cursor = 0usize;
    for (idx, ctx) in (first..).zip(contexts) {
        let ct_len = fnode.plaintext_chunk_len(idx) as usize + overhead;
        let chunk_ct = ciphertext
            .get(cursor..cursor + ct_len)
            .ok_or_else(|| NexusError::Integrity("data object truncated".into()))?;
        cursor += ct_len;
        pieces.push((idx, ctx, chunk_ct));
    }
    let mut plain = WriteOnce::reserve(cursor - pieces.len() * overhead);
    let slots = plain.slots(pieces.iter().map(|(_, _, input)| input.len() - overhead));
    let mut jobs: Vec<Job<'_>> = pieces
        .into_iter()
        .zip(slots)
        .map(|((index, context, input), slot)| Job { index, context, input, slot })
        .collect();
    let opened = pool.par_map_indexed_mut(&mut jobs, |_, job| {
        let gcm = AesGcm::new(&job.context.key);
        let aad = chunk_aad(&fnode.data_uuid, job.index, fnode.size);
        job.slot.open(&gcm, &job.context.nonce, &aad, job.input).map_err(|_| {
            NexusError::Integrity(format!("chunk {} failed authentication", job.index))
        })
    });
    // In index order, so the surfaced error is the lowest-indexed failure,
    // exactly as the serial loop would report; `plain` drops with it,
    // unfinished.
    opened.into_iter().collect::<Result<()>>()?;
    Ok(plain.finish())
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

    /// The one-buffer layout is the per-chunk `seal` outputs laid end to
    /// end — what the data object has always been — at every worker count,
    /// and a ranged open lands each chunk in its own slot.
    #[test]
    fn slots_are_the_per_chunk_seals_laid_end_to_end() {
        let chunk_size = 200u32;
        let mut rng = SeededRandom::new(79);
        let mut data = vec![0u8; 5 * 200 + 37];
        rng.fill(&mut data);
        let contexts = contexts_for(&mut rng, 6);
        let uuid = NexusUuid([7; 16]);
        let mut expect = Vec::new();
        for (idx, (chunk, ctx)) in data.chunks(200).zip(&contexts).enumerate() {
            let aad = chunk_aad(&uuid, idx as u64, data.len() as u64);
            expect.extend(AesGcm::new(&ctx.key).seal(&ctx.nonce, &aad, chunk));
        }
        let mut fnode = filenode_with(contexts.clone(), data.len() as u64, chunk_size);
        fnode.data_uuid = uuid;
        for workers in [1, 2, 8] {
            let pool = ThreadPool::new(workers);
            let ct = seal_chunks(&pool, &uuid, &data, chunk_size as usize, &contexts);
            assert_eq!(ct, expect, "workers={workers}");
            // Chunks 2..=5, the short last chunk included.
            let (start, _) = fnode.ciphertext_range(2);
            let span = &ct[start as usize..];
            assert_eq!(open_chunks(&pool, &fnode, span, 2, 4).unwrap(), data[400..]);
        }
    }

    /// A failing open hands back the error naming the chunk and nothing
    /// else: not the chunks that did authenticate, not a partial buffer.
    #[test]
    fn a_failing_open_returns_nothing_of_the_buffer() {
        let chunk_size = 64u32;
        let mut rng = SeededRandom::new(80);
        let data = b"plaintext that authenticated must not leak past a failure. ".repeat(4);
        let n = Filenode::chunk_count_for(data.len() as u64, chunk_size) as usize;
        let contexts = contexts_for(&mut rng, n);
        let uuid = NexusUuid([8; 16]);
        let mut ct = seal_chunks(&ThreadPool::new(1), &uuid, &data, chunk_size as usize, &contexts);
        // Only the last chunk is forged: every earlier slot holds
        // authenticated plaintext when the failure is found.
        *ct.last_mut().unwrap() ^= 1;
        let mut fnode = filenode_with(contexts, data.len() as u64, chunk_size);
        fnode.data_uuid = uuid;
        for workers in [1, 2, 8] {
            let result = open_chunks(&ThreadPool::new(workers), &fnode, &ct, 0, n as u64);
            let expected = format!("chunk {} failed authentication", n - 1);
            assert!(
                matches!(&result, Err(NexusError::Integrity(msg)) if *msg == expected),
                "workers={workers}: {result:?}"
            );
        }
        // A span one byte short is refused before anything is opened.
        let result = open_chunks(&ThreadPool::new(2), &fnode, &ct[..ct.len() - 1], 0, n as u64);
        assert!(matches!(result, Err(NexusError::Integrity(msg)) if msg == "data object truncated"));
    }

    /// `first` and `count` come from the caller: a range the filenode does
    /// not hold — past its end, or wrapping `u64` — is an error found before
    /// anything is allocated for it, not a capacity-overflow panic.
    #[test]
    fn a_chunk_range_outside_the_filenode_is_refused_up_front() {
        let mut rng = SeededRandom::new(81);
        let data = [7u8; 4 * 64];
        let contexts = contexts_for(&mut rng, 4);
        let uuid = NexusUuid([8; 16]);
        let pool = ThreadPool::new(1);
        let ct = seal_chunks(&pool, &uuid, &data, 64, &contexts);
        let mut fnode = filenode_with(contexts, data.len() as u64, 64);
        fnode.data_uuid = uuid;
        for (first, count) in [(0, u64::MAX), (1, u64::MAX), (u64::MAX, 1), (0, 5), (4, 1), (5, 0)] {
            let result = open_chunks(&pool, &fnode, &ct, first, count);
            assert!(
                matches!(&result, Err(NexusError::Integrity(msg)) if msg == "missing chunk context"),
                "first={first} count={count}: {result:?}"
            );
        }
        // The empty range at the end is a range of the filenode.
        assert_eq!(open_chunks(&pool, &fnode, &[], 4, 0).unwrap(), Vec::<u8>::new());
        assert_eq!(open_chunks(&pool, &fnode, &ct, 0, 4).unwrap(), data);
    }

    /// Eight chunks, the tag of the last one flipped: seven slots hold
    /// authenticated plaintext and count as filled when the eighth is
    /// refused, and still nothing comes back but the error — at any width.
    #[test]
    fn a_flipped_tag_in_the_last_of_eight_chunks_returns_only_the_error() {
        let mut rng = SeededRandom::new(82);
        let mut data = vec![0u8; 8 * 512];
        rng.fill(&mut data);
        let contexts = contexts_for(&mut rng, 8);
        let uuid = NexusUuid([6; 16]);
        let mut ct = seal_chunks(&ThreadPool::new(1), &uuid, &data, 512, &contexts);
        let mut fnode = filenode_with(contexts, data.len() as u64, 512);
        fnode.data_uuid = uuid;
        assert_eq!(open_chunks(&ThreadPool::new(8), &fnode, &ct, 0, 8).unwrap(), data);
        let tag_byte = ct.len() - CHUNK_OVERHEAD as usize;
        ct[tag_byte] ^= 0x10;
        for workers in [1, 2, 8] {
            let result = open_chunks(&ThreadPool::new(workers), &fnode, &ct, 0, 8);
            assert!(
                matches!(&result, Err(NexusError::Integrity(msg)) if msg == "chunk 7 failed authentication"),
                "workers={workers}: {result:?}"
            );
        }
    }

    /// An empty file is no chunks: nothing reserved, nothing handed out,
    /// and the empty buffer still finishes.
    #[test]
    fn an_empty_file_is_an_empty_object() {
        let pool = ThreadPool::new(2);
        let uuid = NexusUuid([3; 16]);
        assert!(seal_chunks(&pool, &uuid, &[], 64, &[]).is_empty());
        let mut fnode = filenode_with(Vec::new(), 0, 64);
        fnode.data_uuid = uuid;
        assert!(open_chunks(&pool, &fnode, &[], 0, 0).unwrap().is_empty());
    }

    #[test]
    fn chunk_aad_is_positional() {
        let u = NexusUuid([5; 16]);
        assert_ne!(chunk_aad(&u, 0, 100), chunk_aad(&u, 1, 100));
        assert_ne!(chunk_aad(&u, 0, 100), chunk_aad(&u, 0, 101));
        assert_ne!(chunk_aad(&u, 0, 100), chunk_aad(&NexusUuid([6; 16]), 0, 100));
    }

    /// The AAD is part of every stored chunk's tag: its 32 bytes are a
    /// format, pinned here so a rewrite of the encoder cannot move them.
    #[test]
    fn chunk_aad_layout_is_pinned() {
        let uuid = NexusUuid(std::array::from_fn(|i| 0xa0 + i as u8));
        let aad = chunk_aad(&uuid, 0x0102_0304_0506_0708, 0x1112_1314_1516_1718);
        assert_eq!(
            aad,
            [
                0xa0, 0xa1, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xab, 0xac, 0xad,
                0xae, 0xaf, // data uuid
                0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // chunk index, little-endian
                0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11, // file size, little-endian
            ]
        );
        // What `wire::Writer` wrote for it before the array.
        let mut w = crate::wire::Writer::new();
        w.uuid(&uuid).u64(0x0102_0304_0506_0708).u64(0x1112_1314_1516_1718);
        assert_eq!(w.into_bytes(), aad);
    }
}
