//! The SHA-256 hardware lane: the compression function on the x86 SHA
//! extensions (`SHA256RNDS2`, `SHA256MSG1`, `SHA256MSG2`), one stream.
//!
//! [`compress_blocks`] is entered once per [`crate::sha2::Sha256`] call
//! and walks every whole block it was given:
//!
//! 1. the eight state words are permuted **once per call** into the layout
//!    `SHA256RNDS2` works on — one register holding `A B E F`, one holding
//!    `C D G H` — and permuted back once at the end, not once per block;
//! 2. each block is loaded 16 bytes at a time and byte-swapped to
//!    big-endian words with one `PSHUFB` per load;
//! 3. sixteen steps of four rounds each: `W + K` (the constants read as
//!    sixteen 16-byte loads of [`crate::sha2::K256`]), two `SHA256RNDS2`
//!    (two rounds each, the second on the high half of `W + K`), and behind
//!    them the message schedule for a later step — `SHA256MSG1`, a `PALIGNR`
//!    to fetch `W[t−7]`, `SHA256MSG2` — on four registers that rotate;
//! 4. the block's starting state is added back (Davies–Meyer).
//!
//! The instructions are data-independent: no table is indexed and no
//! branch is taken on message or state bytes, only on the block count. The
//! lane is constant-time like the portable engine, which indexes `K256` by
//! round number only.
//!
//! Soundness: the kernel is a *safe* `#[target_feature]` function — its
//! only `unsafe` operations are the unaligned 16-byte loads and stores,
//! each bounds-justified where it stands. The one call into it, from
//! `sha2`, is sound because [`crate::cpu::sha_lane`] answers
//! [`crate::cpu::ShaLane::ShaNi`] only when CPUID shows all three features
//! the kernel enables.

use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};

use crate::sha2::K256;

/// Runs the SHA-256 compression function over `blocks`, a whole number of
/// 64-byte blocks, updating `state` (`a..h` in FIPS 180-4 order).
///
/// # Panics
///
/// Panics if `blocks` is not a multiple of 64 bytes — a caller bug that
/// would otherwise leave message bytes out of the digest.
#[target_feature(enable = "sha,ssse3,sse4.1")]
pub(crate) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    assert_eq!(blocks.len() % 64, 0, "SHA-NI kernel takes whole 64-byte blocks");
    // Reverses the bytes of each 32-bit lane: message words are big-endian.
    let byte_swap = _mm_set_epi64x(0x0c0d0e0f_08090a0b, 0x04050607_00010203);

    // SAFETY: `state` is eight `u32`s, 32 bytes; these read bytes 0..16 and
    // 16..32 of it. The loads are unaligned.
    let (dcba, hgfe) = unsafe {
        (
            _mm_loadu_si128(state.as_ptr() as *const __m128i),
            _mm_loadu_si128(state.as_ptr().add(4) as *const __m128i),
        )
    };
    // Lanes are listed high to low, as the instruction reference names them.
    let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
    let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
    let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
    let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // w[t & 3] holds W[4t..4t+4] while step t needs it, and is then
        // overwritten, a piece at a time, with W[4(t+4)..4(t+4)+4].
        let mut w = [abef; 4];
        for (j, words) in w.iter_mut().enumerate() {
            // SAFETY: `chunks_exact(64)` made `block` exactly 64 bytes, so
            // the 16 bytes at offset 16·j (j < 4) are in bounds; unaligned.
            let loaded = unsafe { _mm_loadu_si128(block.as_ptr().add(16 * j) as *const __m128i) };
            *words = _mm_shuffle_epi8(loaded, byte_swap);
        }
        for t in 0..16 {
            let current = w[t & 3];
            // SAFETY: `K256` is 64 `u32`s; words 4t..4t+4 (t < 16) are 16
            // bytes inside it. The load is unaligned.
            let k = unsafe { _mm_loadu_si128(K256.as_ptr().add(4 * t) as *const __m128i) };
            let wk = _mm_add_epi32(current, k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            if (3..15).contains(&t) {
                // Finish the four words step t+1 consumes: add W[i−7] (the
                // last word of the previous register and the first three
                // of this one), then the σ₁ half of the schedule.
                let w_minus_7 = _mm_alignr_epi8::<4>(current, w[(t + 3) & 3]);
                let next = _mm_add_epi32(w[(t + 1) & 3], w_minus_7);
                w[(t + 1) & 3] = _mm_sha256msg2_epu32(next, current);
            }
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            if (1..13).contains(&t) {
                // Start the four words step t+3 consumes: W[i−16] + σ₀(W[i−15]).
                w[(t + 3) & 3] = _mm_sha256msg1_epu32(w[(t + 3) & 3], current);
            }
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32::<0x1B>(abef);
    let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
    let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
    let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
    // SAFETY: `state` is 32 bytes and exclusively borrowed; these write
    // bytes 0..16 and 16..32 of it. The stores are unaligned.
    unsafe {
        _mm_storeu_si128(state.as_mut_ptr() as *mut __m128i, dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4) as *mut __m128i, hgfe);
    }
}
