//! The hardware lane's **wide** fused AES-GCM kernel: the one-pass shape of
//! [`crate::gcm_ni`] on VAES + VPCLMULQDQ, four blocks per ZMM register and
//! sixteen blocks (256 bytes) per step.
//!
//! `VAESENC zmm` and `VPCLMULQDQ zmm` are the 128-bit instructions applied
//! to each of a register's four 128-bit lanes independently, so the
//! algorithm is [`crate::gcm_ni`]'s with every register four blocks wide:
//!
//! 1. sixteen counter blocks are built **in four registers**: a vector of
//!    native 32-bit counters (lane `i` of the first register holds
//!    `counter + 1 + i`, advanced by `VPADDD` with 4 — a 32-bit add per
//!    element, so it wraps exactly as [`crate::gcm::inc32`] and never
//!    carries into the nonce) is byte-swapped into bytes 12..16 of each
//!    lane of the broadcast nonce block by one merge-masked `VPSHUFB`;
//! 2. four interleaved `VAESENC` chains turn them into keystream, each
//!    round key broadcast from the [`AesNi`] schedule once per round per
//!    group (`VBROADCASTI32X4`, read in place — fifteen live round keys
//!    beside everything below would not fit in 32 registers) — AES-128 and
//!    AES-256 alike, the round count is the schedule's length;
//! 3. each keystream register is XORed with 64 source bytes and stored to
//!    the destination, source and destination being different buffers;
//! 4. the sixteen *ciphertext* blocks stay in their four registers, are
//!    byte-swapped per lane and multiplied lane-wise by the power vectors
//!    `[H¹⁶ H¹⁵ H¹⁴ H¹³]`, `[H¹² … H⁹]`, `[H⁸ … H⁵]`, `[H⁴ … H¹]` (lane 0
//!    first, so the group's first block meets the highest power), the
//!    unreduced products XOR-summed into three accumulators;
//! 5. the accumulators' four lanes are folded together and reduced **once
//!    per 256 bytes** by [`crate::ghash_clmul::reduce`].
//!
//! Sealed ciphertext is hashed one iteration late, behind the next group's
//! AES rounds, exactly as the 128-bit kernel does and for the same reason.
//! Register budget: 4 keystream + 4 held ciphertext + 4 power vectors + 3
//! accumulators + nonce block, counters, increment, byte-swap mask and one
//! round key = 20 of 32.
//!
//! The kernel takes whole 256-byte groups only; [`crate::gcm`] hands the
//! < 256-byte remainder to the 128-bit kernel and the scalar tail code,
//! which is also the reference this kernel is differentially tested
//! against. Like the rest of the lane it touches no table and takes no
//! branch on key or message bytes: it branches on lengths and on the
//! caller-chosen direction only.
//!
//! Soundness: the kernel is a *safe* `#[target_feature]` function whose
//! only `unsafe` operations are the unaligned loads and stores, each
//! bounds-justified where it stands. [`crypt_groups`] may call it because
//! it demands a [`WideLane`], which only [`crate::cpu`]'s decision can
//! construct and which it constructs only when CPUID reports all four
//! features the kernel enables *and* `XCR0` shows the OS saving the ZMM
//! state; the [`AesNi`] it also demands proves the 128-bit features of the
//! helpers it shares.

use core::arch::x86_64::{
    __m128i, __m512i, _mm512_add_epi32, _mm512_aesenc_epi128, _mm512_aesenclast_epi128,
    _mm512_broadcast_i32x4, _mm512_bslli_epi128, _mm512_bsrli_epi128, _mm512_clmulepi64_epi128,
    _mm512_extracti32x4_epi32, _mm512_loadu_si512, _mm512_mask_shuffle_epi8, _mm512_set1_epi32,
    _mm512_set_epi32, _mm512_set_epi64, _mm512_setzero_si512, _mm512_shuffle_epi8,
    _mm512_storeu_si512, _mm512_xor_si512, _mm512_zextsi128_si512, _mm_loadu_si128, _mm_set_epi8,
    _mm_xor_si128,
};
use core::mem::MaybeUninit;

use crate::aes_ni::AesNi;
use crate::cpu::WideLane;
use crate::gcm::Direction;
use crate::ghash_clmul::{reduce, to_u128, to_vec};

/// Bytes per pass of the kernel: sixteen AES blocks in four registers.
pub(crate) const GROUP: usize = 256;

/// Bytes 12..16 of each 128-bit lane: where a counter block keeps its
/// counter, as a `VPSHUFB` merge mask (one bit per byte of the register).
const COUNTER_BYTES: u64 = 0xf000_f000_f000_f000;

/// Blocks per register: what one register's counters are ahead of the
/// previous one's.
const COUNTER_STEP: i32 = 4;

/// Runs CTR + GHASH over `src` (a whole number of [`GROUP`]s) into `dst`,
/// every byte of which it writes and none of which it reads.
///
/// The contract is [`crate::gcm_ni::crypt_groups`]'s: `ctr` is the last
/// counter block already used and is advanced by one per block, `acc` is
/// the GHASH accumulator so far and the one after the last ciphertext
/// block is returned; `hpow[k]` is H^(k+1), sixteen of them.
///
/// # Panics
///
/// Panics if `src` and `dst` differ in length or are not a multiple of
/// [`GROUP`] bytes — a caller bug that would otherwise leave bytes
/// unencrypted.
#[allow(clippy::too_many_arguments)]
pub(crate) fn crypt_groups(
    _proof: WideLane,
    aes: &AesNi,
    hpow: &[u128; 16],
    ctr: &mut [u8; 16],
    acc: u128,
    src: &[u8],
    dst: &mut [MaybeUninit<u8>],
    direction: Direction,
) -> u128 {
    assert_eq!(src.len(), dst.len(), "wide GCM source/destination length mismatch");
    assert_eq!(src.len() % GROUP, 0, "wide GCM kernel takes whole 256-byte groups");
    // SAFETY: a `WideLane` exists only when `cpu::detect_wide_lane` found
    // AVX512F, AVX512BW, VAES and VPCLMULQDQ in CPUID — every feature
    // `groups` enables — and XCR0 showing the OS saves opmask and ZMM state.
    unsafe { groups(aes.round_keys(), hpow, ctr, acc, src, dst, direction) }
}

/// The mask that reverses each lane's bytes: a loaded block becomes the
/// `u128` the rest of the crate gets from `u128::from_be_bytes`, and a native
/// counter its big-endian bytes.
#[inline]
#[target_feature(enable = "avx512f")]
fn byte_swap_mask() -> __m512i {
    _mm512_broadcast_i32x4(_mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15))
}

/// The native counters of the four blocks after counter `last`: lane `i`
/// holds `last + 1 + i` in each of its elements. The next register's are
/// these plus four, element-wise and wrapping ([`COUNTER_STEP`]).
#[inline]
#[target_feature(enable = "avx512f")]
fn counters_after(last: u32) -> __m512i {
    _mm512_add_epi32(
        _mm512_set1_epi32(last as i32),
        _mm512_set_epi32(4, 4, 4, 4, 3, 3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1),
    )
}

/// Four counter blocks: the nonce block `base` in every lane with bytes
/// 12..16 replaced by that lane's counter, big-endian. `counters` holds each
/// lane's counter as native 32-bit integers (in all four elements of the
/// lane; the full byte reversal `byte_swap` brings element 0 to bytes 12..16).
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn counter_blocks(base: __m512i, counters: __m512i, byte_swap: __m512i) -> __m512i {
    _mm512_mask_shuffle_epi8(base, COUNTER_BYTES, counters, byte_swap)
}

/// XOR of a register's four 128-bit lanes.
#[inline]
#[target_feature(enable = "avx512f")]
fn fold_lanes(v: __m512i) -> __m128i {
    _mm_xor_si128(
        _mm_xor_si128(_mm512_extracti32x4_epi32::<0>(v), _mm512_extracti32x4_epi32::<1>(v)),
        _mm_xor_si128(_mm512_extracti32x4_epi32::<2>(v), _mm512_extracti32x4_epi32::<3>(v)),
    )
}

/// One aggregated GHASH step over sixteen ciphertext blocks as they sit in
/// memory order: `(Y ⊕ X₁)·H¹⁶ ⊕ X₂·H¹⁵ ⊕ … ⊕ X₁₆·H`, the sixteen
/// unreduced products XOR-summed — per lane across the four registers, then
/// across the lanes — and reduced once. `powers[k]` holds H^(16−4k) in lane
/// 0 down to H^(13−4k) in lane 3.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,vpclmulqdq")]
fn ghash_group(
    acc: __m128i,
    blocks: &[__m512i; 4],
    powers: &[__m512i; 4],
    byte_swap: __m512i,
) -> __m128i {
    let mut lo = _mm512_setzero_si512();
    let mut hi = _mm512_setzero_si512();
    let mut mid = _mm512_setzero_si512();
    for (j, (block, h)) in blocks.iter().zip(powers).enumerate() {
        let mut x = _mm512_shuffle_epi8(*block, byte_swap);
        if j == 0 {
            // The running hash joins the group's first block: lane 0.
            x = _mm512_xor_si512(x, _mm512_zextsi128_si512(acc));
        }
        lo = _mm512_xor_si512(lo, _mm512_clmulepi64_epi128::<0x00>(x, *h));
        hi = _mm512_xor_si512(hi, _mm512_clmulepi64_epi128::<0x11>(x, *h));
        mid = _mm512_xor_si512(mid, _mm512_clmulepi64_epi128::<0x01>(x, *h));
        mid = _mm512_xor_si512(mid, _mm512_clmulepi64_epi128::<0x10>(x, *h));
    }
    lo = _mm512_xor_si512(lo, _mm512_bslli_epi128::<8>(mid));
    hi = _mm512_xor_si512(hi, _mm512_bsrli_epi128::<8>(mid));
    to_vec(reduce(to_u128(fold_lanes(lo)), to_u128(fold_lanes(hi))))
}

#[target_feature(enable = "avx512f,avx512bw,vaes,vpclmulqdq")]
fn groups(
    round_keys: &[[u8; 16]],
    hpow: &[u128; 16],
    ctr: &mut [u8; 16],
    acc: u128,
    src: &[u8],
    dst: &mut [MaybeUninit<u8>],
    direction: Direction,
) -> u128 {
    let rounds = round_keys.len() - 1;
    let key = |r: usize| -> __m512i {
        // SAFETY: `round_keys[r]` is a 16-byte array; the load is unaligned.
        let rk = unsafe { _mm_loadu_si128(round_keys[r].as_ptr() as *const __m128i) };
        _mm512_broadcast_i32x4(rk)
    };
    // SAFETY: `ctr` is a 16-byte array; the load is unaligned.
    let base = unsafe { _mm_loadu_si128(ctr.as_ptr() as *const __m128i) };
    let base = _mm512_broadcast_i32x4(base);
    let byte_swap = byte_swap_mask();
    let last_used = u32::from_be_bytes([ctr[12], ctr[13], ctr[14], ctr[15]]);
    let mut counters = counters_after(last_used);
    let step = _mm512_set1_epi32(COUNTER_STEP);
    // `[H^(16-4k) … H^(13-4k)]`, lane 0 first (`_mm512_set_epi64` lists the
    // highest qword first).
    let powers: [__m512i; 4] = core::array::from_fn(|k| {
        let [p0, p1, p2, p3]: [u128; 4] = core::array::from_fn(|lane| hpow[15 - 4 * k - lane]);
        let (hi, lo) = (|x: u128| (x >> 64) as i64, |x: u128| x as i64);
        _mm512_set_epi64(hi(p3), lo(p3), hi(p2), lo(p2), hi(p1), lo(p1), hi(p0), lo(p0))
    });
    let mut acc = to_vec(acc);
    // Sealed ciphertext waiting for its GHASH step: hashed one iteration
    // late, behind AES rounds it does not depend on (see `gcm_ni`).
    let mut unhashed: Option<[__m512i; 4]> = None;

    for (s, d) in src.chunks_exact(GROUP).zip(dst.chunks_exact_mut(GROUP)) {
        let whitening = key(0);
        let mut ks = [_mm512_setzero_si512(); 4];
        for k in ks.iter_mut() {
            *k = _mm512_xor_si512(counter_blocks(base, counters, byte_swap), whitening);
            counters = _mm512_add_epi32(counters, step);
        }
        for r in 1..rounds {
            let rk = key(r);
            for k in ks.iter_mut() {
                *k = _mm512_aesenc_epi128(*k, rk);
            }
        }
        let last = key(rounds);
        for k in ks.iter_mut() {
            *k = _mm512_aesenclast_epi128(*k, last);
        }
        if let Some(previous) = unhashed.take() {
            acc = ghash_group(acc, &previous, &powers, byte_swap);
        }

        let mut ciphertext = [_mm512_setzero_si512(); 4];
        for (j, (k, c)) in ks.iter().zip(ciphertext.iter_mut()).enumerate() {
            // SAFETY: `chunks_exact(GROUP)` made `s` exactly 256 bytes, so
            // the 64 bytes at offset 64·j (j < 4) are in bounds; unaligned.
            let input = unsafe { _mm512_loadu_si512(s.as_ptr().add(64 * j) as *const __m512i) };
            let output = _mm512_xor_si512(input, *k);
            // SAFETY: `chunks_exact_mut(GROUP)` made `d` exactly 256 bytes
            // and exclusively borrowed, so the 64 bytes at offset 64·j
            // (j < 4) are in bounds and ours to write — a store needs
            // nothing of what they held; unaligned.
            unsafe { _mm512_storeu_si512(d.as_mut_ptr().add(64 * j) as *mut __m512i, output) };
            *c = match direction {
                Direction::Seal => output,
                Direction::Open => input,
            };
        }
        match direction {
            Direction::Seal => unhashed = Some(ciphertext),
            Direction::Open => acc = ghash_group(acc, &ciphertext, &powers, byte_swap),
        }
    }
    if let Some(last_group) = unhashed {
        acc = ghash_group(acc, &last_group, &powers, byte_swap);
    }

    // One increment per block, modulo 2³² like the adds above.
    let blocks = (src.len() / 16) as u32;
    ctr[12..].copy_from_slice(&last_used.wrapping_add(blocks).to_be_bytes());
    to_u128(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::KeySize;
    use crate::gcm::inc32;
    use crate::ghash_ct::ghash_mul_ct;
    use crate::rng::{SecureRandom, SeededRandom};
    use crate::test_util::ctr_ghash_block_at_a_time;
    use crate::write_once::written_by;

    /// What the CPU and the OS allow, whatever `NEXUS_CRYPTO_FORCE_PORTABLE`
    /// says (dispatch never reaches this module without it); says so when
    /// it returns `None`, so an early return is a visible skip.
    fn wide() -> Option<WideLane> {
        let lane = crate::cpu::detect_wide_lane(false);
        if lane.is_none() {
            eprintln!("skipped on the wide GCM kernel: no AVX-512 VAES/VPCLMULQDQ or no ZMM state");
        }
        lane
    }

    fn lane_bytes(v: __m512i) -> [[u8; 16]; 4] {
        // SAFETY: both types are 64 bytes of plain data, every bit pattern
        // valid.
        unsafe { core::mem::transmute::<__m512i, [[u8; 16]; 4]>(v) }
    }

    /// The in-register counters are `inc32`: big-endian, 32 bits, each lane
    /// wrapping into itself and never carrying into the nonce or the next
    /// lane — walked across the 2³² wrap one starting point at a time.
    #[test]
    fn counter_blocks_equal_inc32_across_the_wrap() {
        if wide().is_none() {
            return;
        }
        let mut rng = SeededRandom::new(0xc7b5);
        let nonce: [u8; 12] = rng.bytes();
        for start in (0xffff_ffe0u32..=0xffff_ffff).chain(0..4) {
            let mut block = [0u8; 16];
            block[..12].copy_from_slice(&nonce);
            block[12..].copy_from_slice(&start.to_be_bytes());
            // SAFETY: `wide()` reported AVX512F and AVX512BW; the load reads
            // a 16-byte array, unaligned.
            let built: Vec<[u8; 16]> = unsafe {
                let base = _mm_loadu_si128(block.as_ptr() as *const __m128i);
                let base = _mm512_broadcast_i32x4(base);
                let mut counters = counters_after(start);
                let mut out = Vec::new();
                for _ in 0..4 {
                    out.extend(lane_bytes(counter_blocks(base, counters, byte_swap_mask())));
                    counters = _mm512_add_epi32(counters, _mm512_set1_epi32(COUNTER_STEP));
                }
                out
            };
            for (i, got) in built.iter().enumerate() {
                inc32(&mut block);
                assert_eq!(*got, block, "block {i} after {start:#x}");
            }
        }
    }

    /// Both fused kernels against the specification and against each other,
    /// driven directly on the same inputs: keystream from `encrypt_block` on
    /// `inc32` counters (started either side of the 32-bit wrap), GHASH as
    /// the plain Horner recurrence on the portable multiply. Both
    /// directions, both key sizes, a foreign incoming accumulator. The
    /// 128-bit kernel is called here, not through dispatch, so it stays
    /// covered on machines where every long body goes wide.
    #[test]
    fn wide_and_narrow_groups_match_block_at_a_time_ctr_and_ghash() {
        let Some(lane) = wide() else {
            return;
        };
        let mut rng = SeededRandom::new(0x51de);
        for (key_len, size) in [(16usize, KeySize::Aes128), (32, KeySize::Aes256)] {
            let mut key = vec![0u8; key_len];
            rng.fill(&mut key);
            let aes = AesNi::new(&key, size);
            let mut h_block = [0u8; 16];
            aes.encrypt_block(&mut h_block);
            let h = u128::from_be_bytes(h_block);
            let mut hpow = [h; 16];
            for k in 1..16 {
                hpow[k] = ghash_mul_ct(hpow[k - 1], h);
            }
            let narrow_pow: &[u128; 8] = hpow.first_chunk().unwrap();
            for start in [1u32, 0xffff_ffe0, 0xffff_ffef, 0xffff_fff5, 0xffff_ffff] {
                for n_groups in [0usize, 1, 2, 5] {
                    let mut ctr0: [u8; 16] = rng.bytes();
                    ctr0[12..].copy_from_slice(&start.to_be_bytes());
                    let acc0 = u128::from_be_bytes(rng.bytes());
                    let mut plain = vec![0u8; n_groups * GROUP];
                    rng.fill(&mut plain);

                    let mut expect_ctr = ctr0;
                    let (expect_ct, expect_acc) =
                        ctr_ghash_block_at_a_time(&aes, h, &mut expect_ctr, acc0, &plain);

                    for (direction, input, output) in [
                        (Direction::Seal, &plain, &expect_ct),
                        (Direction::Open, &expect_ct, &plain),
                    ] {
                        let what = format!("{direction:?}, start {start:#x}, {n_groups} groups");
                        let (mut ctr, mut acc) = (ctr0, acc0);
                        let out = written_by(input.len(), |out| {
                            acc =
                                crypt_groups(lane, &aes, &hpow, &mut ctr, acc, input, out, direction);
                        });
                        assert_eq!(&out, output, "wide bytes: {what}");
                        assert_eq!(ctr, expect_ctr, "wide counter: {what}");
                        assert_eq!(acc, expect_acc, "wide GHASH: {what}");

                        let (mut ctr, mut acc) = (ctr0, acc0);
                        let out = written_by(input.len(), |out| {
                            acc = crate::gcm_ni::crypt_groups(
                                &aes, narrow_pow, &mut ctr, acc, input, out, direction,
                            );
                        });
                        assert_eq!(&out, output, "narrow bytes: {what}");
                        assert_eq!(ctr, expect_ctr, "narrow counter: {what}");
                        assert_eq!(acc, expect_acc, "narrow GHASH: {what}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole 256-byte groups")]
    fn a_ragged_body_is_refused() {
        let Some(lane) = wide() else {
            panic!("whole 256-byte groups");
        };
        let aes = AesNi::new(&[1u8; 16], KeySize::Aes128);
        let mut dst = [MaybeUninit::new(0u8); 384];
        crypt_groups(lane, &aes, &[0; 16], &mut [0; 16], 0, &[0u8; 384], &mut dst, Direction::Seal);
    }
}
