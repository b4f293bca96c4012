//! The hardware lane's fused AES-GCM kernel: CTR keystream, XOR and GHASH
//! in **one pass over the bytes** (AES-NI + PCLMULQDQ, alongside
//! [`crate::aes_ni`] and [`crate::ghash_clmul`]).
//!
//! The two-pass shape (`ctr_xor` over the buffer, then GHASH over it
//! again) reads every ciphertext byte twice and enters a
//! `#[target_feature]` function per 128 bytes — each entry reloading the
//! round keys, each GHASH multiply un-inlinable across the feature
//! boundary. [`crypt_groups`] is entered once per seal or open and walks
//! the whole body in 128-byte groups:
//!
//! 1. eight counter blocks are built **in registers** (`PINSRD` of the
//!    byte-swapped 32-bit counter into the nonce block — [`counter_block`],
//!    unit-tested against [`crate::gcm::inc32`] across the 2³² wrap);
//! 2. eight interleaved AESENC chains turn them into keystream (one round
//!    key load per round per *group*, read in place from the schedule — no
//!    copy of key material is made);
//! 3. each keystream block is XORed with its source block and stored to
//!    the destination — source and destination are different buffers, so
//!    sealing writes straight into the caller's output and nothing is
//!    copied first;
//! 4. the eight *ciphertext* blocks — the stored ones when sealing, the
//!    loaded ones when opening — stay in registers, are byte-swapped
//!    (`PSHUFB`) and multiplied by H⁸..H¹, the unreduced 256-bit products
//!    XOR-summed in three accumulators (low, high, cross terms);
//! 5. one aggregated reduction per group, [`crate::ghash_clmul::reduce`],
//!    yields the next GHASH accumulator.
//!
//! When sealing, a group's ciphertext is the output of its own AES rounds,
//! so multiplies issued right behind them wait for them; the kernel instead
//! carries the eight blocks into the next iteration and hashes them behind
//! *that* group's rounds, which they do not depend on (+15–35 % seal
//! throughput measured against hashing in place), and hashes the last
//! group after the loop. When opening, the ciphertext is what was loaded
//! and is hashed on the spot. Either way the only loop-carried dependency
//! is the accumulator through step 5. AAD, the < 128-byte tail, the
//! length block and `E(J0)` stay on the scalar code in [`crate::gcm`],
//! which is also the reference this kernel is differentially tested
//! against.
//!
//! Like the rest of the lane it touches no table and takes no branch on
//! key or message bytes: it branches on lengths and on the caller-chosen
//! direction only.
//!
//! Soundness: the kernel itself is a *safe* `#[target_feature]` function —
//! its only `unsafe` operations are the unaligned 16-byte loads and stores,
//! each bounds-justified where it stands — and [`crypt_groups`] may call it
//! because it demands an [`AesNi`], which cannot exist unless
//! [`crate::cpu::hw_accel_available`] reported all four features the
//! kernel enables (`AesNi::new` asserts it).

use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_clmulepi64_si128, _mm_insert_epi32,
    _mm_loadu_si128, _mm_set_epi8, _mm_setzero_si128, _mm_shuffle_epi8, _mm_slli_si128,
    _mm_srli_si128, _mm_storeu_si128, _mm_xor_si128,
};
use core::mem::MaybeUninit;

use crate::aes_ni::AesNi;
use crate::gcm::Direction;
use crate::ghash_clmul::{reduce, to_u128, to_vec};

/// Bytes per pass of the kernel: eight AES blocks.
pub(crate) const GROUP: usize = 128;

/// Runs CTR + GHASH over `src` (a whole number of [`GROUP`]s) into `dst`,
/// every byte of which it writes and none of which it reads.
///
/// `ctr` is the last counter block already used (J0 for a fresh message);
/// it is advanced by one per block, exactly as [`crate::gcm::inc32`] would.
/// `acc` is the GHASH accumulator after the AAD; the accumulator after the
/// last ciphertext block is returned. `hpow[k]` is H^(k+1).
///
/// # Panics
///
/// Panics if `src` and `dst` differ in length or are not a multiple of
/// [`GROUP`] bytes — a caller bug that would otherwise leave bytes
/// unencrypted.
pub(crate) fn crypt_groups(
    aes: &AesNi,
    hpow: &[u128; 8],
    ctr: &mut [u8; 16],
    acc: u128,
    src: &[u8],
    dst: &mut [MaybeUninit<u8>],
    direction: Direction,
) -> u128 {
    assert_eq!(src.len(), dst.len(), "fused GCM source/destination length mismatch");
    assert_eq!(src.len() % GROUP, 0, "fused GCM kernel takes whole 128-byte groups");
    // SAFETY: holding an `AesNi` proves `cpu::hw_accel_available()`
    // (`AesNi::new` asserts it), which reports true only when CPUID shows
    // AES-NI, PCLMULQDQ, SSSE3 and SSE4.1 — every feature `groups` enables.
    unsafe { groups(aes.round_keys(), hpow, ctr, acc, src, dst, direction) }
}

/// The counter block `base[..12] ‖ be32(counter)`, built in a register.
#[inline]
#[target_feature(enable = "sse4.1")]
fn counter_block(base: __m128i, counter: u32) -> __m128i {
    // Lane 3 is bytes 12..16; the block's counter is big-endian.
    _mm_insert_epi32::<3>(base, counter.swap_bytes() as i32)
}

/// One aggregated GHASH step over eight ciphertext blocks as they sit in
/// memory order: `(Y ⊕ X₁)·H⁸ ⊕ X₂·H⁷ ⊕ … ⊕ X₈·H`, the eight unreduced
/// products XOR-summed and reduced once.
#[inline]
#[target_feature(enable = "pclmulqdq,ssse3")]
fn ghash_group(acc: __m128i, blocks: &[__m128i; 8], hpow: &[u128; 8]) -> __m128i {
    // Reverses a block's bytes: a loaded block becomes the `u128` the rest
    // of the crate gets from `u128::from_be_bytes`.
    let byte_swap = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let mut lo = _mm_setzero_si128();
    let mut hi = _mm_setzero_si128();
    let mut mid = _mm_setzero_si128();
    for (j, block) in blocks.iter().enumerate() {
        let mut x = _mm_shuffle_epi8(*block, byte_swap);
        if j == 0 {
            x = _mm_xor_si128(x, acc);
        }
        let h = to_vec(hpow[7 - j]);
        lo = _mm_xor_si128(lo, _mm_clmulepi64_si128(x, h, 0x00));
        hi = _mm_xor_si128(hi, _mm_clmulepi64_si128(x, h, 0x11));
        mid = _mm_xor_si128(mid, _mm_clmulepi64_si128(x, h, 0x01));
        mid = _mm_xor_si128(mid, _mm_clmulepi64_si128(x, h, 0x10));
    }
    lo = _mm_xor_si128(lo, _mm_slli_si128(mid, 8));
    hi = _mm_xor_si128(hi, _mm_srli_si128(mid, 8));
    to_vec(reduce(to_u128(lo), to_u128(hi)))
}

#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn groups(
    round_keys: &[[u8; 16]],
    hpow: &[u128; 8],
    ctr: &mut [u8; 16],
    acc: u128,
    src: &[u8],
    dst: &mut [MaybeUninit<u8>],
    direction: Direction,
) -> u128 {
    let rounds = round_keys.len() - 1;
    let key = |r: usize| -> __m128i {
        // SAFETY: `round_keys[r]` is a 16-byte array; the load is unaligned.
        unsafe { _mm_loadu_si128(round_keys[r].as_ptr() as *const __m128i) }
    };
    // SAFETY: `ctr` is a 16-byte array; the load is unaligned.
    let base = unsafe { _mm_loadu_si128(ctr.as_ptr() as *const __m128i) };
    let mut counter = u32::from_be_bytes([ctr[12], ctr[13], ctr[14], ctr[15]]);
    let mut acc = to_vec(acc);
    // Sealed ciphertext waiting for its GHASH step: hashed one iteration
    // late, behind AES rounds it does not depend on (see the module docs).
    let mut unhashed: Option<[__m128i; 8]> = None;

    for (s, d) in src.chunks_exact(GROUP).zip(dst.chunks_exact_mut(GROUP)) {
        let whitening = key(0);
        let mut ks = [_mm_setzero_si128(); 8];
        for k in ks.iter_mut() {
            counter = counter.wrapping_add(1);
            *k = _mm_xor_si128(counter_block(base, counter), whitening);
        }
        for r in 1..rounds {
            let rk = key(r);
            for k in ks.iter_mut() {
                *k = _mm_aesenc_si128(*k, rk);
            }
        }
        let last = key(rounds);
        for k in ks.iter_mut() {
            *k = _mm_aesenclast_si128(*k, last);
        }
        if let Some(previous) = unhashed.take() {
            acc = ghash_group(acc, &previous, hpow);
        }

        let mut ciphertext = [_mm_setzero_si128(); 8];
        for (j, (k, c)) in ks.iter().zip(ciphertext.iter_mut()).enumerate() {
            // SAFETY: `chunks_exact(GROUP)` made `s` exactly 128 bytes, so
            // the 16 bytes at offset 16·j (j < 8) are in bounds; unaligned.
            let input = unsafe { _mm_loadu_si128(s.as_ptr().add(16 * j) as *const __m128i) };
            let output = _mm_xor_si128(input, *k);
            // SAFETY: `chunks_exact_mut(GROUP)` made `d` exactly 128 bytes
            // and exclusively borrowed, so the 16 bytes at offset 16·j
            // (j < 8) are in bounds and ours to write — a store needs
            // nothing of what they held; unaligned.
            unsafe { _mm_storeu_si128(d.as_mut_ptr().add(16 * j) as *mut __m128i, output) };
            *c = match direction {
                Direction::Seal => output,
                Direction::Open => input,
            };
        }
        match direction {
            Direction::Seal => unhashed = Some(ciphertext),
            Direction::Open => acc = ghash_group(acc, &ciphertext, hpow),
        }
    }
    if let Some(last_group) = unhashed {
        acc = ghash_group(acc, &last_group, hpow);
    }

    ctr[12..].copy_from_slice(&counter.to_be_bytes());
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

    /// Self-skip off the hardware lane (dispatch never reaches this module
    /// there).
    fn hw() -> bool {
        crate::cpu::hw_accel_available()
    }

    fn block_bytes(v: __m128i) -> [u8; 16] {
        to_u128(v).to_le_bytes()
    }

    /// The in-register counter is `inc32`: big-endian, 32 bits, wrapping
    /// into itself and never carrying into the nonce.
    #[test]
    fn counter_blocks_equal_inc32_across_the_wrap() {
        if !hw() {
            return;
        }
        let mut rng = SeededRandom::new(0xc7b);
        let nonce: [u8; 12] = rng.bytes();
        let mut start = 0xffff_fff8u32;
        for _ in 0..=16 {
            let mut block = [0u8; 16];
            block[..12].copy_from_slice(&nonce);
            block[12..].copy_from_slice(&start.to_be_bytes());
            // SAFETY: a 16-byte array; the load is unaligned.
            let base = unsafe { _mm_loadu_si128(block.as_ptr() as *const __m128i) };
            let mut counter = start;
            for _ in 0..8 {
                inc32(&mut block);
                counter = counter.wrapping_add(1);
                // SAFETY: `hw()` reported SSE4.1.
                let built = unsafe { counter_block(base, counter) };
                assert_eq!(block_bytes(built), block, "counter {counter:#x} from {start:#x}");
            }
            start = start.wrapping_add(1);
        }
    }

    /// The kernel against the specification, one block at a time:
    /// keystream from `encrypt_block` on `inc32` counters (started either
    /// side of the 32-bit wrap), GHASH as the plain Horner recurrence on
    /// the portable multiply. Both directions, both key sizes, a foreign
    /// incoming accumulator.
    #[test]
    fn groups_match_block_at_a_time_ctr_and_ghash() {
        if !hw() {
            return;
        }
        let mut rng = SeededRandom::new(0xf05e);
        for (key_len, size) in [(16usize, KeySize::Aes128), (32, KeySize::Aes256)] {
            let mut key = vec![0u8; key_len];
            rng.fill(&mut key);
            let aes = AesNi::new(&key, size);
            let mut h_block = [0u8; 16];
            aes.encrypt_block(&mut h_block);
            let h = u128::from_be_bytes(h_block);
            let mut hpow = [h; 8];
            for k in 1..8 {
                hpow[k] = ghash_mul_ct(hpow[k - 1], h);
            }
            for start in [1u32, 0xffff_fff0, 0xffff_fffb, 0xffff_ffff] {
                for n_groups in [0usize, 1, 3] {
                    let mut ctr0: [u8; 16] = rng.bytes();
                    ctr0[12..].copy_from_slice(&start.to_be_bytes());
                    let acc0 = u128::from_be_bytes(rng.bytes());
                    let mut plain = vec![0u8; n_groups * GROUP];
                    rng.fill(&mut plain);

                    let mut expect_ctr = ctr0;
                    let (expect_ct, expect_acc) =
                        ctr_ghash_block_at_a_time(&aes, h, &mut expect_ctr, acc0, &plain);

                    let (mut ctr, mut acc) = (ctr0, acc0);
                    let ct = written_by(plain.len(), |ct| {
                        acc = crypt_groups(&aes, &hpow, &mut ctr, acc, &plain, ct, Direction::Seal);
                    });
                    assert_eq!(ct, expect_ct, "ciphertext, start {start:#x}, {n_groups} groups");
                    assert_eq!(ctr, expect_ctr, "counter, start {start:#x}, {n_groups} groups");
                    assert_eq!(acc, expect_acc, "GHASH, start {start:#x}, {n_groups} groups");

                    let (mut ctr, mut acc) = (ctr0, acc0);
                    let back = written_by(ct.len(), |back| {
                        acc = crypt_groups(&aes, &hpow, &mut ctr, acc, &ct, back, Direction::Open);
                    });
                    assert_eq!(back, plain, "plaintext, start {start:#x}, {n_groups} groups");
                    assert_eq!(ctr, expect_ctr);
                    assert_eq!(acc, expect_acc, "GHASH is over the ciphertext in both directions");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole 128-byte groups")]
    fn a_ragged_body_is_refused() {
        if !hw() {
            panic!("whole 128-byte groups");
        }
        let aes = AesNi::new(&[1u8; 16], KeySize::Aes128);
        let mut dst = [MaybeUninit::new(0u8); 130];
        crypt_groups(&aes, &[0; 8], &mut [0; 16], 0, &[0u8; 130], &mut dst, Direction::Seal);
    }
}
