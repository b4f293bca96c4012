//! GHASH/POLYVAL multiplication through PCLMULQDQ (the hardware engine
//! [`crate::cpu`] selects where the CPU has it, alongside
//! [`crate::aes_ni`]).
//!
//! PCLMULQDQ is a 64×64 → 127-bit carryless multiply executed on
//! dedicated silicon: like the masked-shift [`crate::ghash_ct`] lane it
//! touches no table and takes no data-dependent branch, but it runs an
//! order of magnitude faster. Field elements use the same convention as
//! the rest of the crate: a block's 16 bytes load big-endian into a
//! `u128` whose bit `127 - i` is the coefficient of `t^i`, reduced by
//! `t^128 + t^7 + t^2 + t + 1` (SP 800-38D). POLYVAL reuses this code
//! through the byte-reversal equivalence in RFC 8452 appendix A, exactly
//! as the portable lanes do.
//!
//! Two tricks keep the per-block cost at four PCLMULQDQ plus shifts:
//!
//! - **Reflected-domain reduction.** GHASH's bit order is the mirror of
//!   the polynomial order, so a textbook implementation bit-reverses each
//!   operand, multiplies, reduces, and reverses back. Instead we multiply
//!   the *reflected* operands directly and run the reduction mirrored:
//!   with `A` the raw 255-bit product, `B = A << 1` is exactly the
//!   bit-reversal of the natural-order product, and folding `B`'s low
//!   half through the mirrored pentanomial (`x ^ x>>1 ^ x>>2 ^ x>>7`,
//!   overflow re-folded once) lands the result already in GHASH bit
//!   order. This is the precise mirror image of
//!   [`crate::ghash_ct::ghash_mul_ct`]'s verified reduction.
//! - **Aggregated reduction** (Gueron's technique): for a batch of
//!   independent products `Σ Xᵢ·Hⁱ` — the shape of the 8-block Horner
//!   step over the powers H¹..H⁸ [`crate::gcm`] builds per body — the unreduced
//!   256-bit products are XOR-summed first and the pentanomial reduction
//!   runs once per batch instead of once per block.
//!
//! Soundness: every public entry point is a safe fn whose callers (the
//! [`crate::cpu`] dispatch layer) only select this lane when CPUID
//! reported PCLMULQDQ; the `#[target_feature]` internals never run
//! without it. [`reduce`], [`to_vec`] and [`to_u128`] are plain safe
//! helpers (baseline SSE2 at most) that the fused GCM kernels
//! ([`crate::gcm_ni`], [`crate::gcm_vaes`]) share.

use core::arch::x86_64::{
    __m128i, _mm_clmulepi64_si128, _mm_slli_si128, _mm_srli_si128, _mm_xor_si128,
};

/// Carryless 128×128 → 256-bit multiply via four PCLMULQDQ (schoolbook
/// with combined cross terms), returned as `(low, high)` `u128` halves.
#[target_feature(enable = "pclmulqdq")]
unsafe fn clmul256(x: u128, y: u128) -> (u128, u128) {
    let a = to_vec(x);
    let b = to_vec(y);
    let p_lo = _mm_clmulepi64_si128(a, b, 0x00);
    let p_hi = _mm_clmulepi64_si128(a, b, 0x11);
    let cross =
        _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x01), _mm_clmulepi64_si128(a, b, 0x10));
    let lo = _mm_xor_si128(p_lo, _mm_slli_si128(cross, 8));
    let hi = _mm_xor_si128(p_hi, _mm_srli_si128(cross, 8));
    (to_u128(lo), to_u128(hi))
}

/// A field element as a vector register: lane 0 is the low qword, as in
/// a `u128` on this little-endian target.
#[inline(always)]
pub(crate) fn to_vec(x: u128) -> __m128i {
    // SAFETY: both types are 16 bytes of plain data with every bit
    // pattern valid (and `__m128i` itself is baseline on x86_64).
    unsafe { core::mem::transmute::<u128, __m128i>(x) }
}

/// Inverse of [`to_vec`].
#[inline(always)]
pub(crate) fn to_u128(v: __m128i) -> u128 {
    // SAFETY: as in `to_vec`, whose inverse this is.
    unsafe { core::mem::transmute::<__m128i, u128>(v) }
}

/// Reduces an unreduced 256-bit reflected-domain product modulo
/// `t^128 + t^7 + t^2 + t + 1`. `B = A << 1` converts the raw carryless
/// product into the bit-reversal of the natural-order product; the two
/// fold steps are the mirror image of `ghash_ct`'s reduction (see the
/// module docs). Pure shifts and XORs — constant-time.
#[inline(always)]
pub(crate) fn reduce(lo: u128, hi: u128) -> u128 {
    let bl = lo << 1;
    let bh = (hi << 1) | (lo >> 127);
    // Fold the low half through the mirrored pentanomial...
    let mut m = bl ^ (bl >> 1) ^ (bl >> 2) ^ (bl >> 7);
    // ...and re-fold the bits that fell off the bottom.
    let o = (bl << 127) ^ (bl << 126) ^ (bl << 121);
    m ^= o ^ (o >> 1) ^ (o >> 2) ^ (o >> 7);
    bh ^ m
}

/// GF(2^128) multiply in GHASH bit order; byte-identical to
/// [`crate::ghash_ct::ghash_mul_ct`].
pub(crate) fn ghash_mul_hw(x: u128, y: u128) -> u128 {
    debug_assert!(crate::cpu::hw_accel_available());
    // SAFETY: this lane is only ever selected when CPUID reported
    // PCLMULQDQ (`cpu::backend_for_flags`), and `debug_assert` re-checks.
    let (lo, hi) = unsafe { clmul256(x, y) };
    reduce(lo, hi)
}

/// Aggregated-reduction sum `Σ xs[i] ⊗ hs[i]`: one unreduced 256-bit
/// accumulation across the batch, one pentanomial reduction at the end.
/// This is the 8-block Horner step `(Y ⊕ X₁)·H⁸ ⊕ X₂·H⁷ ⊕ … ⊕ X₈·H`
/// when called with the descending power table.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub(crate) fn ghash_mul_sum_hw(xs: &[u128], hs: &[u128]) -> u128 {
    assert_eq!(xs.len(), hs.len(), "aggregated GHASH operand mismatch");
    debug_assert!(crate::cpu::hw_accel_available());
    let mut acc_lo = 0u128;
    let mut acc_hi = 0u128;
    for (&x, &h) in xs.iter().zip(hs.iter()) {
        // SAFETY: as in `ghash_mul_hw`.
        let (lo, hi) = unsafe { clmul256(x, h) };
        acc_lo ^= lo;
        acc_hi ^= hi;
    }
    reduce(acc_lo, acc_hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ghash_ct::ghash_mul_ct;
    use crate::rng::{SecureRandom, SeededRandom};

    /// Self-skip on silicon without PCLMULQDQ (dispatch never selects
    /// this lane there).
    fn hw() -> bool {
        crate::cpu::hw_accel_available()
    }

    /// The field's multiplicative identity in GHASH bit order: t^0 is
    /// bit 127.
    const ONE: u128 = 1 << 127;

    #[test]
    fn identity_and_zero() {
        if !hw() {
            return;
        }
        let mut rng = SeededRandom::new(0x9a5);
        for _ in 0..20 {
            let x = u128::from_be_bytes(rng.bytes());
            assert_eq!(ghash_mul_hw(x, ONE), x);
            assert_eq!(ghash_mul_hw(ONE, x), x);
            assert_eq!(ghash_mul_hw(x, 0), 0);
        }
    }

    #[test]
    fn matches_masked_clmul_lane() {
        if !hw() {
            return;
        }
        let mut rng = SeededRandom::new(0xc1a1);
        let edges = [0u128, ONE, u128::MAX, 1, 1 << 64, (1 << 64) - 1];
        for &x in &edges {
            for &y in &edges {
                assert_eq!(ghash_mul_hw(x, y), ghash_mul_ct(x, y), "edge {x:032x} * {y:032x}");
            }
        }
        for _ in 0..500 {
            let x = u128::from_be_bytes(rng.bytes());
            let y = u128::from_be_bytes(rng.bytes());
            assert_eq!(ghash_mul_hw(x, y), ghash_mul_ct(x, y), "{x:032x} * {y:032x}");
        }
    }

    #[test]
    fn aggregated_matches_per_block_reduction() {
        if !hw() {
            return;
        }
        let mut rng = SeededRandom::new(0xa99);
        for len in [1usize, 2, 4, 7, 8] {
            let xs: Vec<u128> = (0..len).map(|_| u128::from_be_bytes(rng.bytes())).collect();
            let hs: Vec<u128> = (0..len).map(|_| u128::from_be_bytes(rng.bytes())).collect();
            let expect = xs
                .iter()
                .zip(hs.iter())
                .fold(0u128, |acc, (&x, &h)| acc ^ ghash_mul_ct(x, h));
            assert_eq!(ghash_mul_sum_hw(&xs, &hs), expect, "len {len}");
        }
    }

    #[test]
    fn commutative_and_distributive() {
        if !hw() {
            return;
        }
        let mut rng = SeededRandom::new(0xd15);
        for _ in 0..100 {
            let a = u128::from_be_bytes(rng.bytes());
            let b = u128::from_be_bytes(rng.bytes());
            let c = u128::from_be_bytes(rng.bytes());
            assert_eq!(ghash_mul_hw(a, b), ghash_mul_hw(b, a));
            assert_eq!(
                ghash_mul_hw(a ^ b, c),
                ghash_mul_hw(a, c) ^ ghash_mul_hw(b, c)
            );
        }
    }
}
