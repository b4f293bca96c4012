//! Constant-time GHASH/POLYVAL field multiplication.
//!
//! The textbook fast GHASH multiplies in GF(2^128) through key-dependent
//! Shoup tables, indexing memory by nibbles of the (secret,
//! message-derived) multiplicand — a classic cache-timing channel that the
//! SGX threat model (untrusted co-resident OS, paper §III) makes worse,
//! not better. This module is the portable hardened multiply instead: a
//! software carryless multiply built from masked integer multiplications, so no
//! memory address and no branch ever depends on a secret or
//! message-derived value.
//!
//! The masked-multiply trick (Pornin, BearSSL `ghash_ctmul64`): an
//! ordinary integer multiply *is* a carryless multiply plus carries, and
//! the carries cannot reach 4 bit positions ahead if at most every 4th bit
//! of each operand is set. Splitting both operands into 4 such bit classes
//! yields the low 64 product bits from 16 integer multiplies; the high
//! half comes from the bit-reversal identity
//! `rev(clmul(x, y)) = clmul(rev(x), rev(y)) << 1`.
//!
//! Elements use the same representation as [`crate::gcm`]: a `u128` loaded
//! big-endian from the block, so bit `127 - i` holds the coefficient of
//! `t^i`. Multiplication un-reflects, multiplies, reduces mod
//! `t^128 + t^7 + t^2 + t + 1`, and re-reflects; `u128::reverse_bits`
//! compiles to data-independent bit shuffling.

/// Low 64 bits of the carryless product `x ⊗ y`.
///
/// Each wrapping multiply below combines one bit class of `x` with one of
/// `y`; products of classes `(i, j)` contribute only to result class
/// `(i + j) mod 4`, and the final mask strips the carry pollution that
/// accumulated in the other classes.
#[inline]
fn bmul64(x: u64, y: u64) -> u64 {
    const M0: u64 = 0x1111_1111_1111_1111;
    const M1: u64 = 0x2222_2222_2222_2222;
    const M2: u64 = 0x4444_4444_4444_4444;
    const M3: u64 = 0x8888_8888_8888_8888;
    let (x0, x1, x2, x3) = (x & M0, x & M1, x & M2, x & M3);
    let (y0, y1, y2, y3) = (y & M0, y & M1, y & M2, y & M3);
    let z0 = x0.wrapping_mul(y0) ^ x1.wrapping_mul(y3) ^ x2.wrapping_mul(y2) ^ x3.wrapping_mul(y1);
    let z1 = x0.wrapping_mul(y1) ^ x1.wrapping_mul(y0) ^ x2.wrapping_mul(y3) ^ x3.wrapping_mul(y2);
    let z2 = x0.wrapping_mul(y2) ^ x1.wrapping_mul(y1) ^ x2.wrapping_mul(y0) ^ x3.wrapping_mul(y3);
    let z3 = x0.wrapping_mul(y3) ^ x1.wrapping_mul(y2) ^ x2.wrapping_mul(y1) ^ x3.wrapping_mul(y0);
    (z0 & M0) | (z1 & M1) | (z2 & M2) | (z3 & M3)
}

/// Full 64×64 carryless product as `(low, high)` 64-bit halves.
#[inline]
fn clmul64(x: u64, y: u64) -> (u64, u64) {
    let lo = bmul64(x, y);
    // rev(x ⊗ y) = (rev(x) ⊗ rev(y)) << 1, so the high half of the 127-bit
    // product is the bit-reversed low half of the reversed operands.
    let hi = bmul64(x.reverse_bits(), y.reverse_bits()).reverse_bits() >> 1;
    (lo, hi)
}

/// Full 128×128 carryless product as `(low, high)` 128-bit halves
/// (Karatsuba over three 64×64 multiplies).
#[inline]
fn clmul128(a: u128, b: u128) -> (u128, u128) {
    let (a0, a1) = (a as u64, (a >> 64) as u64);
    let (b0, b1) = (b as u64, (b >> 64) as u64);
    let (p00l, p00h) = clmul64(a0, b0);
    let (p11l, p11h) = clmul64(a1, b1);
    let (pml, pmh) = clmul64(a0 ^ a1, b0 ^ b1);
    let p00 = (p00l as u128) | ((p00h as u128) << 64);
    let p11 = (p11l as u128) | ((p11h as u128) << 64);
    let mid = ((pml as u128) | ((pmh as u128) << 64)) ^ p00 ^ p11;
    (p00 ^ (mid << 64), p11 ^ (mid >> 64))
}

/// Constant-time multiplication in the GHASH field, in SP 800-38D's
/// convention (big-endian-loaded `u128`, reduction polynomial
/// `t^128 + t^7 + t^2 + t + 1`).
///
/// No memory access and no branch depends on `x` or `y`.
pub(crate) fn ghash_mul_ct(x: u128, y: u128) -> u128 {
    // Un-reflect so bit i carries the coefficient of t^i.
    let a = x.reverse_bits();
    let b = y.reverse_bits();
    let (lo, hi) = clmul128(a, b);
    // Fold the high 127 bits: t^(128+j) ≡ t^j · (t^7 + t^2 + t + 1).
    let m = hi ^ (hi << 1) ^ (hi << 2) ^ (hi << 7);
    // Bits shifted out past position 127 need one more folding pass.
    let o = (hi >> 127) ^ (hi >> 126) ^ (hi >> 121);
    let m = m ^ o ^ (o << 1) ^ (o << 2) ^ (o << 7);
    (lo ^ m).reverse_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bitwise schoolbook reference in the same representation (mirrors
    /// `crate::gcm_siv::ghash_mul`, which is itself validated by the RFC
    /// 8452 vectors).
    fn ghash_mul_reference(x: u128, y: u128) -> u128 {
        const R: u128 = 0xe1 << 120;
        let mut z = 0u128;
        let mut v = y;
        for i in (0..128).rev() {
            if (x >> i) & 1 == 1 {
                z ^= v;
            }
            v = if v & 1 == 1 { (v >> 1) ^ R } else { v >> 1 };
        }
        z
    }

    #[test]
    fn bmul64_small_products() {
        // Carryless: (x + 1)(x + 1) = x^2 + 1, i.e. 3 ⊗ 3 = 5.
        assert_eq!(bmul64(3, 3), 5);
        assert_eq!(bmul64(0, u64::MAX), 0);
        assert_eq!(bmul64(1, 0xdead_beef), 0xdead_beef);
        assert_eq!(bmul64(2, 0x7fff_ffff_ffff_ffff), 0xffff_ffff_ffff_fffe);
    }

    #[test]
    fn clmul64_matches_shift_and_xor() {
        use crate::rng::{SecureRandom, SeededRandom};
        let mut rng = SeededRandom::new(41);
        for _ in 0..500 {
            let x = u64::from_le_bytes(rng.bytes());
            let y = u64::from_le_bytes(rng.bytes());
            let mut expect = 0u128;
            for i in 0..64 {
                if (y >> i) & 1 == 1 {
                    expect ^= (x as u128) << i;
                }
            }
            let (lo, hi) = clmul64(x, y);
            assert_eq!((lo as u128) | ((hi as u128) << 64), expect, "x={x:#x} y={y:#x}");
        }
    }

    #[test]
    fn ghash_mul_ct_matches_reference() {
        use crate::rng::{SecureRandom, SeededRandom};
        let mut rng = SeededRandom::new(42);
        for _ in 0..500 {
            let x = u128::from_le_bytes(rng.bytes());
            let y = u128::from_le_bytes(rng.bytes());
            assert_eq!(ghash_mul_ct(x, y), ghash_mul_reference(x, y), "x={x:#x} y={y:#x}");
        }
    }

    #[test]
    fn ghash_mul_ct_edge_operands() {
        let interesting = [
            0u128,
            1,
            1 << 127,
            u128::MAX,
            0xe1 << 120,
            0x0123_4567_89ab_cdef_0123_4567_89ab_cdef,
        ];
        for &x in &interesting {
            for &y in &interesting {
                assert_eq!(ghash_mul_ct(x, y), ghash_mul_reference(x, y), "x={x:#x} y={y:#x}");
            }
        }
    }

    #[test]
    fn ghash_mul_ct_is_commutative_and_distributive() {
        use crate::rng::{SecureRandom, SeededRandom};
        let mut rng = SeededRandom::new(43);
        for _ in 0..100 {
            let a = u128::from_le_bytes(rng.bytes());
            let b = u128::from_le_bytes(rng.bytes());
            let c = u128::from_le_bytes(rng.bytes());
            assert_eq!(ghash_mul_ct(a, b), ghash_mul_ct(b, a));
            assert_eq!(
                ghash_mul_ct(a ^ b, c),
                ghash_mul_ct(a, c) ^ ghash_mul_ct(b, c)
            );
        }
    }
}
