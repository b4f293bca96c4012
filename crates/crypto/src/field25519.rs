//! Arithmetic in the field GF(2^255 - 19), shared by [`crate::x25519`] and
//! [`crate::ed25519`].
//!
//! Elements are represented with five 51-bit limbs (the classic 64-bit
//! "radix 2^51" representation). Operations keep limbs loosely reduced
//! (< 2^52) and fully normalize only on serialization.
//!
//! Arithmetic, inversion (a fixed addition chain) and the conditional
//! [`Fe::cswap`]/[`Fe::cmov`] run the same instructions whatever the
//! values; only the predicates [`Fe::is_zero`] and [`Fe::is_negative`],
//! which callers apply to public values, answer with a `bool`.

/// Mask of the low 51 bits.
const MASK: u64 = (1 << 51) - 1;

/// An element of GF(2^255 - 19).
#[derive(Clone, Copy)]
pub struct Fe(pub(crate) [u64; 5]);

impl std::fmt::Debug for Fe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Fe({:x?})", self.to_bytes())
    }
}

impl PartialEq for Fe {
    fn eq(&self, other: &Fe) -> bool {
        self.to_bytes() == other.to_bytes()
    }
}

impl Eq for Fe {}

impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe([0; 5]);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Constructs the small constant `n`.
    pub fn from_u64(n: u64) -> Fe {
        let mut fe = Fe::ZERO;
        fe.0[0] = n & MASK;
        fe.0[1] = n >> 51;
        fe
    }

    /// Parses a 32-byte little-endian encoding, ignoring the top bit
    /// (standard for both X25519 u-coordinates and Ed25519 y-coordinates).
    pub fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let load8 = |off: usize| -> u64 {
            u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap())
        };
        Fe([
            load8(0) & MASK,
            (load8(6) >> 3) & MASK,
            (load8(12) >> 6) & MASK,
            (load8(19) >> 1) & MASK,
            (load8(24) >> 12) & MASK,
        ])
    }

    /// Serializes to the canonical 32-byte little-endian encoding.
    pub fn to_bytes(self) -> [u8; 32] {
        // First, a weak reduction so every limb is below 2^52.
        let mut h = self.0;
        let mut c;
        c = h[0] >> 51; h[0] &= MASK; h[1] += c;
        c = h[1] >> 51; h[1] &= MASK; h[2] += c;
        c = h[2] >> 51; h[2] &= MASK; h[3] += c;
        c = h[3] >> 51; h[3] &= MASK; h[4] += c;
        c = h[4] >> 51; h[4] &= MASK; h[0] += 19 * c;
        c = h[0] >> 51; h[0] &= MASK; h[1] += c;

        // Compute q = 1 iff h >= p, by simulating the addition of 19.
        let mut q = (h[0] + 19) >> 51;
        q = (h[1] + q) >> 51;
        q = (h[2] + q) >> 51;
        q = (h[3] + q) >> 51;
        q = (h[4] + q) >> 51;

        // Add 19*q and mask: this subtracts q*p by letting the carry out of
        // limb 4 (q * 2^255) vanish under the mask.
        h[0] += 19 * q;
        c = h[0] >> 51; h[0] &= MASK; h[1] += c;
        c = h[1] >> 51; h[1] &= MASK; h[2] += c;
        c = h[2] >> 51; h[2] &= MASK; h[3] += c;
        c = h[3] >> 51; h[3] &= MASK; h[4] += c;
        h[4] &= MASK;

        // Pack 5 x 51-bit limbs into 255 bits, little-endian.
        let mut out = [0u8; 32];
        let mut acc: u128 = 0;
        let mut acc_bits = 0u32;
        let mut idx = 0usize;
        for limb in h.iter() {
            acc |= (*limb as u128) << acc_bits;
            acc_bits += 51;
            while acc_bits >= 8 && idx < 32 {
                out[idx] = (acc & 0xff) as u8;
                acc >>= 8;
                acc_bits -= 8;
                idx += 1;
            }
        }
        while idx < 32 {
            out[idx] = (acc & 0xff) as u8;
            acc >>= 8;
            idx += 1;
        }
        out
    }

    /// Addition (no immediate reduction; limbs stay < 2^53 for one op).
    pub fn add(&self, other: &Fe) -> Fe {
        let mut out = [0u64; 5];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.0[i] + other.0[i];
        }
        Fe(out).weak_reduce()
    }

    /// Subtraction, adding 2p first to keep limbs non-negative.
    pub fn sub(&self, other: &Fe) -> Fe {
        // 2p = (2^52 - 38, 2^52 - 2, 2^52 - 2, 2^52 - 2, 2^52 - 2) in radix 2^51.
        const TWO_P: [u64; 5] = [
            0xFFFFFFFFFFFDA,
            0xFFFFFFFFFFFFE,
            0xFFFFFFFFFFFFE,
            0xFFFFFFFFFFFFE,
            0xFFFFFFFFFFFFE,
        ];
        let mut out = [0u64; 5];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.0[i] + TWO_P[i] - other.0[i];
        }
        Fe(out).weak_reduce()
    }

    /// Negation.
    pub fn neg(&self) -> Fe {
        Fe::ZERO.sub(self)
    }

    fn weak_reduce(self) -> Fe {
        let mut h = self.0;
        let mut c;
        c = h[0] >> 51; h[0] &= MASK; h[1] += c;
        c = h[1] >> 51; h[1] &= MASK; h[2] += c;
        c = h[2] >> 51; h[2] &= MASK; h[3] += c;
        c = h[3] >> 51; h[3] &= MASK; h[4] += c;
        c = h[4] >> 51; h[4] &= MASK; h[0] += 19 * c;
        Fe(h)
    }

    /// Multiplication.
    pub fn mul(&self, other: &Fe) -> Fe {
        #[cfg(test)]
        op_count::bump();
        let a = self.0;
        let b = other.0;
        let b1_19 = b[1] * 19;
        let b2_19 = b[2] * 19;
        let b3_19 = b[3] * 19;
        let b4_19 = b[4] * 19;
        let m = |x: u64, y: u64| -> u128 { (x as u128) * (y as u128) };
        let t0 = m(a[0], b[0]) + m(a[1], b4_19) + m(a[2], b3_19) + m(a[3], b2_19) + m(a[4], b1_19);
        let mut t1 = m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4_19) + m(a[3], b3_19) + m(a[4], b2_19);
        let mut t2 = m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4_19) + m(a[4], b3_19);
        let mut t3 = m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4_19);
        let mut t4 = m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]);

        Fe::carry_wide(t0, &mut t1, &mut t2, &mut t3, &mut t4)
    }

    /// Carries the five 128-bit column sums of a product down to limbs.
    fn carry_wide(t0: u128, t1: &mut u128, t2: &mut u128, t3: &mut u128, t4: &mut u128) -> Fe {
        let mut out = [0u64; 5];
        let mut c: u128;
        c = t0 >> 51; *t1 += c; out[0] = (t0 as u64) & MASK;
        c = *t1 >> 51; *t2 += c; out[1] = (*t1 as u64) & MASK;
        c = *t2 >> 51; *t3 += c; out[2] = (*t2 as u64) & MASK;
        c = *t3 >> 51; *t4 += c; out[3] = (*t3 as u64) & MASK;
        c = *t4 >> 51; out[4] = (*t4 as u64) & MASK;
        out[0] += (c as u64) * 19;
        let carry = out[0] >> 51;
        out[0] &= MASK;
        out[1] += carry;
        Fe(out)
    }

    /// Squaring: the 15 distinct limb products of `self * self` instead of
    /// [`Fe::mul`]'s 25.
    pub fn square(&self) -> Fe {
        #[cfg(test)]
        op_count::bump();
        let a = self.0;
        let a0_2 = a[0] * 2;
        let a1_2 = a[1] * 2;
        let a3_19 = a[3] * 19;
        let a4_19 = a[4] * 19;
        let m = |x: u64, y: u64| -> u128 { (x as u128) * (y as u128) };
        let t0 = m(a[0], a[0]) + m(a1_2, a4_19) + m(a[2] * 2, a3_19);
        let mut t1 = m(a0_2, a[1]) + m(a[2] * 2, a4_19) + m(a[3], a3_19);
        let mut t2 = m(a0_2, a[2]) + m(a[1], a[1]) + m(a[3] * 2, a4_19);
        let mut t3 = m(a0_2, a[3]) + m(a1_2, a[2]) + m(a[4], a4_19);
        let mut t4 = m(a0_2, a[4]) + m(a1_2, a[3]) + m(a[2], a[2]);
        Fe::carry_wide(t0, &mut t1, &mut t2, &mut t3, &mut t4)
    }

    /// `self` squared `n` times (`n` is public).
    fn square_n(&self, n: u32) -> Fe {
        let mut x = *self;
        for _ in 0..n {
            x = x.square();
        }
        x
    }

    /// `(self^(2^250 - 1), self^11)`: the shared prefix of the addition
    /// chains for [`Fe::invert`] and [`Fe::pow_p58`] (254 squarings and 11
    /// multiplications between them, every step fixed).
    fn pow_2_250_minus_1(&self) -> (Fe, Fe) {
        let z2 = self.square();
        let z9 = z2.square_n(2).mul(self);
        let z11 = z9.mul(&z2);
        let z_5_0 = z11.square().mul(&z9);
        let z_10_0 = z_5_0.square_n(5).mul(&z_5_0);
        let z_20_0 = z_10_0.square_n(10).mul(&z_10_0);
        let z_40_0 = z_20_0.square_n(20).mul(&z_20_0);
        let z_50_0 = z_40_0.square_n(10).mul(&z_10_0);
        let z_100_0 = z_50_0.square_n(50).mul(&z_50_0);
        let z_200_0 = z_100_0.square_n(100).mul(&z_100_0);
        let z_250_0 = z_200_0.square_n(50).mul(&z_50_0);
        (z_250_0, z11)
    }

    /// Multiplicative inverse via Fermat's little theorem: x^(p-2) =
    /// x^(2^255 - 21), by a fixed addition chain.
    ///
    /// Returns zero for the zero input.
    pub fn invert(&self) -> Fe {
        let (z_250_0, z11) = self.pow_2_250_minus_1();
        z_250_0.square_n(5).mul(&z11)
    }

    /// x^((p-5)/8) = x^(2^252 - 3), used for square-root extraction.
    pub fn pow_p58(&self) -> Fe {
        let (z_250_0, _) = self.pow_2_250_minus_1();
        z_250_0.square_n(2).mul(self)
    }

    /// `sqrt(-1) mod p` = 2^((p-1)/4) = (2^(2^252 - 3))^2 * 2.
    pub fn sqrt_m1() -> Fe {
        let two = Fe::from_u64(2);
        two.pow_p58().square().mul(&two)
    }

    /// True when the element is zero.
    pub fn is_zero(&self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// The low bit of the canonical encoding (the "sign" of an x-coordinate).
    pub fn is_negative(&self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// Swaps `a` and `b` when `choice` is 1 and leaves both when it is 0,
    /// by masking: no branch and no memory access depends on `choice`.
    pub fn cswap(choice: u64, a: &mut Fe, b: &mut Fe) {
        let mask = std::hint::black_box(choice.wrapping_neg());
        for (x, y) in a.0.iter_mut().zip(b.0.iter_mut()) {
            let t = mask & (*x ^ *y);
            *x ^= t;
            *y ^= t;
        }
    }

    /// Replaces `self` by `other` when `choice` is 1 and keeps it when it is
    /// 0, by masking like [`Fe::cswap`].
    pub fn cmov(&mut self, other: &Fe, choice: u64) {
        let mask = std::hint::black_box(choice.wrapping_neg());
        for (x, y) in self.0.iter_mut().zip(other.0.iter()) {
            *x ^= mask & (*x ^ *y);
        }
    }
}

/// A test-only tally of field multiplications and squarings on this thread:
/// the deterministic cost the constant-time gates compare.
#[cfg(test)]
pub(crate) mod op_count {
    use std::cell::Cell;

    thread_local! {
        static OPS: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn bump() {
        OPS.set(OPS.get() + 1);
    }

    /// The field multiplications and squarings `f` performs.
    pub(crate) fn of<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = OPS.get();
        let out = f();
        (out, OPS.get() - before)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use nexus_testkit::Gen;

    fn fe(n: u64) -> Fe {
        Fe::from_u64(n)
    }

    /// The square-and-multiply exponentiation `invert` and `pow_p58` used
    /// before their addition chains: the oracle they are checked against.
    /// It branches on the exponent's bits.
    pub(crate) fn pow(base: &Fe, exponent_le: &[u8; 32]) -> Fe {
        let mut result = Fe::ONE;
        let mut base = *base;
        for byte in exponent_le.iter() {
            let mut bits = *byte;
            for _ in 0..8 {
                if bits & 1 == 1 {
                    result = result.mul(&base);
                }
                base = base.square();
                bits >>= 1;
            }
        }
        result
    }

    /// The oracle inversion: x^(p-2), p - 2 = 2^255 - 21.
    pub(crate) fn invert_by_pow(x: &Fe) -> Fe {
        let mut exp = [0xffu8; 32];
        exp[0] = 0xeb;
        exp[31] = 0x7f;
        pow(x, &exp)
    }

    /// A field element from 32 random bytes (top bit dropped), limbs fully
    /// reduced or not as `from_bytes` leaves them.
    fn random_fe(g: &mut Gen) -> Fe {
        Fe::from_bytes(&g.bytes::<32>())
    }

    #[test]
    fn square_matches_mul() {
        let mut g = Gen::new(0x5a_0a4e);
        for _ in 0..1000 {
            let a = random_fe(&mut g);
            // Also through loosely reduced limbs, as `sub` leaves them.
            let b = a.sub(&random_fe(&mut g));
            assert_eq!(a.square(), a.mul(&a));
            assert_eq!(b.square(), b.mul(&b));
        }
    }

    #[test]
    fn addition_chains_match_square_and_multiply() {
        // 2^252 - 3 little-endian: fd ff .. ff 0f.
        let mut p58 = [0xffu8; 32];
        p58[0] = 0xfd;
        p58[31] = 0x0f;
        let mut g = Gen::new(0x00c4_a125);
        for _ in 0..64 {
            let a = random_fe(&mut g);
            assert_eq!(a.invert(), invert_by_pow(&a));
            assert_eq!(a.pow_p58(), pow(&a, &p58));
        }
        // sqrt(-1) = 2^((p-1)/4), (p-1)/4 = 2^253 - 5: fb ff .. ff 1f.
        let mut quarter = [0xffu8; 32];
        quarter[0] = 0xfb;
        quarter[31] = 0x1f;
        assert_eq!(Fe::sqrt_m1(), pow(&fe(2), &quarter));
    }

    #[test]
    fn addition_chains_cost_254_squarings_and_11_multiplications() {
        let a = fe(0x1234_5678);
        assert_eq!(op_count::of(|| a.invert()).1, 254 + 11);
        assert_eq!(op_count::of(|| a.pow_p58()).1, 251 + 11);
    }

    #[test]
    fn masked_swap_and_move() {
        let (a, b) = (fe(5), fe(9));
        let (mut x, mut y) = (a, b);
        Fe::cswap(0, &mut x, &mut y);
        assert_eq!((x, y), (a, b));
        Fe::cswap(1, &mut x, &mut y);
        assert_eq!((x, y), (b, a));
        x.cmov(&a, 0);
        assert_eq!(x, b);
        x.cmov(&a, 1);
        assert_eq!(x, a);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = fe(1_000_000);
        let b = fe(999);
        assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn small_multiplication() {
        assert_eq!(fe(6).mul(&fe(7)), fe(42));
        assert_eq!(fe(1 << 40).mul(&fe(1 << 40)), {
            // 2^80 in the field.
            let mut limbs = Fe::ZERO;
            limbs.0[1] = 1 << 29;
            limbs
        });
    }

    #[test]
    fn negative_one_times_negative_one() {
        let m1 = Fe::ZERO.sub(&Fe::ONE);
        assert_eq!(m1.mul(&m1), Fe::ONE);
    }

    #[test]
    fn inversion() {
        let a = fe(123456789);
        let inv = a.invert();
        assert_eq!(a.mul(&inv), Fe::ONE);
    }

    #[test]
    fn inversion_of_zero_is_zero() {
        assert!(Fe::ZERO.invert().is_zero());
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let i = Fe::sqrt_m1();
        let minus_one = Fe::ZERO.sub(&Fe::ONE);
        assert_eq!(i.square(), minus_one);
    }

    #[test]
    fn bytes_roundtrip() {
        let a = fe(0xdead_beef_cafe);
        let b = Fe::from_bytes(&a.to_bytes());
        assert_eq!(a, b);
    }

    #[test]
    fn canonical_reduction_of_p_is_zero() {
        // p = 2^255 - 19 must serialize as zero.
        let mut p_bytes = [0xffu8; 32];
        p_bytes[0] = 0xed;
        p_bytes[31] = 0x7f;
        let p = Fe::from_bytes(&p_bytes);
        // from_bytes masks the top bit but p < 2^255 so the value is intact.
        assert!(p.is_zero());
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let base = fe(3);
        let mut exp = [0u8; 32];
        exp[0] = 13;
        let expected = (0..13).fold(Fe::ONE, |acc, _| acc.mul(&base));
        assert_eq!(pow(&base, &exp), expected);
    }

    #[test]
    fn from_bytes_ignores_top_bit() {
        let mut a = [0u8; 32];
        a[31] = 0x80;
        assert!(Fe::from_bytes(&a).is_zero());
    }
}
