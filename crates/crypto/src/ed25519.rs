//! Ed25519 signatures (RFC 8032).
//!
//! NEXUS identities are Ed25519 keypairs: the volume owner and every
//! authorized user is identified by a public key stored in the supernode,
//! and both the volume-authentication challenge/response and the rootkey
//! exchange protocol sign their messages with these keys.
//!
//! Every operation on a secret scalar runs a fixed sequence of field
//! operations and makes no secret-indexed load: key derivation and the
//! signing nonce multiply the base point through a per-process table of its
//! multiples ([`Point::mul_base`]: signed radix-16 digits, each entry chosen
//! by a masked scan of its whole row), and the scalar arithmetic modulo L is
//! a Barrett reduction with masked corrections. Verification handles only
//! public values and runs variable-time: R' = s·B − k·A, k·A by a
//! width-5 NAF, and the signature holds when `compress(R')` equals its R
//! bytes — so a non-canonical R is refused (RFC 8032 §5.1.7).
//!
//! # Examples
//!
//! ```
//! use nexus_crypto::ed25519::SigningKey;
//!
//! let key = SigningKey::from_seed(&[7u8; 32]);
//! let sig = key.sign(b"hello");
//! key.verifying_key().verify(b"hello", &sig).unwrap();
//! assert!(key.verifying_key().verify(b"tampered", &sig).is_err());
//! ```

use std::sync::OnceLock;

use crate::field25519::Fe;
use crate::sha2::Sha512;
use crate::SignatureError;

// ---------------------------------------------------------------------------
// Scalar arithmetic modulo the group order L.
// ---------------------------------------------------------------------------

/// The group order L = 2^252 + 27742317777372353535851937790883648493,
/// little-endian 64-bit limbs.
const L: [u64; 4] = [
    0x5812631a5cf5d3ed,
    0x14def9dea2f79cd6,
    0x0000000000000000,
    0x1000000000000000,
];

/// L over five limbs, the width of the Barrett remainder.
const L5: [u64; 5] = [L[0], L[1], L[2], L[3], 0];

/// The Barrett constant floor(2^512 / L), little-endian 64-bit limbs.
const BARRETT_MU: [u64; 5] = [
    0xed9ce5a30a2c131b,
    0x2106215d086329a7,
    0xffffffffffffffeb,
    0xffffffffffffffff,
    0x000000000000000f,
];

/// A scalar modulo L, little-endian limbs, always fully reduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Scalar(pub(crate) [u64; 4]);

/// `a - b` over `N` limbs and the borrow out (0 or 1).
fn sub_limbs<const N: usize>(a: &[u64; N], b: &[u64; N]) -> ([u64; N], u64) {
    let mut out = [0u64; N];
    let mut borrow = 0u64;
    for i in 0..N {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        out[i] = d2;
        borrow = (b1 | b2) as u64;
    }
    (out, borrow)
}

/// `a * b` over `N` limbs, all `2N` product limbs.
fn mul_limbs<const N: usize, const M: usize>(a: &[u64; N], b: &[u64; N]) -> [u64; M] {
    let mut product = [0u64; M];
    for i in 0..N {
        let mut carry = 0u128;
        for j in 0..N {
            let t = product[i + j] as u128 + (a[i] as u128) * (b[j] as u128) + carry;
            product[i + j] = t as u64;
            carry = t >> 64;
        }
        product[i + N] = carry as u64;
    }
    product
}

impl Scalar {
    #[cfg(test)]
    pub(crate) const ZERO: Scalar = Scalar([0; 4]);

    /// Subtracts L from a value below 2L when it is at least L, by masking.
    fn sub_l_masked(value: &[u64; 5]) -> [u64; 5] {
        let (diff, borrow) = sub_limbs(value, &L5);
        let keep = borrow.wrapping_neg();
        let mut out = [0u64; 5];
        for i in 0..5 {
            out[i] = (value[i] & keep) | (diff[i] & !keep);
        }
        out
    }

    /// Reduces a 512-bit value modulo L by Barrett's method (HAC 14.42,
    /// base 2^64, k = 4): a fixed sequence of limb products, then two masked
    /// subtractions of L.
    fn reduce_wide(x: &[u64; 8]) -> Scalar {
        let q1: [u64; 5] = x[3..8].try_into().unwrap();
        let q2: [u64; 10] = mul_limbs(&q1, &BARRETT_MU);
        let q3: [u64; 5] = q2[5..10].try_into().unwrap();
        let q3l: [u64; 10] = mul_limbs(&q3, &L5);
        let r1: [u64; 5] = x[..5].try_into().unwrap();
        let r2: [u64; 5] = q3l[..5].try_into().unwrap();
        // r = x - q3·L mod 2^320, and 0 <= r < 3L.
        let (r, _) = sub_limbs(&r1, &r2);
        let r = Self::sub_l_masked(&Self::sub_l_masked(&r));
        Scalar([r[0], r[1], r[2], r[3]])
    }

    /// Reduces a 512-bit little-endian value modulo L.
    pub(crate) fn reduce512(value: &[u8; 64]) -> Scalar {
        let mut limbs = [0u64; 8];
        for (i, chunk) in value.chunks_exact(8).enumerate() {
            limbs[i] = u64::from_le_bytes(chunk.try_into().unwrap());
        }
        Self::reduce_wide(&limbs)
    }

    /// Reduces a 32-byte little-endian value modulo L.
    pub(crate) fn from_bytes_mod_l(bytes: &[u8; 32]) -> Scalar {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(bytes);
        Self::reduce512(&wide)
    }

    /// Parses a canonical scalar (< L); `None` otherwise.
    pub(crate) fn from_canonical_bytes(bytes: &[u8; 32]) -> Option<Scalar> {
        let mut limbs = [0u64; 4];
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            limbs[i] = u64::from_le_bytes(chunk.try_into().unwrap());
        }
        let (_, below_l) = sub_limbs(&limbs, &L);
        (below_l == 1).then_some(Scalar(limbs))
    }

    pub(crate) fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.0.iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    pub(crate) fn add(&self, other: &Scalar) -> Scalar {
        let mut sum = [0u64; 5];
        let mut carry = 0u128;
        for (i, out) in sum.iter_mut().take(4).enumerate() {
            let s = self.0[i] as u128 + other.0[i] as u128 + carry;
            *out = s as u64;
            carry = s >> 64;
        }
        sum[4] = carry as u64;
        let r = Self::sub_l_masked(&sum);
        Scalar([r[0], r[1], r[2], r[3]])
    }

    pub(crate) fn mul(&self, other: &Scalar) -> Scalar {
        Self::reduce_wide(&mul_limbs(&self.0, &other.0))
    }
}

// ---------------------------------------------------------------------------
// Edwards curve points.
// ---------------------------------------------------------------------------

/// Curve constants, computed once at first use.
struct Constants {
    d: Fe,
    d2: Fe,
    sqrt_m1: Fe,
    base: Point,
}

fn constants() -> &'static Constants {
    static CONSTANTS: OnceLock<Constants> = OnceLock::new();
    CONSTANTS.get_or_init(|| {
        // d = -121665 / 121666 mod p.
        let d = Fe::from_u64(121665)
            .neg()
            .mul(&Fe::from_u64(121666).invert());
        let d2 = d.add(&d);
        let sqrt_m1 = Fe::sqrt_m1();
        // Base point: y = 4/5, x recovered with even sign.
        let y = Fe::from_u64(4).mul(&Fe::from_u64(5).invert());
        let x = recover_x(&y, false, &d, &sqrt_m1).expect("base point exists");
        let base = Point {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(&y),
        };
        Constants { d, d2, sqrt_m1, base }
    })
}

/// Recovers an x-coordinate from y and a sign bit; `None` if y is not on the
/// curve. Variable-time: only public encodings are decompressed.
fn recover_x(y: &Fe, sign: bool, d: &Fe, sqrt_m1: &Fe) -> Option<Fe> {
    let yy = y.square();
    let u = yy.sub(&Fe::ONE);
    let v = d.mul(&yy).add(&Fe::ONE);
    // Candidate root of u/v: x = u * v^3 * (u * v^7)^((p-5)/8).
    let v3 = v.square().mul(&v);
    let v7 = v3.square().mul(&v);
    let mut x = u.mul(&v3).mul(&u.mul(&v7).pow_p58());
    let vxx = v.mul(&x.square());
    if vxx != u {
        if vxx == u.neg() {
            x = x.mul(sqrt_m1);
        } else {
            return None;
        }
    }
    if x.is_zero() && sign {
        return None;
    }
    if x.is_negative() != sign {
        x = x.neg();
    }
    Some(x)
}

/// A point in extended twisted-Edwards coordinates (X : Y : Z : T), with
/// x = X/Z, y = Y/Z, and T = XY/Z.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// A point prepared for addition: (Y + X, Y − X, 2Z, 2d·T).
#[derive(Clone, Copy)]
struct Cached {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z2: Fe,
    t2d: Fe,
}

/// An affine point prepared for mixed addition: (y + x, y − x, 2d·xy). The
/// entries of the base-point table.
#[derive(Clone, Copy)]
struct Affine {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

impl Affine {
    const IDENTITY: Affine = Affine { y_plus_x: Fe::ONE, y_minus_x: Fe::ONE, xy2d: Fe::ZERO };

    /// Replaces `self` by `other` when `choice` is 1, by masking.
    fn cmov(&mut self, other: &Affine, choice: u64) {
        self.y_plus_x.cmov(&other.y_plus_x, choice);
        self.y_minus_x.cmov(&other.y_minus_x, choice);
        self.xy2d.cmov(&other.xy2d, choice);
    }

    fn neg(&self) -> Affine {
        Affine { y_plus_x: self.y_minus_x, y_minus_x: self.y_plus_x, xy2d: self.xy2d.neg() }
    }
}

/// Rows of the base-point table: row i holds 1·Pᵢ … 8·Pᵢ, Pᵢ = 256ⁱ·B.
const BASE_ROWS: usize = 32;

/// The multiples of the base point [`Point::mul_base`] selects from, built
/// on first use: 256 points by doubling and addition, made affine with one
/// batched inversion.
fn base_multiples() -> &'static [[Affine; 8]; BASE_ROWS] {
    static MULTIPLES: OnceLock<[[Affine; 8]; BASE_ROWS]> = OnceLock::new();
    MULTIPLES.get_or_init(|| {
        let mut points = [[Point::identity(); 8]; BASE_ROWS];
        let mut p = constants().base;
        for row in points.iter_mut() {
            row[0] = p;
            row[1] = p.double();
            for j in 2..8 {
                row[j] = row[j - 1].add(&p);
            }
            // 256·P = 8·P doubled five times.
            p = (0..5).fold(row[7], |q, _| q.double());
        }
        // Montgomery's trick: `prefix[i]` is the product of the Zs before
        // point i, and one inversion of the product of them all serves
        // every point.
        let points = points.as_flattened();
        let mut prefix = [Fe::ONE; BASE_ROWS * 8];
        let mut acc = Fe::ONE;
        for (q, before) in points.iter().zip(prefix.iter_mut()) {
            *before = acc;
            acc = acc.mul(&q.z);
        }
        let mut inv = acc.invert();
        let d2 = constants().d2;
        let mut rows = [[Affine::IDENTITY; 8]; BASE_ROWS];
        for (i, q) in points.iter().enumerate().rev() {
            let z_inv = inv.mul(&prefix[i]);
            inv = inv.mul(&q.z);
            let x = q.x.mul(&z_inv);
            let y = q.y.mul(&z_inv);
            rows[i / 8][i % 8] =
                Affine { y_plus_x: y.add(&x), y_minus_x: y.sub(&x), xy2d: x.mul(&y).mul(&d2) };
        }
        rows
    })
}

/// `digit · row[0]` for a digit in [−8, 8]: every entry of the row is read
/// and the one wanted kept by masking, then negated by masking.
fn select(row: &[Affine; 8], digit: i8) -> Affine {
    let sign_mask = digit >> 7;
    let negative = (sign_mask & 1) as u64;
    let magnitude = ((digit ^ sign_mask) - sign_mask) as u8;
    let mut out = Affine::IDENTITY;
    for (j, entry) in row.iter().enumerate() {
        let diff = (magnitude ^ (j as u8 + 1)) as u32;
        let equal = (diff.wrapping_sub(1) >> 31) as u64;
        out.cmov(entry, equal);
    }
    let minus = out.neg();
    out.cmov(&minus, negative);
    out
}

impl Point {
    pub(crate) fn identity() -> Point {
        Point { x: Fe::ZERO, y: Fe::ONE, z: Fe::ONE, t: Fe::ZERO }
    }

    fn to_cached(self) -> Cached {
        Cached {
            y_plus_x: self.y.add(&self.x),
            y_minus_x: self.y.sub(&self.x),
            z2: self.z.add(&self.z),
            t2d: self.t.mul(&constants().d2),
        }
    }

    /// The unified addition's last step: (E·F, G·H, F·G, E·H).
    fn finish(e: Fe, f: Fe, g: Fe, h: Fe) -> Point {
        Point { x: e.mul(&f), y: g.mul(&h), z: f.mul(&g), t: e.mul(&h) }
    }

    /// Unified addition (complete for a = −1 twisted Edwards curves).
    pub(crate) fn add(&self, other: &Point) -> Point {
        self.add_cached(&other.to_cached())
    }

    fn add_cached(&self, q: &Cached) -> Point {
        let a = self.y.sub(&self.x).mul(&q.y_minus_x);
        let b = self.y.add(&self.x).mul(&q.y_plus_x);
        let c = self.t.mul(&q.t2d);
        let d = self.z.mul(&q.z2);
        Point::finish(b.sub(&a), d.sub(&c), d.add(&c), b.add(&a))
    }

    fn sub_cached(&self, q: &Cached) -> Point {
        let a = self.y.sub(&self.x).mul(&q.y_plus_x);
        let b = self.y.add(&self.x).mul(&q.y_minus_x);
        let c = self.t.mul(&q.t2d);
        let d = self.z.mul(&q.z2);
        Point::finish(b.sub(&a), d.add(&c), d.sub(&c), b.add(&a))
    }

    /// Mixed addition of an affine table entry (7 multiplications).
    fn add_affine(&self, q: &Affine) -> Point {
        let a = self.y.sub(&self.x).mul(&q.y_minus_x);
        let b = self.y.add(&self.x).mul(&q.y_plus_x);
        let c = self.t.mul(&q.xy2d);
        let d = self.z.add(&self.z);
        Point::finish(b.sub(&a), d.sub(&c), d.add(&c), b.add(&a))
    }

    /// Doubling for a = −1 (4 multiplications and 4 squarings).
    pub(crate) fn double(&self) -> Point {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz2 = self.z.square();
        let zz2 = zz2.add(&zz2);
        let h = yy.add(&xx);
        let g = yy.sub(&xx);
        // E = 2XY, F = 2Z² − G.
        let e = self.x.add(&self.y).square().sub(&h);
        let f = zz2.sub(&g);
        Point::finish(e, f, g, h)
    }

    /// `scalar · B`, B the base point, for a little-endian scalar below
    /// 2^255 (a clamped key or a reduced scalar). Constant-time: the scalar
    /// is recoded to 64 signed radix-16 digits in [−8, 8], and each digit
    /// picks `digit · 16ⁱ·B` from [`base_multiples`] by [`select`]; 64
    /// mixed additions and four doublings, whatever the scalar.
    pub(crate) fn mul_base(scalar_le: &[u8; 32]) -> Point {
        let mut digits = [0i8; 64];
        for (i, byte) in scalar_le.iter().enumerate() {
            digits[2 * i] = (byte & 15) as i8;
            digits[2 * i + 1] = (byte >> 4) as i8;
        }
        let mut carry = 0i8;
        for digit in digits.iter_mut().take(63) {
            *digit += carry;
            carry = (*digit + 8) >> 4;
            *digit -= carry << 4;
        }
        digits[63] += carry;

        let rows = base_multiples();
        let mut h = Point::identity();
        for i in (1..64).step_by(2) {
            h = h.add_affine(&select(&rows[i / 2], digits[i]));
        }
        h = h.double().double().double().double();
        for i in (0..64).step_by(2) {
            h = h.add_affine(&select(&rows[i / 2], digits[i]));
        }
        h
    }

    /// `scalar · self` for a public scalar, variable-time: a width-5 NAF
    /// over the odd multiples self, 3·self, …, 15·self.
    fn mul_vartime(&self, scalar: &Scalar) -> Point {
        let naf = width5_naf(scalar);
        let double = self.double().to_cached();
        let mut odd = [self.to_cached(); 8];
        let mut q = *self;
        for entry in odd.iter_mut().skip(1) {
            q = q.add_cached(&double);
            *entry = q.to_cached();
        }
        let mut h = Point::identity();
        let Some(top) = naf.iter().rposition(|&d| d != 0) else {
            return h;
        };
        for &digit in naf[..=top].iter().rev() {
            h = h.double();
            if digit > 0 {
                h = h.add_cached(&odd[digit as usize / 2]);
            } else if digit < 0 {
                h = h.sub_cached(&odd[(-digit) as usize / 2]);
            }
        }
        h
    }

    /// Compresses to the 32-byte encoding: y with the sign of x in the top
    /// bit.
    pub(crate) fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(&zinv).to_bytes();
        let mut out = self.y.mul(&zinv).to_bytes();
        out[31] |= (x[0] & 1) << 7;
        out
    }

    /// Decompresses a 32-byte encoding; `None` if it is not a curve point.
    pub(crate) fn decompress(bytes: &[u8; 32]) -> Option<Point> {
        let c = constants();
        let sign = bytes[31] >> 7 == 1;
        let y = Fe::from_bytes(bytes);
        let x = recover_x(&y, sign, &c.d, &c.sqrt_m1)?;
        Some(Point { x, y, z: Fe::ONE, t: x.mul(&y) })
    }
}

/// The width-5 non-adjacent form of a scalar: 256 signed digits, each zero
/// or odd in [−15, 15], no two nonzero within five places. Variable-time.
fn width5_naf(scalar: &Scalar) -> [i8; 256] {
    let mut k = [scalar.0[0], scalar.0[1], scalar.0[2], scalar.0[3], 0];
    let mut naf = [0i8; 256];
    let mut i = 0;
    while k != [0; 5] {
        if k[0] & 1 == 1 {
            // The residue mod 32 mapped into [−16, 16), then cleared from k.
            let mut digit = (k[0] & 31) as i8;
            if digit >= 16 {
                digit -= 32;
            }
            naf[i] = digit;
            if digit > 0 {
                k = sub_limbs(&k, &[digit as u64, 0, 0, 0, 0]).0;
            } else {
                let mut carry = (-digit) as u64;
                for limb in k.iter_mut() {
                    let (s, c) = limb.overflowing_add(carry);
                    *limb = s;
                    carry = c as u64;
                }
            }
        }
        for j in 0..5 {
            k[j] = (k[j] >> 1) | if j < 4 { k[j + 1] << 63 } else { 0 };
        }
        i += 1;
    }
    naf
}

// ---------------------------------------------------------------------------
// Keys and signatures.
// ---------------------------------------------------------------------------

/// An Ed25519 signature (`R || s`).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Signature(pub [u8; 64]);

impl std::fmt::Debug for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Signature({:02x?}..)", &self.0[..4])
    }
}

impl Signature {
    /// Parses a signature from raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SignatureError`] if the slice is not 64 bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Signature, SignatureError> {
        let arr: [u8; 64] = bytes.try_into().map_err(|_| SignatureError)?;
        Ok(Signature(arr))
    }

    /// The raw 64-byte encoding.
    pub fn to_bytes(&self) -> [u8; 64] {
        self.0
    }
}

/// An Ed25519 private key, stored as its 32-byte seed.
#[derive(Clone)]
pub struct SigningKey {
    seed: [u8; 32],
    /// Cached clamped scalar half of SHA-512(seed).
    scalar: [u8; 32],
    /// Cached prefix half of SHA-512(seed).
    prefix: [u8; 32],
    /// Cached public key.
    public: [u8; 32],
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SigningKey(pub={:02x?}..)", &self.public[..4])
    }
}

impl SigningKey {
    /// Derives a key from a 32-byte seed (RFC 8032 §5.1.5).
    pub fn from_seed(seed: &[u8; 32]) -> SigningKey {
        SigningKey::from_expanded(seed, &Sha512::digest(seed))
    }

    /// The key whose seed hashes to `h`: the clamped scalar half of `h`
    /// times the base point, in constant time.
    fn from_expanded(seed: &[u8; 32], h: &[u8; 64]) -> SigningKey {
        let mut scalar: [u8; 32] = h[..32].try_into().unwrap();
        scalar[0] &= 248;
        scalar[31] &= 63;
        scalar[31] |= 64;
        let prefix: [u8; 32] = h[32..].try_into().unwrap();
        let public = Point::mul_base(&scalar).compress();
        SigningKey { seed: *seed, scalar, prefix, public }
    }

    /// Generates a fresh key from the given randomness source.
    pub fn generate(rng: &mut dyn crate::rng::SecureRandom) -> SigningKey {
        let mut seed = [0u8; 32];
        rng.fill(&mut seed);
        SigningKey::from_seed(&seed)
    }

    /// The seed this key was derived from.
    pub fn seed(&self) -> &[u8; 32] {
        &self.seed
    }

    /// The corresponding public key.
    pub fn verifying_key(&self) -> VerifyingKey {
        VerifyingKey(self.public)
    }

    /// Signs `msg`.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let mut h = Sha512::new();
        h.update(&self.prefix).update(msg);
        self.sign_with_nonce(Scalar::reduce512(&h.finalize()), msg)
    }

    /// The signature of `msg` under nonce `r`; constant-time in `r` and in
    /// the key.
    fn sign_with_nonce(&self, r: Scalar, msg: &[u8]) -> Signature {
        let r_point = Point::mul_base(&r.to_bytes()).compress();

        let mut h = Sha512::new();
        h.update(&r_point).update(&self.public).update(msg);
        let k = Scalar::reduce512(&h.finalize());

        let a = Scalar::from_bytes_mod_l(&self.scalar);
        let s = r.add(&k.mul(&a));

        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&r_point);
        sig[32..].copy_from_slice(&s.to_bytes());
        Signature(sig)
    }
}

/// An Ed25519 public key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VerifyingKey(pub [u8; 32]);

impl std::fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VerifyingKey({:02x?}..)", &self.0[..4])
    }
}

impl VerifyingKey {
    /// Parses a public key from raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SignatureError`] if the slice is not 32 bytes or does not
    /// decode to a curve point.
    pub fn from_bytes(bytes: &[u8]) -> Result<VerifyingKey, SignatureError> {
        let arr: [u8; 32] = bytes.try_into().map_err(|_| SignatureError)?;
        Point::decompress(&arr).ok_or(SignatureError)?;
        Ok(VerifyingKey(arr))
    }

    /// The raw 32-byte encoding.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.0
    }

    /// Verifies `sig` over `msg`: R' = s·B − k·A, k = SHA-512(R ‖ A ‖ msg),
    /// must compress to the signature's R bytes. Variable-time, as every
    /// input is public.
    ///
    /// # Errors
    ///
    /// Returns [`SignatureError`] on any parse failure or mismatch,
    /// including an R that is not the canonical encoding of its point.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> Result<(), SignatureError> {
        let r_bytes: [u8; 32] = sig.0[..32].try_into().unwrap();
        let s_bytes: [u8; 32] = sig.0[32..].try_into().unwrap();
        let s = Scalar::from_canonical_bytes(&s_bytes).ok_or(SignatureError)?;
        let a = Point::decompress(&self.0).ok_or(SignatureError)?;

        let mut h = Sha512::new();
        h.update(&r_bytes).update(&self.0).update(msg);
        let k = Scalar::reduce512(&h.finalize());

        let r = Point::mul_base(&s.to_bytes()).sub_cached(&a.mul_vartime(&k).to_cached());
        if r.compress() == r_bytes {
            Ok(())
        } else {
            Err(SignatureError)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field25519::op_count;
    use crate::test_util::{hex, unhex};
    use nexus_testkit::Gen;

    // -- Oracles: the arithmetic as it was before the constant-time
    // rewrite, each branching on its scalar. The differential tests hold
    // the shipped code to them bit for bit.

    /// Double-and-add over a 256-bit little-endian scalar.
    fn scalar_mul_oracle(p: &Point, scalar_le: &[u8; 32]) -> Point {
        let mut result = Point::identity();
        let mut base = *p;
        for byte in scalar_le.iter() {
            let mut bits = *byte;
            for _ in 0..8 {
                if bits & 1 == 1 {
                    result = result.add(&base);
                }
                base = base.add(&base);
                bits >>= 1;
            }
        }
        result
    }

    /// Binary long division of a 512-bit value by L.
    fn reduce512_oracle(value: &[u8; 64]) -> Scalar {
        let lt = |a: &[u64; 4], b: &[u64; 4]| {
            (0..4).rev().find(|&i| a[i] != b[i]).is_some_and(|i| a[i] < b[i])
        };
        let mut limbs = [0u64; 8];
        for (i, chunk) in value.chunks_exact(8).enumerate() {
            limbs[i] = u64::from_le_bytes(chunk.try_into().unwrap());
        }
        let mut r = [0u64; 4];
        for i in (0..512).rev() {
            let mut carry = (limbs[i / 64] >> (i % 64)) & 1;
            for limb in r.iter_mut() {
                let next_carry = *limb >> 63;
                *limb = (*limb << 1) | carry;
                carry = next_carry;
            }
            if !lt(&r, &L) {
                r = sub_limbs(&r, &L).0;
            }
        }
        Scalar(r)
    }

    fn base_mul_oracle(scalar_le: &[u8; 32]) -> Point {
        scalar_mul_oracle(&constants().base, scalar_le)
    }

    fn public_key_oracle(seed: &[u8; 32]) -> [u8; 32] {
        let h = Sha512::digest(seed);
        let mut scalar: [u8; 32] = h[..32].try_into().unwrap();
        scalar[0] &= 248;
        scalar[31] &= 63;
        scalar[31] |= 64;
        base_mul_oracle(&scalar).compress()
    }

    fn sign_oracle(seed: &[u8; 32], msg: &[u8]) -> [u8; 64] {
        let h = Sha512::digest(seed);
        let mut scalar: [u8; 32] = h[..32].try_into().unwrap();
        scalar[0] &= 248;
        scalar[31] &= 63;
        scalar[31] |= 64;
        let public = base_mul_oracle(&scalar).compress();
        let mut hr = Sha512::new();
        hr.update(&h[32..]).update(msg);
        let r = reduce512_oracle(&hr.finalize());
        let r_point = base_mul_oracle(&r.to_bytes()).compress();
        let mut hk = Sha512::new();
        hk.update(&r_point).update(&public).update(msg);
        let k = reduce512_oracle(&hk.finalize());
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&scalar);
        let a = reduce512_oracle(&wide);
        let mut product = [0u8; 64];
        let limbs: [u64; 8] = mul_limbs(&k.0, &a.0);
        for (i, limb) in limbs.iter().enumerate() {
            product[i * 8..i * 8 + 8].copy_from_slice(&limb.to_le_bytes());
        }
        let s = r.add(&reduce512_oracle(&product));
        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&r_point);
        sig[32..].copy_from_slice(&s.to_bytes());
        sig
    }

    /// Decompress R and check s·B == R + k·A.
    fn verify_oracle(public: &[u8; 32], msg: &[u8], sig: &[u8; 64]) -> bool {
        let r_bytes: [u8; 32] = sig[..32].try_into().unwrap();
        let s_bytes: [u8; 32] = sig[32..].try_into().unwrap();
        let (Some(s), Some(a), Some(r)) = (
            Scalar::from_canonical_bytes(&s_bytes),
            Point::decompress(public),
            Point::decompress(&r_bytes),
        ) else {
            return false;
        };
        let mut h = Sha512::new();
        h.update(&r_bytes).update(public).update(msg);
        let k = reduce512_oracle(&h.finalize());
        let lhs = base_mul_oracle(&s.to_bytes());
        let rhs = r.add(&scalar_mul_oracle(&a, &k.to_bytes()));
        lhs.compress() == rhs.compress()
    }

    fn l_minus_1() -> [u8; 32] {
        let mut l = Scalar(L).to_bytes();
        l[0] -= 1;
        l
    }

    /// The all-ones scalar, clamped.
    fn dense_clamped() -> [u8; 32] {
        let mut s = [0xffu8; 32];
        s[0] &= 248;
        s[31] &= 63;
        s[31] |= 64;
        s
    }

    /// The clamped scalar with fewest bits set: 2^254 alone.
    fn sparse_clamped() -> [u8; 32] {
        let mut s = [0u8; 32];
        s[31] = 64;
        s
    }

    fn edge_scalars() -> [[u8; 32]; 4] {
        let mut one = [0u8; 32];
        one[0] = 1;
        [[0u8; 32], one, l_minus_1(), dense_clamped()]
    }

    #[test]
    fn scalar_reduction_matches_long_division() {
        let mut g = Gen::new(0xba44e77);
        let mut cases: Vec<[u8; 64]> = (0..1000).map(|_| g.bytes::<64>()).collect();
        cases.push([0u8; 64]);
        cases.push([0xffu8; 64]);
        for edge in edge_scalars().into_iter().chain([Scalar(L).to_bytes()]) {
            let mut wide = [0u8; 64];
            wide[..32].copy_from_slice(&edge);
            cases.push(wide);
        }
        for wide in cases {
            assert_eq!(Scalar::reduce512(&wide), reduce512_oracle(&wide), "{}", hex(&wide));
        }
        let (a, b) = (Scalar::from_bytes_mod_l(&l_minus_1()), Scalar::from_bytes_mod_l(&[7; 32]));
        assert_eq!(a.add(&a).to_bytes(), {
            let mut e = l_minus_1();
            e[0] -= 1;
            e
        });
        assert_eq!(a.mul(&a), Scalar::from_bytes_mod_l(&{
            let mut one = [0u8; 32];
            one[0] = 1;
            one
        }));
        assert_eq!(a.mul(&b).add(&b), Scalar::ZERO);
    }

    #[test]
    fn base_multiplication_matches_double_and_add() {
        for scalar in edge_scalars().into_iter().chain([sparse_clamped()]) {
            assert_eq!(
                Point::mul_base(&scalar).compress(),
                base_mul_oracle(&scalar).compress(),
                "{}",
                hex(&scalar)
            );
        }
        let mut g = Gen::new(0xb45e);
        for _ in 0..200 {
            let mut scalar = g.bytes::<32>();
            scalar[31] &= 0x7f;
            assert_eq!(Point::mul_base(&scalar).compress(), base_mul_oracle(&scalar).compress());
        }
    }

    #[test]
    fn variable_time_multiplication_matches_double_and_add() {
        let mut g = Gen::new(0x7a41);
        let point = Point::decompress(&SigningKey::from_seed(&[5; 32]).public).unwrap();
        for scalar in edge_scalars().into_iter().take(3).chain((0..100).map(|_| g.bytes::<32>())) {
            let k = Scalar::from_bytes_mod_l(&scalar);
            assert_eq!(
                point.mul_vartime(&k).compress(),
                scalar_mul_oracle(&point, &k.to_bytes()).compress()
            );
        }
    }

    #[test]
    fn doubling_matches_unified_addition() {
        let mut p = constants().base;
        for _ in 0..64 {
            assert_eq!(p.double().compress(), p.add(&p).compress());
            p = p.double().add(&constants().base);
        }
    }

    /// Keys and signatures over 1,000 seeded seeds and messages equal the
    /// double-and-add, long-division oracle's, and both verifiers agree on
    /// the valid signature, on each of its corruptions and on a wrong key.
    #[test]
    fn keys_signatures_and_verdicts_match_the_oracle() {
        let mut g = Gen::new(0xed_25519);
        let other = SigningKey::from_seed(&[0xee; 32]);
        for case in 0..1000 {
            let seed = g.bytes::<32>();
            let msg = g.byte_vec(0, 96);
            let key = SigningKey::from_seed(&seed);
            assert_eq!(key.public, public_key_oracle(&seed), "public key, case {case}");
            let sig = key.sign(&msg);
            assert_eq!(sig.0, sign_oracle(&seed, &msg), "signature, case {case}");

            let mut flipped_msg = msg.clone();
            if flipped_msg.is_empty() {
                flipped_msg.push(0);
            } else {
                flipped_msg[g.index(msg.len())] ^= 1 << (case % 8);
            }
            let mut flipped_r = sig.0;
            flipped_r[g.index(32)] ^= 1 << (case % 8);
            let mut flipped_s = sig.0;
            flipped_s[32 + g.index(32)] ^= 1 << (case % 8);
            let mut high_s = sig.0;
            high_s[63] |= 0xf0;
            let checks: [(&VerifyingKey, &[u8], [u8; 64]); 6] = [
                (&key.verifying_key(), &msg, sig.0),
                (&key.verifying_key(), &flipped_msg, sig.0),
                (&key.verifying_key(), &msg, flipped_r),
                (&key.verifying_key(), &msg, flipped_s),
                (&key.verifying_key(), &msg, high_s),
                (&other.verifying_key(), &msg, sig.0),
            ];
            for (i, (public, msg, sig)) in checks.into_iter().enumerate() {
                let expected = i == 0;
                assert_eq!(verify_oracle(&public.0, msg, &sig), expected, "oracle, case {case}/{i}");
                assert_eq!(public.verify(msg, &Signature(sig)).is_ok(), expected, "case {case}/{i}");
            }
        }
    }

    /// R = the identity (nonce 0) spelled as y = 1 + p: the oracle, which
    /// decompressed R, accepted it; comparing `compress(R')` with the bytes
    /// refuses it (RFC 8032 §5.1.7). The canonical spelling holds for both.
    #[test]
    fn non_canonical_r_is_refused() {
        let key = SigningKey::from_seed(&[0x3a; 32]);
        let a = Scalar::from_bytes_mod_l(&key.scalar);
        let msg = b"identity nonce";
        let forge = |r_bytes: [u8; 32]| {
            let mut h = Sha512::new();
            h.update(&r_bytes).update(&key.public).update(msg);
            let k = Scalar::reduce512(&h.finalize());
            let mut sig = [0u8; 64];
            sig[..32].copy_from_slice(&r_bytes);
            sig[32..].copy_from_slice(&k.mul(&a).to_bytes());
            sig
        };
        let mut canonical = [0u8; 32];
        canonical[0] = 1;
        let mut one_plus_p = [0xffu8; 32];
        one_plus_p[0] = 0xee;
        one_plus_p[31] = 0x7f;
        assert_eq!(Point::decompress(&one_plus_p).unwrap().compress(), canonical);

        let sig = forge(canonical);
        assert!(verify_oracle(&key.public, msg, &sig));
        assert!(key.verifying_key().verify(msg, &Signature(sig)).is_ok());
        let sig = forge(one_plus_p);
        assert!(verify_oracle(&key.public, msg, &sig), "the oracle accepted y + p");
        assert!(key.verifying_key().verify(msg, &Signature(sig)).is_err());
    }

    /// The deterministic constant-time gate: key derivation and signing cost
    /// the same field multiplications and squarings for a clamped scalar
    /// (and a nonce) with few bits set as for one with many. The
    /// double-and-add oracle is the positive control: its counts differ.
    #[test]
    fn field_op_count_is_independent_of_the_secret_scalar() {
        // Build the curve constants and the base table outside the counts.
        Point::mul_base(&[0u8; 32]);
        let expanded = |scalar: [u8; 32]| {
            let mut h = [0x5cu8; 64];
            h[..32].copy_from_slice(&scalar);
            h
        };
        let (sparse_key, sparse_ops) =
            op_count::of(|| SigningKey::from_expanded(&[1; 32], &expanded(sparse_clamped())));
        let (dense_key, dense_ops) =
            op_count::of(|| SigningKey::from_expanded(&[2; 32], &expanded(dense_clamped())));
        assert_eq!(sparse_ops, dense_ops, "from_seed: {sparse_ops} vs {dense_ops} field ops");

        let mut one = [0u8; 32];
        one[0] = 1;
        let nonces = [Scalar::from_bytes_mod_l(&one), Scalar::from_bytes_mod_l(&l_minus_1())];
        let mut sign_ops = Vec::new();
        for key in [&sparse_key, &dense_key] {
            for nonce in nonces {
                sign_ops.push(op_count::of(|| key.sign_with_nonce(nonce, b"m")).1);
            }
        }
        assert!(sign_ops.iter().all(|&n| n == sign_ops[0]), "sign: {sign_ops:?} field ops");

        let (_, oracle_sparse) = op_count::of(|| base_mul_oracle(&sparse_clamped()).compress());
        let (_, oracle_dense) = op_count::of(|| base_mul_oracle(&dense_clamped()).compress());
        assert_ne!(oracle_sparse, oracle_dense, "the positive control must differ");
        let sig = dense_key.sign(b"m");
        let (_, verify_ops) = op_count::of(|| dense_key.verifying_key().verify(b"m", &sig));
        eprintln!(
            "field ops: from_seed {sparse_ops} (sparse) = {dense_ops} (dense), sign {}, \
             verify {verify_ops}; double-and-add oracle {oracle_sparse} (sparse) vs \
             {oracle_dense} (dense)",
            sign_ops[0]
        );
    }

    fn rfc8032_case(seed_hex: &str, pub_hex: &str, msg_hex: &str, sig_hex: &str) {
        let seed: [u8; 32] = unhex(seed_hex).try_into().unwrap();
        let key = SigningKey::from_seed(&seed);
        assert_eq!(hex(&key.verifying_key().to_bytes()), pub_hex, "public key");
        let msg = unhex(msg_hex);
        let sig = key.sign(&msg);
        assert_eq!(hex(&sig.to_bytes()), sig_hex, "signature");
        key.verifying_key().verify(&msg, &sig).expect("verifies");
    }

    #[test]
    fn rfc8032_test_1_empty_message() {
        rfc8032_case(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
            "",
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
             5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
        );
    }

    #[test]
    fn rfc8032_test_2_one_byte() {
        rfc8032_case(
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
            "72",
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
             085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
        );
    }

    #[test]
    fn rfc8032_test_3_two_bytes() {
        rfc8032_case(
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
            "af82",
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
             18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
        );
    }

    #[test]
    fn rejects_wrong_message() {
        let key = SigningKey::from_seed(&[1u8; 32]);
        let sig = key.sign(b"hello");
        assert!(key.verifying_key().verify(b"other", &sig).is_err());
    }

    #[test]
    fn rejects_wrong_key() {
        let key = SigningKey::from_seed(&[1u8; 32]);
        let other = SigningKey::from_seed(&[2u8; 32]);
        let sig = key.sign(b"hello");
        assert!(other.verifying_key().verify(b"hello", &sig).is_err());
    }

    #[test]
    fn rejects_bitflipped_signature() {
        let key = SigningKey::from_seed(&[3u8; 32]);
        let mut sig = key.sign(b"payload").to_bytes();
        sig[10] ^= 1;
        let sig = Signature::from_bytes(&sig).unwrap();
        assert!(key.verifying_key().verify(b"payload", &sig).is_err());
    }

    #[test]
    fn rejects_non_canonical_s() {
        let key = SigningKey::from_seed(&[4u8; 32]);
        let mut sig = key.sign(b"x").to_bytes();
        // Force s >= L by setting its top bits.
        sig[63] |= 0xf0;
        let sig = Signature::from_bytes(&sig).unwrap();
        assert!(key.verifying_key().verify(b"x", &sig).is_err());
    }

    #[test]
    fn signature_parse_length() {
        assert!(Signature::from_bytes(&[0u8; 63]).is_err());
        assert!(Signature::from_bytes(&[0u8; 64]).is_ok());
    }

    #[test]
    fn scalar_add_mul_basics() {
        let two = Scalar::from_bytes_mod_l(&{
            let mut b = [0u8; 32];
            b[0] = 2;
            b
        });
        let three = Scalar::from_bytes_mod_l(&{
            let mut b = [0u8; 32];
            b[0] = 3;
            b
        });
        let six = two.mul(&three);
        let mut expect = [0u8; 32];
        expect[0] = 6;
        assert_eq!(six.to_bytes(), expect);
        let five = two.add(&three);
        let mut expect = [0u8; 32];
        expect[0] = 5;
        assert_eq!(five.to_bytes(), expect);
    }

    #[test]
    fn scalar_l_reduces_to_zero() {
        let mut l_bytes = [0u8; 32];
        for (i, limb) in super::L.iter().enumerate() {
            l_bytes[i * 8..i * 8 + 8].copy_from_slice(&limb.to_le_bytes());
        }
        assert_eq!(Scalar::from_bytes_mod_l(&l_bytes), Scalar::ZERO);
        assert!(Scalar::from_canonical_bytes(&l_bytes).is_none());
    }

    #[test]
    fn point_identity_laws() {
        let key = SigningKey::from_seed(&[9u8; 32]);
        let a = Point::decompress(&key.verifying_key().to_bytes()).unwrap();
        let id = Point::identity();
        assert_eq!(a.add(&id).compress(), a.compress());
        assert_eq!(id.add(&a).compress(), a.compress());
    }

    #[test]
    fn decompress_rejects_garbage() {
        // y = 2 is not on the curve (2^2 - 1 = 3 over d*4+1 has no sqrt).
        let mut bytes = [0u8; 32];
        bytes[0] = 2;
        // Whether or not this particular y decodes, a full scan of a few
        // values must find at least one reject, proving validation runs.
        let mut rejected = false;
        for v in 0u8..16 {
            bytes[0] = v;
            if Point::decompress(&bytes).is_none() {
                rejected = true;
            }
        }
        assert!(rejected);
    }
}
