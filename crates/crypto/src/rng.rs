//! Randomness sources used throughout NEXUS.
//!
//! All key, nonce, and UUID generation funnels through [`SecureRandom`].
//! The module is entirely self-contained — no external crates — matching
//! the workspace's hermetic-build policy and the same minimal-TCB
//! discipline the paper applies to the enclave:
//!
//! - [`OsRandom`] draws from the operating system CSPRNG
//!   (`/dev/urandom`) and panics when the device fails: there is no
//!   weaker source to fall back on for key material.
//! - [`SeededRandom`] is a deterministic xoshiro256** generator for tests
//!   and reproducible simulations (workloads, the SGX simulator).
//!
//! Besides raw byte filling, the trait offers the small sampling surface
//! the workload generators need (`next_u64`, bounded integers, unit-range
//! floats), so no call site has to hand-roll rejection sampling.

use std::fs::File;
use std::io::Read;

/// A source of cryptographically strong randomness.
///
/// The trait is object-safe so enclaves can hold a `Box<dyn SecureRandom>`.
/// All sampling helpers are defined in terms of [`SecureRandom::fill`], so
/// they work through `dyn SecureRandom` too.
pub trait SecureRandom: Send {
    /// Fills `dest` with random bytes.
    fn fill(&mut self, dest: &mut [u8]);

    /// Returns a fresh array of `N` random bytes.
    fn bytes<const N: usize>(&mut self) -> [u8; N]
    where
        Self: Sized,
    {
        let mut out = [0u8; N];
        self.fill(&mut out);
        out
    }

    /// Returns a uniformly random `u64`.
    fn next_u64(&mut self) -> u64 {
        let mut buf = [0u8; 8];
        self.fill(&mut buf);
        u64::from_le_bytes(buf)
    }

    /// Returns a uniformly random `u64` in `[0, bound)` via rejection
    /// sampling (no modulo bias). `bound` must be nonzero.
    fn u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "u64_below(0)");
        // Rejection zone: multiples of `bound` fit `zone` times in 2^64.
        let zone = u64::MAX - u64::MAX.wrapping_rem(bound);
        loop {
            let v = self.next_u64();
            if v < zone || zone == 0 {
                return v % bound;
            }
        }
    }

    /// Returns a uniformly random `usize` in `[0, bound)`.
    fn usize_below(&mut self, bound: usize) -> usize {
        self.u64_below(bound as u64) as usize
    }

    /// Returns a uniformly random `u64` in `[lo, hi)`.
    fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range_u64: empty range {lo}..{hi}");
        lo + self.u64_below(hi - lo)
    }

    /// Returns a uniformly random `usize` in `[lo, hi)`.
    fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Returns a uniformly random `f64` in `[0, 1)` with 53 bits of
    /// precision.
    fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniformly random `f64` in `[lo, hi)`.
    fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "f64_range: empty range {lo}..{hi}");
        lo + self.f64_unit() * (hi - lo)
    }
}

/// The default OS-backed generator: `/dev/urandom`, kept open across
/// fills.
pub struct OsRandom(File);

impl std::fmt::Debug for OsRandom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("OsRandom(/dev/urandom)")
    }
}

impl OsRandom {
    /// Opens the operating system's generator.
    ///
    /// # Panics
    ///
    /// When `/dev/urandom` cannot be opened: a caller that needs key
    /// material must not get guessable bytes instead.
    pub fn new() -> OsRandom {
        match File::open("/dev/urandom") {
            Ok(f) => OsRandom(f),
            Err(e) => panic!("OsRandom: cannot open /dev/urandom ({e}); refusing to make keys"),
        }
    }
}

impl Default for OsRandom {
    fn default() -> Self {
        Self::new()
    }
}

impl SecureRandom for OsRandom {
    /// # Panics
    ///
    /// When the device fails mid-stream.
    fn fill(&mut self, dest: &mut [u8]) {
        if let Err(e) = self.0.read_exact(dest) {
            panic!("OsRandom: reading /dev/urandom failed ({e}); refusing to make keys");
        }
    }
}

/// A deterministic generator for tests and reproducible simulations.
///
/// xoshiro256** seeded through SplitMix64 — the standard construction that
/// maps any 64-bit seed to a full 256-bit state with no all-zero risk.
/// Not suitable for key material; use [`OsRandom`] for anything secret.
#[derive(Debug, Clone)]
pub struct SeededRandom {
    s: [u64; 4],
}

impl SeededRandom {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> SeededRandom {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        SeededRandom { s: [next(), next(), next(), next()] }
    }

    fn next(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl SecureRandom for SeededRandom {
    fn fill(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = SeededRandom::new(42);
        let mut b = SeededRandom::new(42);
        let x: [u8; 32] = a.bytes();
        let y: [u8; 32] = b.bytes();
        assert_eq!(x, y);
    }

    #[test]
    fn seeded_differs_across_seeds() {
        let mut a = SeededRandom::new(1);
        let mut b = SeededRandom::new(2);
        let x: [u8; 32] = a.bytes();
        let y: [u8; 32] = b.bytes();
        assert_ne!(x, y);
    }

    #[test]
    fn seeded_fill_matches_next_u64_stream() {
        // Odd-length fills must consume whole words in order, so a byte
        // stream is a prefix-consistent view of the u64 stream.
        let mut a = SeededRandom::new(7);
        let mut b = SeededRandom::new(7);
        let mut buf = [0u8; 24];
        a.fill(&mut buf);
        for chunk in buf.chunks(8) {
            assert_eq!(chunk, &b.next_u64().to_le_bytes()[..]);
        }
    }

    #[test]
    fn os_random_produces_nonzero() {
        let mut r = OsRandom::new();
        let x: [u8; 32] = r.bytes();
        assert_ne!(x, [0u8; 32]);
    }

    #[test]
    fn u64_below_is_in_range_and_unbiased_at_edges() {
        let mut r = SeededRandom::new(3);
        for bound in [1u64, 2, 3, 7, 1 << 33, u64::MAX] {
            for _ in 0..64 {
                assert!(r.u64_below(bound) < bound);
            }
        }
    }

    #[test]
    fn range_helpers_respect_bounds() {
        let mut r = SeededRandom::new(11);
        for _ in 0..256 {
            let v = r.range_usize(10, 20);
            assert!((10..20).contains(&v));
            let f = r.f64_range(0.1, 3.0);
            assert!((0.1..3.0).contains(&f));
            let u = r.f64_unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn helpers_work_through_dyn_trait_object() {
        let mut boxed: Box<dyn SecureRandom> = Box::new(SeededRandom::new(5));
        let v = boxed.u64_below(10);
        assert!(v < 10);
    }
}
