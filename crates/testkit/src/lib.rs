//! # nexus-testkit
//!
//! A deterministic, dependency-free property-testing harness — the
//! workspace's replacement for `proptest`, in keeping with the hermetic
//! zero-dependency build policy (see `DESIGN.md`).
//!
//! Three pieces:
//!
//! - **Seeded generation** — [`Gen`] wraps a xoshiro256** stream; every
//!   case is derived from `(base seed, case index)`, so a failing case is
//!   reproducible from the two numbers the failure report prints.
//! - **Shrinking-lite** — on failure the [`Runner`] asks the caller's
//!   shrink function for simpler candidates and greedily walks to a local
//!   minimum (first failing candidate wins, repeat until none fail). The
//!   [`shrink`] module provides canonical candidate sets for vectors,
//!   byte strings, and integers.
//! - **Regression replay** — explicit cases registered with
//!   [`Runner::regression`] run *before* any generated case, serving the
//!   role of proptest's `*.proptest-regressions` corpus as always-run,
//!   checked-in cases.
//!
//! Beside the harness, [`spec`] holds the one reference the crypto suites
//! compare against — AES, AES-GCM and AES-GCM-SIV written from FIPS 197,
//! SP 800-38D and RFC 8452 — and [`timing`] the dudect-style leak test.
//!
//! Environment overrides for exploration (never needed in CI):
//! `NEXUS_TESTKIT_SEED` re-seeds generation, `NEXUS_TESTKIT_CASES`
//! changes the case count.
//!
//! ```
//! use nexus_testkit::{shrink, Runner};
//!
//! Runner::new("reverse_is_involutive")
//!     .cases(64)
//!     .run(
//!         |g| g.vec(0, 16, |g| g.u8()),
//!         |v| shrink::vec(v),
//!         |v| {
//!             let mut w = v.clone();
//!             w.reverse();
//!             w.reverse();
//!             nexus_testkit::tk_assert_eq!(&w, v);
//!             Ok(())
//!         },
//!     );
//! ```

use std::fmt::Debug;

/// Deterministic generator handed to case-generation closures.
///
/// xoshiro256** seeded through SplitMix64; the same construction as
/// `nexus_crypto::rng::SeededRandom`, duplicated here so the testkit has
/// no dependencies and can be a dev-dependency of every crate, including
/// `nexus-crypto` itself.
#[derive(Debug, Clone)]
pub struct Gen {
    s: [u64; 4],
}

impl Gen {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Gen {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        Gen { s: [next(), next(), next(), next()] }
    }

    /// Returns the next 64 random bits.
    pub fn u64(&mut self) -> u64 {
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

    /// A uniformly random `u8`.
    pub fn u8(&mut self) -> u8 {
        self.u64() as u8
    }

    /// A uniformly random `u32`.
    pub fn u32(&mut self) -> u32 {
        self.u64() as u32
    }

    /// A uniformly random `bool`.
    pub fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// A uniformly random `f64` in `[0, 1)`.
    pub fn f64_unit(&mut self) -> f64 {
        (self.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniformly random `u64` in `[0, bound)` via rejection sampling.
    pub fn u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "u64_below(0)");
        let zone = u64::MAX - u64::MAX.wrapping_rem(bound);
        loop {
            let v = self.u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// A uniformly random `usize` in `[0, bound)`.
    pub fn usize_below(&mut self, bound: usize) -> usize {
        self.u64_below(bound as u64) as usize
    }

    /// A uniformly random `usize` in `[lo, hi]` (inclusive).
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "usize_in: empty range {lo}..={hi}");
        lo + self.usize_below(hi - lo + 1)
    }

    /// A fresh array of `N` random bytes.
    pub fn bytes<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        for chunk in out.chunks_mut(8) {
            let bytes = self.u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        out
    }

    /// A random byte vector with length in `[min_len, max_len]`.
    pub fn byte_vec(&mut self, min_len: usize, max_len: usize) -> Vec<u8> {
        let len = self.usize_in(min_len, max_len);
        let mut out = vec![0u8; len];
        for chunk in out.chunks_mut(8) {
            let bytes = self.u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        out
    }

    /// A vector with length in `[min_len, max_len]`, elements from `f`.
    pub fn vec<T>(&mut self, min_len: usize, max_len: usize, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let len = self.usize_in(min_len, max_len);
        (0..len).map(|_| f(self)).collect()
    }

    /// A uniformly random element of `options`.
    pub fn choose<'a, T>(&mut self, options: &'a [T]) -> &'a T {
        assert!(!options.is_empty(), "choose from empty slice");
        &options[self.usize_below(options.len())]
    }

    /// A random string over `alphabet` with length in `[min_len, max_len]`.
    pub fn string(&mut self, alphabet: &[char], min_len: usize, max_len: usize) -> String {
        let len = self.usize_in(min_len, max_len);
        (0..len).map(|_| *self.choose(alphabet)).collect()
    }

    /// A random index in `[0, len)` — proptest's `Index` equivalent for
    /// picking positions in data whose size the generator doesn't know yet.
    pub fn index(&mut self, len: usize) -> usize {
        if len == 0 {
            0
        } else {
            self.usize_below(len)
        }
    }
}

pub mod dist;
pub mod faults;
pub mod spec;
pub mod timing;

/// Canonical shrink-candidate sets: smaller-but-similar variants of a
/// failing case, ordered most-aggressive first so the greedy walk makes
/// big jumps before fine steps.
pub mod shrink {
    /// Candidates for a vector: empty, both halves, and the vector with
    /// one element removed (every position, capped at 64 removals).
    pub fn vec<T: Clone>(v: &[T]) -> Vec<Vec<T>> {
        let mut out = Vec::new();
        if v.is_empty() {
            return out;
        }
        out.push(Vec::new());
        if v.len() > 1 {
            out.push(v[..v.len() / 2].to_vec());
            out.push(v[v.len() / 2..].to_vec());
        }
        for i in 0..v.len().min(64) {
            let mut shorter = v.to_vec();
            shorter.remove(i);
            out.push(shorter);
        }
        out
    }

    /// Candidates for a byte string: structural shrinks plus the string
    /// with each byte (capped) replaced by zero.
    pub fn bytes(v: &[u8]) -> Vec<Vec<u8>> {
        let mut out = vec(v);
        for i in 0..v.len().min(32) {
            if v[i] != 0 {
                let mut zeroed = v.to_vec();
                zeroed[i] = 0;
                out.push(zeroed);
            }
        }
        out
    }

    /// Candidates for an integer: zero, half, and predecessor.
    pub fn u64(x: u64) -> Vec<u64> {
        match x {
            0 => Vec::new(),
            1 => vec![0],
            _ => vec![0, x / 2, x - 1],
        }
    }

    /// No candidates — for cases where shrinking adds no diagnostic value
    /// (fixed-size keys, single scalars).
    pub fn none<T>(_: &T) -> Vec<T> {
        Vec::new()
    }

    /// Candidates for a stateful operation sequence: everything [`vec`]
    /// proposes (empty, halves, single-op drops), then the sequence with
    /// each adjacent pair swapped (capped at 32 swaps).
    ///
    /// Order-sensitive properties — cache invalidation, lock hand-off,
    /// accounting — often fail only because of *where* an op sits, not
    /// that it exists. A pure subsequence shrinker gets stuck at a local
    /// minimum where removing any op makes the failure vanish; a reorder
    /// step can still simplify by moving the conflicting pair next to each
    /// other. Length-reducing candidates come first so the greedy walk
    /// prefers shorter cases and the swaps cannot ping-pong (the runner's
    /// step cap bounds same-length walks).
    pub fn ops<T: Clone>(v: &[T]) -> Vec<Vec<T>> {
        let mut out = vec(v);
        for i in 0..v.len().saturating_sub(1).min(32) {
            let mut swapped = v.to_vec();
            swapped.swap(i, i + 1);
            out.push(swapped);
        }
        out
    }
}

/// Where a failing case came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseOrigin {
    /// An explicit always-run case registered via [`Runner::regression`].
    Regression(usize),
    /// A generated case: `(base seed, case index)`.
    Generated(u64, u32),
}

/// A property failure, after shrinking.
#[derive(Debug)]
pub struct Failure<T> {
    /// The shrunk (locally minimal) failing case.
    pub case: T,
    /// The case as originally found, before shrinking.
    pub original: T,
    /// Provenance — regression slot or `(seed, index)`.
    pub origin: CaseOrigin,
    /// The property's error message for the shrunk case.
    pub message: String,
    /// How many successful shrink steps were taken.
    pub shrink_steps: u32,
}

/// Statistics from a successful run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Regression cases replayed (always before generation).
    pub regressions_run: usize,
    /// Generated cases executed.
    pub cases_run: u32,
}

/// A configured property test.
pub struct Runner<T> {
    name: &'static str,
    cases: u32,
    seed: u64,
    max_shrink_steps: u32,
    regressions: Vec<T>,
}

/// Default number of generated cases per property.
pub const DEFAULT_CASES: u32 = 64;

/// Default base seed ("NEXUS" in hex-speak); override with
/// `NEXUS_TESTKIT_SEED` for exploration.
pub const DEFAULT_SEED: u64 = 0x4E45_5855_5300_0001;

impl<T: Clone + Debug> Runner<T> {
    /// Creates a runner for the property `name` (used in failure reports).
    pub fn new(name: &'static str) -> Runner<T> {
        Runner {
            name,
            cases: DEFAULT_CASES,
            seed: DEFAULT_SEED,
            max_shrink_steps: 4096,
            regressions: Vec::new(),
        }
    }

    /// Sets the number of generated cases.
    pub fn cases(mut self, cases: u32) -> Self {
        self.cases = cases;
        self
    }

    /// Sets the base seed for case generation.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps the number of shrink steps on failure.
    pub fn max_shrink_steps(mut self, steps: u32) -> Self {
        self.max_shrink_steps = steps;
        self
    }

    /// Registers an always-run regression case, replayed before any
    /// generated case (in registration order).
    pub fn regression(mut self, case: T) -> Self {
        self.regressions.push(case);
        self
    }

    /// Registers a batch of regression cases.
    pub fn regressions(mut self, cases: impl IntoIterator<Item = T>) -> Self {
        self.regressions.extend(cases);
        self
    }

    /// Runs the property, panicking with a reproduction report on failure.
    pub fn run(
        self,
        generate: impl FnMut(&mut Gen) -> T,
        shrink_fn: impl Fn(&T) -> Vec<T>,
        prop: impl FnMut(&T) -> Result<(), String>,
    ) -> RunStats {
        let name = self.name;
        match self.run_result(generate, shrink_fn, prop) {
            Ok(stats) => stats,
            Err(failure) => {
                let origin = match failure.origin {
                    CaseOrigin::Regression(i) => format!("regression case #{i}"),
                    CaseOrigin::Generated(seed, idx) => format!(
                        "generated case {idx} (seed {seed:#x}; rerun with \
                         NEXUS_TESTKIT_SEED={seed})"
                    ),
                };
                panic!(
                    "property `{name}` failed on {origin}\n\
                     minimal case (after {} shrink steps): {:#?}\n\
                     original case: {:#?}\n\
                     error: {}",
                    failure.shrink_steps, failure.case, failure.original, failure.message
                );
            }
        }
    }

    /// Like [`Runner::run`] but returns the failure instead of panicking —
    /// used by the harness's own tests.
    pub fn run_result(
        self,
        mut generate: impl FnMut(&mut Gen) -> T,
        shrink_fn: impl Fn(&T) -> Vec<T>,
        mut prop: impl FnMut(&T) -> Result<(), String>,
    ) -> Result<RunStats, Failure<T>> {
        // Regression replay strictly precedes generation.
        for (i, case) in self.regressions.iter().enumerate() {
            if let Err(message) = prop(case) {
                return Err(self.shrunk_failure(
                    case.clone(),
                    CaseOrigin::Regression(i),
                    message,
                    &shrink_fn,
                    &mut prop,
                ));
            }
        }

        let seed = env_u64("NEXUS_TESTKIT_SEED").unwrap_or(self.seed);
        let cases = env_u64("NEXUS_TESTKIT_CASES").map(|v| v as u32).unwrap_or(self.cases);
        for idx in 0..cases {
            // Each case gets an independent stream derived from
            // (seed, idx), so any single case replays without running
            // its predecessors.
            let mut gen = Gen::new(seed ^ (u64::from(idx).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            let case = generate(&mut gen);
            if let Err(message) = prop(&case) {
                return Err(self.shrunk_failure(
                    case,
                    CaseOrigin::Generated(seed, idx),
                    message,
                    &shrink_fn,
                    &mut prop,
                ));
            }
        }
        Ok(RunStats { regressions_run: self.regressions.len(), cases_run: cases })
    }

    /// Greedy shrink: repeatedly move to the first failing candidate until
    /// no candidate fails or the step budget runs out.
    fn shrunk_failure(
        &self,
        original: T,
        origin: CaseOrigin,
        mut message: String,
        shrink_fn: &impl Fn(&T) -> Vec<T>,
        prop: &mut impl FnMut(&T) -> Result<(), String>,
    ) -> Failure<T> {
        let mut current = original.clone();
        let mut steps = 0u32;
        'outer: while steps < self.max_shrink_steps {
            for candidate in shrink_fn(&current) {
                if let Err(msg) = prop(&candidate) {
                    current = candidate;
                    message = msg;
                    steps += 1;
                    continue 'outer;
                }
            }
            break;
        }
        Failure { case: current, original, origin, message, shrink_steps: steps }
    }
}

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        raw.parse().ok()
    }
}

/// Returns `Err` from a property when `cond` is false (proptest's
/// `prop_assert!`).
#[macro_export]
macro_rules! tk_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            return Err(format!("{}: {}", format!($($arg)+), stringify!($cond)));
        }
    };
}

/// Returns `Err` from a property when the two sides differ.
#[macro_export]
macro_rules! tk_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), l, r
            ));
        }
    }};
    ($left:expr, $right:expr, $($arg:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "{}: `{} == {}`\n  left: {:?}\n right: {:?}",
                format!($($arg)+), stringify!($left), stringify!($right), l, r
            ));
        }
    }};
}

/// Returns `Err` from a property when the two sides are equal.
#[macro_export]
macro_rules! tk_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return Err(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left), stringify!($right), l
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_is_deterministic_per_seed() {
        let mut a = Gen::new(1234);
        let mut b = Gen::new(1234);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
        let mut c = Gen::new(1235);
        assert_ne!(Gen::new(1234).u64(), c.u64());
    }

    #[test]
    fn bounded_helpers_stay_in_bounds() {
        let mut g = Gen::new(9);
        for _ in 0..500 {
            assert!(g.u64_below(17) < 17);
            let v = g.usize_in(3, 9);
            assert!((3..=9).contains(&v));
            let s = g.string(&['x', 'y'], 1, 4);
            assert!((1..=4).contains(&s.len()));
            assert!(s.chars().all(|c| c == 'x' || c == 'y'));
        }
        assert_eq!(g.index(0), 0);
    }

    #[test]
    fn shrink_vec_candidates_are_all_smaller() {
        let v = vec![1u8, 2, 3, 4, 5];
        for cand in shrink::vec(&v) {
            assert!(cand.len() < v.len());
        }
        assert!(shrink::vec(&Vec::<u8>::new()).is_empty());
    }

    #[test]
    fn shrink_ops_adds_adjacent_swaps_after_reductions() {
        let v = vec![1u8, 2, 3];
        let cands = shrink::ops(&v);
        let reductions = shrink::vec(&v);
        assert_eq!(&cands[..reductions.len()], &reductions[..], "length-reducing first");
        assert!(cands[reductions.len()..].contains(&vec![2, 1, 3]));
        assert!(cands[reductions.len()..].contains(&vec![1, 3, 2]));
        assert!(cands.iter().all(|c| c.len() <= v.len()));
        assert!(shrink::ops(&Vec::<u8>::new()).is_empty());
        // A one-op sequence has no pair to swap: only reductions to empty.
        assert!(shrink::ops(&[9u8]).iter().all(|c| c.is_empty()));
    }

    #[test]
    fn reorder_shrink_escapes_subsequence_local_minima() {
        // Property fails iff a 2 appears somewhere before a 1 — removing
        // either element makes it pass, so `shrink::vec` alone cannot get
        // below the original pair positions; the swap candidates walk the
        // pair together until the case is the minimal adjacent [2, 1].
        let failure = Runner::new("adjacent_pair_minimum")
            .cases(0)
            .regression(vec![2u8, 7, 9, 1])
            .run_result(
                |g| g.byte_vec(0, 4),
                |case| shrink::ops(case),
                |case| {
                    let bad = case
                        .iter()
                        .position(|&x| x == 2)
                        .zip(case.iter().position(|&x| x == 1))
                        .is_some_and(|(i2, i1)| i2 < i1);
                    if bad {
                        Err("2 before 1".to_string())
                    } else {
                        Ok(())
                    }
                },
            )
            .expect_err("regression case must fail");
        assert_eq!(failure.case, vec![2, 1], "swaps + drops reach the minimal pair");
    }

    #[test]
    fn passing_property_reports_stats() {
        let stats = Runner::new("always_passes")
            .cases(10)
            .regression(vec![1u8])
            .run(|g| g.byte_vec(0, 8), shrink::none, |_| Ok(()));
        assert_eq!(stats, RunStats { regressions_run: 1, cases_run: 10 });
    }
}
