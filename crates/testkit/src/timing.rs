//! Dudect-style statistical timing-leak detection (std-only).
//!
//! The harness follows the *dudect* recipe (Reparaz, Balasch, Verbauwhede,
//! "Dude, is my code constant time?"): collect a cost measurement for many
//! executions of the operation under test, split between two input classes
//! — a **fixed** input repeated verbatim and a fresh **random** input per
//! sample — and compare the two populations with Welch's t-test. If the
//! operation's cost is independent of its input, the two populations are
//! draws from the same distribution and the t statistic stays small; a
//! |t| above [`LEAK_T_THRESHOLD`] is the conventional "definitely leaking"
//! verdict.
//!
//! Two cost sources are supported:
//!
//! - **Deterministic model costs** ([`CacheModel`]): the caller replays a
//!   table-access trace (as [`crate::spec::Aes::cold_cache_cost`] does with
//!   the T-table lookups of the spec AES: the positive control) through a
//!   cold-cache model that charges a miss for the first touch of each
//!   64-byte line. This is noise-free, so classification is exactly
//!   reproducible from the seed — the form used by CI tests. Only code
//!   that indexes tables has a trace to replay; code that indexes none
//!   (the shipped AES engines) is shown to by reading its source.
//! - **Wall-clock cycles**: the caller times the real operation and feeds
//!   the duration in. Informative on quiet machines, but never used for
//!   pass/fail in CI.
//!
//! Class order is decided by the seeded generator per sample, so neither
//! class systematically runs "first" (guards against drift when the cost
//! function is a real clock).

use crate::Gen;

/// |t| above which the two classes are declared distinguishable.
///
/// 4.5 is the threshold used by dudect; for the sample counts used here
/// the false-positive probability is far below 1e-5.
pub const LEAK_T_THRESHOLD: f64 = 4.5;

/// Which input class a sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// The same fixed input every sample.
    Fixed,
    /// A fresh random input every sample.
    Random,
}

/// Streaming Welch's t-test over two sample populations.
///
/// Each class keeps Welford running moments, so the test is one pass and
/// numerically stable regardless of sample magnitudes.
#[derive(Debug, Clone, Default)]
pub struct TTest {
    n: [f64; 2],
    mean: [f64; 2],
    m2: [f64; 2],
}

impl TTest {
    /// Creates an empty accumulator.
    pub fn new() -> TTest {
        TTest::default()
    }

    /// Adds one cost measurement for `class`.
    pub fn push(&mut self, class: Class, value: f64) {
        let i = match class {
            Class::Fixed => 0,
            Class::Random => 1,
        };
        self.n[i] += 1.0;
        let delta = value - self.mean[i];
        self.mean[i] += delta / self.n[i];
        self.m2[i] += delta * (value - self.mean[i]);
    }

    /// Samples accumulated in (fixed, random) order.
    pub fn counts(&self) -> (u64, u64) {
        (self.n[0] as u64, self.n[1] as u64)
    }

    /// Welch's t statistic between the two classes.
    ///
    /// Degenerate cases are resolved deterministically: with fewer than two
    /// samples in either class the statistic is 0; when both classes have
    /// (near-)zero variance, equal means give 0 and different means give
    /// infinity — a constant-cost operation whose constant depends on the
    /// class is the starkest possible leak.
    pub fn t_statistic(&self) -> f64 {
        if self.n[0] < 2.0 || self.n[1] < 2.0 {
            return 0.0;
        }
        let var0 = self.m2[0] / (self.n[0] - 1.0);
        let var1 = self.m2[1] / (self.n[1] - 1.0);
        let denom = (var0 / self.n[0] + var1 / self.n[1]).sqrt();
        let diff = self.mean[0] - self.mean[1];
        if denom == 0.0 || !denom.is_finite() {
            return if diff == 0.0 { 0.0 } else { f64::INFINITY };
        }
        (diff / denom).abs()
    }
}

/// Outcome of a leak analysis run.
#[derive(Debug, Clone)]
pub struct LeakReport {
    /// |Welch's t| between the fixed and random classes.
    pub t: f64,
    /// `t > LEAK_T_THRESHOLD`.
    pub leaking: bool,
    /// Samples collected per class.
    pub per_class: usize,
}

/// Runs a two-class leak analysis: `measure` is called once per sample with
/// the class to use and the seeded generator (for drawing the random-class
/// input), and returns the cost of one execution. Classes are interleaved
/// in seeded random order; the whole run is a pure function of `seed`,
/// `per_class`, and `measure`.
pub fn analyze(
    seed: u64,
    per_class: usize,
    mut measure: impl FnMut(Class, &mut Gen) -> f64,
) -> LeakReport {
    let mut g = Gen::new(seed);
    let mut test = TTest::new();
    let mut remaining = [per_class, per_class];
    while remaining[0] + remaining[1] > 0 {
        // Pick among the classes still owed samples, in proportion to what
        // each is owed, so the interleaving stays unbiased to the end.
        let pick = (g.u64() as usize) % (remaining[0] + remaining[1]);
        let class = if pick < remaining[0] { Class::Fixed } else { Class::Random };
        let i = match class {
            Class::Fixed => 0,
            Class::Random => 1,
        };
        remaining[i] -= 1;
        let cost = measure(class, &mut g);
        test.push(class, cost);
    }
    let t = test.t_statistic();
    LeakReport { t, leaking: t > LEAK_T_THRESHOLD, per_class }
}

/// Cost of touching a 64-byte line already resident in the model.
pub const CACHE_HIT_COST: f64 = 1.0;
/// Cost of the compulsory miss that first brings a line in.
pub const CACHE_MISS_COST: f64 = 60.0;

/// A deterministic cold-start cache model for classifying table-access
/// traces.
///
/// Every lookup names a `(table, byte_offset)` pair; the model charges
/// [`CACHE_MISS_COST`] the first time each 64-byte line of each table is
/// touched and [`CACHE_HIT_COST`] after that. One model instance represents
/// one execution starting from a cold cache — the attacker-relevant state,
/// since which *lines* an encryption touches is exactly what a prime+probe
/// observer learns.
#[derive(Debug, Clone, Default)]
pub struct CacheModel {
    lines: std::collections::BTreeSet<(u8, u32)>,
    total: f64,
}

impl CacheModel {
    /// Creates an empty (cold) model.
    pub fn new() -> CacheModel {
        CacheModel::default()
    }

    /// Records an access to `byte_offset` within `table`.
    pub fn access(&mut self, table: u8, byte_offset: u32) {
        let line = byte_offset >> 6;
        self.total += if self.lines.insert((table, line)) {
            CACHE_MISS_COST
        } else {
            CACHE_HIT_COST
        };
    }

    /// Total modelled cost of the accesses so far.
    pub fn cost(&self) -> f64 {
        self.total
    }

    /// Distinct (table, line) pairs touched so far.
    pub fn lines_touched(&self) -> usize {
        self.lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_distributions_do_not_flag() {
        // Same deterministic distribution for both classes.
        let report = analyze(7, 2000, |_, g| (g.u64() % 64) as f64);
        assert!(!report.leaking, "t = {}", report.t);
        assert!(report.t < LEAK_T_THRESHOLD);
    }

    #[test]
    fn shifted_distributions_flag() {
        let report = analyze(8, 2000, |class, g| {
            let base = (g.u64() % 64) as f64;
            match class {
                Class::Fixed => base,
                Class::Random => base + 8.0,
            }
        });
        assert!(report.leaking, "t = {}", report.t);
    }

    #[test]
    fn constant_equal_costs_give_zero_t() {
        let report = analyze(9, 100, |_, _| 42.0);
        assert_eq!(report.t, 0.0);
        assert!(!report.leaking);
    }

    #[test]
    fn constant_unequal_costs_give_infinite_t() {
        let report = analyze(10, 100, |class, _| match class {
            Class::Fixed => 1.0,
            Class::Random => 2.0,
        });
        assert!(report.t.is_infinite());
        assert!(report.leaking);
    }

    #[test]
    fn analyze_is_deterministic_in_the_seed() {
        let run = || analyze(11, 500, |class, g| {
            let v = (g.u64() % 16) as f64;
            if class == Class::Fixed { v * 2.0 } else { v }
        });
        let (a, b) = (run(), run());
        assert_eq!(a.t, b.t);
        assert_eq!(a.leaking, b.leaking);
    }

    #[test]
    fn cache_model_charges_miss_once_per_line() {
        let mut m = CacheModel::new();
        m.access(0, 0);
        m.access(0, 63); // same 64-byte line
        m.access(0, 64); // next line
        m.access(1, 0); // same offset, different table
        assert_eq!(m.lines_touched(), 3);
        assert_eq!(m.cost(), 3.0 * CACHE_MISS_COST + CACHE_HIT_COST);
    }

    #[test]
    fn welch_t_matches_direct_computation() {
        let mut t = TTest::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            t.push(Class::Fixed, v);
        }
        for v in [2.0, 4.0, 6.0, 8.0] {
            t.push(Class::Random, v);
        }
        // means 2.5 / 5.0; vars 5/3 and 20/3; n = 4 each.
        let expect = (2.5f64 - 5.0).abs() / ((5.0f64 / 3.0 / 4.0) + (20.0 / 3.0 / 4.0)).sqrt();
        assert!((t.t_statistic() - expect).abs() < 1e-12);
    }
}
