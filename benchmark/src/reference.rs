//! The machine's speed, read off a fixed kernel.
//!
//! The sandbox this benchmark has to be steady on shares its cores: a fixed
//! loop runs at anything between 0.8 and 1.5 of its usual speed, changing
//! from one second to the next and staying shifted for minutes at a time.
//! Ten runs of a workload spread their times on a core by 0.08 to 0.19 of
//! the median in an ordinary hour and by 0.33 in a rough one, too close to
//! or over the widest bound the benchmark's contract allows, and no
//! estimator over a run's rounds helps, because the whole run is shifted
//! (README, "Steadiness"). So the four bounded times (`spec::NOMINAL`:
//! `setup_s`, `cpu_us_per_op`, `read_p50_us`, `write_p50_us`) are taken to
//! a **nominal machine speed**: a kernel that belongs to the benchmark (not
//! to the program, so no change under test can move it) is timed right
//! before and right after each round and each set-up, and the time
//! measured in between is multiplied by `NOMINAL_NS / kernel time`. On the
//! same runs that takes a third to a half off the wider spreads (README).
//! Nothing else is scaled: per-layer metrics are raw, `host.speed_factor`
//! reports the factor, and `raw`, `round_ms`, `round_speed` and `setups_s`
//! in every result file are the unscaled times and the factors.

use std::hint::black_box;
use std::sync::OnceLock;

use crate::host;
use crate::rng::Rng;

/// What one pass of the kernel takes on the builder's sandbox at its
/// usual speed. Only a unit: it scales every run, of every commit, alike.
pub const NOMINAL_NS: f64 = 3.5e6;

const CHAIN_LEN: usize = 1 << 16;

const MULTIPLIER: u64 = 6_364_136_223_846_793_005;

/// One cycle through all of `0..CHAIN_LEN` in seeded random order
/// (Sattolo's shuffle): 256 KiB that only dependent loads can walk.
fn chain() -> &'static [u32] {
    static CHAIN: OnceLock<Vec<u32>> = OnceLock::new();
    CHAIN.get_or_init(|| {
        let mut next: Vec<u32> = (0..CHAIN_LEN as u32).collect();
        let mut rng = Rng::new(0x5EED, 0x5EED);
        for i in (1..CHAIN_LEN).rev() {
            next.swap(i, rng.below(i));
        }
        next
    })
}

/// Times the kernel, about 3.5 ms a pass. A quarter of a pass waits on
/// latency: a walk along the chain and one chain of dependent
/// multiply-adds. Three quarters are eight independent chains of
/// multiply-adds, which keep the multiplier busy every cycle. That part is
/// what a neighbour on the core's other hardware thread slows, as it slows
/// the program's ciphers, hashes and copies; a kernel of dependent steps
/// alone does not feel it and left ten runs of `meta_tree_mem` spread by
/// 0.28 of their median in an hour in which this one leaves 0.07 (README,
/// "Steadiness"). It allocates nothing, so the state the program left the
/// heap in cannot move it. It is timed on the clock the times it scales are
/// read off, time on a core: timed by wall-clock, three passes in a row lost
/// the core to another tenant often enough to halve a set-up's factor. The
/// fastest of three passes, so that an interrupt's work during one is not
/// mistaken for the machine's speed.
fn sample_ns() -> u64 {
    let chain = chain();
    let pass = || {
        let t0 = host::thread_cpu_ns();
        let mut at = 0usize;
        for _ in 0..100_000 {
            at = chain[at] as usize;
        }
        let mut x = at as u64;
        for i in 0..230_000u64 {
            x = black_box(x.wrapping_mul(MULTIPLIER).wrapping_add(i));
        }
        let mut lanes = [x, 2, 3, 4, 5, 6, 7, 8];
        for i in 0..900_000u64 {
            for (k, lane) in lanes.iter_mut().enumerate() {
                *lane = lane.wrapping_mul(MULTIPLIER).wrapping_add(i ^ k as u64);
            }
        }
        black_box(lanes);
        host::thread_cpu_ns() - t0
    };
    (0..3).map(|_| pass()).min().expect("three passes")
}

/// The factor that takes a time measured between two kernel samples to
/// nominal speed: below 1 while the machine was slow.
fn factor(before_ns: u64, after_ns: u64) -> f64 {
    NOMINAL_NS / ((before_ns + after_ns) as f64 / 2.0).max(1.0)
}

/// Runs `work` between two kernel samples; returns its result and factor.
pub fn around<R>(work: impl FnOnce() -> R) -> (R, f64) {
    let before = sample_ns();
    let out = work();
    (out, factor(before, sample_ns()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_factor_is_one_at_nominal_speed_and_falls_as_the_kernel_slows() {
        let nominal = NOMINAL_NS as u64;
        assert!((factor(nominal, nominal) - 1.0).abs() < 1e-9);
        assert!((factor(nominal * 2, nominal * 2) - 0.5).abs() < 1e-9);
        assert!((factor(nominal, nominal * 3) - 0.5).abs() < 1e-9);
        let (out, f) = around(|| 7);
        assert_eq!(out, 7);
        // An unoptimised build runs the kernel some forty times slower.
        assert!(f > 0.005 && f < 20.0, "implausible speed factor {f}");
    }
}
