//! The timing-leak harness's positive control: the classification that
//! must flag a table-driven AES, deterministically.
//!
//! A dudect-style two-class experiment (fixed vs random plaintext under a
//! fixed secret key) over a *deterministic* cost model: each encryption is
//! replayed through `nexus_testkit::spec::Aes::cold_cache_cost`, which
//! records every lookup a T-table AES makes and charges the trace against
//! a cold `CacheModel`. That cost depends on *which* T-table
//! lines the plaintext and key schedule happen to touch, so the two classes
//! separate and Welch's t blows past the 4.5 threshold.
//!
//! `nexus-crypto` ships no engine with such a trace: the bitsliced and
//! AES-NI engines index no memory by a secret, which
//! `crates/crypto/tests/source_audit.rs` holds for every non-test module of
//! that crate, and `nexus-bench micro_ct` classifies both on the wall clock
//! as well (informational: real timers are too noisy to gate on).
//!
//! Because the cost model is deterministic and classes are drawn from the
//! seeded testkit generator, classification is exactly reproducible: this
//! test is CI-stable by construction, not by generous margins.

use nexus_testkit::spec;
use nexus_testkit::timing::{analyze, Class, LeakReport, LEAK_T_THRESHOLD};

const SEED: u64 = 0x5eed_c7_1ea4;
const PER_CLASS: usize = 2000;

fn run_table() -> LeakReport {
    let aes = spec::Aes::new(&[0x3c; 16]);
    let fixed: [u8; 16] = [0xa5; 16];
    analyze(SEED, PER_CLASS, |class, g| {
        let block = match class {
            Class::Fixed => fixed,
            Class::Random => g.bytes::<16>(),
        };
        aes.cold_cache_cost(&block)
    })
}

#[test]
fn table_driven_lane_is_flagged_as_leaking() {
    let report = run_table();
    assert!(
        report.leaking,
        "table AES should be distinguishable: t = {} (threshold {})",
        report.t, LEAK_T_THRESHOLD
    );
}

#[test]
fn classification_is_deterministic() {
    let a = run_table();
    let b = run_table();
    assert_eq!(a.t, b.t);
    assert!(a.leaking && b.leaking);
}
