//! Statistical timing-leak classification of the AES engines.
//!
//! A dudect-style two-class experiment (fixed vs random plaintext under a
//! fixed secret key) over a *deterministic* cost model: each encryption is
//! replayed through `Aes::encrypt_block_trace`, which records every
//! data-dependent table lookup the table (reference) engine performs, and
//! the trace is charged against a cold [`CacheModel`]. That engine's cost
//! depends on *which* T-table lines the plaintext/key schedule happens to
//! touch, so the two classes separate and Welch's t blows past the 4.5
//! threshold — the harness's positive control.
//! The hardened engines — bitsliced and AES-NI alike — perform no
//! data-dependent lookups at all: their traces are empty, their cost
//! constant, so the same experiment reports no leak for either.
//!
//! Because the cost model is deterministic and classes are drawn from the
//! seeded testkit generator, classification is exactly reproducible: this
//! test is CI-stable by construction, not by generous margins.

use nexus_crypto::aes::{Aes, KeySize};
use nexus_crypto::CryptoBackend;
use nexus_testkit::timing::{analyze, CacheModel, Class, LEAK_T_THRESHOLD};

const SEED: u64 = 0x5eed_c7_1ea4;
const PER_CLASS: usize = 2000;

/// Modelled cold-cache cost of one block encryption under `aes`.
///
/// T-table entries (tables 0–3) are 4 bytes wide, the final-round S-box
/// (table 4) 1 byte, so indices scale accordingly before the 64-byte-line
/// mapping.
fn model_cost(aes: &Aes, block: &[u8; 16]) -> f64 {
    let mut b = *block;
    let mut trace = Vec::new();
    aes.encrypt_block_trace(&mut b, &mut trace);
    let mut cache = CacheModel::new();
    for (table, idx) in trace {
        let entry_size = if table == 4 { 1u32 } else { 4u32 };
        cache.access(table, idx as u32 * entry_size);
    }
    cache.cost()
}

fn run_table() -> nexus_testkit::timing::LeakReport {
    run_aes(Aes::with_backend(&[0x3c; 16], KeySize::Aes128, CryptoBackend::Table))
}

fn run_aes(aes: Aes) -> nexus_testkit::timing::LeakReport {
    let fixed: [u8; 16] = [0xa5; 16];
    analyze(SEED, PER_CLASS, |class, g| {
        let block = match class {
            Class::Fixed => fixed,
            Class::Random => g.bytes::<16>(),
        };
        model_cost(&aes, &block)
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
fn default_lane_passes() {
    let report = run_aes(Aes::new_128(&[0x3c; 16]));
    assert!(
        !report.leaking,
        "hardened AES leaked under the model: t = {}",
        report.t
    );
    // Stronger than "below threshold": the hardened lane makes *zero*
    // data-dependent accesses, so both classes cost exactly the same.
    assert_eq!(report.t, 0.0);
}

#[test]
fn bitsliced_lane_passes() {
    let report = run_aes(Aes::with_backend(&[0x3c; 16], KeySize::Aes128, CryptoBackend::Bitsliced));
    assert!(!report.leaking, "bitsliced AES leaked under the model: t = {}", report.t);
    assert_eq!(report.t, 0.0);
}

#[test]
fn hardware_lane_passes() {
    if !nexus_crypto::cpu::hw_accel_available() {
        return;
    }
    let report = run_aes(Aes::with_backend(&[0x3c; 16], KeySize::Aes128, CryptoBackend::HwAccel));
    assert!(!report.leaking, "AES-NI lane leaked under the model: t = {}", report.t);
    // AESENC touches no table at all — the trace is empty, the cost
    // identical across classes.
    assert_eq!(report.t, 0.0);
}

#[test]
fn classification_is_deterministic() {
    let a = run_table();
    let b = run_table();
    assert_eq!(a.t, b.t);
    assert!(a.leaking && b.leaking);
}
