//! # nexus
//!
//! Umbrella crate for the NEXUS reproduction (Djoko, Lange, Lee — "NEXUS:
//! Practical and Secure Access Control on Untrusted Storage Platforms using
//! Client-side SGX", DSN 2019). Re-exports the workspace crates:
//!
//! - [`core`] ([`nexus_core`]) — the NEXUS filesystem itself;
//! - [`sgx`] ([`nexus_sgx`]) — the SGX enclave simulator;
//! - [`storage`] ([`nexus_storage`]) — untrusted storage substrates (the
//!   simulated AFS deployment, adversarial wrappers);
//! - [`crypto`] ([`nexus_crypto`]) — the from-scratch cryptographic
//!   primitives;
//! - [`cryptofs`] ([`nexus_cryptofs_baseline`]) — the pure-cryptographic
//!   baseline used in the revocation comparison;
//! - [`workloads`] ([`nexus_workloads`]) — the evaluation workloads.
//!
//! See `examples/quickstart.rs` for the five-minute tour, and the
//! `nexus-bench` crate for the one binary (`nexus-bench <command>`)
//! regenerating every table and figure of the paper's evaluation.

pub use nexus_core as core;
pub use nexus_crypto as crypto;
pub use nexus_cryptofs_baseline as cryptofs;
pub use nexus_sgx as sgx;
pub use nexus_storage as storage;
pub use nexus_workloads as workloads;

pub use nexus_core::{
    NexusConfig, NexusError, NexusVolume, Rights, SealedOffer, SealedRootKey, UserKeys,
    VolumeJoiner,
};
pub use nexus_sgx::{AttestationService, Platform};
