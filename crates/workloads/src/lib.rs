//! # nexus-workloads
//!
//! Workload generators reproducing the NEXUS evaluation (paper §VII):
//!
//! - [`bench_fs`] — the [`bench_fs::BenchFs`] abstraction letting every
//!   workload run identically over NEXUS and the unmodified-OpenAFS
//!   baseline, with the paper's simulated-I/O vs enclave-time breakdown;
//! - [`harness`] — one-call experimental rigs;
//! - [`fileio`] — the file I/O and flat-directory microbenchmarks
//!   (Tables 5a/5b);
//! - [`repos`] — deterministic synthetic git trees with the published
//!   redis/julia/nodejs shapes (Fig. 5c);
//! - [`dbbench`] — LevelDB- and SQLite-style database workloads
//!   (Table II);
//! - [`apps`] — tar/du/grep/cp/mv over the LFSD/MFMD/SFLD workloads
//!   (Table III, Fig. 6);
//! - [`loadgen`] — the massive-scale load driver: one
//!   `run(source, cell, world)` over seeded Zipf/Poisson op streams at
//!   the wire level (raw RPC clients) or the fs level (real `NexusVolume`
//!   mounts), scheduled as futures on the `nexus-exec` executor (100k
//!   clients, ≤ 8 OS threads), as a serial oracle, or as the
//!   thread-per-client baseline (DESIGN.md §14, §15).

pub mod apps;
pub mod bench_fs;
pub mod dbbench;
pub mod fileio;
pub mod harness;
pub mod loadgen;
pub mod repos;

pub use bench_fs::{measure, BenchFs, FsClock, NexusFs, PlainAfs, Sample, WorkloadError};
pub use harness::TestRig;
