//! # nexus-storage
//!
//! Untrusted storage substrates for the NEXUS reproduction. The paper runs
//! its prototype over an unmodified OpenAFS deployment; this crate provides:
//!
//! - [`StorageBackend`] — the minimal "file access API" NEXUS stacks on
//!   (whole-object get/put, ranged reads, delete, list, advisory locks);
//! - [`MemBackend`] — an in-memory object store;
//! - [`DirBackend`] — objects as real files in a local directory, written
//!   crash-consistently (temp file + fsync + atomic rename) with a
//!   persisted version index;
//! - [`logstore`] — the log-structured durable backend ([`LogBackend`]):
//!   one append-only checksummed log, rewritten by atomic rename once its
//!   dead bytes outnumber its live ones, and recovery replay that survives
//!   a crash at any fault point ([`fault`]);
//! - [`afs`] — a simulated AFS client/server pair with whole-file caching,
//!   callback-based invalidation, open-to-close semantics, server-side
//!   `flock`, and a virtual-clock latency model ([`SimClock`],
//!   [`LatencyModel`]) standing in for the paper's LAN testbed;
//! - [`MaliciousBackend`] — an adversarial wrapper that mounts the threat
//!   model's attacks (tamper, rollback, swap, dropped updates, lying
//!   version probes) for the security evaluation;
//! - [`HookedBackend`] — a transparent wrapper that logs every call and can
//!   run a test's hook right before a chosen one (call budgets, forced
//!   interleavings).
//!
//! ## Example
//!
//! ```
//! use nexus_storage::afs::{AfsClient, AfsServer};
//! use nexus_storage::{LatencyModel, SimClock, StorageBackend};
//!
//! let server = AfsServer::new();
//! let clock = SimClock::new();
//! let client = AfsClient::connect(&server, clock.clone(), LatencyModel::default());
//! client.put("4f2a..uuid", b"ciphertext bytes").unwrap();
//! assert_eq!(client.get("4f2a..uuid").unwrap(), b"ciphertext bytes");
//! assert!(clock.now() > std::time::Duration::ZERO); // network time was charged
//! ```

pub mod afs;
pub mod backend;
pub mod cloud;
pub mod clock;
pub mod dir;
pub mod fault;
pub mod hooked;
pub mod logstore;
pub mod malicious;
pub mod mem;

pub use backend::{IoStats, ObjectStat, StorageBackend, StorageError};
pub use clock::{ClockLane, LatencyModel, SimClock};
pub use cloud::{CloudBilling, CloudStore};
pub use dir::DirBackend;
pub use fault::{FaultAction, FaultHook, FaultKind, FaultPoint};
pub use hooked::HookedBackend;
pub use logstore::LogBackend;
pub use malicious::MaliciousBackend;
pub use mem::MemBackend;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backends_are_object_safe() {
        let mem = MemBackend::new();
        let backend: &dyn StorageBackend = &mem;
        backend.put("a", b"1").unwrap();
        assert_eq!(backend.get("a").unwrap(), b"1");
    }

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MemBackend>();
        assert_send_sync::<afs::AfsServer>();
        assert_send_sync::<afs::AfsClient>();
        assert_send_sync::<MaliciousBackend<MemBackend>>();
        assert_send_sync::<SimClock>();
    }
}
