//! The generic "file access API" NEXUS stacks on.
//!
//! The paper's portability claim (§IV) is that NEXUS runs over *any* storage
//! service exposing plain file operations, because all NEXUS state lives in
//! self-contained objects named by UUID. [`StorageBackend`] is that minimal
//! surface: whole-object get/put plus ranged reads, deletion, listing, and
//! advisory locks (the `flock()` the OpenAFS prototype uses for metadata
//! consistency, §V-A).

use std::time::Duration;

/// Errors surfaced by storage backends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The object does not exist.
    NotFound(String),
    /// The object exists but the requested range is out of bounds.
    BadRange { path: String, offset: u64, len: u64, size: u64 },
    /// An OS-level I/O failure (DirBackend).
    Io(String),
    /// The lock is held by another client, or the store by another handle.
    LockContended(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::NotFound(p) => write!(f, "object not found: {p}"),
            StorageError::BadRange { path, offset, len, size } => {
                write!(f, "bad range {offset}+{len} for {path} of size {size}")
            }
            StorageError::Io(msg) => write!(f, "storage i/o error: {msg}"),
            StorageError::LockContended(p) => write!(f, "lock contended: {p}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Object metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectStat {
    /// Size in bytes.
    pub size: u64,
    /// Server-side version: one higher per put; a new object starts at 1.
    pub version: u64,
}

/// I/O statistics accumulated by a backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Number of get/get_range calls served.
    pub reads: u64,
    /// Number of put calls served.
    pub writes: u64,
    /// Number of delete calls served.
    pub deletes: u64,
    /// Number of lock/unlock round trips.
    pub locks: u64,
    /// Total payload bytes read.
    pub bytes_read: u64,
    /// Total payload bytes written.
    pub bytes_written: u64,
    /// RPCs that actually crossed the (simulated) network.
    pub remote_rpcs: u64,
    /// Requests served from a local cache.
    pub cache_hits: u64,
}

impl IoStats {
    /// Difference between two cumulative snapshots.
    ///
    /// Saturating: if a counter in `earlier` is larger (the backend was
    /// swapped or reset between snapshots), the delta clamps to zero
    /// instead of panicking in the middle of a benchmark run.
    pub fn delta_since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            deletes: self.deletes.saturating_sub(earlier.deletes),
            locks: self.locks.saturating_sub(earlier.locks),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            remote_rpcs: self.remote_rpcs.saturating_sub(earlier.remote_rpcs),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
        }
    }
}

/// Lock-free accumulator behind [`IoStats`], used where per-client
/// accounting used to sit under a whole-client `Mutex`: each counter is
/// independently atomic, so concurrent RPC paths never serialize on an
/// accounting lock. `snapshot` reads each counter individually — exact
/// whenever the client is quiescent (every test and benchmark reads stats
/// between operations, not racing them).
#[derive(Debug, Default)]
pub(crate) struct AtomicIoStats {
    pub(crate) reads: std::sync::atomic::AtomicU64,
    pub(crate) writes: std::sync::atomic::AtomicU64,
    pub(crate) deletes: std::sync::atomic::AtomicU64,
    pub(crate) locks: std::sync::atomic::AtomicU64,
    pub(crate) bytes_read: std::sync::atomic::AtomicU64,
    pub(crate) bytes_written: std::sync::atomic::AtomicU64,
    pub(crate) remote_rpcs: std::sync::atomic::AtomicU64,
    pub(crate) cache_hits: std::sync::atomic::AtomicU64,
}

impl AtomicIoStats {
    pub(crate) fn count_read(&self, bytes: u64) {
        use std::sync::atomic::Ordering::Relaxed;
        self.reads.fetch_add(1, Relaxed);
        self.bytes_read.fetch_add(bytes, Relaxed);
    }

    pub(crate) fn count_write(&self, bytes: u64) {
        use std::sync::atomic::Ordering::Relaxed;
        self.writes.fetch_add(1, Relaxed);
        self.bytes_written.fetch_add(bytes, Relaxed);
    }

    pub(crate) fn snapshot(&self) -> IoStats {
        use std::sync::atomic::Ordering::Relaxed;
        IoStats {
            reads: self.reads.load(Relaxed),
            writes: self.writes.load(Relaxed),
            deletes: self.deletes.load(Relaxed),
            locks: self.locks.load(Relaxed),
            bytes_read: self.bytes_read.load(Relaxed),
            bytes_written: self.bytes_written.load(Relaxed),
            remote_rpcs: self.remote_rpcs.load(Relaxed),
            cache_hits: self.cache_hits.load(Relaxed),
        }
    }
}

/// Shared bounds check for ranged reads: `[offset, offset + len)` must lie
/// within `size`, with the sum computed overflow-safely — `offset + len`
/// wraps for adversarial offsets near `u64::MAX`, which would otherwise
/// pass the check and panic (or worse) when slicing.
pub(crate) fn check_range(
    path: &str,
    offset: u64,
    len: u64,
    size: u64,
) -> Result<(), StorageError> {
    match offset.checked_add(len) {
        Some(end) if end <= size => Ok(()),
        _ => Err(StorageError::BadRange { path: path.to_string(), offset, len, size }),
    }
}

/// A storage service exposing a plain file-access API.
///
/// Implementations must be safe to share across threads; NEXUS issues
/// concurrent requests from the filesystem layer and the enclave's ocalls.
///
/// **Versions.** Every put — through [`StorageBackend::put`] or as one item
/// of [`StorageBackend::put_many`] — leaves its object exactly one version
/// past the one before, and an object that does not exist (never written,
/// or deleted) is put at version 1. The enclave caches what it commits at
/// the version it computes from that rule, with no `stat` to read it back;
/// on a store that numbers otherwise, each such object is reloaded at its
/// next use (`crates/storage/tests/version_contract.rs` holds every
/// backend here to the rule).
pub trait StorageBackend: Send + Sync {
    /// Stores the full contents of `path`, replacing any existing object.
    ///
    /// # Errors
    ///
    /// Backend-dependent I/O failures.
    fn put(&self, path: &str, data: &[u8]) -> Result<(), StorageError>;

    /// Reads the full contents of `path`.
    ///
    /// # Errors
    ///
    /// [`StorageError::NotFound`] if the object does not exist.
    fn get(&self, path: &str) -> Result<Vec<u8>, StorageError>;

    /// Reads `len` bytes starting at `offset`.
    ///
    /// The default implementation fetches the whole object; chunked backends
    /// override this to transfer less.
    ///
    /// # Errors
    ///
    /// [`StorageError::NotFound`] or [`StorageError::BadRange`].
    fn get_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>, StorageError> {
        let data = self.get(path)?;
        check_range(path, offset, len, data.len() as u64)?;
        Ok(data[offset as usize..(offset + len) as usize].to_vec())
    }

    /// Removes `path`.
    ///
    /// # Errors
    ///
    /// [`StorageError::NotFound`] if the object does not exist.
    fn delete(&self, path: &str) -> Result<(), StorageError>;

    /// True if `path` exists.
    fn exists(&self, path: &str) -> bool;

    /// Object metadata.
    ///
    /// # Errors
    ///
    /// [`StorageError::NotFound`] if the object does not exist.
    fn stat(&self, path: &str) -> Result<ObjectStat, StorageError>;

    /// Lists every object whose path starts with `prefix`, sorted.
    fn list(&self, prefix: &str) -> Vec<String>;

    /// Acquires the advisory lock on `path` (`flock`). Creates the lock
    /// record if needed; objects need not exist to be lockable.
    ///
    /// # Errors
    ///
    /// [`StorageError::LockContended`] if another client holds it.
    fn lock(&self, path: &str, owner: u64) -> Result<(), StorageError>;

    /// Releases the advisory lock on `path` if held by `owner`.
    fn unlock(&self, path: &str, owner: u64);

    /// Reads many objects in one logical round trip.
    ///
    /// `out[i]` is the result for `paths[i]`; a missing object yields
    /// [`StorageError::NotFound`] in its slot without failing the batch.
    /// The default implementation loops over [`StorageBackend::get`];
    /// simulated network backends override it to charge a single RTT plus
    /// summed per-object disk and transfer terms, while keeping caching,
    /// callback, and per-object statistics semantics identical to the
    /// serial loop.
    fn get_many(&self, paths: &[String]) -> Vec<Result<Vec<u8>, StorageError>> {
        paths.iter().map(|p| self.get(p)).collect()
    }

    /// Stores many objects in one logical round trip.
    ///
    /// `out[i]` is the result for `items[i]`; per-object failures do not
    /// abort the rest of the batch. Defaults to looping over
    /// [`StorageBackend::put`]; overrides must preserve per-object
    /// write/callback semantics and differ only in RPC accounting and in
    /// whether the batch is all-or-none — lands whole or not at all, for
    /// readers and across a crash:
    ///
    /// - `MemBackend`: yes, one write lock for the batch;
    /// - `LogBackend`: yes, the batch is one log frame and one fsync, and
    ///   replay drops a torn frame whole;
    /// - `DirBackend` and `CloudStore`: no, each item commits on its own;
    /// - `AfsClient`: each item is its own call on its server's store, so
    ///   it gives what that store gives one call at a time.
    fn put_many(&self, items: &[(String, Vec<u8>)]) -> Vec<Result<(), StorageError>> {
        items.iter().map(|(p, d)| self.put(p, d)).collect()
    }

    /// Stats many objects in one logical round trip; same contract as
    /// [`StorageBackend::get_many`].
    fn stat_many(&self, paths: &[String]) -> Vec<Result<ObjectStat, StorageError>> {
        paths.iter().map(|p| self.stat(p)).collect()
    }

    /// Cumulative I/O statistics.
    fn stats(&self) -> IoStats;

    /// Virtual time spent in this backend, if it models latency.
    fn simulated_time(&self) -> Duration {
        Duration::ZERO
    }

    /// Audits the backend's durable form (on-disk layout, checksums,
    /// persisted indices) against its live state. Returns human-readable
    /// findings; empty means clean. RAM-only backends have no durable form
    /// to audit and keep the empty default. `fsck` merges these findings
    /// into its volume report.
    fn audit_storage(&self) -> Vec<String> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_delta() {
        let a = IoStats { reads: 10, writes: 5, bytes_read: 100, ..Default::default() };
        let b = IoStats { reads: 4, writes: 2, bytes_read: 30, ..Default::default() };
        let d = a.delta_since(&b);
        assert_eq!(d.reads, 6);
        assert_eq!(d.writes, 3);
        assert_eq!(d.bytes_read, 70);
    }

    #[test]
    fn stats_delta_saturates_on_counter_reset() {
        let earlier = IoStats { reads: 10, bytes_written: 500, ..Default::default() };
        let later = IoStats { reads: 3, writes: 7, ..Default::default() };
        let d = later.delta_since(&earlier);
        assert_eq!(d.reads, 0, "reset counter clamps to zero, not panic");
        assert_eq!(d.bytes_written, 0);
        assert_eq!(d.writes, 7);
    }

    /// Backend relying entirely on the trait's default `get_range`.
    struct FixedBackend(Vec<u8>);

    impl StorageBackend for FixedBackend {
        fn put(&self, _: &str, _: &[u8]) -> Result<(), StorageError> {
            unimplemented!()
        }
        fn get(&self, _: &str) -> Result<Vec<u8>, StorageError> {
            Ok(self.0.clone())
        }
        fn delete(&self, _: &str) -> Result<(), StorageError> {
            unimplemented!()
        }
        fn exists(&self, _: &str) -> bool {
            true
        }
        fn stat(&self, _: &str) -> Result<ObjectStat, StorageError> {
            Ok(ObjectStat { size: self.0.len() as u64, version: 0 })
        }
        fn list(&self, _: &str) -> Vec<String> {
            Vec::new()
        }
        fn lock(&self, _: &str, _: u64) -> Result<(), StorageError> {
            Ok(())
        }
        fn unlock(&self, _: &str, _: u64) {}
        fn stats(&self) -> IoStats {
            IoStats::default()
        }
    }

    #[test]
    fn default_get_range_rejects_overflowing_offsets() {
        let be = FixedBackend(vec![1, 2, 3, 4]);
        assert_eq!(be.get_range("p", 1, 2).unwrap(), vec![2, 3]);
        // offset + len would wrap to a tiny value and pass a naive
        // `offset + len > size` check, then panic slicing.
        let err = be.get_range("p", u64::MAX, 2).unwrap_err();
        assert!(matches!(err, StorageError::BadRange { .. }), "{err}");
        let err = be.get_range("p", 2, u64::MAX).unwrap_err();
        assert!(matches!(err, StorageError::BadRange { .. }), "{err}");
        // Non-overflowing but out-of-bounds still rejected.
        assert!(be.get_range("p", 3, 2).is_err());
        // Zero-length read at EOF stays legal.
        assert_eq!(be.get_range("p", 4, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn default_batch_ops_loop_over_serial() {
        let be = FixedBackend(vec![9, 9]);
        let out = be.get_many(&["a".into(), "b".into()]);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|r| r.as_deref() == Ok(&[9u8, 9][..])));
        let stats = be.stat_many(&["a".into()]);
        assert_eq!(stats[0], Ok(ObjectStat { size: 2, version: 0 }));
        assert!(be.get_many(&[]).is_empty());
        assert!(be.put_many(&[]).is_empty());
    }

    #[test]
    fn errors_display() {
        let e = StorageError::NotFound("abc".into());
        assert!(e.to_string().contains("abc"));
        let e = StorageError::BadRange { path: "p".into(), offset: 1, len: 2, size: 1 };
        assert!(e.to_string().contains("bad range"));
    }
}
