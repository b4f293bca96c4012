//! UUID-byte-sharded lock arrays for the storage backends.
//!
//! Every backend in this crate used to serialize all clients behind one
//! lock: `MemBackend` held a single `RwLock<Inner>` epoch, and the AFS
//! client/server and cloud simulator each kept whole-store `Mutex` maps.
//! This module centralizes the replacement: fixed arrays of `nexus-sync`
//! locks indexed by a deterministic function of the object path, 16 by
//! default.
//!
//! NEXUS object names are UUID hex strings, so for those the shard index
//! *is* the UUID's first byte (parsed from the leading two hex chars)
//! modulo the shard count, which is uniformly random for generated UUIDs.
//! Non-UUID names (bench fixtures, `.lock` objects, plain-AFS
//! baseline paths) fall back to an FNV-1a hash so they still spread
//! uniformly.
//!
//! # Lock ordering
//!
//! Single-path operations touch exactly one shard. Batched operations
//! (`put_many`/`get_many`/`stat_many`) need a consistent view across the
//! shards their paths map to; [`ShardedRwLock::write_group`] acquires the
//! *deduplicated, ascending-index* set of shard locks and holds them all
//! for the duration of the batch. Because every multi-shard acquirer uses
//! the same ascending total order, two overlapping batches cannot
//! deadlock — one of them wins the lowest contended index and the other
//! waits there, holding only lower-indexed locks the winner does not
//! need. This is what preserves `put_many`'s atomic-batch semantics per
//! shard group (see DESIGN.md §10).

use std::sync::Arc;

use nexus_sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Default shard count.
pub const DEFAULT_SHARD_COUNT: usize = 16;

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Deterministic shard index for `path` in a `shard_count`-way array.
///
/// UUID-named objects (leading two hex chars) shard by the UUID's first
/// byte; everything else by FNV-1a of the whole path.
pub fn shard_index(path: &str, shard_count: usize) -> usize {
    debug_assert!(shard_count > 0);
    let bytes = path.as_bytes();
    if bytes.len() >= 2 {
        if let (Some(hi), Some(lo)) = (hex_val(bytes[0]), hex_val(bytes[1])) {
            return ((hi << 4) | lo) as usize % shard_count;
        }
    }
    // FNV-1a, 64-bit.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % shard_count as u64) as usize
}

/// The shard groups touched by one batched operation: the per-item shard
/// index plus the deduplicated ascending acquisition order.
pub struct ShardGroup {
    per_item: Vec<usize>,
    unique: Vec<usize>,
}

impl ShardGroup {
    fn new(per_item: Vec<usize>) -> ShardGroup {
        let mut unique = per_item.clone();
        unique.sort_unstable();
        unique.dedup();
        ShardGroup { per_item, unique }
    }

    /// Shard indices in acquisition order (ascending, deduplicated).
    pub fn unique(&self) -> &[usize] {
        &self.unique
    }

    /// Position of item `i`'s shard within the acquired guard list.
    pub fn slot(&self, i: usize) -> usize {
        self.unique
            .binary_search(&self.per_item[i])
            .expect("item shard is in the unique set")
    }
}

/// A sharded array of `RwLock<T>`; cheap to clone and share.
pub struct ShardedRwLock<T> {
    shards: Arc<Vec<RwLock<T>>>,
}

impl<T> Clone for ShardedRwLock<T> {
    fn clone(&self) -> Self {
        ShardedRwLock { shards: self.shards.clone() }
    }
}

impl<T: Default> ShardedRwLock<T> {
    /// A [`DEFAULT_SHARD_COUNT`]-way array.
    pub fn new() -> ShardedRwLock<T> {
        ShardedRwLock::with_shards(DEFAULT_SHARD_COUNT)
    }

    /// An array with a custom shard count (clamped to at least one).
    pub fn with_shards(n: usize) -> ShardedRwLock<T> {
        let n = n.max(1);
        ShardedRwLock { shards: Arc::new((0..n).map(|_| RwLock::new(T::default())).collect()) }
    }
}

impl<T: Default> Default for ShardedRwLock<T> {
    fn default() -> Self {
        ShardedRwLock::new()
    }
}

impl<T> ShardedRwLock<T> {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `path` maps to.
    pub fn index(&self, path: &str) -> usize {
        shard_index(path, self.shards.len())
    }

    /// Read access to the shard holding `path`.
    pub fn read(&self, path: &str) -> RwLockReadGuard<'_, T> {
        self.shards[self.index(path)].read()
    }

    /// Write access to the shard holding `path`.
    pub fn write(&self, path: &str) -> RwLockWriteGuard<'_, T> {
        self.shards[self.index(path)].write()
    }

    /// Read access to shard `i` (all-shard scans).
    pub fn read_shard(&self, i: usize) -> RwLockReadGuard<'_, T> {
        self.shards[i].read()
    }

    /// Computes the shard group for a batch of paths.
    pub fn group<'a>(&self, paths: impl Iterator<Item = &'a str>) -> ShardGroup {
        ShardGroup::new(paths.map(|p| self.index(p)).collect())
    }

    /// Acquires write locks for a shard group in ascending index order,
    /// holding them all simultaneously — the one epoch a batched
    /// mutation runs under.
    pub fn write_group(&self, group: &ShardGroup) -> Vec<RwLockWriteGuard<'_, T>> {
        group.unique.iter().map(|&i| self.shards[i].write()).collect()
    }

    /// Read-lock variant of [`ShardedRwLock::write_group`].
    pub fn read_group(&self, group: &ShardGroup) -> Vec<RwLockReadGuard<'_, T>> {
        group.unique.iter().map(|&i| self.shards[i].read()).collect()
    }
}

impl<T> std::fmt::Debug for ShardedRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRwLock").field("shards", &self.shards.len()).finish()
    }
}

/// A sharded array of `Mutex<T>`; cheap to clone and share.
pub struct ShardedMutex<T> {
    shards: Arc<Vec<Mutex<T>>>,
}

impl<T> Clone for ShardedMutex<T> {
    fn clone(&self) -> Self {
        ShardedMutex { shards: self.shards.clone() }
    }
}

impl<T: Default> ShardedMutex<T> {
    /// A [`DEFAULT_SHARD_COUNT`]-way array.
    pub fn new() -> ShardedMutex<T> {
        ShardedMutex::with_shards(DEFAULT_SHARD_COUNT)
    }

    /// An array with a custom shard count (clamped to at least one).
    pub fn with_shards(n: usize) -> ShardedMutex<T> {
        let n = n.max(1);
        ShardedMutex { shards: Arc::new((0..n).map(|_| Mutex::new(T::default())).collect()) }
    }
}

impl<T: Default> Default for ShardedMutex<T> {
    fn default() -> Self {
        ShardedMutex::new()
    }
}

impl<T> ShardedMutex<T> {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard holding `path`.
    pub fn lock(&self, path: &str) -> MutexGuard<'_, T> {
        self.shards[shard_index(path, self.shards.len())].lock()
    }

    /// Shard `i` directly (all-shard scans; taken one at a time, never
    /// nested).
    pub fn lock_shard(&self, i: usize) -> MutexGuard<'_, T> {
        self.shards[i].lock()
    }
}

impl<T> std::fmt::Debug for ShardedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMutex").field("shards", &self.shards.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uuid_names_shard_by_first_byte() {
        // 32-hex-char UUID names take the enclave cache's placement: the
        // first byte of the UUID, mod the shard count.
        assert_eq!(shard_index("00ab34cd", 16), 0x00 % 16);
        assert_eq!(shard_index("a7ffffff", 16), 0xa7 % 16);
        assert_eq!(shard_index("Ff001122", 16), 0xff % 16);
        // Different counts re-bucket deterministically.
        assert_eq!(shard_index("a7ffffff", 4), 0xa7 % 4);
    }

    #[test]
    fn non_uuid_names_spread_via_fnv() {
        let n = 16;
        let mut hist = vec![0usize; n];
        for i in 0..256 {
            hist[shard_index(&format!("meta/rec-{i}"), n)] += 1;
        }
        // Every shard sees some traffic; no shard hogs the majority.
        assert!(hist.iter().all(|&c| c > 0), "{hist:?}");
        assert!(hist.iter().all(|&c| c < 64), "{hist:?}");
        // Deterministic.
        assert_eq!(shard_index("x.lock", n), shard_index("x.lock", n));
    }

    #[test]
    fn group_orders_and_dedups() {
        let s: ShardedRwLock<u32> = ShardedRwLock::with_shards(8);
        let paths = ["07aa", "ffbb", "07aa", "20cc"]; // shards 7, 7, 7, 0
        let group = s.group(paths.iter().copied());
        assert_eq!(group.unique(), &[0, 7]);
        // Ascending acquisition order.
        assert!(group.unique().windows(2).all(|w| w[0] < w[1]));
        // Every item resolves to a live guard slot.
        let guards = s.write_group(&group);
        for i in 0..paths.len() {
            assert!(group.slot(i) < guards.len());
        }
    }

    #[test]
    fn write_group_is_atomic_across_shards() {
        // A writer updating two shards under `write_group` is never seen
        // half-applied by a reader taking the same group.
        let s: std::sync::Arc<ShardedRwLock<u64>> = std::sync::Arc::new(ShardedRwLock::new());
        let paths = ["00aa".to_string(), "ff00bb".to_string()];
        std::thread::scope(|scope| {
            let w = s.clone();
            let wp = paths.clone();
            scope.spawn(move || {
                for gen in 1..=500u64 {
                    let group = w.group(wp.iter().map(|p| p.as_str()));
                    let mut guards = w.write_group(&group);
                    for i in 0..wp.len() {
                        *guards[group.slot(i)] = gen;
                    }
                }
            });
            let r = s.clone();
            let rp = paths.clone();
            scope.spawn(move || {
                for _ in 0..500 {
                    let group = r.group(rp.iter().map(|p| p.as_str()));
                    let guards = r.read_group(&group);
                    let a = *guards[group.slot(0)];
                    let b = *guards[group.slot(1)];
                    assert_eq!(a, b, "torn read across the shard group");
                }
            });
        });
    }

    #[test]
    fn sharded_mutex_roundtrip() {
        let s: ShardedMutex<Vec<u32>> = ShardedMutex::with_shards(4);
        s.lock("abcd").push(7);
        assert_eq!(*s.lock("abcd"), vec![7]);
        let total: usize = (0..s.shard_count()).map(|i| s.lock_shard(i).len()).sum();
        assert_eq!(total, 1);
    }
}
