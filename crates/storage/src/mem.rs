//! An in-memory storage backend.
//!
//! The simplest [`StorageBackend`]: a versioned object map with advisory
//! locks. Used directly in unit tests and as the server-side store of the
//! AFS simulator.
//!
//! The store is sharded: objects, advisory locks, and I/O counters live in
//! a 16-way UUID-byte-sharded lock array ([`crate::shard`]) instead of the
//! single `RwLock<Inner>` epoch the store used to be — independent clients
//! touching different objects no longer serialize on one lock word.
//! Batched operations still get their atomicity: `put_many`/`get_many`
//! acquire every shard the batch touches in ascending index order and hold
//! them simultaneously, so readers see either none or all of a concurrent
//! `put_many` for the paths they look at, exactly as under the single
//! epoch.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use crate::backend::{IoStats, ObjectStat, StorageBackend, StorageError};
use crate::shard::ShardedRwLock;

#[derive(Debug, Clone)]
struct Object {
    data: Arc<Vec<u8>>,
    version: u64,
}

/// One shard: its slice of the object map, the advisory locks, and the
/// I/O counters for traffic it served (global stats are the shard sum).
#[derive(Debug, Default)]
struct Shard {
    objects: BTreeMap<String, Object>,
    locks: HashMap<String, u64>,
    stats: IoStats,
}

impl Shard {
    fn put(&mut self, path: &str, data: &[u8]) -> u64 {
        let version = self.objects.get(path).map(|o| o.version + 1).unwrap_or(1);
        self.objects
            .insert(path.to_string(), Object { data: Arc::new(data.to_vec()), version });
        self.stats.writes += 1;
        self.stats.bytes_written += data.len() as u64;
        version
    }

    fn get_arc(&mut self, path: &str) -> Result<(Arc<Vec<u8>>, u64), StorageError> {
        match self.objects.get(path) {
            Some(obj) => {
                let (data, version) = (obj.data.clone(), obj.version);
                self.stats.reads += 1;
                self.stats.bytes_read += data.len() as u64;
                Ok((data, version))
            }
            None => Err(StorageError::NotFound(path.to_string())),
        }
    }

    fn stat(&self, path: &str) -> Result<ObjectStat, StorageError> {
        self.objects
            .get(path)
            .map(|o| ObjectStat { size: o.data.len() as u64, version: o.version })
            .ok_or_else(|| StorageError::NotFound(path.to_string()))
    }
}

/// A thread-safe in-memory object store; cheap to clone and share.
///
/// # Examples
///
/// ```
/// use nexus_storage::{MemBackend, StorageBackend};
///
/// let store = MemBackend::new();
/// store.put("abc", b"hello").unwrap();
/// assert_eq!(store.get("abc").unwrap(), b"hello");
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemBackend {
    shards: ShardedRwLock<Shard>,
}

impl MemBackend {
    /// Creates an empty store (16 shards).
    pub fn new() -> MemBackend {
        MemBackend::default()
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        (0..self.shards.shard_count())
            .map(|i| self.shards.read_shard(i).objects.len())
            .sum()
    }

    /// True when no objects are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total payload bytes stored.
    pub fn total_bytes(&self) -> u64 {
        (0..self.shards.shard_count())
            .map(|i| {
                self.shards
                    .read_shard(i)
                    .objects
                    .values()
                    .map(|o| o.data.len() as u64)
                    .sum::<u64>()
            })
            .sum()
    }

    pub(crate) fn get_arc(&self, path: &str) -> Result<(Arc<Vec<u8>>, u64), StorageError> {
        self.shards.write(path).get_arc(path)
    }

    /// Stores an object and reports the version it got (AFS server use).
    pub(crate) fn put_versioned(&self, path: &str, data: &[u8]) -> u64 {
        self.shards.write(path).put(path, data)
    }
}

impl StorageBackend for MemBackend {
    fn put(&self, path: &str, data: &[u8]) -> Result<(), StorageError> {
        self.shards.write(path).put(path, data);
        Ok(())
    }

    fn get(&self, path: &str) -> Result<Vec<u8>, StorageError> {
        self.get_arc(path).map(|(data, _)| data.as_ref().clone())
    }

    fn get_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>, StorageError> {
        let mut shard = self.shards.write(path);
        let obj = shard
            .objects
            .get(path)
            .ok_or_else(|| StorageError::NotFound(path.to_string()))?;
        crate::backend::check_range(path, offset, len, obj.data.len() as u64)?;
        let out = obj.data[offset as usize..(offset + len) as usize].to_vec();
        shard.stats.reads += 1;
        shard.stats.bytes_read += len;
        Ok(out)
    }

    fn delete(&self, path: &str) -> Result<(), StorageError> {
        let mut shard = self.shards.write(path);
        if shard.objects.remove(path).is_none() {
            return Err(StorageError::NotFound(path.to_string()));
        }
        shard.stats.deletes += 1;
        Ok(())
    }

    fn exists(&self, path: &str) -> bool {
        self.shards.read(path).objects.contains_key(path)
    }

    fn stat(&self, path: &str) -> Result<ObjectStat, StorageError> {
        self.shards.read(path).stat(path)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        let mut out: Vec<String> = (0..self.shards.shard_count())
            .flat_map(|i| {
                self.shards
                    .read_shard(i)
                    .objects
                    .keys()
                    .filter(|k| k.starts_with(prefix))
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_unstable();
        out
    }

    fn get_many(&self, paths: &[String]) -> Vec<Result<Vec<u8>, StorageError>> {
        // One epoch over every shard the batch touches (ascending-order
        // acquisition, held simultaneously): readers see either none or
        // all of a concurrent `put_many`, never an interleaving.
        let group = self.shards.group(paths.iter().map(|p| p.as_str()));
        let mut guards = self.shards.write_group(&group);
        paths
            .iter()
            .enumerate()
            .map(|(i, path)| {
                guards[group.slot(i)]
                    .get_arc(path)
                    .map(|(data, _)| data.as_ref().clone())
            })
            .collect()
    }

    fn put_many(&self, items: &[(String, Vec<u8>)]) -> Vec<Result<(), StorageError>> {
        // Applied atomically under one multi-shard write epoch: a metadata
        // commit lands whole or not at all.
        let group = self.shards.group(items.iter().map(|(p, _)| p.as_str()));
        let mut guards = self.shards.write_group(&group);
        items
            .iter()
            .enumerate()
            .map(|(i, (path, data))| {
                guards[group.slot(i)].put(path, data);
                Ok(())
            })
            .collect()
    }

    fn stat_many(&self, paths: &[String]) -> Vec<Result<ObjectStat, StorageError>> {
        let group = self.shards.group(paths.iter().map(|p| p.as_str()));
        let guards = self.shards.read_group(&group);
        paths
            .iter()
            .enumerate()
            .map(|(i, path)| guards[group.slot(i)].stat(path))
            .collect()
    }

    fn lock(&self, path: &str, owner: u64) -> Result<(), StorageError> {
        let mut shard = self.shards.write(path);
        match shard.locks.get(path) {
            Some(&holder) if holder != owner => {
                Err(StorageError::LockContended(path.to_string()))
            }
            _ => {
                shard.locks.insert(path.to_string(), owner);
                shard.stats.locks += 1;
                Ok(())
            }
        }
    }

    fn unlock(&self, path: &str, owner: u64) {
        let mut shard = self.shards.write(path);
        if shard.locks.get(path) == Some(&owner) {
            shard.locks.remove(path);
        }
    }

    fn stats(&self) -> IoStats {
        let mut total = IoStats::default();
        for i in 0..self.shards.shard_count() {
            let s = self.shards.read_shard(i).stats;
            total.reads += s.reads;
            total.writes += s.writes;
            total.deletes += s.deletes;
            total.locks += s.locks;
            total.bytes_read += s.bytes_read;
            total.bytes_written += s.bytes_written;
            total.remote_rpcs += s.remote_rpcs;
            total.cache_hits += s.cache_hits;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let store = MemBackend::new();
        store.put("a", b"one").unwrap();
        assert_eq!(store.get("a").unwrap(), b"one");
        assert!(store.exists("a"));
        assert!(!store.exists("b"));
    }

    #[test]
    fn get_missing_is_not_found() {
        let store = MemBackend::new();
        assert_eq!(store.get("x"), Err(StorageError::NotFound("x".into())));
    }

    #[test]
    fn versions_increment_on_put() {
        let store = MemBackend::new();
        store.put("a", b"1").unwrap();
        store.put("a", b"2").unwrap();
        assert_eq!(store.stat("a").unwrap().version, 2);
    }

    #[test]
    fn get_range_bounds() {
        let store = MemBackend::new();
        store.put("a", b"hello world").unwrap();
        assert_eq!(store.get_range("a", 6, 5).unwrap(), b"world");
        assert!(matches!(
            store.get_range("a", 8, 10),
            Err(StorageError::BadRange { .. })
        ));
        // offset + len overflowing u64 must be rejected, not wrap past the
        // bounds check.
        assert!(matches!(
            store.get_range("a", u64::MAX, 12),
            Err(StorageError::BadRange { .. })
        ));
        assert!(matches!(
            store.get_range("a", 1, u64::MAX),
            Err(StorageError::BadRange { .. })
        ));
    }

    #[test]
    fn delete_removes() {
        let store = MemBackend::new();
        store.put("a", b"1").unwrap();
        store.delete("a").unwrap();
        assert!(!store.exists("a"));
        assert!(store.delete("a").is_err());
    }

    #[test]
    fn list_filters_by_prefix_sorted() {
        let store = MemBackend::new();
        store.put("meta/2", b"").unwrap();
        store.put("meta/1", b"").unwrap();
        store.put("data/1", b"").unwrap();
        assert_eq!(store.list("meta/"), vec!["meta/1".to_string(), "meta/2".to_string()]);
        assert_eq!(store.list("").len(), 3);
    }

    #[test]
    fn list_sorted_across_shards() {
        // Paths landing in different shards still come back globally
        // sorted, as the old single-BTreeMap store guaranteed.
        let store = MemBackend::new();
        let mut names: Vec<String> =
            (0..64u32).map(|i| format!("{:02x}object{i}", (i * 37) % 256)).collect();
        for n in &names {
            store.put(n, b"x").unwrap();
        }
        names.sort_unstable();
        assert_eq!(store.list(""), names);
    }

    #[test]
    fn locks_are_exclusive_but_reentrant_per_owner() {
        let store = MemBackend::new();
        store.lock("a", 1).unwrap();
        store.lock("a", 1).unwrap();
        assert_eq!(store.lock("a", 2), Err(StorageError::LockContended("a".into())));
        store.unlock("a", 2); // no-op: not the holder
        assert!(store.lock("a", 2).is_err());
        store.unlock("a", 1);
        store.lock("a", 2).unwrap();
    }

    #[test]
    fn stats_accumulate() {
        let store = MemBackend::new();
        store.put("a", b"12345").unwrap();
        store.get("a").unwrap();
        store.get_range("a", 0, 2).unwrap();
        let stats = store.stats();
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.reads, 2);
        assert_eq!(stats.bytes_written, 5);
        assert_eq!(stats.bytes_read, 7);
    }

    #[test]
    fn batch_ops_match_serial_semantics() {
        let store = MemBackend::new();
        store.put("a", b"old").unwrap();
        let out = store.put_many(&[
            ("a".to_string(), b"new".to_vec()),
            ("b".to_string(), b"fresh".to_vec()),
        ]);
        assert!(out.iter().all(|r| r.is_ok()));
        assert_eq!(store.stat("a").unwrap().version, 2, "versions still bump per put");
        assert_eq!(store.stat("b").unwrap().version, 1);
        let got = store.get_many(&["a".into(), "missing".into(), "b".into()]);
        assert_eq!(got[0].as_deref(), Ok(&b"new"[..]));
        assert!(matches!(got[1], Err(StorageError::NotFound(_))));
        assert_eq!(got[2].as_deref(), Ok(&b"fresh"[..]));
        let stats = store.stat_many(&["b".into(), "missing".into()]);
        assert_eq!(stats[0], Ok(ObjectStat { size: 5, version: 1 }));
        assert!(stats[1].is_err());
        // Op counts identical to the serial loop: 2 writes, 2 found reads.
        let s = store.stats();
        assert_eq!((s.writes, s.reads), (3, 2));
        assert_eq!(s.bytes_written, 3 + 3 + 5);
        assert_eq!(s.bytes_read, 3 + 5);
    }

    #[test]
    fn batches_stay_atomic_across_shards() {
        // A put_many spanning several shards is never observed
        // half-applied by a concurrent get_many of the same paths — the
        // guarantee the single RwLock epoch used to give.
        let store = MemBackend::new();
        // First-byte hex prefixes pin these to three different shards.
        let paths = ["01aaaa".to_string(), "02bbbb".to_string(), "0fcccc".to_string()];
        let flip: Vec<(String, Vec<u8>)> =
            paths.iter().map(|p| (p.clone(), vec![0u8; 8])).collect();
        store.put_many(&flip);
        std::thread::scope(|s| {
            let writer = store.clone();
            let wp = paths.clone();
            s.spawn(move || {
                for gen in 1..=250u8 {
                    let items: Vec<(String, Vec<u8>)> =
                        wp.iter().map(|p| (p.clone(), vec![gen; 8])).collect();
                    writer.put_many(&items);
                }
            });
            let reader = store.clone();
            let rp = paths.to_vec();
            s.spawn(move || {
                for _ in 0..300 {
                    let got = reader.get_many(&rp);
                    let first = got[0].as_ref().unwrap().clone();
                    for r in &got {
                        assert_eq!(
                            r.as_ref().unwrap(),
                            &first,
                            "torn batch: shards diverged mid-put_many"
                        );
                    }
                }
            });
        });
    }

    #[test]
    fn size_helpers() {
        let store = MemBackend::new();
        assert!(store.is_empty());
        store.put("a", b"123").unwrap();
        store.put("b", b"4567").unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.total_bytes(), 7);
    }
}
