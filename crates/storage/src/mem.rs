//! An in-memory storage backend, and the object map every in-memory store
//! image is kept in.
//!
//! `ObjectMap` is the one place that decides how a store holds objects
//! in memory: versioned objects (a put bumps the version, a delete ends
//! the chain), bounds-checked ranged reads, sorted prefix listing, and the
//! advisory lock table whose owner may re-take its own lock. Objects and
//! locks are hashed, sorted on the way out: a lookup by name is one hash
//! probe, and every listing (`list`, `objects`) sorts what it returns by
//! path, so listings, `LogBackend` rewrites and audit
//! replays come out in the same order whatever order the objects went in.
//! [`MemBackend`] keeps one behind a single `RwLock`; `LogBackend`
//! ([`crate::logstore`]) keeps its live image, the checkpoints its import
//! reads and its audit replays in one.
//!
//! `MemBackend` is the simplest [`StorageBackend`], used directly in unit
//! tests and as the server-side store of the AFS and cloud simulators.
//! Reads (`get`, `get_range`, `get_many`, `stat_many`, `list`) share the
//! read lock and count themselves in lock-free `AtomicIoStats`; a
//! `put_many` holds the write lock for the whole batch, so a reader sees
//! all of it or none.
//!
//! A put over an existing object overwrites it in place: the version is
//! bumped on the same map entry, and the old buffer is refilled when
//! `Arc::get_mut` shows that no reader holds it (an AFS client's cache,
//! a `get_arc` caller) and its capacity lies between the new length and
//! twice it. Otherwise the put allocates a fresh buffer, so bytes a
//! reader holds never change, and a shrunken object never pins its old
//! size.

use std::collections::HashMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use nexus_sync::RwLock;

use crate::backend::{check_range, AtomicIoStats, IoStats, ObjectStat, StorageBackend, StorageError};

#[derive(Debug, PartialEq, Eq)]
struct Object {
    data: Arc<Vec<u8>>,
    version: u64,
}

fn not_found(path: &str) -> StorageError {
    StorageError::NotFound(path.to_string())
}

/// A store's in-memory image: versioned objects and advisory locks, in
/// hash maps (module doc).
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct ObjectMap {
    objects: HashMap<String, Object>,
    /// path → owner holding the advisory lock.
    locks: HashMap<String, u64>,
}

impl ObjectMap {
    /// Version of `path`; 0 when absent, so a put assigns `version + 1`.
    pub(crate) fn version(&self, path: &str) -> u64 {
        self.objects.get(path).map_or(0, |o| o.version)
    }

    /// Stores `data` at `path` under an explicit `version` (what a log
    /// record carries).
    pub(crate) fn insert(&mut self, path: String, version: u64, data: Arc<Vec<u8>>) {
        self.objects.insert(path, Object { data, version });
    }

    /// Stores `data` one version past the current one and returns it; an
    /// overwrite happens in place (module doc).
    pub(crate) fn put(&mut self, path: &str, data: &[u8]) -> u64 {
        let Some(obj) = self.objects.get_mut(path) else {
            self.insert(path.to_string(), 1, Arc::new(data.to_vec()));
            return 1;
        };
        obj.version += 1;
        match Arc::get_mut(&mut obj.data) {
            Some(buf) if (data.len()..=2 * data.len()).contains(&buf.capacity()) => {
                buf.clear();
                buf.extend_from_slice(data);
            }
            _ => obj.data = Arc::new(data.to_vec()),
        }
        obj.version
    }

    /// The object's shared bytes and version.
    pub(crate) fn get(&self, path: &str) -> Result<(Arc<Vec<u8>>, u64), StorageError> {
        let obj = self.objects.get(path).ok_or_else(|| not_found(path))?;
        Ok((obj.data.clone(), obj.version))
    }

    /// `len` bytes of `path` from `off`, bounds-checked.
    pub(crate) fn get_range(&self, path: &str, off: u64, len: u64) -> Result<Vec<u8>, StorageError> {
        let obj = self.objects.get(path).ok_or_else(|| not_found(path))?;
        check_range(path, off, len, obj.data.len() as u64)?;
        Ok(obj.data[off as usize..(off + len) as usize].to_vec())
    }

    pub(crate) fn stat(&self, path: &str) -> Result<ObjectStat, StorageError> {
        let obj = self.objects.get(path).ok_or_else(|| not_found(path))?;
        Ok(ObjectStat { size: obj.data.len() as u64, version: obj.version })
    }

    pub(crate) fn len(&self) -> usize {
        self.objects.len()
    }

    pub(crate) fn contains(&self, path: &str) -> bool {
        self.objects.contains_key(path)
    }

    pub(crate) fn remove(&mut self, path: &str) -> Result<(), StorageError> {
        self.objects.remove(path).map(drop).ok_or_else(|| not_found(path))
    }

    /// Paths starting with `prefix`, sorted.
    pub(crate) fn list(&self, prefix: &str) -> Vec<String> {
        let mut paths: Vec<String> =
            self.objects.keys().filter(|p| p.starts_with(prefix)).cloned().collect();
        paths.sort_unstable();
        paths
    }

    /// `(path, version, bytes)` of every object, sorted by path.
    pub(crate) fn objects(&self) -> impl Iterator<Item = (&str, u64, &[u8])> {
        let mut objects: Vec<_> =
            self.objects.iter().map(|(p, o)| (p.as_str(), o.version, o.data.as_slice())).collect();
        objects.sort_unstable_by_key(|&(path, ..)| path);
        objects.into_iter()
    }

    /// Total payload bytes of every object.
    pub(crate) fn total_bytes(&self) -> u64 {
        self.objects.values().map(|o| o.data.len() as u64).sum()
    }

    /// Takes `path`'s lock for `owner`; fails when another owner holds
    /// it, while its holder may take it again.
    pub(crate) fn lock(&mut self, path: &str, owner: u64) -> Result<(), StorageError> {
        match self.locks.get(path) {
            Some(&holder) if holder != owner => Err(StorageError::LockContended(path.to_string())),
            _ => {
                self.locks.insert(path.to_string(), owner);
                Ok(())
            }
        }
    }

    /// Releases `path`'s lock if `owner` holds it.
    pub(crate) fn unlock(&mut self, path: &str, owner: u64) {
        if self.locks.get(path) == Some(&owner) {
            self.locks.remove(path);
        }
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
    map: Arc<RwLock<ObjectMap>>,
    stats: Arc<AtomicIoStats>,
}

impl MemBackend {
    /// Creates an empty store.
    pub fn new() -> MemBackend {
        MemBackend::default()
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// True when no objects are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total payload bytes stored.
    pub fn total_bytes(&self) -> u64 {
        self.map.read().total_bytes()
    }

    pub(crate) fn get_arc(&self, path: &str) -> Result<(Arc<Vec<u8>>, u64), StorageError> {
        let (data, version) = self.map.read().get(path)?;
        self.stats.count_read(data.len() as u64);
        Ok((data, version))
    }

    /// Stores an object and reports the version it got (AFS server use).
    pub(crate) fn put_versioned(&self, path: &str, data: &[u8]) -> u64 {
        let version = self.map.write().put(path, data);
        self.stats.count_write(data.len() as u64);
        version
    }
}

impl StorageBackend for MemBackend {
    fn put(&self, path: &str, data: &[u8]) -> Result<(), StorageError> {
        self.put_versioned(path, data);
        Ok(())
    }

    fn get(&self, path: &str) -> Result<Vec<u8>, StorageError> {
        self.get_arc(path).map(|(data, _)| data.as_ref().clone())
    }

    fn get_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>, StorageError> {
        let out = self.map.read().get_range(path, offset, len)?;
        self.stats.count_read(len);
        Ok(out)
    }

    fn delete(&self, path: &str) -> Result<(), StorageError> {
        self.map.write().remove(path)?;
        self.stats.deletes.fetch_add(1, Relaxed);
        Ok(())
    }

    fn exists(&self, path: &str) -> bool {
        self.map.read().contains(path)
    }

    fn stat(&self, path: &str) -> Result<ObjectStat, StorageError> {
        self.map.read().stat(path)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.map.read().list(prefix)
    }

    fn get_many(&self, paths: &[String]) -> Vec<Result<Vec<u8>, StorageError>> {
        // One read lock for the batch: no `put_many` lands halfway through.
        let map = self.map.read();
        paths
            .iter()
            .map(|path| {
                let (data, _) = map.get(path)?;
                self.stats.count_read(data.len() as u64);
                Ok(data.as_ref().clone())
            })
            .collect()
    }

    fn put_many(&self, items: &[(String, Vec<u8>)]) -> Vec<Result<(), StorageError>> {
        // One write lock for the batch: a metadata commit lands whole.
        let mut map = self.map.write();
        items
            .iter()
            .map(|(path, data)| {
                map.put(path, data);
                self.stats.count_write(data.len() as u64);
                Ok(())
            })
            .collect()
    }

    fn stat_many(&self, paths: &[String]) -> Vec<Result<ObjectStat, StorageError>> {
        let map = self.map.read();
        paths.iter().map(|path| map.stat(path)).collect()
    }

    fn lock(&self, path: &str, owner: u64) -> Result<(), StorageError> {
        self.map.write().lock(path, owner)?;
        self.stats.locks.fetch_add(1, Relaxed);
        Ok(())
    }

    fn unlock(&self, path: &str, owner: u64) {
        self.map.write().unlock(path, owner);
    }

    fn stats(&self) -> IoStats {
        self.stats.snapshot()
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
        // Paths spread over many leading bytes come back globally sorted.
        let store = MemBackend::new();
        let mut names: Vec<String> =
            (0..64u32).map(|i| format!("{:02x}object{i}", (i * 37) % 256)).collect();
        for n in &names {
            store.put(n, b"x").unwrap();
        }
        names.sort_unstable();
        assert_eq!(store.list(""), names);
    }

    /// Objects and locks hashed, listings sorted: two maps filled in
    /// opposite orders give the same `list` and `objects`, each sorted by
    /// path, and equal lock tables.
    #[test]
    fn insertion_order_changes_no_listing() {
        // Names in two namespaces, in an order no sort produces.
        let names: Vec<String> = (0..300u32)
            .map(|i| {
                let spread = i.wrapping_mul(0x9e37_79b9);
                if i % 3 == 0 { format!("meta/{spread:08x}") } else { format!("{spread:08x}") }
            })
            .collect();
        let fill = |order: Vec<&String>| {
            let mut map = ObjectMap::default();
            for name in order {
                map.put(name, name.as_bytes());
                if name.ends_with(['0', '5', 'a']) {
                    map.put(name, &name.as_bytes()[..4]);
                }
                map.lock(name, name.len() as u64).unwrap();
            }
            map
        };
        let (a, b) = (fill(names.iter().collect()), fill(names.iter().rev().collect()));
        for prefix in ["", "meta/", "a", "meta/f", "zz"] {
            let listed = a.list(prefix);
            assert_eq!(listed, b.list(prefix), "prefix {prefix:?}");
            assert!(listed.is_sorted(), "prefix {prefix:?}");
            assert_eq!(listed.len(), names.iter().filter(|n| n.starts_with(prefix)).count());
        }
        let objects = |map: &ObjectMap| {
            map.objects().map(|(p, v, d)| (p.to_string(), v, d.to_vec())).collect::<Vec<_>>()
        };
        assert_eq!(objects(&a), objects(&b));
        assert_eq!(objects(&a).len(), names.len());
        assert!(objects(&a).is_sorted_by_key(|(p, ..)| p.clone()));
        assert!(objects(&a).iter().any(|(_, v, _)| *v == 2));
        assert_eq!(a, b);
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
    fn batches_stay_atomic() {
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
    fn an_overwrite_leaves_held_bytes_alone() {
        let store = MemBackend::new();
        store.put("a", b"old!").unwrap();
        let (held, _) = store.get_arc("a").unwrap();
        store.put("a", b"new!").unwrap();
        assert_eq!(held.as_slice(), b"old!");
        assert_eq!(store.get("a").unwrap(), b"new!");
        drop(held);
        store.put("a", b"last").unwrap();
        assert_eq!(store.get("a").unwrap(), b"last");
        assert_eq!(store.stat("a").unwrap().version, 3);
    }

    #[test]
    fn a_shrinking_overwrite_drops_the_big_buffer() {
        let store = MemBackend::new();
        store.put("a", &vec![1u8; 8 << 20]).unwrap();
        store.put("a", &[2u8; 4096]).unwrap();
        let (data, _) = store.get_arc("a").unwrap();
        assert_eq!(data.as_slice(), &[2u8; 4096][..]);
        assert!(data.capacity() <= 2 * 4096, "kept {} bytes", data.capacity());
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
