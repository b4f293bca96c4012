//! The metadata cache from outside: a warm session stops fetching what it
//! already verified, and still sees every other client's update. (That a
//! hit shares the cached node and a mutation copies one bucket is pinned
//! with `Arc::ptr_eq` by the unit tests in `enclave.rs` and `dirnode.rs`,
//! which can reach the crate-private loaders.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nexus_core::{NexusConfig, NexusError, NexusVolume, Rights, UserKeys};
use nexus_sgx::{AttestationService, Platform};
use nexus_storage::{
    HookedBackend, IoStats, MemBackend, ObjectStat, StorageBackend, StorageError,
};

/// Counts fetches and version probes on their way to a `MemBackend`.
#[derive(Default)]
struct Counting {
    inner: MemBackend,
    gets: AtomicU64,
    stats: AtomicU64,
}

impl Counting {
    /// (objects fetched, objects probed) since the last call.
    fn take(&self) -> (u64, u64) {
        (self.gets.swap(0, Ordering::Relaxed), self.stats.swap(0, Ordering::Relaxed))
    }
}

impl StorageBackend for Counting {
    fn put(&self, path: &str, data: &[u8]) -> Result<(), StorageError> {
        self.inner.put(path, data)
    }
    fn get(&self, path: &str) -> Result<Vec<u8>, StorageError> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.inner.get(path)
    }
    fn get_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>, StorageError> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.inner.get_range(path, offset, len)
    }
    fn get_many(&self, paths: &[String]) -> Vec<Result<Vec<u8>, StorageError>> {
        self.gets.fetch_add(paths.len() as u64, Ordering::Relaxed);
        self.inner.get_many(paths)
    }
    fn put_many(&self, items: &[(String, Vec<u8>)]) -> Vec<Result<(), StorageError>> {
        self.inner.put_many(items)
    }
    fn delete(&self, path: &str) -> Result<(), StorageError> {
        self.inner.delete(path)
    }
    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }
    fn stat(&self, path: &str) -> Result<ObjectStat, StorageError> {
        self.stats.fetch_add(1, Ordering::Relaxed);
        self.inner.stat(path)
    }
    fn stat_many(&self, paths: &[String]) -> Vec<Result<ObjectStat, StorageError>> {
        self.stats.fetch_add(paths.len() as u64, Ordering::Relaxed);
        self.inner.stat_many(paths)
    }
    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }
    fn lock(&self, path: &str, owner: u64) -> Result<(), StorageError> {
        self.inner.lock(path, owner)
    }
    fn unlock(&self, path: &str, owner: u64) {
        self.inner.unlock(path, owner)
    }
    fn stats(&self) -> IoStats {
        self.inner.stats()
    }
}

struct World {
    backend: Arc<Counting>,
    /// The session that wrote the population.
    writer: NexusVolume,
    mount: Box<dyn Fn() -> NexusVolume>,
}

/// `a/b/` holds 40 files over five 8-entry buckets; sessions from `mount`
/// start cold, after the population was written.
fn world() -> World {
    let platform = Platform::seeded(0xCA5E);
    let ias = AttestationService::new();
    ias.register_platform(&platform);
    let backend = Arc::new(Counting::default());
    let owner = UserKeys::from_seed("owner", &[1; 32]);
    let config = NexusConfig { bucket_size: 8, ..NexusConfig::default() };
    let (writer, sealed) =
        NexusVolume::create(&platform, backend.clone(), &ias, &owner, config).unwrap();
    writer.authenticate(&owner).unwrap();
    writer.mkdir_all("a/b").unwrap();
    for i in 0..40 {
        writer.write_file(&format!("a/b/f{i:02}"), format!("{i}").as_bytes()).unwrap();
    }
    let store = backend.clone();
    let mount = Box::new(move || {
        let v = NexusVolume::mount(&platform, store.clone(), &ias, &sealed, config).unwrap();
        v.authenticate(&owner).unwrap();
        v
    });
    World { backend, writer, mount }
}

#[test]
fn a_warm_walk_fetches_nothing_and_still_probes_every_component() {
    let w = world();
    let reader = (w.mount)();
    w.backend.take();

    // f39 is in the last of five buckets: root + its bucket, a + its
    // bucket, b + five buckets, the filenode.
    let cold = reader.lookup("a/b/f39").unwrap();
    let (gets, _) = w.backend.take();
    assert_eq!(gets, 11, "a cold walk fetches each object once");

    let warm = reader.lookup("a/b/f39").unwrap();
    assert_eq!(warm, cold);
    assert_eq!(
        w.backend.take(),
        (0, 4),
        "a warm walk is one version probe per object on the path (root, a, b, filenode)"
    );

    // Names in buckets the first walk already verified cost nothing more;
    // their filenodes are first touches.
    reader.lookup("a/b/f00").unwrap();
    assert_eq!(w.backend.take().0, 1, "only the new filenode");
    assert_eq!(reader.read_file("a/b/f00").unwrap(), b"0");
    assert_eq!(w.backend.take().0, 1, "only the data object");
    assert_eq!(reader.list_dir("a/b").unwrap().len(), 40);
    assert_eq!(w.backend.take().0, 0, "every bucket of b is already held");
}

#[test]
fn a_warm_session_sees_another_clients_create_and_remove() {
    let w = world();
    let a = (w.mount)();
    assert_eq!(a.list_dir("a/b").unwrap().len(), 40); // every bucket of b cached
    a.lookup("a/b/f07").unwrap();

    let b = &w.writer;
    b.write_file("a/b/new", b"from b").unwrap();
    b.remove("a/b/f07").unwrap();

    w.backend.take();
    assert_eq!(a.read_file("a/b/new").unwrap(), b"from b");
    assert!(matches!(a.lookup("a/b/f07"), Err(NexusError::NotFound(_))));
    let names: Vec<String> = a.list_dir("a/b").unwrap().into_iter().map(|r| r.name).collect();
    assert_eq!(names.len(), 40);
    assert!(names.contains(&"new".to_string()) && !names.contains(&"f07".to_string()));
    // b's main object changed, so a dropped its node and re-verified b's
    // buckets (a sixth holds `new`) against the new MACs; root and a were
    // untouched.
    let (gets, _) = w.backend.take();
    assert_eq!(gets, 1 + 6 + 2, "b and its six buckets, the new filenode and its data");

    // And the other way round: a's update invalidates b's warm node.
    a.rename("a/b/new", "a/b/newer").unwrap();
    assert!(b.exists("a/b/newer") && !b.exists("a/b/new"));
}

#[test]
fn a_write_landing_between_probe_and_fetch_does_not_hide_behind_its_own_version() {
    // A cold load reads an object's storage version and its body in two
    // calls. If the version is read second, a write landing between the two
    // caches the old body under the new version, every later probe accepts
    // it — the reload under the directory's lock too — and the session's
    // next mutation silently reverts the other client's. Read first, the
    // same write leaves the new body under the old version: one refetch.
    let platform = Platform::seeded(0xCA5E);
    let ias = AttestationService::new();
    ias.register_platform(&platform);
    let mem = Arc::new(MemBackend::new());
    let owner = UserKeys::from_seed("owner", &[1; 32]);
    let config = NexusConfig::default();
    let (writer, sealed) =
        NexusVolume::create(&platform, mem.clone(), &ias, &owner, config).unwrap();
    writer.authenticate(&owner).unwrap();
    writer.mkdir("d").unwrap();
    writer.add_user("alice", UserKeys::from_seed("alice", &[2; 32]).public_key()).unwrap();
    let d = writer.lookup("d").unwrap().uuid.object_name();

    let hooked = Arc::new(HookedBackend::new(mem.clone()));
    let a = NexusVolume::mount(&platform, hooked.clone(), &ias, &sealed, config).unwrap();
    a.authenticate(&owner).unwrap();
    // The second call that names d's main object — whichever of the probe
    // and the fetch comes second — waits for the writer's ACL grant.
    let mut touches = 0;
    hooked.before(
        move |_, names| {
            touches += usize::from(names.contains(&d));
            touches == 2
        },
        move || writer.set_acl("d", "alice", Rights::READ).unwrap(),
    );
    assert_eq!(a.list_dir("d").unwrap().len(), 0);
    assert!(!hooked.is_armed(), "the grant landed inside a's cold load of d");

    a.create_file("d/x").unwrap();
    let fresh = NexusVolume::mount(&platform, mem, &ias, &sealed, config).unwrap();
    fresh.authenticate(&owner).unwrap();
    assert_eq!(
        fresh.acl_entries("d").unwrap(),
        vec![("alice".to_string(), Rights::READ)],
        "a's create was built on the directory the grant had already changed",
    );
    assert!(fresh.exists("d/x"));
}
