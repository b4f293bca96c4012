//! A commit caches the nodes it writes at the versions its puts produce,
//! one past the versions its lock confirmed (`enclave::commit_flush`),
//! without reading them back. On a store that breaks that contract, here
//! one whose every put advances a version by 2, the computed version never
//! matches what storage reports: each such node costs one reload at its
//! next use, and nothing else. Two clients, each rewriting what the other
//! just committed, still answer op for op as a client that caches nothing,
//! with no integrity or authentication failure.

use std::sync::Arc;

use nexus_core::{NexusConfig, NexusError, NexusVolume, UserKeys};
use nexus_sgx::{AttestationService, Platform};
use nexus_storage::hooked::Call;
use nexus_storage::{HookedBackend, IoStats, MemBackend, ObjectStat, StorageBackend, StorageError};
use nexus_testkit::Gen;

/// Every put lands twice, so every object it writes skips a version.
struct Skipping(MemBackend);

impl StorageBackend for Skipping {
    fn put(&self, path: &str, data: &[u8]) -> Result<(), StorageError> {
        self.0.put(path, data)?;
        self.0.put(path, data)
    }
    fn put_many(&self, items: &[(String, Vec<u8>)]) -> Vec<Result<(), StorageError>> {
        self.0.put_many(items);
        self.0.put_many(items)
    }
    fn get(&self, path: &str) -> Result<Vec<u8>, StorageError> {
        self.0.get(path)
    }
    fn get_many(&self, paths: &[String]) -> Vec<Result<Vec<u8>, StorageError>> {
        self.0.get_many(paths)
    }
    fn delete(&self, path: &str) -> Result<(), StorageError> {
        self.0.delete(path)
    }
    fn exists(&self, path: &str) -> bool {
        self.0.exists(path)
    }
    fn stat(&self, path: &str) -> Result<ObjectStat, StorageError> {
        self.0.stat(path)
    }
    fn stat_many(&self, paths: &[String]) -> Vec<Result<ObjectStat, StorageError>> {
        self.0.stat_many(paths)
    }
    fn list(&self, prefix: &str) -> Vec<String> {
        self.0.list(prefix)
    }
    fn lock(&self, path: &str, owner: u64) -> Result<(), StorageError> {
        self.0.lock(path, owner)
    }
    fn unlock(&self, path: &str, owner: u64) {
        self.0.unlock(path, owner)
    }
    fn stats(&self) -> IoStats {
        self.0.stats()
    }
}

/// An owner's volume on `store`, and how to mount one more session on it.
fn world(store: Arc<dyn StorageBackend>) -> (NexusVolume, impl Fn() -> NexusVolume) {
    let platform = Platform::seeded(0x5C1B);
    let ias = AttestationService::new();
    ias.register_platform(&platform);
    let owner = UserKeys::from_seed("owner", &[1; 32]);
    let config = NexusConfig { bucket_size: 4, ..NexusConfig::default() };
    let (first, sealed) =
        NexusVolume::create(&platform, store.clone(), &ias, &owner, config).unwrap();
    first.authenticate(&owner).unwrap();
    let mount = move || {
        let v = NexusVolume::mount(&platform, store.clone(), &ias, &sealed, config).unwrap();
        v.authenticate(&owner).unwrap();
        v
    };
    (first, mount)
}

fn calls_of<T>(log: &HookedBackend<Skipping>, op: impl FnOnce() -> T) -> Vec<Call> {
    log.take_calls();
    op();
    log.take_calls().into_iter().map(|(call, _)| call).collect()
}

#[test]
fn a_node_committed_on_a_store_that_skips_versions_costs_one_reload() {
    use Call::*;
    let log = Arc::new(HookedBackend::new(Arc::new(Skipping(MemBackend::new()))));
    let (v, _) = world(log.clone());
    v.mkdir("d").unwrap();
    v.write_file("d/f", b"one").unwrap();
    assert_eq!(v.read_file("d/f").unwrap(), b"one");
    // Warm and current: one probe, the data object.
    assert_eq!(calls_of(&log, || v.read_file("d/f").unwrap()), [StatMany, Get]);

    // The overwrite caches the filenode one version past the probed one;
    // storage went two past. The next read finds it moved and reloads it
    // once, at the version storage reports; the read after is warm again.
    let overwrite = calls_of(&log, || v.write_file("d/f", b"two").unwrap());
    assert_eq!(overwrite, [Lock, StatMany, PutMany, Unlock]);
    let reload = calls_of(&log, || assert_eq!(v.read_file("d/f").unwrap(), b"two"));
    assert_eq!(reload, [StatMany, StatMany, Get, Get]);
    assert_eq!(calls_of(&log, || v.read_file("d/f").unwrap()), [StatMany, Get]);
    assert!(v.fsck(nexus_core::FsckMode::Deep).unwrap().is_clean());
}

#[derive(Debug, Clone)]
enum Op {
    Write(String, Vec<u8>),
    Read(String),
    List(String),
    Mkdir(String),
    Remove(String),
    Rename(String, String),
}

/// What an operation answered, without the uuids an error would carry.
#[derive(Debug, PartialEq)]
enum Answer {
    Unit,
    Bytes(Vec<u8>),
    Names(Vec<String>),
    Failed(std::mem::Discriminant<NexusError>),
}

fn apply(v: &NexusVolume, op: &Op) -> Answer {
    let out = match op {
        Op::Write(path, data) => v.write_file(path, data).map(|()| Answer::Unit),
        Op::Read(path) => v.read_file(path).map(Answer::Bytes),
        Op::List(path) => v.list_dir(path).map(|rows| {
            let mut names: Vec<String> = rows.into_iter().map(|r| r.name).collect();
            names.sort();
            Answer::Names(names)
        }),
        Op::Mkdir(path) => v.mkdir(path).map(|()| Answer::Unit),
        Op::Remove(path) => v.remove(path).map(|()| Answer::Unit),
        Op::Rename(from, to) => v.rename(from, to).map(|()| Answer::Unit),
    };
    out.unwrap_or_else(|e| {
        // An authentication failure is an `Integrity` error.
        use NexusError::{Integrity, Malformed, Rollback, StaleRead};
        let alarming = matches!(e, Integrity(_) | Malformed(_) | Rollback { .. } | StaleRead(_));
        assert!(!alarming, "{op:?}: {e:?}");
        Answer::Failed(std::mem::discriminant(&e))
    })
}

const DIRS: [&str; 3] = ["d0", "d1", "d0/s"];

fn some_path(g: &mut Gen) -> String {
    format!("{}/f{}", g.choose(&DIRS), g.usize_below(3))
}

/// Client 1 rewrites at once what client 0 has just committed, and reads
/// it back through the other cache; then a seeded mix of both.
fn script(seed: u64) -> Vec<(usize, Op)> {
    let mut ops: Vec<(usize, Op)> = DIRS.iter().map(|d| (0, Op::Mkdir(d.to_string()))).collect();
    for i in 0..3 {
        let path = format!("d0/f{i}");
        ops.push((0, Op::Write(path.clone(), b"first".to_vec())));
        ops.push((1, Op::Write(path.clone(), format!("second {i}").into_bytes())));
        ops.push((0, Op::Read(path.clone())));
        ops.push((1, Op::Read(path)));
        ops.push((0, Op::List("d0".into())));
    }
    let mut g = Gen::new(seed);
    for _ in 0..300 {
        let client = g.usize_below(2);
        let op = match g.usize_below(12) {
            0..=3 => Op::Write(some_path(&mut g), g.byte_vec(0, 32)),
            4..=6 => Op::Read(some_path(&mut g)),
            7 => Op::List(g.choose(&DIRS).to_string()),
            8 => Op::Mkdir(g.choose(&DIRS).to_string()),
            9 => Op::Remove(some_path(&mut g)),
            _ => Op::Rename(some_path(&mut g), some_path(&mut g)),
        };
        ops.push((client, op));
    }
    ops
}

#[test]
fn clients_on_a_store_that_skips_versions_answer_like_a_pair_that_caches_nothing() {
    for seed in [7u64, 0xD0D0] {
        let skipping = Arc::new(Skipping(MemBackend::new()));
        let (first, mount) = world(skipping.clone());
        let cached = [first, mount()];
        // The reference mounts afresh for every operation, on an honest store.
        let (_, fresh_mount) = world(Arc::new(MemBackend::new()));
        let mut succeeded = 0;
        for (step, (client, op)) in script(seed).iter().enumerate() {
            let got = apply(&cached[*client], op);
            let want = apply(&fresh_mount(), op);
            assert_eq!(got, want, "seed {seed:#x}, step {step}: client {client} ran {op:?}");
            succeeded += usize::from(!matches!(got, Answer::Failed(_)));
        }
        assert!(succeeded > 100, "seed {seed:#x}: only {succeeded} operations did anything");
        for volume in &cached {
            let report = volume.fsck(nexus_core::FsckMode::Deep).unwrap();
            assert!(report.is_clean(), "seed {seed:#x}: {:?}", report.errors);
        }
    }
}
