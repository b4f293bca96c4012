//! What an operation may cost in storage calls, and that the way it pays
//! changes no answer.
//!
//! A warm session compares every cached node an operation relied on with
//! storage in **one** `stat_many` per phase (DESIGN.md §9, "One probe per
//! phase"): once for the path walk, once more for what a mutation reloads
//! after its locks are taken. The budgets below are the call sequences of
//! the default configuration on a depth-3 path; a change that goes back to
//! a `stat` per path component fails them. With `batch_rpcs` off the same
//! objects are touched one call each and the store ends up byte-identical;
//! and two clients interleaving through each other's stale caches get, op
//! for op, the answers of a pair that caches nothing.

use std::sync::Arc;

use nexus_core::{NexusConfig, NexusError, NexusVolume, Rights, UserKeys};
use nexus_sgx::{AttestationService, Platform};
use nexus_storage::hooked::Call;
use nexus_storage::{HookedBackend, MemBackend, StorageBackend};
use nexus_testkit::Gen;

type Log = Arc<HookedBackend<MemBackend>>;

/// An owner session over a logged store. `a/b/` holds `f0..f3`, `a/c/` is
/// empty, `alice` is a user; every node on those paths is cached. The
/// closure mounts further (cold) sessions of the owner on the same log.
fn warm_world(config: NexusConfig) -> (Log, Arc<MemBackend>, NexusVolume, impl Fn() -> NexusVolume) {
    let platform = Platform::seeded(0xB0D6);
    let ias = AttestationService::new();
    ias.register_platform(&platform);
    let mem = Arc::new(MemBackend::new());
    let log: Log = Arc::new(HookedBackend::new(mem.clone()));
    let owner = UserKeys::from_seed("owner", &[1; 32]);
    let (v, sealed) = NexusVolume::create(&platform, log.clone(), &ias, &owner, config).unwrap();
    v.authenticate(&owner).unwrap();
    v.mkdir_all("a/b").unwrap();
    v.mkdir("a/c").unwrap();
    for i in 0..4 {
        v.write_file(&format!("a/b/f{i}"), format!("contents {i}").as_bytes()).unwrap();
    }
    v.add_user("alice", UserKeys::from_seed("alice", &[2; 32]).public_key()).unwrap();
    assert_eq!(v.list_dir("a/c").unwrap().len(), 0);
    let store = log.clone();
    let mount = move || {
        let v = NexusVolume::mount(&platform, store.clone(), &ias, &sealed, config).unwrap();
        v.authenticate(&owner).unwrap();
        v
    };
    (log, mem, v, mount)
}

const FILES: [&str; 4] = ["a/b/f0", "a/b/f1", "a/b/f2", "a/b/f3"];

/// The storage calls `op` makes, by method.
fn calls_of<T>(log: &Log, op: impl FnOnce() -> T) -> Vec<Call> {
    log.take_calls();
    op();
    log.take_calls().into_iter().map(|(call, _)| call).collect()
}

#[test]
fn a_warm_operation_pays_one_probe_per_phase() {
    use Call::*;
    let (log, _, v, mount) = warm_world(NexusConfig::default());

    // What a cache does not hold yet is probed in the round trip that
    // settles what it does, then fetched: a first touch under warm
    // directories is two calls, four of them in one bulk read are three.
    let cold = mount();
    assert_eq!(cold.list_dir("a/b").unwrap().len(), 4);
    assert_eq!(calls_of(&log, || cold.lookup("a/b/f0").unwrap()), [StatMany, Get]);
    assert_eq!(
        calls_of(&log, || cold.read_files(&FILES).unwrap()),
        [StatMany, GetMany, GetMany],
        "f1..f3 probed with the walk and fetched together, then all four data objects",
    );

    assert_eq!(calls_of(&log, || v.lookup("a/b/f0").unwrap()), [StatMany]);
    assert_eq!(calls_of(&log, || v.read_file("a/b/f0").unwrap()), [StatMany, Get]);
    assert_eq!(calls_of(&log, || v.list_dir("a/b").unwrap()), [StatMany]);
    assert_eq!(calls_of(&log, || v.read_files(&FILES).unwrap()), [StatMany, GetMany]);

    // Walk, lock, the filenode again now that it cannot move, data object
    // and filenode in one batch, the versions just written, unlock.
    assert_eq!(
        calls_of(&log, || v.write_file("a/b/f0", b"overwritten").unwrap()),
        [StatMany, Lock, StatMany, PutMany, StatMany, Unlock],
    );

    let ecalls = v.enclave().stats().ecalls();
    let create = calls_of(&log, || v.write_file("a/b/new", b"created").unwrap());
    assert_eq!(v.enclave().stats().ecalls() - ecalls, 1, "create-and-write is one enclave call");
    assert_eq!(
        create,
        [
            StatMany, Lock, StatMany, PutMany, StatMany, Unlock, // create under b's lock
            Lock, StatMany, PutMany, StatMany, Unlock, // contents under the filenode's
        ],
    );

    let rename = calls_of(&log, || v.rename("a/b/f1", "a/c/g1").unwrap());
    assert_eq!(
        rename,
        [StatMany, Lock, Lock, Lock, StatMany, PutMany, StatMany, Unlock, Unlock, Unlock],
        "one walk over both paths; b, c and the filenode locked; one commit",
    );

    let set_acl = calls_of(&log, || v.set_acl("a/b", "alice", Rights::READ).unwrap());
    assert_eq!(set_acl, [StatMany, Lock, StatMany, PutMany, StatMany, Unlock]);

    assert_eq!(
        calls_of(&log, || v.remove("a/b/f2").unwrap()),
        [StatMany, Lock, StatMany, Delete, Delete, PutMany, StatMany, Unlock],
    );
    assert_eq!(v.read_file("a/c/g1").unwrap(), b"contents 1");
    assert_eq!(v.read_file("a/b/new").unwrap(), b"created");
}

/// Every kind of operation once, reads through the warm cache included.
fn script(v: &NexusVolume) {
    v.lookup("a/b/f0").unwrap();
    assert_eq!(v.read_files(&FILES).unwrap().len(), 4);
    v.write_file("a/b/f0", &[7u8; 3000]).unwrap();
    v.write_file("a/b/new", b"created").unwrap();
    v.rename("a/b/f1", "a/c/g1").unwrap();
    v.rename("a/c/g1", "a/c/g2").unwrap();
    v.hardlink("a/b/f2", "a/c/link").unwrap();
    v.remove("a/b/f2").unwrap();
    v.symlink("a/b/f3", "a/c/sym").unwrap();
    v.set_acl("a/b", "alice", Rights::READ).unwrap();
    v.revoke_acl("a/b", "alice").unwrap();
    v.mkdir("a/c/d").unwrap();
    v.remove("a/c/d").unwrap();
    v.remove("a/c/link").unwrap();
    assert_eq!(v.read_file("a/c/g2").unwrap(), b"contents 1");
    assert!(matches!(v.read_file("a/b/f2"), Err(NexusError::NotFound(_))));
    assert_eq!(v.list_dir("a/c").unwrap().len(), 2);
}

#[test]
fn without_batching_the_same_objects_travel_one_call_each() {
    let run = |batch_rpcs: bool| {
        let config = NexusConfig { batch_rpcs, ..NexusConfig::default() };
        let (log, mem, v, mount) = warm_world(config);
        log.take_calls();
        assert_eq!(mount().read_files(&FILES).unwrap().len(), 4, "a cold session's bulk read");
        script(&v);
        let calls = log.take_calls();
        let mut store: Vec<(String, Vec<u8>)> =
            mem.list("").into_iter().map(|name| (name.clone(), mem.get(&name).unwrap())).collect();
        store.sort();
        (calls, store)
    };
    let (batched, batched_store) = run(true);
    let (serial, serial_store) = run(false);

    assert!(serial.iter().all(|(call, _)| call.serial() == *call), "no batch call is issued");
    let per_object = |calls: &[(Call, Vec<String>)]| -> Vec<(Call, String)> {
        calls
            .iter()
            .flat_map(|(call, names)| names.iter().map(|n| (call.serial(), n.clone())))
            .collect()
    };
    assert_eq!(per_object(&batched), per_object(&serial), "same objects, same order");
    assert!(batched.len() * 3 < serial.len() * 2, "{} vs {}", batched.len(), serial.len());
    assert_eq!(batched_store, serial_store, "and not one stored byte differs");
}

// -- Two clients, each reading through a cache the other keeps staling ------

#[derive(Debug, Clone)]
enum Op {
    Write(String, Vec<u8>),
    Read(String),
    ReadAll(Vec<String>),
    Lookup(String),
    List(String),
    Mkdir(String),
    Remove(String),
    Rename(String, String),
}

/// What an operation answered, without the uuids an error message or a
/// `LookupInfo` would carry.
#[derive(Debug, PartialEq)]
enum Answer {
    Unit,
    Bytes(Vec<u8>),
    Many(Vec<Vec<u8>>),
    Info(nexus_core::FileType, u64, u32),
    Names(Vec<String>),
    Failed(std::mem::Discriminant<NexusError>),
}

fn apply(v: &NexusVolume, op: &Op) -> Answer {
    let out = match op {
        Op::Write(path, data) => v.write_file(path, data).map(|()| Answer::Unit),
        Op::Read(path) => v.read_file(path).map(Answer::Bytes),
        Op::ReadAll(paths) => {
            let refs: Vec<&str> = paths.iter().map(String::as_str).collect();
            v.read_files(&refs).map(Answer::Many)
        }
        Op::Lookup(path) => v.lookup(path).map(|i| Answer::Info(i.kind, i.size, i.nlink)),
        Op::List(path) => v.list_dir(path).map(|rows| {
            let mut names: Vec<String> = rows.into_iter().map(|r| r.name).collect();
            names.sort();
            Answer::Names(names)
        }),
        Op::Mkdir(path) => v.mkdir(path).map(|()| Answer::Unit),
        Op::Remove(path) => v.remove(path).map(|()| Answer::Unit),
        Op::Rename(from, to) => v.rename(from, to).map(|()| Answer::Unit),
    };
    out.unwrap_or_else(|e| Answer::Failed(std::mem::discriminant(&e)))
}

const DIRS: [&str; 4] = ["d0", "d1", "d0/s", "d1/s"];

fn some_path(g: &mut Gen) -> String {
    format!("{}/f{}", g.choose(&DIRS), g.usize_below(3))
}

/// A cached parent whose child was removed, then a cached grandparent whose
/// child directory was: the cases a stale walk answers wrongly if its hits
/// are not compared before it replies. The seeded tail mixes everything.
fn interleaving(seed: u64, len: usize) -> Vec<(usize, Op)> {
    let mut ops: Vec<(usize, Op)> = vec![
        (0, Op::Mkdir("d0".into())),
        (0, Op::Mkdir("d0/s".into())),
        (0, Op::Write("d0/s/f0".into(), b"first".to_vec())),
        (1, Op::Read("d0/s/f0".into())),
        (1, Op::List("d0/s".into())),
        (0, Op::Remove("d0/s/f0".into())),
        (1, Op::Lookup("d0/s/f0".into())),
        (1, Op::Read("d0/s/f0".into())),
        (0, Op::Remove("d0/s".into())),
        (1, Op::List("d0/s".into())),
        (1, Op::Write("d0/s/f1".into(), b"orphan?".to_vec())),
        (1, Op::Lookup("d0/s".into())),
    ];
    let mut g = Gen::new(seed);
    for _ in 0..len {
        let client = g.usize_below(2);
        let op = match g.usize_below(20) {
            0..=4 => Op::Write(some_path(&mut g), g.byte_vec(0, 64)),
            5..=8 => Op::Read(some_path(&mut g)),
            9 => Op::ReadAll((0..3).map(|_| some_path(&mut g)).collect()),
            10..=11 => Op::Lookup(some_path(&mut g)),
            12..=13 => Op::List(g.choose(&DIRS).to_string()),
            14 => Op::Mkdir(g.choose(&DIRS).to_string()),
            15..=16 => Op::Remove(some_path(&mut g)),
            17 => Op::Remove(g.choose(&DIRS).to_string()),
            _ => Op::Rename(some_path(&mut g), some_path(&mut g)),
        };
        ops.push((client, op));
    }
    ops
}

/// Two sessions of one owner on one store.
fn pair(config: NexusConfig) -> [NexusVolume; 2] {
    let platform = Platform::seeded(0x2C11);
    let ias = AttestationService::new();
    ias.register_platform(&platform);
    let mem = Arc::new(MemBackend::new());
    let owner = UserKeys::from_seed("owner", &[1; 32]);
    let (first, sealed) =
        NexusVolume::create(&platform, mem.clone(), &ias, &owner, config).unwrap();
    first.authenticate(&owner).unwrap();
    let second = NexusVolume::mount(&platform, mem, &ias, &sealed, config).unwrap();
    second.authenticate(&owner).unwrap();
    [first, second]
}

#[test]
fn interleaved_clients_answer_like_a_pair_that_caches_nothing() {
    for seed in [1u64, 2, 3, 0xFEED] {
        let cached = pair(NexusConfig::default());
        let uncached = pair(NexusConfig { cache_metadata: false, ..NexusConfig::default() });
        let mut succeeded = 0;
        for (step, (client, op)) in interleaving(seed, 400).iter().enumerate() {
            let got = apply(&cached[*client], op);
            let want = apply(&uncached[*client], op);
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
