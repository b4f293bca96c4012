//! What an operation may cost in storage calls, and that the way it pays
//! changes no answer.
//!
//! A warm session compares every cached node an operation relied on with
//! storage in **one** `stat_many` (DESIGN.md §9, "One probe per
//! mutation"): a read-only operation when its walk ends; a mutation once
//! its locks are held, for its walk and for what it reloads under them
//! together. The budgets below are the call sequences of the default
//! configuration on a depth-3 path; a change that goes back to a `stat` per
//! path component, or to a second probe per mutation, fails them. When
//! another client changes what a mutation walked through between its walk
//! and its lock, the mutation keeps the lock it still needs and pays one
//! reload, or releases it and answers as a fresh walk would. Two clients
//! interleaving through each other's stale caches get, op for op, the
//! answers of a client that caches nothing.

use std::sync::Arc;

use nexus_core::{NexusConfig, NexusError, NexusVolume, Rights, UserKeys};
use nexus_sgx::{AttestationService, Platform};
use nexus_storage::hooked::Call;
use nexus_storage::{HookedBackend, MemBackend, StorageBackend};
use nexus_testkit::Gen;

type Log = Arc<HookedBackend<MemBackend>>;

/// An owner session over a logged store. `a/b/` holds `f0..f3`, `a/c/` is
/// empty, `alice` is a user; every node on those paths is cached. The first
/// closure mounts further (cold) sessions of the owner on the same log; the
/// second mounts one beside it, on the store itself, whose calls the log
/// does not see.
fn warm_world(
    config: NexusConfig,
) -> (Log, NexusVolume, impl Fn() -> NexusVolume, impl Fn() -> NexusVolume) {
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
    let mount_on = Arc::new(move |store: Arc<dyn StorageBackend>| {
        let v = NexusVolume::mount(&platform, store, &ias, &sealed, config).unwrap();
        v.authenticate(&owner).unwrap();
        v
    });
    let (logged, store) = (mount_on.clone(), log.clone());
    (log, v, move || logged(store.clone()), move || mount_on(mem.clone()))
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
    let (log, v, mount, _) =
        warm_world(NexusConfig { chunk_size: 1024, ..NexusConfig::default() });

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

    // A many-chunk file is still one fetch; a range fetches only its chunks.
    let big: Vec<u8> = (0..10 * 1024u32).map(|i| i as u8).collect();
    v.write_file("a/c/big", &big).unwrap();
    assert_eq!(calls_of(&log, || assert_eq!(v.read_file("a/c/big").unwrap(), big)), [StatMany, Get]);
    assert_eq!(
        calls_of(&log, || assert_eq!(v.read_range("a/c/big", 3000, 2000).unwrap(), big[3000..5000])),
        [StatMany, GetRange],
    );

    // Walk, lock the filenode, the walk's nodes and the filenode compared
    // in one probe, data object and filenode in one batch, the versions
    // just written, unlock.
    assert_eq!(
        calls_of(&log, || v.write_file("a/b/f0", b"overwritten").unwrap()),
        [Lock, StatMany, PutMany, StatMany, Unlock],
    );

    let ecalls = v.enclave().stats().ecalls();
    let create = calls_of(&log, || v.write_file("a/b/new", b"created").unwrap());
    assert_eq!(v.enclave().stats().ecalls() - ecalls, 1, "create-and-write is one enclave call");
    // Walk, lock b, one probe for the walk and for b as reloaded under the
    // lock, the data object, the filenode, b's bucket and b in one batch,
    // the versions, unlock.
    assert_eq!(create, [Lock, StatMany, PutMany, StatMany, Unlock]);
    let touch = calls_of(&log, || v.create_file("a/b/touched").unwrap());
    assert_eq!(create, touch, "the calls of an empty create");
    let table_5b = calls_of(&log, || v.write_file("a/b/empty", b"").unwrap());
    assert_eq!(create, table_5b, "the calls of Table 5b's create");

    let rename = calls_of(&log, || v.rename("a/b/f1", "a/c/g1").unwrap());
    assert_eq!(
        rename,
        [Lock, Lock, Lock, StatMany, PutMany, StatMany, Unlock, Unlock, Unlock],
        "one walk over both paths; b, c and the filenode locked; one probe; one commit",
    );

    let set_acl = calls_of(&log, || v.set_acl("a/b", "alice", Rights::READ).unwrap());
    assert_eq!(set_acl, [Lock, StatMany, PutMany, StatMany, Unlock]);

    // The directory stops naming the file before its filenode and data
    // object are deleted: a crash in between leaves orphans, not a name
    // whose file is gone.
    assert_eq!(
        calls_of(&log, || v.remove("a/b/f2").unwrap()),
        [Lock, StatMany, PutMany, StatMany, Delete, Delete, Unlock],
    );
    assert_eq!(v.read_file("a/c/g1").unwrap(), b"contents 1");
    assert_eq!(v.read_file("a/b/new").unwrap(), b"created");
}

#[test]
fn a_cold_mutation_fetches_every_bucket_in_one_call() {
    use Call::*;
    // Two entries per bucket: f0..f4 spread `a/b` over three.
    let (log, v, mount, _) = warm_world(NexusConfig { bucket_size: 2, ..NexusConfig::default() });
    v.write_file("a/b/f4", b"contents 4").unwrap();

    let cold = mount();
    assert!(cold.exists("a/b"), "b's main object is cached, none of its buckets");
    log.take_calls();
    cold.create_file("a/b/new").unwrap();
    let (calls, named): (Vec<Call>, Vec<Vec<String>>) = log.take_calls().into_iter().unzip();
    assert_eq!(
        calls,
        [Lock, StatMany, GetMany, PutMany, StatMany, Unlock],
        "the buckets the insert needs are one fetch, not three",
    );
    assert_eq!(named[2].len(), 3, "all of b's buckets: {:?}", named[2]);
    assert_eq!(calls_of(&log, || cold.create_file("a/b/newer").unwrap()).len(), 5, "and now held");
    assert_eq!(
        calls_of(&log, || cold.write_file("a/b/f0", b"again").unwrap()),
        [Lock, StatMany, Get, PutMany, StatMany, Unlock],
        "a filenode the cache lacks is fetched under its lock, and its version then needs no probe",
    );
    assert_eq!(v.list_dir("a/b").unwrap().len(), 7);
}

/// Runs `op` with `other` fired just before its first `Lock` reaches the
/// store; returns the calls `op` made.
fn calls_around_its_lock<T>(
    log: &Log,
    other: impl FnOnce() + Send + 'static,
    op: impl FnOnce() -> T,
) -> (T, Vec<Call>) {
    log.take_calls();
    log.before(|call, _| call == Call::Lock, other);
    let out = op();
    assert!(!log.is_armed(), "the operation took a lock");
    (out, log.take_calls().into_iter().map(|(call, _)| call).collect())
}

#[test]
fn a_directory_changed_before_its_lock_is_reloaded_under_the_lock_it_keeps() {
    use Call::*;
    let (log, v, _, beside) = warm_world(NexusConfig::default());
    let other = beside();
    let (created, calls) = calls_around_its_lock(
        &log,
        move || other.write_file("a/b/theirs", b"t").unwrap(),
        || v.create_file("a/b/mine"),
    );
    created.unwrap();
    // The probe under the lock finds b changed. The walk runs again and
    // names b again, so the lock stays: b's main object and its bucket are
    // fetched under it, each after a probe of the cache hits before it (a
    // retry compares again what the failed probe found current).
    assert_eq!(
        calls,
        [Lock, StatMany, StatMany, Get, StatMany, GetMany, PutMany, StatMany, Unlock],
    );
    let mut names: Vec<String> = v.list_dir("a/b").unwrap().into_iter().map(|r| r.name).collect();
    names.sort();
    assert_eq!(names, ["f0", "f1", "f2", "f3", "mine", "theirs"]);
}

#[test]
fn an_ancestor_renamed_before_the_lock_releases_it_and_reports_not_found() {
    use Call::*;
    let (log, v, _, beside) = warm_world(NexusConfig::default());
    let other = beside();
    let (created, calls) = calls_around_its_lock(
        &log,
        move || other.rename("a", "z").unwrap(),
        || v.create_file("a/b/mine"),
    );
    assert!(matches!(created, Err(NexusError::NotFound(_))), "{created:?}");
    // The probe under b's lock finds the root changed; the walk runs again
    // on the root as it is now (main object, then its bucket), finds no `a`,
    // and the lock it no longer needs is released. Nothing was written.
    assert_eq!(calls, [Lock, StatMany, Get, Get, Unlock]);
    assert_eq!(v.list_dir("z/b").unwrap().len(), 4);
}

#[test]
fn a_hard_link_the_cache_lacks_is_locked_on_a_second_walk() {
    use Call::*;
    let (log, v, mount, _) = warm_world(NexusConfig::default());
    v.hardlink("a/b/f0", "a/c/link").unwrap();
    let cold = mount();
    assert_eq!(cold.list_dir("a/c").unwrap().len(), 1, "a/c cached, not the filenode");
    // The walk cannot see the link count, so it locks `c` alone; the
    // reload fetches the filenode under that lock, finds a second name,
    // and the walk runs again with the filenode now cached: every lock is
    // traded for `c` and the filenode, one probe, one commit. The one
    // delete is `c`'s bucket, empty now, after the commit that drops it.
    assert_eq!(
        calls_of(&log, || cold.remove("a/c/link").unwrap()),
        [
            Lock, StatMany, Get, Unlock,
            Lock, Lock, StatMany, PutMany, StatMany, Delete, Unlock, Unlock,
        ],
    );
    assert_eq!(v.read_file("a/b/f0").unwrap(), b"contents 0");
    assert_eq!(v.lookup("a/b/f0").unwrap().nlink, 1);
    assert!(v.fsck(nexus_core::FsckMode::Deep).unwrap().is_clean());
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

/// One owner's store, and how to mount one more session on it.
fn world() -> (NexusVolume, impl Fn() -> NexusVolume) {
    let platform = Platform::seeded(0x2C11);
    let ias = AttestationService::new();
    ias.register_platform(&platform);
    let mem = Arc::new(MemBackend::new());
    let owner = UserKeys::from_seed("owner", &[1; 32]);
    let config = NexusConfig::default();
    let (first, sealed) =
        NexusVolume::create(&platform, mem.clone(), &ias, &owner, config).unwrap();
    first.authenticate(&owner).unwrap();
    let mount = move || {
        let v = NexusVolume::mount(&platform, mem.clone(), &ias, &sealed, config).unwrap();
        v.authenticate(&owner).unwrap();
        v
    };
    (first, mount)
}

#[test]
fn interleaved_clients_answer_like_a_pair_that_caches_nothing() {
    for seed in [1u64, 2, 3, 0xFEED] {
        let (first, mount) = world();
        let cached = [first, mount()];
        // The reference mounts afresh for every operation: no cached node,
        // version table or session survives from one to the next.
        let (_, fresh_mount) = world();
        let mut succeeded = 0;
        for (step, (client, op)) in interleaving(seed, 400).iter().enumerate() {
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
