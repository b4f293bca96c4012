//! Differential crash-recovery suite for the log-structured backend.
//!
//! Two layers of evidence that `LogBackend` is crash-consistent:
//!
//! 1. **No-fault differential property** — seeded op sequences run against
//!    `MemBackend` (the semantic oracle) and `LogBackend` side by side;
//!    every per-op result must agree, the final worlds must match, and the
//!    match must survive a reopen with a clean on-disk audit.
//!
//! The world recovery must bring back is objects and versions. Locks are
//! the state of the process holding the store, so after any reopen any
//! owner takes any lock.
//!
//! 2. **Exhaustive fault sweep** — a fixed op sequence is replayed once
//!    per `(fault point, fault kind)` cell, injecting a torn or dropped
//!    I/O step exactly there (`nexus_testkit::faults::sweep` +
//!    `nexus_storage::fault::FireAt`). After the induced crash the store
//!    is reopened and its recovered world must be **all-or-none**: equal
//!    to the oracle world after `acked` micro-ops or after
//!    `acked + in-flight` — everything acknowledged before the crash is
//!    durable, the in-flight operation (a whole batch included) is there
//!    entirely or not at all, and nothing else ever appears. The
//!    recovered store must also audit clean and accept new writes. The
//!    sequence rewrites the log on request and, twice, because its dead
//!    bytes outgrew its live ones; a third sweep crashes the import of a
//!    store in the segment layout.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nexus_storage::fault::{CountHook, FireAt};
use nexus_storage::{
    FaultHook, FaultKind, FaultPoint, LogBackend, MemBackend, StorageBackend, StorageError,
};
use nexus_sync::Mutex;
use nexus_testkit::{faults, shrink, tk_assert, tk_assert_eq, Gen, Runner};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nexus-crashrec-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Object paths the workloads draw from — including the `%`-adversarial
/// names this PR's encoding fix is about.
const PATHS: [&str; 5] = ["a", "b", "meta/uuid-1", "a%2Fb", "dir/deep/leaf"];

/// One logical operation of the workload.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    Put(usize, Vec<u8>),
    Delete(usize),
    Lock(usize, u64),
    Unlock(usize, u64),
    PutMany(Vec<(usize, Vec<u8>)>),
    Compact,
}

impl Op {
    /// Micro-ops this op contributes to the timeline: a batch is `len`
    /// micro-ops (which land together); a lock, an unlock and a rewrite
    /// change no recovered state.
    fn micro_count(&self) -> usize {
        micros_of(self).len()
    }
}

/// The logical world both backends must agree on and recovery must bring
/// back: path -> (content, version).
type World = BTreeMap<String, (Vec<u8>, u64)>;

/// The micro-op alphabet of the timeline.
#[derive(Debug, Clone)]
enum Micro {
    Put(String, Vec<u8>),
    Delete(String),
}

/// Applies one micro-op with `MemBackend` semantics (versions start at 1
/// and restart after delete).
fn apply(world: &mut World, micro: &Micro) {
    match micro {
        Micro::Put(path, data) => {
            let version = world.get(path).map(|(_, v)| v + 1).unwrap_or(1);
            world.insert(path.clone(), (data.clone(), version));
        }
        Micro::Delete(path) => {
            world.remove(path);
        }
    }
}

fn micros_of(op: &Op) -> Vec<Micro> {
    match op {
        Op::Put(p, data) => vec![Micro::Put(PATHS[*p].to_string(), data.clone())],
        Op::Delete(p) => vec![Micro::Delete(PATHS[*p].to_string())],
        Op::PutMany(items) => items
            .iter()
            .map(|(p, data)| Micro::Put(PATHS[*p].to_string(), data.clone()))
            .collect(),
        Op::Lock(..) | Op::Unlock(..) | Op::Compact => Vec::new(),
    }
}

/// `timeline[j]` = the world after the first `j` micro-ops of `ops`.
fn build_timeline(ops: &[Op]) -> Vec<World> {
    let mut world = World::new();
    let mut timeline = vec![world.clone()];
    for op in ops {
        for micro in micros_of(op) {
            apply(&mut world, &micro);
            timeline.push(world.clone());
        }
    }
    timeline
}

/// Runs `ops` against `log` until completion or an injected crash.
/// Returns `(acked_micros, inflight_micros)`: micro-ops of fully
/// acknowledged ops, and of the op in flight when the crash hit (whose
/// durability the crash leaves undetermined).
fn run_ops(log: &LogBackend, ops: &[Op]) -> (usize, usize) {
    let mut acked = 0;
    for op in ops {
        match op {
            Op::Put(p, data) => {
                let _ = log.put(PATHS[*p], data);
            }
            Op::Delete(p) => {
                let _ = log.delete(PATHS[*p]);
            }
            Op::Lock(p, o) => {
                let _ = log.lock(PATHS[*p], *o);
            }
            Op::Unlock(p, o) => log.unlock(PATHS[*p], *o),
            Op::PutMany(items) => {
                let batch: Vec<(String, Vec<u8>)> = items
                    .iter()
                    .map(|(p, d)| (PATHS[*p].to_string(), d.clone()))
                    .collect();
                let _ = log.put_many(&batch);
            }
            Op::Compact => {
                let _ = log.compact_now();
            }
        }
        if log.crashed() {
            return (acked, op.micro_count());
        }
        acked += op.micro_count();
    }
    (acked, 0)
}

/// Reads the recovered backend's full logical world.
fn snapshot_of(log: &LogBackend) -> World {
    let mut objects = BTreeMap::new();
    for path in log.list("") {
        let data = log.get(&path).expect("listed object readable");
        let version = log.stat(&path).expect("listed object stattable").version;
        objects.insert(path, (data, version));
    }
    objects
}

/// After a reopen no lock is held: an owner the workloads never use takes
/// every path's lock.
fn no_lock_held(log: &LogBackend) -> Result<(), String> {
    for path in PATHS {
        log.lock(path, 99).map_err(|e| format!("lock {path:?} after reopen: {e}"))?;
    }
    Ok(())
}

/// The deterministic workload the exhaustive sweep replays: every op kind,
/// `%`-adversarial names, a semantic error (delete of a missing object),
/// an explicit rewrite, and deletes and overwrites that make the log's dead
/// bytes outgrow its live ones before and after it.
fn sweep_ops() -> Vec<Op> {
    vec![
        Op::Put(0, b"alpha-v1".to_vec()),
        Op::Put(1, vec![0xB7; 300]),
        Op::Lock(0, 1),
        Op::PutMany(vec![
            (0, b"alpha-v2".to_vec()),
            (2, b"meta".to_vec()),
            (0, b"alpha-v3".to_vec()),
        ]),
        Op::Delete(1),
        Op::Unlock(0, 1),
        Op::Lock(0, 2),
        Op::Put(3, b"percent-literal".to_vec()),
        Op::Compact,
        Op::Put(4, b"deep".to_vec()),
        Op::Delete(1), // semantic NotFound: must not consume durability
        Op::Lock(4, 2),
        Op::PutMany(vec![(1, b"b-back".to_vec()), (4, b"deep-v2".to_vec())]),
        Op::Unlock(0, 99), // non-owner unlock: silent no-op
        Op::Put(0, b"alpha-v4".to_vec()),
        Op::Put(2, b"meta-v2".to_vec()),
        Op::Put(4, b"deep-v3".to_vec()),
        Op::Delete(3),
        Op::Put(3, b"percent-v2".to_vec()),
        Op::Put(1, vec![0xB8; 300]),
        Op::Delete(1),
    ]
}

/// Records the fault points it sees, proceeding at every one.
#[derive(Default)]
struct Seen(Mutex<Vec<FaultPoint>>);

impl FaultHook for Seen {
    fn on(&self, point: &FaultPoint) -> nexus_storage::FaultAction {
        self.0.lock().push(point.clone());
        nexus_storage::FaultAction::Proceed
    }
}

/// How many rewrites `points` commit: one rename each.
fn rewrites(points: &[FaultPoint]) -> usize {
    points.iter().filter(|p| matches!(p, FaultPoint::Rename { .. })).count()
}

#[test]
fn crash_at_every_fault_point_recovers_prefix_consistently() {
    let ops = sweep_ops();
    let timeline = build_timeline(&ops);

    // Sizing pass: count the fault points the workload crosses.
    let seen = Arc::new(Seen::default());
    let root = tmp();
    let log = LogBackend::open_with_hook(&root, Some(seen.clone())).unwrap();
    let (acked, inflight) = run_ops(&log, &ops);
    assert_eq!(inflight, 0, "counting pass must not crash");
    assert_eq!(acked + 1, timeline.len(), "timeline covers every micro-op");
    let seen = seen.0.lock().clone();
    // The first delete of `b`'s 300 bytes fires one, `Compact` makes a
    // second, the overwrites after it fire a third and the last delete a
    // fourth.
    assert_eq!(rewrites(&seen), 4, "three triggered rewrites and an explicit one: {seen:?}");
    let points = seen.len() as u64;
    assert!(points > 40, "workload must cross many fault points, got {points}");
    drop(log);
    let _ = std::fs::remove_dir_all(&root);

    let stats = faults::sweep(
        "logstore_crash_recovery",
        points,
        &[FaultKind::Torn, FaultKind::Drop],
        |point, kind| {
            let root = tmp();
            let hook = FireAt::new(point, kind);
            let log =
                LogBackend::open_with_hook(&root, Some(hook.clone())).map_err(|e| e.to_string())?;
            let (acked, inflight) = run_ops(&log, &ops);
            tk_assert!(
                log.crashed(),
                "point {point} ({kind:?}) never fired — sweep out of sync"
            );
            let fired = hook.fired_at().unwrap_or_default();
            let mut probes =
                [log.stat(PATHS[0])].into_iter().chain(log.stat_many(&[PATHS[0].into()]));
            tk_assert!(
                probes.all(|r| matches!(r, Err(StorageError::Io(_)))),
                "crash at {fired}: stat or stat_many answered from the dead process's memory"
            );
            drop(log);

            // The crashed process is gone; recovery reads what's on disk.
            let recovered = LogBackend::open(&root)
                .map_err(|e| format!("reopen after crash at {fired}: {e}"))?;
            let world = snapshot_of(&recovered);
            let matched = [acked, acked + inflight].into_iter().any(|j| timeline[j] == world);
            tk_assert!(
                matched,
                "crash at {fired}: recovered world matches neither timeline point \
                 {acked} nor {}\nrecovered: {world:?}",
                acked + inflight
            );
            let findings = recovered.audit();
            tk_assert!(findings.is_empty(), "crash at {fired}: audit found {findings:?}");
            no_lock_held(&recovered).map_err(|e| format!("crash at {fired}: {e}"))?;

            // The recovered store must keep working.
            recovered
                .put("post-recovery", b"alive")
                .map_err(|e| format!("post-recovery put after {fired}: {e}"))?;
            tk_assert_eq!(recovered.get("post-recovery").unwrap(), b"alive".to_vec());
            let _ = std::fs::remove_dir_all(&root);
            Ok(())
        },
    );
    // Both kinds at every point actually ran.
    assert_eq!(stats.runs, stats.points * 2);
}

/// Generates a random workload over the shared path pool.
fn gen_ops(g: &mut Gen) -> Vec<Op> {
    g.vec(1, 24, |g| match g.u64_below(12) {
        0..=4 => Op::Put(g.index(PATHS.len()), g.byte_vec(0, 48)),
        5 | 6 => Op::Delete(g.index(PATHS.len())),
        7 => Op::Lock(g.index(PATHS.len()), 1 + g.u64_below(3)),
        8 => Op::Unlock(g.index(PATHS.len()), 1 + g.u64_below(3)),
        9 => Op::PutMany(g.vec(1, 4, |g| (g.index(PATHS.len()), g.byte_vec(0, 24)))),
        _ => Op::Compact,
    })
}

#[test]
fn logstore_agrees_with_membackend_and_survives_reopen() {
    let mut case_idx = 0u64;
    Runner::new("logstore_vs_membackend")
        .cases(48)
        .regression(sweep_ops())
        // Overwrites that outgrow the log, a batch, then deletes.
        .regression(vec![
            Op::Put(0, b"1".to_vec()),
            Op::Put(0, b"2".to_vec()),
            Op::Put(0, b"3".to_vec()),
            Op::Put(0, b"4".to_vec()),
            Op::Put(0, b"5".to_vec()),
            Op::PutMany(vec![(1, b"x".to_vec()), (2, b"y".to_vec()), (1, b"z".to_vec())]),
            Op::Delete(0),
            Op::Put(0, b"fresh".to_vec()),
        ])
        .run(gen_ops, |ops| shrink::ops(ops), |ops| {
            case_idx += 1;
            let root = std::env::temp_dir().join(format!(
                "nexus-crashrec-diff-{}-{case_idx}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            let mem = MemBackend::new();
            let log = LogBackend::open(&root).map_err(|e| e.to_string())?;

            // Every per-op result must agree with the oracle.
            for (i, op) in ops.iter().enumerate() {
                match op {
                    Op::Put(p, data) => {
                        tk_assert_eq!(
                            log.put(PATHS[*p], data),
                            mem.put(PATHS[*p], data),
                            "op {i}"
                        );
                    }
                    Op::Delete(p) => {
                        tk_assert_eq!(log.delete(PATHS[*p]), mem.delete(PATHS[*p]), "op {i}");
                    }
                    Op::Lock(p, o) => {
                        tk_assert_eq!(log.lock(PATHS[*p], *o), mem.lock(PATHS[*p], *o), "op {i}");
                    }
                    Op::Unlock(p, o) => {
                        log.unlock(PATHS[*p], *o);
                        mem.unlock(PATHS[*p], *o);
                    }
                    Op::PutMany(items) => {
                        let batch: Vec<(String, Vec<u8>)> = items
                            .iter()
                            .map(|(p, d)| (PATHS[*p].to_string(), d.clone()))
                            .collect();
                        tk_assert_eq!(log.put_many(&batch), mem.put_many(&batch), "op {i}");
                    }
                    Op::Compact => {
                        log.compact_now().map_err(|e| e.to_string())?;
                    }
                }
                // Among its findings: a log over twice its live bytes, or
                // a rewrite that is not exactly them.
                let findings = log.audit();
                tk_assert!(findings.is_empty(), "audit after op {i}: {findings:?}");
            }

            let against_mem = |log: &LogBackend| -> Result<(), String> {
                tk_assert_eq!(log.list(""), mem.list(""));
                for path in PATHS {
                    tk_assert_eq!(log.get(path), mem.get(path), "get {path:?}");
                    tk_assert_eq!(log.stat(path), mem.stat(path), "stat {path:?}");
                    tk_assert_eq!(log.exists(path), mem.exists(path), "exists {path:?}");
                }
                Ok(())
            };
            against_mem(&log)?;
            let world_before = snapshot_of(&log);
            let findings = log.audit();
            tk_assert!(findings.is_empty(), "pre-reopen audit: {findings:?}");
            drop(log);

            // Reopen: objects and versions survive; no lock does.
            let log = LogBackend::open(&root).map_err(|e| e.to_string())?;
            against_mem(&log)?;
            tk_assert_eq!(snapshot_of(&log), world_before, "reopen changed the world");
            let findings = log.audit();
            tk_assert!(findings.is_empty(), "post-reopen audit: {findings:?}");
            no_lock_held(&log)?;
            let _ = std::fs::remove_dir_all(&root);
            Ok(())
        });
}

/// The store of the segment layout `tests/fixtures/segment-layout` holds:
/// an `NXCK` checkpoint plus two segments, as its writer left them.
fn segment_layout_world() -> World {
    [
        ("a", &b"alpha-v3"[..], 3),
        ("a%2Fb", b"percent", 1),
        ("b", b"b-back", 1),
        ("dir/deep/leaf", b"deep-v2", 2),
        ("meta/uuid-1", b"meta", 1),
    ]
    .into_iter()
    .map(|(path, data, version)| (path.to_string(), (data.to_vec(), version)))
    .collect()
}

/// A copy of the segment-layout fixture in a fresh directory.
fn segment_layout_store() -> PathBuf {
    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/segment-layout");
    let root = tmp();
    std::fs::create_dir_all(&root).unwrap();
    for entry in std::fs::read_dir(&fixture).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), root.join(entry.file_name())).unwrap();
    }
    root
}

/// The files in `root`, sorted.
fn files(root: &PathBuf) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(root)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// A crash at any step of an import — the rewrite of the old store's image
/// as the log, or the deletion of the old files after it — loses nothing:
/// the reopen imports the old store, or reads the log the import committed.
#[test]
fn a_crash_during_an_import_loses_nothing() {
    let want = segment_layout_world();
    let count = CountHook::new();
    let root = segment_layout_store();
    let log = LogBackend::open_with_hook(&root, Some(count.clone())).unwrap();
    assert_eq!(snapshot_of(&log), want);
    drop(log);
    assert_eq!(files(&root), ["LOCK", "log"]);
    let points = count.count();
    assert_eq!(points, 5, "write, fsync, rename, directory fsync, cleanup");

    let stats = faults::sweep(
        "logstore_import_crash",
        points,
        &[FaultKind::Torn, FaultKind::Drop],
        |point, kind| {
            let root = segment_layout_store();
            let hook = FireAt::new(point, kind);
            let crashed = LogBackend::open_with_hook(&root, Some(hook.clone()));
            let fired = hook.fired_at().unwrap_or_default();
            tk_assert!(crashed.is_err(), "point {point} ({kind:?}) never failed the open");
            let recovered = LogBackend::open(&root)
                .map_err(|e| format!("reopen after crash at {fired}: {e}"))?;
            tk_assert_eq!(snapshot_of(&recovered), want, "crash at {fired}");
            let findings = recovered.audit();
            tk_assert!(findings.is_empty(), "crash at {fired}: audit found {findings:?}");
            tk_assert_eq!(files(&root), ["LOCK", "log"], "crash at {fired}");
            let _ = std::fs::remove_dir_all(&root);
            Ok(())
        },
    );
    assert_eq!(stats.runs, stats.points * 2);
}
