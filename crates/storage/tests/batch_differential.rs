//! Differential property test: the batched `get_many`/`put_many`/`stat_many`
//! overrides on the AFS and cloud simulators must be observationally
//! identical to the serial per-object loop — byte-identical stored objects,
//! the same per-slot results, the same callback-break sets, and the same
//! `IoStats` operation counts. Only `remote_rpcs` (and the virtual clock)
//! may differ, and only downward.

use nexus_storage::afs::{AfsClient, AfsServer};
use nexus_storage::{CloudStore, LatencyModel, SimClock, StorageBackend};
use nexus_testkit::{shrink, tk_assert, tk_assert_eq, Gen, Runner};

const PATHS: usize = 10;

fn path(i: usize) -> String {
    format!("obj-{i}")
}

/// One step of a random client workload. Batch ops carry the whole batch so
/// the serial world can replay it as a loop over the same slots.
#[derive(Debug, Clone)]
enum Op {
    PutBatch(Vec<(usize, Vec<u8>)>),
    GetBatch(Vec<usize>),
    StatBatch(Vec<usize>),
    /// A second client reads `path` (on AFS this grants it a callback that
    /// later puts must break identically in both worlds).
    ObserverGet(usize),
    /// Drop the main client's whole-file cache.
    FlushCache,
    Lock(usize),
    Unlock(usize),
}

fn gen_op(g: &mut Gen) -> Op {
    match g.usize_below(8) {
        0 | 1 => Op::PutBatch(g.vec(1, 6, |g| (g.usize_below(PATHS), g.byte_vec(0, 48)))),
        2 | 3 => Op::GetBatch(g.vec(1, 8, |g| g.usize_below(PATHS))),
        4 => Op::StatBatch(g.vec(1, 8, |g| g.usize_below(PATHS))),
        5 => Op::ObserverGet(g.usize_below(PATHS)),
        6 => Op::FlushCache,
        _ => {
            if g.bool() {
                Op::Lock(g.usize_below(PATHS))
            } else {
                Op::Unlock(g.usize_below(PATHS))
            }
        }
    }
}

/// Seed regression: a `put_many` batch that spans a lock boundary — the
/// middle path of the batch is locked when the batch lands, and unlocked
/// only afterwards. Callback breaks, stats, and stored bytes must still
/// match the serial replay exactly.
fn lock_boundary_regression() -> Vec<Op> {
    vec![
        Op::ObserverGet(2),
        Op::ObserverGet(3),
        Op::Lock(3),
        Op::PutBatch(vec![
            (2, b"before-boundary".to_vec()),
            (3, b"on-the-locked-path".to_vec()),
            (4, b"after-boundary".to_vec()),
        ]),
        Op::Unlock(3),
        Op::GetBatch(vec![2, 3, 4]),
        Op::StatBatch(vec![3, 9]),
    ]
}

/// One AFS world: a server, the main client driving the ops, and an
/// observer client that accumulates callbacks.
struct AfsWorld {
    server: AfsServer,
    client: AfsClient,
    observer: AfsClient,
}

impl AfsWorld {
    fn new() -> AfsWorld {
        let server = AfsServer::new();
        let clock = SimClock::new();
        let client = AfsClient::connect(&server, clock.clone(), LatencyModel::default());
        let observer = AfsClient::connect(&server, clock, LatencyModel::default());
        AfsWorld { server, client, observer }
    }

    /// Applies `op`, batched or serial, returning a debug transcript of the
    /// per-slot results for cross-world comparison.
    fn apply(&self, op: &Op, batched: bool) -> String {
        match op {
            Op::PutBatch(items) => {
                let named: Vec<(String, Vec<u8>)> =
                    items.iter().map(|(i, d)| (path(*i), d.clone())).collect();
                if batched {
                    format!("{:?}", self.client.put_many(&named))
                } else {
                    let out: Vec<_> =
                        named.iter().map(|(p, d)| self.client.put(p, d)).collect();
                    format!("{out:?}")
                }
            }
            Op::GetBatch(ixs) => {
                let names: Vec<String> = ixs.iter().map(|i| path(*i)).collect();
                if batched {
                    format!("{:?}", self.client.get_many(&names))
                } else {
                    let out: Vec<_> = names.iter().map(|p| self.client.get(p)).collect();
                    format!("{out:?}")
                }
            }
            Op::StatBatch(ixs) => {
                let names: Vec<String> = ixs.iter().map(|i| path(*i)).collect();
                if batched {
                    format!("{:?}", self.client.stat_many(&names))
                } else {
                    let out: Vec<_> = names.iter().map(|p| self.client.stat(p)).collect();
                    format!("{out:?}")
                }
            }
            Op::ObserverGet(i) => format!("{:?}", self.observer.get(&path(*i))),
            Op::FlushCache => {
                self.client.flush_cache();
                String::new()
            }
            Op::Lock(i) => format!("{:?}", self.client.lock(&path(*i), 1)),
            Op::Unlock(i) => {
                self.client.unlock(&path(*i), 1);
                String::new()
            }
        }
    }

    fn callbacks(&self) -> Vec<(String, bool, bool)> {
        let held = |c: &AfsClient, i| c.holds_callback(&path(i));
        (0..PATHS).map(|i| (path(i), held(&self.client, i), held(&self.observer, i))).collect()
    }
}

/// `IoStats` with the fields batching is *allowed* to change zeroed out.
fn op_counts(stats: nexus_storage::IoStats) -> nexus_storage::IoStats {
    nexus_storage::IoStats { remote_rpcs: 0, ..stats }
}

#[test]
fn afs_batched_ops_match_serial_semantics() {
    Runner::new("afs_batched_ops_match_serial_semantics")
        .cases(96)
        .seed(0xba7c4)
        .regression(lock_boundary_regression())
        .run(
            |g| g.vec(1, 16, gen_op),
            |ops| shrink::vec(ops),
            |ops| {
                let serial = AfsWorld::new();
                let batched = AfsWorld::new();
                for (step, op) in ops.iter().enumerate() {
                    let a = serial.apply(op, false);
                    let b = batched.apply(op, true);
                    tk_assert_eq!(a, b, "slot results diverged at step {step} ({op:?})");
                    tk_assert_eq!(
                        serial.callbacks(),
                        batched.callbacks(),
                        "callback-break sets diverged at step {step} ({op:?})"
                    );
                }
                // Byte-identical server state.
                tk_assert_eq!(serial.server.object_inventory(), batched.server.object_inventory());
                for i in 0..PATHS {
                    tk_assert_eq!(
                        serial.server.raw_store().get(&path(i)).ok(),
                        batched.server.raw_store().get(&path(i)).ok(),
                        "stored bytes diverged for {}",
                        path(i)
                    );
                }
                // Identical op counts; strictly no more (usually fewer) RPCs.
                tk_assert_eq!(
                    op_counts(serial.client.stats()),
                    op_counts(batched.client.stats()),
                    "client op counts diverged"
                );
                tk_assert!(
                    batched.client.stats().remote_rpcs <= serial.client.stats().remote_rpcs,
                    "batching must never add RPCs"
                );
                Ok(())
            },
        );
}

#[test]
fn cloud_batched_ops_match_serial_semantics() {
    Runner::new("cloud_batched_ops_match_serial_semantics")
        .cases(64)
        .seed(0xc10dd)
        .regression(lock_boundary_regression())
        .run(
            |g| g.vec(1, 16, gen_op),
            |ops| shrink::vec(ops),
            |ops| {
                let clock_s = SimClock::new();
                let clock_b = SimClock::new();
                let serial = CloudStore::new(clock_s);
                let batched = CloudStore::new(clock_b);
                for (step, op) in ops.iter().enumerate() {
                    let (a, b) = match op {
                        Op::PutBatch(items) => {
                            let named: Vec<(String, Vec<u8>)> =
                                items.iter().map(|(i, d)| (path(*i), d.clone())).collect();
                            let a: Vec<_> =
                                named.iter().map(|(p, d)| serial.put(p, d)).collect();
                            (format!("{a:?}"), format!("{:?}", batched.put_many(&named)))
                        }
                        Op::GetBatch(ixs) => {
                            let names: Vec<String> = ixs.iter().map(|i| path(*i)).collect();
                            let a: Vec<_> = names.iter().map(|p| serial.get(p)).collect();
                            (format!("{a:?}"), format!("{:?}", batched.get_many(&names)))
                        }
                        Op::StatBatch(ixs) => {
                            let names: Vec<String> = ixs.iter().map(|i| path(*i)).collect();
                            let a: Vec<_> = names.iter().map(|p| serial.stat(p)).collect();
                            (format!("{a:?}"), format!("{:?}", batched.stat_many(&names)))
                        }
                        // Cache/callback machinery is AFS-only; exercise the
                        // shared lock surface and skip the rest.
                        Op::Lock(i) => (
                            format!("{:?}", serial.lock(&path(*i), 1)),
                            format!("{:?}", batched.lock(&path(*i), 1)),
                        ),
                        Op::Unlock(i) => {
                            serial.unlock(&path(*i), 1);
                            batched.unlock(&path(*i), 1);
                            (String::new(), String::new())
                        }
                        Op::ObserverGet(_) | Op::FlushCache => continue,
                    };
                    tk_assert_eq!(a, b, "slot results diverged at step {step} ({op:?})");
                }
                // Billing is metered per object, so it must match exactly.
                tk_assert_eq!(serial.billing(), batched.billing(), "billing diverged");
                tk_assert_eq!(op_counts(serial.stats()), op_counts(batched.stats()));
                tk_assert!(batched.stats().remote_rpcs <= serial.stats().remote_rpcs);
                Ok(())
            },
        );
}
