//! Differential property test for the *crypto-fs* async layer
//! (DESIGN.md §15), one of the gate suites `tests/repo_audit.rs` requires:
//! full enclave clients ([`NexusVolume`] mounts) interleaved as futures
//! on the executor must execute byte-for-byte what a serial oracle
//! executes — mixed metadata and data ops, including reads that cross
//! client boundaries.
//!
//! A case is a list of timed fs events: event `i` is issued by one of a
//! few mounted clients at virtual time `(i+1)·STEP`. `STEP` is chosen
//! far above any single fs op's modelled cost (several RPCs plus the
//! modelled crypto charge), and the serial oracle *asserts* that no op
//! overruns it — so issue order is execution order in both worlds, and
//! a cost-model change that breaks this premise fails loudly instead of
//! surfacing as a mystery divergence.
//!
//! Unlike the scale harness (whose op mix commutes by design), clients
//! here write and read the *same* shared files: a reader observes
//! another client's freshest write — freshness-validated through the
//! version stats of the metadata cache — identically in both worlds.

use std::time::Duration;

use nexus_core::async_fs::AsyncVolume;
use nexus_core::Rights;
use nexus_exec::Executor;
use nexus_testkit::Runner;
use nexus_workloads::loadgen::{
    client_dir, inventory_digest, shared_file, Deployment, Fs, FsConn, Source,
};

const CLIENTS: usize = 3;
const SHARED: usize = 4;
const STEP: Duration = Duration::from_millis(250);

/// One scripted fs event kind for client `c` on shared slot `key`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FsKind {
    /// Write `shared/f{key}` (cross-client visible).
    Write,
    /// Read `shared/f{key}`.
    Read,
    /// Batched read of `shared/f{key}` and its successor.
    Bulk,
    /// Freshness-checked metadata lookup of `shared/f{key}`.
    Lookup,
    /// Toggle the auditor's rights on the client's own directory.
    Acl,
}

type Event = (u8, FsKind, u8);

/// What one op observed, stripped of timing.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Observed {
    Wrote(bool),
    Got(Option<Vec<u8>>),
    BulkGot(Option<Vec<Vec<u8>>>),
    Sized(Option<u64>),
    AclSet(bool),
}

fn source() -> Fs {
    Fs { shared_files: SHARED, value_bytes: 32, files_per_client: 2, ..Fs::standard() }
}

fn deploy(source: &Fs) -> Deployment<FsConn> {
    source.deploy(&Fs::cell(CLIENTS, 0))
}

fn value_for(c: u8, i: usize) -> Vec<u8> {
    vec![c, i as u8, 0x5A, (i / 256) as u8, 0xC3]
}

fn issue_time(base: Duration, i: usize) -> Duration {
    base + STEP * (i as u32 + 1)
}

/// The per-event observations plus end-of-run state for one world.
#[derive(Debug, PartialEq)]
struct WorldOutcome {
    observed: Vec<Observed>,
    lane_ends: Vec<Duration>,
    inventory: u64,
    clock_end: Duration,
}

/// Serial oracle: list order on the calling thread, each client's lane
/// raised to the event's issue time first, charging the exact crypto
/// model the async adapter charges.
fn run_serial(script: &[Event]) -> WorldOutcome {
    let fs = source();
    let world = deploy(&fs);
    let base = world.clock.now();
    let observed = script
        .iter()
        .enumerate()
        .map(|(i, &(ec, kind, key))| {
            let c = ec as usize % CLIENTS;
            let fsc = &world.conns[c];
            let lane = fsc.afs.lane();
            let at = issue_time(base, i);
            lane.raise_to(at);
            let obs = match kind {
                FsKind::Write => {
                    let data = value_for(c as u8, i);
                    let r = fsc.volume.write_file(&shared_file(key as usize % SHARED), &data);
                    fs.crypto.charge(lane, data.len());
                    Observed::Wrote(r.is_ok())
                }
                FsKind::Read => {
                    let r = fsc.volume.read_file(&shared_file(key as usize % SHARED)).ok();
                    fs.crypto.charge(lane, r.as_ref().map(Vec::len).unwrap_or(0));
                    Observed::Got(r)
                }
                FsKind::Bulk => {
                    let paths = bulk_paths(key);
                    let refs: Vec<&str> = paths.iter().map(String::as_str).collect();
                    let r = fsc.volume.read_files(&refs).ok();
                    let bytes =
                        r.as_ref().map(|vs| vs.iter().map(Vec::len).sum()).unwrap_or(0);
                    fs.crypto.charge(lane, bytes);
                    Observed::BulkGot(r)
                }
                FsKind::Lookup => {
                    let r = fsc.volume.lookup(&shared_file(key as usize % SHARED)).ok();
                    fs.crypto.charge(lane, 0);
                    Observed::Sized(r.map(|info| info.size))
                }
                FsKind::Acl => {
                    let rights = if key % 2 == 0 { Rights::READ } else { Rights::RW };
                    let r = fsc.volume.set_acl(&client_dir(c), "auditor", rights);
                    fs.crypto.charge(lane, 0);
                    Observed::AclSet(r.is_ok())
                }
            };
            // The premise both worlds share: no op overruns the event
            // spacing, so issue order IS execution order everywhere.
            assert!(
                lane.local_now() <= at + STEP,
                "fs op {kind:?} overran STEP ({:?} past issue); raise STEP",
                lane.local_now() - at,
            );
            obs
        })
        .collect();
    WorldOutcome {
        observed,
        lane_ends: world.conns.iter().map(|fsc| fsc.afs.lane().local_now()).collect(),
        inventory: inventory_digest(&world.server),
        clock_end: world.clock.now(),
    }
}

fn bulk_paths(key: u8) -> Vec<String> {
    vec![
        shared_file(key as usize % SHARED),
        shared_file((key as usize + 1) % SHARED),
    ]
}

/// Async world: one future per mounted client over [`AsyncVolume`], on a
/// deterministic single-thread executor; events interleave across clients
/// purely by timer-wheel deadline order.
fn run_async(script: &[Event]) -> WorldOutcome {
    let fs = source();
    let world = deploy(&fs);
    let base = world.clock.now();
    let ex = Executor::single(world.clock.clone());

    let volumes: Vec<AsyncVolume> = world
        .conns
        .iter()
        .map(|fsc| {
            AsyncVolume::new(fsc.volume.clone(), fsc.afs.lane().clone(), ex.timer(), fs.crypto)
        })
        .collect();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let events: Vec<(usize, FsKind, u8)> = script
                .iter()
                .enumerate()
                .filter(|(_, &(ec, _, _))| ec as usize % CLIENTS == c)
                .map(|(i, &(_, kind, key))| (i, kind, key))
                .collect();
            let av = volumes[c].clone();
            ex.spawn(async move {
                let mut out = Vec::with_capacity(events.len());
                for (i, kind, key) in events {
                    av.begin_at(issue_time(base, i)).await;
                    let obs = match kind {
                        FsKind::Write => Observed::Wrote(
                            av.write_file(
                                &shared_file(key as usize % SHARED),
                                &value_for(c as u8, i),
                            )
                            .await
                            .is_ok(),
                        ),
                        FsKind::Read => Observed::Got(
                            av.read_file(&shared_file(key as usize % SHARED)).await.ok(),
                        ),
                        FsKind::Bulk => {
                            Observed::BulkGot(av.read_files(&bulk_paths(key)).await.ok())
                        }
                        FsKind::Lookup => Observed::Sized(
                            av.lookup(&shared_file(key as usize % SHARED))
                                .await
                                .ok()
                                .map(|info| info.size),
                        ),
                        FsKind::Acl => {
                            let rights = if key % 2 == 0 { Rights::READ } else { Rights::RW };
                            Observed::AclSet(
                                av.set_acl(&client_dir(c), "auditor", rights).await.is_ok(),
                            )
                        }
                    };
                    out.push((i, obs));
                }
                out
            })
        })
        .collect();
    ex.run_until_idle();

    let mut observed = vec![Observed::Wrote(false); script.len()];
    for h in &handles {
        for (i, obs) in h.try_take().expect("fs client future completed") {
            observed[i] = obs;
        }
    }
    WorldOutcome {
        observed,
        lane_ends: world.conns.iter().map(|fsc| fsc.afs.lane().local_now()).collect(),
        inventory: inventory_digest(&world.server),
        clock_end: world.clock.now(),
    }
}

fn gen_event(g: &mut nexus_testkit::Gen) -> Event {
    let c = g.usize_below(CLIENTS) as u8;
    let kind = match g.usize_below(8) {
        0 | 1 => FsKind::Write,
        2 | 3 => FsKind::Read,
        4 => FsKind::Bulk,
        5 | 6 => FsKind::Lookup,
        _ => FsKind::Acl,
    };
    let key = g.usize_below(SHARED) as u8;
    (c, kind, key)
}

#[test]
fn async_fs_interleaving_matches_the_serial_oracle() {
    let runner = Runner::new("exec_fs_differential").cases(30);
    runner.run(
        |g| {
            let len = g.usize_in(1, 14);
            (0..len).map(|_| gen_event(g)).collect::<Vec<Event>>()
        },
        |script| nexus_testkit::shrink::ops(script),
        |script| {
            let serial = run_serial(script);
            let async_world = run_async(script);
            if serial != async_world {
                return Err(format!(
                    "fs worlds diverged for {script:?}:\n serial {serial:?}\n async  {async_world:?}"
                ));
            }
            Ok(())
        },
    );
}

#[test]
fn cross_client_fs_write_then_read_is_causal_in_both_worlds() {
    // Pinned regression: client 0 rewrites shared/f1; client 1 then reads
    // it and client 2 looks it up. Both worlds must observe the new
    // bytes (and the new size) — the enclave's freshness check sees the
    // bumped metadata version, refetches, and the reader's lane pays the
    // writer-availability raise.
    let script: Vec<Event> =
        vec![(0, FsKind::Write, 1), (1, FsKind::Read, 1), (2, FsKind::Lookup, 1)];
    let serial = run_serial(&script);
    let async_world = run_async(&script);
    assert_eq!(serial, async_world);
    match &serial.observed[1] {
        Observed::Got(Some(v)) => assert_eq!(v, &value_for(0, 0)),
        other => panic!("reader missed the cross-client write: {other:?}"),
    }
    match &serial.observed[2] {
        Observed::Sized(Some(size)) => assert_eq!(*size, value_for(0, 0).len() as u64),
        other => panic!("lookup missed the new size: {other:?}"),
    }
    assert!(serial.lane_ends[1] >= serial.lane_ends[0] - STEP);
}
