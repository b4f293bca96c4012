//! Differential property test: async-interleaved execution on the
//! `nexus-exec` executor produces exactly the transcripts of a serial
//! oracle, under explicit cross-client causality through `ClockLane`
//! virtual time (the PR 4 differential pattern, lifted to the executor).
//!
//! A case is a list of timed events: event `i` is issued by one of a few
//! clients at virtual time `(i+1)·STEP` — strictly increasing, so list
//! order *is* issue order. The async world runs each client as a future on
//! a deterministic single-thread executor, parking every op in the reactor
//! until its virtual issue time (`Timer::schedule_at`, then raising the
//! lane there — an open-loop arrival); the serial oracle executes the same
//! list in order on plain sync clients, raising each lane by hand. Both
//! worlds must agree on every per-op result, every client's final lane
//! time, the server's object inventory, and the shared clock.
//!
//! Reads here cross client boundaries on purpose (unlike the scale
//! harness, where commuting ops are a design choice): a client may read
//! another client's freshest write, which is only deterministic because
//! the reactor fires arrival wakeups in exact virtual-deadline order.

use std::sync::Arc;
use std::time::Duration;

use nexus_exec::Executor;
use nexus_storage::afs::{AfsClient, AfsServer};
use nexus_storage::{LatencyModel, SimClock, StorageBackend};
use nexus_testkit::Runner;

const CLIENTS: usize = 3;
const STEP: Duration = Duration::from_millis(5);

/// One scripted event: client `c` performs `op` on shared key `key`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Put,
    Get,
    Stat,
}

type Event = (u8, OpKind, u8);

/// What one op observed, in a timing-free form.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Observed {
    Put,
    Got(Option<Vec<u8>>),
    Sized(Option<u64>),
}

fn key_path(key: u8) -> String {
    format!("obj/k{}", key % 4)
}

fn value_for(c: u8, i: usize) -> Vec<u8> {
    vec![c, i as u8, 0xA5, (i / 256) as u8]
}

fn issue_time(i: usize) -> Duration {
    STEP * (i as u32 + 1)
}

/// The per-event observation plus end-of-run state for one world.
#[derive(Debug, PartialEq)]
struct WorldOutcome {
    observed: Vec<Observed>,
    lane_ends: Vec<Duration>,
    inventory: Vec<(String, u64)>,
    clock_end: Duration,
}

fn apply(client: &AfsClient, op: OpKind, key: u8, c: u8, i: usize) -> Observed {
    match op {
        OpKind::Put => {
            client.put(&key_path(key), &value_for(c, i)).expect("put");
            Observed::Put
        }
        OpKind::Get => Observed::Got(client.get(&key_path(key)).ok()),
        OpKind::Stat => Observed::Sized(client.stat(&key_path(key)).ok().map(|s| s.size)),
    }
}

/// Serial oracle: executes the script in list order on the calling
/// thread, raising each client's lane to the event's issue time first.
fn run_serial(script: &[Event]) -> WorldOutcome {
    let server = AfsServer::new();
    let clock = SimClock::new();
    let latency = LatencyModel::paper_calibrated();
    let clients: Vec<AfsClient> = (0..CLIENTS)
        .map(|_| AfsClient::connect(&server, clock.clone(), latency))
        .collect();
    let observed = script
        .iter()
        .enumerate()
        .map(|(i, &(c, op, key))| {
            let client = &clients[c as usize % CLIENTS];
            client.lane().raise_to(issue_time(i));
            apply(client, op, key, c % CLIENTS as u8, i)
        })
        .collect();
    WorldOutcome {
        observed,
        lane_ends: clients.iter().map(|cl| cl.lane().local_now()).collect(),
        inventory: sorted_inventory(&server),
        clock_end: clock.now(),
    }
}

/// Async world: one future per client, each parking every op in the
/// reactor until its virtual issue time, on a deterministic single-thread
/// executor. Events interleave across clients purely by reactor order.
fn run_async(script: &[Event]) -> WorldOutcome {
    let server = AfsServer::new();
    let clock = SimClock::new();
    let latency = LatencyModel::paper_calibrated();
    let ex = Executor::single(clock.clone());

    let clients: Vec<Arc<AfsClient>> = (0..CLIENTS)
        .map(|_| Arc::new(AfsClient::connect(&server, clock.clone(), latency)))
        .collect();
    // Split the script into per-client (event index, op, key) streams;
    // within a client, issue times increase, so a sequential future
    // suffices.
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let events: Vec<(usize, OpKind, u8)> = script
                .iter()
                .enumerate()
                .filter(|(_, &(ec, _, _))| ec as usize % CLIENTS == c)
                .map(|(i, &(_, op, key))| (i, op, key))
                .collect();
            let (afs, timer) = (clients[c].clone(), ex.timer());
            ex.spawn(async move {
                let lane = afs.lane();
                let mut out = Vec::with_capacity(events.len());
                for (i, op, key) in events {
                    let arrival = issue_time(i);
                    timer.schedule_at(arrival.max(lane.local_now())).await;
                    lane.raise_to(arrival);
                    // Every call parks at its issue time once more, as a
                    // call of the scale harness does.
                    timer.schedule_at(lane.local_now()).await;
                    out.push((i, apply(&afs, op, key, c as u8, i)));
                }
                out
            })
        })
        .collect();
    ex.run_until_idle();

    let mut observed = vec![Observed::Put; script.len()];
    for h in &handles {
        for (i, obs) in h.try_take().expect("client future completed") {
            observed[i] = obs;
        }
    }
    WorldOutcome {
        observed,
        lane_ends: clients.iter().map(|cl| cl.lane().local_now()).collect(),
        inventory: sorted_inventory(&server),
        clock_end: clock.now(),
    }
}

fn sorted_inventory(server: &AfsServer) -> Vec<(String, u64)> {
    let mut inv = server.object_inventory();
    inv.sort();
    inv
}

fn gen_event(g: &mut nexus_testkit::Gen) -> Event {
    let c = g.usize_below(CLIENTS) as u8;
    let op = match g.usize_below(4) {
        0 | 1 => OpKind::Put,
        2 => OpKind::Get,
        _ => OpKind::Stat,
    };
    let key = g.usize_below(4) as u8;
    (c, op, key)
}

#[test]
fn async_interleaving_matches_the_serial_oracle() {
    let runner = Runner::new("exec_differential").cases(60);
    runner.run(
        |g| {
            let len = g.usize_in(1, 24);
            (0..len).map(|_| gen_event(g)).collect::<Vec<Event>>()
        },
        |script| nexus_testkit::shrink::ops(script),
        |script| {
            let serial = run_serial(script);
            let async_world = run_async(script);
            if serial != async_world {
                return Err(format!(
                    "worlds diverged for {script:?}:\n serial {serial:?}\n async  {async_world:?}"
                ));
            }
            Ok(())
        },
    );
}

#[test]
fn cross_client_write_then_read_is_causal_in_both_worlds() {
    // Pinned regression: client 0 writes key 1 at t=5ms; client 1 reads it
    // at t=10ms and must observe the write (plus its availability time)
    // identically in both worlds, because the reader's lane is raised to
    // the writer's record time before the RPC is charged.
    let script: Vec<Event> =
        vec![(0, OpKind::Put, 1), (1, OpKind::Get, 1), (2, OpKind::Stat, 1)];
    let serial = run_serial(&script);
    let async_world = run_async(&script);
    assert_eq!(serial, async_world);
    match &serial.observed[1] {
        Observed::Got(Some(v)) => assert_eq!(v, &value_for(0, 0)),
        other => panic!("reader missed the write: {other:?}"),
    }
    // The reader paid the writer-availability raise: its lane ends at or
    // after the writer's commit time plus one RPC.
    let write_done = serial.lane_ends[0];
    assert!(
        serial.lane_ends[1] >= write_done,
        "reader lane {:?} ended before writer lane {write_done:?}",
        serial.lane_ends[1]
    );
}
