//! Multi-client differential property test: N clients driving the AFS
//! stores from N threads must be observationally identical, per client,
//! to the same ops replayed serially on a single shared clock lane (the
//! pre-lane world): equal per-client `IoStats`, equal per-client simulated
//! time, equal per-slot results, and a byte-identical server inventory.
//! The concurrent world may only finish *earlier* on the shared wall clock
//! (lanes overlap; they never add work).
//!
//! Also here: the mid-batch callback-staleness regression (a break
//! delivered while another client is fetching must never let a stale
//! re-grant win) and the fetch-vs-invalidation interleaving hammer that
//! guards against reintroducing the old two-mutex deadlock shape.

use nexus_pool::ThreadPool;
use nexus_storage::afs::{AfsClient, AfsServer};
use nexus_storage::{CloudStore, LatencyModel, SimClock, StorageBackend};
use nexus_testkit::{shrink, tk_assert, tk_assert_eq, Gen, Runner};

const CLIENTS: usize = 3;
const KEYS: usize = 6;

/// Client `c`'s key `k` — hex-prefixed (spreads across shards like UUID
/// names) and disjoint between clients, so the workload is determinate
/// under any thread interleaving.
fn key(c: usize, k: usize) -> String {
    format!("{c:01x}{k:01x}client{c}-obj{k}")
}

/// One step of one client's workload, over that client's own key space.
#[derive(Debug, Clone)]
enum Op {
    Put(usize, Vec<u8>),
    Get(usize),
    PutBatch(Vec<(usize, Vec<u8>)>),
    GetBatch(Vec<usize>),
    StatBatch(Vec<usize>),
    Delete(usize),
    Flush,
}

fn gen_op(g: &mut Gen) -> Op {
    match g.usize_below(8) {
        0 | 1 => Op::Put(g.usize_below(KEYS), g.byte_vec(0, 40)),
        2 => Op::Get(g.usize_below(KEYS)),
        3 => Op::PutBatch(g.vec(1, 5, |g| (g.usize_below(KEYS), g.byte_vec(0, 32)))),
        4 => Op::GetBatch(g.vec(1, 6, |g| g.usize_below(KEYS))),
        5 => Op::StatBatch(g.vec(1, 6, |g| g.usize_below(KEYS))),
        6 => Op::Delete(g.usize_below(KEYS)),
        _ => Op::Flush,
    }
}

/// Replays one client's sequence, returning a transcript of every result.
fn apply(client: &AfsClient, c: usize, ops: &[Op]) -> Vec<String> {
    let mut transcript = Vec::with_capacity(ops.len());
    for op in ops {
        let entry = match op {
            Op::Put(k, data) => format!("{:?}", client.put(&key(c, *k), data)),
            Op::Get(k) => format!("{:?}", client.get(&key(c, *k))),
            Op::PutBatch(items) => {
                let batch: Vec<(String, Vec<u8>)> =
                    items.iter().map(|(k, d)| (key(c, *k), d.clone())).collect();
                format!("{:?}", client.put_many(&batch))
            }
            Op::GetBatch(ks) => {
                let paths: Vec<String> = ks.iter().map(|k| key(c, *k)).collect();
                format!("{:?}", client.get_many(&paths))
            }
            Op::StatBatch(ks) => {
                let paths: Vec<String> = ks.iter().map(|k| key(c, *k)).collect();
                format!("{:?}", client.stat_many(&paths))
            }
            Op::Delete(k) => format!("{:?}", client.delete(&key(c, *k))),
            Op::Flush => {
                client.flush_cache();
                "flush".to_string()
            }
        };
        transcript.push(entry);
    }
    transcript
}

fn server_contents(server: &AfsServer) -> Vec<(String, Vec<u8>)> {
    server
        .raw_store()
        .list("")
        .into_iter()
        .map(|p| {
            let data = server.raw_store().get(&p).unwrap_or_default();
            (p, data)
        })
        .collect()
}

/// Shrink candidates: drop whole clients, then shrink each client's op
/// sequence with the stateful-op shrinker (drops + adjacent reorders).
fn shrink_case(case: &Vec<Vec<Op>>) -> Vec<Vec<Vec<Op>>> {
    let mut out = shrink::vec(case);
    for (i, seq) in case.iter().enumerate() {
        for cand in shrink::ops(seq) {
            let mut smaller = case.clone();
            smaller[i] = cand;
            out.push(smaller);
        }
    }
    out
}

/// Seed regression: batches, a flush, and deletes interleaved per client,
/// so every cache path (hit, miss, purge, batch re-fill) runs in both
/// worlds.
fn mixed_regression() -> Vec<Vec<Op>> {
    vec![
        vec![
            Op::PutBatch(vec![(0, b"aaa".to_vec()), (1, b"bb".to_vec())]),
            Op::Flush,
            Op::GetBatch(vec![0, 1, 2]),
            Op::Delete(0),
            Op::StatBatch(vec![0, 1]),
        ],
        vec![
            Op::Put(0, b"solo".to_vec()),
            Op::Get(0),
            Op::Delete(5),
            Op::GetBatch(vec![0, 0]),
        ],
        vec![Op::StatBatch(vec![3]), Op::Put(3, Vec::new()), Op::Get(3)],
    ]
}

#[test]
fn n_client_concurrent_world_matches_serial_single_lane_world() {
    Runner::new("mclient_differential")
        .cases(25)
        .regression(mixed_regression())
        .run(
            |g| (0..CLIENTS).map(|_| g.vec(0, 8, gen_op)).collect::<Vec<_>>(),
            |case| shrink_case(case),
            |case| {
                // Serial world: every client charges one shared lane, ops
                // replayed one client at a time on one thread — the
                // observable behavior of the old single-lock, single-channel
                // stores.
                let serial_server = AfsServer::new();
                let serial_clock = SimClock::new();
                let shared_lane = serial_clock.lane();
                let serial_clients: Vec<AfsClient> = (0..CLIENTS)
                    .map(|_| {
                        AfsClient::connect_on_lane(
                            &serial_server,
                            shared_lane.clone(),
                            LatencyModel::default(),
                        )
                    })
                    .collect();
                let serial_out: Vec<Vec<String>> = case
                    .iter()
                    .enumerate()
                    .map(|(i, ops)| apply(&serial_clients[i], i, ops))
                    .collect();

                // Concurrent world: per-client lanes, real threads.
                let conc_server = AfsServer::new();
                let conc_clock = SimClock::new();
                let conc_clients: Vec<AfsClient> = (0..CLIENTS)
                    .map(|_| {
                        AfsClient::connect(&conc_server, conc_clock.clone(), LatencyModel::default())
                    })
                    .collect();
                let pool = ThreadPool::new(CLIENTS);
                let conc_out = pool.par_map_indexed(case, |i, ops| {
                    apply(&conc_clients[i], i, ops)
                });

                for i in 0..CLIENTS {
                    tk_assert_eq!(conc_out[i], serial_out[i], "client {i} transcript diverged");
                    tk_assert_eq!(
                        conc_clients[i].stats(),
                        serial_clients[i].stats(),
                        "client {i} IoStats diverged"
                    );
                    tk_assert_eq!(
                        conc_clients[i].simulated_time(),
                        serial_clients[i].simulated_time(),
                        "client {i} simulated time diverged"
                    );
                }
                tk_assert_eq!(
                    server_contents(&conc_server),
                    server_contents(&serial_server),
                    "server inventories diverged"
                );
                // Lanes overlap: the concurrent wall clock is the slowest
                // client, the serial wall clock is the sum of all of them.
                tk_assert!(
                    conc_clock.now() <= serial_clock.now(),
                    "concurrent wall {:?} exceeded serial wall {:?}",
                    conc_clock.now(),
                    serial_clock.now()
                );
                Ok(())
            },
        );
}

#[test]
fn callback_break_mid_batch_never_yields_stale_reads() {
    // A writer streams generation-uniform batches over a shared path set
    // while a reader fetches concurrently. Every fetched object must be
    // internally uniform (no torn batch), generations must be monotonic
    // per path from the reader's point of view, and — the regression — a
    // read after the writer finished must see the final generation: the
    // last callback break can never lose to a stale re-grant from an
    // in-flight fetch.
    let server = AfsServer::new();
    let clock = SimClock::new();
    let writer = AfsClient::connect(&server, clock.clone(), LatencyModel::instant());
    let reader = AfsClient::connect(&server, clock, LatencyModel::instant());
    let paths: Vec<String> = (0..4).map(|i| format!("{i:x}0shared{i}")).collect();
    let initial: Vec<(String, Vec<u8>)> =
        paths.iter().map(|p| (p.clone(), vec![1u8; 32])).collect();
    writer.put_many(&initial);

    const LAST_GEN: u8 = 120;
    std::thread::scope(|s| {
        s.spawn(|| {
            for generation in 2..=LAST_GEN {
                let items: Vec<(String, Vec<u8>)> =
                    paths.iter().map(|p| (p.clone(), vec![generation; 32])).collect();
                writer.put_many(&items);
            }
        });
        s.spawn(|| {
            let mut last_seen = vec![1u8; paths.len()];
            for _ in 0..300 {
                for (i, p) in paths.iter().enumerate() {
                    let data = reader.get(p).unwrap();
                    let generation = data[0];
                    assert!(
                        data.iter().all(|&b| b == generation),
                        "torn object: mixed generations within one fetch"
                    );
                    assert!(
                        generation >= last_seen[i],
                        "stale read on {p}: generation {generation} after {}",
                        last_seen[i]
                    );
                    last_seen[i] = generation;
                }
            }
        });
    });

    for p in &paths {
        assert_eq!(
            reader.get(p).unwrap(),
            vec![LAST_GEN; 32],
            "{p}: read after the final break returned a stale generation"
        );
    }
}

#[test]
fn fetch_and_invalidation_paths_cannot_deadlock() {
    // The old client held separate cache and accounting mutexes acquired
    // in different orders by the fetch and invalidation paths. The one
    // cache lock plus the no-guard-across-server-calls rule makes a lock
    // cycle impossible; this hammer interleaves every such path (hit,
    // miss, purge-on-broken-callback, rename's move, flush)
    // from two threads and must simply terminate.
    let server = AfsServer::new();
    let clock = SimClock::new();
    let a = AfsClient::connect(&server, clock.clone(), LatencyModel::instant());
    let b = AfsClient::connect(&server, clock, LatencyModel::instant());
    let hot = "00hot-object";
    let cold = "ff-other-shard";
    a.put(hot, b"seed").unwrap();
    a.put(cold, b"seed").unwrap();

    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..2000u32 {
                let _ = a.get(hot);
                let _ = a.stat(cold);
                let _ = a.get_many(&[hot.to_string(), cold.to_string()]);
                if i % 64 == 0 {
                    a.flush_cache();
                }
            }
        });
        s.spawn(|| {
            for i in 0..2000u32 {
                b.put(hot, &i.to_le_bytes()).unwrap();
                if i % 16 == 0 {
                    let _ = b.rename_object(cold, "0e-renamed");
                    let _ = b.rename_object("0e-renamed", cold);
                }
                if i % 128 == 0 {
                    let _ = b.delete(hot);
                    b.put(hot, b"reborn").unwrap();
                }
            }
        });
    });

    assert!(a.get(hot).is_ok());
    assert!(b.get(cold).is_ok());
}

#[test]
fn cloud_billing_sums_exactly_across_threads() {
    // Billing counters are lock-free; N handles on disjoint paths must
    // still meter every request exactly.
    let store = CloudStore::new(SimClock::new());
    const THREADS: usize = 4;
    const PER: usize = 50;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let handle = store.clone();
            s.spawn(move || {
                for i in 0..PER {
                    let path = format!("{t:x}{i:02x}blob");
                    handle.put(&path, &[t as u8; 100]).unwrap();
                    assert_eq!(handle.get(&path).unwrap(), vec![t as u8; 100]);
                    handle.stat(&path).unwrap();
                }
            });
        }
    });
    let billing = store.billing();
    assert_eq!(billing.put_requests, (THREADS * PER) as u64);
    assert_eq!(billing.get_requests, (THREADS * PER * 2) as u64, "GETs + HEAD-class stats");
    assert_eq!(billing.ingress_bytes, (THREADS * PER * 100) as u64);
    assert_eq!(billing.egress_bytes, (THREADS * PER * 100) as u64);
    let stats = store.stats();
    assert_eq!(stats.writes, (THREADS * PER) as u64);
    assert_eq!(stats.reads, (THREADS * PER) as u64);
}
