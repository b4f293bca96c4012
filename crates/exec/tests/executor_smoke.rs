//! End-to-end executor smoke test, one of the gate suites
//! `tests/repo_audit.rs` requires to exist: deleting this suite fails the
//! gate loudly instead of silently shrinking coverage.
//!
//! One compact scenario exercises the whole stack: many simulated clients
//! multiplexed over the one driver thread, reactor wakeups in virtual
//! time, and each client parking at its lane's time before every call so
//! that the clients' RPCs overlap in simulated time.

use std::sync::Arc;

use nexus_exec::Executor;
use nexus_storage::afs::{AfsClient, AfsServer};
use nexus_storage::{LatencyModel, SimClock, StorageBackend};

#[test]
fn two_thousand_clients_on_one_thread() {
    let server = AfsServer::new();
    let clock = SimClock::new();
    let latency = LatencyModel::paper_calibrated();
    let ex = Executor::single(clock.clone());

    const CLIENTS: usize = 2000;
    const OPS: usize = 3;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let afs = Arc::new(AfsClient::connect(&server, clock.clone(), latency));
            let timer = ex.timer();
            ex.spawn(async move {
                let lane = afs.lane();
                for k in 0..OPS {
                    timer.schedule_at(lane.local_now()).await;
                    afs.put(&format!("c{c}/o{k}"), &[c as u8; 24]).expect("put");
                }
                timer.schedule_at(lane.local_now()).await;
                let back = afs.get(&format!("c{c}/o0")).expect("get");
                assert_eq!(back, vec![c as u8; 24]);
                lane.local_now()
            })
        })
        .collect();
    let makespan = ex.run_until_idle();

    // Every client finished all its ops...
    let per_client = latency.rpc_cost(24) * OPS as u32 + latency.cache_hit;
    for h in &handles {
        assert_eq!(h.try_take().expect("client completed"), per_client);
    }
    // ...yet the simulated makespan is ONE client's work: 2000 in-flight
    // connections overlapped, which is the whole point of the executor.
    assert_eq!(makespan, per_client);
    // And the server really holds every object.
    assert_eq!(server.object_inventory().len(), CLIENTS * OPS);
    assert!(server.raw_store().exists("c0/o0"));
}
