//! Async adapters for the simulated storage backends.
//!
//! The storage simulators are synchronous: an RPC advances the caller's
//! [`ClockLane`] by its modelled cost and returns. What makes them *async*
//! here is ordering, not blocking — before each operation the adapter
//! parks the task in the executor's reactor at the lane's local time
//! ([`Timer::schedule_at`]), so operations from thousands of clients
//! execute in global issue-time order while their RPC costs overlap in
//! simulated time (each lane advances privately; the shared clock reads
//! the max).
//!
//! [`AsyncStorage`] wraps any backend that exposes its lane
//! ([`LaneBackend`]: the AFS client and the cloud simulator); the batched
//! RPC surface (`get_many`/`put_many`/`stat_many`) is forwarded with the
//! same park-then-issue discipline, charging one batched RPC per call.

use std::sync::Arc;
use std::time::Duration;

use nexus_storage::afs::AfsClient;
use nexus_storage::cloud::CloudStore;
use nexus_storage::{ClockLane, ObjectStat, StorageBackend, StorageError};

use crate::Timer;

/// A storage backend whose RPC costs are charged to a per-client lane.
pub trait LaneBackend: StorageBackend {
    /// The clock channel this backend charges RPC time to.
    fn io_lane(&self) -> &ClockLane;
}

impl LaneBackend for AfsClient {
    fn io_lane(&self) -> &ClockLane {
        self.lane()
    }
}

impl LaneBackend for CloudStore {
    fn io_lane(&self) -> &ClockLane {
        self.lane()
    }
}

/// An async handle over a lane-charging storage backend.
pub struct AsyncStorage<B: LaneBackend> {
    backend: Arc<B>,
    timer: Timer,
}

impl<B: LaneBackend> Clone for AsyncStorage<B> {
    fn clone(&self) -> Self {
        AsyncStorage { backend: self.backend.clone(), timer: self.timer.clone() }
    }
}

impl<B: LaneBackend> AsyncStorage<B> {
    /// Wraps `backend`, parking each operation on `timer`'s reactor.
    pub fn new(backend: Arc<B>, timer: Timer) -> AsyncStorage<B> {
        AsyncStorage { backend, timer }
    }

    /// The wrapped synchronous backend.
    pub fn backend(&self) -> &Arc<B> {
        &self.backend
    }

    /// This client's lane-local virtual time.
    pub fn local_now(&self) -> Duration {
        self.backend.io_lane().local_now()
    }

    /// Parks until every operation issued earlier (on any client) has
    /// executed, then returns with the task ordered at this lane's time.
    async fn turn(&self) {
        self.timer.schedule_at(self.backend.io_lane().local_now()).await;
    }

    /// Parks until `arrival`, raising the lane there — an open-loop
    /// arrival: the connection is idle until its scheduled request time.
    pub async fn begin_at(&self, arrival: Duration) {
        let at = arrival.max(self.backend.io_lane().local_now());
        self.timer.schedule_at(at).await;
        self.backend.io_lane().raise_to(arrival);
    }

    /// Async `get`: park at issue time, then fetch (lane pays the cost).
    pub async fn get(&self, path: &str) -> Result<Vec<u8>, StorageError> {
        self.turn().await;
        self.backend.get(path)
    }

    /// Async `put`.
    pub async fn put(&self, path: &str, data: &[u8]) -> Result<(), StorageError> {
        self.turn().await;
        self.backend.put(path, data)
    }

    /// Async `stat`.
    pub async fn stat(&self, path: &str) -> Result<ObjectStat, StorageError> {
        self.turn().await;
        self.backend.stat(path)
    }

    /// Async `delete`.
    pub async fn delete(&self, path: &str) -> Result<(), StorageError> {
        self.turn().await;
        self.backend.delete(path)
    }

    /// Async `exists`.
    pub async fn exists(&self, path: &str) -> bool {
        self.turn().await;
        self.backend.exists(path)
    }

    /// Async batched fetch: one batched RPC for the whole set.
    pub async fn get_many(&self, paths: &[String]) -> Vec<Result<Vec<u8>, StorageError>> {
        self.turn().await;
        self.backend.get_many(paths)
    }

    /// Async batched store: one batched RPC for the whole set.
    pub async fn put_many(&self, items: &[(String, Vec<u8>)]) -> Vec<Result<(), StorageError>> {
        self.turn().await;
        self.backend.put_many(items)
    }

    /// Async batched stat: one batched RPC for the whole set.
    pub async fn stat_many(&self, paths: &[String]) -> Vec<Result<ObjectStat, StorageError>> {
        self.turn().await;
        self.backend.stat_many(paths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Executor;
    use nexus_storage::afs::AfsServer;
    use nexus_storage::{LatencyModel, SimClock};

    #[test]
    fn rpcs_from_different_clients_overlap_in_simulated_time() {
        let server = AfsServer::new();
        let clock = SimClock::new();
        let latency = LatencyModel::paper_calibrated();
        let ex = Executor::single(clock.clone());
        let per_op = latency.rpc_cost(16);
        let n = 50usize;
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let afs = AsyncStorage::new(
                    Arc::new(AfsClient::connect(&server, clock.clone(), latency)),
                    ex.timer(),
                );
                ex.spawn(async move {
                    for k in 0..4 {
                        afs.put(&format!("c{i}/o{k}"), &[i as u8; 16]).await.expect("put");
                    }
                    afs.local_now()
                })
            })
            .collect();
        let makespan = ex.run_until_idle();
        // Every client paid 4 ops on its own lane...
        for h in &handles {
            assert_eq!(h.try_take().expect("done"), per_op * 4);
        }
        // ...but the round's makespan is one client's work, not the sum:
        // 50 clients' RPCs overlapped in simulated time.
        assert_eq!(makespan, per_op * 4);
    }

    #[test]
    fn cross_client_read_after_write_sees_the_writers_time() {
        let server = AfsServer::new();
        let clock = SimClock::new();
        let latency = LatencyModel::paper_calibrated();
        let ex = Executor::single(clock.clone());
        let writer = AsyncStorage::new(
            Arc::new(AfsClient::connect(&server, clock.clone(), latency)),
            ex.timer(),
        );
        let reader = AsyncStorage::new(
            Arc::new(AfsClient::connect(&server, clock.clone(), latency)),
            ex.timer(),
        );
        let write_done = latency.rpc_cost(64);
        let h = ex.spawn(async move {
            writer.put("shared/x", &[7u8; 64]).await.expect("put");
            // Reader issues strictly after the write completes.
            reader.begin_at(writer.local_now()).await;
            let data = reader.get("shared/x").await.expect("get");
            (data, reader.local_now())
        });
        ex.run_until_idle();
        let (data, reader_time) = h.try_take().expect("done");
        assert_eq!(data, vec![7u8; 64]);
        // The happens-before edge: the reader's lane is at least the
        // writer's completion plus its own fetch cost.
        assert!(reader_time >= write_done + latency.rpc_cost(64));
    }

    #[test]
    fn cloud_store_adapts_too() {
        let clock = SimClock::new();
        let ex = Executor::single(clock.clone());
        let cloud = AsyncStorage::new(
            Arc::new(CloudStore::new(clock.clone())),
            ex.timer(),
        );
        let h = ex.spawn(async move {
            cloud.put("bucket/obj", b"payload").await.expect("put");
            cloud.get("bucket/obj").await.expect("get")
        });
        ex.run_until_idle();
        assert_eq!(h.try_take().expect("done"), b"payload".to_vec());
    }

    #[test]
    fn batched_ops_charge_one_rpc() {
        let server = AfsServer::new();
        let clock = SimClock::new();
        let latency = LatencyModel::paper_calibrated();
        let ex = Executor::single(clock.clone());
        let client = Arc::new(AfsClient::connect(&server, clock.clone(), latency));
        let afs = AsyncStorage::new(client.clone(), ex.timer());
        let h = ex.spawn(async move {
            let items: Vec<(String, Vec<u8>)> =
                (0..8).map(|k| (format!("b/{k}"), vec![k as u8; 32])).collect();
            for r in afs.put_many(&items).await {
                r.expect("put_many");
            }
            afs.local_now()
        });
        ex.run_until_idle();
        let elapsed = h.try_take().expect("done");
        assert_eq!(elapsed, latency.batch_rpc_cost(8, 8 * 32));
        assert_eq!(client.stats().remote_rpcs, 1);
    }
}
