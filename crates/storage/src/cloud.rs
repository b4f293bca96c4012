//! A simulated cloud object store (S3-style).
//!
//! The paper's portability claim (§IV) is that NEXUS runs over anything
//! with a file-access API, "including object-based storage services". This
//! backend models one: WAN latencies, per-request billing classes, **no
//! server-side locking primitive** (advisory locks are emulated with
//! create-if-absent lock objects, the standard object-store idiom), and no
//! client-side caching beyond what NEXUS itself provides.
//!
//! Because every NEXUS object is self-contained and named by UUID, the same
//! volume code runs unchanged here — the `portability` benchmark quantifies
//! the latency/request-cost consequences.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::backend::{AtomicIoStats, IoStats, ObjectStat, StorageBackend, StorageError};
use crate::clock::{ClockLane, LatencyModel, SimClock};
use crate::mem::MemBackend;

impl LatencyModel {
    /// A WAN model for a public cloud object store: ~15 ms request RTT,
    /// ~40 MiB/s sustained single-stream transfer.
    pub fn cloud_wan() -> LatencyModel {
        LatencyModel {
            rpc_rtt: Duration::from_millis(15),
            bandwidth_bytes_per_sec: 40 * 1024 * 1024,
            lock_overhead: Duration::from_millis(15),
            cache_hit: Duration::from_micros(30),
            server_disk: Duration::from_millis(2),
        }
    }
}

/// Request counters in the billing classes cloud providers meter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CloudBilling {
    /// PUT/POST-class requests.
    pub put_requests: u64,
    /// GET-class requests.
    pub get_requests: u64,
    /// LIST-class requests.
    pub list_requests: u64,
    /// DELETE-class requests (typically free, still counted).
    pub delete_requests: u64,
    /// Bytes uploaded.
    pub ingress_bytes: u64,
    /// Bytes downloaded (the expensive direction).
    pub egress_bytes: u64,
}

impl CloudBilling {
    /// Estimated monthly-style cost in US dollars under public list prices
    /// (defaults: $5/1M PUT, $0.4/1M GET, $0.09/GB egress — the shape, not
    /// a quote).
    pub fn estimated_cost_usd(&self) -> f64 {
        let puts = self.put_requests as f64 * 5.0 / 1_000_000.0;
        let gets = (self.get_requests + self.list_requests) as f64 * 0.4 / 1_000_000.0;
        let egress = self.egress_bytes as f64 * 0.09 / 1_000_000_000.0;
        puts + gets + egress
    }
}

/// Lock-free billing counters (request metering happens on every RPC, so
/// a billing mutex would serialize otherwise-independent WAN requests).
#[derive(Debug, Default)]
struct AtomicCloudBilling {
    put_requests: AtomicU64,
    get_requests: AtomicU64,
    list_requests: AtomicU64,
    delete_requests: AtomicU64,
    ingress_bytes: AtomicU64,
    egress_bytes: AtomicU64,
}

impl AtomicCloudBilling {
    fn snapshot(&self) -> CloudBilling {
        CloudBilling {
            put_requests: self.put_requests.load(Ordering::Relaxed),
            get_requests: self.get_requests.load(Ordering::Relaxed),
            list_requests: self.list_requests.load(Ordering::Relaxed),
            delete_requests: self.delete_requests.load(Ordering::Relaxed),
            ingress_bytes: self.ingress_bytes.load(Ordering::Relaxed),
            egress_bytes: self.egress_bytes.load(Ordering::Relaxed),
        }
    }
}

/// A simulated S3-style bucket; cheap to clone and share.
///
/// All request metering is lock-free and RPC time is charged to the
/// store handle's [`ClockLane`], so independent handles on the same
/// [`SimClock`] overlap their round trips in simulated time (clones share
/// one lane and therefore serialize, like one client connection).
#[derive(Clone)]
pub struct CloudStore {
    objects: MemBackend,
    lane: ClockLane,
    latency: LatencyModel,
    billing: Arc<AtomicCloudBilling>,
    stats: Arc<AtomicIoStats>,
    simulated_nanos: Arc<AtomicU64>,
}

impl std::fmt::Debug for CloudStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudStore").field("billing", &self.billing.snapshot()).finish()
    }
}

impl CloudStore {
    /// Creates an empty bucket on the given clock with WAN latencies.
    pub fn new(clock: SimClock) -> CloudStore {
        CloudStore::with_latency(clock, LatencyModel::cloud_wan())
    }

    /// Creates a bucket with a custom latency model.
    pub fn with_latency(clock: SimClock, latency: LatencyModel) -> CloudStore {
        CloudStore {
            objects: MemBackend::new(),
            lane: clock.lane(),
            latency,
            billing: Arc::new(AtomicCloudBilling::default()),
            stats: Arc::new(AtomicIoStats::default()),
            simulated_nanos: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Accumulated billing counters.
    pub fn billing(&self) -> CloudBilling {
        self.billing.snapshot()
    }

    /// The clock channel this store handle charges RPC time to.
    pub fn lane(&self) -> &ClockLane {
        &self.lane
    }

    fn charge(&self, bytes: usize) {
        let cost = self.latency.rpc_cost(bytes);
        self.lane.advance(cost);
        self.simulated_nanos.fetch_add(cost.as_nanos() as u64, Ordering::Relaxed);
        self.stats.remote_rpcs.fetch_add(1, Ordering::Relaxed);
    }

    /// One batched round trip over `objects` objects moving `bytes` total.
    fn charge_batch(&self, objects: usize, bytes: usize) {
        if objects == 0 {
            return;
        }
        let cost = self.latency.batch_rpc_cost(objects, bytes);
        self.lane.advance(cost);
        self.simulated_nanos.fetch_add(cost.as_nanos() as u64, Ordering::Relaxed);
        self.stats.remote_rpcs.fetch_add(1, Ordering::Relaxed);
    }

    fn lock_object(path: &str) -> String {
        format!("{path}.lock")
    }
}

impl StorageBackend for CloudStore {
    fn put(&self, path: &str, data: &[u8]) -> Result<(), StorageError> {
        self.objects.put(path, data)?;
        self.charge(data.len());
        self.billing.put_requests.fetch_add(1, Ordering::Relaxed);
        self.billing.ingress_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        self.stats.count_write(data.len() as u64);
        Ok(())
    }

    fn get(&self, path: &str) -> Result<Vec<u8>, StorageError> {
        let data = self.objects.get(path)?;
        self.charge(data.len());
        self.billing.get_requests.fetch_add(1, Ordering::Relaxed);
        self.billing.egress_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        self.stats.count_read(data.len() as u64);
        Ok(data)
    }

    fn get_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>, StorageError> {
        // Object stores support ranged GETs natively.
        let data = self.objects.get_range(path, offset, len)?;
        self.charge(data.len());
        self.billing.get_requests.fetch_add(1, Ordering::Relaxed);
        self.billing.egress_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        self.stats.count_read(len);
        Ok(data)
    }

    fn delete(&self, path: &str) -> Result<(), StorageError> {
        self.objects.delete(path)?;
        self.charge(0);
        self.billing.delete_requests.fetch_add(1, Ordering::Relaxed);
        self.stats.deletes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn exists(&self, path: &str) -> bool {
        self.charge(0);
        self.billing.get_requests.fetch_add(1, Ordering::Relaxed); // HEAD bills as GET-class
        self.objects.exists(path)
    }

    fn stat(&self, path: &str) -> Result<ObjectStat, StorageError> {
        self.charge(0);
        self.billing.get_requests.fetch_add(1, Ordering::Relaxed);
        self.objects.stat(path)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        let names = self.objects.list(prefix);
        self.charge(names.iter().map(|n| n.len() + 64).sum());
        self.billing.list_requests.fetch_add(1, Ordering::Relaxed);
        names
    }

    fn lock(&self, path: &str, owner: u64) -> Result<(), StorageError> {
        // Object stores have no flock: emulate with create-if-absent lock
        // objects (conditional PUT). One request either way.
        let lock_path = Self::lock_object(path);
        self.charge(16);
        self.billing.put_requests.fetch_add(1, Ordering::Relaxed);
        self.stats.locks.fetch_add(1, Ordering::Relaxed);
        let owner_bytes = owner.to_le_bytes();
        if self.objects.exists(&lock_path) {
            let holder = self.objects.get(&lock_path).unwrap_or_default();
            if holder != owner_bytes {
                return Err(StorageError::LockContended(path.to_string()));
            }
            return Ok(());
        }
        self.objects.put(&lock_path, &owner_bytes)
    }

    fn unlock(&self, path: &str, owner: u64) {
        let lock_path = Self::lock_object(path);
        if let Ok(holder) = self.objects.get(&lock_path) {
            if holder == owner.to_le_bytes() {
                let _ = self.objects.delete(&lock_path);
                self.charge(0);
                self.billing.delete_requests.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn get_many(&self, paths: &[String]) -> Vec<Result<Vec<u8>, StorageError>> {
        // A multi-object GET: one round trip, per-object billing (the
        // provider still meters GET-class requests per key), per-object
        // disk service and summed egress in the latency model.
        if paths.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(paths.len());
        let mut total_bytes = 0usize;
        let mut served = 0usize;
        for path in paths {
            match self.objects.get(path) {
                Ok(data) => {
                    total_bytes += data.len();
                    served += 1;
                    self.billing.get_requests.fetch_add(1, Ordering::Relaxed);
                    self.billing.egress_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
                    self.stats.count_read(data.len() as u64);
                    out.push(Ok(data));
                }
                Err(e) => out.push(Err(e)),
            }
        }
        // Missing keys are free in the serial path (no payload, no billing),
        // so only the served objects make up the batched round trip.
        self.charge_batch(served, total_bytes);
        out
    }

    fn put_many(&self, items: &[(String, Vec<u8>)]) -> Vec<Result<(), StorageError>> {
        if items.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(items.len());
        let mut total_bytes = 0usize;
        let mut served = 0usize;
        for (path, data) in items {
            match self.objects.put(path, data) {
                Ok(()) => {
                    total_bytes += data.len();
                    served += 1;
                    self.billing.put_requests.fetch_add(1, Ordering::Relaxed);
                    self.billing.ingress_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
                    self.stats.count_write(data.len() as u64);
                    out.push(Ok(()));
                }
                Err(e) => out.push(Err(e)),
            }
        }
        // Rejected writes are free in the serial path, so only accepted
        // objects make up the batched round trip.
        self.charge_batch(served, total_bytes);
        out
    }

    fn stat_many(&self, paths: &[String]) -> Vec<Result<ObjectStat, StorageError>> {
        if paths.is_empty() {
            return Vec::new();
        }
        // Serial `stat` bills a HEAD whether or not the key exists; the
        // batch keeps that per-key billing.
        self.billing.get_requests.fetch_add(paths.len() as u64, Ordering::Relaxed);
        let out = paths.iter().map(|p| self.objects.stat(p)).collect();
        self.charge_batch(paths.len(), 0);
        out
    }

    fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }

    fn simulated_time(&self) -> Duration {
        Duration::from_nanos(self.simulated_nanos.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> (CloudStore, SimClock) {
        let clock = SimClock::new();
        (CloudStore::new(clock.clone()), clock)
    }

    #[test]
    fn put_get_roundtrip_with_billing() {
        let (s, _) = store();
        s.put("obj", b"hello").unwrap();
        assert_eq!(s.get("obj").unwrap(), b"hello");
        let billing = s.billing();
        assert_eq!(billing.put_requests, 1);
        assert_eq!(billing.get_requests, 1);
        assert_eq!(billing.ingress_bytes, 5);
        assert_eq!(billing.egress_bytes, 5);
    }

    #[test]
    fn wan_latency_is_charged() {
        let (s, clock) = store();
        s.put("obj", &vec![0u8; 4 * 1024 * 1024]).unwrap();
        // 15 ms RTT + 4 MiB at 40 MiB/s = ~115 ms.
        assert!(clock.now() > Duration::from_millis(100), "{:?}", clock.now());
    }

    #[test]
    fn ranged_get_bills_only_the_range() {
        let (s, _) = store();
        s.put("obj", &vec![0u8; 100_000]).unwrap();
        s.get_range("obj", 50, 100).unwrap();
        assert_eq!(s.billing().egress_bytes, 100);
    }

    #[test]
    fn locks_emulated_with_lock_objects() {
        let (s, _) = store();
        s.lock("meta", 1).unwrap();
        s.lock("meta", 1).unwrap(); // reentrant per owner
        assert!(matches!(s.lock("meta", 2), Err(StorageError::LockContended(_))));
        s.unlock("meta", 2); // not the holder: no-op
        assert!(s.lock("meta", 2).is_err());
        s.unlock("meta", 1);
        s.lock("meta", 2).unwrap();
    }

    #[test]
    fn lock_objects_do_not_pollute_listings_of_uuid_prefixes() {
        let (s, _) = store();
        s.put("aabbccdd", b"x").unwrap();
        s.lock("aabbccdd", 1).unwrap();
        let names = s.list("aabbccdd");
        assert!(names.contains(&"aabbccdd".to_string()));
        assert!(names.contains(&"aabbccdd.lock".to_string()));
        // NEXUS object names are exactly 32 hex chars; `.lock` suffixed
        // names are ignored by fsck/gc (not valid UUID names).
    }

    #[test]
    fn batched_ops_bill_per_object_but_rpc_once() {
        let (s, _) = store();
        let items: Vec<(String, Vec<u8>)> =
            (0..5).map(|i| (format!("o{i}"), vec![i as u8; 100])).collect();
        let out = s.put_many(&items);
        assert!(out.iter().all(|r| r.is_ok()));
        assert_eq!(s.stats().remote_rpcs, 1, "one batched PUT round trip");
        assert_eq!(s.billing().put_requests, 5, "provider still meters per key");
        assert_eq!(s.billing().ingress_bytes, 500);

        let paths: Vec<String> = (0..5).map(|i| format!("o{i}")).collect();
        let out = s.get_many(&paths);
        assert!(out.iter().all(|r| r.is_ok()));
        assert_eq!(s.stats().remote_rpcs, 2);
        assert_eq!(s.billing().get_requests, 5);
        assert_eq!(s.billing().egress_bytes, 500);
    }

    #[test]
    fn batched_get_latency_beats_serial_wan() {
        let clock = SimClock::new();
        let serial = CloudStore::new(clock.clone());
        let batched = CloudStore::new(clock);
        for i in 0..10 {
            serial.put(&format!("k{i}"), &[0u8; 64]).unwrap();
            batched.put(&format!("k{i}"), &[0u8; 64]).unwrap();
        }
        let t_serial = serial.simulated_time();
        let t_batched = batched.simulated_time();
        let paths: Vec<String> = (0..10).map(|i| format!("k{i}")).collect();
        for p in &paths {
            serial.get(p).unwrap();
        }
        batched.get_many(&paths);
        let serial_cost = serial.simulated_time() - t_serial;
        let batched_cost = batched.simulated_time() - t_batched;
        // 10 WAN RTTs collapse to 1; only the per-object disk term scales.
        assert!(batched_cost * 4 < serial_cost, "{batched_cost:?} vs {serial_cost:?}");
    }

    #[test]
    fn cost_estimate_shape() {
        let billing = CloudBilling {
            put_requests: 1_000_000,
            get_requests: 1_000_000,
            list_requests: 0,
            delete_requests: 0,
            ingress_bytes: 0,
            egress_bytes: 1_000_000_000,
        };
        let cost = billing.estimated_cost_usd();
        assert!((cost - (5.0 + 0.4 + 0.09)).abs() < 1e-9);
    }
}
