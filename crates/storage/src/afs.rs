//! A simulated AFS-like distributed filesystem.
//!
//! Models the properties of OpenAFS that drive the paper's evaluation:
//!
//! - **Whole-file caching with callbacks**: a client that fetched an object
//!   holds a *callback promise*; until another client updates the object,
//!   re-reads are served locally. Updates break other clients' callbacks.
//! - **Open-to-close semantics**: NEXUS writes whole objects, which the
//!   client pushes to the server synchronously (the flush at `close()`).
//! - **Server-side advisory locks** (`flock`), which NEXUS takes around
//!   metadata updates (§V-A).
//! - **A latency model on a virtual clock**: every RPC advances the shared
//!   [`SimClock`] by an RTT plus a bandwidth term, so benchmark harnesses
//!   measure simulated network time without sleeping.
//!
//! Concurrency model (DESIGN.md §10): a callback promise is one shared
//! cell per path ([`Promise`]: a generation and the path's last write
//! time), held by the server and by every client that caches the path.
//! Breaking the promise bumps its generation; a client's cached copy is
//! valid while the cell still reads the generation it was granted, so a
//! cache hit asks the server nothing. The server's path → cell map is one
//! lock, its object store ([`MemBackend`]) another, each client's cache one
//! lock of its own (one client's cache serves one enclave at a time), and
//! per-client accounting lock-free atomics. Each client charges RPC costs
//! to its own [`ClockLane`]; the shared clock reads the *maximum* over
//! lanes, so independent clients' round trips overlap in simulated time.
//! A fetch reads the object and the generation it grants under the map
//! lock, and a store writes the object and bumps the generation under the
//! same lock (`fetch_with_callback`/`put_with_callback`), so a fetch whose
//! bytes a writer has already replaced carries a generation the writer
//! already broke and is never served again. Lock order is always server
//! map → store; the client cache lock is never held across a server call.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nexus_sync::Mutex;

use crate::backend::{AtomicIoStats, IoStats, ObjectStat, StorageBackend, StorageError};
use crate::clock::{ClockLane, LatencyModel, SimClock};
use crate::mem::MemBackend;

/// One path's callback promise, shared by the server and every client
/// caching the path. A cell stays in the server's map for the server's
/// lifetime, so a path's write time outlives a delete as it always has.
#[derive(Debug, Default)]
struct Promise {
    /// Bumped by every break; a copy granted under an older value is stale.
    gen: AtomicU64,
    /// Latest writer-lane nanosecond the object became available (the
    /// happens-before edge handed to later readers on other lanes).
    write_nanos: AtomicU64,
}

impl Promise {
    fn write_time(&self) -> Duration {
        Duration::from_nanos(self.write_nanos.load(Ordering::Acquire))
    }

    /// Records that the object finished being written at writer-lane time
    /// `at` (monotonic).
    fn record_write(&self, at: Duration) {
        let nanos = u64::try_from(at.as_nanos()).unwrap_or(u64::MAX);
        self.write_nanos.fetch_max(nanos, Ordering::AcqRel);
    }
}

/// A granted promise: the path's cell and the generation granted.
type Grant = (Arc<Promise>, u64);

/// The shared AFS file server.
///
/// Clone handles refer to the same server state. Server contents are plain
/// objects; from the server's point of view NEXUS data is opaque ciphertext.
#[derive(Debug, Clone, Default)]
pub struct AfsServer {
    store: MemBackend,
    /// path → its callback promise.
    promises: Arc<Mutex<HashMap<String, Arc<Promise>>>>,
    next_client_id: Arc<AtomicU64>,
}

impl AfsServer {
    /// Creates an empty server.
    pub fn new() -> AfsServer {
        AfsServer::default()
    }

    /// Direct access to the server's object store (the attacker's view; also
    /// used by adversarial wrappers).
    pub fn raw_store(&self) -> &MemBackend {
        &self.store
    }

    /// Registers a new client and returns its id.
    fn register_client(&self) -> u64 {
        self.next_client_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// `path`'s cell, made on first use.
    fn cell(promises: &mut HashMap<String, Arc<Promise>>, path: &str) -> Arc<Promise> {
        match promises.get(path) {
            Some(cell) => cell.clone(),
            None => promises.entry(path.to_string()).or_default().clone(),
        }
    }

    /// Breaks every callback on `path`, the caller's included.
    fn break_callbacks(&self, path: &str) {
        if let Some(cell) = self.promises.lock().get(path) {
            cell.gen.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Atomic server-side FetchData: reads the object and grants the
    /// caller a promise under the map lock, so a concurrent writer's break
    /// either happens entirely before (the caller reads the new bytes) or
    /// entirely after (the caller's generation is already stale and the
    /// next read refetches). Returns the data, its version, the grant, and
    /// the writer-lane time the data became available.
    fn fetch_with_callback(
        &self,
        path: &str,
    ) -> Result<(Arc<Vec<u8>>, u64, Grant, Duration), StorageError> {
        let mut promises = self.promises.lock();
        let (data, version) = self.store.get_arc(path)?;
        let cell = AfsServer::cell(&mut promises, path);
        let (gen, avail) = (cell.gen.load(Ordering::Acquire), cell.write_time());
        Ok((data, version, (cell, gen), avail))
    }

    /// Atomic server-side StoreData: writes the object and breaks every
    /// callback on it under the map lock. Returns the new object version
    /// and the writer's grant, the generation after its own break.
    fn put_with_callback(&self, path: &str, data: &[u8]) -> Result<(u64, Grant), StorageError> {
        let mut promises = self.promises.lock();
        let version = self.store.put_versioned(path, data);
        let cell = AfsServer::cell(&mut promises, path);
        let gen = cell.gen.fetch_add(1, Ordering::AcqRel) + 1;
        Ok((version, (cell, gen)))
    }

    /// Atomic server-side FetchStatus: stats the object and grants the
    /// caller a promise (real AFS caches attributes under the same promise
    /// as data).
    fn stat_with_callback(&self, path: &str) -> Result<(ObjectStat, Grant), StorageError> {
        let mut promises = self.promises.lock();
        let stat = self.store.stat(path)?;
        let cell = AfsServer::cell(&mut promises, path);
        let gen = cell.gen.load(Ordering::Acquire);
        Ok((stat, (cell, gen)))
    }

    /// Writer-lane time at which `path` last finished being written.
    fn write_time(&self, path: &str) -> Duration {
        self.promises.lock().get(path).map_or(Duration::ZERO, |cell| cell.write_time())
    }

    /// Server-visible view: paths and sizes of all stored objects.
    pub fn object_inventory(&self) -> Vec<(String, u64)> {
        self.store
            .list("")
            .into_iter()
            .map(|p| {
                let size = self.store.stat(&p).map(|s| s.size).unwrap_or(0);
                (p, size)
            })
            .collect()
    }
}

/// A client's cached copy of one path: its status, whole-file data once
/// fetched, and the promise it was granted under.
#[derive(Debug)]
struct Cached {
    stat: ObjectStat,
    data: Option<Arc<Vec<u8>>>,
    cell: Arc<Promise>,
    gen: u64,
}

impl Cached {
    /// No break since the grant: the copy may be served without asking the
    /// server.
    fn valid(&self) -> bool {
        self.cell.gen.load(Ordering::Acquire) == self.gen
    }
}

/// Admits a fetched/stored snapshot of `path` granted under `cell`/`gen`.
/// The snapshot never goes backwards: one granted under an older
/// generation than the cached one is dropped, so a slow racing insert
/// never overwrites what a newer grant admitted. Generations, not
/// versions, order them: a path's cell never leaves the server's map, so
/// its generation never restarts, while a delete restarts the version at 1.
/// A status-only snapshot under a newer generation drops the cached bytes,
/// which belong to an older one.
fn admit(
    cache: &mut HashMap<String, Cached>,
    path: &str,
    data: Option<Arc<Vec<u8>>>,
    stat: ObjectStat,
    (cell, gen): Grant,
) {
    let Some(entry) = cache.get_mut(path) else {
        cache.insert(path.to_string(), Cached { stat, data, cell, gen });
        return;
    };
    if gen < entry.gen {
        return;
    }
    if data.is_some() || gen > entry.gen {
        entry.data = data;
    }
    (entry.stat, entry.gen) = (stat, gen);
}

/// Per-client accounting: lock-free so hot RPC paths never serialize on
/// an accounting mutex.
#[derive(Debug, Default)]
struct AtomicAccounting {
    stats: AtomicIoStats,
    simulated_nanos: AtomicU64,
}

/// An AFS client with a whole-file cache.
///
/// Implements [`StorageBackend`]; NEXUS stacks directly on top of it.
pub struct AfsClient {
    id: u64,
    server: AfsServer,
    clock: SimClock,
    lane: ClockLane,
    latency: LatencyModel,
    cache: Mutex<HashMap<String, Cached>>,
    accounting: AtomicAccounting,
}

impl std::fmt::Debug for AfsClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AfsClient").field("id", &self.id).finish()
    }
}

impl AfsClient {
    /// Connects a new client to `server` using the given clock and latency
    /// model. The client gets its own [`ClockLane`], so its RPCs overlap
    /// other clients' in simulated time.
    pub fn connect(server: &AfsServer, clock: SimClock, latency: LatencyModel) -> AfsClient {
        let lane = clock.lane();
        AfsClient::with_lane(server, clock, lane, latency)
    }

    /// Connects a client charging an explicit, possibly shared lane.
    ///
    /// Clients handed clones of one lane share one channel: their RPC
    /// costs sum instead of overlapping, which is how a differential test
    /// replays several clients one after another on one timeline.
    pub fn connect_on_lane(
        server: &AfsServer,
        lane: ClockLane,
        latency: LatencyModel,
    ) -> AfsClient {
        let clock = lane.clock().clone();
        AfsClient::with_lane(server, clock, lane, latency)
    }

    fn with_lane(
        server: &AfsServer,
        clock: SimClock,
        lane: ClockLane,
        latency: LatencyModel,
    ) -> AfsClient {
        AfsClient {
            id: server.register_client(),
            server: server.clone(),
            clock,
            lane,
            latency,
            cache: Mutex::default(),
            accounting: AtomicAccounting::default(),
        }
    }

    /// This client's server-assigned id (also its lock owner id).
    pub fn client_id(&self) -> u64 {
        self.id
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The clock channel this client charges RPC costs to.
    pub fn lane(&self) -> &ClockLane {
        &self.lane
    }

    /// Whether this client caches `path` under an unbroken callback
    /// promise.
    ///
    /// Test and diagnostic visibility: the batched-vs-serial differential
    /// suite asserts that `put_many` breaks exactly the callbacks the
    /// serial puts would have broken.
    pub fn holds_callback(&self, path: &str) -> bool {
        self.cache.lock().get(path).is_some_and(Cached::valid)
    }

    /// Drops all locally cached file contents (the evaluation flushes the
    /// AFS cache before each run, §VII-A).
    pub fn flush_cache(&self) {
        *self.cache.lock() = HashMap::new();
    }

    fn charge(&self, cost: Duration) {
        self.lane.advance(cost);
        self.accounting.simulated_nanos.fetch_add(cost.as_nanos() as u64, Ordering::Relaxed);
    }

    fn charge_rpc(&self, bytes: usize) {
        let cost = self.latency.rpc_cost(bytes);
        self.charge(cost);
        self.accounting.stats.remote_rpcs.fetch_add(1, Ordering::Relaxed);
    }

    fn charge_cache_hit(&self) {
        self.charge(self.latency.cache_hit);
        self.accounting.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads `path`'s cached copy through `read` while its promise holds,
    /// without asking the server; a copy whose promise broke is purged.
    fn cached<T>(&self, path: &str, read: impl FnOnce(&Cached) -> Option<T>) -> Option<T> {
        let mut cache = self.cache.lock();
        let entry = cache.get(path)?;
        if entry.valid() {
            return read(entry);
        }
        cache.remove(path);
        None
    }

    fn cache_valid(&self, path: &str) -> Option<Arc<Vec<u8>>> {
        self.cached(path, |entry| entry.data.clone())
    }

    fn status_valid(&self, path: &str) -> Option<ObjectStat> {
        self.cached(path, |entry| Some(entry.stat))
    }

    fn admit(&self, path: &str, data: Option<Arc<Vec<u8>>>, stat: ObjectStat, grant: Grant) {
        admit(&mut self.cache.lock(), path, data, stat, grant);
    }

    /// Server-side rename (`RXAFS_Rename`): one RPC, no data transfer.
    ///
    /// # Errors
    ///
    /// [`StorageError::NotFound`] when the source does not exist.
    pub fn rename_object(&self, from: &str, to: &str) -> Result<(), StorageError> {
        let (data, _) = self.server.store.get_arc(from)?;
        // Cached bytes move with the object only while their promise
        // holds: then no write has replaced what the server just read.
        let moved = self.cache_valid(from);
        let (version, grant) = self.server.put_with_callback(to, &data)?;
        let cell = grant.0.clone();
        self.server.store.delete(from)?;
        self.server.break_callbacks(from);
        let mut cache = self.cache.lock();
        cache.remove(from);
        admit(&mut cache, to, moved, ObjectStat { size: data.len() as u64, version }, grant);
        drop(cache);
        self.charge_rpc(0);
        self.accounting.stats.writes.fetch_add(1, Ordering::Relaxed);
        cell.record_write(self.lane.local_now());
        Ok(())
    }
}

impl StorageBackend for AfsClient {
    fn put(&self, path: &str, data: &[u8]) -> Result<(), StorageError> {
        let (version, grant) = self.server.put_with_callback(path, data)?;
        let cell = grant.0.clone();
        let stat = ObjectStat { size: data.len() as u64, version };
        self.admit(path, Some(Arc::new(data.to_vec())), stat, grant);
        self.charge_rpc(data.len());
        self.accounting.stats.count_write(data.len() as u64);
        cell.record_write(self.lane.local_now());
        Ok(())
    }

    fn get(&self, path: &str) -> Result<Vec<u8>, StorageError> {
        if let Some(data) = self.cache_valid(path) {
            self.charge_cache_hit();
            self.accounting.stats.count_read(data.len() as u64);
            return Ok(data.as_ref().clone());
        }
        let (data, version, grant, avail) = self.server.fetch_with_callback(path)?;
        let stat = ObjectStat { size: data.len() as u64, version };
        self.admit(path, Some(data.clone()), stat, grant);
        // The data cannot arrive before its writer's lane finished storing
        // it: raise this lane to the availability time, then pay the RPC.
        self.lane.raise_to(avail);
        self.charge_rpc(data.len());
        self.accounting.stats.count_read(data.len() as u64);
        Ok(data.as_ref().clone())
    }

    fn get_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>, StorageError> {
        if let Some(data) = self.cache_valid(path) {
            crate::backend::check_range(path, offset, len, data.len() as u64)?;
            self.charge_cache_hit();
            self.accounting.stats.count_read(len);
            return Ok(data[offset as usize..(offset + len) as usize].to_vec());
        }
        let out = self.server.store.get_range(path, offset, len)?;
        self.lane.raise_to(self.server.write_time(path));
        self.charge_rpc(out.len());
        self.accounting.stats.count_read(len);
        Ok(out)
    }

    fn delete(&self, path: &str) -> Result<(), StorageError> {
        self.server.store.delete(path)?;
        self.server.break_callbacks(path);
        self.cache.lock().remove(path);
        self.charge_rpc(0);
        self.accounting.stats.deletes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn exists(&self, path: &str) -> bool {
        if self.status_valid(path).is_some() {
            self.charge_cache_hit();
            return true;
        }
        self.charge_rpc(0);
        match self.server.stat_with_callback(path) {
            Ok((stat, grant)) => {
                self.admit(path, None, stat, grant);
                true
            }
            Err(_) => false,
        }
    }

    fn stat(&self, path: &str) -> Result<ObjectStat, StorageError> {
        if let Some(stat) = self.status_valid(path) {
            self.charge_cache_hit();
            return Ok(stat);
        }
        self.charge_rpc(0);
        let (stat, grant) = self.server.stat_with_callback(path)?;
        self.admit(path, None, stat, grant);
        Ok(stat)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        let names = self.server.store.list(prefix);
        self.charge_rpc(names.iter().map(|n| n.len() + 16).sum());
        names
    }

    fn lock(&self, path: &str, owner: u64) -> Result<(), StorageError> {
        // The lock owner namespace is per-server; scope by client id so two
        // clients using the same nominal owner value do not collide.
        let scoped = self.id.wrapping_mul(1_000_003).wrapping_add(owner);
        self.charge(self.latency.rpc_rtt + self.latency.lock_overhead);
        self.accounting.stats.locks.fetch_add(1, Ordering::Relaxed);
        self.accounting.stats.remote_rpcs.fetch_add(1, Ordering::Relaxed);
        self.server.store.lock(path, scoped)
    }

    fn unlock(&self, path: &str, owner: u64) {
        let scoped = self.id.wrapping_mul(1_000_003).wrapping_add(owner);
        // Lock releases piggyback on the following store RPC in AFS, so
        // only a token cost is charged.
        self.charge(self.latency.cache_hit);
        self.server.store.unlock(path, scoped);
    }

    fn get_many(&self, paths: &[String]) -> Vec<Result<Vec<u8>, StorageError>> {
        // Per-path cache semantics are identical to serial `get` (including a
        // later duplicate hitting the cache entry the earlier slot created);
        // only the misses are fetched, all in one round trip (one RTT,
        // per-object disk service, summed transfer).
        let mut out = Vec::with_capacity(paths.len());
        let mut total_bytes = 0usize;
        let mut served = 0usize;
        let mut avail = Duration::ZERO;
        for path in paths {
            if let Some(data) = self.cache_valid(path) {
                self.charge_cache_hit();
                self.accounting.stats.count_read(data.len() as u64);
                out.push(Ok(data.as_ref().clone()));
                continue;
            }
            match self.server.fetch_with_callback(path) {
                Ok((data, version, grant, wrote_at)) => {
                    let stat = ObjectStat { size: data.len() as u64, version };
                    self.admit(path, Some(data.clone()), stat, grant);
                    total_bytes += data.len();
                    served += 1;
                    avail = avail.max(wrote_at);
                    self.accounting.stats.count_read(data.len() as u64);
                    out.push(Ok(data.as_ref().clone()));
                }
                Err(e) => out.push(Err(e)),
            }
        }
        // Failed lookups carry no payload and no disk service; serial
        // `get` charges nothing for them, so neither does the batch.
        if served > 0 {
            self.lane.raise_to(avail);
            self.charge(self.latency.batch_rpc_cost(served, total_bytes));
            self.accounting.stats.remote_rpcs.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    fn put_many(&self, items: &[(String, Vec<u8>)]) -> Vec<Result<(), StorageError>> {
        let mut out = Vec::with_capacity(items.len());
        let mut written = Vec::with_capacity(items.len());
        let mut total_bytes = 0usize;
        for (path, data) in items {
            match self.server.put_with_callback(path, data) {
                Ok((version, grant)) => {
                    written.push(grant.0.clone());
                    let stat = ObjectStat { size: data.len() as u64, version };
                    self.admit(path, Some(Arc::new(data.clone())), stat, grant);
                    total_bytes += data.len();
                    self.accounting.stats.count_write(data.len() as u64);
                    out.push(Ok(()));
                }
                Err(e) => out.push(Err(e)),
            }
        }
        // Rejected writes (e.g. a lock held by another client) are free in
        // the serial path, so only accepted objects make up the round trip.
        if !written.is_empty() {
            self.charge(self.latency.batch_rpc_cost(written.len(), total_bytes));
            self.accounting.stats.remote_rpcs.fetch_add(1, Ordering::Relaxed);
            let done = self.lane.local_now();
            for cell in &written {
                cell.record_write(done);
            }
        }
        out
    }

    fn stat_many(&self, paths: &[String]) -> Vec<Result<ObjectStat, StorageError>> {
        // Sequential like serial `stat` so a duplicate path later in the
        // batch hits the status entry its earlier slot cached; serial `stat`
        // charges whether or not the key exists, so every miss counts
        // toward the one batched round trip.
        let mut out = Vec::with_capacity(paths.len());
        let mut misses = 0usize;
        for path in paths {
            if let Some(stat) = self.status_valid(path) {
                self.charge_cache_hit();
                out.push(Ok(stat));
                continue;
            }
            misses += 1;
            match self.server.stat_with_callback(path) {
                Ok((stat, grant)) => {
                    self.admit(path, None, stat, grant);
                    out.push(Ok(stat));
                }
                Err(e) => out.push(Err(e)),
            }
        }
        if misses > 0 {
            self.charge(self.latency.batch_rpc_cost(misses, 0));
            self.accounting.stats.remote_rpcs.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    fn stats(&self) -> IoStats {
        self.accounting.stats.snapshot()
    }

    fn simulated_time(&self) -> Duration {
        Duration::from_nanos(self.accounting.simulated_nanos.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (AfsServer, AfsClient, AfsClient) {
        let server = AfsServer::new();
        let clock = SimClock::new();
        let a = AfsClient::connect(&server, clock.clone(), LatencyModel::default());
        let b = AfsClient::connect(&server, clock, LatencyModel::default());
        (server, a, b)
    }

    #[test]
    fn put_then_get_roundtrip() {
        let (_, a, _) = setup();
        a.put("f", b"data").unwrap();
        assert_eq!(a.get("f").unwrap(), b"data");
    }

    #[test]
    fn second_read_is_cache_hit() {
        let (_, a, _) = setup();
        a.put("f", &vec![7u8; 1024]).unwrap();
        a.flush_cache();
        a.get("f").unwrap();
        let before = a.stats();
        a.get("f").unwrap();
        let after = a.stats();
        assert_eq!(after.cache_hits - before.cache_hits, 1);
        assert_eq!(after.remote_rpcs, before.remote_rpcs);
    }

    #[test]
    fn writes_break_other_clients_callbacks() {
        let (_, a, b) = setup();
        a.put("f", b"v1").unwrap();
        b.get("f").unwrap(); // b now caches v1
        a.put("f", b"v2").unwrap(); // breaks b's callback
        assert_eq!(b.get("f").unwrap(), b"v2");
        let stats = b.stats();
        assert_eq!(stats.cache_hits, 0, "b had to refetch");
    }

    #[test]
    fn a_cached_copy_survives_another_clients_overwrite() {
        // b's cache shares the server's buffer; a's same-size write must
        // land in a fresh one, not refill the bytes b holds.
        let (_, a, b) = setup();
        a.put("f", b"v1").unwrap();
        b.get("f").unwrap();
        a.put("f", b"v2").unwrap();
        assert_eq!(b.cache.lock()["f"].data.as_deref().map(Vec::as_slice), Some(&b"v1"[..]));
        assert_eq!(b.get("f").unwrap(), b"v2");
    }

    #[test]
    fn clock_advances_with_size() {
        let server = AfsServer::new();
        let clock = SimClock::new();
        let a = AfsClient::connect(&server, clock.clone(), LatencyModel::default());
        a.put("small", &[0u8; 10]).unwrap();
        let t1 = clock.now();
        a.put("big", &vec![0u8; 10 * 1024 * 1024]).unwrap();
        let t2 = clock.now();
        assert!(t2 - t1 > t1, "10 MB write should dwarf a 10 B write");
    }

    #[test]
    fn flushed_cache_forces_refetch() {
        let (_, a, _) = setup();
        a.put("f", b"x").unwrap();
        a.flush_cache();
        let before = a.stats().remote_rpcs;
        a.get("f").unwrap();
        assert_eq!(a.stats().remote_rpcs, before + 1);
    }

    #[test]
    fn locks_are_exclusive_across_clients() {
        let (_, a, b) = setup();
        a.lock("meta", 0).unwrap();
        assert!(matches!(b.lock("meta", 0), Err(StorageError::LockContended(_))));
        a.unlock("meta", 0);
        b.lock("meta", 0).unwrap();
    }

    #[test]
    fn get_range_served_from_cache_when_valid() {
        let (_, a, _) = setup();
        a.put("f", b"0123456789").unwrap();
        let before = a.stats().remote_rpcs;
        assert_eq!(a.get_range("f", 2, 3).unwrap(), b"234");
        assert_eq!(a.stats().remote_rpcs, before, "served locally");
    }

    #[test]
    fn server_sees_objects() {
        let (server, a, _) = setup();
        a.put("u1", b"abc").unwrap();
        a.put("u2", b"defg").unwrap();
        let mut inv = server.object_inventory();
        inv.sort();
        assert_eq!(inv, vec![("u1".to_string(), 3), ("u2".to_string(), 4)]);
    }

    #[test]
    fn delete_propagates() {
        let (_, a, b) = setup();
        a.put("f", b"x").unwrap();
        b.get("f").unwrap();
        a.delete("f").unwrap();
        assert!(matches!(b.get("f"), Err(StorageError::NotFound(_))));
    }

    /// A delete restarts the version, not the generation: the writer's own
    /// newer put after another client deleted and re-created the path is
    /// admitted, and its next read is its own bytes.
    #[test]
    fn a_put_after_a_delete_and_recreate_elsewhere_is_read_back() {
        let (_, x, y) = setup();
        for v in [&b"x-v1"[..], b"x-v2", b"x-v3"] {
            x.put("f", v).unwrap();
        }
        y.delete("f").unwrap();
        y.put("f", b"y-v1").unwrap();
        x.put("f", b"x-mine").unwrap();
        assert_eq!(x.stat("f").unwrap().version, 2);
        assert_eq!(x.get("f").unwrap(), b"x-mine");
    }

    /// A rename moves the renamer's cached bytes only while their promise
    /// holds: after another client's overwrite, the target serves the
    /// server's bytes, not the stale copy.
    #[test]
    fn a_rename_does_not_carry_bytes_another_client_replaced() {
        let (_, x, y) = setup();
        x.put("from", b"old").unwrap();
        y.put("from", b"new").unwrap();
        x.rename_object("from", "to").unwrap();
        assert_eq!(x.get("to").unwrap(), b"new");
    }

    #[test]
    fn rename_is_one_metadata_rpc() {
        let (_, a, _) = setup();
        a.put("big", &vec![1u8; 5 * 1024 * 1024]).unwrap();
        let t0 = a.simulated_time();
        let rpcs0 = a.stats().remote_rpcs;
        a.rename_object("big", "renamed").unwrap();
        assert_eq!(a.stats().remote_rpcs, rpcs0 + 1);
        // No data transfer: well under a millisecond-scale RPC budget.
        assert!(a.simulated_time() - t0 < Duration::from_millis(5));
        assert_eq!(a.get("renamed").unwrap().len(), 5 * 1024 * 1024);
        assert!(a.get("big").is_err());
    }

    #[test]
    fn status_cache_avoids_repeat_stat_rpcs() {
        let (_, a, _) = setup();
        a.put("s", b"x").unwrap();
        a.flush_cache();
        let rpcs0 = a.stats().remote_rpcs;
        a.stat("s").unwrap(); // one RPC re-establishes the callback
        a.stat("s").unwrap();
        a.stat("s").unwrap();
        assert_eq!(a.stats().remote_rpcs, rpcs0 + 1);
    }

    #[test]
    fn concurrent_clients_from_threads() {
        let server = AfsServer::new();
        let clock = SimClock::new();
        let mk = || AfsClient::connect(&server, clock.clone(), LatencyModel::instant());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let client = mk();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        client.put(&format!("t{t}-f{i}"), &[t as u8; 64]).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let reader = mk();
        for t in 0..4 {
            for i in 0..50 {
                assert_eq!(reader.get(&format!("t{t}-f{i}")).unwrap(), vec![t as u8; 64]);
            }
        }
    }

    #[test]
    fn batched_get_is_one_rpc_for_all_misses() {
        let (_, a, _) = setup();
        let paths: Vec<String> = (0..8).map(|i| format!("f{i}")).collect();
        for p in &paths {
            a.put(p, &vec![3u8; 2048]).unwrap();
        }
        a.flush_cache();
        let before = a.stats();
        let out = a.get_many(&paths);
        let after = a.stats();
        assert!(out.iter().all(|r| r.as_deref() == Ok(&vec![3u8; 2048][..])));
        assert_eq!(after.remote_rpcs - before.remote_rpcs, 1, "one batch RPC");
        assert_eq!(after.reads - before.reads, 8, "per-object reads still counted");
        assert_eq!(after.bytes_read - before.bytes_read, 8 * 2048);
        // A second batched read is all cache hits: no RPC at all.
        let before = a.stats();
        a.get_many(&paths);
        let after = a.stats();
        assert_eq!(after.remote_rpcs, before.remote_rpcs);
        assert_eq!(after.cache_hits - before.cache_hits, 8);
    }

    #[test]
    fn batched_get_is_cheaper_than_serial_on_the_clock() {
        let server = AfsServer::new();
        let clock = SimClock::new();
        let writer = AfsClient::connect(&server, clock.clone(), LatencyModel::default());
        let paths: Vec<String> = (0..16).map(|i| format!("f{i}")).collect();
        for p in &paths {
            writer.put(p, &vec![1u8; 1024]).unwrap();
        }
        let serial = AfsClient::connect(&server, clock.clone(), LatencyModel::default());
        for p in &paths {
            serial.get(p).unwrap();
        }
        let batched = AfsClient::connect(&server, clock, LatencyModel::default());
        batched.get_many(&paths);
        assert!(
            batched.simulated_time() < serial.simulated_time(),
            "batched {:?} vs serial {:?}",
            batched.simulated_time(),
            serial.simulated_time()
        );
    }

    #[test]
    fn batched_put_breaks_callbacks_like_serial() {
        let (_, a, b) = setup();
        a.put("f0", b"v1").unwrap();
        a.put("f1", b"v1").unwrap();
        b.get("f0").unwrap();
        b.get("f1").unwrap();
        let before = a.stats();
        let out = a.put_many(&[
            ("f0".to_string(), b"v2".to_vec()),
            ("f1".to_string(), b"v2".to_vec()),
            ("f2".to_string(), b"new".to_vec()),
        ]);
        assert!(out.iter().all(|r| r.is_ok()));
        let after = a.stats();
        assert_eq!(after.remote_rpcs - before.remote_rpcs, 1);
        assert_eq!(after.writes - before.writes, 3);
        // b lost both callbacks, exactly as with serial puts.
        assert!(["f0", "f1"].iter().all(|p| a.holds_callback(p) && !b.holds_callback(p)));
        assert_eq!(b.get("f0").unwrap(), b"v2");
        assert_eq!(b.stats().cache_hits, 0, "b had to refetch");
    }

    #[test]
    fn batched_get_reports_missing_objects_per_slot() {
        let (_, a, _) = setup();
        a.put("present", b"x").unwrap();
        a.flush_cache();
        let out = a.get_many(&["present".into(), "absent".into()]);
        assert_eq!(out[0].as_deref(), Ok(&b"x"[..]));
        assert!(matches!(out[1], Err(StorageError::NotFound(_))));
    }

    #[test]
    fn batched_stat_uses_status_cache() {
        let (_, a, _) = setup();
        a.put("s0", b"x").unwrap();
        a.put("s1", b"yy").unwrap();
        a.flush_cache();
        let paths = ["s0".to_string(), "s1".to_string()];
        let before = a.stats();
        let out = a.stat_many(&paths);
        assert_eq!(out[0].as_ref().map(|s| s.size), Ok(1));
        assert_eq!(out[1].as_ref().map(|s| s.size), Ok(2));
        assert_eq!(a.stats().remote_rpcs - before.remote_rpcs, 1);
        let before = a.stats();
        a.stat_many(&paths);
        assert_eq!(a.stats().remote_rpcs, before.remote_rpcs, "all status hits");
    }

    #[test]
    fn simulated_time_accumulates_per_client() {
        let (_, a, b) = setup();
        a.put("f", &vec![1u8; 4096]).unwrap();
        assert!(a.simulated_time() > Duration::ZERO);
        assert_eq!(b.simulated_time(), Duration::ZERO);
    }

    #[test]
    fn independent_clients_overlap_on_the_shared_clock() {
        // Two clients each pay ~the same RPC costs on their own lanes; the
        // shared clock reads the slower lane, not the sum. A third client
        // doing nothing adds nothing.
        let server = AfsServer::new();
        let clock = SimClock::new();
        let a = AfsClient::connect(&server, clock.clone(), LatencyModel::default());
        let b = AfsClient::connect(&server, clock.clone(), LatencyModel::default());
        a.put("aa", &vec![1u8; 1 << 20]).unwrap();
        b.put("bb", &vec![2u8; 1 << 20]).unwrap();
        let wall = clock.now();
        let sum = a.simulated_time() + b.simulated_time();
        let max = a.simulated_time().max(b.simulated_time());
        assert_eq!(wall, max, "wall-clock is the slowest lane");
        assert!(wall < sum, "lanes overlap: {wall:?} < {sum:?}");
    }

    #[test]
    fn shared_lane_clients_serialize_like_before() {
        let server = AfsServer::new();
        let clock = SimClock::new();
        let lane = clock.lane();
        let a = AfsClient::connect_on_lane(&server, lane.clone(), LatencyModel::default());
        let b = AfsClient::connect_on_lane(&server, lane, LatencyModel::default());
        a.put("aa", &vec![1u8; 1 << 20]).unwrap();
        b.put("bb", &vec![2u8; 1 << 20]).unwrap();
        let wall = clock.now();
        assert_eq!(wall, a.simulated_time() + b.simulated_time(), "costs sum on one lane");
    }

    #[test]
    fn cross_client_read_happens_after_write() {
        // Causality on the virtual clock: b fetching an object a wrote
        // cannot complete before a's lane finished storing it, even though
        // b's lane was idle until now.
        let server = AfsServer::new();
        let clock = SimClock::new();
        let a = AfsClient::connect(&server, clock.clone(), LatencyModel::default());
        // Burn some lane time for a first so the write lands late.
        a.put("warm", &vec![0u8; 4 << 20]).unwrap();
        a.put("obj", b"payload").unwrap();
        let wrote_at = a.lane().local_now();
        let b = AfsClient::connect(&server, clock.clone(), LatencyModel::default());
        b.get("obj").unwrap();
        assert!(
            b.lane().local_now() >= wrote_at,
            "reader lane {:?} must not finish before writer {:?}",
            b.lane().local_now(),
            wrote_at
        );
    }
}
