//! The load driver of the scale harness (DESIGN.md §14): one
//! [`run`]`(source, cell, world)` for every combination of
//!
//! - an **op source** ([`Source`]) — what a client does. [`Wire`] drives
//!   the raw RPC surface (`AsyncStorage<AfsClient>`: Zipf reads of a
//!   shared keyspace, private writes); [`Fs`] mounts a real
//!   [`NexusVolume`] per client and drives the paper's data path
//!   (`AsyncVolume`: reads, batched `read_files`, whole-file writes, ACL
//!   churn — seal/open, metadata commits, freshness checks and all);
//! - a **cell** ([`Cell`]) — how many clients, how many ops each, the run
//!   seed, the arrival process, the latency model;
//! - a **world** ([`World`]) — what schedules the clients: futures on the
//!   `nexus-exec` executor (100k clients on ≤ 8 OS threads), the same
//!   futures one client after another (the serial oracle), or one OS
//!   thread per client (the baseline the executor is gated against).
//!
//! A client is one future, `drive_client`, in every world: the serial
//! and thread worlds poll it on a driver-local single-thread executor
//! instead of keeping a synchronous twin, so each source's op → call
//! mapping exists once, over the adapters users get.
//!
//! ## Why the worlds agree
//!
//! Every op stream is a pure function of the run seed and the client
//! index (`nexus_crypto::rng::SeededRandom` streams through the samplers
//! of `nexus_testkit::dist`), and the mixes commute: shared objects are
//! written at setup only, every mutation lands in the client's own
//! namespace. A client's results and its lane's arithmetic therefore
//! depend on its own history alone, so per-client transcript chains, the
//! server's final inventory and the simulated makespan are identical
//! whichever world ran — only the wall clock differs, which is why
//! [`ScaleReport::wall`] sits beside every virtual-time figure.
//!
//! At the fs level, enclave randomness (file UUIDs, data keys, nonces)
//! comes from the *platform* RNG: one shared platform would interleave
//! all clients' draws schedule-dependently, same-seed replicas would
//! collide on UUIDs. [`Platform::seeded_stream`] gives every client the
//! machine's sealing identity (the owner's sealed rootkey mounts
//! everywhere) with its own deterministic stream. CPU crypto is charged
//! to the lane through the modelled [`CryptoCost`] by `AsyncVolume`
//! itself (lane-charging rules in DESIGN.md §15).
//!
//! ## Arrivals
//!
//! Closed loop issues the next op when the previous completes. Open loop
//! issues on a deterministic Poisson schedule independent of service
//! times, so queueing delay — the coordinated-omission tail — lands in
//! the latency histogram.

use std::future::Future;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nexus_core::async_fs::{AsyncVolume, CryptoCost};
use nexus_core::{NexusConfig, NexusVolume, Rights, UserKeys};
use nexus_crypto::rng::{SecureRandom, SeededRandom};
use nexus_exec::io::AsyncStorage;
use nexus_exec::{Executor, Timer};
use nexus_sgx::{AttestationService, Platform};
use nexus_storage::afs::{AfsClient, AfsServer};
use nexus_storage::{ClockLane, LatencyModel, SimClock, StorageBackend};
use nexus_testkit::dist::{PoissonArrivals, Zipf};

/// How clients issue their operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Issue the next operation the moment the previous one completes.
    Closed,
    /// Operations arrive on a Poisson schedule at this per-client rate,
    /// regardless of completions (open loop).
    Open {
        /// Mean arrivals per simulated second, per client.
        per_client_hz: f64,
    },
}

/// One scale-harness cell: N clients, each running a seeded op stream.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Simulated client count.
    pub clients: usize,
    /// Operations per client.
    pub ops_per_client: usize,
    /// Run seed; per-client streams derive from it.
    pub seed: u64,
    /// Arrival process.
    pub arrival: Arrival,
    /// Simulated network/disk cost model.
    pub latency: LatencyModel,
}

/// What schedules a cell's clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum World {
    /// Every client a future on one `nexus-exec` executor.
    Exec {
        /// OS-thread budget (clamped to `nexus_exec::MAX_WORKERS`).
        threads: usize,
    },
    /// One client at a time, in client order, on the calling thread —
    /// the ground truth the other worlds must be byte-identical to.
    Serial,
    /// One OS thread per client: the world the executor is benchmarked
    /// against, which cannot reach 100k clients.
    Threads,
}

impl World {
    /// The executor world at its full thread budget.
    pub fn exec() -> World {
        World::Exec { threads: nexus_exec::MAX_WORKERS }
    }
}

/// One generated operation. [`Wire`] streams hold `Read` and `Write` only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read the shared object of this Zipf rank.
    Read(usize),
    /// Batched `read_files` of `bulk_width` shared files from this rank.
    Bulk(usize),
    /// Write one of this client's private objects ([`Wire`]: object
    /// number `k`, never rewritten; [`Fs`]: a slot the writes cycle over).
    Write(usize),
    /// Toggle the auditor's rights on this client's directory (`n`th ACL
    /// update: even = read-only, odd = read-write).
    Acl(usize),
}

impl Op {
    /// Whether the op's latency belongs to the read histogram.
    fn is_read(self) -> bool {
        matches!(self, Op::Read(_) | Op::Bulk(_))
    }
}

/// A deployed cell: the shared (untrusted) server, the shared virtual
/// clock, and one connection per client (index = client id), every lane
/// at the clock's post-setup value.
pub struct Deployment<C> {
    /// The shared store.
    pub server: AfsServer,
    /// The shared virtual clock.
    pub clock: SimClock,
    /// The clients' connections.
    pub conns: Vec<C>,
}

/// What the clients of a cell do: how the world is set up, which ops a
/// client issues, and — once — which adapter call each op is.
pub trait Source: Clone + Send + Sync + 'static {
    /// One client's connection as [`Source::deploy`] leaves it.
    type Conn: Send;
    /// The async adapter a client's ops go through.
    type Client: Send + Sync + 'static;

    /// The standard cell's run seed (one per source, so wire and fs
    /// streams are independent).
    const SEED: u64;
    /// Salts the arrival stream apart from the op stream, so closed- and
    /// open-loop runs execute identical ops.
    const ARRIVAL_SALT: u64;

    /// The standard cell: paper-calibrated latencies, closed loop.
    fn cell(clients: usize, ops_per_client: usize) -> Cell {
        Cell {
            clients,
            ops_per_client,
            seed: Self::SEED,
            arrival: Arrival::Closed,
            latency: LatencyModel::paper_calibrated(),
        }
    }

    /// Builds the world outside the measured epoch.
    fn deploy(&self, cell: &Cell) -> Deployment<Self::Conn>;

    /// Lifts a connection onto `timer`'s executor.
    fn connect(&self, conn: Self::Conn, timer: Timer) -> Self::Client;

    /// The lane every cost of `client` is charged to.
    fn lane(client: &Self::Client) -> &ClockLane;

    /// The popularity sampler over the shared keyspace.
    fn zipf(&self) -> Zipf;

    /// The deterministic op stream of client `c` — the same in every
    /// world, derived only from the source, the cell and the index.
    fn ops(&self, cell: &Cell, zipf: &Zipf, c: usize) -> Vec<Op>;

    /// Executes `op` for client `c` and returns the transcript-relevant
    /// bytes.
    fn apply(
        &self,
        client: &Self::Client,
        c: usize,
        op: Op,
    ) -> impl Future<Output = Vec<u8>> + Send;
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

const fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    h
}

/// A deterministic payload: the bytes of `tag`, repeated over `len` and
/// XORed with a `stride`-spaced counter.
fn payload(len: usize, tag: u64, stride: usize) -> Vec<u8> {
    let tag = tag.to_le_bytes();
    (0..len).map(|i| tag[i % 8] ^ i.wrapping_mul(stride) as u8).collect()
}

/// Opens one client's connection. One cache shard per simulated client:
/// its cache has no internal contention, and 16 mutexes × 100k clients is
/// pure memory overhead.
fn connect_afs(server: &AfsServer, clock: &SimClock, cell: &Cell) -> Arc<AfsClient> {
    Arc::new(AfsClient::connect_with_cache_shards(server, clock.clone(), cell.latency, 1))
}

/// Uniform `f64` in `[0, 1)` from the top 53 bits of a `u64` draw.
fn f64_unit(rng: &mut SeededRandom) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The deterministic open-loop arrival times of client `c`, offset to the
/// measured epoch `t0`: setup (mounts, the owner's directory tree) has
/// already consumed virtual time, and a schedule anchored at zero would
/// book all of it as queueing delay on the first arrivals.
fn arrivals_for_client<S: Source>(
    cell: &Cell,
    per_client_hz: f64,
    c: usize,
    t0: Duration,
) -> Vec<Duration> {
    let process = PoissonArrivals::from_rate_hz(per_client_hz);
    let mut rng = SeededRandom::new(
        cell.seed ^ S::ARRIVAL_SALT ^ fnv1a(FNV_OFFSET, &(c as u64).to_le_bytes()),
    );
    let mut t = t0;
    (0..cell.ops_per_client)
        .map(|_| {
            t += process.next_gap_with(f64_unit(&mut rng));
            t
        })
        .collect()
}

/// Folds one completed operation into a client's transcript chain. Every
/// world folds the same inputs in the same per-client order, so equal
/// chains mean equal execution — independent of timing.
fn fold_transcript(chain: u64, op: Op, result: &[u8]) -> u64 {
    let (tag, arg): (&[u8], usize) = match op {
        Op::Read(rank) => (b"R", rank),
        Op::Bulk(start) => (b"B", start),
        Op::Write(k) => (b"W", k),
        Op::Acl(n) => (b"A", n),
    };
    let mut h = fnv1a(fnv1a(chain, tag), &(arg as u64).to_le_bytes());
    h = fnv1a(h, &(result.len() as u64).to_le_bytes());
    fnv1a(h, result)
}

/// Deterministic digest of the server's final object inventory.
pub fn inventory_digest(server: &AfsServer) -> u64 {
    let mut inv = server.object_inventory();
    inv.sort();
    let mut h = FNV_OFFSET;
    for (path, len) in inv {
        h = fnv1a(h, path.as_bytes());
        h = fnv1a(h, &len.to_le_bytes());
    }
    h
}

const HIST_SUB_BITS: u32 = 5;
const HIST_SUB: usize = 1 << HIST_SUB_BITS;
// Row 0 counts 0..32 ns exactly; rows 1..=59 cover octaves 5..=63 with 32
// sub-buckets each, so the largest reachable index is 59·32 + 31.
const HIST_BUCKETS: usize = (64 - HIST_SUB_BITS as usize + 1) * HIST_SUB;

/// A lock-free log-bucketed latency histogram: 64 octaves × 32 sub-buckets
/// (≈3% relative resolution), covering 1 ns to `u64::MAX` ns. Recording is
/// one relaxed fetch-add, so 100k concurrent client futures share one
/// histogram without a hot lock.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }

    fn index(nanos: u64) -> usize {
        if nanos < HIST_SUB as u64 {
            // The first octaves degenerate to exact counting.
            return nanos as usize;
        }
        let msb = 63 - nanos.leading_zeros();
        let sub = (nanos >> (msb - HIST_SUB_BITS)) as usize & (HIST_SUB - 1);
        ((msb - HIST_SUB_BITS + 1) as usize) * HIST_SUB + sub
    }

    /// The largest sample, in nanoseconds, that lands in bucket `i` (the
    /// quantile estimate).
    fn bucket_upper(i: usize) -> u64 {
        if i < HIST_SUB {
            return i as u64;
        }
        let octave = (i / HIST_SUB) as u32 + HIST_SUB_BITS - 1;
        let sub = (i % HIST_SUB) as u64;
        let width = 1u64 << (octave - HIST_SUB_BITS);
        (1u64 << octave) + sub * width + (width - 1)
    }

    /// Records one latency sample.
    pub fn record(&self, latency: Duration) {
        let nanos = latency.as_nanos().min(u64::MAX as u128) as u64;
        self.buckets[Self::index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean of all samples.
    pub fn mean(&self) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.sum_nanos.load(Ordering::Relaxed) / n)
    }

    /// Exact maximum (tracked separately from the buckets).
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_nanos.load(Ordering::Relaxed))
    }

    /// Folds `other`'s samples into `self` — a lock-free bucket sum, so
    /// per-client histograms can aggregate at end of run without sharing
    /// a global histogram on the hot path. Merging is exact: the merged
    /// histogram is indistinguishable from one that recorded every
    /// sample directly (same buckets, count, sum, and max).
    pub fn merge(&self, other: &LatencyHistogram) {
        for (dst, src) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = src.load(Ordering::Relaxed);
            if n != 0 {
                dst.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum_nanos.fetch_add(other.sum_nanos.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_nanos.fetch_max(other.max_nanos.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// The `q`-quantile (`0.5` = p50, `0.999` = p999), resolved to the upper
    /// edge of the bucket holding that sample, or to [`Self::max`] when that
    /// is lower: never below the sample, and above it by at most 1/32 of it.
    pub fn quantile(&self, q: f64) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return Duration::from_nanos(Self::bucket_upper(i)).min(self.max());
            }
        }
        self.max()
    }
}

/// Latency histograms for one run, split by operation kind.
#[derive(Debug, Default)]
pub struct RunHistograms {
    /// Reads (single and bulk).
    pub reads: LatencyHistogram,
    /// Mutations (writes and ACL updates).
    pub writes: LatencyHistogram,
    /// Every operation.
    pub all: LatencyHistogram,
}

/// The outcome of driving one cell through one world.
#[derive(Debug)]
pub struct ScaleReport {
    /// Simulated run duration (slowest client's lane).
    pub makespan: Duration,
    /// Host wall clock of the measured epoch (setup excluded) — what it
    /// cost to produce the virtual-time figures beside it.
    pub wall: Duration,
    /// Total operations completed.
    pub total_ops: u64,
    /// `total_ops / makespan`, in simulated ops/sec.
    pub agg_ops_per_sec: f64,
    /// Per-kind latency distributions.
    pub hist: Arc<RunHistograms>,
    /// Per-client transcript chains (scheduling-independent).
    pub transcripts: Vec<u64>,
    /// Digest of the server's final object inventory.
    pub inventory: u64,
    /// OS threads that drove the run.
    pub os_threads: usize,
}

/// One client's whole run, in every world: hold each op until its issue
/// time, execute it, record the latency, fold the transcript. `arrivals`
/// is `Some` for open loop.
async fn drive_client<S: Source>(
    source: S,
    client: S::Client,
    timer: Timer,
    c: usize,
    ops: Vec<Op>,
    arrivals: Option<Vec<Duration>>,
    hist: Arc<RunHistograms>,
) -> u64 {
    let lane = S::lane(&client).clone();
    let mut chain = FNV_OFFSET;
    for (k, op) in ops.into_iter().enumerate() {
        let issue = match &arrivals {
            // The connection idles until its scheduled request time; one
            // that is still busy then issues late, and the wait is booked
            // as latency from the arrival.
            Some(at) => {
                timer.schedule_at(at[k].max(lane.local_now())).await;
                lane.raise_to(at[k]);
                at[k]
            }
            None => lane.local_now(),
        };
        let result = source.apply(&client, c, op).await;
        let latency = lane.local_now().saturating_sub(issue);
        if op.is_read() {
            hist.reads.record(latency);
        } else {
            hist.writes.record(latency);
        }
        hist.all.record(latency);
        chain = fold_transcript(chain, op, &result);
    }
    chain
}

/// Polls one client to completion on `ex`.
fn complete(ex: &Executor, client: impl Future<Output = u64> + Send + 'static) -> u64 {
    let handle = ex.spawn(client);
    ex.run_until_idle();
    handle.try_take().expect("client completed")
}

/// [`World::Threads`]: an OS thread per client, each polling its client on
/// an executor of its own. The only place the harness may spawn threads
/// (`tests/source_audit.rs`).
fn thread_per_client<C: Send, F: Future<Output = u64> + Send + 'static>(
    clock: &SimClock,
    conns: Vec<C>,
    client: impl Fn(usize, C, Timer) -> F + Sync,
) -> Vec<u64> {
    let client = &client;
    std::thread::scope(|scope| {
        let joins: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || {
                    let ex = Executor::single(clock.clone());
                    complete(&ex, client(c, conn, ex.timer()))
                })
            })
            .collect();
        joins.into_iter().map(|join| join.join().expect("client thread")).collect()
    })
}

/// Runs one cell of `source` in `world`.
pub fn run<S: Source>(source: &S, cell: &Cell, world: World) -> ScaleReport {
    // Every connection exists before the first op: a lane is born at the
    // shared clock's current value, so one opened while earlier clients
    // already charge RPCs would start ahead and inflate the makespan.
    let Deployment { server, clock, conns } = source.deploy(cell);
    let zipf = source.zipf();
    let hist = Arc::new(RunHistograms::default());

    let t0 = clock.now();
    let started = Instant::now();
    let client = |c: usize, conn: S::Conn, timer: Timer| {
        let arrivals = match cell.arrival {
            Arrival::Closed => None,
            Arrival::Open { per_client_hz } => {
                Some(arrivals_for_client::<S>(cell, per_client_hz, c, t0))
            }
        };
        drive_client(
            source.clone(),
            source.connect(conn, timer.clone()),
            timer,
            c,
            source.ops(cell, &zipf, c),
            arrivals,
            hist.clone(),
        )
    };
    let (transcripts, os_threads): (Vec<u64>, usize) = match world {
        World::Exec { threads } => {
            let ex = Executor::new(clock.clone(), threads);
            let handles: Vec<_> = conns
                .into_iter()
                .enumerate()
                .map(|(c, conn)| ex.spawn(client(c, conn, ex.timer())))
                .collect();
            ex.run_until_idle();
            let done = handles.iter().map(|h| h.try_take().expect("client completed"));
            (done.collect(), ex.os_threads())
        }
        World::Serial => {
            let ex = Executor::single(clock.clone());
            let done = conns
                .into_iter()
                .enumerate()
                .map(|(c, conn)| complete(&ex, client(c, conn, ex.timer())));
            (done.collect(), 1)
        }
        World::Threads => (thread_per_client(&clock, conns, client), cell.clients),
    };
    let wall = started.elapsed();
    let makespan = clock.now() - t0;

    let total_ops = (cell.clients * cell.ops_per_client) as u64;
    let secs = makespan.as_secs_f64();
    ScaleReport {
        makespan,
        wall,
        total_ops,
        agg_ops_per_sec: if secs > 0.0 { total_ops as f64 / secs } else { 0.0 },
        hist,
        transcripts,
        inventory: inventory_digest(&server),
        os_threads,
    }
}

/// The wire-level source: every client an `AsyncStorage<AfsClient>` on
/// the raw RPC surface (the classic key-value scale recipe).
///
/// - **Zipf(α) reads** over a shared keyspace populated at setup. Shared
///   keys are never written during the run, so a client's hit/miss
///   sequence depends only on its own access history.
/// - **Private writes**: each client appends to its own `c{i}/w{k}`
///   namespace — no cross-client callback invalidations.
#[derive(Debug, Clone)]
pub struct Wire {
    /// Size of the shared read-only keyspace.
    pub shared_keys: usize,
    /// Object payload size in bytes.
    pub value_bytes: usize,
    /// Zipf skew over the shared keyspace (0 = uniform).
    pub zipf_alpha: f64,
    /// Fraction of operations that are shared-keyspace reads; the rest
    /// are private writes.
    pub read_fraction: f64,
}

impl Wire {
    /// The standard mix: Zipf(0.99) over 512 keys of 64 bytes, half reads
    /// half writes.
    pub fn standard() -> Wire {
        Wire { shared_keys: 512, value_bytes: 64, zipf_alpha: 0.99, read_fraction: 0.5 }
    }
}

/// Path of a shared key. (Not UUID-shaped, so it FNV-spreads across the
/// server's lock shards.)
fn shared_key(rank: usize) -> String {
    format!("shared/k{rank}")
}

/// Path of client `c`'s private object `k`.
fn private_key(c: usize, k: usize) -> String {
    format!("c{c}/w{k}")
}

impl Source for Wire {
    type Conn = Arc<AfsClient>;
    type Client = AsyncStorage<AfsClient>;

    const SEED: u64 = 0x5CA1E_2026;
    const ARRIVAL_SALT: u64 = fnv1a(FNV_OFFSET, b"arrivals");

    /// Populates the shared keyspace directly on the server's raw store
    /// (outside simulated time), so every client's first read of a key is
    /// a real fetch and later reads are cache hits.
    fn deploy(&self, cell: &Cell) -> Deployment<Arc<AfsClient>> {
        let server = AfsServer::new();
        let clock = SimClock::new();
        for rank in 0..self.shared_keys {
            let value = payload(self.value_bytes, rank as u64, 1);
            server.raw_store().put(&shared_key(rank), &value).expect("populate shared key");
        }
        let conns = (0..cell.clients).map(|_| connect_afs(&server, &clock, cell)).collect();
        Deployment { server, clock, conns }
    }

    fn connect(&self, conn: Arc<AfsClient>, timer: Timer) -> AsyncStorage<AfsClient> {
        AsyncStorage::new(conn, timer)
    }

    fn lane(client: &AsyncStorage<AfsClient>) -> &ClockLane {
        client.backend().lane()
    }

    fn zipf(&self) -> Zipf {
        Zipf::new(self.shared_keys, self.zipf_alpha)
    }

    fn ops(&self, cell: &Cell, zipf: &Zipf, c: usize) -> Vec<Op> {
        let mut rng =
            SeededRandom::new(cell.seed ^ fnv1a(FNV_OFFSET, &(c as u64).to_le_bytes()));
        let mut writes = 0usize;
        (0..cell.ops_per_client)
            .map(|_| {
                if f64_unit(&mut rng) < self.read_fraction {
                    Op::Read(zipf.sample_with(f64_unit(&mut rng)))
                } else {
                    writes += 1;
                    Op::Write(writes - 1)
                }
            })
            .collect()
    }

    async fn apply(&self, afs: &AsyncStorage<AfsClient>, c: usize, op: Op) -> Vec<u8> {
        match op {
            Op::Read(rank) => afs.get(&shared_key(rank)).await.expect("shared read"),
            Op::Write(k) => {
                let value = vec![c as u8; self.value_bytes];
                afs.put(&private_key(c, k), &value).await.expect("private write");
                value
            }
            Op::Bulk(_) | Op::Acl(_) => unreachable!("wire streams hold reads and writes only"),
        }
    }
}

/// Directory fan-out: every dirnode in the client tree stays at or below
/// this many entries, so no path component's metadata object grows with
/// the client count.
const DIR_FANOUT_BITS: u32 = 7;

/// The fs-level source: every client a full enclave — a mounted
/// [`NexusVolume`] behind an `AsyncVolume` — over one shared server. A
/// repos/dbbench-flavoured mix of Zipf reads and batched reads of a
/// setup-time shared keyspace, whole-file writes to the client's own
/// slots and ACL churn on its own directory.
#[derive(Debug, Clone)]
pub struct Fs {
    /// Files in the shared read-only keyspace (written at setup).
    pub shared_files: usize,
    /// File payload size in bytes.
    pub value_bytes: usize,
    /// Private files per client (writes cycle through these slots).
    pub files_per_client: usize,
    /// Files per bulk (`read_files`) operation.
    pub bulk_width: usize,
    /// Zipf skew over the shared files.
    pub zipf_alpha: f64,
    /// Fraction of ops that are single shared-file reads.
    pub read_fraction: f64,
    /// Fraction of ops that are batched `read_files` bulk reads.
    pub bulk_fraction: f64,
    /// Fraction of ops that are ACL updates on the client's directory;
    /// what the three fractions leave are private writes.
    pub acl_fraction: f64,
    /// Modelled in-enclave CPU cost, charged per op on the lane.
    pub crypto: CryptoCost,
}

impl Fs {
    /// The standard mix: Zipf(0.99) over 64 shared files of 256 bytes,
    /// 40% reads / 15% bulk reads of 4 / 10% ACL churn / 35% writes over 8
    /// slots, paper-calibrated crypto cost.
    pub fn standard() -> Fs {
        Fs {
            shared_files: 64,
            value_bytes: 256,
            files_per_client: 8,
            bulk_width: 4,
            zipf_alpha: 0.99,
            read_fraction: 0.40,
            bulk_fraction: 0.15,
            acl_fraction: 0.10,
            crypto: CryptoCost::paper_calibrated(),
        }
    }

    /// The shared file a sampled rank names.
    fn shared(&self, rank: usize) -> String {
        shared_file(rank % self.shared_files.max(1))
    }
}

/// Path of shared file `rank`.
pub fn shared_file(rank: usize) -> String {
    format!("shared/f{rank}")
}

/// Client `c`'s home directory. Three fixed levels (`t*/g*/c*`) keep
/// every dirnode on the path at ≤ 2^[`DIR_FANOUT_BITS`] entries however
/// many clients exist, so path resolution cost does not scale with N.
pub fn client_dir(c: usize) -> String {
    format!("t{}/g{}/c{}", c >> (2 * DIR_FANOUT_BITS), c >> DIR_FANOUT_BITS, c)
}

/// Path of client `c`'s private file `slot`.
fn private_file(c: usize, slot: usize) -> String {
    format!("{}/w{slot}", client_dir(c))
}

/// One mounted client: its enclave volume and the AFS connection whose
/// lane all of its costs (RPC and modelled crypto) are charged to.
pub struct FsConn {
    /// The mounted, authenticated volume.
    pub volume: Arc<NexusVolume>,
    /// The client's AFS connection.
    pub afs: Arc<AfsClient>,
}

impl Source for Fs {
    type Conn = FsConn;
    type Client = AsyncVolume;

    const SEED: u64 = 0xF5_5CA1E_2026;
    // The second factor is the wire stream's salt, which the fs stream
    // has always carried; recorded schedules depend on it.
    const ARRIVAL_SALT: u64 = fnv1a(FNV_OFFSET, b"fs-arrivals") ^ Wire::ARRIVAL_SALT;

    /// The owner creates the volume on stream 0 of the seeded machine,
    /// registers an auditor user, writes the shared keyspace, and creates
    /// each client's home directory; client `c` then mounts the owner's
    /// sealed rootkey on stream `c+1` (same sealing identity, independent
    /// randomness) and authenticates. All setup cost lands before the
    /// measured epoch: every client lane is raised to the clock's
    /// post-setup value before this returns.
    fn deploy(&self, cell: &Cell) -> Deployment<FsConn> {
        let server = AfsServer::new();
        let clock = SimClock::new();
        let id_seed = cell.seed ^ fnv1a(FNV_OFFSET, b"fs-platform");
        let owner_platform = Platform::seeded_stream(id_seed, 0);
        let ias = AttestationService::new();
        ias.register_platform(&owner_platform);
        let owner = UserKeys::from_seed("owner", &[0x51u8; 32]);
        let auditor = UserKeys::from_seed("auditor", &[0x52u8; 32]);
        let nexus_cfg = NexusConfig::default();

        let owner_afs = connect_afs(&server, &clock, cell);
        let (owner_volume, sealed) =
            NexusVolume::create(&owner_platform, owner_afs.clone(), &ias, &owner, nexus_cfg)
                .expect("fs world: volume create");
        owner_volume.authenticate(&owner).expect("fs world: owner auth");
        owner_volume
            .add_user(auditor.name(), auditor.public_key())
            .expect("fs world: add auditor");

        owner_volume.mkdir("shared").expect("fs world: mkdir shared");
        for rank in 0..self.shared_files {
            let tag = fnv1a(fnv1a(FNV_OFFSET, b"shared"), &(rank as u64).to_le_bytes());
            owner_volume
                .write_file(&shared_file(rank), &payload(self.value_bytes, tag, 1))
                .expect("fs world: populate shared file");
        }
        if cell.clients > 0 {
            let last = cell.clients - 1;
            for t in 0..=(last >> (2 * DIR_FANOUT_BITS)) {
                owner_volume.mkdir(&format!("t{t}")).expect("fs world: mkdir t");
            }
            for g in 0..=(last >> DIR_FANOUT_BITS) {
                owner_volume
                    .mkdir(&format!("t{}/g{g}", g >> DIR_FANOUT_BITS))
                    .expect("fs world: mkdir g");
            }
            for c in 0..cell.clients {
                owner_volume.mkdir(&client_dir(c)).expect("fs world: mkdir client dir");
            }
        }
        // The owner's mount (and its ~N cached dirnodes) is setup
        // machinery; drop it before the run so only real clients hold
        // state.
        drop(owner_volume);
        drop(owner_afs);

        let conns: Vec<FsConn> = (0..cell.clients)
            .map(|c| {
                let platform = Platform::seeded_stream(id_seed, c as u64 + 1);
                let afs = connect_afs(&server, &clock, cell);
                let volume = NexusVolume::mount(&platform, afs.clone(), &ias, &sealed, nexus_cfg)
                    .expect("fs world: client mount");
                volume.authenticate(&owner).expect("fs world: client auth");
                FsConn { volume: Arc::new(volume), afs }
            })
            .collect();

        // Common start epoch: no client owes setup time to another.
        let now = clock.now();
        for conn in &conns {
            conn.afs.lane().raise_to(now);
        }
        Deployment { server, clock, conns }
    }

    fn connect(&self, conn: FsConn, timer: Timer) -> AsyncVolume {
        AsyncVolume::new(conn.volume, conn.afs.lane().clone(), timer, self.crypto)
    }

    fn lane(client: &AsyncVolume) -> &ClockLane {
        client.lane()
    }

    fn zipf(&self) -> Zipf {
        Zipf::new(self.shared_files, self.zipf_alpha)
    }

    fn ops(&self, cell: &Cell, zipf: &Zipf, c: usize) -> Vec<Op> {
        let salt = fnv1a(fnv1a(FNV_OFFSET, b"fs-ops"), &(c as u64).to_le_bytes());
        let mut rng = SeededRandom::new(cell.seed ^ salt);
        let mut writes = 0usize;
        let mut acls = 0usize;
        (0..cell.ops_per_client)
            .map(|_| {
                let u = f64_unit(&mut rng);
                if u < self.read_fraction {
                    Op::Read(zipf.sample_with(f64_unit(&mut rng)))
                } else if u < self.read_fraction + self.bulk_fraction {
                    Op::Bulk(zipf.sample_with(f64_unit(&mut rng)))
                } else if u < self.read_fraction + self.bulk_fraction + self.acl_fraction {
                    acls += 1;
                    Op::Acl(acls - 1)
                } else {
                    writes += 1;
                    Op::Write((writes - 1) % self.files_per_client.max(1))
                }
            })
            .collect()
    }

    async fn apply(&self, av: &AsyncVolume, c: usize, op: Op) -> Vec<u8> {
        match op {
            Op::Read(rank) => av.read_file(&self.shared(rank)).await.expect("fs read"),
            Op::Bulk(start) => {
                let paths: Vec<String> =
                    (0..self.bulk_width).map(|i| self.shared(start + i)).collect();
                av.read_files(&paths).await.expect("fs bulk read").concat()
            }
            Op::Write(slot) => {
                let tag = fnv1a(
                    fnv1a(fnv1a(FNV_OFFSET, b"private"), &(c as u64).to_le_bytes()),
                    &(slot as u64).to_le_bytes(),
                );
                let value = payload(self.value_bytes, tag, 3);
                av.write_file(&private_file(c, slot), &value).await.expect("fs write");
                value
            }
            Op::Acl(n) => {
                let rights = if n % 2 == 0 { Rights::READ } else { Rights::RW };
                av.set_acl(&client_dir(c), "auditor", rights).await.expect("fs acl");
                vec![n as u8]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_monotonic_and_indexable() {
        // Every sample lands in a bucket whose upper edge is at least it
        // and at most 1/32 above it; the edge itself is the bucket's last
        // sample, the next nanosecond the next bucket's first.
        for nanos in [0u64, 1, 31, 32, 33, 1000, 123_456, u64::MAX / 2, u64::MAX] {
            let i = LatencyHistogram::index(nanos);
            assert!(i < HIST_BUCKETS, "{nanos}");
            let upper = LatencyHistogram::bucket_upper(i);
            assert!(upper >= nanos && upper - nanos <= nanos / 32, "{nanos} in ..={upper}");
        }
        for i in 0..HIST_BUCKETS {
            let upper = LatencyHistogram::bucket_upper(i);
            assert_eq!(LatencyHistogram::index(upper), i);
            if i + 1 < HIST_BUCKETS {
                assert_eq!(LatencyHistogram::index(upper + 1), i + 1);
            }
        }
    }

    #[test]
    fn quantiles_of_a_constant_latency_are_not_below_its_mean() {
        let h = LatencyHistogram::new();
        let latency = Duration::from_nanos(1_210_200);
        for _ in 0..1000 {
            h.record(latency);
        }
        assert_eq!(h.mean(), latency);
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(h.quantile(q), latency, "q={q}: the bucket edge, clamped to the max");
        }
        // One outlier lifts the max: the body's quantiles move to their
        // bucket's edge, within the stated error, and stay at or above it.
        h.record(Duration::from_secs(1));
        let p50 = h.quantile(0.5);
        assert!(p50 >= latency && p50 - latency <= latency / 32, "{p50:?}");
    }

    #[test]
    fn histogram_quantiles_bracket_known_distribution() {
        let h = LatencyHistogram::new();
        for micros in 1..=1000u64 {
            h.record(Duration::from_micros(micros));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        let p999 = h.quantile(0.999);
        // Log buckets are ~3% wide; allow 5%.
        assert!((p50.as_nanos() as f64 - 500_000.0).abs() < 25_000.0, "{p50:?}");
        assert!((p99.as_nanos() as f64 - 990_000.0).abs() < 50_000.0, "{p99:?}");
        assert!(p50 <= p99 && p99 <= p999, "{p50:?} {p99:?} {p999:?}");
        assert_eq!(h.max(), Duration::from_millis(1));
        assert!(h.quantile(1.0) <= h.max());
    }

    #[test]
    fn merged_histograms_equal_one_shared_histogram() {
        // Per-client recording + merge must be indistinguishable from
        // every sample landing in one shared histogram: same count,
        // mean, max, and every quantile.
        let mut rng = SeededRandom::new(0xACC0);
        let shared = LatencyHistogram::new();
        let parts: Vec<LatencyHistogram> =
            (0..7).map(|_| LatencyHistogram::new()).collect();
        for i in 0..5000u64 {
            // Skewed spread across 9 orders of magnitude.
            let nanos = (rng.next_u64() % 1_000_000_000).saturating_pow(1) >> (i % 20);
            let sample = Duration::from_nanos(nanos);
            shared.record(sample);
            parts[(i % 7) as usize].record(sample);
        }
        let merged = LatencyHistogram::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged.count(), shared.count());
        assert_eq!(merged.mean(), shared.mean());
        assert_eq!(merged.max(), shared.max());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(merged.quantile(q), shared.quantile(q), "q={q}");
        }
        // Merging an empty histogram changes nothing.
        merged.merge(&LatencyHistogram::new());
        assert_eq!(merged.count(), shared.count());
        assert_eq!(merged.quantile(0.5), shared.quantile(0.5));
    }

    #[test]
    fn op_streams_are_deterministic_and_respect_the_mix() {
        let (wire, cell) = (Wire::standard(), Wire::cell(4, 1000));
        let zipf = wire.zipf();
        let a = wire.ops(&cell, &zipf, 2);
        let b = wire.ops(&cell, &zipf, 2);
        assert_eq!(a, b, "same client, same stream");
        assert_ne!(a, wire.ops(&cell, &zipf, 3), "clients diverge");
        let reads = a.iter().filter(|op| matches!(op, Op::Read(_))).count();
        let writes = a.iter().filter(|op| matches!(op, Op::Write(_))).count();
        assert_eq!(reads + writes, 1000, "wire streams hold reads and writes only");
        // 1000 ops at read_fraction 0.5: binomial ±~5σ bound.
        assert!((420..=580).contains(&reads), "{reads} reads of 1000");
    }

    #[test]
    fn fs_op_streams_are_deterministic_and_respect_the_mix() {
        let (fs, cell) = (Fs::standard(), Fs::cell(4, 400));
        let zipf = fs.zipf();
        let a = fs.ops(&cell, &zipf, 1);
        assert_eq!(a, fs.ops(&cell, &zipf, 1));
        assert_ne!(a, fs.ops(&cell, &zipf, 2));
        let reads = a.iter().filter(|op| matches!(op, Op::Read(_))).count();
        let bulks = a.iter().filter(|op| matches!(op, Op::Bulk(_))).count();
        let acls = a.iter().filter(|op| matches!(op, Op::Acl(_))).count();
        let writes = a.iter().filter(|op| matches!(op, Op::Write(_))).count();
        assert_eq!(reads + bulks + acls + writes, 400);
        // 400 ops at 40/15/10/35: generous binomial bounds.
        assert!((110..=210).contains(&reads), "{reads} reads");
        assert!((25..=100).contains(&bulks), "{bulks} bulks");
        assert!((10..=80).contains(&acls), "{acls} acls");
        assert!((85..=195).contains(&writes), "{writes} writes");
    }

    #[test]
    fn arrival_times_are_increasing_and_deterministic() {
        let cell = Wire::cell(2, 100);
        let a = arrivals_for_client::<Wire>(&cell, 50.0, 0, Duration::ZERO);
        assert_eq!(a, arrivals_for_client::<Wire>(&cell, 50.0, 0, Duration::ZERO));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // Mean gap 20 ms over 100 arrivals: the last lands around 2 s.
        assert!(a[99] > Duration::from_millis(500) && a[99] < Duration::from_secs(8), "{:?}", a[99]);
        // The schedule is anchored at the measured epoch, and the fs
        // stream is salted apart from the wire one.
        let t0 = Duration::from_secs(3);
        let shifted: Vec<Duration> = a.iter().map(|&at| at + t0).collect();
        assert_eq!(arrivals_for_client::<Wire>(&cell, 50.0, 0, t0), shifted);
        assert_ne!(arrivals_for_client::<Fs>(&cell, 50.0, 0, Duration::ZERO), a);
    }

    #[test]
    fn exec_world_runs_a_small_cell() {
        let cell = Wire::cell(50, 8);
        let world = World::Exec { threads: 2 };
        let report = run(&Wire::standard(), &cell, world);
        assert_eq!(report.total_ops, 400);
        assert_eq!(report.transcripts.len(), 50);
        assert!(report.os_threads <= nexus_exec::MAX_WORKERS);
        assert!(report.makespan > Duration::ZERO);
        assert!(report.wall > Duration::ZERO);
        assert!(report.agg_ops_per_sec > 0.0);
        assert_eq!(report.hist.all.count(), 400);
        assert_eq!(
            report.hist.reads.count() + report.hist.writes.count(),
            report.hist.all.count()
        );
        // Same cell, fresh world: identical transcripts and inventory.
        let again = run(&Wire::standard(), &cell, world);
        assert_eq!(report.transcripts, again.transcripts);
        assert_eq!(report.inventory, again.inventory);
    }

    /// Runs `cell` in every world and checks that nothing but the wall
    /// clock depends on which one ran.
    fn assert_worlds_agree<S: Source>(source: &S, cell: &Cell, what: &str) {
        let serial = run(source, cell, World::Serial);
        assert_eq!(serial.os_threads, 1);
        assert_eq!(serial.hist.all.count(), serial.total_ops, "{what}");
        for world in [World::Exec { threads: 1 }, World::Exec { threads: 4 }, World::Threads] {
            let other = run(source, cell, world);
            assert_eq!(other.transcripts, serial.transcripts, "{what}: {world:?} transcripts");
            assert_eq!(other.inventory, serial.inventory, "{what}: {world:?} inventory");
            assert_eq!(other.makespan, serial.makespan, "{what}: {world:?} makespan");
            assert_eq!(other.total_ops, serial.total_ops);
            assert_eq!(other.hist.all.count(), serial.hist.all.count());
            assert_eq!(other.hist.all.max(), serial.hist.all.max(), "{what}: {world:?} latency");
            match world {
                // The baseline burned a thread per client; the executor
                // did not.
                World::Threads => assert_eq!(other.os_threads, cell.clients),
                _ => assert!(other.os_threads <= 4),
            }
        }
    }

    #[test]
    fn every_world_executes_every_source_identically() {
        // The harness invariant: swapping the scheduling substrate changes
        // *nothing* about what executed — per-client transcript chains,
        // the server's (ciphertext) inventory and, lanes being charged
        // identically, the simulated makespan — closed and open loop.
        let open =
            |cell: Cell, per_client_hz| Cell { arrival: Arrival::Open { per_client_hz }, ..cell };
        assert_worlds_agree(&Wire::standard(), &Wire::cell(24, 12), "wire closed");
        assert_worlds_agree(&Wire::standard(), &open(Wire::cell(12, 16), 2000.0), "wire open");
        assert_worlds_agree(&Fs::standard(), &Fs::cell(12, 6), "fs closed");
        assert_worlds_agree(&Fs::standard(), &open(Fs::cell(6, 8), 2000.0), "fs open");
    }

    #[test]
    fn open_loop_records_queueing_delay() {
        // Arrivals far faster than service: closed loop would hide the
        // backlog (coordinated omission); open loop must surface it as
        // tail latency well above one op's service time.
        let wire = Wire::standard();
        let mut cell = Wire::cell(4, 32);
        cell.arrival = Arrival::Open { per_client_hz: 10_000.0 };
        let report = run(&wire, &cell, World::Exec { threads: 1 });
        let service = cell.latency.rpc_cost(wire.value_bytes);
        assert!(
            report.hist.all.quantile(0.99) > service * 4,
            "p99 {:?} vs one-op service {:?}",
            report.hist.all.quantile(0.99),
            service
        );
    }

    #[test]
    fn fs_open_loop_runs_and_records_queueing() {
        let mut cell = Fs::cell(4, 8);
        cell.arrival = Arrival::Open { per_client_hz: 2000.0 };
        let exec = run(&Fs::standard(), &cell, World::Exec { threads: 1 });
        assert_eq!(exec.hist.all.count(), 32);
        // 2 kHz arrivals against multi-ms enclave ops: the tail must
        // show queueing delay beyond a single op's cost.
        assert!(exec.hist.all.quantile(0.99) > exec.hist.all.quantile(0.1));
    }

    #[test]
    fn sixteen_fs_clients_overlap_in_virtual_time() {
        // Each client charges its own lane, so aggregate metadata
        // throughput grows with the client count; this fails if lanes ever
        // serialise again.
        let fs = Fs::standard();
        let one = run(&fs, &Fs::cell(1, 16), World::exec());
        let sixteen = run(&fs, &Fs::cell(16, 16), World::exec());
        let scaling = sixteen.agg_ops_per_sec / one.agg_ops_per_sec;
        assert!(scaling >= 3.0, "x{scaling:.2} aggregate fs throughput at 16 clients vs 1");
    }
}
