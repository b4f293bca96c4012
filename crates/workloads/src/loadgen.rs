//! Massive-scale load generation over the async executor (DESIGN.md §14).
//!
//! This module is the *executor world*: every simulated client is one
//! spawned future on [`nexus_exec::Executor`], so 100k clients multiplex
//! over at most [`nexus_exec::MAX_WORKERS`] OS threads. The matching
//! thread-per-client world lives in [`crate::loadgen_baseline`] — the two
//! share the per-client operation streams below, so their transcripts are
//! byte-identical and only the scheduling substrate differs.
//!
//! Workload shape (the classic key-value scale recipe):
//!
//! - **Zipf(α) reads** over a shared, pre-populated keyspace. Shared keys
//!   are never written during the run, so a client's hit/miss sequence
//!   depends only on its *own* access history — deterministic under any
//!   cross-client interleaving.
//! - **Private writes**: each client appends to its own `c{i}/w{k}`
//!   namespace. No cross-client callback invalidations, so all operations
//!   commute and both worlds produce identical per-client transcripts and
//!   identical server inventories.
//! - **Arrival processes**: closed-loop (next op issues when the previous
//!   completes) or open-loop (ops arrive on a deterministic Poisson
//!   schedule, independent of service times, so queueing delay — the
//!   coordinated-omission tail — lands in the latency histogram).
//!
//! All randomness flows from `nexus_crypto::rng::SeededRandom` streams
//! derived per client from the run seed, through the source-agnostic
//! samplers in `nexus_testkit::dist`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nexus_crypto::rng::{SecureRandom, SeededRandom};
use nexus_exec::io::AsyncStorage;
use nexus_exec::Executor;
use nexus_storage::afs::{AfsClient, AfsServer};
use nexus_storage::{LatencyModel, SimClock, StorageBackend};
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
pub struct ScaleConfig {
    /// Simulated client count.
    pub clients: usize,
    /// Operations per client.
    pub ops_per_client: usize,
    /// Size of the shared read-only keyspace.
    pub shared_keys: usize,
    /// Object payload size in bytes.
    pub value_bytes: usize,
    /// Zipf skew over the shared keyspace (0 = uniform).
    pub zipf_alpha: f64,
    /// Fraction of operations that are shared-keyspace reads; the rest
    /// are private writes.
    pub read_fraction: f64,
    /// Run seed; per-client streams derive from it.
    pub seed: u64,
    /// Arrival process.
    pub arrival: Arrival,
    /// Executor OS-thread budget (clamped to `nexus_exec::MAX_WORKERS`).
    pub threads: usize,
    /// Simulated network/disk cost model.
    pub latency: LatencyModel,
}

impl ScaleConfig {
    /// The standard cell: paper-calibrated latencies, Zipf(0.99) reads,
    /// half reads half writes, closed loop.
    pub fn standard(clients: usize, ops_per_client: usize) -> ScaleConfig {
        ScaleConfig {
            clients,
            ops_per_client,
            shared_keys: 512,
            value_bytes: 64,
            zipf_alpha: 0.99,
            read_fraction: 0.5,
            seed: 0x5CA1E_2026,
            arrival: Arrival::Closed,
            threads: nexus_exec::MAX_WORKERS,
            latency: LatencyModel::paper_calibrated(),
        }
    }
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read shared key of this Zipf rank.
    Read(usize),
    /// Write this client's private object number `k`.
    Write(usize),
}

/// Path of a shared key. (Not UUID-shaped, so it FNV-spreads across the
/// server's lock shards.)
pub fn shared_key(rank: usize) -> String {
    format!("shared/k{rank}")
}

/// Path of client `c`'s private object `k`.
pub fn private_key(c: usize, k: usize) -> String {
    format!("c{c}/w{k}")
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub(crate) fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Uniform `f64` in `[0, 1)` from the top 53 bits of a `u64` draw.
pub(crate) fn f64_unit(rng: &mut SeededRandom) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The deterministic operation stream for client `c` — the *same* stream
/// both worlds execute, derived only from the config and client index.
pub fn ops_for_client(cfg: &ScaleConfig, zipf: &Zipf, c: usize) -> Vec<Op> {
    let mut rng = SeededRandom::new(cfg.seed ^ fnv1a(FNV_OFFSET, &(c as u64).to_le_bytes()));
    let mut writes = 0usize;
    (0..cfg.ops_per_client)
        .map(|_| {
            if f64_unit(&mut rng) < cfg.read_fraction {
                Op::Read(zipf.sample_with(f64_unit(&mut rng)))
            } else {
                let k = writes;
                writes += 1;
                Op::Write(k)
            }
        })
        .collect()
}

/// The deterministic open-loop arrival times for client `c` (absolute
/// offsets from the run start). Drawn from a stream salted differently
/// from the op stream so closed- and open-loop runs execute identical ops.
pub fn arrivals_for_client(cfg: &ScaleConfig, per_client_hz: f64, c: usize) -> Vec<Duration> {
    let process = PoissonArrivals::from_rate_hz(per_client_hz);
    let salt = fnv1a(FNV_OFFSET, b"arrivals");
    let mut rng = SeededRandom::new(cfg.seed ^ salt ^ fnv1a(FNV_OFFSET, &(c as u64).to_le_bytes()));
    let mut t = Duration::ZERO;
    (0..cfg.ops_per_client)
        .map(|_| {
            t += process.next_gap_with(f64_unit(&mut rng));
            t
        })
        .collect()
}

/// Folds one completed operation into a client's transcript chain. Both
/// worlds call this with the same inputs in the same per-client order, so
/// equal chains mean equal execution — independent of timing.
pub fn fold_transcript(chain: u64, op: Op, result: &[u8]) -> u64 {
    let mut h = match op {
        Op::Read(rank) => fnv1a(fnv1a(chain, b"R"), &(rank as u64).to_le_bytes()),
        Op::Write(k) => fnv1a(fnv1a(chain, b"W"), &(k as u64).to_le_bytes()),
    };
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

/// Pre-populates the shared keyspace directly on the server's raw store
/// (outside simulated time), so every client's first read of a key is a
/// real fetch and later reads are cache hits.
pub fn populate_shared_keys(server: &AfsServer, cfg: &ScaleConfig) {
    for rank in 0..cfg.shared_keys {
        let mut value = vec![0u8; cfg.value_bytes];
        let tag = (rank as u64).to_le_bytes();
        for (i, b) in value.iter_mut().enumerate() {
            *b = tag[i % 8] ^ i as u8;
        }
        server.raw_store().put(&shared_key(rank), &value).expect("populate shared key");
    }
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
    /// Shared-keyspace reads.
    pub reads: LatencyHistogram,
    /// Private writes.
    pub writes: LatencyHistogram,
    /// Every operation.
    pub all: LatencyHistogram,
}

/// The outcome of driving one scale cell through one world.
#[derive(Debug)]
pub struct ScaleReport {
    /// Simulated run duration (slowest client's lane).
    pub makespan: Duration,
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

impl ScaleReport {
    pub(crate) fn from_world(
        makespan: Duration,
        cfg: &ScaleConfig,
        hist: Arc<RunHistograms>,
        transcripts: Vec<u64>,
        server: &AfsServer,
        os_threads: usize,
    ) -> ScaleReport {
        ScaleReport::assemble(
            makespan,
            (cfg.clients * cfg.ops_per_client) as u64,
            hist,
            transcripts,
            server,
            os_threads,
        )
    }

    /// Assembles a report from raw run outputs (shared by the wire-level
    /// and fs-level harnesses).
    pub(crate) fn assemble(
        makespan: Duration,
        total_ops: u64,
        hist: Arc<RunHistograms>,
        transcripts: Vec<u64>,
        server: &AfsServer,
        os_threads: usize,
    ) -> ScaleReport {
        let secs = makespan.as_secs_f64();
        let agg_ops_per_sec = if secs > 0.0 { total_ops as f64 / secs } else { 0.0 };
        ScaleReport {
            makespan,
            total_ops,
            agg_ops_per_sec,
            hist,
            transcripts,
            inventory: inventory_digest(server),
            os_threads,
        }
    }
}

/// Executes one client's op stream against `afs`, recording latencies and
/// returning the transcript chain. `arrivals` is `Some` for open loop.
async fn drive_client(
    afs: AsyncStorage<AfsClient>,
    ops: Vec<Op>,
    arrivals: Option<Vec<Duration>>,
    client: usize,
    value_bytes: usize,
    hist: Arc<RunHistograms>,
) -> u64 {
    let mut chain = FNV_OFFSET;
    for (k, op) in ops.into_iter().enumerate() {
        let issue = match &arrivals {
            Some(at) => {
                afs.begin_at(at[k]).await;
                at[k]
            }
            None => afs.local_now(),
        };
        let result = match op {
            Op::Read(rank) => afs.get(&shared_key(rank)).await.expect("shared read"),
            Op::Write(w) => {
                let value = vec![client as u8; value_bytes];
                afs.put(&private_key(client, w), &value).await.expect("private write");
                value
            }
        };
        let latency = afs.local_now().saturating_sub(issue);
        match op {
            Op::Read(_) => hist.reads.record(latency),
            Op::Write(_) => hist.writes.record(latency),
        }
        hist.all.record(latency);
        chain = fold_transcript(chain, op, &result);
    }
    chain
}

/// Runs one scale cell in the executor world: `cfg.clients` simulated
/// clients as futures over at most `cfg.threads` OS threads.
pub fn run_scale_exec(cfg: &ScaleConfig) -> ScaleReport {
    let server = AfsServer::new();
    let clock = SimClock::new();
    populate_shared_keys(&server, cfg);
    let zipf = Zipf::new(cfg.shared_keys, cfg.zipf_alpha);
    let hist = Arc::new(RunHistograms::default());
    let ex = Executor::new(clock.clone(), cfg.threads);
    let os_threads = ex.os_threads();

    let t0 = clock.now();
    let handles: Vec<_> = (0..cfg.clients)
        .map(|c| {
            // One cache shard per simulated client: its cache has no
            // internal contention, and 16 mutexes × 100k clients is pure
            // memory overhead.
            let afs = AsyncStorage::new(
                Arc::new(AfsClient::connect_with_cache_shards(
                    &server,
                    clock.clone(),
                    cfg.latency,
                    1,
                )),
                ex.timer(),
            );
            let ops = ops_for_client(cfg, &zipf, c);
            let arrivals = match cfg.arrival {
                Arrival::Closed => None,
                Arrival::Open { per_client_hz } => {
                    Some(arrivals_for_client(cfg, per_client_hz, c))
                }
            };
            ex.spawn(drive_client(afs, ops, arrivals, c, cfg.value_bytes, hist.clone()))
        })
        .collect();
    ex.run_until_idle();
    let makespan = clock.now() - t0;

    let transcripts =
        handles.iter().map(|h| h.try_take().expect("client completed")).collect();
    ScaleReport::from_world(makespan, cfg, hist, transcripts, &server, os_threads)
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
        let cfg = ScaleConfig::standard(4, 1000);
        let zipf = Zipf::new(cfg.shared_keys, cfg.zipf_alpha);
        let a = ops_for_client(&cfg, &zipf, 2);
        let b = ops_for_client(&cfg, &zipf, 2);
        assert_eq!(a, b, "same client, same stream");
        assert_ne!(a, ops_for_client(&cfg, &zipf, 3), "clients diverge");
        let reads = a.iter().filter(|op| matches!(op, Op::Read(_))).count();
        // 1000 ops at read_fraction 0.5: binomial ±~5σ bound.
        assert!((420..=580).contains(&reads), "{reads} reads of 1000");
    }

    #[test]
    fn arrival_times_are_increasing_and_deterministic() {
        let cfg = ScaleConfig::standard(2, 100);
        let a = arrivals_for_client(&cfg, 50.0, 0);
        assert_eq!(a, arrivals_for_client(&cfg, 50.0, 0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // Mean gap 20 ms over 100 arrivals: the last lands around 2 s.
        assert!(a[99] > Duration::from_millis(500) && a[99] < Duration::from_secs(8), "{:?}", a[99]);
    }

    #[test]
    fn exec_world_runs_a_small_cell() {
        let mut cfg = ScaleConfig::standard(50, 8);
        cfg.threads = 2;
        let report = run_scale_exec(&cfg);
        assert_eq!(report.total_ops, 400);
        assert_eq!(report.transcripts.len(), 50);
        assert!(report.os_threads <= nexus_exec::MAX_WORKERS);
        assert!(report.makespan > Duration::ZERO);
        assert!(report.agg_ops_per_sec > 0.0);
        assert_eq!(report.hist.all.count(), 400);
        assert_eq!(
            report.hist.reads.count() + report.hist.writes.count(),
            report.hist.all.count()
        );
        // Same config, fresh world: identical transcripts and inventory.
        let again = run_scale_exec(&cfg);
        assert_eq!(report.transcripts, again.transcripts);
        assert_eq!(report.inventory, again.inventory);
    }

    #[test]
    fn open_loop_records_queueing_delay() {
        // Arrivals far faster than service: closed loop would hide the
        // backlog (coordinated omission); open loop must surface it as
        // tail latency well above one op's service time.
        let mut cfg = ScaleConfig::standard(4, 32);
        cfg.threads = 1;
        cfg.arrival = Arrival::Open { per_client_hz: 10_000.0 };
        let report = run_scale_exec(&cfg);
        let service = cfg.latency.rpc_cost(cfg.value_bytes);
        assert!(
            report.hist.all.quantile(0.99) > service * 4,
            "p99 {:?} vs one-op service {:?}",
            report.hist.all.quantile(0.99),
            service
        );
    }
}
