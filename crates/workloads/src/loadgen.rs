//! The load driver of the scale harness (DESIGN.md §14): one
//! [`run`]`(source, cell, world)` for
//!
//! - the **op source** ([`Fs`]) — what a client does: it mounts a real
//!   [`NexusVolume`] per client and drives the paper's data path
//!   (`AsyncVolume`: reads, batched `read_files`, whole-file writes, ACL
//!   churn — seal/open, metadata commits, freshness checks and all);
//! - each **cell** ([`Cell`]) — how many clients, how many ops each, the
//!   arrival process;
//! - each **world** ([`World`]) — in what order the clients are polled:
//!   all at once as futures on the `nexus-exec` executor (100k clients on
//!   one OS thread), or one after another (the serial oracle). Both run on
//!   the calling thread; which OS thread polls a client is not part of the
//!   system under test.
//!
//! The run seed (`Fs::SEED`), the latency model
//! (`LatencyModel::paper_calibrated`), the op mix and the modelled crypto
//! cost are constants: every figure the harness records is a function of
//! the three settings a cell or a source takes.
//!
//! A client is one future, `drive_client`, in both worlds: the serial
//! world polls it on the same single-thread executor instead of keeping a
//! synchronous twin, so the op → call mapping exists once, over the
//! adapter users get.
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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nexus_core::async_fs::{AsyncVolume, CryptoCost};
use nexus_core::{NexusConfig, NexusVolume, Rights, UserKeys};
use nexus_crypto::rng::{SecureRandom, SeededRandom};
use nexus_exec::{Executor, Timer};
use nexus_sgx::{AttestationService, Platform};
use nexus_storage::afs::{AfsClient, AfsServer};
use nexus_storage::{LatencyModel, SimClock};
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

/// One scale-harness cell: N clients, each running an op stream seeded
/// from `Fs::SEED` and its index.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Simulated client count.
    pub clients: usize,
    /// Operations per client.
    pub ops_per_client: usize,
    /// Arrival process.
    pub arrival: Arrival,
}

/// In what order a cell's clients are polled, on the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum World {
    /// Every client a future on one `nexus-exec` executor.
    Exec,
    /// One client at a time, in client order — the ground truth the
    /// executor world must be byte-identical to.
    Serial,
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read the shared file of this Zipf rank.
    Read(usize),
    /// Batched `read_files` of `Fs::BULK_WIDTH` shared files from this
    /// rank.
    Bulk(usize),
    /// Write one of this client's private files (a slot the writes cycle
    /// over).
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
/// clock, and one mounted client per index, every lane at the clock's
/// post-setup value.
pub struct Deployment {
    /// The shared store.
    pub server: AfsServer,
    /// The shared virtual clock.
    pub clock: SimClock,
    /// The clients' mounts.
    pub conns: Vec<FsConn>,
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

/// Opens one client's connection, on a lane of its own.
fn connect_afs(server: &AfsServer, clock: &SimClock) -> Arc<AfsClient> {
    Arc::new(AfsClient::connect(server, clock.clone(), LatencyModel::paper_calibrated()))
}

/// Uniform `f64` in `[0, 1)` from the top 53 bits of a `u64` draw.
fn f64_unit(rng: &mut SeededRandom) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The deterministic open-loop arrival times of client `c`, offset to the
/// measured epoch `t0`: setup (mounts, the owner's directory tree) has
/// already consumed virtual time, and a schedule anchored at zero would
/// book all of it as queueing delay on the first arrivals.
fn arrivals_for_client(
    cell: &Cell,
    per_client_hz: f64,
    c: usize,
    t0: Duration,
) -> Vec<Duration> {
    let process = PoissonArrivals::from_rate_hz(per_client_hz);
    let mut rng = SeededRandom::new(
        Fs::SEED ^ Fs::ARRIVAL_SALT ^ fnv1a(FNV_OFFSET, &(c as u64).to_le_bytes()),
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
}

/// One client's whole run, in both worlds: hold each op until its issue
/// time, execute it, record the latency, fold the transcript. `arrivals`
/// is `Some` for open loop.
async fn drive_client(
    source: Fs,
    client: AsyncVolume,
    c: usize,
    ops: Vec<Op>,
    arrivals: Option<Vec<Duration>>,
    hist: Arc<RunHistograms>,
) -> u64 {
    let mut chain = FNV_OFFSET;
    for (k, op) in ops.into_iter().enumerate() {
        let issue = match &arrivals {
            // The connection idles until its scheduled request time; one
            // that is still busy then issues late, and the wait is booked
            // as latency from the arrival.
            Some(at) => {
                client.begin_at(at[k]).await;
                at[k]
            }
            None => client.local_now(),
        };
        let result = source.apply(&client, c, op).await;
        let latency = client.local_now().saturating_sub(issue);
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

/// Runs one cell of `source` in `world`.
pub fn run(source: &Fs, cell: &Cell, world: World) -> ScaleReport {
    // Every connection exists before the first op: a lane is born at the
    // shared clock's current value, so one opened while earlier clients
    // already charge RPCs would start ahead and inflate the makespan.
    let Deployment { server, clock, conns } = source.deploy(cell);
    let zipf = source.zipf();
    let hist = Arc::new(RunHistograms::default());

    let t0 = clock.now();
    let started = Instant::now();
    let ex = Executor::single(clock.clone());
    let mut handles = Vec::with_capacity(cell.clients);
    for (c, conn) in conns.into_iter().enumerate() {
        let arrivals = match cell.arrival {
            Arrival::Closed => None,
            Arrival::Open { per_client_hz } => {
                Some(arrivals_for_client(cell, per_client_hz, c, t0))
            }
        };
        handles.push(ex.spawn(drive_client(
            source.clone(),
            source.connect(conn, ex.timer()),
            c,
            source.ops(cell, &zipf, c),
            arrivals,
            hist.clone(),
        )));
        if world == World::Serial {
            ex.run_until_idle();
        }
    }
    ex.run_until_idle();
    let transcripts = handles.iter().map(|h| h.try_take().expect("client completed")).collect();
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
/// slots and ACL churn on its own directory, its in-enclave CPU cost
/// charged to the lane as `CryptoCost::paper_calibrated`.
#[derive(Debug, Clone)]
pub struct Fs {
    /// Files in the shared read-only keyspace (written at setup).
    pub shared_files: usize,
    /// File payload size in bytes.
    pub value_bytes: usize,
    /// Private files per client (writes cycle through these slots).
    pub files_per_client: usize,
}

impl Fs {
    /// The standard keyspace: 64 shared files of 256 bytes and 8 private
    /// slots per client.
    pub fn standard() -> Fs {
        Fs { shared_files: 64, value_bytes: 256, files_per_client: 8 }
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

impl Fs {
    /// The run seed; every client's op and arrival streams derive from it
    /// and the client's index.
    const SEED: u64 = 0xF5_5CA1E_2026;
    /// Salts the arrival stream apart from the op stream, so closed- and
    /// open-loop runs execute identical ops. Both factors are part of
    /// every recorded open-loop schedule.
    const ARRIVAL_SALT: u64 =
        fnv1a(FNV_OFFSET, b"fs-arrivals") ^ fnv1a(FNV_OFFSET, b"arrivals");
    /// Files per bulk (`read_files`) operation.
    const BULK_WIDTH: usize = 4;
    /// Zipf skew over the shared files.
    const ZIPF_ALPHA: f64 = 0.99;
    /// Fraction of ops that are single shared-file reads.
    const READ_FRACTION: f64 = 0.40;
    /// Fraction of ops that are batched `read_files` bulk reads.
    const BULK_FRACTION: f64 = 0.15;
    /// Fraction of ops that are ACL updates on the client's directory;
    /// what the three fractions leave are private writes.
    const ACL_FRACTION: f64 = 0.10;

    /// A closed-loop cell.
    pub fn cell(clients: usize, ops_per_client: usize) -> Cell {
        Cell { clients, ops_per_client, arrival: Arrival::Closed }
    }

    /// The owner creates the volume on stream 0 of the seeded machine,
    /// registers an auditor user, writes the shared keyspace, and creates
    /// each client's home directory; client `c` then mounts the owner's
    /// sealed rootkey on stream `c+1` (same sealing identity, independent
    /// randomness) and authenticates. All setup cost lands before the
    /// measured epoch: every client lane is raised to the clock's
    /// post-setup value before this returns.
    pub fn deploy(&self, cell: &Cell) -> Deployment {
        let server = AfsServer::new();
        let clock = SimClock::new();
        let id_seed = Fs::SEED ^ fnv1a(FNV_OFFSET, b"fs-platform");
        let owner_platform = Platform::seeded_stream(id_seed, 0);
        let ias = AttestationService::new();
        ias.register_platform(&owner_platform);
        let owner = UserKeys::from_seed("owner", &[0x51u8; 32]);
        let auditor = UserKeys::from_seed("auditor", &[0x52u8; 32]);
        let nexus_cfg = NexusConfig::default();

        let owner_afs = connect_afs(&server, &clock);
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
                let afs = connect_afs(&server, &clock);
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

    /// Lifts a mounted client onto `timer`'s executor.
    fn connect(&self, conn: FsConn, timer: Timer) -> AsyncVolume {
        let crypto = CryptoCost::paper_calibrated();
        AsyncVolume::new(conn.volume, conn.afs.lane().clone(), timer, crypto)
    }

    /// The popularity sampler over the shared files.
    fn zipf(&self) -> Zipf {
        Zipf::new(self.shared_files, Fs::ZIPF_ALPHA)
    }

    /// The deterministic op stream of client `c` — the same in every
    /// world, derived only from the source, the cell and the index.
    fn ops(&self, cell: &Cell, zipf: &Zipf, c: usize) -> Vec<Op> {
        let salt = fnv1a(fnv1a(FNV_OFFSET, b"fs-ops"), &(c as u64).to_le_bytes());
        let mut rng = SeededRandom::new(Fs::SEED ^ salt);
        let mut writes = 0usize;
        let mut acls = 0usize;
        (0..cell.ops_per_client)
            .map(|_| {
                let u = f64_unit(&mut rng);
                if u < Fs::READ_FRACTION {
                    Op::Read(zipf.sample_with(f64_unit(&mut rng)))
                } else if u < Fs::READ_FRACTION + Fs::BULK_FRACTION {
                    Op::Bulk(zipf.sample_with(f64_unit(&mut rng)))
                } else if u < Fs::READ_FRACTION + Fs::BULK_FRACTION + Fs::ACL_FRACTION {
                    acls += 1;
                    Op::Acl(acls - 1)
                } else {
                    writes += 1;
                    Op::Write((writes - 1) % self.files_per_client.max(1))
                }
            })
            .collect()
    }

    /// Executes `op` for client `c` and returns the transcript-relevant
    /// bytes.
    async fn apply(&self, av: &AsyncVolume, c: usize, op: Op) -> Vec<u8> {
        match op {
            Op::Read(rank) => av.read_file(&self.shared(rank)).await.expect("fs read"),
            Op::Bulk(start) => {
                let paths: Vec<String> =
                    (0..Fs::BULK_WIDTH).map(|i| self.shared(start + i)).collect();
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
        let cell = Fs::cell(2, 100);
        let a = arrivals_for_client(&cell, 50.0, 0, Duration::ZERO);
        assert_eq!(a, arrivals_for_client(&cell, 50.0, 0, Duration::ZERO));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // Mean gap 20 ms over 100 arrivals: the last lands around 2 s.
        assert!(a[99] > Duration::from_millis(500) && a[99] < Duration::from_secs(8), "{:?}", a[99]);
        // The schedule is anchored at the measured epoch, and every client
        // has a stream of its own.
        let t0 = Duration::from_secs(3);
        let shifted: Vec<Duration> = a.iter().map(|&at| at + t0).collect();
        assert_eq!(arrivals_for_client(&cell, 50.0, 0, t0), shifted);
        assert_ne!(arrivals_for_client(&cell, 50.0, 1, Duration::ZERO), a);
    }

    #[test]
    fn exec_world_runs_a_small_cell() {
        let cell = Fs::cell(16, 6);
        let world = World::Exec;
        let report = run(&Fs::standard(), &cell, world);
        assert_eq!(report.total_ops, 96);
        assert_eq!(report.transcripts.len(), 16);
        assert!(report.makespan > Duration::ZERO);
        assert!(report.wall > Duration::ZERO);
        assert!(report.agg_ops_per_sec > 0.0);
        assert_eq!(report.hist.all.count(), 96);
        assert_eq!(
            report.hist.reads.count() + report.hist.writes.count(),
            report.hist.all.count()
        );
        // Same cell, fresh world: identical transcripts and inventory.
        let again = run(&Fs::standard(), &cell, world);
        assert_eq!(report.transcripts, again.transcripts);
        assert_eq!(report.inventory, again.inventory);
    }

    /// Runs `cell` in both worlds and checks that nothing but the wall
    /// clock depends on which one ran.
    fn assert_worlds_agree(source: &Fs, cell: &Cell, what: &str) {
        let serial = run(source, cell, World::Serial);
        assert_eq!(serial.hist.all.count(), serial.total_ops, "{what}");
        let exec = run(source, cell, World::Exec);
        assert_eq!(exec.transcripts, serial.transcripts, "{what}: transcripts");
        assert_eq!(exec.inventory, serial.inventory, "{what}: inventory");
        assert_eq!(exec.makespan, serial.makespan, "{what}: makespan");
        assert_eq!(exec.total_ops, serial.total_ops);
        assert_eq!(exec.hist.all.count(), serial.hist.all.count());
        assert_eq!(exec.hist.all.max(), serial.hist.all.max(), "{what}: latency");
    }

    #[test]
    fn every_world_executes_every_source_identically() {
        // The harness invariant: swapping the polling order changes
        // *nothing* about what executed — per-client transcript chains,
        // the server's (ciphertext) inventory and, lanes being charged
        // identically, the simulated makespan — closed and open loop.
        let open =
            |cell: Cell, per_client_hz| Cell { arrival: Arrival::Open { per_client_hz }, ..cell };
        assert_worlds_agree(&Fs::standard(), &Fs::cell(12, 6), "fs closed");
        assert_worlds_agree(&Fs::standard(), &open(Fs::cell(6, 8), 2000.0), "fs open");
    }

    #[test]
    fn fs_open_loop_runs_and_records_queueing() {
        let mut cell = Fs::cell(4, 8);
        cell.arrival = Arrival::Open { per_client_hz: 2000.0 };
        let exec = run(&Fs::standard(), &cell, World::Exec);
        assert_eq!(exec.hist.all.count(), 32);
        // 2 kHz arrivals against multi-ms enclave ops: the tail must
        // show queueing delay beyond a single op's cost.
        assert!(exec.hist.all.quantile(0.99) > exec.hist.all.quantile(0.1));
    }

    /// What a run executed and what it measured, as literals: the
    /// transcript chains folded to one digest, the server's inventory, the
    /// makespan in ns and the p99 of every op in ns.
    fn pinned(cell: &Cell) -> [u64; 4] {
        let report = run(&Fs::standard(), cell, World::Exec);
        let chains = report.transcripts.iter().fold(FNV_OFFSET, |h, t| fnv1a(h, &t.to_le_bytes()));
        let nanos = |d: Duration| d.as_nanos() as u64;
        [chains, report.inventory, nanos(report.makespan), nanos(report.hist.all.quantile(0.99))]
    }

    #[test]
    fn the_standard_harness_runs_the_recorded_workload() {
        // Every figure `micro_scale` records is a function of the harness's
        // settings; these literals hold a change to the harness to
        // executing and charging what it did before, closed and open loop.
        assert_eq!(
            pinned(&Fs::cell(16, 6)),
            [14_900_224_294_755_041_673, 8_008_771_141_146_723_733, 42_471_147, 16_839_713],
            "closed loop"
        );
        let open = Cell { arrival: Arrival::Open { per_client_hz: 2000.0 }, ..Fs::cell(4, 8) };
        assert_eq!(
            pinned(&open),
            [7_231_178_927_031_364_303, 14_420_578_100_499_000_523, 48_313_612, 44_731_373],
            "open loop"
        );
    }

    #[test]
    fn sixteen_fs_clients_overlap_in_virtual_time() {
        // Each client charges its own lane, so aggregate metadata
        // throughput grows with the client count; this fails if lanes ever
        // serialise again.
        let fs = Fs::standard();
        let one = run(&fs, &Fs::cell(1, 16), World::Exec);
        let sixteen = run(&fs, &Fs::cell(16, 16), World::Exec);
        let scaling = sixteen.agg_ops_per_sec / one.agg_ops_per_sec;
        assert!(scaling >= 3.0, "x{scaling:.2} aggregate fs throughput at 16 clients vs 1");
    }
}
