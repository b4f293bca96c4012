//! Massive-scale load generation over the *crypto-fs* layer (DESIGN.md
//! §15): full enclave clients — seal/open, dirnode/filenode metadata
//! commits, freshness checks, batched fetch→decrypt — as futures on the
//! `nexus-exec` executor.
//!
//! Where [`crate::loadgen`] drives the raw `StorageBackend` RPC surface,
//! this module mounts a real [`NexusVolume`] per simulated client and
//! drives the paper's actual data path. The worlds:
//!
//! - **async** ([`run_fs_scale_exec`]): one [`AsyncVolume`] future per
//!   client over ≤ `nexus_exec::MAX_WORKERS` OS threads;
//! - **serial oracle** ([`run_fs_scale_serial`]): the same clients run
//!   one after another on the calling thread — the pre-timing ground
//!   truth the async world must be byte-identical to;
//! - **thread-per-client** ([`crate::loadgen_baseline::run_fs_scale_threads`]):
//!   the `ConcurrentRig`-style baseline the ≥ 5× floor is gated against.
//!
//! ## Determinism at 100k enclaves
//!
//! Enclave randomness (fresh file UUIDs, per-chunk data keys, seal
//! nonces) comes from the *platform* RNG. One shared platform would
//! interleave all clients' draws schedule-dependently; same-seed replica
//! platforms would make all clients draw *identical* UUIDs and collide.
//! [`Platform::seeded_stream`] resolves this: every client is a process
//! on the same simulated machine (one sealing identity, so the owner's
//! [`SealedRootKey`] mounts everywhere) with its own deterministic RNG
//! stream — each client's draw sequence is a pure function of the run
//! seed and its index, under any scheduling. Combined with a commuting
//! op mix (Zipf reads + bulk reads of a setup-time shared keyspace,
//! private writes, ACL churn on the client's own directory), per-client
//! transcript chains and the server's ciphertext inventory are identical
//! in all three worlds.
//!
//! CPU crypto is charged to each client's `ClockLane` through the
//! modelled [`CryptoCost`] — identically in every world — so virtual
//! time stays honest about enclave compute without inheriting the host
//! scheduler's nondeterminism (lane-charging rules in DESIGN.md §15).

use std::sync::Arc;
use std::time::Duration;

use nexus_core::async_fs::{AsyncVolume, CryptoCost};
use nexus_core::{NexusConfig, NexusVolume, Rights, UserKeys};
use nexus_crypto::rng::SeededRandom;
use nexus_exec::Executor;
use nexus_sgx::{AttestationService, Platform};
use nexus_storage::afs::{AfsClient, AfsServer};
use nexus_storage::{LatencyModel, SimClock};
use nexus_testkit::dist::Zipf;

use crate::loadgen::{
    f64_unit, fnv1a, Arrival, RunHistograms, ScaleConfig, ScaleReport, FNV_OFFSET,
};

/// Directory fan-out: every dirnode in the client tree stays at or below
/// this many entries, so no path component's metadata object grows with
/// the client count.
const DIR_FANOUT_BITS: u32 = 7;

/// One fs-level scale cell: N mounted enclave clients, each running a
/// seeded op stream against its own volume mount over one shared server.
#[derive(Debug, Clone)]
pub struct FsScaleConfig {
    /// Simulated client count (each is a full `NexusVolume` mount).
    pub clients: usize,
    /// Operations per client.
    pub ops_per_client: usize,
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
    /// Fraction of ops that are ACL updates on the client's directory.
    pub acl_fraction: f64,
    /// Run seed; platform streams and op streams derive from it.
    pub seed: u64,
    /// Arrival process.
    pub arrival: Arrival,
    /// Executor OS-thread budget (clamped to `nexus_exec::MAX_WORKERS`).
    pub threads: usize,
    /// Simulated network/disk cost model.
    pub latency: LatencyModel,
    /// Modelled in-enclave CPU cost, charged per op on the lane.
    pub crypto: CryptoCost,
}

impl FsScaleConfig {
    /// The standard fs cell: paper-calibrated RPC and crypto costs,
    /// Zipf(0.99) over 64 shared files, a repos/dbbench-flavoured mix of
    /// 40% reads / 15% bulk reads / 10% ACL churn / 35% private writes,
    /// closed loop.
    pub fn standard(clients: usize, ops_per_client: usize) -> FsScaleConfig {
        FsScaleConfig {
            clients,
            ops_per_client,
            shared_files: 64,
            value_bytes: 256,
            files_per_client: 8,
            bulk_width: 4,
            zipf_alpha: 0.99,
            read_fraction: 0.40,
            bulk_fraction: 0.15,
            acl_fraction: 0.10,
            seed: 0xF5_5CA1E_2026,
            arrival: Arrival::Closed,
            threads: nexus_exec::MAX_WORKERS,
            latency: LatencyModel::paper_calibrated(),
            crypto: CryptoCost::paper_calibrated(),
        }
    }
}

/// One generated fs operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsOp {
    /// Read the shared file of this Zipf rank.
    Read(usize),
    /// Batched `read_files` of `bulk_width` shared files from this rank.
    Bulk(usize),
    /// Write this client's private file slot.
    Write(usize),
    /// Toggle the auditor's rights on this client's directory (`n`th
    /// ACL update: even = read-only, odd = read-write).
    Acl(usize),
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
pub fn private_file(c: usize, slot: usize) -> String {
    format!("{}/w{slot}", client_dir(c))
}

/// Deterministic payload of shared file `rank`.
pub fn shared_value(cfg: &FsScaleConfig, rank: usize) -> Vec<u8> {
    let tag = fnv1a(fnv1a(FNV_OFFSET, b"shared"), &(rank as u64).to_le_bytes()).to_le_bytes();
    (0..cfg.value_bytes).map(|i| tag[i % 8] ^ i as u8).collect()
}

/// Deterministic payload client `c` writes to `slot`.
pub fn private_value(cfg: &FsScaleConfig, c: usize, slot: usize) -> Vec<u8> {
    let tag = fnv1a(
        fnv1a(fnv1a(FNV_OFFSET, b"private"), &(c as u64).to_le_bytes()),
        &(slot as u64).to_le_bytes(),
    )
    .to_le_bytes();
    (0..cfg.value_bytes).map(|i| tag[i % 8] ^ i.wrapping_mul(3) as u8).collect()
}

/// The deterministic fs op stream for client `c` — identical in every
/// world, derived only from the config and the client index.
pub fn fs_ops_for_client(cfg: &FsScaleConfig, zipf: &Zipf, c: usize) -> Vec<FsOp> {
    let salt = fnv1a(fnv1a(FNV_OFFSET, b"fs-ops"), &(c as u64).to_le_bytes());
    let mut rng = SeededRandom::new(cfg.seed ^ salt);
    let mut writes = 0usize;
    let mut acls = 0usize;
    (0..cfg.ops_per_client)
        .map(|_| {
            let u = f64_unit(&mut rng);
            if u < cfg.read_fraction {
                FsOp::Read(zipf.sample_with(f64_unit(&mut rng)))
            } else if u < cfg.read_fraction + cfg.bulk_fraction {
                FsOp::Bulk(zipf.sample_with(f64_unit(&mut rng)))
            } else if u < cfg.read_fraction + cfg.bulk_fraction + cfg.acl_fraction {
                let n = acls;
                acls += 1;
                FsOp::Acl(n)
            } else {
                let slot = writes % cfg.files_per_client.max(1);
                writes += 1;
                FsOp::Write(slot)
            }
        })
        .collect()
}

/// Folds one completed fs operation into a client's transcript chain
/// (same FNV chaining discipline as the wire-level harness).
pub fn fold_fs_transcript(chain: u64, op: FsOp, result: &[u8]) -> u64 {
    let (tag, arg): (&[u8], u64) = match op {
        FsOp::Read(r) => (b"R", r as u64),
        FsOp::Bulk(s) => (b"B", s as u64),
        FsOp::Write(k) => (b"W", k as u64),
        FsOp::Acl(n) => (b"A", n as u64),
    };
    let mut h = fnv1a(fnv1a(chain, tag), &arg.to_le_bytes());
    h = fnv1a(h, &(result.len() as u64).to_le_bytes());
    fnv1a(h, result)
}

/// One mounted client: its enclave volume and the AFS connection whose
/// lane all of its costs (RPC and modelled crypto) are charged to.
pub struct FsClientHandle {
    /// The mounted, authenticated volume.
    pub volume: Arc<NexusVolume>,
    /// The client's AFS connection.
    pub afs: Arc<AfsClient>,
}

/// A built fs world: one shared AFS server, N mounted enclave clients,
/// shared keyspace and per-client home directories in place, every lane
/// raised to a common start epoch.
pub struct FsWorld {
    /// The shared (untrusted) store.
    pub server: AfsServer,
    /// The shared virtual clock.
    pub clock: SimClock,
    /// The mounted clients, index = client id.
    pub clients: Vec<FsClientHandle>,
}

/// Builds the world every fs run shares: the owner creates the volume on
/// stream 0 of the seeded machine, registers an auditor user, writes the
/// shared keyspace, and creates each client's home directory; client `c`
/// then mounts the owner's sealed rootkey on stream `c+1` (same sealing
/// identity, independent randomness) and authenticates. All setup cost
/// lands before the measured epoch: every client lane is raised to the
/// clock's post-setup value before this returns.
pub fn build_fs_world(cfg: &FsScaleConfig) -> FsWorld {
    let server = AfsServer::new();
    let clock = SimClock::new();
    let id_seed = cfg.seed ^ fnv1a(FNV_OFFSET, b"fs-platform");
    let owner_platform = Platform::seeded_stream(id_seed, 0);
    let ias = AttestationService::new();
    ias.register_platform(&owner_platform);
    let owner = UserKeys::from_seed("owner", &[0x51u8; 32]);
    let auditor = UserKeys::from_seed("auditor", &[0x52u8; 32]);
    let nexus_cfg = NexusConfig::default();

    // One AFS cache shard per client: no 16-mutex memory tax at 100k
    // mounts (same reasoning as the wire world).
    let owner_afs =
        Arc::new(AfsClient::connect_with_cache_shards(&server, clock.clone(), cfg.latency, 1));
    let (owner_volume, sealed) =
        NexusVolume::create(&owner_platform, owner_afs.clone(), &ias, &owner, nexus_cfg)
            .expect("fs world: volume create");
    owner_volume.authenticate(&owner).expect("fs world: owner auth");
    owner_volume.add_user(auditor.name(), auditor.public_key()).expect("fs world: add auditor");

    owner_volume.mkdir("shared").expect("fs world: mkdir shared");
    for rank in 0..cfg.shared_files {
        owner_volume
            .write_file(&shared_file(rank), &shared_value(cfg, rank))
            .expect("fs world: populate shared file");
    }
    if cfg.clients > 0 {
        let last = cfg.clients - 1;
        for t in 0..=(last >> (2 * DIR_FANOUT_BITS)) {
            owner_volume.mkdir(&format!("t{t}")).expect("fs world: mkdir t");
        }
        for g in 0..=(last >> DIR_FANOUT_BITS) {
            owner_volume
                .mkdir(&format!("t{}/g{g}", g >> DIR_FANOUT_BITS))
                .expect("fs world: mkdir g");
        }
        for c in 0..cfg.clients {
            owner_volume.mkdir(&client_dir(c)).expect("fs world: mkdir client dir");
        }
    }
    // The owner's mount (and its ~N cached dirnodes) is setup machinery;
    // drop it before the run so only real clients hold state.
    drop(owner_volume);
    drop(owner_afs);

    let clients: Vec<FsClientHandle> = (0..cfg.clients)
        .map(|c| {
            let platform = Platform::seeded_stream(id_seed, c as u64 + 1);
            let afs = Arc::new(AfsClient::connect_with_cache_shards(
                &server,
                clock.clone(),
                cfg.latency,
                1,
            ));
            let volume = NexusVolume::mount(&platform, afs.clone(), &ias, &sealed, nexus_cfg)
                .expect("fs world: client mount");
            volume.authenticate(&owner).expect("fs world: client auth");
            FsClientHandle { volume: Arc::new(volume), afs }
        })
        .collect();

    // Common start epoch: no client owes setup time to another.
    let now = clock.now();
    for fsc in &clients {
        fsc.afs.lane().raise_to(now);
    }
    FsWorld { server, clock, clients }
}

/// Executes one op synchronously on a mounted client, charging the
/// modelled crypto cost, and returns the transcript-relevant bytes. The
/// serial oracle and the thread baseline call this; the async world's
/// [`AsyncVolume`] methods perform the identical calls and charges.
pub(crate) fn apply_fs_op(
    cfg: &FsScaleConfig,
    fsc: &FsClientHandle,
    c: usize,
    op: FsOp,
) -> Vec<u8> {
    let lane = fsc.afs.lane();
    match op {
        FsOp::Read(rank) => {
            let data = fsc
                .volume
                .read_file(&shared_file(rank % cfg.shared_files.max(1)))
                .expect("fs read");
            cfg.crypto.charge(lane, data.len());
            data
        }
        FsOp::Bulk(start) => {
            let paths: Vec<String> = (0..cfg.bulk_width)
                .map(|i| shared_file((start + i) % cfg.shared_files.max(1)))
                .collect();
            let refs: Vec<&str> = paths.iter().map(String::as_str).collect();
            let datas = fsc.volume.read_files(&refs).expect("fs bulk read");
            let flat: Vec<u8> = datas.concat();
            cfg.crypto.charge(lane, flat.len());
            flat
        }
        FsOp::Write(slot) => {
            let value = private_value(cfg, c, slot);
            fsc.volume.write_file(&private_file(c, slot), &value).expect("fs write");
            cfg.crypto.charge(lane, value.len());
            value
        }
        FsOp::Acl(n) => {
            let rights = if n % 2 == 0 { Rights::READ } else { Rights::RW };
            fsc.volume.set_acl(&client_dir(c), "auditor", rights).expect("fs acl");
            cfg.crypto.charge(lane, 0);
            vec![n as u8]
        }
    }
}

fn record_fs_latency(hist: &RunHistograms, op: FsOp, latency: Duration) {
    match op {
        FsOp::Read(_) | FsOp::Bulk(_) => hist.reads.record(latency),
        FsOp::Write(_) | FsOp::Acl(_) => hist.writes.record(latency),
    }
    hist.all.record(latency);
}

/// Drives one mounted client as a future: park at issue time (or the
/// open-loop arrival), run the enclave op, charge the modelled crypto,
/// record the latency, fold the transcript.
async fn drive_fs_client(
    cfg: FsScaleConfig,
    av: AsyncVolume,
    ops: Vec<FsOp>,
    arrivals: Option<Vec<Duration>>,
    c: usize,
    hist: Arc<RunHistograms>,
) -> u64 {
    let mut chain = FNV_OFFSET;
    for (k, op) in ops.into_iter().enumerate() {
        let issue = match &arrivals {
            Some(at) => {
                av.begin_at(at[k]).await;
                at[k]
            }
            None => av.local_now(),
        };
        let result = match op {
            FsOp::Read(rank) => av
                .read_file(&shared_file(rank % cfg.shared_files.max(1)))
                .await
                .expect("fs read"),
            FsOp::Bulk(start) => {
                let paths: Vec<String> = (0..cfg.bulk_width)
                    .map(|i| shared_file((start + i) % cfg.shared_files.max(1)))
                    .collect();
                av.read_files(&paths).await.expect("fs bulk read").concat()
            }
            FsOp::Write(slot) => {
                let value = private_value(&cfg, c, slot);
                av.write_file(&private_file(c, slot), &value).await.expect("fs write");
                value
            }
            FsOp::Acl(n) => {
                let rights = if n % 2 == 0 { Rights::READ } else { Rights::RW };
                av.set_acl(&client_dir(c), "auditor", rights).await.expect("fs acl");
                vec![n as u8]
            }
        };
        let latency = av.local_now().saturating_sub(issue);
        record_fs_latency(&hist, op, latency);
        chain = fold_fs_transcript(chain, op, &result);
    }
    chain
}

/// Runs one fs scale cell in the executor world: `cfg.clients` mounted
/// enclave clients as futures over at most `cfg.threads` OS threads.
pub fn run_fs_scale_exec(cfg: &FsScaleConfig) -> ScaleReport {
    let world = build_fs_world(cfg);
    let zipf = Zipf::new(cfg.shared_files, cfg.zipf_alpha);
    let hist = Arc::new(RunHistograms::default());
    let ex = Executor::new(world.clock.clone(), cfg.threads);
    let os_threads = ex.os_threads();

    let t0 = world.clock.now();
    let handles: Vec<_> = world
        .clients
        .iter()
        .enumerate()
        .map(|(c, fsc)| {
            let av = AsyncVolume::new(
                fsc.volume.clone(),
                fsc.afs.lane().clone(),
                ex.timer(),
                cfg.crypto,
            );
            let ops = fs_ops_for_client(cfg, &zipf, c);
            let arrivals = match cfg.arrival {
                Arrival::Closed => None,
                Arrival::Open { per_client_hz } => {
                    Some(fs_arrivals_for_client(cfg, per_client_hz, c, t0))
                }
            };
            ex.spawn(drive_fs_client(cfg.clone(), av, ops, arrivals, c, hist.clone()))
        })
        .collect();
    ex.run_until_idle();
    let makespan = world.clock.now() - t0;

    let transcripts =
        handles.iter().map(|h| h.try_take().expect("fs client completed")).collect();
    let total = (cfg.clients * cfg.ops_per_client) as u64;
    ScaleReport::assemble(makespan, total, hist, transcripts, &world.server, os_threads)
}

/// Runs the same cell as a serial oracle: every client's ops execute in
/// client order on the calling thread, with identical lane arithmetic.
/// This is the pre-timing ground truth for the differential gates.
pub fn run_fs_scale_serial(cfg: &FsScaleConfig) -> ScaleReport {
    let world = build_fs_world(cfg);
    let zipf = Zipf::new(cfg.shared_files, cfg.zipf_alpha);
    let hist = Arc::new(RunHistograms::default());

    let t0 = world.clock.now();
    let transcripts: Vec<u64> = world
        .clients
        .iter()
        .enumerate()
        .map(|(c, fsc)| {
            let ops = fs_ops_for_client(cfg, &zipf, c);
            let arrivals = match cfg.arrival {
                Arrival::Closed => None,
                Arrival::Open { per_client_hz } => {
                    Some(fs_arrivals_for_client(cfg, per_client_hz, c, t0))
                }
            };
            let mut chain = FNV_OFFSET;
            for (k, op) in ops.into_iter().enumerate() {
                let issue = match &arrivals {
                    Some(at) => {
                        fsc.afs.lane().raise_to(at[k]);
                        at[k]
                    }
                    None => fsc.afs.lane().local_now(),
                };
                let result = apply_fs_op(cfg, fsc, c, op);
                let latency = fsc.afs.lane().local_now().saturating_sub(issue);
                record_fs_latency(&hist, op, latency);
                chain = fold_fs_transcript(chain, op, &result);
            }
            chain
        })
        .collect();
    let makespan = world.clock.now() - t0;
    let total = (cfg.clients * cfg.ops_per_client) as u64;
    ScaleReport::assemble(makespan, total, hist, transcripts, &world.server, 1)
}

/// Deterministic open-loop arrivals for fs client `c` (salted apart from
/// both the fs op stream and the wire-level arrival stream), offset to
/// the measured epoch `t0`: world setup — mounts, the owner's directory
/// tree — has already consumed virtual time, and a schedule anchored at
/// zero would book all of it as queueing delay on the first arrivals.
pub fn fs_arrivals_for_client(
    cfg: &FsScaleConfig,
    per_client_hz: f64,
    c: usize,
    t0: Duration,
) -> Vec<Duration> {
    let shim = ScaleConfig {
        clients: cfg.clients,
        ops_per_client: cfg.ops_per_client,
        shared_keys: cfg.shared_files,
        value_bytes: cfg.value_bytes,
        zipf_alpha: cfg.zipf_alpha,
        read_fraction: cfg.read_fraction,
        seed: cfg.seed ^ fnv1a(FNV_OFFSET, b"fs-arrivals"),
        arrival: cfg.arrival,
        threads: cfg.threads,
        latency: cfg.latency,
    };
    crate::loadgen::arrivals_for_client(&shim, per_client_hz, c)
        .into_iter()
        .map(|at| at + t0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen_baseline::run_fs_scale_threads;

    #[test]
    fn fs_op_streams_are_deterministic_and_respect_the_mix() {
        let cfg = FsScaleConfig::standard(4, 400);
        let zipf = Zipf::new(cfg.shared_files, cfg.zipf_alpha);
        let a = fs_ops_for_client(&cfg, &zipf, 1);
        assert_eq!(a, fs_ops_for_client(&cfg, &zipf, 1));
        assert_ne!(a, fs_ops_for_client(&cfg, &zipf, 2));
        let reads = a.iter().filter(|op| matches!(op, FsOp::Read(_))).count();
        let bulks = a.iter().filter(|op| matches!(op, FsOp::Bulk(_))).count();
        let acls = a.iter().filter(|op| matches!(op, FsOp::Acl(_))).count();
        let writes = a.iter().filter(|op| matches!(op, FsOp::Write(_))).count();
        assert_eq!(reads + bulks + acls + writes, 400);
        // 400 ops at 40/15/10/35: generous binomial bounds.
        assert!((110..=210).contains(&reads), "{reads} reads");
        assert!((25..=100).contains(&bulks), "{bulks} bulks");
        assert!((10..=80).contains(&acls), "{acls} acls");
        assert!((85..=195).contains(&writes), "{writes} writes");
    }

    #[test]
    fn async_fs_world_matches_the_serial_oracle() {
        // The tentpole invariant: full enclave clients multiplexed as
        // futures execute byte-for-byte what the serial oracle executes —
        // transcripts, ciphertext inventory, and (lanes being charged
        // identically) the simulated makespan.
        let mut cfg = FsScaleConfig::standard(12, 6);
        cfg.threads = 4;
        let serial = run_fs_scale_serial(&cfg);
        let exec = run_fs_scale_exec(&cfg);
        assert_eq!(exec.transcripts, serial.transcripts);
        assert_eq!(exec.inventory, serial.inventory);
        assert_eq!(exec.makespan, serial.makespan);
        assert_eq!(exec.total_ops, serial.total_ops);
        assert_eq!(exec.hist.all.count(), serial.hist.all.count());
        assert!(exec.os_threads <= nexus_exec::MAX_WORKERS);
        // And the run is reproducible wholesale.
        let again = run_fs_scale_exec(&cfg);
        assert_eq!(exec.transcripts, again.transcripts);
        assert_eq!(exec.inventory, again.inventory);
    }

    #[test]
    fn all_three_fs_worlds_agree() {
        let mut cfg = FsScaleConfig::standard(8, 5);
        cfg.threads = 2;
        let exec = run_fs_scale_exec(&cfg);
        let threads = run_fs_scale_threads(&cfg);
        assert_eq!(exec.transcripts, threads.transcripts);
        assert_eq!(exec.inventory, threads.inventory);
        assert_eq!(exec.makespan, threads.makespan);
        assert_eq!(threads.os_threads, cfg.clients);
    }

    #[test]
    fn fs_open_loop_runs_and_records_queueing() {
        let mut cfg = FsScaleConfig::standard(4, 8);
        cfg.threads = 1;
        cfg.arrival = Arrival::Open { per_client_hz: 2000.0 };
        let exec = run_fs_scale_exec(&cfg);
        let serial = run_fs_scale_serial(&cfg);
        assert_eq!(exec.transcripts, serial.transcripts);
        assert_eq!(exec.inventory, serial.inventory);
        assert_eq!(exec.hist.all.count(), 32);
        // 2 kHz arrivals against multi-ms enclave ops: the tail must
        // show queueing delay beyond a single op's cost.
        assert!(exec.hist.all.quantile(0.99) > exec.hist.all.quantile(0.1));
    }
}
