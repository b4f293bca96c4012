//! The single-client workloads: one closed loop of `NexusVolume` calls
//! over `MemBackend` or `LogBackend`, each answer checked on the spot.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use nexus_core::{FsckMode, NexusConfig, NexusVolume, SealedRootKey, UserKeys};
use nexus_sgx::{AttestationService, Platform};
use nexus_storage::{LogBackend, MemBackend, StorageBackend};

use crate::apply::{call, verify};
use crate::backend::Metered;
use crate::host;
use crate::measure::{Measured, Round};
use crate::model::{Op, Tree, ACL_USER};
use crate::reference;
use crate::rng::Rng;
use crate::spec::{Shape, Store, Workload};
use crate::stats::median;
use crate::trace::{OpSpan, Tracer};
use crate::Params;

/// Enclave randomness comes from a fixed stream, never from `--seed`: the
/// program receives generated inputs only.
const PLATFORM_STREAM: u64 = 0x4E58_5553;

const SALT_BASE: u64 = 1;
const SALT_OPS: u64 = 2;
const SALT_SESSION: u64 = 3;

enum Disk {
    Mem(Arc<MemBackend>),
    Log(PathBuf),
}

/// A populated, mounted volume and the model that mirrors it.
struct World {
    platform: Platform,
    ias: AttestationService,
    owner: UserKeys,
    sealed: SealedRootKey,
    tracer: Arc<Tracer>,
    disk: Disk,
    log: Option<Arc<LogBackend>>,
    volume: Option<NexusVolume>,
    tree: Tree,
    base: Vec<u8>,
    scratch: Vec<u8>,
    ops_rng: Rng,
    session_rng: Rng,
}

type Failure = String;

/// Fresh sessions timed after each round where one is cheap.
pub(crate) const SESSIONS_PER_ROUND: usize = 5;

impl World {
    /// Opens the store; for the log this replays it from disk.
    fn open_store(&mut self) -> Result<Arc<dyn StorageBackend>, Failure> {
        Ok(match &self.disk {
            Disk::Mem(mem) => Arc::new(Metered::new(mem.clone(), self.tracer.clone())),
            Disk::Log(dir) => {
                let log = Arc::new(LogBackend::open(dir).map_err(|e| format!("open log: {e}"))?);
                self.log = Some(log.clone());
                Arc::new(Metered::new(log, self.tracer.clone()))
            }
        })
    }

    fn mount(&mut self) -> Result<(NexusVolume, u64), Failure> {
        let t0 = Instant::now();
        let store = self.open_store()?;
        let reopen_ns = t0.elapsed().as_nanos() as u64;
        let volume = NexusVolume::mount(
            &self.platform,
            store,
            &self.ias,
            &self.sealed,
            NexusConfig::default(),
        )
        .map_err(|e| format!("mount: {e}"))?;
        volume
            .authenticate(&self.owner)
            .map_err(|e| format!("authenticate: {e}"))?;
        Ok((volume, reopen_ns))
    }

    fn volume(&self) -> &NexusVolume {
        self.volume
            .as_ref()
            .expect("a session is mounted between rounds")
    }

    /// Runs `op` untimed and checks it.
    fn run_checked(&mut self, op: &Op, m: &mut Measured) -> bool {
        let data = match op {
            Op::Write { content, .. } => content.stamp(&mut self.scratch),
            _ => &[],
        };
        let out = call(self.volume.as_ref().expect("mounted"), op, data);
        m.check(op, verify(op, &out, &self.base))
    }

    fn next_round(&mut self, w: &Workload, n: usize) -> Vec<Op> {
        match w.shape {
            Shape::Bulk(_) => self.tree.bulk_round(&mut self.ops_rng, n),
            _ => self.tree.meta_round(&mut self.ops_rng, n),
        }
    }
}

/// Builds the world: create the volume, populate it, drop the creating
/// session, mount a fresh one, run the warm-up round.
fn set_up(w: &Workload, p: &Params, dir: &Path, m: &mut Measured) -> Result<World, Failure> {
    let shape = match w.shape {
        Shape::Bulk(t) | Shape::Meta(t) => t,
        Shape::Fleet(_) => unreachable!("the many-client workload has its own driver"),
    };
    let tree = Tree::new(shape);
    let mut base = vec![0u8; tree.max_payload().max(16)];
    Rng::new(p.seed, SALT_BASE).fill(&mut base);
    let platform = Platform::seeded(PLATFORM_STREAM);
    let ias = AttestationService::new();
    ias.register_platform(&platform);
    let disk = match w.store {
        Store::Log => {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            Disk::Log(dir.to_path_buf())
        }
        _ => Disk::Mem(Arc::new(MemBackend::new())),
    };
    let mut world = World {
        platform,
        ias,
        owner: UserKeys::from_seed("owner", &[0x51; 32]),
        sealed: SealedRootKey(Vec::new()),
        tracer: Arc::new(Tracer::default()),
        disk,
        log: None,
        volume: None,
        tree,
        scratch: base.clone(),
        base,
        ops_rng: Rng::new(p.seed, SALT_OPS),
        session_rng: Rng::new(p.seed, SALT_SESSION),
    };
    let store = world.open_store()?;
    let (volume, sealed) = NexusVolume::create(
        &world.platform,
        store,
        &world.ias,
        &world.owner,
        NexusConfig::default(),
    )
    .map_err(|e| format!("create volume: {e}"))?;
    volume
        .authenticate(&world.owner)
        .map_err(|e| format!("authenticate: {e}"))?;
    let auditor = UserKeys::from_seed(ACL_USER, &[0x52; 32]);
    volume
        .add_user(auditor.name(), auditor.public_key())
        .map_err(|e| format!("add user: {e}"))?;
    world.sealed = sealed;
    world.volume = Some(volume);
    for op in world.tree.populate() {
        if !world.run_checked(&op, m) {
            return Err(format!("populate failed at {op:?}"));
        }
    }
    world.volume = None;
    world.log = None;
    world.volume = Some(world.mount()?.0);
    for op in world.next_round(w, w.warm_up) {
        world.run_checked(&op, m);
    }
    Ok(world)
}

/// One measured round: the op list is generated first, then each call is
/// timed on its own and checked after the clock stopped. An untraced op's
/// latency sample is the time the process spent on a core during the call
/// (`Measured::lat`); the wall time beside it feeds the rates and spans.
fn run_round(
    world: &mut World,
    ops: &[Op],
    traced: bool,
    index: u32,
    tail: u32,
    m: &mut Measured,
) -> Round {
    let mut round = Round {
        traced,
        ops: ops.len() as u64,
        ..Round::default()
    };
    let tracer = world.tracer.clone();
    let volume = world.volume.take().expect("mounted");
    let stats = volume.enclave().stats();
    let (calls0, put0, got0) = (tracer.total_calls(), tracer.bytes_put(), tracer.bytes_got());
    let (ecalls0, ocalls0) = (stats.ecalls(), stats.ocalls());
    let cpu0 = host::cpu_ns();
    tracer.set_on(traced);
    let wall = Instant::now();
    for op in ops {
        let data = match op {
            Op::Write { content, .. } => content.stamp(&mut world.scratch),
            _ => &[],
        };
        let (out, ns) = if traced {
            let id = tracer.new_op();
            let before = (stats.ecalls(), stats.ocalls(), stats.enclave_time());
            let start_ns = tracer.now_ns();
            tracer.set_run_op(id);
            let t0 = Instant::now();
            let out = call(&volume, op, data);
            let ns = t0.elapsed().as_nanos() as u64;
            tracer.set_run_op(0);
            m.op_spans.push(OpSpan {
                id,
                round: index,
                kind: op.kind(),
                start_ns,
                busy_ns: ns,
                ecalls: (stats.ecalls() - before.0) as u32,
                ocalls: (stats.ocalls() - before.1) as u32,
                enclave_ns: (stats.enclave_time() - before.2).as_nanos() as u64,
                user_bytes: op.user_bytes(),
            });
            (out, ns)
        } else {
            let cpu0 = host::cpu_ns();
            let t0 = Instant::now();
            let out = call(&volume, op, data);
            let ns = t0.elapsed().as_nanos() as u64;
            m.sample(op.kind(), host::cpu_ns() - cpu0);
            (out, ns)
        };
        match op {
            Op::Write { content, .. } => {
                round.write_bytes += u64::from(content.len);
                round.write_ns += ns;
            }
            Op::Read { .. } | Op::ReadFiles { .. } => {
                round.read_bytes += op.user_bytes();
                round.read_ns += ns;
            }
            Op::ReadRange { len, .. } => round.range_bytes += len,
            _ => {}
        }
        m.check(op, verify(op, &out, &world.base));
    }
    round.wall_ns = wall.elapsed().as_nanos() as u64;
    round.cpu_ns = host::cpu_ns() - cpu0;
    tracer.set_on(false);
    m.close_round(&mut round, tail);
    round.calls = tracer.total_calls() - calls0;
    round.bytes_put = tracer.bytes_put() - put0;
    round.bytes_got = tracer.bytes_got() - got0;
    round.ecalls = stats.ecalls() - ecalls0;
    round.ocalls = stats.ocalls() - ocalls0;
    m.epc_peak = m.epc_peak.max(volume.enclave().epc().peak() as u64);
    world.volume = Some(volume);
    round
}

/// A fresh session: open the store, mount, authenticate, read one file.
/// On the log the old session and store are dropped first and the new
/// session takes over, so the next round starts cold from disk (a replay
/// takes tens of milliseconds: one sample a round). On `MemBackend` the
/// extra session is dropped and the warm one continues; a session costs
/// well under a millisecond there, so the round's figure is the median
/// of `SESSIONS_PER_ROUND`.
fn remount(world: &mut World, round: &mut Round, m: &mut Measured) -> Result<(), Failure> {
    let on_log = matches!(world.disk, Disk::Log(_));
    let mut samples = Vec::new();
    for _ in 0..if on_log { 1 } else { SESSIONS_PER_ROUND } {
        let first = world.tree.first_read(&mut world.session_rng);
        if on_log {
            world.volume = None;
            world.log = None;
        }
        let t0 = Instant::now();
        let (session, reopen_ns) = world.mount()?;
        let out = call(&session, &first, &[]);
        samples.push(t0.elapsed().as_nanos() as f64);
        m.check(&first, verify(&first, &out, &world.base));
        if on_log {
            round.reopen_ns = reopen_ns;
            world.volume = Some(session);
        }
    }
    round.remount_ns = median(&samples).unwrap_or(0.0) as u64;
    Ok(())
}

/// After the last round: every listing and every file against the model,
/// then `fsck`.
fn sweep(world: &mut World, m: &mut Measured) {
    for op in world.tree.sweep() {
        world.run_checked(&op, m);
    }
    m.check_fsck(world.volume().fsck(FsckMode::Deep));
    if let Some(log) = &world.log {
        let live: u64 = log
            .list("")
            .iter()
            .filter_map(|name| log.stat(name).ok())
            .map(|s| s.size)
            .sum();
        m.log_disk = Some((log.disk_footprint().1, live));
    }
}

/// Runs workload `w`.
pub fn run(w: &Workload, p: &Params) -> Result<Measured, Failure> {
    let tmp = host::TempDir::create(&p.tmp)
        .map_err(|e| format!("create temp dir under {}: {e}", p.tmp.display()))?;
    let mut m = Measured::default();
    let mut world = m.set_up(p.setups(w), |i, m| {
        set_up(w, p, &tmp.path().join(format!("store{i}")), m)
    })?;

    let mut measured_ns = 0u64;
    let mut index = 0u32;
    while index < p.min_rounds || (measured_ns as f64) < p.seconds * 1e9 {
        let ops = world.next_round(w, w.round);
        m.digest(&ops);
        let traced = p.traces(index);
        let (mut round, speed) =
            reference::around(|| run_round(&mut world, &ops, traced, index, w.tail, &mut m));
        round.speed = speed;
        measured_ns += round.wall_ns;
        remount(&mut world, &mut round, &mut m)?;
        m.push_round(round);
        index += 1;
    }
    if m.peak_rss_kib == 0 {
        m.peak_rss_kib = host::peak_rss_kib();
    }
    m.call_spans = world.tracer.take_calls();
    m.unattributed = world.tracer.unattributed();
    sweep(&mut world, &mut m);
    Ok(m)
}
