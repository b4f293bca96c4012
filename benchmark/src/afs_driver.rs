//! The many-client workload: every client is a mounted volume driven as a
//! future on the executor, over one simulated AFS server. Network time is
//! virtual; everything reported as a time here is the host's — an op's
//! latency is the time its polls occupied a thread — and the virtual-time
//! figures sit beside it under their own names.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use nexus_core::{
    AsyncVolume, CryptoCost, FsckMode, NexusConfig, NexusVolume, SealedRootKey, UserKeys,
};
use nexus_exec::Executor;
use nexus_sgx::{AttestationService, Platform};
use nexus_storage::afs::{AfsClient, AfsServer};
use nexus_storage::{LatencyModel, SimClock, StorageBackend};

use crate::apply::{call, call_async, verify};
use crate::backend::Metered;
use crate::host;
use crate::measure::{Measured, Round};
use crate::model::{Fleet, Kind, Op, ACL_USER};
use crate::reference;
use crate::rng::Rng;
use crate::spec::{Shape, Workload};
use crate::stats::median;
use crate::sync_driver::SESSIONS_PER_ROUND;
use crate::trace::{OpSpan, ThreadOp, Tracer};
use crate::Params;

/// All clients are processes of one simulated machine (one sealing
/// identity); each draws enclave randomness from its own fixed stream.
const MACHINE: u64 = 0x004E_5855_5341_4653;

const SALT_BASE: u64 = 1;
const SALT_CLIENT: u64 = 1 << 32;

/// The modelled in-enclave CPU cost charged to virtual time: 20 µs per
/// op plus payload bytes at 160 MB/s.
const CRYPTO_COST: CryptoCost = CryptoCost {
    op_overhead: Duration::from_micros(20),
    bytes_per_sec: 160_000_000,
};

type Failure = String;

/// Times the polls of `inner`, by wall-clock and by the polling thread's
/// time on a core, and parents its storage calls to `op_id`.
struct Busy<F> {
    inner: Pin<Box<F>>,
    op_id: u64,
    busy: Duration,
    cpu_ns: u64,
}

impl<F: Future> Future for Busy<F> {
    type Output = (F::Output, u64, u64);

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let _parent = (self.op_id != 0).then(|| ThreadOp::enter(self.op_id));
        let cpu0 = host::thread_cpu_ns();
        let t0 = Instant::now();
        let polled = self.inner.as_mut().poll(cx);
        self.busy += t0.elapsed();
        self.cpu_ns += host::thread_cpu_ns() - cpu0;
        polled.map(|out| (out, self.busy.as_nanos() as u64, self.cpu_ns))
    }
}

struct Client {
    av: AsyncVolume,
    afs: Arc<AfsClient>,
    rng: Rng,
}

struct World {
    server: AfsServer,
    clock: SimClock,
    ex: Executor,
    ias: AttestationService,
    owner: UserKeys,
    sealed: SealedRootKey,
    tracer: Arc<Tracer>,
    clients: Vec<Client>,
    fleet: Fleet,
    base: Arc<Vec<u8>>,
    sessions: u64,
}

/// One finished op, as its client task reports it.
struct Done {
    kind: Kind,
    user_bytes: u64,
    busy_ns: u64,
    cpu_ns: u64,
    sim_ns: u64,
    failure: Option<String>,
    span: Option<OpSpan>,
}

async fn drive(
    av: AsyncVolume,
    ops: Vec<Op>,
    base: Arc<Vec<u8>>,
    tracer: Arc<Tracer>,
    traced: bool,
    round: u32,
) -> Vec<Done> {
    let mut scratch = base.to_vec();
    let mut done = Vec::with_capacity(ops.len());
    for op in &ops {
        let data = match op {
            Op::Write { content, .. } => content.stamp(&mut scratch),
            _ => &[],
        };
        let id = if traced { tracer.new_op() } else { 0 };
        let stats = av.volume().enclave().stats();
        let before = (stats.ecalls(), stats.ocalls(), stats.enclave_time());
        let (start_ns, sim0) = (tracer.now_ns(), av.local_now());
        let (out, busy_ns, cpu_ns) = Busy {
            inner: Box::pin(call_async(&av, op, data)),
            op_id: id,
            busy: Duration::ZERO,
            cpu_ns: 0,
        }
        .await;
        let sim_ns = (av.local_now() - sim0).as_nanos() as u64;
        let span = traced.then(|| OpSpan {
            id,
            round,
            kind: op.kind(),
            start_ns,
            busy_ns,
            ecalls: (stats.ecalls() - before.0) as u32,
            ocalls: (stats.ocalls() - before.1) as u32,
            enclave_ns: (stats.enclave_time() - before.2).as_nanos() as u64,
            user_bytes: op.user_bytes(),
        });
        let failure = (!verify(op, &out, &base)).then(|| format!("{op:?}"));
        done.push(Done {
            kind: op.kind(),
            user_bytes: op.user_bytes(),
            busy_ns,
            cpu_ns,
            sim_ns,
            failure,
            span,
        });
    }
    done
}

impl World {
    /// A synchronous owner session on a fresh connection.
    fn session(&mut self) -> Result<NexusVolume, Failure> {
        self.sessions += 1;
        let platform = Platform::seeded_stream(MACHINE, 1_000_000 + self.sessions);
        let afs = Arc::new(AfsClient::connect(
            &self.server,
            self.clock.clone(),
            LatencyModel::paper_calibrated(),
        ));
        let store: Arc<dyn StorageBackend> = Arc::new(Metered::new(afs, self.tracer.clone()));
        let volume = NexusVolume::mount(
            &platform,
            store,
            &self.ias,
            &self.sealed,
            NexusConfig::default(),
        )
        .map_err(|e| format!("mount: {e}"))?;
        volume
            .authenticate(&self.owner)
            .map_err(|e| format!("authenticate: {e}"))?;
        Ok(volume)
    }

    /// Runs one op list per client to quiescence; returns the tasks'
    /// reports in client order, the wall time and the virtual time.
    fn run_clients(
        &mut self,
        lists: Vec<Vec<Op>>,
        traced: bool,
        round: u32,
    ) -> (Vec<Vec<Done>>, u64, u64) {
        // Common start epoch: no client owes virtual time to another.
        let sim0 = self.clock.now();
        for c in &self.clients {
            c.afs.lane().raise_to(sim0);
        }
        let wall = Instant::now();
        let handles: Vec<_> = self
            .clients
            .iter()
            .zip(lists)
            .map(|(c, ops)| {
                self.ex.spawn(drive(
                    c.av.clone(),
                    ops,
                    self.base.clone(),
                    self.tracer.clone(),
                    traced,
                    round,
                ))
            })
            .collect();
        self.ex.run_until_idle();
        let wall_ns = wall.elapsed().as_nanos() as u64;
        let sim_ns = (self.clock.now() - sim0).as_nanos() as u64;
        let done = handles
            .iter()
            .map(|h| {
                h.try_take()
                    .expect("the executor ran every client to completion")
            })
            .collect();
        (done, wall_ns, sim_ns)
    }

    /// Sums over clients: ecalls, ocalls, remote RPCs, cache hits.
    fn counters(&self) -> [u64; 4] {
        self.clients.iter().fold([0; 4], |acc, c| {
            let (t, io) = (c.av.volume().enclave().stats(), c.afs.stats());
            [
                acc[0] + t.ecalls(),
                acc[1] + t.ocalls(),
                acc[2] + io.remote_rpcs,
                acc[3] + io.cache_hits,
            ]
        })
    }
}

/// Builds the world: the owner creates and populates the volume, every
/// client mounts and authenticates on its own connection, then all of
/// them run the warm-up on the executor.
fn set_up(w: &Workload, p: &Params, m: &mut Measured) -> Result<World, Failure> {
    let Shape::Fleet(shape) = w.shape else {
        unreachable!("single-client workloads have their own driver")
    };
    let fleet = Fleet::new(shape);
    let mut base = vec![0u8; shape.file_bytes as usize];
    Rng::new(p.seed, SALT_BASE).fill(&mut base);
    let (server, clock) = (AfsServer::new(), SimClock::new());
    let owner_platform = Platform::seeded_stream(MACHINE, 0);
    let ias = AttestationService::new();
    ias.register_platform(&owner_platform);
    let owner = UserKeys::from_seed("owner", &[0x51; 32]);
    let tracer = Arc::new(Tracer::default());
    let latency = LatencyModel::paper_calibrated();

    let owner_afs = Arc::new(AfsClient::connect(&server, clock.clone(), latency));
    let store: Arc<dyn StorageBackend> = Arc::new(Metered::new(owner_afs, tracer.clone()));
    let (volume, sealed) =
        NexusVolume::create(&owner_platform, store, &ias, &owner, NexusConfig::default())
            .map_err(|e| format!("create volume: {e}"))?;
    volume
        .authenticate(&owner)
        .map_err(|e| format!("authenticate: {e}"))?;
    let auditor = UserKeys::from_seed(ACL_USER, &[0x52; 32]);
    volume
        .add_user(auditor.name(), auditor.public_key())
        .map_err(|e| format!("add user: {e}"))?;
    let mut scratch = base.clone();
    for op in fleet.populate() {
        let data = match &op {
            Op::Write { content, .. } => content.stamp(&mut scratch),
            _ => &[],
        };
        let out = call(&volume, &op, data);
        if !m.check(&op, verify(&op, &out, &base)) {
            return Err(format!("populate failed at {op:?}"));
        }
    }
    drop(volume);

    let ex = Executor::new(clock.clone(), host::THREADS);
    let mut clients = Vec::with_capacity(shape.clients);
    for c in 0..shape.clients {
        let platform = Platform::seeded_stream(MACHINE, c as u64 + 1);
        let afs = Arc::new(AfsClient::connect(&server, clock.clone(), latency));
        let store: Arc<dyn StorageBackend> = Arc::new(Metered::new(afs.clone(), tracer.clone()));
        let volume = NexusVolume::mount(&platform, store, &ias, &sealed, NexusConfig::default())
            .map_err(|e| format!("client {c} mount: {e}"))?;
        volume
            .authenticate(&owner)
            .map_err(|e| format!("client {c} authenticate: {e}"))?;
        let av = AsyncVolume::new(
            Arc::new(volume),
            afs.lane().clone(),
            ex.timer(),
            CRYPTO_COST,
        );
        clients.push(Client {
            av,
            afs,
            rng: Rng::new(p.seed, SALT_CLIENT + c as u64),
        });
    }
    let mut world = World {
        server,
        clock,
        ex,
        ias,
        owner,
        sealed,
        tracer,
        clients,
        fleet,
        base: Arc::new(base),
        sessions: 0,
    };
    let lists = (0..shape.clients).map(|c| world.fleet.warm_up(c)).collect();
    let (done, ..) = world.run_clients(lists, false, 0);
    fold_failures(&done, m);
    Ok(world)
}

fn fold_failures(done: &[Vec<Done>], m: &mut Measured) {
    for d in done.iter().flatten() {
        m.attempted += 1;
        if let Some(what) = &d.failure {
            m.failed += 1;
            m.first_failure.get_or_insert_with(|| what.clone());
        }
    }
}

/// Runs workload `w`.
pub fn run(w: &Workload, p: &Params) -> Result<Measured, Failure> {
    let mut m = Measured {
        exec_threads: host::THREADS,
        ..Measured::default()
    };
    let mut world = m.set_up(p.setups(w), |_, m| set_up(w, p, m))?;

    let mut measured_ns = 0u64;
    let mut index = 0u32;
    while index < p.min_rounds || (measured_ns as f64) < p.seconds * 1e9 {
        let fleet = &mut world.fleet;
        let lists: Vec<Vec<Op>> = world
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, cl)| fleet.client_round(&mut cl.rng, c, w.round))
            .collect();
        lists.iter().for_each(|ops| m.digest(ops));
        let traced = p.traces(index);
        let mut round = Round {
            traced,
            ..Round::default()
        };
        let before = world.counters();
        let tracer = world.tracer.clone();
        let (calls0, put0, got0) = (tracer.total_calls(), tracer.bytes_put(), tracer.bytes_got());
        world.tracer.set_on(traced);
        let ((done, wall_ns, sim_ns, cpu_ns), speed) = reference::around(|| {
            let cpu0 = host::cpu_ns();
            let (done, wall_ns, sim_ns) = world.run_clients(lists, traced, index);
            (done, wall_ns, sim_ns, host::cpu_ns() - cpu0)
        });
        round.speed = speed;
        world.tracer.set_on(false);
        (round.wall_ns, round.sim_ns, round.cpu_ns) = (wall_ns, sim_ns, cpu_ns);
        round.calls = tracer.total_calls() - calls0;
        round.bytes_put = tracer.bytes_put() - put0;
        round.bytes_got = tracer.bytes_got() - got0;
        let after = world.counters();
        round.ecalls = after[0] - before[0];
        round.ocalls = after[1] - before[1];
        round.remote_rpcs = after[2] - before[2];
        round.cache_hits = after[3] - before[3];
        fold_failures(&done, &mut m);
        for d in done.iter().flatten() {
            round.ops += 1;
            match d.kind {
                Kind::ReadSmall | Kind::ReadFiles => {
                    round.read_bytes += d.user_bytes;
                    round.read_ns += d.busy_ns;
                }
                Kind::Overwrite | Kind::Create => {
                    round.write_bytes += d.user_bytes;
                    round.write_ns += d.busy_ns;
                }
                _ => {}
            }
            match d.span {
                Some(span) => m.op_spans.push(span),
                None => m.sample(d.kind, d.cpu_ns),
            }
            if index == 0 {
                m.sim_lat.push(d.sim_ns.min(u64::from(u32::MAX)) as u32);
            }
        }
        m.close_round(&mut round, w.tail);
        measured_ns += wall_ns;

        let first = world.fleet.first_read();
        let mut sessions = Vec::new();
        for _ in 0..SESSIONS_PER_ROUND {
            let t0 = Instant::now();
            let session = world.session()?;
            let out = call(&session, &first, &[]);
            sessions.push(t0.elapsed().as_nanos() as f64);
            m.check(&first, verify(&first, &out, &world.base));
        }
        round.remount_ns = median(&sessions).unwrap_or(0.0) as u64;
        m.push_round(round);
        index += 1;
    }
    if m.peak_rss_kib == 0 {
        m.peak_rss_kib = host::peak_rss_kib();
    }
    m.call_spans = world.tracer.take_calls();
    m.unattributed = world.tracer.unattributed();
    m.epc_peak = world
        .clients
        .iter()
        .map(|c| c.av.volume().enclave().epc().peak() as u64)
        .max()
        .unwrap_or(0);

    let owner = world.session()?;
    for op in world.fleet.sweep() {
        let out = call(&owner, &op, &[]);
        m.check(&op, verify(&op, &out, &world.base));
    }
    m.check_fsck(owner.fsck(FsckMode::Deep));
    Ok(m)
}
