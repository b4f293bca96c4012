//! What a run accumulates, and how the named metrics come out of it.
//!
//! Timings are medians over the untraced rounds; a latency percentile is
//! read exactly (nearest rank) off each round's raw samples first, so a
//! round the machine disturbed moves one vote, not the pooled tail. The
//! four bounded times (`spec::NOMINAL`) count time on a core, not wall time
//! (`host::cpu_ns`), and are taken to nominal machine speed by their
//! round's `reference::around` factor; the two tails share the latencies'
//! samples, unscaled; every other time is raw wall-clock. Counts
//! (`storage_calls_per_op`, `write_amp`, the `sgx.*` and `sim_*` figures)
//! are taken over the first measured round only: its op list is fixed by
//! the seed, so they repeat exactly however many rounds the machine fits
//! into `--seconds`.

use std::collections::BTreeMap;
use std::time::Instant;

use nexus_core::{FsckReport, Result};

use crate::host;
use crate::model::{Class, Kind, Op};
use crate::reference;
use crate::spec::{DEMOTED, END_TO_END, NOMINAL};
use crate::stats::{median, nearest_rank, tail, union_len, Tail};
use crate::trace::{calls_of, Call, CallSpan, OpSpan};

/// Totals of one round.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Spans were recorded during this round.
    pub traced: bool,
    /// Ops issued.
    pub ops: u64,
    /// Wall time from first op to last.
    pub wall_ns: u64,
    /// Time the process spent on a core over the round (`host::cpu_ns`).
    pub cpu_ns: u64,
    /// Plaintext bytes written by `write_file`, and time inside those calls.
    pub write_bytes: u64,
    /// See `write_bytes`.
    pub write_ns: u64,
    /// Plaintext bytes returned by `read_file`/`read_files`, and time inside.
    pub read_bytes: u64,
    /// See `read_bytes`.
    pub read_ns: u64,
    /// Backend calls during the ops (a batch = 1).
    pub calls: u64,
    /// Bytes handed to backend puts during the ops.
    pub bytes_put: u64,
    /// Bytes backend fetches returned during the ops.
    pub bytes_got: u64,
    /// Plaintext bytes returned by `read_range`.
    pub range_bytes: u64,
    /// Enclave entries and exits during the ops.
    pub ecalls: u64,
    /// See `ecalls`.
    pub ocalls: u64,
    /// Virtual time the round took (simulated network only).
    pub sim_ns: u64,
    /// A fresh session after the round: open the store, mount,
    /// authenticate, first read.
    pub remount_ns: u64,
    /// The part of `remount_ns` spent reopening the store.
    pub reopen_ns: u64,
    /// AFS RPCs that crossed the simulated network, summed over clients.
    pub remote_rpcs: u64,
    /// AFS requests served from a client's cache.
    pub cache_hits: u64,
    /// Median latency of the round's read and write class, nanoseconds.
    pub p50_ns: [u32; 2],
    /// Tail latency of the two classes, and the percentile it was read at.
    pub tail_ns: [u32; 2],
    /// See `tail_ns`.
    pub tail_pct: [u32; 2],
    /// Samples behind them.
    pub samples: [u32; 2],
    /// `reference::around`'s factor for the round: its bounded times are
    /// multiplied by it before they are reported.
    pub speed: f64,
}

/// One build of the world.
#[derive(Debug, Clone, Copy)]
pub struct SetUp {
    /// Wall seconds it took.
    pub wall_s: f64,
    /// Seconds the process spent on a core meanwhile.
    pub cpu_s: f64,
    /// `reference::around`'s factor for it.
    pub speed: f64,
}

/// Everything one run of one workload measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Every build of the world, in order.
    pub setups: Vec<SetUp>,
    /// The measured rounds, in order.
    pub rounds: Vec<Round>,
    /// Per-op nanoseconds on a core (`host::cpu_ns` across the call, all
    /// threads; on the executor the polling thread's) of the untraced
    /// round in progress, read class then write class; `close_round` folds
    /// them into the round's percentiles. Ranged reads are in neither
    /// (`op.read_range.p50_us`).
    pub lat: [Vec<u32>; 2],
    /// Per-op virtual nanoseconds of the first round.
    pub sim_lat: Vec<u32>,
    /// Op spans of the traced rounds.
    pub op_spans: Vec<OpSpan>,
    /// Storage spans of the traced rounds.
    pub call_spans: Vec<CallSpan>,
    /// Storage calls seen while tracing with no op to belong to.
    pub unattributed: u64,
    /// Ops issued in all phases, plus one for `fsck`.
    pub attempted: u64,
    /// Ops that returned `Err` or the wrong answer.
    pub failed: u64,
    /// What failed first, for the log.
    pub first_failure: Option<String>,
    /// `VmHWM` after `RSS_ROUNDS` measured rounds, KiB.
    pub peak_rss_kib: u64,
    /// Highest enclave EPC use seen, bytes.
    pub epc_peak: u64,
    /// Executor threads (0: no executor).
    pub exec_threads: usize,
    /// `LogBackend` files' bytes and live object bytes at the end.
    pub log_disk: Option<(u64, u64)>,
    /// FNV-1a over the debug text of every op of the measured rounds.
    pub inputs_digest: u64,
}

/// Measured rounds after which the peak resident set is read: a fixed
/// amount of work, so the figure does not follow how many rounds the
/// machine fitted into `--seconds` (the many-client world grows by most of
/// a MiB a round). A run that ends sooner reads it at its end.
pub const RSS_ROUNDS: usize = 8;

impl Measured {
    /// Keeps a finished round, and reads the peak resident set once
    /// `RSS_ROUNDS` are in.
    pub fn push_round(&mut self, round: Round) {
        self.rounds.push(round);
        if self.rounds.len() == RSS_ROUNDS {
            self.peak_rss_kib = host::peak_rss_kib();
        }
    }

    /// Builds the world `times` times, dropping each before the next is
    /// built, and returns the last; every build's time goes to `setups`.
    pub fn set_up<W>(
        &mut self,
        times: usize,
        mut build: impl FnMut(usize, &mut Measured) -> std::result::Result<W, String>,
    ) -> std::result::Result<W, String> {
        let mut world = None;
        for i in 0..times {
            drop(world.take());
            let ((built, wall_s, cpu_s), speed) = reference::around(|| {
                let (t0, cpu0) = (Instant::now(), host::cpu_ns());
                let built = build(i, self);
                let cpu_s = (host::cpu_ns() - cpu0) as f64 / 1e9;
                (built, t0.elapsed().as_secs_f64(), cpu_s)
            });
            self.setups.push(SetUp {
                wall_s,
                cpu_s,
                speed,
            });
            world = Some(built?);
        }
        world.ok_or_else(|| "no set-up was asked for".to_string())
    }

    /// Records an op's outcome; returns whether it passed.
    pub fn check(&mut self, op: &Op, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first_failure.get_or_insert_with(|| format!("{op:?}"));
        }
        ok
    }

    /// Folds a generated op list into `inputs_digest` (between rounds,
    /// off the clock).
    pub fn digest(&mut self, ops: &[Op]) {
        for op in ops {
            for byte in format!("{op:?}").bytes() {
                self.inputs_digest =
                    (self.inputs_digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }

    /// Records the closing `fsck`: one more attempt, failed unless clean.
    pub fn check_fsck(&mut self, result: Result<FsckReport>) {
        self.attempted += 1;
        let problem = match result {
            Ok(report) if report.is_clean() => return,
            Ok(report) => format!("fsck: {:?}", report.errors.first()),
            Err(e) => format!("fsck: {e}"),
        };
        self.failed += 1;
        self.first_failure.get_or_insert(problem);
    }

    /// Adds one untraced op's latency to its class.
    pub fn sample(&mut self, kind: Kind, ns: u64) {
        let class = match kind.class() {
            Class::Read => 0,
            Class::Write => 1,
            Class::Range => return,
        };
        self.lat[class].push(ns.min(u64::from(u32::MAX)) as u32);
    }

    /// Reads the finished round's percentiles off its raw samples and
    /// clears them. `wanted` is the tail percentile asked for; it drops
    /// to the highest one with ten samples beyond it, and to the median
    /// when (at test sizes only) not even that has ten.
    pub fn close_round(&mut self, round: &mut Round, wanted: u32) {
        for (class, samples) in self.lat.iter_mut().enumerate() {
            samples.sort_unstable();
            let Some(p50) = nearest_rank(samples, 50.0) else {
                continue;
            };
            let t = tail(samples, wanted).unwrap_or(Tail {
                percentile: 50,
                value: p50,
            });
            round.p50_ns[class] = p50;
            round.tail_ns[class] = t.value;
            round.tail_pct[class] = t.percentile;
            round.samples[class] = samples.len() as u32;
            samples.clear();
        }
    }

    fn untraced(&self) -> impl Iterator<Item = &Round> {
        self.rounds.iter().filter(|r| !r.traced)
    }

    fn median_of(&self, f: impl Fn(&Round) -> Option<f64>) -> f64 {
        median(&self.untraced().filter_map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    }
}

/// A named value with its unit.
pub type Metrics = Vec<(String, f64, &'static str)>;

const MIB: f64 = (1u64 << 20) as f64;

/// The user-visible metric `name`. With `nominal`, the four bounded times
/// are taken to nominal machine speed; without, they are as they passed.
fn user_metric(m: &Measured, name: &str, nominal: bool) -> f64 {
    let speed = |r: &Round| if nominal { r.speed } else { 1.0 };
    let us = |ns: fn(&Round) -> u32| m.median_of(|r| Some(f64::from(ns(r)) / 1e3));
    let nominal_us =
        |ns: fn(&Round) -> u32| m.median_of(|r| Some(f64::from(ns(r)) * speed(r) / 1e3));
    let rate =
        |bytes: u64, ns: u64| (ns > 0 && bytes > 0).then(|| bytes as f64 / MIB / (ns as f64 / 1e9));
    let first = m.untraced().next().cloned().unwrap_or_default();
    match name {
        "setup_s" => {
            let seconds = |s: &SetUp| s.cpu_s * if nominal { s.speed } else { 1.0 };
            median(&m.setups.iter().map(seconds).collect::<Vec<_>>()).unwrap_or(0.0)
        }
        "cpu_us_per_op" => {
            m.median_of(|r| Some(r.cpu_ns as f64 * speed(r) / 1e3 / r.ops.max(1) as f64))
        }
        "read_p50_us" => nominal_us(|r| r.p50_ns[0]),
        "write_p50_us" => nominal_us(|r| r.p50_ns[1]),
        "ops_per_s" => m.median_of(|r| Some(r.ops as f64 / (r.wall_ns as f64 / 1e9))),
        "read_tail_us" => us(|r| r.tail_ns[0]),
        "write_tail_us" => us(|r| r.tail_ns[1]),
        "write_mib_per_s" => m.median_of(|r| rate(r.write_bytes, r.write_ns)),
        "read_mib_per_s" => m.median_of(|r| rate(r.read_bytes, r.read_ns)),
        "remount_ms" => m.median_of(|r| Some(r.remount_ns as f64 / 1e6)),
        "storage_calls_per_op" => first.calls as f64 / first.ops.max(1) as f64,
        "write_amp" => first.bytes_put as f64 / first.write_bytes.max(1) as f64,
        "read_amp" => first.bytes_got as f64 / (first.read_bytes + first.range_bytes).max(1) as f64,
        "peak_rss_mib" => m.peak_rss_kib as f64 / 1024.0,
        other => unreachable!("undeclared metric {other}"),
    }
}

/// What a user of the run would have seen: the end-to-end metrics, the
/// demoted ones, and the tail percentiles read (read, write).
pub fn user_metrics(m: &Measured) -> (Metrics, Metrics, [u32; 2]) {
    let bounded = END_TO_END
        .iter()
        .map(|d| (d.name.to_string(), user_metric(m, d.name, true), d.unit))
        .collect();
    let demoted = DEMOTED
        .iter()
        .map(|(name, unit, _)| (name.to_string(), user_metric(m, name, true), *unit))
        .collect();
    let tails = m.untraced().next().map_or([0; 2], |r| r.tail_pct);
    (bounded, demoted, tails)
}

/// The four bounded times as they passed, not taken to nominal speed.
pub fn raw_times(m: &Measured) -> Vec<(&'static str, f64)> {
    NOMINAL
        .iter()
        .map(|name| (*name, user_metric(m, name, false)))
        .collect()
}

/// Per-op ledger lines built from the spans of the traced rounds.
#[derive(Debug, Default)]
struct Ledger {
    ops: u64,
    op_ns: u64,
    enclave_ns: u64,
    storage_ns: u64,
    ecalls: u64,
    ocalls: u64,
    calls_by: BTreeMap<&'static str, (u64, u64, u64)>,
    read_ops: u64,
    meta_gets: u64,
    meta_get_bytes: u64,
    lookups: u64,
    lookup_self_ns: u64,
    by_kind: BTreeMap<Kind, (Vec<u32>, u64)>,
    call_ns: Vec<u32>,
    stall_max_ns: u64,
}

/// Fetches in a read op that are not the file's own data: every ranged
/// read and every batch is data; of plain `get`s, a whole-file read's
/// last one is its data object when it issued no ranged read. What is
/// left is metadata the cache did not cover.
fn meta_fetches(kind: Kind, calls: &[CallSpan]) -> (u64, u64) {
    let gets: Vec<&CallSpan> = calls.iter().filter(|c| c.call == Call::Get).collect();
    let ranged = calls.iter().any(|c| c.call == Call::GetRange);
    let data_get = matches!(kind, Kind::ReadSmall | Kind::ReadBig) && !ranged;
    let meta = &gets[..gets.len().saturating_sub(usize::from(data_get))];
    (meta.len() as u64, meta.iter().map(|c| c.bytes).sum())
}

/// The ledger of `ops` (ascending by id) over `calls` (ascending by op).
fn ledger<'a>(ops: impl Iterator<Item = &'a OpSpan>, mut calls: &[CallSpan]) -> Ledger {
    let mut l = Ledger::default();
    for op in ops {
        let mine = calls_of(&mut calls, op.id);
        let mut intervals: Vec<(u64, u64)> = mine.iter().map(|c| (c.start_ns, c.end_ns)).collect();
        // Storage calls are made from inside enclave entries, and those
        // from inside the op: clamp so clock skew between the three
        // readings can never make a self time negative.
        let busy = op.busy_ns;
        let enclave = op.enclave_ns.min(busy);
        let storage = union_len(&mut intervals).min(enclave);
        l.ops += 1;
        l.op_ns += busy;
        l.enclave_ns += enclave;
        l.storage_ns += storage;
        l.ecalls += u64::from(op.ecalls);
        l.ocalls += u64::from(op.ocalls);
        for c in mine {
            let e = l.calls_by.entry(c.call.name()).or_default();
            *e = (e.0 + 1, e.1 + u64::from(c.objects), e.2 + c.bytes);
            let ns = c.end_ns - c.start_ns;
            l.call_ns.push(ns.min(u64::from(u32::MAX)) as u32);
            l.stall_max_ns = l.stall_max_ns.max(ns);
        }
        if op.kind.class() != Class::Write {
            let (gets, bytes) = meta_fetches(op.kind, mine);
            l.read_ops += 1;
            l.meta_gets += gets;
            l.meta_get_bytes += bytes;
        }
        if op.kind == Kind::Lookup {
            l.lookups += 1;
            l.lookup_self_ns += enclave - storage;
        }
        let k = l.by_kind.entry(op.kind).or_default();
        k.0.push(busy.min(u64::from(u32::MAX)) as u32);
        k.1 += mine.len() as u64;
    }
    l
}

/// The per-layer metrics a workload's own run yields (the probes add the
/// rest). Every declared name is present; one that does not apply is 0.
/// Times are over every traced round, counts over the first one.
pub fn per_layer(m: &mut Measured) -> BTreeMap<String, f64> {
    m.call_spans.sort_unstable_by_key(|c| (c.op_id, c.start_ns));
    m.op_spans.sort_unstable_by_key(|o| o.id);
    let first_traced = m.op_spans.first().map_or(0, |o| o.round);
    let mut times = ledger(m.op_spans.iter(), &m.call_spans);
    let mut counts = ledger(
        m.op_spans.iter().filter(|o| o.round == first_traced),
        &m.call_spans,
    );
    let mut out = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        out.insert(name.to_string(), v);
    };

    let per_op = |v: u64| v as f64 / times.ops.max(1) as f64 / 1e3;
    put("trace.op_us_per_op", per_op(times.op_ns));
    put(
        "core.volume.self_us_per_op",
        per_op(times.op_ns - times.enclave_ns),
    );
    put(
        "core.enclave.self_us_per_op",
        per_op(times.enclave_ns - times.storage_ns),
    );
    put("storage.self_us_per_op", per_op(times.storage_ns));
    put(
        "core.cache.lookup_self_us",
        times.lookup_self_ns as f64 / times.lookups.max(1) as f64 / 1e3,
    );

    let per_op = |v: u64| v as f64 / counts.ops.max(1) as f64;
    let sum = |names: &[&str], field: fn(&(u64, u64, u64)) -> u64| -> u64 {
        names
            .iter()
            .filter_map(|n| counts.calls_by.get(n))
            .map(field)
            .sum()
    };
    const GETS: [&str; 3] = ["get", "get_range", "get_many"];
    const PUTS: [&str; 2] = ["put", "put_many"];
    const BATCHES: [&str; 3] = ["get_many", "put_many", "stat_many"];
    put("storage.gets_per_op", per_op(sum(&GETS, |c| c.0)));
    put("storage.puts_per_op", per_op(sum(&PUTS, |c| c.0)));
    put(
        "storage.stats_per_op",
        per_op(sum(&["stat", "stat_many", "exists"], |c| c.0)),
    );
    put(
        "storage.locks_per_op",
        per_op(sum(&["lock", "unlock"], |c| c.0)),
    );
    put("storage.deletes_per_op", per_op(sum(&["delete"], |c| c.0)));
    put(
        "storage.batch_width",
        sum(&BATCHES, |c| c.1) as f64 / sum(&BATCHES, |c| c.0).max(1) as f64,
    );
    put("storage.bytes_put_per_op", per_op(sum(&PUTS, |c| c.2)));
    put("storage.bytes_get_per_op", per_op(sum(&GETS, |c| c.2)));
    put(
        "core.cache.meta_gets_per_read_op",
        counts.meta_gets as f64 / counts.read_ops.max(1) as f64,
    );
    put(
        "core.cache.meta_bytes_get_per_read_op",
        counts.meta_get_bytes as f64 / counts.read_ops.max(1) as f64,
    );
    put("sgx.ecalls_per_op", per_op(counts.ecalls));
    put("sgx.ocalls_per_op", per_op(counts.ocalls));
    put("sgx.epc_peak_mib", m.epc_peak as f64 / MIB);
    for kind in Kind::REPORTED {
        let (mut ns, _) = times.by_kind.remove(&kind).unwrap_or_default();
        ns.sort_unstable();
        put(
            &format!("op.{}.p50_us", kind.name()),
            nearest_rank(&ns, 50.0).map_or(0.0, |v| f64::from(v) / 1e3),
        );
        let (ns, calls) = counts.by_kind.remove(&kind).unwrap_or_default();
        put(
            &format!("op.{}.storage_calls", kind.name()),
            calls as f64 / ns.len().max(1) as f64,
        );
    }

    let on_log = m.log_disk.is_some();
    times.call_ns.sort_unstable();
    let call_tail = tail(&times.call_ns, 99).map_or(0.0, |t| f64::from(t.value) / 1e3);
    put(
        "storage.log.call_p99_us",
        if on_log { call_tail } else { 0.0 },
    );
    put(
        "storage.log.stall_max_ms",
        if on_log {
            times.stall_max_ns as f64 / 1e6
        } else {
            0.0
        },
    );
    put(
        "storage.log.disk_bytes_per_live_byte",
        m.log_disk
            .map_or(0.0, |(disk, live)| disk as f64 / live.max(1) as f64),
    );
    let reopen: Vec<f64> = m
        .rounds
        .iter()
        .filter(|r| r.reopen_ns > 0)
        .map(|r| r.reopen_ns as f64 / 1e6)
        .collect();
    put("storage.log.reopen_ms", median(&reopen).unwrap_or(0.0));

    let first = m.rounds.first().cloned().unwrap_or_default();
    let simulated = first.sim_ns > 0;
    put(
        "storage.afs.rpcs_per_op",
        first.remote_rpcs as f64 / first.ops.max(1) as f64,
    );
    put(
        "storage.afs.cache_hit_ratio",
        first.cache_hits as f64 / (first.cache_hits + first.remote_rpcs).max(1) as f64,
    );
    m.sim_lat.sort_unstable();
    let sim_mean =
        m.sim_lat.iter().map(|&v| u64::from(v)).sum::<u64>() as f64 / m.sim_lat.len().max(1) as f64;
    put("storage.afs.sim_us_per_op", sim_mean / 1e3);
    put("exec.threads", m.exec_threads as f64);
    let host_us = m.median_of(|r| Some(r.wall_ns as f64 / 1e3 / r.ops.max(1) as f64));
    put(
        "exec.host_us_per_sim_op",
        if simulated { host_us } else { 0.0 },
    );
    put(
        "sim_ops_per_s",
        if simulated {
            first.ops as f64 / (first.sim_ns as f64 / 1e9)
        } else {
            0.0
        },
    );
    put(
        "sim_op_p99_us",
        tail(&m.sim_lat, 99).map_or(0.0, |t| f64::from(t.value) / 1e3),
    );

    let speed = |traced: bool| {
        let v: Vec<f64> = m
            .rounds
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.ops as f64 / r.wall_ns as f64)
            .collect();
        median(&v)
    };
    let overhead = match (speed(true), speed(false)) {
        (Some(t), Some(p)) if p > 0.0 => (1.0 - t / p) * 100.0,
        _ => 0.0,
    };
    put("trace.overhead_pct", overhead);
    put("trace.unattributed_spans", m.unattributed as f64);
    let speeds: Vec<f64> = m.rounds.iter().map(|r| r.speed).collect();
    put("host.speed_factor", median(&speeds).unwrap_or(1.0));
    out
}
