//! `micro_scale` → `BENCH_scale.json`: the massive-scale load harness.
//!
//! Drives the `nexus-workloads` load driver (DESIGN.md §14) at 1k / 10k /
//! 100k simulated clients (`--smoke`: 100 / 1k), once per op source: at the
//! **wire** level every client is a raw RPC connection issuing Zipf-popular
//! shared reads and private writes; at the **fs** level (DESIGN.md §15)
//! every client is a *real mounted `NexusVolume`* — enclave seal/open,
//! `MetaCommit` group commits, freshness checks, batched `get_many`
//! fetch→decrypt bulk reads, ACL churn. Either way a client is a future on
//! the `nexus-exec` executor, multiplexed over at most
//! `nexus_exec::MAX_WORKERS` OS threads against one simulated AFS server on
//! the paper-calibrated latency model. Latencies are recorded per operation
//! into log-bucketed histograms (p50/p99/p999); an open-loop cell replays a
//! Poisson arrival schedule so queueing delay (coordinated omission) shows
//! up in the tail. Every such figure is virtual time; each cell also
//! carries the host wall clock of its measured epoch (`wall_s`,
//! `host_ns_per_op`).
//!
//! Floors, at both sizes: no cell drove more OS threads than the executor's
//! cap, however many clients it simulated; the executor world executed what
//! the serial oracle did (transcripts, server inventory, simulated makespan)
//! and what the thread-per-client world did at that world's sustainable
//! client count (transcripts, inventory) — swapping the scheduling
//! substrate may change *when* things happen on the host, never *what*
//! happened; every cell's quantiles are ordered, its per-kind histograms sum
//! and it has a host cost; the headline — aggregate executor throughput at
//! the headline rung over the thread world's at its own maximum — is what
//! the cells say. A full run also ladders 1k/10k/100k with the 10k cell as
//! the headline, clears 5x at both levels, and has no p999 under its mean.

use nexus_workloads::loadgen::{
    run, Arrival, Cell, Fs, LatencyHistogram, ScaleReport, Source, Wire, World,
};

use crate::json::Json;
use crate::Report;

/// What one source's section runs, as (clients, ops per client) pairs.
struct Plan {
    /// The closed-loop ladder: more clients, fewer ops apiece, so the
    /// total stays tractable while the *concurrency* under test grows.
    ladder: &'static [(usize, usize)],
    /// Where the executor world is held against the serial oracle.
    oracle: (usize, usize),
    /// The thread-per-client world's sustainable size: 100k OS threads is
    /// exactly what the executor exists to avoid.
    baseline: (usize, usize),
    /// The open-loop cell and its per-client arrival rate, in simulated
    /// ops per second.
    open: (usize, usize),
    open_hz: f64,
}

/// The ladder rung behind the headline: 10k clients in full mode, 1k in
/// smoke.
const HEADLINE: usize = 1;

#[derive(Clone)]
pub(crate) struct Hist {
    count: u64,
    pub(crate) p50_us: f64,
    pub(crate) p99_us: f64,
    p999_us: f64,
    mean_us: f64,
    max_us: f64,
}

/// One cell of one world.
#[derive(Clone)]
pub(crate) struct CellReport {
    clients: usize,
    ops_per_client: usize,
    total_ops: u64,
    pub(crate) os_threads: usize,
    wall_s: f64,
    makespan_ms: f64,
    pub(crate) agg_ops_per_sec: f64,
    pub(crate) latency: Hist,
    reads: Hist,
    writes: Hist,
    per_client_hz: Option<f64>,
}

/// One source's results.
#[derive(Clone)]
pub(crate) struct Section {
    pub(crate) worlds_identical: bool,
    pub(crate) cells: Vec<CellReport>,
    open_loop: CellReport,
    /// The thread-per-client world at its sustainable size, and what the
    /// executor world made of the same cell.
    thread_world: CellReport,
    exec_at_baseline_agg_ops_per_sec: f64,
    /// Headline-rung executor throughput over the thread world's.
    pub(crate) over_thread_baseline: f64,
}

#[derive(Clone)]
pub(crate) struct Scale {
    pub(crate) smoke: bool,
    wire_source: Wire,
    fs_source: Fs,
    pub(crate) os_threads: usize,
    pub(crate) wire: Section,
    pub(crate) fs: Section,
}

fn hist(h: &LatencyHistogram) -> Hist {
    let us = |d: std::time::Duration| d.as_nanos() as f64 / 1e3;
    Hist {
        count: h.count(),
        p50_us: us(h.quantile(0.5)),
        p99_us: us(h.quantile(0.99)),
        p999_us: us(h.quantile(0.999)),
        mean_us: us(h.mean()),
        max_us: us(h.max()),
    }
}

fn cell_report(cell: &Cell, report: &ScaleReport) -> CellReport {
    // The only output before the document: a full run takes two minutes.
    eprintln!("  {} clients x {} ops: {:.2?}", cell.clients, cell.ops_per_client, report.wall);
    CellReport {
        clients: cell.clients,
        ops_per_client: cell.ops_per_client,
        total_ops: report.total_ops,
        os_threads: report.os_threads,
        wall_s: report.wall.as_secs_f64(),
        makespan_ms: report.makespan.as_secs_f64() * 1e3,
        agg_ops_per_sec: report.agg_ops_per_sec,
        latency: hist(&report.hist.all),
        reads: hist(&report.hist.reads),
        writes: hist(&report.hist.writes),
        per_client_hz: match cell.arrival {
            Arrival::Closed => None,
            Arrival::Open { per_client_hz } => Some(per_client_hz),
        },
    }
}

fn same_execution(a: &ScaleReport, b: &ScaleReport) -> bool {
    a.transcripts == b.transcripts && a.inventory == b.inventory
}

/// One source's whole section: differential runs, ladder, open loop,
/// baseline, headline.
fn section<S: Source>(source: &S, plan: &Plan) -> Section {
    // Against the serial oracle, lanes being charged identically, the
    // simulated makespan must match too.
    let oracle_cell = S::cell(plan.oracle.0, plan.oracle.1);
    let serial = run(source, &oracle_cell, World::Serial);
    let exec = run(source, &oracle_cell, World::exec());
    let baseline_cell = S::cell(plan.baseline.0, plan.baseline.1);
    let threads = run(source, &baseline_cell, World::Threads);
    let exec_at_baseline = run(source, &baseline_cell, World::exec());
    let worlds_identical = same_execution(&exec, &serial)
        && exec.makespan == serial.makespan
        && same_execution(&exec_at_baseline, &threads);
    let cells: Vec<CellReport> = plan
        .ladder
        .iter()
        .map(|&(clients, ops)| {
            let cell = S::cell(clients, ops);
            cell_report(&cell, &run(source, &cell, World::exec()))
        })
        .collect();

    // Open loop: Poisson arrivals at a fixed per-client rate, independent
    // of completions, so backlog lands in the tail instead of being
    // silently absorbed by the issue loop (coordinated omission).
    let open_cell = Cell {
        arrival: Arrival::Open { per_client_hz: plan.open_hz },
        ..S::cell(plan.open.0, plan.open.1)
    };
    let open_loop = cell_report(&open_cell, &run(source, &open_cell, World::exec()));

    let over_thread_baseline =
        cells[HEADLINE].agg_ops_per_sec / threads.agg_ops_per_sec.max(1e-9);
    Section {
        worlds_identical,
        cells,
        open_loop,
        thread_world: cell_report(&baseline_cell, &threads),
        exec_at_baseline_agg_ops_per_sec: exec_at_baseline.agg_ops_per_sec,
        over_thread_baseline,
    }
}

/// The host cost of a run, beside its virtual-time figures.
fn with_wall(json: Json, wall_s: f64, total_ops: u64) -> Json {
    json.field("wall_s", Json::Num(wall_s))
        .field("host_ns_per_op", Json::Num(wall_s * 1e9 / total_ops.max(1) as f64))
}

impl Hist {
    fn json(&self) -> Json {
        Json::obj()
            .field("count", Json::Int(self.count as i64))
            .field("p50_us", Json::Num(self.p50_us))
            .field("p99_us", Json::Num(self.p99_us))
            .field("p999_us", Json::Num(self.p999_us))
            .field("mean_us", Json::Num(self.mean_us))
            .field("max_us", Json::Num(self.max_us))
    }
}

impl CellReport {
    fn json(&self) -> Json {
        let head = Json::obj()
            .field("clients", Json::Int(self.clients as i64))
            .field("ops_per_client", Json::Int(self.ops_per_client as i64))
            .field("total_ops", Json::Int(self.total_ops as i64))
            .field("os_threads", Json::Int(self.os_threads as i64));
        let json = with_wall(head, self.wall_s, self.total_ops)
            .field("makespan_ms", Json::Num(self.makespan_ms))
            .field("agg_ops_per_sec", Json::Num(self.agg_ops_per_sec))
            .field("latency", self.latency.json())
            .field("reads", self.reads.json())
            .field("writes", self.writes.json());
        match self.per_client_hz {
            None => json,
            Some(hz) => json.field("per_client_hz", Json::Num(hz)),
        }
    }

    fn gate(&self, what: &str, smoke: bool) {
        let at = format!("{}-client {what} cell", self.clients);
        assert!(
            self.os_threads <= nexus_exec::MAX_WORKERS,
            "{at} drove {} OS threads (cap is {})",
            self.os_threads,
            nexus_exec::MAX_WORKERS
        );
        assert!(self.wall_s > 0.0 && self.total_ops > 0, "{at} has no host cost");
        let h = &self.latency;
        assert!(h.p50_us <= h.p99_us && h.p99_us <= h.p999_us, "{at}: quantiles out of order");
        assert_eq!(
            self.reads.count + self.writes.count,
            h.count,
            "{at}: per-kind histogram counts must sum"
        );
        if !smoke {
            // A quantile is its bucket's upper edge: on these near-constant
            // service times one below the mean is a bucket floor again.
            for (kind, h) in [("latency", h), ("reads", &self.reads), ("writes", &self.writes)] {
                assert!(h.p999_us >= h.mean_us, "{at} {kind}: p999 below the mean");
            }
        }
    }
}

impl Section {
    /// Appends this section's fields to `doc`, each key behind `prefix`.
    fn emit(&self, doc: Json, prefix: &str) -> Json {
        let key = |name: &str| format!("{prefix}{name}");
        let headline = &self.cells[HEADLINE];
        let b = &self.thread_world;
        doc.field(&key("clients"), Json::ints(self.cells.iter().map(|c| c.clients as i64)))
            .field(&key("worlds_identical"), Json::Bool(self.worlds_identical))
            .field(&key("cells"), Json::Arr(self.cells.iter().map(CellReport::json).collect()))
            .field(&key("open_loop"), self.open_loop.json())
            .field(
                &key("baseline"),
                with_wall(
                    Json::obj()
                        .field("clients", Json::Int(b.clients as i64))
                        .field("ops_per_client", Json::Int(b.ops_per_client as i64))
                        .field("os_threads", Json::Int(b.os_threads as i64)),
                    b.wall_s,
                    b.total_ops,
                )
                .field("agg_ops_per_sec", Json::Num(b.agg_ops_per_sec))
                .field(
                    "exec_world_agg_ops_per_sec",
                    Json::Num(self.exec_at_baseline_agg_ops_per_sec),
                ),
            )
            .field(
                &key("speedup"),
                Json::obj()
                    .field("exec_clients", Json::Int(headline.clients as i64))
                    .field("exec_agg_ops_per_sec", Json::Num(headline.agg_ops_per_sec))
                    .field("over_thread_baseline", Json::Num(self.over_thread_baseline)),
            )
    }

    fn gate(&self, what: &str, smoke: bool) {
        assert!(
            self.worlds_identical,
            "{what}: executor, serial and thread worlds must be transcript-identical"
        );
        for cell in self.cells.iter().chain([&self.open_loop]) {
            cell.gate(what, smoke);
        }
        let baseline = &self.thread_world;
        assert!(baseline.wall_s > 0.0 && baseline.total_ops > 0, "{what}: no baseline host cost");
        // Recomputed from the raw cells rather than trusted.
        let headline = &self.cells[HEADLINE];
        let recomputed = headline.agg_ops_per_sec / baseline.agg_ops_per_sec;
        assert!(
            (recomputed - self.over_thread_baseline).abs() < 1e-6 * recomputed.max(1.0),
            "{what} speedup x{:.2} does not match the raw cells' x{recomputed:.2}",
            self.over_thread_baseline
        );
        if !smoke {
            let clients: Vec<usize> = self.cells.iter().map(|c| c.clients).collect();
            assert_eq!(clients, [1000, 10_000, 100_000], "a full {what} run ladders 1k/10k/100k");
            assert!(
                self.over_thread_baseline >= 5.0,
                "need >= 5x {what} executor throughput at 10k clients over the thread-per-client \
                 baseline, got x{:.2}",
                self.over_thread_baseline
            );
        }
    }
}

impl Report for Scale {
    fn measure(smoke: bool) -> Scale {
        let wire_plan = if smoke {
            Plan {
                ladder: &[(100, 16), (1000, 16)],
                oracle: (16, 16),
                baseline: (16, 16),
                open: (1000, 16),
                open_hz: 50.0,
            }
        } else {
            Plan {
                ladder: &[(1000, 64), (10_000, 32), (100_000, 16)],
                oracle: (64, 64),
                baseline: (64, 64),
                open: (10_000, 32),
                open_hz: 50.0,
            }
        };
        // Fs ops cost several RPCs each, so fewer of them per client and a
        // lower open-loop rate keep the cells loaded-but-stable.
        let fs_plan = if smoke {
            Plan {
                ladder: &[(100, 8), (1000, 8)],
                oracle: (32, 8),
                baseline: (16, 8),
                open: (1000, 8),
                open_hz: 25.0,
            }
        } else {
            Plan {
                ladder: &[(1000, 16), (10_000, 8), (100_000, 4)],
                oracle: (128, 8),
                baseline: (64, 32),
                open: (10_000, 8),
                open_hz: 25.0,
            }
        };
        let (wire_source, fs_source) = (Wire::standard(), Fs::standard());
        let wire = section(&wire_source, &wire_plan);
        let fs = section(&fs_source, &fs_plan);
        let os_threads = wire.cells.iter().map(|c| c.os_threads).max().expect("cells");
        Scale { smoke, wire_source, fs_source, os_threads, wire, fs }
    }

    fn gate(&self) {
        assert!(
            self.os_threads <= nexus_exec::MAX_WORKERS,
            "executor used {} OS threads (cap is {})",
            self.os_threads,
            nexus_exec::MAX_WORKERS
        );
        self.wire.gate("wire", self.smoke);
        self.fs.gate("fs", self.smoke);
    }

    fn json(&self) -> Json {
        let doc = Json::obj()
            .field("bench", Json::Str("scale".into()))
            .field("emitter", Json::Str("nexus-bench micro_scale (scripts/bench.sh)".into()))
            .field("smoke", Json::Bool(self.smoke))
            .field("latency_model", Json::Str("paper_calibrated".into()))
            .field("zipf_alpha", Json::Num(self.wire_source.zipf_alpha))
            .field("shared_keys", Json::Int(self.wire_source.shared_keys as i64))
            .field("value_bytes", Json::Int(self.wire_source.value_bytes as i64))
            .field("os_threads", Json::Int(self.os_threads as i64));
        let doc = self
            .wire
            .emit(doc, "")
            .field("fs_shared_files", Json::Int(self.fs_source.shared_files as i64))
            .field("fs_value_bytes", Json::Int(self.fs_source.value_bytes as i64));
        self.fs.emit(doc, "fs_")
    }
}
