//! `micro_scale` → `BENCH_scale.json`: the massive-scale load harness.
//!
//! Drives the `nexus-workloads` load driver (DESIGN.md §14) at 1k / 10k /
//! 100k simulated clients (`--smoke`: 100 / 1k). Every client is a *real
//! mounted `NexusVolume`* (DESIGN.md §15) — enclave seal/open, `MetaCommit`
//! group commits, freshness checks, batched `get_many` fetch→decrypt bulk
//! reads, ACL churn — and a future on the `nexus-exec` executor, all of
//! them polled on one OS thread against one simulated AFS server on the
//! paper-calibrated latency model.
//! Latencies are recorded per operation into log-bucketed histograms
//! (p50/p99/p999); an open-loop cell replays a Poisson arrival schedule so
//! queueing delay (coordinated omission) shows up in the tail. Every such
//! figure is virtual time; each cell also carries the host wall clock of
//! its measured epoch (`wall_s`, `host_ns_per_op`).
//!
//! Floors, at both sizes: the executor world executed what the serial
//! oracle did (transcripts, server inventory, simulated makespan) —
//! polling the clients together instead of one after another may change
//! *when* things happen on the host, never *what* happened; every cell's
//! quantiles are ordered, its per-kind histograms sum and it has a host
//! cost. A full run also ladders 1k/10k/100k and has no p999 under its
//! mean.

use nexus_workloads::loadgen::{run, Arrival, Cell, Fs, LatencyHistogram, ScaleReport, World};

use crate::json::Json;
use crate::Report;

/// What the harness runs, as (clients, ops per client) pairs.
struct Plan {
    /// The closed-loop ladder: more clients, fewer ops apiece, so the
    /// total stays tractable while the *concurrency* under test grows.
    ladder: &'static [(usize, usize)],
    /// Where the executor world is held against the serial oracle.
    oracle: (usize, usize),
    /// The open-loop cell and its per-client arrival rate, in simulated
    /// ops per second.
    open: (usize, usize),
    open_hz: f64,
}

#[derive(Clone)]
pub(crate) struct Hist {
    count: u64,
    pub(crate) p50_us: f64,
    pub(crate) p99_us: f64,
    p999_us: f64,
    mean_us: f64,
    max_us: f64,
}

/// One cell of the executor world.
#[derive(Clone)]
pub(crate) struct CellReport {
    pub(crate) clients: usize,
    ops_per_client: usize,
    total_ops: u64,
    wall_s: f64,
    makespan_ms: f64,
    agg_ops_per_sec: f64,
    pub(crate) latency: Hist,
    reads: Hist,
    writes: Hist,
    per_client_hz: Option<f64>,
}

/// The fs source's results.
#[derive(Clone)]
pub(crate) struct Section {
    pub(crate) worlds_identical: bool,
    pub(crate) cells: Vec<CellReport>,
    open_loop: CellReport,
}

#[derive(Clone)]
pub(crate) struct Scale {
    pub(crate) smoke: bool,
    fs_source: Fs,
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

/// The whole section: the differential run, ladder, open loop.
fn section(source: &Fs, plan: &Plan) -> Section {
    // Lanes being charged identically, the simulated makespan must match
    // the serial oracle's too.
    let oracle_cell = Fs::cell(plan.oracle.0, plan.oracle.1);
    let serial = run(source, &oracle_cell, World::Serial);
    let exec = run(source, &oracle_cell, World::Exec);
    let worlds_identical = exec.transcripts == serial.transcripts
        && exec.inventory == serial.inventory
        && exec.makespan == serial.makespan;
    let cells: Vec<CellReport> = plan
        .ladder
        .iter()
        .map(|&(clients, ops)| {
            let cell = Fs::cell(clients, ops);
            cell_report(&cell, &run(source, &cell, World::Exec))
        })
        .collect();

    // Open loop: Poisson arrivals at a fixed per-client rate, independent
    // of completions, so backlog lands in the tail instead of being
    // silently absorbed by the issue loop (coordinated omission).
    let open_cell = Cell {
        arrival: Arrival::Open { per_client_hz: plan.open_hz },
        ..Fs::cell(plan.open.0, plan.open.1)
    };
    let open_loop = cell_report(&open_cell, &run(source, &open_cell, World::Exec));
    Section { worlds_identical, cells, open_loop }
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
            .field("total_ops", Json::Int(self.total_ops as i64));
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
    /// Appends this section's fields to `doc`, each key behind `fs_`.
    fn emit(&self, doc: Json) -> Json {
        let key = |name: &str| format!("fs_{name}");
        doc.field(&key("clients"), Json::ints(self.cells.iter().map(|c| c.clients as i64)))
            .field(&key("worlds_identical"), Json::Bool(self.worlds_identical))
            .field(&key("cells"), Json::Arr(self.cells.iter().map(CellReport::json).collect()))
            .field(&key("open_loop"), self.open_loop.json())
    }

    fn gate(&self, what: &str, smoke: bool) {
        assert!(
            self.worlds_identical,
            "{what}: the executor and serial worlds must be transcript-identical"
        );
        for cell in self.cells.iter().chain([&self.open_loop]) {
            cell.gate(what, smoke);
        }
        if !smoke {
            let clients: Vec<usize> = self.cells.iter().map(|c| c.clients).collect();
            assert_eq!(clients, [1000, 10_000, 100_000], "a full {what} run ladders 1k/10k/100k");
        }
    }
}

impl Report for Scale {
    fn measure(smoke: bool) -> Scale {
        // Fs ops cost several RPCs each, so few of them per client and a
        // modest open-loop rate keep the cells loaded-but-stable.
        let plan = if smoke {
            Plan {
                ladder: &[(100, 8), (1000, 8)],
                oracle: (32, 8),
                open: (1000, 8),
                open_hz: 25.0,
            }
        } else {
            Plan {
                ladder: &[(1000, 16), (10_000, 8), (100_000, 4)],
                oracle: (128, 8),
                open: (10_000, 8),
                open_hz: 25.0,
            }
        };
        let fs_source = Fs::standard();
        let fs = section(&fs_source, &plan);
        Scale { smoke, fs_source, fs }
    }

    fn gate(&self) {
        self.fs.gate("fs", self.smoke);
    }

    fn json(&self) -> Json {
        let doc = Json::obj()
            .field("bench", Json::Str("scale".into()))
            .field("emitter", Json::Str("nexus-bench micro_scale (scripts/bench.sh)".into()))
            .field("smoke", Json::Bool(self.smoke))
            .field("latency_model", Json::Str("paper_calibrated".into()))
            .field("fs_shared_files", Json::Int(self.fs_source.shared_files as i64))
            .field("fs_value_bytes", Json::Int(self.fs_source.value_bytes as i64));
        self.fs.emit(doc)
    }
}
