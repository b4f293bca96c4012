//! Massive-scale load benchmark, and the emitter behind `BENCH_scale.json`
//! (run via `scripts/bench.sh`).
//!
//! Drives the `nexus-workloads` load driver (DESIGN.md §14) at 1k / 10k /
//! 100k simulated clients, once per op source: at the **wire** level every
//! client is a raw RPC connection issuing Zipf-popular shared reads and
//! private writes; at the **fs** level (DESIGN.md §15) every client is a
//! *real mounted `NexusVolume`* — enclave seal/open, `MetaCommit` group
//! commits, freshness checks, batched `get_many` fetch→decrypt bulk reads,
//! ACL churn. Either way a client is a future on the `nexus-exec`
//! executor, multiplexed over at most `nexus_exec::MAX_WORKERS` OS
//! threads against one simulated AFS server on the paper-calibrated
//! latency model. Latencies are recorded per operation into log-bucketed
//! histograms (p50/p99/p999); an open-loop cell replays a Poisson arrival
//! schedule so queueing delay (coordinated omission) shows up in the tail.
//!
//! Before any timing is reported, the executor world is differentially
//! gated against the serial oracle (transcripts, server inventory and
//! simulated makespan) and against the thread-per-client world at that
//! world's sustainable client count (transcripts and inventory): swapping
//! the scheduling substrate may change *when* things happen on the host,
//! never *what* happened. The headline is aggregate executor throughput at
//! 10k clients over the thread world's at its own maximum, gated ≥ 5× for
//! both sources in `scripts/bench.sh` full mode.
//!
//! Every figure above is virtual time; each cell also carries the host
//! wall clock of its measured epoch (`wall_s`, `host_ns_per_op`).
//!
//! Flags: `--smoke` (100/1k clients, for `scripts/verify.sh`),
//! `--json PATH`.

use nexus_bench::json::Json;
use nexus_bench::{arg_flag, arg_string, rule};
use nexus_workloads::loadgen::{
    run, Arrival, Cell, Fs, LatencyHistogram, ScaleReport, Source, Wire, World,
};

/// What one source's section runs, as (clients, ops per client) pairs.
struct Plan {
    /// Human label of the source.
    label: &'static str,
    /// The closed-loop ladder: more clients, fewer ops apiece, so the
    /// total stays tractable while the *concurrency* under test grows.
    ladder: &'static [(usize, usize)],
    /// Where the executor world is gated against the serial oracle.
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

/// One source's results.
struct Section {
    ladder: Vec<(Cell, ScaleReport)>,
    open: (Cell, ScaleReport),
    baseline: Cell,
    thread_world: ScaleReport,
    exec_at_baseline: ScaleReport,
}

fn hist_json(h: &LatencyHistogram) -> Json {
    Json::obj()
        .field("count", Json::Int(h.count() as i64))
        .field("p50_us", Json::Num(h.quantile(0.5).as_nanos() as f64 / 1e3))
        .field("p99_us", Json::Num(h.quantile(0.99).as_nanos() as f64 / 1e3))
        .field("p999_us", Json::Num(h.quantile(0.999).as_nanos() as f64 / 1e3))
        .field("mean_us", Json::Num(h.mean().as_nanos() as f64 / 1e3))
        .field("max_us", Json::Num(h.max().as_nanos() as f64 / 1e3))
}

/// The host cost of producing `report`, beside its virtual-time figures.
fn with_wall(json: Json, report: &ScaleReport) -> Json {
    json.field("wall_s", Json::Num(report.wall.as_secs_f64())).field(
        "host_ns_per_op",
        Json::Num(report.wall.as_nanos() as f64 / report.total_ops.max(1) as f64),
    )
}

fn cell_json(cell: &Cell, report: &ScaleReport) -> Json {
    let head = Json::obj()
        .field("clients", Json::Int(cell.clients as i64))
        .field("ops_per_client", Json::Int(cell.ops_per_client as i64))
        .field("total_ops", Json::Int(report.total_ops as i64))
        .field("os_threads", Json::Int(report.os_threads as i64));
    let json = with_wall(head, report)
        .field("makespan_ms", Json::Num(report.makespan.as_secs_f64() * 1e3))
        .field("agg_ops_per_sec", Json::Num(report.agg_ops_per_sec))
        .field("latency", hist_json(&report.hist.all))
        .field("reads", hist_json(&report.hist.reads))
        .field("writes", hist_json(&report.hist.writes));
    match cell.arrival {
        Arrival::Closed => json,
        Arrival::Open { per_client_hz } => json.field("per_client_hz", Json::Num(per_client_hz)),
    }
}

fn print_row(label: &str, report: &ScaleReport) {
    println!(
        "{label:>9} {:>9} {:>10.1} ms {:>13.0} {:>9.0} {:>9.0} {:>9.0} {:>4} {:>8.2}",
        report.total_ops,
        report.makespan.as_secs_f64() * 1e3,
        report.agg_ops_per_sec,
        report.hist.all.quantile(0.5).as_nanos() as f64 / 1e3,
        report.hist.all.quantile(0.99).as_nanos() as f64 / 1e3,
        report.hist.all.quantile(0.999).as_nanos() as f64 / 1e3,
        report.os_threads,
        report.wall.as_secs_f64(),
    );
}

fn assert_same_execution(a: &ScaleReport, b: &ScaleReport, what: &str) {
    assert_eq!(a.transcripts, b.transcripts, "{what}: per-client transcripts diverged");
    assert_eq!(a.inventory, b.inventory, "{what}: server inventories diverged");
}

/// Runs one executor-world cell and checks what holds for all of them.
fn exec_cell<S: Source>(source: &S, cell: &Cell, what: &str) -> ScaleReport {
    let report = run(source, cell, World::exec());
    assert!(
        report.os_threads <= nexus_exec::MAX_WORKERS,
        "{} clients drove {} OS threads",
        cell.clients,
        report.os_threads
    );
    let h = &report.hist.all;
    let (p50, p99, p999) = (h.quantile(0.5), h.quantile(0.99), h.quantile(0.999));
    assert!(
        p50 <= p99 && p99 <= p999,
        "{what}: quantiles out of order: p50 {p50:?} p99 {p99:?} p999 {p999:?}"
    );
    report
}

/// One source's whole section: differential gates, ladder, open loop,
/// baseline, headline.
fn section<S: Source>(source: &S, plan: &Plan) -> Section {
    let label = plan.label;

    // Differential gates first. Against the serial oracle, lanes being
    // charged identically, the simulated makespan must match too.
    let oracle_cell = S::cell(plan.oracle.0, plan.oracle.1);
    let serial = run(source, &oracle_cell, World::Serial);
    let exec = run(source, &oracle_cell, World::exec());
    assert_same_execution(&exec, &serial, &format!("{label} exec vs serial oracle"));
    assert_eq!(exec.makespan, serial.makespan, "{label}: lane charging is world-dependent");
    let baseline = S::cell(plan.baseline.0, plan.baseline.1);
    let thread_world = run(source, &baseline, World::Threads);
    let exec_at_baseline = run(source, &baseline, World::exec());
    assert_same_execution(&exec_at_baseline, &thread_world, &format!("{label} exec vs threads"));
    println!(
        "{label} worlds identical: executor = serial oracle at {} clients (transcripts, \
         inventory, makespan), = thread world at {} (threads: {} OS threads, executor: {})",
        oracle_cell.clients,
        baseline.clients,
        thread_world.os_threads,
        exec_at_baseline.os_threads
    );
    rule(93);
    println!(
        "{:>9} {:>9} {:>13} {:>13} {:>9} {:>9} {:>9} {:>4} {:>8}",
        "clients", "ops", "makespan", "agg ops/s", "p50 us", "p99 us", "p999 us", "thr", "wall s"
    );
    rule(93);

    let ladder: Vec<(Cell, ScaleReport)> = plan
        .ladder
        .iter()
        .map(|&(clients, ops)| {
            let cell = S::cell(clients, ops);
            let report = exec_cell(source, &cell, &format!("{label} closed loop"));
            print_row(&format!("{clients}"), &report);
            (cell, report)
        })
        .collect();
    rule(93);

    // Open loop: Poisson arrivals at a fixed per-client rate, independent
    // of completions, so backlog lands in the tail instead of being
    // silently absorbed by the issue loop (coordinated omission).
    let open_cell = Cell {
        arrival: Arrival::Open { per_client_hz: plan.open_hz },
        ..S::cell(plan.open.0, plan.open.1)
    };
    let open_report = exec_cell(source, &open_cell, &format!("{label} open loop"));
    println!(
        "{label} open loop: {} clients at {} ops/s each (Poisson)",
        open_cell.clients, plan.open_hz
    );
    print_row("open", &open_report);
    rule(93);

    // Headline: executor-world aggregate throughput at the headline rung
    // over the thread world at its max.
    let open = (open_cell, open_report);
    let section = Section { ladder, open, baseline, thread_world, exec_at_baseline };
    let (cell, report) = &section.ladder[HEADLINE];
    println!(
        "{label} aggregate throughput: {:.0} ops/s at {} executor clients vs {:.0} ops/s at {} \
         thread-world clients — x{:.1}",
        report.agg_ops_per_sec,
        cell.clients,
        section.thread_world.agg_ops_per_sec,
        section.baseline.clients,
        section.speedup()
    );
    rule(93);
    section
}

impl Section {
    fn speedup(&self) -> f64 {
        self.ladder[HEADLINE].1.agg_ops_per_sec / self.thread_world.agg_ops_per_sec.max(1e-9)
    }

    /// Appends this section's fields to `doc`, each key behind `prefix`.
    fn emit(&self, doc: Json, prefix: &str) -> Json {
        let key = |name: &str| format!("{prefix}{name}");
        let (headline_cell, headline) = &self.ladder[HEADLINE];
        doc.field(&key("clients"), Json::ints(self.ladder.iter().map(|(c, _)| c.clients as i64)))
            // `section` asserted both identities before it returned.
            .field(&key("worlds_identical"), Json::Bool(true))
            .field(
                &key("cells"),
                Json::Arr(self.ladder.iter().map(|(c, r)| cell_json(c, r)).collect()),
            )
            .field(&key("open_loop"), cell_json(&self.open.0, &self.open.1))
            .field(
                &key("baseline"),
                with_wall(
                    Json::obj()
                        .field("clients", Json::Int(self.baseline.clients as i64))
                        .field("ops_per_client", Json::Int(self.baseline.ops_per_client as i64))
                        .field("os_threads", Json::Int(self.thread_world.os_threads as i64)),
                    &self.thread_world,
                )
                    .field("agg_ops_per_sec", Json::Num(self.thread_world.agg_ops_per_sec))
                    .field(
                        "exec_world_agg_ops_per_sec",
                        Json::Num(self.exec_at_baseline.agg_ops_per_sec),
                    ),
            )
            .field(
                &key("speedup"),
                Json::obj()
                    .field("exec_clients", Json::Int(headline_cell.clients as i64))
                    .field("exec_agg_ops_per_sec", Json::Num(headline.agg_ops_per_sec))
                    .field("over_thread_baseline", Json::Num(self.speedup())),
            )
    }
}

fn main() {
    let smoke = arg_flag("--smoke");
    let wire_plan = if smoke {
        Plan {
            label: "wire",
            ladder: &[(100, 16), (1000, 16)],
            oracle: (16, 16),
            baseline: (16, 16),
            open: (1000, 16),
            open_hz: 50.0,
        }
    } else {
        Plan {
            label: "wire",
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
            label: "fs",
            ladder: &[(100, 8), (1000, 8)],
            oracle: (32, 8),
            baseline: (16, 8),
            open: (1000, 8),
            open_hz: 25.0,
        }
    } else {
        Plan {
            label: "fs",
            ladder: &[(1000, 16), (10_000, 8), (100_000, 4)],
            oracle: (128, 8),
            baseline: (64, 32),
            open: (10_000, 8),
            open_hz: 25.0,
        }
    };
    let (wire, fs) = (Wire::standard(), Fs::standard());

    rule(93);
    println!("micro_scale — simulated clients as futures on the nexus-exec executor");
    println!("paper-calibrated latency, <= {} OS threads", nexus_exec::MAX_WORKERS);
    rule(93);
    println!(
        "wire-level: raw RPC clients, Zipf({}) reads of {} shared keys + private writes, {} B",
        wire.zipf_alpha, wire.shared_keys, wire.value_bytes
    );
    let wire_section = section(&wire, &wire_plan);
    println!(
        "fs-level: mounted NexusVolume clients (seal/open, MetaCommit, bulk get_many), \
         Zipf({}) reads + bulk reads of {} shared files + private writes + ACL churn, {} B",
        fs.zipf_alpha, fs.shared_files, fs.value_bytes
    );
    let fs_section = section(&fs, &fs_plan);
    println!("differential gates passed: every world transcript-identical before timing");

    if let Some(path) = arg_string("--json") {
        let max_threads =
            wire_section.ladder.iter().map(|(_, r)| r.os_threads).max().expect("cells") as i64;
        let doc = Json::obj()
            .field("bench", Json::Str("scale".into()))
            .field("emitter", Json::Str("nexus-bench micro_scale (scripts/bench.sh)".into()))
            .field("smoke", Json::Bool(smoke))
            .field("latency_model", Json::Str("paper_calibrated".into()))
            .field("zipf_alpha", Json::Num(wire.zipf_alpha))
            .field("shared_keys", Json::Int(wire.shared_keys as i64))
            .field("value_bytes", Json::Int(wire.value_bytes as i64))
            .field("os_threads", Json::Int(max_threads));
        let doc = wire_section
            .emit(doc, "")
            .field("fs_shared_files", Json::Int(fs.shared_files as i64))
            .field("fs_value_bytes", Json::Int(fs.value_bytes as i64));
        let doc = fs_section.emit(doc, "fs_");
        std::fs::write(&path, doc.render()).expect("write json");
        println!("wrote {path}");
    }
}
