//! Output files and the sub-commands that run the whole suite: every
//! workload in a fresh child process, so no workload inherits another's
//! heap, caches or peak RSS.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::Command;

use crate::host;
use crate::json::Json;
use crate::measure::Measured;
use crate::spec::{self, END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::stats::{median, quartile_spread};
use crate::trace::calls_of;
use crate::Outcome;

/// `benchmark/out/`, created on demand (git-ignored).
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = host::package_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn write_file(name: &str, text: &str) -> Result<(), String> {
    let path = out_dir()?.join(name);
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Op spans written to a trace file; with their storage spans this keeps
/// the file to about 25 MiB on the workload with most calls per op.
const TRACE_FILE_OPS: usize = 10_000;

/// Writes `out/trace-<workload>.json`: one line per span, ops first and
/// each followed by its storage calls. Needs `m`'s spans sorted, as
/// `measure::per_layer` leaves them.
pub fn write_trace(workload: &str, m: &Measured) -> Result<(), String> {
    let path = out_dir()?.join(format!("trace-{workload}.json"));
    let write = || -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        let kept = m.op_spans.len().min(TRACE_FILE_OPS);
        writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"op_spans\": {}, \"op_spans_written\": {kept}, \"spans\": [",
            m.op_spans.len()
        )?;
        let mut calls = m.call_spans.as_slice();
        let mut next_id = m.op_spans.last().map_or(1, |o| o.id + 1);
        for (i, op) in m.op_spans[..kept].iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            write!(
                out,
                "{sep}{{\"id\": {}, \"parent\": 0, \"op_id\": {}, \"layer\": \"core.volume\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"bytes\": {}, \"round\": {}, \"ecalls\": {}, \"ocalls\": {}, \"enclave_ns\": {}}}",
                op.id, op.id, op.kind.name(), op.start_ns, op.start_ns + op.busy_ns, op.user_bytes, op.round, op.ecalls, op.ocalls, op.enclave_ns
            )?;
            for c in calls_of(&mut calls, op.id) {
                write!(
                    out,
                    ",\n{{\"id\": {next_id}, \"parent\": {}, \"op_id\": {}, \"layer\": \"storage\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"bytes\": {}, \"objects\": {}}}",
                    op.id, op.id, c.call.name(), c.start_ns, c.end_ns, c.bytes, c.objects
                )?;
                next_id += 1;
            }
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    };
    write().map_err(|e| format!("write {}: {e}", path.display()))
}

/// Prints `o`'s metrics by name with unit, writes its record under
/// `out/`, and prints the contract's result object as the last line.
pub fn report(o: &Outcome, seed: u64, trace: bool, tmp: &std::path::Path) -> Result<(), String> {
    let mut table = String::new();
    for (name, value, unit) in o.metrics() {
        writeln!(table, "{:<18} {name:<44} {value:>16.4} {unit}", o.workload).unwrap();
    }
    writeln!(
        table,
        "{:<18} attempted {} failed {}  {}",
        o.workload,
        o.attempted,
        o.failed,
        o.detail.render()
    )
    .unwrap();
    let line = o.result_line();
    let record = Json::obj([
        ("workload", Json::str(o.workload)),
        ("trace", Json::Bool(trace)),
        ("host", host::record(tmp, seed)),
        ("detail", o.detail.clone()),
        ("result", line.clone()),
    ]);
    write_file(
        &format!("result-{}-{seed}-t{}.json", o.workload, u8::from(trace)),
        &record.pretty(),
    )?;
    print!("{table}");
    println!("{}", line.render());
    Ok(())
}

/// Runs one workload in a child process and returns its result object.
fn child(
    workload: &str,
    seed: u64,
    seconds: u32,
    trace: bool,
    extra: &[String],
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("start child for {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.trim_end().lines().last().unwrap_or("");
    let (table, _) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", last));
    println!("{table}");
    let result =
        Json::parse(last).map_err(|e| format!("{workload}: unreadable result line ({e})"))?;
    if !output.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{workload} (seed {seed}): failed ops or a non-zero exit; result: {last}"
        ));
    }
    Ok(result)
}

/// Options the suite sub-commands share.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    /// Seed of the first (or only) run.
    pub seed: u64,
    /// Seconds each workload measures.
    pub seconds: u32,
    /// Arguments handed on to every child (`--tmp`).
    pub extra: Vec<String>,
}

impl Default for SuiteArgs {
    fn default() -> SuiteArgs {
        SuiteArgs {
            seed: 1,
            seconds: RUN_SECONDS,
            extra: Vec::new(),
        }
    }
}

/// `run` / `trace`: every workload once, each in a fresh child; writes
/// `out/result-<seed>.json` (`out/layers-<seed>.json` when tracing).
pub fn run_all(args: &SuiteArgs, trace: bool) -> Result<(), String> {
    let mut results = Vec::new();
    for w in &WORKLOADS {
        results.push((
            w.name,
            child(w.name, args.seed, args.seconds, trace, &args.extra)?,
        ));
    }
    if trace {
        println!("\nlayer ledger (us per op; the three self times sum to the op time)");
        println!(
            "{:<18} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "workload", "op", "volume", "enclave", "storage", "trace ovh %"
        );
        for (name, r) in &results {
            let v = |metric: &str| {
                r.get("metrics")
                    .and_then(|m| m.get(metric))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            println!(
                "{name:<18} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.1}",
                v("trace.op_us_per_op"),
                v("core.volume.self_us_per_op"),
                v("core.enclave.self_us_per_op"),
                v("storage.self_us_per_op"),
                v("trace.overhead_pct")
            );
        }
    }
    let tmp = host::package_dir().join("out").join("tmp");
    let record = Json::obj([
        ("host", host::record(&tmp, args.seed)),
        ("seconds", Json::Int(i64::from(args.seconds))),
        ("workloads", Json::obj(results)),
    ]);
    let name = format!(
        "{}-{}.json",
        if trace { "layers" } else { "result" },
        args.seed
    );
    write_file(&name, &record.pretty())?;
    println!("\nwrote {}", out_dir()?.join(name).display());
    Ok(())
}

/// `calibrate N`: the workloads of `BENCHMARK.json` `runs` times on seeds
/// `seed..seed + runs`; prints min / median / max, (max − min) ÷ median
/// and the quartile spread per workload and end-to-end metric, and fails
/// when a quartile spread exceeds the metric's declared bound.
pub fn calibrate(args: &SuiteArgs, runs: u64) -> Result<(), String> {
    let workloads: Vec<_> = spec::bounded().collect();
    let mut values: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); END_TO_END.len()]; workloads.len()];
    for seed in args.seed..args.seed + runs {
        for (wi, w) in workloads.iter().enumerate() {
            let r = child(w.name, seed, args.seconds, false, &args.extra)?;
            for (mi, metric) in END_TO_END.iter().enumerate() {
                let v = r
                    .get("metrics")
                    .and_then(|m| m.get(metric.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64);
                values[wi][mi].push(
                    v.ok_or_else(|| format!("{}: no {} in the result", w.name, metric.name))?,
                );
            }
        }
    }
    let mut over = Vec::new();
    println!("\n| workload | metric | unit | min | median | max | (max-min)/median | IQR/median | bound |");
    println!("|---|---|---|---:|---:|---:|---:|---:|---:|");
    for (wi, w) in workloads.iter().enumerate() {
        for (mi, metric) in END_TO_END.iter().enumerate() {
            let v = &values[wi][mi];
            let (min, max) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)));
            let med = median(v).unwrap_or(0.0);
            let spread = quartile_spread(v).unwrap_or(0.0);
            println!(
                "| {} | {} | {} | {min:.4} | {med:.4} | {max:.4} | {:.3} | {spread:.3} | {:.2} |",
                w.name,
                metric.name,
                metric.unit,
                if med != 0.0 { (max - min) / med } else { 0.0 },
                metric.bound
            );
            if spread > metric.bound {
                over.push(format!(
                    "{} {}: IQR/median {spread:.3} > bound {:.2}",
                    w.name, metric.name, metric.bound
                ));
            }
        }
    }
    if over.is_empty() {
        println!("\ncalibrate: every spread is within its bound over {runs} runs");
        Ok(())
    } else {
        Err(format!(
            "calibrate: {} pair(s) over their bound:\n  {}",
            over.len(),
            over.join("\n  ")
        ))
    }
}
