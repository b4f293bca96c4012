//! Command line of `nexus-benchmark`.
//!
//! ```text
//! nexus-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one result line
//! nexus-benchmark run       [--seed n] [--seconds s]      every workload, each in a fresh child process
//! nexus-benchmark trace     [--seed n] [--seconds s]      the same with spans on: layer ledger and probes
//! nexus-benchmark calibrate [runs] [--seed n] [--seconds s]   spread of every end-to-end metric over runs
//! nexus-benchmark manifest                                 print BENCHMARK.json
//! ```
//!
//! Everywhere: `--tmp <dir>` places on-disk stores (default
//! `benchmark/out/tmp`).

use std::path::PathBuf;
use std::process::ExitCode;

use nexus_benchmark::suite::{self, SuiteArgs};
use nexus_benchmark::{host, run_workload, spec, Params};

#[derive(Debug, Default)]
struct Args {
    command: Option<String>,
    runs: Option<u64>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u32>,
    trace: bool,
    tmp: Option<PathBuf>,
}

fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = argv.peekable();
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} needs a value"));
        let number = |name: &str, text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{name}: '{text}' is not a whole number"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = Some(number("--seed", value("--seed")?)?),
            "--seconds" => {
                let s = number("--seconds", value("--seconds")?)?;
                args.seconds = Some(
                    u32::try_from(s)
                        .ok()
                        .filter(|s| (1..=3600).contains(s))
                        .ok_or("--seconds must be 1..=3600")?,
                );
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--tmp" => args.tmp = Some(PathBuf::from(value("--tmp")?)),
            "run" | "trace" | "calibrate" | "manifest" if args.command.is_none() => {
                args.command = Some(arg)
            }
            n if args.command.as_deref() == Some("calibrate")
                && args.runs.is_none()
                && n.parse::<u64>().is_ok() =>
            {
                args.runs = n.parse().ok().filter(|r| *r >= 2);
                if args.runs.is_none() {
                    return Err("calibrate needs at least 2 runs".into());
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn main_inner() -> Result<bool, String> {
    let args = parse(std::env::args().skip(1))?;
    let mut extra = Vec::new();
    if let Some(tmp) = &args.tmp {
        extra.extend(["--tmp".to_string(), tmp.display().to_string()]);
    }
    let mut suite_args = SuiteArgs {
        extra,
        ..SuiteArgs::default()
    };
    suite_args.seed = args.seed.unwrap_or(suite_args.seed);
    suite_args.seconds = args.seconds.unwrap_or(suite_args.seconds);
    match args.command.as_deref() {
        Some("manifest") => print!("{}", spec::benchmark_json()),
        Some("run") => suite::run_all(&suite_args, false)?,
        Some("trace") => suite::run_all(&suite_args, true)?,
        Some("calibrate") => suite::calibrate(&suite_args, args.runs.unwrap_or(5))?,
        Some(other) => unreachable!("parse admits no command '{other}'"),
        None => {
            let name = args.workload.ok_or(
                "give --workload <name> or a sub-command (run, trace, calibrate, manifest)",
            )?;
            let workload = spec::workload(&name).ok_or_else(|| {
                let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                format!("no workload '{name}'; there are {}", known.join(", "))
            })?;
            let seed = args.seed.ok_or("--seed is required with --workload")?;
            let mut params = Params::full(seed, f64::from(suite_args.seconds), args.trace);
            if let Some(tmp) = args.tmp {
                params.tmp = tmp;
            }
            let outcome = run_workload(workload, &params)?;
            suite::report(&outcome, seed, args.trace, &params.tmp)?;
            return Ok(outcome.correct);
        }
    }
    Ok(true)
}

fn main() -> ExitCode {
    // Before the program's pool is first used, and before any thread
    // exists: see `host::THREADS`. Child processes inherit it.
    std::env::set_var("NEXUS_THREADS", host::THREADS.to_string());
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("nexus-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
