//! # nexus-bench
//!
//! One binary, `nexus-bench <cmd> [--smoke]`, regenerating every table and
//! figure of the NEXUS evaluation (paper §VII) and the five `BENCH_*.json`
//! documents. [`COMMANDS`] declares the eighteen commands beside `paper`;
//! run the binary with no argument for the list (a test holds the usage
//! text and README's list to that table).
//!
//! The first eleven are the paper-facing ones; `paper` runs them all. Each
//! returns the rows of a typed [`table::Table`] — simulated-I/O and
//! measured-enclave cells next to the paper's figure — after asserting the
//! shape the paper claims (who wins, by roughly what factor; never the
//! absolute numbers of the authors' 2019 testbed), and one renderer prints
//! them all. `paper` writes those same tables into the marked blocks of
//! EXPERIMENTS.md, so no §VII number is typed by hand or checked in twice.
//!
//! The five `BENCH_*.json` emitters are [`Report`]s: measured, then gated
//! against their floors, and only then rendered, printed and written —
//! `BENCH_<x>.json` at the repository root in a full run,
//! `target/BENCH_<x>.smoke.json` under `--smoke`. `scripts/bench.sh` is a
//! loop over their names. The `micro_*` commands time with the in-repo
//! [`measure_micro`] harness (hermetic build policy: no criterion).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use json::Json;
use nexus_workloads::Sample;
use table::{Row, Table};

mod ct;
mod datapath;
mod groups;
mod logstore;
mod micro;
mod paper;
mod scale;
pub mod table;

/// What a command is, which decides what the dispatcher does with it.
pub enum Run {
    /// A paper-facing table: its column list (the paper's figure last,
    /// where the paper gives one) and the function that measures its rows
    /// and asserts their shape. `--smoke` drops the rows that dominate the
    /// run time.
    Paper(&'static [&'static str], fn(bool) -> Vec<Row>),
    /// A `BENCH_<x>.json` emitter, `<x>` being the command name less its
    /// `micro_` prefix: the document of a [`Report`] that cleared its gate.
    Emit(fn(bool) -> Json),
    /// Prints its own rows; has no smoke size.
    Micro(fn()),
}

/// Every command but `paper`: name, the artefact it regenerates, what runs.
pub const COMMANDS: &[(&str, &str, Run)] = &[
    ("table_5a", "Table 5a — file I/O latency", paper::TABLE_5A),
    ("table_5b", "Table 5b — directory-operation latency", paper::TABLE_5B),
    ("fig_5c", "Fig. 5c — git-clone latency", paper::FIG_5C),
    ("table_2", "Table II — LevelDB/SQLite benchmarks", paper::TABLE_2),
    ("fig_6", "Fig. 6 — Linux applications over LFSD/MFMD/SFLD", paper::FIG_6),
    ("revocation", "§VII-E — revocation estimates vs a pure-crypto FS", paper::REVOCATION),
    ("sharing_costs", "§VII-F — sharing cost accounting", paper::SHARING_COSTS),
    (
        "portability",
        "§IV — the same volume code over AFS and a cloud object store",
        paper::PORTABILITY,
    ),
    (
        "concurrency",
        "§V-A/§VII-F — N clients creating in one shared directory",
        paper::CONCURRENCY,
    ),
    ("ablation_buckets", "§V-B — dirnode bucket-size sweep", paper::ABLATION_BUCKETS),
    ("ablation_chunks", "§VI-A — chunk-size sweep", paper::ABLATION_CHUNKS),
    (
        "micro_crypto",
        "substrate micro-benchmarks (AES-GCM, SHA-256, ed25519, x25519)",
        Run::Micro(micro::crypto),
    ),
    (
        "micro_enclave",
        "substrate micro-benchmarks (ecall, seal, quote, metadata format)",
        Run::Micro(micro::enclave),
    ),
    (
        "micro_datapath",
        "`BENCH_datapath.json` — chunk seal/open, fused GCM, thread sweep",
        Run::Emit(emit::<datapath::Datapath>),
    ),
    (
        "micro_ct",
        "`BENCH_ct.json` — crypto lanes' throughput and the timing-leak classification",
        Run::Emit(emit::<ct::Ct>),
    ),
    (
        "micro_logstore",
        "`BENCH_logstore.json` — log-structured vs per-file durable backend, recovery",
        Run::Emit(emit::<logstore::Logstore>),
    ),
    (
        "micro_scale",
        "`BENCH_scale.json` — 1k/10k/100k mounted fs clients as futures on one thread",
        Run::Emit(emit::<scale::Scale>),
    ),
    (
        "micro_groups",
        "`BENCH_groups.json` — group revocation cost across 10²–10⁶ members",
        Run::Emit(emit::<groups::Groups>),
    ),
];

/// What `paper` is, for the usage text.
pub const PAPER: &str =
    "the eleven paper-facing commands in one run, EXPERIMENTS.md's tables rewritten from them";

/// A `BENCH_<x>.json` emitter: a typed report of one run, the floors it
/// must clear, and the document it becomes. The document is built from the
/// report, so a key the gate reads cannot be missing from it.
pub(crate) trait Report: Sized {
    /// Runs the benchmark.
    fn measure(smoke: bool) -> Self;
    /// Panics at the first floor the report misses. Correctness floors hold
    /// at both sizes; performance floors in full runs only (smoke sizes on
    /// a loaded CI host are too noisy for them).
    fn gate(&self);
    /// The machine-readable document.
    fn json(&self) -> Json;
}

fn emit<R: Report>(smoke: bool) -> Json {
    let report = R::measure(smoke);
    report.gate();
    report.json()
}

/// The repository root: where `BENCH_*.json` and EXPERIMENTS.md live.
pub fn repo_root() -> PathBuf {
    let bench = Path::new(env!("CARGO_MANIFEST_DIR"));
    bench.ancestors().nth(2).expect("crates/bench sits two levels under the root").to_path_buf()
}

/// The usage text: every command and the artefact it regenerates.
pub fn usage() -> String {
    let mut text = String::from("usage: nexus-bench <command> [--smoke]\n\ncommands:\n");
    for (name, artefact) in COMMANDS.iter().map(|c| (c.0, c.1)).chain([("paper", PAPER)]) {
        text.push_str(&format!("  {name:<18} {artefact}\n"));
    }
    text.push_str(
        "\n--smoke runs reduced sizes: the JSON emitters write target/BENCH_<x>.smoke.json\n\
         instead of ./BENCH_<x>.json, table_5b drops its 8192-file row, fig_5c its nodejs\n\
         tree, and `paper` leaves EXPERIMENTS.md as it is.\n",
    );
    text
}

/// Runs `nexus-bench` on its arguments (the program name already dropped).
/// Anything but `<command>` or `<command> --smoke` gets the usage text and
/// a failing exit code; a failed gate panics.
pub fn run(args: &[String]) -> ExitCode {
    let (command, smoke) = match args {
        [command] => (command.as_str(), false),
        [command, flag] if flag == "--smoke" => (command.as_str(), true),
        _ => ("", false),
    };
    if command == "paper" {
        paper::record(smoke);
        return ExitCode::SUCCESS;
    }
    let Some((name, artefact, run)) = COMMANDS.iter().find(|c| c.0 == command) else {
        eprint!("{}", usage());
        return ExitCode::from(2);
    };
    match run {
        Run::Paper(columns, rows) => drop(print_table(name, artefact, columns, *rows, smoke)),
        Run::Micro(print_rows) => {
            header(name, artefact);
            print_rows();
        }
        Run::Emit(document) => {
            header(name, artefact);
            let stem = name.strip_prefix("micro_").expect("emitters are the micro_<x> commands");
            let path = repo_root().join(if smoke {
                format!("target/BENCH_{stem}.smoke.json")
            } else {
                format!("BENCH_{stem}.json")
            });
            let text = document(smoke).render();
            print!("{text}");
            std::fs::create_dir_all(path.parent().expect("a file under the root"))
                .and_then(|()| std::fs::write(&path, text))
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            println!("wrote {}", path.display());
        }
    }
    ExitCode::SUCCESS
}

/// Prints a command's header: a throughput or an enclave time is never
/// read without the kernels that produced it.
fn header(name: &str, artefact: &str) {
    rule(78);
    println!("{name} — {artefact}");
    println!("crypto lanes: {}", nexus_crypto::cpu::describe());
    rule(78);
}

/// Runs a paper-facing command, prints its table and returns it rendered.
pub(crate) fn print_table(
    name: &str,
    artefact: &str,
    columns: &'static [&'static str],
    rows: fn(bool) -> Vec<Row>,
    smoke: bool,
) -> String {
    header(name, artefact);
    println!(
        "latency = simulated network I/O (virtual clock, LAN-calibrated) + measured\n\
         enclave compute; see EXPERIMENTS.md"
    );
    let table = Table { columns, rows: rows(smoke) }.render();
    print!("{table}");
    table
}

/// Formats a duration in seconds with sensible precision.
pub fn secs(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}ms", s * 1e3)
    }
}

/// Payload throughput in MiB/s.
fn mibps(bytes: usize, d: Duration) -> f64 {
    bytes as f64 / d.as_secs_f64().max(1e-12) / (1024.0 * 1024.0)
}

/// Overhead ratio `nexus / baseline` on the headline totals.
pub fn overhead(nexus: &Sample, baseline: &Sample) -> f64 {
    nexus.total().as_secs_f64() / baseline.total().as_secs_f64().max(1e-12)
}

/// Minimal JSON document builder for machine-readable bench output
/// (`BENCH_*.json`). Hermetic-policy replacement for `serde_json`: only
/// what the emitters need — objects, arrays, strings, numbers, booleans —
/// with deterministic field order (insertion order).
pub mod json {
    /// A JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// A string (escaped on render).
        Str(String),
        /// A finite number, rendered with up to 6 decimals; rendering a
        /// non-finite one panics.
        Num(f64),
        /// An integer, rendered exactly.
        Int(i64),
        /// A boolean.
        Bool(bool),
        /// An ordered list.
        Arr(Vec<Json>),
        /// An object with insertion-ordered keys.
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        /// An empty object.
        pub fn obj() -> Json {
            Json::Obj(Vec::new())
        }

        /// Adds (or replaces) a field; builder-style.
        pub fn field(mut self, key: &str, value: Json) -> Json {
            match &mut self {
                Json::Obj(fields) => {
                    if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
                        slot.1 = value;
                    } else {
                        fields.push((key.to_string(), value));
                    }
                }
                _ => panic!("field() on non-object"),
            }
            self
        }

        /// An array of numbers.
        pub fn nums(values: impl IntoIterator<Item = f64>) -> Json {
            Json::Arr(values.into_iter().map(Json::Num).collect())
        }

        /// An array of integers.
        pub fn ints(values: impl IntoIterator<Item = i64>) -> Json {
            Json::Arr(values.into_iter().map(Json::Int).collect())
        }

        /// Renders with 2-space indentation and a trailing newline.
        pub fn render(&self) -> String {
            let mut out = String::new();
            self.write(&mut out, 0);
            out.push('\n');
            out
        }

        fn write(&self, out: &mut String, indent: usize) {
            match self {
                Json::Str(s) => {
                    out.push('"');
                    for c in s.chars() {
                        match c {
                            '"' => out.push_str("\\\""),
                            '\\' => out.push_str("\\\\"),
                            '\n' => out.push_str("\\n"),
                            '\t' => out.push_str("\\t"),
                            c if (c as u32) < 0x20 => {
                                out.push_str(&format!("\\u{:04x}", c as u32));
                            }
                            c => out.push(c),
                        }
                    }
                    out.push('"');
                }
                Json::Num(n) => {
                    // A NaN or infinite measurement is a broken emitter,
                    // not a value to publish as `null`.
                    assert!(n.is_finite(), "non-finite number in a bench document: {n}");
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        out.push_str(&format!("{}", *n as i64));
                    } else {
                        let s = format!("{n:.6}");
                        out.push_str(s.trim_end_matches('0').trim_end_matches('.'));
                    }
                }
                Json::Int(n) => out.push_str(&n.to_string()),
                Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Json::Arr(items) => {
                    if items.is_empty() {
                        out.push_str("[]");
                        return;
                    }
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push(' ');
                        item.write(out, indent);
                    }
                    out.push_str(" ]");
                }
                Json::Obj(fields) => {
                    if fields.is_empty() {
                        out.push_str("{}");
                        return;
                    }
                    out.push_str("{\n");
                    let pad = "  ".repeat(indent + 1);
                    for (i, (key, value)) in fields.iter().enumerate() {
                        out.push_str(&pad);
                        Json::Str(key.clone()).write(out, indent + 1);
                        out.push_str(": ");
                        value.write(out, indent + 1);
                        if i + 1 < fields.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    out.push_str(&"  ".repeat(indent));
                    out.push('}');
                }
            }
        }
    }
}

/// Measures one operation: calibrates a batch size so each sample runs
/// for at least ~5 ms, takes five batched samples, and returns the median
/// per-iteration time. Deterministic-enough for the tables we print; this
/// intentionally trades criterion's statistics for a zero-dependency
/// harness.
pub fn measure_micro<R>(mut f: impl FnMut() -> R) -> Duration {
    let mut iters: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let elapsed = t.elapsed();
        if elapsed >= Duration::from_millis(5) || iters >= 1 << 22 {
            break;
        }
        iters = if elapsed < Duration::from_micros(50) { iters * 8 } else { iters * 2 };
    }
    let mut samples: Vec<Duration> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            // Rounded to the nearest nanosecond, never below one: an
            // operation faster than that still took time.
            let ns = (t.elapsed().as_nanos() + u128::from(iters) / 2) / u128::from(iters);
            Duration::from_nanos(ns.max(1) as u64)
        })
        .collect();
    samples.sort();
    samples[2]
}

/// Runs [`measure_micro`] and prints one aligned table row; when `bytes`
/// is given, a MiB/s throughput column is appended.
pub fn micro<R>(name: &str, bytes: Option<u64>, f: impl FnMut() -> R) {
    let per_iter = measure_micro(f);
    match bytes {
        Some(n) => {
            println!("{name:<32} {:>12}   {:>10.1} MiB/s", nanos(per_iter), mibps(n as usize, per_iter));
        }
        None => println!("{name:<32} {:>12}", nanos(per_iter)),
    }
}

/// Formats a per-iteration duration at ns/µs/ms precision.
pub fn nanos(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} \u{b5}s", ns as f64 / 1e3)
    } else {
        format!("{:.2} ms", ns as f64 / 1e6)
    }
}

/// Prints a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_formats_ranges() {
        assert_eq!(secs(Duration::from_millis(5)), "5.0ms");
        assert_eq!(secs(Duration::from_secs_f64(2.346)), "2.35s");
        assert_eq!(secs(Duration::from_secs(150)), "150s");
    }

    #[test]
    fn nanos_formats_ranges() {
        assert_eq!(nanos(Duration::from_nanos(512)), "512 ns");
        assert_eq!(nanos(Duration::from_nanos(2_500)), "2.50 \u{b5}s");
        assert_eq!(nanos(Duration::from_micros(3_141)), "3.14 ms");
    }

    #[test]
    fn measure_micro_returns_positive_time() {
        let d = measure_micro(|| std::hint::black_box(1u64 + 1));
        assert!(d > Duration::ZERO);
    }

    #[test]
    fn overhead_ratio() {
        let a = Sample { sim_io: Duration::from_secs(2), ..Default::default() };
        let b = Sample { sim_io: Duration::from_secs(1), ..Default::default() };
        assert_eq!(table::Cell::Ratio(overhead(&a, &b)).to_string(), "\u{d7}2.00");
    }

    #[test]
    fn json_renders_nested_documents() {
        use super::json::Json;
        let doc = Json::obj()
            .field("name", Json::Str("datapath".into()))
            .field("threads", Json::ints([1, 2, 4]))
            .field("speedup", Json::nums([1.0, 1.96, 3.5]))
            .field("modeled", Json::Bool(false))
            .field("nested", Json::obj().field("x", Json::Int(-3)));
        let text = doc.render();
        assert!(text.contains("\"name\": \"datapath\""), "{text}");
        assert!(text.contains("[ 1, 2, 4 ]"), "{text}");
        assert!(text.contains("3.5"), "{text}");
        assert!(text.contains("\"x\": -3"), "{text}");
        assert!(text.ends_with("}\n"), "{text}");
    }

    #[test]
    fn json_escapes_strings_and_replaces_field() {
        use super::json::Json;
        let doc = Json::obj()
            .field("s", Json::Str("a\"b\\c\nd".into()))
            .field("s", Json::Str("replaced".into()));
        let text = doc.render();
        assert!(text.contains("\"s\": \"replaced\""), "{text}");
        assert_eq!(text.matches("\"s\"").count(), 1);
        assert_eq!(Json::Str("a\"b\\c\nd".into()).render(), "\"a\\\"b\\\\c\\nd\"\n");
    }

    #[test]
    fn json_number_formatting() {
        use super::json::Json;
        assert_eq!(Json::Num(2.0).render(), "2\n");
        assert_eq!(Json::Num(0.5).render(), "0.5\n");
        assert_eq!(Json::Arr(vec![]).render(), "[]\n");
        assert_eq!(Json::obj().render(), "{}\n");
    }

    #[test]
    #[should_panic(expected = "non-finite number")]
    fn json_refuses_a_non_finite_number() {
        json::Json::obj().field("mibps", json::Json::Num(1.0 / 0.0)).render();
    }

    fn read(path: &str) -> String {
        std::fs::read_to_string(repo_root().join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// The usage text and README's list come from or are held to [`COMMANDS`].
    #[test]
    fn docs_list_exactly_the_commands() {
        let listed: Vec<(&str, &str)> =
            COMMANDS.iter().map(|c| (c.0, c.1)).chain([("paper", PAPER)]).collect();
        assert_eq!(listed.len(), 19);
        let (readme, usage) = (read("README.md"), usage());
        for (name, artefact) in &listed {
            assert!(readme.contains(&format!("nexus-bench -- {name} ")), "README: {name}");
            assert!(usage.contains(&format!("  {name:<18} {artefact}\n")), "usage: {name}");
        }
        let run_lines = readme.lines().filter(|l| l.starts_with("cargo run --release -p nexus-bench -- "));
        assert_eq!(run_lines.count(), listed.len(), "README runs a command that does not exist");
    }

    #[test]
    fn anything_but_a_command_and_smoke_gets_the_usage() {
        let run = |args: &[&str]| run(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        let usage_error = std::process::ExitCode::from(2);
        for args in [
            &[][..],
            &["table_9"],
            &["--smoke"],
            &["table_5b", "--mx", "10"],
            &["table_5b", "--smoke=1"],
            &["table_5b", "--smoke", "--smoke"],
        ] {
            assert_eq!(format!("{:?}", run(args)), format!("{usage_error:?}"), "{args:?}");
        }
    }

    /// EXPERIMENTS.md's generated blocks and the paper-facing commands are
    /// one to one, each block under its command's column list.
    #[test]
    fn experiments_blocks_match_the_paper_commands() {
        let document = read("EXPERIMENTS.md");
        let paper: Vec<(&str, &[&str])> = COMMANDS
            .iter()
            .filter_map(|(name, _, run)| match run {
                Run::Paper(columns, _) => Some((*name, *columns)),
                _ => None,
            })
            .collect();
        assert_eq!(paper.len(), 11);
        // Panics on a block that names no command and a command with no block.
        let empty: Vec<(&str, String)> = paper.iter().map(|(n, _)| (*n, String::new())).collect();
        table::splice(&document, &empty);
        let mut lines = document.lines();
        while let Some(line) = lines.next() {
            let Some(name) = table::block_name(line) else { continue };
            let columns = paper.iter().find(|(n, _)| *n == name).expect("spliced above").1;
            let header = table::cells_of(lines.next().expect("a header row"));
            assert_eq!(header, columns, "EXPERIMENTS.md block `{name}` has another command's columns");
        }
    }

    /// What a doctored field amounts to, and the edit that makes it so.
    type Doctored<R> = (&'static str, fn(&mut R));

    /// Measures a smoke report, which must pass its gate, and holds the
    /// gate to refusing it once any one field is doctored.
    /// Returns the passing report.
    fn negative_controls<R: Report + Clone>(emitter: &str, doctored: &[Doctored<R>]) -> R {
        let good = R::measure(true);
        good.gate();
        for (what, doctor) in doctored {
            let mut bad = good.clone();
            doctor(&mut bad);
            let refused =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| bad.gate())).is_err();
            assert!(refused, "{emitter}: the gate accepted {what}");
        }
        good
    }

    /// Dresses a smoke scale report as a full run: the full ladder.
    fn as_full_scale_run(r: &mut scale::Scale) {
        r.smoke = false;
        let third = r.fs.cells[1].clone();
        r.fs.cells.push(third);
        for (cell, clients) in r.fs.cells.iter_mut().zip([1000, 10_000, 100_000]) {
            cell.clients = clients;
        }
    }

    #[test]
    fn doctored_reports_fail_their_gates() {
        negative_controls::<datapath::Datapath>(
            "micro_datapath",
            &[
                ("parallel_output_identical_to_serial = false", |r| {
                    r.parallel_output_identical_to_serial = false
                }),
                ("a gcm_kernel that is not cpu::describe()'s line", |r| r.gcm_kernel = "fast".into()),
                ("a full run whose chunk path seals at half the streamed kernel's rate", |r| {
                    r.smoke = false;
                    for round in &mut r.rounds {
                        round.chunk_seal = round.stream_seal * 2;
                    }
                }),
            ],
        );
        negative_controls::<ct::Ct>(
            "micro_ct",
            &[
                ("table_flagged = false", |r| r.table_flagged = false),
                ("a lane without throughput", |r| r.constant_time.gcm_open_mibps = 0.0),
                ("a hardware lane without throughput", |r| match &mut r.hw_accel {
                    Some(hw) => hw.gcm_seal_mibps = 0.0,
                    None => r.constant_time.keywrap_ops_per_s = 0.0,
                }),
            ],
        );
        negative_controls::<logstore::Logstore>(
            "micro_logstore",
            &[
                ("recovered_state_identical = false", |r| r.recovered_state_identical = false),
                ("sweep arrays of different lengths", |r| {
                    r.replay_ms.pop();
                }),
                ("a backend without put throughput", |r| r.dir.put_ops_per_s = 0.0),
                ("a full run whose checkpointed recovery is slower", |r| {
                    r.smoke = false;
                    r.log.put_ops_per_s = r.dir.put_ops_per_s * 2.0;
                    r.checkpointed_ms = r.replay_ms.iter().map(|ms| ms + 1.0).collect();
                }),
            ],
        );
        let scale = negative_controls::<scale::Scale>(
            "micro_scale",
            &[
                ("fs_worlds_identical = false", |r| r.fs.worlds_identical = false),
                ("quantiles out of order", |r| {
                    let h = &mut r.fs.cells[1].latency;
                    h.p50_us = h.p99_us + 1.0;
                }),
                ("a full run that does not ladder 1k/10k/100k", |r| {
                    as_full_scale_run(r);
                    r.fs.cells.pop();
                }),
            ],
        );
        // The full-run control fails for what it doctors: the same report
        // with the whole ladder passes.
        let mut full = scale;
        as_full_scale_run(&mut full);
        full.gate();
        negative_controls::<groups::Groups>(
            "micro_groups",
            &[
                ("revoke_deletes = 1", |r| r.cells[0].revoke_deletes = 1),
                ("revoke_bytes_written != supernode_bytes", |r| r.cells[1].revoke_bytes_written += 1),
                ("epoch_after = 2", |r| r.cells[0].epoch_after = 2),
                ("key_count_after = 1", |r| r.cells[1].key_count_after = 1),
                ("a write count that grows with the group", |r| r.cells[1].revoke_writes += 1),
                ("a full run without the 10^6 cell", |r| r.smoke = false),
            ],
        );
    }
}
