//! # nexus-bench
//!
//! The benchmark harness regenerating every table and figure of the NEXUS
//! evaluation (paper §VII). One binary per experiment (19):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table_5a` | Table 5a — file I/O latency |
//! | `table_5b` | Table 5b — directory-operation latency |
//! | `fig_5c` | Fig. 5c — git-clone latency |
//! | `table_2` | Table II — LevelDB/SQLite benchmarks |
//! | `fig_6` | Fig. 6 — Linux applications over LFSD/MFMD/SFLD |
//! | `revocation` | §VII-E — revocation estimates vs a pure-crypto FS |
//! | `sharing_costs` | §VII-F — sharing cost accounting |
//! | `concurrency` | §V-A/§VII-F — N clients creating in one shared directory |
//! | `portability` | §IV — the same volume code over AFS and a cloud object store |
//! | `ablation_buckets` | §V-B — dirnode bucket-size sweep |
//! | `ablation_chunks` | §VI-A — chunk-size sweep |
//! | `ablation_rollback` | §VI-C — freshness-manifest cost |
//! | `micro_crypto` | substrate micro-benchmarks (AES-GCM, SHA-256, ed25519, x25519) |
//! | `micro_enclave` | substrate micro-benchmarks (ecall, seal, quote, metadata format) |
//! | `micro_datapath` | `BENCH_datapath.json` — chunk seal/open, fused GCM vs scalar, thread sweep |
//! | `micro_ct` | `BENCH_ct.json` — crypto lanes' throughput and the timing-leak classification |
//! | `micro_logstore` | `BENCH_logstore.json` — log-structured vs per-file durable backend, recovery |
//! | `micro_scale` | `BENCH_scale.json` — 1k/10k/100k clients, wire and fs level, three worlds |
//! | `micro_groups` | `BENCH_groups.json` — group revocation cost across 10²–10⁶ members |
//!
//! The five `BENCH_*.json` emitters run (and are validated) through
//! `scripts/bench.sh`.
//!
//! Every binary prints the measured (simulated-I/O + enclave) numbers next
//! to the values the paper reports; the reproduction targets the *shape*
//! (who wins, by roughly what factor), not the absolute numbers of the
//! authors' 2019 testbed. The `micro_*` binaries use the in-repo [`micro`]
//! timing harness (hermetic build policy: no criterion).

use std::time::{Duration, Instant};

use nexus_workloads::Sample;

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

/// Formats a sample's headline total.
pub fn total(sample: &Sample) -> String {
    secs(sample.total())
}

/// Overhead ratio `nexus / baseline` rendered as the paper's `×N.NN`.
pub fn overhead(nexus: &Sample, baseline: &Sample) -> String {
    let ratio = nexus.total().as_secs_f64() / baseline.total().as_secs_f64().max(1e-12);
    format!("\u{d7}{ratio:.2}")
}

/// Parses `--flag value` style arguments with a default.
pub fn arg_f64(name: &str, default: f64) -> f64 {
    arg_value(name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parses an integer argument with a default.
pub fn arg_usize(name: &str, default: usize) -> usize {
    arg_value(name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// True when `--flag` is present.
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// The raw value following `--flag`, if present.
pub fn arg_string(name: &str) -> Option<String> {
    arg_value(name)
}

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
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
        /// A finite number, rendered with up to 6 significant decimals.
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
                    if !n.is_finite() {
                        out.push_str("null");
                    } else if n.fract() == 0.0 && n.abs() < 1e15 {
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
            t.elapsed() / iters as u32
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
            let mibps = n as f64 / per_iter.as_secs_f64().max(1e-12) / (1024.0 * 1024.0);
            println!("{name:<32} {:>12}   {mibps:>10.1} MiB/s", nanos(per_iter));
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

/// Prints the standard experiment header.
pub fn header(title: &str, detail: &str) {
    rule(78);
    println!("{title}");
    println!("{detail}");
    println!(
        "methodology: latency = simulated network I/O (virtual clock, LAN-calibrated)\n\
         + measured enclave compute; see EXPERIMENTS.md"
    );
    rule(78);
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
        assert_eq!(overhead(&a, &b), "\u{d7}2.00");
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
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
        assert_eq!(Json::Arr(vec![]).render(), "[]\n");
        assert_eq!(Json::obj().render(), "{}\n");
    }
}
