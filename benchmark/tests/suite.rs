//! Whole-run tests at smoke size: same seed, same inputs and same counts;
//! the API surface the benchmark may touch; the hermetic dependency graph.

use std::path::{Path, PathBuf};
use std::time::Duration;

use nexus_benchmark::spec::{smoke, workload};
use nexus_benchmark::{run_workload, Outcome, Params};

fn params(test: &str, seed: u64) -> Params {
    Params {
        seed,
        seconds: 0.0,
        min_rounds: 4,
        trace: true,
        // One directory per test: tests run in parallel in one process.
        tmp: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test),
        probe: Duration::from_millis(1),
    }
}

fn run(name: &str, seed: u64) -> Outcome {
    let w = smoke(workload(name).expect("a declared workload"));
    let outcome = run_workload(&w, &params(name, seed)).expect("the run completes");
    assert!(
        outcome.correct,
        "{name}: {} of {} ops failed",
        outcome.failed, outcome.attempted
    );
    outcome
}

/// The counts that must repeat exactly for one seed.
const EXACT: [&str; 5] = [
    "storage_calls_per_op",
    "write_amp",
    "sgx.ecalls_per_op",
    "sim_ops_per_s",
    "sim_op_p99_us",
];

fn same_seed_same_inputs_and_counts(name: &str) {
    let (a, b, other) = (run(name, 11), run(name, 11), run(name, 12));
    assert_eq!(
        a.inputs_digest, b.inputs_digest,
        "{name}: one seed, two op lists"
    );
    assert_ne!(
        a.inputs_digest, other.inputs_digest,
        "{name}: two seeds, one op list"
    );
    assert_eq!(a.attempted, b.attempted);
    for metric in EXACT {
        let (x, y) = (a.value(metric), b.value(metric));
        assert!(x.is_some(), "{name}: {metric} is not reported");
        assert_eq!(
            x.map(f64::to_bits),
            y.map(f64::to_bits),
            "{name}: {metric} differs between two runs of one seed"
        );
    }
    // The ledger's three self times are the op time, by construction.
    let parts = [
        "core.volume.self_us_per_op",
        "core.enclave.self_us_per_op",
        "storage.self_us_per_op",
    ];
    let sum: f64 = parts
        .iter()
        .map(|p| a.value(p).expect("a ledger line"))
        .sum();
    let op = a.value("trace.op_us_per_op").expect("the op time");
    assert!(
        op > 0.0 && (sum - op).abs() <= op * 0.01,
        "{name}: layers sum to {sum}, ops to {op}"
    );
    assert_eq!(
        a.value("trace.unattributed_spans"),
        Some(0.0),
        "{name}: a storage call had no parent op"
    );
    // Every end-to-end metric is a real, non-zero reading.
    for (metric, value, _) in &a.end_to_end {
        assert!(
            value.is_finite() && *value > 0.0,
            "{name}: {metric} = {value}"
        );
    }
}

#[test]
fn bulk_mem_repeats() {
    same_seed_same_inputs_and_counts("bulk_mem");
}

#[test]
fn meta_tree_mem_repeats() {
    same_seed_same_inputs_and_counts("meta_tree_mem");
}

#[test]
fn meta_flat_mem_repeats() {
    same_seed_same_inputs_and_counts("meta_flat_mem");
}

#[test]
fn durable_log_repeats_and_cleans_up() {
    same_seed_same_inputs_and_counts("durable_log");
    let tmp = params("durable_log", 0).tmp;
    let left: Vec<_> = std::fs::read_dir(&tmp)
        .map(|d| d.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    assert!(left.is_empty(), "temp directories left behind: {left:?}");
}

#[test]
fn multiclient_afs_repeats() {
    same_seed_same_inputs_and_counts("multiclient_afs");
}

fn sources() -> Vec<(PathBuf, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut out: Vec<(PathBuf, String)> = std::fs::read_dir(&dir)
        .expect("benchmark/src")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("a readable source file");
            (p, text)
        })
        .collect();
    out.sort();
    assert!(
        out.len() >= 10,
        "found only {} sources under {}",
        out.len(),
        dir.display()
    );
    out
}

/// Later changes may delete these; the benchmark, which they may not
/// edit, must not be what breaks.
#[test]
fn sources_use_only_the_narrow_api_surface() {
    const IDENTIFIERS: [&str; 10] = [
        "CryptoProfile",
        "CryptoBackend",
        "with_profile",
        "with_backend",
        "seal_object_with",
        "open_object_with",
        "loadgen",
        "ConcurrentRig",
        "nexus_bench",
        "nexus_workloads",
    ];
    const PHRASES: [&str; 4] = [
        "NexusConfig {",
        "NexusConfig{",
        "CryptoCost::paper_calibrated",
        "loadgen_fs",
    ];
    for (path, text) in sources() {
        for word in text.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
            assert!(
                !IDENTIFIERS.contains(&word),
                "{} uses `{word}`",
                path.display()
            );
        }
        let squeezed = text.split_whitespace().collect::<Vec<_>>().join(" ");
        for phrase in PHRASES {
            assert!(
                !squeezed.contains(phrase),
                "{} contains `{phrase}`",
                path.display()
            );
        }
    }
}

/// The seed makes inputs; nothing else may see it.
#[test]
fn the_seed_only_feeds_the_input_generator() {
    for (path, text) in sources() {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if !name.ends_with("_driver.rs") {
            continue;
        }
        for line in text
            .lines()
            .filter(|l| l.contains("seed") && !l.trim_start().starts_with("//"))
        {
            let generator = line.contains("Rng::new(p.seed,");
            let platform = line.contains("seeded") || line.contains("from_seed");
            assert!(
                generator || (platform && !line.contains("p.seed")),
                "{name}: the seed escapes in `{}`",
                line.trim()
            );
        }
    }
}

#[test]
fn the_lock_file_names_only_nexus_crates() {
    let lock = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.lock"))
        .expect("Cargo.lock");
    let names: Vec<&str> = lock
        .lines()
        .filter_map(|l| l.strip_prefix("name = \""))
        .map(|l| l.trim_end_matches('"'))
        .collect();
    assert!(names.len() >= 7, "{names:?}");
    assert!(names.iter().all(|n| n.starts_with("nexus-")), "{names:?}");
    assert!(
        !lock.contains("source = "),
        "a registry or git dependency slipped in"
    );
}
