//! Audits of the repository itself rather than of any crate: the hermetic
//! dependency graph, and the gate suites `scripts/verify.sh` counts on.
//! Both are properties of checked-in files, so the gate reads the files.

use std::path::Path;

fn read(path: &str) -> String {
    std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(path))
        .unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Hermetic build policy (DESIGN.md §7): every package either workspace
/// resolves — the root one and `benchmark/`'s own — is a `nexus` crate. A
/// registry dependency fails offline resolution by itself; a vendored or
/// path third-party crate would not, and fails here.
#[test]
fn dependency_graph_is_workspace_crates_only() {
    for lock in ["Cargo.lock", "benchmark/Cargo.lock"] {
        let text = read(lock);
        let names: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"'))
            .collect();
        assert!(names.len() > 1, "{lock}: no packages");
        for name in &names {
            assert!(
                *name == "nexus" || name.starts_with("nexus-"),
                "{lock}: `{name}` is not a workspace crate; replace it with an in-repo shim"
            );
        }
        // The data path is only parallel if the pool crate is in the graph;
        // a refactor that drops it reverts to serial chunk crypto without
        // failing any functional test.
        assert!(names.contains(&"nexus-pool"), "{lock}: nexus-pool missing");
    }
    assert!(
        read("crates/core/Cargo.toml").lines().any(|l| l.starts_with("nexus-pool")),
        "nexus-core no longer depends on nexus-pool: the parallel data path is unwired"
    );
}

/// `cargo test` runs whatever test targets exist, so deleting one of these
/// would shrink the gate silently: the docs audit, the crash-recovery fault
/// sweep and reopen semantics of both durable backends, the timing-leak
/// harness and kernel differential, the source audits, the executor smoke,
/// the async crypto-fs differential, epoch-key revocation and its
/// leaky-path regressions, exact RPC sequences, the race sweep over their
/// call gaps, the one-lock-path audit and golden stored bytes.
#[test]
fn gate_suites_exist() {
    const SUITES: [(&str, &[&str]); 7] = [
        (".", &["docs_audit"]),
        ("crates/storage", &["crash_recovery", "reopen", "batch_differential", "source_audit"]),
        ("crates/crypto", &["source_audit", "kernel_differential", "properties"]),
        ("crates/testkit", &["timing_leak"]),
        ("crates/exec", &["executor_smoke", "begin_at_zero_delay", "source_audit"]),
        ("crates/workloads", &["source_audit", "exec_differential", "exec_fs_differential"]),
        (
            "crates/core",
            &[
                "groups_differential",
                "revocation_paths",
                "end_to_end",
                "golden_inventory",
                "properties",
                "rpc_budget",
                "create_gaps",
                "source_audit",
            ],
        ),
    ];
    for (package, suites) in SUITES {
        for suite in suites {
            let text = read(&format!("{package}/tests/{suite}.rs"));
            assert!(text.contains("#[test]"), "{package}/tests/{suite}.rs holds no test");
        }
    }
}
