//! Source-reading audit of the scale harness (DESIGN.md §14), one of the
//! gate suites `tests/repo_audit.rs` requires to exist.
//!
//! The scale story is "simulated clients are futures, not OS threads". A
//! thread spawned per client somewhere on the load path would pass every
//! functional test and every differential gate — the worlds agree on
//! purpose — and only show as a host that falls over at 100k clients. It
//! is a property of the source text, so the gate reads the source.

use std::path::Path;

#[test]
fn the_load_path_spawns_no_thread() {
    const LOAD_PATH: [&str; 3] = [
        "workloads/src/loadgen.rs",
        "core/src/async_fs.rs",
        "bench/src/scale.rs",
    ];
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("crates/");
    for file in LOAD_PATH {
        // A deleted file must fail here, not silently shrink the audit.
        let text = std::fs::read_to_string(crates.join(file))
            .unwrap_or_else(|e| panic!("load-path source {file}: {e}"));
        // Only code before `#[cfg(test)]` is policed, and comments are not
        // code.
        for (idx, line) in text.lines().take_while(|l| !l.starts_with("#[cfg(test)]")).enumerate()
        {
            let code = !line.trim_start().starts_with("//");
            let threaded = line.contains("thread::") || line.contains("ThreadPool");
            assert!(
                !(code && threaded),
                "{file}:{}: OS threads on the load path: {}",
                idx + 1,
                line.trim()
            );
        }
    }
}
