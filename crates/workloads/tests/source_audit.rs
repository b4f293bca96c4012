//! Source-reading audit of the scale harness (DESIGN.md §14), one of the
//! gate suites `tests/repo_audit.rs` requires to exist.
//!
//! The scale story is "simulated clients are futures, not OS threads". A
//! thread spawned per client somewhere on the load path would pass every
//! functional test and every differential gate — the worlds agree on
//! purpose — and only show as a host that falls over at 100k clients. It
//! is a property of the source text, so the gate reads the source.

use std::path::Path;

/// The one function that may burn a thread per client: `World::Threads`.
const THREAD_WORLD: &str = "fn thread_per_client";

#[test]
fn only_the_thread_world_spawns_threads() {
    const LOAD_PATH: [&str; 3] = [
        "workloads/src/loadgen.rs",
        "core/src/async_fs.rs",
        "bench/src/scale.rs",
    ];
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("crates/");
    let mut exempted = 0;
    for file in LOAD_PATH {
        // A deleted file must fail here, not silently shrink the audit.
        let text = std::fs::read_to_string(crates.join(file))
            .unwrap_or_else(|e| panic!("load-path source {file}: {e}"));
        // Only code before `#[cfg(test)]` is policed, and comments are not
        // code. A top-level item ends at the first `}` in column 0.
        let mut in_thread_world = false;
        for (idx, line) in text.lines().take_while(|l| !l.starts_with("#[cfg(test)]")).enumerate()
        {
            if line.starts_with(THREAD_WORLD) {
                in_thread_world = true;
                exempted += 1;
            } else if line == "}" {
                in_thread_world = false;
            }
            let code = !line.trim_start().starts_with("//");
            let threaded = line.contains("thread::") || line.contains("ThreadPool");
            assert!(
                !(code && threaded) || in_thread_world,
                "{file}:{}: OS threads outside `{THREAD_WORLD}`: {}",
                idx + 1,
                line.trim()
            );
        }
    }
    assert_eq!(exempted, 1, "`{THREAD_WORLD}` must exist exactly once on the load path");
}
