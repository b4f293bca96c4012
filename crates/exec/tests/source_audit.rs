//! Source-reading audit of the executor, one of the gate suites
//! `tests/repo_audit.rs` requires to exist.
//!
//! Every task is polled on the thread that calls `run_until_idle`: that is
//! what makes a multi-client run replay bit for bit from its seed. A helper
//! thread slipped back into the executor would pass every functional test
//! on a lucky schedule, so the gate reads the source.

use std::path::Path;

#[test]
fn the_executor_spawns_no_thread() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = 0;
    for entry in std::fs::read_dir(&src).expect("crates/exec/src") {
        let path = entry.expect("directory entry").path();
        let text = std::fs::read_to_string(&path).expect("source file");
        files += 1;
        // Only code before `#[cfg(test)]` is policed, and comments are not
        // code.
        for (idx, line) in text.lines().take_while(|l| !l.starts_with("#[cfg(test)]")).enumerate()
        {
            let code = line.split("//").next().unwrap_or("");
            assert!(
                !code.contains("thread::") && !code.contains("Condvar"),
                "{}:{}: the executor runs on its caller's thread alone: {}",
                path.display(),
                idx + 1,
                line.trim()
            );
        }
    }
    assert!(files > 0, "no source under {}", src.display());
}
