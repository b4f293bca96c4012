//! Source-reading audits of the storage backends: regressions that pass
//! every functional test — a whole-store lock only re-serialises clients,
//! a bare `fs::write` only loses data on a crash — so the gate reads the
//! source.

use std::path::PathBuf;

fn source_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("src")
}

/// `(line number, line)` of every line of `text` that is not a comment.
fn code(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines().enumerate().filter(|(_, l)| !l.trim_start().starts_with("//")).map(|(i, l)| (i + 1, l))
}

/// The multi-client engine depends on every store clients share being
/// sharded (DESIGN.md §10): a `Mutex<…>` or `RwLock<…>` around
/// `MemBackend`, `AfsServer` or `CloudStore` would put every client back on
/// one lock word. Their modules take locks through
/// `shard::{ShardedMutex, ShardedRwLock}` only, apart from the fields named
/// in `PER_CLIENT`.
#[test]
fn sharded_stores_take_no_whole_store_lock() {
    /// `(module, struct, field, why one lock is right)`.
    const PER_CLIENT: [(&str, &str, &str, &str); 1] = [(
        "afs.rs",
        "AfsClient",
        "cache",
        "one client's cache serves one enclave at a time; no other client reaches it",
    )];
    let mut exempted = 0;
    for module in ["mem.rs", "afs.rs", "cloud.rs"] {
        // A deleted module must fail here, not silently shrink the audit.
        let text = std::fs::read_to_string(source_dir().join(module))
            .unwrap_or_else(|e| panic!("store module {module}: {e}"));
        let mut within = None;
        for (number, line) in code(&text) {
            if let Some(name) = struct_opened(line) {
                within = Some(name);
            } else if line.starts_with('}') {
                within = None;
            }
            let field = line.trim_start().split(':').next().unwrap_or("");
            if PER_CLIENT.iter().any(|&(m, s, f, _)| {
                (m, Some(s), f) == (module, within, field.trim_start_matches("pub "))
            }) {
                exempted += 1;
                continue;
            }
            for lock in ["Mutex<", "RwLock<"] {
                let bare = line.match_indices(lock).any(|(at, _)| {
                    !line[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_')
                });
                assert!(!bare, "{module}:{number}: whole-store lock: {}", line.trim());
            }
        }
    }
    assert_eq!(exempted, PER_CLIENT.len(), "an exempted field is gone: drop its exemption");
}

/// The name of the struct whose body `line` opens, if it opens one.
fn struct_opened(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("pub ").unwrap_or(line).strip_prefix("struct ")?;
    let name = rest.split(|c: char| !(c.is_alphanumeric() || c == '_')).next()?;
    rest.trim_end().ends_with('{').then_some(name)
}

/// The torn-write bug this repository once shipped was a bare
/// `std::fs::write` on `DirBackend`'s put path: no temp file, no fsync, no
/// atomic rename. Non-test backend code commits through the
/// temp-fsync-rename-dirfsync helpers (DESIGN.md §12) and never calls
/// `fs::write`; test modules may — corrupting files on purpose is their job.
#[test]
fn no_bare_fs_write_on_a_commit_path() {
    let mut audited = 0;
    for entry in std::fs::read_dir(source_dir()).expect("crates/storage/src").flatten() {
        let path = entry.path();
        if path.extension().is_none_or(|x| x != "rs") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("a readable source file");
        let shipped = text.split("\n#[cfg(test)]").next().expect("split yields a first piece");
        for (number, line) in code(shipped) {
            let squeezed: String = line.split_whitespace().collect();
            assert!(
                !squeezed.contains("fs::write("),
                "{}:{number}: bare fs::write on a storage commit path: {}",
                path.display(),
                line.trim()
            );
        }
        audited += 1;
    }
    assert!(audited >= 10, "only {audited} storage modules found");
}
