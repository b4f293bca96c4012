//! Reopen-semantics tests for the durable backends, plus the regression
//! cases this PR pins:
//!
//! - **Torn put** (`DirBackend::put` used bare `std::fs::write`): a crash
//!   mid-put must leave either the complete old object or the complete new
//!   one, never a prefix. Verified by injecting a crash at every step of
//!   the commit path.
//! - **`%2F` collision** (`file_for` escaped `/` but not `%`): `"a%2Fb"`
//!   and `"a/b"` must stay distinct objects across a reopen, property-
//!   tested over adversarial generated names.
//! - **Version amnesia** (`versions` lived only in process memory):
//!   `stat().version` must survive a reopen on both backends — the
//!   freshness machinery admits cached metadata by version, so a backend
//!   that resets versions to 0 silently reopens the rollback window.
//! - **Reads after a crash** (`DirBackend` guarded only its mutations): a
//!   handle an injected fault crashed must refuse `get`, `get_range`,
//!   `stat` and `stat_many` with `Io`, as `LogBackend` does, at every
//!   crash point of the sweeps below.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use nexus_storage::fault::FireAt;
use nexus_storage::{DirBackend, FaultKind, LogBackend, StorageBackend, StorageError};
use nexus_testkit::{shrink, tk_assert, tk_assert_eq, Runner};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nexus-reopen-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Exercises put/delete/list/stat agreement across a drop-and-reopen for
/// any backend constructor.
fn reopen_roundtrip<B: StorageBackend>(open: impl Fn() -> B) {
    {
        let store = open();
        store.put("keep", b"kept bytes").unwrap();
        store.put("keep", b"kept bytes v2").unwrap();
        store.put("meta/uuid", &[7u8; 1500]).unwrap();
        store.put("gone", b"x").unwrap();
        store.delete("gone").unwrap();
        assert_eq!(store.stat("keep").unwrap().version, 2);
    }
    let store = open();
    assert_eq!(store.get("keep").unwrap(), b"kept bytes v2");
    assert_eq!(store.stat("keep").unwrap().version, 2, "version survives reopen");
    assert_eq!(store.get("meta/uuid").unwrap(), vec![7u8; 1500]);
    assert!(!store.exists("gone"));
    assert!(matches!(store.get("gone"), Err(StorageError::NotFound(_))));
    assert_eq!(store.list(""), vec!["keep".to_string(), "meta/uuid".to_string()]);
    // Versions keep counting from where they left off, not from 0.
    store.put("keep", b"v3").unwrap();
    assert_eq!(store.stat("keep").unwrap().version, 3);
    assert!(store.audit_storage().is_empty(), "{:?}", store.audit_storage());
}

#[test]
fn dir_backend_reopen_semantics() {
    let root = tmp();
    reopen_roundtrip(|| DirBackend::open(&root).unwrap());
}

#[test]
fn log_backend_reopen_semantics() {
    let root = tmp();
    reopen_roundtrip(|| LogBackend::open(&root).unwrap());
}

#[test]
fn dir_backend_torn_put_regression() {
    // The pinned bug: `put` was a bare `std::fs::write`, so a crash could
    // persist any prefix of the new bytes. The fixed commit path (temp +
    // fsync + rename + dirfsync) must leave old-or-new at every crash
    // point — sweep all of put's physical steps for both fault kinds.
    let old = b"OLD-OLD-OLD-OLD".to_vec();
    let new = b"new-new-new-new-new-new".to_vec();
    // A put crosses 8 points: temp write, temp fsync, rename, dirfsync,
    // then the same four for the sidecar commit.
    for point in 0..8 {
        for kind in [FaultKind::Torn, FaultKind::Drop] {
            let root = tmp();
            {
                let store = DirBackend::open(&root).unwrap();
                store.put("obj", &old).unwrap();
            }
            let hook = FireAt::new(point, kind);
            let store = DirBackend::open_with_hook(&root, Some(hook.clone())).unwrap();
            let err = store.put("obj", &new).unwrap_err();
            assert!(matches!(err, StorageError::Io(_)), "{err}");
            assert!(store.crashed());
            let fired = hook.fired_at().unwrap();
            assert_reads_refused(&store, &format!("crash at {fired} ({kind:?})"));
            drop(store);

            let store = DirBackend::open(&root).unwrap();
            let got = store.get("obj").unwrap();
            assert!(
                got == old || got == new,
                "crash at {fired} ({kind:?}) tore the object: {got:?}"
            );
            // If the object commit survived the crash, so must its bytes
            // exactly; the version index may lag one mutation behind (the
            // put was never acknowledged) but must never be torn itself.
            let version = store.stat("obj").unwrap().version;
            assert!(version == 1 || (version == 2 && got == new), "crash at {fired}: v{version}");
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}

/// A crashed handle answers no read from the disk it left behind: every
/// read path returns `Io` until the store is reopened.
fn assert_reads_refused(store: &DirBackend, at: &str) {
    let refused = |r: Result<(), StorageError>| matches!(r, Err(StorageError::Io(_)));
    assert!(refused(store.get("obj").map(drop)), "{at}: get");
    assert!(refused(store.get_range("obj", 0, 4).map(drop)), "{at}: get_range");
    assert!(refused(store.stat("obj").map(drop)), "{at}: stat");
    let stats = store.stat_many(&["obj".to_string(), "missing".to_string()]);
    assert!(stats.into_iter().all(|s| refused(s.map(drop))), "{at}: stat_many");
}

#[test]
fn dir_backend_first_put_crash_leaves_no_object() {
    // Same sweep for a freshly created object: a crash before the commit
    // point must leave nothing behind (no temp debris visible to list).
    for point in 0..3 {
        let root = tmp();
        let hook = FireAt::new(point, FaultKind::Torn);
        let store = DirBackend::open_with_hook(&root, Some(hook)).unwrap();
        store.put("fresh", b"payload").unwrap_err();
        assert_reads_refused(&store, &format!("first put, point {point}"));
        drop(store);
        let store = DirBackend::open(&root).unwrap();
        assert!(!store.exists("fresh"), "point {point}");
        assert!(store.list("").is_empty(), "point {point}: {:?}", store.list(""));
        assert!(store.audit_storage().is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn percent_collision_regression_survives_reopen() {
    // The pinned bug: "a%2Fb" and "a/b" used to map to the same file.
    let root = tmp();
    {
        let store = DirBackend::open(&root).unwrap();
        store.put("a/b", b"slash").unwrap();
        store.put("a%2Fb", b"literal-percent").unwrap();
        store.put("a%252Fb", b"double-encoded").unwrap();
    }
    let store = DirBackend::open(&root).unwrap();
    assert_eq!(store.get("a/b").unwrap(), b"slash");
    assert_eq!(store.get("a%2Fb").unwrap(), b"literal-percent");
    assert_eq!(store.get("a%252Fb").unwrap(), b"double-encoded");
    assert_eq!(store.list("").len(), 3);
    assert!(store.audit_storage().is_empty());
}

#[test]
fn adversarial_names_roundtrip_both_backends() {
    // Property: any name over an alphabet chosen to stress the encoder
    // (literal `%`, `/`, the exact `%2F`/`%25` escape sequences, plus
    // ordinary characters) stores and reloads faithfully, distinct names
    // never collide, and everything survives reopen.
    let alphabet: Vec<char> = "ab%2F5/.-_".chars().collect();
    let mut case_idx = 0u64;
    Runner::new("adversarial_names_roundtrip")
        .cases(32)
        .regression(vec!["a/b".to_string(), "a%2Fb".to_string()])
        .regression(vec!["%".to_string(), "%25".to_string(), "%2F".to_string()])
        .regression(vec!["%versions%".to_string(), "%tmp%-0".to_string()])
        .run(
            |g| {
                let n = g.usize_in(1, 4);
                let mut names = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = g.string(&alphabet, 1, 12);
                    if !names.contains(&name) {
                        names.push(name);
                    }
                }
                names
            },
            |names| shrink::vec(names),
            |names| {
                case_idx += 1;
                let root = std::env::temp_dir().join(format!(
                    "nexus-reopen-names-{}-{case_idx}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&root);
                let store = DirBackend::open(&root).map_err(|e| e.to_string())?;
                for (i, name) in names.iter().enumerate() {
                    store.put(name, format!("payload-{i}").as_bytes()).map_err(|e| e.to_string())?;
                }
                let mut expected: Vec<String> = names.clone();
                expected.sort();
                tk_assert_eq!(store.list(""), expected, "distinct names must not collide");
                drop(store);
                let store = DirBackend::open(&root).map_err(|e| e.to_string())?;
                for (i, name) in names.iter().enumerate() {
                    tk_assert_eq!(
                        store.get(name).map_err(|e| e.to_string())?,
                        format!("payload-{i}").into_bytes(),
                        "{name:?} after reopen"
                    );
                    tk_assert_eq!(store.stat(name).map_err(|e| e.to_string())?.version, 1);
                }
                let findings = store.audit_storage();
                tk_assert!(findings.is_empty(), "audit: {findings:?}");

                // The same names through the log-structured backend.
                let log_root = root.join("log");
                let log = LogBackend::open(&log_root).map_err(|e| e.to_string())?;
                for (i, name) in names.iter().enumerate() {
                    log.put(name, format!("payload-{i}").as_bytes()).map_err(|e| e.to_string())?;
                }
                drop(log);
                let log = LogBackend::open(&log_root).map_err(|e| e.to_string())?;
                tk_assert_eq!(log.list(""), expected);
                for (i, name) in names.iter().enumerate() {
                    tk_assert_eq!(
                        log.get(name).map_err(|e| e.to_string())?,
                        format!("payload-{i}").into_bytes()
                    );
                }
                let _ = std::fs::remove_dir_all(&root);
                Ok(())
            },
        );
}

/// Locks are state of the process holding the store: a second handle is
/// refused while the first lives, and after a reopen no lock is held.
#[test]
fn log_backend_locks_die_with_the_handle() {
    let root = tmp();
    {
        let log = LogBackend::open(&root).unwrap();
        log.put("a", b"x").unwrap();
        log.lock("a", 1).unwrap();
        log.lock("b", 2).unwrap();
        assert!(matches!(log.lock("a", 2), Err(StorageError::LockContended(_))));
        assert!(matches!(LogBackend::open(&root), Err(StorageError::LockContended(_))));
    }
    let log = LogBackend::open(&root).unwrap();
    log.lock("a", 2).unwrap();
    log.lock("b", 1).unwrap();
    assert_eq!(log.stat("a").unwrap().version, 1);
    assert!(log.audit_storage().is_empty(), "{:?}", log.audit_storage());
}
