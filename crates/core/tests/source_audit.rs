//! Source-reading audit of the mutation path (DESIGN.md §9, "One probe per
//! mutation"). A second way to take a lock would pass every functional
//! test: the mutation it serves still commits, it just compares the cache
//! hits it relied on before its lock instead of after, and the race that
//! opens shows only under a concurrent revocation. So the gate reads the
//! source.

use std::path::PathBuf;

/// The shipped code of `crates/core/src/<module>`: everything before its
/// `#[cfg(test)]` module, comment lines dropped, as `(line number, line)`.
fn shipped(module: &str) -> Vec<(usize, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("src").join(module);
    // A deleted or renamed module must fail here, not silently shrink the audit.
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{module}: {e}"));
    text.lines()
        .take_while(|l| !l.starts_with("#[cfg(test)]"))
        .enumerate()
        .filter(|(_, l)| !l.trim_start().starts_with("//"))
        .map(|(i, l)| (i + 1, l.to_string()))
        .collect()
}

/// The lines of the item that starts with `head` (after indentation) and
/// ends at the first line that closes it at the same indentation.
fn item<'l>(code: &'l [(usize, String)], head: &str) -> &'l [(usize, String)] {
    let start = code
        .iter()
        .position(|(_, l)| l.trim_start().starts_with(head))
        .unwrap_or_else(|| panic!("no `{head}`"));
    let indent = code[start].1.len() - code[start].1.trim_start().len();
    let close = format!("{}}}", " ".repeat(indent));
    let end = code[start..].iter().position(|(_, l)| *l == close).expect("the item closes");
    &code[start..=start + end]
}

/// Every lock a mutation takes is taken by `enclave::locked`, after its
/// walk and before the one comparison that covers the walk and the reload:
/// `LockGuard::acquire` is called there and nowhere else, and no
/// filesystem operation calls `MetaIo::lock` itself.
#[test]
fn every_lock_is_taken_by_the_mutation_helper() {
    let enclave = shipped("enclave.rs");
    let helper = item(&enclave, "pub(crate) fn locked<");
    let (first, last) = (helper[0].0, helper[helper.len() - 1].0);
    let acquires: Vec<usize> = enclave
        .iter()
        .filter(|(_, l)| l.contains("LockGuard::acquire("))
        .map(|(number, _)| *number)
        .collect();
    assert!(!acquires.is_empty(), "`locked` takes no lock");
    for number in acquires {
        assert!(
            (first..=last).contains(&number),
            "enclave.rs:{number}: a lock taken outside `locked`"
        );
    }
    for (number, line) in shipped("fsops.rs") {
        for call in ["LockGuard::acquire(", ".lock(&"] {
            assert!(
                !line.contains(call),
                "fsops.rs:{number}: a lock taken outside `locked`: {}",
                line.trim()
            );
        }
    }
}

/// A lock carries no data, so taking one compares nothing: the walk's
/// cache hits stay pending across it and are settled with the reload's.
#[test]
fn taking_a_lock_settles_nothing() {
    let enclave = shipped("enclave.rs");
    for (number, line) in item(&enclave, "pub(crate) fn lock(") {
        assert!(
            !line.contains("settle"),
            "enclave.rs:{number}: `MetaIo::lock` settles: {}",
            line.trim()
        );
    }
}

/// `revalidated` is the read-only operations' loop: a filesystem operation
/// that runs it writes, deletes and commits nothing.
#[test]
fn revalidated_serves_read_only_operations() {
    let fsops = shipped("fsops.rs");
    let mut readers = 0;
    for (at, (_, line)) in fsops.iter().enumerate() {
        if !(line.starts_with("pub(crate) fn ") || line.starts_with("fn ")) {
            continue;
        }
        let body = item(&fsops[at..], line.trim_start());
        if !body.iter().any(|(_, l)| l.contains("revalidated(")) {
            continue;
        }
        readers += 1;
        for (number, l) in body {
            for write in ["commit_flush(", "store_dirnode(", "stage_", ".delete(", "locked("] {
                assert!(
                    !l.contains(write),
                    "fsops.rs:{number}: `revalidated` in a mutation: {}",
                    l.trim()
                );
            }
        }
    }
    assert!(readers >= 5, "only {readers} read-only operations found");
}
