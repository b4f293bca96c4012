//! Source-reading audit of the mutation path (DESIGN.md §9, "One probe per
//! mutation"). A second way to take a lock would pass every functional
//! test: the mutation it serves still commits, it just compares the cache
//! hits it relied on before its lock instead of after, and the race that
//! opens shows only under a concurrent revocation. So the gate reads the
//! source. The same reading keeps the rootkey exchange to one module.

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

/// Every shipped module of the crate, as paths under `src`.
fn modules() -> Vec<String> {
    let src = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut modules = Vec::new();
    let mut dirs = vec![src.clone()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("crates/core/src is readable") {
            let path = entry.expect("a directory entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let module = path.strip_prefix(&src).expect("under src");
                modules.push(module.to_string_lossy().into_owned());
            }
        }
    }
    assert!(modules.len() >= 19, "only {} modules found", modules.len());
    modules
}

/// Every lock the crate takes is taken by `enclave::locked`, after its
/// walk and before the one comparison that covers the walk and the reload:
/// in every module, `LockGuard::acquire` is called in `locked` and nowhere
/// else, and the one call of `MetaIo::lock` is `LockGuard::acquire`'s.
#[test]
fn every_lock_is_taken_by_the_mutation_helper() {
    let enclave = shipped("enclave.rs");
    let lines = |head| {
        let item = item(&enclave, head);
        item[0].0..=item[item.len() - 1].0
    };
    let helper = lines("pub(crate) fn locked<");
    let (acquire, lock) = (lines("pub(crate) fn acquire("), lines("pub(crate) fn lock("));
    let mut acquires = 0;
    for module in modules() {
        let within = |span: &std::ops::RangeInclusive<usize>, number| {
            module == "enclave.rs" && span.contains(&number)
        };
        for (number, line) in shipped(&module) {
            if line.contains("LockGuard::acquire(") {
                acquires += 1;
                assert!(
                    within(&helper, number),
                    "{module}:{number}: a lock taken outside `locked`: {}",
                    line.trim()
                );
            }
            // A mutex's `lock()` takes no argument; a storage lock names its
            // object. `MetaIo::lock` itself calls the store's.
            let names_an_object =
                line.match_indices(".lock(").any(|(at, _)| !line[at..].starts_with(".lock()"));
            if names_an_object {
                assert!(
                    within(&acquire, number) || within(&lock, number),
                    "{module}:{number}: a lock taken outside `locked`: {}",
                    line.trim()
                );
            }
        }
    }
    assert!(acquires > 0, "`locked` takes no lock");
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

/// Object names are spelled through `uuid.rs`'s digit table: every storage
/// call names its objects, so a `format!` per byte there is paid 5 to 9
/// times an operation (DESIGN.md §9, "What a storage call costs the host").
#[test]
fn object_names_are_spelled_without_the_formatter() {
    for (number, line) in shipped("uuid.rs") {
        for call in ["format!", "write!("] {
            assert!(
                !line.contains(call),
                "uuid.rs:{number}: `{call}` spells a name: {}",
                line.trim()
            );
        }
    }
}

/// No module of the crate writes bytes out as hex through the formatter;
/// `NexusUuid`'s `Display` is the one hex spelling.
#[test]
fn no_module_formats_bytes_as_hex() {
    for module in modules() {
        for (number, line) in shipped(&module) {
            assert!(
                !line.contains("02x"),
                "{module}:{number}: bytes formatted as hex: {}",
                line.trim()
            );
        }
    }
}

/// The rootkey exchange is one protocol in one module: no shipped module
/// but `protocol.rs` runs an X25519 agreement, so a second exchange, with
/// its own key lifetimes and its own wiping, cannot grow beside it.
#[test]
fn one_module_runs_the_key_exchange() {
    for module in modules() {
        if module == "protocol.rs" {
            continue;
        }
        for (number, line) in shipped(&module) {
            assert!(
                !line.contains("x25519::"),
                "{module}:{number}: a second key exchange: {}",
                line.trim()
            );
        }
    }
    assert!(
        shipped("protocol.rs").iter().any(|(_, l)| l.contains("x25519::")),
        "protocol.rs runs no exchange"
    );
}

/// A commit knows the versions it writes (DESIGN.md §9, "A commit knows
/// its versions"): the crate's one `stat_many`, in `MetaIo::versions`,
/// serves the probe before a fetch and nothing else.
#[test]
fn versions_are_read_only_by_the_probe_before_a_fetch() {
    let enclave = shipped("enclave.rs");
    let span = |head| {
        let item = item(&enclave, head);
        item[0].0..=item[item.len() - 1].0
    };
    let (probe, versions) =
        (span("pub(crate) fn probe_before_fetch("), span("pub(crate) fn versions<"));
    let mut callers = 0;
    for module in modules() {
        for (number, line) in shipped(&module) {
            let within = |span: &std::ops::RangeInclusive<usize>| {
                module == "enclave.rs" && span.contains(&number)
            };
            if line.contains(".versions(") {
                callers += 1;
                assert!(
                    within(&probe),
                    "{module}:{number}: versions read outside `probe_before_fetch`: {}",
                    line.trim()
                );
            }
            if line.contains("stat_many(") {
                assert!(
                    within(&versions),
                    "{module}:{number}: a `stat_many` outside `MetaIo::versions`: {}",
                    line.trim()
                );
            }
        }
    }
    assert_eq!(callers, 1, "`probe_before_fetch` reads no versions");
}

/// A put leaves its object one version past the one its lock confirmed
/// (`ObjectStat::version`), so no function of the crate stats an object
/// once it has written one: no line that stats follows, in the same
/// function, a line that puts or commits.
#[test]
fn nothing_stats_after_a_put() {
    const WRITES: [&str; 5] =
        [".put(", ".put_many(", "commit_flush(", "store_dirnode(", "store_supernode("];
    const STATS: [&str; 4] = [".version(", ".versions(", ".stat(", "stat_many("];
    let mut writers = 0;
    for module in modules() {
        let code = shipped(&module);
        for (at, (_, line)) in code.iter().enumerate() {
            let head = line.trim_start();
            let is_fn = ["fn ", "pub fn ", "pub(crate) fn "].iter().any(|p| head.starts_with(p));
            if !is_fn || head.ends_with(';') {
                continue;
            }
            let body = item(&code[at..], head);
            let Some(first) =
                body.iter().position(|(_, l)| WRITES.iter().any(|w| l.contains(w)))
            else {
                continue;
            };
            writers += 1;
            for (number, l) in &body[first..] {
                for stat in STATS {
                    assert!(
                        !l.contains(stat),
                        "{module}:{number}: a stat after a write in `{head}`: {}",
                        l.trim()
                    );
                }
            }
        }
    }
    assert!(writers >= 10, "only {writers} writing functions found");
}
