//! Source-reading audits of where the table engine may be named.
//!
//! The constant-time engines' whole point is to never index memory by
//! secret- or message-derived values, and the table engine's is to be a
//! reference nobody ships. Both are properties of the source text, so the
//! gate reads the source.

use std::path::{Path, PathBuf};

fn crates_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("crates/").to_path_buf()
}

/// Every `.rs` file below `dir`.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("a readable source directory").flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// Only the code before `#[cfg(test)]` is policed, and comments are not
/// code: the test modules *should* name the tables, since they
/// differentially verify that the engines agree.
#[test]
fn constant_time_modules_are_table_free() {
    const MODULES: [&str; 4] = ["aes_ct.rs", "ghash_ct.rs", "aes_ni.rs", "ghash_clmul.rs"];
    const TABLE_NAMES: [&str; 4] = ["SBOX[", "INV_SBOX[", "ShoupTable", "table_mul"];
    for module in MODULES {
        let path = crates_dir().join("crypto/src").join(module);
        // A deleted module must fail here, not silently shrink the audit.
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("hardened crypto module {}: {e}", path.display()));
        let code = text
            .lines()
            .take_while(|l| !l.starts_with("#[cfg(test)]"))
            .enumerate()
            .filter(|(_, l)| !l.trim_start().starts_with("//"));
        for (idx, line) in code {
            for name in TABLE_NAMES {
                assert!(
                    !line.contains(name),
                    "{module}:{}: table indexing inside a constant-time module: {}",
                    idx + 1,
                    line.trim()
                );
            }
        }
    }
}

/// Outside this crate and the bench crate (`micro_ct` times all three
/// engines), production code gets its engine from CPU dispatch only.
#[test]
fn no_crate_pins_an_engine() {
    let mut sources = Vec::new();
    for entry in std::fs::read_dir(crates_dir()).expect("crates/").flatten() {
        let name = entry.file_name();
        if name != "crypto" && name != "bench" {
            rust_sources(&entry.path().join("src"), &mut sources);
        }
    }
    assert!(sources.len() >= 40, "found only {} sources under crates/*/src", sources.len());
    for path in sources {
        let text = std::fs::read_to_string(&path).expect("a readable source file");
        for name in ["with_backend", "CryptoBackend::Table"] {
            assert!(!text.contains(name), "{} names `{name}`", path.display());
        }
    }
}
