//! Source-reading audits of where the table engine may be named, and of
//! the hardware lane's `unsafe`.
//!
//! The constant-time engines' whole point is to never index memory by
//! secret- or message-derived values, and the table engine's is to be a
//! reference nobody ships. The hardware lane's soundness argument is that
//! CPU dispatch checks every feature its `#[target_feature]` functions
//! enable, and that each `unsafe` block says why it may run. All are
//! properties of the source text, so the gate reads the source.

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
    const MODULES: [&str; 5] =
        ["aes_ct.rs", "ghash_ct.rs", "aes_ni.rs", "ghash_clmul.rs", "gcm_ni.rs"];
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

/// The intrinsics modules: everything compiled only for x86_64 and reached
/// only through CPU dispatch.
const HW_MODULES: [&str; 3] = ["aes_ni.rs", "ghash_clmul.rs", "gcm_ni.rs"];

fn hw_module(name: &str) -> String {
    let path = crates_dir().join("crypto/src").join(name);
    // A deleted module must fail here, not silently shrink the audit.
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("hardware crypto module {}: {e}", path.display()))
}

/// Holding a hardware key is the proof every `unsafe` call into a
/// `#[target_feature]` function cites, so dispatch must require each
/// feature any of them enables — not only the ones the first kernels used.
#[test]
fn dispatch_requires_every_target_feature_the_hardware_modules_enable() {
    const DETECTED: [(&str, &str); 4] = [
        ("aes", "CPUID_ECX_AESNI"),
        ("pclmulqdq", "CPUID_ECX_PCLMULQDQ"),
        ("ssse3", "CPUID_ECX_SSSE3"),
        ("sse4.1", "CPUID_ECX_SSE41"),
    ];
    let cpu = hw_module("cpu.rs");
    let required = cpu
        .split("const REQUIRED: u32 =")
        .nth(1)
        .and_then(|rest| rest.split(';').next())
        .expect("cpu.rs states the hardware lane's REQUIRED mask");
    for (feature, bit) in DETECTED {
        assert!(required.contains(bit), "REQUIRED lacks {bit} ({feature})");
    }
    let mut enabled = 0;
    for module in HW_MODULES {
        for (idx, line) in hw_module(module).lines().enumerate() {
            let Some(list) = line.trim_start().strip_prefix("#[target_feature(enable = \"") else {
                continue;
            };
            let list = list.split('"').next().expect("a closing quote");
            for feature in list.split(',') {
                enabled += 1;
                assert!(
                    DETECTED.iter().any(|(name, _)| *name == feature),
                    "{module}:{}: enables `{feature}`, which CPU dispatch does not check",
                    idx + 1
                );
            }
        }
    }
    assert!(enabled >= 10, "found only {enabled} enabled features: has the attribute moved?");
}

/// Every `unsafe` block in the intrinsics modules, tests included, sits
/// directly under a comment block that carries its `SAFETY:` note.
#[test]
fn every_unsafe_block_in_the_hardware_modules_says_why_it_is_sound() {
    let mut blocks = 0;
    for module in HW_MODULES {
        let text = hw_module(module);
        let lines: Vec<&str> = text.lines().map(str::trim_start).collect();
        for (idx, line) in lines.iter().enumerate() {
            if line.starts_with("//") || !line.contains("unsafe {") {
                continue;
            }
            blocks += 1;
            let note = lines[..idx].iter().rev().take_while(|l| l.starts_with("//"));
            assert!(
                note.into_iter().any(|l| l.contains("SAFETY:")),
                "{module}:{}: `unsafe` block without a SAFETY note directly above: {line}",
                idx + 1
            );
        }
    }
    assert!(blocks >= 10, "found only {blocks} unsafe blocks: has the code moved?");
}
