//! Source-reading audits of table lookups and deleted engines, of the
//! hardware lane's `unsafe`, and of where `unsafe` and zero-filled AEAD
//! output buffers may appear at all.
//!
//! The shipped engines' whole point is to never index memory by secret- or
//! message-derived values, and the table-driven reference they are checked
//! against lives outside the crate (`nexus_testkit::spec`). The hardware
//! lanes' soundness argument is that CPU dispatch checks, per lane, every
//! feature that lane's `#[target_feature]` functions enable, and that each
//! `unsafe` block says why it may run. All are properties of the source
//! text, so the gate reads the source.

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

/// What no shipped module may say: the lookups of a table-driven AES or
/// GHASH (an S-box, T-tables, Shoup tables), and the names of the engine
/// and hooks that used to carry them.
const FORBIDDEN: [&str; 21] = [
    "SBOX[",
    "INV_SBOX",
    "te_tables",
    "ShoupTable",
    "build_table",
    "table_mul",
    "ghash_shift",
    "round_traced",
    "load_state",
    "store_state",
    "gf_mul(",
    "CryptoBackend::Table",
    "Engine::Table",
    "encrypt_block_reference",
    "encrypt_block_trace",
    "seal_detached_scalar",
    "new_scalar",
    "batch_enabled",
    "polyval_tag_inner",
    "zeroize_u32",
    "fn ghash_mul(",
];

/// Every module of `crates/crypto/src` — a new one included — up to its
/// `#[cfg(test)]`, comments excepted: the test modules may name the
/// reference, since they differentially verify the engines against it.
#[test]
fn constant_time_modules_are_table_free() {
    let mut modules = Vec::new();
    rust_sources(&crates_dir().join("crypto/src"), &mut modules);
    assert!(modules.len() >= 20, "found only {} modules under crypto/src", modules.len());
    for path in modules {
        let text = std::fs::read_to_string(&path).expect("a readable source file");
        let code = text
            .lines()
            .take_while(|l| !l.starts_with("#[cfg(test)]"))
            .enumerate()
            .filter(|(_, l)| !l.trim_start().starts_with("//"));
        for (idx, line) in code {
            for name in FORBIDDEN {
                assert!(
                    !line.contains(name),
                    "{}:{}: `{name}` in shipped crypto code: {}",
                    path.display(),
                    idx + 1,
                    line.trim()
                );
            }
        }
    }
}

/// Outside this crate and the bench crate (`micro_ct` times both
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
        assert!(!text.contains("with_backend"), "{} names `with_backend`", path.display());
    }
}

/// One hardware lane: the intrinsics modules compiled only for x86_64 and
/// reached only through this lane's CPU dispatch, the pure function in
/// `cpu.rs` that states which CPUID bits dispatch requires, and the CPUID
/// constant behind each feature the modules may enable (for the wide GCM
/// kernel also the two constants of the OS half of its decision, which no
/// `#[target_feature]` can name).
struct HwLane {
    modules: &'static [&'static str],
    requires: &'static str,
    detected: &'static [(&'static str, &'static str)],
}

const HW_LANES: [HwLane; 3] = [
    HwLane {
        modules: &["aes_ni.rs", "ghash_clmul.rs", "gcm_ni.rs"],
        requires: "fn ecx_has_hw_lane(",
        detected: &[
            ("aes", "CPUID_ECX_AESNI"),
            ("pclmulqdq", "CPUID_ECX_PCLMULQDQ"),
            ("ssse3", "CPUID_ECX_SSSE3"),
            ("sse4.1", "CPUID_ECX_SSE41"),
        ],
    },
    HwLane {
        modules: &["gcm_vaes.rs"],
        requires: "fn wide_lane_for_flags(",
        detected: &[
            ("avx512f", "CPUID_7_EBX_AVX512F"),
            ("avx512bw", "CPUID_7_EBX_AVX512BW"),
            ("vaes", "CPUID_7_ECX_VAES"),
            ("vpclmulqdq", "CPUID_7_ECX_VPCLMULQDQ"),
            ("(OS: XGETBV readable)", "CPUID_ECX_OSXSAVE"),
            ("(OS: ZMM state saved)", "XCR0_AVX512_STATE"),
        ],
    },
    HwLane {
        modules: &["sha_ni.rs"],
        requires: "fn sha_lane_for_flags(",
        detected: &[
            ("sha", "CPUID_7_EBX_SHA"),
            ("ssse3", "CPUID_ECX_SSSE3"),
            ("sse4.1", "CPUID_ECX_SSE41"),
        ],
    },
];

fn hw_module(name: &str) -> String {
    let path = crates_dir().join("crypto/src").join(name);
    // A deleted module must fail here, not silently shrink the audit.
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("hardware crypto module {}: {e}", path.display()))
}

/// Holding a hardware key (AES lane), a `WideLane` token (the wide GCM
/// kernel) or a `ShaNi` answer from `cpu::sha_lane` (SHA lane) is the proof
/// every `unsafe` call into a `#[target_feature]` function cites, so each
/// lane's dispatch must require each feature any of its modules enables — not
/// only the ones the first kernels used — and must not start requiring
/// another lane's. (The wide kernel sits on the AES lane; its predicate says
/// so by calling `ecx_has_hw_lane`, not by naming that lane's bits.)
#[test]
fn dispatch_requires_every_target_feature_the_hardware_modules_enable() {
    let cpu = hw_module("cpu.rs");
    let mut enabled = 0;
    for lane in &HW_LANES {
        let body = cpu
            .split(lane.requires)
            .nth(1)
            .and_then(|rest| rest.split("\n}\n").next())
            .unwrap_or_else(|| panic!("cpu.rs has `{}`", lane.requires));
        for (feature, bit) in lane.detected {
            assert!(body.contains(bit), "`{}` does not require {bit} ({feature})", lane.requires);
        }
        for other in HW_LANES.iter().flat_map(|l| l.detected) {
            if !lane.detected.contains(other) {
                let bit = other.1;
                assert!(!body.contains(bit), "`{}` requires the other lane's {bit}", lane.requires);
            }
        }
        for module in lane.modules {
            for (idx, line) in hw_module(module).lines().enumerate() {
                let Some(list) = line.trim_start().strip_prefix("#[target_feature(enable = \"")
                else {
                    continue;
                };
                let list = list.split('"').next().expect("a closing quote");
                for feature in list.split(',') {
                    enabled += 1;
                    assert!(
                        lane.detected.iter().any(|(name, _)| *name == feature),
                        "{module}:{}: enables `{feature}`, which this lane's dispatch does not check",
                        idx + 1
                    );
                }
            }
        }
    }
    let wide = cpu.split("fn wide_lane_for_flags(").nth(1).expect("checked above");
    assert!(
        wide.split("\n}\n").next().expect("a body").contains("ecx_has_hw_lane("),
        "the wide kernel no longer requires the AES lane it runs on"
    );
    assert!(enabled >= 27, "found only {enabled} enabled features: has the attribute moved?");
}

/// The files of `nexus-crypto` that may say `unsafe`, and why each does:
/// the intrinsics modules; `sha2.rs` (the one call into the SHA-NI kernel);
/// `cpu.rs` (the `XGETBV` read); `ct.rs` (the volatile stores of `zeroize`);
/// `write_once.rs` (output buffers the kernels fill: the `set_len`, the
/// `&mut [u8]` lent as a destination, the volatile wipe).
const UNSAFE_MODULES: [&str; 9] = [
    "aes_ni.rs",
    "ghash_clmul.rs",
    "gcm_ni.rs",
    "gcm_vaes.rs",
    "sha_ni.rs",
    "sha2.rs",
    "cpu.rs",
    "ct.rs",
    "write_once.rs",
];

/// Every `unsafe` block in the files that may hold one, tests included,
/// sits directly under a comment block that carries its `SAFETY:` note.
#[test]
fn every_unsafe_block_in_the_hardware_modules_says_why_it_is_sound() {
    let mut blocks = 0;
    for module in UNSAFE_MODULES {
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
    assert!(blocks >= 36, "found only {blocks} unsafe blocks: has the code moved?");
}

/// `unsafe` stays where it is audited: nowhere in `nexus-crypto` (sources
/// and tests) outside [`UNSAFE_MODULES`] — each of them checked block by
/// block above — and nowhere at all in `nexus-core`, which says so itself.
#[test]
fn unsafe_appears_only_in_the_listed_files() {
    let mut sources = Vec::new();
    rust_sources(&crates_dir().join("crypto"), &mut sources);
    assert!(sources.len() >= 20, "found only {} sources under crates/crypto", sources.len());
    for path in sources {
        let name = path.file_name().and_then(|n| n.to_str()).expect("a UTF-8 file name");
        // This file names the word it polices.
        if UNSAFE_MODULES.contains(&name) || name == "source_audit.rs" {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("a readable source file");
        for (idx, line) in text.lines().enumerate() {
            assert!(
                !line.contains("unsafe"),
                "{}:{}: `unsafe` outside the audited files: {}",
                path.display(),
                idx + 1,
                line.trim()
            );
        }
    }
    let core = std::fs::read_to_string(crates_dir().join("core/src/lib.rs")).expect("core's lib.rs");
    assert!(
        core.lines().any(|l| l.trim() == "#![forbid(unsafe_code)]"),
        "crates/core/src/lib.rs no longer forbids unsafe code"
    );
}

/// One allocation path for AEAD output: the three files that produce it
/// reserve a `WriteOnce` and let the kernel write it, so none of them
/// zero-fills a buffer first (tests may: they build inputs that way).
#[test]
fn aead_output_buffers_are_not_zero_filled() {
    for file in ["crypto/src/gcm.rs", "core/src/datapath.rs", "core/src/metadata/crypto.rs"] {
        let path = crates_dir().join(file);
        // A moved file must fail here, not silently shrink the audit.
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("AEAD output producer {}: {e}", path.display()));
        assert!(text.contains("WriteOnce"), "{file} no longer allocates through `WriteOnce`");
        let code = text
            .lines()
            .take_while(|l| !l.starts_with("#[cfg(test)]"))
            .enumerate()
            .filter(|(_, l)| !l.trim_start().starts_with("//"));
        for (idx, line) in code {
            let zero_fill = line.contains("vec![0u8;")
                || (line.contains(".resize(") && line.trim_end().ends_with(", 0);"));
            assert!(!zero_fill, "{file}:{}: a zero-filled buffer: {}", idx + 1, line.trim());
        }
    }
}
