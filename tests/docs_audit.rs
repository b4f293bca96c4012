//! The documents that describe the system name only code that exists.
//!
//! Every backticked repo path (`crates/exec/src/lib.rs`, a bare `io.rs`, a
//! `tests/security.rs::some_test`) must name a file or directory in the
//! tree, and every backticked crate path (`nexus_core::async_fs`,
//! `storage::afs`) must resolve to a module file of that crate, or to an
//! item its module declares. A bare `Type::item` (`MemBackend::put_many`,
//! `Dirnode::{insert, remove}`) must name a type declared in the tree and a
//! `fn`, `const`, variant or field declared where that type is declared or
//! implemented. A deleted module then fails here instead of living on in
//! prose. History files — `CHANGES.md`, `ROADMAP.md`,
//! `EXPERIMENTS.md` — record what once was and are not read.

use std::path::{Path, PathBuf};

/// The documents held to the tree as it is.
const DOCS: [&str; 4] =
    ["README.md", "DESIGN.md", "docs/INTERNALS.md", ".claude/skills/verify/SKILL.md"];

/// Crate paths that are not ours: Rust's own `core` shares nexus-core's
/// short name.
const NOT_OURS: [&str; 1] = ["core::arch"];

/// Standard-library types a `Type::item` span may name.
const STD_TYPES: [&str; 2] = ["Arc", "Vec"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `(line number, text)` of every inline code span outside fenced blocks.
fn code_spans(text: &str) -> Vec<(usize, String)> {
    let mut spans = Vec::new();
    let mut fenced = false;
    let mut open: Option<(usize, String)> = None;
    for (i, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        for (k, piece) in line.split('`').enumerate() {
            if k > 0 {
                match open.take() {
                    Some(span) => spans.push(span),
                    None => open = Some((i + 1, String::new())),
                }
            }
            if let Some((_, span)) = open.as_mut() {
                if k == 0 && !span.is_empty() {
                    span.push(' ');
                }
                span.push_str(piece);
            }
        }
    }
    spans
}

/// Every file in the tree, build output and VCS data aside.
fn files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("a readable directory").flatten() {
        let path = entry.path();
        if !path.is_dir() {
            out.push(path);
        } else if !path.ends_with("target") && !path.ends_with(".git") {
            files(&path, out);
        }
    }
}

/// `a/{b,c}.rs` as `a/b.rs` and `a/c.rs`; anything else as itself.
fn expand_braces(token: &str) -> Vec<String> {
    match (token.find('{'), token.find('}')) {
        (Some(open), Some(close)) if open < close => token[open + 1..close]
            .split(',')
            .map(|alt| format!("{}{alt}{}", &token[..open], &token[close + 1..]))
            .collect(),
        _ => vec![token.to_string()],
    }
}

/// Item keywords a declaration starts with.
const ITEM_KINDS: [&str; 10] =
    ["fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union", "macro_rules!"];

/// Keywords that declare a type.
const TYPE_KINDS: [&str; 5] = ["struct", "enum", "trait", "type", "union"];

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn is_ident(text: &str) -> bool {
    !text.is_empty() && text.chars().all(is_ident_char)
}

/// True when `source` declares `name` as an item, or re-exports it.
fn declares(source: &str, name: &str) -> bool {
    declares_as(source, name, &ITEM_KINDS, true)
}

/// True when `source` declares `name` after one of `kinds` (or, with
/// `reexports`, names it on a `use` line).
fn declares_as(source: &str, name: &str, kinds: &[&str], reexports: bool) -> bool {
    let word_at = |text: &str, at: usize| {
        !text[..at].ends_with(is_ident_char) && !text[at + name.len()..].starts_with(is_ident_char)
    };
    source.lines().any(|line| {
        let line = line.trim_start();
        let reexport = reexports && (line.starts_with("pub use ") || line.starts_with("use "));
        line.match_indices(name).any(|(at, _)| {
            word_at(line, at)
                && (reexport || kinds.iter().any(|kind| line[..at].trim_end().ends_with(kind)))
        })
    })
}

/// True when `source` opens an `impl` block (inherent or of a trait) whose
/// self type is `ty`.
fn implements(source: &str, ty: &str) -> bool {
    source.lines().filter_map(|l| l.trim_start().strip_prefix("impl")).any(|rest| {
        let mut depth = 0;
        let generics_end = rest
            .char_indices()
            .find(|&(_, c)| {
                depth += match c {
                    '<' => 1,
                    '>' => -1,
                    _ => 0,
                };
                depth == 0
            })
            .map_or(0, |(i, _)| i + 1);
        let target = &rest[generics_end..];
        let target = target.rsplit(" for ").next().unwrap_or(target).trim_start();
        let path = target.split(['<', ' ', '{']).next().unwrap_or("");
        path.rsplit("::").next() == Some(ty)
    })
}

/// True when `source` declares `item` as a `fn` or `const`, or as an enum
/// variant or struct field (a line opening with `item` and one of `,({:=`).
fn declares_member(source: &str, item: &str) -> bool {
    declares_as(source, item, &["fn", "const"], false)
        || source.lines().any(|line| {
            let line = line.trim_start();
            let line =
                line.strip_prefix("pub(crate) ").or(line.strip_prefix("pub ")).unwrap_or(line);
            line.strip_prefix(item).is_some_and(|rest| {
                let rest = rest.trim_start();
                rest.starts_with([',', '(', '{', '='])
                    || (rest.starts_with(':') && !rest.starts_with("::"))
            })
        })
}

/// Why a backticked `Type::item` (or `Type::{a, b}`) names nothing, if it
/// does. `sources` holds every Rust file of the tree.
fn dead_member(token: &str, sources: &[String]) -> Option<String> {
    let (ty, rest) = token.split_once("::")?;
    if !ty.starts_with(|c: char| c.is_ascii_uppercase()) || !is_ident(ty) {
        return None;
    }
    if STD_TYPES.contains(&ty) {
        return None;
    }
    // Argument lists are prose: `Slot::over(&mut [u8])` names `over`.
    let mut bare = String::new();
    let mut depth = 0;
    for c in rest.chars() {
        match c {
            '(' => depth += 1,
            ')' => depth -= 1,
            _ if depth == 0 => bare.push(c),
            _ => {}
        }
    }
    let items: Vec<&str> = match bare.strip_prefix('{').and_then(|b| b.strip_suffix('}')) {
        Some(list) => list.split(',').map(str::trim).collect(),
        None => vec![bare.as_str()],
    };
    if !items.iter().all(|item| is_ident(item)) {
        return None;
    }
    let homes: Vec<&String> = sources
        .iter()
        .filter(|src| declares_as(src, ty, &TYPE_KINDS, false) || implements(src, ty))
        .collect();
    if !homes.iter().any(|src| declares_as(src, ty, &TYPE_KINDS, false)) {
        return Some(format!("no type `{ty}` is declared in the tree"));
    }
    let missing =
        items.into_iter().find(|item| !homes.iter().any(|src| declares_member(src, item)))?;
    Some(format!("`{ty}` has no fn, const, variant or field `{missing}`"))
}

/// The text of every Rust file in `tree`.
fn rust_sources(tree: &[PathBuf]) -> Vec<String> {
    tree.iter()
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .filter_map(|p| std::fs::read_to_string(p).ok())
        .collect()
}

/// Why a backticked repo path names nothing, if it does.
fn dead_path(token: &str, top_level: &[String], tree: &[PathBuf]) -> Option<String> {
    let (file, item) = match token.split_once("::") {
        Some((file, item)) if file.contains('.') => (file, Some(item)),
        _ => (token, None),
    };
    let is_path = match file.split_once('/') {
        Some((first, _)) => top_level.iter().any(|t| t == first),
        None => [".rs", ".md", ".sh", ".json", ".toml"].iter().any(|x| file.ends_with(x)),
    };
    if !is_path || file.contains(['*', '<', ' ']) {
        return None;
    }
    for file in expand_braces(file) {
        let found: Vec<PathBuf> = if file.contains('/') {
            Some(root().join(&file)).filter(|p| p.exists()).into_iter().collect()
        } else {
            tree.iter().filter(|p| p.ends_with(&file)).cloned().collect()
        };
        if found.is_empty() {
            return Some(format!("no file `{file}`"));
        }
        if let Some(item) = item {
            let fn_name = item.split('(').next().unwrap_or(item);
            let any = found
                .iter()
                .any(|p| std::fs::read_to_string(p).is_ok_and(|src| declares(&src, fn_name)));
            if !any {
                return Some(format!("`{file}` declares no `{fn_name}`"));
            }
        }
    }
    None
}

/// Why a backticked `crate::module::item` path resolves to nothing, if it
/// does. Modules resolve to files; the first segment that is no module must
/// be an item its module declares; what follows it (a method, a variant)
/// is not followed.
fn dead_crate_path(token: &str, crates: &[String]) -> Option<String> {
    let segments: Vec<&str> = token.split("::").collect();
    let short = segments[0].strip_prefix("nexus_").or(segments[0].strip_prefix("nexus-"));
    let krate = short.unwrap_or(segments[0]);
    if segments.len() < 2 || !crates.iter().any(|c| c == krate) {
        return None;
    }
    if NOT_OURS.iter().any(|p| token.starts_with(p)) {
        return None;
    }
    let mut dir = root().join("crates").join(krate).join("src");
    let mut module = dir.join("lib.rs");
    for segment in &segments[1..] {
        let name = segment.split('(').next().unwrap_or(segment);
        if !is_ident(name) {
            return None;
        }
        if dir.join(format!("{name}.rs")).is_file() {
            module = dir.join(format!("{name}.rs"));
            dir = dir.join(name);
        } else if dir.join(name).join("mod.rs").is_file() {
            module = dir.join(name).join("mod.rs");
            dir = dir.join(name);
        } else {
            let source = std::fs::read_to_string(&module).expect("a readable module");
            if declares(&source, name) {
                return None;
            }
            return Some(format!("no module or item `{name}` in {}", module.display()));
        }
    }
    None
}

#[test]
fn docs_name_only_live_code() {
    let listing = |dir: &Path| -> Vec<String> {
        std::fs::read_dir(dir)
            .expect("a readable directory")
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect()
    };
    let top_level: Vec<String> =
        listing(root()).into_iter().filter(|n| n != "target" && n != ".git").collect();
    let crates = listing(&root().join("crates"));
    let mut tree = Vec::new();
    files(root(), &mut tree);
    let sources = rust_sources(&tree);
    let mut dead = Vec::new();
    for doc in DOCS {
        let text =
            std::fs::read_to_string(root().join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for (line, span) in code_spans(&text) {
            let token = span.trim();
            let why = dead_path(token, &top_level, &tree)
                .or_else(|| dead_crate_path(token, &crates))
                .or_else(|| dead_member(token, &sources));
            if let Some(why) = why {
                dead.push(format!("{doc}:{line}: `{token}`: {why}"));
            }
        }
    }
    assert!(dead.is_empty(), "docs name code that does not exist:\n{}", dead.join("\n"));
}

/// The `Type::item` check catches what it is for: a type or a member that
/// is not in the tree. Live spans of each shape pass.
#[test]
fn doctored_type_item_spans_fail() {
    let mut tree = Vec::new();
    files(root(), &mut tree);
    let sources = rust_sources(&tree);
    for live in [
        "MemBackend::put_many",
        "Dirnode::{find_loaded, insert, remove}",
        "Slot::over(&mut [u8])",
        "CryptoBackend::HwAccel",
        "Arc::make_mut",
    ] {
        assert_eq!(dead_member(live, &sources), None, "{live}");
    }
    for doctored in
        ["MemBackend::put_striped", "StripedLock::write_group", "Dirnode::{insert, evict}"]
    {
        assert!(dead_member(doctored, &sources).is_some(), "{doctored} passed");
    }
}
