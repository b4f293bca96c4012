//! The documents that describe the system name only code that exists.
//!
//! Every backticked repo path (`crates/exec/src/lib.rs`, a bare `io.rs`, a
//! `tests/security.rs::some_test`) must name a file or directory in the
//! tree, and every backticked crate path (`nexus_exec::io`,
//! `storage::afs`) must resolve to a module file of that crate, or to an
//! item its module declares. A deleted module then fails here instead of
//! living on in prose. History files — `CHANGES.md`, `ROADMAP.md`,
//! `EXPERIMENTS.md` — record what once was and are not read.

use std::path::{Path, PathBuf};

/// The documents held to the tree as it is.
const DOCS: [&str; 4] =
    ["README.md", "DESIGN.md", "docs/INTERNALS.md", ".claude/skills/verify/SKILL.md"];

/// Crate paths that are not ours: Rust's own `core` shares nexus-core's
/// short name.
const NOT_OURS: [&str; 1] = ["core::arch"];

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

/// True when `source` declares `name` as an item, or re-exports it.
fn declares(source: &str, name: &str) -> bool {
    const KINDS: [&str; 10] = [
        "fn",
        "struct",
        "enum",
        "trait",
        "type",
        "const",
        "static",
        "mod",
        "union",
        "macro_rules!",
    ];
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let word_at = |text: &str, at: usize| {
        !text[..at].ends_with(is_ident) && !text[at + name.len()..].starts_with(is_ident)
    };
    source.lines().any(|line| {
        let line = line.trim_start();
        let reexport = line.starts_with("pub use ") || line.starts_with("use ");
        line.match_indices(name).any(|(at, _)| {
            word_at(line, at)
                && (reexport || KINDS.iter().any(|kind| line[..at].trim_end().ends_with(kind)))
        })
    })
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
        if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
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
    let mut dead = Vec::new();
    for doc in DOCS {
        let text =
            std::fs::read_to_string(root().join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for (line, span) in code_spans(&text) {
            let token = span.trim();
            let why =
                dead_path(token, &top_level, &tree).or_else(|| dead_crate_path(token, &crates));
            if let Some(why) = why {
                dead.push(format!("{doc}:{line}: `{token}`: {why}"));
            }
        }
    }
    assert!(dead.is_empty(), "docs name code that does not exist:\n{}", dead.join("\n"));
}
