//! The one table type and the one renderer behind every paper-facing
//! command: what `nexus-bench <cmd>` prints is, line for line, what
//! `nexus-bench paper` writes between the markers of EXPERIMENTS.md.

use std::fmt;
use std::time::Duration;

/// One value of a paper table, typed so that the renderer, not each
/// command, decides how a duration or a ratio prints.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A latency: simulated I/O, measured enclave time, or their sum.
    Secs(Duration),
    /// An overhead or scaling factor, printed as the paper's `×N.NN`.
    Ratio(f64),
    /// A byte count.
    Bytes(u64),
    /// A count of files, requests or writes.
    Count(u64),
    /// A label, a mixed-unit metric, or the paper's own figure.
    Text(String),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Secs(d) => f.pad(&crate::secs(*d)),
            Cell::Ratio(r) => f.pad(&format!("\u{d7}{r:.2}")),
            Cell::Bytes(n) if *n < 10_000 => f.pad(&format!("{n} B")),
            Cell::Bytes(n) if *n < 10_000_000 => f.pad(&format!("{:.1} kB", *n as f64 / 1e3)),
            Cell::Bytes(n) => f.pad(&format!("{:.1} MB", *n as f64 / 1e6)),
            Cell::Count(n) => f.pad(&n.to_string()),
            Cell::Text(s) => f.pad(s),
        }
    }
}

/// One row: a cell per column.
pub type Row = Vec<Cell>;

/// Marks the start of a generated block in EXPERIMENTS.md; the command
/// name and ` -->` follow.
const OPEN: &str = "<!-- nexus-bench ";
/// Ends a generated block.
const CLOSE: &str = "<!-- /nexus-bench -->";

/// A command's table.
pub struct Table {
    /// Column names; the paper's figure is the last column where the paper
    /// gives one.
    pub columns: &'static [&'static str],
    /// The measured rows.
    pub rows: Vec<Row>,
}

impl Table {
    /// Renders a GitHub-flavoured Markdown table with padded, right-aligned
    /// columns, so the same text reads in a terminal and in EXPERIMENTS.md.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.chars().count()).collect();
        for row in &self.rows {
            assert_eq!(row.len(), widths.len(), "a row must fill {:?}", self.columns);
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.to_string().chars().count());
            }
        }
        let line = |cells: Vec<String>| format!("| {} |\n", cells.join(" | "));
        let pad = |text: &dyn fmt::Display, width: usize| format!("{text:>width$}");
        let mut out = line(self.columns.iter().zip(&widths).map(|(c, w)| pad(c, *w)).collect());
        out.push_str(&line(widths.iter().map(|w| format!("{}:", "-".repeat(w - 1))).collect()));
        for row in &self.rows {
            out.push_str(&line(row.iter().zip(&widths).map(|(c, w)| pad(c, *w)).collect()));
        }
        out
    }
}

/// The command a line opens a generated block for, if it does.
pub fn block_name(line: &str) -> Option<&str> {
    line.strip_prefix(OPEN)?.strip_suffix(" -->")
}

/// The trimmed cells of one rendered table line.
pub fn cells_of(line: &str) -> Vec<&str> {
    line.trim().trim_matches('|').split('|').map(str::trim).collect()
}

/// Replaces the body of every generated block of `document` with the
/// rendered table of the command the block names.
///
/// # Panics
///
/// When a block names none of `tables`, is not closed, or appears twice,
/// or when one of `tables` has no block: the document and the command
/// table must not drift apart silently.
pub fn splice(document: &str, tables: &[(&str, String)]) -> String {
    let mut out = String::with_capacity(document.len());
    let mut placed = Vec::new();
    let mut lines = document.lines();
    while let Some(line) = lines.next() {
        out.push_str(line);
        out.push('\n');
        let Some(name) = block_name(line) else { continue };
        let (_, table) = tables
            .iter()
            .find(|(command, _)| *command == name)
            .unwrap_or_else(|| panic!("EXPERIMENTS.md block `{name}` names no paper command"));
        assert!(!placed.contains(&name), "EXPERIMENTS.md has two `{name}` blocks");
        placed.push(name);
        out.push_str(table);
        assert!(lines.any(|l| l == CLOSE), "EXPERIMENTS.md block `{name}` is never closed");
        out.push_str(CLOSE);
        out.push('\n');
    }
    for (command, _) in tables {
        assert!(placed.contains(command), "paper command `{command}` has no EXPERIMENTS.md block");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const COLUMNS: &[&str] = &["files", "NEXUS", "overhead", "paper"];

    fn table() -> Table {
        let row = |n, ms, ratio, paper: &str| {
            vec![
                Cell::Count(n),
                Cell::Secs(Duration::from_millis(ms)),
                Cell::Ratio(ratio),
                Cell::Text(paper.into()),
            ]
        };
        Table { columns: COLUMNS, rows: vec![row(1024, 12_510, 5.09, "19.38 s"), row(8, 6, 1.0, "")] }
    }

    #[test]
    fn renders_aligned_markdown() {
        assert_eq!(
            table().render(),
            "| files |  NEXUS | overhead |   paper |\n\
             | ----: | -----: | -------: | ------: |\n\
             |  1024 | 12.51s |    \u{d7}5.09 | 19.38 s |\n\
             |     8 |  6.0ms |    \u{d7}1.00 |         |\n"
        );
        assert_eq!(cells_of(table().render().lines().next().unwrap()), COLUMNS);
    }

    #[test]
    fn bytes_pick_their_unit() {
        let text = |n| Cell::Bytes(n).to_string();
        assert_eq!((text(306), text(95_000), text(10_485_760)), ("306 B".into(), "95.0 kB".into(), "10.5 MB".into()));
    }

    #[test]
    fn splice_replaces_block_bodies_only() {
        let doc = "intro\n<!-- nexus-bench t -->\nstale\nrows\n<!-- /nexus-bench -->\noutro\n";
        let spliced = splice(doc, &[("t", "fresh\n".into())]);
        assert_eq!(spliced, "intro\n<!-- nexus-bench t -->\nfresh\n<!-- /nexus-bench -->\noutro\n");
        assert_eq!(splice(&spliced, &[("t", "fresh\n".into())]), spliced, "idempotent");
    }

    #[test]
    #[should_panic(expected = "names no paper command")]
    fn splice_rejects_a_block_without_a_command() {
        splice("<!-- nexus-bench gone -->\n<!-- /nexus-bench -->\n", &[]);
    }

    #[test]
    #[should_panic(expected = "has no EXPERIMENTS.md block")]
    fn splice_rejects_a_command_without_a_block() {
        splice("no blocks here\n", &[("t", String::new())]);
    }
}
