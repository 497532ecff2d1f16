//! Aligned text tables + CSV output for benchmark results.
//!
//! Every benchmark binary prints a human-readable table; most also write a
//! best-effort CSV copy under `target/experiments/`. The numbers that are
//! tracked PR over PR go to the binary's `BENCH_*.json` instead.

use std::fmt::Write as _;
use std::io::Write as _;

/// A simple column-aligned report table.
#[derive(Debug, Clone)]
pub struct TableReport {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableReport {
    /// Start a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render the aligned table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut s = String::new();
            for (w, cell) in widths.iter().zip(cells) {
                let _ = write!(s, "{cell:>w$}  ", w = w);
            }
            let _ = writeln!(out, "{}", s.trim_end());
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().map(|w| w + 2).sum();
        let _ = writeln!(out, "{}", "-".repeat(total.saturating_sub(2)));
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Write a CSV copy under `target/experiments/<name>.csv`, best-effort.
    pub fn write_csv(&self, name: &str) {
        let dir = std::path::Path::new("target/experiments");
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let path = dir.join(format!("{name}.csv"));
        let Ok(mut f) = std::fs::File::create(&path) else {
            return;
        };
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(
            f,
            "{}",
            self.header
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                f,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        eprintln!("[csv] wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = TableReport::new("demo", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer-name".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("longer-name"));
        // Leading blank, title, header, separator, two rows.
        assert_eq!(s.lines().count(), 6);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = TableReport::new("demo", &["a", "b"]);
        t.row(&["only-one".into()]);
    }
}
