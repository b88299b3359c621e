//! Shared harness for the figure/table reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` §5 for the index). This library provides the common
//! plumbing: CLI options, aligned table rendering, CSV output, and the
//! qualitative *shape checks* that stand in for the paper's absolute
//! numbers (our latency matrix is synthetic; shapes — who wins, by what
//! factor, where curves flatten — are the reproducible part).

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

pub mod figures;

/// Options shared by all figure binaries.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Number of seeds to average over (paper: 30).
    pub seeds: u64,
    /// Number of topology nodes (paper: 226 PlanetLab nodes).
    pub nodes: usize,
    /// Where CSV output is written.
    pub out_dir: PathBuf,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            seeds: 30,
            nodes: 226,
            out_dir: PathBuf::from("results"),
        }
    }
}

impl HarnessOptions {
    /// Parses `--seeds N`, `--nodes N`, `--out DIR`, `--quick` (5 seeds)
    /// from the process arguments. Unknown arguments abort with a usage
    /// message.
    pub fn from_args() -> Self {
        let mut opts = HarnessOptions::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--seeds" => {
                    i += 1;
                    opts.seeds = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--seeds needs a number"));
                }
                "--nodes" => {
                    i += 1;
                    opts.nodes = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--nodes needs a number"));
                }
                "--out" => {
                    i += 1;
                    opts.out_dir = args
                        .get(i)
                        .map(PathBuf::from)
                        .unwrap_or_else(|| usage("--out needs a directory"));
                }
                "--quick" => opts.seeds = 5,
                other => usage(&format!("unknown argument {other:?}")),
            }
            i += 1;
        }
        opts
    }

    /// The seed list.
    pub fn seed_range(&self) -> std::ops::Range<u64> {
        0..self.seeds
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: <bin> [--seeds N] [--nodes N] [--out DIR] [--quick]");
    std::process::exit(2);
}

/// A rendered results table: header row plus data rows.
#[derive(Debug, Clone, Default)]
pub struct ResultTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(header: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        ResultTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics when the arity differs from the header.
    pub fn push_row<I, S>(&mut self, row: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}", w = w);
            }
            out.push('\n');
        };
        fmt_row(&self.header, &widths, &mut out);
        for w in &widths {
            out.push_str(&"-".repeat(w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }

    /// Writes the table as CSV into `dir/name.csv`, creating `dir` if
    /// needed. Returns the path written. I/O errors are reported and
    /// swallowed (a figure run should not die on a read-only checkout).
    pub fn write_csv(&self, dir: &std::path::Path, name: &str) -> Option<PathBuf> {
        let escape = |s: &str| {
            if s.contains(',') {
                format!("\"{s}\"")
            } else {
                s.to_string()
            }
        };
        let mut csv = String::new();
        csv.push_str(
            &self
                .header
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        csv.push('\n');
        for row in &self.rows {
            csv.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            csv.push('\n');
        }
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return None;
        }
        let path = dir.join(format!("{name}.csv"));
        match fs::write(&path, csv) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("warning: cannot write {}: {e}", path.display());
                None
            }
        }
    }
}

/// One qualitative expectation from the paper, checked against our numbers.
#[derive(Debug, Clone)]
pub struct ShapeCheck {
    /// What the paper reports.
    pub claim: String,
    /// Whether our reproduction exhibits it.
    pub holds: bool,
    /// Supporting detail (measured numbers).
    pub detail: String,
}

impl ShapeCheck {
    /// Creates a check.
    pub fn new(claim: &str, holds: bool, detail: String) -> Self {
        ShapeCheck {
            claim: claim.to_string(),
            holds,
            detail,
        }
    }
}

/// Prints the check list and returns how many failed.
pub fn report_checks(checks: &[ShapeCheck]) -> usize {
    println!("\nshape checks against the paper:");
    let mut failed = 0;
    for c in checks {
        let mark = if c.holds { "PASS" } else { "FAIL" };
        if !c.holds {
            failed += 1;
        }
        println!("  [{mark}] {} — {}", c.claim, c.detail);
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = ResultTable::new(["k", "random", "online"]);
        t.push_row(["1", "120.0", "80.5"]);
        t.push_row(["2", "118.2", "60.17"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("random"));
        assert!(lines[1].starts_with('-'));
        assert!(lines[2].ends_with("80.5"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = ResultTable::new(["a", "b"]);
        t.push_row(["1"]);
    }

    #[test]
    fn csv_written_to_temp_dir() {
        let mut t = ResultTable::new(["a", "b"]);
        t.push_row(["1", "2,5"]);
        let dir = std::env::temp_dir().join("georep-bench-test");
        let path = t.write_csv(&dir, "unit").unwrap();
        let content = fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,\"2,5\"\n");
        let _ = fs::remove_file(path);
    }

    #[test]
    fn checks_count_failures() {
        let checks = vec![
            ShapeCheck::new("x", true, "ok".into()),
            ShapeCheck::new("y", false, "bad".into()),
        ];
        assert_eq!(report_checks(&checks), 1);
    }
}
