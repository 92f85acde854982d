//! Markdown table / series printing for experiment output.

/// A simple markdown table builder.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Table with one column per thread count (`"{t} thr"`) between a
    /// leading label column and any trailing `extra` columns.
    pub fn per_thread(label: &str, threads: &[usize], extra: &[&str]) -> Table {
        let mut header = vec![label.to_string()];
        header.extend(threads.iter().map(|t| format!("{t} thr")));
        header.extend(extra.iter().map(|s| s.to_string()));
        Table { header, rows: Vec::new() }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as markdown.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {c:<w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats ops/sec with a thousands-aware unit.
pub fn fmt_tput(ops_per_sec: f64) -> String {
    if ops_per_sec >= 1e6 {
        format!("{:.2} Mops/s", ops_per_sec / 1e6)
    } else if ops_per_sec >= 1e3 {
        format!("{:.1} Kops/s", ops_per_sec / 1e3)
    } else {
        format!("{ops_per_sec:.0} ops/s")
    }
}

/// Formats nanoseconds human-readably.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new(&["tree", "ops"]);
        t.row(vec!["RNTree".into(), "123".into()]);
        t.row(vec!["x".into(), "4".into()]);
        let r = t.render();
        assert!(r.contains("| tree   | ops |"));
        assert!(r.contains("| RNTree | 123 |"));
        assert!(r.lines().count() == 4);
    }

    #[test]
    fn formatting_units() {
        assert_eq!(fmt_tput(2_500_000.0), "2.50 Mops/s");
        assert_eq!(fmt_tput(2_500.0), "2.5 Kops/s");
        assert_eq!(fmt_tput(25.0), "25 ops/s");
        assert_eq!(fmt_ns(500), "500 ns");
        assert_eq!(fmt_ns(2_500), "2.50 µs");
        assert_eq!(fmt_ns(2_500_000), "2.50 ms");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }
}
