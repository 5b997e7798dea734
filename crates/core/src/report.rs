//! Result rendering: aligned text tables and CSV for the reproduction
//! figures (`snoc repro`).

use std::fmt::{self, Write as _};
use std::io;

/// Formats a float with `prec` decimals, trimming to a compact form.
#[must_use]
pub fn format_float(x: f64, prec: usize) -> String {
    CompactFloat(x, prec).to_string()
}

/// [`format_float`] as a `Display` value, for writers that format into
/// a buffer of their own.
pub(crate) struct CompactFloat(pub f64, pub usize);

impl fmt::Display for CompactFloat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let CompactFloat(x, prec) = *self;
        if x == 0.0 {
            f.write_str("0")
        } else if (0.01..1e6).contains(&x.abs()) {
            write!(f, "{x:.prec$}")
        } else {
            write!(f, "{x:.prec$e}")
        }
    }
}

/// An aligned text table with a title, printable to stdout or CSV.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TextTable {
    /// Table title (figure/table identifier in the reproductions).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        TextTable {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "# {}", self.title);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let _ = write!(line, "{:<width$}", cells[i], width = widths[i]);
            }
            line.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("--")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Renders the table as CSV (headers + rows; the title becomes a
    /// comment line).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let escape = |s: &str| -> String {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "# {}", self.title);
        }
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Writes the table to `out`: CSV, or the aligned text followed by
    /// a blank line.
    ///
    /// # Errors
    ///
    /// Propagates write errors from `out`.
    pub fn write_to(&self, out: &mut dyn io::Write, csv: bool) -> io::Result<()> {
        if csv {
            out.write_all(self.to_csv().as_bytes())
        } else {
            writeln!(out, "{}", self.render())
        }
    }

    /// Prints the table to stdout (text or CSV depending on the flag).
    ///
    /// # Panics
    ///
    /// Panics if stdout cannot be written, like `print!`.
    pub fn print(&self, csv: bool) {
        self.write_to(&mut io::stdout().lock(), csv)
            .expect("failed printing to stdout");
    }
}

/// A named data series (one curve of a figure).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Series {
    /// Curve label.
    pub name: String,
    /// `(x, y)` data points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Converts several series into one table keyed by x (missing
    /// values print as `-`). X values are matched exactly by formatting.
    #[must_use]
    pub fn tabulate(title: impl Into<String>, x_label: &str, series: &[Series]) -> TextTable {
        let mut headers = vec![x_label];
        for s in series {
            headers.push(&s.name);
        }
        let mut table = TextTable::new(title, &headers);
        // Collect x values in first-seen order.
        let mut xs: Vec<String> = Vec::new();
        for s in series {
            for &(x, _) in &s.points {
                let key = format_float(x, 4);
                if !xs.contains(&key) {
                    xs.push(key);
                }
            }
        }
        for x in &xs {
            let mut row = vec![x.clone()];
            for s in series {
                let v = s
                    .points
                    .iter()
                    .find(|(px, _)| &format_float(*px, 4) == x)
                    .map(|(_, y)| format_float(*y, 3));
                row.push(v.unwrap_or_else(|| "-".to_string()));
            }
            table.push_row(row);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_formatting() {
        assert_eq!(format_float(0.0, 3), "0");
        assert_eq!(format_float(1.5, 2), "1.50");
        assert_eq!(format_float(1234.5678, 1), "1234.6");
        assert!(format_float(1.0e-7, 2).contains('e'));
        assert!(format_float(3.0e9, 2).contains('e'));
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new("Demo", &["name", "value"]);
        t.push_row(vec!["alpha".into(), "1".into()]);
        t.push_row(vec!["b".into(), "22222".into()]);
        let r = t.render();
        assert!(r.contains("# Demo"));
        assert!(r.contains("alpha"));
        let lines: Vec<&str> = r.lines().collect();
        // header, separator, two rows.
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = TextTable::new("x", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = TextTable::new("T", &["a", "b"]);
        t.push_row(vec!["x,y".into(), "plain".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\",plain"));
    }

    #[test]
    fn write_to_emits_what_print_prints() {
        let mut t = TextTable::new("T", &["a", "b"]);
        t.push_row(vec!["x,y".into(), "plain".into()]);
        let (mut text, mut csv) = (Vec::new(), Vec::new());
        t.write_to(&mut text, false).unwrap();
        t.write_to(&mut csv, true).unwrap();
        assert_eq!(text, format!("{}\n", t.render()).into_bytes());
        assert_eq!(csv, t.to_csv().into_bytes());
    }

    #[test]
    fn series_tabulation_merges_x_values() {
        let mut a = Series::new("sn");
        a.push(0.01, 20.0);
        a.push(0.02, 22.0);
        let mut b = Series::new("fbf");
        b.push(0.01, 25.0);
        let t = Series::tabulate("Fig", "load", &[a, b]);
        assert_eq!(t.headers, vec!["load", "sn", "fbf"]);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[1][2], "-");
    }
}
