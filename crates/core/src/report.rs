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

impl CompactFloat {
    /// Appends the rendering to `out`; the fixed branch without a
    /// formatter.
    pub(crate) fn push_to(self, out: &mut String) {
        match Fixed::new(self.0, self.1) {
            Some(fixed) => out.push_str(fixed.as_str()),
            None => {
                let _ = write!(out, "{self}");
            }
        }
    }
}

impl fmt::Display for CompactFloat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let CompactFloat(x, prec) = *self;
        if x == 0.0 {
            f.write_str("0")
        } else if let Some(fixed) = Fixed::new(x, prec) {
            f.write_str(fixed.as_str())
        } else if (0.01..1e6).contains(&x.abs()) {
            write!(f, "{x:.prec$}")
        } else {
            write!(f, "{x:.prec$e}")
        }
    }
}

/// `format!("{x:.prec$}")` for |x| in [0.01, 1e6) and `prec` in 1..=6,
/// by integer arithmetic: the 53-bit mantissa times 10^prec, shifted
/// down to the integer part with the remainder rounded half to even,
/// exactly as `core::fmt` rounds the exact binary value.
struct Fixed {
    /// Sign, digits and point, right-aligned.
    buf: [u8; 16],
    start: usize,
}

impl Fixed {
    /// The rendering, or `None` outside the covered range.
    fn new(x: f64, prec: usize) -> Option<Fixed> {
        if !(0.01..1e6).contains(&x.abs()) || !(1..=6).contains(&prec) {
            return None;
        }
        let bits = x.to_bits();
        let mantissa = u128::from(bits & ((1 << 52) - 1) | 1 << 52);
        // x = mantissa · 2^-shift with shift in 33..=59 over the range:
        // 2^-7 < 0.01 and 1e6 < 2^20.
        let shift = 1075 - ((bits >> 52) & 0x7ff) as u32;
        let scaled = mantissa * 10u128.pow(prec as u32);
        let (mut q, rem) = (scaled >> shift, scaled & ((1 << shift) - 1));
        let half = 1 << (shift - 1);
        if rem > half || (rem == half && q & 1 == 1) {
            q += 1;
        }
        // Below 1e6 · 10^6 + 1, so the digits fit a u64 and the buffer.
        let mut q = q as u64;
        let mut fixed = Fixed {
            buf: [0; 16],
            start: 16,
        };
        let mut push = |c: u8| {
            fixed.start -= 1;
            fixed.buf[fixed.start] = c;
        };
        for _ in 0..prec {
            push(b'0' + (q % 10) as u8);
            q /= 10;
        }
        push(b'.');
        loop {
            push(b'0' + (q % 10) as u8);
            q /= 10;
            if q == 0 {
                break;
            }
        }
        if x < 0.0 {
            push(b'-');
        }
        Some(fixed)
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[self.start..]).expect("ASCII digits")
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
    use proptest::prelude::*;

    #[test]
    fn float_formatting() {
        assert_eq!(format_float(0.0, 3), "0");
        assert_eq!(format_float(1.5, 2), "1.50");
        assert_eq!(format_float(1234.5678, 1), "1234.6");
        assert!(format_float(1.0e-7, 2).contains('e'));
        assert!(format_float(3.0e9, 2).contains('e'));
    }

    /// What `format_float` rendered through `core::fmt` alone.
    fn by_fmt(x: f64, prec: usize) -> String {
        if x == 0.0 {
            "0".to_string()
        } else if (0.01..1e6).contains(&x.abs()) {
            format!("{x:.prec$}")
        } else {
            format!("{x:.prec$e}")
        }
    }

    /// Checks `x` at every precision the workspace renders, through
    /// both entry points, against `core::fmt`.
    fn renders_as_fmt(x: f64) -> Result<(), TestCaseError> {
        let covered = (0.01..1e6).contains(&x.abs());
        for prec in 1..=6 {
            let (want, shown) = (by_fmt(x, prec), format_float(x, prec));
            let mut pushed = String::new();
            CompactFloat(x, prec).push_to(&mut pushed);
            prop_assert!(
                shown == want && pushed == want,
                "{x:e} at {prec}: `{shown}`, `{pushed}`, want `{want}`"
            );
            prop_assert_eq!(Fixed::new(x, prec).is_some(), covered);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn the_fixed_renderer_is_fmt_byte_for_byte(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::from_name(&seed.to_string());
            for _ in 0..256 {
                // A random mantissa and sign under an exponent that
                // spans the covered range and a step past each end.
                let exp = 1023 - 8 + rng.next_u64() % 29;
                let bits = rng.next_u64() & (1 << 63 | ((1 << 52) - 1)) | exp << 52;
                renders_as_fmt(f64::from_bits(bits))?;
            }
        }
    }

    #[test]
    fn exact_ties_round_half_to_even_and_carries_reach_1e6() {
        // k / 2^(prec+1) for odd k is an exact tie at `prec` decimals:
        // on the 2^-7 grid, 0.0078125 is the tie `0.007812` (below the
        // fixed range, so in exponent form here) and 0.0234375 is the
        // tie `0.023438`.
        assert_eq!(format_float(0.0078125, 6), "7.812500e-3");
        assert_eq!(format_float(0.0234375, 6), "0.023438");
        assert_eq!(format_float(0.015625, 5), "0.01562");
        assert_eq!(format_float(-0.25, 1), "-0.2");
        assert_eq!(format_float(0.75, 1), "0.8");
        assert_eq!(format_float(-0.01, 1), "-0.0");
        for grid in 2..=7 {
            let scale = f64::from(1u32 << grid);
            for k in (1..20_000u32).chain(999_990 << grid..1_000_000 << grid) {
                renders_as_fmt(f64::from(k) / scale).unwrap();
                renders_as_fmt(-f64::from(k) / scale).unwrap();
            }
        }
        // Just below each power of ten the digits carry over.
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        assert_eq!(format_float(below(1e6), 6), "1000000.000000");
        assert_eq!(format_float(below(1e6), 1), "1000000.0");
        for x in [0.1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6] {
            for x in [below(x), -below(x), x, below(x - 0.5e-6), x - 0.5e-6, 0.01] {
                renders_as_fmt(x).unwrap();
            }
        }
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
