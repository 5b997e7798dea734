//! Result rendering: aligned text tables and CSV for the reproduction
//! figures (`snoc repro`).

use std::cmp::Ordering;
use std::fmt::{self, Write as _};
use std::io;
use std::ops::Range;

/// Formats a float with `prec` decimals, trimming to a compact form.
#[must_use]
pub fn format_float(x: f64, prec: usize) -> String {
    CompactFloat(x, prec).to_string()
}

/// [`format_float`] as a `Display` value, for writers that format into
/// a buffer of their own.
pub(crate) struct CompactFloat(pub f64, pub usize);

impl CompactFloat {
    /// The rendering by integer arithmetic, or `None` where only
    /// `core::fmt` renders it (zero, non-finite, outside the covered
    /// ranges, a precision outside 1..=6).
    fn digits(&self) -> Option<Digits> {
        Digits::fixed(self.0, self.1).or_else(|| Digits::exponent(self.0, self.1))
    }

    /// Appends the rendering to `out`; the covered ranges without a
    /// formatter.
    pub(crate) fn push_to(self, out: &mut Vec<u8>) {
        match self.digits() {
            Some(digits) => out.extend_from_slice(digits.bytes()),
            None => {
                let _ = io::Write::write_fmt(out, format_args!("{self}"));
            }
        }
    }
}

impl fmt::Display for CompactFloat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let CompactFloat(x, prec) = *self;
        if x == 0.0 {
            f.write_str("0")
        } else if let Some(digits) = self.digits() {
            f.write_str(digits.as_str())
        } else if FIXED.contains(&x.abs()) {
            write!(f, "{x:.prec$}")
        } else {
            write!(f, "{x:.prec$e}")
        }
    }
}

/// The |x| that [`format_float`] writes in fixed point; exponent form
/// elsewhere.
const FIXED: Range<f64> = 0.01..1e6;

/// The |x| beside [`FIXED`] whose exponent form [`Digits::exponent`]
/// renders: every column the sweeps write (energies near 1e-10 J, edp
/// near 1e-7 J·s, flits/J near 1e9) with decades to spare, and narrow
/// enough that the scaled mantissa fits a `u128`.
const EXPONENT: [Range<f64>; 2] = [1e-15..0.01, 1e6..1e30];

/// Appends the decimal digits of `n`, as `n.to_string()` has them.
pub(crate) fn push_u64(out: &mut Vec<u8>, n: u64) {
    let mut digits = Digits::new();
    digits.push_int(n);
    out.extend_from_slice(digits.bytes());
}

/// `10^k` for every `k` the renderers scale by.
const POW10: [u128; 30] = {
    let mut pow = [1; 30];
    let mut k = 1;
    while k < 30 {
        pow[k] = pow[k - 1] * 10;
        k += 1;
    }
    pow
};

/// The two digits of every number below 100, in order.
const PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// ASCII built right to left in a fixed buffer: an integer, or a float
/// rendered as `core::fmt` renders it, by integer arithmetic over the
/// exact binary value. The 53-bit mantissa is scaled by a power of ten
/// and rounded half to even, exactly as `core::fmt` rounds.
struct Digits {
    /// Sign, digits, point and exponent, right-aligned.
    buf: [u8; 24],
    start: usize,
}

impl Digits {
    fn new() -> Self {
        Digits {
            buf: [0; 24],
            start: 24,
        }
    }

    fn push(&mut self, c: u8) {
        self.start -= 1;
        self.buf[self.start] = c;
    }

    /// Pushes the decimal digits of `n`, two at a time.
    fn push_int(&mut self, mut n: u64) {
        while n >= 100 {
            self.push_pair((n % 100) as usize);
            n /= 100;
        }
        if n >= 10 {
            self.push_pair(n as usize);
        } else {
            self.push(b'0' + n as u8);
        }
    }

    fn push_pair(&mut self, n: usize) {
        self.start -= 2;
        self.buf[self.start..self.start + 2].copy_from_slice(&PAIRS[2 * n..2 * n + 2]);
    }

    /// Pushes the last `count` digits of `n`, zero-padded, two at a
    /// time, and returns the digits above them.
    fn push_low(&mut self, mut n: u64, mut count: usize) -> u64 {
        while count >= 2 {
            self.push_pair((n % 100) as usize);
            n /= 100;
            count -= 2;
        }
        if count == 1 {
            self.push(b'0' + (n % 10) as u8);
            n /= 10;
        }
        n
    }

    fn bytes(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(self.bytes()).expect("ASCII digits")
    }

    /// `format!("{x:.prec$}")` for |x| in [`FIXED`] and `prec` in 1..=6.
    fn fixed(x: f64, prec: usize) -> Option<Digits> {
        if !FIXED.contains(&x.abs()) || !(1..=6).contains(&prec) {
            return None;
        }
        // x = m · 2^t with t in -59..=-33 over the range: 2^-7 < 0.01
        // and 1e6 < 2^20, so the scaled mantissa is below 2^73 and its
        // quotient, below 1e6 · 10^6 + 1, fits a u64.
        let (m, t) = parts(x);
        let shift = t.unsigned_abs();
        let scaled = u128::from(m) * POW10[prec];
        let (q, rem, half) = (
            scaled >> shift,
            scaled & ((1 << shift) - 1),
            1 << (shift - 1),
        );
        let up = rem > half || rem == half && q & 1 == 1;
        let q = q as u64;
        let mut digits = Digits::new();
        let whole = digits.push_low(q + u64::from(up), prec);
        digits.push(b'.');
        digits.push_int(whole);
        if x < 0.0 {
            digits.push(b'-');
        }
        Some(digits)
    }

    /// `format!("{x:.prec$e}")` for |x| in [`EXPONENT`] and `prec` in
    /// 1..=6: `prec + 1` significant digits, rounded once, and a carry
    /// into the next power of ten (9.9999995e-3 → `1.000000e-2`).
    fn exponent(x: f64, prec: usize) -> Option<Digits> {
        if !EXPONENT.iter().any(|r| r.contains(&x.abs())) || !(1..=6).contains(&prec) {
            return None;
        }
        let (m, t) = parts(x);
        let unit = POW10[prec] as u64;
        // With 2^e ≤ |x| < 2^(e+1), the decimal exponent is ⌊e·log10 2⌋
        // or one more; (e · 78913) >> 18 is that floor for |e| < 1650.
        let below = ((t + 52) * 78_913) >> 18;
        let (q, rem, exact) = scaled(m, t, prec as i32 - below);
        let (mut power, mut q) = if q < 10 * unit {
            (below, q + u64::from(rounds_up(q, rem)))
        } else {
            // One digit too many: |x| ≥ 10^(below + 1). Drop it, and
            // round on it and on whether anything lies below it.
            let (q, dropped) = (q / 10, q % 10);
            let tie = if exact {
                Ordering::Equal
            } else {
                Ordering::Greater
            };
            (
                below + 1,
                q + u64::from(rounds_up(q, dropped.cmp(&5).then(tie))),
            )
        };
        if q == 10 * unit {
            q = unit;
            power += 1;
        }
        let mut digits = Digits::new();
        digits.push_int(u64::from(power.unsigned_abs()));
        if power < 0 {
            digits.push(b'-');
        }
        digits.push(b'e');
        let lead = digits.push_low(q, prec);
        digits.push(b'.');
        digits.push_int(lead);
        if x < 0.0 {
            digits.push(b'-');
        }
        Some(digits)
    }
}

/// The mantissa and binary exponent of a normal `x`: |x| = m · 2^t.
fn parts(x: f64) -> (u64, i32) {
    let bits = x.to_bits();
    let m = bits & ((1 << 52) - 1) | 1 << 52;
    (m, ((bits >> 52) & 0x7ff) as i32 - 1075)
}

/// ⌊m · 2^t · 10^d⌋, its remainder against half a unit, and whether the
/// remainder is zero. The callers' ranges keep the numerator and
/// denominator below 2^127.
fn scaled(m: u64, t: i32, d: i32) -> (u64, Ordering, bool) {
    let mut num = u128::from(m) * POW10[d.max(0).unsigned_abs() as usize];
    let ten = POW10[(-d).max(0).unsigned_abs() as usize];
    let shift = (-t).max(0).unsigned_abs();
    num <<= t.max(0);
    let den = ten << shift;
    let (q, rem) = match (u64::try_from(num), u64::try_from(den)) {
        // A power of two: a shift and a mask.
        _ if ten == 1 => (num >> shift, num & (den - 1)),
        // One 64-bit division where 128 bits are not needed.
        (Ok(num), Ok(den)) => (u128::from(num / den), u128::from(num % den)),
        _ => (num / den, num % den),
    };
    (q as u64, rem.cmp(&(den - rem)), rem == 0)
}

/// Whether `q` with a remainder `rem` against half a unit rounds half
/// to even up.
fn rounds_up(q: u64, rem: Ordering) -> bool {
    rem == Ordering::Greater || rem == Ordering::Equal && q & 1 == 1
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
            let mut pushed = Vec::new();
            CompactFloat(x, prec).push_to(&mut pushed);
            let pushed = String::from_utf8(pushed).expect("ASCII");
            prop_assert!(
                shown == want && pushed == want,
                "{x:e} at {prec}: `{shown}`, `{pushed}`, want `{want}`"
            );
            prop_assert_eq!(Digits::fixed(x, prec).is_some(), covered);
            let exponent = EXPONENT.iter().any(|r| r.contains(&x.abs()));
            prop_assert_eq!(Digits::exponent(x, prec).is_some(), exponent);
        }
        Ok(())
    }

    /// A random sign and mantissa under a biased exponent drawn from
    /// `exps`.
    fn random_f64(rng: &mut TestRng, exps: Range<u64>) -> f64 {
        let exp = exps.start + rng.next_u64() % (exps.end - exps.start);
        f64::from_bits(rng.next_u64() & (1 << 63 | ((1 << 52) - 1)) | exp << 52)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn the_fixed_renderer_is_fmt_byte_for_byte(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::from_name(&seed.to_string());
            for _ in 0..256 {
                // A random mantissa and sign under an exponent that
                // spans the covered range and a step past each end.
                renders_as_fmt(random_f64(&mut rng, 1023 - 8..1023 + 21))?;
            }
        }

        #[test]
        fn the_exponent_renderer_is_fmt_byte_for_byte(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::from_name(&seed.to_string());
            for _ in 0..256 {
                // Both exponent ranges, from three binades below 1e-15
                // to three above 1e30, the fixed range between them.
                renders_as_fmt(random_f64(&mut rng, 1023 - 53..1023 + 103))?;
            }
        }
    }

    #[test]
    fn exponent_ties_round_half_to_even_and_carry_into_the_next_power() {
        // A small binary fraction has a short exact decimal expansion:
        // 2^-10 = 9.765625e-4 is a tie at five decimals.
        assert_eq!(format_float(2f64.powi(-10), 5), "9.76562e-4");
        assert_eq!(format_float(3.0 * 2f64.powi(-10), 5), "2.92969e-3");
        for grid in 8..=52 {
            let scale = 2f64.powi(grid);
            for k in 1..2_000u32 {
                renders_as_fmt(f64::from(k) / scale).unwrap();
                renders_as_fmt(-f64::from(k) / scale).unwrap();
            }
        }
        // Integers are exact: (10q + 5) · 10^k is a tie at the digits
        // of q, whose last digit alternates with q.
        assert_eq!(format_float(1_250_000.0, 1), "1.2e6");
        assert_eq!(format_float(1_350_000.0, 1), "1.4e6");
        for q in (10..100).chain(123_456..123_476) {
            let mut n = (10 * q + 5) as f64;
            while n < 1e30 {
                renders_as_fmt(n).unwrap();
                n *= 10.0;
            }
        }
        // Just below a power of ten the mantissa carries into the next.
        assert_eq!(format_float(9.9999995e-3, 6), "1.000000e-2");
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        for power in -16..=31 {
            let x = 10f64.powi(power);
            for x in [
                x,
                below(x),
                f64::from_bits(x.to_bits() + 1),
                x * (1.0 - 4e-8),
            ] {
                renders_as_fmt(x).unwrap();
                renders_as_fmt(-x).unwrap();
            }
        }
    }

    #[test]
    fn the_integer_writer_is_to_string() {
        let mut numbers = vec![0, u64::MAX];
        let mut power = 1u64;
        loop {
            numbers.extend([power - 1, power]);
            match power.checked_mul(10) {
                Some(next) => power = next,
                None => break,
            }
        }
        for n in numbers {
            let mut written = Vec::new();
            push_u64(&mut written, n);
            assert_eq!(written, n.to_string().into_bytes());
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
