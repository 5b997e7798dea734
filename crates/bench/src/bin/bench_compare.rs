//! Compares `cargo bench` output against a recorded baseline, or
//! records a new baseline — the tool behind the `bench-regression` CI
//! job, equally usable locally:
//!
//! ```text
//! cargo bench -p snoc_bench | tee bench.out
//! cargo run --release -p snoc_bench --bin bench_compare -- \
//!     --baseline BENCH_baseline.json --results bench.out
//! ```
//!
//! The vendored criterion stand-in prints one `CRITERION_JSONL:` line
//! per benchmark; this tool scrapes those from the raw bench output.
//! In compare mode, benchmarks whose names start with the `--pattern`
//! prefix (default `simulation/`) are checked against the baseline and
//! the run **fails on calibrated ratios above `--max-ratio`** (default
//! 2.0 — a deliberately generous tolerance: CI machines are noisy, and
//! the job should only catch real hot-path regressions, not jitter).
//! Ratios are divided by a machine-speed calibration factor — the
//! median ratio of the benchmarks *outside* the pattern — so a
//! uniformly slower or faster machine than the one that recorded the
//! baseline does not shift the verdict (trends, not absolutes).
//! Matched baseline entries missing from the results also fail, so a
//! regression cannot hide behind a renamed or deleted benchmark.
//!
//! Beyond the regression gate, `--min-speedup N` asserts that every
//! benchmark matching `--speedup-pattern` (default
//! `simulation/lowload_`) runs at least `N`x *faster* than its baseline
//! entry (after the same machine-speed calibration) — the gate that
//! keeps the event-accelerated cycle loop's low-load win from silently
//! eroding. The baseline's lowload entries were deliberately recorded
//! just before that optimization landed, so the speedup is measured
//! against the pre-event cycle loop.
//!
//! `--gate 'GLOB>=N'` (repeatable) asserts a per-pattern minimum
//! calibrated speedup: every baseline benchmark whose name matches the
//! glob (`*` matches any substring; the glob is tried against the full
//! name and against the part after the last `/`, so
//! `--gate 'satload_*>=1.5'` covers `simulation/satload_sn_s_rnd`)
//! must run at least `N`x faster than its baseline entry. A gate that
//! matches nothing fails — a misspelled pattern must not pass silently.
//!
//! `--table-out FILE` additionally writes the rendered before/after
//! ratio table to a file (pass or fail) so CI can upload it as an
//! artifact.
//!
//! In record mode (`--record out.json`) the scraped results are
//! written in the `BENCH_baseline.json` schema; re-record after an
//! intentional perf change and commit the file.

#![forbid(unsafe_code)]

use std::process::ExitCode;

/// One scraped or parsed benchmark measurement.
#[derive(Debug, Clone, PartialEq)]
struct Measurement {
    name: String,
    mean_ns: f64,
    iters: u64,
}

fn main() -> ExitCode {
    let mut baseline_path = "BENCH_baseline.json".to_string();
    let mut results_path = None;
    let mut record_path = None;
    let mut pattern = "simulation/".to_string();
    let mut max_ratio = 2.0f64;
    let mut min_speedup = 0.0f64;
    let mut speedup_pattern = "simulation/lowload_".to_string();
    let mut pattern_gates: Vec<SpeedupGate> = Vec::new();
    let mut table_out = None;
    let mut notes = String::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--baseline" => baseline_path = value("--baseline"),
            "--results" => results_path = Some(value("--results")),
            "--record" => record_path = Some(value("--record")),
            "--pattern" => pattern = value("--pattern"),
            "--max-ratio" => {
                max_ratio = value("--max-ratio").parse().unwrap_or_else(|e| {
                    eprintln!("--max-ratio: {e}");
                    std::process::exit(2);
                });
            }
            "--min-speedup" => {
                min_speedup = value("--min-speedup").parse().unwrap_or_else(|e| {
                    eprintln!("--min-speedup: {e}");
                    std::process::exit(2);
                });
            }
            "--speedup-pattern" => speedup_pattern = value("--speedup-pattern"),
            "--gate" => {
                let spec = value("--gate");
                match parse_gate(&spec) {
                    Ok(g) => pattern_gates.push(g),
                    Err(e) => {
                        eprintln!("--gate {spec}: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--table-out" => table_out = Some(value("--table-out")),
            "--notes" => notes = value("--notes"),
            "--help" | "-h" => {
                eprintln!(
                    "usage: bench_compare --results BENCH_OUT \
                     [--baseline BENCH_baseline.json] [--pattern simulation/] \
                     [--max-ratio 2.0] [--min-speedup 5.0] \
                     [--speedup-pattern simulation/lowload_] \
                     [--gate 'GLOB>=N']... [--table-out FILE] \
                     [--record NEW_BASELINE.json] [--notes TEXT]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    let Some(results_path) = results_path else {
        eprintln!("--results is required (raw `cargo bench` output)");
        return ExitCode::from(2);
    };
    let raw = match std::fs::read_to_string(&results_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {results_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let results = scrape_jsonl(&raw);
    if results.is_empty() {
        eprintln!("{results_path}: no CRITERION_JSONL lines found");
        return ExitCode::from(2);
    }

    if let Some(record_path) = record_path {
        let json = render_baseline(&results, &notes);
        if let Err(e) = std::fs::write(&record_path, json) {
            eprintln!("cannot write {record_path}: {e}");
            return ExitCode::from(2);
        }
        println!("recorded {} benchmarks to {record_path}", results.len());
        return ExitCode::SUCCESS;
    }

    let baseline_raw = match std::fs::read_to_string(&baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {baseline_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let baseline = parse_measurements(&baseline_raw);
    let gates = Gates {
        pattern: &pattern,
        max_ratio,
        min_speedup,
        speedup_pattern: &speedup_pattern,
        pattern_gates: &pattern_gates,
    };
    let outcome = compare(&baseline, &results, &gates);
    let report = match &outcome {
        Ok(report) | Err(report) => report.as_str(),
    };
    // Print the report before attempting the table write: a failed
    // write must not swallow an already-computed gate verdict.
    print!("{report}");
    let mut table_failed = false;
    if let Some(path) = table_out {
        if let Err(e) = std::fs::write(&path, report) {
            eprintln!("cannot write {path}: {e}");
            table_failed = true;
        }
    }
    if outcome.is_err() {
        eprintln!(
            "bench-regression check FAILED (tolerance {max_ratio}x, min speedup {min_speedup}x)"
        );
        return ExitCode::FAILURE;
    }
    if table_failed {
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}

/// The comparison thresholds and name filters of one `compare` run.
struct Gates<'a> {
    /// Prefix of the benchmarks gated against `max_ratio`.
    pattern: &'a str,
    /// Fail when a calibrated current/baseline ratio exceeds this.
    max_ratio: f64,
    /// Fail when a `speedup_pattern` benchmark's calibrated speedup
    /// (baseline/current) falls below this (`<= 0` disables the gate).
    min_speedup: f64,
    /// Prefix of the benchmarks gated against `min_speedup`.
    speedup_pattern: &'a str,
    /// Per-pattern minimum-speedup gates (`--gate 'GLOB>=N'`).
    pattern_gates: &'a [SpeedupGate],
}

/// One `--gate 'GLOB>=N'` assertion: every baseline benchmark matching
/// the glob must show at least this calibrated speedup.
#[derive(Debug, Clone, PartialEq)]
struct SpeedupGate {
    /// Glob over benchmark names; `*` matches any substring. Tried
    /// against the full name and against the part after the last `/`.
    glob: String,
    /// Minimum calibrated speedup (baseline / current).
    min_speedup: f64,
}

/// Parses a `GLOB>=N` gate specification.
fn parse_gate(spec: &str) -> Result<SpeedupGate, String> {
    let (glob, threshold) = spec
        .split_once(">=")
        .ok_or_else(|| "expected `GLOB>=N`".to_string())?;
    let glob = glob.trim();
    if glob.is_empty() {
        return Err("empty glob".to_string());
    }
    let min_speedup: f64 = threshold
        .trim()
        .parse()
        .map_err(|e| format!("bad threshold `{}`: {e}", threshold.trim()))?;
    if !min_speedup.is_finite() || min_speedup <= 0.0 {
        return Err(format!("threshold must be positive, got {min_speedup}"));
    }
    Ok(SpeedupGate {
        glob: glob.to_string(),
        min_speedup,
    })
}

/// Whether `name` matches `glob`, where `*` matches any (possibly
/// empty) substring and everything else is literal. Anchored at both
/// ends: `satload_*` matches `satload_x` but not `x_satload_y`.
fn glob_match(glob: &str, name: &str) -> bool {
    let mut segments = glob.split('*');
    // The first segment is anchored at the start.
    let Some(first) = segments.next() else {
        return glob == name; // unreachable: split always yields one
    };
    let Some(rest) = name.strip_prefix(first) else {
        return false;
    };
    let mut rest = rest;
    let mut last: Option<&str> = None;
    for seg in segments {
        // Place the previously deferred segment at the earliest match;
        // the final segment is instead anchored at the end below.
        if let Some(prev) = last {
            match rest.find(prev) {
                Some(pos) => rest = &rest[pos + prev.len()..],
                None => return false,
            }
        }
        last = Some(seg);
    }
    match last {
        // No `*` in the glob at all: exact match required.
        None => rest.is_empty(),
        Some(tail) => rest.ends_with(tail),
    }
}

/// Whether a gate covers a benchmark: the glob is tried against the
/// full name and, for convenience (`satload_*` instead of
/// `simulation/satload_*`), against the part after the last `/`.
fn gate_matches(gate: &SpeedupGate, name: &str) -> bool {
    glob_match(&gate.glob, name)
        || name
            .rsplit_once('/')
            .is_some_and(|(_, base)| glob_match(&gate.glob, base))
}

/// Extracts `CRITERION_JSONL: {...}` lines from raw bench output.
fn scrape_jsonl(raw: &str) -> Vec<Measurement> {
    raw.lines()
        .filter_map(|l| l.strip_prefix("CRITERION_JSONL: "))
        .filter_map(parse_measurement_object)
        .collect()
}

/// Parses every `{"name": ..., "mean_ns": ..., "iters": ...}` object in
/// a JSON document. Not a general JSON parser — just enough for the two
/// schemas this workspace produces (the build is offline, no serde).
fn parse_measurements(json: &str) -> Vec<Measurement> {
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(pos) = rest.find("\"name\"") {
        let chunk = &rest[pos..];
        let end = chunk.find('}').map_or(chunk.len(), |e| e + 1);
        if let Some(m) = parse_measurement_object(&chunk[..end]) {
            out.push(m);
        }
        rest = &rest[pos + 6..];
    }
    out
}

/// Parses one benchmark object from its JSON text.
fn parse_measurement_object(obj: &str) -> Option<Measurement> {
    let name = string_field(obj, "name")?;
    let mean_ns = number_field(obj, "mean_ns")?;
    let iters = number_field(obj, "iters")? as u64;
    Some(Measurement {
        name,
        mean_ns,
        iters,
    })
}

/// Extracts a string field value (`"key": "value"` or `"key":"value"`).
fn string_field(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\"");
    let after = &obj[obj.find(&pat)? + pat.len()..];
    let after = after.trim_start().strip_prefix(':')?.trim_start();
    let after = after.strip_prefix('"')?;
    Some(after[..after.find('"')?].to_string())
}

/// Extracts a numeric field value.
fn number_field(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\"");
    let after = &obj[obj.find(&pat)? + pat.len()..];
    let after = after.trim_start().strip_prefix(':')?.trim_start();
    let end = after
        .find(|c: char| !(c.is_ascii_digit() || ".eE+-".contains(c)))
        .unwrap_or(after.len());
    after[..end].parse().ok()
}

/// Renders measurements in the `BENCH_baseline.json` schema.
fn render_baseline(results: &[Measurement], notes: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"slim_noc-bench-baseline-v1\",\n");
    let _ = writeln!(out, "  \"recorded\": \"{}\",", today_utc());
    let _ = writeln!(out, "  \"notes\": \"{}\",", snoc_core::json::escape(notes));
    out.push_str("  \"command\": \"cargo bench -p snoc_bench\",\n  \"benchmarks\": [\n");
    for (i, m) in results.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\n      \"name\": \"{}\",\n      \"mean_ns\": {:.1},\n      \"iters\": {}\n    }}",
            m.name, m.mean_ns, m.iters
        );
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days; no chrono in the
/// offline build).
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let days = (secs / 86_400) as i64;
    // Howard Hinnant's civil_from_days algorithm.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// The machine-speed calibration factor: the median current/baseline
/// ratio over benchmarks **outside** the gated pattern that exist on
/// both sides. The baseline's own notes say "compare trends, not
/// absolutes, across machines" — a CI runner 2x slower than the
/// recording machine shifts *every* benchmark by ~2x, and dividing by
/// this factor cancels that shift so the gate only sees relative
/// hot-path regressions. Falls back to 1.0 when nothing is available
/// to calibrate against.
fn calibration_factor(baseline: &[Measurement], results: &[Measurement], pattern: &str) -> f64 {
    let mut ratios: Vec<f64> = baseline
        .iter()
        .filter(|b| !b.name.starts_with(pattern) && b.mean_ns > 0.0)
        .filter_map(|b| {
            results
                .iter()
                .find(|m| m.name == b.name)
                .map(|cur| cur.mean_ns / b.mean_ns)
        })
        .collect();
    if ratios.is_empty() {
        return 1.0;
    }
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// Compares results to the baseline for names starting with
/// `gates.pattern`, after machine-speed calibration (see
/// [`calibration_factor`]); with `gates.min_speedup > 0`, additionally
/// asserts the calibrated speedup of every `gates.speedup_pattern`
/// benchmark. Returns the rendered report; `Err` when any calibrated
/// ratio exceeds `max_ratio`, a gated speedup falls short, or a matched
/// baseline benchmark is missing.
fn compare(
    baseline: &[Measurement],
    results: &[Measurement],
    gates: &Gates,
) -> Result<String, String> {
    use std::fmt::Write as _;
    let pattern = gates.pattern;
    let max_ratio = gates.max_ratio;
    let mut out = String::new();
    let mut failed = false;
    let matched: Vec<&Measurement> = baseline
        .iter()
        .filter(|m| m.name.starts_with(pattern))
        .collect();
    let calibration = calibration_factor(baseline, results, pattern);
    let _ = writeln!(
        out,
        "comparing {} `{pattern}*` benchmarks (tolerance {max_ratio}x, \
         machine-speed calibration {calibration:.2}x from non-matched benchmarks)",
        matched.len()
    );
    let _ = writeln!(
        out,
        "{:<44} {:>14} {:>14} {:>7}  verdict",
        "benchmark", "baseline ns", "current ns", "ratio"
    );
    for base in &matched {
        match results.iter().find(|m| m.name == base.name) {
            Some(cur) => {
                let ratio = cur.mean_ns / base.mean_ns / calibration;
                let verdict = if ratio > max_ratio {
                    failed = true;
                    "REGRESSED"
                } else if ratio < 1.0 / max_ratio {
                    "improved"
                } else {
                    "ok"
                };
                let _ = writeln!(
                    out,
                    "{:<44} {:>14.1} {:>14.1} {:>6.2}x  {verdict}",
                    base.name, base.mean_ns, cur.mean_ns, ratio
                );
            }
            None => {
                failed = true;
                let _ = writeln!(
                    out,
                    "{:<44} {:>14.1} {:>14} {:>7}  MISSING",
                    base.name, base.mean_ns, "-", "-"
                );
            }
        }
    }
    if matched.is_empty() {
        return Err(format!(
            "{out}no baseline benchmarks match `{pattern}` — wrong pattern or empty baseline\n"
        ));
    }
    if gates.min_speedup > 0.0 {
        let speedup_pattern = gates.speedup_pattern;
        let gated: Vec<&Measurement> = baseline
            .iter()
            .filter(|m| m.name.starts_with(speedup_pattern))
            .collect();
        let _ = writeln!(
            out,
            "asserting >= {:.2}x calibrated speedup on {} `{speedup_pattern}*` benchmarks",
            gates.min_speedup,
            gated.len()
        );
        if gated.is_empty() {
            return Err(format!(
                "{out}no baseline benchmarks match `{speedup_pattern}` — the speedup \
                 gate has nothing to assert\n"
            ));
        }
        for base in &gated {
            match results.iter().find(|m| m.name == base.name) {
                Some(cur) if cur.mean_ns > 0.0 => {
                    let speedup = base.mean_ns * calibration / cur.mean_ns;
                    let verdict = if speedup < gates.min_speedup {
                        failed = true;
                        "TOO SLOW"
                    } else {
                        "ok"
                    };
                    let _ = writeln!(
                        out,
                        "{:<44} {:>14.1} {:>14.1} {:>6.2}x  {verdict}",
                        base.name, base.mean_ns, cur.mean_ns, speedup
                    );
                }
                _ => {
                    failed = true;
                    let _ = writeln!(
                        out,
                        "{:<44} {:>14.1} {:>14} {:>7}  MISSING",
                        base.name, base.mean_ns, "-", "-"
                    );
                }
            }
        }
    }
    for gate in gates.pattern_gates {
        let gated: Vec<&Measurement> = baseline
            .iter()
            .filter(|m| gate_matches(gate, &m.name))
            .collect();
        let _ = writeln!(
            out,
            "gate `{}`: asserting >= {:.2}x calibrated speedup on {} benchmarks",
            gate.glob,
            gate.min_speedup,
            gated.len()
        );
        if gated.is_empty() {
            return Err(format!(
                "{out}gate `{}` matches no baseline benchmarks — misspelled glob?\n",
                gate.glob
            ));
        }
        for base in &gated {
            match results.iter().find(|m| m.name == base.name) {
                Some(cur) if cur.mean_ns > 0.0 => {
                    let speedup = base.mean_ns * calibration / cur.mean_ns;
                    let verdict = if speedup < gate.min_speedup {
                        failed = true;
                        "TOO SLOW"
                    } else {
                        "ok"
                    };
                    let _ = writeln!(
                        out,
                        "{:<44} {:>14.1} {:>14.1} {:>6.2}x  {verdict}",
                        base.name, base.mean_ns, cur.mean_ns, speedup
                    );
                }
                _ => {
                    failed = true;
                    let _ = writeln!(
                        out,
                        "{:<44} {:>14.1} {:>14} {:>7}  MISSING",
                        base.name, base.mean_ns, "-", "-"
                    );
                }
            }
        }
    }
    if failed {
        Err(out)
    } else {
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OUT: &str = "\
bench: simulation/a      1.0 ms/iter [10 iters]
CRITERION_JSONL: {\"name\":\"simulation/a\",\"mean_ns\":1000000.0,\"iters\":10}
noise line
CRITERION_JSONL: {\"name\":\"simulation/b\",\"mean_ns\":500.5,\"iters\":50}
CRITERION_JSONL: {\"name\":\"other/c\",\"mean_ns\":3.0,\"iters\":50}
";

    fn m(name: &str, mean_ns: f64) -> Measurement {
        Measurement {
            name: name.to_string(),
            mean_ns,
            iters: 10,
        }
    }

    /// The regression-only gate configuration used by most tests.
    fn regression_gates(max_ratio: f64) -> Gates<'static> {
        Gates {
            pattern: "simulation/",
            max_ratio,
            min_speedup: 0.0,
            speedup_pattern: "simulation/lowload_",
            pattern_gates: &[],
        }
    }

    /// Regression gate plus the lowload speedup gate.
    fn speedup_gates(min_speedup: f64) -> Gates<'static> {
        Gates {
            min_speedup,
            ..regression_gates(2.0)
        }
    }

    #[test]
    fn scrapes_jsonl_lines() {
        let out = scrape_jsonl(OUT);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], m("simulation/a", 1_000_000.0));
        assert_eq!(out[1].mean_ns, 500.5);
        assert_eq!(out[1].iters, 50);
    }

    #[test]
    fn baseline_roundtrip() {
        let results = scrape_jsonl(OUT);
        let rendered = render_baseline(&results, "unit test");
        let parsed = parse_measurements(&rendered);
        assert_eq!(parsed, results);
        assert!(rendered.contains("slim_noc-bench-baseline-v1"));
    }

    #[test]
    fn notes_with_newlines_and_quotes_stay_valid_json() {
        let rendered = render_baseline(&scrape_jsonl(OUT), "line one\nline \"two\"\t\\end");
        assert!(
            rendered.contains(r#"line one\u000aline \"two\"\u0009\\end"#),
            "{rendered}"
        );
        assert!(
            !rendered.contains("one\nline"),
            "no raw newline inside the notes string"
        );
    }

    #[test]
    fn compare_passes_within_tolerance() {
        let base = vec![m("simulation/a", 100.0), m("other/c", 1.0)];
        let cur = vec![m("simulation/a", 180.0), m("other/c", 1.0)];
        let report = compare(&base, &cur, &regression_gates(2.0)).expect("within tolerance");
        assert!(report.contains("ok"));
        assert!(!report.contains("other/c"), "non-matched bench not gated");
    }

    #[test]
    fn calibration_cancels_uniform_machine_slowdown() {
        let base = vec![
            m("simulation/a", 100.0),
            m("other/c", 10.0),
            m("other/d", 20.0),
        ];
        // A uniformly 3x slower machine (e.g. a CI runner) is not a
        // regression: the non-matched benchmarks calibrate it away.
        let slower_machine = vec![
            m("simulation/a", 300.0),
            m("other/c", 30.0),
            m("other/d", 60.0),
        ];
        assert!(compare(&base, &slower_machine, &regression_gates(2.0)).is_ok());
        // A 3x slowdown of only the hot path still fails.
        let hot_path_regressed = vec![
            m("simulation/a", 300.0),
            m("other/c", 10.0),
            m("other/d", 20.0),
        ];
        assert!(compare(&base, &hot_path_regressed, &regression_gates(2.0)).is_err());
    }

    #[test]
    fn calibration_defaults_to_unity() {
        let base = vec![m("simulation/a", 100.0)];
        let cur = vec![m("simulation/a", 150.0)];
        assert_eq!(calibration_factor(&base, &cur, "simulation/"), 1.0);
    }

    #[test]
    fn compare_fails_on_regression_and_missing() {
        let base = vec![m("simulation/a", 100.0), m("simulation/b", 100.0)];
        let cur = vec![m("simulation/a", 250.0)];
        let report = compare(&base, &cur, &regression_gates(2.0)).expect_err("must fail");
        assert!(report.contains("REGRESSED"));
        assert!(report.contains("MISSING"));
    }

    #[test]
    fn compare_fails_on_empty_match() {
        let base = vec![m("other/c", 1.0)];
        let cur = vec![m("other/c", 1.0)];
        assert!(compare(&base, &cur, &regression_gates(2.0)).is_err());
    }

    #[test]
    fn speedup_gate_passes_fast_and_fails_slow() {
        let base = vec![
            m("simulation/lowload_a", 10_000.0),
            m("simulation/sat_b", 100.0),
            m("other/c", 10.0),
        ];
        // 10x faster on the gated bench, unchanged elsewhere: passes 5x.
        let fast = vec![
            m("simulation/lowload_a", 1_000.0),
            m("simulation/sat_b", 100.0),
            m("other/c", 10.0),
        ];
        let report = compare(&base, &fast, &speedup_gates(5.0)).expect("10x beats 5x");
        assert!(report.contains("asserting >= 5.00x"));
        assert!(report.contains("10.00x  ok"), "{report}");
        // Only 2x faster: the speedup gate fails even though the
        // regression gate is happy.
        let slow = vec![
            m("simulation/lowload_a", 5_000.0),
            m("simulation/sat_b", 100.0),
            m("other/c", 10.0),
        ];
        let report = compare(&base, &slow, &speedup_gates(5.0)).expect_err("2x misses 5x");
        assert!(report.contains("TOO SLOW"), "{report}");
        // min_speedup 0 disables the gate entirely.
        assert!(compare(&base, &slow, &speedup_gates(0.0)).is_ok());
    }

    #[test]
    fn speedup_gate_is_machine_calibrated() {
        let base = vec![
            m("simulation/lowload_a", 10_000.0),
            m("other/c", 10.0),
            m("other/d", 20.0),
        ];
        // A 2x slower machine shows only a 5x raw speedup for a true
        // 10x win; the calibration factor restores it.
        let slower_machine = vec![
            m("simulation/lowload_a", 2_000.0),
            m("other/c", 20.0),
            m("other/d", 40.0),
        ];
        let report = compare(&base, &slower_machine, &speedup_gates(8.0)).expect("calibrated 10x");
        assert!(report.contains("10.00x  ok"), "{report}");
    }

    #[test]
    fn speedup_gate_fails_on_missing_or_empty() {
        let base = vec![m("simulation/lowload_a", 100.0), m("simulation/x", 1.0)];
        let cur = vec![m("simulation/x", 1.0)];
        let report = compare(&base, &cur, &speedup_gates(5.0)).expect_err("missing gated bench");
        assert!(report.contains("MISSING"));
        // No baseline entries match the speedup pattern at all: that is
        // a configuration error, not a pass.
        let base = vec![m("simulation/x", 1.0)];
        let cur = vec![m("simulation/x", 1.0)];
        let report = compare(&base, &cur, &speedup_gates(5.0)).expect_err("nothing to assert");
        assert!(report.contains("nothing to assert"), "{report}");
    }

    #[test]
    fn gate_spec_parsing() {
        assert_eq!(
            parse_gate("satload_*>=1.5"),
            Ok(SpeedupGate {
                glob: "satload_*".to_string(),
                min_speedup: 1.5,
            })
        );
        assert_eq!(
            parse_gate(" lowload_* >= 5 "),
            Ok(SpeedupGate {
                glob: "lowload_*".to_string(),
                min_speedup: 5.0,
            })
        );
        assert!(parse_gate("no_threshold").is_err(), "missing >=");
        assert!(parse_gate(">=2.0").is_err(), "empty glob");
        assert!(parse_gate("x>=abc").is_err(), "non-numeric threshold");
        assert!(parse_gate("x>=0").is_err(), "zero threshold");
        assert!(parse_gate("x>=-1").is_err(), "negative threshold");
    }

    #[test]
    fn glob_matching() {
        assert!(glob_match("satload_*", "satload_sn_s_rnd"));
        assert!(glob_match("satload_*", "satload_"), "* matches empty");
        assert!(!glob_match("satload_*", "x_satload_y"), "start-anchored");
        assert!(glob_match("*_cbr", "satload_sn54_cbr"));
        assert!(!glob_match("*_cbr", "satload_cbr_rnd"), "end-anchored");
        assert!(glob_match("sn_*_cbr*", "sn_s_cbr_elastic"));
        assert!(glob_match("exact", "exact"));
        assert!(!glob_match("exact", "exactly"), "no * means exact");
        assert!(glob_match("*", "anything"));
        let gate = SpeedupGate {
            glob: "satload_*".to_string(),
            min_speedup: 1.5,
        };
        assert!(
            gate_matches(&gate, "simulation/satload_df3_rnd"),
            "glob also tried against the name after the last `/`"
        );
        assert!(!gate_matches(&gate, "simulation/lowload_a"));
    }

    #[test]
    fn pattern_gates_pass_and_fail() {
        let base = vec![
            m("simulation/satload_a", 1_500.0),
            m("simulation/satload_b", 1_500.0),
            m("simulation/other", 100.0),
            m("other/c", 10.0),
        ];
        let gates_15 = [SpeedupGate {
            glob: "satload_*".to_string(),
            min_speedup: 1.5,
        }];
        let cfg = Gates {
            pattern_gates: &gates_15,
            ..regression_gates(2.0)
        };
        // Both gated benches 2x faster, ungated ones unchanged: passes.
        let fast = vec![
            m("simulation/satload_a", 750.0),
            m("simulation/satload_b", 750.0),
            m("simulation/other", 100.0),
            m("other/c", 10.0),
        ];
        let report = compare(&base, &fast, &cfg).expect("2x beats 1.5x");
        assert!(report.contains("gate `satload_*`"), "{report}");
        assert!(report.contains("2.00x  ok"), "{report}");
        // One gated bench only 1.2x faster: that gate fails.
        let slow = vec![
            m("simulation/satload_a", 750.0),
            m("simulation/satload_b", 1_250.0),
            m("simulation/other", 100.0),
            m("other/c", 10.0),
        ];
        let report = compare(&base, &slow, &cfg).expect_err("1.2x misses 1.5x");
        assert!(report.contains("TOO SLOW"), "{report}");
        // A gated bench missing from the results fails.
        let missing = vec![
            m("simulation/satload_a", 750.0),
            m("simulation/other", 100.0),
            m("other/c", 10.0),
        ];
        let report = compare(&base, &missing, &cfg).expect_err("missing gated bench");
        assert!(report.contains("MISSING"), "{report}");
    }

    #[test]
    fn pattern_gate_is_machine_calibrated_and_rejects_empty_match() {
        let base = vec![
            m("simulation/satload_a", 1_500.0),
            m("other/c", 10.0),
            m("other/d", 20.0),
        ];
        let gates_15 = [SpeedupGate {
            glob: "satload_*".to_string(),
            min_speedup: 1.5,
        }];
        let cfg = Gates {
            pattern_gates: &gates_15,
            ..regression_gates(2.0)
        };
        // A 2x slower machine shows only a 1x raw speedup for a true 2x
        // win; calibration restores it above the 1.5x bar.
        let slower_machine = vec![
            m("simulation/satload_a", 1_500.0),
            m("other/c", 20.0),
            m("other/d", 40.0),
        ];
        let report = compare(&base, &slower_machine, &cfg).expect("calibrated 2x");
        assert!(report.contains("2.00x  ok"), "{report}");
        // A glob matching nothing is a configuration error, not a pass.
        let gates_typo = [SpeedupGate {
            glob: "saltoad_*".to_string(),
            min_speedup: 1.5,
        }];
        let cfg = Gates {
            pattern_gates: &gates_typo,
            ..regression_gates(2.0)
        };
        let report = compare(&base, &base.clone(), &cfg).expect_err("typo glob");
        assert!(
            report.contains("matches no baseline benchmarks"),
            "{report}"
        );
    }

    #[test]
    fn civil_date_is_plausible() {
        let d = today_utc();
        assert_eq!(d.len(), 10);
        assert!(d.starts_with("20"), "{d}");
    }

    #[test]
    fn parses_repo_baseline_schema() {
        let doc = r#"{
  "schema": "slim_noc-bench-baseline-v1",
  "benchmarks": [
    { "name": "simulation/x", "mean_ns": 305.3, "iters": 50 },
    { "name": "simulation/y", "mean_ns": 1.5e3, "iters": 10 }
  ]
}"#;
        let got = parse_measurements(doc);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], m("simulation/x", 305.3).clone_with_iters(50));
        assert_eq!(got[1].mean_ns, 1500.0);
    }

    impl Measurement {
        fn clone_with_iters(mut self, iters: u64) -> Self {
            self.iters = iters;
            self
        }
    }
}
