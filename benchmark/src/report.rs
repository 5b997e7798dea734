//! Reading run files back: `compare` (two sets of runs, one verdict per
//! workload × end-to-end metric) and `tables` ("where the seconds go").

use crate::contract::{Contract, MetricDef};
use crate::timing::{median, quartiles};
use crate::trace::Layer;
use snoc_core::json::{self, JsonValue};
use std::fmt::Write as _;

/// One `--out` line, as far as the readers need it.
struct RunLine {
    workload: String,
    trace: bool,
    root: JsonValue,
}

impl RunLine {
    fn metric(&self, name: &str) -> Option<f64> {
        self.root.get("metrics")?.get(name)?.get("value")?.as_f64()
    }

    fn number(&self, name: &str) -> Option<f64> {
        self.root.get(name)?.as_f64()
    }
}

fn read_runs(path: &str) -> Result<Vec<RunLine>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let root = json::parse(line).map_err(|e| format!("{path}: {e}"))?;
            let workload = root.get("workload").and_then(JsonValue::as_str);
            Ok(RunLine {
                workload: workload
                    .ok_or_else(|| format!("{path}: line without `workload`"))?
                    .to_string(),
                trace: root.get("trace").and_then(JsonValue::as_u64) == Some(1),
                root,
            })
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Run-to-run spread of one set: the distance between its quartiles as
/// a share of its median (0 for a single run).
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, med, q3) = quartiles(values);
    (q3 - q1) / med.abs()
}

/// The verdict on B against A. `better` only when every run of B reads
/// better than every run of A; `unresolved` when either set's own
/// spread exceeds the bound, so a median shift proves nothing; `worse`
/// when B's median is worse than A's by more than the bound.
pub fn verdict(a: &[f64], b: &[f64], def: &MetricDef) -> Verdict {
    let bound = def.bound.unwrap_or(0.0);
    let beats = |x: f64, y: f64| if def.lower_is_better { x < y } else { x > y };
    if b.iter().all(|&x| a.iter().all(|&y| beats(x, y))) {
        return Verdict::Better;
    }
    if spread(a).max(spread(b)) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let worsening = if def.lower_is_better {
        (mb - ma) / ma
    } else {
        (ma - mb) / ma
    };
    if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

/// `compare A B`: one row per workload × end-to-end metric.
pub fn compare(contract: &Contract, path_a: &str, path_b: &str) -> Result<String, String> {
    let (runs_a, runs_b) = (read_runs(path_a)?, read_runs(path_b)?);
    let mut out = format!(
        "A = {path_a}, B = {path_b}; ratio = median(B) / median(A), base A; spread = widest \
         interquartile distance of either set over its median\n\
         {:<13} {:<18} {:>4} {:>13} {:>13} {:>7} {:>7} {:>6}  verdict\n",
        "workload", "metric", "runs", "A median", "B median", "B/A", "spread", "bound"
    );
    let mut rows = 0;
    for workload in &contract.workloads {
        for def in &contract.end_to_end {
            let values = |runs: &[RunLine]| -> Vec<f64> {
                runs.iter()
                    .filter(|r| r.workload == *workload && !r.trace)
                    .filter_map(|r| r.metric(&def.name))
                    .collect()
            };
            let (a, b) = (values(&runs_a), values(&runs_b));
            if a.is_empty() || b.is_empty() {
                continue;
            }
            rows += 1;
            let (ma, mb) = (median(&a), median(&b));
            let _ = writeln!(
                out,
                "{workload:<13} {:<18} {:>4} {ma:>13.4} {mb:>13.4} {:>7.4} {:>7.4} {:>6.2}  {}",
                format!("{} ({})", def.name, def.unit),
                format!("{}+{}", a.len(), b.len()),
                mb / ma,
                spread(&a).max(spread(&b)),
                def.bound.unwrap_or(0.0),
                verdict(&a, &b, def).name()
            );
        }
    }
    if rows == 0 {
        return Err("no workload has untraced runs in both files".to_string());
    }
    Ok(out)
}

/// `tables FILE`: the "where the seconds go" table of each traced
/// `fig_cold` and `big_point` run in the file, with the paper-scale row
/// when that file is given.
pub fn tables(path: &str, paper_scale: Option<&str>) -> Result<String, String> {
    let runs = read_runs(path)?;
    let mut out = String::new();
    for workload in ["fig_cold", "big_point"] {
        let Some(run) = runs
            .iter()
            .rev()
            .find(|r| r.workload == workload && r.trace)
        else {
            continue;
        };
        let need = |name: &str| {
            run.number(name)
                .or_else(|| run.metric(name))
                .ok_or_else(|| format!("{path}: traced {workload} run lacks `{name}`"))
        };
        let (floor, twin) = (need("untraced_floor_s")?, need("twin_wall_s")?);
        let _ = writeln!(
            out,
            "where the seconds go: {workload} (host time; untraced one-thread floor {floor:.3} s, \
             twin {twin:.3} s, unexplained {:.1} %, tracing overhead {:.1} %)",
            need("trace.gap_pct")?,
            need("trace.overhead_pct")?
        );
        let _ = writeln!(out, "  {:<16} {:>10} {:>8}", "layer", "self s", "share");
        let mut rest = 1.0;
        for layer in Layer::REPORTED {
            let share = need(&format!("share.{}", layer.name()))?;
            rest -= share;
            let _ = writeln!(
                out,
                "  {:<16} {:>10.4} {:>7.2} %",
                layer.name(),
                share * twin,
                share * 100.0
            );
        }
        let _ = writeln!(
            out,
            "  {:<16} {:>10.4} {:>7.2} %",
            "(twin glue)",
            rest * twin,
            rest * 100.0
        );
        if workload == "big_point" {
            if let Some(scale_path) = paper_scale {
                let scale = read_runs(scale_path)?;
                let line = scale.last().ok_or("paper-scale file is empty")?;
                let get = |name: &str| {
                    line.metric(name)
                        .ok_or_else(|| format!("{scale_path}: lacks `{name}`"))
                };
                let _ = writeln!(
                    out,
                    "  paper scale, q = 47 (106 032 endpoints, taken once, never gated): routing \
                     table {:.2} s, simulator build {:.2} s, run {:.2} s, 2-shard speed-up {:.2}x \
                     (base: monolithic build + run)",
                    get("sim.routing.minimal_q47_s")?,
                    get("sim.build_q47_s")?,
                    get("sim.run_q47_s")?,
                    get("sim.shard.speedup_2_q47")?
                );
            }
        }
        out.push('\n');
    }
    if out.is_empty() {
        return Err(format!("{path}: no traced fig_cold or big_point run"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(lower: bool) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "s".into(),
            lower_is_better: lower,
            bound: Some(0.10),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [1.00, 1.01, 1.02];
        assert_eq!(
            verdict(&a, &[1.03, 1.01, 1.04], &def(true)),
            Verdict::Within
        );
        assert_eq!(verdict(&a, &[1.20, 1.21, 1.22], &def(true)), Verdict::Worse);
        assert_eq!(
            verdict(&a, &[0.90, 0.91, 0.99], &def(true)),
            Verdict::Better
        );
        // One overlapping run: not "better", and within the bound.
        assert_eq!(
            verdict(&a, &[0.95, 0.96, 1.00], &def(true)),
            Verdict::Within
        );
        // B's own spread exceeds the bound: nothing can be said...
        assert_eq!(
            verdict(&a, &[0.95, 1.20, 1.45], &def(true)),
            Verdict::Unresolved
        );
        // ...unless every run of B still beats every run of A.
        assert_eq!(verdict(&a, &[0.5, 0.7, 0.9], &def(true)), Verdict::Better);
        // Higher-is-better metrics mirror the directions.
        assert_eq!(
            verdict(&a, &[0.80, 0.81, 0.82], &def(false)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &[1.10, 1.11, 1.12], &def(false)),
            Verdict::Better
        );
        assert_eq!(
            verdict(&a, &[0.95, 0.96, 1.01], &def(false)),
            Verdict::Within
        );
    }

    #[test]
    fn a_single_run_has_no_spread() {
        assert_eq!(spread(&[3.0]), 0.0);
        assert!((spread(&[1.0, 2.0, 4.0]) - 1.5).abs() < 1e-12);
    }
}
