//! The metric contract: `BENCHMARK.json`, compiled in.
//!
//! Metric names, units, directions and bounds live in that file and
//! nowhere else. A run looks its units up here and fails when the set
//! of metrics it produced is not exactly the set the file names.

use snoc_core::json::{self, JsonValue};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

pub struct Contract {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Contract {
    /// Parses the compiled-in `BENCHMARK.json`.
    pub fn load() -> Contract {
        let root = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let list = |key: &str| -> &[JsonValue] {
            root.get(key)
                .and_then(JsonValue::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing array `{key}`"))
        };
        let text = |v: &JsonValue, key: &str| -> String {
            v.get(key)
                .and_then(JsonValue::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing string `{key}`"))
                .to_string()
        };
        let metrics = |key: &str| -> Vec<MetricDef> {
            list(key)
                .iter()
                .map(|v| MetricDef {
                    name: text(v, "name"),
                    unit: text(v, "unit"),
                    lower_is_better: text(v, "better") == "lower",
                    bound: v.get("bound").and_then(JsonValue::as_f64),
                })
                .collect()
        };
        Contract {
            run_seconds: root
                .get("run_seconds")
                .and_then(JsonValue::as_u64)
                .expect("BENCHMARK.json: run_seconds"),
            workloads: list("workloads").iter().map(|v| text(v, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    /// Orders `measured` as the contract lists `defs` and pairs each
    /// value with its definition.
    ///
    /// # Errors
    ///
    /// Names every metric that is missing, unexpected, or not a finite
    /// number.
    pub fn bind<'a>(
        defs: &'a [MetricDef],
        measured: &[(String, f64)],
    ) -> Result<Vec<(&'a MetricDef, f64)>, String> {
        let mut problems = Vec::new();
        let mut bound = Vec::with_capacity(defs.len());
        for def in defs {
            match measured.iter().find(|(name, _)| *name == def.name) {
                Some(&(_, value)) if value.is_finite() => bound.push((def, value)),
                Some(&(_, value)) => problems.push(format!("{} is {value}", def.name)),
                None => problems.push(format!("{} was not measured", def.name)),
            }
        }
        for (name, _) in measured {
            if !defs.iter().any(|d| d.name == *name) {
                problems.push(format!("{name} is not in BENCHMARK.json"));
            }
        }
        if problems.is_empty() {
            Ok(bound)
        } else {
            Err(problems.join("; "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_known_workloads_and_setup_s() {
        let c = Contract::load();
        assert!((2..=8).contains(&c.workloads.len()));
        for w in &c.workloads {
            assert!(crate::workload::NAMES.contains(&w.as_str()), "{w}");
        }
        assert!((1..=60).contains(&c.run_seconds));
        let setup = c.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.lower_is_better), ("s", true));
        for m in &c.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
            assert!(bound <= setup.bound.unwrap(), "setup_s has the largest");
        }
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(c.per_layer.len() <= 128);
        let mut names: Vec<&str> = c
            .end_to_end
            .iter()
            .chain(&c.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a name is used once");
    }

    #[test]
    fn bind_rejects_missing_extra_and_non_finite_metrics() {
        let defs = vec![
            MetricDef {
                name: "a".into(),
                unit: "s".into(),
                lower_is_better: true,
                bound: Some(0.1),
            },
            MetricDef {
                name: "b".into(),
                unit: "ms".into(),
                lower_is_better: true,
                bound: Some(0.1),
            },
        ];
        let ok = Contract::bind(&defs, &[("b".into(), 2.0), ("a".into(), 1.0)]).unwrap();
        assert_eq!(ok[0].1, 1.0, "contract order, not measurement order");
        let err = Contract::bind(&defs, &[("a".into(), f64::NAN), ("c".into(), 1.0)]).unwrap_err();
        assert!(err.contains("a is NaN") && err.contains("b was not measured"));
        assert!(err.contains("c is not in BENCHMARK.json"));
    }
}
