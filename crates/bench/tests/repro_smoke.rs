//! Smoke-runs every entry of the figure registry in-process with
//! `--smoke --csv` (minimal simulation windows), asserting each builds
//! its experiment configuration, runs end-to-end, and writes a report.
//! The registry is the list: a figure added to `REGISTRY` is smoked
//! here with no edit, and one that starts failing (or panicking) on
//! its own configs fails the suite by name.

use snoc_bench::figures::{find, REGISTRY};
use snoc_bench::Args;
use snoc_core::json::{self, JsonValue};
use snoc_core::{parallel_map_with_threads, PointCache};

#[test]
fn every_registry_entry_smokes() {
    let args = Args {
        smoke: true,
        csv: true,
        ..Args::default()
    };
    let runs = parallel_map_with_threads(REGISTRY.iter().collect(), 0, |figure| {
        let mut out = Vec::new();
        (figure.run(&args, &mut out), out)
    });
    for (figure, (run, out)) in REGISTRY.iter().zip(runs) {
        assert!(run.is_ok(), "{} failed: {run:?}", figure.name);
        assert!(
            !out.is_empty(),
            "{} produced no output in --csv mode",
            figure.name
        );
    }
}

/// `verify --json` is one JSON array with one passing object per row of
/// the `--csv` table.
#[test]
fn verify_json_parses_into_one_passing_object_per_row() {
    let run = |as_json: bool| {
        let args = Args {
            smoke: true,
            csv: !as_json,
            json: as_json,
            ..Args::default()
        };
        let mut out = Vec::new();
        let verify = find("verify").expect("registry entry");
        verify.run(&args, &mut out).expect("verify passes");
        String::from_utf8(out).expect("utf-8")
    };
    let parsed = json::parse(&run(true)).expect("valid JSON");
    let rows = parsed.as_arr().expect("an array");
    // The CSV table has a title, a header and a trailing summary line.
    assert_eq!(rows.len(), run(false).lines().count() - 3);
    for row in rows {
        assert!(row.get("case").and_then(JsonValue::as_str).is_some());
        let pass = row.get("pass").and_then(JsonValue::as_bool);
        assert_eq!(pass, Some(true), "{row:?}");
    }
}

/// The figures whose simulated columns used to bypass `Campaign`: each
/// now fills the point cache on a cold run and replays from it, byte
/// for byte and without adding a line, on a warm one.
#[test]
fn power_and_study_figures_replay_from_the_point_cache() {
    let dir = std::env::temp_dir().join(format!("snoc_repro_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let args = Args {
        smoke: true,
        cache_dir: Some(dir.to_str().expect("utf-8 temp dir").to_string()),
        ..Args::default()
    };
    let entries = || PointCache::open(&dir).expect("cache dir").len();
    for name in [
        "ablation",
        "sensitivity",
        "table5",
        "fig16",
        "fig19",
        "fig10",
        "fig18",
        "table6",
    ] {
        let figure = find(name).expect("registry entry");
        let run = || {
            let mut out = Vec::new();
            figure.run(&args, &mut out).expect(name);
            out
        };
        let before = entries();
        let cold = run();
        let filled = entries();
        assert!(filled > before, "{name} stored no point");
        let warm = run();
        assert!(warm == cold, "{name}: warm bytes differ from cold");
        assert_eq!(entries(), filled, "{name}: the warm run simulated again");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
