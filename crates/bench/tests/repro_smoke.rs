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
use std::collections::HashSet;

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
/// the `--csv` table, and `resilience --json` one object with one row
/// per network × failure fraction of its tables.
#[test]
fn verify_json_parses_into_one_passing_object_per_row() {
    let run = |name: &str, as_json: bool| {
        let args = Args {
            smoke: true,
            csv: !as_json,
            json: as_json,
            ..Args::default()
        };
        let mut out = Vec::new();
        let figure = find(name).expect("registry entry");
        figure.run(&args, &mut out).expect(name);
        String::from_utf8(out).expect("utf-8")
    };
    let parsed = json::parse(&run("verify", true)).expect("valid JSON");
    let rows = parsed.as_arr().expect("an array");
    // The CSV table has a title, a header and a trailing summary line.
    assert_eq!(rows.len(), run("verify", false).lines().count() - 3);
    for row in rows {
        assert!(row.get("case").and_then(JsonValue::as_str).is_some());
        let pass = row.get("pass").and_then(JsonValue::as_bool);
        assert_eq!(pass, Some(true), "{row:?}");
    }

    let parsed = json::parse(&run("resilience", true)).expect("valid JSON");
    let rows = parsed
        .get("rows")
        .and_then(JsonValue::as_arr)
        .expect("rows");
    let cell = |row: &JsonValue| {
        let network = row.get("network")?.as_str()?.to_string();
        Some((network, row.get("fraction")?.as_f64()?.to_bits()))
    };
    let cells: HashSet<_> = rows.iter().map(|row| cell(row).expect("a cell")).collect();
    // One CSV table per fraction, each a title, a header and its rows.
    let tables = run("resilience", false);
    let table_rows = tables
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with("network,"))
        .count();
    assert_eq!((rows.len(), cells.len()), (table_rows, table_rows));
    assert_eq!(parsed.get("seeds").and_then(JsonValue::as_u64), Some(2));
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
