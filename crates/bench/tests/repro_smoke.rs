//! One pass over the figure registry at `--smoke`, run once per test
//! binary. Each row's committed specs are simulated into a store of its
//! own, and the last line each spec stored is cut. The row then runs
//! with `--csv` on that store, twice: the cold run must store every cut
//! line again (a campaign that ignores the store stores none), the warm
//! one print the same bytes and add no line. Each spec is then replayed
//! through `run_spec`, simulating nothing, and must print the bytes it
//! simulated. A figure added to `REGISTRY` runs here with no edit, and
//! one that fails fails by name.

use snoc_bench::figures::{find, Draw, Figure, Render, REGISTRY};
use snoc_bench::{energy_load_grid, load_grid, run_spec, saturation_load_grid, Args};
use snoc_core::json::{self, Floats, JsonValue, Layout, Writer};
use snoc_core::{parallel_map_with_threads, CampaignSpec, SweepPoint};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::OnceLock;

const DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");

/// The texts of the committed specs a registry row runs.
fn specs(figure: &Figure) -> Vec<&'static str> {
    match figure.draw {
        Draw::Panels(panels) => panels.iter().map(|&(spec, _)| spec).collect(),
        Draw::Code(specs, _) => specs.to_vec(),
        Draw::Json(_) => Vec::new(),
    }
}

/// The lines of the point store in `dir`, newline included.
fn store_lines(dir: &Path) -> Vec<String> {
    let store = std::fs::read_to_string(dir.join("points.jsonl")).unwrap_or_default();
    store.lines().map(|line| format!("{line}\n")).collect()
}

/// What the registry pass found wrong with one row.
#[derive(Default)]
struct Outcome {
    /// Why its cold run failed: the panic or error, or no output.
    cold: Option<String>,
    /// How its cold run missed its store or its warm run differed.
    warm: Option<String>,
    /// The committed specs it runs that did not replay.
    specs: Vec<String>,
}

/// Runs one row cold and warm into the store `store`, then replays its
/// committed specs from there. Panics if the row or a spec fails cold.
fn check(figure: &Figure, store: &Path) -> Outcome {
    let args = Args {
        smoke: true,
        csv: true,
        cache_dir: Some(store.to_str().expect("UTF-8").to_string()),
        ..Args::default()
    };
    // Each spec the row runs, simulated once: its stem, pretty and one-pass
    // compact sweep JSON, and the store's length in lines after it.
    let (mut cold, mut ends) = (Vec::new(), Vec::new());
    for text in specs(figure) {
        let spec = CampaignSpec::from_json(text).expect("a committed spec parses");
        let stem = spec.name.clone();
        let result = args.campaign(spec).expect("a committed spec runs").run();
        let mut w = Writer::new(Floats::Shortest);
        result.write_json_with(&mut w, Layout::Compact, SweepPoint::to_json_line);
        cold.push((stem, result.to_json(), w.finish()));
        ends.push(store_lines(store).len());
    }
    // The last line each spec added, a spec that added none skipped.
    let mut lines = store_lines(store);
    ends.dedup();
    let cut: Vec<_> = (ends.iter().rev().filter(|&&end| end > 0))
        .map(|&end| lines.remove(end - 1))
        .collect();
    std::fs::create_dir_all(store).expect("store creatable");
    std::fs::write(store.join("points.jsonl"), lines.concat()).expect("store writable");
    let mut found = Outcome::default();
    let run = || {
        let mut out = Vec::new();
        figure.run(&args, &mut out).map(|()| out)
    };
    let first = run().expect("the cold run");
    assert!(!first.is_empty(), "no output in --csv mode");
    let filled = store_lines(store);
    let added = &filled[lines.len()..];
    let lost = cut.iter().filter(|&line| !added.contains(line)).count();
    found.warm = match run() {
        _ if lost > 0 => Some(format!("the cold run lost {lost} cut line(s)")),
        Err(e) => Some(format!("the warm run failed: {e}")),
        Ok(warm) if warm != first => Some("warm bytes differ from cold".to_string()),
        Ok(_) if store_lines(store) != filled => Some("the warm run simulated again".into()),
        Ok(_) => None,
    };

    // Each spec replayed, and its cold result rendered compact in one
    // pass (the server's `done` event) against the pretty one compacted.
    for (stem, pretty, one_pass) in cold {
        let mut replayed = Vec::new();
        let wrong = match run_spec(&format!("{DIR}/{stem}.json"), &args, &mut replayed) {
            Err(e) => Some(e),
            Ok(stats) if stats.contains("hits=0 ") || !stats.contains(" misses=0 ") => {
                Some(format!("no replay from the store: {stats}"))
            }
            Ok(_) if replayed != pretty.as_bytes() => {
                Some("replays other bytes than it simulated".to_string())
            }
            Ok(_) if one_pass != json::compact(&pretty) => Some("compact result differs".into()),
            Ok(_) => None,
        };
        found
            .specs
            .extend(wrong.map(|e| format!("specs/{stem}.json: {e}")));
    }
    found
}

/// The registry pass: each row's [`Outcome`], in registry order, from
/// one run per test binary.
fn pass() -> &'static [(&'static str, Outcome)] {
    static PASS: OnceLock<Vec<(&'static str, Outcome)>> = OnceLock::new();
    PASS.get_or_init(|| {
        let stores = std::env::temp_dir().join(format!("snoc_repro_smoke_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&stores);
        let found = parallel_map_with_threads(REGISTRY.iter().collect(), 0, |figure| {
            let store = stores.join(figure.name);
            catch_unwind(AssertUnwindSafe(|| check(figure, &store))).unwrap_or_else(|panic| {
                let text = panic.downcast_ref::<&str>().map(|s| (*s).to_string());
                let text = text.or_else(|| panic.downcast_ref::<String>().cloned());
                let cold = Some(format!("panicked: {}", text.unwrap_or_default()));
                Outcome {
                    cold,
                    ..Outcome::default()
                }
            })
        });
        let _ = std::fs::remove_dir_all(&stores);
        REGISTRY.iter().map(|f| f.name).zip(found).collect()
    })
}

/// Asserts that no row of the pass has a `part` failure, naming each.
fn assert_none(part: impl Fn(&Outcome) -> Vec<String>) {
    let failures: Vec<String> = pass()
        .iter()
        .flat_map(|(name, found)| part(found).into_iter().map(move |e| format!("{name}: {e}")))
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn every_registry_entry_smokes() {
    assert_none(|found| found.cold.iter().cloned().collect());
}

#[test]
fn every_figure_replays_from_its_own_store() {
    assert_none(|found| found.warm.iter().cloned().collect());
}

#[test]
fn every_committed_spec_belongs_to_one_row_parses_and_runs() {
    let mut stems: Vec<String> = std::fs::read_dir(DIR)
        .expect("specs/ exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "json"))
        .map(|path| path.file_stem().unwrap().to_str().unwrap().to_string())
        .collect();
    stems.sort();
    assert!(!stems.is_empty());
    for stem in &stems {
        let text = std::fs::read_to_string(format!("{DIR}/{stem}.json")).expect("readable");
        // One entry per use, so a row that lists a spec twice fails too.
        let users: Vec<&str> = REGISTRY
            .iter()
            .flat_map(|f| specs(f).into_iter().map(move |s| (f.name, s)))
            .filter(|&(_, used)| used == text)
            .map(|(name, _)| name)
            .collect();
        assert_eq!(users.len(), 1, "specs/{stem}.json is used by {users:?}");
        let spec = CampaignSpec::from_json(&text).unwrap_or_else(|e| panic!("{stem}: {e}"));
        assert_eq!(&spec.name, stem, "specs/{stem}.json: name is not stem");
    }
    assert_none(|found| found.specs.clone());
}

#[test]
fn latency_and_energy_specs_sweep_the_shared_grids() {
    // The saturation sweeps' literal floats must be the helper's walk.
    for stem in [
        "ablation_saturation",
        "sensitivity_p_saturation",
        "sensitivity_size",
    ] {
        let text = std::fs::read_to_string(format!("{DIR}/{stem}.json")).expect("readable");
        let spec = CampaignSpec::from_json(&text).expect("parses");
        assert_eq!(spec.loads, saturation_load_grid(), "specs/{stem}.json");
    }
    for figure in REGISTRY {
        let Draw::Panels(panels) = figure.draw else {
            continue;
        };
        for (text, render) in panels {
            let spec = CampaignSpec::from_json(text).expect("parses");
            let grid = match render {
                Render::Latency(..) => load_grid(),
                Render::Energy(_) => energy_load_grid(),
                _ => continue,
            };
            assert_eq!(spec.loads, grid, "specs/{}.json", spec.name);
        }
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
