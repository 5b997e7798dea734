//! Pins the committed figure campaigns under `specs/`: every file is
//! used by exactly one registry row, parses with its `name` equal to its
//! file stem, and runs under `run_spec` at `--smoke`, where its result
//! rendered compact in one pass (the server's `done` event) is the
//! pretty one compacted; the latency
//! figures sweep `load_grid()`, the energy figures `energy_load_grid()`
//! and the saturation sweeps `saturation_load_grid()`.

use snoc_bench::figures::{Draw, Figure, Render, REGISTRY};
use snoc_bench::{energy_load_grid, load_grid, run_spec, saturation_load_grid, Args};
use snoc_core::json::{self, Floats, Layout, Writer};
use snoc_core::{parallel_map_with_threads, CampaignSpec, SweepPoint};

const DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");

/// The texts of the committed specs a registry row runs.
fn specs(figure: &Figure) -> Vec<&'static str> {
    match figure.draw {
        Draw::Panels(panels) => panels.iter().map(|&(spec, _)| spec).collect(),
        Draw::Code(specs, _) => specs.to_vec(),
        Draw::Json(_) => Vec::new(),
    }
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
        let users: Vec<&str> = REGISTRY
            .iter()
            .flat_map(|f| specs(f).into_iter().map(move |s| (f.name, s)))
            .filter(|&(_, used)| used == text)
            .map(|(figure, _)| figure)
            .collect();
        assert_eq!(users.len(), 1, "specs/{stem}.json is used by {users:?}");
        let spec = CampaignSpec::from_json(&text).unwrap_or_else(|e| panic!("{stem}: {e}"));
        assert_eq!(&spec.name, stem, "a spec's name is its file stem");
    }
    let stores = std::env::temp_dir().join(format!("snoc_specs_{}", std::process::id()));
    let runs = parallel_map_with_threads(stems.clone(), 0, |stem| {
        let smoke = Args {
            smoke: true,
            cache_dir: Some(stores.join(&stem).to_str().expect("UTF-8").to_string()),
            ..Args::default()
        };
        let path = format!("{DIR}/{stem}.json");
        let mut pretty = Vec::new();
        run_spec(&path, &smoke, &mut pretty)?;
        // The same result, replayed from the store the run filled.
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let spec = CampaignSpec::from_json(&text).map_err(|e| e.to_string())?;
        let replayed = smoke.campaign(spec).map_err(|e| e.to_string())?.run();
        let mut w = Writer::new(Floats::Shortest);
        replayed.write_json_with(&mut w, Layout::Compact, SweepPoint::to_json_line);
        let pretty = String::from_utf8(pretty).map_err(|e| e.to_string())?;
        Ok::<_, String>((w.finish(), json::compact(&pretty)))
    });
    let _ = std::fs::remove_dir_all(&stores);
    for (stem, run) in stems.iter().zip(runs) {
        let (one_pass, compacted) = run.unwrap_or_else(|e| panic!("specs/{stem}.json: {e}"));
        assert!(
            one_pass == compacted,
            "specs/{stem}.json: compact result differs"
        );
    }
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
