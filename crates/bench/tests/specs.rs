//! Pins the committed figure campaigns under `specs/`: every file is
//! used by exactly one registry row, parses with its `name` equal to its
//! file stem, and runs under `run_spec` at `--smoke`; the latency
//! figures sweep `load_grid()`, the energy figures `energy_load_grid()`
//! and the saturation sweeps `saturation_load_grid()`.

use snoc_bench::figures::{Draw, Figure, Render, REGISTRY};
use snoc_bench::{energy_load_grid, load_grid, run_spec, saturation_load_grid, Args};
use snoc_core::{parallel_map_with_threads, CampaignSpec};

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
    let smoke = Args {
        smoke: true,
        ..Args::default()
    };
    let runs = parallel_map_with_threads(stems.clone(), 0, |stem| {
        run_spec(&format!("{DIR}/{stem}.json"), &smoke, &mut Vec::new())
    });
    for (stem, run) in stems.iter().zip(runs) {
        assert!(run.is_ok(), "specs/{stem}.json: {run:?}");
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
