//! Smoke-runs every entry of the figure registry in-process with
//! `--smoke --csv` (minimal simulation windows), asserting each builds
//! its experiment configuration, runs end-to-end, and writes a report.
//! The registry is the list: a figure added to `REGISTRY` is smoked
//! here with no edit, and one that starts failing (or panicking) on
//! its own configs fails the suite by name.

use snoc_bench::figures::REGISTRY;
use snoc_bench::Args;
use snoc_core::parallel_map;

#[test]
fn every_registry_entry_smokes() {
    let args = Args {
        smoke: true,
        csv: true,
        ..Args::default()
    };
    let runs = parallel_map(REGISTRY.iter().collect(), |figure| {
        let mut out = Vec::new();
        ((figure.run)(&args, &mut out), out)
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
