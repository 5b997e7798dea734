//! End-to-end deadlock hunt: the storm grid (every paper network ×
//! failed-link fraction) driven past saturation, with every
//! simulator's no-progress watchdog armed at its default bound.
//! `Setup::run_load` panics with the full deadlock diagnostic if a
//! watchdog fires, so this test completing at all is the liveness
//! proof: no degraded up*/down* table wedged under maximal
//! backpressure. The nightly CI soak reruns this alongside the fuzzed
//! CDG property suite.

use snoc_bench::fault_storm::{saturation_storm_spec, FRACTIONS, NETWORKS};
use snoc_bench::Args;

#[test]
fn saturated_storms_never_wedge_any_degraded_network() {
    let args = Args {
        smoke: true,
        ..Args::default()
    };
    let campaign = args.campaign(saturation_storm_spec(&args));
    let result = campaign.expect("no cache dir to open").run();

    // Reaching this line means no watchdog aborted (run_load panics on
    // a wedge). Sanity-check the sweep actually stressed something:
    // every cell produced a point, and every network kept delivering
    // flits even in its most degraded configuration.
    for network in NETWORKS {
        for fraction in FRACTIONS {
            let name = snoc_bench::fault_storm::setup_name(network, fraction);
            let point = result
                .curve(&name, "RND")
                .next()
                .unwrap_or_else(|| panic!("missing saturation point {name}"));
            assert!(
                point.throughput > 0.0,
                "{name} delivered nothing at saturation"
            );
        }
    }
}
