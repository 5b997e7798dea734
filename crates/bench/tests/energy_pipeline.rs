//! End-to-end test of the energy-efficiency pipeline behind
//! `snoc repro fig_energy`: simulator-measured activity → power model →
//! power-aware sweep campaign → `slim_noc-sweep-v2` JSON. It runs the
//! figure's shipped spec, `specs/fig_energy.json`, through the runner.
//!
//! Pins the reproduction's headline claim: at matched offered load the
//! Slim NoC delivers strictly more throughput per watt than the mesh
//! baseline, with the dynamic power coming from activity factors the
//! simulator *measured* (a point with zero measured activity would show
//! zero dynamic power and fail here).

use snoc_bench::{energy_load_grid, Args};
use snoc_core::CampaignSpec;

#[test]
fn slim_noc_beats_mesh_on_measured_throughput_per_watt() {
    let args = Args {
        quick: true,
        ..Args::default()
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/fig_energy.json");
    let text = std::fs::read_to_string(path).expect("shipped spec");
    let spec = CampaignSpec::from_json(&text).expect("shipped spec parses");
    let result = args.campaign(spec).expect("runnable spec").run();

    // Every point carries power columns fed by measured activity.
    assert!(result.setups.iter().any(|s| s == "cm4"));
    let points = result.setups.len() * energy_load_grid().len();
    assert_eq!(result.points.len(), points);
    for p in &result.points {
        let pw = p.power.expect("power-aware campaign point");
        assert!(
            pw.dynamic_w > 0.0,
            "{} @ {}: dynamic power must come from measured activity",
            p.setup,
            p.load
        );
        assert!(pw.power_w.is_finite() && pw.power_w > pw.dynamic_w);
        assert!(pw.energy_per_flit_j > 0.0 && pw.energy_per_flit_j.is_finite());
    }

    // The headline: strictly better throughput/Watt than the mesh at
    // every matched load, decisively so past the mesh saturation knee.
    let tpw = |setup: &str, load: f64| {
        result
            .curve(setup, "RND")
            .find(|p| (p.load - load).abs() < 1e-12)
            .and_then(|p| p.power)
            .expect("point")
            .throughput_per_watt
    };
    for &load in &energy_load_grid() {
        let (sn, mesh) = (tpw("sn_s", load), tpw("cm4", load));
        assert!(
            sn > mesh,
            "sn_s {sn:.3e} must beat cm4 {mesh:.3e} flits/J at load {load}"
        );
    }
    let top = *energy_load_grid().last().unwrap();
    assert!(
        tpw("sn_s", top) > 1.15 * tpw("cm4", top),
        "past the mesh knee the win must be decisive: sn {:.3e} vs mesh {:.3e}",
        tpw("sn_s", top),
        tpw("cm4", top)
    );
    // And the energy–delay product flips the same way.
    let edp = |setup: &str| {
        result
            .curve(setup, "RND")
            .find(|p| (p.load - top).abs() < 1e-12)
            .and_then(|p| p.power)
            .expect("point")
            .edp_js
    };
    assert!(edp("sn_s") < edp("cm4"), "SN EDP must undercut the mesh");

    // The emitted JSON is the v2 schema with power columns throughout.
    let json = result.to_json();
    assert!(json.contains("\"schema\": \"slim_noc-sweep-v2\""));
    assert!(json.contains("\"tech\": \"45nm\""));
    assert_eq!(
        json.matches("\"throughput_per_watt\":").count(),
        result.points.len()
    );
}
