//! Trace workloads: run the 14 PARSEC/SPLASH-like benchmarks on a
//! Slim NoC vs. a Flattened Butterfly and compare latency and
//! energy-delay product — a miniature of the paper's Figure 18 study.
//!
//! Run with: `cargo run --release --example trace_workload`

use slim_noc::core::{format_float, BufferPreset, Campaign, CampaignSpec, SetupSpec, TextTable};
use slim_noc::power::TechNode;
use slim_noc::traffic::benchmark_workloads;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let setup = |config: &str| SetupSpec {
        smart: true,
        buffers: BufferPreset::EbVar,
        ..SetupSpec::new(config)
    };
    // Every setup × workload is one campaign point: a 10 000-cycle
    // trace, measured after the first 1 000 cycles.
    let mut spec = CampaignSpec::new("trace_workload");
    spec.setups = vec![setup("sn_s"), setup("fbf3")];
    spec.workloads = benchmark_workloads();
    (spec.warmup, spec.measure) = (1_000, 9_000);
    spec.power_tech = Some(TechNode::N45);
    let result = Campaign::from_spec(&spec)?.run();

    let mut table = TextTable::new(
        "PARSEC/SPLASH-like workloads: SN vs FBF (SMART, 45nm)",
        &["benchmark", "SN lat", "FBF lat", "SN EDP/FBF EDP"],
    );
    let mut geomean = 1.0f64;
    let mut count = 0u32;
    for w in benchmark_workloads() {
        let eval = |setup: &str| {
            let point = result
                .point(setup, w.name, w.offered_flit_rate())
                .expect("every workload was run");
            (point.latency, point.power.expect("power-aware").edp_js)
        };
        let (sn_lat, sn_edp) = eval("sn_s");
        let (fbf_lat, fbf_edp) = eval("fbf3");
        let ratio = sn_edp / fbf_edp;
        geomean *= ratio;
        count += 1;
        table.push_row(vec![
            w.name.to_string(),
            format_float(sn_lat, 2),
            format_float(fbf_lat, 2),
            format_float(ratio, 3),
        ]);
    }
    table.print(false);
    println!(
        "geometric-mean EDP ratio SN/FBF: {:.3} (paper: ≈0.45, i.e. 55% lower)",
        geomean.powf(1.0 / f64::from(count))
    );
    Ok(())
}
