//! Trace workloads: run the 14 PARSEC/SPLASH-like benchmarks on a
//! Slim NoC vs. a Flattened Butterfly and compare latency and
//! energy-delay product — a miniature of the paper's Figure 18 study.
//!
//! Run with: `cargo run --release --example trace_workload`

use slim_noc::core::{format_float, BufferPreset, Setup, TextTable};
use slim_noc::power::TechNode;
use slim_noc::traffic::benchmark_workloads;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cycles = 10_000;
    let sn = Setup::paper("sn_s")?
        .with_smart(true)
        .with_buffers(BufferPreset::EbVar);
    let fbf = Setup::paper("fbf3")?
        .with_smart(true)
        .with_buffers(BufferPreset::EbVar);

    let mut table = TextTable::new(
        "PARSEC/SPLASH-like workloads: SN vs FBF (SMART, 45nm)",
        &["benchmark", "SN lat", "FBF lat", "SN EDP/FBF EDP"],
    );
    let mut geomean = 1.0f64;
    let mut count = 0u32;
    for w in benchmark_workloads() {
        let eval = |s: &Setup| {
            let report = s.run_trace_workload(&w, cycles);
            let power = s.power_report(TechNode::N45, &report);
            (report.avg_packet_latency(), power.energy_delay())
        };
        let (sn_lat, sn_edp) = eval(&sn);
        let (fbf_lat, fbf_edp) = eval(&fbf);
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
