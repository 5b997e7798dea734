//! Quickstart: build the paper's SN-S Slim NoC (200 nodes), place it
//! with the subgroup layout, simulate random traffic, and print the key
//! §5 metrics.
//!
//! Run with: `cargo run --release --example quickstart`

use slim_noc::layout::{BufferModel, BufferSpec, Layout, SnLayout};
use slim_noc::power::{PowerModel, TechNode};
use slim_noc::prelude::*;
use slim_noc::sim::Simulator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Topology: q = 5 gives 50 routers; concentration 4 gives 200
    //    cores — the paper's SN-S design.
    let topo = Topology::slim_noc(5, 4)?;
    println!("topology       : {topo}");
    println!("diameter       : {}", topo.diameter());
    println!("avg path length: {:.3} hops", topo.average_path_length());

    // 2. Layout: the subgroup layout minimizes average wire length for
    //    this size (§3.3).
    let layout = Layout::slim_noc(&topo, SnLayout::Subgroup)?;
    println!("die grid       : {:?} tiles", layout.grid());
    println!(
        "avg wire length: {:.3} tiles",
        layout.average_wire_length(&topo)
    );

    // 3. Buffers: RTT-sized edge buffers (Eq. 5).
    let buffers = BufferModel::edge_buffers(&topo, &layout, BufferSpec::standard());
    println!(
        "buffers/router : {:.0} flits (Δ_eb = {} flits)",
        buffers.average_per_router(),
        buffers.total()
    );

    // 4. Simulate uniform random traffic at a moderate load.
    let mut sim = Simulator::build_with_layout(&topo, &layout, &SimConfig::default())?;
    let report = sim.run_synthetic(TrafficPattern::Random, 0.10, 2_000, 10_000);
    println!(
        "latency        : {:.2} cycles (p99 {})",
        report.avg_packet_latency(),
        report.latency_percentile(0.99)
    );
    println!(
        "throughput     : {:.4} flits/node/cycle",
        report.throughput()
    );

    // 5. Area and power at 45 nm.
    let model = PowerModel::new(TechNode::N45);
    let result = model.evaluate_from_sim(
        &report,
        &topo,
        &layout,
        buffers.average_per_router() as usize,
    );
    println!(
        "area           : {:.1} mm^2 ({:.2e} cm^2/node)",
        result.area.total_mm2(),
        result.area.per_node_cm2()
    );
    println!("static power   : {:.2} W", result.static_power.total_w());
    println!("dynamic power  : {:.2} W", result.dynamic_power.total_w());
    println!(
        "thpt/power     : {:.3e} flits/J",
        result.throughput_per_power()
    );
    Ok(())
}
