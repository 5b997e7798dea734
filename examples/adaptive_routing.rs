//! Adaptive routing: the §6 study in miniature — Slim NoC under MIN,
//! UGAL-L and UGAL-G against asymmetric traffic, showing Valiant
//! detours trading latency for throughput.
//!
//! Run with: `cargo run --release --example adaptive_routing`

use slim_noc::core::SetupSpec;
use slim_noc::sim::RoutingKind;
use slim_noc::traffic::TrafficPattern;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:<10} {:<8} {:>8} {:>12} {:>10} {:>10}",
        "routing", "load", "latency", "throughput", "avg hops", "accepted"
    );
    for (name, routing) in [
        ("MIN", RoutingKind::Minimal),
        ("UGAL-L", RoutingKind::UgalL),
        ("UGAL-G", RoutingKind::UgalG),
    ] {
        for load in [0.05, 0.2, 0.4] {
            let recipe = SetupSpec {
                routing,
                ..SetupSpec::new("sn_s")
            };
            let setup = recipe.build()?;
            let report = setup.run_load(TrafficPattern::Asymmetric, load, 1_000, 6_000);
            println!(
                "{:<10} {:<8} {:>8.2} {:>12.4} {:>10.3} {:>9.0}%",
                name,
                load,
                report.avg_packet_latency(),
                report.throughput(),
                report.avg_hops(),
                100.0 * report.acceptance(),
            );
        }
    }
    println!("\nUGAL detours (hops > minimal) appear as load grows, lifting throughput.");
    Ok(())
}
