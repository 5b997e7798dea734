//! Integration tests spanning all crates: full build-place-simulate-
//! evaluate pipelines on the paper's configurations.

use slim_noc::core::{BufferPreset, CampaignSpec, Setup, SetupSpec};
use slim_noc::layout::{Layout, SnLayout};
use slim_noc::power::TechNode;
use slim_noc::prelude::*;
use slim_noc::sim::Simulator;
use slim_noc::topology::{NodeId, RouterId};
use slim_noc::traffic::{MessageKind, TraceMessage, TraceWorkload};

mod common;

#[test]
fn every_paper_configuration_simulates_and_drains() {
    for name in slim_noc::topology::paper_config_names() {
        // Keep the heavy 1296-node runs short; this is a smoke pass.
        let setup = Setup::paper(name).expect("config");
        let report = setup.run_load(TrafficPattern::Random, 0.02, 200, 800);
        assert!(report.delivered_packets > 0, "{name}: {report}");
        assert!(report.drained, "{name} failed to drain: {report}");
    }
}

#[test]
fn slim_noc_latency_beats_low_radix_networks() {
    // §5.2.2 / Figs 12-13 / Fig 19 (all with SMART links): SN has lower
    // latency than mesh and torus. Without SMART, SN's longer wires can
    // cost latency at small scales — which is exactly Fig 14's point.
    let lat = |name: &str| {
        let recipe = SetupSpec {
            smart: true,
            ..SetupSpec::new(name)
        };
        recipe
            .build()
            .expect("config")
            .run_load(TrafficPattern::Random, 0.05, 500, 2_500)
            .avg_packet_latency()
    };
    let sn = lat("sn54");
    let t2d = lat("t2d54");
    let cm = lat("cm54");
    assert!(sn < t2d, "sn {sn} vs t2d {t2d}");
    assert!(sn < cm, "sn {sn} vs cm {cm}");
}

#[test]
fn slim_noc_throughput_beats_low_radix_networks() {
    let setups = vec![SetupSpec::new("sn54"), SetupSpec::new("t2d54")];
    let sweep = common::saturation_sweep(setups, 300, 1_500);
    let sn = sweep.peak_throughput("sn54", "RND");
    let t2d = sweep.peak_throughput("t2d54", "RND");
    assert!(
        sn > 1.5 * t2d,
        "SN saturation {sn} should dwarf torus {t2d}"
    );
}

#[test]
fn zero_load_latency_matches_analytic_model() {
    // At near-zero load, packet latency ≈ injection (1) + per-hop router
    // pipeline (2) + link (1 cycle each at H=1, unit wires) + final
    // ejection (2 + 1) + serialization (len − 1). For a diameter-2 SN
    // with 6-flit packets: ~2 hops avg -> between 10 and 20 cycles.
    let topo = Topology::slim_noc(3, 3).unwrap();
    let mut sim = Simulator::build(&topo, &SimConfig::default()).unwrap();
    let report = sim.run_synthetic(TrafficPattern::Random, 0.005, 1_000, 6_000);
    let lat = report.avg_packet_latency();
    assert!((10.0..20.0).contains(&lat), "zero-load latency {lat}");
}

#[test]
fn cbr_with_smart_is_the_best_sn_design_point() {
    // §5.2.1's conclusion (3): SN with small CBs performs best; check
    // CBR-20 at least matches EB-Small in saturation throughput.
    let eb = SetupSpec {
        name: "eb".to_string(),
        smart: true,
        ..SetupSpec::new("sn54")
    };
    let cbr = SetupSpec {
        name: "cbr".to_string(),
        buffers: BufferPreset::Cbr(20),
        ..eb.clone()
    };
    let sweep = common::saturation_sweep(vec![eb, cbr], 300, 1_500);
    let eb_sat = sweep.peak_throughput("eb", "RND");
    let cbr_sat = sweep.peak_throughput("cbr", "RND");
    assert!(
        cbr_sat > 0.7 * eb_sat,
        "CBR {cbr_sat} should be competitive with EB {eb_sat}"
    );
}

#[test]
fn trace_protocol_round_trip() {
    // Reads trigger replies; everything drains; latency is sane.
    let w = TraceWorkload::by_name("streamcluster").unwrap();
    let mut spec = CampaignSpec::new("trace_round_trip");
    spec.setups = vec![SetupSpec::new("sn54")];
    spec.workloads = vec![w];
    (spec.warmup, spec.measure) = (400, 3_600);
    let result = Campaign::from_spec(&spec).expect("valid spec").run();
    let point = result
        .point("sn54", w.name, w.offered_flit_rate())
        .expect("the workload's point");
    assert!(point.drained, "{point:?}");
    assert!(point.latency > 5.0);
    assert!(point.delivered_packets > 100);
}

#[test]
fn the_clock_stops_the_cycle_after_the_last_measured_tail_ejects() {
    // With sn_s's own layout a lone packet's credits are still
    // returning on multi-cycle wires when its tail ejects; the run is
    // over all the same.
    let setup = Setup::paper("sn_s").expect("sn_s");
    let (topo, layout) = (&setup.topology, &setup.layout);
    let src = RouterId(0);
    let wire = |r: &RouterId| layout.manhattan(src, *r);
    let near = *topo.neighbors(src).iter().min_by_key(|r| wire(r)).unwrap();
    let far = *topo.neighbors(src).iter().max_by_key(|r| wire(r)).unwrap();
    let two_hops = topo
        .routers()
        .find(|&r| r != src && !topo.neighbors(src).contains(&r))
        .unwrap();
    // A credit pushed when the tail leaves the last input buffer is
    // still on a wire this long one cycle after the tail ejects.
    assert!(wire(&far) > 2, "sn_s has multi-cycle wires");
    for dst in [near, far, two_hops] {
        let trace = [TraceMessage {
            cycle: 0,
            src: NodeId(0),
            dst: NodeId(dst.index() * topo.concentration()),
            kind: MessageKind::WriteRequest,
        }];
        let report = setup.simulator().expect("sim").run_trace(&trace, 0);
        assert_eq!(report.delivered_packets, 1, "to {dst}");
        assert_eq!(report.total_cycles, report.latency_max + 1, "to {dst}");
    }
}

#[test]
fn power_pipeline_end_to_end() {
    let recipe = SetupSpec {
        buffers: BufferPreset::EbVar,
        ..SetupSpec::new("sn54")
    };
    let setup = recipe.build().expect("sn54");
    let report = setup.run_load(TrafficPattern::Random, 0.08, 300, 2_000);
    let r = setup.power_report(TechNode::N45, &report);
    assert!(r.area.total_mm2() > 0.0);
    assert!(r.static_power.total_w() > 0.0);
    assert!(r.dynamic_power.total_w() > 0.0);
    assert!(r.throughput_per_power() > 0.0);
    assert!(r.energy_delay() > 0.0);
    // Dynamic power at 8% load stays below static+dynamic bound sanity.
    assert!(r.dynamic_power.total_w() < 100.0, "{:?}", r.dynamic_power);
}

#[test]
fn facade_prelude_compiles_and_exposes_the_api() {
    // The prelude carries the whole workflow.
    let topo = Topology::slim_noc(3, 3).expect("sn");
    let layout = Layout::slim_noc(&topo, SnLayout::Subgroup).expect("layout");
    let cfg = SimConfig::default();
    let mut sim = Simulator::build_with_layout(&topo, &layout, &cfg).expect("sim");
    let report = sim.run_synthetic(TrafficPattern::BitShuffle, 0.03, 200, 1_000);
    assert!(report.delivered_packets > 0);
}

#[test]
fn sn_1024_power_of_two_design_works() {
    // The §3.4 power-of-two design: q = 8 (non-prime field), 1024 nodes.
    let setup = Setup::paper("sn_p2").expect("sn_p2");
    assert_eq!(setup.topology.node_count(), 1024);
    assert_eq!(setup.topology.diameter(), 2);
    let report = setup.run_load(TrafficPattern::Random, 0.02, 200, 800);
    assert!(report.drained, "{report}");
}
