//! Integration tests of the router microarchitecture matrix: every
//! (router architecture × link mode × buffer sizing × SMART) combination
//! must deliver traffic, drain, and conserve flits on every topology
//! family.

use slim_noc::layout::Layout;
use slim_noc::prelude::*;
use slim_noc::sim::{BufferSizing, LinkMode, RouterArch, Simulator};

fn configs() -> Vec<(String, SimConfig)> {
    let mut out = Vec::new();
    for (arch_name, arch) in [
        ("eb", RouterArch::EdgeBuffer),
        ("cbr", RouterArch::CentralBuffer { cb_flits: 20 }),
    ] {
        for (link_name, link) in [
            ("credited", LinkMode::Credited),
            ("elastic", LinkMode::Elastic),
        ] {
            for (smart_name, h) in [("h1", 1usize), ("h9", 9)] {
                // CBR pairs with 1-flit staging; EB uses 5-flit buffers.
                let sizing = match arch {
                    RouterArch::EdgeBuffer => BufferSizing::Fixed(5),
                    RouterArch::CentralBuffer { .. } => BufferSizing::Fixed(1),
                };
                let cfg = SimConfig {
                    router_arch: arch,
                    link_mode: link,
                    buffer_sizing: sizing,
                    smart_hops: h,
                    ..SimConfig::default()
                };
                out.push((format!("{arch_name}/{link_name}/{smart_name}"), cfg));
            }
        }
    }
    out
}

#[test]
fn full_microarchitecture_matrix_on_slim_noc() {
    let topo = Topology::slim_noc(3, 3).unwrap();
    let layout = Layout::natural(&topo);
    for (name, cfg) in configs() {
        let mut sim = Simulator::build_with_layout(&topo, &layout, &cfg)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = sim.run_synthetic(TrafficPattern::Random, 0.04, 300, 1_500);
        assert!(report.drained, "{name}: {report}");
        assert!(report.delivered_packets > 50, "{name}: {report}");
        assert_eq!(
            report.delivered_packets, report.injected_packets,
            "{name}: flit conservation"
        );
        assert_eq!(sim.in_flight_flits(), 0, "{name}");
    }
}

#[test]
fn microarchitecture_matrix_on_baselines() {
    for topo in [
        Topology::mesh(4, 4, 2),
        Topology::torus(4, 4, 2),
        Topology::flattened_butterfly(4, 4, 2),
    ] {
        let layout = Layout::natural(&topo);
        for (name, cfg) in configs() {
            let mut sim = Simulator::build_with_layout(&topo, &layout, &cfg)
                .unwrap_or_else(|e| panic!("{}/{name}: {e}", topo.name()));
            let report = sim.run_synthetic(TrafficPattern::Random, 0.03, 200, 1_000);
            assert!(report.drained, "{}/{name}: {report}", topo.name());
            assert!(
                report.delivered_packets > 20,
                "{}/{name}: {report}",
                topo.name()
            );
        }
    }
}

#[test]
fn variable_rtt_buffers_match_link_latency() {
    // With EB-Var the network still works at high load and the latency
    // stays finite even with long wires (100% link utilization claim).
    let topo = Topology::slim_noc(5, 4).unwrap();
    let layout = Layout::natural(&topo);
    let cfg = SimConfig {
        buffer_sizing: BufferSizing::VariableRtt,
        ..SimConfig::default()
    };
    let mut sim = Simulator::build_with_layout(&topo, &layout, &cfg).unwrap();
    let report = sim.run_synthetic(TrafficPattern::Random, 0.15, 500, 3_000);
    assert!(report.delivered_packets > 500, "{report}");
    // RTT-sized buffers should accept most of this sub-saturation load.
    assert!(report.acceptance() > 0.9, "{report}");
}

#[test]
fn small_edge_buffers_hurt_throughput_on_long_wires() {
    // §5.2.1: without SMART links, small edge buffers cannot cover the
    // round-trip time of multi-tile wires, capping link utilization.
    let topo = Topology::slim_noc(5, 4).unwrap();
    let layout = Layout::natural(&topo);
    let run = |sizing: BufferSizing| {
        let cfg = SimConfig {
            buffer_sizing: sizing,
            ..SimConfig::default()
        };
        let mut sim = Simulator::build_with_layout(&topo, &layout, &cfg).unwrap();
        sim.run_synthetic(TrafficPattern::Random, 0.30, 500, 3_000)
            .throughput()
    };
    let small = run(BufferSizing::Fixed(2));
    let var = run(BufferSizing::VariableRtt);
    assert!(
        var > small,
        "RTT-sized buffers ({var}) must outperform 2-flit buffers ({small})"
    );
}

#[test]
fn deeper_central_buffers_absorb_more_conflicts() {
    let topo = Topology::slim_noc(3, 3).unwrap();
    let run = |cb: usize| {
        let mut sim = Simulator::build(&topo, &SimConfig::cbr(cb)).unwrap();
        sim.run_synthetic(TrafficPattern::Random, 0.25, 500, 2_500)
    };
    let small = run(6);
    let large = run(40);
    // Larger CBs hold more packets; both must work, and the large CB
    // should not lose throughput.
    assert!(large.throughput() >= small.throughput() * 0.9);
}

#[test]
fn a_layout_whose_wires_all_fit_one_smart_hop_is_invisible_to_the_clock() {
    // Link latency is ⌈distance / H⌉ cycles: once H covers the longest
    // wire every link is unit-latency, so raising H further changes
    // nothing and the layout itself only shows in the wire-energy
    // counter (with fixed-size buffers; EB-Var sizes from the layout).
    for name in ["sn54", "fbf3"] {
        let setup = slim_noc::core::Setup::paper(name).unwrap();
        let (topo, layout) = (&setup.topology, &setup.layout);
        assert!(matches!(setup.sim.buffer_sizing, BufferSizing::Fixed(_)));
        let longest = layout.max_wire_length(topo);
        assert!(longest > 1, "{name} has multi-tile wires");
        for load in [0.03, 0.2] {
            let run = |layout: Option<&Layout>, smart_hops: usize| {
                let cfg = SimConfig {
                    smart_hops,
                    ..setup.sim.clone()
                };
                let built = match layout {
                    Some(layout) => Simulator::build_with_layout(topo, layout, &cfg),
                    None => Simulator::build(topo, &cfg),
                };
                built
                    .unwrap()
                    .run_synthetic(TrafficPattern::Random, load, 300, 1_500)
            };
            let covered = run(Some(layout), longest);
            assert!(covered.delivered_packets > 50, "{name} @ {load}: {covered}");
            // (i) H = max wire ≡ H = 10 × max wire, byte for byte.
            let far = run(Some(layout), 10 * longest);
            assert_eq!(covered.to_json(), far.to_json(), "{name} @ {load}");
            // (ii) ≡ no layout at all, except the one counter that reads
            // tile distances.
            let mut bare = run(None, longest);
            let tiles = covered.activity.wire_flit_tiles;
            assert!(tiles >= covered.activity.link_flit_hops, "{name} @ {load}");
            bare.activity.wire_flit_tiles = tiles;
            assert_eq!(covered, bare, "{name} @ {load}");
        }
    }
}

/// FNV-1a finished with the splitmix64 avalanche — the construction
/// `snoc_core`'s engine fingerprint hashes report bytes with.
fn mix64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[test]
fn adaptive_trace_replies_are_pinned_byte_for_byte() {
    // The engine fingerprint's members are synthetic; this pins traces
    // *with replies* under adaptive routing. A reply is created while
    // its request's tail ejects: UGAL draws its intermediate from the
    // simulator's RNG and probes output occupancy, which counts a flit
    // in an ST register or on a channel — so the bytes move if a
    // router's ejections ever run ahead of its own link pushes (the
    // fingerprint does not notice). Constants recorded at `ebfae72`,
    // before the cycle loop's phases were restructured.
    use slim_noc::sim::RoutingKind::{UgalG, UgalL};
    let pins = [
        ("fft", UgalL, 0x0e4f_aaf7_ba6f_a5b0_u64),
        ("fft", UgalG, 0x9230_f5e5_f5cd_1fa9),
        ("streamcluster", UgalL, 0xf3c6_2fae_47ed_6e1b),
        ("streamcluster", UgalG, 0x7cec_0640_eae6_560d),
    ];
    for (workload, routing, pinned) in pins {
        let recipe = slim_noc::core::SetupSpec {
            routing,
            ..slim_noc::core::SetupSpec::new("sn_s")
        };
        let setup = recipe.build().unwrap();
        let w = TraceWorkload::by_name(workload).unwrap();
        let trace = w.generate(&setup.topology, 1_500, setup.sim.seed);
        let report = setup.simulator().unwrap().run_trace(&trace, 300);
        assert!(report.drained, "{workload} {routing:?}: {report}");
        assert!(report.delivered_packets > 1_000, "{workload}: {report}");
        assert_eq!(
            mix64(report.to_json().as_bytes()),
            pinned,
            "{workload} under {routing:?} moved: {report}"
        );
    }
}
