//! Tests pinning the paper's headline quantitative claims (the "shape"
//! targets behind the README's "Reproducing figures and tables" and
//! "Energy-efficiency pipeline"). Absolute constants differ from
//! the authors' testbed; each assertion checks the direction and rough
//! factor of a published comparison.

use slim_noc::core::{BufferPreset, CampaignSpec, SetupSpec};
use slim_noc::field::SlimFlyParams;
use slim_noc::layout::{BufferModel, BufferSpec, Layout, SnLayout};
use slim_noc::power::TechNode;
use slim_noc::prelude::*;

mod common;

/// §2.1: "SF reduces the number of routers by ≈25% and increases their
/// network radix by ≈40% in comparison to a DF with a comparable N."
#[test]
fn slim_fly_uses_fewer_routers_than_dragonfly() {
    let sn = Topology::slim_noc(7, 4).unwrap(); // N = 392
    let df = Topology::dragonfly(3); // N = 342
    let router_ratio = df.router_count() as f64 / sn.router_count() as f64;
    assert!(
        router_ratio > 1.1,
        "DF should need noticeably more routers (ratio {router_ratio:.2})"
    );
    assert!(sn.network_radix() > df.network_radix());
}

/// §3.3 / Fig 5a: the subgroup and group layouts reduce the average wire
/// length by roughly a quarter versus random placement.
#[test]
fn layouts_cut_wire_length_by_about_a_quarter() {
    let t = Topology::slim_noc(9, 8).unwrap();
    let m = |k: SnLayout| Layout::slim_noc(&t, k).unwrap().average_wire_length(&t);
    let m_rand = m(SnLayout::Random(1));
    let m_subgr = m(SnLayout::Subgroup);
    let reduction = 1.0 - m_subgr / m_rand;
    assert!(
        (0.10..0.50).contains(&reduction),
        "wire-length reduction {reduction:.2} (paper: ≈25%)"
    );
}

/// §3.3 / Fig 5b: the group layout cuts Δ_eb by double-digit percent.
#[test]
fn group_layout_cuts_edge_buffer_total() {
    let t = Topology::slim_noc(9, 8).unwrap();
    let total = |k: SnLayout| {
        let l = Layout::slim_noc(&t, k).unwrap();
        BufferModel::edge_buffers(&t, &l, BufferSpec::standard()).total() as f64
    };
    let reduction = 1.0 - total(SnLayout::Group) / total(SnLayout::Random(1));
    assert!(
        reduction > 0.08,
        "Δ_eb reduction {reduction:.2} (paper: ≈18%)"
    );
}

/// Figs 5b–5c: central buffers give the lowest total buffer size.
#[test]
fn central_buffers_minimize_total_buffer_space() {
    let t = Topology::slim_noc(9, 8).unwrap();
    let l = Layout::slim_noc(&t, SnLayout::Group).unwrap();
    let eb = BufferModel::edge_buffers(&t, &l, BufferSpec::standard()).total();
    let cb = slim_noc::layout::total_central_buffers(&t, 20, 2);
    assert!(cb < eb / 2, "CB total {cb} vs EB total {eb}");
}

/// §3.3.2 / Fig 5d: all layouts satisfy the Eq. 3 wiring constraint.
#[test]
fn wiring_constraints_hold_for_all_paper_designs() {
    for (q, p) in [(5usize, 4usize), (8, 8), (9, 8)] {
        let t = Topology::slim_noc(q, p).unwrap();
        for kind in [
            SnLayout::Basic,
            SnLayout::Subgroup,
            SnLayout::Group,
            SnLayout::Random(3),
        ] {
            let l = Layout::slim_noc(&t, kind).unwrap();
            let stats = l.wire_stats(&t);
            for tech in [TechNode::N45, TechNode::N22, TechNode::N11] {
                let bound = slim_noc::layout::max_wires_per_tile(tech, p);
                assert!(
                    stats.satisfies_limit(bound),
                    "q={q} {kind:?} {tech}: {} > {bound}",
                    stats.max_crossings
                );
            }
        }
    }
}

/// §6 "SN vs High-Radix Networks": area and static power far below FBF.
#[test]
fn sn_beats_fbf_in_area_and_static_power() {
    let eval = |name: &str| {
        let recipe = SetupSpec {
            buffers: BufferPreset::EbVar,
            ..SetupSpec::new(name)
        };
        let s = recipe.build().unwrap();
        let model = s.power_model(TechNode::N45);
        let area = model.area(&s.topology, &s.layout, s.buffer_flits_per_router());
        let stat = model.static_power(&s.topology, &s.layout, &area);
        (area.total_mm2(), stat.total_w())
    };
    let (sn_area, sn_pwr) = eval("sn_s");
    let (fbf_area, fbf_pwr) = eval("fbf3");
    let area_saving = 1.0 - sn_area / fbf_area;
    let power_saving = 1.0 - sn_pwr / fbf_pwr;
    assert!(
        area_saving > 0.2,
        "area saving {area_saving:.2} (paper: >36%)"
    );
    assert!(
        power_saving > 0.3,
        "static power saving {power_saving:.2} (paper: >49%)"
    );
}

/// §6 "SN vs Low-Radix Networks": SN pays area but wins performance.
#[test]
fn sn_trades_area_for_performance_against_torus() {
    let [sn, t2d] = ["sn_s", "t2d4"].map(|config| SetupSpec {
        buffers: BufferPreset::EbVar,
        ..SetupSpec::new(config)
    });
    let area = |s: &SetupSpec| {
        let s = s.build().unwrap();
        s.power_model(TechNode::N45)
            .area(&s.topology, &s.layout, s.buffer_flits_per_router())
            .total_mm2()
    };
    assert!(area(&sn) > area(&t2d), "SN uses more area than T2D");
    let sweep = common::saturation_sweep(vec![sn, t2d], 300, 1_500);
    let sat_sn = sweep.peak_throughput("sn_s", "RND");
    let sat_t2d = sweep.peak_throughput("t2d4", "RND");
    assert!(
        sat_sn > 2.0 * sat_t2d,
        "SN throughput {sat_sn} vs T2D {sat_t2d} (paper: 3x)"
    );
}

/// Table 2's most important property: Slim NoC admits power-of-two node
/// counts through non-prime fields (impossible with prime q alone at
/// these radixes).
#[test]
fn non_prime_fields_unlock_power_of_two_sizes() {
    for (q, p, n) in [
        (4usize, 2usize, 64usize),
        (4, 4, 128),
        (8, 4, 512),
        (8, 8, 1024),
    ] {
        let params = SlimFlyParams::new(q).unwrap();
        assert_eq!(params.nodes_with(p), n);
        assert!(n.is_power_of_two());
        let t = Topology::slim_noc(q, p).unwrap();
        assert_eq!(t.diameter(), 2, "q={q}");
    }
}

/// §5.2.1: SMART links accelerate Slim NoC (the paper reports up to
/// ≈35% for sn_subgr; we require a clear double-digit gain at moderate
/// load with RTT-sized buffers).
#[test]
fn smart_links_accelerate_slim_noc() {
    let lat = |smart: bool| {
        let recipe = SetupSpec {
            buffers: BufferPreset::EbVar,
            smart,
            ..SetupSpec::new("sn_s")
        };
        recipe
            .build()
            .unwrap()
            .run_load(TrafficPattern::Random, 0.06, 500, 3_000)
            .avg_packet_latency()
    };
    let without = lat(false);
    let with = lat(true);
    let gain = 1.0 - with / without;
    assert!(
        gain > 0.10,
        "SMART gain {gain:.2} ({with:.1} vs {without:.1} cycles)"
    );
}

/// Fig 18's direction: Slim NoC's EDP beats FBF's on traces.
#[test]
fn sn_edp_beats_fbf_on_a_trace() {
    let w = slim_noc::traffic::TraceWorkload::by_name("fft").unwrap();
    let mut spec = CampaignSpec::new("fig18_fft");
    spec.setups = ["sn_s", "fbf3"]
        .map(|config| SetupSpec {
            smart: true,
            buffers: BufferPreset::EbVar,
            ..SetupSpec::new(config)
        })
        .into();
    spec.workloads = vec![w];
    (spec.warmup, spec.measure) = (600, 5_400);
    spec.power_tech = Some(TechNode::N45);
    let result = Campaign::from_spec(&spec).unwrap().run();
    let edp = |name: &str| {
        let point = result.point(name, w.name, w.offered_flit_rate()).unwrap();
        point.power.expect("power-aware campaign").edp_js
    };
    let (sn, fbf) = (edp("sn_s"), edp("fbf3"));
    assert!(sn < fbf, "SN EDP {sn:.3e} vs FBF {fbf:.3e}");
}
