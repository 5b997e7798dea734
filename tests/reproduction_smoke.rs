//! Smoke tests of the reproduction pipeline itself: miniature versions
//! of each figure's computation, asserting the shape the corresponding
//! `snoc repro` figure reports at full scale. These guard the experiment
//! harness (not just the library) against regressions.

use slim_noc::core::{BufferPreset, Campaign, CampaignSpec, Series, SetupSpec, TextTable};
use slim_noc::field::Gf;
use slim_noc::layout::{max_wires_per_tile, BufferModel, BufferSpec, Layout, SnLayout, TechNode};
use slim_noc::prelude::*;
use slim_noc::topology::table2_rows;

mod common;

/// Table 2 smoke: the generator enumerates exactly the paper's 24 rows
/// at the 1300-node limit.
#[test]
fn table2_row_count() {
    let rows = table2_rows(1300);
    assert_eq!(rows.len(), 24, "Table 2 has 24 rows");
    assert_eq!(rows.iter().filter(|r| !r.prime_field).count(), 12);
}

/// Table 3 smoke: the paper's exact GF(9) multiplication row for `u`.
#[test]
fn table3_gf9_u_row() {
    let f9 = Gf::new(9).unwrap();
    let u = f9.element(3).unwrap();
    let row: String = f9
        .elements()
        .map(|b| f9.element_name(f9.mul(u, b)))
        .collect();
    assert_eq!(row, "0ux2wz1vy", "paper Table 3, GF(9) product row u");
}

/// Fig 5 smoke: M ordering and Eq. 3 compliance at the SN-L point.
#[test]
fn fig5_shape() {
    let t = Topology::slim_noc(9, 8).unwrap();
    let m = |k| Layout::slim_noc(&t, k).unwrap().average_wire_length(&t);
    assert!(m(SnLayout::Subgroup) < m(SnLayout::Basic));
    assert!(m(SnLayout::Group) < m(SnLayout::Random(1)));
    let stats = Layout::slim_noc(&t, SnLayout::Group)
        .unwrap()
        .wire_stats(&t);
    assert!(stats.satisfies_limit(max_wires_per_tile(TechNode::N22, 8)));
}

/// Fig 6 smoke: at N = 200 the subgroup layout uses fewer of the
/// longest links than the group layout (the paper's §3.4 reason for
/// choosing sn_subgr for SN-S).
#[test]
fn fig6_longest_link_comparison() {
    let t = Topology::slim_noc(5, 4).unwrap();
    // Compare the probability mass of long links (distance ≥ 9 tiles,
    // i.e. bins 5 and beyond) — a fixed threshold, since the two
    // layouts have different maximum wire lengths.
    let tail = |k: SnLayout| {
        let l = Layout::slim_noc(&t, k).unwrap();
        let d = l.link_distance_density(&t, 2);
        d.iter().skip(4).sum::<f64>()
    };
    assert!(
        tail(SnLayout::Subgroup) < tail(SnLayout::Group),
        "sn_subgr should use fewer whole-die links at N=200"
    );
}

/// Fig 11 smoke: without SMART, RTT-sized buffers beat 5-flit buffers
/// in saturation throughput on a network with multi-tile wires.
#[test]
fn fig11_buffer_shape() {
    let small = SetupSpec {
        name: "small".to_string(), // EB-Small default
        ..SetupSpec::new("sn_s")
    };
    let var = SetupSpec {
        name: "var".to_string(),
        buffers: BufferPreset::EbVar,
        ..SetupSpec::new("sn_s")
    };
    let sweep = common::saturation_sweep(vec![small, var], 300, 1_200);
    let sat = |name: &str| sweep.peak_throughput(name, "RND");
    assert!(
        sat("var") > sat("small"),
        "EB-Var must out-saturate EB-Small without SMART"
    );
}

/// Fig 12 smoke: with SMART, SN's low-load latency sits well below the
/// concentrated mesh's under bit-reversal.
#[test]
fn fig12_shape() {
    let lat = |name: &str| {
        let recipe = SetupSpec {
            smart: true,
            ..SetupSpec::new(name)
        };
        recipe
            .build()
            .unwrap()
            .run_load(TrafficPattern::BitReversal, 0.008, 300, 1_200)
            .avg_packet_latency()
    };
    let sn = lat("sn_s");
    let cm = lat("cm3");
    assert!(
        sn < 0.85 * cm,
        "SN {sn:.1} should be well below CM {cm:.1} (paper: ≈54-62%)"
    );
}

/// Fig 15 smoke: the per-network area ordering FBF > PFBF > SN > T2D > CM.
#[test]
fn fig15_area_ordering() {
    let area = |name: &str| {
        let recipe = SetupSpec {
            buffers: BufferPreset::EbVar,
            ..SetupSpec::new(name)
        };
        let s = recipe.build().unwrap();
        s.power_model(slim_noc::power::TechNode::N45)
            .area(&s.topology, &s.layout, s.buffer_flits_per_router())
            .total_mm2()
    };
    let fbf = area("fbf4");
    let pfbf = area("pfbf4");
    let sn = area("sn_s");
    let t2d = area("t2d4");
    assert!(fbf > pfbf, "fbf {fbf} > pfbf {pfbf}");
    assert!(pfbf > sn, "pfbf {pfbf} > sn {sn}");
    assert!(sn > t2d, "sn {sn} > t2d {t2d}");
}

/// Buffer-model cross-check used throughout the harness: the average
/// per-router edge-buffer total equals Eq. 5 divided by N_r.
#[test]
fn buffer_model_consistency() {
    let t = Topology::slim_noc(5, 4).unwrap();
    let l = Layout::slim_noc(&t, SnLayout::Subgroup).unwrap();
    let model = BufferModel::edge_buffers(&t, &l, BufferSpec::standard());
    let avg = model.average_per_router();
    assert!((avg * t.router_count() as f64 - model.total() as f64).abs() < 1e-9);
    // Eq. 5 recomputed by hand over links.
    let spec = BufferSpec::standard();
    let manual: usize = t
        .links()
        .map(|(a, b)| 2 * spec.edge_buffer_flits(l.manhattan(a, b)))
        .sum();
    assert_eq!(model.total(), manual);
}

/// Reporting smoke: series tabulation renders every curve of a sweep.
#[test]
fn series_tabulation_roundtrip() {
    let mut spec = CampaignSpec::new("smoke");
    spec.setups = vec![SetupSpec::new("sn54")];
    spec.patterns = vec![TrafficPattern::Random];
    spec.loads = vec![0.01, 0.03];
    (spec.warmup, spec.measure) = (200, 800);
    let result = Campaign::from_spec(&spec).unwrap().run();
    let series = result.series("RND");
    assert_eq!(series[0].points.len(), result.points.len());
    let table = Series::tabulate("smoke", "load", &series);
    assert_eq!(table.rows.len(), result.points.len());
    let rendered = table.render();
    assert!(rendered.contains("sn54"));
    let _csv: TextTable = table; // type check: tables are plain data
}
