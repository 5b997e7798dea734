//! Golden-file test pinning the `slim_noc-sweep-v1` JSON schema.
//!
//! Downstream consumers (plotting scripts, CI artifacts) index this
//! output by field name and rely on its ordering and units. The v2
//! power-aware schema is defined as a strict superset of v1, so this
//! test is the contract that v2 — or any later change — never breaks
//! v1 consumers: the serialization of a fixed result must match the
//! committed golden byte-for-byte, and the v2 form of the same result
//! must contain every v1 line as a prefix.

use snoc_core::{CampaignResult, PowerPoint, SweepPoint};
use snoc_power::TechNode;

/// A fully deterministic result (no simulation involved) covering the
/// serializer's edge cases: escaped quotes in names, a refined point,
/// a saturated point, and a non-finite float (serialized as null).
fn fixed_result() -> CampaignResult {
    CampaignResult {
        name: "golden \"v1\"".to_string(),
        setups: vec!["sn54".to_string(), "cm4".to_string()],
        patterns: vec!["RND".to_string()],
        warmup: 200,
        measure: 800,
        base_seed: 0xC0FFEE,
        tech: None,
        cache_hits: 0,
        cache_misses: 0,
        points: vec![
            SweepPoint {
                setup: "sn54".to_string(),
                pattern: "RND".to_string(),
                load: 0.02,
                seed: 1234567890123456789,
                latency: 17.25,
                p99_latency: 31,
                throughput: 0.019875,
                avg_hops: 1.625,
                acceptance: 1.0,
                delivered_packets: 420,
                dropped_packets: 0,
                saturated: false,
                drained: true,
                refined: false,
                power: None,
            },
            SweepPoint {
                setup: "cm4".to_string(),
                pattern: "RND".to_string(),
                load: 0.3,
                seed: 42,
                latency: f64::INFINITY,
                p99_latency: 4095,
                throughput: 0.066,
                avg_hops: 5.0,
                acceptance: 0.25,
                delivered_packets: 9000,
                dropped_packets: 0,
                saturated: true,
                drained: false,
                refined: true,
                power: None,
            },
        ],
    }
}

/// The same fixed result as a power-aware (v2) campaign: a tech node
/// plus power columns on every point. Values exercise scientific
/// notation and plain decimals.
fn fixed_result_v2() -> CampaignResult {
    let mut v2 = fixed_result();
    v2.tech = Some(TechNode::N45);
    for p in &mut v2.points {
        p.power = Some(PowerPoint {
            power_w: 8.461,
            static_w: 2.872,
            dynamic_w: 5.589,
            area_mm2: 97.25,
            throughput_per_watt: 2.306e9,
            energy_per_flit_j: 4.336e-10,
            edp_js: 1.044e-7,
        });
    }
    v2
}

#[test]
fn sweep_v1_json_matches_golden_file() {
    let golden = include_str!("golden/sweep_v1.json");
    let got = fixed_result().to_json();
    assert_eq!(
        got, golden,
        "slim_noc-sweep-v1 serialization changed; this schema is pinned \
         for downstream consumers — bump to a new schema version instead \
         of mutating v1"
    );
}

#[test]
fn v1_field_names_and_order_are_pinned() {
    let json = fixed_result().to_json();
    // Header fields, in order.
    let header_order = [
        "schema",
        "campaign",
        "setups",
        "patterns",
        "warmup",
        "measure",
        "base_seed",
        "points",
    ];
    let mut last = 0;
    for field in header_order {
        let idx = json
            .find(&format!("\"{field}\":"))
            .unwrap_or_else(|| panic!("missing header field {field}"));
        assert!(idx > last, "header field {field} out of order");
        last = idx;
    }
    // Per-point fields, in order, on every point line.
    let point_order = [
        "setup",
        "pattern",
        "load",
        "seed",
        "latency",
        "p99_latency",
        "throughput",
        "avg_hops",
        "acceptance",
        "delivered_packets",
        "saturated",
        "drained",
        "refined",
    ];
    for line in json
        .lines()
        .filter(|l| l.trim_start().starts_with("{\"setup\""))
    {
        let mut last = 0;
        for field in point_order {
            let idx = line
                .find(&format!("\"{field}\":"))
                .unwrap_or_else(|| panic!("missing point field {field} in {line}"));
            assert!(idx >= last, "point field {field} out of order in {line}");
            last = idx;
        }
    }
}

#[test]
fn dropped_packets_column_appears_only_on_degraded_points() {
    // Fault-free points keep the exact v1/v2 wire form (pinned by the
    // golden files above); degraded-mode points append the drop count
    // after `refined` and before any power columns.
    let mut result = fixed_result_v2();
    result.points[1].dropped_packets = 17;
    let json = result.to_json();
    let lines: Vec<&str> = json
        .lines()
        .filter(|l| l.trim_start().starts_with("{\"setup\""))
        .collect();
    assert!(!lines[0].contains("dropped_packets"), "{}", lines[0]);
    let degraded = lines[1];
    let dropped = degraded.find("\"dropped_packets\": 17").expect(degraded);
    assert!(degraded.find("\"refined\":").unwrap() < dropped);
    assert!(dropped < degraded.find("\"power_w\":").unwrap());
}

#[test]
fn sweep_v2_json_matches_golden_file() {
    // v2 is pinned byte-for-byte just like v1: `snoc repro fig_energy
    // --json` writes it and plotting scripts consume it. Bump to
    // v3 instead of mutating this schema. To record an intentional
    // schema bump, run with `UPDATE_GOLDEN=1` and commit the diff.
    let got = fixed_result_v2().to_json();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sweep_v2.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing; record it with UPDATE_GOLDEN=1");
    assert_eq!(
        got, golden,
        "slim_noc-sweep-v2 serialization changed; this schema is pinned \
         for downstream consumers — bump to a new schema version instead \
         of mutating v2 (or run with UPDATE_GOLDEN=1 for an intentional \
         bump and review the diff)"
    );
}

#[test]
fn v2_power_columns_and_order_are_pinned() {
    let json = fixed_result_v2().to_json();
    assert!(json.contains("\"schema\": \"slim_noc-sweep-v2\""));
    assert!(json.contains("\"tech\": \"45nm\""));
    // Power columns trail the v1 point fields, in this order, on every
    // point line.
    let power_order = [
        "refined", // last v1 field
        "power_w",
        "static_w",
        "dynamic_w",
        "area_mm2",
        "throughput_per_watt",
        "energy_per_flit_j",
        "edp_js",
    ];
    for line in json
        .lines()
        .filter(|l| l.trim_start().starts_with("{\"setup\""))
    {
        let mut last = 0;
        for field in power_order {
            let idx = line
                .find(&format!("\"{field}\":"))
                .unwrap_or_else(|| panic!("missing v2 point field {field} in {line}"));
            assert!(idx > last, "v2 point field {field} out of order in {line}");
            last = idx;
        }
    }
}

#[test]
fn v2_superset_preserves_every_v1_point_prefix() {
    // The same fixed result rendered as v2: every v1 point line must
    // survive verbatim as the prefix of its v2 line, so a v1 consumer
    // reading by field name sees identical values.
    let v1 = fixed_result();
    let v2 = fixed_result_v2();
    let v1_json = v1.to_json();
    let v2_json = v2.to_json();
    assert!(v2_json.contains("\"schema\": \"slim_noc-sweep-v2\""));
    let v1_points: Vec<&str> = v1_json
        .lines()
        .filter(|l| l.trim_start().starts_with("{\"setup\""))
        .map(|l| l.trim_end_matches(&[',', '}'][..]))
        .collect();
    let v2_points: Vec<&str> = v2_json
        .lines()
        .filter(|l| l.trim_start().starts_with("{\"setup\""))
        .collect();
    assert_eq!(v1_points.len(), v2_points.len());
    for (p1, p2) in v1_points.iter().zip(&v2_points) {
        assert!(
            p2.starts_with(p1),
            "v2 point must extend its v1 form\n v1: {p1}\n v2: {p2}"
        );
    }
}
