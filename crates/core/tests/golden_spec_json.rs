//! Golden-file test pinning the `slim_noc-spec-v1` campaign-spec
//! schema.
//!
//! The spec JSON is simultaneously the wire format of `snoc serve`,
//! the `--spec` input of `snoc run` and `snoc submit`, the form of every
//! committed figure campaign under `specs/`, and the source of the
//! content-addressed cache keys — so its bytes are a contract twice
//! over: consumers parse it by field name, and any serialization drift
//! would silently re-key (and thus cold-start) every existing cache.
//! Pinned alongside the sweep-v1/v2 goldens with the same
//! `UPDATE_GOLDEN=1` re-record flow.

use snoc_core::{BufferPreset, CampaignSpec, SetupSpec};
use snoc_layout::SnLayout;
use snoc_power::TechNode;
use snoc_sim::RoutingKind;
use snoc_traffic::{benchmark_names, TraceWorkload, TrafficPattern};

/// A fully deterministic spec covering the format's edge cases: every
/// optional field populated, an escaped quote in the name, a layout
/// override, a CBR buffer with a size argument, and loads that need
/// shortest-round-trip float printing.
fn fixed_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::new("golden \"spec\"");
    spec.setups = vec![SetupSpec::new("sn54"), {
        let mut s = SetupSpec::new("sn_s");
        s.name = "sn_s+smart".to_string();
        s.sn_layout = Some(SnLayout::Random(7));
        s.smart = true;
        s.buffers = BufferPreset::Cbr(20);
        s.routing = RoutingKind::UgalG;
        s
    }];
    spec.patterns = vec![TrafficPattern::Random, TrafficPattern::Adversarial1];
    spec.loads = vec![0.008, 0.1, 1.0 / 3.0];
    spec.warmup = 300;
    spec.measure = 1_200;
    spec.base_seed = 0xC0FFEE;
    spec.refine_rounds = 2;
    spec.stop_at_saturation = false;
    spec.threads = 3;
    spec.power_tech = Some(TechNode::N22);
    spec.cache_dir = Some(".snoc-cache".to_string());
    spec
}

#[test]
fn spec_v1_json_matches_golden_file() {
    let got = fixed_spec().to_json();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/spec_v1.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing; record it with UPDATE_GOLDEN=1");
    assert!(
        !got.contains("workloads"),
        "a spec without workloads keeps its pre-workloads bytes"
    );
    assert_eq!(
        got, golden,
        "slim_noc-spec-v1 serialization changed; the spec schema is \
         pinned — it is the server wire format AND the cache-key \
         source, so drift silently invalidates every existing cache. \
         Bump to spec-v2 instead of mutating v1 (or run with \
         UPDATE_GOLDEN=1 for an intentional bump and review the diff)"
    );
}

#[test]
fn golden_file_parses_back_to_the_same_spec() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/spec_v1.json");
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing; record it with UPDATE_GOLDEN=1");
    let parsed = CampaignSpec::from_json(&golden).expect("golden spec parses");
    assert_eq!(
        parsed,
        fixed_spec(),
        "value round trip from the pinned bytes"
    );
    assert_eq!(parsed.to_json(), golden, "byte round trip");
    // With workloads the same spec gains exactly one line, after
    // `patterns`, and still round-trips by value and by byte.
    let mut traced = fixed_spec();
    traced.workloads = ["fft", "water-s"]
        .map(|w| TraceWorkload::by_name(w).expect("workload"))
        .to_vec();
    let patterns_line = "  \"patterns\": [\"RND\", \"ADV1\"],\n";
    let with_line = format!("{patterns_line}  \"workloads\": [\"fft\", \"water-s\"],\n");
    assert_eq!(traced.to_json(), golden.replace(patterns_line, &with_line));
    let reparsed = CampaignSpec::from_json(&traced.to_json()).expect("parses");
    assert_eq!(reparsed, traced);
    assert_eq!(reparsed.to_json(), traced.to_json());
}

#[test]
fn spec_field_names_and_order_are_pinned() {
    let json = fixed_spec().to_json();
    let header_order = [
        "schema",
        "name",
        "setups",
        "patterns",
        "loads",
        "warmup",
        "measure",
        "base_seed",
        "refine_rounds",
        "stop_at_saturation",
        "threads",
        "tech",
        "cache_dir",
    ];
    let mut last = 0;
    for field in header_order {
        let idx = json
            .find(&format!("\"{field}\":"))
            .unwrap_or_else(|| panic!("missing spec field {field}"));
        assert!(idx > last, "spec field {field} out of order");
        last = idx;
    }
    // Workload names share the `pattern` column of results, seeds and
    // cache keys with the pattern short names: the two sets are disjoint.
    for name in benchmark_names() {
        assert_eq!(TrafficPattern::from_short_name(name), None, "{name}");
    }
    for pattern in ["RND", "SHF", "REV", "ADV1", "ADV2", "ASYM", "TRN"] {
        assert!(TrafficPattern::from_short_name(pattern).is_some());
        assert_eq!(TraceWorkload::by_name(pattern), None, "{pattern}");
    }
    let setup_order = ["config", "name", "layout", "smart", "buffers", "routing"];
    let line = json
        .lines()
        .find(|l| l.contains("\"config\": \"sn_s\""))
        .expect("modified setup line");
    let mut last = 0;
    for field in setup_order {
        let idx = line
            .find(&format!("\"{field}\":"))
            .unwrap_or_else(|| panic!("missing setup field {field} in {line}"));
        assert!(idx > last, "setup field {field} out of order");
        last = idx;
    }
}
