//! Integration test for the spec-driven path behind `snoc run --spec`:
//! `run_spec` runs the campaign a spec file describes, writes the sweep
//! JSON, and returns the cache-statistics line. The spec fully
//! determines the campaign, so a warm rerun must replay it byte for
//! byte. (Exit codes of the executable are covered by the root-level
//! `snoc_cli` test.)

use snoc_bench::{run_spec, Args};
use snoc_core::{CampaignSpec, SetupSpec};
use snoc_traffic::TrafficPattern;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snoc_spec_cli_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// A tiny two-point spec: 1 setup × 1 pattern × 2 loads.
fn tiny_spec() -> CampaignSpec {
    let mut s = CampaignSpec::new("spec-cli");
    s.setups = vec![SetupSpec::new("sn54")];
    s.patterns = vec![TrafficPattern::Random];
    s.loads = vec![0.02, 0.05];
    s.warmup = 150;
    s.measure = 500;
    s
}

/// Runs a spec, returning `(sweep JSON, cache-stats line)`.
fn run(path: &str, args: &Args) -> Result<(String, String), String> {
    let mut out = Vec::new();
    let stats = run_spec(path, args, &mut out)?;
    Ok((String::from_utf8(out).expect("JSON is UTF-8"), stats))
}

#[test]
fn run_spec_runs_the_spec_and_warms_the_cache() {
    let dir = tmp("warm");
    let spec_path = dir.join("campaign.json");
    std::fs::write(&spec_path, tiny_spec().to_json()).expect("write spec");
    let args = Args {
        cache_dir: Some(dir.join("cache").to_str().expect("utf-8").to_string()),
        ..Args::default()
    };
    let spec_path = spec_path.to_str().expect("utf-8");

    // Cold run: every point simulates, the output is the sweep JSON.
    let (cold, stats) = run(spec_path, &args).expect("cold run");
    assert!(
        cold.starts_with('{') && cold.contains("\"points\""),
        "output is the campaign JSON, got: {cold}"
    );
    assert_eq!(stats, "snoc-cache-stats: hits=0 misses=2 entries=2");

    // Warm run: zero simulations, byte-identical output.
    let (warm, stats) = run(spec_path, &args).expect("warm run");
    assert_eq!(stats, "snoc-cache-stats: hits=2 misses=0 entries=2");
    assert_eq!(warm, cold, "warm replay is byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_store_tail_is_reported_as_skipped() {
    let dir = tmp("skipped");
    let spec_path = dir.join("campaign.json");
    std::fs::write(&spec_path, tiny_spec().to_json()).expect("write spec");
    let cache = dir.join("cache");
    let args = Args {
        cache_dir: Some(cache.to_str().expect("utf-8").to_string()),
        ..Args::default()
    };
    let spec_path = spec_path.to_str().expect("utf-8");
    let (cold, _) = run(spec_path, &args).expect("cold run");
    // An interrupted append leaves a line without its end.
    let mut store = std::fs::OpenOptions::new()
        .append(true)
        .open(cache.join("points.jsonl"))
        .expect("store");
    std::io::Write::write_all(&mut store, b"{\"key\": \"to").expect("torn tail");
    drop(store);

    let (warm, stats) = run(spec_path, &args).expect("warm run");
    assert_eq!(
        stats,
        "snoc-cache-stats: hits=2 misses=0 entries=2 skipped=1"
    );
    assert_eq!(warm, cold, "the intact lines still replay");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shipped_example_spec_parses_and_runs() {
    // `examples/campaign_quick.json` is what the README and the CI
    // serve/cache smoke step feed to the server; keep it parseable.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/campaign_quick.json"
    );
    let text = std::fs::read_to_string(path).expect("example spec exists");
    let spec = CampaignSpec::from_json(&text).expect("example spec parses");
    assert_eq!(spec.name, "campaign-quick");
    assert_eq!(spec.setups.len(), 2);
    assert!(!spec.loads.is_empty());

    // `--smoke` shrinks the windows, so actually running it is cheap.
    let smoke = Args {
        smoke: true,
        ..Args::default()
    };
    let (json, _) = run(path, &smoke).expect("example spec runs");
    assert!(json.contains("\"points\""));
}

#[test]
fn shipped_fault_example_spec_parses_and_runs() {
    // `examples/campaign_faults.json` is the README's degraded-mode
    // recipe and feeds the CI faulted-determinism step; keep it
    // parseable and runnable. It exercises both recipe forms: a
    // seeded storm and explicit link_down/link_up/router_down events.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/campaign_faults.json"
    );
    let text = std::fs::read_to_string(path).expect("example spec exists");
    let spec = CampaignSpec::from_json(&text).expect("example spec parses");
    assert_eq!(spec.name, "campaign-faults");
    assert_eq!(spec.setups.len(), 3);
    assert!(
        spec.setups.iter().all(|s| s.faults.is_some()),
        "every setup in the fault example carries a fault recipe"
    );

    // Run it twice at the spec's own windows (the faults land inside
    // them) with different worker counts: faulted setups pin the
    // monolithic engine, so the sweep JSON must be byte-identical.
    let (one, _) = run(path, &Args::default()).expect("fault example spec runs");
    assert!(one.contains("\"points\""));
    let two_threads = Args {
        threads: 2,
        ..Args::default()
    };
    let (two, _) = run(path, &two_threads).expect("fault example spec runs threaded");
    assert_eq!(
        one, two,
        "faulted campaign is byte-deterministic across thread counts"
    );
}

#[test]
fn invalid_specs_fail_with_a_diagnostic() {
    let dir = tmp("invalid");
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"schema\": \"nope\"}").expect("write spec");

    let err = run(bad.to_str().expect("utf-8"), &Args::default()).expect_err("bad spec");
    assert!(
        err.contains("schema"),
        "diagnostic names the problem: {err}"
    );

    // Well-formed specs no simulator can run fail here too, before the
    // first point, instead of panicking inside it.
    for (name, what) in [
        ("duplicate_name", "duplicate name `sn54`"),
        ("cbr0", "central buffer must hold at least one packet"),
        ("faults_ugal", "fault injection requires minimal routing"),
        ("phantom_router", "router 9999 out of range"),
        ("repeated_pattern", "`patterns` lists `RND` twice"),
        ("unsorted_loads", "`loads` must strictly increase"),
    ] {
        let path = format!(
            "{}/../../tests/specs/unrunnable_{name}.json",
            env!("CARGO_MANIFEST_DIR")
        );
        let err = run(&path, &Args::default()).expect_err(name);
        assert!(err.contains(what), "diagnostic names the problem: {err}");
    }

    let missing = dir.join("nope.json");
    let err = run(missing.to_str().expect("utf-8"), &Args::default()).expect_err("missing file");
    assert!(
        err.contains("nope.json"),
        "diagnostic names the file: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
