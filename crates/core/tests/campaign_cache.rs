//! Cache-correctness contract of the content-addressed campaign cache.
//!
//! Cold run → widen the load grid → warm re-run, asserting:
//! (a) only the genuinely new points are simulated (hit/miss counters
//!     on [`CampaignResult`]);
//! (b) the merged warm result serializes **byte-identically** to a
//!     cold run of the widened spec — cached points reproduce exact
//!     f64 bits, and curve-level state (zero-load reference,
//!     saturation flags) is re-derived identically;
//! (c) an engine-version salt change makes every stored entry
//!     unreachable, forcing a full re-simulation.

use snoc_core::{
    CachedPoint, Campaign, CampaignResult, CampaignSpec, FaultsSpec, PointCache, PointCoord,
    SetupSpec, StormSpec,
};
use snoc_power::TechNode;
use snoc_traffic::{TraceWorkload, TrafficPattern};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("snoc_campaign_cache_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(loads: &[f64]) -> CampaignSpec {
    let mut spec = CampaignSpec::new("cache-contract");
    spec.setups = vec![SetupSpec::new("sn54"), SetupSpec::new("cm3")];
    spec.patterns = vec![TrafficPattern::Random];
    spec.loads = loads.to_vec();
    (spec.warmup, spec.measure) = (150, 500);
    spec
}

fn campaign(loads: &[f64]) -> Campaign {
    Campaign::from_spec(&spec(loads)).expect("valid spec")
}

/// The same campaign, reading and filling the store at `dir`.
fn cached(loads: &[f64], dir: &Path) -> Campaign {
    let spec = CampaignSpec {
        cache_dir: Some(dir.display().to_string()),
        ..spec(loads)
    };
    Campaign::from_spec(&spec).expect("valid spec")
}

const NARROW: [f64; 2] = [0.02, 0.05];
/// The widened grid inserts a point mid-grid and appends one, so the
/// warm run must interleave cached and fresh points within one curve.
const WIDE: [f64; 4] = [0.02, 0.035, 0.05, 0.08];

fn points_per_run(loads: &[f64]) -> u64 {
    // 2 setups × 1 pattern × |loads| (nothing saturates at these tiny
    // loads, so no curve stops early — asserted in the tests).
    2 * loads.len() as u64
}

#[test]
fn warm_rerun_simulates_nothing_and_matches_cold_bytes() {
    let dir = tmp("identical");
    let cold = cached(&NARROW, &dir).run();
    assert_eq!(cold.cache_hits, 0, "cold run: nothing to hit");
    assert_eq!(cold.cache_misses, points_per_run(&NARROW));
    assert_eq!(cold.points.len() as u64, points_per_run(&NARROW));

    // Same spec again, fresh cache handle from disk: zero simulations.
    let warm = cached(&NARROW, &dir).run();
    assert_eq!(
        warm.cache_misses, 0,
        "identical rerun must simulate nothing"
    );
    assert_eq!(warm.cache_hits, points_per_run(&NARROW));
    assert_eq!(warm.to_json(), cold.to_json(), "byte-identical replay");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn widened_sweep_simulates_only_the_new_points() {
    let dir = tmp("widen");
    let narrow = cached(&NARROW, &dir).run();
    assert_eq!(narrow.cache_misses, points_per_run(&NARROW));

    // Reference: a cold run of the widened grid, no cache anywhere.
    let cold_wide: CampaignResult = campaign(&WIDE).run();
    assert_eq!(cold_wide.cache_hits + cold_wide.cache_misses, 0, "uncached");
    assert!(
        cold_wide.points.iter().all(|p| !p.saturated),
        "precondition: no curve may stop early or the counter \
         arithmetic below is wrong"
    );

    // Warm run of the widened grid: old points replay, new points run.
    let warm_wide = cached(&WIDE, &dir).run();
    assert_eq!(warm_wide.cache_hits, points_per_run(&NARROW));
    assert_eq!(
        warm_wide.cache_misses,
        points_per_run(&WIDE) - points_per_run(&NARROW),
        "only the delta is simulated"
    );
    assert_eq!(
        warm_wide.to_json(),
        cold_wide.to_json(),
        "the merged cached+fresh result must be byte-identical to a \
         cold run of the widened spec"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn engine_version_salt_invalidates_stale_entries() {
    let dir = tmp("salt");
    let first = cached(&NARROW, &dir).run();
    assert_eq!(first.cache_misses, points_per_run(&NARROW));

    // Same directory, different engine version: everything is stale.
    let stale = Arc::new(
        PointCache::open_with_version(&dir, "slim_noc-engine-v0-test").expect("open cache"),
    );
    assert_eq!(
        stale.len(),
        usize::try_from(points_per_run(&NARROW)).unwrap()
    );
    let rerun = campaign(&NARROW).with_cache(stale).run();
    assert_eq!(rerun.cache_hits, 0, "stale entries must never hit");
    assert_eq!(rerun.cache_misses, points_per_run(&NARROW));
    assert_eq!(rerun.to_json(), first.to_json(), "results still agree");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn power_campaigns_cache_their_power_columns() {
    let dir = tmp("power");
    let with_power = |loads: &[f64]| {
        let spec = CampaignSpec {
            power_tech: Some(TechNode::N45),
            cache_dir: Some(dir.display().to_string()),
            ..spec(loads)
        };
        Campaign::from_spec(&spec).expect("valid spec")
    };
    let cold = with_power(&NARROW).run();
    assert!(cold.points.iter().all(|p| p.power.is_some()));
    let warm = with_power(&NARROW).run();
    assert_eq!(warm.cache_misses, 0);
    assert_eq!(
        warm.to_json(),
        cold.to_json(),
        "v2 JSON replays bit-exactly"
    );

    // Power and plain campaigns must not share cache keys: the same
    // coordinates without a tech node re-simulate.
    let plain = cached(&NARROW, &dir).run();
    assert_eq!(plain.cache_hits, 0, "tech is part of the cache key");
    assert_eq!(plain.cache_misses, points_per_run(&NARROW));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn faulted_points_round_trip_the_cache_under_their_own_keys() {
    // The fault recipe is part of the canonical setup string, hence of
    // the cache key: degraded-mode points replay byte-exactly, and a
    // fault-free campaign over the same coordinates never aliases them.
    let dir = tmp("faults");
    let storm = FaultsSpec {
        events: Vec::new(),
        storm: Some(StormSpec {
            links: 4,
            start: 200,
            window: 200,
            seed: 3,
        }),
    };
    let mut plain = CampaignSpec::new("fault-cache");
    plain.setups = vec![SetupSpec::new("sn54")];
    plain.patterns = vec![TrafficPattern::Random];
    plain.loads = vec![0.02, 0.05];
    (plain.warmup, plain.measure) = (150, 800);
    plain.cache_dir = Some(dir.display().to_string());
    let mut spec = plain.clone();
    spec.setups[0].faults = Some(storm);
    let faulted = |spec: &CampaignSpec| Campaign::from_spec(spec).expect("valid spec").run();
    let cold = faulted(&spec);
    assert_eq!(cold.cache_misses, 2);
    assert!(
        cold.points.iter().any(|p| p.dropped_packets > 0),
        "the storm must actually bite for this test to mean anything"
    );

    let warm = faulted(&spec);
    assert_eq!(warm.cache_misses, 0, "faulted points replay from cache");
    assert_eq!(warm.cache_hits, 2);
    assert_eq!(warm.to_json(), cold.to_json(), "byte-identical replay");

    // Faulted runs are deterministic across worker-thread counts, so
    // parallel campaigns hit the sequential run's cache entries.
    let threaded = faulted(&CampaignSpec { threads: 2, ..spec });
    assert_eq!(threaded.cache_misses, 0, "thread count must not leak in");
    assert_eq!(threaded.to_json(), cold.to_json());

    // Same coordinates without the fault recipe: different keys.
    let plain = faulted(&plain);
    assert_eq!(plain.cache_hits, 0, "faults are part of the cache key");
    assert_eq!(plain.cache_misses, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn refined_points_are_cached_too() {
    // Refinement bisections carry deterministic loads, so they hit the
    // cache on replay exactly like grid points.
    let dir = tmp("refine");
    let mut spec = CampaignSpec::new("refine-cache");
    spec.setups = vec![SetupSpec::new("sn54")];
    spec.patterns = vec![TrafficPattern::Random];
    // High tail load so the curve saturates and refinement has a
    // bracket to bisect.
    spec.loads = vec![0.05, 0.6];
    (spec.warmup, spec.measure) = (150, 500);
    spec.refine_rounds = 2;
    spec.cache_dir = Some(dir.display().to_string());
    let c = || Campaign::from_spec(&spec).expect("valid spec");
    let cold = c().run();
    let refined = cold.points.iter().filter(|p| p.refined).count();
    assert_eq!(refined, 2, "two bisection rounds");
    let warm = c().run();
    assert_eq!(warm.cache_misses, 0, "refined points replay from cache");
    assert_eq!(warm.cache_hits, cold.cache_misses);
    assert_eq!(warm.to_json(), cold.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_store_filled_under_the_public_key_is_all_hits_for_a_campaign() {
    // A campaign mints a point's key from its curve's two halves of the
    // canonical coordinate; every other writer — another tool, an older
    // binary — from `PointCache::key` over the whole `PointCoord`. Fill
    // a store the second way, coordinate by coordinate, and a campaign
    // over the same grid has nothing left to simulate.
    let storm = FaultsSpec {
        events: Vec::new(),
        storm: Some(StormSpec {
            links: 4,
            start: 200,
            window: 200,
            seed: 3,
        }),
    };
    let faulted = SetupSpec {
        name: "sn54 \"storm\"".to_string(),
        faults: Some(storm),
        ..SetupSpec::new("sn54")
    };
    let setups = vec![SetupSpec::new("cm3"), faulted];
    let fft = TraceWorkload::by_name("fft").expect("benchmark name");
    let loads = [1e-9, 0.3, 123_456.789];
    let (warmup, measure, base_seed) = (150, 500, 0xC0FFEE);
    let stored = CachedPoint {
        latency: 17.25,
        p99_latency: 41,
        throughput: 0.03,
        avg_hops: 1.9,
        acceptance: 1.0,
        delivered_packets: 1_234,
        dropped_packets: 0,
        injected_packets: 1_234,
        drained: true,
        power: None,
    };
    for tech in [None, Some(TechNode::N45)] {
        let dir = tmp(&format!("public_key_{}", tech.is_some()));
        let writer = PointCache::open(&dir).expect("open cache");
        let tech_name = tech.map(|t| t.to_string());
        let mut written = 0;
        for setup in &setups {
            let recipe = setup.canonical_json();
            let rnd = loads.map(|load| ("RND", load));
            for (pattern, load) in rnd.into_iter().chain([("fft", fft.offered_flit_rate())]) {
                let coord = PointCoord {
                    setup_spec: &recipe,
                    pattern,
                    load,
                    warmup,
                    measure,
                    base_seed,
                    // Every campaign point runs monolithic, so its key
                    // is the one-shard key every store already holds.
                    shards: 1,
                    tech: tech_name.as_deref(),
                };
                writer.put(&writer.key(&coord), &stored).expect("append");
                written += 1;
            }
        }
        drop(writer);
        let mut spec = CampaignSpec::new("public-key");
        spec.setups.clone_from(&setups);
        spec.patterns = vec![TrafficPattern::Random];
        spec.workloads = vec![fft];
        spec.loads = loads.to_vec();
        (spec.warmup, spec.measure, spec.base_seed) = (warmup, measure, base_seed);
        spec.stop_at_saturation = false;
        spec.power_tech = tech;
        spec.cache_dir = Some(dir.display().to_string());
        let run = Campaign::from_spec(&spec).expect("valid spec").run();
        assert_eq!((run.cache_hits, run.cache_misses), (written, 0), "{tech:?}");
        assert!(run.points.iter().all(|p| p.latency == stored.latency));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// What a parent-era store reads as, recorded through `PointCache::get`
/// before the map was keyed by the key's value: one line per distinct
/// key in store order, every field as its bit pattern. The store
/// (`golden/store_v3.jsonl`) holds the two power-aware points of
/// [`fixture_spec`], a leading-zero key with `dropped` and a NaN, a key
/// written twice (the second line wins) and a torn binary tail.
const STORE_V3_GETS: &str = "\
34dd11a5c06ae1d95d9cb46da57d4cba lat=402ed5bf60ee9a19 p99=25 thr=3f97702f54e0d32c hops=3ffa18dab7ec1dd3 acc=3ff0000000000000 del=103 drop=0 inj=103 drained=true power=3fefdee27bb93684,3fde7b00a84ce2bc,3fe0a1622792c526,40247ca78a493162,41e27e1a59e5ab4d,3dfbafcfe4f51ced,3e407ccac6efa929\n\
cfd4b75a6a9ae6c2c99c2737e4a46555 lat=402f1c71c71c71c7 p99=27 thr=3fa999999999999a hops=3ffa06d3a06d3a07 acc=3ff0000000000000 del=225 drop=0 inj=225 drained=true power=3ff93dfb73a6d8b6,3fde7b00a84ce2bc,3ff19f3b4993a007,40247ca78a493162,41e98091c98bdd56,3df413a14c0ca34b,3e4a59c3b3d09651\n\
008f2e1c69b627392b2556f7abe1c155 lat=4031400000000000 p99=41 thr=3fd3333333333334 hops=3ffe666666666666 acc=7ff8000000000000 del=1234 drop=5 inj=1240 drained=false power=-\n\
205c48795420f9956d249161112c8cb7 lat=7ff0000000000000 p99=41 thr=3fd3333333333334 hops=3ffe666666666666 acc=3ff0000000000000 del=9999 drop=0 inj=1240 drained=true power=-\n\
7e7a36838922ecfc4b7198d699905086 lat=4031400000000000 p99=41 thr=3fd3333333333334 hops=3ffe666666666666 acc=3ff0000000000000 del=1234 drop=0 inj=1240 drained=true power=3ff4000000000000,3fe0000000000000,7ff8000000000000,4008000000000000,41ddcd6500000000,3e012e0be826d695,8000000000000000";

/// The campaign whose points `golden/store_v3.jsonl` holds.
fn fixture_spec(dir: &Path) -> CampaignSpec {
    let mut spec = CampaignSpec::new("store-fixture");
    spec.setups = vec![SetupSpec::new("sn54")];
    spec.patterns = vec![TrafficPattern::Random];
    spec.loads = vec![0.02, 0.05];
    (spec.warmup, spec.measure) = (150, 500);
    spec.power_tech = Some(TechNode::N45);
    spec.cache_dir = Some(dir.display().to_string());
    spec
}

fn render(key: &str, p: &CachedPoint) -> String {
    let power = p.power.map_or("-".to_string(), |pp| {
        [
            pp.power_w,
            pp.static_w,
            pp.dynamic_w,
            pp.area_mm2,
            pp.throughput_per_watt,
            pp.energy_per_flit_j,
            pp.edp_js,
        ]
        .map(|x| format!("{:016x}", x.to_bits()))
        .join(",")
    });
    format!(
        "{key} lat={:016x} p99={} thr={:016x} hops={:016x} acc={:016x} del={} drop={} inj={} \
         drained={} power={power}",
        p.latency.to_bits(),
        p.p99_latency,
        p.throughput.to_bits(),
        p.avg_hops.to_bits(),
        p.acceptance.to_bits(),
        p.delivered_packets,
        p.dropped_packets,
        p.injected_packets,
        p.drained
    )
}

#[test]
fn a_store_written_by_the_string_keyed_cache_opens_the_same() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let store = std::fs::read(golden.join("store_v3.jsonl")).expect("fixture");
    let dir = tmp("store_v3");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("points.jsonl"), &store).expect("copy fixture");

    let cache = PointCache::open(&dir).expect("open");
    assert_eq!((cache.len(), cache.corrupt_lines()), (5, 1));
    for want in STORE_V3_GETS.lines() {
        let key = want.split(' ').next().expect("key");
        let got = cache.get(key).expect("a stored key hits");
        assert_eq!(render(key, &got), want);
    }
    assert_eq!((cache.hits(), cache.misses()), (5, 0));
    drop(cache);

    let warm = Campaign::from_spec(&fixture_spec(&dir))
        .expect("valid spec")
        .run();
    assert_eq!((warm.cache_hits, warm.cache_misses), (2, 0));
    let sweep = std::fs::read_to_string(golden.join("store_v3.sweep.json")).expect("sweep");
    assert_eq!(warm.to_json(), sweep, "the parent's cold bytes");
    let after = std::fs::read(dir.join("points.jsonl")).expect("store");
    assert_eq!(after, store, "a replay appends nothing");
    let _ = std::fs::remove_dir_all(&dir);
}
