//! Integration tests for the sweep-campaign engine: thread-count
//! determinism, adaptive saturation-knee refinement, and the isolation
//! of points that share one routing table.

use snoc_core::{Campaign, CampaignResult, CampaignSpec, FaultsSpec, SetupSpec, StormSpec};
use snoc_traffic::{TraceWorkload, TrafficPattern};

/// Runs the campaign `spec` describes.
fn run(spec: &CampaignSpec) -> CampaignResult {
    Campaign::from_spec(spec).expect("valid spec").run()
}

/// Same spec + same seed ⇒ bit-identical results for every worker
/// count. Seeds are derived from the point coordinates alone, so the
/// schedule (which worker runs which curve, in which order) must not
/// leak into the numbers.
#[test]
fn same_spec_is_bit_identical_across_thread_counts() {
    let mut spec = CampaignSpec::new("determinism");
    spec.setups = vec![SetupSpec::new("sn54"), SetupSpec::new("fbf3")];
    spec.patterns = vec![TrafficPattern::Random, TrafficPattern::Adversarial1];
    spec.workloads = vec![TraceWorkload::by_name("fft").expect("workload")];
    spec.loads = vec![0.02, 0.1, 0.3, 0.5];
    (spec.warmup, spec.measure) = (200, 800);
    spec.refine_rounds = 2;
    spec.base_seed = 42;
    let campaign = |threads: usize| {
        run(&CampaignSpec {
            threads,
            ..spec.clone()
        })
    };
    let serial = campaign(1);
    let two = campaign(2);
    let auto = campaign(0);
    assert_eq!(serial, two, "1 vs 2 worker threads");
    assert_eq!(serial, auto, "1 vs auto worker threads");
    assert_eq!(serial.to_json(), auto.to_json(), "JSON byte-identical");
    // A different base seed must actually change the simulations.
    let other = run(&CampaignSpec {
        base_seed: 43,
        ..spec
    });
    assert_ne!(serial, other, "base seed must matter");
    // The workload is one point per setup, at the trace's own rate.
    for (a, b) in serial.curve("sn54", "fft").zip(other.curve("sn54", "fft")) {
        assert_ne!(a, b, "base seed must reach the trace");
    }
    assert_eq!(serial.curve("fbf3", "fft").count(), 1);
}

/// ADV1 on the 54-node Slim NoC maps each router's 3 nodes onto one
/// victim router, so minimal routing is capacity-limited to
/// 1/3 flit/node/cycle (one shared link). The adaptive refinement must
/// bracket that knee: the measured onset sits a little below the ideal
/// bound because finite injection queues back-pressure before the hard
/// capacity cap, but the accepted throughput at saturation pins the
/// 1/3 limit itself.
#[test]
fn adaptive_refinement_finds_adv1_knee_near_one_third() {
    let mut spec = CampaignSpec::new("adv1-knee");
    spec.setups = vec![SetupSpec::new("sn54")]; // minimal routing
    spec.patterns = vec![TrafficPattern::Adversarial1];
    spec.loads = vec![0.1, 0.2, 0.3, 0.45, 0.6];
    (spec.warmup, spec.measure) = (500, 4_000);
    spec.refine_rounds = 4;
    let result = run(&spec);
    let refined: Vec<_> = result.points.iter().filter(|p| p.refined).collect();
    assert_eq!(refined.len(), 4, "four bisection rounds");
    // Every refined load lies inside the grid's knee bracket.
    for p in &refined {
        assert!((0.2..0.45).contains(&p.load), "refined load {}", p.load);
    }
    let knee = result
        .knee("sn54", "ADV1")
        .expect("curve must saturate within the grid");
    assert!(
        (0.25..=0.40).contains(&knee),
        "knee {knee} should be near 1/3"
    );
    // Refinement tightened the raw grid estimate (0.2, bracket width
    // 0.1): four bisections shrink the bracket 16-fold.
    let first_sat = result
        .curve("sn54", "ADV1")
        .find(|p| p.saturated)
        .map(|p| p.load)
        .expect("saturated point");
    assert!(knee > 0.2, "refinement must improve on the grid knee");
    assert!(
        first_sat - knee < 0.1 / 8.0 + 1e-9,
        "bracket [{knee}, {first_sat}] must be tight"
    );
    // The accepted throughput at the first saturated point is the
    // capacity bound — 1/3 flit/node/cycle for ADV1 under minimal
    // routing.
    let cap = result
        .curve("sn54", "ADV1")
        .find(|p| p.saturated)
        .map(|p| p.throughput)
        .expect("saturated point");
    assert!(
        (0.25..=0.38).contains(&cap),
        "saturation throughput {cap} should approach 1/3"
    );
}

/// A campaign run builds one routing table per setup and hands the same
/// `Arc` to every point of that setup. A faulted point repairs its
/// routing mid-run; if that repair ever reached the shared table, the
/// sibling points after it would diverge from a run that built its own.
/// So: every point of a fault-free and a storm setup, at 1 and 2
/// worker threads, equals `Setup::run_load` (for the workload: the
/// trace generated from, and replayed under, the point's seed) with the
/// point's own seed bit for bit, and the sweep JSON is identical across
/// thread counts.
#[test]
fn shared_tables_never_leak_between_points() {
    let (warmup, measure) = (200, 800);
    let stormy = SetupSpec {
        name: "sn54+storm".to_string(),
        faults: Some(FaultsSpec {
            events: Vec::new(),
            storm: Some(StormSpec {
                links: 6,
                start: 300,
                window: 300,
                seed: 9,
            }),
        }),
        ..SetupSpec::new("sn54")
    };
    let canneal = TraceWorkload::by_name("canneal").expect("workload");
    let mut spec = CampaignSpec::new("shared-tables");
    spec.setups = vec![SetupSpec::new("sn54"), stormy];
    spec.patterns = vec![TrafficPattern::Random, TrafficPattern::Adversarial1];
    spec.workloads = vec![canneal];
    spec.loads = vec![0.02, 0.06, 0.12];
    (spec.warmup, spec.measure) = (warmup, measure);
    spec.stop_at_saturation = false;
    let campaign = Campaign::from_spec(&CampaignSpec {
        threads: 1,
        ..spec.clone()
    })
    .expect("valid spec");
    let one = campaign.run();
    let two = run(&CampaignSpec { threads: 2, ..spec });
    assert_eq!(one.points.len(), 12 + 2);
    assert_eq!(one.to_json(), two.to_json(), "1 vs 2 worker threads");
    for p in &one.points {
        let setup = campaign
            .setups()
            .iter()
            .find(|s| s.name == p.setup)
            .expect("own setup");
        let seeded = setup.clone().with_seed(p.seed);
        let alone = match TrafficPattern::from_short_name(&p.pattern) {
            Some(pattern) => seeded.run_load(pattern, p.load, warmup, measure),
            None => {
                assert_eq!(
                    (p.pattern.as_str(), p.load),
                    ("canneal", canneal.offered_flit_rate())
                );
                let trace = canneal.generate(&seeded.topology, warmup + measure, p.seed);
                seeded
                    .simulator()
                    .expect("valid setup")
                    .run_trace(&trace, warmup)
            }
        };
        let at = format!("{} {} {}", p.setup, p.pattern, p.load);
        assert_eq!(
            p.latency.to_bits(),
            alone.avg_packet_latency().to_bits(),
            "{at}"
        );
        assert_eq!(p.p99_latency, alone.latency_percentile(0.99), "{at}");
        assert_eq!(p.throughput.to_bits(), alone.throughput().to_bits(), "{at}");
        assert_eq!(p.avg_hops.to_bits(), alone.avg_hops().to_bits(), "{at}");
        assert_eq!(p.acceptance.to_bits(), alone.acceptance().to_bits(), "{at}");
        assert_eq!(p.delivered_packets, alone.delivered_packets, "{at}");
        assert_eq!(p.dropped_packets, alone.dropped_packets, "{at}");
        assert_eq!(p.drained, alone.drained, "{at}");
    }
    // The storm really did cut traffic, i.e. tables really were repaired.
    let dropped = |name: &str| -> u64 {
        let of_setup = one.points.iter().filter(|p| p.setup == name);
        of_setup.map(|p| p.dropped_packets).sum()
    };
    assert!(dropped("sn54+storm") > 0);
    assert_eq!(dropped("sn54"), 0);
}
