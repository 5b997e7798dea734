//! Property tests (vendored `proptest`) pinning the central contract of
//! the event-accelerated cycle loop: **fast-forwarding over event-free
//! cycles is invisible**. For any (topology, rate, seed) triple, running
//! the simulator with cycle-skipping on and off must produce
//! byte-identical [`SimReport`] JSON — every counter, every activity
//! figure, the full latency histogram, and the final clock value. The
//! bursty property holds the sharded engine to the same bytes.
//!
//! The skipped cycles are provably event-free (empty worklists, no
//! pending injection, no due channel arrival), so any divergence means
//! the conservative next-event estimate was wrong — exactly the bug
//! class this suite exists to catch.

use proptest::prelude::*;
use snoc_sim::{ShardedSimulator, SimConfig, SimReport, Simulator};
use snoc_topology::{NodeId, Topology};
use snoc_traffic::{BurstModel, MessageKind, TraceMessage, TrafficPattern};

/// The fuzzed topology pool: small instances of every supported family,
/// including a CBR + elastic-links configuration (keyed by index 3).
fn topology(idx: usize) -> Topology {
    match idx {
        0 => Topology::slim_noc(3, 3).unwrap(),
        1 => Topology::mesh(4, 3, 2),
        2 => Topology::torus(4, 4, 1),
        3 => Topology::slim_noc(3, 2).unwrap(),
        _ => Topology::flattened_butterfly(3, 3, 2),
    }
}

fn config(topo_idx: usize, seed: u64) -> SimConfig {
    // Index 3 exercises the CBR/elastic path (whose pipelines pin the
    // next-event estimate to now + 1); all others use credited links.
    let cfg = if topo_idx == 3 {
        SimConfig::cbr(20)
    } else {
        SimConfig::default()
    };
    cfg.with_seed(seed)
}

/// Runs the same synthetic simulation with skipping on and off.
fn run_both(topo_idx: usize, rate: f64, seed: u64) -> (SimReport, SimReport) {
    let topo = topology(topo_idx);
    let cfg = config(topo_idx, seed);
    let run = |skip: bool| {
        let mut sim = Simulator::build(&topo, &cfg).unwrap();
        sim.set_cycle_skipping(skip);
        sim.run_synthetic(TrafficPattern::Random, rate, 300, 1_200)
    };
    (run(true), run(false))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cycle-skipping on vs. off: byte-identical reports across fuzzed
    /// (topology, rate, seed) triples, from idle to near saturation.
    #[test]
    fn cycle_skipping_is_invisible_for_synthetic_traffic(
        topo_idx in 0usize..5,
        rate in 0.0f64..0.45,
        seed in 0u64..1_000_000,
    ) {
        let (skipped, stepped) = run_both(topo_idx, rate, seed);
        prop_assert_eq!(
            skipped.to_json(),
            stepped.to_json(),
            "skip on/off diverged at topo {} rate {} seed {}",
            topo_idx,
            rate,
            seed
        );
    }

    /// Bursty (on/off Markov) injection drives the calendar through
    /// phase-sojourn draws and gives the cycle-skipper highly irregular
    /// horizons — long off phases are exactly the cycles it wants to
    /// jump over. Skipping must stay invisible across fuzzed burst
    /// shapes, from near-uniform to long-burst/long-gap.
    #[test]
    fn cycle_skipping_is_invisible_for_bursty_traffic(
        topo_idx in 0usize..5,
        rate in 0.0f64..0.35,
        off_to_on in 0.02f64..0.95,
        on_to_off in 0.02f64..0.95,
        seed in 0u64..1_000_000,
    ) {
        let topo = topology(topo_idx);
        let cfg = config(topo_idx, seed);
        let burst = BurstModel { off_to_on, on_to_off };
        let run = |skip: bool| {
            let mut sim = Simulator::build(&topo, &cfg).unwrap();
            sim.set_cycle_skipping(skip);
            sim.run_synthetic_bursty(TrafficPattern::Random, rate, burst, 300, 1_500)
        };
        prop_assert_eq!(
            run(true).to_json(),
            run(false).to_json(),
            "bursty skip on/off diverged at topo {} rate {} burst {}/{} seed {}",
            topo_idx,
            rate,
            off_to_on,
            on_to_off,
            seed
        );
        // The sharded engine draws from the same calendar source: burst
        // phases cost extra RNG draws per arrival, which every replica
        // must also burn for the nodes it does not own. (Elastic links
        // cannot shard; index 3 skips.)
        if let Ok(mut sharded) = ShardedSimulator::build(&topo, &cfg, 2) {
            prop_assert_eq!(
                run(true).to_json(),
                sharded
                    .run_synthetic_bursty(TrafficPattern::Random, rate, burst, 300, 1_500)
                    .to_json(),
                "bursty 2-shard run diverged at topo {} rate {} burst {}/{} seed {}",
                topo_idx,
                rate,
                off_to_on,
                on_to_off,
                seed
            );
        }
    }

    /// Trace replays with fuzzed inter-message gaps (including gaps far
    /// larger than any drain time) are equally invisible to skipping.
    #[test]
    fn cycle_skipping_is_invisible_for_trace_replay(
        topo_idx in 0usize..5,
        gap in 1u64..5_000,
        seed in 0u64..1_000_000,
    ) {
        let topo = topology(topo_idx);
        let nodes = topo.node_count();
        let trace: Vec<TraceMessage> = (0..40u64)
            .map(|i| TraceMessage {
                cycle: i * gap,
                src: NodeId(((seed + i) as usize * 7) % nodes),
                dst: NodeId(((seed + i) as usize * 13 + 1) % nodes),
                kind: if i % 3 == 0 {
                    MessageKind::ReadRequest
                } else {
                    MessageKind::WriteRequest
                },
            })
            .filter(|m| m.src != m.dst)
            .collect();
        let cfg = config(topo_idx, seed);
        let run = |skip: bool| {
            let mut sim = Simulator::build(&topo, &cfg).unwrap();
            sim.set_cycle_skipping(skip);
            sim.run_trace(&trace, gap / 2)
        };
        prop_assert_eq!(
            run(true).to_json(),
            run(false).to_json(),
            "trace skip on/off diverged at topo {} gap {} seed {}",
            topo_idx,
            gap,
            seed
        );
    }
}

/// A zero-rate run is the extreme skip case: the clock jumps straight
/// across the whole window. It must still match single-stepping exactly
/// (including `total_cycles` landing on the window boundary).
#[test]
fn zero_rate_run_is_identical_and_fast_forwarded() {
    let topo = Topology::slim_noc(3, 3).unwrap();
    let run = |skip: bool| {
        let mut sim = Simulator::build(&topo, &SimConfig::default()).unwrap();
        sim.set_cycle_skipping(skip);
        sim.run_synthetic(TrafficPattern::Random, 0.0, 2_000, 30_000)
    };
    let (skipped, stepped) = (run(true), run(false));
    assert_eq!(skipped.to_json(), stepped.to_json());
    assert_eq!(skipped.total_cycles, 32_000);
    assert_eq!(skipped.delivered_packets, 0);
}

/// UGAL routing draws extra RNG (Valiant candidates) per packet; the
/// equivalence must survive those draws too.
#[test]
fn cycle_skipping_is_invisible_under_ugal() {
    let topo = Topology::slim_noc(3, 3).unwrap();
    for routing in [snoc_sim::RoutingKind::UgalL, snoc_sim::RoutingKind::UgalG] {
        let cfg = SimConfig::default()
            .with_vcs(4)
            .with_routing(routing)
            .with_seed(9);
        let run = |skip: bool| {
            let mut sim = Simulator::build(&topo, &cfg).unwrap();
            sim.set_cycle_skipping(skip);
            sim.run_synthetic(TrafficPattern::Adversarial1, 0.2, 300, 1_500)
        };
        assert_eq!(run(true).to_json(), run(false).to_json(), "{routing:?}");
    }
}

/// The combination the skip-equivalence suite previously never saw:
/// UGAL-G (per-packet Valiant draws plus global path-cost probes) on
/// top of bursty injection (phase-sojourn draws), across several burst
/// shapes and seeds. Burst gaps interleave RNG consumption between the
/// calendar and the route selector, so any draw-order bug in the
/// fast-forward path shows up as a byte diff here.
#[test]
fn cycle_skipping_is_invisible_under_bursty_ugal_g() {
    let topo = Topology::slim_noc(3, 3).unwrap();
    let cfg = SimConfig::default()
        .with_vcs(4)
        .with_routing(snoc_sim::RoutingKind::UgalG)
        .with_seed(23);
    for (off_to_on, on_to_off) in [(0.05, 0.2), (0.3, 0.3), (0.02, 0.5)] {
        let burst = BurstModel {
            off_to_on,
            on_to_off,
        };
        let run = |skip: bool| {
            let mut sim = Simulator::build(&topo, &cfg).unwrap();
            sim.set_cycle_skipping(skip);
            sim.run_synthetic_bursty(TrafficPattern::Adversarial1, 0.15, burst, 300, 2_000)
        };
        assert_eq!(
            run(true).to_json(),
            run(false).to_json(),
            "burst {off_to_on}/{on_to_off}"
        );
    }
}
