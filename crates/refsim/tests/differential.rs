//! The differential verification harness: the optimized
//! `snoc_sim::Simulator` cross-checked against the
//! golden `snoc_refsim::RefSimulator` over a fuzzed matrix of
//! topology × routing × pattern × rate × seed.
//!
//! Every cross-engine case runs through `snoc_refsim::check` — the
//! runner and verdicts `snoc repro verify` applies too; only the
//! shard-equivalence cases build engines here. Checks per case:
//!
//! - **watchdog** — a no-progress abort fails the case, except in the
//!   saturation-storm tier, whose runs must drain or abort;
//! - **conservation** — each engine's `Snapshot` satisfies the
//!   activity-counter conservation laws (crossbar == link hops +
//!   ejections, grants == pops, histogram mass == deliveries, drained
//!   ⇒ delivered == injected);
//! - **agreement** — injected/delivered packet counts within binomial
//!   sampling tolerance, per-flit hop totals and mean latency within a
//!   tight relative tolerance (both engines target the same offered
//!   load and implement the same microarchitectural spec, but draw
//!   their own randomness);
//! - **exact equality** — for workload-driven runs under deterministic
//!   minimal routing neither engine consumes randomness, so the two
//!   snapshots must be byte-for-byte equal (every counter, activity
//!   figure, the full latency histogram and the final clock).
//!
//! Case counts are chosen so a default `cargo test` run covers well
//! over 200 fuzzed cases; set `PROPTEST_CASES` for a deep soak (the CI
//! `verify` job runs one nightly).

use proptest::prelude::*;
use snoc_refsim::check::{self, counts_close, pool, workload, Case, Run, Traffic, Verdict};
use snoc_refsim::RefRouting;
use snoc_sim::{
    Conformance, FaultPlan, Flit, PacketId, RoutingKind, RoutingTable, ShardedSimulator, SimConfig,
    Simulator,
};
use snoc_topology::{NodeId, RouterId, Topology};
use snoc_traffic::{BurstModel, TrafficPattern};

const PATTERNS: [TrafficPattern; 6] = [
    TrafficPattern::Random,
    TrafficPattern::BitShuffle,
    TrafficPattern::BitReversal,
    TrafficPattern::Adversarial1,
    TrafficPattern::Adversarial2,
    TrafficPattern::Transpose,
];

fn config(vcs: usize, routing: RoutingKind, seed: u64) -> SimConfig {
    SimConfig::default()
        .with_vcs(vcs)
        .with_routing(routing)
        .with_seed(seed)
}

/// Runs `case` through the shared runner and judges it with `verdict`;
/// a failure is prefixed with `ctx`, the inputs that replay it.
fn judge(case: &Case, verdict: Verdict, ctx: &str) -> Result<Run, String> {
    let run = check::run(case).map_err(|e| format!("{ctx}: {e}"))?;
    verdict(&run).map_err(|e| format!("{ctx}: {e}"))?;
    Ok(run)
}

/// One synthetic case under the statistical verdict, measured for
/// `measure` cycles after a 400-cycle warmup.
fn check_synthetic_case(
    topo_idx: usize,
    pat_idx: usize,
    routing: RoutingKind,
    rate: f64,
    burst: BurstModel,
    seed: u64,
    measure: u64,
) -> Result<(), String> {
    let (topo, vcs) = pool().swap_remove(topo_idx);
    let vcs = if routing == RoutingKind::Minimal {
        vcs
    } else {
        4
    };
    let pat = PATTERNS[pat_idx];
    let ctx = format!(
        "topo {} pattern {pat} routing {routing:?} rate {rate:.4} seed {seed}",
        topo.name()
    );
    let traffic = Traffic::Synthetic {
        pattern: pat,
        rate,
        burst,
        warmup: 400,
        measure,
    };
    let case = Case::new(topo, config(vcs, routing, seed), traffic);
    judge(&case, check::statistical, &ctx).map(drop)
}

/// One workload case under the exact verdict: the same explicit workload
/// — and, with `storm_links > 0`, the same seeded fault storm — into both
/// engines under minimal routing. Neither engine consumes randomness and
/// the drop rules are a pure function of pre-fault state, so the
/// snapshots, drop accounting included, must be byte-for-byte equal even
/// when the degraded graph severs pairs; a watchdog abort fails the case.
///
/// `saturated` runs past capacity, where backpressure chains are longest
/// and a deadlock-prone repair table would actually wedge: the case then
/// allows an abort, but the run must drain or abort with the diagnostic.
fn check_workload_case(
    topo_idx: usize,
    pat_idx: usize,
    rate: f64,
    storm_links: usize,
    seed: u64,
    cycles: u64,
    saturated: bool,
) -> Result<(), String> {
    let (topo, vcs) = pool().swap_remove(topo_idx);
    let pat = PATTERNS[pat_idx];
    let messages = workload(&topo, pat, rate, cycles, seed);
    // The storm lands mid-trace so in-flight flits are on the dead links.
    let plan = (storm_links > 0)
        .then(|| FaultPlan::storm(&topo, storm_links, cycles / 3, cycles / 2, seed ^ 0xFA17));
    let ctx = format!(
        "topo {} pattern {pat} rate {rate:.4} storm {storm_links} seed {seed} ({} messages)",
        topo.name(),
        messages.len()
    );
    let warmup = cycles / 4;
    let traffic = Traffic::Workload { messages, warmup };
    let case = Case {
        faults: plan,
        allow_abort: saturated,
        ..Case::new(topo, config(vcs, RoutingKind::Minimal, seed), traffic)
    };
    let run = judge(&case, check::exact, &ctx)?;
    if saturated && !run.optimized.drained && run.deadlock.is_none() {
        return Err(format!(
            "{ctx}: run neither drained nor watchdog-aborted (outstanding flits at cap)"
        ));
    }
    Ok(())
}

/// One sharded-equivalence case: the sharded parallel engine at 2 and
/// 4 shards against the monolithic engine on identical synthetic
/// traffic. Deterministic routing replicates the global injection
/// calendar and RNG stream on every shard, so the merged report must be
/// byte-for-byte identical — struct equality *and* serialized JSON.
fn check_shard_exact_case(
    topo_idx: usize,
    pat_idx: usize,
    rate: f64,
    seed: u64,
) -> Result<(), String> {
    let (topo, vcs) = pool().swap_remove(topo_idx);
    let sim_cfg = config(vcs, RoutingKind::Minimal, seed);
    let pat = PATTERNS[pat_idx];
    let mut mono = Simulator::build(&topo, &sim_cfg).expect("sim builds");
    let baseline = mono.run_synthetic(pat, rate, 400, 1_600);
    for shards in [2usize, 4] {
        let mut sim = ShardedSimulator::build(&topo, &sim_cfg, shards).expect("sharded builds");
        let report = sim.run_synthetic(pat, rate, 400, 1_600);
        if report != baseline || report.to_json() != baseline.to_json() {
            return Err(format!(
                "topo {} pattern {pat} rate {rate:.4} seed {seed}: {shards}-shard \
                 report diverged from monolithic\nsharded:    {report}\nmonolithic: {baseline}",
                topo.name()
            ));
        }
    }
    baseline
        .snapshot()
        .check_conservation()
        .map_err(|e| format!("conservation: {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fuzzed synthetic differential: minimal routing over every
    /// topology family and pattern.
    #[test]
    fn optimized_engine_matches_reference_on_synthetic_traffic(
        topo_idx in 0usize..6,
        pat_idx in 0usize..6,
        rate in 0.01f64..0.16,
        seed in 0u64..1_000_000,
    ) {
        let r = check_synthetic_case(
            topo_idx, pat_idx, RoutingKind::Minimal, rate,
            BurstModel::uniform(), seed, 2_400,
        );
        prop_assert!(r.is_ok(), "REPRO {}", r.unwrap_err());
    }

    /// Fuzzed adaptive-routing differential: UGAL-L and UGAL-G on the
    /// diameter-2 families (where 4 VCs cover the longest detour).
    #[test]
    fn optimized_engine_matches_reference_under_ugal(
        topo_sel in 0usize..3,
        ugal_g in 0usize..2,
        pat_idx in 0usize..2,
        rate in 0.01f64..0.12,
        seed in 0u64..1_000_000,
    ) {
        let topo_idx = [0, 4, 5][topo_sel]; // sn 3x3, FBF, sn 3x2
        let routing = if ugal_g == 1 { RoutingKind::UgalG } else { RoutingKind::UgalL };
        let r = check_synthetic_case(
            topo_idx, pat_idx, routing, rate,
            BurstModel::uniform(), seed, 2_400,
        );
        prop_assert!(r.is_ok(), "REPRO {}", r.unwrap_err());
    }

    /// Fuzzed bursty-injection differential: on/off Markov phases on
    /// top of the Bernoulli/geometric duality.
    #[test]
    fn optimized_engine_matches_reference_under_bursts(
        topo_idx in 0usize..6,
        off_to_on in 0.05f64..0.9,
        on_to_off in 0.05f64..0.9,
        rate in 0.01f64..0.10,
        seed in 0u64..1_000_000,
    ) {
        let burst = BurstModel { off_to_on, on_to_off };
        let r = check_synthetic_case(
            topo_idx, 0, RoutingKind::Minimal, rate, burst, seed, 3_200,
        );
        prop_assert!(r.is_ok(), "REPRO {}", r.unwrap_err());
    }

    /// Fuzzed exact-equality mode: explicit workloads under minimal
    /// routing leave no randomness in either engine, so the snapshots
    /// must match bit for bit.
    #[test]
    fn exact_equality_on_workload_driven_runs(
        topo_idx in 0usize..6,
        pat_idx in 0usize..6,
        rate in 0.005f64..0.14,
        seed in 0u64..1_000_000,
    ) {
        let r = check_workload_case(topo_idx, pat_idx, rate, 0, seed, 1_200, false);
        prop_assert!(r.is_ok(), "REPRO {}", r.unwrap_err());
    }

    /// Fuzzed fault storms: random link storms over every topology
    /// family, same plan into both engines, workload-driven so the
    /// comparison stays exact — live drops, degraded re-routes and
    /// quiesced pairs must all agree bit for bit.
    #[test]
    fn exact_equality_under_fault_storms(
        topo_idx in 0usize..6,
        pat_idx in 0usize..6,
        rate in 0.005f64..0.10,
        storm_links in 1usize..7,
        seed in 0u64..1_000_000,
    ) {
        let r = check_workload_case(topo_idx, pat_idx, rate, storm_links, seed, 1_200, false);
        prop_assert!(r.is_ok(), "REPRO {}", r.unwrap_err());
    }

    /// Fuzzed saturation-load storms: the fault tier at offered loads
    /// past capacity, where a deadlock-prone repair would wedge the
    /// drain phase. Exactness must survive saturation.
    #[test]
    fn exact_equality_under_saturation_storms(
        topo_idx in 0usize..6,
        pat_idx in 0usize..6,
        rate in 0.4f64..1.0,
        storm_links in 1usize..7,
        seed in 0u64..1_000_000,
    ) {
        let r = check_workload_case(topo_idx, pat_idx, rate, storm_links, seed, 600, true);
        prop_assert!(r.is_ok(), "REPRO {}", r.unwrap_err());
    }

    /// Fuzzed shard-equivalence: 2- and 4-shard runs of the parallel
    /// engine must be byte-identical to the monolithic engine under
    /// deterministic routing, for every topology family and pattern.
    #[test]
    fn sharded_engine_is_byte_identical_under_deterministic_routing(
        topo_idx in 0usize..6,
        pat_idx in 0usize..6,
        rate in 0.01f64..0.16,
        seed in 0u64..1_000_000,
    ) {
        let r = check_shard_exact_case(topo_idx, pat_idx, rate, seed);
        prop_assert!(r.is_ok(), "REPRO {}", r.unwrap_err());
    }
}

/// Holds an optimized table to the reference routing on every (router,
/// target) decision: reachability, distances, and — out of every live
/// router — the port and VC at hop offsets 0 and 1.
fn assert_routing_agrees(
    topo: &Topology,
    vcs: usize,
    alive: &[bool],
    table: &RoutingTable,
    reference: &RefRouting,
) {
    let name = topo.name();
    for cur in topo.routers() {
        assert_eq!(table.port_count(cur), reference.port_count(cur));
        for dst in topo.routers() {
            let reachable = table.reachable(cur, dst);
            assert_eq!(
                reachable,
                reference.reachable(cur, dst),
                "{name}: {cur} -> {dst}"
            );
            if !reachable || cur == dst {
                continue;
            }
            let dist = (table.distance(cur, dst), reference.distance(cur, dst));
            assert_eq!(dist.0, dist.1, "{name}: dist {cur} -> {dst}");
            if !alive[cur.index()] {
                continue; // nothing routes out of a dead router
            }
            for hops in 0..2u32 {
                let mut flit = Flit::nth_of_packet(
                    PacketId(0),
                    0,
                    1,
                    NodeId(0),
                    NodeId(dst.index()),
                    dst,
                    0,
                    false,
                    false,
                );
                flit.hops = hops as u16;
                let opt = table.route(cur, &flit, vcs);
                let (port, vc) = reference.route(cur, dst, hops, vcs);
                assert_eq!(
                    (opt.port, opt.vc),
                    (port, vc),
                    "{name}: route {cur} -> {dst} hop {hops}"
                );
            }
        }
    }
}

/// The reference routing reimplementation must agree with the optimized
/// `RoutingTable` on every (router, target) decision — ports, VCs and
/// distances — for every topology family in the pool. Differential at
/// the routing layer, cheaper and sharper than end-to-end runs.
#[test]
fn reference_routing_agrees_with_optimized_tables() {
    for (topo, vcs) in pool() {
        let alive = vec![true; topo.router_count()];
        let (table, reference) = (RoutingTable::minimal(&topo), RefRouting::new(&topo));
        assert_routing_agrees(&topo, vcs, &alive, &table, &reference);
    }
}

/// The degraded routing rebuild must agree across engines on every
/// (router, target) decision over the surviving graph — distances,
/// reachability, ports and VCs — with a dead router and dead links, for
/// every topology family. Differential at the routing layer, where a
/// tie-break drift would be hardest to see end-to-end.
#[test]
fn degraded_reference_routing_agrees_with_optimized_tables() {
    for (topo, vcs) in pool() {
        let nr = topo.router_count();
        let mut alive = vec![true; nr];
        alive[nr / 2] = false;
        let dead_links: Vec<_> = topo.links().take(2).collect();
        let link_alive = |a: RouterId, b: RouterId| {
            !dead_links.contains(&(a, b)) && !dead_links.contains(&(b, a))
        };
        let table = RoutingTable::degraded(&topo, &alive, link_alive);
        let reference = RefRouting::new(&topo).degraded(&alive, link_alive);
        assert_routing_agrees(&topo, vcs, &alive, &table, &reference);
    }
}

/// A deterministic statistical fault case on the flagship topology:
/// independent RNG streams, same escalating storm — drop counts within
/// binomial tolerance, surviving traffic within the statistical tier.
#[test]
fn fault_storm_statistics_agree_across_engines() {
    let (topo, vcs) = pool().swap_remove(0); // Slim NoC 3x3: diameter 2, heals well
    let plan = FaultPlan::storm(&topo, 8, 900, 1_200, 0xFA17);
    let traffic = Traffic::uniform(TrafficPattern::Random, 0.08, 400, 3_200);
    let case = Case {
        faults: Some(plan),
        ..Case::new(topo, config(vcs, RoutingKind::Minimal, 4242), traffic)
    };
    let run = check::run(&case).unwrap();
    check::statistical(&run).unwrap();
    let (a, b) = (run.optimized.dropped_packets, run.reference.dropped_packets);
    assert!(a > 0 && b > 0, "storm must hit live traffic");
    let close = counts_close(a, b, 6.0, 12.0);
    assert!(close, "dropped diverged: optimized {a} vs reference {b}");
}

/// Zero-rate runs: both engines must report a completely idle network.
#[test]
fn zero_rate_agrees_exactly() {
    let (topo, vcs) = pool().swap_remove(0);
    let traffic = Traffic::uniform(TrafficPattern::Random, 0.0, 1_000, 20_000);
    let case = Case::new(topo, config(vcs, RoutingKind::Minimal, 7), traffic);
    let run = check::run(&case).unwrap();
    check::exact(&run).unwrap();
    assert_eq!(run.optimized.delivered_packets, 0);
    assert_eq!(run.optimized.total_cycles, 21_000);
}

/// The two engines must agree on the watchdog's *progress event set*
/// cycle for cycle. A bound-1 watchdog is the maximally sensitive
/// probe: it aborts on the first cycle where live flits exist but no
/// progress event (delivery, switch traversal, injection, packet or
/// fault arrival) occurs. A healthy multi-flit wormhole stream has a
/// progress event on every in-flight cycle, so neither engine may
/// fire even through a saturated fault storm (the exact verdict fails
/// an abort) — and if either engine's bump sites deviated by a single
/// cycle anywhere in the run, its truncated clock would break the
/// byte-for-byte snapshot equality the verdict asserts.
#[test]
fn bound_one_watchdogs_agree_across_engines_under_storm() {
    let (topo, vcs) = pool().swap_remove(2); // torus 4x4: datelines + wrap links
    let messages = workload(&topo, TrafficPattern::Adversarial1, 0.7, 800, 99);
    let plan = FaultPlan::storm(&topo, 4, 260, 400, 99 ^ 0xFA17);
    let warmup = 200;
    let traffic = Traffic::Workload { messages, warmup };
    let case = Case {
        faults: Some(plan),
        watchdog: Some(1),
        ..Case::new(topo, config(vcs, RoutingKind::Minimal, 99), traffic)
    };
    check::exact(&check::run(&case).unwrap()).unwrap();
}

/// The reference engine's watchdog aborts on the same condition as the
/// optimized one: isolated single-flit packets leave a quiet
/// allocation cycle, so a bound-1 watchdog cuts the run short instead
/// of letting it drain.
#[test]
fn reference_watchdog_aborts_like_the_optimized_engine() {
    let topo = Topology::mesh(4, 3, 2);
    let mut cfg = config(2, RoutingKind::Minimal, 11);
    cfg.packet_flits = 1;
    let traffic = Traffic::uniform(TrafficPattern::Random, 0.005, 100, 400);
    let case = Case::new(topo, cfg, traffic);
    // Control: at the default bound the same run goes the distance.
    let full = check::run(&case).unwrap();
    assert!(full.deadlock.is_none());
    assert!(full.reference.total_cycles >= 500, "healthy horizon");
    // Bound 1 cuts the run at the first quiet cycle instead, in both
    // engines (each on its own RNG stream); the optimized one attaches
    // the diagnostic.
    let aborted = check::run(&Case {
        watchdog: Some(1),
        ..case
    })
    .unwrap();
    assert!(aborted.deadlock.is_some(), "optimized watchdog fires");
    assert!(aborted.reference.total_cycles < 500, "abort truncates");
    assert!(aborted.optimized.total_cycles < 500);
}

/// A deterministic saturation-stress case: conservation laws must hold
/// even when the network rejects offered load (no latency comparison —
/// saturated latencies are seed-dependent).
#[test]
fn conservation_holds_at_saturation_in_both_engines() {
    let (topo, vcs) = pool().swap_remove(0);
    let traffic = Traffic::uniform(TrafficPattern::Adversarial1, 0.8, 500, 2_000);
    let case = Case::new(topo, config(vcs, RoutingKind::Minimal, 21), traffic);
    let run = check::run(&case).unwrap();
    for snapshot in [&run.optimized, &run.reference] {
        snapshot.check_conservation().unwrap();
        assert!(snapshot.stalled_generations > 0, "0.8 must exceed capacity");
    }
}
