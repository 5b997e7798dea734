//! The differential verification harness: the optimized
//! `snoc_sim::Simulator` cross-checked against the
//! golden `snoc_refsim::RefSimulator` over a fuzzed matrix of
//! topology × routing × pattern × rate × seed.
//!
//! Checks per case:
//!
//! - **conservation** — each engine's [`Snapshot`] satisfies the
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
use snoc_refsim::check::{compare_statistics, counts_close, workload};
use snoc_refsim::{RefConfig, RefSimulator};
use snoc_sim::{Conformance, FaultPlan, RoutingKind, ShardedSimulator, SimConfig, Simulator};
use snoc_topology::{NodeId, Topology};
use snoc_traffic::{BurstModel, TrafficPattern};

/// The fuzzed topology pool: at least one member of every supported
/// family (Slim NoC, mesh, torus, Dragonfly, Flattened Butterfly), all
/// small enough that a case simulates in milliseconds. The second
/// element is the VC count required for deadlock freedom (hop-indexed
/// VCs need one VC per hop of the longest minimal path).
fn topology(idx: usize) -> (Topology, usize) {
    match idx {
        0 => (Topology::slim_noc(3, 3).unwrap(), 2),
        1 => (Topology::mesh(4, 3, 2), 2),
        2 => (Topology::torus(4, 4, 2), 2),
        3 => (Topology::dragonfly(2), 4),
        4 => (Topology::flattened_butterfly(3, 3, 2), 2),
        _ => (Topology::slim_noc(3, 2).unwrap(), 2),
    }
}

fn pattern(idx: usize) -> TrafficPattern {
    match idx {
        0 => TrafficPattern::Random,
        1 => TrafficPattern::BitShuffle,
        2 => TrafficPattern::BitReversal,
        3 => TrafficPattern::Adversarial1,
        4 => TrafficPattern::Adversarial2,
        _ => TrafficPattern::Transpose,
    }
}

fn configs(vcs: usize, routing: RoutingKind, seed: u64) -> (SimConfig, RefConfig) {
    let sim = SimConfig::default()
        .with_vcs(vcs)
        .with_routing(routing)
        .with_seed(seed);
    let reference = RefConfig::try_from_sim(&sim).expect("edge/credited config");
    // Give the reference engine an independent stream: agreement must
    // come from the shared spec, never from shared draws.
    (sim, reference.with_seed(seed ^ 0x5EED_5EED))
}

/// Runs one synthetic differential case and applies every check.
/// Returns an error string naming the first failed check.
#[allow(clippy::too_many_arguments)] // a flat case descriptor, called from 3 proptests
fn check_synthetic_case(
    topo_idx: usize,
    pat_idx: usize,
    routing: RoutingKind,
    rate: f64,
    burst: BurstModel,
    seed: u64,
    warmup: u64,
    measure: u64,
) -> Result<(), String> {
    let (topo, vcs) = topology(topo_idx);
    let vcs = if routing == RoutingKind::Minimal {
        vcs
    } else {
        4
    };
    let (sim_cfg, ref_cfg) = configs(vcs, routing, seed);
    let pat = pattern(pat_idx);
    let mut sim = Simulator::build(&topo, &sim_cfg).expect("sim builds");
    let optimized = sim
        .run_synthetic_bursty(pat, rate, burst, warmup, measure)
        .snapshot();
    let mut rsim = RefSimulator::build(&topo, &ref_cfg).expect("refsim builds");
    let reference = rsim.run_synthetic_bursty(pat, rate, burst, warmup, measure);
    let ctx = format!(
        "topo {} pattern {pat} routing {routing:?} rate {rate:.4} seed {seed}",
        topo.name()
    );
    optimized
        .check_conservation()
        .map_err(|e| format!("{ctx}: optimized conservation: {e}"))?;
    reference
        .check_conservation()
        .map_err(|e| format!("{ctx}: reference conservation: {e}"))?;
    // The agreement tier lives in `snoc_refsim::check` so this suite
    // and the `snoc repro verify` matrix enforce the identical contract.
    compare_statistics(&optimized, &reference, 50)
        .map(|_| ())
        .map_err(|e| format!("{ctx}: {e}"))
}

/// One exact-equality case: same workload into both engines, minimal
/// routing, zero RNG consumption — snapshots must be equal.
fn check_exact_case(
    topo_idx: usize,
    pat_idx: usize,
    rate: f64,
    seed: u64,
    cycles: u64,
) -> Result<(), String> {
    let (topo, vcs) = topology(topo_idx);
    let (sim_cfg, ref_cfg) = configs(vcs, RoutingKind::Minimal, seed);
    let pat = pattern(pat_idx);
    let trace = workload(&topo, pat, rate, cycles, seed);
    let warmup = cycles / 4;
    let mut sim = Simulator::build(&topo, &sim_cfg).expect("sim builds");
    let optimized = sim.run_trace(&trace, warmup).snapshot();
    let mut rsim = RefSimulator::build(&topo, &ref_cfg).expect("refsim builds");
    let reference = rsim.run_workload(&trace, warmup);
    if optimized != reference {
        return Err(format!(
            "exact mode diverged: topo {} pattern {pat} rate {rate:.4} seed {seed} \
             ({} messages)\noptimized: {optimized:?}\nreference: {reference:?}",
            topo.name(),
            trace.len()
        ));
    }
    optimized
        .check_conservation()
        .map_err(|e| format!("conservation in exact mode: {e}"))
}

/// One faulted exact-equality case: the same explicit workload *and*
/// the same seeded fault storm into both engines under minimal routing.
/// Neither engine consumes randomness, and the drop rules are specified
/// as a pure function of pre-fault state, so the snapshots — including
/// `dropped_packets` and the `dropped_flits` activity counter — must be
/// byte-for-byte equal even when the degraded graph severs pairs.
fn check_faulted_exact_case(
    topo_idx: usize,
    pat_idx: usize,
    rate: f64,
    storm_links: usize,
    seed: u64,
    cycles: u64,
) -> Result<(), String> {
    let (topo, vcs) = topology(topo_idx);
    let (sim_cfg, ref_cfg) = configs(vcs, RoutingKind::Minimal, seed);
    let pat = pattern(pat_idx);
    let trace = workload(&topo, pat, rate, cycles, seed);
    let warmup = cycles / 4;
    // Storm lands mid-trace so in-flight flits are on the dead links.
    let plan = FaultPlan::storm(&topo, storm_links, cycles / 3, cycles / 2, seed ^ 0xFA17);
    let ctx = format!(
        "topo {} pattern {pat} rate {rate:.4} storm {storm_links} seed {seed}",
        topo.name()
    );
    let mut sim = Simulator::build(&topo, &sim_cfg).expect("sim builds");
    sim.set_fault_plan(&plan)
        .map_err(|e| format!("{ctx}: sim rejected plan: {e}"))?;
    let optimized = sim.run_trace(&trace, warmup).snapshot();
    let mut rsim = RefSimulator::build(&topo, &ref_cfg).expect("refsim builds");
    rsim.set_fault_plan(&plan)
        .map_err(|e| format!("{ctx}: refsim rejected plan: {e}"))?;
    let reference = rsim.run_workload(&trace, warmup);
    if optimized != reference {
        return Err(format!(
            "faulted exact mode diverged: {ctx} ({} messages, {} events)\n\
             optimized: {optimized:?}\nreference: {reference:?}",
            trace.len(),
            plan.events().len()
        ));
    }
    optimized
        .check_conservation()
        .map_err(|e| format!("{ctx}: conservation under faults: {e}"))
}

/// One saturation-storm exact case: the faulted exact tier pushed past
/// the network's capacity (offered load 0.4–1.0), where wormhole
/// backpressure chains are longest and a deadlock-prone repair table
/// would actually wedge. Both engines run with their default-armed
/// watchdogs; the run must either drain or abort with the structured
/// diagnostic — and the snapshots must stay byte-for-byte equal either
/// way.
fn check_saturated_storm_case(
    topo_idx: usize,
    pat_idx: usize,
    rate: f64,
    storm_links: usize,
    seed: u64,
    cycles: u64,
) -> Result<(), String> {
    let (topo, vcs) = topology(topo_idx);
    let (sim_cfg, ref_cfg) = configs(vcs, RoutingKind::Minimal, seed);
    let pat = pattern(pat_idx);
    let trace = workload(&topo, pat, rate, cycles, seed);
    let warmup = cycles / 4;
    let plan = FaultPlan::storm(&topo, storm_links, cycles / 3, cycles / 2, seed ^ 0xFA17);
    let ctx = format!(
        "topo {} pattern {pat} saturation rate {rate:.4} storm {storm_links} seed {seed}",
        topo.name()
    );
    let mut sim = Simulator::build(&topo, &sim_cfg).expect("sim builds");
    sim.set_fault_plan(&plan)
        .map_err(|e| format!("{ctx}: sim rejected plan: {e}"))?;
    let report = sim.run_trace(&trace, warmup);
    if !report.drained && report.deadlock.is_none() {
        return Err(format!(
            "{ctx}: run neither drained nor watchdog-aborted (outstanding flits at cap)"
        ));
    }
    let optimized = report.snapshot();
    let mut rsim = RefSimulator::build(&topo, &ref_cfg).expect("refsim builds");
    rsim.set_fault_plan(&plan)
        .map_err(|e| format!("{ctx}: refsim rejected plan: {e}"))?;
    let reference = rsim.run_workload(&trace, warmup);
    if optimized != reference {
        return Err(format!(
            "saturated storm diverged: {ctx} ({} messages)\n\
             optimized: {optimized:?}\nreference: {reference:?}",
            trace.len()
        ));
    }
    optimized
        .check_conservation()
        .map_err(|e| format!("{ctx}: conservation at saturation: {e}"))
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
    let (topo, vcs) = topology(topo_idx);
    let (sim_cfg, _) = configs(vcs, RoutingKind::Minimal, seed);
    let pat = pattern(pat_idx);
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
            BurstModel::uniform(), seed, 400, 2_400,
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
            BurstModel::uniform(), seed, 400, 2_400,
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
            topo_idx, 0, RoutingKind::Minimal, rate, burst, seed, 400, 3_200,
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
        let r = check_exact_case(topo_idx, pat_idx, rate, seed, 1_200);
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
        let r = check_faulted_exact_case(topo_idx, pat_idx, rate, storm_links, seed, 1_200);
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
        let r = check_saturated_storm_case(topo_idx, pat_idx, rate, storm_links, seed, 600);
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

/// The reference routing reimplementation must agree with the optimized
/// `RoutingTable` on every (router, target) decision — ports, VCs and
/// distances — for every topology family in the pool. Differential at
/// the routing layer, cheaper and sharper than end-to-end runs.
#[test]
fn reference_routing_agrees_with_optimized_tables() {
    use snoc_refsim::RefRouting;
    use snoc_sim::{Flit, PacketId, RoutingTable};

    for idx in 0..6 {
        let (topo, vcs) = topology(idx);
        let table = RoutingTable::minimal(&topo);
        let reference = RefRouting::new(&topo);
        for cur in topo.routers() {
            assert_eq!(table.port_count(cur), reference.port_count(cur));
            for dst in topo.routers() {
                if cur == dst {
                    continue;
                }
                assert_eq!(
                    table.distance(cur, dst),
                    reference.distance(cur, dst),
                    "{}: dist {cur} -> {dst}",
                    topo.name()
                );
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
                        "{}: route {cur} -> {dst} hop {hops}",
                        topo.name()
                    );
                }
            }
        }
    }
}

/// The degraded routing rebuild must agree across engines on every
/// (router, target) decision over the surviving graph — distances,
/// reachability, ports and VCs — with a dead router and dead links, for
/// every topology family. Differential at the routing layer, where a
/// tie-break drift would be hardest to see end-to-end.
#[test]
fn degraded_reference_routing_agrees_with_optimized_tables() {
    use snoc_refsim::RefRouting;
    use snoc_sim::{Flit, PacketId, RoutingTable};
    use snoc_topology::RouterId;

    for idx in 0..6 {
        let (topo, vcs) = topology(idx);
        let nr = topo.router_count();
        let mut router_alive = vec![true; nr];
        router_alive[nr / 2] = false;
        let dead_links: Vec<_> = topo.links().take(2).collect();
        let link_alive = |a: RouterId, b: RouterId| {
            !dead_links.contains(&(a, b)) && !dead_links.contains(&(b, a))
        };
        let table = RoutingTable::degraded(&topo, &router_alive, link_alive);
        let reference = RefRouting::new(&topo).degraded(&router_alive, link_alive);
        for cur in topo.routers() {
            for dst in topo.routers() {
                assert_eq!(
                    table.reachable(cur, dst),
                    reference.reachable(cur, dst),
                    "{}: reachable {cur} -> {dst}",
                    topo.name()
                );
                if !table.reachable(cur, dst) || cur == dst {
                    continue;
                }
                assert_eq!(
                    table.distance(cur, dst),
                    reference.distance(cur, dst),
                    "{}: degraded dist {cur} -> {dst}",
                    topo.name()
                );
                if !router_alive[cur.index()] {
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
                        "{}: degraded route {cur} -> {dst} hop {hops}",
                        topo.name()
                    );
                }
            }
        }
    }
}

/// A deterministic statistical fault case on the flagship topology:
/// independent RNG streams, same escalating storm — drop counts within
/// binomial tolerance, surviving traffic within the statistical tier.
#[test]
fn fault_storm_statistics_agree_across_engines() {
    let (topo, vcs) = topology(0); // Slim NoC 3x3: diameter 2, heals well
    let (sim_cfg, ref_cfg) = configs(vcs, RoutingKind::Minimal, 4242);
    let plan = FaultPlan::storm(&topo, 8, 900, 1_200, 0xFA17);
    let mut sim = Simulator::build(&topo, &sim_cfg).unwrap();
    sim.set_fault_plan(&plan).unwrap();
    let optimized = sim
        .run_synthetic(TrafficPattern::Random, 0.08, 400, 3_200)
        .snapshot();
    let mut rsim = RefSimulator::build(&topo, &ref_cfg).unwrap();
    rsim.set_fault_plan(&plan).unwrap();
    let reference = rsim.run_synthetic(TrafficPattern::Random, 0.08, 400, 3_200);
    optimized.check_conservation().unwrap();
    reference.check_conservation().unwrap();
    assert!(optimized.dropped_packets > 0, "storm must hit live traffic");
    assert!(reference.dropped_packets > 0, "storm must hit live traffic");
    assert!(
        counts_close(
            optimized.dropped_packets,
            reference.dropped_packets,
            6.0,
            12.0
        ),
        "dropped diverged: optimized {} vs reference {}",
        optimized.dropped_packets,
        reference.dropped_packets
    );
    compare_statistics(&optimized, &reference, 50).unwrap();
}

/// Zero-rate runs: both engines must report a completely idle network.
#[test]
fn zero_rate_agrees_exactly() {
    let (topo, vcs) = topology(0);
    let (sim_cfg, ref_cfg) = configs(vcs, RoutingKind::Minimal, 7);
    let mut sim = Simulator::build(&topo, &sim_cfg).unwrap();
    let optimized = sim
        .run_synthetic(TrafficPattern::Random, 0.0, 1_000, 20_000)
        .snapshot();
    let mut rsim = RefSimulator::build(&topo, &ref_cfg).unwrap();
    let reference = rsim.run_synthetic(TrafficPattern::Random, 0.0, 1_000, 20_000);
    assert_eq!(optimized, reference);
    assert_eq!(optimized.delivered_packets, 0);
    assert_eq!(optimized.total_cycles, 21_000);
}

/// The two engines must agree on the watchdog's *progress event set*
/// cycle for cycle. A bound-1 watchdog is the maximally sensitive
/// probe: it aborts on the first cycle where live flits exist but no
/// progress event (delivery, switch traversal, injection, packet or
/// fault arrival) occurs. A healthy multi-flit wormhole stream has a
/// progress event on every in-flight cycle, so neither engine may
/// fire even through a saturated fault storm — and if either engine's
/// bump sites deviated by a single cycle anywhere in the run, its
/// truncated clock would break the byte-for-byte snapshot equality
/// this asserts.
#[test]
fn bound_one_watchdogs_agree_across_engines_under_storm() {
    let (topo, vcs) = topology(2); // torus 4x4: datelines + wrap links
    let (sim_cfg, ref_cfg) = configs(vcs, RoutingKind::Minimal, 99);
    let trace = workload(&topo, TrafficPattern::Adversarial1, 0.7, 800, 99);
    let plan = FaultPlan::storm(&topo, 4, 260, 400, 99 ^ 0xFA17);
    let mut sim = Simulator::build(&topo, &sim_cfg).unwrap();
    sim.set_fault_plan(&plan).unwrap();
    sim.set_watchdog(Some(1));
    let report = sim.run_trace(&trace, 200);
    assert!(
        report.deadlock.is_none(),
        "a live run must bump progress every in-flight cycle: {}",
        report.deadlock.unwrap()
    );
    let optimized = report.snapshot();
    let mut rsim = RefSimulator::build(&topo, &ref_cfg).unwrap();
    rsim.set_fault_plan(&plan).unwrap();
    rsim.set_watchdog(Some(1));
    let reference = rsim.run_workload(&trace, 200);
    assert_eq!(
        optimized, reference,
        "progress event sets must agree cycle for cycle"
    );
}

/// The reference engine's watchdog aborts on the same condition as the
/// optimized one: isolated single-flit packets leave a quiet
/// allocation cycle, so a bound-1 watchdog cuts the run short instead
/// of letting it drain.
#[test]
fn reference_watchdog_aborts_like_the_optimized_engine() {
    let topo = Topology::mesh(4, 3, 2);
    let (mut sim_cfg, _) = configs(2, RoutingKind::Minimal, 11);
    sim_cfg.packet_flits = 1;
    let ref_cfg = RefConfig::try_from_sim(&sim_cfg)
        .expect("edge/credited config")
        .with_seed(11);
    // Control: at the default bound the same run goes the distance.
    let mut healthy = RefSimulator::build(&topo, &ref_cfg).unwrap();
    let full = healthy.run_synthetic(TrafficPattern::Random, 0.005, 100, 400);
    assert!(full.total_cycles >= 500, "healthy horizon");
    // Bound 1 cuts the run at the first quiet cycle instead.
    let mut rsim = RefSimulator::build(&topo, &ref_cfg).unwrap();
    rsim.set_watchdog(Some(1));
    let aborted = rsim.run_synthetic(TrafficPattern::Random, 0.005, 100, 400);
    assert!(aborted.total_cycles < full.total_cycles, "abort truncates");
    // The optimized engine under the identical config (and its own
    // RNG) aborts the same way, with the diagnostic attached.
    let mut sim = Simulator::build(&topo, &sim_cfg).unwrap();
    sim.set_watchdog(Some(1));
    let report = sim.run_synthetic(TrafficPattern::Random, 0.005, 100, 400);
    assert!(report.deadlock.is_some(), "optimized watchdog fires too");
    assert!(aborted.total_cycles < 500);
    assert!(report.total_cycles < 500);
}

/// A deterministic saturation-stress case: conservation laws must hold
/// even when the network rejects offered load (no latency comparison —
/// saturated latencies are seed-dependent).
#[test]
fn conservation_holds_at_saturation_in_both_engines() {
    let (topo, vcs) = topology(0);
    let (sim_cfg, ref_cfg) = configs(vcs, RoutingKind::Minimal, 21);
    let mut sim = Simulator::build(&topo, &sim_cfg).unwrap();
    let optimized = sim
        .run_synthetic(TrafficPattern::Adversarial1, 0.8, 500, 2_000)
        .snapshot();
    optimized.check_conservation().unwrap();
    let mut rsim = RefSimulator::build(&topo, &ref_cfg).unwrap();
    let reference = rsim.run_synthetic(TrafficPattern::Adversarial1, 0.8, 500, 2_000);
    reference.check_conservation().unwrap();
    assert!(
        optimized.stalled_generations > 0,
        "0.8 must exceed capacity"
    );
    assert!(reference.stalled_generations > 0);
}
