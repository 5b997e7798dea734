//! The `verify` figure, the differential verification driver: runs the
//! optimized simulator and the golden reference model
//! (`snoc_refsim`) over a deterministic matrix of topology × routing ×
//! pattern × rate, checks conservation laws and cross-engine agreement
//! on every case, and fails on any divergence.
//!
//! Three check tiers per case (see `crates/refsim/tests/differential.rs`
//! for the fuzzed version of the same contract):
//!
//! - `conserve` — each engine's snapshot satisfies the activity-counter
//!   conservation laws;
//! - `stats` — injected/delivered counts within binomial tolerance,
//!   mean hops/latency within relative tolerance (skipped below a
//!   minimum sample, e.g. in `--smoke` windows);
//! - `exact` — workload-driven minimal-routing cases must produce
//!   byte-identical snapshots.
//!
//! A shard-equivalence block then holds the sharded parallel engine to
//! the monolithic engine over the topology pool: exact byte identity at
//! 2 and 4 shards, the only contract that engine has.
//!
//! A degraded-mode block reruns each topology's workload under a seeded
//! mid-run link storm, holding both engines to byte-exact agreement —
//! including the dropped-packet accounting and self-healed routing.
//!
//! A deadlock-freedom tier closes the run: fuzzed fault scenarios
//! (seeded link storms, downed routers) across the topology pool, each
//! survivor graph's up*/down* repair table run through the
//! channel-dependency-graph cycle checker at 1 VC and at the family's
//! configured VC count, plus a rebuild-determinism check. Any cycle or
//! nondeterministic rebuild fails the run. The storm rows above also
//! fail on a no-progress watchdog abort, so a wedged drain phase is a
//! first-class divergence, not a silent truncation.
//!
//! `--smoke` shrinks windows to prove the pipeline end-to-end; `--json`
//! emits one JSON object per case instead of the table.

use super::emit;
use crate::{io_err, Args};
use snoc_core::{format_float, TextTable};
use snoc_refsim::check::{compare_statistics, workload};
use snoc_refsim::{RefConfig, RefSimulator};
use snoc_sim::{
    verify_deadlock_free, Conformance, FaultKind, FaultPlan, RoutingKind, RoutingTable,
    ShardedSimulator, SimConfig, Simulator, Snapshot,
};
use snoc_topology::{RouterId, Topology};
use snoc_traffic::TrafficPattern;
use std::fmt::Write as _;
use std::io::Write;

/// One differential case of the matrix.
struct Case {
    topo: Topology,
    vcs: usize,
    routing: RoutingKind,
    pattern: TrafficPattern,
    rate: f64,
    exact: bool,
}

/// One evaluated row.
struct Outcome {
    label: String,
    optimized: Snapshot,
    reference: Snapshot,
    verdict: Result<&'static str, String>,
}

fn topologies() -> Vec<(Topology, usize)> {
    vec![
        (Topology::slim_noc(3, 3).unwrap(), 2),
        (Topology::mesh(4, 3, 2), 2),
        (Topology::torus(4, 4, 2), 2),
        (Topology::dragonfly(2), 4),
        (Topology::flattened_butterfly(3, 3, 2), 2),
    ]
}

fn matrix(args: &Args) -> Vec<Case> {
    let rates: &[f64] = if args.smoke {
        &[0.05]
    } else if args.quick {
        &[0.03, 0.10]
    } else {
        &[0.03, 0.08, 0.15]
    };
    let patterns = [
        TrafficPattern::Random,
        TrafficPattern::BitShuffle,
        TrafficPattern::Adversarial1,
        TrafficPattern::BitReversal,
    ];
    let mut cases = Vec::new();
    for (topo, vcs) in topologies() {
        for &pattern in &patterns {
            for &rate in rates {
                cases.push(Case {
                    topo: topo.clone(),
                    vcs,
                    routing: RoutingKind::Minimal,
                    pattern,
                    rate,
                    exact: false,
                });
            }
        }
        // One workload-driven exact-equality case per topology.
        cases.push(Case {
            topo: topo.clone(),
            vcs,
            routing: RoutingKind::Minimal,
            pattern: TrafficPattern::Random,
            rate: rates[0],
            exact: true,
        });
    }
    // Adaptive routing on the diameter-2 Slim NoC (4 VCs cover the
    // longest Valiant detour).
    let sn = Topology::slim_noc(3, 3).unwrap();
    for routing in [RoutingKind::UgalL, RoutingKind::UgalG] {
        cases.push(Case {
            topo: sn.clone(),
            vcs: 4,
            routing,
            pattern: TrafficPattern::Adversarial1,
            rate: rates[0],
            exact: false,
        });
    }
    cases
}

fn run_case(case: &Case, args: &Args) -> Outcome {
    let sim_cfg = SimConfig::default()
        .with_vcs(case.vcs)
        .with_routing(case.routing)
        .with_seed(0xBEEF);
    let ref_cfg = RefConfig::try_from_sim(&sim_cfg)
        .expect("matrix uses edge/credited configs")
        .with_seed(0xBEEF ^ 0x5EED_5EED);
    let mut sim = Simulator::build(&case.topo, &sim_cfg).expect("sim builds");
    let mut rsim = RefSimulator::build(&case.topo, &ref_cfg).expect("refsim builds");
    let (optimized, reference, mode) = if case.exact {
        let trace = workload(
            &case.topo,
            case.pattern,
            case.rate,
            args.trace_cycles(),
            0xD1FF,
        );
        let warmup = args.trace_cycles() / 4;
        (
            sim.run_trace(&trace, warmup).snapshot(),
            rsim.run_workload(&trace, warmup),
            "exact",
        )
    } else {
        (
            sim.run_synthetic(case.pattern, case.rate, args.warmup(), args.measure())
                .snapshot(),
            rsim.run_synthetic(case.pattern, case.rate, args.warmup(), args.measure()),
            "stats",
        )
    };
    let label = format!(
        "{} {} {:?} {}{}",
        case.topo.name(),
        case.pattern,
        case.routing,
        format_float(case.rate, 2),
        if case.exact { " [exact]" } else { "" },
    );
    let verdict = evaluate(&optimized, &reference, mode);
    Outcome {
        label,
        optimized,
        reference,
        verdict,
    }
}

/// Shard-equivalence rows: the sharded parallel engine against the
/// monolithic engine on the same seed, across the full topology pool —
/// byte identity at any shard count.
fn shard_outcomes(args: &Args) -> Vec<Outcome> {
    let rate = 0.05;
    let mut outcomes = Vec::new();
    for (topo, vcs) in topologies() {
        let cfg = SimConfig::default().with_vcs(vcs).with_seed(0xBEEF);
        let mut mono = Simulator::build(&topo, &cfg).expect("sim builds");
        let reference = mono
            .run_synthetic(TrafficPattern::Random, rate, args.warmup(), args.measure())
            .snapshot();
        for shards in [2usize, 4] {
            let mut sim = ShardedSimulator::build(&topo, &cfg, shards).expect("sharded builds");
            let optimized = sim
                .run_synthetic(TrafficPattern::Random, rate, args.warmup(), args.measure())
                .snapshot();
            let label = format!(
                "{} Random Minimal {} [{}sh exact]",
                topo.name(),
                format_float(rate, 2),
                sim.shard_count(),
            );
            let verdict = evaluate(&optimized, &reference, "exact");
            outcomes.push(Outcome {
                label,
                optimized,
                reference: reference.clone(),
                verdict,
            });
        }
    }
    outcomes
}

/// Degraded-mode rows: both engines run the same workload under the
/// same seeded mid-run link storm, per topology. The verdict tier is
/// exact — byte-identical snapshots including drop accounting — so a
/// divergence in fault repair (doomed-packet selection, credit
/// recounts, degraded routing) fails loudly here, not just in the
/// fuzzed differential suite.
fn fault_outcomes(args: &Args) -> Vec<Outcome> {
    let cycles = args.trace_cycles();
    let mut outcomes = Vec::new();
    for (topo, vcs) in topologies() {
        let plan = FaultPlan::storm(&topo, 4, cycles / 3, cycles / 3, 0xFA17);
        let sim_cfg = SimConfig::default().with_vcs(vcs).with_seed(0xBEEF);
        let ref_cfg = RefConfig::try_from_sim(&sim_cfg)
            .expect("matrix uses edge/credited configs")
            .with_seed(0xBEEF ^ 0x5EED_5EED);
        let mut sim = Simulator::build(&topo, &sim_cfg).expect("sim builds");
        sim.set_fault_plan(&plan).expect("minimal routing");
        let mut rsim = RefSimulator::build(&topo, &ref_cfg).expect("refsim builds");
        rsim.set_fault_plan(&plan).expect("minimal routing");
        let trace = workload(&topo, TrafficPattern::Random, 0.05, cycles, 0xD1FF);
        let warmup = cycles / 4;
        let report = sim.run_trace(&trace, warmup);
        let deadlock = report.deadlock.clone();
        let optimized = report.snapshot();
        let reference = rsim.run_workload(&trace, warmup);
        // A watchdog abort under the storm is a routing-liveness bug in
        // its own right, even if both engines abort identically.
        let verdict = match deadlock {
            Some(d) => Err(format!("watchdog abort under storm: {d}")),
            None => evaluate(&optimized, &reference, "exact"),
        };
        outcomes.push(Outcome {
            label: format!("{} Random Minimal 0.05 [storm exact]", topo.name()),
            optimized,
            reference,
            verdict,
        });
    }
    outcomes
}

/// A probe flit bound for `dst`'s router, for exercising
/// [`RoutingTable::route`] outside a simulator.
fn probe_flit(dst: RouterId) -> snoc_sim::Flit {
    snoc_sim::Flit::packet(
        snoc_sim::PacketId(0),
        snoc_topology::NodeId(0),
        snoc_topology::NodeId(dst.index()),
        dst,
        1,
        0,
        true,
        false,
    )[0]
}

/// Deadlock-freedom tier: fuzzes seeded fault scenarios (link storms
/// plus, on odd seeds, one downed router) across the topology pool,
/// builds the up*/down* repair table for each survivor graph, and runs
/// the channel-dependency-graph cycle checker at 1 VC and at the
/// family's configured VC count. 1 VC is the adversarial setting: a
/// table that leans on VC transitions for cycle breaking fails there.
/// Each table is also rebuilt from scratch and held to decision-level
/// determinism, since both engines must derive identical tables
/// independently for the exact differential tiers to hold.
///
/// Returns `(tables_checked, failures)`.
fn cdg_failures(args: &Args) -> (usize, Vec<String>) {
    let mut pool = topologies();
    // The irregular 2-column Slim NoC is absent from the differential
    // matrix (too small for stable statistics) but is the family whose
    // minimal tables deadlock soonest; keep it in the CDG sweep.
    pool.push((Topology::slim_noc(3, 2).unwrap(), 2));
    let seeds: u64 = if args.smoke || args.quick { 8 } else { 64 };
    let mut checked = 0usize;
    let mut failures = Vec::new();
    for (topo, vcs) in &pool {
        let nr = topo.router_count();
        for seed in 0..seeds {
            let storm_links = 1 + (seed as usize) % 6;
            let plan = FaultPlan::storm(topo, storm_links, 0, 100, 0xCD6 ^ (seed * 7919));
            let mut dead_links: Vec<(usize, usize)> = Vec::new();
            for event in plan.events() {
                if let FaultKind::LinkDown { a, b } = event.kind {
                    dead_links.push((a.index(), b.index()));
                }
            }
            let mut alive = vec![true; nr];
            if seed % 2 == 1 {
                alive[(seed as usize * 131) % nr] = false;
            }
            let link_alive = |a: RouterId, b: RouterId| {
                let key = (a.index().min(b.index()), a.index().max(b.index()));
                !dead_links.contains(&key)
            };
            let table = RoutingTable::degraded(topo, &alive, link_alive);
            checked += 1;
            let label = format!("{} seed {seed}", topo.name());
            for check_vcs in [1usize, *vcs] {
                if let Err(e) = verify_deadlock_free(&table, topo, check_vcs) {
                    failures.push(format!("{label} vcs {check_vcs}: {e}"));
                }
            }
            // Rebuild determinism: identical distances and identical
            // first-hop decisions for every reachable pair.
            let rebuilt = RoutingTable::degraded(topo, &alive, link_alive);
            'pairs: for s in 0..nr {
                for d in 0..nr {
                    let (src, dst) = (RouterId(s), RouterId(d));
                    if table.distance(src, dst) != rebuilt.distance(src, dst) {
                        failures.push(format!("{label}: rebuild changed distance {s}->{d}"));
                        break 'pairs;
                    }
                    if s == d || !alive[s] || !alive[d] || !table.reachable(src, dst) {
                        continue;
                    }
                    let flit = probe_flit(dst);
                    let (a, b) = (
                        table.route(src, &flit, *vcs),
                        rebuilt.route(src, &flit, *vcs),
                    );
                    if a != b {
                        failures.push(format!("{label}: rebuild changed route {s}->{d}"));
                        break 'pairs;
                    }
                }
            }
        }
    }
    (checked, failures)
}

fn evaluate(
    optimized: &Snapshot,
    reference: &Snapshot,
    mode: &str,
) -> Result<&'static str, String> {
    optimized
        .check_conservation()
        .map_err(|e| format!("optimized conservation: {e}"))?;
    reference
        .check_conservation()
        .map_err(|e| format!("reference conservation: {e}"))?;
    if mode == "exact" {
        if optimized != reference {
            return Err("exact-mode snapshots diverged".to_string());
        }
        return Ok("exact match");
    }
    // The agreement tier is the shared contract in `snoc_refsim::check`
    // — the same one the fuzzed differential suite enforces.
    compare_statistics(optimized, reference, 50)
}

/// Runs the whole matrix and reports it; `Err` lists every failed case
/// and deadlock-freedom violation as a `REPRO …` line (the exact inputs
/// needed to replay it).
pub(super) fn verify(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let cases = matrix(args);
    let mut outcomes: Vec<Outcome> = cases.iter().map(|c| run_case(c, args)).collect();
    outcomes.extend(shard_outcomes(args));
    outcomes.extend(fault_outcomes(args));
    let failures: Vec<&Outcome> = outcomes.iter().filter(|o| o.verdict.is_err()).collect();
    let (cdg_checked, cdg_failures) = cdg_failures(args);

    if args.json {
        writeln!(out, "[").map_err(io_err)?;
        for (i, o) in outcomes.iter().enumerate() {
            let (ok, detail) = match &o.verdict {
                Ok(d) => (true, (*d).to_string()),
                Err(e) => (false, e.clone()),
            };
            writeln!(
                out,
                "  {{\"case\": \"{}\", \"pass\": {ok}, \"detail\": \"{}\", \
                 \"injected\": [{}, {}], \"delivered\": [{}, {}], \
                 \"latency\": [{}, {}]}}{}",
                o.label,
                detail.replace('"', "'"),
                o.optimized.injected_packets,
                o.reference.injected_packets,
                o.optimized.delivered_packets,
                o.reference.delivered_packets,
                format_float(o.optimized.mean_latency(), 2),
                format_float(o.reference.mean_latency(), 2),
                if i + 1 < outcomes.len() { "," } else { "" }
            )
            .map_err(io_err)?;
        }
        writeln!(out, "]").map_err(io_err)?;
    } else {
        let mut table = TextTable::new(
            "Differential verification: optimized engine vs. golden reference".to_string(),
            &[
                "case",
                "inj(opt)",
                "inj(ref)",
                "del(opt)",
                "del(ref)",
                "lat(opt)",
                "lat(ref)",
                "hops(opt)",
                "hops(ref)",
                "verdict",
            ],
        );
        for o in &outcomes {
            table.push_row(vec![
                o.label.clone(),
                o.optimized.injected_packets.to_string(),
                o.reference.injected_packets.to_string(),
                o.optimized.delivered_packets.to_string(),
                o.reference.delivered_packets.to_string(),
                format_float(o.optimized.mean_latency(), 1),
                format_float(o.reference.mean_latency(), 1),
                format_float(o.optimized.mean_hops(), 2),
                format_float(o.reference.mean_hops(), 2),
                match &o.verdict {
                    Ok(d) => (*d).to_string(),
                    Err(e) => format!("FAIL: {e}"),
                },
            ]);
        }
        emit(&table, args, out)?;
        writeln!(
            out,
            "deadlock freedom: {cdg_checked} degraded tables CDG-checked, {} cycle(s) found",
            cdg_failures.len()
        )
        .map_err(io_err)?;
    }
    if failures.is_empty() && cdg_failures.is_empty() {
        return Ok(());
    }
    let mut msg = format!(
        "{} of {} cases failed, {} deadlock-freedom violations:",
        failures.len(),
        outcomes.len(),
        cdg_failures.len()
    );
    for o in &failures {
        let _ = write!(
            msg,
            "\n  REPRO {}: {}",
            o.label,
            o.verdict.as_ref().unwrap_err()
        );
    }
    for f in &cdg_failures {
        let _ = write!(msg, "\n  REPRO cdg {f}");
    }
    Err(msg)
}
