//! The `verify` figure, the differential verification driver: runs the
//! optimized simulator and the golden reference model
//! (`snoc_refsim`) over a deterministic matrix of topology × routing ×
//! pattern × rate, checks conservation laws and cross-engine agreement
//! on every case, and fails on any divergence.
//!
//! This file only generates cases and formats rows. Each case is a
//! `snoc_refsim::check::Case` over the shared topology pool, run by
//! `check::run` and judged by one of its verdicts — the same runner and
//! contract the fuzzed suite (`crates/refsim/tests/differential.rs`)
//! applies. Both verdicts fail a no-progress watchdog abort and check
//! each engine's conservation laws first; then:
//!
//! - `stats` ([`check::statistical`]) — injected/delivered counts within
//!   binomial tolerance, mean hops/latency within relative tolerance
//!   (skipped below a minimum sample, e.g. in `--smoke` windows);
//! - `exact` ([`check::exact`]) — workload-driven minimal-routing cases
//!   must produce byte-identical snapshots.
//!
//! A shard-equivalence block then holds the sharded parallel engine to
//! the monolithic engine over the topology pool under the exact
//! verdict: byte identity at 2 and 4 shards, the only contract that
//! engine has.
//!
//! A degraded-mode block reruns each topology's workload under a seeded
//! mid-run link storm, holding both engines to byte-exact agreement —
//! including the dropped-packet accounting and self-healed routing. A
//! wedged drain phase is a first-class divergence, not a silent
//! truncation.
//!
//! A deadlock-freedom tier closes the run: fuzzed fault scenarios
//! (seeded link storms, downed routers) across the topology pool, each
//! survivor graph's up*/down* repair table run through the
//! channel-dependency-graph cycle checker at 1 VC and at the family's
//! configured VC count, plus a rebuild-determinism check. Any cycle or
//! nondeterministic rebuild fails the run.
//!
//! `--smoke` shrinks windows to prove the pipeline end-to-end; `--json`
//! emits one JSON object per case instead of the table.

use super::emit;
use crate::{io_err, Args};
use snoc_core::json::Layout::{Inline, Lines};
use snoc_core::json::{Floats, Writer};
use snoc_core::{format_float, TextTable};
use snoc_refsim::check::{self, pool, workload, Case, Run, Traffic, Verdict};
use snoc_sim::{
    verify_deadlock_free, Conformance, FaultKind, FaultPlan, RoutingKind, RoutingTable,
    ShardedSimulator, SimConfig, Simulator,
};
use snoc_topology::{RouterId, Topology};
use snoc_traffic::TrafficPattern;
use std::fmt::Write as _;
use std::io::Write;

/// One evaluated row.
struct Outcome {
    label: String,
    run: Run,
    verdict: Result<&'static str, String>,
}

/// The matrix's topologies: the shared pool without its last member,
/// which is too small for stable statistics (the CDG sweep keeps it).
fn topologies() -> Vec<(Topology, usize)> {
    let mut pool = pool();
    pool.pop();
    pool
}

fn config(vcs: usize, routing: RoutingKind) -> SimConfig {
    SimConfig::default()
        .with_vcs(vcs)
        .with_routing(routing)
        .with_seed(0xBEEF)
}

/// Runs `case` through the shared runner and judges it with `verdict`.
fn judge(label: String, case: &Case, verdict: Verdict) -> Outcome {
    let run = check::run(case).unwrap_or_else(|e| panic!("{label}: {e}"));
    let verdict = verdict(&run);
    Outcome {
        label,
        run,
        verdict,
    }
}

/// The length in cycles of a workload-driven case's trace.
fn trace_cycles(args: &Args) -> u64 {
    if args.smoke {
        150
    } else if args.quick {
        3_000
    } else {
        20_000
    }
}

/// A workload-driven minimal-routing case on `topo`: uniform random
/// messages at `rate` over the trace window.
fn workload_case(topo: &Topology, vcs: usize, rate: f64, args: &Args) -> Case {
    let cycles = trace_cycles(args);
    let messages = workload(topo, TrafficPattern::Random, rate, cycles, 0xD1FF);
    let warmup = cycles / 4;
    let traffic = Traffic::Workload { messages, warmup };
    Case::new(topo.clone(), config(vcs, RoutingKind::Minimal), traffic)
}

/// The deterministic matrix: every pattern at every rate on every
/// topology (statistical tier), one workload-driven case per topology
/// (exact tier), and UGAL-L/G on Slim NoC.
fn matrix(args: &Args) -> Vec<Outcome> {
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
    let label = |topo: &Topology, pattern, routing, rate| {
        format!(
            "{} {pattern} {routing:?} {}",
            topo.name(),
            format_float(rate, 2)
        )
    };
    let synthetic = |topo: &Topology, vcs, routing, pattern, rate| {
        let traffic = Traffic::uniform(pattern, rate, args.warmup(), args.measure());
        let case = Case::new(topo.clone(), config(vcs, routing), traffic);
        judge(
            label(topo, pattern, routing, rate),
            &case,
            check::statistical,
        )
    };
    let pool = topologies();
    let mut outcomes = Vec::new();
    for (topo, vcs) in &pool {
        for &pattern in &patterns {
            for &rate in rates {
                outcomes.push(synthetic(topo, *vcs, RoutingKind::Minimal, pattern, rate));
            }
        }
        let name = label(topo, TrafficPattern::Random, RoutingKind::Minimal, rates[0]);
        let case = workload_case(topo, *vcs, rates[0], args);
        outcomes.push(judge(name + " [exact]", &case, check::exact));
    }
    // Adaptive routing on the diameter-2 Slim NoC (4 VCs cover the
    // longest Valiant detour).
    let sn = &pool[0].0;
    for routing in [RoutingKind::UgalL, RoutingKind::UgalG] {
        outcomes.push(synthetic(
            sn,
            4,
            routing,
            TrafficPattern::Adversarial1,
            rates[0],
        ));
    }
    outcomes
}

/// Shard-equivalence rows: the sharded parallel engine against the
/// monolithic engine on the same seed, across the full topology pool —
/// byte identity at any shard count, judged by the exact verdict.
fn shard_outcomes(args: &Args) -> Vec<Outcome> {
    let rate = 0.05;
    let mut outcomes = Vec::new();
    for (topo, vcs) in topologies() {
        let cfg = config(vcs, RoutingKind::Minimal);
        let mut mono = Simulator::build(&topo, &cfg).expect("sim builds");
        let reference = mono
            .run_synthetic(TrafficPattern::Random, rate, args.warmup(), args.measure())
            .snapshot();
        for shards in [2usize, 4] {
            let mut sim = ShardedSimulator::build(&topo, &cfg, shards).expect("sharded builds");
            let report =
                sim.run_synthetic(TrafficPattern::Random, rate, args.warmup(), args.measure());
            let run = Run {
                optimized: report.snapshot(),
                reference: reference.clone(),
                deadlock: report.deadlock,
                allow_abort: false,
            };
            outcomes.push(Outcome {
                label: format!(
                    "{} Random Minimal {} [{}sh exact]",
                    topo.name(),
                    format_float(rate, 2),
                    sim.shard_count(),
                ),
                verdict: check::exact(&run),
                run,
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
/// fuzzed differential suite. So does a watchdog abort, a liveness bug
/// even when both engines abort identically.
fn storm_outcomes(args: &Args) -> Vec<Outcome> {
    let cycles = trace_cycles(args);
    topologies()
        .into_iter()
        .map(|(topo, vcs)| {
            let case = Case {
                faults: Some(FaultPlan::storm(&topo, 4, cycles / 3, cycles / 3, 0xFA17)),
                ..workload_case(&topo, vcs, 0.05, args)
            };
            let label = format!("{} Random Minimal 0.05 [storm exact]", topo.name());
            judge(label, &case, check::exact)
        })
        .collect()
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
    let pool = pool();
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

/// Runs the whole matrix and reports it; `Err` lists every failed case
/// and deadlock-freedom violation as a `REPRO …` line (the exact inputs
/// needed to replay it).
pub(super) fn verify(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let mut outcomes = matrix(args);
    outcomes.extend(shard_outcomes(args));
    outcomes.extend(storm_outcomes(args));
    let failures: Vec<&Outcome> = outcomes.iter().filter(|o| o.verdict.is_err()).collect();
    let (cdg_checked, cdg_failures) = cdg_failures(args);

    if args.json {
        let mut w = Writer::new(Floats::Decimals(2));
        w.list(Lines);
        for o in &outcomes {
            let (opt, reference) = (&o.run.optimized, &o.run.reference);
            w.object(Inline)
                .field("case", &o.label)
                .field("pass", o.verdict.is_ok())
                .field(
                    "detail",
                    o.verdict.as_deref().unwrap_or_else(String::as_str),
                )
                .key("injected")
                .list_of([opt.injected_packets, reference.injected_packets])
                .key("delivered")
                .list_of([opt.delivered_packets, reference.delivered_packets])
                .key("latency")
                .list_of([opt.mean_latency(), reference.mean_latency()])
                .end();
        }
        writeln!(out, "{}", w.finish()).map_err(io_err)?;
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
            let (opt, reference) = (&o.run.optimized, &o.run.reference);
            table.push_row(vec![
                o.label.clone(),
                opt.injected_packets.to_string(),
                reference.injected_packets.to_string(),
                opt.delivered_packets.to_string(),
                reference.delivered_packets.to_string(),
                format_float(opt.mean_latency(), 1),
                format_float(reference.mean_latency(), 1),
                format_float(opt.mean_hops(), 2),
                format_float(reference.mean_hops(), 2),
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
