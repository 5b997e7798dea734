//! The differential harness's one runner and its one contract.
//!
//! Both verification tiers — the fuzzed proptest suite
//! (`crates/refsim/tests/differential.rs`) and the deterministic
//! `snoc repro verify` matrix in `snoc_bench` — write each case as a
//! [`Case`] over the shared [`pool`], run it through [`run`] and judge it
//! with [`exact`] or [`statistical`], so a check changed here changes
//! both. One copy is itself a verification property: two drifting copies
//! would let an engine regression pass whichever kept the weaker form.

use crate::{RefConfig, RefSimulator};
use snoc_sim::{Conformance, DeadlockDiagnostic, FaultPlan, SimConfig, Simulator, Snapshot};
use snoc_topology::{NodeId, Topology};
use snoc_traffic::{
    BurstModel, InjectionProcess, MessageKind, PatternSampler, TraceMessage, TrafficPattern,
};

/// The differential topology pool: one member of every family both
/// engines simulate (Slim NoC, mesh, torus, Dragonfly, Flattened
/// Butterfly), all small enough that a case simulates in milliseconds,
/// each with the VC count its minimal routing needs for deadlock freedom
/// (one per hop of the longest minimal path). The last member, the Slim
/// NoC at `q = 3, p = 2`, is too small for stable statistics but is the
/// family whose minimal tables deadlock soonest.
#[must_use]
pub fn pool() -> Vec<(Topology, usize)> {
    let sn = |p| Topology::slim_noc(3, p).expect("q = 3 is a prime power");
    vec![
        (sn(3), 2),
        (Topology::mesh(4, 3, 2), 2),
        (Topology::torus(4, 4, 2), 2),
        (Topology::dragonfly(2), 4),
        (Topology::flattened_butterfly(3, 3, 2), 2),
        (sn(2), 2),
    ]
}

/// What a [`Case`] feeds both engines.
#[derive(Debug, Clone)]
pub enum Traffic {
    /// Open-loop traffic each engine draws itself: judge it [`statistical`].
    Synthetic {
        /// Destination pattern.
        pattern: TrafficPattern,
        /// Offered load in flits/node/cycle.
        rate: f64,
        /// Injection burstiness.
        burst: BurstModel,
        /// Warmup cycles.
        warmup: u64,
        /// Measured cycles.
        measure: u64,
    },
    /// One explicit message list (see [`workload`]) fed to both engines.
    /// Under minimal routing neither draws randomness: judge it [`exact`].
    Workload {
        /// The messages, in cycle order.
        messages: Vec<TraceMessage>,
        /// Packets created from this cycle on are measured.
        warmup: u64,
    },
}

impl Traffic {
    /// Synthetic traffic with uniform (Bernoulli) injection.
    #[must_use]
    pub fn uniform(pattern: TrafficPattern, rate: f64, warmup: u64, measure: u64) -> Self {
        Traffic::Synthetic {
            pattern,
            rate,
            burst: BurstModel::uniform(),
            warmup,
            measure,
        }
    }
}

/// One differential case: what both engines build and run.
#[derive(Debug, Clone)]
pub struct Case {
    /// The network.
    pub topo: Topology,
    /// The optimized engine's configuration; the reference engine runs it
    /// on the independent stream `seed ^ 0x5EED_5EED`.
    pub config: SimConfig,
    /// A fault plan armed in both engines.
    pub faults: Option<FaultPlan>,
    /// A watchdog bound armed in both engines (`None`: their defaults).
    pub watchdog: Option<u64>,
    /// Whether the verdicts accept a watchdog abort.
    pub allow_abort: bool,
    /// What both engines are fed.
    pub traffic: Traffic,
}

impl Case {
    /// A fault-free case under the default watchdogs, abort not allowed.
    #[must_use]
    pub fn new(topo: Topology, config: SimConfig, traffic: Traffic) -> Self {
        Case {
            topo,
            config,
            faults: None,
            watchdog: None,
            allow_abort: false,
            traffic,
        }
    }
}

/// Both engines' results for one [`Case`], for a [`Verdict`] to judge.
#[derive(Debug)]
pub struct Run {
    /// The optimized engine's snapshot.
    pub optimized: Snapshot,
    /// The reference engine's snapshot.
    pub reference: Snapshot,
    /// The optimized engine's diagnostic, if its watchdog aborted the run.
    pub deadlock: Option<DeadlockDiagnostic>,
    /// [`Case::allow_abort`] of the case run.
    pub allow_abort: bool,
}

/// Runs one case on both engines. Agreement must come from the shared
/// spec, never from shared draws, so the reference engine gets its own
/// random stream.
///
/// # Errors
///
/// Returns why an engine refused the case: a configuration outside the
/// reference model, a failed build, or a rejected fault plan.
pub fn run(case: &Case) -> Result<Run, String> {
    let ref_cfg = RefConfig::try_from_sim(&case.config)
        .ok_or("configuration outside the reference model")?
        .with_seed(case.config.seed ^ 0x5EED_5EED);
    let mut sim = Simulator::build(&case.topo, &case.config).map_err(|e| e.to_string())?;
    let mut rsim = RefSimulator::build(&case.topo, &ref_cfg)?;
    if let Some(plan) = &case.faults {
        sim.set_fault_plan(plan).map_err(|e| e.to_string())?;
        rsim.set_fault_plan(plan)?;
    }
    if let Some(bound) = case.watchdog {
        sim.set_watchdog(Some(bound));
        rsim.set_watchdog(Some(bound));
    }
    let (report, reference) = match &case.traffic {
        &Traffic::Synthetic {
            pattern,
            rate,
            burst,
            warmup,
            measure,
        } => (
            sim.run_synthetic_bursty(pattern, rate, burst, warmup, measure),
            rsim.run_synthetic_bursty(pattern, rate, burst, warmup, measure),
        ),
        Traffic::Workload { messages, warmup } => (
            sim.run_trace(messages, *warmup),
            rsim.run_workload(messages, *warmup),
        ),
    };
    Ok(Run {
        optimized: report.snapshot(),
        reference,
        deadlock: report.deadlock,
        allow_abort: case.allow_abort,
    })
}

/// A verdict: a short pass string, or the first failed check.
pub type Verdict = fn(&Run) -> Result<&'static str, String>;

/// What every verdict checks first: a watchdog abort the case does not
/// allow, then each engine's conservation laws.
fn admissible(run: &Run) -> Result<(), String> {
    if let (Some(d), false) = (&run.deadlock, run.allow_abort) {
        return Err(format!("watchdog abort: {}", d.to_string().trim_end()));
    }
    let conserved = |side, s: &Snapshot| {
        s.check_conservation()
            .map_err(|e| format!("{side} conservation: {e}"))
    };
    conserved("optimized", &run.optimized)?;
    conserved("reference", &run.reference)
}

/// The exact tier: both snapshots equal — every counter, the activity
/// figures, the full latency histogram and the final clock.
///
/// # Errors
///
/// Returns the first failed check, with both snapshots on a divergence.
pub fn exact(run: &Run) -> Result<&'static str, String> {
    admissible(run)?;
    let (o, r) = (&run.optimized, &run.reference);
    (o == r)
        .then_some("exact match")
        .ok_or_else(|| format!("exact-mode snapshots diverged\noptimized: {o:?}\nreference: {r:?}"))
}

/// The statistical tier: injected/delivered counts within binomial
/// tolerance, then — once both engines delivered at least 50 packets —
/// mean hops, mean latency and throughput within relative tolerances.
///
/// # Errors
///
/// Returns the first failed check.
pub fn statistical(run: &Run) -> Result<&'static str, String> {
    admissible(run)?;
    let (o, r) = (&run.optimized, &run.reference);
    let counts = |what, a, b| {
        counts_close(a, b, 6.0, 12.0)
            .then_some(())
            .ok_or_else(|| format!("{what} diverged: optimized {a} vs reference {b}"))
    };
    counts("injected", o.injected_packets, r.injected_packets)?;
    counts("delivered", o.delivered_packets, r.delivered_packets)?;
    // Comparisons of means are only meaningful with a sample behind
    // them; tiny windows (smoke runs, near-zero rates) skip them.
    if o.delivered_packets < 50 || r.delivered_packets < 50 {
        return Ok("counts ok (sample too small for means)");
    }
    let means = |what, mean: fn(&Snapshot) -> f64, rel, abs, digits| {
        let (a, b) = (mean(o), mean(r));
        rel_close(a, b, rel, abs).then_some(()).ok_or_else(|| {
            format!("{what} diverged: optimized {a:.digits$} vs reference {b:.digits$}")
        })
    };
    means("mean hops", Snapshot::mean_hops, 0.08, 0.25, 3)?;
    means("mean latency", Snapshot::mean_latency, 0.15, 2.5, 2)?;
    means("throughput", Snapshot::throughput, 0.10, 0.004, 4)?;
    Ok("stats ok")
}

/// Whether two counts agree within `k` standard deviations of their
/// difference (each count is a sum of independent Bernoulli trials, so
/// the difference's variance is at most `2·max(a, b)`) plus `slack`
/// for small-sample effects.
#[must_use]
pub fn counts_close(a: u64, b: u64, k: f64, slack: f64) -> bool {
    let diff = a.abs_diff(b) as f64;
    let scale = (2.0 * a.max(b) as f64 + 1.0).sqrt();
    diff <= k * scale + slack
}

/// Whether two means agree within `abs + rel · max(|a|, |b|)`.
fn rel_close(a: f64, b: f64, rel: f64, abs: f64) -> bool {
    (a - b).abs() <= abs + rel * a.abs().max(b.abs())
}

/// Pre-generates the explicit message list of an exact-equality case:
/// arrival cycles from per-cycle Bernoulli trials, destinations from a
/// pattern sampler, a deterministic read/coherence/write kind mix
/// (reads trigger 6-flit replies inside both engines). Fed to both
/// engines as [`Traffic::Workload`], after which neither consumes
/// randomness under minimal routing and their snapshots must be equal.
#[must_use]
pub fn workload(
    topo: &Topology,
    pattern: TrafficPattern,
    rate: f64,
    cycles: u64,
    seed: u64,
) -> Vec<TraceMessage> {
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let sampler = PatternSampler::new(pattern, topo);
    let mut process = InjectionProcess::new(topo.node_count(), rate, 4, BurstModel::uniform());
    let mut out = Vec::new();
    for cycle in 0..cycles {
        for node in 0..topo.node_count() {
            if process.tick(node, &mut rng) {
                if let Some(dst) = sampler.sample(NodeId(node), &mut rng) {
                    let kind = match out.len() % 4 {
                        0 => MessageKind::ReadRequest,
                        1 | 2 => MessageKind::Coherence,
                        _ => MessageKind::WriteRequest,
                    };
                    out.push(TraceMessage {
                        cycle,
                        src: NodeId(node),
                        dst,
                        kind,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoc_sim::RoutingKind;

    fn config(vcs: usize, seed: u64) -> SimConfig {
        SimConfig::default().with_vcs(vcs).with_seed(seed)
    }

    /// A workload case on the pool's Slim NoC: 600 cycles at `rate`.
    fn workload_case(rate: f64) -> Case {
        let (topo, vcs) = pool().swap_remove(0);
        let messages = workload(&topo, TrafficPattern::Random, rate, 600, 3);
        let (config, warmup) = (config(vcs, 3), 150);
        Case::new(topo, config, Traffic::Workload { messages, warmup })
    }

    #[test]
    fn count_tolerance_scales_with_magnitude() {
        assert!(counts_close(0, 0, 6.0, 12.0));
        assert!(counts_close(100, 115, 6.0, 12.0));
        assert!(!counts_close(100, 300, 6.0, 12.0));
        assert!(counts_close(10_000, 10_500, 6.0, 12.0));
        assert!(!counts_close(10_000, 12_000, 6.0, 12.0));
    }

    #[test]
    fn relative_tolerance() {
        assert!(rel_close(10.0, 10.9, 0.1, 0.0));
        assert!(!rel_close(10.0, 12.0, 0.1, 0.0));
        assert!(rel_close(0.0, 0.003, 0.1, 0.004));
    }

    #[test]
    fn workload_is_deterministic_and_well_formed() {
        let topo = Topology::mesh(3, 3, 2);
        let a = workload(&topo, TrafficPattern::Random, 0.1, 300, 7);
        let b = workload(&topo, TrafficPattern::Random, 0.1, 300, 7);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.iter().all(|m| m.src != m.dst));
        assert!(a.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        let c = workload(&topo, TrafficPattern::Random, 0.1, 300, 8);
        assert_ne!(a, c, "seed changes the workload");
    }

    #[test]
    fn an_exact_case_matches_snapshot_for_snapshot() {
        let run = run(&workload_case(0.05)).unwrap();
        assert!(run.optimized.delivered_packets > 0);
        assert_eq!(exact(&run), Ok("exact match"));
    }

    #[test]
    fn a_statistical_case_agrees_on_independent_streams() {
        let (topo, vcs) = pool().swap_remove(0);
        let config = config(vcs, 5);
        let traffic = Traffic::uniform(TrafficPattern::Random, 0.05, 400, 2_400);
        let run = run(&Case::new(topo, config, traffic)).unwrap();
        assert_eq!(statistical(&run), Ok("stats ok"));
        assert!(exact(&run).is_err(), "the streams are independent");
    }

    #[test]
    fn a_faulted_case_arms_the_plan_in_both_engines() {
        let healthy = workload_case(0.1);
        let plan = FaultPlan::storm(&healthy.topo, 6, 200, 300, 0xFA17);
        let faulted = Case {
            faults: Some(plan),
            ..healthy.clone()
        };
        let storm = run(&faulted).unwrap();
        assert_eq!(exact(&storm), Ok("exact match"));
        assert_ne!(storm.optimized, run(&healthy).unwrap().optimized);
        // Faults need minimal routing: a refused plan is a case error,
        // not a verdict.
        let config = faulted.config.clone().with_routing(RoutingKind::UgalL);
        assert!(run(&Case { config, ..faulted }).is_err());
    }

    /// The config of the differential suite's reference-watchdog test:
    /// isolated single-flit packets leave a quiet allocation cycle, so a
    /// bound-1 watchdog aborts both engines.
    #[test]
    fn a_watchdog_abort_fails_unless_the_case_allows_it() {
        let topo = Topology::mesh(4, 3, 2);
        let mut config = config(2, 11);
        config.packet_flits = 1;
        // Fails `case` on its abort, then judges it with the abort allowed.
        let allowed = |case: Case, verdict: Verdict| {
            let aborted = run(&case).unwrap();
            assert!(aborted.deadlock.is_some(), "the watchdog fires");
            assert!(aborted.reference.total_cycles < 500, "in both engines");
            assert!(verdict(&aborted).unwrap_err().starts_with("watchdog abort"));
            let case = Case {
                allow_abort: true,
                ..case
            };
            verdict(&run(&case).unwrap())
        };
        let traffic = Traffic::uniform(TrafficPattern::Random, 0.005, 100, 400);
        let case = Case {
            watchdog: Some(1),
            ..Case::new(topo.clone(), config.clone(), traffic)
        };
        assert!(allowed(case.clone(), statistical).is_ok());
        let diverged = allowed(case, exact).unwrap_err();
        assert!(diverged.starts_with("exact-mode snapshots diverged"));
        // Independent streams never match exactly, so the exact verdict
        // passes an allowed abort only on a shared workload. Its packets
        // are multi-flit and keep bound 1 quiet; bound 0 fires on the
        // first live cycle, in both engines alike.
        let (messages, warmup) = (workload(&topo, TrafficPattern::Random, 0.005, 500, 11), 100);
        let traffic = Traffic::Workload { messages, warmup };
        let case = Case {
            watchdog: Some(0),
            ..Case::new(topo, config, traffic)
        };
        assert_eq!(allowed(case, exact), Ok("exact match"));
    }
}
