//! The shared comparison contract of the differential harness.
//!
//! Both verification tiers — the fuzzed proptest suite
//! (`crates/refsim/tests/differential.rs`) and the deterministic
//! `snoc repro verify` matrix in `snoc_bench` — apply *these* functions, so
//! a tolerance tuned or a check added here is enforced by both. Keeping
//! one copy is itself a verification property: two drifting copies of
//! the contract would let an engine regression pass whichever tier kept
//! the weaker form.

use snoc_sim::Snapshot;
use snoc_topology::{NodeId, Topology};
use snoc_traffic::{
    BurstModel, InjectionProcess, MessageKind, PatternSampler, TraceMessage, TrafficPattern,
};

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
#[must_use]
pub fn rel_close(a: f64, b: f64, rel: f64, abs: f64) -> bool {
    (a - b).abs() <= abs + rel * a.abs().max(b.abs())
}

/// The cross-engine statistical agreement tier: injected/delivered
/// counts within binomial tolerance, then — once both engines delivered
/// at least `min_sample` packets — mean hops, mean latency, and
/// throughput within relative tolerances. Conservation is *not*
/// checked here; run [`Snapshot::check_conservation`] on each snapshot
/// first.
///
/// Returns a short verdict string, or a description of the first
/// divergence (callers prefix their case context).
///
/// # Errors
///
/// Returns the first failed comparison.
pub fn compare_statistics(
    optimized: &Snapshot,
    reference: &Snapshot,
    min_sample: u64,
) -> Result<&'static str, String> {
    if !counts_close(
        optimized.injected_packets,
        reference.injected_packets,
        6.0,
        12.0,
    ) {
        return Err(format!(
            "injected diverged: optimized {} vs reference {}",
            optimized.injected_packets, reference.injected_packets
        ));
    }
    if !counts_close(
        optimized.delivered_packets,
        reference.delivered_packets,
        6.0,
        12.0,
    ) {
        return Err(format!(
            "delivered diverged: optimized {} vs reference {}",
            optimized.delivered_packets, reference.delivered_packets
        ));
    }
    // Comparisons of means are only meaningful with a sample behind
    // them; tiny windows (smoke runs, near-zero rates) skip them.
    if optimized.delivered_packets < min_sample || reference.delivered_packets < min_sample {
        return Ok("counts ok (sample too small for means)");
    }
    if !rel_close(optimized.mean_hops(), reference.mean_hops(), 0.08, 0.25) {
        return Err(format!(
            "mean hops diverged: optimized {:.3} vs reference {:.3}",
            optimized.mean_hops(),
            reference.mean_hops()
        ));
    }
    if !rel_close(
        optimized.mean_latency(),
        reference.mean_latency(),
        0.15,
        2.5,
    ) {
        return Err(format!(
            "mean latency diverged: optimized {:.2} vs reference {:.2}",
            optimized.mean_latency(),
            reference.mean_latency()
        ));
    }
    if !rel_close(optimized.throughput(), reference.throughput(), 0.10, 0.004) {
        return Err(format!(
            "throughput diverged: optimized {:.4} vs reference {:.4}",
            optimized.throughput(),
            reference.throughput()
        ));
    }
    Ok("stats ok")
}

/// Pre-generates the explicit message list of an exact-equality case:
/// arrival cycles from per-cycle Bernoulli trials, destinations from a
/// pattern sampler, a deterministic read/coherence/write kind mix
/// (reads trigger 6-flit replies inside both engines). Fed to
/// `Simulator::run_trace` and `RefSimulator::run_workload`, after which
/// neither engine consumes randomness under minimal routing and their
/// snapshots must be equal.
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
}
