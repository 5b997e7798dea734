//! PARSEC/SPLASH-like trace workloads.
//!
//! The paper drives its "real traffic" experiments with L1-backside
//! traces of 14 PARSEC/SPLASH benchmarks collected with Manifold +
//! DRAMSim2 (§5.1): read requests and coherence messages are 2 flits,
//! writes are 6 flits, and every read triggers a 6-flit reply from its
//! destination. We reproduce that protocol with a synthetic generator
//! whose per-benchmark parameters (intensity, message mix, hotspot skew,
//! burstiness) are chosen to span the qualitative diversity of the suite
//! — see the crate docs ([`crate`]) for the substitution rationale and
//! the README's "Campaign server & cache" for running them.

use crate::injection::BurstModel;
use rand::SeedableRng;
use rand::{Rng, RngExt};
use rand_chacha::ChaCha8Rng;
use snoc_topology::{NodeId, Topology};
use std::fmt;

/// The message classes of the paper's trace protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// L1 read miss request: 2 flits, expects a 6-flit reply.
    ReadRequest,
    /// Write/writeback: 6 flits, no reply.
    WriteRequest,
    /// Coherence message: 2 flits, no reply.
    Coherence,
    /// Reply to a read request: 6 flits (generated by the consumer of the
    /// trace — typically the simulator — not by the trace itself).
    ReadReply,
}

impl MessageKind {
    /// Packet length in flits (§5.1).
    #[must_use]
    pub fn flits(self) -> usize {
        match self {
            MessageKind::ReadRequest | MessageKind::Coherence => 2,
            MessageKind::WriteRequest | MessageKind::ReadReply => 6,
        }
    }

    /// Whether the destination must answer with a [`MessageKind::ReadReply`].
    #[must_use]
    pub fn expects_reply(self) -> bool {
        matches!(self, MessageKind::ReadRequest)
    }
}

impl fmt::Display for MessageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MessageKind::ReadRequest => "read",
            MessageKind::WriteRequest => "write",
            MessageKind::Coherence => "coherence",
            MessageKind::ReadReply => "reply",
        };
        f.write_str(s)
    }
}

/// One message of a trace, to be injected at `cycle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceMessage {
    /// Injection cycle.
    pub cycle: u64,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Message class (defines packet length and reply behaviour).
    pub kind: MessageKind,
}

/// Parameters of one synthetic benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadParams {
    /// Offered load in packets/node/cycle (before replies).
    pub intensity: f64,
    /// Fraction of packets that are read requests.
    pub read_frac: f64,
    /// Fraction of packets that are writes (remainder is coherence).
    pub write_frac: f64,
    /// Fraction of request traffic directed at a few hot nodes
    /// (shared data / directory hotspots).
    pub hotspot_frac: f64,
    /// Number of hot nodes receiving the hotspot traffic.
    pub hot_nodes: usize,
    /// Burstiness of injection.
    pub burst: BurstModel,
}

/// A named synthetic benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceWorkload {
    /// Benchmark name (PARSEC/SPLASH suite member it stands in for).
    pub name: &'static str,
    /// Generator parameters.
    pub params: WorkloadParams,
}

/// The 14 benchmark names used in the paper's figures, in figure order.
#[must_use]
pub fn benchmark_names() -> Vec<&'static str> {
    benchmark_workloads().iter().map(|w| w.name).collect()
}

/// The 14 synthetic stand-ins for the paper's PARSEC/SPLASH traces.
///
/// Parameter diversity mirrors the qualitative behaviour of the suite:
/// memory-intensive benchmarks (`canneal`, `ocean-c`, `radix`) inject
/// hard; cache-friendly ones (`water-s`, `volrend`) barely load the
/// network; `dedup`/`ferret` are pipeline-parallel and bursty;
/// `barnes`/`radiosity` have hot shared structures.
#[must_use]
pub fn benchmark_workloads() -> Vec<TraceWorkload> {
    let steady = BurstModel {
        off_to_on: 0.9,
        on_to_off: 0.05,
    };
    let bursty = BurstModel {
        off_to_on: 0.02,
        on_to_off: 0.06,
    };
    let very_bursty = BurstModel {
        off_to_on: 0.01,
        on_to_off: 0.08,
    };
    let mk = |name, intensity, read, write, hot, hot_nodes, burst| TraceWorkload {
        name,
        params: WorkloadParams {
            intensity,
            read_frac: read,
            write_frac: write,
            hotspot_frac: hot,
            hot_nodes,
            burst,
        },
    };
    vec![
        mk("barnes", 0.006, 0.70, 0.15, 0.30, 4, steady),
        mk("canneal", 0.016, 0.75, 0.15, 0.10, 8, steady),
        mk("cholesky", 0.008, 0.65, 0.25, 0.15, 4, bursty),
        mk("dedup", 0.010, 0.55, 0.30, 0.20, 6, very_bursty),
        mk("ferret", 0.009, 0.60, 0.25, 0.20, 6, very_bursty),
        mk("fft", 0.014, 0.60, 0.30, 0.05, 2, bursty),
        mk("fluidanimate", 0.007, 0.65, 0.25, 0.10, 4, steady),
        mk("ocean-c", 0.015, 0.60, 0.30, 0.05, 2, steady),
        mk("radiosity", 0.006, 0.70, 0.15, 0.35, 4, bursty),
        mk("radix", 0.017, 0.55, 0.38, 0.05, 2, steady),
        mk("streamcluster", 0.012, 0.78, 0.12, 0.15, 4, steady),
        mk("vips", 0.008, 0.60, 0.28, 0.15, 6, bursty),
        mk("volrend", 0.004, 0.70, 0.15, 0.20, 4, bursty),
        mk("water-s", 0.0035, 0.68, 0.20, 0.10, 4, steady),
    ]
}

impl TraceWorkload {
    /// Looks up a benchmark by name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<TraceWorkload> {
        benchmark_workloads().into_iter().find(|w| w.name == name)
    }

    /// Generates the trace for `topo` over `cycles` cycles with a fixed
    /// seed. Messages are sorted by injection cycle. Replies are *not*
    /// included — the simulator generates a 6-flit reply when a read
    /// request arrives, preserving request–reply causality.
    #[must_use]
    pub fn generate(&self, topo: &Topology, cycles: u64, seed: u64) -> Vec<TraceMessage> {
        let n = topo.node_count();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ hash_name(self.name));
        let p = &self.params;
        let hot: Vec<usize> = pick_hot_nodes(n, p.hot_nodes, &mut rng);
        let mut on = vec![false; n];
        let on_fraction = p.burst.on_fraction().max(1e-9);
        let on_rate = (p.intensity / on_fraction).min(1.0);
        let mut out = Vec::new();
        for cycle in 0..cycles {
            for (src, on_src) in on.iter_mut().enumerate() {
                // Burst state update.
                if *on_src {
                    if p.burst.on_to_off > 0.0 && rng.random_bool(p.burst.on_to_off) {
                        *on_src = false;
                    }
                } else if p.burst.off_to_on >= 1.0 || rng.random_bool(p.burst.off_to_on) {
                    *on_src = true;
                }
                if !*on_src || !rng.random_bool(on_rate) {
                    continue;
                }
                // Message class.
                let roll: f64 = rng.random();
                let kind = if roll < p.read_frac {
                    MessageKind::ReadRequest
                } else if roll < p.read_frac + p.write_frac {
                    MessageKind::WriteRequest
                } else {
                    MessageKind::Coherence
                };
                // Destination: hotspot or uniform.
                let dst = if !hot.is_empty() && rng.random_bool(p.hotspot_frac) {
                    hot[rng.random_range(0..hot.len())]
                } else {
                    rng.random_range(0..n)
                };
                if dst == src {
                    continue;
                }
                out.push(TraceMessage {
                    cycle,
                    src: NodeId(src),
                    dst: NodeId(dst),
                    kind,
                });
            }
        }
        out
    }

    /// Long-run offered flit rate per node per cycle including replies
    /// (each read adds a 6-flit reply).
    #[must_use]
    pub fn offered_flit_rate(&self) -> f64 {
        let p = &self.params;
        let coher_frac = 1.0 - p.read_frac - p.write_frac;
        let flits_per_packet = p.read_frac * (2.0 + 6.0) // request + reply
            + p.write_frac * 6.0
            + coher_frac * 2.0;
        p.intensity * flits_per_packet
    }
}

fn pick_hot_nodes<R: Rng + ?Sized>(n: usize, count: usize, rng: &mut R) -> Vec<usize> {
    let count = count.min(n);
    let mut hot = Vec::with_capacity(count);
    while hot.len() < count {
        let c = rng.random_range(0..n);
        if !hot.contains(&c) {
            hot.push(c);
        }
    }
    hot
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a; keeps per-benchmark streams decorrelated under one seed.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::mesh(4, 4, 2) // 32 nodes
    }

    #[test]
    fn fourteen_benchmarks() {
        let names = benchmark_names();
        assert_eq!(names.len(), 14);
        assert!(names.contains(&"barnes"));
        assert!(names.contains(&"water-s"));
        assert_eq!(TraceWorkload::by_name("fft").unwrap().name, "fft");
        assert!(TraceWorkload::by_name("doom").is_none());
    }

    #[test]
    fn message_kind_flits_match_paper() {
        assert_eq!(MessageKind::ReadRequest.flits(), 2);
        assert_eq!(MessageKind::Coherence.flits(), 2);
        assert_eq!(MessageKind::WriteRequest.flits(), 6);
        assert_eq!(MessageKind::ReadReply.flits(), 6);
        assert!(MessageKind::ReadRequest.expects_reply());
        assert!(!MessageKind::WriteRequest.expects_reply());
    }

    #[test]
    fn trace_is_sorted_and_in_range() {
        let t = topo();
        let w = TraceWorkload::by_name("canneal").unwrap();
        let trace = w.generate(&t, 2_000, 7);
        assert!(!trace.is_empty());
        for pair in trace.windows(2) {
            assert!(pair[0].cycle <= pair[1].cycle);
        }
        for m in &trace {
            assert!(m.src.index() < 32 && m.dst.index() < 32);
            assert_ne!(m.src, m.dst);
            assert_ne!(m.kind, MessageKind::ReadReply, "traces carry no replies");
        }
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        let t = topo();
        let w = TraceWorkload::by_name("fft").unwrap();
        assert_eq!(w.generate(&t, 500, 1), w.generate(&t, 500, 1));
        assert_ne!(w.generate(&t, 500, 1), w.generate(&t, 500, 2));
    }

    #[test]
    fn intensity_orders_benchmarks() {
        // canneal/radix load the network much harder than water-s.
        let t = topo();
        let heavy = TraceWorkload::by_name("radix")
            .unwrap()
            .generate(&t, 4_000, 3)
            .len();
        let light = TraceWorkload::by_name("water-s")
            .unwrap()
            .generate(&t, 4_000, 3)
            .len();
        assert!(
            heavy > 2 * light,
            "radix ({heavy}) should dominate water-s ({light})"
        );
    }

    #[test]
    fn measured_rate_tracks_intensity() {
        let t = topo();
        let w = TraceWorkload::by_name("ocean-c").unwrap();
        let cycles = 30_000u64;
        let trace = w.generate(&t, cycles, 11);
        let rate = trace.len() as f64 / (cycles as f64 * 32.0);
        assert!(
            (rate - w.params.intensity).abs() < w.params.intensity * 0.25,
            "measured {rate}, wanted ≈{}",
            w.params.intensity
        );
    }

    #[test]
    fn message_mix_tracks_fractions() {
        let t = topo();
        let w = TraceWorkload::by_name("canneal").unwrap();
        let trace = w.generate(&t, 20_000, 5);
        let reads = trace
            .iter()
            .filter(|m| m.kind == MessageKind::ReadRequest)
            .count() as f64;
        let frac = reads / trace.len() as f64;
        assert!(
            (frac - w.params.read_frac).abs() < 0.05,
            "read fraction {frac}"
        );
    }

    #[test]
    fn hotspots_receive_excess_traffic() {
        let t = topo();
        let w = TraceWorkload::by_name("radiosity").unwrap(); // hotspot 0.35
        let trace = w.generate(&t, 30_000, 9);
        let mut counts = vec![0usize; 32];
        for m in &trace {
            counts[m.dst.index()] += 1;
        }
        let mut sorted = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top4: usize = sorted[..4].iter().sum();
        let total: usize = counts.iter().sum();
        assert!(
            top4 as f64 / total as f64 > 0.25,
            "hot nodes got {}%",
            100 * top4 / total
        );
    }

    #[test]
    fn offered_flit_rate_formula() {
        let w = TraceWorkload::by_name("fft").unwrap();
        let p = w.params;
        let expect = p.intensity
            * (p.read_frac * 8.0 + p.write_frac * 6.0 + (1.0 - p.read_frac - p.write_frac) * 2.0);
        assert!((w.offered_flit_rate() - expect).abs() < 1e-12);
    }
}
