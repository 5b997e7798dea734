//! Sharded parallel simulation: the network is partitioned across
//! worker threads that exchange boundary flits and credits through
//! typed message queues.
//!
//! # Design
//!
//! The router graph is split with [`Topology::partition`] into balanced,
//! BFS-contiguous shards. Every shard holds a *full replica* of the
//! network structure (routers, channels, one shared
//! [`crate::routing::RoutingTable`] behind an `Arc`), but simulates only
//! its own routers: remote routers never receive flits and stay off the
//! active worklists, so they cost nothing per cycle. A channel whose
//! endpoints land in different shards is *cut*:
//!
//! - On the **sender's** shard the channel keeps running as an
//!   *occupancy mirror*: phase 4 pushes into it normally (so adaptive
//!   occupancy probes read exactly the monolithic value) and emits a
//!   [`BoundaryMsg::Flit`] carrying the flit payload and its absolute
//!   arrival cycle; when the mirror's head comes due, the flit is
//!   popped and its arena slot released — it has left the shard.
//! - On the **receiver's** shard the message materializes the flit
//!   (arena insert + [`crate::link::Channel::push_at`]) and delivery
//!   proceeds exactly as in the monolithic simulator. Credits freed by
//!   the receiver on a cut input port travel back as
//!   [`BoundaryMsg::Credit`] and are deposited into the sender's mirror,
//!   where the normal credit-return loop feeds the sender's counters.
//!
//! Link latency on cut channels is the conservative lookahead: a
//! boundary message created at cycle `t` can take effect no earlier
//! than `t + latency ≥ t + 1`, so a lockstep round per simulated cycle
//! (two [`Barrier`] waits) is sufficient for full determinism.
//!
//! There is no sharded copy of the cycle: a shard runs the monolith's
//! [`Simulator::step`] with a [`ShardBoundary`] hooked in at the three
//! points where a cut channel differs (mirror release at delivery
//! time, the flit message beside a cut-out push, the credit message
//! instead of a cut-in credit push) and feeds it from the same
//! [`Calendar`] source. Only the publish / barrier / apply rounds live
//! here.
//!
//! # Determinism contract
//!
//! An `N`-shard run produces a [`SimReport`] — and its JSON —
//! byte-identical to the monolithic run, or it is refused at build
//! time. Every shard replicates the full global injection calendar and
//! RNG stream (sampling draws are burned for remote sources), which
//! holds for minimal and XY-adaptive routing on credited links. The
//! rest is refused with more than one shard: UGAL-L draws RNG
//! conditionally on local queue state, which remote shards cannot
//! replicate; UGAL-G reads remote router occupancy; elastic links exert
//! same-cycle backpressure (zero lookahead).

use super::source::{Calendar, Source};
use super::{activate, Boundary, Simulator};
use crate::config::{LinkMode, RoutingKind, SimConfig, SimError};
use crate::flit::{Flit, FlitArena, FlitRef};
use crate::routing::RoutingTable;
use crate::stats::SimReport;
use snoc_layout::Layout;
use snoc_topology::Topology;
use snoc_traffic::{BurstModel, PatternSampler, TrafficPattern};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Barrier, Mutex};

/// A flit or credit crossing a shard boundary. `when` is the absolute
/// arrival cycle, already stamped with the cut link's latency.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BoundaryMsg {
    /// A flit entering the receiver's copy of cut channel `chan`.
    Flit {
        /// Channel id (global — identical on every replica).
        chan: u32,
        /// Absolute arrival cycle.
        when: u64,
        /// Virtual channel.
        vc: u8,
        /// Payload snapshot (flits are immutable while on a wire).
        flit: Flit,
    },
    /// A credit returning to the sender's mirror of cut channel `chan`.
    Credit {
        /// Channel id.
        chan: u32,
        /// Absolute arrival cycle.
        when: u64,
        /// Virtual channel.
        vc: u8,
    },
}

/// Per-shard view of the partition. A channel with both endpoints
/// local is simulated exactly as in the monolith; one with neither is
/// never active on this shard; the two cut kinds are named below.
#[derive(Debug)]
pub(crate) struct ShardMeta {
    /// Per channel: for a *cut-out* channel (sender local, receiver
    /// remote — an occupancy mirror here) the shard its flits go to.
    flits_to: Vec<Option<u32>>,
    /// Per channel: for a *cut-in* channel (sender remote, receiver
    /// local — materializes incoming flits) the shard its credits
    /// return to.
    credits_to: Vec<Option<u32>>,
    /// Whether each endpoint node is owned by this shard.
    local_node: Vec<bool>,
}

impl ShardMeta {
    fn new(sim: &Simulator, assign: &[usize], k: usize) -> Self {
        // The shard at `far` when only the `near` end is ours.
        let across = |near: usize, far: usize| {
            (assign[near] == k && assign[far] != k).then_some(assign[far] as u32)
        };
        let ends = sim.chan_src.iter().zip(&sim.chan_dst);
        ShardMeta {
            flits_to: ends.clone().map(|(s, d)| across(s.0, d.0)).collect(),
            credits_to: ends.map(|(s, d)| across(d.0, s.0)).collect(),
            local_node: (0..sim.node_count)
                .map(|n| assign[n / sim.concentration] == k)
                .collect(),
        }
    }
}

/// One shard's [`Boundary`]: cut-out pushes also emit a flit message,
/// and credits freed on cut-in ports leave as credit messages (the
/// local copy of a cut-in channel never holds any).
struct ShardBoundary<'a> {
    meta: &'a ShardMeta,
    /// Messages emitted this round, indexed by destination shard.
    outbox: Vec<Vec<BoundaryMsg>>,
}

impl Boundary for ShardBoundary<'_> {
    fn receiver_is_remote(&self, ch: usize) -> bool {
        self.meta.flits_to[ch].is_some()
    }

    fn flit_sent(&mut self, ch: usize, arrives: u64, vc: usize, flit: FlitRef, arena: &FlitArena) {
        if let Some(to) = self.meta.flits_to[ch] {
            self.outbox[to as usize].push(BoundaryMsg::Flit {
                chan: ch as u32,
                when: arrives,
                vc: vc as u8,
                flit: *arena.get(flit),
            });
        }
    }

    fn credit_freed(&mut self, ch: usize, arrives: u64, vc: usize) -> bool {
        let to = self.meta.credits_to[ch];
        if let Some(to) = to {
            self.outbox[to as usize].push(BoundaryMsg::Credit {
                chan: ch as u32,
                when: arrives,
                vc: vc as u8,
            });
        }
        to.is_some()
    }
}

/// Cross-shard coordination state for one run.
struct Shared {
    /// Pre-read barrier: publishes are visible before any shard reads.
    round_a: Barrier,
    /// Post-read barrier: no shard starts the next round's publishes
    /// until every shard has finished reading this round's.
    round_b: Barrier,
    /// Cumulative measured packets injected per shard this run.
    injected: Vec<AtomicU64>,
    /// Cumulative measured packets delivered per shard this run.
    delivered: Vec<AtomicU64>,
    /// Boundary messages in flight, indexed `[from][to]`.
    mailboxes: Vec<Vec<Mutex<Vec<BoundaryMsg>>>>,
}

impl Shared {
    fn new(n: usize) -> Self {
        Shared {
            round_a: Barrier::new(n),
            round_b: Barrier::new(n),
            injected: (0..n).map(|_| AtomicU64::new(0)).collect(),
            delivered: (0..n).map(|_| AtomicU64::new(0)).collect(),
            mailboxes: (0..n)
                .map(|_| (0..n).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
        }
    }
}

/// A parallel simulator running one network split across `N` worker
/// shards (see the module docs for the partitioning and determinism
/// contract). With one shard it is exactly the monolithic
/// [`Simulator`]; with more, every report it gives is byte-identical to
/// the monolith's.
#[derive(Debug)]
pub struct ShardedSimulator {
    shards: Vec<Simulator>,
    meta: Vec<ShardMeta>,
    topo: Topology,
}

impl ShardedSimulator {
    /// Builds a sharded simulator with unit-latency links.
    ///
    /// `shards` is clamped to `1..=router_count()`. With one shard any
    /// configuration the monolithic [`Simulator`] accepts is valid.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for invalid configurations,
    /// and for UGAL-L, UGAL-G or elastic links with more than one shard
    /// (no shard could replay the monolith's run: UGAL-L's draws depend
    /// on queues only the owning shard holds, UGAL-G reads remote
    /// occupancy, elastic links have zero lookahead).
    pub fn build(topo: &Topology, cfg: &SimConfig, shards: usize) -> Result<Self, SimError> {
        Self::assemble(topo, None, cfg, shards)
    }

    /// Builds a sharded simulator whose link latencies come from the
    /// layout, like [`Simulator::build_with_layout`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] as [`ShardedSimulator::build`] does.
    pub fn build_with_layout(
        topo: &Topology,
        layout: &Layout,
        cfg: &SimConfig,
        shards: usize,
    ) -> Result<Self, SimError> {
        Self::assemble(topo, Some(layout), cfg, shards)
    }

    /// The shard replicas around one shared [`RoutingTable::minimal`].
    fn assemble(
        topo: &Topology,
        layout: Option<&Layout>,
        cfg: &SimConfig,
        shards: usize,
    ) -> Result<Self, SimError> {
        let shards = shards.clamp(1, topo.router_count().max(1));
        let refusal = match (cfg.routing, cfg.link_mode) {
            _ if shards == 1 => None,
            (RoutingKind::UgalL, _) => Some("UGAL-L draws on local queue state"),
            (RoutingKind::UgalG, _) => Some("UGAL-G reads occupancy on remote routers"),
            (_, LinkMode::Elastic) => Some("elastic links backpressure within the cycle"),
            _ => None,
        };
        if let Some(why) = refusal {
            return Err(SimError::InvalidConfig {
                reason: format!("{why}; no shard can replay it, run it on one shard"),
            });
        }
        let table = Arc::new(RoutingTable::minimal(topo));
        let assign = topo.partition(shards);
        let mut sims = Vec::with_capacity(shards);
        for k in 0..shards {
            let mut sim = Simulator::build_with_table(topo, layout, cfg, Arc::clone(&table))?;
            // Disjoint packet-id spaces per shard: routers compare ids
            // for equality only, so any collision-free scheme preserves
            // monolithic behavior bit for bit.
            sim.next_pid = (k as u64) << 48;
            sims.push(sim);
        }
        let meta = (0..shards)
            .map(|k| ShardMeta::new(&sims[0], &assign, k))
            .collect();
        Ok(ShardedSimulator {
            shards: sims,
            meta,
            topo: topo.clone(),
        })
    }

    /// The number of worker shards (after clamping).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The number of endpoint nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.topo.node_count()
    }

    /// Runs open-loop synthetic traffic across all shards; the sharded
    /// counterpart of [`Simulator::run_synthetic`].
    pub fn run_synthetic(
        &mut self,
        pattern: TrafficPattern,
        rate: f64,
        warmup: u64,
        measure: u64,
    ) -> SimReport {
        self.run_synthetic_bursty(pattern, rate, BurstModel::uniform(), warmup, measure)
    }

    /// Runs bursty synthetic traffic across all shards; the sharded
    /// counterpart of [`Simulator::run_synthetic_bursty`].
    pub fn run_synthetic_bursty(
        &mut self,
        pattern: TrafficPattern,
        rate: f64,
        burst: BurstModel,
        warmup: u64,
        measure: u64,
    ) -> SimReport {
        if self.shards.len() == 1 {
            return self.shards[0].run_synthetic_bursty(pattern, rate, burst, warmup, measure);
        }
        let initial_outstanding = self.shards.iter().map(|s| s.outstanding as i64).sum();
        let sampler = PatternSampler::new(pattern, &self.topo);
        let shared = Shared::new(self.shards.len());
        let meta = &self.meta;
        let results: Vec<(SimReport, i64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .enumerate()
                .map(|(k, shard)| {
                    let (shared, sampler, meta) = (&shared, &sampler, &meta[k]);
                    scope.spawn(move || {
                        // Every shard carries the full global calendar,
                        // so the RNG streams stay in lockstep.
                        let local = Some(&meta.local_node[..]);
                        let source =
                            Calendar::new(shard, sampler, rate, burst, warmup, measure, local);
                        run_shard(shard, meta, shared, k, source, initial_outstanding)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard thread panicked"))
                .collect()
        });
        let (_, final_outstanding, final_now) = results[0];
        // A packet may be injected on one shard and delivered on
        // another, so the per-shard counters are meaningless after the
        // run; re-home the global remainder onto shard 0 to keep
        // back-to-back windows consistent.
        for s in &mut self.shards {
            s.outstanding = 0;
        }
        self.shards[0].outstanding = final_outstanding.max(0) as u64;
        let mut merged = SimReport::new(self.topo.node_count());
        merged.measured_cycles = measure;
        merged.total_cycles = final_now;
        merged.drained = final_outstanding == 0;
        for (r, _, _) in &results {
            merged.injected_packets += r.injected_packets;
            merged.delivered_packets += r.delivered_packets;
            merged.delivered_flits += r.delivered_flits;
            merged.latency_sum += r.latency_sum;
            merged.latency_max = merged.latency_max.max(r.latency_max);
            merged.hops_sum += r.hops_sum;
            merged.stalled_generations += r.stalled_generations;
            if r.latency_histogram.len() > merged.latency_histogram.len() {
                merged
                    .latency_histogram
                    .resize(r.latency_histogram.len(), 0);
            }
            for (i, &v) in r.latency_histogram.iter().enumerate() {
                merged.latency_histogram[i] += v;
            }
            merged.activity.add(&r.activity);
        }
        merged
    }
}

/// One shard's run loop, one simulated cycle per round: step, let the
/// source inject, publish, sync, apply inbound boundary messages.
/// Every shard evaluates the loop condition on identical shared
/// inputs, so all of them execute the same number of rounds — the
/// barriers never mismatch.
fn run_shard(
    sim: &mut Simulator,
    meta: &ShardMeta,
    shared: &Shared,
    k: usize,
    mut source: Calendar<'_>,
    initial_outstanding: i64,
) -> (SimReport, i64, u64) {
    let nshards = shared.injected.len();
    let windows = source.windows();
    let mut report = SimReport::new(sim.node_count);
    report.measured_cycles = windows.measured;
    let mut boundary = ShardBoundary {
        meta,
        outbox: vec![Vec::new(); nshards],
    };
    let mut outstanding = initial_outstanding;
    while source.pending(sim.now) || (outstanding > 0 && sim.now < windows.drain_cap) {
        let measuring = windows.measuring(sim.now);
        sim.step(measuring, &mut report, &mut boundary);
        source.due(sim, measuring, &mut report);
        // Publish phase.
        shared.injected[k].store(report.injected_packets, Relaxed);
        shared.delivered[k].store(report.delivered_packets, Relaxed);
        for (to, msgs) in boundary.outbox.iter_mut().enumerate() {
            if !msgs.is_empty() {
                shared.mailboxes[k][to]
                    .lock()
                    .expect("mailbox")
                    .append(msgs);
            }
        }
        shared.round_a.wait();
        // Read phase: apply inbound messages and recount the packets
        // still in flight — identically on every shard.
        for from in 0..nshards {
            if from == k {
                continue;
            }
            let msgs = std::mem::take(&mut *shared.mailboxes[from][k].lock().expect("mailbox"));
            sim.apply_inbound(meta, &msgs);
        }
        let mut inj = 0u64;
        let mut del = 0u64;
        for j in 0..nshards {
            inj += shared.injected[j].load(Relaxed);
            del += shared.delivered[j].load(Relaxed);
        }
        shared.round_b.wait();
        sim.now += 1;
        outstanding = initial_outstanding + inj as i64 - del as i64;
    }
    (report, outstanding, sim.now)
}

impl Simulator {
    /// Deposits one round of inbound boundary messages. Per channel,
    /// message order follows emission order and arrival cycles are
    /// nondecreasing (at most one flit per channel per cycle, fixed
    /// latency), so appending keeps the channel deques sorted.
    fn apply_inbound(&mut self, meta: &ShardMeta, msgs: &[BoundaryMsg]) {
        for msg in msgs {
            match *msg {
                BoundaryMsg::Flit {
                    chan,
                    when,
                    vc,
                    flit,
                } => {
                    let chan = chan as usize;
                    debug_assert!(
                        meta.credits_to[chan].is_some(),
                        "flit on a non-cut-in channel"
                    );
                    let fr = self.arena.insert(flit);
                    self.channels[chan].push_at(when, vc as usize, fr);
                    activate(&mut self.chan_queued, &mut self.active_channels, chan);
                }
                BoundaryMsg::Credit { chan, when, vc } => {
                    let chan = chan as usize;
                    debug_assert!(
                        meta.flits_to[chan].is_some(),
                        "credit on a non-cut-out channel"
                    );
                    self.channels[chan].push_credit_at(when, vc as usize);
                    activate(&mut self.chan_queued, &mut self.active_channels, chan);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mono_report(
        topo: &Topology,
        cfg: &SimConfig,
        pattern: TrafficPattern,
        rate: f64,
        warmup: u64,
        measure: u64,
    ) -> SimReport {
        let mut sim = Simulator::build(topo, cfg).unwrap();
        sim.run_synthetic(pattern, rate, warmup, measure)
    }

    fn sharded_report(
        topo: &Topology,
        cfg: &SimConfig,
        shards: usize,
        pattern: TrafficPattern,
        rate: f64,
        warmup: u64,
        measure: u64,
    ) -> SimReport {
        let mut sim = ShardedSimulator::build(topo, cfg, shards).unwrap();
        sim.run_synthetic(pattern, rate, warmup, measure)
    }

    #[test]
    fn sharded_minimal_matches_monolithic_bit_for_bit() {
        let topo = Topology::slim_noc(3, 3).unwrap();
        let cfg = SimConfig::default();
        let mono = mono_report(&topo, &cfg, TrafficPattern::Random, 0.05, 500, 2_000);
        for shards in [2, 3, 4] {
            let sharded = sharded_report(
                &topo,
                &cfg,
                shards,
                TrafficPattern::Random,
                0.05,
                500,
                2_000,
            );
            assert_eq!(mono, sharded, "{shards} shards");
            assert_eq!(mono.to_json(), sharded.to_json(), "{shards} shards");
        }
    }

    #[test]
    fn sharded_mesh_under_load_matches_monolithic() {
        let topo = Topology::mesh(4, 4, 2);
        let cfg = SimConfig::default();
        let mono = mono_report(&topo, &cfg, TrafficPattern::Random, 0.15, 500, 2_000);
        let sharded = sharded_report(&topo, &cfg, 4, TrafficPattern::Random, 0.15, 500, 2_000);
        assert_eq!(mono, sharded);
    }

    #[test]
    fn sharded_xy_adaptive_matches_monolithic() {
        // XY-adaptive probes only source-side occupancy, which the
        // cut-out mirrors reproduce exactly.
        let topo = Topology::flattened_butterfly(4, 4, 2);
        let cfg = SimConfig::default().with_routing(RoutingKind::XyAdaptive);
        let mono = mono_report(&topo, &cfg, TrafficPattern::Random, 0.10, 500, 2_000);
        for shards in [2, 4] {
            let sharded = sharded_report(
                &topo,
                &cfg,
                shards,
                TrafficPattern::Random,
                0.10,
                500,
                2_000,
            );
            assert_eq!(mono, sharded, "{shards} shards");
        }
    }

    #[test]
    fn sharded_adversarial_traffic_matches_monolithic() {
        let topo = Topology::slim_noc(3, 3).unwrap();
        let cfg = SimConfig::default();
        let mono = mono_report(&topo, &cfg, TrafficPattern::Adversarial1, 0.20, 500, 2_000);
        let sharded = sharded_report(
            &topo,
            &cfg,
            3,
            TrafficPattern::Adversarial1,
            0.20,
            500,
            2_000,
        );
        assert_eq!(mono, sharded);
    }

    #[test]
    fn back_to_back_windows_stay_bit_identical() {
        let topo = Topology::mesh(4, 3, 2);
        let cfg = SimConfig::default();
        let mut mono = Simulator::build(&topo, &cfg).unwrap();
        let mut sharded = ShardedSimulator::build(&topo, &cfg, 3).unwrap();
        for _ in 0..2 {
            let a = mono.run_synthetic(TrafficPattern::Random, 0.05, 300, 1_000);
            let b = sharded.run_synthetic(TrafficPattern::Random, 0.05, 300, 1_000);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn sharded_zero_rate_run_ends_on_the_window_boundary() {
        // Short windows: every idle cycle is a barrier round.
        let topo = Topology::slim_noc(3, 3).unwrap();
        let mut sim = ShardedSimulator::build(&topo, &SimConfig::default(), 3).unwrap();
        let report = sim.run_synthetic(TrafficPattern::Random, 0.0, 100, 900);
        assert_eq!(report.total_cycles, 1_000, "nothing to drain");
        assert_eq!(report.delivered_packets, 0);
        assert!(report.drained);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Bursty (on/off Markov) injection costs extra RNG draws per
        /// arrival (phase sojourns), which every replica must also burn
        /// for the nodes it does not own — across fuzzed burst shapes,
        /// from near-uniform to long-burst/long-gap.
        #[test]
        fn sharded_bursty_traffic_matches_monolithic(
            topo_idx in 0usize..4,
            rate in 0.0f64..0.35,
            off_to_on in 0.02f64..0.95,
            on_to_off in 0.02f64..0.95,
            seed in 0u64..1_000_000,
        ) {
            let topo = match topo_idx {
                0 => Topology::slim_noc(3, 3).unwrap(),
                1 => Topology::mesh(4, 3, 2),
                2 => Topology::torus(4, 4, 1),
                _ => Topology::flattened_butterfly(3, 3, 2),
            };
            let cfg = SimConfig::default().with_seed(seed);
            let burst = BurstModel { off_to_on, on_to_off };
            let mono = Simulator::build(&topo, &cfg)
                .unwrap()
                .run_synthetic_bursty(TrafficPattern::Random, rate, burst, 300, 1_500);
            let sharded = ShardedSimulator::build(&topo, &cfg, 2)
                .unwrap()
                .run_synthetic_bursty(TrafficPattern::Random, rate, burst, 300, 1_500);
            prop_assert_eq!(
                mono.to_json(),
                sharded.to_json(),
                "topo {} rate {} burst {}/{} seed {}",
                topo_idx,
                rate,
                off_to_on,
                on_to_off,
                seed
            );
        }
    }

    #[test]
    fn global_state_configs_are_rejected_with_multiple_shards() {
        let topo = Topology::slim_noc(3, 3).unwrap();
        let ugal = |routing| SimConfig::default().with_vcs(4).with_routing(routing);
        for cfg in [
            ugal(RoutingKind::UgalL),
            ugal(RoutingKind::UgalG),
            SimConfig::elastic_links(),
        ] {
            assert!(ShardedSimulator::build(&topo, &cfg, 2).is_err(), "{cfg:?}");
            assert!(ShardedSimulator::build(&topo, &cfg, 1).is_ok(), "{cfg:?}");
        }
    }

    #[test]
    fn shard_count_clamps_to_router_count() {
        let topo = Topology::mesh(2, 2, 1);
        let sim = ShardedSimulator::build(&topo, &SimConfig::default(), 1_000).unwrap();
        assert_eq!(sim.shard_count(), 4);
    }
}
