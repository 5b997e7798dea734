//! The reference engine: a straight-line, cycle-by-cycle wormhole
//! simulator for edge-buffer routers over unit-latency credited links.
//!
//! Every design decision here is the *opposite* of the optimized
//! engine's: flits travel **by value** (no arena, no 4-byte refs),
//! every router, channel and node is visited **every cycle** (no
//! worklists, no injection calendar), injection is a
//! **per-cycle Bernoulli trial** per node (via
//! [`snoc_traffic::InjectionProcess::tick`], not geometric sampling),
//! and scratch buffers are freshly allocated each cycle. What the two
//! engines share is the executable *specification*: topology and
//! traffic definitions, the routing rules (reimplemented from the spec
//! in [`crate::RefRouting`]), and the microarchitectural contract of
//! the §5.1 edge router — 2-stage pipeline (allocation, then switch
//! traversal), per-VC input buffers with credit-based flow control,
//! wormhole output-VC allocation, round-robin input/output arbitration.
//!
//! Because the pipeline timing follows the same written contract, a
//! workload-driven run (explicit message list, deterministic minimal
//! routing — no RNG on either side) must match the optimized engine's
//! [`snoc_sim::Snapshot`] **exactly**; synthetic runs match in
//! distribution and are compared statistically by the differential
//! harness.

use crate::routing::RefRouting;
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use snoc_sim::{ActivityCounters, FaultEvent, FaultKind, FaultPlan, RoutingKind, Snapshot};
use snoc_topology::{NodeId, RouterId, Topology};
use snoc_traffic::{BurstModel, InjectionProcess, PatternSampler, TraceMessage, TrafficPattern};
use std::collections::VecDeque;

/// Reference-simulator configuration: the subset of the optimized
/// engine's parameter space the golden model covers (edge-buffer
/// routers, credited unit-latency links, fixed buffer sizing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefConfig {
    /// Virtual channels per link.
    pub vcs: usize,
    /// Per-VC input-buffer capacity in flits (network and injection
    /// ports alike — the optimized engine's `BufferSizing::Fixed`).
    pub buffer_flits: usize,
    /// Injection queue capacity per node, in flits.
    pub injection_queue_flits: usize,
    /// Packet size in flits for synthetic traffic.
    pub packet_flits: usize,
    /// Routing algorithm (`XyAdaptive` is not modeled).
    pub routing: RoutingKind,
    /// RNG seed for the reference engine's own draws.
    pub seed: u64,
}

impl Default for RefConfig {
    fn default() -> Self {
        RefConfig {
            vcs: 2,
            buffer_flits: 5,
            injection_queue_flits: 20,
            packet_flits: 6,
            routing: RoutingKind::Minimal,
            seed: 0xC0FFEE,
        }
    }
}

impl RefConfig {
    /// Sets the routing algorithm.
    #[must_use]
    pub fn with_routing(mut self, routing: RoutingKind) -> Self {
        self.routing = routing;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Extracts a reference configuration from an optimized-engine
    /// [`snoc_sim::SimConfig`], or `None` when the configuration uses a
    /// feature the golden model deliberately does not cover (central
    /// buffers, elastic links, SMART, RTT-sized buffers, XY-adaptive
    /// routing).
    #[must_use]
    pub fn try_from_sim(cfg: &snoc_sim::SimConfig) -> Option<Self> {
        use snoc_sim::{BufferSizing, LinkMode, RouterArch};
        if cfg.router_arch != RouterArch::EdgeBuffer
            || cfg.link_mode != LinkMode::Credited
            || cfg.smart_hops != 1
            || cfg.routing == RoutingKind::XyAdaptive
        {
            return None;
        }
        let BufferSizing::Fixed(buffer_flits) = cfg.buffer_sizing else {
            return None;
        };
        Some(RefConfig {
            vcs: cfg.vcs,
            buffer_flits,
            injection_queue_flits: cfg.injection_queue_flits,
            packet_flits: cfg.packet_flits,
            routing: cfg.routing,
            seed: cfg.seed,
        })
    }
}

/// A flit, carried by value through every queue of the reference model.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RefFlit {
    packet: u64,
    src: NodeId,
    dst: NodeId,
    dst_router: RouterId,
    created: u64,
    packet_len: u32,
    hops: u32,
    is_head: bool,
    is_tail: bool,
    measured: bool,
    wants_reply: bool,
    intermediate: Option<RouterId>,
    intermediate_done: bool,
}

impl RefFlit {
    /// The current routing target (a pending Valiant intermediate wins).
    fn target(&self) -> RouterId {
        match self.intermediate {
            Some(mid) if !self.intermediate_done => mid,
            _ => self.dst_router,
        }
    }
}

/// A held wormhole route: `((out port, out VC), owner packet)`.
type HeldRoute = Option<((usize, usize), u64)>;

/// One router: per-VC input buffers, held routes, ST registers,
/// wormhole output state, credit counters, round-robin pointers.
#[derive(Debug, Clone)]
struct RefRouter {
    net_ports: usize,
    /// `inputs[port][vc]` — FIFO of buffered flits (by value).
    inputs: Vec<Vec<VecDeque<RefFlit>>>,
    /// Route held from head to tail per input VC.
    held: Vec<Vec<HeldRoute>>,
    /// ST register per output port: `(out VC, flit)`.
    st: Vec<Option<(usize, RefFlit)>>,
    /// Wormhole owner per network output VC.
    out_pkt: Vec<Vec<Option<u64>>>,
    /// Credits toward downstream per network output port and VC.
    credits: Vec<Vec<usize>>,
    /// Round-robin VC pointer per input port.
    rr_in: Vec<usize>,
    /// Round-robin input pointer per output port.
    rr_out: Vec<usize>,
}

/// A unidirectional unit-latency channel: in-flight flits and returning
/// credits tagged with their arrival cycle.
#[derive(Debug, Clone, Default)]
struct RefChannel {
    flits: VecDeque<(u64, usize, RefFlit)>,
    credits: VecDeque<(u64, usize)>,
}

/// Metric accumulation mirroring the optimized engine's `SimReport`.
#[derive(Debug, Clone)]
struct RefReport {
    measured_cycles: u64,
    total_cycles: u64,
    nodes: usize,
    injected_packets: u64,
    delivered_packets: u64,
    delivered_flits: u64,
    latency_sum: u64,
    latency_max: u64,
    hops_sum: u64,
    stalled_generations: u64,
    dropped_packets: u64,
    drained: bool,
    activity: ActivityCounters,
    histogram: Vec<u64>,
}

impl RefReport {
    fn new(nodes: usize) -> Self {
        RefReport {
            measured_cycles: 0,
            total_cycles: 0,
            nodes,
            injected_packets: 0,
            delivered_packets: 0,
            delivered_flits: 0,
            latency_sum: 0,
            latency_max: 0,
            hops_sum: 0,
            stalled_generations: 0,
            dropped_packets: 0,
            drained: true,
            activity: ActivityCounters::default(),
            histogram: vec![0; 256],
        }
    }

    fn record_delivery(&mut self, latency: u64, hops: u32, flits: u32) {
        self.delivered_packets += 1;
        self.delivered_flits += u64::from(flits);
        self.latency_sum += latency;
        self.latency_max = self.latency_max.max(latency);
        let bin = (latency as usize).min(4095);
        if bin >= self.histogram.len() {
            self.histogram.resize(bin + 1, 0);
        }
        self.histogram[bin] += 1;
        self.hops_sum += u64::from(hops);
    }

    fn into_snapshot(mut self) -> Snapshot {
        while self.histogram.last() == Some(&0) {
            self.histogram.pop();
        }
        Snapshot {
            measured_cycles: self.measured_cycles,
            total_cycles: self.total_cycles,
            nodes: self.nodes,
            injected_packets: self.injected_packets,
            delivered_packets: self.delivered_packets,
            delivered_flits: self.delivered_flits,
            latency_sum: self.latency_sum,
            latency_max: self.latency_max,
            hops_sum: self.hops_sum,
            stalled_generations: self.stalled_generations,
            dropped_packets: self.dropped_packets,
            drained: self.drained,
            activity: self.activity,
            latency_histogram: self.histogram,
        }
    }
}

/// The golden reference simulator. See the module docs for what it
/// deliberately does and does not share with the optimized engine.
#[derive(Debug, Clone)]
pub struct RefSimulator {
    cfg: RefConfig,
    topo: Topology,
    routing: RefRouting,
    concentration: usize,
    nodes: usize,
    routers: Vec<RefRouter>,
    channels: Vec<RefChannel>,
    /// `[router][net out port]` → channel id.
    chan_out: Vec<Vec<usize>>,
    /// `[router][net in port]` → channel id (for upstream credits).
    chan_in: Vec<Vec<usize>>,
    /// channel id → (receiver router, receiver input port).
    chan_dst: Vec<(usize, usize)>,
    /// channel id → (sender router, sender output port).
    chan_src: Vec<(usize, usize)>,
    inj_queues: Vec<VecDeque<RefFlit>>,
    now: u64,
    next_pid: u64,
    outstanding: u64,
    rng: ChaCha8Rng,
    /// Scheduled fault events, sorted by cycle (stable).
    faults: Vec<FaultEvent>,
    next_fault: usize,
    router_alive: Vec<bool>,
    /// Per directed channel: not disabled by a `LinkDown`.
    chan_enabled: Vec<bool>,
    /// Per directed channel: enabled with both endpoint routers alive.
    chan_alive: Vec<bool>,
    /// No-progress watchdog bound in cycles (`None` disarms it),
    /// mirroring `snoc_sim::Simulator::set_watchdog`: with flits live
    /// but unmoving for the bound, the run loop stops instead of
    /// spinning to the drain cap.
    watchdog: Option<u64>,
    /// Last cycle with progress: a flit delivery, switch traversal,
    /// injection, packet creation, or an applied fault batch — the same
    /// event set the optimized engine counts, so both engines abort on
    /// the same cycle.
    last_progress: u64,
}

impl RefSimulator {
    /// Builds a reference simulator for one topology.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter.
    pub fn build(topo: &Topology, cfg: &RefConfig) -> Result<Self, String> {
        if cfg.vcs == 0 {
            return Err("vcs must be at least 1".into());
        }
        if cfg.buffer_flits == 0 {
            return Err("input buffers need at least 1 flit".into());
        }
        if cfg.packet_flits == 0 {
            return Err("packets need at least one flit".into());
        }
        if cfg.injection_queue_flits < cfg.packet_flits {
            return Err("injection queue must hold at least one packet".into());
        }
        if cfg.routing == RoutingKind::XyAdaptive {
            return Err("XY-adaptive routing is not part of the reference model".into());
        }
        let routing = RefRouting::new(topo);
        let nr = topo.router_count();
        let concentration = topo.concentration();

        let mut channels = Vec::new();
        let mut chan_out = vec![Vec::new(); nr];
        let mut chan_dst = Vec::new();
        let mut chan_src = Vec::new();
        for r in topo.routers() {
            for port in 0..routing.port_count(r) {
                let peer = routing.peer(r, port);
                let id = channels.len();
                channels.push(RefChannel::default());
                chan_out[r.index()].push(id);
                chan_dst.push((peer.index(), routing.port_to(peer, r)));
                chan_src.push((r.index(), port));
            }
        }
        let mut chan_in: Vec<Vec<usize>> = (0..nr)
            .map(|r| vec![usize::MAX; chan_out[r].len()])
            .collect();
        for (id, &(dst, in_port)) in chan_dst.iter().enumerate() {
            chan_in[dst][in_port] = id;
        }

        let routers = topo
            .routers()
            .map(|r| {
                let net = routing.port_count(r);
                let local = topo.nodes_of(r).len();
                let ports = net + local;
                RefRouter {
                    net_ports: net,
                    inputs: (0..ports)
                        .map(|_| (0..cfg.vcs).map(|_| VecDeque::new()).collect())
                        .collect(),
                    held: vec![vec![None; cfg.vcs]; ports],
                    st: vec![None; ports],
                    out_pkt: vec![vec![None; cfg.vcs]; net],
                    credits: vec![vec![cfg.buffer_flits; cfg.vcs]; net],
                    rr_in: vec![0; ports],
                    rr_out: vec![0; ports],
                }
            })
            .collect();

        let chan_count = channels.len();
        let watchdog =
            snoc_sim::default_watchdog_bound(routing.max_finite_distance(), cfg.packet_flits);
        Ok(RefSimulator {
            cfg: *cfg,
            topo: topo.clone(),
            routing,
            concentration,
            nodes: topo.node_count(),
            routers,
            channels,
            chan_out,
            chan_in,
            chan_dst,
            chan_src,
            inj_queues: vec![VecDeque::new(); topo.node_count()],
            now: 0,
            next_pid: 0,
            outstanding: 0,
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            faults: Vec::new(),
            next_fault: 0,
            router_alive: vec![true; nr],
            chan_enabled: vec![true; chan_count],
            chan_alive: vec![true; chan_count],
            watchdog: Some(watchdog),
            last_progress: 0,
        })
    }

    /// Sets the no-progress watchdog bound in cycles, or disarms it
    /// with `None` — the mirror of `snoc_sim::Simulator::set_watchdog`,
    /// armed by default at the same
    /// `snoc_sim::default_watchdog_bound`. It never perturbs a run that
    /// makes progress.
    pub fn set_watchdog(&mut self, bound: Option<u64>) {
        self.watchdog = bound;
    }

    /// `true` when the armed watchdog bound has elapsed with flits live
    /// but unmoving. The cheap counter comparison short-circuits before
    /// the structural in-flight recount.
    fn watchdog_expired(&self) -> bool {
        match self.watchdog {
            Some(bound) => self.now - self.last_progress >= bound && self.in_flight_flits() > 0,
            None => false,
        }
    }

    /// Total flits currently in the network and injection queues,
    /// recounted structurally every call (the reference model keeps no
    /// cached counters).
    #[must_use]
    pub fn in_flight_flits(&self) -> usize {
        let buffered: usize = self
            .routers
            .iter()
            .map(|r| {
                let inputs: usize = r
                    .inputs
                    .iter()
                    .flat_map(|p| p.iter().map(VecDeque::len))
                    .sum();
                inputs + r.st.iter().filter(|s| s.is_some()).count()
            })
            .sum();
        let wires: usize = self.channels.iter().map(|c| c.flits.len()).sum();
        let queued: usize = self.inj_queues.iter().map(VecDeque::len).sum();
        buffered + wires + queued
    }

    /// Schedules fault events against the next run, mirroring
    /// `snoc_sim::Simulator::set_fault_plan`: flits on dead hardware
    /// (and the whole packets they belong to) are dropped and counted,
    /// routing self-heals on the surviving graph, and traffic between
    /// severed pairs quiesces. The drop rules are the same pure function
    /// of pre-fault state, new liveness and new routing as the optimized
    /// engine's, which is what keeps faulted runs exactly comparable.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem when the plan references
    /// hardware the topology does not have, or when a non-empty plan is
    /// combined with non-minimal routing (the degraded table rebuild is
    /// specified for minimal routing only).
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), String> {
        plan.validate(&self.topo)?;
        if !plan.is_empty() && self.cfg.routing != RoutingKind::Minimal {
            return Err("fault injection requires minimal routing".into());
        }
        self.faults = plan.events().to_vec();
        self.next_fault = 0;
        Ok(())
    }

    /// Applies every fault event due at or before the current cycle,
    /// then repairs the network once for the whole batch. Called at the
    /// top of each run-loop iteration, before the cycle's phases — the
    /// same position the optimized engine applies faults at.
    fn apply_due_faults(&mut self, report: &mut RefReport) {
        let mut applied = false;
        while self.next_fault < self.faults.len() && self.faults[self.next_fault].cycle <= self.now
        {
            let kind = self.faults[self.next_fault].kind;
            self.next_fault += 1;
            applied = true;
            match kind {
                FaultKind::LinkDown { a, b } => self.set_link_enabled(a, b, false),
                FaultKind::LinkUp { a, b } => self.set_link_enabled(a, b, true),
                FaultKind::RouterDown { router } => self.router_alive[router.index()] = false,
            }
        }
        if applied {
            self.repair_after_faults(report);
            // A fault batch is progress, exactly as in the optimized
            // engine: the network was reshaped and wedged flits may
            // have been swept.
            self.last_progress = self.now;
        }
    }

    /// Flips both directed channels of the undirected link `a -- b`.
    fn set_link_enabled(&mut self, a: RouterId, b: RouterId, enabled: bool) {
        let pa = self.routing.port_to(a, b);
        let pb = self.routing.port_to(b, a);
        self.chan_enabled[self.chan_out[a.index()][pa]] = enabled;
        self.chan_enabled[self.chan_out[b.index()][pb]] = enabled;
    }

    /// Rebuilds the world after a batch of fault events with the same
    /// rules as `snoc_sim`'s repair: channel liveness, degraded routing,
    /// the doomed-packet set (flits on dead hardware, wormhole state
    /// pinned toward dead channels, heads severed from their destination
    /// under the new routing), a sweep of those packets' flits from
    /// every structure, drop accounting over measured packets, and a
    /// ground-truth credit recount on every live channel.
    fn repair_after_faults(&mut self, report: &mut RefReport) {
        // 1. Channel liveness: enabled, with both endpoints alive.
        for id in 0..self.channels.len() {
            let (src, _) = self.chan_src[id];
            let (dst, _) = self.chan_dst[id];
            self.chan_alive[id] =
                self.chan_enabled[id] && self.router_alive[src] && self.router_alive[dst];
        }
        // 2. Self-heal: minimal routes over the surviving graph, with
        // the original port numbering and tie-break.
        let routing = {
            let chan_alive = &self.chan_alive;
            let chan_out = &self.chan_out;
            let cur = &self.routing;
            cur.degraded(&self.router_alive, |a, b| {
                chan_alive[chan_out[a.index()][cur.port_to(a, b)]]
            })
        };
        // 3. The doomed-packet set. Whole packets die — wormhole flits
        // are useless without their head, and in-order ejection means a
        // doomed packet's tail can never have ejected.
        let mut doomed: Vec<u64> = Vec::new();
        for r in 0..self.routers.len() {
            let router = &self.routers[r];
            if !self.router_alive[r] {
                for lanes in &router.inputs {
                    for buf in lanes {
                        for f in buf {
                            doomed.push(f.packet);
                        }
                    }
                }
                for &(_, f) in router.st.iter().flatten() {
                    doomed.push(f.packet);
                }
                continue;
            }
            let net = router.net_ports;
            let dead_out = |out: usize| !self.chan_alive[self.chan_out[r][out]];
            // Wormhole state pinned toward a dead channel: held routes,
            // occupied ST registers, output-VC owners.
            for lanes in &router.held {
                for &((out, _), pid) in lanes.iter().flatten() {
                    if out < net && dead_out(out) {
                        doomed.push(pid);
                    }
                }
            }
            for (out, st) in router.st.iter().enumerate().take(net) {
                if let Some((_, f)) = st {
                    if dead_out(out) {
                        doomed.push(f.packet);
                    }
                }
            }
            for (out, owners) in router.out_pkt.iter().enumerate() {
                for &pid in owners.iter().flatten() {
                    if dead_out(out) {
                        doomed.push(pid);
                    }
                }
            }
            // Severed heads. Buffered heads are judged at this router;
            // ST heads at the router across the channel they are
            // committed to (ejection-port ST flits are home already).
            // Liveness of the judging router makes same-router traffic
            // die with it (a dead router's self-distance is still 0).
            for lanes in &router.inputs {
                for buf in lanes {
                    for f in buf {
                        if f.is_head && !routing.reachable(RouterId(r), f.dst_router) {
                            doomed.push(f.packet);
                        }
                    }
                }
            }
            for (out, st) in router.st.iter().enumerate() {
                if let Some((_, f)) = st {
                    if f.is_head {
                        let at = if out < net {
                            RouterId(self.chan_dst[self.chan_out[r][out]].0)
                        } else {
                            RouterId(r)
                        };
                        if !self.router_alive[at.index()] || !routing.reachable(at, f.dst_router) {
                            doomed.push(f.packet);
                        }
                    }
                }
            }
        }
        for id in 0..self.channels.len() {
            let dst_r = RouterId(self.chan_dst[id].0);
            for &(_, _, f) in &self.channels[id].flits {
                if !self.chan_alive[id] || (f.is_head && !routing.reachable(dst_r, f.dst_router)) {
                    doomed.push(f.packet);
                }
            }
        }
        for node in 0..self.nodes {
            let r = node / self.concentration;
            for f in &self.inj_queues[node] {
                if !self.router_alive[r]
                    || (f.is_head && !routing.reachable(RouterId(r), f.dst_router))
                {
                    doomed.push(f.packet);
                }
            }
        }
        doomed.sort_unstable();
        doomed.dedup();
        // 4. Sweep the doomed packets' flits out of every structure
        // (dead channels drop everything and void their credit queues;
        // dead routers drop everything they hold).
        let mut removed: Vec<RefFlit> = Vec::new();
        for id in 0..self.channels.len() {
            let ch = &mut self.channels[id];
            if !self.chan_alive[id] {
                removed.extend(ch.flits.drain(..).map(|(_, _, f)| f));
                ch.credits.clear();
            } else {
                ch.flits.retain(|&(_, _, f)| {
                    if doomed.binary_search(&f.packet).is_ok() {
                        removed.push(f);
                        false
                    } else {
                        true
                    }
                });
            }
        }
        for r in 0..self.routers.len() {
            let dead_router = !self.router_alive[r];
            let drop_pkt = |pid: u64| dead_router || doomed.binary_search(&pid).is_ok();
            let router = &mut self.routers[r];
            for lanes in &mut router.inputs {
                for buf in lanes {
                    buf.retain(|&f| {
                        if drop_pkt(f.packet) {
                            removed.push(f);
                            false
                        } else {
                            true
                        }
                    });
                }
            }
            for slot in router.held.iter_mut().flatten() {
                if slot.is_some_and(|(_, pid)| drop_pkt(pid)) {
                    *slot = None;
                }
            }
            for st in &mut router.st {
                if st.is_some_and(|(_, f)| drop_pkt(f.packet)) {
                    let (_, f) = st.take().expect("checked");
                    removed.push(f);
                }
            }
            for owner in router.out_pkt.iter_mut().flatten() {
                if owner.is_some_and(&drop_pkt) {
                    *owner = None;
                }
            }
        }
        for node in 0..self.nodes {
            let dead_router = !self.router_alive[node / self.concentration];
            self.inj_queues[node].retain(|&f| {
                if dead_router || doomed.binary_search(&f.packet).is_ok() {
                    removed.push(f);
                    false
                } else {
                    true
                }
            });
        }
        // 5. Account the drops. A doomed packet's flits all exist when
        // it dies (created together, swept together), so no packet can
        // span two repair batches and the distinct count is exact.
        let mut dropped_pkts: Vec<u64> = removed
            .iter()
            .filter(|f| f.measured)
            .map(|f| f.packet)
            .collect();
        report.activity.dropped_flits += dropped_pkts.len() as u64;
        dropped_pkts.sort_unstable();
        dropped_pkts.dedup();
        report.dropped_packets += dropped_pkts.len() as u64;
        self.outstanding = self.outstanding.saturating_sub(dropped_pkts.len() as u64);
        // 6. Swap the degraded routing in (routes are recomputed per
        // query here, so there are no caches to reset).
        self.routing = routing;
        // 7. Recount credits from ground truth on every live channel:
        // initial credits minus flits on the wire, credits in flight
        // back, flits buffered at the receiver, and an ST hold at the
        // sender with this channel's VC.
        for id in 0..self.channels.len() {
            if !self.chan_alive[id] {
                continue;
            }
            let (src, sp) = self.chan_src[id];
            let (dst, dp) = self.chan_dst[id];
            for vc in 0..self.cfg.vcs {
                let wire = self.channels[id]
                    .flits
                    .iter()
                    .filter(|&&(_, v, _)| v == vc)
                    .count();
                let returning = self.channels[id]
                    .credits
                    .iter()
                    .filter(|&&(_, v)| v == vc)
                    .count();
                let lane = self.routers[dst].inputs[dp][vc].len();
                let st_hold =
                    usize::from(matches!(self.routers[src].st[sp], Some((v, _)) if v == vc));
                let consumed = wire + returning + lane + st_hold;
                self.routers[src].credits[sp][vc] = self
                    .cfg
                    .buffer_flits
                    .checked_sub(consumed)
                    .unwrap_or_else(|| panic!("credit recount underflow: channel {id} vc {vc}"));
            }
        }
    }

    /// Whether traffic between two endpoints can currently be carried:
    /// both routers alive and connected on the surviving graph.
    fn pair_online(&self, src: NodeId, dst: NodeId) -> bool {
        let s = RouterId(src.index() / self.concentration);
        let d = RouterId(dst.index() / self.concentration);
        self.router_alive[s.index()] && self.router_alive[d.index()] && self.routing.reachable(s, d)
    }

    /// Runs open-loop synthetic traffic: `cfg.packet_flits`-flit packets
    /// at `rate` flits/node/cycle from one `InjectionProcess::tick` per
    /// node per cycle (Bernoulli trials under a two-state Markov burst
    /// model), measured after `warmup` cycles for `measure` cycles, plus
    /// a bounded drain phase — the classic cycle-accurate loop.
    pub fn run_synthetic_bursty(
        &mut self,
        pattern: TrafficPattern,
        rate: f64,
        burst: BurstModel,
        warmup: u64,
        measure: u64,
    ) -> Snapshot {
        let end = warmup + measure;
        let len = self.cfg.packet_flits as u32;
        let mut process = InjectionProcess::new(self.nodes, rate, self.cfg.packet_flits, burst);
        let sampler = PatternSampler::new(pattern, &self.topo);
        let inject = |sim: &mut Self, measuring: bool, report: &mut RefReport| {
            if sim.now < end {
                for node in 0..sim.nodes {
                    if process.tick(node, &mut sim.rng) {
                        if let Some(dst) = sampler.sample(NodeId(node), &mut sim.rng) {
                            sim.generate(NodeId(node), dst, len, false, measuring, report);
                        }
                    }
                }
            }
            sim.now + 1 < end
        };
        let drain_cap = end + measure.max(2_000);
        self.drive(self.now < end, warmup..end, drain_cap, measure, inject)
    }

    /// Replays an explicit message list (the exact-equality mode of the
    /// differential harness): read requests are answered with 6-flit
    /// replies, packets created at or after `warmup` are measured, and
    /// the loop semantics mirror the optimized engine's `run_trace`
    /// cycle for cycle.
    pub fn run_workload(&mut self, trace: &[TraceMessage], warmup: u64) -> Snapshot {
        let end = trace.last().map_or(0, |m| m.cycle + 1);
        let mut next = 0usize;
        let inject = |sim: &mut Self, measuring: bool, report: &mut RefReport| {
            while next < trace.len() && trace[next].cycle <= sim.now {
                let m = trace[next];
                next += 1;
                let (len, reply) = (m.kind.flits() as u32, m.kind.expects_reply());
                sim.generate(m.src, m.dst, len, reply, measuring, report);
            }
            next < trace.len()
        };
        let measured_cycles = end.saturating_sub(warmup).max(1);
        let (pending, measured, drain_cap) = (!trace.is_empty(), warmup..u64::MAX, end + 50_000);
        self.drive(pending, measured, drain_cap, measured_cycles, inject)
    }

    /// The one run loop, cycle by cycle: apply due faults, step the
    /// network, let `inject` create this cycle's packets, poll the
    /// watchdog, advance the clock — until nothing is left to inject
    /// and the measured packets have drained (or `drain_cap` is
    /// reached). `inject` returns whether it has packets for a later
    /// cycle (`pending` says so for the first); packets created in a
    /// cycle of `measured` are measured.
    fn drive(
        &mut self,
        mut pending: bool,
        measured: std::ops::Range<u64>,
        drain_cap: u64,
        measured_cycles: u64,
        mut inject: impl FnMut(&mut Self, bool, &mut RefReport) -> bool,
    ) -> Snapshot {
        let mut report = RefReport::new(self.nodes);
        report.measured_cycles = measured_cycles;
        self.last_progress = self.now;
        while pending || (self.outstanding > 0 && self.now < drain_cap) {
            self.apply_due_faults(&mut report);
            let measuring = measured.contains(&self.now);
            self.step(measuring, &mut report);
            pending = inject(self, measuring, &mut report);
            if self.watchdog_expired() {
                break;
            }
            self.now += 1;
        }
        report.drained = self.outstanding == 0;
        report.total_cycles = self.now;
        report.into_snapshot()
    }

    /// Creates a packet unless the source queue lacks space for it.
    fn generate(
        &mut self,
        src: NodeId,
        dst: NodeId,
        len: u32,
        wants_reply: bool,
        measured: bool,
        report: &mut RefReport,
    ) {
        debug_assert_ne!(src, dst, "self-traffic never enters the network");
        if !self.faults.is_empty() && !self.pair_online(src, dst) {
            return; // severed pair: quiesce, not a queue stall
        }
        if self.inj_queues[src.index()].len() + len as usize > self.cfg.injection_queue_flits {
            if measured {
                report.stalled_generations += 1;
            }
            return;
        }
        self.push_packet(src, dst, len, wants_reply, measured, report);
    }

    /// Unconditionally enqueues a packet (replies bypass the bound).
    fn push_packet(
        &mut self,
        src: NodeId,
        dst: NodeId,
        len: u32,
        wants_reply: bool,
        measured: bool,
        report: &mut RefReport,
    ) {
        let dst_router = RouterId(dst.index() / self.concentration);
        let src_router = RouterId(src.index() / self.concentration);
        let packet = self.next_pid;
        self.next_pid += 1;
        let intermediate = if src_router != dst_router {
            self.adaptive_intermediate(src_router, dst_router)
        } else {
            None
        };
        if measured {
            report.injected_packets += 1;
            self.outstanding += 1;
        }
        for i in 0..len {
            self.inj_queues[src.index()].push_back(RefFlit {
                packet,
                src,
                dst,
                dst_router,
                created: self.now,
                packet_len: len,
                hops: 0,
                is_head: i == 0,
                is_tail: i == len - 1,
                measured,
                wants_reply,
                intermediate,
                intermediate_done: false,
            });
        }
        self.last_progress = self.now;
    }

    /// Source-side adaptive route selection (§6), mirroring the spec's
    /// UGAL comparisons with the reference model's own state.
    fn adaptive_intermediate(&mut self, src: RouterId, dst: RouterId) -> Option<RouterId> {
        match self.cfg.routing {
            RoutingKind::Minimal => None,
            RoutingKind::UgalL => {
                let mid = self.random_router(src, dst)?;
                let d_min = self.routing.distance(src, dst) as f64;
                let d_non =
                    (self.routing.distance(src, mid) + self.routing.distance(mid, dst)) as f64;
                let q_min = self.first_hop_occupancy(src, dst) as f64;
                let q_non = self.first_hop_occupancy(src, mid) as f64;
                (q_non * d_non + 3.0 < q_min * d_min).then_some(mid)
            }
            RoutingKind::UgalG => {
                let mid = self.random_router(src, dst)?;
                let min_cost = self.path_cost(src, dst);
                let non_cost = self.path_cost(src, mid) + self.path_cost(mid, dst);
                (non_cost + 3.0 < min_cost).then_some(mid)
            }
            RoutingKind::XyAdaptive => unreachable!("rejected at build time"),
        }
    }

    fn random_router(&mut self, src: RouterId, dst: RouterId) -> Option<RouterId> {
        let nr = self.routers.len();
        if nr <= 2 {
            return None;
        }
        for _ in 0..8 {
            let mid = RouterId(self.rng.random_range(0..nr));
            if mid != src && mid != dst {
                return Some(mid);
            }
        }
        None
    }

    /// Local congestion toward `target`: occupancy of the first-hop
    /// output direction (ST register + consumed credits + wire).
    fn first_hop_occupancy(&self, src: RouterId, target: RouterId) -> usize {
        if src == target {
            return 0;
        }
        let (port, _) = self.routing.route(src, target, 0, self.cfg.vcs);
        self.direction_occupancy(src, port)
    }

    fn direction_occupancy(&self, r: RouterId, out_port: usize) -> usize {
        let router = &self.routers[r.index()];
        let st = usize::from(router.st[out_port].is_some());
        let held: usize = router.credits[out_port].iter().sum();
        let consumed = self.cfg.buffer_flits * self.cfg.vcs - held;
        let wire = self.channels[self.chan_out[r.index()][out_port]]
            .flits
            .len();
        st + consumed + wire
    }

    /// Global congestion along the minimal path (UGAL-G), one unit of
    /// pipeline cost per hop.
    fn path_cost(&self, src: RouterId, dst: RouterId) -> f64 {
        let mut cur = src;
        let mut cost = 0.0;
        let mut hops = 0u32;
        while cur != dst {
            let (port, _) = self.routing.route(cur, dst, hops, self.cfg.vcs);
            cost += self.direction_occupancy(cur, port) as f64 + 1.0;
            cur = self.routing.peer(cur, port);
            hops += 1;
        }
        cost
    }

    /// One cycle of the whole network, visiting every channel, router
    /// and node in index order. Phase structure mirrors the optimized
    /// engine: (1) wire delivery and credit return, (2) switch
    /// traversal out of the ST registers, (3) allocation, (4) injection.
    fn step(&mut self, measuring: bool, report: &mut RefReport) {
        let now = self.now;
        // Phase 1: every channel delivers its due head flit and returns
        // due credits.
        for id in 0..self.channels.len() {
            if let Some(&(when, vc, _)) = self.channels[id].flits.front() {
                if when <= now {
                    let (_, _, flit) = self.channels[id].flits.pop_front().expect("checked");
                    let (dst, port) = self.chan_dst[id];
                    self.deliver(dst, port, vc, flit);
                    self.last_progress = now;
                    if measuring {
                        report.activity.buffer_writes += 1;
                    }
                }
            }
            let (src, src_port) = self.chan_src[id];
            while let Some(&(when, vc)) = self.channels[id].credits.front() {
                if when > now {
                    break;
                }
                self.channels[id].credits.pop_front();
                self.routers[src].credits[src_port][vc] += 1;
            }
        }
        // Phase 2: ST registers drain onto wires / local nodes.
        for r in 0..self.routers.len() {
            for port in 0..self.routers[r].st.len() {
                let Some((out_vc, flit)) = self.routers[r].st[port].take() else {
                    continue;
                };
                self.last_progress = now;
                if measuring {
                    report.activity.crossbar_traversals += 1;
                }
                if port < self.routers[r].net_ports {
                    if measuring {
                        report.activity.link_flit_hops += 1;
                        report.activity.wire_flit_tiles += 1; // unit links
                    }
                    let ch = self.chan_out[r][port];
                    self.channels[ch].flits.push_back((now + 1, out_vc, flit));
                } else {
                    self.eject(flit, measuring, report);
                }
            }
        }
        // Phase 3: allocation at every router.
        for r in 0..self.routers.len() {
            self.alloc_router(r, now, measuring, report);
        }
        // Phase 4: one flit per node per cycle into the router.
        for node in 0..self.nodes {
            if self.inj_queues[node].is_empty() {
                continue;
            }
            let r = node / self.concentration;
            let port = self.routers[r].net_ports + node % self.concentration;
            if self.routers[r].inputs[port][0].len() < self.cfg.buffer_flits {
                let flit = self.inj_queues[node].pop_front().expect("non-empty");
                self.deliver(r, port, 0, flit);
                self.last_progress = now;
                if measuring {
                    report.activity.buffer_writes += 1;
                }
            }
        }
    }

    /// Deposits a flit into a router input, handling Valiant bookkeeping.
    fn deliver(&mut self, r: usize, port: usize, vc: usize, mut flit: RefFlit) {
        if flit.intermediate == Some(RouterId(r)) {
            flit.intermediate_done = true;
        }
        let buf = &mut self.routers[r].inputs[port][vc];
        assert!(
            buf.len() < self.cfg.buffer_flits,
            "input buffer overflow at router {r} port {port} vc {vc}"
        );
        buf.push_back(flit);
    }

    /// The route of `flit` at router `r` (ejection port when home).
    fn compute_route(&self, r: usize, flit: &RefFlit) -> (usize, usize) {
        let here = RouterId(r);
        if flit.dst_router == here && (flit.intermediate.is_none() || flit.intermediate_done) {
            let local = flit.dst.index() % self.concentration;
            (self.routers[r].net_ports + local, 0)
        } else {
            self.routing
                .route(here, flit.target(), flit.hops, self.cfg.vcs)
        }
    }

    /// Whether `(out port, out VC)` can take this flit right now.
    fn output_ready(
        &self,
        r: usize,
        claimed: &[bool],
        (out, out_vc): (usize, usize),
        flit: &RefFlit,
    ) -> bool {
        let router = &self.routers[r];
        if router.st[out].is_some() || claimed[out] {
            return false;
        }
        if out >= router.net_ports {
            return true; // ejection: the node always consumes
        }
        match router.out_pkt[out][out_vc] {
            Some(pid) if pid != flit.packet => return false,
            _ => {}
        }
        router.credits[out][out_vc] > 0
    }

    /// The 2-pass separable allocator of the edge-router spec: each
    /// input port nominates one VC (round-robin over VCs), then each
    /// output grants one nomination (round-robin over inputs). Fresh
    /// scratch vectors every cycle — simplicity over speed.
    fn alloc_router(&mut self, r: usize, now: u64, measuring: bool, report: &mut RefReport) {
        let net = self.routers[r].net_ports;
        let ports = self.routers[r].st.len();
        let mut claimed = vec![false; ports];
        let mut nominations: Vec<(usize, usize, (usize, usize))> = Vec::new();
        for port in 0..ports {
            let start = self.routers[r].rr_in[port];
            for i in 0..self.cfg.vcs {
                let vc = (start + i) % self.cfg.vcs;
                let Some(&head) = self.routers[r].inputs[port][vc].front() else {
                    continue;
                };
                let route = match self.routers[r].held[port][vc] {
                    Some((held, _)) => held,
                    None => self.compute_route(r, &head),
                };
                if self.output_ready(r, &claimed, route, &head) {
                    nominations.push((port, vc, route));
                    break;
                }
            }
        }
        // Output arbitration: priority is round-robin distance from the
        // output's pointer (identical to the optimized engine's sort).
        nominations.sort_by_key(|&(port, _, (out, _))| {
            let prio = (port + ports - self.routers[r].rr_out[out] % ports) % ports.max(1);
            (out, prio)
        });
        for &(port, vc, route) in &nominations {
            let (out, out_vc) = route;
            if claimed[out] || self.routers[r].st[out].is_some() {
                continue;
            }
            claimed[out] = true;
            let mut flit = self.routers[r].inputs[port][vc]
                .pop_front()
                .expect("nominated");
            if flit.is_head {
                self.routers[r].held[port][vc] = Some((route, flit.packet));
            }
            if flit.is_tail {
                self.routers[r].held[port][vc] = None;
            }
            self.routers[r].rr_in[port] = (vc + 1) % self.cfg.vcs;
            self.routers[r].rr_out[out] = (port + 1) % ports;
            if measuring {
                report.activity.buffer_accesses += 1;
                report.activity.buffer_reads += 1;
                report.activity.alloc_grants += 1;
            }
            if port < net {
                // One credit back upstream for the freed buffer slot.
                let ch = self.chan_in[r][port];
                self.channels[ch].credits.push_back((now + 1, vc));
            }
            if out < net {
                if flit.is_head {
                    self.routers[r].out_pkt[out][out_vc] = Some(flit.packet);
                }
                if flit.is_tail {
                    self.routers[r].out_pkt[out][out_vc] = None;
                }
                flit.hops += 1;
                self.routers[r].credits[out][out_vc] -= 1;
            }
            self.routers[r].st[out] = Some((out_vc, flit));
        }
    }

    /// Hands a flit to its destination node.
    fn eject(&mut self, flit: RefFlit, measuring: bool, report: &mut RefReport) {
        if measuring {
            report.activity.ejections += 1;
        }
        if flit.is_tail {
            if flit.measured {
                self.outstanding = self.outstanding.saturating_sub(1);
                report.record_delivery(self.now - flit.created, flit.hops, flit.packet_len);
            }
            if flit.wants_reply && (self.faults.is_empty() || self.pair_online(flit.dst, flit.src))
            {
                self.push_packet(flit.dst, flit.src, 6, false, flit.measured, report);
            }
        }
    }
}
