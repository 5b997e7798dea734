//! The simulator: network assembly, the cycle body ([`Simulator::step`]),
//! the one driver loop ([`Simulator::drive`], one stepped cycle per
//! iteration) every `run_*` entry point feeds with a workload
//! [`source`], injection/ejection, fault repair and adaptive route
//! selection.

mod source;

use crate::config::{BufferSizing, LinkMode, RouterArch, RoutingKind, SimConfig, SimError};
use crate::deadlock::{DeadlockDiagnostic, StuckPacket, WaitForEdge};
use crate::fault::{FaultEvent, FaultKind, FaultPlan};
use crate::flit::{Flit, FlitArena, FlitRef, PacketId};
use crate::link::Channel;
use crate::router::{AllocResult, RouterCore};
use crate::routing::RoutingTable;
use crate::stats::{heap_bytes, nested_heap_bytes, Footprint, SimReport, WorkCounters};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use snoc_layout::{BufferSpec, Layout};
use snoc_topology::{NodeId, RouterId, Topology, TopologyKind};
use snoc_traffic::{BurstModel, PatternSampler, TraceMessage, TrafficPattern};
use source::{Calendar, Source, TraceCursor};
use std::collections::VecDeque;
use std::sync::Arc;

/// A ready-to-run network simulator bound to one topology (and optionally
/// one layout, which determines link latencies and RTT-sized buffers).
///
/// Every simulated cycle is stepped; what keeps a quiet cycle cheap is
/// that the step visits worklists, not the network: traffic generation
/// is an event calendar of per-node geometric injection draws (cost
/// proportional to offered traffic, not `nodes × cycles`), and only
/// routers, channels and injection queues that hold something are
/// touched.
///
/// See the crate docs for an example.
#[derive(Debug, Clone)]
pub struct Simulator {
    cfg: SimConfig,
    topo: Topology,
    /// The routing table in force: `minimal` until fault repair swaps
    /// in a degraded one.
    table: Arc<RoutingTable>,
    /// The table the simulator was built around, which
    /// [`Simulator::reset`] restores. Shared with every simulator of a
    /// campaign's setup — the table is immutable after construction
    /// and O(N_r²), so one copy serves them all.
    minimal: Arc<RoutingTable>,
    concentration: usize,
    node_count: usize,
    routers: Vec<RouterCore>,
    channels: Vec<Channel>,
    /// `[router][net out port]` → channel id.
    chan_out: Vec<Vec<usize>>,
    /// `[router][net in port]` → channel id (for upstream credits).
    chan_in: Vec<Vec<usize>>,
    /// channel id → (receiver router, receiver input port).
    chan_dst: Vec<(usize, usize)>,
    /// channel id → (sender router, sender output port).
    chan_src: Vec<(usize, usize)>,
    /// channel id → wire length in tiles (1 without a layout).
    chan_tiles: Vec<u64>,
    /// `[router][net out port]` → initial per-VC credit count.
    init_credits: Vec<Vec<usize>>,
    /// Single home of every in-flight flit; buffers, staging queues,
    /// link stages and ST registers hold 4-byte [`FlitRef`]s into it.
    arena: FlitArena,
    /// Per-node injection queues (flit refs).
    inj_queues: Vec<VecDeque<FlitRef>>,
    now: u64,
    next_pid: u64,
    rng: ChaCha8Rng,
    /// Measured packets still in flight (drain detection).
    outstanding: u64,
    /// Worklist of routers holding at least one flit. Routers are
    /// appended when a flit is delivered to an idle router and retained
    /// while non-idle, so at low load the cycle loop touches only the
    /// busy corner of the network.
    active_routers: Vec<usize>,
    /// `router_queued[r]` — whether `r` is in `active_routers`.
    router_queued: Vec<bool>,
    /// Worklist of channels with in-flight flits or credits.
    active_channels: Vec<usize>,
    /// `chan_queued[id]` — whether `id` is in `active_channels`.
    chan_queued: Vec<bool>,
    /// Worklist of nodes with a non-empty injection queue.
    active_inj: Vec<usize>,
    /// `inj_queued[node]` — whether `node` is in `active_inj`.
    inj_queued: Vec<bool>,
    /// Armed fault schedule, sorted by cycle (empty on fault-free runs,
    /// which keeps every fault path out of the hot loop).
    faults: Vec<FaultEvent>,
    /// Cursor into `faults`: the next unapplied event.
    next_fault: usize,
    /// Per-router liveness under the armed fault plan.
    router_alive: Vec<bool>,
    /// Per-channel link state: `false` while the undirected link is cut
    /// (both directed channels of a link flip together).
    chan_enabled: Vec<bool>,
    /// Derived per-channel liveness: enabled with both endpoints alive.
    chan_alive: Vec<bool>,
    /// Scratch for the ST-drain phase (reused every cycle): the flits
    /// it ejects, handed to [`Simulator::eject`] after the link pushes.
    scratch_eject: Vec<FlitRef>,
    /// Scratch for the allocation phase (reused every cycle).
    scratch_alloc: AllocResult,
    /// No-progress watchdog bound in cycles (`None` disarms it): if
    /// flits are live but nothing has moved for this many cycles, the
    /// run aborts with a [`crate::DeadlockDiagnostic`] instead of
    /// spinning in the drain loop forever.
    watchdog: Option<u64>,
    /// Last cycle with progress: a flit delivery, switch traversal,
    /// injection, packet creation, or an applied fault batch.
    last_progress: u64,
    /// Host-side work counters ([`Simulator::work`]); never read by the
    /// simulation itself.
    work: WorkCounters,
}

impl Simulator {
    /// Builds a simulator with unit-latency links (no physical layout).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the configuration is
    /// inconsistent (including [`BufferSizing::VariableRtt`], which needs
    /// a layout).
    pub fn build(topo: &Topology, cfg: &SimConfig) -> Result<Self, SimError> {
        Self::build_with_table(topo, None, cfg, || Arc::new(RoutingTable::minimal(topo)))
    }

    /// Builds a simulator whose link latencies come from the layout:
    /// `⌈manhattan / H⌉` cycles per link (§3.2.2), with RTT-sized buffers
    /// when [`BufferSizing::VariableRtt`] is selected.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on invalid configurations.
    pub fn build_with_layout(
        topo: &Topology,
        layout: &Layout,
        cfg: &SimConfig,
    ) -> Result<Self, SimError> {
        let table = || Arc::new(RoutingTable::minimal(topo));
        Self::build_with_table(topo, Some(layout), cfg, table)
    }

    /// Builds a simulator around the routing table `table` gives for
    /// `topo` — the one construction path and the one place a
    /// configuration is validated; [`Simulator::build`] and
    /// [`Simulator::build_with_layout`] are this with a fresh
    /// [`RoutingTable::minimal`]. `table` is called only once the
    /// configuration passes, so a network it refuses (a radix past the
    /// table's byte) never builds one. The table is a function of the
    /// topology alone and is never mutated (fault repair swaps in a
    /// fresh one), so one `Arc` can serve every simulator of a
    /// topology: the simulators of a campaign. Building allocates the
    /// network, then [`Simulator::reset`]s it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] as the other builders do, and
    /// [`SimError::InvalidConfig`] if the table was built for another
    /// wiring than `topo`'s.
    pub fn build_with_table(
        topo: &Topology,
        layout: Option<&Layout>,
        cfg: &SimConfig,
        table: impl FnOnce() -> Arc<RoutingTable>,
    ) -> Result<Self, SimError> {
        cfg.validate_on(topo)?;
        let table = table();
        if !table.is_wired_like(topo) {
            return Err(SimError::InvalidConfig {
                reason: format!("routing table was not built for {}", topo.name()),
            });
        }
        if cfg.buffer_sizing == BufferSizing::VariableRtt && layout.is_none() {
            return Err(SimError::InvalidConfig {
                reason: "VariableRtt buffer sizing requires a layout".to_string(),
            });
        }
        let nr = topo.router_count();
        let concentration = topo.concentration();

        // §3.2.2's wire timing has one owner, shared with the power
        // model's buffer term.
        let wires = BufferSpec {
            vcs: cfg.vcs,
            smart_hops: cfg.smart_hops,
        };
        // Channel wiring, one channel per directed adjacency.
        let mut chan_out = vec![Vec::new(); nr];
        let mut chan_dst = Vec::new();
        let mut chan_src = Vec::new();
        let mut chan_tiles = Vec::new();
        for r in topo.routers() {
            let ports = table.port_count(r);
            for port in 0..ports {
                let peer = table.peer(r, port);
                let tiles = layout.map_or(1, |l| l.manhattan(r, peer).max(1));
                chan_out[r.index()].push(chan_dst.len());
                chan_dst.push((peer.index(), table.port_to(peer, r)));
                chan_src.push((r.index(), port));
                chan_tiles.push(tiles as u64);
            }
        }
        // Reverse mapping: which channel feeds each input port.
        let mut chan_in: Vec<Vec<usize>> = (0..nr)
            .map(|r| vec![usize::MAX; chan_out[r].len()])
            .collect();
        for (id, &(dst, in_port)) in chan_dst.iter().enumerate() {
            chan_in[dst][in_port] = id;
        }

        // Per-port input capacities (downstream of each wire).
        let capacity_of = |r: usize, port: usize| -> usize {
            match cfg.buffer_sizing {
                BufferSizing::Fixed(n) => n,
                BufferSizing::VariableRtt => {
                    wires.round_trip(chan_tiles[chan_in[r][port]] as usize)
                }
            }
        };
        let mut routers = Vec::with_capacity(nr);
        for r in topo.routers() {
            let ports = table.port_count(r);
            let local = topo.nodes_of(r).len();
            let caps: Vec<usize> = (0..ports).map(|p| capacity_of(r.index(), p)).collect();
            let inj_cap = match cfg.buffer_sizing {
                BufferSizing::Fixed(n) => n,
                BufferSizing::VariableRtt => 5,
            };
            routers.push(RouterCore::new(
                r,
                ports,
                local,
                cfg.vcs,
                cfg.router_arch,
                cfg.link_mode,
                &caps,
                inj_cap,
            ));
        }
        // Credits mirror the downstream capacity.
        let init_credits: Vec<Vec<usize>> = (0..nr)
            .map(|r| {
                let ports = chan_out[r].iter().map(|&id| chan_dst[id]);
                ports
                    .map(|(dst, dst_port)| capacity_of(dst, dst_port))
                    .collect()
            })
            .collect();
        // The channels, sized once: a credited wire holds at most what
        // its sender's credits allow (`Channel::credited`).
        let channels: Vec<Channel> = (0..chan_dst.len())
            .map(|id| {
                let latency = wires.link_cycles(chan_tiles[id] as usize) as u64;
                match cfg.link_mode {
                    LinkMode::Credited => {
                        let (src, port) = chan_src[id];
                        Channel::credited(latency, cfg.vcs * init_credits[src][port])
                    }
                    LinkMode::Elastic => Channel::elastic(latency, cfg.vcs),
                }
            })
            .collect();
        let max_ports = routers.iter().map(RouterCore::in_ports).max().unwrap_or(0);

        let chan_count = channels.len();
        let mut sim = Simulator {
            cfg: cfg.clone(),
            topo: topo.clone(),
            table: Arc::clone(&table),
            minimal: table,
            concentration,
            node_count: topo.node_count(),
            router_queued: vec![false; routers.len()],
            routers,
            chan_queued: vec![false; chan_count],
            channels,
            chan_out,
            chan_in,
            chan_dst,
            chan_src,
            chan_tiles,
            init_credits,
            arena: FlitArena::default(),
            inj_queues: vec![VecDeque::new(); topo.node_count()],
            now: 0,
            next_pid: 0,
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            outstanding: 0,
            active_routers: Vec::new(),
            active_channels: Vec::new(),
            active_inj: Vec::new(),
            inj_queued: vec![false; topo.node_count()],
            faults: Vec::new(),
            next_fault: 0,
            router_alive: vec![true; nr],
            chan_enabled: vec![true; chan_count],
            chan_alive: vec![true; chan_count],
            scratch_eject: Vec::new(),
            scratch_alloc: AllocResult::for_ports(max_ports),
            watchdog: None,
            last_progress: 0,
            work: WorkCounters::default(),
        };
        sim.reset(cfg.seed);
        Ok(sim)
    }

    /// Returns a used simulator to exactly the state
    /// [`Simulator::build_with_table`] leaves — the one initializer of
    /// its run state, which building calls too — seeded with `seed`:
    /// every lane, ring, ST register, channel, injection queue
    /// and worklist empty (capacity kept), credits full, round-robin
    /// pointers at 0 and wormhole owners free, the built routing table
    /// back in force, no fault plan armed, the default watchdog, the
    /// RNG reseeded and every counter at 0. A run after `reset(seed)`
    /// is bit-identical to the same run on a simulator freshly built
    /// with `seed`, so many points of one network can share one
    /// simulator.
    pub fn reset(&mut self, seed: u64) {
        self.cfg.seed = seed;
        self.table = Arc::clone(&self.minimal);
        for (router, credits) in self.routers.iter_mut().zip(&self.init_credits) {
            router.reset(credits);
        }
        self.channels.iter_mut().for_each(Channel::reset);
        self.arena.clear();
        self.inj_queues.iter_mut().for_each(VecDeque::clear);
        (self.now, self.next_pid, self.outstanding) = (0, 0, 0);
        self.rng = ChaCha8Rng::seed_from_u64(seed);
        for (list, queued) in [
            (&mut self.active_routers, &mut self.router_queued),
            (&mut self.active_channels, &mut self.chan_queued),
            (&mut self.active_inj, &mut self.inj_queued),
        ] {
            list.clear();
            queued.fill(false);
        }
        self.faults.clear();
        self.next_fault = 0;
        self.router_alive.fill(true);
        self.chan_enabled.fill(true);
        self.chan_alive.fill(true);
        self.scratch_eject.clear();
        self.scratch_alloc.clear();
        let diameter = self.minimal.max_finite_distance();
        let bound = crate::deadlock::default_watchdog_bound(diameter, self.cfg.packet_flits);
        self.watchdog = Some(bound);
        self.last_progress = 0;
        self.work = WorkCounters::default();
    }

    /// The number of endpoint nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The current simulation cycle.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The work this simulator has done so far (see [`WorkCounters`]).
    #[must_use]
    pub fn work(&self) -> WorkCounters {
        self.work
    }

    /// The bytes this simulator's network holds, by part (see
    /// [`Footprint`]): the same from build through every run and
    /// [`Simulator::reset`].
    #[must_use]
    pub fn footprint(&self) -> Footprint {
        let routers = heap_bytes(&self.routers)
            + self
                .routers
                .iter()
                .map(RouterCore::heap_bytes)
                .sum::<usize>()
            + nested_heap_bytes(&self.init_credits)
            + heap_bytes(&self.router_queued)
            + self.scratch_alloc.heap_bytes();
        let channels = heap_bytes(&self.channels)
            + self.channels.iter().map(Channel::heap_bytes).sum::<usize>()
            + nested_heap_bytes(&self.chan_out)
            + nested_heap_bytes(&self.chan_in)
            + heap_bytes(&self.chan_dst)
            + heap_bytes(&self.chan_src)
            + heap_bytes(&self.chan_tiles)
            + heap_bytes(&self.chan_queued)
            + heap_bytes(&self.chan_enabled)
            + heap_bytes(&self.chan_alive);
        Footprint {
            table: self.minimal.bytes(),
            routers,
            channels,
        }
    }

    /// Sets the no-progress watchdog bound in cycles, or disarms it
    /// with `None`. Armed by default at
    /// [`crate::default_watchdog_bound`] of the routing diameter and
    /// packet length: if flits are live but none moves for the bound,
    /// the run returns with [`SimReport::deadlock`] populated instead
    /// of spinning in the drain loop forever. The watchdog never
    /// perturbs a live run — reports of runs that make progress are
    /// bit-identical with it armed or disarmed.
    pub fn set_watchdog(&mut self, bound: Option<u64>) {
        self.watchdog = bound;
    }

    /// Arms a deterministic fault schedule ([`FaultPlan`]) to be applied
    /// live during the next run: at each scheduled cycle, flits on dead
    /// hardware (and whole packets they belong to) are dropped and
    /// counted, routing self-heals on the surviving graph, and traffic
    /// between severed pairs quiesces. Same plan + same seed ⇒ the same
    /// [`SimReport`], bit for bit.
    ///
    /// Fault injection is supported on the edge-buffer + credited-link +
    /// minimal-routing envelope — exactly the envelope the reference
    /// simulator models, so every faulted configuration stays
    /// differentially verifiable.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the plan references
    /// hardware the topology does not have or the configuration is
    /// outside the supported envelope.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), SimError> {
        plan.check_against(&self.topo, &self.cfg)?;
        self.faults = plan.events().to_vec();
        self.next_fault = 0;
        Ok(())
    }

    /// Applies every fault event due at or before the current cycle,
    /// then repairs the network once for the whole batch. Called at the
    /// top of each run-loop iteration, before the cycle's phases.
    fn apply_due_faults(&mut self, report: &mut SimReport) {
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
            // A fault batch is progress: it reshapes the network (and
            // may drop the very flits that were wedged), so the
            // watchdog clock restarts.
            self.last_progress = self.now;
        }
    }

    /// Flips both directed channels of the undirected link `a -- b`.
    fn set_link_enabled(&mut self, a: RouterId, b: RouterId, enabled: bool) {
        let pa = port_toward(&self.topo, a, b);
        let pb = port_toward(&self.topo, b, a);
        self.chan_enabled[self.chan_out[a.index()][pa]] = enabled;
        self.chan_enabled[self.chan_out[b.index()][pb]] = enabled;
    }

    /// Rebuilds the world after a batch of fault events: derives channel
    /// liveness, recomputes routing on the surviving graph, determines
    /// the packets that cannot survive, sweeps their flits everywhere,
    /// recounts flow-control credits from ground truth, and swaps the
    /// new table in. The doomed set is a pure function of the pre-fault
    /// state, the new liveness and the new table — the reference engine
    /// mirrors the same rules, which is what keeps faulted runs exactly
    /// comparable across engines.
    fn repair_after_faults(&mut self, report: &mut SimReport) {
        // 1. Channel liveness: enabled, with both endpoints alive.
        for id in 0..self.channels.len() {
            let (src, _) = self.chan_src[id];
            let (dst, _) = self.chan_dst[id];
            self.chan_alive[id] =
                self.chan_enabled[id] && self.router_alive[src] && self.router_alive[dst];
        }
        // 2. Self-heal: minimal routes over the surviving graph, with
        // the original port numbering and tie-break.
        let table = {
            let topo = &self.topo;
            let chan_alive = &self.chan_alive;
            let chan_out = &self.chan_out;
            RoutingTable::degraded(topo, &self.router_alive, |a, b| {
                chan_alive[chan_out[a.index()][port_toward(topo, a, b)]]
            })
        };
        // 3. The doomed-packet set: every packet with a flit on dead
        // hardware, pinned by wormhole state toward a dead channel, or
        // severed from its destination under the new table. Whole
        // packets die — wormhole flits are useless without their head,
        // and in-order ejection means a doomed packet's tail can never
        // have ejected, so "doomed" and "delivered" never overlap.
        let mut doomed: Vec<u64> = Vec::new();
        {
            let arena = &self.arena;
            for r in 0..self.routers.len() {
                let router = &self.routers[r];
                if !self.router_alive[r] {
                    router.scan_flits(|fr, _| doomed.push(arena.get(fr).packet.0));
                    continue;
                }
                let ports = &self.chan_out[r];
                let chan_alive = &self.chan_alive;
                router.stuck_packets(arena, |port| !chan_alive[ports[port]], &mut doomed);
                // Severed heads. Buffered heads are judged at this
                // router; ST heads at the router across the channel they
                // are committed to (alive: dead ones were caught above).
                // Liveness of the judging router makes same-router
                // traffic die with it (a dead router still reaches
                // itself in the table).
                router.scan_flits(|fr, st_port| {
                    let f = arena.get(fr);
                    if !f.kind.is_head() {
                        return;
                    }
                    let at = match st_port {
                        Some(p) => RouterId(self.chan_dst[ports[p]].0),
                        None => RouterId(r),
                    };
                    if !self.router_alive[at.index()] || !table.reachable(at, f.dst_router) {
                        doomed.push(f.packet.0);
                    }
                });
            }
            for id in 0..self.channels.len() {
                let dst_r = RouterId(self.chan_dst[id].0);
                if !self.chan_alive[id] {
                    self.channels[id].scan_flits(|fr| doomed.push(arena.get(fr).packet.0));
                } else {
                    // In-flight heads are judged at the receiving router.
                    self.channels[id].scan_flits(|fr| {
                        let f = arena.get(fr);
                        if f.kind.is_head() && !table.reachable(dst_r, f.dst_router) {
                            doomed.push(f.packet.0);
                        }
                    });
                }
            }
            for node in 0..self.node_count {
                let r = node / self.concentration;
                for &fr in &self.inj_queues[node] {
                    let f = arena.get(fr);
                    if !self.router_alive[r]
                        || (f.kind.is_head() && !table.reachable(RouterId(r), f.dst_router))
                    {
                        doomed.push(f.packet.0);
                    }
                }
            }
        }
        doomed.sort_unstable();
        doomed.dedup();
        // 4. Sweep the doomed packets' flits out of every structure
        // (dead channels drop everything and void their credit queues).
        let mut removed: Vec<Flit> = Vec::new();
        for id in 0..self.channels.len() {
            let dead = !self.chan_alive[id];
            self.channels[id].sweep_faults(
                &mut self.arena,
                |p| doomed.binary_search(&p).is_ok(),
                dead,
                &mut removed,
            );
        }
        for r in 0..self.routers.len() {
            if self.router_alive[r] {
                self.routers[r].sweep_faults(
                    &mut self.arena,
                    |p| doomed.binary_search(&p).is_ok(),
                    &mut removed,
                );
            } else {
                self.routers[r].sweep_faults(&mut self.arena, |_| true, &mut removed);
            }
        }
        for node in 0..self.node_count {
            let arena = &mut self.arena;
            let removed = &mut removed;
            self.inj_queues[node].retain(|&fr| {
                if doomed.binary_search(&arena.get(fr).packet.0).is_ok() {
                    removed.push(arena.remove(fr));
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
            .map(|f| f.packet.0)
            .collect();
        report.activity.dropped_flits += dropped_pkts.len() as u64;
        dropped_pkts.sort_unstable();
        dropped_pkts.dedup();
        report.dropped_packets += dropped_pkts.len() as u64;
        self.outstanding = self.outstanding.saturating_sub(dropped_pkts.len() as u64);
        // Sweeping can empty injection queues whose nodes are still on
        // the worklist; the injection phase pops unconditionally, so
        // compact stale entries now (routers and channels tolerate
        // stale entries until the end-of-step compaction).
        let inj_queues = &self.inj_queues;
        let removed = compact(&mut self.active_inj, &mut self.inj_queued, |node| {
            inj_queues[node].is_empty()
        });
        self.work.compact_removals += removed as u64;
        // 6. Swap the degraded table in. Debug builds first re-verify
        // the deadlock-freedom the up*/down* construction promises —
        // including for packets already mid-flight with accumulated
        // hop counts.
        #[cfg(debug_assertions)]
        if let Err(e) = crate::verify_deadlock_free(&table, &self.topo, self.cfg.vcs) {
            panic!("degraded routing table is not deadlock-free: {e}");
        }
        self.table = Arc::new(table);
        // 7. Recount credits from ground truth on every live channel:
        // initial credits minus flits on the wire, flits buffered at the
        // receiver, credits in flight back, and an ST hold at the
        // sender. For untouched channels this recomputes the value the
        // incremental protocol already holds; for channels that lost
        // flits — or just recovered — it is the repair.
        for id in 0..self.channels.len() {
            if !self.chan_alive[id] {
                continue;
            }
            let (src, sp) = self.chan_src[id];
            let (dst, dp) = self.chan_dst[id];
            let init = self.init_credits[src][sp];
            for vc in 0..self.cfg.vcs {
                let consumed = self.channels[id].wire_count(vc)
                    + self.channels[id].credit_count(vc)
                    + self.routers[dst].lane_len(dp, vc)
                    + usize::from(self.routers[src].st_holds(sp, vc));
                let credits = init
                    .checked_sub(consumed)
                    .unwrap_or_else(|| panic!("credit recount underflow: channel {id} vc {vc}"));
                self.routers[src].set_lane_credits(sp, vc, credits);
            }
        }
    }

    /// Whether traffic between two endpoints can currently be carried:
    /// both routers alive and connected on the surviving graph. Severed
    /// pairs quiesce generation (and protocol replies) instead of
    /// wedging the drain phase with packets that could never route.
    fn pair_online(&self, src: NodeId, dst: NodeId) -> bool {
        let s = RouterId(src.index() / self.concentration);
        let d = RouterId(dst.index() / self.concentration);
        self.router_alive[s.index()] && self.router_alive[d.index()] && self.table.reachable(s, d)
    }

    /// Runs open-loop synthetic traffic: `rate` flits/node/cycle of
    /// `cfg.packet_flits`-flit packets under `pattern`, measured after
    /// `warmup` cycles for `measure` cycles, plus a bounded drain phase.
    ///
    /// Injection is event-driven: each node carries a next-injection
    /// cycle drawn from geometric inter-arrival sampling — distribution-
    /// identical to a per-cycle Bernoulli trial at `rate / packet_flits`
    /// — and the calendar of those cycles replaces the per-node
    /// per-cycle RNG loop.
    pub fn run_synthetic(
        &mut self,
        pattern: TrafficPattern,
        rate: f64,
        warmup: u64,
        measure: u64,
    ) -> SimReport {
        self.run_synthetic_bursty(pattern, rate, BurstModel::uniform(), warmup, measure)
    }

    /// Runs open-loop synthetic traffic with a two-state (on/off) Markov
    /// burst model: while *on* a node injects at a rate scaled to keep
    /// the long-run offered load equal to `rate`, while *off* it injects
    /// nothing (see [`BurstModel`]). `BurstModel::uniform()` reduces to
    /// [`Simulator::run_synthetic`] exactly, draw for draw. The
    /// injection calendar draws per-node phase sojourns and in-phase
    /// geometric gaps, distribution-identical to per-cycle Markov state
    /// transitions plus Bernoulli trials.
    pub fn run_synthetic_bursty(
        &mut self,
        pattern: TrafficPattern,
        rate: f64,
        burst: BurstModel,
        warmup: u64,
        measure: u64,
    ) -> SimReport {
        let sampler = PatternSampler::new(pattern, &self.topo);
        let mut calendar = Calendar::new(self, &sampler, rate, burst, warmup, measure);
        self.drive(&mut calendar)
    }

    /// Replays a trace (§5.1's PARSEC/SPLASH protocol): read requests are
    /// answered with 6-flit replies by their destination node. Packets
    /// created at or after `warmup` are measured.
    pub fn run_trace(&mut self, trace: &[TraceMessage], warmup: u64) -> SimReport {
        self.drive(&mut TraceCursor::new(trace, warmup))
    }

    /// The one run loop: apply due faults, step the network, let the
    /// source inject, poll the watchdog, advance the clock — until the
    /// source is exhausted and the measured packets have drained (or
    /// the drain cap is hit).
    fn drive<S: Source>(&mut self, source: &mut S) -> SimReport {
        let windows = source.windows();
        let mut report = SimReport::new(self.node_count);
        report.measured_cycles = windows.measured;
        self.last_progress = self.now;
        while source.pending(self.now) || (self.outstanding > 0 && self.now < windows.drain_cap) {
            self.apply_due_faults(&mut report);
            let measuring = windows.measuring(self.now);
            self.step(measuring, &mut report);
            source.due(self, measuring, &mut report);
            if self.watchdog_expired() {
                report.deadlock = Some(self.deadlock_diagnostic());
                break;
            }
            self.now += 1;
        }
        report.drained = self.outstanding == 0;
        report.total_cycles = self.now;
        report
    }

    /// Creates a packet and appends its flits to the source node's
    /// injection queue, unless the queue lacks space for the whole packet.
    fn generate(
        &mut self,
        src: NodeId,
        dst: NodeId,
        len: u32,
        wants_reply: bool,
        measured: bool,
        report: &mut SimReport,
    ) {
        debug_assert_ne!(src, dst, "self-traffic never enters the network");
        if !self.faults.is_empty() && !self.pair_online(src, dst) {
            return; // severed pair: quiesce, not a queue stall
        }
        let queue_len = self.inj_queues[src.index()].len();
        if queue_len + len as usize > self.cfg.injection_queue_flits {
            if measured {
                report.stalled_generations += 1;
            }
            return;
        }
        self.push_packet(src, dst, len, wants_reply, measured, report);
    }

    /// Unconditionally enqueues a packet. Protocol replies use this
    /// directly: dropping a reply would break the request–reply
    /// dependency chain, so replies may exceed the queue bound.
    fn push_packet(
        &mut self,
        src: NodeId,
        dst: NodeId,
        len: u32,
        wants_reply: bool,
        measured: bool,
        report: &mut SimReport,
    ) {
        let dst_router = RouterId(dst.index() / self.concentration);
        let src_router = RouterId(src.index() / self.concentration);
        let id = PacketId(self.next_pid);
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
            let mut f = Flit::nth_of_packet(
                id,
                i,
                len,
                src,
                dst,
                dst_router,
                self.now,
                measured,
                wants_reply,
            );
            if let Some(mid) = intermediate {
                f.set_intermediate(mid);
            }
            let fr = self.arena.insert(f);
            self.inj_queues[src.index()].push_back(fr);
        }
        activate(&mut self.inj_queued, &mut self.active_inj, src.index());
        self.last_progress = self.now;
    }

    /// Adaptive route selection at the source (§6): UGAL-L/UGAL-G pick
    /// minimal vs. Valiant; XY-adaptive picks between the two minimal
    /// dimension orders of an FBF.
    fn adaptive_intermediate(&mut self, src: RouterId, dst: RouterId) -> Option<RouterId> {
        match self.cfg.routing {
            RoutingKind::Minimal => None,
            RoutingKind::UgalL => {
                let mid = self.random_router(src, dst)?;
                let d_min = self.table.distance(src, dst) as f64;
                let d_non = (self.table.distance(src, mid) + self.table.distance(mid, dst)) as f64;
                let q_min = self.first_hop_occupancy(src, dst) as f64;
                let q_non = self.first_hop_occupancy(src, mid) as f64;
                // Standard UGAL-L comparison with a small pipeline bias.
                (q_non * d_non + 3.0 < q_min * d_min).then_some(mid)
            }
            RoutingKind::UgalG => {
                let mid = self.random_router(src, dst)?;
                let min_cost = self.path_cost(src, dst);
                let non_cost = self.path_cost(src, mid) + self.path_cost(mid, dst);
                (non_cost + 3.0 < min_cost).then_some(mid)
            }
            RoutingKind::XyAdaptive => {
                // `SimConfig::validate_on` admits XY on an FBF only.
                let TopologyKind::FlattenedButterfly { x: x_dim, .. } = *self.topo.kind() else {
                    return None;
                };
                let (sx, sy) = (src.index() % x_dim, src.index() / x_dim);
                let (dx, dy) = (dst.index() % x_dim, dst.index() / x_dim);
                if sx == dx || sy == dy {
                    return None; // single-dimension path, nothing to adapt
                }
                let corner_row_first = RouterId(sy * x_dim + dx);
                let corner_col_first = RouterId(dy * x_dim + sx);
                let q_row = self.first_hop_occupancy(src, corner_row_first);
                let q_col = self.first_hop_occupancy(src, corner_col_first);
                Some(if q_row <= q_col {
                    corner_row_first
                } else {
                    corner_col_first
                })
            }
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

    /// Congestion at the first hop from `src` toward `target`.
    fn first_hop_occupancy(&self, src: RouterId, target: RouterId) -> usize {
        if src == target {
            return 0;
        }
        let probe = probe_flit(target);
        let d = self.table.route(src, &probe, self.cfg.vcs);
        self.direction_occupancy(src, d.port)
    }

    fn direction_occupancy(&self, r: RouterId, out_port: usize) -> usize {
        let init = self.init_credits[r.index()][out_port];
        let router_side = self.routers[r.index()].output_occupancy(out_port, init);
        let chan = self.chan_out[r.index()][out_port];
        router_side + self.channels[chan].occupancy()
    }

    /// Sum of per-hop congestion along the minimal path (UGAL-G's global
    /// knowledge), including a unit pipeline cost per hop.
    fn path_cost(&self, src: RouterId, dst: RouterId) -> f64 {
        let mut cur = src;
        let mut cost = 0.0;
        let mut hops = 0u16;
        while cur != dst {
            let mut f = probe_flit(dst);
            f.hops = hops;
            let d = self.table.route(cur, &f, self.cfg.vcs);
            cost += self.direction_occupancy(cur, d.port) as f64 + 1.0;
            cur = self.table.peer(cur, d.port);
            hops += 1;
        }
        cost
    }

    /// Advances the network by one cycle (all phases except traffic
    /// generation, which the run loops own).
    ///
    /// Only the active worklists are visited: a channel enters when a
    /// flit or credit is pushed into it, a router when a flit is
    /// delivered to it, a node when a packet enters its injection
    /// queue, and each leaves once drained — at low load the idle bulk
    /// of the network costs nothing per cycle. Per-channel, per-router
    /// and per-node operations within one phase touch disjoint state
    /// (each channel feeds exactly one input port; credits target
    /// per-port counters; each node owns one injection port), so
    /// worklist order does not affect results — and the worklists
    /// themselves evolve deterministically, keeping same-seed runs
    /// bit-identical.
    fn step(&mut self, measuring: bool, report: &mut SimReport) {
        let now = self.now;
        self.work.cycles_stepped += 1;
        self.work.channel_visits += self.active_channels.len() as u64;
        self.work.router_visits += self.active_routers.len() as u64;
        // Each phase borrows the fields it works on once, side by side.
        //
        // Phases 1–3 fused per active channel: pipeline tick, delivery
        // into the router input, credit returns. Deliveries do not
        // affect other channels' readiness and credits only feed the
        // allocation phase below, so fusing preserves phase semantics.
        {
            let Simulator {
                channels,
                routers,
                arena,
                chan_dst,
                chan_src,
                active_channels,
                active_routers,
                router_queued,
                last_progress,
                ..
            } = self;
            for &id in active_channels.iter() {
                let channel = &mut channels[id];
                channel.tick();
                let (dst, port) = chan_dst[id];
                let router = &mut routers[dst];
                let delivered = channel.pop_deliverable(now, |vc| router.can_deliver(port, vc));
                if let Some((vc, flit)) = delivered {
                    router.deliver(port, vc, flit, arena);
                    activate(router_queued, active_routers, dst);
                    *last_progress = now;
                    if measuring {
                        report.activity.buffer_writes += 1;
                    }
                }
                let (src, src_port) = chan_src[id];
                while let Some(vc) = channel.pop_credit(now) {
                    routers[src].add_credit(src_port, vc);
                }
            }
        }
        // 4. Switch traversal: ST registers drain onto links / nodes.
        // Ejections run after the link pushes: a reply created at
        // ejection probes output occupancy under adaptive routing, which
        // sees a flit in an ST register or on a channel, not one drained
        // and not yet pushed.
        {
            let Simulator {
                channels,
                routers,
                chan_out,
                chan_tiles,
                active_routers,
                active_channels,
                chan_queued,
                scratch_eject,
                last_progress,
                ..
            } = self;
            for &r in active_routers.iter() {
                let ports = &chan_out[r];
                routers[r].drain_st(|port, st| {
                    *last_progress = now;
                    if measuring {
                        report.activity.crossbar_traversals += 1;
                    }
                    let Some(&ch) = ports.get(port) else {
                        return scratch_eject.push(st.flit);
                    };
                    if measuring {
                        report.activity.link_flit_hops += 1;
                        report.activity.wire_flit_tiles += chan_tiles[ch];
                    }
                    channels[ch].push(now, st.out_vc, st.flit);
                    activate(chan_queued, active_channels, ch);
                });
            }
        }
        for e in 0..self.scratch_eject.len() {
            self.eject(self.scratch_eject[e], measuring, report);
        }
        self.scratch_eject.clear();
        // 5. Allocation (router pipelines).
        {
            let Simulator {
                channels,
                routers,
                arena,
                table,
                concentration,
                chan_out,
                chan_in,
                active_routers,
                active_channels,
                chan_queued,
                scratch_alloc: res,
                work,
                ..
            } = self;
            for &r in active_routers.iter() {
                let router = &mut routers[r];
                if router.is_idle() {
                    continue; // nothing buffered, nothing to allocate
                }
                {
                    let (channels, ports) = (&*channels, &chan_out[r]);
                    let ready = |out: usize, vc: usize| channels[ports[out]].can_accept(vc);
                    router.alloc_into(now, table, *concentration, arena, &ready, res);
                }
                work.alloc_calls += 1;
                work.ports_examined += res.ports_examined;
                work.lanes_examined += res.lanes_examined;
                work.grants += res.alloc_grants;
                if measuring {
                    report.activity.record_alloc(res);
                }
                for &(port, vc) in &res.freed {
                    // Injection ports have no upstream channel to credit.
                    let Some(&ch) = chan_in[r].get(port) else {
                        continue;
                    };
                    channels[ch].push_credit(now, vc);
                    activate(chan_queued, active_channels, ch);
                }
            }
        }
        // 6. Injection: one flit per active node per cycle into the
        // router.
        let Simulator {
            routers,
            arena,
            concentration,
            chan_out,
            inj_queues,
            active_inj,
            active_routers,
            router_queued,
            last_progress,
            ..
        } = self;
        for &node in active_inj.iter() {
            let r = node / *concentration;
            let port = chan_out[r].len() + node % *concentration;
            if routers[r].can_deliver(port, 0) {
                let fr = inj_queues[node].pop_front().expect("non-empty");
                arena.get_mut(fr).injected = now;
                routers[r].deliver(port, 0, fr, arena);
                activate(router_queued, active_routers, r);
                *last_progress = now;
                if measuring {
                    report.activity.buffer_writes += 1;
                }
            }
        }
        let routers = &self.routers;
        let mut removed = compact(&mut self.active_routers, &mut self.router_queued, |r| {
            routers[r].is_idle()
        });
        let channels = &self.channels;
        removed += compact(&mut self.active_channels, &mut self.chan_queued, |id| {
            channels[id].is_idle()
        });
        let inj_queues = &self.inj_queues;
        removed += compact(&mut self.active_inj, &mut self.inj_queued, |node| {
            inj_queues[node].is_empty()
        });
        self.work.compact_removals += removed as u64;
    }

    /// Hands a flit to its destination node, releasing its arena slot.
    fn eject(&mut self, fr: FlitRef, measuring: bool, report: &mut SimReport) {
        let flit = self.arena.remove(fr);
        if measuring {
            report.activity.ejections += 1;
        }
        if flit.kind.is_tail() {
            if flit.measured {
                self.outstanding = self.outstanding.saturating_sub(1);
                report.record_delivery(
                    self.now - flit.created,
                    u32::from(flit.hops),
                    flit.packet_len,
                );
            }
            if flit.wants_reply && (self.faults.is_empty() || self.pair_online(flit.dst, flit.src))
            {
                // The destination answers with a 6-flit read reply.
                self.push_packet(flit.dst, flit.src, 6, false, flit.measured, report);
            }
        }
    }

    /// `true` when the armed watchdog bound has elapsed with flits live
    /// but unmoving. Checked once per run-loop iteration, after the
    /// cycle's phases — the cheap counter comparison comes first, so a
    /// healthy run pays one subtraction per iteration.
    fn watchdog_expired(&self) -> bool {
        match self.watchdog {
            Some(bound) => self.now - self.last_progress >= bound && !self.arena.is_empty(),
            None => false,
        }
    }

    /// Builds the structured abort diagnostic for a fired watchdog:
    /// every pinned packet head (capped at 64) and the wait-for edge
    /// its buffered head is blocked on. The per-packet scan needs the
    /// edge-buffer datapath; central-buffer runs report the counters
    /// with empty lists.
    fn deadlock_diagnostic(&self) -> DeadlockDiagnostic {
        const CAP: usize = 64;
        let mut diag = DeadlockDiagnostic {
            cycle: self.now,
            last_progress: self.last_progress,
            in_flight_flits: self.arena.len(),
            stuck_packets: Vec::new(),
            wait_for: Vec::new(),
        };
        if !matches!(self.cfg.router_arch, RouterArch::EdgeBuffer) {
            return diag;
        }
        let arena = &self.arena;
        let table = &self.table;
        for r in 0..self.routers.len() {
            let stuck = &mut diag.stuck_packets;
            let waits = &mut diag.wait_for;
            self.routers[r].scan_flits(|fr, st_port| {
                let f = arena.get(fr);
                if !f.kind.is_head() {
                    return;
                }
                if stuck.len() < CAP {
                    stuck.push(StuckPacket {
                        packet: f.packet.0,
                        router: r,
                        dst_router: f.dst_router.index(),
                        in_st: st_port.is_some(),
                    });
                }
                // Buffered heads yield a wait-for edge: the output the
                // table routes them to. ST heads are already committed
                // and heads parked at their target wait for ejection,
                // not a channel.
                let here = RouterId(r);
                let target = RoutingTable::target(f);
                if st_port.is_none()
                    && target != here
                    && table.reachable(here, target)
                    && waits.len() < CAP
                {
                    let d = table.route(here, f, self.cfg.vcs);
                    waits.push(WaitForEdge {
                        from_router: r,
                        port: d.port,
                        vc: d.vc,
                        to_router: table.peer(here, d.port).index(),
                    });
                }
            });
        }
        diag
    }

    /// Total flits currently inside the network (buffers, links, ST) and
    /// injection queues — zero once fully drained. O(1): every in-flight
    /// flit occupies exactly one arena slot.
    #[must_use]
    pub fn in_flight_flits(&self) -> usize {
        debug_assert_eq!(
            self.arena.len(),
            self.recount_in_flight(),
            "arena live count drifted from the structural recount"
        );
        self.arena.len()
    }

    /// Slow structural recount of in-flight flits (debug assertions).
    fn recount_in_flight(&self) -> usize {
        let routers: usize = self.routers.iter().map(RouterCore::buffered_flits).sum();
        let links: usize = self.channels.iter().map(Channel::occupancy).sum();
        let queues: usize = self.inj_queues.iter().map(VecDeque::len).sum();
        routers + links + queues
    }
}

/// Enqueues component `i` on its active worklist (idempotent).
#[inline]
fn activate(queued: &mut [bool], worklist: &mut Vec<usize>, i: usize) {
    if !queued[i] {
        queued[i] = true;
        worklist.push(i);
    }
}

/// Drops the worklist entries whose component went idle, clearing
/// their queued flags so they can re-enter later; returns how many.
fn compact(worklist: &mut Vec<usize>, queued: &mut [bool], idle: impl Fn(usize) -> bool) -> usize {
    let before = worklist.len();
    worklist.retain(|&i| {
        if idle(i) {
            queued[i] = false;
            false
        } else {
            true
        }
    });
    before - worklist.len()
}

/// Physical output-port index of `r` toward adjacent `peer`. Channel
/// ports follow the sorted neighbor order, so this is a binary search.
fn port_toward(topo: &Topology, r: RouterId, peer: RouterId) -> usize {
    topo.neighbors(r)
        .binary_search(&peer)
        .expect("fault events name adjacent routers (validated)")
}

/// A minimal flit used to probe routing decisions.
fn probe_flit(dst_router: RouterId) -> Flit {
    Flit::nth_of_packet(
        PacketId(u64::MAX),
        0,
        1,
        NodeId(0),
        NodeId(dst_router.index()),
        dst_router,
        0,
        false,
        false,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Conformance;
    use snoc_traffic::{MessageKind, TraceWorkload};

    fn small_sn() -> Topology {
        Topology::slim_noc(3, 3).unwrap() // 18 routers, 54 nodes
    }

    #[test]
    fn zero_load_latency_is_small_and_packets_flow() {
        let topo = small_sn();
        let mut sim = Simulator::build(&topo, &SimConfig::default()).unwrap();
        let report = sim.run_synthetic(TrafficPattern::Random, 0.02, 1_000, 4_000);
        assert!(report.delivered_packets > 100, "{report}");
        assert!(report.drained, "low load must drain");
        // Zero-load-ish latency: 2 hops * (2 router + 1 link) + 5 flits
        // serialization + injection overhead — comfortably under 30.
        let lat = report.avg_packet_latency();
        assert!(lat > 5.0 && lat < 30.0, "latency {lat}");
        // All packets in a diameter-2 network take at most 2 hops.
        assert!(
            report.avg_hops() <= 2.0 + 1e-9,
            "hops {}",
            report.avg_hops()
        );
    }

    #[test]
    fn low_load_allocation_examines_only_non_empty_ports() {
        // sn_l: 13 network + 8 local ports per router. At 0.008
        // flits/node/cycle almost every port of a busy router is empty.
        let topo = Topology::slim_noc(9, 8).unwrap();
        let run = || {
            let mut sim = Simulator::build(&topo, &SimConfig::default()).unwrap();
            let report = sim.run_synthetic(TrafficPattern::Random, 0.008, 150, 600);
            (report, sim.work())
        };
        let (report, w) = run();
        assert!(w.alloc_calls > 0 && w.grants > 0);
        // Every examined port was non-empty: it had an occupied lane to
        // inspect, and at most one of its lanes is granted per call.
        assert!(w.ports_examined <= w.lanes_examined, "{w:?}");
        assert!(w.grants <= w.ports_examined, "{w:?}");
        // The all-ports walk would have examined 21 per call.
        assert!(w.ports_examined < 2 * w.alloc_calls, "{w:?}");
        assert_eq!(w.cycles_stepped, report.total_cycles);
        assert!(w.calendar_pops >= report.injected_packets);
        // Counts, not timings: they repeat exactly.
        assert_eq!(run(), (report, w));
    }

    #[test]
    fn flit_conservation_after_drain() {
        let topo = small_sn();
        let mut sim = Simulator::build(&topo, &SimConfig::default()).unwrap();
        let report = sim.run_synthetic(TrafficPattern::Random, 0.05, 500, 2_000);
        assert!(report.drained);
        assert_eq!(sim.in_flight_flits(), 0, "network fully drained");
        assert_eq!(report.delivered_packets, report.injected_packets);
    }

    #[test]
    fn throughput_tracks_offered_load_below_saturation() {
        let topo = small_sn();
        let mut sim = Simulator::build(&topo, &SimConfig::default()).unwrap();
        let rate = 0.10;
        let report = sim.run_synthetic(TrafficPattern::Random, rate, 1_000, 6_000);
        let thpt = report.throughput();
        assert!(
            (thpt - rate).abs() < rate * 0.15,
            "accepted {thpt} vs offered {rate}"
        );
    }

    #[test]
    fn higher_load_means_higher_latency() {
        let topo = small_sn();
        let lat = |rate: f64| {
            let mut sim = Simulator::build(&topo, &SimConfig::default()).unwrap();
            sim.run_synthetic(TrafficPattern::Random, rate, 1_000, 4_000)
                .avg_packet_latency()
        };
        let low = lat(0.02);
        let high = lat(0.25);
        assert!(high > low, "low {low}, high {high}");
    }

    #[test]
    fn mesh_and_torus_work_end_to_end() {
        for topo in [Topology::mesh(4, 4, 2), Topology::torus(4, 4, 2)] {
            let mut sim = Simulator::build(&topo, &SimConfig::default()).unwrap();
            let report = sim.run_synthetic(TrafficPattern::Random, 0.05, 500, 3_000);
            assert!(report.delivered_packets > 50, "{}: {report}", topo.name());
            assert!(report.drained, "{}", topo.name());
        }
    }

    #[test]
    fn pfbf_works_with_four_vcs() {
        let topo = Topology::partitioned_fbf(2, 2, 3, 3, 2);
        let cfg = SimConfig::default().with_vcs(4);
        let mut sim = Simulator::build(&topo, &cfg).unwrap();
        let report = sim.run_synthetic(TrafficPattern::Random, 0.05, 500, 3_000);
        assert!(report.drained, "{report}");
        assert!(report.avg_hops() <= 4.0);
    }

    #[test]
    fn cbr_delivers_and_uses_central_buffer_under_load() {
        let topo = small_sn();
        let mut sim = Simulator::build(&topo, &SimConfig::cbr(20)).unwrap();
        let report = sim.run_synthetic(TrafficPattern::Random, 0.20, 1_000, 4_000);
        assert!(report.delivered_packets > 100, "{report}");
        assert!(
            report.activity.cb_writes > 0,
            "high load must exercise the CB path"
        );
        assert!(
            report.activity.bypasses > 0,
            "bypass path must also be used"
        );
    }

    #[test]
    fn cbr_low_load_mostly_bypasses() {
        let topo = small_sn();
        let mut sim = Simulator::build(&topo, &SimConfig::cbr(20)).unwrap();
        let report = sim.run_synthetic(TrafficPattern::Random, 0.01, 1_000, 4_000);
        assert!(
            report.activity.bypasses > 10 * report.activity.cb_writes.max(1),
            "bypasses {} vs cb writes {}",
            report.activity.bypasses,
            report.activity.cb_writes
        );
    }

    #[test]
    fn cbr_on_credited_unit_wires_returns_two_credits_a_cycle() {
        // A CBR can free two staging slots of one input port in a cycle
        // (a bypass and a CB write), so one-cycle credited wires carry
        // two credits at once: the credit ring is sized by the credits,
        // not by the latency.
        let cfg = SimConfig {
            link_mode: LinkMode::Credited,
            ..SimConfig::cbr(20)
        };
        let mut sim = Simulator::build(&small_sn(), &cfg).unwrap();
        let report = sim.run_synthetic(TrafficPattern::Random, 0.3, 300, 1_000);
        assert!(report.activity.cb_writes > 0, "{report}");
        assert!(report.drained, "{report}");
        assert_eq!(sim.in_flight_flits(), 0);
    }

    #[test]
    fn cbr_never_deadlocks_across_topologies() {
        // Regression test: two packets' flits must never interleave
        // inside one CB virtual queue (each would wait on the other).
        // ADV1 at moderate load reliably triggered the original bug on
        // every topology within a few hundred cycles.
        for topo in [
            Topology::mesh(6, 6, 2),
            Topology::torus(6, 6, 2),
            Topology::slim_noc(5, 4).unwrap(),
            Topology::partitioned_fbf(2, 2, 3, 3, 2),
        ] {
            let vcs = if matches!(
                topo.kind(),
                snoc_topology::TopologyKind::PartitionedFbf { .. }
            ) {
                4
            } else {
                2
            };
            let cfg = SimConfig::cbr(20).with_vcs(vcs);
            let mut sim = Simulator::build(&topo, &cfg).unwrap();
            let report = sim.run_synthetic(TrafficPattern::Adversarial1, 0.02, 300, 2_000);
            assert!(report.drained, "{}: {report}", topo.name());
            assert_eq!(
                report.delivered_packets,
                report.injected_packets,
                "{}",
                topo.name()
            );
            assert_eq!(sim.in_flight_flits(), 0, "{}", topo.name());
        }
    }

    #[test]
    fn activity_counters_satisfy_structural_invariants() {
        // Edge-buffer routers: every ST flit either crossed a link or
        // ejected, every grant popped one buffered flit, and links are
        // at least one tile long.
        let topo = small_sn();
        let mut sim = Simulator::build(&topo, &SimConfig::default()).unwrap();
        let report = sim.run_synthetic(TrafficPattern::Random, 0.08, 500, 3_000);
        let a = &report.activity;
        assert!(a.crossbar_traversals > 0);
        assert_eq!(a.crossbar_traversals, a.link_flit_hops + a.ejections);
        assert!(a.wire_flit_tiles >= a.link_flit_hops);
        assert_eq!(a.alloc_grants, a.buffer_accesses, "edge: grant == pop");
        assert_eq!(a.buffer_reads, a.buffer_accesses, "edge: read == pop");
        // Reads and writes pair up, modulo flits straddling the window
        // edges (written before the window opens, read after it closes).
        let (reads, writes) = (a.buffer_reads as f64, a.buffer_writes as f64);
        assert!(writes > 0.0);
        assert!(
            (reads - writes).abs() / writes < 0.05,
            "reads {reads} vs writes {writes}"
        );
    }

    #[test]
    fn cbr_activity_counters_satisfy_structural_invariants() {
        let topo = small_sn();
        let mut sim = Simulator::build(&topo, &SimConfig::cbr(20)).unwrap();
        let report = sim.run_synthetic(TrafficPattern::Random, 0.15, 500, 3_000);
        let a = &report.activity;
        assert_eq!(a.crossbar_traversals, a.link_flit_hops + a.ejections);
        assert_eq!(
            a.alloc_grants,
            a.bypasses + a.cb_reads + a.cb_writes,
            "CBR: every grant is a bypass, CB read, or CB write"
        );
        assert_eq!(a.buffer_accesses, 0, "CBR has no edge buffers");
        assert_eq!(a.buffer_reads, a.bypasses + a.cb_writes, "staging takes");
        assert!(a.buffer_writes > 0);
    }

    #[test]
    fn elastic_links_deliver() {
        let topo = small_sn();
        let mut sim = Simulator::build(&topo, &SimConfig::elastic_links()).unwrap();
        let report = sim.run_synthetic(TrafficPattern::Random, 0.05, 500, 3_000);
        assert!(report.drained, "{report}");
        assert!(report.delivered_packets > 100);
    }

    #[test]
    fn smart_reduces_latency_with_layout() {
        use snoc_layout::SnLayout;
        let topo = Topology::slim_noc(5, 4).unwrap();
        let layout = Layout::slim_noc(&topo, SnLayout::Subgroup).unwrap();
        let run = |smart: bool| {
            let cfg = if smart {
                SimConfig::default().with_smart()
            } else {
                SimConfig::default()
            };
            let mut sim = Simulator::build_with_layout(&topo, &layout, &cfg).unwrap();
            sim.run_synthetic(TrafficPattern::Random, 0.03, 1_000, 4_000)
                .avg_packet_latency()
        };
        let no_smart = run(false);
        let smart = run(true);
        assert!(
            smart < no_smart,
            "SMART {smart} must beat no-SMART {no_smart}"
        );
    }

    #[test]
    fn adversarial_pattern_saturates_before_random() {
        let topo = small_sn();
        let run = |pattern| {
            let mut sim = Simulator::build(&topo, &SimConfig::default()).unwrap();
            sim.run_synthetic(pattern, 0.30, 1_000, 3_000)
        };
        let rnd = run(TrafficPattern::Random);
        let adv = run(TrafficPattern::Adversarial1);
        assert!(
            adv.throughput() < rnd.throughput(),
            "ADV1 {} vs RND {}",
            adv.throughput(),
            rnd.throughput()
        );
    }

    #[test]
    fn trace_run_generates_replies() {
        let topo = small_sn();
        let workload = TraceWorkload::by_name("canneal").unwrap();
        let trace = workload.generate(&topo, 3_000, 42);
        let reads = trace.iter().filter(|m| m.kind.expects_reply()).count() as u64;
        let mut sim = Simulator::build(&topo, &SimConfig::default()).unwrap();
        let report = sim.run_trace(&trace, 300);
        assert!(report.drained, "{report}");
        // Replies roughly double the read packet count (only measured
        // packets are counted, so compare loosely).
        assert!(
            report.delivered_packets as f64 > trace.len() as f64 * 0.8,
            "delivered {} of {} trace messages (+{} replies)",
            report.delivered_packets,
            trace.len(),
            reads
        );
    }

    #[test]
    fn gappy_trace_replay_drains() {
        // Gaps far longer than any drain time: the network empties
        // between messages and every one is still delivered.
        let topo = small_sn();
        let nodes = topo.node_count();
        for cfg in [SimConfig::default(), SimConfig::cbr(20)] {
            let trace: Vec<TraceMessage> = (0..12usize)
                .map(|i| TraceMessage {
                    cycle: i as u64 * 3_000,
                    src: NodeId(i * 7 % nodes),
                    dst: NodeId((i * 13 + 1) % nodes),
                    kind: if i % 3 == 0 {
                        MessageKind::ReadRequest
                    } else {
                        MessageKind::WriteRequest
                    },
                })
                .collect();
            let mut sim = Simulator::build(&topo, &cfg).unwrap();
            let report = sim.run_trace(&trace, 0);
            assert!(report.drained, "{report}");
            // 12 messages, 4 of them reads answered by a reply.
            assert_eq!(report.delivered_packets, 16);
            assert_eq!(sim.in_flight_flits(), 0);
            assert!(report.total_cycles > 33_000 && report.total_cycles < 33_100);
        }
    }

    #[test]
    fn ugal_runs_and_delivers() {
        let topo = Topology::slim_noc(3, 3).unwrap();
        for kind in [RoutingKind::UgalL, RoutingKind::UgalG] {
            let cfg = SimConfig::default().with_vcs(4).with_routing(kind);
            let mut sim = Simulator::build(&topo, &cfg).unwrap();
            let report = sim.run_synthetic(TrafficPattern::Random, 0.08, 500, 3_000);
            assert!(report.drained, "{kind:?}: {report}");
            assert!(report.delivered_packets > 100, "{kind:?}");
        }
    }

    #[test]
    fn ugal_takes_nonminimal_paths_under_adversarial_load() {
        // ADV1 on slim_noc(3, 3) maps each router's 3 nodes onto one
        // victim router, so minimal routing caps at 1/3 flit/node/cycle
        // (one shared link); rate 0.60 drives it well past that knee.
        let topo = Topology::slim_noc(3, 3).unwrap();
        let run = |routing| {
            let cfg = SimConfig::default().with_vcs(4).with_routing(routing);
            let mut sim = Simulator::build(&topo, &cfg).unwrap();
            sim.run_synthetic(TrafficPattern::Adversarial1, 0.60, 1_000, 4_000)
        };
        let min = run(RoutingKind::Minimal);
        let ugal_l = run(RoutingKind::UgalL);
        let ugal_g = run(RoutingKind::UgalG);
        // Valiant detours lengthen paths for both UGAL variants.
        for (name, r) in [("UGAL-L", &ugal_l), ("UGAL-G", &ugal_g)] {
            assert!(
                r.avg_hops() > min.avg_hops() + 0.05,
                "{name} hops {} vs MIN hops {} suggests no detours",
                r.avg_hops(),
                min.avg_hops()
            );
        }
        // Only global congestion knowledge converts detours into
        // throughput here: UGAL-L's diverted packets queue behind
        // victim-bound heads in the per-node FIFO injection queues
        // (head-of-line blocking), so on this tiny saturated network it
        // tracks MIN instead of beating it.
        assert!(
            ugal_g.throughput() > min.throughput(),
            "UGAL-G throughput {} should beat MIN {} under adversarial load",
            ugal_g.throughput(),
            min.throughput()
        );
        assert!(
            ugal_l.throughput() > min.throughput() * 0.9,
            "UGAL-L throughput {} collapsed vs MIN {}",
            ugal_l.throughput(),
            min.throughput()
        );
    }

    #[test]
    fn xy_adaptive_on_fbf() {
        let topo = Topology::flattened_butterfly(4, 4, 2);
        let cfg = SimConfig::default().with_routing(RoutingKind::XyAdaptive);
        let mut sim = Simulator::build(&topo, &cfg).unwrap();
        let report = sim.run_synthetic(TrafficPattern::Random, 0.10, 500, 3_000);
        assert!(report.drained, "{report}");
        assert!(report.avg_hops() <= 2.0 + 1e-9);
        // Off a flattened butterfly there is no grid to adapt over.
        let err = Simulator::build(&small_sn(), &cfg).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn variable_rtt_buffers_require_layout() {
        let topo = small_sn();
        assert!(Simulator::build(&topo, &SimConfig::eb_var()).is_err());
        let layout = Layout::natural(&topo);
        assert!(Simulator::build_with_layout(&topo, &layout, &SimConfig::eb_var()).is_ok());
    }

    #[test]
    fn a_table_of_another_wiring_is_refused() {
        // Same router count and the same four ports per router, so only
        // the neighbour lists tell the two tori apart.
        let (topo, other) = (Topology::torus(6, 6, 1), Topology::torus(4, 9, 1));
        let cfg = SimConfig::default();
        let table = |t: &Topology| {
            let table = Arc::new(RoutingTable::minimal(t));
            move || table
        };
        assert!(Simulator::build_with_table(&topo, None, &cfg, table(&topo)).is_ok());
        let err = Simulator::build_with_table(&topo, None, &cfg, table(&other)).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
        let small = table(&Topology::torus(3, 3, 1));
        assert!(Simulator::build_with_table(&topo, None, &cfg, small).is_err());
    }

    #[test]
    fn a_refused_configuration_builds_no_table() {
        let wide = Topology::flattened_butterfly(257, 1, 1);
        let no_table = || -> Arc<RoutingTable> { panic!("a table was built") };
        let err = Simulator::build_with_table(&wide, None, &SimConfig::default(), no_table);
        assert!(err.unwrap_err().to_string().contains("network radix 256"));
        assert!(Simulator::build(&wide, &SimConfig::default()).is_err());
    }

    #[test]
    fn a_central_buffer_past_sixteen_bit_slots_runs() {
        // The central buffer's queues grow with the traffic, so any size
        // the configuration admits builds and runs, at the bytes of a
        // small one.
        let topo = small_sn();
        let small = Simulator::build(&topo, &SimConfig::cbr(20)).unwrap();
        let mut sim = Simulator::build(&topo, &SimConfig::cbr(100_000)).unwrap();
        assert_eq!(sim.footprint(), small.footprint());
        let report = sim.run_synthetic(TrafficPattern::Random, 0.3, 100, 400);
        assert!(report.drained, "{report}");
        assert_eq!(sim.footprint(), small.footprint());
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let topo = small_sn();
        let run = |seed: u64| {
            let cfg = SimConfig::default().with_seed(seed);
            let mut sim = Simulator::build(&topo, &cfg).unwrap();
            sim.run_synthetic(TrafficPattern::Random, 0.05, 500, 2_000)
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn saturation_rejects_excess_offered_load() {
        let topo = small_sn();
        let mut sim = Simulator::build(&topo, &SimConfig::default()).unwrap();
        let report = sim.run_synthetic(TrafficPattern::Random, 0.9, 1_000, 3_000);
        assert!(
            report.acceptance() < 1.0 || !report.drained,
            "0.9 flits/node/cycle must exceed capacity: {report}"
        );
    }

    #[test]
    fn zero_rate_run_ends_on_the_window_boundary() {
        let topo = small_sn();
        let mut sim = Simulator::build(&topo, &SimConfig::default()).unwrap();
        let report = sim.run_synthetic(TrafficPattern::Random, 0.0, 1_000, 50_000);
        assert_eq!(report.total_cycles, 51_000, "nothing to drain");
        assert_eq!(report.delivered_packets, 0);
        assert!(report.drained);
    }

    #[test]
    fn fault_plan_requires_supported_envelope() {
        let topo = small_sn();
        let plan = FaultPlan::storm(&topo, 2, 100, 100, 1);
        let mut cbr = Simulator::build(&topo, &SimConfig::cbr(20)).unwrap();
        assert!(cbr.set_fault_plan(&plan).is_err(), "CBR unsupported");
        let mut elastic = Simulator::build(&topo, &SimConfig::elastic_links()).unwrap();
        assert!(
            elastic.set_fault_plan(&plan).is_err(),
            "elastic unsupported"
        );
        let mut ok = Simulator::build(&topo, &SimConfig::default()).unwrap();
        assert!(ok.set_fault_plan(&plan).is_ok());
        assert!(
            cbr.set_fault_plan(&FaultPlan::default()).is_ok(),
            "the empty plan is fine anywhere"
        );
    }

    #[test]
    fn link_storm_drops_and_self_heals() {
        let topo = small_sn();
        let mut sim = Simulator::build(&topo, &SimConfig::default()).unwrap();
        let plan = FaultPlan::storm(&topo, 8, 1_200, 800, 42);
        sim.set_fault_plan(&plan).unwrap();
        let report = sim.run_synthetic(TrafficPattern::Random, 0.10, 1_000, 4_000);
        assert!(
            report.dropped_packets > 0,
            "a storm under load must catch flits in flight: {report}"
        );
        assert!(report.drained, "self-healed network must drain");
        assert_eq!(
            report.delivered_packets + report.dropped_packets,
            report.injected_packets,
            "extended conservation: delivered + dropped == injected"
        );
        assert_eq!(sim.in_flight_flits(), 0);
        assert!(report.activity.dropped_flits >= report.dropped_packets);
        report.snapshot().check_conservation().unwrap();
    }

    #[test]
    fn faulted_runs_repeat_byte_for_byte_and_conserve() {
        let topo = small_sn();
        let plan = FaultPlan::storm(&topo, 6, 800, 1_500, 9);
        let run = || {
            let mut sim = Simulator::build(&topo, &SimConfig::default()).unwrap();
            sim.set_fault_plan(&plan).unwrap();
            sim.run_synthetic(TrafficPattern::Random, 0.06, 500, 3_000)
        };
        let report = run();
        assert_eq!(report.to_json(), run().to_json(), "same plan, same seed");
        assert!(
            report.dropped_packets > 0,
            "the run actually exercised drops"
        );
        report.snapshot().check_conservation().unwrap();
    }

    #[test]
    fn severed_partition_quiesces_instead_of_wedging() {
        // Cutting the middle link of a 1×3 mesh line strands router 2:
        // everything in flight across the cut dies, later traffic to or
        // from the island is quiesced, and the rest still drains.
        let topo = Topology::mesh(3, 1, 1);
        let mut sim = Simulator::build(&topo, &SimConfig::default()).unwrap();
        let plan = FaultPlan::new(vec![FaultEvent {
            cycle: 600,
            kind: FaultKind::LinkDown {
                a: RouterId(1),
                b: RouterId(2),
            },
        }]);
        sim.set_fault_plan(&plan).unwrap();
        let report = sim.run_synthetic(TrafficPattern::Random, 0.10, 400, 2_000);
        assert!(report.drained, "{report}");
        assert_eq!(
            report.delivered_packets + report.dropped_packets,
            report.injected_packets
        );
        assert_eq!(sim.in_flight_flits(), 0);
        assert!(report.delivered_packets > 0, "0 -- 1 traffic still flows");
    }

    #[test]
    fn router_down_kills_its_traffic_but_the_rest_drains() {
        let topo = small_sn();
        let mut sim = Simulator::build(&topo, &SimConfig::default()).unwrap();
        let plan = FaultPlan::new(vec![FaultEvent {
            cycle: 900,
            kind: FaultKind::RouterDown {
                router: RouterId(4),
            },
        }]);
        sim.set_fault_plan(&plan).unwrap();
        let report = sim.run_synthetic(TrafficPattern::Random, 0.08, 500, 2_500);
        assert!(report.drained, "{report}");
        assert_eq!(
            report.delivered_packets + report.dropped_packets,
            report.injected_packets
        );
        assert_eq!(sim.in_flight_flits(), 0);
        report.snapshot().check_conservation().unwrap();
    }

    #[test]
    fn idle_faults_leave_the_run_on_the_window_boundary() {
        // Fault events on an empty network repair routing but drop
        // nothing, and the run still ends exactly where the window does.
        let topo = small_sn();
        let mut sim = Simulator::build(&topo, &SimConfig::default()).unwrap();
        let plan = FaultPlan::storm(&topo, 3, 10_000, 5_000, 3);
        sim.set_fault_plan(&plan).unwrap();
        let report = sim.run_synthetic(TrafficPattern::Random, 0.0, 1_000, 50_000);
        assert_eq!(report.total_cycles, 51_000);
        assert_eq!(report.dropped_packets, 0);
        assert!(report.drained);
        assert!(
            !report.to_json().contains("dropped"),
            "clean JSON stays clean"
        );
    }
}
