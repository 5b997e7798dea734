//! Router microarchitectures: the 2-stage edge-buffer router and the
//! Central Buffer Router (§4).
//!
//! Port conventions for a router with network radix `k'` and
//! concentration `p`:
//!
//! - **input ports** `0..k'` receive from neighbor routers, ports
//!   `k'..k'+p` are injection ports from local nodes;
//! - **output ports** `0..k'` send to neighbor routers, ports
//!   `k'..k'+p` are ejection ports to local nodes.
//!
//! Both architectures share the output side: a one-entry switch-traversal
//! (ST) register per output port, per-VC wormhole output allocation, and
//! credit counters toward downstream buffers (credited links).
//!
//! # State layout (struct-of-arrays)
//!
//! All hot per-router state is flattened into contiguous arrays indexed
//! by `lane = port * vcs + vc`, with one **occupancy bitmask word per
//! port** (bit `vc` set ⇔ that lane holds at least one flit) and, one
//! level up, a **port mask** over those words (bit `port` set ⇔ the
//! port's word is non-zero, 64 ports per mask word):
//!
//! - edge input buffers are fixed-capacity ring buffers carved out of a
//!   single flat [`FlitRef`] slab ([`EdgeLanes`]);
//! - CBR staging slots, queue masks and open-packet registers are flat
//!   lane arrays ([`CbState`]);
//! - ST registers, wormhole ownership and credit counters are flat
//!   arrays on the shared [`OutputSide`].
//!
//! The allocator scans are driven by the masks, so an allocation call
//! costs what the occupied lanes cost, not what the radix costs: the
//! scans walk the set bits of a port mask (ascending, or rotated from a
//! round-robin pointer by [`ports_from`]) and never visit an empty
//! port, the per-VC scan skips empty lanes without touching the buffer
//! slab, and the edge output-arbitration scratch is persistent — only
//! the outputs a call nominated are visited and reset. Walking set bits
//! in ascending (or rotated) order visits the non-empty ports in the
//! order the all-ports walk met them, so the allocation *algorithm*
//! (round-robin rotations, nomination order, grant order) is unchanged
//! from the array-of-structs layout — results are bit-for-bit
//! identical; only the state representation moved. Nothing derived
//! from a flit or the routing table outlives an allocation call: a
//! lane mid-packet answers from its held route, and a waiting head is
//! read from the arena and routed afresh on every attempt, so a table
//! swap (fault repair) has no router state to flush.
//!
//! All queues and registers hold 4-byte [`FlitRef`] arena indices; the
//! flit payloads live in the simulator's [`FlitArena`], so the hot
//! push/pop paths move indices, not ~64-byte structs.

use crate::config::{LinkMode, RouterArch};
use crate::flit::{Flit, FlitArena, FlitRef};
use crate::routing::{RouteDecision, RoutingTable};
use snoc_topology::RouterId;
use std::collections::VecDeque;

/// "No held route" sentinel for the per-lane route-port arrays.
const NO_ROUTE: u16 = u16::MAX;
/// "No packet" sentinel for the flat wormhole/open-packet arrays
/// (raw [`crate::flit::PacketId`] values; real ids are monotonic from 0
/// and never reach `u64::MAX`).
const NO_PKT: u64 = u64::MAX;

/// A flit sitting in the ST register, ready to traverse the switch onto
/// its output channel in the current cycle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StFlit {
    pub flit: FlitRef,
    pub out_vc: usize,
}

/// CBR packet-path markers for the per-lane `stage_mode` bytes (§4.1).
const MODE_NONE: u8 = 0;
const MODE_BYPASS: u8 = 1;
const MODE_CENTRAL: u8 = 2;

/// A flit parked in the central buffer with its eligibility cycle and
/// its packet id (copied at write time so the CB-read scan checks
/// wormhole ownership without touching the arena).
#[derive(Debug, Clone, Copy)]
struct CbFlit {
    flit: FlitRef,
    pkt: u64,
    eligible_at: u64,
}

/// Edge-buffer input state: every `(port, vc)` lane is a fixed-capacity
/// ring buffer carved out of one flat slab, with a per-port occupancy
/// bitmask word (bit `vc` ⇔ lane non-empty).
#[derive(Debug, Clone)]
struct EdgeLanes {
    /// Flat ring-buffer slab; lane `l` owns `base[l]..base[l]+cap[l]`.
    slots: Vec<FlitRef>,
    /// Slab offset per lane.
    base: Vec<u32>,
    /// Ring capacity per lane (the per-VC buffer depth of its port).
    cap: Vec<u32>,
    /// Ring head index per lane (relative to `base`).
    head: Vec<u16>,
    /// Flits currently in each lane.
    len: Vec<u16>,
    /// Route held from head to tail of the current packet
    /// ([`NO_ROUTE`] = none).
    route_port: Vec<u16>,
    route_vc: Vec<u8>,
    /// Packet holding the lane's route ([`NO_PKT`] = none). The lane can
    /// be momentarily empty while a route is held (bodies still
    /// upstream), so the fault sweep needs the owner recorded here to
    /// release wormhole state of dropped packets.
    route_pkt: Vec<u64>,
    /// Occupancy word per input port — the VC scan skips clear bits
    /// without touching the slab.
    occ: Vec<u64>,
    /// Port-level mask (bit `p` ⇔ `occ[p] != 0`, 64 ports per word):
    /// allocation walks its set bits, so empty ports cost nothing.
    /// Maintained in `push` / `pop` only, which the fault sweep also
    /// goes through.
    port_mask: Vec<u64>,
    /// Precomputed `lane / vcs` and `1 << (lane % vcs)` — `vcs` is a
    /// runtime value, so the per-push/pop occupancy-bit address would
    /// otherwise cost a hardware divide on the hottest datapath.
    occ_port: Vec<u32>,
    occ_bit: Vec<u64>,
}

/// `x % m` for `x < 2 * m` as a compare-and-subtract. The moduli on the
/// allocation paths (`vcs`, port counts, ring capacities) are runtime
/// values, so the compiler cannot strength-reduce `%` — and a hardware
/// divide per round-robin step is measurable at saturation load.
#[inline(always)]
pub(crate) fn fast_wrap(x: usize, m: usize) -> usize {
    debug_assert!(x < 2 * m);
    if x >= m {
        x - m
    } else {
        x
    }
}

/// Sets bit `port` of a port mask (64 ports per word).
#[inline(always)]
fn mask_set(mask: &mut [u64], port: usize) {
    mask[port >> 6] |= 1 << (port & 63);
}

/// Clears bit `port` of a port mask.
#[inline(always)]
fn mask_clear(mask: &mut [u64], port: usize) {
    mask[port >> 6] &= !(1 << (port & 63));
}

/// The set bits of a port mask (64 ports per word) within `lo..hi`, in
/// ascending port order.
struct PortsIn<'a> {
    mask: &'a [u64],
    word: usize,
    /// Unvisited bits of `mask[word]`.
    bits: u64,
    hi: usize,
}

fn ports_in(mask: &[u64], lo: usize, hi: usize) -> PortsIn<'_> {
    let word = lo >> 6;
    let bits = mask.get(word).map_or(0, |w| w & (!0 << (lo & 63)));
    PortsIn {
        mask,
        word,
        bits,
        hi,
    }
}

impl Iterator for PortsIn<'_> {
    type Item = usize;

    #[inline(always)]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.word += 1;
            if self.word << 6 >= self.hi {
                return None;
            }
            self.bits = *self.mask.get(self.word)?;
        }
        let port = (self.word << 6) | self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        (port < self.hi).then_some(port)
    }
}

/// The set bits of a port mask over `ports` ports in round-robin order
/// from `start`: exactly the ports the `fast_wrap(start + i, ports)`
/// walk finds set, in its order.
#[inline(always)]
fn ports_from(
    mask: &[u64],
    start: usize,
    ports: usize,
) -> std::iter::Chain<PortsIn<'_>, PortsIn<'_>> {
    ports_in(mask, start, ports).chain(ports_in(mask, 0, start))
}

/// Decodes a lane's held-route pair ([`NO_ROUTE`] = none).
#[inline(always)]
fn held_route(port: u16, vc: u8) -> Option<RouteDecision> {
    (port != NO_ROUTE).then_some(RouteDecision {
        port: port as usize,
        vc: vc as usize,
    })
}

impl EdgeLanes {
    fn new(in_ports: usize, vcs: usize, capacity: &[usize]) -> Self {
        assert!(vcs <= 64, "occupancy words hold at most 64 VCs");
        let lanes = in_ports * vcs;
        let mut base = Vec::with_capacity(lanes);
        let mut cap = Vec::with_capacity(lanes);
        let mut off: u32 = 0;
        for &c in capacity.iter().take(in_ports) {
            let c = u32::try_from(c).expect("buffer capacity fits u32");
            assert!(c <= u32::from(u16::MAX), "ring indices fit u16");
            for _ in 0..vcs {
                base.push(off);
                cap.push(c);
                off += c;
            }
        }
        EdgeLanes {
            slots: vec![FlitRef::INVALID; off as usize],
            base,
            cap,
            head: vec![0; lanes],
            len: vec![0; lanes],
            route_port: vec![NO_ROUTE; lanes],
            route_vc: vec![0; lanes],
            route_pkt: vec![NO_PKT; lanes],
            occ: vec![0; in_ports],
            port_mask: vec![0; in_ports.div_ceil(64)],
            occ_port: (0..lanes).map(|l| (l / vcs) as u32).collect(),
            occ_bit: (0..lanes).map(|l| 1u64 << (l % vcs)).collect(),
        }
    }

    #[inline(always)]
    fn is_full(&self, lane: usize) -> bool {
        u32::from(self.len[lane]) >= self.cap[lane]
    }

    /// Front of a non-empty lane.
    #[inline(always)]
    fn front(&self, lane: usize) -> FlitRef {
        debug_assert!(self.len[lane] > 0, "front of empty lane");
        self.slots[(self.base[lane] + u32::from(self.head[lane])) as usize]
    }

    /// Appends to a non-full lane and sets its occupancy bit.
    #[inline(always)]
    fn push(&mut self, lane: usize, flit: FlitRef) {
        debug_assert!(!self.is_full(lane), "push into full lane");
        let mut pos = u32::from(self.head[lane]) + u32::from(self.len[lane]);
        if pos >= self.cap[lane] {
            pos -= self.cap[lane];
        }
        self.slots[(self.base[lane] + pos) as usize] = flit;
        self.len[lane] += 1;
        let port = self.occ_port[lane] as usize;
        self.occ[port] |= self.occ_bit[lane];
        mask_set(&mut self.port_mask, port);
    }

    /// Pops the front of a non-empty lane, clearing its occupancy bit
    /// when it empties.
    #[inline(always)]
    fn pop(&mut self, lane: usize) -> FlitRef {
        debug_assert!(self.len[lane] > 0, "pop from empty lane");
        let fr = self.slots[(self.base[lane] + u32::from(self.head[lane])) as usize];
        let next = u32::from(self.head[lane]) + 1;
        self.head[lane] = if next >= self.cap[lane] {
            0
        } else {
            next as u16
        };
        self.len[lane] -= 1;
        if self.len[lane] == 0 {
            let port = self.occ_port[lane] as usize;
            self.occ[port] &= !self.occ_bit[lane];
            if self.occ[port] == 0 {
                mask_clear(&mut self.port_mask, port);
            }
        }
        fr
    }

    /// The route held by a lane's in-flight packet, if any.
    #[inline(always)]
    fn route(&self, lane: usize) -> Option<RouteDecision> {
        held_route(self.route_port[lane], self.route_vc[lane])
    }
}

/// Central-buffer-router input state: single-flit staging slots plus the
/// CB virtual output queues, both lane-indexed with per-port masks.
#[derive(Debug, Clone)]
struct CbState {
    /// Staging slot per input lane ([`FlitRef::INVALID`] = empty).
    stage_slot: Vec<FlitRef>,
    /// Route held from head to tail ([`NO_ROUTE`] = none).
    stage_route_port: Vec<u16>,
    stage_route_vc: Vec<u8>,
    /// Packet path through the CBR per lane ([`MODE_NONE`] /
    /// [`MODE_BYPASS`] / [`MODE_CENTRAL`]).
    stage_mode: Vec<u8>,
    /// Occupied-staging word per input port — the bypass and CB-write
    /// scans skip clear bits within a port.
    stage_occ: Vec<u64>,
    /// Port-level mask over `stage_occ` (bit `p` ⇔ `stage_occ[p] != 0`):
    /// the bypass and CB-write scans walk its set bits.
    stage_ports: Vec<u64>,
    /// Precomputed `lane / vcs` and `1 << (lane % vcs)` (see
    /// [`EdgeLanes::occ_port`]): avoids a hardware divide per staging
    /// take.
    stage_occ_port: Vec<u32>,
    stage_occ_bit: Vec<u64>,
    /// CB virtual output queues, lane-indexed `[out_port * vcs + vc]`.
    queues: Vec<VecDeque<CbFlit>>,
    /// Non-empty-queue word per output port — the bypass ordering check
    /// is one bit test.
    queue_mask: Vec<u64>,
    /// Port-level mask over `queue_mask` (bit `p` ⇔ `queue_mask[p] != 0`):
    /// the CB-read scan walks its set bits.
    queue_ports: Vec<u64>,
    /// Packet currently streaming through each CB queue (head admitted,
    /// tail not yet), [`NO_PKT`] = none. A new head may enter a queue
    /// only when clear — flits of two packets must never interleave
    /// within one queue, or each would deadlock waiting for the other
    /// (§4.3's atomicity requirement).
    open_pkt: Vec<u64>,
    /// Remaining unreserved CB space in flits.
    free: usize,
    /// Round-robin over outputs for the single CB read port.
    rr_read: usize,
    /// Round-robin over inputs for the single CB write port.
    rr_write: usize,
}

impl CbState {
    fn new(in_ports: usize, out_ports: usize, vcs: usize, cb_flits: usize) -> Self {
        assert!(vcs <= 64, "occupancy words hold at most 64 VCs");
        let in_lanes = in_ports * vcs;
        let out_lanes = out_ports * vcs;
        CbState {
            stage_slot: vec![FlitRef::INVALID; in_lanes],
            stage_route_port: vec![NO_ROUTE; in_lanes],
            stage_route_vc: vec![0; in_lanes],
            stage_mode: vec![MODE_NONE; in_lanes],
            stage_occ: vec![0; in_ports],
            stage_ports: vec![0; in_ports.div_ceil(64)],
            stage_occ_port: (0..in_lanes).map(|l| (l / vcs) as u32).collect(),
            stage_occ_bit: (0..in_lanes).map(|l| 1u64 << (l % vcs)).collect(),
            queues: (0..out_lanes).map(|_| VecDeque::new()).collect(),
            queue_mask: vec![0; out_ports],
            queue_ports: vec![0; out_ports.div_ceil(64)],
            open_pkt: vec![NO_PKT; out_lanes],
            free: cb_flits,
            rr_read: 0,
            rr_write: 0,
        }
    }

    /// The route held by a staged packet, if any.
    #[inline(always)]
    fn stage_route(&self, lane: usize) -> Option<RouteDecision> {
        held_route(self.stage_route_port[lane], self.stage_route_vc[lane])
    }

    /// Empties a staging lane, clearing its occupancy bit.
    #[inline(always)]
    fn take_stage(&mut self, lane: usize) -> FlitRef {
        let fr = self.stage_slot[lane];
        debug_assert!(fr.is_valid(), "take from empty staging lane");
        self.stage_slot[lane] = FlitRef::INVALID;
        let port = self.stage_occ_port[lane] as usize;
        self.stage_occ[port] &= !self.stage_occ_bit[lane];
        if self.stage_occ[port] == 0 {
            mask_clear(&mut self.stage_ports, port);
        }
        fr
    }
}

#[derive(Debug, Clone)]
enum ArchState {
    Edge(EdgeLanes),
    Cb(CbState),
}

/// The output side shared by both router architectures: ST registers,
/// wormhole VC ownership, and credit counters — flat arrays with an
/// ST-occupancy bitmask.
#[derive(Debug, Clone)]
struct OutputSide {
    net_ports: usize,
    vcs: usize,
    credited: bool,
    /// ST register per output port (valid iff the `st_mask` bit is set).
    st_flit: Vec<FlitRef>,
    st_vc: Vec<u8>,
    /// Occupied-ST bitmask words over output ports.
    st_mask: Vec<u64>,
    /// Occupied ST registers — `drain_st` returns without scanning
    /// when 0.
    st_live: usize,
    /// Wormhole output-VC allocation per network output lane
    /// (`[out_port * vcs + vc]`, raw packet id, [`NO_PKT`] = free).
    out_pkt: Vec<u64>,
    /// Credits toward downstream per network output lane.
    credits: Vec<u32>,
    /// Round-robin pointer per output port (input selection).
    rr_out: Vec<usize>,
}

impl OutputSide {
    fn new(net_ports: usize, local_ports: usize, vcs: usize, credited: bool) -> Self {
        let out_ports = net_ports + local_ports;
        OutputSide {
            net_ports,
            vcs,
            credited,
            st_flit: vec![FlitRef::INVALID; out_ports],
            st_vc: vec![0; out_ports],
            st_mask: vec![0; out_ports.div_ceil(64)],
            st_live: 0,
            out_pkt: vec![NO_PKT; net_ports * vcs],
            credits: vec![0; net_ports * vcs],
            rr_out: vec![0; out_ports],
        }
    }

    #[inline(always)]
    fn st_occupied(&self, port: usize) -> bool {
        self.st_mask[port >> 6] >> (port & 63) & 1 == 1
    }

    /// Whether output resources are available for `(out_port, out_vc)`
    /// for a flit of packet `pkt` (raw id).
    #[inline(always)]
    fn ready<F: Fn(usize, usize) -> bool>(
        &self,
        out: RouteDecision,
        pkt: u64,
        link_ready: &F,
    ) -> bool {
        // An output granted earlier in this call needs no claim flag of
        // its own: every grant commits into the ST register.
        if self.st_occupied(out.port) {
            return false;
        }
        if out.port >= self.net_ports {
            return true; // ejection: node always consumes
        }
        // Wormhole VC allocation.
        let lane = out.port * self.vcs + out.vc;
        let holder = self.out_pkt[lane];
        if holder != NO_PKT && holder != pkt {
            return false;
        }
        if self.credited {
            self.credits[lane] > 0
        } else {
            link_ready(out.port, out.vc)
        }
    }

    /// Books the departure of `flit` through `out`: updates wormhole
    /// state, credits, the hop counter, and the ST register.
    fn commit(&mut self, out: RouteDecision, flit: FlitRef, arena: &mut FlitArena) {
        if out.port < self.net_ports {
            let f = arena.get_mut(flit);
            let lane = out.port * self.vcs + out.vc;
            if f.kind.is_head() {
                debug_assert_ne!(f.packet.0, NO_PKT, "packet id collides with sentinel");
                self.out_pkt[lane] = f.packet.0;
            }
            if f.kind.is_tail() {
                self.out_pkt[lane] = NO_PKT;
            }
            f.hops += 1;
            if self.credited {
                self.credits[lane] -= 1;
            }
        }
        self.st_live += 1;
        self.st_flit[out.port] = flit;
        self.st_vc[out.port] = out.vc as u8;
        mask_set(&mut self.st_mask, out.port);
    }

    /// Available credits of one port, summed over its VC row.
    fn credit_scan(&self, out_port: usize) -> usize {
        self.credits[out_port * self.vcs..(out_port + 1) * self.vcs]
            .iter()
            .map(|&c| c as usize)
            .sum()
    }
}

/// Computes the route for a flit at router `id`.
#[inline]
fn compute_route(
    id: RouterId,
    net_ports: usize,
    vcs: usize,
    table: &RoutingTable,
    concentration: usize,
    flit: &Flit,
) -> RouteDecision {
    if flit.dst_router == id && (flit.intermediate().is_none() || flit.intermediate_done()) {
        // Eject to the local node's port.
        let local = flit.dst.index() % concentration;
        RouteDecision {
            port: net_ports + local,
            vc: 0,
        }
    } else {
        table.route(id, flit, vcs)
    }
}

/// One router instance.
#[derive(Debug, Clone)]
pub(crate) struct RouterCore {
    pub id: RouterId,
    pub net_ports: usize,
    pub local_ports: usize,
    pub vcs: usize,
    arch: ArchState,
    out: OutputSide,
    /// Round-robin pointer per input port (VC selection).
    rr_in: Vec<usize>,
    /// Flits currently inside the router (buffers, staging, CB queues,
    /// ST registers). `0` means the router is idle and the cycle loop
    /// can skip it entirely.
    live_flits: usize,
    /// Reusable allocation scratch: input nominations.
    scratch_noms: Vec<(usize, usize, RouteDecision)>,
    /// Edge output arbitration: winning nomination index per output
    /// port (`u32::MAX` = none). Persistent and `out_ports` long; an
    /// entry is written only together with its `scratch_touched` bit
    /// and reset as that output is granted, so between allocation calls
    /// every entry reads `u32::MAX`.
    scratch_winner: Vec<u32>,
    /// Edge output arbitration: winning priority per output port, reset
    /// alongside `scratch_winner`.
    scratch_prio: Vec<u32>,
    /// Edge output arbitration: port mask of the outputs nominated in
    /// this call — the grant pass walks (and clears) its set bits.
    scratch_touched: Vec<u64>,
}

/// Resource release information produced by the allocation phase.
/// Owned by the simulator and reused across routers and cycles; `alloc`
/// clears it before filling.
#[derive(Debug, Clone, Default)]
pub(crate) struct AllocResult {
    /// Network input ports whose buffer freed one slot: `(port, vc)` —
    /// the network returns one credit upstream for each.
    pub freed_inputs: Vec<(usize, usize)>,
    /// Injection input ports that freed a slot: `(local_index, vc)`.
    pub freed_injection: Vec<(usize, usize)>,
    /// Number of buffer read+write pairs performed (activity counter).
    pub buffer_accesses: u64,
    /// Number of central-buffer writes (activity counter).
    pub cb_writes: u64,
    /// Number of central-buffer reads (activity counter).
    pub cb_reads: u64,
    /// Flits that took the bypass path this cycle (activity counter).
    pub bypasses: u64,
    /// Successful allocator grants this cycle: edge grants, bypasses,
    /// central-buffer reads and writes (activity counter).
    pub alloc_grants: u64,
    /// Ports the allocator scans visited (work counter): non-empty
    /// input ports on the edge path; CB-read outputs plus bypass and
    /// CB-write inputs on the central-buffer path.
    pub ports_examined: u64,
    /// Occupied lanes those scans inspected (work counter).
    pub lanes_examined: u64,
}

impl AllocResult {
    /// Records the slot input `port` just freed on `vc`.
    fn freed(&mut self, port: usize, vc: usize, net_ports: usize) {
        if port < net_ports {
            self.freed_inputs.push((port, vc));
        } else {
            self.freed_injection.push((port - net_ports, vc));
        }
    }

    /// Resets the result for reuse (keeps the Vec capacities).
    pub(crate) fn clear(&mut self) {
        self.freed_inputs.clear();
        self.freed_injection.clear();
        self.buffer_accesses = 0;
        self.cb_writes = 0;
        self.cb_reads = 0;
        self.bypasses = 0;
        self.alloc_grants = 0;
        self.ports_examined = 0;
        self.lanes_examined = 0;
    }
}

impl RouterCore {
    /// Builds a router. `input_capacity[port]` gives the per-VC buffer
    /// capacity of each network input port (RTT-sized buffers differ per
    /// port); injection ports use `inj_capacity`.
    #[allow(clippy::too_many_arguments)] // one call site, in network assembly
    pub(crate) fn new(
        id: RouterId,
        net_ports: usize,
        local_ports: usize,
        vcs: usize,
        arch: RouterArch,
        link_mode: LinkMode,
        input_capacity: &[usize],
        inj_capacity: usize,
    ) -> Self {
        assert_eq!(input_capacity.len(), net_ports, "one capacity per port");
        let in_ports = net_ports + local_ports;
        let out_ports = net_ports + local_ports;
        let arch = match arch {
            RouterArch::EdgeBuffer => {
                let mut capacity: Vec<usize> = input_capacity.to_vec();
                capacity.extend(std::iter::repeat_n(inj_capacity, local_ports));
                ArchState::Edge(EdgeLanes::new(in_ports, vcs, &capacity))
            }
            RouterArch::CentralBuffer { cb_flits } => {
                ArchState::Cb(CbState::new(in_ports, out_ports, vcs, cb_flits))
            }
        };
        RouterCore {
            id,
            net_ports,
            local_ports,
            vcs,
            arch,
            out: OutputSide::new(net_ports, local_ports, vcs, link_mode == LinkMode::Credited),
            rr_in: vec![0; in_ports],
            live_flits: 0,
            scratch_noms: Vec::with_capacity(in_ports),
            scratch_winner: vec![u32::MAX; out_ports],
            scratch_prio: vec![u32::MAX; out_ports],
            scratch_touched: vec![0; out_ports.div_ceil(64)],
        }
    }

    /// Initializes credit counters for a network output port.
    pub(crate) fn set_credits(&mut self, out_port: usize, per_vc: usize) {
        let per = u32::try_from(per_vc).expect("credit count fits u32");
        let base = out_port * self.vcs;
        for vc in 0..self.vcs {
            self.out.credits[base + vc] = per;
        }
    }

    /// Adds one returned credit.
    pub(crate) fn add_credit(&mut self, out_port: usize, vc: usize) {
        self.out.credits[out_port * self.vcs + vc] += 1;
    }

    /// Whether input `port` can accept a flit on `vc` right now.
    pub(crate) fn can_deliver(&self, port: usize, vc: usize) -> bool {
        match &self.arch {
            ArchState::Edge(lanes) => !lanes.is_full(port * self.vcs + vc),
            ArchState::Cb(cb) => cb.stage_occ[port] >> vc & 1 == 0,
        }
    }

    /// Deposits an arriving flit into input `port`, VC `vc`.
    ///
    /// # Panics
    ///
    /// Panics if the input has no space ([`RouterCore::can_deliver`]).
    pub(crate) fn deliver(&mut self, port: usize, vc: usize, flit: FlitRef, arena: &mut FlitArena) {
        // Valiant bookkeeping: reaching the intermediate re-targets the
        // flit at its true destination.
        let f = arena.get_mut(flit);
        if f.intermediate() == Some(self.id) {
            f.mark_intermediate_done();
        }
        self.live_flits += 1;
        let lane = port * self.vcs + vc;
        match &mut self.arch {
            ArchState::Edge(lanes) => {
                assert!(
                    !lanes.is_full(lane),
                    "input buffer overflow at {} port {port} vc {vc}",
                    self.id
                );
                lanes.push(lane, flit);
            }
            ArchState::Cb(cb) => {
                assert!(
                    cb.stage_occ[port] >> vc & 1 == 0,
                    "staging overflow at {} port {port} vc {vc}",
                    self.id
                );
                cb.stage_slot[lane] = flit;
                cb.stage_occ[port] |= 1 << vc;
                mask_set(&mut cb.stage_ports, port);
            }
        }
    }

    /// Drains the ST registers into `out` (cleared first): the flits
    /// traversing the switch this cycle, by output port. Takes a caller
    /// scratch buffer so the cycle loop allocates nothing.
    pub(crate) fn drain_st(&mut self, out: &mut Vec<(usize, StFlit)>) {
        out.clear();
        if self.out.st_live == 0 {
            return;
        }
        for (w, word) in self.out.st_mask.iter_mut().enumerate() {
            let mut m = *word;
            while m != 0 {
                let port = (w << 6) | m.trailing_zeros() as usize;
                m &= m - 1;
                out.push((
                    port,
                    StFlit {
                        flit: self.out.st_flit[port],
                        out_vc: self.out.st_vc[port] as usize,
                    },
                ));
            }
            *word = 0;
        }
        self.live_flits -= out.len();
        self.out.st_live -= out.len();
    }

    /// Whether the router holds no flits at all (nothing to allocate,
    /// no ST traffic) — idle routers are skipped by the cycle loop.
    pub(crate) fn is_idle(&self) -> bool {
        self.live_flits == 0
    }

    /// Occupancy of an output direction (ST register + consumed credits),
    /// used by adaptive routing as the local congestion signal — read
    /// only when a UGAL/XY packet is created, so it sums the VC row
    /// instead of every flit hop keeping a per-port total.
    pub(crate) fn output_occupancy(&self, out_port: usize, init_credits: usize) -> usize {
        let st = usize::from(self.out.st_occupied(out_port));
        if self.out.credited && out_port < self.net_ports {
            let total = init_credits * self.vcs;
            st + total.saturating_sub(self.out.credit_scan(out_port))
        } else {
            st
        }
    }

    /// Total flits buffered inside the router (drain detection). O(1):
    /// maintained as a counter by `deliver` / `drain_st`.
    pub(crate) fn buffered_flits(&self) -> usize {
        debug_assert_eq!(
            self.live_flits,
            self.recount_flits(),
            "live-flit counter drifted at {}",
            self.id
        );
        self.live_flits
    }

    /// Slow recount of every flit inside the router — the ground truth
    /// for the `live_flits` counter (debug assertions only).
    fn recount_flits(&self) -> usize {
        let inside: usize = match &self.arch {
            ArchState::Edge(lanes) => lanes.len.iter().map(|&n| n as usize).sum(),
            ArchState::Cb(cb) => {
                let s = cb.stage_slot.iter().filter(|s| s.is_valid()).count();
                let q: usize = cb.queues.iter().map(VecDeque::len).sum();
                s + q
            }
        };
        inside + self.out.st_live
    }

    /// The allocation phase. `link_ready(out_port, vc)` reports whether
    /// the outgoing channel can accept a flit next cycle (elastic mode;
    /// credited mode uses the internal credit counters). `result` is a
    /// caller-owned scratch cleared and refilled here, so the cycle loop
    /// performs no per-router allocation. `arena` resolves the buffered
    /// [`FlitRef`]s (and records the hop on departing flits).
    ///
    /// Generic over the link-readiness predicate, so the network's
    /// closure inlines instead of dispatching through a vtable.
    pub(crate) fn alloc_into<F: Fn(usize, usize) -> bool>(
        &mut self,
        now: u64,
        table: &RoutingTable,
        concentration: usize,
        arena: &mut FlitArena,
        link_ready: &F,
        result: &mut AllocResult,
    ) {
        result.clear();
        match &self.arch {
            ArchState::Edge(_) => {
                self.alloc_edge(table, concentration, arena, link_ready, result);
            }
            ArchState::Cb(_) => {
                self.alloc_cb(now, table, concentration, arena, link_ready, result);
            }
        }
    }

    /// Allocation returning a fresh result (test convenience).
    #[cfg(test)]
    pub(crate) fn alloc<F: Fn(usize, usize) -> bool>(
        &mut self,
        now: u64,
        table: &RoutingTable,
        concentration: usize,
        arena: &mut FlitArena,
        link_ready: &F,
    ) -> AllocResult {
        let mut result = AllocResult::default();
        self.alloc_into(now, table, concentration, arena, link_ready, &mut result);
        result
    }

    fn alloc_edge<F: Fn(usize, usize) -> bool>(
        &mut self,
        table: &RoutingTable,
        concentration: usize,
        arena: &mut FlitArena,
        link_ready: &F,
        result: &mut AllocResult,
    ) {
        let id = self.id;
        let net_ports = self.net_ports;
        let vcs = self.vcs;
        let in_ports = net_ports + self.local_ports;
        let out_ports = in_ports;
        let nominations = &mut self.scratch_noms;
        nominations.clear();
        let winner = &mut self.scratch_winner;
        let best = &mut self.scratch_prio;
        let touched = &mut self.scratch_touched;
        let ArchState::Edge(lanes) = &mut self.arch else {
            unreachable!()
        };
        let out = &mut self.out;
        let rr_in = &mut self.rr_in;
        // Pass 1 (input arbitration): each non-empty input port, in
        // ascending order, nominates one VC. The port mask drives the
        // walk — empty ports are never visited — and the occupancy word
        // skips clear bits without touching the ring slab. A lane
        // mid-packet answers from its held route; otherwise the front
        // flit is a head, read from the arena and routed here.
        for port in ports_in(&lanes.port_mask, 0, in_ports) {
            result.ports_examined += 1;
            let occ = lanes.occ[port];
            let start = rr_in[port];
            for i in 0..vcs {
                let vc = fast_wrap(start + i, vcs);
                if occ >> vc & 1 == 0 {
                    continue;
                }
                result.lanes_examined += 1;
                let lane = port * vcs + vc;
                let (route, pkt) = match lanes.route(lane) {
                    Some(held) => {
                        debug_assert_eq!(
                            arena.get(lanes.front(lane)).packet.0,
                            lanes.route_pkt[lane],
                            "held route outlived its packet at {id} port {port} vc {vc}",
                        );
                        (held, lanes.route_pkt[lane])
                    }
                    None => {
                        let head = arena.get(lanes.front(lane));
                        let route = compute_route(id, net_ports, vcs, table, concentration, head);
                        (route, head.packet.0)
                    }
                };
                if out.ready(route, pkt, link_ready) {
                    nominations.push((port, vc, route));
                    break;
                }
            }
        }
        // Pass 2 (output arbitration): pick, per output port, the
        // nomination with the lowest round-robin priority. Priorities
        // are injective per output (distinct input ports map to distinct
        // values mod `out_ports`), so this selects exactly the entry the
        // former stable sort by `(output, priority)` put first — and
        // granting outputs in ascending order reproduces the sorted
        // grant sequence bit-for-bit, without the O(n log n) sort that
        // dominated the saturated-load profile. Only nominated outputs
        // are visited: `touched` records them, and walking its set bits
        // ascending is the same order as walking every `winner` slot.
        for (i, &(port, _, route)) in nominations.iter().enumerate() {
            // `rr_out` entries stay `< out_ports` by construction, so
            // the dividend is `< 2 * out_ports` and the round-robin
            // distance needs no hardware divide.
            let prio = fast_wrap(port + out_ports - out.rr_out[route.port], out_ports) as u32;
            if prio < best[route.port] {
                best[route.port] = prio;
                winner[route.port] = i as u32;
                mask_set(touched, route.port);
            }
        }
        for (w, word) in touched.iter_mut().enumerate() {
            let mut m = std::mem::take(word);
            while m != 0 {
                let out_port = (w << 6) | m.trailing_zeros() as usize;
                m &= m - 1;
                let won = std::mem::replace(&mut winner[out_port], u32::MAX);
                best[out_port] = u32::MAX;
                let (port, vc, route) = nominations[won as usize];
                debug_assert_eq!(route.port, out_port, "winner slot of another output");
                debug_assert!(!out.st_occupied(route.port), "nominated an occupied ST");
                let lane = port * vcs + vc;
                let fr = lanes.pop(lane);
                let f = arena.get(fr);
                let kind = f.kind;
                if kind.is_head() {
                    lanes.route_port[lane] = route.port as u16;
                    lanes.route_vc[lane] = route.vc as u8;
                    lanes.route_pkt[lane] = f.packet.0;
                }
                if kind.is_tail() {
                    lanes.route_port[lane] = NO_ROUTE;
                    lanes.route_pkt[lane] = NO_PKT;
                }
                rr_in[port] = fast_wrap(vc + 1, vcs);
                out.rr_out[route.port] = fast_wrap(port + 1, in_ports);
                result.buffer_accesses += 1;
                result.alloc_grants += 1;
                result.freed(port, vc, net_ports);
                out.commit(route, fr, arena);
            }
        }
    }

    fn alloc_cb<F: Fn(usize, usize) -> bool>(
        &mut self,
        now: u64,
        table: &RoutingTable,
        concentration: usize,
        arena: &mut FlitArena,
        link_ready: &F,
        result: &mut AllocResult,
    ) {
        let id = self.id;
        let net_ports = self.net_ports;
        let vcs = self.vcs;
        let in_ports = net_ports + self.local_ports;
        let out_ports = in_ports;
        let nominations = &mut self.scratch_noms;
        nominations.clear();
        let ArchState::Cb(cb) = &mut self.arch else {
            unreachable!()
        };
        let out = &mut self.out;
        let rr_in = &mut self.rr_in;

        // Phase A1: the single CB read port serves one eligible flit,
        // round-robin over the outputs with a non-empty CB queue.
        'read: for out_port in ports_from(&cb.queue_ports, cb.rr_read, out_ports) {
            result.ports_examined += 1;
            let mask = cb.queue_mask[out_port];
            for vc in 0..vcs {
                if mask >> vc & 1 == 0 {
                    continue;
                }
                result.lanes_examined += 1;
                let lane = out_port * vcs + vc;
                let candidate = cb.queues[lane]
                    .front()
                    .filter(|c| c.eligible_at <= now)
                    .map(|c| (c.flit, c.pkt));
                let Some((fr, pkt)) = candidate else { continue };
                let route = RouteDecision { port: out_port, vc };
                if out.ready(route, pkt, link_ready) {
                    cb.queues[lane].pop_front();
                    if cb.queues[lane].is_empty() {
                        cb.queue_mask[out_port] &= !(1 << vc);
                        if cb.queue_mask[out_port] == 0 {
                            mask_clear(&mut cb.queue_ports, out_port);
                        }
                    }
                    cb.free += 1;
                    cb.rr_read = fast_wrap(out_port + 1, out_ports);
                    result.cb_reads += 1;
                    result.alloc_grants += 1;
                    out.commit(route, fr, arena);
                    break 'read;
                }
            }
        }

        // Phase A2: bypass — staging heads go straight for the outputs
        // (an output the read phase just took shows as an occupied ST).
        for port in ports_in(&cb.stage_ports, 0, in_ports) {
            result.ports_examined += 1;
            let occ = cb.stage_occ[port];
            let start = rr_in[port];
            for i in 0..vcs {
                let vc = fast_wrap(start + i, vcs);
                if occ >> vc & 1 == 0 {
                    continue;
                }
                result.lanes_examined += 1;
                let lane = port * vcs + vc;
                // A packet committed to the CB keeps using it (atomic CB
                // allocation, §4.3); others try the bypass.
                if cb.stage_mode[lane] == MODE_CENTRAL {
                    continue;
                }
                let f = arena.get(cb.stage_slot[lane]);
                let route = cb
                    .stage_route(lane)
                    .unwrap_or_else(|| compute_route(id, net_ports, vcs, table, concentration, f));
                // Ordering: a *head* never bypasses a non-empty CB queue
                // for the same (output, VC) — packets on a VC stay in
                // order. Body flits of an in-flight bypass packet are
                // exempt: they already hold the output VC, and a queued
                // CB packet cannot use it until their tail passes, so
                // blocking them would deadlock the router.
                let queue_blocked = f.kind.is_head()
                    && route.port < out_ports
                    && cb.queue_mask[route.port] >> route.vc & 1 == 1;
                if !queue_blocked && out.ready(route, f.packet.0, link_ready) {
                    nominations.push((port, vc, route));
                    break;
                }
            }
        }
        for &(port, vc, route) in nominations.iter() {
            if out.st_occupied(route.port) {
                continue; // an earlier nomination won this output
            }
            let lane = port * vcs + vc;
            let fr = cb.take_stage(lane);
            let kind = arena.get(fr).kind;
            if kind.is_head() {
                cb.stage_route_port[lane] = route.port as u16;
                cb.stage_route_vc[lane] = route.vc as u8;
                cb.stage_mode[lane] = MODE_BYPASS;
            }
            if kind.is_tail() {
                cb.stage_route_port[lane] = NO_ROUTE;
                cb.stage_mode[lane] = MODE_NONE;
            }
            rr_in[port] = fast_wrap(vc + 1, vcs);
            result.bypasses += 1;
            result.alloc_grants += 1;
            result.freed(port, vc, net_ports);
            out.commit(route, fr, arena);
        }

        // Phase B: the single CB write port admits one flit from
        // staging, round-robin over the inputs with an occupied slot.
        'write: for port in ports_from(&cb.stage_ports, cb.rr_write, in_ports) {
            result.ports_examined += 1;
            let occ = cb.stage_occ[port];
            for vc in 0..vcs {
                if occ >> vc & 1 == 0 {
                    continue;
                }
                result.lanes_examined += 1;
                let lane = port * vcs + vc;
                let f = arena.get(cb.stage_slot[lane]);
                let route = cb
                    .stage_route(lane)
                    .unwrap_or_else(|| compute_route(id, net_ports, vcs, table, concentration, f));
                let kind = f.kind;
                let pkt = f.packet.0;
                let plen = f.packet_len as usize;
                // Heads divert to the CB only if the whole packet fits
                // (atomic allocation) and no other packet is still
                // streaming through the target queue; bodies follow
                // their head.
                let admit = match cb.stage_mode[lane] {
                    MODE_CENTRAL => true,
                    MODE_BYPASS => false,
                    _ => {
                        kind.is_head()
                            && cb.free >= plen
                            && route.port < out_ports
                            && cb.open_pkt[route.port * vcs + route.vc] == NO_PKT
                    }
                };
                if !admit || route.port >= out_ports {
                    continue;
                }
                let out_lane = route.port * vcs + route.vc;
                let fr = cb.take_stage(lane);
                if kind.is_head() {
                    cb.stage_route_port[lane] = route.port as u16;
                    cb.stage_route_vc[lane] = route.vc as u8;
                    cb.stage_mode[lane] = MODE_CENTRAL;
                    cb.free -= plen;
                    cb.open_pkt[out_lane] = pkt;
                }
                if kind.is_tail() {
                    cb.stage_route_port[lane] = NO_ROUTE;
                    cb.stage_mode[lane] = MODE_NONE;
                    cb.open_pkt[out_lane] = NO_PKT;
                }
                // The buffered path adds two cycles over the bypass.
                cb.queues[out_lane].push_back(CbFlit {
                    flit: fr,
                    pkt,
                    eligible_at: now + 2,
                });
                cb.queue_mask[route.port] |= 1 << route.vc;
                mask_set(&mut cb.queue_ports, route.port);
                cb.rr_write = fast_wrap(port + 1, in_ports);
                result.cb_writes += 1;
                result.alloc_grants += 1;
                result.freed(port, vc, net_ports);
                break 'write;
            }
        }
    }
}

impl RouterCore {
    /// Verifies every derived SoA structure against its ground truth:
    /// occupancy words vs lane contents, port masks vs occupancy words,
    /// the ST mask vs the ST-live counter, and the arbitration scratch
    /// being at rest. Used
    /// by the shadow-model property suite; panics on any drift.
    #[cfg(test)]
    pub(crate) fn verify_soa_invariants(&self) {
        let in_ports = self.net_ports + self.local_ports;
        // Bit `p` of a port mask ⇔ word `p` is non-zero.
        let assert_port_mask = |mask: &[u64], words: &[u64], what: &str| {
            assert_eq!(mask.len(), words.len().div_ceil(64), "{what} mask length");
            for (port, &word) in words.iter().enumerate() {
                assert_eq!(
                    mask[port >> 6] >> (port & 63) & 1 == 1,
                    word != 0,
                    "{what} port mask drifted at {} port {port}",
                    self.id
                );
            }
            let set: u32 = mask.iter().map(|w| w.count_ones()).sum();
            let nonzero = words.iter().filter(|&&w| w != 0).count();
            assert_eq!(set as usize, nonzero, "{what} port mask has stray bits");
        };
        assert!(
            self.scratch_winner.iter().all(|&w| w == u32::MAX)
                && self.scratch_prio.iter().all(|&p| p == u32::MAX)
                && self.scratch_touched.iter().all(|&w| w == 0),
            "arbitration scratch not reset at {}",
            self.id
        );
        assert_eq!(self.scratch_winner.len(), in_ports);
        assert_eq!(self.scratch_prio.len(), in_ports);
        match &self.arch {
            ArchState::Edge(lanes) => {
                for port in 0..in_ports {
                    let mut word = 0u64;
                    for vc in 0..self.vcs {
                        if lanes.len[port * self.vcs + vc] > 0 {
                            word |= 1 << vc;
                        }
                    }
                    assert_eq!(
                        word, lanes.occ[port],
                        "edge occupancy word drifted at {} port {port}",
                        self.id
                    );
                }
                assert_port_mask(&lanes.port_mask, &lanes.occ, "edge");
                for lane in 0..in_ports * self.vcs {
                    assert_eq!(
                        lanes.route_port[lane] == NO_ROUTE,
                        lanes.route_pkt[lane] == NO_PKT,
                        "route holder drifted at lane {lane} of {}",
                        self.id
                    );
                }
            }
            ArchState::Cb(cb) => {
                for port in 0..in_ports {
                    let mut word = 0u64;
                    for vc in 0..self.vcs {
                        if cb.stage_slot[port * self.vcs + vc].is_valid() {
                            word |= 1 << vc;
                        }
                    }
                    assert_eq!(
                        word, cb.stage_occ[port],
                        "staging occupancy word drifted at {} port {port}",
                        self.id
                    );
                }
                assert_port_mask(&cb.stage_ports, &cb.stage_occ, "staging");
                for out_port in 0..in_ports {
                    let mut word = 0u64;
                    for vc in 0..self.vcs {
                        if !cb.queues[out_port * self.vcs + vc].is_empty() {
                            word |= 1 << vc;
                        }
                    }
                    assert_eq!(
                        word, cb.queue_mask[out_port],
                        "CB queue mask drifted at {} out port {out_port}",
                        self.id
                    );
                }
                assert_port_mask(&cb.queue_ports, &cb.queue_mask, "CB queue");
            }
        }
        let st_count: usize = self
            .out
            .st_mask
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        assert_eq!(
            st_count, self.out.st_live,
            "ST mask/live counter drifted at {}",
            self.id
        );
        assert_eq!(
            self.live_flits,
            self.recount_flits(),
            "live-flit counter drifted at {}",
            self.id
        );
    }

    /// Fault scan: reports the packet id of every wormhole commitment
    /// toward a network output port whose channel `dead_out` declares
    /// dead — held lane routes, occupied ST registers, and output-VC
    /// ownership. Those packets are pinned to the dead channel and must
    /// be dropped whole (wormhole routes never re-route mid-packet).
    pub(crate) fn stuck_packets<F: FnMut(usize) -> bool>(
        &self,
        arena: &FlitArena,
        mut dead_out: F,
        out: &mut Vec<u64>,
    ) {
        let ArchState::Edge(lanes) = &self.arch else {
            unreachable!("fault sweeps run on the edge-buffer datapath only")
        };
        for lane in 0..lanes.route_port.len() {
            let p = lanes.route_port[lane];
            if p != NO_ROUTE && (p as usize) < self.net_ports && dead_out(p as usize) {
                out.push(lanes.route_pkt[lane]);
            }
        }
        for port in 0..self.net_ports {
            if self.out.st_occupied(port) && dead_out(port) {
                out.push(arena.get(self.out.st_flit[port]).packet.0);
            }
        }
        for lane in 0..self.net_ports * self.vcs {
            let holder = self.out.out_pkt[lane];
            if holder != NO_PKT && dead_out(lane / self.vcs) {
                out.push(holder);
            }
        }
    }

    /// Fault scan: visits every flit buffered in this router. ST flits
    /// report the network output port they are about to cross
    /// (`Some(port)`); everything else reports `None`.
    pub(crate) fn scan_flits<V: FnMut(FlitRef, Option<usize>)>(&self, mut visit: V) {
        let ArchState::Edge(lanes) = &self.arch else {
            unreachable!("fault sweeps run on the edge-buffer datapath only")
        };
        for lane in 0..lanes.len.len() {
            for i in 0..u32::from(lanes.len[lane]) {
                let mut pos = u32::from(lanes.head[lane]) + i;
                if pos >= lanes.cap[lane] {
                    pos -= lanes.cap[lane];
                }
                visit(lanes.slots[(lanes.base[lane] + pos) as usize], None);
            }
        }
        for port in 0..self.net_ports + self.local_ports {
            if self.out.st_occupied(port) {
                visit(
                    self.out.st_flit[port],
                    (port < self.net_ports).then_some(port),
                );
            }
        }
    }

    /// Fault sweep: removes every flit whose packet satisfies `drop_pkt`
    /// from the input lanes and ST registers (appending the released
    /// flits to `removed`), and clears the wormhole state — held lane
    /// routes and output-VC ownership — those packets owned. Survivors
    /// keep their order. Credits are *not* touched here: the network
    /// recomputes every alive channel's credit counters from ground
    /// truth after sweeping.
    pub(crate) fn sweep_faults<D: FnMut(u64) -> bool>(
        &mut self,
        arena: &mut FlitArena,
        mut drop_pkt: D,
        removed: &mut Vec<Flit>,
    ) {
        let vcs = self.vcs;
        let net_ports = self.net_ports;
        let ArchState::Edge(lanes) = &mut self.arch else {
            unreachable!("fault sweeps run on the edge-buffer datapath only")
        };
        let mut dropped_here = 0usize;
        let mut kept: Vec<FlitRef> = Vec::new();
        for lane in 0..lanes.len.len() {
            let n = lanes.len[lane];
            if n > 0 {
                kept.clear();
                for _ in 0..n {
                    let fr = lanes.pop(lane);
                    if drop_pkt(arena.get(fr).packet.0) {
                        removed.push(arena.remove(fr));
                        dropped_here += 1;
                    } else {
                        kept.push(fr);
                    }
                }
                for &fr in &kept {
                    lanes.push(lane, fr);
                }
            }
            if lanes.route_port[lane] != NO_ROUTE && drop_pkt(lanes.route_pkt[lane]) {
                lanes.route_port[lane] = NO_ROUTE;
                lanes.route_pkt[lane] = NO_PKT;
            }
        }
        for port in 0..net_ports + self.local_ports {
            if self.out.st_occupied(port) {
                let fr = self.out.st_flit[port];
                if drop_pkt(arena.get(fr).packet.0) {
                    removed.push(arena.remove(fr));
                    self.out.st_flit[port] = FlitRef::INVALID;
                    mask_clear(&mut self.out.st_mask, port);
                    self.out.st_live -= 1;
                    dropped_here += 1;
                }
            }
        }
        for lane in 0..net_ports * vcs {
            if self.out.out_pkt[lane] != NO_PKT && drop_pkt(self.out.out_pkt[lane]) {
                self.out.out_pkt[lane] = NO_PKT;
            }
        }
        self.live_flits -= dropped_here;
    }

    /// Fault support: overwrites one output lane's credit counter with a
    /// ground-truth recount.
    pub(crate) fn set_lane_credits(&mut self, out_port: usize, vc: usize, value: usize) {
        self.out.credits[out_port * self.vcs + vc] =
            u32::try_from(value).expect("credit count fits u32");
    }

    /// Whether the ST register of `out_port` holds a flit bound for
    /// output VC `vc` — that flit has already consumed a credit, so the
    /// fault-time credit recount must account for it.
    pub(crate) fn st_holds(&self, out_port: usize, vc: usize) -> bool {
        self.out.st_occupied(out_port) && self.out.st_vc[out_port] as usize == vc
    }

    /// Flits buffered in one input lane (CBR: staging-slot occupancy as
    /// 0/1).
    pub(crate) fn lane_len(&self, port: usize, vc: usize) -> usize {
        match &self.arch {
            ArchState::Edge(lanes) => lanes.len[port * self.vcs + vc] as usize,
            ArchState::Cb(cb) => usize::from(cb.stage_slot[port * self.vcs + vc].is_valid()),
        }
    }

    /// The raw occupancy word of one input port (test introspection).
    #[cfg(test)]
    pub(crate) fn occupancy_word(&self, port: usize) -> u64 {
        match &self.arch {
            ArchState::Edge(lanes) => lanes.occ[port],
            ArchState::Cb(cb) => cb.stage_occ[port],
        }
    }

    /// Available credits on one output lane (test introspection).
    #[cfg(test)]
    pub(crate) fn credit(&self, out_port: usize, vc: usize) -> usize {
        self.out.credits[out_port * self.vcs + vc] as usize
    }

    /// Occupied ST registers (test introspection).
    #[cfg(test)]
    pub(crate) fn st_count(&self) -> usize {
        self.out.st_live
    }
}

#[cfg(test)]
mod soa_props;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, PacketId};
    use snoc_topology::{NodeId, Topology};

    fn table() -> (Topology, RoutingTable) {
        let t = Topology::mesh(3, 1, 1);
        let table = RoutingTable::minimal(&t);
        (t, table)
    }

    fn head_to(dst_router: usize, len: u32) -> Flit {
        Flit::packet(
            PacketId(1),
            NodeId(0),
            NodeId(dst_router),
            RouterId(dst_router),
            len,
            0,
            true,
            false,
        )[0]
    }

    fn edge_router(net_ports: usize) -> RouterCore {
        let caps = vec![5; net_ports];
        let mut r = RouterCore::new(
            RouterId(0),
            net_ports,
            1,
            2,
            RouterArch::EdgeBuffer,
            LinkMode::Credited,
            &caps,
            20,
        );
        for p in 0..net_ports {
            r.set_credits(p, 5);
        }
        r
    }

    /// Drains the ST registers through the scratch-buffer path (the same
    /// path the cycle loop uses).
    fn take_st(r: &mut RouterCore) -> Vec<(usize, StFlit)> {
        let mut out = Vec::new();
        r.drain_st(&mut out);
        out
    }

    #[test]
    fn edge_router_two_cycle_path() {
        // Router 0 of a 3x1 mesh: one network port (to router 1).
        let (_t, table) = table();
        let mut arena = FlitArena::default();
        let mut r = edge_router(1);
        let f = arena.insert(head_to(2, 1));
        // Inject via the local port.
        r.deliver(1, 0, f, &mut arena);
        let res = r.alloc(0, &table, 1, &mut arena, &|_, _| true);
        assert_eq!(res.freed_injection.len(), 1);
        let st = take_st(&mut r);
        assert_eq!(st.len(), 1);
        assert_eq!(st[0].0, 0, "departs through the network port");
        assert_eq!(arena.get(st[0].1.flit).hops, 1, "hop counted at departure");
    }

    #[test]
    fn edge_router_respects_credits() {
        let (_t, table) = table();
        let mut arena = FlitArena::default();
        let mut r = edge_router(1);
        r.set_credits(0, 0); // no downstream space
        let f = arena.insert(head_to(2, 1));
        r.deliver(1, 0, f, &mut arena);
        let res = r.alloc(0, &table, 1, &mut arena, &|_, _| true);
        assert!(res.freed_injection.is_empty(), "blocked without credits");
        assert!(take_st(&mut r).is_empty());
        r.add_credit(0, 0);
        let res = r.alloc(1, &table, 1, &mut arena, &|_, _| true);
        assert_eq!(res.freed_injection.len(), 1);
    }

    #[test]
    fn edge_router_ejects_local_traffic() {
        let (_t, table) = table();
        let mut arena = FlitArena::default();
        let mut r = edge_router(1);
        // Destination is router 0 itself -> ejection port (index 1).
        let f = arena.insert(head_to(0, 1));
        r.deliver(0, 0, f, &mut arena);
        let res = r.alloc(0, &table, 1, &mut arena, &|_, _| true);
        assert_eq!(res.freed_inputs, vec![(0, 0)]);
        let st = take_st(&mut r);
        assert_eq!(st[0].0, 1, "ejection port");
        assert_eq!(
            arena.get(st[0].1.flit).hops,
            0,
            "ejection is not a network hop"
        );
    }

    #[test]
    fn wormhole_blocks_interleaving_on_same_vc() {
        let (_t, table) = table();
        let mut arena = FlitArena::default();
        let mut r = edge_router(1);
        // Two packets on different input ports, both to router 2, VC0.
        let a = Flit::packet(
            PacketId(7),
            NodeId(0),
            NodeId(2),
            RouterId(2),
            2,
            0,
            true,
            false,
        );
        let b = Flit::packet(
            PacketId(8),
            NodeId(0),
            NodeId(2),
            RouterId(2),
            2,
            0,
            true,
            false,
        );
        let a0 = arena.insert(a[0]);
        let a1 = arena.insert(a[1]);
        let b0 = arena.insert(b[0]);
        r.deliver(1, 0, a0, &mut arena);
        r.deliver(1, 1, b0, &mut arena); // other VC of the injection port
                                         // Head A wins the output VC0; head B (routed to VC0 as well,
                                         // hops = 0) must wait until A's tail passes.
        let _ = r.alloc(0, &table, 1, &mut arena, &|_, _| true);
        let st = take_st(&mut r);
        assert_eq!(st.len(), 1);
        assert_eq!(arena.get(st[0].1.flit).packet, PacketId(7));
        // B still blocked: output VC0 held by packet 7.
        r.deliver(1, 0, a1, &mut arena); // A's tail
        let _ = r.alloc(1, &table, 1, &mut arena, &|_, _| true);
        let st = take_st(&mut r);
        assert_eq!(st.len(), 1);
        assert_eq!(arena.get(st[0].1.flit).packet, PacketId(7), "tail first");
        // Tail released the VC: B may now go.
        let _ = r.alloc(2, &table, 1, &mut arena, &|_, _| true);
        let st = take_st(&mut r);
        assert_eq!(arena.get(st[0].1.flit).packet, PacketId(8));
    }

    fn cb_router(net_ports: usize, cb: usize) -> RouterCore {
        let caps = vec![1; net_ports];
        RouterCore::new(
            RouterId(0),
            net_ports,
            1,
            2,
            RouterArch::CentralBuffer { cb_flits: cb },
            LinkMode::Elastic,
            &caps,
            20,
        )
    }

    #[test]
    fn cbr_bypass_is_fast_path() {
        let (_t, table) = table();
        let mut arena = FlitArena::default();
        let mut r = cb_router(1, 20);
        let f = arena.insert(head_to(2, 1));
        r.deliver(1, 0, f, &mut arena);
        let res = r.alloc(0, &table, 1, &mut arena, &|_, _| true);
        assert_eq!(res.bypasses, 1);
        assert_eq!(res.cb_writes, 0);
        assert_eq!(take_st(&mut r).len(), 1);
    }

    #[test]
    fn cbr_conflict_diverts_to_central_buffer() {
        let (_t, table) = table();
        let mut arena = FlitArena::default();
        let mut r = cb_router(1, 20);
        // Two single-flit packets racing for the same output.
        let f = arena.insert(head_to(2, 1));
        r.deliver(1, 0, f, &mut arena);
        let mut other = head_to(2, 1);
        other.packet = PacketId(9);
        let other = arena.insert(other);
        r.deliver(0, 0, other, &mut arena);
        let res = r.alloc(0, &table, 1, &mut arena, &|_, _| true);
        // One bypasses; the other is written into the CB.
        assert_eq!(res.bypasses, 1);
        assert_eq!(res.cb_writes, 1);
        assert_eq!(take_st(&mut r).len(), 1);
        // The CB flit becomes eligible two cycles later (4-cycle path).
        let res = r.alloc(1, &table, 1, &mut arena, &|_, _| true);
        assert_eq!(res.cb_reads, 0, "not yet eligible");
        let res = r.alloc(2, &table, 1, &mut arena, &|_, _| true);
        assert_eq!(res.cb_reads, 1);
        assert_eq!(take_st(&mut r).len(), 1);
    }

    #[test]
    fn cbr_atomic_allocation_requires_full_packet_space() {
        let (_t, table) = table();
        let mut arena = FlitArena::default();
        let mut r = cb_router(1, 6);
        // Fill the output so the bypass fails, with a 6-flit packet
        // already reserving the whole CB.
        let p1 = Flit::packet(
            PacketId(1),
            NodeId(0),
            NodeId(2),
            RouterId(2),
            6,
            0,
            true,
            false,
        );
        let p1_head = arena.insert(p1[0]);
        r.deliver(1, 0, p1_head, &mut arena);
        let mut blocker = head_to(2, 1);
        blocker.packet = PacketId(2);
        let blocker = arena.insert(blocker);
        r.deliver(0, 0, blocker, &mut arena);
        let res = r.alloc(0, &table, 1, &mut arena, &|_, _| true);
        // Blocker (or p1) bypasses; the other head wants the CB. The
        // 6-flit head reserves all 6 slots; a later head must stall.
        assert_eq!(res.bypasses + res.cb_writes, 2);
        let mut third = head_to(2, 2);
        third.packet = PacketId(3);
        third.kind = FlitKind::Head;
        third.packet_len = 2;
        let third = arena.insert(third);
        r.deliver(0, 0, third, &mut arena);
        let res = r.alloc(1, &table, 1, &mut arena, &|_, _| false);
        // Output refuses (link not ready) and the CB is fully reserved:
        // the third head can neither bypass nor enter the CB.
        assert_eq!(res.bypasses, 0);
        assert_eq!(res.cb_writes, 0);
    }

    #[test]
    fn buffered_flit_accounting() {
        let (_t, table) = table();
        let mut arena = FlitArena::default();
        let mut r = edge_router(1);
        assert_eq!(r.buffered_flits(), 0);
        let f = arena.insert(head_to(2, 1));
        r.deliver(1, 0, f, &mut arena);
        assert_eq!(r.buffered_flits(), 1);
        let _ = r.alloc(0, &table, 1, &mut arena, &|_, _| true);
        assert_eq!(r.buffered_flits(), 1, "now in the ST register");
        let _ = take_st(&mut r);
        assert_eq!(r.buffered_flits(), 0);
    }

    #[test]
    fn ring_lane_wraps_and_tracks_occupancy() {
        // Push/pop more flits through one lane than its capacity so the
        // ring head wraps; FIFO order and the occupancy word must hold.
        let (_t, table) = table();
        let mut arena = FlitArena::default();
        let mut r = edge_router(1);
        for round in 0..4u64 {
            // Fill the injection lane (capacity 20 is plenty; use 3).
            let refs: Vec<FlitRef> = (0..3)
                .map(|i| {
                    let mut f = head_to(2, 1);
                    f.packet = PacketId(round * 3 + i + 1);
                    arena.insert(f)
                })
                .collect();
            for &fr in &refs {
                r.deliver(1, 0, fr, &mut arena);
            }
            r.verify_soa_invariants();
            assert_eq!(r.occupancy_word(1) & 1, 1);
            for &fr in &refs {
                let _ = r.alloc(round, &table, 1, &mut arena, &|_, _| true);
                let st = take_st(&mut r);
                assert_eq!(st.len(), 1, "one grant per cycle");
                assert_eq!(st[0].1.flit, fr, "FIFO order across ring wraps");
                // Return the consumed credit so later rounds never stall.
                r.add_credit(st[0].0, st[0].1.out_vc);
            }
            assert_eq!(r.occupancy_word(1), 0, "lane emptied, bit cleared");
            r.verify_soa_invariants();
        }
    }

    #[test]
    fn rotated_port_walk_matches_the_naive_wrap_for_every_start() {
        // Multi-word masks: dense, sparse, word-boundary bits, empty,
        // and widths that end mid-word, on a word edge, and past one.
        let masks: [(usize, Vec<u64>); 6] = [
            (21, vec![0b1_0010_0000_0100_1000_0101]),
            (64, vec![u64::MAX]),
            (64, vec![1 | 1 << 63]),
            (70, vec![1 << 63, 0b10_0001]),
            (130, vec![0x8000_0000_0000_0001, 0, 0b11]),
            (130, vec![0, 0, 0]),
        ];
        for (ports, mask) in &masks {
            let set = |p: usize| mask[p >> 6] >> (p & 63) & 1 == 1;
            for start in 0..*ports {
                let naive: Vec<usize> = (0..*ports)
                    .map(|i| fast_wrap(start + i, *ports))
                    .filter(|&p| set(p))
                    .collect();
                let walked: Vec<usize> = ports_from(mask, start, *ports).collect();
                assert_eq!(walked, naive, "{ports} ports from {start}");
            }
            let ascending: Vec<usize> = (0..*ports).filter(|&p| set(p)).collect();
            assert_eq!(
                ports_in(mask, 0, *ports).collect::<Vec<_>>(),
                ascending,
                "{ports} ports ascending"
            );
        }
    }

    #[test]
    fn edge_allocation_examines_only_non_empty_ports() {
        // Router 4 of a 3x3 mesh has 4 network ports + 1 local; flits in
        // two of them: the scan visits exactly those two, whatever the
        // port count.
        let topo = Topology::mesh(3, 3, 1);
        let table = RoutingTable::minimal(&topo);
        let mut arena = FlitArena::default();
        let caps = vec![5; 4];
        let mut r = RouterCore::new(
            RouterId(4),
            4,
            1,
            2,
            RouterArch::EdgeBuffer,
            LinkMode::Credited,
            &caps,
            20,
        );
        for p in 0..4 {
            r.set_credits(p, 5);
        }
        let res = r.alloc(0, &table, 1, &mut arena, &|_, _| true);
        assert_eq!((res.ports_examined, res.lanes_examined), (0, 0));
        for (port, dst) in [(1usize, 8usize), (4, 0)] {
            let mut f = head_to(dst, 1);
            f.packet = PacketId(port as u64 + 10);
            let fr = arena.insert(f);
            r.deliver(port, 0, fr, &mut arena);
        }
        let res = r.alloc(1, &table, 1, &mut arena, &|_, _| true);
        assert_eq!(res.ports_examined, 2, "two non-empty ports of five");
        assert_eq!(res.lanes_examined, 2);
        assert_eq!(res.alloc_grants, 2);
        r.verify_soa_invariants();
    }
}
