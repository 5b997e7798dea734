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
//! # State layout (lane-major records)
//!
//! The allocator never streams over an array: its scans walk bit masks
//! and every access is a point access by `(port, vc)`. So the state is
//! laid out by what one grant touches — one record per thing, indexed
//! by `lane = port * vcs + vc` or by port — not one array per field:
//!
//! - an edge input lane is a [`Lane`] (ring cursors into the router's
//!   one flat [`FlitRef`] slab, and the route its packet holds), an
//!   input port an [`InPort`]: the **occupancy word** (bit `vc` set ⇔
//!   that lane holds a flit) beside the VC round-robin pointer it is
//!   always read with ([`EdgeLanes`]);
//! - a CBR staging lane is a [`StageLane`] under the same [`InPort`]s;
//!   the central queues keep their own masks ([`CbState`]);
//! - an output port is an [`OutPort`] (ST register, input round-robin
//!   pointer, arbitration scratch), an output lane an [`OutLane`]
//!   (wormhole owner beside its credit counter), both on the shared
//!   [`OutputSide`].
//!
//! Above the occupancy words sits a **port mask** (bit `port` set ⇔ the
//! port's word is non-zero, 64 ports per mask word) that drives the
//! scans, so an allocation call costs what the occupied lanes cost, not
//! what the radix costs: they walk its set bits (ascending, or rotated
//! from a round-robin pointer by [`ports_from`]) and never visit an
//! empty port, the per-VC scan skips empty lanes without touching the
//! buffer slab, and the edge output-arbitration scratch is persistent —
//! only the outputs a call nominated are visited and reset. Walking set
//! bits in ascending (or rotated) order visits the non-empty ports in
//! the order an all-ports walk meets them, so the allocation
//! *algorithm* (round-robin rotations, nomination order, grant order)
//! does not depend on the layout: results are bit-for-bit those of the
//! array-of-structs layout and of the struct-of-arrays one that served
//! while the allocator still scanned whole arrays. Nothing derived
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

/// "No held route" sentinel for a lane record's route port.
const NO_ROUTE: u16 = u16::MAX;
/// "No packet" sentinel for wormhole owners and open CB packets
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

/// One edge input lane: a fixed-capacity ring carved out of
/// [`EdgeLanes::slots`] and the route its current packet holds.
#[derive(Debug, Clone, Copy)]
struct Lane {
    /// Packet holding the lane's route ([`NO_PKT`] = none). The lane can
    /// be momentarily empty while a route is held (bodies still
    /// upstream), so the fault sweep needs the owner recorded here to
    /// release wormhole state of dropped packets.
    route_pkt: u64,
    /// The ring is `slots[base..base + cap]`.
    base: u32,
    /// Ring capacity (the per-VC buffer depth of the lane's port).
    cap: u16,
    /// Ring head (relative to `base`) and flits queued.
    head: u16,
    len: u16,
    /// Route held from head to tail of the current packet
    /// ([`NO_ROUTE`] = none).
    route_port: u16,
    route_vc: u8,
}

/// One input port: its occupancy word (bit `vc` ⇔ that lane holds a
/// flit — the VC scan skips clear bits without touching the lanes) and
/// the round-robin pointer the VC scan starts from.
#[derive(Debug, Clone, Copy, Default)]
struct InPort {
    occ: u64,
    rr: u32,
}

/// Edge-buffer input state.
#[derive(Debug, Clone)]
struct EdgeLanes {
    /// Flat ring-buffer slab shared by the lanes.
    slots: Vec<FlitRef>,
    lane: Vec<Lane>,
    inp: Vec<InPort>,
    /// Port-level mask (bit `p` ⇔ `inp[p].occ != 0`, 64 ports per word):
    /// allocation walks its set bits, so empty ports cost nothing.
    /// Maintained in `push` / `pop` only, which the fault sweep also
    /// goes through.
    port_mask: Vec<u64>,
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
        let mut lane = Vec::with_capacity(in_ports * vcs);
        let mut off: u32 = 0;
        for &c in capacity.iter().take(in_ports) {
            let cap = u16::try_from(c).expect("ring indices fit u16");
            for _ in 0..vcs {
                lane.push(Lane {
                    route_pkt: NO_PKT,
                    base: off,
                    cap,
                    head: 0,
                    len: 0,
                    route_port: NO_ROUTE,
                    route_vc: 0,
                });
                off = off.checked_add(u32::from(cap)).expect("slab fits u32");
            }
        }
        EdgeLanes {
            slots: vec![FlitRef::INVALID; off as usize],
            lane,
            inp: vec![InPort::default(); in_ports],
            port_mask: vec![0; in_ports.div_ceil(64)],
        }
    }

    #[inline(always)]
    fn is_full(&self, lane: usize) -> bool {
        let l = &self.lane[lane];
        l.len >= l.cap
    }

    /// Slab index of the `i`-th queued flit of a lane (`i <= len`).
    /// Widened: `head + i` passes `u16::MAX` in the deepest rings.
    #[inline(always)]
    fn slot(l: &Lane, i: u16) -> usize {
        let mut pos = u32::from(l.head) + u32::from(i);
        if pos >= u32::from(l.cap) {
            pos -= u32::from(l.cap);
        }
        (l.base + pos) as usize
    }

    /// Front of a non-empty lane.
    #[inline(always)]
    fn front(&self, lane: usize) -> FlitRef {
        let l = &self.lane[lane];
        debug_assert!(l.len > 0, "front of empty lane");
        self.slots[Self::slot(l, 0)]
    }

    /// Appends to non-full lane `lane = port * vcs + vc` and sets its
    /// occupancy bit.
    #[inline(always)]
    fn push(&mut self, lane: usize, port: usize, vc: usize, flit: FlitRef) {
        let l = &mut self.lane[lane];
        debug_assert!(l.len < l.cap, "push into full lane");
        self.slots[Self::slot(l, l.len)] = flit;
        l.len += 1;
        self.inp[port].occ |= 1 << vc;
        mask_set(&mut self.port_mask, port);
    }

    /// Pops the front of non-empty lane `lane = port * vcs + vc`,
    /// clearing its occupancy bit when it empties.
    #[inline(always)]
    fn pop(&mut self, lane: usize, port: usize, vc: usize) -> FlitRef {
        let l = &mut self.lane[lane];
        debug_assert!(l.len > 0, "pop from empty lane");
        let fr = self.slots[Self::slot(l, 0)];
        l.head = if l.head + 1 == l.cap { 0 } else { l.head + 1 };
        l.len -= 1;
        if l.len == 0 {
            let inp = &mut self.inp[port];
            inp.occ &= !(1 << vc);
            if inp.occ == 0 {
                mask_clear(&mut self.port_mask, port);
            }
        }
        fr
    }
}

/// One CBR staging lane: a single-flit slot and the path its current
/// packet holds through the router.
#[derive(Debug, Clone, Copy)]
struct StageLane {
    /// The staged flit ([`FlitRef::INVALID`] = empty).
    slot: FlitRef,
    /// Route held from head to tail ([`NO_ROUTE`] = none).
    route_port: u16,
    route_vc: u8,
    /// [`MODE_NONE`] / [`MODE_BYPASS`] / [`MODE_CENTRAL`].
    mode: u8,
}

/// Central-buffer-router input state: single-flit staging slots plus the
/// CB virtual output queues, both lane-indexed with per-port masks.
#[derive(Debug, Clone)]
struct CbState {
    stage: Vec<StageLane>,
    /// Occupied-staging word and VC round-robin pointer per input port —
    /// the bypass and CB-write scans skip clear bits within a port.
    inp: Vec<InPort>,
    /// Port-level mask over the staging words (bit `p` ⇔
    /// `inp[p].occ != 0`): the bypass and CB-write scans walk its set
    /// bits.
    stage_ports: Vec<u64>,
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
        let out_lanes = out_ports * vcs;
        let idle = StageLane {
            slot: FlitRef::INVALID,
            route_port: NO_ROUTE,
            route_vc: 0,
            mode: MODE_NONE,
        };
        CbState {
            stage: vec![idle; in_ports * vcs],
            inp: vec![InPort::default(); in_ports],
            stage_ports: vec![0; in_ports.div_ceil(64)],
            queues: (0..out_lanes).map(|_| VecDeque::new()).collect(),
            queue_mask: vec![0; out_ports],
            queue_ports: vec![0; out_ports.div_ceil(64)],
            open_pkt: vec![NO_PKT; out_lanes],
            free: cb_flits,
            rr_read: 0,
            rr_write: 0,
        }
    }

    /// Empties staging lane `lane = port * vcs + vc`, clearing its
    /// occupancy bit.
    #[inline(always)]
    fn take_stage(&mut self, lane: usize, port: usize, vc: usize) -> FlitRef {
        let fr = std::mem::replace(&mut self.stage[lane].slot, FlitRef::INVALID);
        debug_assert!(fr.is_valid(), "take from empty staging lane");
        let inp = &mut self.inp[port];
        inp.occ &= !(1 << vc);
        if inp.occ == 0 {
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

/// One output port: its ST register, the input round-robin pointer, and
/// the edge allocator's arbitration scratch.
#[derive(Debug, Clone, Copy)]
struct OutPort {
    /// ST register (valid iff the port's `st_mask` bit is set).
    st_flit: FlitRef,
    st_vc: u8,
    /// Round-robin pointer (input selection).
    rr: u32,
    /// Edge output arbitration: the winning nomination's index and
    /// priority. Written only together with the port's
    /// `scratch_touched` bit and reset as that output is granted, so
    /// between allocation calls both read `u32::MAX`.
    winner: u32,
    prio: u32,
}

/// One network output lane (`[out_port * vcs + vc]`): the wormhole
/// owner (raw packet id, [`NO_PKT`] = free) and the credits toward the
/// downstream buffer.
#[derive(Debug, Clone, Copy)]
struct OutLane {
    pkt: u64,
    credits: u32,
}

/// The output side shared by both router architectures: ST registers,
/// wormhole VC ownership, and credit counters, with an ST-occupancy
/// bitmask.
#[derive(Debug, Clone)]
struct OutputSide {
    net_ports: usize,
    vcs: usize,
    credited: bool,
    ports: Vec<OutPort>,
    lanes: Vec<OutLane>,
    /// Occupied-ST bitmask words over output ports.
    st_mask: Vec<u64>,
    /// Occupied ST registers — `drain_st` returns without scanning
    /// when 0.
    st_live: usize,
}

impl OutputSide {
    fn new(net_ports: usize, local_ports: usize, vcs: usize, credited: bool) -> Self {
        let out_ports = net_ports + local_ports;
        let idle = OutPort {
            st_flit: FlitRef::INVALID,
            st_vc: 0,
            rr: 0,
            winner: u32::MAX,
            prio: u32::MAX,
        };
        let free = OutLane {
            pkt: NO_PKT,
            credits: 0,
        };
        OutputSide {
            net_ports,
            vcs,
            credited,
            ports: vec![idle; out_ports],
            lanes: vec![free; net_ports * vcs],
            st_mask: vec![0; out_ports.div_ceil(64)],
            st_live: 0,
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
        let lane = &self.lanes[out.port * self.vcs + out.vc];
        if lane.pkt != NO_PKT && lane.pkt != pkt {
            return false;
        }
        if self.credited {
            lane.credits > 0
        } else {
            link_ready(out.port, out.vc)
        }
    }

    /// Books the departure of `flit` through `out`: updates wormhole
    /// state, credits, the hop counter, and the ST register.
    fn commit(&mut self, out: RouteDecision, flit: FlitRef, arena: &mut FlitArena) {
        if out.port < self.net_ports {
            let f = arena.get_mut(flit);
            let lane = &mut self.lanes[out.port * self.vcs + out.vc];
            if f.kind.is_head() {
                debug_assert_ne!(f.packet.0, NO_PKT, "packet id collides with sentinel");
                lane.pkt = f.packet.0;
            }
            if f.kind.is_tail() {
                lane.pkt = NO_PKT;
            }
            f.hops += 1;
            if self.credited {
                lane.credits -= 1;
            }
        }
        self.st_live += 1;
        let port = &mut self.ports[out.port];
        port.st_flit = flit;
        port.st_vc = out.vc as u8;
        mask_set(&mut self.st_mask, out.port);
    }

    /// Available credits of one port, summed over its VC row.
    fn credit_scan(&self, out_port: usize) -> usize {
        self.lanes[out_port * self.vcs..(out_port + 1) * self.vcs]
            .iter()
            .map(|l| l.credits as usize)
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
    /// Flits currently inside the router (buffers, staging, CB queues,
    /// ST registers). `0` means the router is idle and the cycle loop
    /// can skip it entirely.
    live_flits: usize,
    /// Reusable allocation scratch: input nominations.
    scratch_noms: Vec<(usize, usize, RouteDecision)>,
    /// Edge output arbitration: port mask of the outputs nominated in
    /// this call — the grant pass walks (and clears) its set bits.
    scratch_touched: Vec<u64>,
}

/// Resource release information produced by the allocation phase.
/// Owned by the simulator and reused across routers and cycles; `alloc`
/// clears it before filling.
#[derive(Debug, Clone, Default)]
pub(crate) struct AllocResult {
    /// Input lanes that freed one slot: `(port, vc)` — for a network
    /// port the network returns one credit upstream.
    pub freed: Vec<(usize, usize)>,
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
    /// Resets the result for reuse (keeps the Vec capacities).
    pub(crate) fn clear(&mut self) {
        self.freed.clear();
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
            live_flits: 0,
            scratch_noms: Vec::with_capacity(in_ports),
            scratch_touched: vec![0; out_ports.div_ceil(64)],
        }
    }

    /// Initializes credit counters for a network output port.
    pub(crate) fn set_credits(&mut self, out_port: usize, per_vc: usize) {
        let per = u32::try_from(per_vc).expect("credit count fits u32");
        for lane in &mut self.out.lanes[out_port * self.vcs..(out_port + 1) * self.vcs] {
            lane.credits = per;
        }
    }

    /// Adds one returned credit.
    pub(crate) fn add_credit(&mut self, out_port: usize, vc: usize) {
        self.out.lanes[out_port * self.vcs + vc].credits += 1;
    }

    /// Whether input `port` can accept a flit on `vc` right now.
    pub(crate) fn can_deliver(&self, port: usize, vc: usize) -> bool {
        match &self.arch {
            ArchState::Edge(lanes) => !lanes.is_full(port * self.vcs + vc),
            ArchState::Cb(cb) => cb.inp[port].occ >> vc & 1 == 0,
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
                lanes.push(lane, port, vc, flit);
            }
            ArchState::Cb(cb) => {
                assert!(
                    cb.inp[port].occ >> vc & 1 == 0,
                    "staging overflow at {} port {port} vc {vc}",
                    self.id
                );
                cb.stage[lane].slot = flit;
                cb.inp[port].occ |= 1 << vc;
                mask_set(&mut cb.stage_ports, port);
            }
        }
    }

    /// Drains the ST registers: hands `visit` each flit traversing the
    /// switch this cycle with its output port, ports ascending.
    pub(crate) fn drain_st(&mut self, mut visit: impl FnMut(usize, StFlit)) {
        if self.out.st_live == 0 {
            return;
        }
        for (w, word) in self.out.st_mask.iter_mut().enumerate() {
            let mut m = std::mem::take(word);
            while m != 0 {
                let port = (w << 6) | m.trailing_zeros() as usize;
                m &= m - 1;
                let st = &self.out.ports[port];
                visit(
                    port,
                    StFlit {
                        flit: st.st_flit,
                        out_vc: st.st_vc as usize,
                    },
                );
            }
        }
        self.live_flits -= self.out.st_live;
        self.out.st_live = 0;
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
            ArchState::Edge(lanes) => lanes.lane.iter().map(|l| l.len as usize).sum(),
            ArchState::Cb(cb) => {
                let s = cb.stage.iter().filter(|s| s.slot.is_valid()).count();
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
        let touched = &mut self.scratch_touched;
        let ArchState::Edge(lanes) = &mut self.arch else {
            unreachable!()
        };
        let out = &mut self.out;
        // Pass 1 (input arbitration): each non-empty input port, in
        // ascending order, nominates one VC. The port mask drives the
        // walk — empty ports are never visited — and the occupancy word
        // skips clear bits without touching the lanes. A lane
        // mid-packet answers from its held route; otherwise the front
        // flit is a head, read from the arena and routed here.
        for port in ports_in(&lanes.port_mask, 0, in_ports) {
            result.ports_examined += 1;
            let InPort { occ, rr } = lanes.inp[port];
            for i in 0..vcs {
                let vc = fast_wrap(rr as usize + i, vcs);
                if occ >> vc & 1 == 0 {
                    continue;
                }
                result.lanes_examined += 1;
                let lane = port * vcs + vc;
                let l = &lanes.lane[lane];
                let (route, pkt) = match held_route(l.route_port, l.route_vc) {
                    Some(held) => {
                        debug_assert_eq!(
                            arena.get(lanes.front(lane)).packet.0,
                            l.route_pkt,
                            "held route outlived its packet at {id} port {port} vc {vc}",
                        );
                        (held, l.route_pkt)
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
        // ascending is the same order as walking every output.
        for (i, &(port, _, route)) in nominations.iter().enumerate() {
            let o = &mut out.ports[route.port];
            // `rr` stays `< out_ports` by construction, so the dividend
            // is `< 2 * out_ports` and the round-robin distance needs no
            // hardware divide.
            let prio = fast_wrap(port + out_ports - o.rr as usize, out_ports) as u32;
            if prio < o.prio {
                o.prio = prio;
                o.winner = i as u32;
                mask_set(touched, route.port);
            }
        }
        for (w, word) in touched.iter_mut().enumerate() {
            let mut m = std::mem::take(word);
            while m != 0 {
                let out_port = (w << 6) | m.trailing_zeros() as usize;
                m &= m - 1;
                let o = &mut out.ports[out_port];
                let won = std::mem::replace(&mut o.winner, u32::MAX);
                o.prio = u32::MAX;
                let (port, vc, route) = nominations[won as usize];
                debug_assert_eq!(route.port, out_port, "winner slot of another output");
                debug_assert!(!out.st_occupied(route.port), "nominated an occupied ST");
                let lane = port * vcs + vc;
                let fr = lanes.pop(lane, port, vc);
                let f = arena.get(fr);
                let kind = f.kind;
                let l = &mut lanes.lane[lane];
                if kind.is_head() {
                    l.route_port = route.port as u16;
                    l.route_vc = route.vc as u8;
                    l.route_pkt = f.packet.0;
                }
                if kind.is_tail() {
                    l.route_port = NO_ROUTE;
                    l.route_pkt = NO_PKT;
                }
                lanes.inp[port].rr = fast_wrap(vc + 1, vcs) as u32;
                out.ports[out_port].rr = fast_wrap(port + 1, in_ports) as u32;
                result.buffer_accesses += 1;
                result.alloc_grants += 1;
                result.freed.push((port, vc));
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
            let InPort { occ, rr } = cb.inp[port];
            for i in 0..vcs {
                let vc = fast_wrap(rr as usize + i, vcs);
                if occ >> vc & 1 == 0 {
                    continue;
                }
                result.lanes_examined += 1;
                let lane = port * vcs + vc;
                // A packet committed to the CB keeps using it (atomic CB
                // allocation, §4.3); others try the bypass.
                let st = &cb.stage[lane];
                if st.mode == MODE_CENTRAL {
                    continue;
                }
                let f = arena.get(st.slot);
                let route = held_route(st.route_port, st.route_vc)
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
            let fr = cb.take_stage(lane, port, vc);
            let kind = arena.get(fr).kind;
            let st = &mut cb.stage[lane];
            if kind.is_head() {
                st.route_port = route.port as u16;
                st.route_vc = route.vc as u8;
                st.mode = MODE_BYPASS;
            }
            if kind.is_tail() {
                st.route_port = NO_ROUTE;
                st.mode = MODE_NONE;
            }
            cb.inp[port].rr = fast_wrap(vc + 1, vcs) as u32;
            result.bypasses += 1;
            result.alloc_grants += 1;
            result.freed.push((port, vc));
            out.commit(route, fr, arena);
        }

        // Phase B: the single CB write port admits one flit from
        // staging, round-robin over the inputs with an occupied slot.
        'write: for port in ports_from(&cb.stage_ports, cb.rr_write, in_ports) {
            result.ports_examined += 1;
            let occ = cb.inp[port].occ;
            for vc in 0..vcs {
                if occ >> vc & 1 == 0 {
                    continue;
                }
                result.lanes_examined += 1;
                let lane = port * vcs + vc;
                let st = cb.stage[lane];
                let f = arena.get(st.slot);
                let route = held_route(st.route_port, st.route_vc)
                    .unwrap_or_else(|| compute_route(id, net_ports, vcs, table, concentration, f));
                let kind = f.kind;
                let pkt = f.packet.0;
                let plen = f.packet_len as usize;
                // Heads divert to the CB only if the whole packet fits
                // (atomic allocation) and no other packet is still
                // streaming through the target queue; bodies follow
                // their head.
                let admit = match st.mode {
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
                let fr = cb.take_stage(lane, port, vc);
                let st = &mut cb.stage[lane];
                if kind.is_head() {
                    st.route_port = route.port as u16;
                    st.route_vc = route.vc as u8;
                    st.mode = MODE_CENTRAL;
                    cb.free -= plen;
                    cb.open_pkt[out_lane] = pkt;
                }
                if kind.is_tail() {
                    st.route_port = NO_ROUTE;
                    st.mode = MODE_NONE;
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
                result.freed.push((port, vc));
                break 'write;
            }
        }
    }
}

impl RouterCore {
    /// Verifies every derived structure against its ground truth:
    /// occupancy words vs lane contents, port masks vs occupancy words,
    /// held routes vs their owners, ring cursors and round-robin
    /// pointers in range, the ST mask vs the ST-live counter, and the
    /// arbitration scratch being at rest. Used by the shadow-model
    /// property suite; panics on any drift.
    #[cfg(test)]
    pub(crate) fn verify_invariants(&self) {
        let in_ports = self.net_ports + self.local_ports;
        // Bit `p` of a port mask ⇔ word `p` is non-zero, no stray bits.
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
        // Occupancy word `p` ⇔ which of port `p`'s lanes hold a flit.
        let assert_in_ports = |inp: &[InPort], holds: &dyn Fn(usize) -> bool, what: &str| {
            assert_eq!(inp.len(), in_ports, "{what} port count");
            for (port, p) in inp.iter().enumerate() {
                let word = (0..self.vcs)
                    .filter(|vc| holds(port * self.vcs + vc))
                    .fold(0u64, |w, vc| w | 1 << vc);
                assert_eq!(
                    word, p.occ,
                    "{what} word drifted at {} port {port}",
                    self.id
                );
                assert!((p.rr as usize) < self.vcs, "{what} rr out of range");
            }
            inp.iter().map(|p| p.occ).collect::<Vec<u64>>()
        };
        assert_eq!(self.out.ports.len(), in_ports);
        for (port, o) in self.out.ports.iter().enumerate() {
            assert!(
                o.winner == u32::MAX && o.prio == u32::MAX,
                "arbitration scratch not reset at {} output {port}",
                self.id
            );
            assert!((o.rr as usize) < in_ports, "output rr out of range");
        }
        assert!(self.scratch_touched.iter().all(|&w| w == 0));
        match &self.arch {
            ArchState::Edge(lanes) => {
                let occ = assert_in_ports(&lanes.inp, &|l| lanes.lane[l].len > 0, "edge");
                assert_port_mask(&lanes.port_mask, &occ, "edge");
                for (lane, l) in lanes.lane.iter().enumerate() {
                    assert!(l.len <= l.cap && l.head < l.cap.max(1), "ring cursors");
                    assert_eq!(
                        l.route_port == NO_ROUTE,
                        l.route_pkt == NO_PKT,
                        "route holder drifted at lane {lane} of {}",
                        self.id
                    );
                }
            }
            ArchState::Cb(cb) => {
                let occ = assert_in_ports(&cb.inp, &|l| cb.stage[l].slot.is_valid(), "staging");
                assert_port_mask(&cb.stage_ports, &occ, "staging");
                for st in &cb.stage {
                    assert_eq!(st.route_port == NO_ROUTE, st.mode == MODE_NONE);
                }
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
        for l in &lanes.lane {
            let p = l.route_port;
            if p != NO_ROUTE && (p as usize) < self.net_ports && dead_out(p as usize) {
                out.push(l.route_pkt);
            }
        }
        for port in 0..self.net_ports {
            if self.out.st_occupied(port) && dead_out(port) {
                out.push(arena.get(self.out.ports[port].st_flit).packet.0);
            }
        }
        for (lane, l) in self.out.lanes.iter().enumerate() {
            if l.pkt != NO_PKT && dead_out(lane / self.vcs) {
                out.push(l.pkt);
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
        for l in &lanes.lane {
            for i in 0..l.len {
                visit(lanes.slots[EdgeLanes::slot(l, i)], None);
            }
        }
        for port in 0..self.net_ports + self.local_ports {
            if self.out.st_occupied(port) {
                visit(
                    self.out.ports[port].st_flit,
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
        for lane in 0..lanes.lane.len() {
            let (port, vc) = (lane / vcs, lane % vcs);
            let n = lanes.lane[lane].len;
            if n > 0 {
                kept.clear();
                for _ in 0..n {
                    let fr = lanes.pop(lane, port, vc);
                    if drop_pkt(arena.get(fr).packet.0) {
                        removed.push(arena.remove(fr));
                        dropped_here += 1;
                    } else {
                        kept.push(fr);
                    }
                }
                for &fr in &kept {
                    lanes.push(lane, port, vc, fr);
                }
            }
            let l = &mut lanes.lane[lane];
            if l.route_port != NO_ROUTE && drop_pkt(l.route_pkt) {
                l.route_port = NO_ROUTE;
                l.route_pkt = NO_PKT;
            }
        }
        for port in 0..net_ports + self.local_ports {
            if self.out.st_occupied(port) {
                let fr = self.out.ports[port].st_flit;
                if drop_pkt(arena.get(fr).packet.0) {
                    removed.push(arena.remove(fr));
                    self.out.ports[port].st_flit = FlitRef::INVALID;
                    mask_clear(&mut self.out.st_mask, port);
                    self.out.st_live -= 1;
                    dropped_here += 1;
                }
            }
        }
        for l in &mut self.out.lanes {
            if l.pkt != NO_PKT && drop_pkt(l.pkt) {
                l.pkt = NO_PKT;
            }
        }
        self.live_flits -= dropped_here;
    }

    /// Fault support: overwrites one output lane's credit counter with a
    /// ground-truth recount.
    pub(crate) fn set_lane_credits(&mut self, out_port: usize, vc: usize, value: usize) {
        self.out.lanes[out_port * self.vcs + vc].credits =
            u32::try_from(value).expect("credit count fits u32");
    }

    /// Whether the ST register of `out_port` holds a flit bound for
    /// output VC `vc` — that flit has already consumed a credit, so the
    /// fault-time credit recount must account for it.
    pub(crate) fn st_holds(&self, out_port: usize, vc: usize) -> bool {
        self.out.st_occupied(out_port) && self.out.ports[out_port].st_vc as usize == vc
    }

    /// Flits buffered in one input lane (CBR: staging-slot occupancy as
    /// 0/1).
    pub(crate) fn lane_len(&self, port: usize, vc: usize) -> usize {
        match &self.arch {
            ArchState::Edge(lanes) => lanes.lane[port * self.vcs + vc].len as usize,
            ArchState::Cb(cb) => usize::from(cb.stage[port * self.vcs + vc].slot.is_valid()),
        }
    }

    /// The raw occupancy word of one input port (test introspection).
    #[cfg(test)]
    pub(crate) fn occupancy_word(&self, port: usize) -> u64 {
        match &self.arch {
            ArchState::Edge(lanes) => lanes.inp[port].occ,
            ArchState::Cb(cb) => cb.inp[port].occ,
        }
    }

    /// The route an edge input lane holds, with its owner's raw packet
    /// id (test introspection).
    #[cfg(test)]
    pub(crate) fn lane_route(&self, port: usize, vc: usize) -> Option<(RouteDecision, u64)> {
        let ArchState::Edge(lanes) = &self.arch else {
            unreachable!("staging lanes record no owner")
        };
        let l = &lanes.lane[port * self.vcs + vc];
        held_route(l.route_port, l.route_vc).map(|route| (route, l.route_pkt))
    }

    /// Available credits on one output lane (test introspection).
    #[cfg(test)]
    pub(crate) fn credit(&self, out_port: usize, vc: usize) -> usize {
        self.out.lanes[out_port * self.vcs + vc].credits as usize
    }

    /// Occupied ST registers (test introspection).
    #[cfg(test)]
    pub(crate) fn st_count(&self) -> usize {
        self.out.st_live
    }
}

#[cfg(test)]
mod lane_props;

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

    /// Drains the ST registers into a list, in visit order.
    fn take_st(r: &mut RouterCore) -> Vec<(usize, StFlit)> {
        let mut out = Vec::new();
        r.drain_st(|port, st| out.push((port, st)));
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
        assert_eq!(res.freed, vec![(1, 0)], "the injection lane");
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
        assert!(res.freed.is_empty(), "blocked without credits");
        assert!(take_st(&mut r).is_empty());
        r.add_credit(0, 0);
        let res = r.alloc(1, &table, 1, &mut arena, &|_, _| true);
        assert_eq!(res.freed.len(), 1);
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
        assert_eq!(res.freed, vec![(0, 0)]);
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
        for round in 0..8u64 {
            // Three flits a round through the 20-deep injection lane:
            // the head wraps in round 6.
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
            r.verify_invariants();
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
            r.verify_invariants();
        }
    }

    #[test]
    fn rings_wrap_at_the_shallowest_and_the_deepest_capacity() {
        // `u16` cursors: at `cap = u16::MAX`, `head + len` passes
        // `u16::MAX` and `head + 1` reaches it. Release builds wrap
        // silently, so the FIFO order is the check.
        let mut arena = FlitArena::default();
        let pool: Vec<FlitRef> = (0..7).map(|_| arena.insert(head_to(2, 1))).collect();
        for cap in [1, 2, 5, usize::from(u16::MAX)] {
            // Lane 1 of 2: its ring starts where lane 0's ends.
            let mut lanes = EdgeLanes::new(1, 2, &[cap]);
            let mut shadow = VecDeque::new();
            let (mut pushed, mut popped) = (0usize, 0usize);
            // Fill, pop two thirds, three times over: the head laps the
            // ring while the lane is non-empty, and ends past the wrap.
            for _ in 0..3 {
                while !lanes.is_full(1) {
                    lanes.push(1, 0, 1, pool[pushed % 7]);
                    shadow.push_back(pool[pushed % 7]);
                    pushed += 1;
                }
                assert_eq!(shadow.len(), cap);
                assert_eq!((lanes.inp[0].occ, lanes.port_mask[0]), (0b10, 1));
                for _ in 0..(2 * cap).div_ceil(3) {
                    assert_eq!(lanes.front(1), shadow[0]);
                    assert_eq!(Some(lanes.pop(1, 0, 1)), shadow.pop_front(), "cap {cap}");
                    popped += 1;
                }
            }
            assert!(popped > cap, "the head wrapped at cap {cap}");
            while let Some(expected) = shadow.pop_front() {
                assert_eq!(lanes.pop(1, 0, 1), expected, "cap {cap}");
            }
            assert_eq!((lanes.inp[0].occ, lanes.port_mask[0]), (0, 0));
            assert!(
                lanes.slots[..cap].iter().all(|s| !s.is_valid()),
                "lane 0 written"
            );
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
        r.verify_invariants();
    }
}
