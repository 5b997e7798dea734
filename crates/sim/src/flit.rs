//! Flits, packets, and the flit arena.

use snoc_topology::{NodeId, RouterId};
use std::fmt;

/// Unique packet identifier (monotonic per simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId(pub u64);

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit of a multi-flit packet; carries routing state.
    Head,
    /// Interior flit.
    Body,
    /// Last flit; releases resources.
    Tail,
    /// Single-flit packet (head and tail at once).
    HeadTail,
}

impl FlitKind {
    /// Whether this flit starts a packet.
    #[must_use]
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// Whether this flit ends a packet.
    #[must_use]
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// "No Valiant intermediate" sentinel of the packed encoding.
const INTERMEDIATE_NONE: u32 = u32::MAX;
/// Flag bit: the intermediate has been reached.
const INTERMEDIATE_DONE: u32 = 1 << 31;

/// A flit in flight.
///
/// All routing state lives on the flit so body flits can follow their
/// head through the wormhole (in hardware only the head carries it; the
/// duplication here is a simulator convenience). The payload is kept to
/// one cache line (≤ 64 bytes, asserted below) because the arena stores
/// one copy per live flit; the Valiant intermediate is packed into a
/// single `u32` (31-bit router id + done flag, `u32::MAX` = none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Owning packet.
    pub packet: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Destination router (cached from the topology).
    pub dst_router: RouterId,
    /// Cycle the packet was created (start of latency measurement).
    pub created: u64,
    /// Cycle the head entered the network (left the injection queue).
    pub injected: u64,
    /// Packed Valiant intermediate (see the accessors below).
    intermediate: u32,
    /// Packet length in flits.
    pub packet_len: u32,
    /// Router hops completed so far (selects the VC layer).
    pub hops: u16,
    /// Position within the packet.
    pub kind: FlitKind,
    /// `true` if this packet belongs to the measured phase (injected
    /// after warmup).
    pub measured: bool,
    /// Trace integration: `true` if delivery must trigger a reply packet.
    pub wants_reply: bool,
}

// The arena payload must stay within one cache line: every buffer slot,
// CB queue entry, and link stage holds a 4-byte `FlitRef` instead, and
// only the arena pays this footprint once per live flit.
const _: () = assert!(
    std::mem::size_of::<Flit>() <= 64,
    "Flit payload grew past 64 bytes"
);

impl Flit {
    /// Builds flit `index` of a `len`-flit packet.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or `index >= len`.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn nth_of_packet(
        id: PacketId,
        index: u32,
        len: u32,
        src: NodeId,
        dst: NodeId,
        dst_router: RouterId,
        created: u64,
        measured: bool,
        wants_reply: bool,
    ) -> Flit {
        assert!(len >= 1, "packets need at least one flit");
        assert!(index < len, "flit index out of range");
        Flit {
            packet: id,
            kind: match (index, len) {
                (0, 1) => FlitKind::HeadTail,
                (0, _) => FlitKind::Head,
                (i, l) if i == l - 1 => FlitKind::Tail,
                _ => FlitKind::Body,
            },
            src,
            dst,
            dst_router,
            intermediate: INTERMEDIATE_NONE,
            hops: 0,
            created,
            injected: created,
            packet_len: len,
            measured,
            wants_reply,
        }
    }

    /// Builds the `len` flits of one packet, in order.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn packet(
        id: PacketId,
        src: NodeId,
        dst: NodeId,
        dst_router: RouterId,
        len: u32,
        created: u64,
        measured: bool,
        wants_reply: bool,
    ) -> Vec<Flit> {
        assert!(len >= 1, "packets need at least one flit");
        (0..len)
            .map(|i| {
                Flit::nth_of_packet(
                    id,
                    i,
                    len,
                    src,
                    dst,
                    dst_router,
                    created,
                    measured,
                    wants_reply,
                )
            })
            .collect()
    }

    /// The Valiant intermediate router, if one was assigned.
    #[must_use]
    pub fn intermediate(&self) -> Option<RouterId> {
        if self.intermediate == INTERMEDIATE_NONE {
            None
        } else {
            Some(RouterId((self.intermediate & !INTERMEDIATE_DONE) as usize))
        }
    }

    /// Whether the Valiant intermediate has been reached.
    #[must_use]
    pub fn intermediate_done(&self) -> bool {
        self.intermediate != INTERMEDIATE_NONE && self.intermediate & INTERMEDIATE_DONE != 0
    }

    /// Assigns a Valiant intermediate (not yet reached).
    ///
    /// # Panics
    ///
    /// Panics if the router index does not fit the 31-bit encoding.
    pub fn set_intermediate(&mut self, mid: RouterId) {
        let id = u32::try_from(mid.index()).expect("router id fits u32");
        assert!(
            id & INTERMEDIATE_DONE == 0 && id != INTERMEDIATE_NONE,
            "router id fits 31 bits"
        );
        self.intermediate = id;
    }

    /// Marks the Valiant intermediate as reached.
    pub fn mark_intermediate_done(&mut self) {
        if self.intermediate != INTERMEDIATE_NONE {
            self.intermediate |= INTERMEDIATE_DONE;
        }
    }
}

/// Index of a flit stored in a [`FlitArena`]: 4 bytes moved through
/// buffers, staging queues, link stages, and ST registers instead of the
/// full payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlitRef(u32);

impl FlitRef {
    /// "Empty slot" sentinel for the flattened router and link state:
    /// occupancy is tracked by bitmask words, and empty slots hold this
    /// reserved index. [`FlitArena::insert`] never hands it out.
    pub(crate) const INVALID: FlitRef = FlitRef(u32::MAX);

    /// Whether this reference is a real arena index (not the
    /// [`FlitRef::INVALID`] sentinel).
    #[must_use]
    pub(crate) fn is_valid(self) -> bool {
        self.0 != u32::MAX
    }
}

/// Slab storage for in-flight flits: each flit lives in exactly one slot
/// from injection to ejection, and every queue in the simulator carries
/// [`FlitRef`] indices. A free list recycles slots, so steady-state
/// simulation performs no allocation per flit.
#[derive(Debug, Clone, Default)]
pub struct FlitArena {
    slots: Vec<Flit>,
    free: Vec<u32>,
    /// Debug-only per-slot liveness: turns a double `remove` (which
    /// would silently alias the slot between two later `insert`s) or an
    /// access through a stale [`FlitRef`] into an immediate assertion
    /// failure instead of corrupted statistics. Compiled out of release
    /// builds — the hot path pays nothing.
    #[cfg(debug_assertions)]
    live: Vec<bool>,
}

impl FlitArena {
    #[cfg(debug_assertions)]
    fn assert_live(&self, idx: u32) {
        assert!(
            self.live[idx as usize],
            "access through a stale FlitRef: slot {idx} was freed"
        );
    }

    #[cfg(not(debug_assertions))]
    #[inline]
    fn assert_live(&self, _idx: u32) {}

    /// Stores a flit, returning its reference.
    ///
    /// # Panics
    ///
    /// Panics if the arena exceeds `u32::MAX` slots.
    pub fn insert(&mut self, flit: Flit) -> FlitRef {
        match self.free.pop() {
            Some(idx) => {
                #[cfg(debug_assertions)]
                {
                    self.live[idx as usize] = true;
                }
                self.slots[idx as usize] = flit;
                FlitRef(idx)
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("arena fits u32 indices");
                assert!(
                    idx != u32::MAX,
                    "arena full: u32::MAX is the reserved invalid index"
                );
                self.slots.push(flit);
                #[cfg(debug_assertions)]
                self.live.push(true);
                FlitRef(idx)
            }
        }
    }

    /// Reads a stored flit.
    #[must_use]
    pub fn get(&self, r: FlitRef) -> &Flit {
        self.assert_live(r.0);
        &self.slots[r.0 as usize]
    }

    /// Mutably accesses a stored flit.
    pub fn get_mut(&mut self, r: FlitRef) -> &mut Flit {
        self.assert_live(r.0);
        &mut self.slots[r.0 as usize]
    }

    /// Removes a flit, recycling its slot.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the slot was already freed (a double
    /// free would alias the slot between two later inserts).
    pub fn remove(&mut self, r: FlitRef) -> Flit {
        #[cfg(debug_assertions)]
        {
            assert!(self.live[r.0 as usize], "double free of flit slot {}", r.0);
            self.live[r.0 as usize] = false;
        }
        self.free.push(r.0);
        self.slots[r.0 as usize]
    }

    /// Number of live flits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether no flit is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slots ever allocated (live + free). Because the free list
    /// recycles slots, this is bounded by the peak live count — the
    /// property the arena's slab design exists to provide.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flit_packet_is_headtail() {
        let flits = Flit::packet(
            PacketId(1),
            NodeId(0),
            NodeId(5),
            RouterId(1),
            1,
            10,
            true,
            false,
        );
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::HeadTail);
        assert!(flits[0].kind.is_head() && flits[0].kind.is_tail());
    }

    #[test]
    fn six_flit_packet_structure() {
        let flits = Flit::packet(
            PacketId(2),
            NodeId(3),
            NodeId(9),
            RouterId(2),
            6,
            0,
            false,
            true,
        );
        assert_eq!(flits.len(), 6);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[5].kind, FlitKind::Tail);
        for f in &flits[1..5] {
            assert_eq!(f.kind, FlitKind::Body);
        }
        assert!(flits.iter().all(|f| f.wants_reply));
        assert!(flits.iter().all(|f| f.packet_len == 6));
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_length_packet_panics() {
        let _ = Flit::packet(
            PacketId(0),
            NodeId(0),
            NodeId(1),
            RouterId(0),
            0,
            0,
            false,
            false,
        );
    }

    #[test]
    fn intermediate_encoding_round_trips() {
        let mut f = Flit::packet(
            PacketId(0),
            NodeId(0),
            NodeId(1),
            RouterId(0),
            1,
            0,
            false,
            false,
        )[0];
        assert_eq!(f.intermediate(), None);
        assert!(!f.intermediate_done());
        // Marking done without an intermediate is a no-op.
        f.mark_intermediate_done();
        assert_eq!(f.intermediate(), None);
        assert!(!f.intermediate_done());
        f.set_intermediate(RouterId(1_234_567));
        assert_eq!(f.intermediate(), Some(RouterId(1_234_567)));
        assert!(!f.intermediate_done());
        f.mark_intermediate_done();
        assert_eq!(f.intermediate(), Some(RouterId(1_234_567)));
        assert!(f.intermediate_done());
    }

    #[test]
    fn flit_fits_one_cache_line() {
        assert!(std::mem::size_of::<Flit>() <= 64);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free of flit slot")]
    fn double_remove_is_caught_in_debug_builds() {
        let mut arena = FlitArena::default();
        let f = Flit::packet(
            PacketId(1),
            NodeId(0),
            NodeId(1),
            RouterId(0),
            1,
            0,
            true,
            false,
        )[0];
        let r = arena.insert(f);
        arena.remove(r);
        arena.remove(r); // would alias the slot between two later inserts
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale FlitRef")]
    fn stale_access_is_caught_in_debug_builds() {
        let mut arena = FlitArena::default();
        let f = Flit::packet(
            PacketId(1),
            NodeId(0),
            NodeId(1),
            RouterId(0),
            1,
            0,
            true,
            false,
        )[0];
        let r = arena.insert(f);
        arena.remove(r);
        let _ = arena.get(r);
    }

    #[test]
    fn arena_recycles_slots() {
        let mut arena = FlitArena::default();
        let f = Flit::packet(
            PacketId(7),
            NodeId(0),
            NodeId(1),
            RouterId(0),
            1,
            0,
            true,
            false,
        )[0];
        let a = arena.insert(f);
        let b = arena.insert(f);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(a).packet, PacketId(7));
        arena.get_mut(b).hops = 3;
        assert_eq!(arena.remove(b).hops, 3);
        assert_eq!(arena.len(), 1);
        // The freed slot is reused before the slab grows.
        let c = arena.insert(f);
        assert_eq!(c, b);
        assert_eq!(arena.len(), 2);
        assert!(!arena.is_empty());
    }
}
