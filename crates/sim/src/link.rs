//! Link channels: credited pipelined wires and elastic (ElastiStore)
//! pipelines.
//!
//! A physical link between two routers is modeled as two unidirectional
//! [`Channel`]s. Channel latency in cycles is `⌈dist/H⌉` where `dist` is
//! the Manhattan wire length in tiles and `H` the SMART hops-per-cycle
//! (§3.2.2); without a layout every link is one cycle.
//!
//! Channels move 4-byte [`FlitRef`] arena indices, not flit payloads —
//! the flit itself stays in the simulator's [`crate::flit::FlitArena`]
//! from injection to ejection.
//!
//! A credited channel's in-flight flits and returning credits live in
//! two fixed rings ([`Ring`]) sized at build from the sender's credit
//! bound ([`Channel::credited`]), so a network's wires cost the same
//! bytes before, during and after a run.

use crate::flit::FlitRef;
use crate::router::fast_wrap;
use crate::stats::heap_bytes;
use std::fmt;

/// The wire latency limit of a credited channel: a [`Stamp`] keeps 24
/// bits of the due cycle, and a due cycle must lie within half that
/// range of the current one.
const MAX_LATENCY: u64 = 1 << 22;

/// A wire entry's stamp: the low 24 bits of its due cycle above its VC
/// byte. An entry is due at most [`MAX_LATENCY`] cycles after `now`
/// and is popped on its due cycle, so the wrapped 24-bit difference to
/// `now` decides "due" exactly.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stamp(u32);

impl Stamp {
    fn new(due: u64, vc: usize) -> Self {
        debug_assert!(vc <= 0xFF, "VC {vc} does not fit a stamp");
        Stamp((due as u32) << 8 | vc as u32)
    }

    fn vc(self) -> usize {
        (self.0 & 0xFF) as usize
    }

    /// Whether the entry has arrived by `now`.
    fn due_by(self, now: u64) -> bool {
        ((now as u32) << 8).wrapping_sub(self.0 & !0xFF) as i32 >= 0
    }
}

/// A FIFO in a slab allocated once: `clear` empties it and a push never
/// grows it. A push into a full ring means the capacity bound the ring
/// was built with is broken, and panics.
#[derive(Clone)]
pub(crate) struct Ring<T> {
    slots: Box<[T]>,
    head: u32,
    len: u32,
}

impl<T: Copy> Ring<T> {
    fn new(capacity: usize, empty: T) -> Self {
        assert!(capacity > 0, "a ring needs a slot");
        Ring {
            slots: vec![empty; capacity].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    /// Slab index of the `i`-th entry (`i <= len`).
    fn at(&self, i: usize) -> usize {
        fast_wrap(self.head as usize + i, self.slots.len())
    }

    fn len(&self) -> usize {
        self.len as usize
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn front(&self) -> Option<T> {
        (self.len > 0).then(|| self.slots[self.head as usize])
    }

    fn push_back(&mut self, entry: T) {
        assert!(
            self.len() < self.slots.len(),
            "channel ring overflow: more in flight than its bound of {}",
            self.slots.len()
        );
        let i = self.at(self.len());
        self.slots[i] = entry;
        self.len += 1;
    }

    /// Drops the front entry of a non-empty ring.
    fn pop_front(&mut self) {
        debug_assert!(self.len > 0, "pop from an empty ring");
        self.head = self.at(1) as u32;
        self.len -= 1;
    }

    fn iter(&self) -> impl Iterator<Item = T> + '_ {
        (0..self.len()).map(|i| self.slots[self.at(i)])
    }

    fn clear(&mut self) {
        (self.head, self.len) = (0, 0);
    }

    /// Keeps the entries `keep` accepts, in order, compacted in place.
    fn retain(&mut self, mut keep: impl FnMut(T) -> bool) {
        let mut kept = 0;
        for i in 0..self.len() {
            let entry = self.slots[self.at(i)];
            if keep(entry) {
                let j = self.at(kept);
                self.slots[j] = entry;
                kept += 1;
            }
        }
        self.len = kept as u32;
    }

    /// Bytes of the slab.
    fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.slots)
    }
}

/// The live entries, front first, so a reset ring reads as a freshly
/// built one.
impl<T: Copy + fmt::Debug> fmt::Debug for Ring<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A unidirectional link channel.
#[derive(Debug, Clone)]
pub(crate) enum Channel {
    /// Ideal pipelined wire with credit-based end-to-end flow control:
    /// the sender's credit counters bound the flits in flight by the
    /// downstream buffer size.
    Credited {
        /// Latency in cycles.
        latency: u32,
        /// In-flight flits, each stamped with its arrival cycle and VC.
        wire: Ring<(Stamp, FlitRef)>,
        /// In-flight credits (returning upstream), stamped likewise.
        credits: Ring<Stamp>,
    },
    /// Elastic-buffer link (EL-Links with ElastiStore, §4.2): `latency`
    /// pipeline stages, each with one slave latch per VC; the shared
    /// master latch lets at most one flit advance per stage per cycle.
    ///
    /// The latches are a flat struct-of-arrays slab indexed
    /// `stage * vcs + vc`, with one occupancy bitmask word per stage
    /// (bit `vc` ⇔ latch full): the advance scan is mask arithmetic
    /// (`occ[s] & !occ[s+1]` non-zero ⇔ some VC can move) and idle
    /// checks are one counter load.
    Elastic {
        /// VCs per stage.
        vcs: usize,
        /// Slave latches, `[stage * vcs + vc]`
        /// ([`FlitRef::INVALID`] = empty).
        slots: Vec<FlitRef>,
        /// Occupancy word per stage (bit `vc` set ⇔ latch full).
        occ: Vec<u64>,
        /// Round-robin pointer per stage for the shared master latch.
        rr: Vec<usize>,
        /// Flits currently in the pipeline (idle/occupancy in O(1)).
        live: u32,
    },
}

impl Channel {
    /// A credited wire of `latency` cycles whose sender holds
    /// `credit_bound` credits in all (its VCs times the per-VC credits
    /// of its port).
    ///
    /// The flit ring holds `min(latency, credit_bound)`: the sender
    /// pushes at most one flit per cycle, each spends a credit, and each
    /// leaves on its due cycle. The credit ring holds `credit_bound`:
    /// credits in flight never exceed the credits the sender started
    /// with, while a central-buffer router can free two slots of one
    /// input port in one cycle (a bypass and a CB write), so the
    /// per-cycle argument does not bound credits.
    pub(crate) fn credited(latency: u64, credit_bound: usize) -> Self {
        let latency = latency.max(1);
        assert!(latency <= MAX_LATENCY, "wire latency {latency} too long");
        let stamp = Stamp::new(0, 0);
        Channel::Credited {
            latency: latency as u32,
            wire: Ring::new(
                credit_bound.min(latency as usize),
                (stamp, FlitRef::INVALID),
            ),
            credits: Ring::new(credit_bound, stamp),
        }
    }

    pub(crate) fn elastic(latency: u64, vcs: usize) -> Self {
        assert!(vcs <= 64, "occupancy words hold at most 64 VCs");
        let stages = latency.max(1) as usize;
        Channel::Elastic {
            vcs,
            slots: vec![FlitRef::INVALID; stages * vcs],
            occ: vec![0; stages],
            rr: vec![0; stages],
            live: 0,
        }
    }

    /// Empties the channel: no flit or credit in flight, every latch
    /// free, the round-robin pointers at 0.
    pub(crate) fn reset(&mut self) {
        match self {
            Channel::Credited { wire, credits, .. } => {
                wire.clear();
                credits.clear();
            }
            Channel::Elastic {
                slots,
                occ,
                rr,
                live,
                ..
            } => {
                slots.fill(FlitRef::INVALID);
                occ.fill(0);
                rr.fill(0);
                *live = 0;
            }
        }
    }

    /// Heap bytes the channel holds: its two rings, or its latch slab.
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            Channel::Credited { wire, credits, .. } => wire.heap_bytes() + credits.heap_bytes(),
            Channel::Elastic { slots, occ, rr, .. } => {
                heap_bytes(slots) + heap_bytes(occ) + heap_bytes(rr)
            }
        }
    }

    /// Whether the sender may push a flit on `vc` this cycle.
    ///
    /// Credited channels always accept (the sender's credit counter is
    /// the real limit); elastic channels accept when stage 0's slave
    /// latch for `vc` is free.
    pub(crate) fn can_accept(&self, vc: usize) -> bool {
        match self {
            Channel::Credited { .. } => true,
            Channel::Elastic { occ, .. } => occ[0] >> vc & 1 == 0,
        }
    }

    /// Pushes a flit into the channel.
    ///
    /// # Panics
    ///
    /// Panics (elastic mode) if stage 0 is occupied — callers must check
    /// [`Channel::can_accept`] — and (credited mode) if the wire already
    /// holds its bound.
    pub(crate) fn push(&mut self, now: u64, vc: usize, flit: FlitRef) {
        match self {
            Channel::Credited { latency, wire, .. } => {
                wire.push_back((Stamp::new(now + u64::from(*latency), vc), flit));
            }
            Channel::Elastic {
                slots, occ, live, ..
            } => {
                assert!(occ[0] >> vc & 1 == 0, "elastic stage 0 busy");
                slots[vc] = flit;
                occ[0] |= 1 << vc;
                *live += 1;
            }
        }
    }

    /// Pushes a credit upstream (credited mode only; no-op for elastic).
    pub(crate) fn push_credit(&mut self, now: u64, vc: usize) {
        if let Channel::Credited {
            latency, credits, ..
        } = self
        {
            credits.push_back(Stamp::new(now + u64::from(*latency), vc));
        }
    }

    /// Advances the elastic pipeline by one cycle, except the final
    /// stage (drained by [`Channel::pop_deliverable`]). At most one flit
    /// advances per stage (shared master latch).
    pub(crate) fn tick(&mut self) {
        if let Channel::Elastic {
            vcs,
            slots,
            occ,
            rr,
            ..
        } = self
        {
            let vcs = *vcs;
            // Advance from the tail towards the head so a slot freed this
            // cycle can be refilled next cycle only (one-stage-per-cycle).
            for s in (0..occ.len().saturating_sub(1)).rev() {
                // A VC can advance iff its bit is set here and clear in
                // the next stage — one mask op decides the whole stage.
                let movable = occ[s] & !occ[s + 1];
                if movable == 0 {
                    continue;
                }
                let start = rr[s];
                for i in 0..vcs {
                    let vc = fast_wrap(start + i, vcs);
                    if movable >> vc & 1 == 1 {
                        slots[(s + 1) * vcs + vc] = slots[s * vcs + vc];
                        slots[s * vcs + vc] = FlitRef::INVALID;
                        occ[s] &= !(1 << vc);
                        occ[s + 1] |= 1 << vc;
                        rr[s] = fast_wrap(vc + 1, vcs);
                        break; // shared master: one advance per stage
                    }
                }
            }
        }
    }

    /// Pops one flit that has arrived at the receiver, if any.
    ///
    /// `accept(vc)` tells the channel whether the receiver has space on
    /// that VC; elastic channels leave blocked flits in the final stage
    /// (backpressure), credited channels assert acceptance (credits
    /// guarantee space).
    pub(crate) fn pop_deliverable(
        &mut self,
        now: u64,
        mut accept: impl FnMut(usize) -> bool,
    ) -> Option<(usize, FlitRef)> {
        match self {
            Channel::Credited { wire, .. } => {
                let (stamp, flit) = wire.front().filter(|(stamp, _)| stamp.due_by(now))?;
                assert!(accept(stamp.vc()), "credited delivery must have space");
                wire.pop_front();
                Some((stamp.vc(), flit))
            }
            Channel::Elastic {
                vcs,
                slots,
                occ,
                rr,
                live,
            } => {
                let vcs = *vcs;
                let last = occ.len() - 1;
                if occ[last] == 0 {
                    return None;
                }
                let start = rr[last];
                for i in 0..vcs {
                    let vc = fast_wrap(start + i, vcs);
                    if occ[last] >> vc & 1 == 1 && accept(vc) {
                        rr[last] = fast_wrap(vc + 1, vcs);
                        occ[last] &= !(1 << vc);
                        *live -= 1;
                        let flit = slots[last * vcs + vc];
                        slots[last * vcs + vc] = FlitRef::INVALID;
                        return Some((vc, flit));
                    }
                }
                None
            }
        }
    }

    /// Pops one credit that has arrived by `now` (credited mode). The
    /// cycle loop drains with `while let` — no per-cycle allocation.
    pub(crate) fn pop_credit(&mut self, now: u64) -> Option<usize> {
        let Channel::Credited { credits, .. } = self else {
            return None;
        };
        let stamp = credits.front().filter(|stamp| stamp.due_by(now))?;
        credits.pop_front();
        Some(stamp.vc())
    }

    /// Whether the channel holds no flits and no in-flight credits —
    /// idle channels are skipped by the cycle loop entirely.
    pub(crate) fn is_idle(&self) -> bool {
        match self {
            Channel::Credited { wire, credits, .. } => wire.is_empty() && credits.is_empty(),
            Channel::Elastic { live, .. } => *live == 0,
        }
    }

    /// Number of flits currently inside the channel (for occupancy-based
    /// adaptive routing and drain checks).
    pub(crate) fn occupancy(&self) -> usize {
        match self {
            Channel::Credited { wire, .. } => wire.len(),
            Channel::Elastic { live, .. } => *live as usize,
        }
    }

    /// Fault scan (credited mode — the fault-injection envelope):
    /// visits every in-flight flit, in wire order.
    pub(crate) fn scan_flits<V: FnMut(FlitRef)>(&self, mut visit: V) {
        match self {
            Channel::Credited { wire, .. } => wire.iter().for_each(|(_, fr)| visit(fr)),
            Channel::Elastic { .. } => unreachable!("fault scans run on credited links only"),
        }
    }

    /// Fault sweep (credited mode — the fault-injection envelope):
    /// removes every in-flight flit whose packet satisfies `drop_pkt`,
    /// appending the released flits to `removed`; with `dead` the wire
    /// itself failed, so everything on it — flits *and* returning
    /// credits — is lost. Survivor order is preserved.
    pub(crate) fn sweep_faults<D: FnMut(u64) -> bool>(
        &mut self,
        arena: &mut crate::flit::FlitArena,
        mut drop_pkt: D,
        dead: bool,
        removed: &mut Vec<crate::flit::Flit>,
    ) {
        let Channel::Credited { wire, credits, .. } = self else {
            unreachable!("fault sweeps run on credited links only")
        };
        wire.retain(|(_, fr)| {
            let drop = dead || drop_pkt(arena.get(fr).packet.0);
            if drop {
                removed.push(arena.remove(fr));
            }
            !drop
        });
        if dead {
            credits.clear();
        }
    }

    /// Flits in flight on one VC (fault-time credit recount).
    pub(crate) fn wire_count(&self, vc: usize) -> usize {
        match self {
            Channel::Credited { wire, .. } => wire.iter().filter(|(s, _)| s.vc() == vc).count(),
            Channel::Elastic { .. } => unreachable!("fault recounts run on credited links only"),
        }
    }

    /// Credits in flight back upstream on one VC (fault-time credit
    /// recount).
    pub(crate) fn credit_count(&self, vc: usize) -> usize {
        match self {
            Channel::Credited { credits, .. } => credits.iter().filter(|s| s.vc() == vc).count(),
            Channel::Elastic { .. } => unreachable!("fault recounts run on credited links only"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{Flit, FlitArena, PacketId};
    use proptest::prelude::*;
    use snoc_topology::{NodeId, RouterId};
    use std::collections::VecDeque;

    /// A single-flit packet `id`.
    fn flit(id: u64) -> Flit {
        Flit::packet(
            PacketId(id),
            NodeId(0),
            NodeId(1),
            RouterId(1),
            1,
            0,
            true,
            false,
        )[0]
    }

    /// An arena pre-filled with `n` single-flit packets; `refs[i]` is
    /// packet `i`.
    fn arena(n: u64) -> (FlitArena, Vec<FlitRef>) {
        let mut arena = FlitArena::default();
        let refs = (0..n).map(|i| arena.insert(flit(i))).collect();
        (arena, refs)
    }

    #[test]
    fn credited_delivers_after_latency() {
        let (_a, f) = arena(2);
        let mut ch = Channel::credited(3, 10);
        ch.push(10, 0, f[1]);
        assert!(ch.pop_deliverable(12, |_| true).is_none());
        let (vc, got) = ch.pop_deliverable(13, |_| true).unwrap();
        assert_eq!(vc, 0);
        assert_eq!(got, f[1]);
        assert!(ch.pop_deliverable(14, |_| true).is_none());
    }

    #[test]
    fn credited_preserves_order() {
        let (_a, f) = arena(3);
        let mut ch = Channel::credited(2, 10);
        ch.push(0, 0, f[1]);
        ch.push(1, 1, f[2]);
        assert_eq!(ch.pop_deliverable(2, |_| true).unwrap().1, f[1]);
        assert_eq!(ch.pop_deliverable(3, |_| true).unwrap().1, f[2]);
    }

    #[test]
    fn credit_return_is_delayed() {
        let mut ch = Channel::credited(4, 10);
        ch.push_credit(5, 1);
        assert!(!ch.is_idle(), "in-flight credit keeps the channel busy");
        assert!(ch.pop_credit(8).is_none());
        assert_eq!(ch.pop_credit(9), Some(1));
        assert!(ch.pop_credit(10).is_none());
        assert!(ch.is_idle());
    }

    #[test]
    fn rings_are_sized_by_the_credit_bound() {
        let (_a, f) = arena(4);
        // A 9-cycle wire whose sender holds 2 credits carries 2 flits.
        let mut ch = Channel::credited(9, 2);
        assert_eq!(ch.heap_bytes(), 2 * 8 + 2 * 4);
        ch.push(0, 0, f[1]);
        ch.push(1, 1, f[2]);
        assert_eq!(ch.occupancy(), 2);
        // A 1-cycle wire carries one flit, whatever the credits.
        assert_eq!(Channel::credited(1, 10).heap_bytes(), 8 + 10 * 4);
    }

    #[test]
    #[should_panic(expected = "channel ring overflow")]
    fn a_push_past_the_bound_panics() {
        let (_a, f) = arena(3);
        let mut ch = Channel::credited(9, 2);
        for (now, &fr) in f.iter().enumerate() {
            ch.push(now as u64, 0, fr);
        }
    }

    #[test]
    fn stamps_decide_due_across_the_wrap() {
        for base in [0u64, (1 << 24) - 3, 5 << 24, u64::from(u32::MAX) - 1] {
            for latency in [1u64, 7, MAX_LATENCY] {
                let stamp = Stamp::new(base + latency, 3);
                assert_eq!(stamp.vc(), 3);
                assert!(!stamp.due_by(base), "{base} + {latency}");
                assert!(!stamp.due_by(base + latency - 1), "{base} + {latency}");
                assert!(stamp.due_by(base + latency), "{base} + {latency}");
                assert!(stamp.due_by(base + latency + 1), "{base} + {latency}");
            }
        }
    }

    #[test]
    fn elastic_pipeline_advances_one_stage_per_cycle() {
        let (_a, f) = arena(8);
        let mut ch = Channel::elastic(3, 2);
        assert!(ch.can_accept(0));
        ch.push(0, 0, f[7]);
        assert!(!ch.can_accept(0));
        assert!(ch.can_accept(1), "other VC slot still free");
        // After one tick the flit is in stage 1; after two, stage 2
        // (final). Only then is it deliverable.
        ch.tick();
        assert!(ch.pop_deliverable(2, |_| true).is_none());
        ch.tick();
        let (vc, got) = ch.pop_deliverable(3, |_| true).unwrap();
        assert_eq!((vc, got), (0, f[7]));
    }

    #[test]
    fn elastic_backpressure_holds_flit_in_final_stage() {
        let (_a, f) = arena(2);
        let mut ch = Channel::elastic(1, 1);
        ch.push(0, 0, f[1]);
        // Receiver refuses: flit stays, stage 0 remains blocked.
        assert!(ch.pop_deliverable(1, |_| false).is_none());
        assert!(!ch.can_accept(0));
        // Receiver accepts later.
        assert!(ch.pop_deliverable(2, |_| true).is_some());
        assert!(ch.can_accept(0));
    }

    #[test]
    fn elastic_shared_master_admits_one_advance_per_stage() {
        // One push per cycle, in the engine's order (tick, deliver,
        // push): a refused flit in the final stage holds the next flit
        // of its VC in stage 0 until a flit of the other VC joins it.
        let (_a, f) = arena(4);
        let mut ch = Channel::elastic(2, 2);
        ch.push(0, 0, f[1]);
        ch.tick(); // cycle 1: f1 reaches the final stage
        assert!(ch.pop_deliverable(1, |_| false).is_none());
        ch.push(1, 0, f[2]);
        ch.tick(); // cycle 2: f2 is blocked behind f1
        assert!(ch.pop_deliverable(2, |_| true).is_some());
        ch.push(2, 1, f[3]);
        assert!(
            !ch.can_accept(0) && !ch.can_accept(1),
            "both VCs in stage 0"
        );
        ch.tick(); // cycle 3: only one of the two can advance
        let advanced = usize::from(ch.can_accept(0)) + usize::from(ch.can_accept(1));
        assert_eq!(advanced, 1, "one VC still occupies stage 0");
    }

    #[test]
    fn elastic_round_robin_alternates_vcs() {
        let (_a, f) = arena(3);
        let mut ch = Channel::elastic(1, 2);
        ch.push(0, 0, f[1]);
        assert!(ch.pop_deliverable(1, |_| false).is_none());
        ch.push(1, 1, f[2]);
        let (vc1, _) = ch.pop_deliverable(2, |_| true).unwrap();
        let (vc2, _) = ch.pop_deliverable(3, |_| true).unwrap();
        assert_ne!(vc1, vc2, "round-robin serves both VCs");
    }

    #[test]
    fn occupancy_counts() {
        let (_a, f) = arena(3);
        let mut ch = Channel::credited(2, 10);
        assert_eq!(ch.occupancy(), 0);
        ch.push(0, 0, f[1]);
        ch.push(1, 1, f[2]);
        assert_eq!(ch.occupancy(), 2);
        ch.pop_deliverable(2, |_| true);
        assert_eq!(ch.occupancy(), 1);
    }

    /// A credited wire as a plain list of `(due, vc, flit)` entries and
    /// `(due, vc)` credits, plus the sender and receiver around it: the
    /// sender's credits per VC and the flits the receiver buffers.
    struct NaiveWire {
        latency: u64,
        flits: VecDeque<(u64, usize, FlitRef)>,
        credits: VecDeque<(u64, usize)>,
        sender: Vec<usize>,
        buffered: Vec<VecDeque<FlitRef>>,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The bounded channel matches the naive wire after every cycle
        /// of a random schedule under the engine's rules: per cycle,
        /// deliveries and credit returns first, then at most one flit
        /// pushed (spending a sender credit) and at most two credits
        /// pushed (each freeing a buffered flit), with the odd fault
        /// sweep dropping packets or the whole wire.
        #[test]
        fn bounded_channel_matches_a_naive_wire(
            seed in 0u64..=u64::MAX,
            latency in 1u64..14,
            vcs in 1usize..5,
            per_vc in 1usize..7,
            cycles in 20u64..300,
        ) {
            let mut rng = seed | 1;
            let mut below = move |n: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % n
            };
            let mut arena = FlitArena::default();
            let mut ch = Channel::credited(latency, vcs * per_vc);
            let mut model = NaiveWire {
                latency,
                flits: VecDeque::new(),
                credits: VecDeque::new(),
                sender: vec![per_vc; vcs],
                buffered: vec![VecDeque::new(); vcs],
            };
            let mut next_pkt = 0u64;
            for now in 0..cycles {
                // Deliveries: the receiver always has room, since a
                // credit backs every flit.
                let got = ch.pop_deliverable(now, |_| true);
                let want = match model.flits.front() {
                    Some(&(due, vc, fr)) if due <= now => {
                        model.flits.pop_front();
                        Some((vc, fr))
                    }
                    _ => None,
                };
                prop_assert_eq!(got, want, "delivery at cycle {}", now);
                if let Some((vc, fr)) = got {
                    model.buffered[vc].push_back(fr);
                }
                loop {
                    let got = ch.pop_credit(now);
                    let want = match model.credits.front() {
                        Some(&(due, vc)) if due <= now => {
                            model.credits.pop_front();
                            Some(vc)
                        }
                        _ => None,
                    };
                    prop_assert_eq!(got, want, "credit return at cycle {}", now);
                    let Some(vc) = got else { break };
                    model.sender[vc] += 1;
                }
                let vc = below(vcs as u64) as usize;
                if below(3) > 0 && model.sender[vc] > 0 {
                    model.sender[vc] -= 1;
                    let fr = arena.insert(flit(next_pkt));
                    next_pkt += 1;
                    ch.push(now, vc, fr);
                    model.flits.push_back((now + model.latency, vc, fr));
                }
                // Up to two credits: a CBR can free one input port's
                // slots on two VCs in one cycle (a bypass and a CB write).
                for _ in 0..2 {
                    let vc = below(vcs as u64) as usize;
                    if below(3) > 0 {
                        if let Some(fr) = model.buffered[vc].pop_front() {
                            arena.remove(fr);
                            ch.push_credit(now, vc);
                            model.credits.push_back((now + model.latency, vc));
                        }
                    }
                }
                if below(40) == 0 {
                    let dead = below(4) == 0;
                    let (modulus, rest) = (2 + below(3), below(2));
                    let doomed = |p: u64| p % modulus == rest;
                    let mut want = Vec::new();
                    model.flits.retain(|&(_, _, fr)| {
                        let pkt = arena.get(fr).packet.0;
                        let gone = dead || doomed(pkt);
                        if gone {
                            want.push(pkt);
                        }
                        !gone
                    });
                    let mut removed = Vec::new();
                    ch.sweep_faults(&mut arena, doomed, dead, &mut removed);
                    let got: Vec<u64> = removed.iter().map(|f| f.packet.0).collect();
                    prop_assert_eq!(got, want, "swept flits at cycle {}", now);
                    if dead {
                        model.credits.clear();
                    }
                    // The network's recount: what the sender started
                    // with, less what is on the wire, coming back, or
                    // buffered.
                    for vc in 0..vcs {
                        let on_wire = model.flits.iter().filter(|e| e.1 == vc).count();
                        let back = model.credits.iter().filter(|e| e.1 == vc).count();
                        model.sender[vc] = per_vc - on_wire - back - model.buffered[vc].len();
                    }
                }
                prop_assert_eq!(ch.occupancy(), model.flits.len());
                prop_assert_eq!(
                    ch.is_idle(),
                    model.flits.is_empty() && model.credits.is_empty()
                );
                let mut scanned = Vec::new();
                ch.scan_flits(|fr| scanned.push(fr));
                let order: Vec<FlitRef> = model.flits.iter().map(|e| e.2).collect();
                prop_assert_eq!(scanned, order, "wire order at cycle {}", now);
                for vc in 0..vcs {
                    let on_wire = model.flits.iter().filter(|e| e.1 == vc).count();
                    let back = model.credits.iter().filter(|e| e.1 == vc).count();
                    prop_assert_eq!(ch.wire_count(vc), on_wire, "wire count of vc {}", vc);
                    prop_assert_eq!(ch.credit_count(vc), back, "credit count of vc {}", vc);
                }
            }
        }
    }
}
