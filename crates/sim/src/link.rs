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

use crate::flit::FlitRef;
use crate::router::fast_wrap;
use std::collections::VecDeque;

/// A unidirectional link channel.
#[derive(Debug, Clone)]
pub(crate) enum Channel {
    /// Ideal pipelined wire with credit-based end-to-end flow control:
    /// any number of flits may be in flight; the sender's credit counter
    /// bounds them by the downstream buffer size.
    Credited {
        /// Latency in cycles.
        latency: u64,
        /// In-flight flits tagged with arrival cycle and VC.
        in_flight: VecDeque<(u64, usize, FlitRef)>,
        /// In-flight credits (returning upstream) tagged with arrival
        /// cycle and VC.
        credits: VecDeque<(u64, usize)>,
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
    pub(crate) fn credited(latency: u64) -> Self {
        Channel::Credited {
            latency: latency.max(1),
            in_flight: VecDeque::new(),
            credits: VecDeque::new(),
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

    /// Latency in cycles.
    pub(crate) fn latency(&self) -> u64 {
        match self {
            Channel::Credited { latency, .. } => *latency,
            Channel::Elastic { occ, .. } => occ.len() as u64,
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
    /// [`Channel::can_accept`].
    pub(crate) fn push(&mut self, now: u64, vc: usize, flit: FlitRef) {
        match self {
            Channel::Credited {
                latency, in_flight, ..
            } => in_flight.push_back((now + *latency, vc, flit)),
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
            credits.push_back((now + *latency, vc));
        }
    }

    /// Pushes a flit with an absolute arrival cycle (credited mode
    /// only). The sharded engine uses this to materialize boundary
    /// flits on the receiving shard: the sender already stamped the
    /// arrival as `push_cycle + latency`, so no further delay applies.
    ///
    /// # Panics
    ///
    /// Panics on elastic channels — the sharded engine never cuts them.
    pub(crate) fn push_at(&mut self, when: u64, vc: usize, flit: FlitRef) {
        match self {
            Channel::Credited { in_flight, .. } => in_flight.push_back((when, vc, flit)),
            Channel::Elastic { .. } => panic!("push_at is credited-only"),
        }
    }

    /// Pushes a credit with an absolute arrival cycle (credited mode
    /// only) — the boundary-credit counterpart of [`Channel::push_at`].
    pub(crate) fn push_credit_at(&mut self, when: u64, vc: usize) {
        if let Channel::Credited { credits, .. } = self {
            credits.push_back((when, vc));
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
            Channel::Credited { in_flight, .. } => {
                if let Some(&(when, vc, _)) = in_flight.front() {
                    if when <= now {
                        assert!(accept(vc), "credited delivery must have space");
                        let (_, vc, flit) = in_flight.pop_front().expect("checked");
                        return Some((vc, flit));
                    }
                }
                None
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
        if let Channel::Credited { credits, .. } = self {
            if let Some(&(when, vc)) = credits.front() {
                if when <= now {
                    credits.pop_front();
                    return Some(vc);
                }
            }
        }
        None
    }

    /// Whether the channel holds no flits and no in-flight credits —
    /// idle channels are skipped by the cycle loop entirely.
    pub(crate) fn is_idle(&self) -> bool {
        match self {
            Channel::Credited {
                in_flight, credits, ..
            } => in_flight.is_empty() && credits.is_empty(),
            Channel::Elastic { live, .. } => *live == 0,
        }
    }

    /// Number of flits currently inside the channel (for occupancy-based
    /// adaptive routing and drain checks).
    pub(crate) fn occupancy(&self) -> usize {
        match self {
            Channel::Credited { in_flight, .. } => in_flight.len(),
            Channel::Elastic { live, .. } => *live as usize,
        }
    }

    /// Fault scan (credited mode — the fault-injection envelope):
    /// visits every in-flight flit, in wire order.
    pub(crate) fn scan_flits<V: FnMut(FlitRef)>(&self, mut visit: V) {
        match self {
            Channel::Credited { in_flight, .. } => {
                for &(_, _, fr) in in_flight {
                    visit(fr);
                }
            }
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
        let Channel::Credited {
            in_flight, credits, ..
        } = self
        else {
            unreachable!("fault sweeps run on credited links only")
        };
        let mut kept = VecDeque::with_capacity(in_flight.len());
        for (when, vc, fr) in in_flight.drain(..) {
            if dead || drop_pkt(arena.get(fr).packet.0) {
                removed.push(arena.remove(fr));
            } else {
                kept.push_back((when, vc, fr));
            }
        }
        *in_flight = kept;
        if dead {
            credits.clear();
        }
    }

    /// Flits in flight on one VC (fault-time credit recount).
    pub(crate) fn wire_count(&self, vc: usize) -> usize {
        match self {
            Channel::Credited { in_flight, .. } => {
                in_flight.iter().filter(|&&(_, v, _)| v == vc).count()
            }
            Channel::Elastic { .. } => unreachable!("fault recounts run on credited links only"),
        }
    }

    /// Credits in flight back upstream on one VC (fault-time credit
    /// recount).
    pub(crate) fn credit_count(&self, vc: usize) -> usize {
        match self {
            Channel::Credited { credits, .. } => credits.iter().filter(|&&(_, v)| v == vc).count(),
            Channel::Elastic { .. } => unreachable!("fault recounts run on credited links only"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{Flit, FlitArena, PacketId};
    use snoc_topology::{NodeId, RouterId};

    /// An arena pre-filled with `n` single-flit packets; `refs[i]` is
    /// packet `i`.
    fn arena(n: u64) -> (FlitArena, Vec<FlitRef>) {
        let mut arena = FlitArena::default();
        let refs = (0..n)
            .map(|i| {
                arena.insert(
                    Flit::packet(
                        PacketId(i),
                        NodeId(0),
                        NodeId(1),
                        RouterId(1),
                        1,
                        0,
                        true,
                        false,
                    )[0],
                )
            })
            .collect();
        (arena, refs)
    }

    #[test]
    fn credited_delivers_after_latency() {
        let (_a, f) = arena(2);
        let mut ch = Channel::credited(3);
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
        let mut ch = Channel::credited(2);
        ch.push(0, 0, f[1]);
        ch.push(1, 1, f[2]);
        assert_eq!(ch.pop_deliverable(2, |_| true).unwrap().1, f[1]);
        assert_eq!(ch.pop_deliverable(3, |_| true).unwrap().1, f[2]);
    }

    #[test]
    fn credit_return_is_delayed() {
        let mut ch = Channel::credited(4);
        ch.push_credit(5, 1);
        assert!(!ch.is_idle(), "in-flight credit keeps the channel busy");
        assert!(ch.pop_credit(8).is_none());
        assert_eq!(ch.pop_credit(9), Some(1));
        assert!(ch.pop_credit(10).is_none());
        assert!(ch.is_idle());
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
        let (_a, f) = arena(3);
        let mut ch = Channel::elastic(2, 2);
        ch.push(0, 0, f[1]);
        ch.push(0, 1, f[2]);
        ch.tick(); // only one of the two can advance to stage 1
        let advanced = !ch.can_accept(0) as usize + !ch.can_accept(1) as usize;
        assert_eq!(advanced, 1, "one VC still occupies stage 0");
    }

    #[test]
    fn elastic_round_robin_alternates_vcs() {
        let (_a, f) = arena(3);
        let mut ch = Channel::elastic(1, 2);
        ch.push(0, 0, f[1]);
        ch.push(0, 1, f[2]);
        let (vc1, _) = ch.pop_deliverable(1, |_| true).unwrap();
        let (vc2, _) = ch.pop_deliverable(2, |_| true).unwrap();
        assert_ne!(vc1, vc2, "round-robin serves both VCs");
    }

    #[test]
    fn occupancy_counts() {
        let (_a, f) = arena(3);
        let mut ch = Channel::credited(2);
        assert_eq!(ch.occupancy(), 0);
        ch.push(0, 0, f[1]);
        ch.push(0, 1, f[2]);
        assert_eq!(ch.occupancy(), 2);
        ch.pop_deliverable(2, |_| true);
        assert_eq!(ch.occupancy(), 1);
    }
}
