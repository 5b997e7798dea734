//! Property tests for the free-list flit slab ([`FlitArena`] /
//! [`FlitRef`]): fuzzed
//! alloc/free sequences must never hand out a ref that is already live
//! (the observable form of a double-free), the live count must track a
//! shadow model exactly, every live slot must retain its payload
//! untouched by other operations, and freed slots must be recycled (the
//! slab never grows past the peak live population).

use proptest::prelude::*;
use snoc_sim::{Flit, FlitArena, FlitRef, PacketId};
use snoc_topology::{NodeId, RouterId};

/// A distinguishable single-flit payload: the tag rides in the packet
/// id and the creation cycle, so corruption of either field is caught.
fn tagged(tag: u64) -> Flit {
    Flit::nth_of_packet(
        PacketId(tag),
        0,
        1,
        NodeId(0),
        NodeId(1),
        RouterId(1),
        tag,
        false,
        false,
    )
}

/// Tiny deterministic generator for the op stream (the vendored
/// proptest has no collection strategies, so sequences derive from one
/// fuzzed seed).
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random interleavings of insert/remove against a shadow model.
    #[test]
    fn arena_tracks_shadow_model_and_recycles_slots(
        seed in 1u64..u64::MAX,
        ops in 10usize..400,
    ) {
        let mut state = seed;
        let mut arena = FlitArena::default();
        // The shadow model: (ref, tag) of every live flit.
        let mut live: Vec<(FlitRef, u64)> = Vec::new();
        let mut next_tag = 0u64;
        let mut peak = 0usize;
        for _ in 0..ops {
            let roll = next(&mut state);
            if live.is_empty() || !roll.is_multiple_of(3) {
                let tag = next_tag;
                next_tag += 1;
                let r = arena.insert(tagged(tag));
                prop_assert!(
                    !live.iter().any(|&(l, _)| l == r),
                    "insert returned an already-live ref {r:?} (double allocation)"
                );
                live.push((r, tag));
            } else {
                let pick = (roll as usize / 3) % live.len();
                let (r, tag) = live.swap_remove(pick);
                let flit = arena.remove(r);
                prop_assert_eq!(
                    flit.packet, PacketId(tag),
                    "removed slot held a different payload"
                );
                prop_assert_eq!(flit.created, tag);
            }
            peak = peak.max(live.len());
            prop_assert_eq!(arena.len(), live.len(), "live count drifted");
            prop_assert_eq!(arena.is_empty(), live.is_empty());
        }
        // Payload integrity of everything still live.
        for &(r, tag) in &live {
            prop_assert_eq!(arena.get(r).packet, PacketId(tag));
        }
        // Slot recycling: the slab never outgrew the peak population.
        prop_assert!(
            arena.capacity() <= peak,
            "slab grew to {} slots with a peak of {} live flits",
            arena.capacity(),
            peak
        );
    }

    /// Draining everything and refilling stays inside the original
    /// footprint: the free list really is reused, in LIFO order.
    #[test]
    fn drain_and_refill_reuses_every_slot(n in 1usize..120, seed in 0u64..u64::MAX) {
        let mut arena = FlitArena::default();
        let refs: Vec<FlitRef> = (0..n as u64).map(|i| arena.insert(tagged(i))).collect();
        prop_assert_eq!(arena.len(), n);
        let footprint = arena.capacity();
        // Remove in a seed-dependent order.
        let mut state = seed | 1;
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (next(&mut state) as usize) % (i + 1);
            order.swap(i, j);
        }
        let mut freed = Vec::new();
        for &i in &order {
            arena.remove(refs[i]);
            freed.push(refs[i]);
        }
        prop_assert!(arena.is_empty());
        prop_assert_eq!(arena.capacity(), footprint, "freeing never grows the slab");
        // Refill: the free list hands slots back most-recently-freed
        // first, and the slab does not grow.
        for (k, expected) in freed.iter().rev().enumerate() {
            let r = arena.insert(tagged(1_000 + k as u64));
            prop_assert_eq!(r, *expected, "LIFO slot reuse");
        }
        prop_assert_eq!(arena.capacity(), footprint);
        prop_assert_eq!(arena.len(), n);
    }
}

/// The remove-then-insert round trip reuses the exact slot immediately
/// (the free list is LIFO) — pinned deterministically, independent of
/// the fuzz above.
#[test]
fn freed_slot_is_reused_immediately() {
    let mut arena = FlitArena::default();
    let a = arena.insert(tagged(1));
    let b = arena.insert(tagged(2));
    assert_ne!(a, b);
    arena.remove(a);
    assert_eq!(arena.insert(tagged(3)), a);
    assert_eq!(arena.get(a).packet, PacketId(3));
    assert_eq!(arena.get(b).packet, PacketId(2));
    assert_eq!(arena.capacity(), 2);
}
