//! Property tests for `Topology::partition` / `Topology::edge_cut`.
//!
//! The sharded simulation engine assigns one shard per part, so these
//! invariants are load-bearing: a router assigned to no part (or two)
//! would be simulated zero or two times, unbalanced parts would stall
//! the lockstep window barrier, and any nondeterminism would break the
//! engine's bit-exactness contract across reruns.

use proptest::prelude::*;
use snoc_topology::Topology;

/// Expands one arbitrary-but-deterministic topology from an integer
/// seed, spanning every constructor family (the vendored proptest only
/// has range strategies, so structured values come from integers).
fn topology_from(bits: u64) -> Topology {
    let x = 2 + (bits >> 8) % 5; // 2..=6
    let y = 2 + (bits >> 16) % 4; // 2..=5
    let c = 1 + (bits >> 24) % 3; // 1..=3
    let (x, y, c) = (x as usize, y as usize, c as usize);
    match bits % 6 {
        0 => Topology::slim_noc([3, 5, 7][x % 3], c).expect("prime-power q"),
        1 => Topology::mesh(x, y, c),
        2 => Topology::torus(x, y, c),
        3 => Topology::flattened_butterfly(x, y, c),
        4 => Topology::partitioned_fbf(2, 1, x, y, c),
        _ => Topology::dragonfly(1 + x % 3),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_router_lands_in_exactly_one_balanced_part(
        topo_bits in 0u64..u64::MAX,
        parts_bits in 0u64..u64::MAX,
    ) {
        let topo = topology_from(topo_bits);
        let nr = topo.router_count();
        // Deliberately includes 0 and > nr to exercise the clamp.
        let parts = (parts_bits % (nr as u64 + 2)) as usize;
        let assign = topo.partition(parts);
        let clamped = parts.clamp(1, nr);

        // Exactly-once coverage: one entry per router, every entry a
        // valid part index — so each router is simulated exactly once.
        prop_assert_eq!(assign.len(), nr);
        let mut sizes = vec![0usize; clamped];
        for (r, &p) in assign.iter().enumerate() {
            prop_assert!(p < clamped, "router {r} got out-of-range part {p}");
            sizes[p] += 1;
        }

        // Balance: all parts non-empty, sizes within ±1 of each other.
        prop_assert_eq!(sizes.iter().sum::<usize>(), nr);
        let (min, max) = (sizes.iter().min(), sizes.iter().max());
        prop_assert!(
            max.expect("nonempty") - min.expect("nonempty") <= 1,
            "unbalanced parts: {:?}", sizes
        );
    }

    #[test]
    fn edge_cut_matches_a_brute_force_recount(
        topo_bits in 0u64..u64::MAX,
        parts_bits in 0u64..u64::MAX,
    ) {
        let topo = topology_from(topo_bits);
        let nr = topo.router_count();
        let parts = 1 + (parts_bits % nr as u64) as usize;
        let assign = topo.partition(parts);

        let brute = topo
            .links()
            .filter(|&(a, b)| assign[a.index()] != assign[b.index()])
            .count();
        prop_assert_eq!(topo.edge_cut(&assign), brute);

        // Sanity bound: the cut can never exceed the link count, and a
        // single-part partition cuts nothing.
        prop_assert!(brute <= topo.links().count());
        prop_assert_eq!(topo.edge_cut(&topo.partition(1)), 0);
    }

    #[test]
    fn partition_is_deterministic_across_calls_and_rebuilds(
        topo_bits in 0u64..u64::MAX,
        parts_bits in 0u64..u64::MAX,
    ) {
        let topo = topology_from(topo_bits);
        let parts = 1 + (parts_bits % topo.router_count() as u64) as usize;
        // Same topology object, repeated calls.
        prop_assert_eq!(topo.partition(parts), topo.partition(parts));
        // Freshly rebuilt topology from the same seed — the contract
        // the sharded engine actually relies on across processes.
        prop_assert_eq!(topology_from(topo_bits).partition(parts), topo.partition(parts));
    }
}
