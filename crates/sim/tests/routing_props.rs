//! Property tests (vendored `proptest`) over the precomputed routing
//! tables' deadlock and progress invariants:
//!
//! - **torus DOR + dateline VCs are deadlock-free**: the channel-VC
//!   dependency graph induced by every (source, destination) route is
//!   acyclic for fuzzed ring dimensions — the dateline VC switch must
//!   cut both ring cycles in both dimensions;
//! - **mesh DOR makes progress**: every precomputed port steps strictly
//!   closer to the destination for fuzzed dims/concentration/src/dst
//!   (no livelock, paths are minimal).

use proptest::prelude::*;
use snoc_sim::RoutingTable;
use snoc_topology::{NodeId, RouterId, Topology};

/// A probe flit bound for `dst`'s router.
fn flit_to(dst: RouterId) -> snoc_sim::Flit {
    snoc_sim::Flit::packet(
        snoc_sim::PacketId(0),
        NodeId(0),
        NodeId(dst.index()),
        dst,
        1,
        0,
        true,
        false,
    )[0]
}

/// Detects a cycle in a directed graph (iterative 3-color DFS).
fn has_cycle(adj: &[Vec<usize>]) -> bool {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; adj.len()];
    for start in 0..adj.len() {
        if color[start] != WHITE {
            continue;
        }
        // Stack of (node, next-neighbor index).
        let mut stack = vec![(start, 0usize)];
        color[start] = GRAY;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next < adj[node].len() {
                let peer = adj[node][*next];
                *next += 1;
                match color[peer] {
                    GRAY => return true,
                    WHITE => {
                        color[peer] = GRAY;
                        stack.push((peer, 0));
                    }
                    _ => {}
                }
            } else {
                color[node] = BLACK;
                stack.pop();
            }
        }
    }
    false
}

/// Builds the channel-VC dependency graph of all-pairs DOR routes on a
/// torus when routed with `vcs` virtual channels, asserting route
/// sanity along the way (VCs in range, no routing loops, minimal
/// paths). The single source of truth for both the dateline property
/// and its negative control.
fn torus_dependency_graph(x: usize, y: usize, vcs: usize) -> Vec<Vec<usize>> {
    let t = Topology::torus(x, y, 1);
    let table = RoutingTable::minimal(&t);
    let nr = x * y;
    let max_ports = (0..nr)
        .map(|r| table.port_count(RouterId(r)))
        .max()
        .unwrap();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nr * max_ports * vcs];
    for s in 0..nr {
        for d in 0..nr {
            if s == d {
                continue;
            }
            let dst = RouterId(d);
            let mut f = flit_to(dst);
            let mut cur = RouterId(s);
            let mut prev: Option<usize> = None;
            let mut hops = 0usize;
            while cur != dst {
                let dec = table.route(cur, &f, vcs);
                assert!(dec.vc < vcs, "VC {} out of range on {x}x{y}", dec.vc);
                let node = (cur.index() * max_ports + dec.port) * vcs + dec.vc;
                if let Some(p) = prev {
                    adj[p].push(node);
                }
                prev = Some(node);
                cur = table.peer(cur, dec.port);
                f.hops += 1;
                hops += 1;
                assert!(hops <= nr, "routing loop {s} -> {d} on {x}x{y}");
            }
            // DOR on a torus is minimal.
            assert_eq!(
                hops,
                table.distance(RouterId(s), dst),
                "non-minimal route {s} -> {d} on {x}x{y}"
            );
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    adj
}

/// Negative control: with a single VC (datelines disabled by the
/// `min(vc, vcs-1)` clamp) the ring dependency IS cyclic — proving the
/// detector has teeth and the dateline VCs are load-bearing.
#[test]
fn single_vc_torus_rings_are_cyclic() {
    assert!(
        has_cycle(&torus_dependency_graph(4, 4, 1)),
        "a 4x4 torus on one VC must have a ring dependency cycle"
    );
    assert!(
        !has_cycle(&torus_dependency_graph(4, 4, 2)),
        "the dateline VC switch must cut it"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The torus dateline VC assignment never creates a cyclic
    /// channel-VC dependency. Every (src, dst) route contributes its
    /// chain of (channel, VC) holds; wormhole deadlock needs a cycle in
    /// the union of those chains, so an acyclic union proves deadlock
    /// freedom for DOR under any traffic.
    #[test]
    fn torus_dateline_vcs_never_create_cyclic_dependencies(
        x in 2usize..7,
        y in 2usize..7,
    ) {
        prop_assert!(
            !has_cycle(&torus_dependency_graph(x, y, 2)),
            "cyclic channel-VC dependency on torus {x}x{y}"
        );
    }

    /// Every precomputed mesh port steps strictly closer to the
    /// destination, for any dims/concentration and any router pair —
    /// walked all the way to delivery.
    #[test]
    fn mesh_ports_always_step_closer(
        x in 2usize..8,
        y in 1usize..6,
        conc in 1usize..4,
        src_raw in 0usize..10_000,
        dst_raw in 0usize..10_000,
    ) {
        let t = Topology::mesh(x, y, conc);
        let table = RoutingTable::minimal(&t);
        let nr = x * y;
        let src = RouterId(src_raw % nr);
        let dst = RouterId(dst_raw % nr);
        if src == dst {
            return Ok(());
        }
        let mut f = flit_to(dst);
        let mut cur = src;
        while cur != dst {
            let before = table.distance(cur, dst);
            let dec = table.route(cur, &f, 2);
            let next = table.peer(cur, dec.port);
            prop_assert_eq!(
                table.distance(next, dst),
                before - 1,
                "{} -> {} via {}: port must step closer",
                cur,
                dst,
                next
            );
            cur = next;
            f.hops += 1;
        }
        // The walk's length therefore equals the shortest distance —
        // DOR on a mesh is minimal.
        prop_assert_eq!(f.hops as usize, table.distance(src, dst));
    }
}
