//! The workspace's one seeded breadth-first traversal.
//!
//! Three subsystems previously hand-rolled BFS — resilience analysis
//! (components + path stats over degraded graphs), the partitioner
//! (greedy frontier growth), and the reference router's distance
//! tables — and each carried its own queue discipline. They now share
//! this helper, so the traversal order is pinned in exactly one place.
//!
//! # Tie-break
//!
//! Traversal order is fully deterministic: routers are discovered in
//! first-parent order, and the neighbors of one parent are expanded in
//! adjacency-list order. Since every adjacency list in this crate is
//! sorted ascending, routers at equal distance are visited in the order
//! of `(discovery order of parent, neighbor index)` — the unique
//! lexicographically-smallest BFS order. `partition`, `resilience`,
//! the reference routing tables, and the optimized engine's degraded
//! rerouting all inherit this order, and
//! `tie_break_is_lowest_index_first` pins it.

use crate::RouterId;
use std::collections::VecDeque;

/// What to do with a router just reached by [`bfs_from`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BfsControl {
    /// Keep it: expand its neighbors onto the frontier.
    Descend,
    /// Skip it: counts as visited (never re-reached) but its neighbors
    /// are not expanded — e.g. a router already claimed by another
    /// partition part.
    Prune,
    /// Halt the whole traversal immediately.
    Stop,
}

/// Breadth-first traversal from `src` over an arbitrary adjacency view.
///
/// Calls `visit(router, hop_distance)` exactly once per reachable
/// router, in the deterministic order documented at the module level
/// (`src` first, at distance 0). `neighbors` supplies the adjacency
/// list of a router; pass a closure over [`crate::Topology::neighbors`]
/// or over any rebuilt (e.g. degraded) adjacency.
///
/// `router_count` bounds the visited-marker allocation; every router
/// index returned by `neighbors` must be below it.
pub fn bfs_from<'a, N, V>(router_count: usize, src: RouterId, mut neighbors: N, mut visit: V)
where
    N: FnMut(RouterId) -> &'a [RouterId],
    V: FnMut(RouterId, usize) -> BfsControl,
{
    let mut seen = vec![false; router_count];
    let mut queue = VecDeque::new();
    seen[src.index()] = true;
    queue.push_back((src, 0usize));
    while let Some((r, d)) = queue.pop_front() {
        match visit(r, d) {
            BfsControl::Stop => return,
            BfsControl::Prune => continue,
            BfsControl::Descend => {}
        }
        for &n in neighbors(r) {
            if !seen[n.index()] {
                seen[n.index()] = true;
                queue.push_back((n, d + 1));
            }
        }
    }
}

/// Hop distances from `src` to every router; unreachable routers get
/// `usize::MAX`. Built on [`bfs_from`], so it shares the documented
/// traversal order.
#[must_use]
pub fn bfs_distances<'a, N>(router_count: usize, src: RouterId, neighbors: N) -> Vec<usize>
where
    N: FnMut(RouterId) -> &'a [RouterId],
{
    let mut dist = vec![usize::MAX; router_count];
    bfs_from(router_count, src, neighbors, |r, d| {
        dist[r.index()] = d;
        BfsControl::Descend
    });
    dist
}

/// A BFS spanning forest over an adjacency view: per router, the root
/// of its tree and its depth below that root. Produced by
/// [`bfs_forest`]; the up*/down* degraded-routing tables are built on
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsForest {
    /// `root[r]` — the root of `r`'s tree: the lowest router index in
    /// `r`'s connected component.
    pub root: Vec<RouterId>,
    /// `level[r]` — BFS depth of `r` below its root (0 at the root).
    pub level: Vec<usize>,
}

/// Builds the canonical BFS spanning forest of an adjacency view: the
/// lowest-index router not yet covered seeds each tree (so every root
/// is the minimum index of its component), and each tree is grown with
/// [`bfs_from`]'s pinned traversal order. Every router is covered — an
/// isolated router becomes a singleton tree rooted at itself.
///
/// Two properties the callers lean on: the forest is a pure function
/// of the adjacency view (deterministic across rebuilds), and adjacent
/// routers differ in `level` by at most 1 (BFS layering), so ordering
/// routers by `(level, index)` orients every surviving edge.
#[must_use]
pub fn bfs_forest<'a, N>(router_count: usize, mut neighbors: N) -> BfsForest
where
    N: FnMut(RouterId) -> &'a [RouterId],
{
    let mut root = vec![RouterId(0); router_count];
    let mut level = vec![usize::MAX; router_count];
    for s in 0..router_count {
        if level[s] != usize::MAX {
            continue; // already claimed by an earlier (lower-root) tree
        }
        bfs_from(router_count, RouterId(s), &mut neighbors, |r, d| {
            root[r.index()] = RouterId(s);
            level[r.index()] = d;
            BfsControl::Descend
        });
    }
    BfsForest { root, level }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;

    #[test]
    fn distances_match_topology_bfs() {
        for t in [
            Topology::slim_noc(5, 1).unwrap(),
            Topology::mesh(4, 4, 1),
            Topology::torus(4, 4, 1),
        ] {
            for src in t.routers() {
                let d = bfs_distances(t.router_count(), src, |r| t.neighbors(r));
                assert_eq!(d, t.distances_from(src), "{} from {src:?}", t.name());
            }
        }
    }

    #[test]
    fn tie_break_is_lowest_index_first() {
        // On a 3x3 mesh from the corner, routers at each distance must
        // appear in ascending index order: equal-distance candidates
        // are discovered through the lowest-index parent first, and a
        // parent's sorted adjacency list expands lowest index first.
        let t = Topology::mesh(3, 3, 1);
        let mut order = Vec::new();
        bfs_from(
            t.router_count(),
            RouterId(0),
            |r| t.neighbors(r),
            |r, d| {
                order.push((d, r.index()));
                BfsControl::Descend
            },
        );
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted, "BFS order must be (distance, index)-sorted");
        assert_eq!(order.len(), 9);
    }

    #[test]
    fn prune_stops_expansion_but_not_traversal() {
        // Line 0-1-2-3: pruning router 1 makes 2 and 3 unreachable.
        let t = Topology::mesh(4, 1, 1);
        let mut visited = Vec::new();
        bfs_from(
            t.router_count(),
            RouterId(0),
            |r| t.neighbors(r),
            |r, _| {
                visited.push(r.index());
                if r.index() == 1 {
                    BfsControl::Prune
                } else {
                    BfsControl::Descend
                }
            },
        );
        assert_eq!(visited, vec![0, 1]);
    }

    #[test]
    fn stop_halts_immediately() {
        let t = Topology::mesh(4, 4, 1);
        let mut count = 0;
        bfs_from(
            t.router_count(),
            RouterId(0),
            |r| t.neighbors(r),
            |_, _| {
                count += 1;
                if count == 3 {
                    BfsControl::Stop
                } else {
                    BfsControl::Descend
                }
            },
        );
        assert_eq!(count, 3);
    }

    #[test]
    fn forest_on_connected_graph_is_one_tree_with_bfs_levels() {
        let t = Topology::mesh(3, 3, 1);
        let f = bfs_forest(t.router_count(), |r| t.neighbors(r));
        assert!(f.root.iter().all(|&r| r == RouterId(0)));
        assert_eq!(f.level, t.distances_from(RouterId(0)));
        // Adjacent routers sit on adjacent (or equal) BFS layers.
        for r in t.routers() {
            for &n in t.neighbors(r) {
                assert!(f.level[r.index()].abs_diff(f.level[n.index()]) <= 1);
            }
        }
    }

    #[test]
    fn forest_roots_are_component_minima() {
        // Line 0-1-2-3 with the 1-2 link hidden: components {0,1} and
        // {2,3}, rooted at 0 and 2; isolated views root every router at
        // itself.
        let t = Topology::mesh(4, 1, 1);
        let cut: Vec<Vec<RouterId>> = t
            .routers()
            .map(|r| {
                t.neighbors(r)
                    .iter()
                    .copied()
                    .filter(|&n| {
                        let (a, b) = (r.index().min(n.index()), r.index().max(n.index()));
                        (a, b) != (1, 2)
                    })
                    .collect()
            })
            .collect();
        let f = bfs_forest(t.router_count(), |r| &cut[r.index()][..]);
        assert_eq!(
            f.root,
            vec![RouterId(0), RouterId(0), RouterId(2), RouterId(2)]
        );
        assert_eq!(f.level, vec![0, 1, 0, 1]);
        let isolated = bfs_forest(t.router_count(), |_| &[]);
        for r in t.routers() {
            assert_eq!(isolated.root[r.index()], r);
            assert_eq!(isolated.level[r.index()], 0);
        }
    }

    #[test]
    fn forest_is_deterministic_across_rebuilds() {
        let t = Topology::slim_noc(3, 2).unwrap();
        let a = bfs_forest(t.router_count(), |r| t.neighbors(r));
        let b = bfs_forest(t.router_count(), |r| t.neighbors(r));
        assert_eq!(a, b);
    }

    #[test]
    fn unreachable_routers_get_max_sentinel() {
        // An adjacency view that hides every link isolates the source.
        let t = Topology::mesh(3, 3, 1);
        let d = bfs_distances(t.router_count(), RouterId(4), |_| &[]);
        assert_eq!(d[4], 0);
        assert_eq!(d.iter().filter(|&&x| x == usize::MAX).count(), 8);
    }
}
