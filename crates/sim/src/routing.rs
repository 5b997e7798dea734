//! Routing: deterministic minimal tables with hop-indexed VCs,
//! dimension-order routing with dateline VCs for meshes and tori, and
//! deadlock-free up*/down* repair tables for degraded (post-fault)
//! networks.
//!
//! The paper uses static minimum routing computed with Dijkstra (§5.1);
//! on unit-weight router graphs BFS yields identical paths.
//!
//! # Deadlock freedom, per table kind
//!
//! The guarantee differs by strategy — the honest contract, checkable
//! with [`crate::verify_deadlock_free`]:
//!
//! - **Mesh (dimension-order)**: deadlock-free at any VC count. DOR
//!   permits no turn from Y back into X, which leaves the channel
//!   dependency graph acyclic on every VC separately.
//! - **Torus (dimension-order + dateline VCs)**: deadlock-free at
//!   `|VC| ≥ 2`. Hop-indexed VCs cannot cut a ring cycle, so the VC is
//!   taken from the precomputed dateline table instead (VC0 before the
//!   wrap edge, VC1 after), independent of the hop count.
//! - **Irregular minimal tables** (Slim NoC, Dragonfly, FBF, …): the
//!   paper's §4.3 scheme — a packet on hop `h` uses VC `min(h,
//!   |VC|−1)`, so VC dependencies only increase and cannot cycle — is
//!   valid **only while `|VC|` is at least the maximal hop count**.
//!   The clamp at `|VC|−1` merges all later hops onto the top VC, so
//!   the guarantee is conditional on the configuration, not absolute;
//!   the shipped configs keep `|VC|` at the fault-free diameter or
//!   above. It also only covers freshly injected traffic (hop counters
//!   start at 0): [`crate::verify_deadlock_free`] additionally models
//!   packets mid-flight with accumulated hops — which saturate the
//!   clamp — and irregular minimal tables fail that stricter model at
//!   any VC count. Only hop-offset-robust schemes (mesh DOR, torus
//!   datelines, up*/down*) pass it, which is why fault repair never
//!   reuses the hop-indexed scheme.
//! - **Degraded tables** ([`RoutingTable::degraded`]): deterministic
//!   **up*/down*** routing over the surviving graph — deadlock-free on
//!   arbitrary connected subgraphs with *any* VC count and no
//!   dependence on path length, which is exactly what fault repair
//!   needs (post-fault paths can far exceed the fault-free diameter).
//!   Debug builds re-verify every swapped-in degraded table with the
//!   CDG checker.
//!
//! All strategies are fully precomputed at construction time: `route`
//! is two flat-array loads (`next_port[cur * nr + dst]` plus the VC
//! table or the hop counter), so the per-flit per-hop cost in the
//! simulator's cycle loop is a couple of cache hits, never a
//! recomputation.

use crate::flit::Flit;
use snoc_topology::{RouterId, Topology, TopologyKind};

/// The output chosen for a flit at a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// Output port (index into the router's neighbor list).
    pub port: usize,
    /// Output virtual channel.
    pub vc: usize,
}

/// Precomputed routing state for one topology.
///
/// `dist` and `next_port` are row-major `nr × nr` matrices flattened
/// into contiguous arrays (`[cur * nr + dst]`); `route_vc` is the
/// per-pair dateline VC for tori (`None` means hop-indexed VCs).
#[derive(Debug, Clone)]
pub struct RoutingTable {
    nr: usize,
    /// `dist[a * nr + b]` = hop distance between routers.
    dist: Vec<u16>,
    /// `next_port[cur * nr + dst]` = output port of the chosen path.
    next_port: Vec<u16>,
    /// Dateline VC per `(cur, dst)` pair (tori only).
    route_vc: Option<Vec<u8>>,
    /// `neighbors[cur]` is the sorted neighbor list (ports are positions
    /// in it).
    neighbors: Vec<Vec<RouterId>>,
    /// Largest finite entry of `dist`, computed once at construction
    /// ([`RoutingTable::max_finite_distance`]).
    max_dist: usize,
}

/// The largest non-sentinel entry of a distance matrix (0 if none).
fn max_finite(dist: &[u16]) -> usize {
    dist.iter()
        .filter(|&&d| d != u16::MAX)
        .max()
        .map_or(0, |&d| d as usize)
}

impl RoutingTable {
    /// Builds the minimal routing table for a topology.
    #[must_use]
    pub fn minimal(topo: &Topology) -> Self {
        let nr = topo.router_count();
        let neighbors: Vec<Vec<RouterId>> =
            topo.routers().map(|r| topo.neighbors(r).to_vec()).collect();
        let mut dist = vec![0u16; nr * nr];
        for r in topo.routers() {
            let d = topo.distances_from(r);
            for (j, &dj) in d.iter().enumerate() {
                assert!(dj != usize::MAX, "disconnected topology");
                dist[r.index() * nr + j] = dj as u16;
            }
        }
        let mut next_port = vec![0u16; nr * nr];
        let mut route_vc = None;
        match topo.kind() {
            TopologyKind::Mesh { x, .. } => {
                let x_dim = *x;
                for cur in 0..nr {
                    for dst in 0..nr {
                        if cur == dst {
                            continue;
                        }
                        let next = dor_next_mesh(RouterId(cur), RouterId(dst), x_dim);
                        next_port[cur * nr + dst] = port_of(&neighbors, cur, next) as u16;
                    }
                }
            }
            TopologyKind::Torus { x, y } => {
                let (x_dim, y_dim) = (*x, *y);
                let mut vcs = vec![0u8; nr * nr];
                for cur in 0..nr {
                    for dst in 0..nr {
                        if cur == dst {
                            continue;
                        }
                        let (next, vc) = dor_next_torus(RouterId(cur), RouterId(dst), x_dim, y_dim);
                        next_port[cur * nr + dst] = port_of(&neighbors, cur, next) as u16;
                        vcs[cur * nr + dst] = vc as u8;
                    }
                }
                route_vc = Some(vcs);
            }
            _ => {
                for cur in 0..nr {
                    for dst in 0..nr {
                        if cur == dst {
                            continue;
                        }
                        // Minimal next hops; tie broken by a (cur, dst)
                        // hash so different pairs spread over the
                        // candidates (two passes, no allocation).
                        let want = dist[cur * nr + dst] - 1;
                        let count = neighbors[cur]
                            .iter()
                            .filter(|n| dist[n.index() * nr + dst] == want)
                            .count();
                        assert!(count > 0, "minimal path must exist");
                        let pick =
                            (cur.wrapping_mul(31).wrapping_add(dst.wrapping_mul(17))) % count;
                        let port = neighbors[cur]
                            .iter()
                            .enumerate()
                            .filter(|(_, n)| dist[n.index() * nr + dst] == want)
                            .nth(pick)
                            .map(|(port, _)| port)
                            .expect("pick < count");
                        next_port[cur * nr + dst] = port as u16;
                    }
                }
            }
        }
        RoutingTable {
            nr,
            max_dist: max_finite(&dist),
            dist,
            next_port,
            route_vc,
            neighbors,
        }
    }

    /// Rebuilds a **deadlock-free up\*/down\*** table over the subgraph
    /// surviving a set of faults: a link is usable iff `link_alive`
    /// holds and both of its endpoint routers are marked alive.
    ///
    /// Ports keep their original numbering (positions in the full
    /// sorted neighbor list), so the simulator's channel indices stay
    /// valid — only next-hop choices change. Unreachable pairs get
    /// `u16::MAX` sentinels in `dist` and `next_port`; callers must
    /// consult [`RoutingTable::reachable`] before routing toward a
    /// pair. `reachable` coincides with plain connectivity of the
    /// surviving graph, so the doomed-packet rules are unchanged from
    /// the BFS repair this replaced.
    ///
    /// # The up\*/down\* scheme
    ///
    /// A canonical BFS spanning forest is grown over the surviving
    /// graph ([`snoc_topology::bfs_forest`]: each tree is rooted at the
    /// lowest-index live router of its component and grown in the
    /// pinned lexicographic BFS order). Routers are totally ordered by
    /// `key(v) = (tree level, router index)`; every surviving edge is
    /// *up* toward its smaller-key endpoint and *down* toward its
    /// larger-key endpoint. A legal path climbs up zero or more hops,
    /// then descends zero or more hops — never down-then-up. All-up
    /// chains strictly decrease `key` and all-down chains strictly
    /// increase it, so no channel-dependency cycle can close at any VC
    /// count, hop-clamped VCs included.
    ///
    /// The table is memoryless (`next_port[cur][dst]` only), so the
    /// turn restriction is enforced by *committing to the descent*: per
    /// destination, `D[v]` is the shortest all-down distance to `dst`
    /// and `T[v]` the table path length (`D[v]` where finite, else one
    /// up hop plus the best up-neighbor's `T`). A router with finite
    /// `D` always routes down; a down hop lands on a router whose `D`
    /// is again finite, so no path ever turns back up. Ties among legal
    /// next hops keep the documented `(cur·31 + dst·17) mod candidates`
    /// hash over ascending port order.
    ///
    /// [`RoutingTable::distance`] reports `T` — the exact length of the
    /// path the table walks, which may exceed the BFS distance of the
    /// surviving graph (the price of deadlock freedom). `T` is bounded
    /// by the router count: table paths are simple, since revisiting a
    /// router in the descent would contradict its infinite `D` during
    /// the climb.
    #[must_use]
    pub fn degraded<F>(topo: &Topology, router_alive: &[bool], mut link_alive: F) -> Self
    where
        F: FnMut(RouterId, RouterId) -> bool,
    {
        let nr = topo.router_count();
        let neighbors: Vec<Vec<RouterId>> =
            topo.routers().map(|r| topo.neighbors(r).to_vec()).collect();
        // usable[cur][port]: may a flit leave `cur` through `port`?
        let usable: Vec<Vec<bool>> = (0..nr)
            .map(|cur| {
                neighbors[cur]
                    .iter()
                    .map(|&n| {
                        router_alive[cur] && router_alive[n.index()] && link_alive(RouterId(cur), n)
                    })
                    .collect()
            })
            .collect();
        let alive_adj: Vec<Vec<RouterId>> = (0..nr)
            .map(|cur| {
                neighbors[cur]
                    .iter()
                    .zip(&usable[cur])
                    .filter(|&(_, &ok)| ok)
                    .map(|(&n, _)| n)
                    .collect()
            })
            .collect();
        let forest = snoc_topology::bfs_forest(nr, |r| &alive_adj[r.index()][..]);
        // The up*/down* total order: up endpoint = smaller key.
        let key = |v: usize| (forest.level[v], v);
        // Routers in ascending key order, so that when `T[v]` is
        // computed every up-neighbor's `T` is already final.
        let mut order: Vec<usize> = (0..nr).collect();
        order.sort_unstable_by_key(|&v| key(v));
        let mut dist = vec![u16::MAX; nr * nr];
        let mut next_port = vec![u16::MAX; nr * nr];
        // Per-destination scratch: D (all-down distance) and T (table
        // path length).
        let mut down = vec![u32::MAX; nr];
        let mut total = vec![u32::MAX; nr];
        let mut queue = std::collections::VecDeque::new();
        for dst in 0..nr {
            dist[dst * nr + dst] = 0;
            // D by BFS from dst: a down hop v → w has key(v) < key(w),
            // so D propagates from w to its smaller-key neighbors.
            down.fill(u32::MAX);
            total.fill(u32::MAX);
            down[dst] = 0;
            queue.push_back(dst);
            while let Some(w) = queue.pop_front() {
                for (&n, &ok) in neighbors[w].iter().zip(&usable[w]) {
                    let v = n.index();
                    if ok && key(v) < key(w) && down[v] == u32::MAX {
                        down[v] = down[w] + 1;
                        queue.push_back(v);
                    }
                }
            }
            // T in ascending key order: commit to the descent where D
            // is finite, otherwise climb through the best up-neighbor.
            // Every non-root has its BFS parent as an up-neighbor and
            // the root's tree path to dst is all-down, so T is finite
            // exactly on dst's component.
            for &v in &order {
                if down[v] != u32::MAX {
                    total[v] = down[v];
                    continue;
                }
                let mut best = u32::MAX;
                for (&n, &ok) in neighbors[v].iter().zip(&usable[v]) {
                    let u = n.index();
                    if ok && key(u) < key(v) {
                        best = best.min(total[u]);
                    }
                }
                if best != u32::MAX {
                    total[v] = best + 1;
                }
            }
            for cur in 0..nr {
                if cur == dst || total[cur] == u32::MAX {
                    continue;
                }
                dist[cur * nr + dst] = total[cur] as u16;
                let descending = down[cur] != u32::MAX;
                let candidate = |port: usize| {
                    let n = neighbors[cur][port].index();
                    usable[cur][port]
                        && if descending {
                            key(n) > key(cur) && down[n] != u32::MAX && down[n] + 1 == down[cur]
                        } else {
                            key(n) < key(cur) && total[n] != u32::MAX && total[n] + 1 == total[cur]
                        }
                };
                let count = (0..neighbors[cur].len()).filter(|&p| candidate(p)).count();
                assert!(count > 0, "reachable pair must have a next hop");
                let pick = (cur.wrapping_mul(31).wrapping_add(dst.wrapping_mul(17))) % count;
                let port = (0..neighbors[cur].len())
                    .filter(|&p| candidate(p))
                    .nth(pick)
                    .expect("pick < count");
                next_port[cur * nr + dst] = port as u16;
            }
        }
        RoutingTable {
            nr,
            max_dist: max_finite(&dist),
            dist,
            next_port,
            route_vc: None,
            neighbors,
        }
    }

    /// `true` if the table has a path from `a` to `b` (always true for
    /// [`RoutingTable::minimal`] tables; [`RoutingTable::degraded`]
    /// tables mark severed pairs with a `u16::MAX` distance sentinel).
    #[must_use]
    pub fn reachable(&self, a: RouterId, b: RouterId) -> bool {
        self.dist[a.index() * self.nr + b.index()] != u16::MAX
    }

    /// Hop distance between two routers.
    #[must_use]
    pub fn distance(&self, a: RouterId, b: RouterId) -> usize {
        self.dist[a.index() * self.nr + b.index()] as usize
    }

    /// Whether the table was built for `topo`'s wiring: same routers,
    /// same neighbour at every port. Simulators lay their channels out
    /// from the table, so a table of another topology must be refused.
    pub(crate) fn is_wired_like(&self, topo: &Topology) -> bool {
        self.nr == topo.router_count()
            && topo
                .routers()
                .all(|r| self.neighbors[r.index()] == topo.neighbors(r))
    }

    /// Number of router-to-router ports at `r`.
    #[must_use]
    pub fn port_count(&self, r: RouterId) -> usize {
        self.neighbors[r.index()].len()
    }

    /// The neighbor reached through `port` of router `r`.
    ///
    /// # Panics
    ///
    /// Panics if the port is out of range.
    #[must_use]
    pub fn peer(&self, r: RouterId, port: usize) -> RouterId {
        self.neighbors[r.index()][port]
    }

    /// The port of `cur` that leads to the adjacent router `next`.
    ///
    /// # Panics
    ///
    /// Panics if the routers are not adjacent.
    #[must_use]
    pub fn port_to(&self, cur: RouterId, next: RouterId) -> usize {
        port_of(&self.neighbors, cur.index(), next)
    }

    /// The routing target of a flit, honoring a not-yet-reached Valiant
    /// intermediate.
    #[must_use]
    pub fn target(flit: &Flit) -> RouterId {
        match flit.intermediate() {
            Some(mid) if !flit.intermediate_done() => mid,
            _ => flit.dst_router,
        }
    }

    /// Routes a flit at router `cur`: returns the output port and VC.
    ///
    /// # Panics
    ///
    /// Panics if the flit is already at its destination router.
    #[must_use]
    pub fn route(&self, cur: RouterId, flit: &Flit, vcs: usize) -> RouteDecision {
        let dst = Self::target(flit);
        self.route_toward(cur, dst, flit.hops, vcs)
    }

    /// Largest finite distance in the table: the diameter for
    /// [`RoutingTable::minimal`] tables, the longest walked table path
    /// for [`RoutingTable::degraded`] ones. Scales the default
    /// no-progress watchdog bound; O(1), every simulator build reads it.
    #[must_use]
    pub fn max_finite_distance(&self) -> usize {
        self.max_dist
    }

    /// The table lookup behind [`RoutingTable::route`] (and the deadlock
    /// checker, which probes it pair by pair).
    #[inline]
    pub(crate) fn route_toward(
        &self,
        cur: RouterId,
        dst: RouterId,
        hops: u16,
        vcs: usize,
    ) -> RouteDecision {
        assert_ne!(cur, dst, "flit already at target");
        let idx = cur.index() * self.nr + dst.index();
        let port = self.next_port[idx] as usize;
        debug_assert_ne!(
            port,
            u16::MAX as usize,
            "routing toward an unreachable destination"
        );
        let vc = match &self.route_vc {
            Some(table) => (table[idx] as usize).min(vcs - 1),
            None => (hops as usize).min(vcs - 1),
        };
        RouteDecision { port, vc }
    }
}

/// The port of `cur` leading to adjacent router `next` (sorted neighbor
/// lists, so a binary search).
fn port_of(neighbors: &[Vec<RouterId>], cur: usize, next: RouterId) -> usize {
    neighbors[cur]
        .binary_search(&next)
        .expect("routers must be adjacent")
}

/// Dimension-order next hop on a mesh (X first, then Y).
fn dor_next_mesh(cur: RouterId, dst: RouterId, x_dim: usize) -> RouterId {
    let (cx, cy) = (cur.index() % x_dim, cur.index() / x_dim);
    let (dx, dy) = (dst.index() % x_dim, dst.index() / x_dim);
    if cx != dx {
        let nx = if dx > cx { cx + 1 } else { cx - 1 };
        RouterId(cy * x_dim + nx)
    } else {
        let ny = if dy > cy { cy + 1 } else { cy - 1 };
        RouterId(ny * x_dim + cx)
    }
}

/// Dimension-order next hop on a torus, with the dateline VC.
///
/// Within a ring, the route direction is fixed (the shorter way; ties go
/// forward) and the VC is computed statelessly: going forward (+), a hop
/// made from a position past the destination (`cur > dst`) precedes the
/// wrap edge and uses VC0, anything else uses VC1 (mirrored for the −
/// direction). This breaks both ring dependency cycles: the VC0 chain
/// never contains the edge 0 → 1 (a hop from 0 going + always has
/// `cur < dst`), and VC1 traffic never crosses the wrap edge.
fn dor_next_torus(cur: RouterId, dst: RouterId, x_dim: usize, y_dim: usize) -> (RouterId, usize) {
    let (cx, cy) = (cur.index() % x_dim, cur.index() / x_dim);
    let (dx, dy) = (dst.index() % x_dim, dst.index() / x_dim);
    if cx != dx {
        let (nx, vc) = ring_step(cx, dx, x_dim);
        (RouterId(cy * x_dim + nx), vc)
    } else {
        let (ny, vc) = ring_step(cy, dy, y_dim);
        (RouterId(ny * x_dim + cx), vc)
    }
}

/// One step along a ring from `c` toward `d`: returns (next index, VC).
fn ring_step(c: usize, d: usize, dim: usize) -> (usize, usize) {
    let fwd = (d + dim - c) % dim;
    let go_fwd = fwd <= dim - fwd; // shorter way; tie -> forward
    if go_fwd {
        let n = (c + 1) % dim;
        let vc = usize::from(c < d); // pre-wrap segment (c > d) on VC0
        (n, vc)
    } else {
        let n = (c + dim - 1) % dim;
        let vc = usize::from(c > d);
        (n, vc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{Flit, PacketId};
    use snoc_topology::{NodeId, Topology};

    fn flit_to(dst_router: RouterId) -> Flit {
        Flit::packet(
            PacketId(0),
            NodeId(0),
            NodeId(dst_router.index()),
            dst_router,
            1,
            0,
            true,
            false,
        )[0]
    }

    /// Walks a flit from `src` to `dst`, returning the hop count.
    fn walk(topo: &Topology, table: &RoutingTable, src: RouterId, dst: RouterId) -> usize {
        let mut cur = src;
        let mut f = flit_to(dst);
        let mut hops = 0;
        while cur != dst {
            let d = table.route(cur, &f, 2);
            cur = table.peer(cur, d.port);
            f.hops += 1;
            hops += 1;
            assert!(hops <= topo.router_count(), "routing loop");
        }
        hops
    }

    #[test]
    fn minimal_paths_on_slim_noc() {
        let t = Topology::slim_noc(5, 1).unwrap();
        let table = RoutingTable::minimal(&t);
        for src in t.routers().step_by(7) {
            for dst in t.routers() {
                if src == dst {
                    continue;
                }
                let hops = walk(&t, &table, src, dst);
                assert_eq!(hops, table.distance(src, dst), "{src} -> {dst}");
                assert!(hops <= 2, "diameter-2 network");
            }
        }
    }

    #[test]
    fn minimal_paths_on_pfbf() {
        let t = Topology::partitioned_fbf(2, 2, 4, 4, 3);
        let table = RoutingTable::minimal(&t);
        for src in t.routers().step_by(5) {
            for dst in t.routers().step_by(3) {
                if src == dst {
                    continue;
                }
                assert_eq!(walk(&t, &table, src, dst), table.distance(src, dst));
            }
        }
    }

    #[test]
    fn dor_mesh_routes_x_first() {
        let t = Topology::mesh(4, 4, 1);
        let table = RoutingTable::minimal(&t);
        // From (0,0) to (2,2): the first hop must go +x to router 1.
        let f = flit_to(RouterId(10));
        let d = table.route(RouterId(0), &f, 2);
        assert_eq!(table.peer(RouterId(0), d.port), RouterId(1));
        assert_eq!(walk(&t, &table, RouterId(0), RouterId(10)), 4);
    }

    #[test]
    fn dor_torus_uses_wraparound() {
        let t = Topology::torus(6, 1, 1);
        let table = RoutingTable::minimal(&t);
        // 0 -> 5 is one hop across the wrap link.
        assert_eq!(walk(&t, &table, RouterId(0), RouterId(5)), 1);
        // 0 -> 3 is three hops either way.
        assert_eq!(walk(&t, &table, RouterId(0), RouterId(3)), 3);
    }

    #[test]
    fn torus_dateline_switches_vc() {
        let t = Topology::torus(6, 1, 1);
        let table = RoutingTable::minimal(&t);
        // Route 5 -> 1 goes forward through the wrap edge. The pre-wrap
        // hop (5 -> 0, cur > dst) uses VC0; once past the wrap (0 -> 1,
        // cur < dst) the packet moves to VC1.
        let f = flit_to(RouterId(1));
        let d = table.route(RouterId(5), &f, 2);
        assert_eq!(table.peer(RouterId(5), d.port), RouterId(0));
        assert_eq!(d.vc, 0, "pre-wrap segment on VC0");
        let d2 = table.route(RouterId(0), &f, 2);
        assert_eq!(table.peer(RouterId(0), d2.port), RouterId(1));
        assert_eq!(d2.vc, 1, "post-wrap segment on VC1");
        // The VC0 chain is broken at edge 0 -> 1: a forward hop from 0
        // always has cur < dst and therefore uses VC1.
        for dst in 1..=3 {
            let dd = table.route(RouterId(0), &flit_to(RouterId(dst)), 2);
            assert_eq!(dd.vc, 1, "0 -> {dst}");
        }
    }

    #[test]
    fn hop_indexed_vcs_on_table_strategy() {
        let t = Topology::slim_noc(3, 1).unwrap();
        let table = RoutingTable::minimal(&t);
        // Find a distance-2 pair and check VC increments with hops.
        let (src, dst) = t
            .routers()
            .flat_map(|a| t.routers().map(move |b| (a, b)))
            .find(|&(a, b)| table.distance(a, b) == 2)
            .expect("diameter 2");
        let mut f = flit_to(dst);
        let d1 = table.route(src, &f, 2);
        assert_eq!(d1.vc, 0, "first hop on VC0");
        f.hops = 1;
        let mid = table.peer(src, d1.port);
        let d2 = table.route(mid, &f, 2);
        assert_eq!(d2.vc, 1, "second hop on VC1");
    }

    #[test]
    fn degraded_walks_match_reported_distances() {
        // Kill a router and a link on a torus; every surviving pair
        // must still walk to its target in exactly `distance` hops
        // (the up*/down* T metric), within the simple-path bound.
        let t = Topology::torus(4, 4, 1);
        let mut alive = vec![true; t.router_count()];
        alive[5] = false;
        let table = RoutingTable::degraded(&t, &alive, |a, b| {
            (a.index().min(b.index()), a.index().max(b.index())) != (0, 1)
        });
        for src in t.routers() {
            for dst in t.routers() {
                if src == dst || !alive[src.index()] || !alive[dst.index()] {
                    continue;
                }
                assert!(table.reachable(src, dst), "{src} -> {dst}");
                assert_eq!(walk(&t, &table, src, dst), table.distance(src, dst));
            }
        }
    }

    #[test]
    fn degraded_dead_router_is_unreachable_but_self_distance_zero() {
        let t = Topology::mesh(3, 3, 1);
        let mut alive = vec![true; t.router_count()];
        alive[4] = false;
        let table = RoutingTable::degraded(&t, &alive, |_, _| true);
        let dead = RouterId(4);
        assert_eq!(table.distance(dead, dead), 0, "self distance stays 0");
        for r in t.routers() {
            if r != dead {
                assert!(!table.reachable(dead, r));
                assert!(!table.reachable(r, dead));
                // The 3x3 mesh minus its center stays connected.
                for s in t.routers() {
                    if s != dead && s != r {
                        assert!(table.reachable(s, r));
                    }
                }
            }
        }
    }

    #[test]
    fn degraded_severed_component_gets_sentinels() {
        // Cut the line 0-1-2-3 between 1 and 2.
        let t = Topology::mesh(4, 1, 1);
        let alive = vec![true; 4];
        let table = RoutingTable::degraded(&t, &alive, |a, b| {
            (a.index().min(b.index()), a.index().max(b.index())) != (1, 2)
        });
        assert!(table.reachable(RouterId(0), RouterId(1)));
        assert!(table.reachable(RouterId(2), RouterId(3)));
        assert!(!table.reachable(RouterId(0), RouterId(2)));
        assert!(!table.reachable(RouterId(3), RouterId(1)));
        assert_eq!(walk(&t, &table, RouterId(0), RouterId(1)), 1);
        assert_eq!(walk(&t, &table, RouterId(3), RouterId(2)), 1);
    }

    #[test]
    fn stored_max_distance_equals_a_scan_of_the_table() {
        let scan = |t: &Topology, table: &RoutingTable| {
            let pairs = t.routers().flat_map(|a| t.routers().map(move |b| (a, b)));
            pairs
                .filter(|&(a, b)| table.reachable(a, b))
                .map(|(a, b)| table.distance(a, b))
                .max()
                .unwrap_or(0)
        };
        let sn = Topology::slim_noc(5, 1).unwrap();
        let minimal = RoutingTable::minimal(&sn);
        assert_eq!(minimal.max_finite_distance(), sn.diameter());
        assert_eq!(minimal.max_finite_distance(), scan(&sn, &minimal));
        // Degraded: sentinels are skipped and up*/down* detours count.
        let line = Topology::mesh(4, 1, 1);
        let cut = RoutingTable::degraded(&line, &[true; 4], |a, b| {
            (a.index().min(b.index()), a.index().max(b.index())) != (1, 2)
        });
        assert_eq!(cut.max_finite_distance(), 1);
        let torus = Topology::torus(4, 4, 1);
        let mut alive = vec![true; torus.router_count()];
        alive[5] = false;
        let healed = RoutingTable::degraded(&torus, &alive, |_, _| true);
        assert_eq!(healed.max_finite_distance(), scan(&torus, &healed));
    }

    #[test]
    fn valiant_intermediate_target() {
        let mut f = flit_to(RouterId(9));
        assert_eq!(RoutingTable::target(&f), RouterId(9));
        f.set_intermediate(RouterId(4));
        assert_eq!(RoutingTable::target(&f), RouterId(4));
        f.mark_intermediate_done();
        assert_eq!(RoutingTable::target(&f), RouterId(9));
    }

    #[test]
    fn port_mappings_are_consistent() {
        let t = Topology::slim_noc(5, 1).unwrap();
        let table = RoutingTable::minimal(&t);
        for r in t.routers() {
            for port in 0..table.port_count(r) {
                let peer = table.peer(r, port);
                assert_eq!(table.port_to(r, peer), port);
                assert!(table.port_to(peer, r) < table.port_count(peer));
            }
        }
    }

    #[test]
    fn dor_tables_match_recomputation() {
        // The precomputed DOR port tables must agree with the stateless
        // next-hop functions for every pair.
        let mesh = Topology::mesh(5, 3, 1);
        let mt = RoutingTable::minimal(&mesh);
        for cur in mesh.routers() {
            for dst in mesh.routers() {
                if cur == dst {
                    continue;
                }
                let d = mt.route(cur, &flit_to(dst), 2);
                assert_eq!(mt.peer(cur, d.port), dor_next_mesh(cur, dst, 5));
            }
        }
        let torus = Topology::torus(4, 4, 1);
        let tt = RoutingTable::minimal(&torus);
        for cur in torus.routers() {
            for dst in torus.routers() {
                if cur == dst {
                    continue;
                }
                let d = tt.route(cur, &flit_to(dst), 4);
                let (next, vc) = dor_next_torus(cur, dst, 4, 4);
                assert_eq!(tt.peer(cur, d.port), next);
                assert_eq!(d.vc, vc);
            }
        }
    }
}
