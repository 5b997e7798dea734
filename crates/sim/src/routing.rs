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
use crate::stats::{heap_bytes, nested_heap_bytes};
use snoc_topology::{RouterId, Topology, TopologyKind};

/// The output chosen for a flit at a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// Output port (index into the router's neighbor list).
    pub port: usize,
    /// Output virtual channel.
    pub vc: usize,
}

/// The largest network radix a table holds. Ports are stored as one
/// byte per `(cur, dst)` pair: a radix-255 router's ports are 0..=254,
/// which leaves the byte's top value for [`UNREACHABLE`].
/// [`crate::SimConfig::validate_on`] refuses a wider router before any
/// table is built, and the constructors assert it.
pub(crate) const MAX_RADIX: usize = 255;

/// `next_port` sentinel: no path from `cur` to `dst` survives.
const UNREACHABLE: u8 = u8::MAX;

/// Precomputed routing state for one topology.
///
/// `next_port` is a row-major `nr × nr` byte matrix flattened into one
/// array (`[cur * nr + dst]`), the only per-pair state a table keeps:
/// distances are walked along it ([`RoutingTable::distance`]).
/// `route_vc` is the per-pair dateline VC for tori (`None` means
/// hop-indexed VCs).
#[derive(Debug, Clone)]
pub struct RoutingTable {
    nr: usize,
    /// `next_port[cur * nr + dst]` = output port of the chosen path,
    /// [`UNREACHABLE`] where none survives; the diagonal holds 0.
    next_port: Vec<u8>,
    /// Dateline VC per `(cur, dst)` pair (tori only).
    route_vc: Option<Vec<u8>>,
    /// `neighbors[cur]` is the sorted neighbor list (ports are positions
    /// in it).
    neighbors: Vec<Vec<RouterId>>,
    /// Longest path the table walks, taken from the construction's
    /// distances ([`RoutingTable::max_finite_distance`]).
    max_dist: usize,
}

/// The sorted neighbor list of every router, checked against
/// [`MAX_RADIX`].
fn neighbor_lists(topo: &Topology) -> Vec<Vec<RouterId>> {
    let radix = topo.network_radix();
    assert!(
        radix <= MAX_RADIX,
        "network radix {radix} exceeds the routing table's {MAX_RADIX}"
    );
    topo.routers().map(|r| topo.neighbors(r).to_vec()).collect()
}

impl RoutingTable {
    /// Builds the minimal routing table for a topology.
    ///
    /// # Panics
    ///
    /// Panics if the topology is disconnected or its network radix
    /// exceeds 255 ([`crate::SimConfig::validate_on`] refuses both
    /// before a simulator builds a table).
    #[must_use]
    pub fn minimal(topo: &Topology) -> Self {
        let nr = topo.router_count();
        let neighbors = neighbor_lists(topo);
        let dor = matches!(
            topo.kind(),
            TopologyKind::Mesh { .. } | TopologyKind::Torus { .. }
        );
        let mut next_port = vec![0u8; nr * nr];
        let mut max_dist = 0;
        // The router graph is undirected, so one BFS from `dst` gives
        // every router's distance *to* it: one column of distances,
        // dropped once its next hops are chosen.
        for dst in 0..nr {
            let dist = topo.distances_from(RouterId(dst));
            for (cur, &d) in dist.iter().enumerate() {
                assert!(d != usize::MAX, "disconnected topology");
                max_dist = max_dist.max(d);
                if dor || cur == dst {
                    continue;
                }
                // Minimal next hops; tie broken by a (cur, dst) hash so
                // different pairs spread over the candidates (two
                // passes, no allocation).
                let candidate = |n: &RouterId| dist[n.index()] == d - 1;
                let count = neighbors[cur].iter().filter(|n| candidate(n)).count();
                assert!(count > 0, "minimal path must exist");
                let pick = (cur.wrapping_mul(31).wrapping_add(dst.wrapping_mul(17))) % count;
                let port = neighbors[cur]
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| candidate(n))
                    .nth(pick)
                    .map(|(port, _)| port)
                    .expect("pick < count");
                next_port[cur * nr + dst] = port as u8;
            }
        }
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
                        next_port[cur * nr + dst] = port_of(&neighbors, cur, next) as u8;
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
                        next_port[cur * nr + dst] = port_of(&neighbors, cur, next) as u8;
                        vcs[cur * nr + dst] = vc as u8;
                    }
                }
                route_vc = Some(vcs);
            }
            _ => {}
        }
        RoutingTable {
            nr,
            next_port,
            route_vc,
            neighbors,
            max_dist,
        }
    }

    /// Rebuilds a **deadlock-free up\*/down\*** table over the subgraph
    /// surviving a set of faults: a link is usable iff `link_alive`
    /// holds and both of its endpoint routers are marked alive.
    ///
    /// Ports keep their original numbering (positions in the full
    /// sorted neighbor list), so the simulator's channel indices stay
    /// valid — only next-hop choices change. Unreachable pairs get the
    /// `next_port` sentinel; callers must consult
    /// [`RoutingTable::reachable`] before routing toward a pair. `reachable` coincides with plain connectivity of the
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
    /// [`RoutingTable::distance`] walks the table, so it reports `T` —
    /// the exact length of the path the table walks, which may exceed the BFS distance of the
    /// surviving graph (the price of deadlock freedom). `T` is bounded
    /// by the router count: table paths are simple, since revisiting a
    /// router in the descent would contradict its infinite `D` during
    /// the climb.
    ///
    /// # Panics
    ///
    /// Panics if the network radix exceeds 255, as
    /// [`RoutingTable::minimal`] does.
    #[must_use]
    pub fn degraded<F>(topo: &Topology, router_alive: &[bool], mut link_alive: F) -> Self
    where
        F: FnMut(RouterId, RouterId) -> bool,
    {
        let nr = topo.router_count();
        let mut ud = UpDown::new(topo, router_alive, &mut link_alive);
        let mut next_port = vec![UNREACHABLE; nr * nr];
        let mut max_dist = 0;
        for dst in 0..nr {
            next_port[dst * nr + dst] = 0;
            ud.lengths(dst);
            let UpDown {
                neighbors,
                usable,
                down,
                total,
                ..
            } = &ud;
            for cur in 0..nr {
                if cur == dst || total[cur] == u32::MAX {
                    continue;
                }
                max_dist = max_dist.max(total[cur] as usize);
                let descending = down[cur] != u32::MAX;
                let candidate = |port: usize| {
                    let n = neighbors[cur][port].index();
                    usable[cur][port]
                        && if descending {
                            ud.key(n) > ud.key(cur)
                                && down[n] != u32::MAX
                                && down[n] + 1 == down[cur]
                        } else {
                            ud.key(n) < ud.key(cur)
                                && total[n] != u32::MAX
                                && total[n] + 1 == total[cur]
                        }
                };
                let count = (0..neighbors[cur].len()).filter(|&p| candidate(p)).count();
                assert!(count > 0, "reachable pair must have a next hop");
                let pick = (cur.wrapping_mul(31).wrapping_add(dst.wrapping_mul(17))) % count;
                let port = (0..neighbors[cur].len())
                    .filter(|&p| candidate(p))
                    .nth(pick)
                    .expect("pick < count");
                next_port[cur * nr + dst] = port as u8;
            }
        }
        RoutingTable {
            nr,
            next_port,
            route_vc: None,
            neighbors: ud.neighbors,
            max_dist,
        }
    }

    /// `true` if the table has a path from `a` to `b` (always true for
    /// [`RoutingTable::minimal`] tables; [`RoutingTable::degraded`]
    /// tables mark severed pairs with a `next_port` sentinel).
    #[must_use]
    pub fn reachable(&self, a: RouterId, b: RouterId) -> bool {
        self.next_port[a.index() * self.nr + b.index()] != UNREACHABLE
    }

    /// Hop distance between two routers along the table's path, walked
    /// one next hop at a time — at most the diameter on a
    /// [`RoutingTable::minimal`] table — or `usize::MAX` if `b` is not
    /// [reachable](RoutingTable::reachable) from `a`.
    #[must_use]
    pub fn distance(&self, a: RouterId, b: RouterId) -> usize {
        let (mut cur, dst) = (a.index(), b.index());
        let mut hops = 0;
        while cur != dst {
            let port = self.next_port[cur * self.nr + dst];
            if port == UNREACHABLE {
                return usize::MAX;
            }
            cur = self.neighbors[cur][port as usize].index();
            hops += 1;
        }
        hops
    }

    /// Bytes the table holds: the struct, its next-port bytes, dateline
    /// VCs and neighbor lists.
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + heap_bytes(&self.next_port)
            + self.route_vc.as_ref().map_or(0, heap_bytes)
            + nested_heap_bytes(&self.neighbors)
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
    /// no-progress watchdog bound; O(1) (recorded at construction),
    /// every simulator build reads it.
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
        let port = self.next_port[idx];
        debug_assert_ne!(
            port, UNREACHABLE,
            "routing toward an unreachable destination"
        );
        let port = usize::from(port);
        let vc = match &self.route_vc {
            Some(table) => (table[idx] as usize).min(vcs - 1),
            None => (hops as usize).min(vcs - 1),
        };
        RouteDecision { port, vc }
    }
}

/// The up\*/down\* construction behind [`RoutingTable::degraded`]:
/// the surviving graph, its key order, and the per-destination path
/// lengths `D` and `T` that the table's next hops realise.
struct UpDown {
    neighbors: Vec<Vec<RouterId>>,
    /// `usable[cur][port]`: may a flit leave `cur` through `port`?
    usable: Vec<Vec<bool>>,
    /// BFS forest level per router, the first half of its key.
    level: Vec<usize>,
    /// Routers in ascending key order, so that when `T[v]` is computed
    /// every up-neighbor's `T` is already final.
    order: Vec<usize>,
    /// `D` (all-down distance) toward the last [`UpDown::lengths`]
    /// destination, `u32::MAX` = none.
    down: Vec<u32>,
    /// `T` (table path length) toward it, `u32::MAX` = unreachable.
    total: Vec<u32>,
    queue: std::collections::VecDeque<usize>,
}

impl UpDown {
    fn new<F>(topo: &Topology, router_alive: &[bool], link_alive: &mut F) -> Self
    where
        F: FnMut(RouterId, RouterId) -> bool,
    {
        let nr = topo.router_count();
        let neighbors = neighbor_lists(topo);
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
        let level = snoc_topology::bfs_forest(nr, |r| &alive_adj[r.index()][..]).level;
        let mut order: Vec<usize> = (0..nr).collect();
        order.sort_unstable_by_key(|&v| (level[v], v));
        UpDown {
            neighbors,
            usable,
            level,
            order,
            down: vec![u32::MAX; nr],
            total: vec![u32::MAX; nr],
            queue: std::collections::VecDeque::new(),
        }
    }

    /// The up\*/down\* total order: up endpoint = smaller key.
    fn key(&self, v: usize) -> (usize, usize) {
        (self.level[v], v)
    }

    /// Fills `down` and `total` toward `dst`.
    fn lengths(&mut self, dst: usize) {
        self.down.fill(u32::MAX);
        self.total.fill(u32::MAX);
        // D by BFS from dst: a down hop v → w has key(v) < key(w), so D
        // propagates from w to its smaller-key neighbors.
        self.down[dst] = 0;
        self.queue.push_back(dst);
        while let Some(w) = self.queue.pop_front() {
            for (&n, &ok) in self.neighbors[w].iter().zip(&self.usable[w]) {
                let v = n.index();
                if ok && self.key(v) < self.key(w) && self.down[v] == u32::MAX {
                    self.down[v] = self.down[w] + 1;
                    self.queue.push_back(v);
                }
            }
        }
        // T in ascending key order: commit to the descent where D is
        // finite, otherwise climb through the best up-neighbor. Every
        // non-root has its BFS parent as an up-neighbor and the root's
        // tree path to dst is all-down, so T is finite exactly on dst's
        // component.
        for &v in &self.order {
            if self.down[v] != u32::MAX {
                self.total[v] = self.down[v];
                continue;
            }
            let mut best = u32::MAX;
            for (&n, &ok) in self.neighbors[v].iter().zip(&self.usable[v]) {
                let u = n.index();
                if ok && self.key(u) < self.key(v) {
                    best = best.min(self.total[u]);
                }
            }
            if best != u32::MAX {
                self.total[v] = best + 1;
            }
        }
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
    fn degraded_walks_match_the_construction_lengths() {
        // Kill a router and a link on a torus; every surviving pair
        // must walk to its target in exactly the up*/down* length `T`
        // the construction computed, and `distance` reports that walk.
        let t = Topology::torus(4, 4, 1);
        let mut alive = vec![true; t.router_count()];
        alive[5] = false;
        let cut = |a: RouterId, b: RouterId| {
            (a.index().min(b.index()), a.index().max(b.index())) != (0, 1)
        };
        let table = RoutingTable::degraded(&t, &alive, cut);
        let mut link_alive = cut;
        let mut ud = UpDown::new(&t, &alive, &mut link_alive);
        let mut longest = 0;
        for dst in t.routers() {
            ud.lengths(dst.index());
            for src in t.routers() {
                if src == dst || !alive[src.index()] || !alive[dst.index()] {
                    continue;
                }
                assert!(table.reachable(src, dst), "{src} -> {dst}");
                let length = ud.total[src.index()] as usize;
                assert_eq!(walk(&t, &table, src, dst), length, "{src} -> {dst}");
                assert_eq!(table.distance(src, dst), length, "{src} -> {dst}");
                longest = longest.max(length);
            }
        }
        assert_eq!(table.max_finite_distance(), longest);
        assert!(longest > t.diameter(), "the cut forces a detour");
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
    fn walked_distances_are_the_paper_topologies_bfs_distances() {
        for name in snoc_topology::paper_config_names() {
            let t = snoc_topology::paper_config(name).unwrap().topology;
            let table = RoutingTable::minimal(&t);
            assert_eq!(table.max_finite_distance(), t.diameter(), "{name}");
            for a in t.routers() {
                let bfs = t.distances_from(a);
                for b in t.routers() {
                    assert_eq!(table.distance(a, b), bfs[b.index()], "{name}: {a} -> {b}");
                }
            }
        }
    }

    #[test]
    fn an_unreachable_pair_has_no_distance() {
        let line = Topology::mesh(4, 1, 1);
        let cut = RoutingTable::degraded(&line, &[true; 4], |a, b| {
            (a.index().min(b.index()), a.index().max(b.index())) != (1, 2)
        });
        assert_eq!(cut.distance(RouterId(0), RouterId(3)), usize::MAX);
        assert_eq!(cut.distance(RouterId(3), RouterId(3)), 0);
    }

    #[test]
    fn a_table_holds_one_byte_per_pair() {
        let t = Topology::slim_noc(5, 1).unwrap();
        let table = RoutingTable::minimal(&t);
        let nr = t.router_count();
        let lists = nr * std::mem::size_of::<Vec<RouterId>>()
            + t.routers().map(|r| t.neighbors(r).len()).sum::<usize>()
                * std::mem::size_of::<RouterId>();
        let fixed = std::mem::size_of::<RoutingTable>();
        assert_eq!(table.bytes(), fixed + nr * nr + lists);
        // Tori add one dateline VC byte per pair.
        let torus = Topology::torus(4, 4, 1);
        let dateline = RoutingTable::minimal(&torus);
        let lists =
            16 * std::mem::size_of::<Vec<RouterId>>() + 64 * std::mem::size_of::<RouterId>();
        assert_eq!(dateline.bytes(), fixed + 2 * 16 * 16 + lists);
    }

    #[test]
    fn a_radix_of_255_fills_the_byte_below_the_sentinel() {
        // 256 routers on one row: router 0's port to router 255 is 254.
        let t = Topology::flattened_butterfly(256, 1, 1);
        let table = RoutingTable::minimal(&t);
        let (a, b) = (RouterId(0), RouterId(255));
        assert!(table.reachable(a, b));
        assert_eq!(table.next_port[a.index() * 256 + b.index()], 254);
        assert_eq!(table.port_to(a, b), 254);
        assert_eq!(table.distance(a, b), 1);
        assert_eq!(table.max_finite_distance(), 1);
    }

    #[test]
    #[should_panic(expected = "network radix 256 exceeds")]
    fn a_radix_past_a_byte_is_refused() {
        let _ = RoutingTable::minimal(&Topology::flattened_butterfly(257, 1, 1));
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
