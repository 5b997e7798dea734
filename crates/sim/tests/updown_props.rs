//! Property tests (vendored `proptest`) over the up*/down* degraded
//! routing tables and the no-progress watchdog:
//!
//! - **deadlock freedom**: every table repaired after a fuzzed fault
//!   storm (dead links from the same seeded generator the simulator
//!   uses, plus a dead router) passes the channel-dependency-graph
//!   checker at 1, 2 and 4 VCs — the up*/down* guarantee does not
//!   depend on the VC count;
//! - **up-then-down shape**: every walked table path climbs toward
//!   smaller `(level, index)` keys of an independently rebuilt BFS
//!   forest, then descends — never down-then-up — and its length is
//!   exactly the reported `distance`, within the simple-path bound;
//! - **reachability = connectivity**: the table's sentinel marking
//!   agrees with component membership of the surviving graph;
//! - **determinism**: rebuilding the table from the same fault set
//!   reproduces every distance and every route decision;
//! - **regression**: the raw-BFS repair this scheme replaced deadlocks
//!   on a torus whose rings survive a storm (hop-clamped VCs cannot cut
//!   an intact ring), while the up*/down* repair of the same fault is
//!   clean — reimplemented here as a routing closure so the bug stays
//!   reproducible;
//! - **watchdog**: a bound-1 watchdog fires deterministically on a live
//!   network and attaches the structured diagnostic to the report
//!   (and to its JSON), while healthy runs at the default bound never
//!   see it.

use proptest::prelude::*;
use snoc_sim::{
    verify_deadlock_free, verify_route_deadlock_free, FaultKind, FaultPlan, RouteDecision,
    RoutingTable, SimConfig, Simulator,
};
use snoc_topology::{bfs_distances, bfs_forest, NodeId, RouterId, Topology};
use snoc_traffic::TrafficPattern;

/// The same fuzzed topology pool as the differential harness: one
/// member of every supported family, small enough that an all-pairs
/// CDG build runs in milliseconds.
fn topology(idx: usize) -> Topology {
    match idx {
        0 => Topology::slim_noc(3, 3).unwrap(),
        1 => Topology::mesh(4, 3, 2),
        2 => Topology::torus(4, 4, 2),
        3 => Topology::dragonfly(2),
        4 => Topology::flattened_butterfly(3, 3, 2),
        _ => Topology::slim_noc(3, 2).unwrap(),
    }
}

/// The surviving-hardware view after a seeded storm: `storm_links`
/// dead links drawn by [`FaultPlan::storm`] (the generator the live
/// simulator replays), plus optionally one dead router.
fn storm_liveness(
    topo: &Topology,
    storm_links: usize,
    seed: u64,
    kill_router: bool,
) -> (Vec<bool>, Vec<(usize, usize)>) {
    let plan = FaultPlan::storm(topo, storm_links, 0, 100, seed);
    let dead_links: Vec<(usize, usize)> = plan
        .events()
        .iter()
        .map(|e| match e.kind {
            FaultKind::LinkDown { a, b } => (a.index(), b.index()),
            other => panic!("storms only fail links, got {other:?}"),
        })
        .collect();
    let mut alive = vec![true; topo.router_count()];
    if kill_router {
        alive[seed as usize % topo.router_count()] = false;
    }
    (alive, dead_links)
}

fn link_alive(dead_links: &[(usize, usize)]) -> impl Fn(RouterId, RouterId) -> bool + '_ {
    move |a, b| {
        let key = (a.index().min(b.index()), a.index().max(b.index()));
        !dead_links.contains(&key)
    }
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every storm-repaired table passes the mid-flight CDG model at
    /// any VC count — the property hop-indexed repair could not offer.
    #[test]
    fn degraded_tables_pass_the_cdg_checker_at_any_vc_count(
        topo_idx in 0usize..6,
        storm_links in 1usize..7,
        kill in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let topo = topology(topo_idx);
        let kill_router = kill == 1;
        let (alive, dead) = storm_liveness(&topo, storm_links, seed, kill_router);
        let table = RoutingTable::degraded(&topo, &alive, link_alive(&dead));
        for vcs in [1usize, 2, 4] {
            let r = verify_deadlock_free(&table, &topo, vcs);
            prop_assert!(
                r.is_ok(),
                "REPRO {} storm {storm_links} seed {seed} kill {kill_router} vcs {vcs}: {}",
                topo.name(),
                r.unwrap_err()
            );
        }
    }

    /// Walked table paths are up-then-down over an independently
    /// recomputed BFS forest, exactly `distance` hops long, and the
    /// sentinel marking agrees with surviving-graph connectivity.
    #[test]
    fn degraded_walks_climb_then_descend(
        topo_idx in 0usize..6,
        storm_links in 1usize..7,
        kill in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let topo = topology(topo_idx);
        let nr = topo.router_count();
        let kill_router = kill == 1;
        let (alive, dead) = storm_liveness(&topo, storm_links, seed, kill_router);
        let usable = link_alive(&dead);
        let table = RoutingTable::degraded(&topo, &alive, &usable);
        // Rebuild the forest the table is supposed to respect, from
        // scratch, over the same surviving adjacency.
        let alive_adj: Vec<Vec<RouterId>> = topo
            .routers()
            .map(|r| {
                topo.neighbors(r)
                    .iter()
                    .copied()
                    .filter(|&n| alive[r.index()] && alive[n.index()] && usable(r, n))
                    .collect()
            })
            .collect();
        let forest = bfs_forest(nr, |r| &alive_adj[r.index()][..]);
        let key = |v: RouterId| (forest.level[v.index()], v.index());
        let ctx = format!("{} storm {storm_links} seed {seed} kill {kill_router}",
            topo.name());
        for src in topo.routers() {
            for dst in topo.routers() {
                if src == dst {
                    continue;
                }
                // Reachability must coincide with plain connectivity
                // (dead routers are singleton components).
                prop_assert_eq!(
                    table.reachable(src, dst),
                    forest.root[src.index()] == forest.root[dst.index()],
                    "REPRO {}: reachable {} -> {}", &ctx, src, dst
                );
                if !table.reachable(src, dst) || !alive[src.index()] {
                    continue;
                }
                let mut cur = src;
                let mut f = flit_to(dst);
                let mut descending = false;
                let mut hops = 0usize;
                while cur != dst {
                    let d = table.route(cur, &f, 2);
                    let next = table.peer(cur, d.port);
                    if key(next) > key(cur) {
                        descending = true; // a down hop commits the path
                    } else {
                        prop_assert!(
                            !descending,
                            "REPRO {}: down-then-up turn at {} walking {} -> {}",
                            &ctx, cur, src, dst
                        );
                    }
                    cur = next;
                    f.hops += 1;
                    hops += 1;
                    prop_assert!(hops <= nr, "REPRO {}: loop {} -> {}", &ctx, src, dst);
                }
                prop_assert_eq!(
                    hops, table.distance(src, dst),
                    "REPRO {}: walk length {} -> {}", &ctx, src, dst
                );
            }
        }
    }

    /// Rebuilding from the same fault set is bit-for-bit reproducible —
    /// the property the sim/refsim differential leans on — and every
    /// surviving edge is oriented by the forest (levels of adjacent
    /// routers differ by at most one, keys are distinct).
    #[test]
    fn degraded_rebuilds_are_deterministic(
        topo_idx in 0usize..6,
        storm_links in 1usize..7,
        kill in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let topo = topology(topo_idx);
        let kill_router = kill == 1;
        let (alive, dead) = storm_liveness(&topo, storm_links, seed, kill_router);
        let a = RoutingTable::degraded(&topo, &alive, link_alive(&dead));
        let b = RoutingTable::degraded(&topo, &alive, link_alive(&dead));
        let usable = link_alive(&dead);
        let alive_adj: Vec<Vec<RouterId>> = topo
            .routers()
            .map(|r| {
                topo.neighbors(r)
                    .iter()
                    .copied()
                    .filter(|&n| alive[r.index()] && alive[n.index()] && usable(r, n))
                    .collect()
            })
            .collect();
        let forest = bfs_forest(topo.router_count(), |r| &alive_adj[r.index()][..]);
        for cur in topo.routers() {
            for &n in &alive_adj[cur.index()] {
                // BFS layering orients every surviving edge: adjacent
                // levels differ by at most 1 and keys never tie.
                prop_assert!(
                    forest.level[cur.index()].abs_diff(forest.level[n.index()]) <= 1
                );
            }
            for dst in topo.routers() {
                prop_assert_eq!(a.distance(cur, dst), b.distance(cur, dst));
                if cur == dst || !a.reachable(cur, dst) || !alive[cur.index()] {
                    continue;
                }
                for hops in 0..2u16 {
                    let mut f = flit_to(dst);
                    f.hops = hops;
                    let (da, db) = (a.route(cur, &f, 2), b.route(cur, &f, 2));
                    prop_assert_eq!(da, db, "route {} -> {} hop {}", cur, dst, hops);
                }
            }
        }
    }
}

/// The regression that motivated up*/down*: the raw-BFS repair this
/// replaced (shortest paths over the surviving graph, hash tie-break,
/// hop-clamped VCs) deadlocks whenever the storm leaves a ring intact.
/// A 6×3 torus losing one y-link keeps all of its 6-router x-rings:
/// forward DOR-length hops chain around a ring entirely on the top VC
/// (any packet mid-flight saturates the `min(h, |VC|-1)` clamp), so
/// the channel dependency closes. The up*/down* repair of the *same*
/// fault passes at every VC count.
#[test]
fn old_bfs_repair_deadlocks_on_an_intact_torus_ring() {
    let topo = Topology::torus(6, 3, 1);
    let nr = topo.router_count();
    let alive = vec![true; nr];
    // Kill the y-link 0 -- 6; every x-ring survives.
    let dead = [(0usize, 6usize)];
    let usable = link_alive(&dead);
    let adj: Vec<Vec<RouterId>> = topo
        .routers()
        .map(|r| {
            topo.neighbors(r)
                .iter()
                .copied()
                .filter(|&n| usable(r, n))
                .collect()
        })
        .collect();
    // The old repair, verbatim in miniature: per-destination BFS
    // distances, minimal next hops, the (cur·31 + dst·17) hash pick,
    // and the §4.3 hop-indexed VC reused as-is.
    let dist: Vec<Vec<usize>> = (0..nr)
        .map(|dst| bfs_distances(nr, RouterId(dst), |r| &adj[r.index()][..]))
        .collect();
    let old_route = |cur: RouterId, dst: RouterId, hops: u16| -> Option<RouteDecision> {
        let (c, d) = (cur.index(), dst.index());
        if dist[d][c] == usize::MAX {
            return None;
        }
        let want = dist[d][c] - 1;
        let candidates: Vec<usize> = topo
            .neighbors(cur)
            .iter()
            .enumerate()
            .filter(|(_, n)| usable(cur, **n) && dist[d][n.index()] == want)
            .map(|(port, _)| port)
            .collect();
        let pick = (c.wrapping_mul(31).wrapping_add(d.wrapping_mul(17))) % candidates.len();
        Some(RouteDecision {
            port: candidates[pick],
            vc: (hops as usize).min(1),
        })
    };
    let err = verify_route_deadlock_free(&topo, 2, old_route).unwrap_err();
    assert!(
        err.contains("channel dependency cycle"),
        "the intact ring must close a cycle under hop-clamped VCs: {err}"
    );
    // The replacement repairs the identical fault deadlock-free at any
    // VC count — and still reaches every pair.
    let table = RoutingTable::degraded(&topo, &alive, usable);
    for vcs in [1usize, 2, 4] {
        verify_deadlock_free(&table, &topo, vcs).unwrap();
    }
    for src in topo.routers() {
        for dst in topo.routers() {
            assert!(table.reachable(src, dst), "{src} -> {dst}");
        }
    }
}

/// A bound-1 watchdog declares deadlock on the first quiet cycle with
/// flits live: an isolated single-flit packet always has one (the
/// injection at cycle `c` is progress, the switch allocation at `c+1`
/// moves nothing), so at a sparse rate the abort is deterministic,
/// carries a populated diagnostic, and shows up in the JSON rendering.
#[test]
fn bound_one_watchdog_fires_with_structured_diagnostic() {
    let topo = Topology::mesh(4, 3, 2);
    let mut cfg = SimConfig::default().with_vcs(2).with_seed(11);
    cfg.packet_flits = 1;
    let mut sim = Simulator::build(&topo, &cfg).unwrap();
    sim.set_watchdog(Some(1));
    let report = sim.run_synthetic(TrafficPattern::Random, 0.005, 100, 400);
    let d = report.deadlock.as_ref().expect("bound-1 watchdog fires");
    assert!(d.in_flight_flits > 0, "fires only with flits live");
    assert_eq!(d.cycle - d.last_progress, 1, "bound-1 gap");
    assert!(!d.stuck_packets.is_empty(), "edge-buffer runs pin packets");
    let text = d.to_string();
    assert!(text.contains("no progress for 1 cycles"), "{text}");
    assert!(report.to_json().contains("\"deadlock\""), "JSON carries it");
}

/// Healthy traffic at the default bound never trips the watchdog, and
/// the report omits the diagnostic from the JSON byte layout.
#[test]
fn default_watchdog_stays_quiet_on_healthy_runs() {
    let topo = Topology::mesh(4, 3, 2);
    let cfg = SimConfig::default().with_vcs(2).with_seed(12);
    let mut sim = Simulator::build(&topo, &cfg).unwrap();
    let report = sim.run_synthetic(TrafficPattern::Random, 0.08, 200, 1_000);
    assert!(report.deadlock.is_none(), "healthy run must not abort");
    assert!(report.drained, "moderate load drains");
    assert!(!report.to_json().contains("deadlock"));
}
