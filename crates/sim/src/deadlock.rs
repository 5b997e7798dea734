//! Deadlock analysis: the channel-dependency-graph (CDG) cycle
//! checker, the no-progress watchdog's structured diagnostic, and the
//! default watchdog bound.
//!
//! The checker generalizes the torus dateline acyclicity proptest: it
//! rebuilds, from a routing function alone, every `(channel, VC)`
//! dependency a packet can exercise and verifies the graph is acyclic.
//! Crucially it models packets that are *already mid-flight* when a
//! table is swapped in: a flit that accumulated `h0` hops under the
//! old table continues under the new one with VC `min(h0 + i, |VC|−1)`
//! on its `i`-th remaining hop, so every walk is replayed at every
//! initial hop offset `h0 ∈ 0..|VC|` (offsets at or above `|VC|−1`
//! saturate the clamp and add nothing new). A table that passes is
//! deadlock-free for any traffic mix at any point of a table's life,
//! not just for freshly injected packets.
//!
//! Debug builds run [`verify_deadlock_free`] at every degraded-table
//! swap inside the simulator; tests and `snoc repro verify` run it over
//! fuzzed storm corpora.

use crate::routing::{RouteDecision, RoutingTable};
use snoc_topology::{RouterId, Topology};

/// Default no-progress watchdog bound: generous headroom over the
/// worst-case pipeline occupancy of the longest table path —
/// `(diameter + 2) · 64 · packet_flits`, floored at 4096 cycles. A
/// live network under any load moves *some* flit far more often than
/// this; only a genuine routing deadlock (or a dead simulator bug)
/// goes quiet for that long.
#[must_use]
pub fn default_watchdog_bound(diameter: usize, packet_flits: usize) -> u64 {
    ((diameter as u64 + 2) * 64 * packet_flits.max(1) as u64).max(4_096)
}

/// One packet pinned in place when the no-progress watchdog fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckPacket {
    /// Packet id.
    pub packet: u64,
    /// Router holding (or committing) the packet's head flit.
    pub router: usize,
    /// The packet's destination router.
    pub dst_router: usize,
    /// `true` if the head sits in a switch-traversal register rather
    /// than an input buffer.
    pub in_st: bool,
}

/// One wait-for edge: a buffered head flit at `from_router` waiting
/// for `(port, vc)` toward `to_router`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitForEdge {
    /// Router whose head flit is waiting.
    pub from_router: usize,
    /// Output port the head is routed to.
    pub port: usize,
    /// Output VC the head is routed to.
    pub vc: usize,
    /// Router on the far side of that port.
    pub to_router: usize,
}

/// The structured diagnostic attached to a [`crate::SimReport`] when
/// the no-progress watchdog aborts a run: where the simulation stood,
/// which packets were pinned, and the wait-for edges their head flits
/// were blocked on (both lists capped at 64 entries). The per-packet
/// detail requires the edge-buffer datapath; central-buffer runs
/// report the counters with empty lists.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeadlockDiagnostic {
    /// Cycle the watchdog fired on.
    pub cycle: u64,
    /// Last cycle any flit moved (delivery, switch traversal,
    /// injection) or any packet/fault event occurred.
    pub last_progress: u64,
    /// Flits in flight (buffers, links, ST registers, injection
    /// queues) at the firing cycle.
    pub in_flight_flits: usize,
    /// Pinned packets, by head-flit location.
    pub stuck_packets: Vec<StuckPacket>,
    /// The wait-for edges of the pinned buffered heads.
    pub wait_for: Vec<WaitForEdge>,
}

impl std::fmt::Display for DeadlockDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "no progress for {} cycles (cycle {}, last progress {}), {} flits in flight",
            self.cycle - self.last_progress,
            self.cycle,
            self.last_progress,
            self.in_flight_flits
        )?;
        for s in &self.stuck_packets {
            writeln!(
                f,
                "  packet {} at router {}{} -> router {}",
                s.packet,
                s.router,
                if s.in_st { " (in ST)" } else { "" },
                s.dst_router
            )?;
        }
        for w in &self.wait_for {
            writeln!(
                f,
                "  router {} waits for port {} vc {} -> router {}",
                w.from_router, w.port, w.vc, w.to_router
            )?;
        }
        Ok(())
    }
}

/// Verifies that the `(channel, VC)` dependency graph induced by an
/// arbitrary routing function is acyclic — the generic core behind
/// [`verify_deadlock_free`], usable against hypothetical tables (e.g.
/// a reimplementation of a repair scheme under test).
///
/// `route(cur, dst, hops)` must return the decision the table makes
/// for a flit at `cur`, `hops` hops into its journey, heading for
/// `dst` — or `None` when `dst` is unreachable from `cur` (those pairs
/// are skipped). Ports must index `topo`'s sorted neighbor lists.
/// Every reachable pair is walked at every initial hop offset
/// `h0 ∈ 0..vcs` (see the module docs); the walk itself is also
/// bounded at the router count, so a looping table fails loudly
/// instead of spinning.
///
/// # Errors
///
/// Returns a description of the first cycle found (a `(router, port,
/// VC)` on it), of a walk that exceeds the router count, or of a route
/// that disappears mid-path.
pub fn verify_route_deadlock_free<F>(
    topo: &Topology,
    vcs: usize,
    mut route: F,
) -> Result<(), String>
where
    F: FnMut(RouterId, RouterId, u16) -> Option<RouteDecision>,
{
    assert!(vcs >= 1, "at least one VC");
    let nr = topo.router_count();
    let max_ports = topo
        .routers()
        .map(|r| topo.neighbors(r).len())
        .max()
        .unwrap_or(0);
    let node_of = |r: usize, port: usize, vc: usize| (r * max_ports + port) * vcs + vc;
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); nr * max_ports * vcs];
    for dst in topo.routers() {
        for src in topo.routers() {
            if src == dst || route(src, dst, 0).is_none() {
                continue;
            }
            for h0 in 0..vcs as u16 {
                let mut cur = src;
                let mut hops = h0;
                let mut prev: Option<usize> = None;
                let mut steps = 0usize;
                while cur != dst {
                    let Some(d) = route(cur, dst, hops) else {
                        return Err(format!("route {src} -> {dst} vanished at {cur}"));
                    };
                    let node = node_of(cur.index(), d.port, d.vc);
                    if let Some(p) = prev {
                        adj[p].push(node as u32);
                    }
                    prev = Some(node);
                    cur = topo.neighbors(cur)[d.port];
                    hops += 1;
                    steps += 1;
                    if steps > nr {
                        return Err(format!("routing loop walking {src} -> {dst}"));
                    }
                }
            }
        }
    }
    for edges in &mut adj {
        edges.sort_unstable();
        edges.dedup();
    }
    // Iterative 3-color DFS over the dependency graph.
    let mut color = vec![0u8; adj.len()]; // 0 white, 1 gray, 2 black
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for start in 0..adj.len() {
        if color[start] != 0 {
            continue;
        }
        color[start] = 1;
        stack.push((start, 0));
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next < adj[node].len() {
                let child = adj[node][*next] as usize;
                *next += 1;
                match color[child] {
                    0 => {
                        color[child] = 1;
                        stack.push((child, 0));
                    }
                    1 => {
                        let r = child / (max_ports * vcs);
                        let port = child / vcs % max_ports;
                        let vc = child % vcs;
                        return Err(format!(
                            "channel dependency cycle through router {r} port {port} vc {vc}"
                        ));
                    }
                    _ => {}
                }
            } else {
                color[node] = 2;
                stack.pop();
            }
        }
    }
    Ok(())
}

/// Verifies that a [`RoutingTable`] is deadlock-free at `vcs` virtual
/// channels: builds the full `(channel, VC)` dependency graph the
/// table can induce — including packets mid-flight at arbitrary
/// accumulated hop counts — and checks it for cycles. See the module
/// docs for the exact model.
///
/// This is the honest per-table-kind contract from the routing-module
/// deadlock taxonomy, executable:
///
/// ```
/// use snoc_sim::{verify_deadlock_free, RoutingTable};
/// use snoc_topology::Topology;
///
/// let torus = Topology::torus(4, 4, 1);
/// let minimal = RoutingTable::minimal(&torus);
/// // The torus dateline scheme needs (and suffices at) 2 VCs...
/// assert!(verify_deadlock_free(&minimal, &torus, 2).is_ok());
/// // ...while a single VC leaves the ring cycles uncut.
/// assert!(verify_deadlock_free(&minimal, &torus, 1).is_err());
///
/// // An up*/down* repair table is deadlock-free at ANY VC count,
/// // here after losing router 5 and the 0 -- 1 link.
/// let mut alive = vec![true; torus.router_count()];
/// alive[5] = false;
/// let repaired = RoutingTable::degraded(&torus, &alive, |a, b| {
///     (a.0.min(b.0), a.0.max(b.0)) != (0, 1)
/// });
/// assert!(verify_deadlock_free(&repaired, &torus, 1).is_ok());
/// ```
///
/// # Errors
///
/// Returns a description of the first dependency cycle (or walk
/// anomaly) found; see [`verify_route_deadlock_free`].
pub fn verify_deadlock_free(
    table: &RoutingTable,
    topo: &Topology,
    vcs: usize,
) -> Result<(), String> {
    verify_route_deadlock_free(topo, vcs, |cur, dst, hops| {
        table
            .reachable(cur, dst)
            .then(|| table.route_toward(cur, dst, hops, vcs))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoc_topology::Topology;

    #[test]
    fn mesh_dor_is_deadlock_free_at_any_vc_count() {
        let t = Topology::mesh(4, 3, 1);
        let table = RoutingTable::minimal(&t);
        for vcs in [1, 2, 4] {
            assert!(verify_deadlock_free(&table, &t, vcs).is_ok(), "vcs {vcs}");
        }
    }

    #[test]
    fn torus_dateline_needs_two_vcs() {
        let t = Topology::torus(4, 4, 1);
        let table = RoutingTable::minimal(&t);
        assert!(verify_deadlock_free(&table, &t, 1).is_err());
        assert!(verify_deadlock_free(&table, &t, 2).is_ok());
        assert!(verify_deadlock_free(&table, &t, 4).is_ok());
    }

    #[test]
    fn hop_clamped_irregular_tables_fail_the_mid_flight_model() {
        // Honest-contract check: hop-indexed VCs only protect freshly
        // injected traffic. The checker also models packets mid-flight
        // with accumulated hops, which saturate the `min(h, |VC|-1)`
        // clamp onto the top VC — so an irregular minimal table fails
        // even with |VC| at the diameter. This is exactly why degraded
        // repair uses up*/down* instead of reusing this scheme.
        let t = Topology::slim_noc(3, 1).unwrap();
        let table = RoutingTable::minimal(&t);
        assert!(verify_deadlock_free(&table, &t, 2).is_err());
    }

    #[test]
    fn looping_route_fails_loudly() {
        let t = Topology::mesh(2, 2, 1);
        // A "table" that bounces between routers 0 and 1 forever.
        let err = verify_route_deadlock_free(&t, 2, |cur, _, hops| {
            Some(RouteDecision {
                port: usize::from(cur.index() >= 2),
                vc: (hops as usize).min(1),
            })
        })
        .unwrap_err();
        assert!(err.contains("routing loop"), "{err}");
    }

    #[test]
    fn default_bound_has_a_floor_and_scales_up() {
        assert_eq!(default_watchdog_bound(0, 0), 4_096);
        assert_eq!(default_watchdog_bound(2, 6), 4_096);
        assert!(default_watchdog_bound(30, 6) > 4_096);
        assert!(default_watchdog_bound(64, 8) > default_watchdog_bound(32, 8));
    }

    #[test]
    fn diagnostic_display_lists_everything() {
        let d = DeadlockDiagnostic {
            cycle: 5_000,
            last_progress: 904,
            in_flight_flits: 12,
            stuck_packets: vec![StuckPacket {
                packet: 7,
                router: 3,
                dst_router: 9,
                in_st: false,
            }],
            wait_for: vec![WaitForEdge {
                from_router: 3,
                port: 1,
                vc: 0,
                to_router: 4,
            }],
        };
        let text = d.to_string();
        assert!(text.contains("no progress for 4096 cycles"), "{text}");
        assert!(text.contains("packet 7 at router 3 -> router 9"), "{text}");
        assert!(text.contains("router 3 waits for port 1 vc 0 -> router 4"));
    }
}
