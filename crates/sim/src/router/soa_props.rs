//! Shadow-model property suite for the struct-of-arrays router
//! datapath.
//!
//! Each case drives a single [`RouterCore`] (the center of a 3x3 mesh)
//! through a random deliver/alloc/drain/credit sequence and checks the
//! SoA hot state — per-lane ring lengths, occupancy bitmask words,
//! per-VC credit counters, ST registers, the live-flit
//! counter — against a naive shadow model that tracks the same
//! quantities with plain nested vectors. After every operation the
//! router additionally audits its own derived structures against a
//! fresh recount (`verify_soa_invariants`).
//!
//! Honors `PROPTEST_CASES` for deep-soak runs (see the vendored
//! proptest's `ProptestConfig::effective_cases`).

use super::*;
use crate::flit::PacketId;
use proptest::prelude::*;
use snoc_topology::{NodeId, Topology};

/// The center router of a 3x3 mesh (4 network ports, 1 local port) with
/// the context needed to drive it alone: a flit arena and the mesh's
/// routing table.
struct Center {
    core: RouterCore,
    arena: FlitArena,
    table: RoutingTable,
    topo: Topology,
    next_pid: u64,
}

impl Center {
    /// `capacity` is the per-VC depth of every input lane; credited
    /// links also start with `capacity` credits per output VC.
    fn new(vcs: usize, capacity: usize, arch: RouterArch, credited: bool) -> Self {
        let topo = Topology::mesh(3, 3, 1);
        let table = RoutingTable::minimal(&topo);
        let center = RouterId(4);
        let net_ports = table.port_count(center);
        assert_eq!(net_ports, 4, "mesh center has 4 neighbors");
        let link_mode = if credited {
            LinkMode::Credited
        } else {
            LinkMode::Elastic
        };
        let caps = vec![capacity; net_ports];
        let mut core = RouterCore::new(center, net_ports, 1, vcs, arch, link_mode, &caps, capacity);
        if credited {
            for p in 0..net_ports {
                core.set_credits(p, capacity);
            }
        }
        Center {
            core,
            arena: FlitArena::default(),
            table,
            topo,
            next_pid: 0,
        }
    }

    fn in_ports(&self) -> usize {
        self.core.net_ports + self.core.local_ports
    }

    /// Delivers a fresh single-flit packet for node `dst` into
    /// `(port, vc)` if there is space; returns whether it was accepted.
    fn try_deliver(&mut self, port: usize, vc: usize, dst: usize) -> bool {
        if !self.core.can_deliver(port, vc) {
            return false;
        }
        let dst = NodeId(dst);
        self.next_pid += 1;
        let flit = Flit::packet(
            PacketId(self.next_pid),
            NodeId(0),
            dst,
            self.topo.router_of(dst),
            1,
            0,
            true,
            false,
        )[0];
        let fr = self.arena.insert(flit);
        self.core.deliver(port, vc, fr, &mut self.arena);
        true
    }

    /// One allocation cycle with an always-ready link predicate.
    fn alloc(&mut self, now: u64) -> AllocResult {
        self.core
            .alloc(now, &self.table, 1, &mut self.arena, &|_, _| true)
    }

    /// Drains the ST registers, removing the departing flits from the
    /// arena (there is no downstream). Returns `(out_port, vc)` pairs in
    /// drain order.
    fn drain(&mut self) -> Vec<(usize, usize)> {
        let mut st = Vec::new();
        self.core.drain_st(&mut st);
        st.into_iter()
            .map(|(port, stf)| {
                self.arena.remove(stf.flit);
                (port, stf.out_vc)
            })
            .collect()
    }
}

/// Deterministic per-case operation stream (SplitMix64), seeded from a
/// proptest-drawn value so each case replays identically.
struct OpRng(u64);

impl OpRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Naive mirror of the edge router's hot state.
struct EdgeShadow {
    /// Flits queued per input lane `[port][vc]`.
    lane: Vec<Vec<usize>>,
    /// Available credits per output lane `[port][vc]` (credited mode).
    credit: Vec<Vec<usize>>,
    /// Credits consumed downstream but not yet returned `[port][vc]`.
    owed: Vec<Vec<usize>>,
    /// Flits sitting in ST registers (granted, not yet drained).
    st: usize,
    /// Flits accepted minus flits drained.
    inside: usize,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The edge datapath agrees with the shadow model after every
    /// operation of a random deliver/alloc/drain/credit schedule.
    #[test]
    fn edge_router_matches_shadow_model(
        seed in 0u64..=u64::MAX,
        vcs in prop::sample::select(vec![1usize, 2, 4]),
        capacity in 1usize..5,
        credited in prop::sample::select(vec![true, false]),
        steps in 40usize..140,
    ) {
        let mut h = Center::new(vcs, capacity, RouterArch::EdgeBuffer, credited);
        let in_ports = h.in_ports();
        let net_ports = h.core.net_ports;
        let nodes = h.topo.node_count();
        let mut rng = OpRng(seed);
        let mut s = EdgeShadow {
            lane: vec![vec![0; vcs]; in_ports],
            credit: vec![vec![capacity; vcs]; net_ports],
            owed: vec![vec![0; vcs]; net_ports],
            st: 0,
            inside: 0,
        };
        let mut now = 0u64;
        for _ in 0..steps {
            match rng.below(8) {
                // Deliver a fresh single-flit packet into a random lane.
                0..=3 => {
                    let port = rng.below(in_ports);
                    let vc = rng.below(vcs);
                    let dst = rng.below(nodes);
                    let accepted = h.try_deliver(port, vc, dst);
                    prop_assert_eq!(
                        accepted,
                        s.lane[port][vc] < capacity,
                        "acceptance at port {} vc {} disagrees with shadow depth {}",
                        port, vc, s.lane[port][vc],
                    );
                    if accepted {
                        s.lane[port][vc] += 1;
                        s.inside += 1;
                    }
                }
                // One allocation cycle; grants move lane flits into ST.
                4 | 5 => {
                    let summary = h.alloc(now);
                    now += 1;
                    prop_assert_eq!(
                        summary.alloc_grants as usize,
                        summary.freed_inputs.len() + summary.freed_injection.len(),
                        "every edge grant frees exactly one lane slot",
                    );
                    for &(p, v) in &summary.freed_inputs {
                        prop_assert!(s.lane[p][v] > 0, "freed an empty lane {p}/{v}");
                        s.lane[p][v] -= 1;
                    }
                    for &(l, v) in &summary.freed_injection {
                        let p = net_ports + l;
                        prop_assert!(s.lane[p][v] > 0, "freed an empty injection lane {l}/{v}");
                        s.lane[p][v] -= 1;
                    }
                    s.st += summary.alloc_grants as usize;
                }
                // Drain the crossbar: flits leave the router; net-port
                // departures consumed one downstream credit at commit.
                6 => {
                    for (p, v) in h.drain() {
                        s.st -= 1;
                        s.inside -= 1;
                        if credited && p < net_ports {
                            prop_assert!(s.credit[p][v] > 0, "over-consumed credit {p}/{v}");
                            s.credit[p][v] -= 1;
                            s.owed[p][v] += 1;
                        }
                    }
                }
                // Return one owed credit (what the downstream channel
                // does when the flit vacates its buffer slot).
                _ => {
                    if credited {
                        let start = rng.below(net_ports * vcs);
                        for i in 0..net_ports * vcs {
                            let lane = (start + i) % (net_ports * vcs);
                            let (p, v) = (lane / vcs, lane % vcs);
                            if s.owed[p][v] > 0 {
                                h.core.add_credit(p, v);
                                s.owed[p][v] -= 1;
                                s.credit[p][v] += 1;
                                break;
                            }
                        }
                    }
                }
            }
            // Audit the router's own derived structures, then every
            // externally visible SoA quantity against the shadow.
            h.core.verify_soa_invariants();
            for port in 0..in_ports {
                let mut word = 0u64;
                for vc in 0..vcs {
                    prop_assert_eq!(h.core.lane_len(port, vc), s.lane[port][vc]);
                    if s.lane[port][vc] > 0 {
                        word |= 1 << vc;
                    }
                }
                prop_assert_eq!(h.core.occupancy_word(port), word);
            }
            prop_assert_eq!(h.core.st_count(), s.st);
            prop_assert_eq!(h.core.buffered_flits(), s.inside);
            // Credits are consumed at commit time but the shadow models
            // them at drain time, so they only agree while no committed
            // flit is waiting in an ST register.
            if credited && s.st == 0 {
                for p in 0..net_ports {
                    let mut sum = 0;
                    for v in 0..vcs {
                        prop_assert_eq!(h.core.credit(p, v), s.credit[p][v]);
                        sum += s.credit[p][v];
                    }
                    prop_assert_eq!(
                        h.core.output_occupancy(p, capacity),
                        capacity * vcs - sum,
                        "occupancy probe disagrees at port {}",
                        p,
                    );
                }
            }
        }
    }

    /// The central-buffer datapath conserves flits and keeps its derived
    /// structures (staging occupancy words, credit counters, ST mask)
    /// consistent under the same random schedules. The CB's internal
    /// queue moves are not shadowed flit-by-flit — `verify_soa_invariants`
    /// audits those — but acceptance, conservation, and drain
    /// bookkeeping are.
    #[test]
    fn cb_router_conserves_flits(
        seed in 0u64..=u64::MAX,
        vcs in prop::sample::select(vec![1usize, 2]),
        capacity in 1usize..4,
        cb_flits in prop::sample::select(vec![4usize, 8, 16]),
        steps in 40usize..140,
    ) {
        let arch = RouterArch::CentralBuffer { cb_flits };
        let mut h = Center::new(vcs, capacity, arch, true);
        let in_ports = h.in_ports();
        let nodes = h.topo.node_count();
        let mut rng = OpRng(seed);
        // Staging slots are 0/1-deep; the CB behind them is opaque here.
        let mut staged = vec![vec![false; vcs]; in_ports];
        let mut inside = 0usize;
        let mut st = 0usize;
        let mut now = 0u64;
        for _ in 0..steps {
            match rng.below(8) {
                0..=3 => {
                    let port = rng.below(in_ports);
                    let vc = rng.below(vcs);
                    let accepted = h.try_deliver(port, vc, rng.below(nodes));
                    prop_assert_eq!(
                        accepted,
                        !staged[port][vc],
                        "staging acceptance at {}/{} disagrees",
                        port, vc,
                    );
                    if accepted {
                        staged[port][vc] = true;
                        inside += 1;
                    }
                }
                4 | 5 => {
                    let summary = h.alloc(now);
                    now += 1;
                    // Bypasses and CB reads enter the ST registers; CB
                    // writes only move staging flits into the queue, so
                    // the grant total is the sum of all three paths.
                    prop_assert_eq!(
                        summary.alloc_grants,
                        summary.bypasses + summary.cb_reads + summary.cb_writes,
                        "CB grant accounting drifted",
                    );
                    st += (summary.bypasses + summary.cb_reads) as usize;
                    // Resync staging occupancy from the router: bypass
                    // and CB-write vacate slots, which the shadow cannot
                    // predict without reimplementing the allocator.
                    for (port, row) in staged.iter_mut().enumerate() {
                        for (vc, slot) in row.iter_mut().enumerate() {
                            *slot = h.core.lane_len(port, vc) > 0;
                        }
                    }
                }
                6 => {
                    let drained = h.drain();
                    st -= drained.len();
                    inside -= drained.len();
                }
                _ => {
                    // CBR output credits: return one to a random lane
                    // only if the router is below its initial level —
                    // tracked via the introspected credit itself.
                    let p = rng.below(h.core.net_ports);
                    let v = rng.below(vcs);
                    if h.core.credit(p, v) < capacity {
                        h.core.add_credit(p, v);
                    }
                }
            }
            h.core.verify_soa_invariants();
            for (port, row) in staged.iter().enumerate() {
                let mut word = 0u64;
                for (vc, &slot) in row.iter().enumerate() {
                    prop_assert_eq!(h.core.lane_len(port, vc), usize::from(slot));
                    if slot {
                        word |= 1 << vc;
                    }
                }
                prop_assert_eq!(h.core.occupancy_word(port), word);
            }
            prop_assert_eq!(h.core.st_count(), st);
            prop_assert_eq!(h.core.buffered_flits(), inside);
        }
    }
}
