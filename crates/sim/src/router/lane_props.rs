//! Shadow-model property suite for the router datapath's lane and port
//! records.
//!
//! Each case drives a single [`RouterCore`] (the center of a 3x3 mesh)
//! through a random deliver/alloc/drain/credit sequence of 1–6-flit
//! packets into lanes of per-port depth and checks the hot state —
//! per-lane ring contents and FIFO order, held routes, occupancy
//! words, per-VC credit counters, ST registers, wormhole ownership of
//! the output VCs, the live-flit counter — against a naive shadow model
//! that tracks the same quantities with plain nested collections. After
//! every operation the router additionally audits its own derived
//! structures against a fresh recount (`verify_invariants`).
//!
//! Honors `PROPTEST_CASES` for deep-soak runs (see the vendored
//! proptest's `ProptestConfig::effective_cases`).

use super::*;
use crate::flit::PacketId;
use proptest::prelude::*;
use snoc_topology::{NodeId, Topology};
use std::collections::HashMap;

/// A packet whose flits are still arriving at an input lane.
struct Arriving {
    flits: Vec<Flit>,
    next: usize,
}

/// The center router of a 3x3 mesh (4 network ports, 1 local port) with
/// the context needed to drive it alone: a flit arena and the mesh's
/// routing table.
struct Center {
    core: RouterCore,
    arena: FlitArena,
    table: RoutingTable,
    topo: Topology,
    next_pid: u64,
    /// Per input lane: the packet mid-delivery, if any. Flits of one
    /// packet arrive in order on one lane, as a wormhole link delivers
    /// them.
    arriving: Vec<Option<Arriving>>,
}

impl Center {
    /// `capacity[port]` is the per-VC depth of each input port's lanes
    /// (the last entry is the injection port's); credited links start
    /// with `credits` credits per output VC.
    fn new(vcs: usize, capacity: &[usize], arch: RouterArch, credits: Option<usize>) -> Self {
        let topo = Topology::mesh(3, 3, 1);
        let table = RoutingTable::minimal(&topo);
        let center = RouterId(4);
        let net_ports = table.port_count(center);
        assert_eq!(net_ports, 4, "mesh center has 4 neighbors");
        assert_eq!(capacity.len(), net_ports + 1);
        let link_mode = match credits {
            Some(_) => LinkMode::Credited,
            None => LinkMode::Elastic,
        };
        let (net_caps, inj_cap) = (&capacity[..net_ports], capacity[net_ports]);
        let mut core = RouterCore::new(
            center, net_ports, 1, vcs, arch, link_mode, net_caps, inj_cap,
        );
        for p in 0..net_ports {
            core.set_credits(p, credits.unwrap_or(0));
        }
        Center {
            core,
            arena: FlitArena::default(),
            table,
            topo,
            next_pid: 0,
            arriving: (0..capacity.len() * vcs).map(|_| None).collect(),
        }
    }

    fn in_ports(&self) -> usize {
        self.core.net_ports + self.core.local_ports
    }

    /// Delivers the next flit of the packet arriving on `(port, vc)` —
    /// the head of a fresh `len`-flit packet for node `dst` if none is
    /// mid-delivery — when there is space; returns the accepted flit.
    fn try_deliver(&mut self, port: usize, vc: usize, dst: usize, len: u32) -> Option<FlitRef> {
        if !self.core.can_deliver(port, vc) {
            return None;
        }
        let dst = NodeId(dst);
        let router = self.topo.router_of(dst);
        let slot = &mut self.arriving[port * self.core.vcs + vc];
        let packet = slot.get_or_insert_with(|| {
            self.next_pid += 1;
            let id = PacketId(self.next_pid);
            Arriving {
                flits: Flit::packet(id, NodeId(0), dst, router, len, 0, true, false),
                next: 0,
            }
        });
        let flit = packet.flits[packet.next];
        packet.next += 1;
        if packet.next == packet.flits.len() {
            *slot = None;
        }
        let fr = self.arena.insert(flit);
        self.core.deliver(port, vc, fr, &mut self.arena);
        Some(fr)
    }

    /// One allocation cycle with an always-ready link predicate.
    fn alloc(&mut self, now: u64) -> AllocResult {
        self.core
            .alloc(now, &self.table, 1, &mut self.arena, &|_, _| true)
    }

    /// Drains the ST registers, removing the departing flits from the
    /// arena (there is no downstream). Returns `(out_port, vc, ref,
    /// flit)` in drain order.
    fn drain(&mut self) -> Vec<(usize, usize, FlitRef, Flit)> {
        let mut st = Vec::new();
        self.core
            .drain_st(|port, stf| st.push((port, stf.out_vc, stf.flit)));
        st.into_iter()
            .map(|(port, vc, fr)| (port, vc, fr, self.arena.remove(fr)))
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
    /// Flits queued per input lane `[port][vc]`, front first.
    lane: Vec<Vec<VecDeque<FlitRef>>>,
    /// Packet holding each input lane's route `[port][vc]`: set by a
    /// head's grant, cleared by its tail's.
    holder: Vec<Vec<Option<u64>>>,
    /// Granted flits sitting in ST registers, not yet drained.
    st: Vec<FlitRef>,
    /// The output `(port, vc)` each packet's head left through.
    left_by: HashMap<u64, (usize, usize)>,
    /// Packet streaming through each network output VC `[port][vc]`.
    out_owner: Vec<Vec<Option<u64>>>,
    /// Available credits per output lane `[port][vc]` (credited mode).
    credit: Vec<Vec<usize>>,
    /// Credits consumed downstream but not yet returned `[port][vc]`.
    owed: Vec<Vec<usize>>,
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
        max_capacity in 1usize..7,
        credited in prop::sample::select(vec![true, false]),
        steps in 60usize..220,
    ) {
        let mut rng = OpRng(seed);
        // EB-Var gives every port its own depth, so ring bases are not
        // a multiple of anything.
        let capacity: Vec<usize> = (0..5).map(|_| 1 + rng.below(max_capacity)).collect();
        let credits = 1 + rng.below(4);
        let mut h = Center::new(vcs, &capacity, RouterArch::EdgeBuffer, credited.then_some(credits));
        let in_ports = h.in_ports();
        let net_ports = h.core.net_ports;
        let nodes = h.topo.node_count();
        let mut s = EdgeShadow {
            lane: vec![vec![VecDeque::new(); vcs]; in_ports],
            holder: vec![vec![None; vcs]; in_ports],
            st: Vec::new(),
            left_by: HashMap::new(),
            out_owner: vec![vec![None; vcs]; net_ports],
            credit: vec![vec![credits; vcs]; net_ports],
            owed: vec![vec![0; vcs]; net_ports],
            inside: 0,
        };
        let mut now = 0u64;
        for _ in 0..steps {
            match rng.below(8) {
                // Deliver the next flit of a 1–6-flit packet into a
                // random lane.
                0..=3 => {
                    let port = rng.below(in_ports);
                    let vc = rng.below(vcs);
                    let dst = rng.below(nodes);
                    let len = 1 + rng.below(6) as u32;
                    let accepted = h.try_deliver(port, vc, dst, len);
                    prop_assert_eq!(
                        accepted.is_some(),
                        s.lane[port][vc].len() < capacity[port],
                        "acceptance at port {} vc {} disagrees with shadow depth {}",
                        port, vc, s.lane[port][vc].len(),
                    );
                    if let Some(fr) = accepted {
                        s.lane[port][vc].push_back(fr);
                        s.inside += 1;
                    }
                }
                // One allocation cycle; a grant moves a lane's front
                // flit into an ST register and sets or clears the
                // lane's held route.
                4 | 5 => {
                    let summary = h.alloc(now);
                    now += 1;
                    prop_assert_eq!(
                        summary.alloc_grants as usize,
                        summary.freed.len(),
                        "every edge grant frees exactly one lane slot",
                    );
                    for &(p, v) in &summary.freed {
                        let Some(fr) = s.lane[p][v].pop_front() else {
                            return Err(TestCaseError(format!("freed an empty lane {p}/{v}")));
                        };
                        let f = h.arena.get(fr);
                        if f.kind.is_head() {
                            prop_assert_eq!(s.holder[p][v], None, "head granted under a held route");
                            s.holder[p][v] = Some(f.packet.0);
                        }
                        prop_assert_eq!(s.holder[p][v], Some(f.packet.0), "granted out of packet order");
                        if f.kind.is_tail() {
                            s.holder[p][v] = None;
                        }
                        s.st.push(fr);
                    }
                }
                // Drain the crossbar: flits leave the router in lane
                // FIFO order; net-port departures consumed one
                // downstream credit at commit and obey wormhole
                // ownership of their output VC.
                6 => {
                    for (p, v, fr, f) in h.drain() {
                        let Some(at) = s.st.iter().position(|&g| g == fr) else {
                            return Err(TestCaseError(format!("drained {fr:?}, never granted")));
                        };
                        s.st.swap_remove(at);
                        s.inside -= 1;
                        let pkt = f.packet.0;
                        if f.kind.is_head() {
                            s.left_by.insert(pkt, (p, v));
                        }
                        prop_assert_eq!(s.left_by[&pkt], (p, v), "a body left its head's output");
                        if p >= net_ports {
                            continue;
                        }
                        if f.kind.is_head() {
                            prop_assert_eq!(s.out_owner[p][v], None, "two packets interleave on {}/{}", p, v);
                            s.out_owner[p][v] = Some(pkt);
                        }
                        prop_assert_eq!(s.out_owner[p][v], Some(pkt), "output VC {}/{} has another owner", p, v);
                        if f.kind.is_tail() {
                            s.out_owner[p][v] = None;
                        }
                        if credited {
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
            // externally visible quantity against the shadow.
            h.core.verify_invariants();
            for port in 0..in_ports {
                let mut word = 0u64;
                for vc in 0..vcs {
                    prop_assert_eq!(h.core.lane_len(port, vc), s.lane[port][vc].len());
                    if !s.lane[port][vc].is_empty() {
                        word |= 1 << vc;
                    }
                    let held = h.core.lane_route(port, vc);
                    prop_assert_eq!(held.map(|(_, pkt)| pkt), s.holder[port][vc]);
                    // The route itself shows once the head has drained.
                    if let Some((route, pkt)) = held {
                        if let Some(&left_by) = s.left_by.get(&pkt) {
                            prop_assert_eq!((route.port, route.vc), left_by);
                        }
                    }
                }
                prop_assert_eq!(h.core.occupancy_word(port), word);
            }
            prop_assert_eq!(h.core.st_count(), s.st.len());
            prop_assert_eq!(h.core.buffered_flits(), s.inside);
            // Credits are consumed at commit time but the shadow models
            // them at drain time, so they only agree while no committed
            // flit is waiting in an ST register.
            if credited && s.st.is_empty() {
                for p in 0..net_ports {
                    let mut sum = 0;
                    for v in 0..vcs {
                        prop_assert_eq!(h.core.credit(p, v), s.credit[p][v]);
                        sum += s.credit[p][v];
                    }
                    prop_assert_eq!(
                        h.core.output_occupancy(p, credits),
                        credits * vcs - sum,
                        "occupancy probe disagrees at port {}",
                        p,
                    );
                }
            }
        }
    }

    /// The central-buffer datapath conserves flits and keeps its derived
    /// structures (staging occupancy words, held paths, credit counters,
    /// ST mask) consistent under the same random schedules. The CB's
    /// internal queue moves are not shadowed flit-by-flit —
    /// `verify_invariants` audits those — but acceptance, conservation,
    /// and drain bookkeeping are.
    #[test]
    fn cb_router_conserves_flits(
        seed in 0u64..=u64::MAX,
        vcs in prop::sample::select(vec![1usize, 2]),
        capacity in 1usize..4,
        cb_flits in prop::sample::select(vec![4usize, 8, 16]),
        steps in 40usize..140,
    ) {
        let arch = RouterArch::CentralBuffer { cb_flits };
        let mut h = Center::new(vcs, &[capacity; 5], arch, Some(capacity));
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
                    // Packets longer than the CB can only bypass.
                    let len = 1 + rng.below(6) as u32;
                    let accepted = h.try_deliver(port, vc, rng.below(nodes), len).is_some();
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
            h.core.verify_invariants();
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
