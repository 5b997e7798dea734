//! Simulation statistics and activity counters.

use std::fmt;

/// Hardware activity counters accumulated during simulation — the inputs
/// to the dynamic-power model (buffer/crossbar/allocator/wire energy,
/// §5.1's dynamic power breakdown).
///
/// All counters are incremented in the simulator's hot loop as plain
/// `u64` additions on existing code paths (no per-cycle allocation).
/// Invariants maintained by the cycle loop within one measurement
/// window:
///
/// - `crossbar_traversals == link_flit_hops + ejections` — every flit
///   leaving the ST stage either crosses a link or ejects locally;
/// - `wire_flit_tiles >= link_flit_hops` — every link is at least one
///   tile long;
/// - for edge-buffer routers `alloc_grants == buffer_accesses`, for
///   central-buffer routers `alloc_grants == bypasses + cb_reads +
///   cb_writes` — each successful grant moves exactly one flit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActivityCounters {
    /// Edge-buffer write+read pairs (legacy aggregate kept for the
    /// counter invariants; the power model charges the exact
    /// `buffer_reads`/`buffer_writes` event counters instead).
    pub buffer_accesses: u64,
    /// Input-buffer and staging writes: flits deposited into a router
    /// by link delivery or injection.
    pub buffer_writes: u64,
    /// Input-buffer and staging reads: flits popped by the allocator
    /// (edge-buffer pops plus staging takes on the CBR paths).
    pub buffer_reads: u64,
    /// Central buffer writes.
    pub cb_writes: u64,
    /// Central buffer reads.
    pub cb_reads: u64,
    /// CBR bypass traversals.
    pub bypasses: u64,
    /// Crossbar traversals (every ST-stage flit).
    pub crossbar_traversals: u64,
    /// Successful allocator grants (switch-allocation winners: edge
    /// grants, CBR bypasses, central-buffer reads and writes) — the
    /// activity factor of the `k²·|VC|²` allocation logic.
    pub alloc_grants: u64,
    /// Flits crossing router-to-router links (one count per link
    /// traversal, independent of wire length).
    pub link_flit_hops: u64,
    /// Flit·tile products over all wire traversals (wire dynamic energy
    /// is proportional to distance travelled).
    pub wire_flit_tiles: u64,
    /// Flits handed to local nodes.
    pub ejections: u64,
    /// Flits of measured packets discarded by live fault injection
    /// (dead hardware, severed routes). Always 0 on fault-free runs —
    /// the JSON serialization omits it then, keeping fault-free reports
    /// byte-identical to pre-fault-subsystem ones.
    pub dropped_flits: u64,
}

/// Host-side work counters of a [`crate::Simulator`]: how much the
/// engine *did*, as opposed to what the network did. Always on (plain
/// `u64` additions on existing code paths), cumulative over the
/// simulator's lifetime — warmup, measurement and drain alike — and
/// deliberately outside [`SimReport`] / [`Snapshot`] / the JSON, so no
/// simulated byte depends on them. Read through
/// [`crate::Simulator::work`]; the counts repeat exactly for a fixed
/// seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Cycles the cycle body ran for — every simulated cycle.
    pub cycles_stepped: u64,
    /// Active-channel visits (tick + delivery + credit return).
    pub channel_visits: u64,
    /// Active-router visits of the switch-traversal phase.
    pub router_visits: u64,
    /// Allocation calls (non-idle routers of the allocation phase).
    pub alloc_calls: u64,
    /// Ports the allocator scans visited: non-empty input ports on the
    /// edge path; CB-read outputs plus bypass and CB-write inputs on
    /// the central-buffer path.
    pub ports_examined: u64,
    /// Occupied lanes those scans inspected.
    pub lanes_examined: u64,
    /// Allocator grants (unlike [`ActivityCounters::alloc_grants`], not
    /// limited to the measurement window).
    pub grants: u64,
    /// Injection-calendar events popped.
    pub calendar_pops: u64,
    /// Worklist entries removed by the end-of-step compaction.
    pub compact_removals: u64,
}

impl WorkCounters {
    /// Every counter with its display name, in declaration order.
    #[must_use]
    pub fn rows(&self) -> [(&'static str, u64); 9] {
        [
            ("cycles stepped", self.cycles_stepped),
            ("channel visits", self.channel_visits),
            ("router visits", self.router_visits),
            ("allocation calls", self.alloc_calls),
            ("ports examined", self.ports_examined),
            ("lanes examined", self.lanes_examined),
            ("grants", self.grants),
            ("calendar pops", self.calendar_pops),
            ("compact removals", self.compact_removals),
        ]
    }
}

impl ActivityCounters {
    /// Folds one router's allocation cycle into the window counters.
    ///
    /// Lives here (not at the call site) so the counter semantics stay
    /// next to the conservation laws they feed: edge-buffer pops and
    /// CBR staging takes (bypass and CB-write paths) each read one
    /// buffered flit, while central-buffer reads are accounted
    /// separately via `cb_reads`.
    pub(crate) fn record_alloc(&mut self, res: &crate::router::AllocResult) {
        self.buffer_accesses += res.buffer_accesses;
        self.buffer_reads += res.buffer_accesses + res.bypasses + res.cb_writes;
        self.cb_writes += res.cb_writes;
        self.cb_reads += res.cb_reads;
        self.bypasses += res.bypasses;
        self.alloc_grants += res.alloc_grants;
    }

    /// Element-wise accumulation.
    pub fn add(&mut self, other: &ActivityCounters) {
        self.buffer_accesses += other.buffer_accesses;
        self.buffer_writes += other.buffer_writes;
        self.buffer_reads += other.buffer_reads;
        self.cb_writes += other.cb_writes;
        self.cb_reads += other.cb_reads;
        self.bypasses += other.bypasses;
        self.crossbar_traversals += other.crossbar_traversals;
        self.alloc_grants += other.alloc_grants;
        self.link_flit_hops += other.link_flit_hops;
        self.wire_flit_tiles += other.wire_flit_tiles;
        self.ejections += other.ejections;
        self.dropped_flits += other.dropped_flits;
    }
}

/// An engine-independent extract of one simulation run's metrics: the
/// comparison interface of the differential-verification harness.
///
/// Both the optimized simulator (via
/// [`Conformance::snapshot`] on [`SimReport`]) and the golden reference
/// simulator (`snoc_refsim`) emit this structure, so the harness never
/// reaches into either engine's internal state. Two engines agree on a
/// run exactly when their snapshots are equal; the latency histogram is
/// normalized (trailing zero bins trimmed) so engines that size their
/// histograms differently still compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Cycles in the measurement window.
    pub measured_cycles: u64,
    /// Total cycles simulated (warmup + measurement + drain).
    pub total_cycles: u64,
    /// Endpoint count.
    pub nodes: usize,
    /// Packets created during the measurement window.
    pub injected_packets: u64,
    /// Measured packets fully delivered.
    pub delivered_packets: u64,
    /// Measured flits delivered.
    pub delivered_flits: u64,
    /// Sum of packet latencies over delivered measured packets.
    pub latency_sum: u64,
    /// Maximum packet latency observed.
    pub latency_max: u64,
    /// Sum of network hop counts over delivered measured packets.
    pub hops_sum: u64,
    /// Packets dropped at generation because the injection queue was full.
    pub stalled_generations: u64,
    /// Measured packets destroyed by live fault injection (0 on
    /// fault-free runs).
    pub dropped_packets: u64,
    /// Whether every measured packet drained.
    pub drained: bool,
    /// Hardware activity during the measurement window.
    pub activity: ActivityCounters,
    /// Latency histogram (1-cycle bins, trailing zeros trimmed).
    pub latency_histogram: Vec<u64>,
}

impl Snapshot {
    /// Mean packet latency in cycles (0 with no deliveries).
    #[must_use]
    pub fn mean_latency(&self) -> f64 {
        if self.delivered_packets == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.delivered_packets as f64
        }
    }

    /// Mean network hops per delivered packet (0 with no deliveries).
    #[must_use]
    pub fn mean_hops(&self) -> f64 {
        if self.delivered_packets == 0 {
            0.0
        } else {
            self.hops_sum as f64 / self.delivered_packets as f64
        }
    }

    /// Accepted throughput in flits/node/cycle.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.measured_cycles == 0 || self.nodes == 0 {
            0.0
        } else {
            self.delivered_flits as f64 / (self.measured_cycles as f64 * self.nodes as f64)
        }
    }

    /// Checks every engine-independent conservation law a correct
    /// simulator must satisfy within one measurement window:
    ///
    /// - every crossbar traversal either crossed a link or ejected
    ///   (`crossbar_traversals == link_flit_hops + ejections`);
    /// - wires are at least one tile long
    ///   (`wire_flit_tiles >= link_flit_hops`);
    /// - every allocator grant moved exactly one flit
    ///   (`alloc_grants == buffer_accesses + bypasses + cb_reads +
    ///   cb_writes`; one side is all-zero per router architecture);
    /// - every buffered flit popped was read once
    ///   (`buffer_reads == buffer_accesses + bypasses + cb_writes`);
    /// - no packet is delivered that was not injected
    ///   (`delivered + dropped <= injected`), and a drained run
    ///   accounted for every measured packet
    ///   (`delivered + dropped == injected` — fault injection extends
    ///   the law: a measured packet either arrives or is counted
    ///   dropped, never silently lost);
    /// - the latency histogram accounts for every delivered packet.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated law.
    pub fn check_conservation(&self) -> Result<(), String> {
        let a = &self.activity;
        if a.crossbar_traversals != a.link_flit_hops + a.ejections {
            return Err(format!(
                "crossbar {} != link_hops {} + ejections {}",
                a.crossbar_traversals, a.link_flit_hops, a.ejections
            ));
        }
        if a.wire_flit_tiles < a.link_flit_hops {
            return Err(format!(
                "wire_flit_tiles {} < link_flit_hops {}",
                a.wire_flit_tiles, a.link_flit_hops
            ));
        }
        let moved = a.buffer_accesses + a.bypasses + a.cb_reads + a.cb_writes;
        if a.alloc_grants != moved {
            return Err(format!(
                "alloc_grants {} != flits moved by grants {moved}",
                a.alloc_grants
            ));
        }
        let reads = a.buffer_accesses + a.bypasses + a.cb_writes;
        if a.buffer_reads != reads {
            return Err(format!(
                "buffer_reads {} != pops + staging takes {reads}",
                a.buffer_reads
            ));
        }
        if self.delivered_packets + self.dropped_packets > self.injected_packets {
            return Err(format!(
                "delivered {} + dropped {} > injected {}",
                self.delivered_packets, self.dropped_packets, self.injected_packets
            ));
        }
        if self.drained && self.delivered_packets + self.dropped_packets != self.injected_packets {
            return Err(format!(
                "drained run delivered {} and dropped {} of {} injected",
                self.delivered_packets, self.dropped_packets, self.injected_packets
            ));
        }
        let hist: u64 = self.latency_histogram.iter().sum();
        if hist != self.delivered_packets {
            return Err(format!(
                "histogram mass {hist} != delivered {}",
                self.delivered_packets
            ));
        }
        Ok(())
    }
}

/// Metric extraction for differential verification: any simulation
/// engine whose results can be condensed to a [`Snapshot`].
pub trait Conformance {
    /// Extracts the engine-independent metrics of a finished run.
    fn snapshot(&self) -> Snapshot;
}

impl Conformance for SimReport {
    fn snapshot(&self) -> Snapshot {
        let mut hist = self.latency_histogram.clone();
        while hist.last() == Some(&0) {
            hist.pop();
        }
        Snapshot {
            measured_cycles: self.measured_cycles,
            total_cycles: self.total_cycles,
            nodes: self.nodes,
            injected_packets: self.injected_packets,
            delivered_packets: self.delivered_packets,
            delivered_flits: self.delivered_flits,
            latency_sum: self.latency_sum,
            latency_max: self.latency_max,
            hops_sum: self.hops_sum,
            stalled_generations: self.stalled_generations,
            dropped_packets: self.dropped_packets,
            drained: self.drained,
            activity: self.activity,
            latency_histogram: hist,
        }
    }
}

/// The result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Cycles simulated after warmup (the measurement window).
    pub measured_cycles: u64,
    /// Total cycles simulated (warmup + measurement + drain).
    pub total_cycles: u64,
    /// Endpoint count (for per-node rates).
    pub nodes: usize,
    /// Packets created during the measurement window.
    pub injected_packets: u64,
    /// Measured packets fully delivered.
    pub delivered_packets: u64,
    /// Measured flits delivered.
    pub delivered_flits: u64,
    /// Sum of packet latencies (creation to tail ejection) over delivered
    /// measured packets.
    pub latency_sum: u64,
    /// Maximum packet latency observed.
    pub latency_max: u64,
    /// Latency histogram with 1-cycle bins, capped at 4096 cycles.
    pub latency_histogram: Vec<u64>,
    /// Sum of network hop counts over delivered measured packets.
    pub hops_sum: u64,
    /// Packets that could not be created because the injection queue was
    /// full (offered load above acceptance).
    pub stalled_generations: u64,
    /// Measured packets destroyed by live fault injection: at least one
    /// of their flits was dropped, so their tail can never eject. The
    /// conservation law becomes `injected == delivered + in-flight +
    /// dropped`. Always 0 on fault-free runs and omitted from the JSON
    /// then.
    pub dropped_packets: u64,
    /// `true` if every measured packet drained before the drain cap.
    pub drained: bool,
    /// Set when the no-progress watchdog aborted the run: flits were
    /// live but nothing moved for the watchdog bound. `None` on every
    /// healthy run (and omitted from the JSON then). A watchdog abort
    /// also implies `drained == false` whenever measured packets were
    /// still in flight.
    pub deadlock: Option<crate::DeadlockDiagnostic>,
    /// Hardware activity during the measurement window.
    pub activity: ActivityCounters,
}

impl SimReport {
    pub(crate) fn new(nodes: usize) -> Self {
        SimReport {
            measured_cycles: 0,
            total_cycles: 0,
            nodes,
            injected_packets: 0,
            delivered_packets: 0,
            delivered_flits: 0,
            latency_sum: 0,
            latency_max: 0,
            latency_histogram: vec![0; 256],
            hops_sum: 0,
            stalled_generations: 0,
            dropped_packets: 0,
            drained: true,
            deadlock: None,
            activity: ActivityCounters::default(),
        }
    }

    pub(crate) fn record_delivery(&mut self, latency: u64, hops: u32, flits: u32) {
        self.delivered_packets += 1;
        self.delivered_flits += u64::from(flits);
        self.latency_sum += latency;
        self.latency_max = self.latency_max.max(latency);
        let bin = (latency as usize).min(4095);
        if bin >= self.latency_histogram.len() {
            self.latency_histogram.resize(bin + 1, 0);
        }
        self.latency_histogram[bin] += 1;
        self.hops_sum += u64::from(hops);
    }

    /// Average packet latency in cycles (creation to tail ejection).
    #[must_use]
    pub fn avg_packet_latency(&self) -> f64 {
        if self.delivered_packets == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.delivered_packets as f64
        }
    }

    /// Accepted throughput in flits/node/cycle.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.measured_cycles == 0 || self.nodes == 0 {
            0.0
        } else {
            self.delivered_flits as f64 / (self.measured_cycles as f64 * self.nodes as f64)
        }
    }

    /// Average network hops per delivered packet.
    #[must_use]
    pub fn avg_hops(&self) -> f64 {
        if self.delivered_packets == 0 {
            0.0
        } else {
            self.hops_sum as f64 / self.delivered_packets as f64
        }
    }

    /// Latency percentile (e.g. `0.99`) from the histogram.
    ///
    /// Total functions over any report: an empty histogram (zero
    /// delivered packets) yields 0, and `p` is clamped into `[0, 1]`
    /// (NaN counts as 0) rather than panicking — sweep campaigns call
    /// this on saturated and smoke-window points whose histograms may
    /// be empty.
    #[must_use]
    pub fn latency_percentile(&self, p: f64) -> u64 {
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
        let total: u64 = self.latency_histogram.iter().sum();
        if total == 0 {
            return 0;
        }
        let want = (p * total as f64).ceil() as u64;
        let mut seen = 0;
        for (lat, &count) in self.latency_histogram.iter().enumerate() {
            seen += count;
            if seen >= want {
                return lat as u64;
            }
        }
        self.latency_max
    }

    /// Fraction of offered packets that the network accepted (1.0 when
    /// injection queues never filled up).
    #[must_use]
    pub fn acceptance(&self) -> f64 {
        let offered = self.injected_packets + self.stalled_generations;
        if offered == 0 {
            1.0
        } else {
            self.injected_packets as f64 / offered as f64
        }
    }

    /// Serializes the complete report — every raw counter, the activity
    /// counters, and the full latency histogram — as JSON (hand-rolled;
    /// the build is offline and has no serde).
    ///
    /// Two reports are equal iff their JSON is byte-identical, which is
    /// what the engine fingerprint compares and what a multi-shard
    /// [`crate::ShardedSimulator`] run owes the monolithic one: any
    /// divergence in any counter shows up as a byte difference.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"slim_noc-sim-report-v1\",\n");
        let _ = writeln!(out, "  \"measured_cycles\": {},", self.measured_cycles);
        let _ = writeln!(out, "  \"total_cycles\": {},", self.total_cycles);
        let _ = writeln!(out, "  \"nodes\": {},", self.nodes);
        let _ = writeln!(out, "  \"injected_packets\": {},", self.injected_packets);
        let _ = writeln!(out, "  \"delivered_packets\": {},", self.delivered_packets);
        let _ = writeln!(out, "  \"delivered_flits\": {},", self.delivered_flits);
        let _ = writeln!(out, "  \"latency_sum\": {},", self.latency_sum);
        let _ = writeln!(out, "  \"latency_max\": {},", self.latency_max);
        let _ = writeln!(out, "  \"hops_sum\": {},", self.hops_sum);
        let _ = writeln!(
            out,
            "  \"stalled_generations\": {},",
            self.stalled_generations
        );
        let _ = writeln!(out, "  \"drained\": {},", self.drained);
        // Fault counters appear only when faults actually dropped
        // something, so fault-free reports stay byte-identical to
        // pre-fault-subsystem ones (goldens, caches, equivalence tests).
        if self.dropped_packets > 0 {
            let _ = writeln!(out, "  \"dropped_packets\": {},", self.dropped_packets);
        }
        // Same omission rule for the watchdog diagnostic: only aborted
        // runs carry it, healthy reports keep the v1 byte layout.
        if let Some(d) = &self.deadlock {
            let stuck: Vec<String> = d
                .stuck_packets
                .iter()
                .map(|s| {
                    format!(
                        "{{\"packet\": {}, \"router\": {}, \"dst_router\": {}, \"in_st\": {}}}",
                        s.packet, s.router, s.dst_router, s.in_st
                    )
                })
                .collect();
            let waits: Vec<String> = d
                .wait_for
                .iter()
                .map(|w| {
                    format!(
                        "{{\"from_router\": {}, \"port\": {}, \"vc\": {}, \"to_router\": {}}}",
                        w.from_router, w.port, w.vc, w.to_router
                    )
                })
                .collect();
            let _ = writeln!(
                out,
                "  \"deadlock\": {{\"cycle\": {}, \"last_progress\": {}, \
                 \"in_flight_flits\": {}, \"stuck_packets\": [{}], \"wait_for\": [{}]}},",
                d.cycle,
                d.last_progress,
                d.in_flight_flits,
                stuck.join(", "),
                waits.join(", ")
            );
        }
        let a = &self.activity;
        let dropped = if a.dropped_flits > 0 {
            format!(", \"dropped_flits\": {}", a.dropped_flits)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "  \"activity\": {{\"buffer_accesses\": {}, \"buffer_writes\": {}, \
             \"buffer_reads\": {}, \"cb_writes\": {}, \"cb_reads\": {}, \"bypasses\": {}, \
             \"crossbar_traversals\": {}, \"alloc_grants\": {}, \"link_flit_hops\": {}, \
             \"wire_flit_tiles\": {}, \"ejections\": {}{dropped}}},",
            a.buffer_accesses,
            a.buffer_writes,
            a.buffer_reads,
            a.cb_writes,
            a.cb_reads,
            a.bypasses,
            a.crossbar_traversals,
            a.alloc_grants,
            a.link_flit_hops,
            a.wire_flit_tiles,
            a.ejections,
        );
        out.push_str("  \"latency_histogram\": [");
        for (i, count) in self.latency_histogram.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{count}");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// The saturation heuristic used by load sweeps, in terms of the
/// condensed scalars a report yields: the network is saturated when it
/// rejects offered traffic, latency explodes relative to the zero-load
/// latency, the run did not drain, or it accepted packets but delivered
/// none at all (average latency is 0 on an empty histogram, which would
/// otherwise fail the blow-up test — the worst congestion looking like
/// the best). A non-finite `zero_load_latency` reference (e.g.
/// propagated from a degenerate upstream division) is ignored instead
/// of poisoning the comparison.
///
/// Scalars rather than a report, so the sweep engine's
/// content-addressed point cache can re-evaluate saturation for a
/// *cached* point against the current curve's zero-load reference
/// without rehydrating a full report — the cache stores these five
/// scalars, and the one function is what keeps a warm rerun's
/// saturation flags bit-identical to a cold run's.
#[must_use]
pub fn saturation_heuristic(
    avg_latency: f64,
    acceptance: f64,
    drained: bool,
    delivered_packets: u64,
    injected_packets: u64,
    zero_load_latency: f64,
) -> bool {
    let latency_blowup = zero_load_latency.is_finite()
        && zero_load_latency > 0.0
        && avg_latency > 6.0 * zero_load_latency;
    acceptance < 0.95
        || latency_blowup
        || !drained
        || (delivered_packets == 0 && injected_packets > 0)
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lat {:.1} cyc (p99 {}), thpt {:.4} flits/node/cyc, {} pkts, acceptance {:.2}",
            self.avg_packet_latency(),
            self.latency_percentile(0.99),
            self.throughput(),
            self.delivered_packets,
            self.acceptance()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`saturation_heuristic`] on a report's scalars, as a campaign
    /// point feeds it.
    fn saturated(r: &SimReport, zero_load_latency: f64) -> bool {
        saturation_heuristic(
            r.avg_packet_latency(),
            r.acceptance(),
            r.drained,
            r.delivered_packets,
            r.injected_packets,
            zero_load_latency,
        )
    }

    #[test]
    fn latency_statistics() {
        let mut r = SimReport::new(4);
        r.measured_cycles = 100;
        for lat in [10, 20, 30, 40] {
            r.record_delivery(lat, 2, 6);
        }
        assert_eq!(r.avg_packet_latency(), 25.0);
        assert_eq!(r.latency_max, 40);
        assert_eq!(r.latency_percentile(0.5), 20);
        assert_eq!(r.latency_percentile(1.0), 40);
        assert_eq!(r.delivered_flits, 24);
        assert!((r.throughput() - 24.0 / 400.0).abs() < 1e-12);
        assert_eq!(r.avg_hops(), 2.0);
    }

    #[test]
    fn acceptance_and_saturation() {
        let mut r = SimReport::new(4);
        r.measured_cycles = 100;
        r.injected_packets = 90;
        r.stalled_generations = 10;
        assert!((r.acceptance() - 0.9).abs() < 1e-12);
        r.record_delivery(15, 2, 6);
        assert!(saturated(&r, 14.0), "acceptance below threshold");
        r.stalled_generations = 0;
        assert!(!saturated(&r, 14.0));
        assert!(saturated(&r, 2.0), "latency blow-up");
    }

    #[test]
    fn empty_report_defaults() {
        let r = SimReport::new(8);
        assert_eq!(r.avg_packet_latency(), 0.0);
        assert_eq!(r.throughput(), 0.0);
        assert_eq!(r.latency_percentile(0.99), 0);
        assert_eq!(r.acceptance(), 1.0);
    }

    #[test]
    fn activity_accumulation() {
        let mut a = ActivityCounters::default();
        let b = ActivityCounters {
            buffer_accesses: 1,
            buffer_writes: 8,
            buffer_reads: 9,
            cb_writes: 2,
            cb_reads: 3,
            bypasses: 4,
            crossbar_traversals: 5,
            alloc_grants: 10,
            link_flit_hops: 11,
            wire_flit_tiles: 6,
            ejections: 7,
            dropped_flits: 12,
        };
        a.add(&b);
        a.add(&b);
        assert_eq!(a.crossbar_traversals, 10);
        assert_eq!(a.wire_flit_tiles, 12);
        assert_eq!(a.buffer_writes, 16);
        assert_eq!(a.buffer_reads, 18);
        assert_eq!(a.alloc_grants, 20);
        assert_eq!(a.link_flit_hops, 22);
        assert_eq!(a.dropped_flits, 24);
    }

    #[test]
    fn percentile_is_total_on_empty_and_degenerate_inputs() {
        // Regression: empty histograms and out-of-range/NaN percentiles
        // must not panic (saturated sweep points can deliver nothing).
        let empty = SimReport::new(4);
        for p in [0.0, 0.5, 1.0, -0.5, 2.0, f64::NAN] {
            assert_eq!(empty.latency_percentile(p), 0, "p = {p}");
        }
        let mut r = SimReport::new(4);
        r.record_delivery(10, 2, 6);
        r.record_delivery(20, 2, 6);
        assert_eq!(r.latency_percentile(-1.0), 0, "clamped to p = 0");
        assert_eq!(r.latency_percentile(7.5), 20, "clamped to p = 1");
        assert_eq!(r.latency_percentile(f64::NAN), 0, "NaN reads as 0");
    }

    #[test]
    fn zero_deliveries_with_injections_is_saturated() {
        // Regression: a window that accepted packets but delivered none
        // has average latency 0, which used to defeat the latency
        // blow-up test and read as *unsaturated*.
        let mut r = SimReport::new(4);
        r.measured_cycles = 100;
        r.injected_packets = 50;
        assert!(saturated(&r, 10.0));
        assert!(saturated(&r, 0.0), "even without a latency reference");
        // A genuinely empty window (nothing offered) stays unsaturated.
        let empty = SimReport::new(4);
        assert!(!saturated(&empty, 10.0));
    }

    #[test]
    fn non_finite_zero_load_reference_is_ignored() {
        let mut r = SimReport::new(4);
        r.measured_cycles = 100;
        r.injected_packets = 10;
        r.record_delivery(500, 2, 6);
        // NaN/inf references must not poison the comparison either way.
        assert!(!saturated(&r, f64::NAN));
        assert!(!saturated(&r, f64::INFINITY));
        assert!(saturated(&r, 10.0), "finite reference still works");
    }

    #[test]
    fn report_json_distinguishes_every_counter() {
        let mut a = SimReport::new(4);
        a.measured_cycles = 100;
        a.record_delivery(10, 2, 6);
        let same = a.clone();
        assert_eq!(a.to_json(), same.to_json());
        assert!(a.to_json().contains("\"delivered_packets\": 1"));
        assert!(a
            .to_json()
            .contains("\"schema\": \"slim_noc-sim-report-v1\""));
        let mut b = a.clone();
        b.activity.ejections += 1;
        assert_ne!(a.to_json(), b.to_json(), "activity divergence visible");
        let mut c = a.clone();
        c.record_delivery(11, 2, 6);
        assert_ne!(a.to_json(), c.to_json(), "histogram divergence visible");
    }

    #[test]
    fn snapshot_extracts_and_normalizes() {
        let mut r = SimReport::new(4);
        r.measured_cycles = 100;
        r.record_delivery(10, 2, 6);
        r.injected_packets = 1;
        r.activity.crossbar_traversals = 3;
        r.activity.link_flit_hops = 2;
        r.activity.wire_flit_tiles = 2;
        r.activity.ejections = 1;
        r.activity.alloc_grants = 3;
        r.activity.buffer_accesses = 3;
        r.activity.buffer_reads = 3;
        let s = r.snapshot();
        assert_eq!(s.delivered_packets, 1);
        assert_eq!(s.latency_histogram.len(), 11, "trailing zeros trimmed");
        assert_eq!(s.latency_histogram[10], 1);
        assert!((s.mean_latency() - 10.0).abs() < 1e-12);
        assert!((s.mean_hops() - 2.0).abs() < 1e-12);
        assert!(s.check_conservation().is_ok(), "{s:?}");
        // Snapshots of equal reports are equal even if histogram storage
        // sizes differ.
        let mut grown = r.clone();
        grown.latency_histogram.resize(5000, 0);
        assert_eq!(r.snapshot(), grown.snapshot());
    }

    #[test]
    fn conservation_violations_are_reported() {
        let mut r = SimReport::new(4);
        r.measured_cycles = 100;
        r.record_delivery(10, 2, 6);
        r.injected_packets = 1;
        r.activity.crossbar_traversals = 5;
        let err = r.snapshot().check_conservation().unwrap_err();
        assert!(err.contains("crossbar"), "{err}");
        let mut r2 = SimReport::new(4);
        r2.injected_packets = 3;
        r2.drained = true;
        let err2 = r2.snapshot().check_conservation().unwrap_err();
        assert!(err2.contains("drained"), "{err2}");
    }

    #[test]
    fn fault_counters_are_omitted_when_zero() {
        let mut r = SimReport::new(4);
        r.measured_cycles = 100;
        r.record_delivery(10, 2, 6);
        r.injected_packets = 1;
        let clean = r.to_json();
        assert!(!clean.contains("dropped"), "fault-free JSON is unchanged");
        let mut faulted = r.clone();
        faulted.injected_packets = 3;
        faulted.dropped_packets = 2;
        faulted.activity.dropped_flits = 12;
        let json = faulted.to_json();
        assert!(json.contains("\"dropped_packets\": 2"));
        assert!(json.contains("\"dropped_flits\": 12"));
        assert_ne!(clean, json);
    }

    #[test]
    fn drained_conservation_accounts_for_drops() {
        let mut r = SimReport::new(4);
        r.measured_cycles = 100;
        r.record_delivery(10, 2, 6);
        r.injected_packets = 3;
        r.dropped_packets = 2;
        r.drained = true;
        assert!(r.snapshot().check_conservation().is_ok());
        r.dropped_packets = 1;
        let err = r.snapshot().check_conservation().unwrap_err();
        assert!(err.contains("drained"), "{err}");
        r.dropped_packets = 4;
        let err = r.snapshot().check_conservation().unwrap_err();
        assert!(err.contains("> injected"), "{err}");
    }

    #[test]
    fn huge_latency_lands_in_last_bin() {
        let mut r = SimReport::new(1);
        r.record_delivery(1_000_000, 2, 1);
        assert_eq!(r.latency_histogram[4095], 1);
        assert_eq!(r.latency_percentile(1.0), 4095);
        assert_eq!(r.latency_max, 1_000_000);
    }
}
