//! Workload sources: what injects next, and when. The driver loops
//! ([`Simulator::drive`], the sharded round loop) know nothing about
//! traffic: they ask a [`Source`] for its [`Windows`] and let it inject
//! what is due after each stepped cycle. [`Calendar`] feeds every
//! synthetic run, [`TraceCursor`] trace replay.

use super::Simulator;
use crate::stats::SimReport;
use rand_chacha::ChaCha8Rng;
use snoc_topology::NodeId;
use snoc_traffic::{BurstModel, InjectionProcess, PatternSampler, TraceMessage};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The cycle windows of one run (absolute cycles).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Windows {
    /// Measurement starts here.
    pub warmup: u64,
    /// Measurement stops here (and with it a synthetic run's
    /// injection; `u64::MAX` for traces).
    pub measure_end: u64,
    /// The drain phase gives up here.
    pub drain_cap: u64,
    /// The cycle count the report's rates are normalised by.
    pub measured: u64,
}

impl Windows {
    /// Whether activity at cycle `now` counts toward the report.
    pub(crate) fn measuring(&self, now: u64) -> bool {
        now >= self.warmup && now < self.measure_end
    }
}

/// A stream of packet injections feeding one run.
pub(crate) trait Source {
    /// The run's cycle windows.
    fn windows(&self) -> Windows;
    /// Whether injections may still come at or after `now` — the run
    /// loop keeps going while this holds, drained or not.
    fn pending(&self, now: u64) -> bool;
    /// Injects everything due at or before `sim.now`. It gets the
    /// simulator rather than returning a batch: its RNG draws interleave
    /// with the adaptive-routing draws inside [`Simulator::generate`].
    fn due(&mut self, sim: &mut Simulator, measuring: bool, report: &mut SimReport);
}

/// The injection calendar of a synthetic run: each node carries a
/// next-injection cycle drawn from geometric inter-arrival sampling
/// (with on/off burst phases), kept in a `(cycle, node)` min-heap.
/// Entries at or past the measurement end can never fire and are dropped
/// eagerly (arrivals are strictly increasing per node).
pub(crate) struct Calendar<'a> {
    sampler: &'a PatternSampler,
    process: InjectionProcess,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// The cycle arrival offsets count from.
    t0: u64,
    pkt_len: u32,
    windows: Windows,
    /// The nodes this simulator injects for (`None` = all of them; a
    /// shard replica passes its ownership mask).
    local: Option<&'a [bool]>,
}

impl<'a> Calendar<'a> {
    /// Seeds the calendar from `sim`'s RNG. Every node is scheduled,
    /// `local` mask or not: a shard replica makes and discards the draws
    /// for nodes it does not own, so every replica stays on the one
    /// global RNG stream.
    pub(crate) fn new(
        sim: &mut Simulator,
        sampler: &'a PatternSampler,
        rate: f64,
        burst: BurstModel,
        warmup: u64,
        measure: u64,
        local: Option<&'a [bool]>,
    ) -> Self {
        let pkt_len = sim.cfg.packet_flits;
        let end = warmup + measure;
        let mut calendar = Calendar {
            sampler,
            process: InjectionProcess::new(sim.node_count, rate, pkt_len, burst),
            heap: BinaryHeap::with_capacity(sim.node_count),
            t0: sim.now,
            pkt_len: pkt_len as u32,
            windows: Windows {
                warmup,
                measure_end: end,
                drain_cap: end + measure.max(2_000),
                measured: measure,
            },
            local,
        };
        for node in 0..sim.node_count {
            calendar.arm(node, &mut sim.rng);
        }
        calendar
    }

    fn is_local(&self, node: usize) -> bool {
        self.local.is_none_or(|mask| mask[node])
    }

    /// Draws `node`'s next arrival and schedules it.
    fn arm(&mut self, node: usize, rng: &mut ChaCha8Rng) {
        if let Some(c) = self.process.next_arrival(node, rng) {
            let cycle = self.t0.saturating_add(c);
            if cycle < self.windows.measure_end {
                self.heap.push(Reverse((cycle, node)));
            }
        }
    }
}

impl Source for Calendar<'_> {
    fn windows(&self) -> Windows {
        self.windows
    }

    fn pending(&self, now: u64) -> bool {
        now < self.windows.measure_end
    }

    fn due(&mut self, sim: &mut Simulator, measuring: bool, report: &mut SimReport) {
        while let Some(&Reverse((cycle, src))) = self.heap.peek() {
            if cycle > sim.now {
                break;
            }
            self.heap.pop();
            sim.work.calendar_pops += 1;
            if let Some(dst) = self.sampler.sample(NodeId(src), &mut sim.rng) {
                if self.is_local(src) {
                    sim.generate(NodeId(src), dst, self.pkt_len, false, measuring, report);
                }
            }
            self.arm(src, &mut sim.rng);
        }
    }
}

/// A cursor over a cycle-sorted trace (§5.1's PARSEC/SPLASH protocol).
pub(crate) struct TraceCursor<'a> {
    trace: &'a [TraceMessage],
    next: usize,
    windows: Windows,
}

impl<'a> TraceCursor<'a> {
    /// Packets created at or after `warmup` are measured, through the
    /// drain phase.
    pub(crate) fn new(trace: &'a [TraceMessage], warmup: u64) -> Self {
        let end = trace.last().map_or(0, |m| m.cycle + 1);
        TraceCursor {
            trace,
            next: 0,
            windows: Windows {
                warmup,
                measure_end: u64::MAX,
                drain_cap: end + 50_000,
                measured: end.saturating_sub(warmup).max(1),
            },
        }
    }
}

impl Source for TraceCursor<'_> {
    fn windows(&self) -> Windows {
        self.windows
    }

    fn pending(&self, _now: u64) -> bool {
        self.next < self.trace.len()
    }

    fn due(&mut self, sim: &mut Simulator, measuring: bool, report: &mut SimReport) {
        while let Some(&m) = self.trace.get(self.next) {
            if m.cycle > sim.now {
                break;
            }
            self.next += 1;
            sim.generate(
                m.src,
                m.dst,
                m.kind.flits() as u32,
                m.kind.expects_reply(),
                measuring,
                report,
            );
        }
    }
}
