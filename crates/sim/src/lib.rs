//! Cycle-accurate flit-level NoC simulator.
//!
//! This crate is the reproduction's stand-in for the paper's in-house
//! Manifold-based simulator (§5.1) and for Booksim (§6). It models:
//!
//! - **wormhole switching** with virtual channels and credit-based flow
//!   control;
//! - **edge-buffer routers**: standard 2-stage pipeline (allocation, then
//!   switch traversal), per-VC input buffers;
//! - **central-buffer routers (CBR)**: 1-flit input staging per VC, a
//!   shared central buffer with atomic per-packet allocation, a 2-cycle
//!   bypass path at low load and a 4-cycle buffered path under conflicts
//!   (§4.1, §4.3);
//! - **elastic links / ElastiStore**: per-stage pipeline latches with a
//!   per-VC slave latch and a shared master latch (at most one flit
//!   advances per stage per cycle across VCs, §4.2);
//! - **SMART links**: `H` grid hops per link cycle (§3.2.2);
//! - **routing**: deterministic minimal routing with hop-indexed VCs
//!   (VC0 on hop 1, VC1 on hop 2 — the paper's §4.3 scheme; its
//!   deadlock-freedom is conditional on `|VC|` covering the hop count,
//!   and [`verify_deadlock_free`] states the exact per-table-kind
//!   contract), dimension-order routing with
//!   dateline VCs for tori, up*/down* repair tables under faults, and
//!   the adaptive schemes of §6 (UGAL-L, UGAL-G, XY-adaptive);
//! - **deadlock analysis**: a channel-dependency-graph cycle checker
//!   ([`verify_deadlock_free`]) run at every degraded-table swap in
//!   debug builds, and a no-progress watchdog that turns a wedged run
//!   into a structured [`DeadlockDiagnostic`] instead of a hang.
//!
//! # Example
//!
//! ```
//! use snoc_topology::Topology;
//! use snoc_sim::{SimConfig, Simulator};
//! use snoc_traffic::TrafficPattern;
//!
//! let topo = Topology::slim_noc(3, 3)?; // 54-node Slim NoC
//! let cfg = SimConfig::default();
//! let mut sim = Simulator::build(&topo, &cfg)?;
//! let report = sim.run_synthetic(TrafficPattern::Random, 0.05, 2_000, 6_000);
//! assert!(report.delivered_packets > 0);
//! assert!(report.avg_packet_latency() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod deadlock;
mod fault;
mod flit;
mod link;
mod network;
mod router;
mod routing;
mod stats;

pub use config::{BufferSizing, LinkMode, RouterArch, RoutingKind, SimConfig, SimError};
pub use deadlock::{
    default_watchdog_bound, verify_deadlock_free, verify_route_deadlock_free, DeadlockDiagnostic,
    StuckPacket, WaitForEdge,
};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use flit::{Flit, FlitArena, FlitKind, FlitRef, PacketId};
pub use network::Simulator;
pub use routing::{RouteDecision, RoutingTable};
pub use stats::{
    saturation_heuristic, ActivityCounters, Conformance, Footprint, SimReport, Snapshot,
    WorkCounters,
};

/// Runs the monolithic engine; deleted with `benchmark/`'s shard probes
/// (ROADMAP 1(a)).
#[doc(hidden)]
pub struct ShardedSimulator(Simulator);

impl ShardedSimulator {
    /// [`Simulator::build_with_layout`]; `_shards` is ignored.
    pub fn build_with_layout(
        topo: &snoc_topology::Topology,
        layout: &snoc_layout::Layout,
        cfg: &SimConfig,
        _shards: usize,
    ) -> Result<Self, SimError> {
        Simulator::build_with_layout(topo, layout, cfg).map(Self)
    }

    /// [`Simulator::run_synthetic`].
    pub fn run_synthetic(
        &mut self,
        pattern: snoc_traffic::TrafficPattern,
        rate: f64,
        warmup: u64,
        measure: u64,
    ) -> SimReport {
        self.0.run_synthetic(pattern, rate, warmup, measure)
    }
}
