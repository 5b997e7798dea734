//! Simulator configuration (§5.1's microarchitectural parameters).

use snoc_layout::LayoutError;
use snoc_topology::{Topology, TopologyError, TopologyKind};
use std::error::Error;
use std::fmt;

/// Router microarchitecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterArch {
    /// Input-queued router with per-VC edge buffers and a standard
    /// 2-stage pipeline (§5.1's "edge router").
    EdgeBuffer,
    /// Central Buffer Router (§4): 1-flit staging per VC, a shared
    /// central buffer of the given capacity in flits, 2-cycle bypass and
    /// 4-cycle buffered paths.
    CentralBuffer {
        /// Central buffer capacity in flits (the paper evaluates 6, 10,
        /// 20, 40, 70, 100).
        cb_flits: usize,
    },
}

/// How the per-VC input (edge) buffers are sized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferSizing {
    /// All edge buffers have the same capacity (EB-Small = 5,
    /// EB-Large = 15 in the paper).
    Fixed(usize),
    /// Each link's downstream buffer is sized to its round-trip time
    /// (EB-Var-S / EB-Var-N): `δ_ij = T_ij · |VC|` flits split evenly
    /// across VCs. Requires a layout to measure wire lengths.
    VariableRtt,
}

/// Link flow-control mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkMode {
    /// Credit-based flow control over pipelined wires: up to one flit per
    /// cycle in flight per link, downstream buffering per
    /// [`BufferSizing`].
    Credited,
    /// Elastic links with ElastiStore (EL-Links, §4.2): the wire pipeline
    /// itself buffers flits — one slave latch per VC per stage plus a
    /// shared master latch (at most one flit advances per stage per
    /// cycle).
    Elastic,
}

/// Routing algorithm selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingKind {
    /// Deterministic minimal routing (Dijkstra/BFS paths, §5.1) with
    /// hop-indexed VCs; dimension-order with dateline VCs on meshes and
    /// tori.
    Minimal,
    /// UGAL with local queue information (§6): choose minimal vs. Valiant
    /// at the source using local output-queue occupancy.
    UgalL,
    /// UGAL with global queue information (§6).
    UgalG,
    /// The XY-adaptive scheme the paper gives FBF (§6): pick the less
    /// loaded of the two minimal dimension orders.
    XyAdaptive,
}

impl RoutingKind {
    /// The stable name used by the `snoc` CLI and the campaign-spec
    /// wire format.
    #[must_use]
    pub fn spec_name(self) -> &'static str {
        match self {
            RoutingKind::Minimal => "min",
            RoutingKind::UgalL => "ugal-l",
            RoutingKind::UgalG => "ugal-g",
            RoutingKind::XyAdaptive => "xy",
        }
    }

    /// The inverse of [`RoutingKind::spec_name`].
    #[must_use]
    pub fn from_spec_name(name: &str) -> Option<RoutingKind> {
        Some(match name {
            "min" => RoutingKind::Minimal,
            "ugal-l" => RoutingKind::UgalL,
            "ugal-g" => RoutingKind::UgalG,
            "xy" => RoutingKind::XyAdaptive,
            _ => return None,
        })
    }
}

/// Full simulator configuration.
///
/// Defaults follow §5.1: 2 VCs, edge routers with 5-flit input buffers,
/// 20-flit injection/ejection queues, 6-flit packets, credited links,
/// no SMART (`smart_hops = 1`). §5.1's 1-flit output buffer is the
/// router's ST register and is not configurable.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Virtual channels per link (`|VC|`).
    pub vcs: usize,
    /// Router microarchitecture.
    pub router_arch: RouterArch,
    /// Edge-buffer sizing policy.
    pub buffer_sizing: BufferSizing,
    /// Link mode (credited vs. elastic).
    pub link_mode: LinkMode,
    /// Grid hops traversed per link cycle (`H`; 1 = no SMART, 9 = SMART).
    pub smart_hops: usize,
    /// Injection queue capacity per node, in flits.
    pub injection_queue_flits: usize,
    /// Packet size in flits for synthetic traffic.
    pub packet_flits: usize,
    /// Routing algorithm.
    pub routing: RoutingKind,
    /// RNG seed (simulation is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            vcs: 2,
            router_arch: RouterArch::EdgeBuffer,
            buffer_sizing: BufferSizing::Fixed(5),
            link_mode: LinkMode::Credited,
            smart_hops: 1,
            injection_queue_flits: 20,
            packet_flits: 6,
            routing: RoutingKind::Minimal,
            seed: 0xC0FFEE,
        }
    }
}

impl SimConfig {
    /// The paper's EB-Small configuration (5-flit edge buffers).
    #[must_use]
    pub fn eb_small() -> Self {
        SimConfig::default()
    }

    /// The paper's EB-Large configuration (15-flit edge buffers).
    #[must_use]
    pub fn eb_large() -> Self {
        SimConfig {
            buffer_sizing: BufferSizing::Fixed(15),
            ..SimConfig::default()
        }
    }

    /// The paper's EB-Var configuration (RTT-sized edge buffers; pass a
    /// layout to [`crate::Simulator::build_with_layout`]).
    #[must_use]
    pub fn eb_var() -> Self {
        SimConfig {
            buffer_sizing: BufferSizing::VariableRtt,
            ..SimConfig::default()
        }
    }

    /// The paper's CBR-x configuration (central buffer of `cb_flits`,
    /// 1-flit staging, elastic links for full wire utilization, §4.4).
    #[must_use]
    pub fn cbr(cb_flits: usize) -> Self {
        SimConfig {
            router_arch: RouterArch::CentralBuffer { cb_flits },
            buffer_sizing: BufferSizing::Fixed(1),
            link_mode: LinkMode::Elastic,
            ..SimConfig::default()
        }
    }

    /// The paper's EL-Links configuration (elastic links only: minimal
    /// 1-flit staging, no large edge buffers).
    #[must_use]
    pub fn elastic_links() -> Self {
        SimConfig {
            buffer_sizing: BufferSizing::Fixed(1),
            link_mode: LinkMode::Elastic,
            ..SimConfig::default()
        }
    }

    /// Enables SMART links with the paper's `H = 9`.
    #[must_use]
    pub fn with_smart(mut self) -> Self {
        self.smart_hops = 9;
        self
    }

    /// Sets the number of virtual channels.
    #[must_use]
    pub fn with_vcs(mut self, vcs: usize) -> Self {
        self.vcs = vcs;
        self
    }

    /// Sets the routing algorithm.
    #[must_use]
    pub fn with_routing(mut self, routing: RoutingKind) -> Self {
        self.routing = routing;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when a parameter is out of
    /// range (zero VCs, zero packet length, `smart_hops == 0`, …).
    pub fn validate(&self) -> Result<(), SimError> {
        let fail = |what: &str| {
            Err(SimError::InvalidConfig {
                reason: what.to_string(),
            })
        };
        if self.vcs == 0 {
            return fail("vcs must be at least 1");
        }
        if self.packet_flits == 0 {
            return fail("packet_flits must be at least 1");
        }
        if self.smart_hops == 0 {
            return fail("smart_hops must be at least 1 (1 = no SMART)");
        }
        if let BufferSizing::Fixed(0) = self.buffer_sizing {
            return fail("input buffers need at least 1 flit");
        }
        if self.injection_queue_flits < self.packet_flits {
            return fail("injection queue must hold at least one packet");
        }
        if let RouterArch::CentralBuffer { cb_flits } = self.router_arch {
            if cb_flits < self.packet_flits {
                return fail("central buffer must hold at least one packet");
            }
        }
        Ok(())
    }

    /// [`SimConfig::validate`] plus what needs the network: the routing
    /// table stores a port in one byte, so the network radix must be at
    /// most 255; XY-adaptive routing adapts over a flattened
    /// butterfly's grid, so needs one.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] as [`SimConfig::validate`]
    /// does, for a network radix above 255, and for XY-adaptive routing
    /// off a flattened butterfly.
    pub fn validate_on(&self, topo: &Topology) -> Result<(), SimError> {
        self.validate()?;
        let radix = topo.network_radix();
        if radix > crate::routing::MAX_RADIX {
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "{} has network radix {radix}; routing tables hold at most {}",
                    topo.name(),
                    crate::routing::MAX_RADIX
                ),
            });
        }
        let fbf = matches!(topo.kind(), TopologyKind::FlattenedButterfly { .. });
        if self.routing == RoutingKind::XyAdaptive && !fbf {
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "XY-adaptive routing needs a flattened butterfly, not {}",
                    topo.name()
                ),
            });
        }
        Ok(())
    }
}

/// Errors produced by simulator construction and execution.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A configuration parameter is out of range.
    InvalidConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// Topology construction failed.
    Topology(TopologyError),
    /// Layout construction failed.
    Layout(LayoutError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            SimError::Topology(e) => write!(f, "topology error: {e}"),
            SimError::Layout(e) => write!(f, "layout error: {e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Topology(e) => Some(e),
            SimError::Layout(e) => Some(e),
            SimError::InvalidConfig { .. } => None,
        }
    }
}

impl From<TopologyError> for SimError {
    fn from(e: TopologyError) -> Self {
        SimError::Topology(e)
    }
}

impl From<LayoutError> for SimError {
    fn from(e: LayoutError) -> Self {
        SimError::Layout(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_radix_past_a_routing_byte_is_refused() {
        let cfg = SimConfig::default();
        assert!(cfg
            .validate_on(&Topology::flattened_butterfly(256, 1, 1))
            .is_ok());
        let err = cfg
            .validate_on(&Topology::flattened_butterfly(257, 1, 1))
            .unwrap_err();
        assert!(err.to_string().contains("network radix 256"), "{err}");
    }

    #[test]
    fn default_matches_paper_section_5_1() {
        let c = SimConfig::default();
        assert_eq!(c.vcs, 2);
        assert_eq!(c.buffer_sizing, BufferSizing::Fixed(5));
        assert_eq!(c.injection_queue_flits, 20);
        assert_eq!(c.packet_flits, 6);
        assert_eq!(c.smart_hops, 1);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn presets_validate() {
        for c in [
            SimConfig::eb_small(),
            SimConfig::eb_large(),
            SimConfig::eb_var(),
            SimConfig::cbr(20),
            SimConfig::cbr(40),
            SimConfig::elastic_links(),
            SimConfig::default().with_smart(),
        ] {
            assert!(c.validate().is_ok(), "{c:?}");
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(SimConfig {
            vcs: 0,
            ..SimConfig::default()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            packet_flits: 0,
            ..SimConfig::default()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            smart_hops: 0,
            ..SimConfig::default()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            injection_queue_flits: 2,
            ..SimConfig::default()
        }
        .validate()
        .is_err());
        assert!(SimConfig::cbr(2).validate().is_err());
    }

    #[test]
    fn smart_builder_sets_h9() {
        assert_eq!(SimConfig::default().with_smart().smart_hops, 9);
    }

    #[test]
    fn cbr_preset_uses_elastic_staging() {
        let c = SimConfig::cbr(20);
        assert_eq!(c.link_mode, LinkMode::Elastic);
        assert_eq!(c.buffer_sizing, BufferSizing::Fixed(1));
        assert!(matches!(
            c.router_arch,
            RouterArch::CentralBuffer { cb_flits: 20 }
        ));
    }
}
