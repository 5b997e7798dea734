//! # Slim NoC — facade crate
//!
//! A complete reproduction of *"Slim NoC: A Low-Diameter On-Chip Network
//! Topology for High Energy Efficiency and Scalability"* (ASPLOS 2018).
//!
//! This crate re-exports the whole workspace behind one roof:
//!
//! - [`field`] — finite fields `GF(p^n)` and MMS generator sets,
//! - [`topology`] — Slim NoC and all baseline topologies (mesh, torus,
//!   concentrated mesh, Flattened Butterfly, partitioned FBF, Dragonfly),
//! - [`layout`] — on-chip placement, wire, buffer and cost models,
//! - [`traffic`] — synthetic traffic patterns and trace workloads,
//! - [`sim`] — the cycle-accurate flit-level network simulator,
//! - [`refsim`] — the golden reference simulator used to differentially
//!   verify [`sim`] (executable specification),
//! - [`power`] — the DSENT-style area/power/energy model,
//! - [`core`] — experiment configurations, runners and reporting.
//!
//! # Quickstart
//!
//! ```
//! use slim_noc::prelude::*;
//!
//! // Build the paper's SN-S network: q = 5, 50 routers, 200 nodes.
//! let topo = Topology::slim_noc(5, 4)?;
//! assert_eq!(topo.router_count(), 50);
//! assert_eq!(topo.node_count(), 200);
//! assert_eq!(topo.diameter(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # The `core` re-export
//!
//! [`core`] deliberately shadows the name of the built-in `core` crate.
//! This is safe: downstream users always reach it through the qualified
//! path `slim_noc::core::…`, which cannot collide with the extern
//! prelude, and this facade itself never writes a bare `core::…` path
//! (which, in edition 2018+, would be an E0659 ambiguity between the
//! built-in crate and the crate-root re-export). The doctest pins the
//! resolution:
//!
//! ```
//! use slim_noc::core::Setup;
//!
//! let setup = Setup::paper("sn54")?;
//! assert!(setup.topology.router_count() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub use snoc_core as core;
pub use snoc_field as field;
pub use snoc_layout as layout;
pub use snoc_power as power;
pub use snoc_refsim as refsim;
pub use snoc_sim as sim;
pub use snoc_topology as topology;
pub use snoc_traffic as traffic;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use snoc_core::prelude::*;
    pub use snoc_field::{Gf, SlimFlyParams};
    pub use snoc_layout::{Layout, LayoutKind};
    pub use snoc_power::{PowerReport, TechNode};
    pub use snoc_sim::{SimConfig, SimReport, Simulator};
    pub use snoc_topology::{Topology, TopologyKind};
    pub use snoc_traffic::{TraceWorkload, TrafficPattern};
}
