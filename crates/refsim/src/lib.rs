//! Golden reference simulator for differential verification.
//!
//! The optimized simulator's hot path (worklists, geometric injection
//! sampling, the flit arena, mask-driven packed routers) is aggressive
//! about not doing work, and the simulator agreeing with *itself* is
//! too weak an anchor for it. This crate is the independent oracle: a
//! deliberately simple, allocation-happy, cycle-by-cycle wormhole
//! simulator in the style of an executable specification — by-value
//! flits, per-cycle Bernoulli injection, no worklists, no arena —
//! sharing only `snoc_topology`, `snoc_traffic` definitions and
//! the written routing/microarchitecture *spec* with `snoc_sim`, never
//! its optimized data structures.
//!
//! Both engines are compared through `snoc_sim`'s engine-independent
//! [`snoc_sim::Snapshot`] conformance interface:
//!
//! - **statistical mode** (synthetic traffic): each engine draws its own
//!   randomness, and the differential harness
//!   (`crates/refsim/tests/differential.rs`, `snoc repro verify`) checks
//!   conservation laws per engine plus cross-engine agreement of
//!   injected/delivered counts, hop totals and mean latency within
//!   sampling tolerances;
//! - **exact mode** (workload-driven, minimal routing): neither engine
//!   consumes randomness, so the snapshots must be **equal** — every
//!   counter, the activity figures, the full latency histogram and the
//!   final clock.
//!
//! # Example
//!
//! One statistical case through the shared runner ([`check`]):
//!
//! ```
//! use snoc_refsim::check::{self, Case, Traffic};
//! use snoc_sim::SimConfig;
//! use snoc_topology::Topology;
//! use snoc_traffic::TrafficPattern;
//!
//! let topo = Topology::slim_noc(3, 3)?;
//! let traffic = Traffic::uniform(TrafficPattern::Random, 0.05, 500, 2_000);
//! let run = check::run(&Case::new(topo, SimConfig::default(), traffic))?;
//! assert!(run.reference.delivered_packets > 0);
//! check::statistical(&run)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
mod engine;
mod routing;

pub use engine::{RefConfig, RefSimulator};
pub use routing::RefRouting;

#[cfg(test)]
mod tests {
    use super::*;
    use snoc_topology::Topology;
    use snoc_traffic::{BurstModel, TrafficPattern};

    #[test]
    fn low_load_drains_with_small_latency() {
        let topo = Topology::slim_noc(3, 3).unwrap();
        let mut sim = RefSimulator::build(&topo, &RefConfig::default()).unwrap();
        let snap = sim.run_synthetic_bursty(
            TrafficPattern::Random,
            0.03,
            BurstModel::uniform(),
            500,
            3_000,
        );
        assert!(snap.delivered_packets > 100, "{snap:?}");
        assert!(snap.drained);
        assert_eq!(sim.in_flight_flits(), 0);
        let lat = snap.mean_latency();
        assert!(lat > 5.0 && lat < 30.0, "latency {lat}");
        assert!(snap.mean_hops() <= 2.0 + 1e-9, "diameter-2 network");
        snap.check_conservation().unwrap();
    }

    #[test]
    fn determinism_same_seed_same_snapshot() {
        let topo = Topology::mesh(4, 3, 2);
        let run = |seed: u64| {
            let cfg = RefConfig::default().with_seed(seed);
            let mut sim = RefSimulator::build(&topo, &cfg).unwrap();
            sim.run_synthetic_bursty(
                TrafficPattern::Random,
                0.05,
                BurstModel::uniform(),
                300,
                1_500,
            )
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let topo = Topology::mesh(3, 3, 1);
        for bad in [
            RefConfig {
                vcs: 0,
                ..RefConfig::default()
            },
            RefConfig {
                buffer_flits: 0,
                ..RefConfig::default()
            },
            RefConfig {
                injection_queue_flits: 2,
                ..RefConfig::default()
            },
            RefConfig::default().with_routing(snoc_sim::RoutingKind::XyAdaptive),
        ] {
            assert!(RefSimulator::build(&topo, &bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn config_extraction_covers_only_the_modeled_subset() {
        use snoc_sim::SimConfig;
        let cfg = RefConfig::try_from_sim(&SimConfig::default()).expect("default is edge/credited");
        assert_eq!(cfg.vcs, 2);
        assert_eq!(cfg.buffer_flits, 5);
        assert!(RefConfig::try_from_sim(&SimConfig::cbr(20)).is_none());
        assert!(RefConfig::try_from_sim(&SimConfig::elastic_links()).is_none());
        assert!(RefConfig::try_from_sim(&SimConfig::default().with_smart()).is_none());
        assert!(RefConfig::try_from_sim(&SimConfig::eb_var()).is_none());
    }
}
