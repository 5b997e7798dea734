//! Deterministic live fault injection (§2.1's resilience claim, made
//! dynamic).
//!
//! A [`FaultPlan`] is a seeded, pre-computed schedule of topology
//! faults — links dying, links recovering, routers dying — that the
//! simulator applies *mid-run*: in-flight flits on dead hardware are
//! dropped and counted, routing self-heals by rebuilding its table on
//! the surviving graph, and traffic between severed pairs quiesces.
//! Everything is a pure function of the plan and the simulation seed,
//! so a faulted run is exactly as reproducible as a fault-free one.
//!
//! The plan itself is engine-agnostic: the optimized simulator and the
//! reference simulator consume the same schedule, which is what lets
//! the differential harness validate degraded-mode behavior.

use crate::config::{LinkMode, RouterArch, RoutingKind, SimConfig, SimError};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use snoc_topology::{RouterId, Topology};

/// One kind of topology fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The undirected link between two adjacent routers fails: both
    /// directed channels die and flits on them are dropped.
    LinkDown {
        /// One endpoint (stored with `a < b`).
        a: RouterId,
        /// The other endpoint.
        b: RouterId,
    },
    /// A previously failed link recovers with empty wires and full
    /// credits.
    LinkUp {
        /// One endpoint (stored with `a < b`).
        a: RouterId,
        /// The other endpoint.
        b: RouterId,
    },
    /// A router fails permanently: every flit inside it is dropped and
    /// all of its links go down with it.
    RouterDown {
        /// The failing router.
        router: RouterId,
    },
}

impl FaultKind {
    /// Normalizes link endpoints to `a < b` so the same physical fault
    /// always has one representation.
    #[must_use]
    fn normalized(self) -> FaultKind {
        match self {
            FaultKind::LinkDown { a, b } if b < a => FaultKind::LinkDown { a: b, b: a },
            FaultKind::LinkUp { a, b } if b < a => FaultKind::LinkUp { a: b, b: a },
            other => other,
        }
    }
}

/// A fault scheduled at a specific simulation cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle at the start of which the fault takes effect.
    pub cycle: u64,
    /// What fails (or recovers).
    pub kind: FaultKind,
}

/// A deterministic schedule of faults, sorted by cycle.
///
/// Events at the same cycle apply in the order given (the sort is
/// stable), so a plan is a total order and two engines replaying it
/// reach identical degraded topologies at every cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Builds a plan from an arbitrary event list; events are sorted by
    /// cycle (stable, so same-cycle order is preserved) and link
    /// endpoints are normalized to `a < b`.
    #[must_use]
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        for e in &mut events {
            e.kind = e.kind.normalized();
        }
        events.sort_by_key(|e| e.cycle);
        FaultPlan { events }
    }

    /// A seeded "fault storm": `count` distinct links of `topo` fail,
    /// chosen by shuffling the link list with ChaCha8 (the same idiom
    /// as `snoc_topology`'s static resilience analysis), with failure
    /// cycles spread evenly over `[start, start + window)` — fault `i`
    /// lands at `start + i·window/count`.
    ///
    /// `count` is clamped to the number of links.
    #[must_use]
    pub fn storm(topo: &Topology, count: usize, start: u64, window: u64, seed: u64) -> Self {
        let mut links: Vec<(RouterId, RouterId)> = topo.links().collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        links.shuffle(&mut rng);
        let count = count.min(links.len());
        let events = links[..count]
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| FaultEvent {
                cycle: start + (i as u64 * window) / count.max(1) as u64,
                kind: FaultKind::LinkDown { a, b }.normalized(),
            })
            .collect();
        FaultPlan::new(events)
    }

    /// The scheduled events in application order.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// `true` if the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks the plan against a topology: link events must name
    /// adjacent routers and router events must be in range. Returns a
    /// human-readable reason for the first violation.
    ///
    /// # Errors
    ///
    /// Returns `Err(reason)` when an event references hardware the
    /// topology does not have.
    pub fn validate(&self, topo: &Topology) -> Result<(), String> {
        let nr = topo.router_count();
        for e in &self.events {
            match e.kind {
                FaultKind::LinkDown { a, b } | FaultKind::LinkUp { a, b } => {
                    if a.index() >= nr || b.index() >= nr || !topo.connected(a, b) {
                        return Err(format!(
                            "fault at cycle {}: no link {} -- {}",
                            e.cycle,
                            a.index(),
                            b.index()
                        ));
                    }
                }
                FaultKind::RouterDown { router } => {
                    if router.index() >= nr {
                        return Err(format!(
                            "fault at cycle {}: router {} out of range (nr = {nr})",
                            e.cycle,
                            router.index()
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Everything [`Simulator::set_fault_plan`](crate::Simulator::set_fault_plan)
    /// requires of a plan, checkable before a simulator exists: the
    /// plan names only hardware `topo` has ([`FaultPlan::validate`]),
    /// and a non-empty plan runs on the edge-buffer + credited-link +
    /// minimal-routing envelope.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming the first violation.
    pub fn check_against(&self, topo: &Topology, cfg: &SimConfig) -> Result<(), SimError> {
        self.validate(topo)
            .map_err(|reason| SimError::InvalidConfig { reason })?;
        if self.is_empty() {
            return Ok(());
        }
        let unsupported = |what: &str| {
            Err(SimError::InvalidConfig {
                reason: format!("fault injection requires {what}"),
            })
        };
        if !matches!(cfg.router_arch, RouterArch::EdgeBuffer) {
            return unsupported("edge-buffer routers");
        }
        if cfg.link_mode != LinkMode::Credited {
            return unsupported("credited links");
        }
        if cfg.routing != RoutingKind::Minimal {
            return unsupported("minimal routing");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sorts_by_cycle_and_normalizes_endpoints() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                cycle: 50,
                kind: FaultKind::LinkDown {
                    a: RouterId(3),
                    b: RouterId(1),
                },
            },
            FaultEvent {
                cycle: 10,
                kind: FaultKind::RouterDown {
                    router: RouterId(0),
                },
            },
        ]);
        assert_eq!(plan.events()[0].cycle, 10);
        assert_eq!(
            plan.events()[1].kind,
            FaultKind::LinkDown {
                a: RouterId(1),
                b: RouterId(3)
            }
        );
    }

    #[test]
    fn storm_is_deterministic_and_distinct() {
        let t = Topology::mesh(4, 4, 1);
        let a = FaultPlan::storm(&t, 6, 100, 300, 7);
        let b = FaultPlan::storm(&t, 6, 100, 300, 7);
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 6);
        let mut links: Vec<_> = a
            .events()
            .iter()
            .map(|e| match e.kind {
                FaultKind::LinkDown { a, b } => (a, b),
                other => panic!("storms only fail links, got {other:?}"),
            })
            .collect();
        links.sort_unstable();
        links.dedup();
        assert_eq!(links.len(), 6, "distinct links");
        for e in a.events() {
            assert!((100..400).contains(&e.cycle));
        }
        assert!(a.validate(&t).is_ok());
        assert_ne!(a, FaultPlan::storm(&t, 6, 100, 300, 8), "seed matters");
    }

    #[test]
    fn storm_clamps_to_link_count() {
        let t = Topology::mesh(2, 2, 1); // 4 links
        let plan = FaultPlan::storm(&t, 100, 0, 10, 1);
        assert_eq!(plan.events().len(), 4);
    }

    #[test]
    fn validate_rejects_phantom_hardware() {
        let t = Topology::mesh(2, 2, 1);
        let bad_link = FaultPlan::new(vec![FaultEvent {
            cycle: 0,
            kind: FaultKind::LinkDown {
                a: RouterId(0),
                b: RouterId(3), // diagonal: not adjacent in a mesh
            },
        }]);
        assert!(bad_link.validate(&t).is_err());
        let bad_router = FaultPlan::new(vec![FaultEvent {
            cycle: 0,
            kind: FaultKind::RouterDown {
                router: RouterId(9),
            },
        }]);
        assert!(bad_router.validate(&t).is_err());
    }
}
