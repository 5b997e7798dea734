//! Serializable fault recipes for degraded-mode campaigns.
//!
//! A [`FaultsSpec`] is the value-type twin of a live
//! [`snoc_sim::FaultPlan`]: explicit events, a seeded link storm, or
//! both, as plain data with a canonical one-line JSON form. It rides
//! inside a setup recipe (`SetupSpec.faults`), so it is part of the
//! `slim_noc-spec-v1` wire format *and* of the content-addressed cache
//! key — two campaign points that differ only in their fault recipe
//! never alias in the cache. Resolution against a concrete topology
//! happens at simulator-build time ([`FaultsSpec::resolve`]).

use crate::json::{Floats, JsonValue, Layout::Inline, Writer};
use snoc_sim::{FaultEvent, FaultKind, FaultPlan};
use snoc_topology::{RouterId, Topology};

/// A seeded "fault storm" recipe: `links` distinct links fail, chosen
/// by [`FaultPlan::storm`]'s seeded shuffle, spread evenly over
/// `[start, start + window)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormSpec {
    /// Number of distinct links to fail (clamped to the link count).
    pub links: usize,
    /// Cycle of the first failure.
    pub start: u64,
    /// Failures spread over `[start, start + window)`.
    pub window: u64,
    /// Seed of the link shuffle.
    pub seed: u64,
}

/// The serializable fault recipe of one setup: explicit events and/or
/// a seeded storm. See the module docs for where it travels.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultsSpec {
    /// Explicit fault events (applied alongside any storm).
    pub events: Vec<FaultEvent>,
    /// Seeded link storm over the setup's topology.
    pub storm: Option<StormSpec>,
}

impl FaultsSpec {
    /// `true` when the recipe schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.storm.is_none()
    }

    /// Resolves the recipe against a concrete topology: the storm's
    /// links are drawn from `topo`, merged with the explicit events
    /// into one normalized, cycle-sorted plan.
    #[must_use]
    pub fn resolve(&self, topo: &Topology) -> FaultPlan {
        let mut events = self.events.clone();
        if let Some(s) = self.storm {
            let storm = FaultPlan::storm(topo, s.links, s.start, s.window, s.seed);
            events.extend_from_slice(storm.events());
        }
        FaultPlan::new(events)
    }

    /// The recipe as a compact one-line JSON object — the wire form
    /// inside a setup recipe and part of the canonical string hashed
    /// into cache keys. Field order is fixed; `storm` is omitted when
    /// `None` and `events` when empty.
    #[must_use]
    pub fn canonical_json(&self) -> String {
        let mut w = Writer::new(Floats::Shortest);
        w.object(Inline);
        if let Some(s) = self.storm {
            w.key("storm")
                .object(Inline)
                .field("links", s.links)
                .field("start", s.start)
                .field("window", s.window)
                .field("seed", s.seed)
                .end();
        }
        if !self.events.is_empty() {
            w.key("events").list(Inline);
            for e in &self.events {
                w.object(Inline).field("at", e.cycle);
                let (kind, a, b) = match e.kind {
                    FaultKind::LinkDown { a, b } => ("link_down", a, Some(b)),
                    FaultKind::LinkUp { a, b } => ("link_up", a, Some(b)),
                    FaultKind::RouterDown { router } => ("router_down", router, None),
                };
                w.field("kind", kind);
                match b {
                    Some(b) => w.field("a", a.index()).field("b", b.index()),
                    None => w.field("router", a.index()),
                }
                .end();
            }
        }
        w.finish()
    }

    /// Parses the `faults` object of a setup recipe.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or ill-typed field,
    /// or of a recipe that schedules nothing at all.
    pub fn from_json_value(v: &JsonValue) -> Result<Self, String> {
        let storm = match v.field("storm", "an object", Some)? {
            None => None,
            Some(s) => {
                let cycles = |key| {
                    s.field(key, "a u64", JsonValue::as_u64)?
                        .ok_or_else(|| format!("storm missing `{key}`"))
                };
                Some(StormSpec {
                    links: s
                        .field("links", "a usize", JsonValue::as_usize)?
                        .ok_or("storm missing `links`")?,
                    start: cycles("start")?,
                    window: cycles("window")?,
                    seed: cycles("seed")?,
                })
            }
        };
        let events = v
            .field("events", "an array", JsonValue::as_arr)?
            .unwrap_or_default()
            .iter()
            .map(parse_event)
            .collect::<Result<Vec<_>, _>>()?;
        let spec = FaultsSpec { events, storm };
        if spec.is_empty() {
            return Err("recipe schedules nothing (need `storm` and/or `events`)".into());
        }
        Ok(spec)
    }
}

fn parse_event(v: &JsonValue) -> Result<FaultEvent, String> {
    let cycle = v
        .field("at", "a u64", JsonValue::as_u64)?
        .ok_or("event missing `at`")?;
    let kind = v
        .field("kind", "a string", JsonValue::as_str)?
        .ok_or("event missing `kind`")?;
    let router = |key| {
        v.field(key, "a router index", JsonValue::as_usize)?
            .map(RouterId)
            .ok_or_else(|| format!("event `{kind}` missing `{key}`"))
    };
    let kind = match kind {
        "link_down" => FaultKind::LinkDown {
            a: router("a")?,
            b: router("b")?,
        },
        "link_up" => FaultKind::LinkUp {
            a: router("a")?,
            b: router("b")?,
        },
        "router_down" => FaultKind::RouterDown {
            router: router("router")?,
        },
        other => {
            return Err(format!(
                "unknown event kind `{other}` (link_down|link_up|router_down)"
            ))
        }
    };
    Ok(FaultEvent { cycle, kind })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn full() -> FaultsSpec {
        FaultsSpec {
            events: vec![
                FaultEvent {
                    cycle: 100,
                    kind: FaultKind::LinkDown {
                        a: RouterId(5),
                        b: RouterId(0),
                    },
                },
                FaultEvent {
                    cycle: 900,
                    kind: FaultKind::LinkUp {
                        a: RouterId(0),
                        b: RouterId(5),
                    },
                },
                FaultEvent {
                    cycle: 1_200,
                    kind: FaultKind::RouterDown {
                        router: RouterId(3),
                    },
                },
            ],
            storm: Some(StormSpec {
                links: 4,
                start: 600,
                window: 800,
                seed: 7,
            }),
        }
    }

    #[test]
    fn canonical_json_round_trips() {
        let spec = full();
        let text = spec.canonical_json();
        let parsed = FaultsSpec::from_json_value(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.canonical_json(), text, "byte round trip");
    }

    #[test]
    fn storm_only_and_events_only_forms() {
        let storm_only = FaultsSpec {
            events: Vec::new(),
            ..full()
        };
        let text = storm_only.canonical_json();
        assert!(!text.contains("events"));
        let parsed = FaultsSpec::from_json_value(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, storm_only);
        let events_only = FaultsSpec {
            storm: None,
            ..full()
        };
        let text = events_only.canonical_json();
        assert!(!text.contains("storm"));
        let parsed = FaultsSpec::from_json_value(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, events_only);
    }

    #[test]
    fn empty_recipes_are_rejected() {
        let v = json::parse("{}").unwrap();
        assert!(FaultsSpec::from_json_value(&v).is_err());
        let v = json::parse(r#"{"events": []}"#).unwrap();
        assert!(FaultsSpec::from_json_value(&v).is_err());
        let v = json::parse(r#"{"events": [{"at": 1, "kind": "warp", "a": 0, "b": 1}]}"#).unwrap();
        assert!(FaultsSpec::from_json_value(&v).is_err(), "unknown kind");
    }

    #[test]
    fn resolve_merges_storm_and_events() {
        let topo = snoc_topology::Topology::slim_noc(3, 3).unwrap();
        let (a, b) = topo.links().next().unwrap();
        let spec = FaultsSpec {
            events: vec![
                FaultEvent {
                    cycle: 100,
                    kind: FaultKind::LinkDown { a, b },
                },
                FaultEvent {
                    cycle: 900,
                    kind: FaultKind::LinkUp { a, b },
                },
                FaultEvent {
                    cycle: 1_200,
                    kind: FaultKind::RouterDown {
                        router: RouterId(3),
                    },
                },
            ],
            ..full()
        };
        let plan = spec.resolve(&topo);
        // 3 explicit events + 4 storm links, sorted by cycle.
        assert_eq!(plan.events().len(), 7);
        assert!(plan.events().windows(2).all(|w| w[0].cycle <= w[1].cycle));
        plan.validate(&topo).expect("all hardware exists");
        // Deterministic: same recipe, same plan.
        assert_eq!(plan.events(), spec.resolve(&topo).events());
    }
}
