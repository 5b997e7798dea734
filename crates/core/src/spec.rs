//! Serializable campaign specifications: the `slim_noc-spec-v1` wire
//! format.
//!
//! A [`CampaignSpec`] is the one description of a campaign (setups ×
//! patterns × workloads × loads × windows × seed × refinement × power ×
//! threads × cache), as plain data with a byte-stable JSON round trip:
//!
//! - [`CampaignSpec::to_json`] / [`CampaignSpec::from_json`] define the
//!   wire format (`slim_noc-spec-v1`, golden-pinned; serialize → parse
//!   → serialize is byte-identical);
//! - [`Campaign::from_spec`](crate::Campaign::from_spec) builds the
//!   runnable form;
//! - [`SetupSpec::canonical_json`] is the canonical per-setup string
//!   that feeds the content-addressed point cache
//!   (see [`crate::cache`]).
//!
//! Floats are serialized in Rust's shortest-round-trip `Display` form,
//! so a spec that travels through JSON reproduces the exact same
//! `f64` bits — and therefore the exact same derived point seeds and
//! cache keys — as the original.
//!
//! Setups are specified as *recipes*: a paper-configuration name plus
//! the modifiers (`layout`, `buffers`, `routing`, `smart`, `faults`)
//! that [`SetupSpec::build_on`] applies; a built setup carries its
//! recipe ([`Setup::to_spec`]).
//!
//! Beside `patterns`, the optional `workloads` (names from
//! [`snoc_traffic::benchmark_names`], emitted only when non-empty) adds
//! one point per setup per trace, at its own rate. Every point runs on
//! the monolithic engine: `shards` (emitted only when not 1) must be 1.

use crate::faults::FaultsSpec;
use crate::json::Layout::{Inline, Lines};
use crate::json::{self, Floats, JsonValue, Raw, Writer};
use crate::setup::{BufferPreset, Setup, SetupError};
use snoc_layout::{Layout, SnLayout};
use snoc_power::TechNode;
use snoc_sim::{RoutingKind, SimConfig};
use snoc_topology::TopologyKind;
use snoc_traffic::{TraceWorkload, TrafficPattern};
use std::error::Error;
use std::fmt;

/// Errors from spec parsing, conversion, or cache attachment.
#[derive(Debug)]
#[non_exhaustive]
pub enum SpecError {
    /// Malformed JSON, a missing/ill-typed field, or a field value no
    /// campaign runs (`shards` ≠ 1, a repeated pattern or workload,
    /// loads that do not strictly increase).
    Parse(String),
    /// A setup recipe failed to build or validate (unknown config
    /// name, undersized buffer, fault recipe outside the envelope, …).
    Setup(SetupError),
    /// Two setups share this name; curves are keyed by setup name.
    DuplicateSetup(String),
    /// The spec's cache directory could not be opened.
    Cache(std::io::Error),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse(msg) => write!(f, "spec parse: {msg}"),
            SpecError::Setup(e) => write!(f, "spec setup: {e}"),
            SpecError::DuplicateSetup(name) => write!(
                f,
                "spec setup: duplicate name `{name}` — curves are keyed by \
                 name, give each variant its own `name`"
            ),
            SpecError::Cache(e) => write!(f, "spec cache: {e}"),
        }
    }
}

impl Error for SpecError {}

impl From<SetupError> for SpecError {
    fn from(e: SetupError) -> Self {
        SpecError::Setup(e)
    }
}

/// The serializable recipe of one [`Setup`]: a paper-configuration
/// name plus the modifiers [`SetupSpec::build_on`] applies.
#[derive(Debug, Clone, PartialEq)]
pub struct SetupSpec {
    /// Paper-configuration name ([`Setup::paper`] vocabulary).
    pub config: String,
    /// Display name (defaults to `config`; figure specs override it to
    /// label variants, and it feeds the per-point seed derivation).
    pub name: String,
    /// Slim NoC layout override (`None` = natural layout; ignored for
    /// non-SN topologies, and dropped from their built setup's recipe).
    pub sn_layout: Option<SnLayout>,
    /// SMART links enabled (`H = 9` vs `H = 1`).
    pub smart: bool,
    /// Buffering preset.
    pub buffers: BufferPreset,
    /// Routing algorithm.
    pub routing: RoutingKind,
    /// Fault recipe for degraded-mode runs (`None` = fault-free;
    /// resolved against the setup's topology at simulator-build time,
    /// and part of the canonical string — and therefore the cache key —
    /// only when present, keeping fault-free specs byte-stable).
    pub faults: Option<FaultsSpec>,
}

impl SetupSpec {
    /// A recipe with the §5.1 defaults for the named configuration.
    #[must_use]
    pub fn new(config: impl Into<String>) -> Self {
        let config = config.into();
        SetupSpec {
            name: config.clone(),
            config,
            sn_layout: None,
            smart: false,
            buffers: BufferPreset::EbSmall,
            routing: RoutingKind::Minimal,
            faults: None,
        }
    }

    /// Builds the runnable [`Setup`]: [`SetupSpec::build_on`] the
    /// configuration's base setup, carrying this recipe normalised as
    /// it was applied (a layout off Slim NoC and empty faults dropped).
    ///
    /// # Errors
    ///
    /// Returns [`SetupError`] for unknown configuration names.
    pub fn build(&self) -> Result<Setup, SetupError> {
        let mut setup = self.build_on(Setup::paper(&self.config)?);
        let slim_noc = matches!(setup.topology.kind(), TopologyKind::SlimNoc { .. });
        setup.recipe = Some(SetupSpec {
            sn_layout: self.sn_layout.filter(|_| slim_noc),
            faults: setup.faults.clone(),
            ..self.clone()
        });
        Ok(setup)
    }

    /// The one place a modifier is applied: to `base`, in canonical
    /// order, the layout (Slim NoC only), the preset's three
    /// [`SimConfig`] fields, the routing (UGAL keeps ≥ 4 VCs for the
    /// doubled Valiant path), SMART (`H = 9`), the faults (empty is
    /// none) and the name. The result has no recipe: `base` is
    /// arbitrary, and `config` is not read.
    #[must_use]
    pub fn build_on(&self, mut base: Setup) -> Setup {
        let slim_noc = matches!(base.topology.kind(), TopologyKind::SlimNoc { .. });
        if let Some(layout) = self.sn_layout.filter(|_| slim_noc) {
            base.layout = Layout::slim_noc(&base.topology, layout)
                .expect("every SN layout fits an SN topology");
        }
        let preset = match self.buffers {
            BufferPreset::EbSmall => SimConfig::eb_small(),
            BufferPreset::EbLarge => SimConfig::eb_large(),
            BufferPreset::EbVar => SimConfig::eb_var(),
            BufferPreset::ElLinks => SimConfig::elastic_links(),
            BufferPreset::Cbr(x) => SimConfig::cbr(x),
        };
        let sim = &mut base.sim;
        sim.router_arch = preset.router_arch;
        sim.buffer_sizing = preset.buffer_sizing;
        sim.link_mode = preset.link_mode;
        sim.routing = self.routing;
        if matches!(self.routing, RoutingKind::UgalL | RoutingKind::UgalG) {
            sim.vcs = sim.vcs.max(4);
        }
        sim.smart_hops = if self.smart { 9 } else { 1 };
        base.faults = self.faults.clone().filter(|f| !f.is_empty());
        base.name.clone_from(&self.name);
        base.recipe = None;
        base
    }

    /// The recipe as a compact one-line JSON object — both the wire
    /// form inside [`CampaignSpec::to_json`] and the canonical string
    /// hashed into content-addressed cache keys. Field order is fixed;
    /// `layout` and `faults` are omitted when `None`, so fault-free
    /// recipes (and their cache keys) are byte-identical to pre-fault
    /// ones.
    #[must_use]
    pub fn canonical_json(&self) -> String {
        let mut w = Writer::new(Floats::Shortest);
        w.object(Inline)
            .field("config", &self.config)
            .field("name", &self.name);
        if let Some(layout) = self.sn_layout {
            w.field("layout", &layout.spec_name());
        }
        w.field("smart", self.smart)
            .field("buffers", &self.buffers.spec_name())
            .field("routing", self.routing.spec_name());
        if let Some(faults) = &self.faults {
            w.field("faults", Raw(faults.canonical_json()));
        }
        w.finish()
    }

    /// Parses one setup object of the wire format.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] on missing or ill-typed fields.
    pub fn from_json_value(v: &JsonValue) -> Result<Self, SpecError> {
        Self::parse(v).map_err(|e| SpecError::Parse(format!("setup: {e}")))
    }

    fn parse(v: &JsonValue) -> Result<Self, String> {
        let config = v
            .field("config", "a string", JsonValue::as_str)?
            .ok_or("missing `config`")?;
        Ok(SetupSpec {
            config: config.to_string(),
            name: v
                .field("name", "a string", JsonValue::as_str)?
                .unwrap_or(config)
                .to_string(),
            sn_layout: v.field("layout", "basic|subgr|gr|rand:<seed>", |raw| {
                SnLayout::from_spec_name(raw.as_str()?)
            })?,
            smart: v
                .field("smart", "a bool", JsonValue::as_bool)?
                .unwrap_or(false),
            buffers: v
                .field(
                    "buffers",
                    "eb-small|eb-large|eb-var|el-links|cbr<N>",
                    |raw| BufferPreset::from_spec_name(raw.as_str()?),
                )?
                .unwrap_or(BufferPreset::EbSmall),
            routing: v
                .field("routing", "min|ugal-l|ugal-g|xy", |raw| {
                    RoutingKind::from_spec_name(raw.as_str()?)
                })?
                .unwrap_or(RoutingKind::Minimal),
            faults: v
                .field("faults", "an object", Some)?
                .map(FaultsSpec::from_json_value)
                .transpose()
                .map_err(|e| format!("faults: {e}"))?,
        })
    }
}

/// A complete, serializable campaign description — the wire format,
/// the cache-key source, and the CLI input (`--spec file.json`): the
/// one description of a campaign, which
/// [`Campaign::from_spec`](crate::Campaign::from_spec) makes runnable.
/// See the module docs for the JSON schema.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name.
    pub name: String,
    /// Setup recipes.
    pub setups: Vec<SetupSpec>,
    /// Traffic patterns, each one curve per setup (no repeats).
    pub patterns: Vec<TrafficPattern>,
    /// Trace workloads (no repeats): one point per setup each, its name
    /// in the `pattern` column, at `load = offered_flit_rate()`. The
    /// trace is `warmup + measure` cycles long, generated from the
    /// point's seed and measured from `warmup` on. On the wire a list
    /// of names, present only when non-empty.
    pub workloads: Vec<TraceWorkload>,
    /// Injection-rate grid in flits/node/cycle, strictly increasing.
    pub loads: Vec<f64>,
    /// Warmup cycles per point.
    pub warmup: u64,
    /// Measured cycles per point.
    pub measure: u64,
    /// Base seed; per-point seeds are derived from it and the point's
    /// coordinates (never from execution order).
    pub base_seed: u64,
    /// Bisection rounds around the saturation knee (0 disables
    /// refinement).
    pub refine_rounds: usize,
    /// Stop each curve after its first saturated grid point (as the
    /// paper's figures do). Power campaigns comparing networks *at
    /// matched load* turn it off so every setup sweeps the full grid.
    pub stop_at_saturation: bool,
    /// Worker threads (0 = one per core). Execution detail — not part
    /// of any cache key.
    pub threads: usize,
    /// Simulation-engine shards per point. Always 1 in a runnable
    /// spec: campaign points run on the monolithic engine, and
    /// [`Campaign::from_spec`](crate::Campaign::from_spec) refuses any
    /// other value.
    pub shards: usize,
    /// Power-aware mode: evaluate the power/area model at this
    /// technology node for every point, fed the activity factors the
    /// simulation *measured*. Points then carry power columns and the
    /// sweep JSON is the `slim_noc-sweep-v2` schema (a superset of v1).
    pub power_tech: Option<TechNode>,
    /// Content-addressed point cache directory. Execution detail — not
    /// part of any cache key.
    pub cache_dir: Option<String>,
}

impl CampaignSpec {
    /// An empty spec with the defaults: the paper's windows (2 000
    /// warmup / 10 000 measured cycles), base seed `0xC0FFEE`, no
    /// refinement, curves stopped at saturation, one thread per core.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        CampaignSpec {
            name: name.into(),
            setups: Vec::new(),
            patterns: Vec::new(),
            workloads: Vec::new(),
            loads: Vec::new(),
            warmup: 2_000,
            measure: 10_000,
            base_seed: 0xC0FFEE,
            refine_rounds: 0,
            stop_at_saturation: true,
            threads: 0,
            shards: 1,
            power_tech: None,
            cache_dir: None,
        }
    }

    /// Serializes as `slim_noc-spec-v1` JSON (golden-pinned; field
    /// names and order are a schema contract, and serialize → parse →
    /// serialize is byte-identical).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = Writer::new(Floats::Shortest);
        w.object(Lines)
            .field("schema", "slim_noc-spec-v1")
            .field("name", &self.name);
        // No setups: `[]` stays on the key's line.
        w.key("setups").list(if self.setups.is_empty() {
            Inline
        } else {
            Lines
        });
        for s in &self.setups {
            w.item(Raw(s.canonical_json()));
        }
        w.end()
            .key("patterns")
            .list_of(self.patterns.iter().map(|p| p.short_name()));
        if !self.workloads.is_empty() {
            // Only when present: pre-workloads specs keep their bytes.
            w.key("workloads")
                .list_of(self.workloads.iter().map(|w| w.name));
        }
        w.key("loads")
            .list_of(self.loads.iter().copied())
            .field("warmup", self.warmup)
            .field("measure", self.measure)
            .field("base_seed", self.base_seed)
            .field("refine_rounds", self.refine_rounds)
            .field("stop_at_saturation", self.stop_at_saturation)
            .field("threads", self.threads);
        if self.shards != 1 {
            // Emitted only when sharded, keeping pre-shards specs (and
            // the golden file) byte-stable.
            w.field("shards", self.shards);
        }
        if let Some(tech) = self.power_tech {
            w.field("tech", &tech.to_string());
        }
        if let Some(dir) = &self.cache_dir {
            w.field("cache_dir", dir);
        }
        w.finish() + "\n"
    }

    /// Parses the wire format. `schema`, `name`, `setups`, `patterns`,
    /// and `loads` are required; everything else falls back to the
    /// [`CampaignSpec::new`] defaults so hand-written specs stay short.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] on malformed JSON, an unknown
    /// schema, missing required fields, or invalid values (non-finite
    /// or non-positive loads, unknown pattern/workload/layout/buffer/
    /// routing names).
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        json::parse(text)
            .and_then(|root| Self::parse(&root))
            .map_err(SpecError::Parse)
    }

    fn parse(root: &JsonValue) -> Result<Self, String> {
        let schema = root
            .field("schema", "a string", JsonValue::as_str)?
            .ok_or("missing `schema`")?;
        if schema != "slim_noc-spec-v1" {
            return Err(format!(
                "unsupported schema `{schema}` (expected slim_noc-spec-v1)"
            ));
        }
        let array = |key| {
            root.field(key, "an array", JsonValue::as_arr)?
                .ok_or_else(|| format!("missing `{key}`"))
        };
        let usize_field = |key| root.field(key, "a usize", JsonValue::as_usize);
        let u64_field = |key| root.field(key, "a u64", JsonValue::as_u64);
        let defaults = CampaignSpec::new("");
        let workloads = root.field("workloads", "a list of benchmark names", |v| {
            let items = v.as_arr()?.iter();
            items.map(|w| TraceWorkload::by_name(w.as_str()?)).collect()
        })?;
        Ok(CampaignSpec {
            name: root
                .field("name", "a string", JsonValue::as_str)?
                .ok_or("missing `name`")?
                .to_string(),
            setups: array("setups")?
                .iter()
                .map(SetupSpec::parse)
                .collect::<Result<_, _>>()
                .map_err(|e| format!("setup: {e}"))?,
            patterns: array("patterns")?
                .iter()
                .map(|p| {
                    p.as_str()
                        .and_then(TrafficPattern::from_short_name)
                        .ok_or("patterns must be RND|SHF|REV|ADV1|ADV2|ASYM|TRN")
                })
                .collect::<Result<_, _>>()?,
            workloads: workloads.unwrap_or_default(),
            loads: array("loads")?
                .iter()
                .map(|l| {
                    l.as_f64()
                        .filter(|x| x.is_finite() && *x > 0.0)
                        .ok_or("loads must be finite positive numbers")
                })
                .collect::<Result<_, _>>()?,
            warmup: u64_field("warmup")?.unwrap_or(defaults.warmup),
            measure: u64_field("measure")?.unwrap_or(defaults.measure),
            base_seed: u64_field("base_seed")?.unwrap_or(defaults.base_seed),
            refine_rounds: usize_field("refine_rounds")?.unwrap_or(defaults.refine_rounds),
            stop_at_saturation: root
                .field("stop_at_saturation", "a bool", JsonValue::as_bool)?
                .unwrap_or(defaults.stop_at_saturation),
            threads: usize_field("threads")?.unwrap_or(defaults.threads),
            shards: root
                .field("shards", "a usize of at least 1", |n| {
                    n.as_usize().filter(|&n| n > 0)
                })?
                .unwrap_or(defaults.shards),
            power_tech: root.field("tech", "45nm|22nm|11nm", |raw| {
                TechNode::from_name(raw.as_str()?)
            })?,
            cache_dir: root
                .field("cache_dir", "a string", JsonValue::as_str)?
                .map(str::to_string),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::StormSpec;
    use crate::Campaign;

    fn full_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::new("unit \"spec\"");
        spec.setups = vec![
            {
                let mut s = SetupSpec::new("sn54");
                s.faults = Some(FaultsSpec {
                    events: Vec::new(),
                    storm: Some(StormSpec {
                        links: 3,
                        start: 200,
                        window: 400,
                        seed: 11,
                    }),
                });
                s
            },
            {
                let mut s = SetupSpec::new("sn_s");
                s.name = "sn_s+smart".into();
                s.sn_layout = Some(SnLayout::Random(7));
                s.smart = true;
                s.buffers = BufferPreset::Cbr(20);
                s.routing = RoutingKind::UgalG;
                s
            },
        ];
        spec.patterns = vec![TrafficPattern::Random, TrafficPattern::Adversarial1];
        spec.workloads = ["fft", "water-s"]
            .map(|w| TraceWorkload::by_name(w).unwrap())
            .into();
        spec.loads = vec![0.008, 0.1, 1.0 / 3.0];
        spec.warmup = 123;
        spec.measure = 456;
        spec.base_seed = u64::MAX - 3;
        spec.refine_rounds = 2;
        spec.stop_at_saturation = false;
        spec.threads = 3;
        spec.power_tech = Some(TechNode::N22);
        spec.cache_dir = Some("/tmp/cache dir".into());
        spec
    }

    #[test]
    fn json_round_trip_is_byte_stable_and_lossless() {
        let spec = full_spec();
        let json1 = spec.to_json();
        let parsed = CampaignSpec::from_json(&json1).expect("parse own output");
        assert_eq!(parsed, spec, "value round trip");
        assert_eq!(parsed.to_json(), json1, "byte round trip");
    }

    #[test]
    fn defaults_fill_omitted_fields() {
        let spec = CampaignSpec::from_json(
            r#"{"schema": "slim_noc-spec-v1", "name": "mini",
                "setups": [{"config": "sn54"}],
                "patterns": ["RND"], "loads": [0.05]}"#,
        )
        .expect("minimal spec");
        let defaults = CampaignSpec::new("mini");
        assert_eq!(spec.warmup, defaults.warmup);
        assert_eq!(spec.measure, defaults.measure);
        assert_eq!(spec.base_seed, defaults.base_seed);
        assert!(spec.stop_at_saturation);
        assert_eq!(spec.shards, 1);
        assert_eq!(spec.power_tech, None);
        assert_eq!(spec.setups[0].name, "sn54", "name defaults to config");
        assert_eq!(spec.setups[0].buffers, BufferPreset::EbSmall);
        // An explicit `null` reads as an omitted field, on every field.
        let nulled = CampaignSpec::from_json(
            r#"{"schema": "slim_noc-spec-v1", "name": "mini",
                "setups": [{"config": "sn54", "name": null, "smart": null}],
                "patterns": ["RND"], "loads": [0.05],
                "warmup": null, "shards": null, "tech": null}"#,
        )
        .expect("nulls are omissions");
        assert_eq!(nulled, spec);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let cases = [
            ("not json", "json"),
            (
                r#"{"schema": "slim_noc-spec-v2", "name": "x", "setups": [], "patterns": [], "loads": []}"#,
                "schema",
            ),
            (
                r#"{"schema": "slim_noc-spec-v1", "setups": [], "patterns": [], "loads": []}"#,
                "name",
            ),
            (
                r#"{"schema": "slim_noc-spec-v1", "name": "x", "setups": [], "patterns": ["HOT"], "loads": []}"#,
                "pattern",
            ),
            (
                r#"{"schema": "slim_noc-spec-v1", "name": "x", "setups": [], "patterns": [], "workloads": ["doom"], "loads": []}"#,
                "workload",
            ),
            (
                r#"{"schema": "slim_noc-spec-v1", "name": "x", "setups": [], "patterns": [], "loads": [-0.1]}"#,
                "load",
            ),
            (
                r#"{"schema": "slim_noc-spec-v1", "name": "x", "setups": [{"config": "sn54", "routing": "warp"}], "patterns": [], "loads": []}"#,
                "routing",
            ),
            (
                r#"{"schema": "slim_noc-spec-v1", "name": "x", "setups": [], "patterns": [], "loads": [], "shards": 0}"#,
                "shards",
            ),
        ];
        for (text, what) in cases {
            assert!(
                CampaignSpec::from_json(text).is_err(),
                "accepted bad {what}: {text}"
            );
        }
    }

    #[test]
    fn fault_recipe_changes_canonical_string_only_when_present() {
        let plain = SetupSpec::new("sn54");
        assert!(
            !plain.canonical_json().contains("faults"),
            "fault-free recipes keep the pre-fault wire format byte-identical"
        );
        let faulted = &full_spec().setups[0];
        assert_ne!(
            faulted.canonical_json(),
            plain.canonical_json(),
            "fault recipe must be part of the canonical string (and cache key)"
        );
        // An explicitly-null faults field parses the same as an absent one.
        let nulled = SetupSpec::from_json_value(
            &crate::json::parse(r#"{"config": "sn54", "faults": null}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(nulled, plain);
        // An empty recipe is rejected rather than silently treated as none.
        assert!(SetupSpec::from_json_value(
            &crate::json::parse(r#"{"config": "sn54", "faults": {}}"#).unwrap(),
        )
        .is_err());
    }

    #[test]
    fn setup_recipe_round_trips_through_build() {
        for spec in full_spec().setups {
            let built = spec.build().expect("recipe builds");
            let back = built.to_spec().expect("paper setups have recipes");
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn custom_topologies_have_no_recipe() {
        let topo = snoc_topology::Topology::mesh(4, 4, 1);
        let setup = Setup::from_topology("custom", topo, 0.5).unwrap();
        assert!(setup.to_spec().is_none());
    }

    #[test]
    fn a_campaign_is_its_spec_and_refuses_what_it_cannot_run() {
        let spec = {
            let mut s = full_spec();
            s.cache_dir = None; // no filesystem in this test
            s
        };
        let campaign = Campaign::from_spec(&spec).expect("buildable");
        assert_eq!(campaign.spec(), &spec);
        let names: Vec<&str> = campaign.setups().iter().map(|s| &*s.name).collect();
        assert_eq!(names, ["sn54", "sn_s+smart"]);
        // A sharded spec still parses, but no campaign runs it.
        let sharded = CampaignSpec {
            shards: 4,
            ..spec.clone()
        };
        assert_eq!(
            CampaignSpec::from_json(&sharded.to_json()).unwrap(),
            sharded
        );
        let refused = |spec: &CampaignSpec| Campaign::from_spec(spec).unwrap_err().to_string();
        assert!(refused(&sharded).contains("`shards`"));
        // A repeated curve or grid point would run twice.
        let mut twice = spec.clone();
        twice.patterns.push(TrafficPattern::Random);
        assert!(refused(&twice).contains("`patterns`"));
        let mut twice = spec.clone();
        twice.workloads.push(twice.workloads[0]);
        assert!(refused(&twice).contains("`workloads`"));
        for loads in [vec![0.1, 0.1], vec![0.2, 0.1]] {
            let unsorted = CampaignSpec {
                loads,
                ..spec.clone()
            };
            assert!(refused(&unsorted).contains("`loads`"));
        }
    }

    #[test]
    fn loads_keep_exact_bits_through_json() {
        let mut spec = CampaignSpec::new("bits");
        spec.loads = vec![0.1, 1.0 / 3.0, 0.30000000000000004, 5e-324_f64.max(0.007)];
        let parsed = CampaignSpec::from_json(&spec.to_json()).unwrap();
        for (a, b) in spec.loads.iter().zip(&parsed.loads) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} lost bits");
        }
    }
}
