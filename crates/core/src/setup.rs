//! Named experiment setups: topology + layout + simulator configuration
//! as the paper specifies them (§5.1, Table 4).

use crate::faults::FaultsSpec;
use crate::spec::SetupSpec;
use snoc_layout::{per_router_central_buffers, BufferModel, BufferSpec, Layout};
use snoc_power::{PowerModel, TechNode};
use snoc_sim::{BufferSizing, RouterArch, RoutingTable, SimConfig, SimError, SimReport, Simulator};
use snoc_topology::{paper_config, Topology, TopologyError, TopologyKind};
use snoc_traffic::{TraceWorkload, TrafficPattern};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// Buffering strategy presets from §5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferPreset {
    /// EB-Small: 5-flit edge buffers per VC.
    EbSmall,
    /// EB-Large: 15-flit edge buffers per VC.
    EbLarge,
    /// EB-Var: RTT-sized edge buffers (minimal sizes for 100% link
    /// utilization; `-S`/`-N` distinction comes from the SMART setting).
    EbVar,
    /// EL-Links: elastic links only (1-flit staging).
    ElLinks,
    /// CBR-x: central buffer router with `x` flits of central buffer.
    Cbr(usize),
}

impl fmt::Display for BufferPreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BufferPreset::EbSmall => write!(f, "EB-Small"),
            BufferPreset::EbLarge => write!(f, "EB-Large"),
            BufferPreset::EbVar => write!(f, "EB-Var"),
            BufferPreset::ElLinks => write!(f, "EL-Links"),
            BufferPreset::Cbr(x) => write!(f, "CBR-{x}"),
        }
    }
}

impl BufferPreset {
    /// The stable lowercase name used by the `snoc` CLI and the
    /// campaign-spec wire format (`eb-small`, `cbr20`, …).
    #[must_use]
    pub fn spec_name(&self) -> String {
        match self {
            BufferPreset::EbSmall => "eb-small".to_string(),
            BufferPreset::EbLarge => "eb-large".to_string(),
            BufferPreset::EbVar => "eb-var".to_string(),
            BufferPreset::ElLinks => "el-links".to_string(),
            BufferPreset::Cbr(x) => format!("cbr{x}"),
        }
    }

    /// The inverse of [`BufferPreset::spec_name`].
    #[must_use]
    pub fn from_spec_name(name: &str) -> Option<BufferPreset> {
        Some(match name {
            "eb-small" => BufferPreset::EbSmall,
            "eb-large" => BufferPreset::EbLarge,
            "eb-var" => BufferPreset::EbVar,
            "el-links" => BufferPreset::ElLinks,
            other => BufferPreset::Cbr(other.strip_prefix("cbr")?.parse().ok()?),
        })
    }
}

/// Errors from setup construction.
#[derive(Debug)]
#[non_exhaustive]
pub enum SetupError {
    /// Unknown configuration or topology failure.
    Topology(TopologyError),
    /// Simulator rejected the configuration.
    Sim(SimError),
}

impl fmt::Display for SetupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetupError::Topology(e) => write!(f, "topology: {e}"),
            SetupError::Sim(e) => write!(f, "simulator: {e}"),
        }
    }
}

impl Error for SetupError {}

impl From<TopologyError> for SetupError {
    fn from(e: TopologyError) -> Self {
        SetupError::Topology(e)
    }
}
impl From<SimError> for SetupError {
    fn from(e: SimError) -> Self {
        SetupError::Sim(e)
    }
}

/// What one campaign point injects: a synthetic pattern at a swept
/// rate, or a trace workload at its own.
#[derive(Clone, Copy)]
pub(crate) enum Traffic<'a> {
    Pattern(TrafficPattern),
    Trace(&'a TraceWorkload),
}

impl Traffic<'_> {
    /// The curve key in the `pattern` column, the seed and the cache.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Traffic::Pattern(pattern) => pattern.short_name(),
            Traffic::Trace(workload) => workload.name,
        }
    }
}

/// A fully specified experiment configuration.
#[derive(Debug, Clone)]
pub struct Setup {
    /// Display name (the paper's configuration name).
    pub name: String,
    /// The network topology.
    pub topology: Topology,
    /// The physical layout.
    pub layout: Layout,
    /// Simulator configuration.
    pub sim: SimConfig,
    /// Router cycle time in nanoseconds (0.4/0.5/0.6 per radix class).
    pub cycle_time_ns: f64,
    /// Fault recipe applied to every simulator this setup builds
    /// (`None` = fault-free). Resolved against the topology in
    /// [`Setup::simulator`].
    pub faults: Option<FaultsSpec>,
    /// [`Setup::to_spec`].
    pub(crate) recipe: Option<SetupSpec>,
    /// [`RoutingTable::minimal`] of `topology`, built on first use and
    /// shared by every clone of this setup ([`Setup::minimal_table`]).
    /// A clone that swaps in another topology gets a [`SetupError`]
    /// from [`Setup::simulator`], never a stale table.
    table: Arc<OnceLock<Arc<RoutingTable>>>,
}

impl Setup {
    /// Builds a named paper configuration (Table 4 names such as
    /// `"sn_s"`, `"fbf3"`, `"pfbf9"`, `"t2d4"`; see
    /// [`snoc_topology::paper_config_names`]) with the §5.1 defaults:
    /// EB-Small buffers, credited links, no SMART, minimal routing, and
    /// per-topology VC counts (hop count of the longest minimal path).
    ///
    /// # Errors
    ///
    /// Returns [`SetupError`] for unknown names.
    pub fn paper(name: &str) -> Result<Self, SetupError> {
        // A base setup is a pure function of its name, the names are a
        // closed set, and building one costs an all-pairs BFS for the
        // VC count — which a served spec would pay per setup per
        // request. Built once per process; callers get clones, which
        // share the memo's routing table once any of them builds it.
        static BUILT: Mutex<BTreeMap<String, Setup>> = Mutex::new(BTreeMap::new());
        if let Some(setup) = BUILT.lock().expect("setup memo").get(name) {
            return Ok(setup.clone());
        }
        let desc = paper_config(name)?;
        let mut setup = Setup::from_topology(name, desc.topology, desc.cycle_time_ns)?;
        setup.recipe = Some(SetupSpec::new(name));
        let mut memo = BUILT.lock().expect("setup memo");
        Ok(memo.entry(name.to_string()).or_insert(setup).clone())
    }

    /// Builds a setup from an arbitrary topology with natural layout.
    ///
    /// # Errors
    ///
    /// Returns [`SetupError`] if the simulator configuration is invalid.
    pub fn from_topology(
        name: &str,
        topology: Topology,
        cycle_time_ns: f64,
    ) -> Result<Self, SetupError> {
        let layout = Layout::natural(&topology);
        // Deadlock freedom for hop-indexed VCs needs |VC| >= max hops;
        // meshes/tori use DOR+dateline and stay at 2.
        let vcs = match topology.kind() {
            TopologyKind::Mesh { .. } | TopologyKind::Torus { .. } => 2,
            _ => topology.diameter().max(2),
        };
        let sim = SimConfig::default().with_vcs(vcs);
        Ok(Setup {
            name: name.to_string(),
            topology,
            layout,
            sim,
            cycle_time_ns,
            faults: None,
            recipe: None,
            table: Arc::default(),
        })
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.sim.seed = seed;
        self
    }

    /// The recipe this setup was built from by [`Setup::paper`] or
    /// [`SetupSpec::build`], or `None` for one built on an arbitrary
    /// topology or base. It builds this setup again, so a campaign keys
    /// its cache on it: the key names exactly what was simulated.
    #[must_use]
    pub fn to_spec(&self) -> Option<SetupSpec> {
        self.recipe.clone()
    }

    /// Runs every check [`Setup::simulator`] can fail on — the simulator
    /// configuration's consistency (on this topology:
    /// [`SimConfig::validate_on`]), and the fault recipe against this
    /// topology and the supported envelope — without building a routing
    /// table, so a campaign can refuse a setup before running a point.
    ///
    /// # Errors
    ///
    /// Returns [`SetupError::Sim`], as [`Setup::simulator`] would.
    pub fn validate(&self) -> Result<(), SetupError> {
        self.sim.validate_on(&self.topology)?;
        if let Some(faults) = &self.faults {
            faults
                .resolve(&self.topology)
                .check_against(&self.topology, &self.sim)?;
        }
        Ok(())
    }

    /// Builds the simulator for this setup, with the fault recipe (if
    /// any) resolved against the topology and scheduled. Every
    /// simulator of a setup and of its clones shares one routing table,
    /// built by the first of them.
    ///
    /// # Errors
    ///
    /// Returns [`SetupError::Sim`] when the configuration is invalid or
    /// the fault recipe is outside the supported envelope.
    pub fn simulator(&self) -> Result<Simulator, SetupError> {
        self.seeded_simulator(None, self.sim.seed)
    }

    /// [`RoutingTable::minimal`] of this setup's topology — the crate's
    /// one table construction site. Built on the first call and shared
    /// by every clone of the setup after it, so through the
    /// [`Setup::paper`] memo each paper configuration's table is built
    /// once per process. The table depends on the topology alone — not
    /// on buffers, routing mode, seed or faults (repair swaps in a fresh
    /// table, never edits the shared one).
    pub(crate) fn minimal_table(&self) -> Arc<RoutingTable> {
        let build = || Arc::new(RoutingTable::minimal(&self.topology));
        Arc::clone(self.table.get_or_init(build))
    }

    /// [`Setup::simulator`] seeded with `seed`: `idle`, a simulator this
    /// setup built before, [reset](Simulator::reset) — bit-identical to
    /// a fresh build and far cheaper — or else a new one around
    /// [`Setup::minimal_table`]; the crate's one simulator construction
    /// site.
    fn seeded_simulator(
        &self,
        idle: Option<Simulator>,
        seed: u64,
    ) -> Result<Simulator, SetupError> {
        let mut sim = match idle {
            Some(mut sim) => {
                sim.reset(seed);
                sim
            }
            None => {
                #[cfg(test)]
                tests::SIMULATORS_BUILT.with(|n| n.set(n.get() + 1));
                let (cfg, table) = (self.sim.clone().with_seed(seed), || self.minimal_table());
                Simulator::build_with_table(&self.topology, Some(&self.layout), &cfg, table)?
            }
        };
        if let Some(faults) = &self.faults {
            sim.set_fault_plan(&faults.resolve(&self.topology))?;
        }
        Ok(sim)
    }

    /// Runs one synthetic-traffic point.
    ///
    /// # Panics
    ///
    /// Panics if the setup cannot construct a simulator (all presets in
    /// this crate can), or if the simulator's no-progress watchdog
    /// aborts the run — a wedged point would otherwise be silently
    /// folded into campaign statistics, so it fails loudly with the
    /// full deadlock diagnostic instead.
    pub fn run_load(
        &self,
        pattern: TrafficPattern,
        rate: f64,
        warmup: u64,
        measure: u64,
    ) -> SimReport {
        let traffic = Traffic::Pattern(pattern);
        let seed = self.sim.seed;
        self.run_point(None, seed, traffic, rate, warmup, measure).0
    }

    /// Runs the monolithic engine; deleted with `benchmark/`'s shard
    /// probes (ROADMAP 1(a)).
    #[doc(hidden)]
    pub fn run_load_sharded(
        &self,
        pattern: TrafficPattern,
        rate: f64,
        warmup: u64,
        measure: u64,
        _shards: usize,
    ) -> SimReport {
        self.run_load(pattern, rate, warmup, measure)
    }

    /// The one point runner, seeded with `seed`: [`Setup::run_load`]
    /// calls it with no simulator, a campaign worker with the one it
    /// kept from its last point of this setup (see
    /// [`Setup::seeded_simulator`]), and gets the simulator back for the
    /// next. A trace ignores `rate`: it is `warmup + measure` cycles at
    /// the workload's own, generated from `seed` and measured from
    /// `warmup` on.
    pub(crate) fn run_point(
        &self,
        idle: Option<Simulator>,
        seed: u64,
        traffic: Traffic<'_>,
        rate: f64,
        warmup: u64,
        measure: u64,
    ) -> (SimReport, Simulator) {
        let mut sim = self.seeded_simulator(idle, seed).expect("valid setup");
        let report = match traffic {
            Traffic::Pattern(pattern) => sim.run_synthetic(pattern, rate, warmup, measure),
            Traffic::Trace(workload) => {
                let trace = workload.generate(&self.topology, warmup + measure, seed);
                sim.run_trace(&trace, warmup)
            }
        };
        if let Some(diag) = &report.deadlock {
            panic!("simulation deadlocked ({}): {diag}", self.name);
        }
        (report, sim)
    }

    /// Total buffer flits in one router under the active preset — the
    /// buffer term for the power model (Eqs. 5–6).
    #[must_use]
    pub fn buffer_flits_per_router(&self) -> usize {
        let lanes = self.topology.network_radix() * self.sim.vcs;
        match (self.sim.router_arch, self.sim.buffer_sizing) {
            (RouterArch::CentralBuffer { cb_flits }, _) => {
                per_router_central_buffers(&self.topology, cb_flits, self.sim.vcs)
            }
            (_, BufferSizing::Fixed(per_vc)) => lanes * per_vc,
            (_, BufferSizing::VariableRtt) => {
                let spec = BufferSpec {
                    vcs: self.sim.vcs,
                    smart_hops: self.sim.smart_hops,
                };
                BufferModel::edge_buffers(&self.topology, &self.layout, spec)
                    .average_per_router()
                    .round() as usize
            }
        }
    }

    /// The power model configured for this setup's cycle time.
    #[must_use]
    pub fn power_model(&self, tech: TechNode) -> PowerModel {
        PowerModel::new(tech).with_cycle_time(self.cycle_time_ns)
    }

    /// Feeds a measured simulation report into the power model: the
    /// activity factors the simulator counted (buffer reads/writes,
    /// crossbar traversals, allocator grants, link flit·tiles) drive
    /// the dynamic-power terms directly.
    #[must_use]
    pub fn power_report(&self, tech: TechNode, report: &SimReport) -> snoc_power::PowerReport {
        self.power_model(tech).evaluate_from_sim(
            report,
            &self.topology,
            &self.layout,
            self.buffer_flits_per_router(),
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use snoc_sim::{RouterArch, RoutingKind};
    use std::cell::Cell;

    thread_local! {
        /// Simulators built (not reset) on this thread by
        /// [`Setup::seeded_simulator`].
        pub(crate) static SIMULATORS_BUILT: Cell<usize> = const { Cell::new(0) };
    }

    #[test]
    fn paper_setups_build_and_run() {
        for name in ["sn54", "t2d54", "cm54", "fbf54", "pfbf54"] {
            let setup = Setup::paper(name).unwrap();
            let report = setup.run_load(TrafficPattern::Random, 0.03, 300, 1_000);
            assert!(report.delivered_packets > 0, "{name}: {report}");
        }
    }

    #[test]
    fn vc_counts_cover_diameter() {
        assert_eq!(Setup::paper("sn_s").unwrap().sim.vcs, 2);
        assert_eq!(Setup::paper("pfbf3").unwrap().sim.vcs, 4);
        assert_eq!(Setup::paper("t2d4").unwrap().sim.vcs, 2);
        assert_eq!(Setup::paper("fbf3").unwrap().sim.vcs, 2);
    }

    #[test]
    fn buffer_presets_apply() {
        let s = Setup::paper("sn54").unwrap();
        let built = |buffers| {
            let recipe = SetupSpec {
                buffers,
                ..SetupSpec::new("sn54")
            };
            recipe.build().unwrap()
        };
        let cbr = built(BufferPreset::Cbr(20));
        assert!(matches!(
            cbr.sim.router_arch,
            RouterArch::CentralBuffer { cb_flits: 20 }
        ));
        assert_eq!(cbr.sim.vcs, s.sim.vcs, "vcs preserved across preset");
        let var = built(BufferPreset::EbVar);
        assert!(var.simulator().is_ok(), "EB-Var works with a layout");
    }

    #[test]
    fn buffer_presets_set_their_three_fields_and_keep_the_rest() {
        let presets = [
            (BufferPreset::EbSmall, SimConfig::eb_small()),
            (BufferPreset::EbLarge, SimConfig::eb_large()),
            (BufferPreset::EbVar, SimConfig::eb_var()),
            (BufferPreset::ElLinks, SimConfig::elastic_links()),
            (BufferPreset::Cbr(20), SimConfig::cbr(20)),
        ];
        let recipe = SetupSpec {
            smart: true,
            routing: RoutingKind::UgalL,
            ..SetupSpec::new("sn54")
        };
        // Parameters no preset governs survive it: those of the recipe,
        // and those tuned on the base it is applied to.
        let mut tuned = Setup::paper("sn54").unwrap().with_seed(7);
        tuned.sim.packet_flits = 4;
        tuned.sim.injection_queue_flits = 32;
        for (preset, config) in presets {
            let expected = SimConfig {
                vcs: 4,
                smart_hops: 9,
                routing: RoutingKind::UgalL,
                seed: 7,
                packet_flits: 4,
                injection_queue_flits: 32,
                ..config
            };
            let recipe = SetupSpec {
                buffers: preset,
                ..recipe.clone()
            };
            let built = recipe.build_on(tuned.clone());
            assert_eq!(built.sim, expected, "{preset}");
        }
    }

    #[test]
    fn buffer_flits_per_router_values() {
        let flits = |buffers| {
            let recipe = SetupSpec {
                buffers,
                ..SetupSpec::new("sn54")
            };
            recipe.build().unwrap().buffer_flits_per_router()
        };
        // EB-Small: k' * vcs * 5 = 5 * 2 * 5.
        assert_eq!(flits(BufferPreset::EbSmall), 50);
        assert_eq!(flits(BufferPreset::EbLarge), 150);
        // Eq. 6 per router: 20 + 2 * 5 * 2 = 40.
        assert_eq!(flits(BufferPreset::Cbr(20)), 40);
        assert_eq!(flits(BufferPreset::ElLinks), 10);
    }

    #[test]
    fn smart_toggles_h() {
        assert_eq!(Setup::paper("sn54").unwrap().sim.smart_hops, 1);
        for (smart, hops) in [(false, 1), (true, 9)] {
            let recipe = SetupSpec {
                smart,
                ..SetupSpec::new("sn54")
            };
            assert_eq!(recipe.build().unwrap().sim.smart_hops, hops);
        }
    }

    #[test]
    fn ugal_forces_four_vcs() {
        let recipe = SetupSpec {
            routing: RoutingKind::UgalL,
            ..SetupSpec::new("sn_s")
        };
        assert_eq!(recipe.build().unwrap().sim.vcs, 4);
    }

    #[test]
    fn validate_fails_exactly_where_the_simulator_refuses_to_build() {
        let recipe = |text| FaultsSpec::from_json_value(&crate::json::parse(text).unwrap()).ok();
        let faults = [
            None,
            recipe(r#"{"storm": {"links": 2, "start": 10, "window": 10, "seed": 1}}"#),
            recipe(r#"{"events": [{"at": 5, "kind": "router_down", "router": 9999}]}"#),
        ];
        for buffers in ["eb-small", "eb-var", "el-links", "cbr20", "cbr0"] {
            let buffers = BufferPreset::from_spec_name(buffers).unwrap();
            for routing in [
                RoutingKind::Minimal,
                RoutingKind::UgalL,
                RoutingKind::XyAdaptive,
            ] {
                for faults in &faults {
                    let recipe = SetupSpec {
                        buffers,
                        routing,
                        ..SetupSpec::new("sn54")
                    };
                    let mut s = recipe.build().unwrap();
                    s.faults.clone_from(faults);
                    let built = s.simulator().map(drop).map_err(|e| e.to_string());
                    let checked = s.validate().map_err(|e| e.to_string());
                    assert_eq!(checked, built, "{buffers} {routing:?} {faults:?}");
                }
            }
        }
    }

    #[test]
    fn campaign_curve_stops_at_saturation() {
        let mut spec = crate::CampaignSpec::new("curve");
        spec.setups = vec![crate::SetupSpec::new("sn54")];
        spec.patterns = vec![TrafficPattern::Random];
        spec.loads = vec![0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0];
        (spec.warmup, spec.measure) = (300, 1_200);
        let result = crate::Campaign::from_spec(&spec).unwrap().run();
        let curve: Vec<_> = result.curve("sn54", "RND").collect();
        assert!(!curve.is_empty());
        // Monotone non-decreasing latency along the curve (tolerantly).
        for pair in curve.windows(2) {
            assert!(
                pair[1].latency > pair[0].latency * 0.8,
                "latency curve should trend upward"
            );
        }
        // If saturation was hit, it is the last point.
        for (i, p) in curve.iter().enumerate() {
            if p.saturated {
                assert_eq!(i, curve.len() - 1);
            }
        }
    }

    #[test]
    fn peak_throughput_past_the_knee_is_positive_and_bounded() {
        let mut spec = crate::CampaignSpec::new("peak");
        spec.setups = vec![crate::SetupSpec::new("sn54")];
        spec.patterns = vec![TrafficPattern::Random];
        spec.loads = vec![0.05, 0.2, 0.8];
        (spec.warmup, spec.measure) = (300, 1_000);
        spec.stop_at_saturation = false;
        let result = crate::Campaign::from_spec(&spec).unwrap().run();
        let thpt = result.peak_throughput("sn54", "RND");
        assert!(thpt > 0.05, "throughput {thpt}");
        assert!(thpt <= 1.0);
    }

    #[test]
    fn a_radix_past_a_routing_byte_is_refused_before_any_table() {
        let topo = Topology::flattened_butterfly(257, 1, 1);
        let setup = Setup::from_topology("fbf257", topo, 0.5).unwrap();
        let err = setup.validate().unwrap_err().to_string();
        assert!(err.contains("network radix 256"), "{err}");
        assert_eq!(setup.simulator().map(drop).unwrap_err().to_string(), err);
        assert!(setup.table.get().is_none(), "no table was built");
    }

    #[test]
    fn unknown_name_is_an_error() {
        assert!(Setup::paper("hyperx").is_err());
    }
}
