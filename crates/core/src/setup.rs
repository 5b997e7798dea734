//! Named experiment setups: topology + layout + simulator configuration
//! as the paper specifies them (§5.1, Table 4).

use crate::faults::FaultsSpec;
use snoc_layout::{per_router_central_buffers, BufferModel, BufferSpec, Layout, SnLayout};
use snoc_power::{PowerModel, TechNode};
use snoc_sim::{
    BufferSizing, RoutingKind, RoutingTable, ShardedSimulator, SimConfig, SimError, SimReport,
    Simulator,
};
use snoc_topology::{paper_config, Topology, TopologyError, TopologyKind};
use snoc_traffic::{TraceWorkload, TrafficPattern};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex};

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
    /// Layout construction failed.
    Layout(snoc_layout::LayoutError),
}

impl fmt::Display for SetupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetupError::Topology(e) => write!(f, "topology: {e}"),
            SetupError::Sim(e) => write!(f, "simulator: {e}"),
            SetupError::Layout(e) => write!(f, "layout: {e}"),
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
impl From<snoc_layout::LayoutError> for SetupError {
    fn from(e: snoc_layout::LayoutError) -> Self {
        SetupError::Layout(e)
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
    /// Buffer preset used (drives the power model's buffer term).
    pub buffers: BufferPreset,
    /// The paper-configuration name this setup was built from, when it
    /// was ([`Setup::paper`] records it; [`Setup::from_topology`] does
    /// not). Together with the builder state below it lets
    /// [`Setup::to_spec`](crate::spec::SetupSpec) reconstruct the
    /// serializable recipe of the setup; custom topologies have no
    /// recipe and are not spec-representable.
    pub paper_config: Option<String>,
    /// The Slim NoC layout applied via [`Setup::with_sn_layout`]
    /// (`None` for the natural layout or non-SN topologies).
    pub sn_layout: Option<SnLayout>,
    /// Fault recipe applied to every simulator this setup builds
    /// (`None` = fault-free). Resolved against the topology in
    /// [`Setup::simulator`]; the sharded engine cannot run it
    /// ([`Setup::run_load_sharded`]).
    pub faults: Option<FaultsSpec>,
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
        // request. Built once per process; callers get clones.
        static BUILT: Mutex<BTreeMap<String, Setup>> = Mutex::new(BTreeMap::new());
        if let Some(setup) = BUILT.lock().expect("setup memo").get(name) {
            return Ok(setup.clone());
        }
        let desc = paper_config(name)?;
        let mut setup = Setup::from_topology(name, desc.topology, desc.cycle_time_ns)?;
        setup.paper_config = Some(name.to_string());
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
            buffers: BufferPreset::EbSmall,
            paper_config: None,
            sn_layout: None,
            faults: None,
        })
    }

    /// Switches the Slim NoC layout (no-op for other topologies).
    ///
    /// # Errors
    ///
    /// Never fails for Slim NoC topologies; returns the unchanged setup
    /// otherwise.
    pub fn with_sn_layout(mut self, which: SnLayout) -> Result<Self, SetupError> {
        if matches!(self.topology.kind(), TopologyKind::SlimNoc { .. }) {
            self.layout = Layout::slim_noc(&self.topology, which)?;
            self.sn_layout = Some(which);
        }
        Ok(self)
    }

    /// Enables or disables SMART links (`H = 9` vs `H = 1`).
    #[must_use]
    pub fn with_smart(mut self, smart: bool) -> Self {
        self.sim.smart_hops = if smart { 9 } else { 1 };
        self
    }

    /// Applies a buffering preset: the router architecture, edge-buffer
    /// sizing and link mode it governs. Every other simulator parameter
    /// keeps its value.
    #[must_use]
    pub fn with_buffers(mut self, preset: BufferPreset) -> Self {
        let governed = match preset {
            BufferPreset::EbSmall => SimConfig::eb_small(),
            BufferPreset::EbLarge => SimConfig::eb_large(),
            BufferPreset::EbVar => SimConfig::eb_var(),
            BufferPreset::ElLinks => SimConfig::elastic_links(),
            BufferPreset::Cbr(x) => SimConfig::cbr(x),
        };
        self.sim.router_arch = governed.router_arch;
        self.sim.buffer_sizing = governed.buffer_sizing;
        self.sim.link_mode = governed.link_mode;
        self.buffers = preset;
        self
    }

    /// Selects the routing algorithm (UGAL variants force 4 VCs to cover
    /// the doubled Valiant path length).
    #[must_use]
    pub fn with_routing(mut self, routing: RoutingKind) -> Self {
        self.sim.routing = routing;
        if matches!(routing, RoutingKind::UgalL | RoutingKind::UgalG) {
            self.sim.vcs = self.sim.vcs.max(4);
        }
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.sim.seed = seed;
        self
    }

    /// Attaches a fault recipe: every simulator this setup builds runs
    /// it live (link/router failures mid-run, dropped packets counted,
    /// routing self-healed). Fault injection is supported on the
    /// edge-buffer + credited-link + minimal-routing envelope; other
    /// configurations fail at [`Setup::simulator`] time.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultsSpec) -> Self {
        self.faults = if faults.is_empty() {
            None
        } else {
            Some(faults)
        };
        self
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
    /// any) resolved against the topology and scheduled.
    ///
    /// # Errors
    ///
    /// Returns [`SetupError::Sim`] when the configuration is invalid or
    /// the fault recipe is outside the supported envelope.
    pub fn simulator(&self) -> Result<Simulator, SetupError> {
        self.simulator_with_table(self.minimal_table())
    }

    /// A fresh [`RoutingTable::minimal`] of this setup's topology — the
    /// crate's one table construction site. The entry points that take
    /// no table call it per simulator; a campaign calls it once per
    /// setup per run and hands the result to every point.
    pub(crate) fn minimal_table(&self) -> Arc<RoutingTable> {
        Arc::new(RoutingTable::minimal(&self.topology))
    }

    /// [`Setup::simulator`] around a pre-built
    /// [`RoutingTable::minimal`] of this setup's topology. The table
    /// depends on the topology alone — not on buffers, routing mode,
    /// seed or faults (repair swaps in a fresh table, never edits the
    /// shared one) — so a caller building many simulators of one setup,
    /// like a campaign's points, builds it once.
    ///
    /// # Errors
    ///
    /// As [`Setup::simulator`].
    pub fn simulator_with_table(&self, table: Arc<RoutingTable>) -> Result<Simulator, SetupError> {
        let mut sim =
            Simulator::build_with_table(&self.topology, Some(&self.layout), &self.sim, table)?;
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
        self.run_point(traffic, rate, warmup, measure, self.minimal_table())
    }

    /// Runs one synthetic-traffic point on the sharded parallel engine,
    /// [`snoc_sim::ShardedSimulator`] — a tool for one point too large
    /// for one core, which no campaign uses. Its report is
    /// byte-identical to [`Setup::run_load`]'s at any shard count; with
    /// `shards ≤ 1` it *is* [`Setup::run_load`].
    ///
    /// # Panics
    ///
    /// Panics, with the builder's message, on a setup the sharded
    /// engine refuses with more than one shard — a fault recipe
    /// (replicated shards never see fault plans), UGAL-L, UGAL-G,
    /// elastic links — as [`Setup::run_load`] panics on an invalid one.
    pub fn run_load_sharded(
        &self,
        pattern: TrafficPattern,
        rate: f64,
        warmup: u64,
        measure: u64,
        shards: usize,
    ) -> SimReport {
        if shards <= 1 {
            return self.run_load(pattern, rate, warmup, measure);
        }
        assert!(
            self.faults.is_none(),
            "{}: a fault recipe runs on the monolithic engine only",
            self.name
        );
        ShardedSimulator::build_with_layout(&self.topology, &self.layout, &self.sim, shards)
            .unwrap_or_else(|e| panic!("{}: {e}", self.name))
            .run_synthetic(pattern, rate, warmup, measure)
    }

    /// The one point runner: [`Setup::run_load`] calls it with a fresh
    /// [`Setup::minimal_table`], a campaign with the table it holds for
    /// the setup (see [`Setup::simulator_with_table`]). A trace ignores
    /// `rate`: it is `warmup + measure` cycles at the workload's own,
    /// generated from this setup's seed and measured from `warmup` on.
    pub(crate) fn run_point(
        &self,
        traffic: Traffic<'_>,
        rate: f64,
        warmup: u64,
        measure: u64,
        table: Arc<RoutingTable>,
    ) -> SimReport {
        let mut sim = self.simulator_with_table(table).expect("valid setup");
        let report = match traffic {
            Traffic::Pattern(pattern) => sim.run_synthetic(pattern, rate, warmup, measure),
            Traffic::Trace(workload) => {
                let trace = workload.generate(&self.topology, warmup + measure, self.sim.seed);
                sim.run_trace(&trace, warmup)
            }
        };
        if let Some(diag) = &report.deadlock {
            panic!("simulation deadlocked ({}): {diag}", self.name);
        }
        report
    }

    /// Total buffer flits in one router under the active preset — the
    /// buffer term for the power model (Eqs. 5–6).
    #[must_use]
    pub fn buffer_flits_per_router(&self) -> usize {
        let lanes = self.topology.network_radix() * self.sim.vcs;
        match (self.buffers, self.sim.buffer_sizing) {
            (BufferPreset::Cbr(x), _) => {
                per_router_central_buffers(&self.topology, x, self.sim.vcs)
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
mod tests {
    use super::*;
    use snoc_sim::RouterArch;

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
        let cbr = s.clone().with_buffers(BufferPreset::Cbr(20));
        assert!(matches!(
            cbr.sim.router_arch,
            RouterArch::CentralBuffer { cb_flits: 20 }
        ));
        assert_eq!(cbr.sim.vcs, s.sim.vcs, "vcs preserved across preset");
        let var = s.clone().with_buffers(BufferPreset::EbVar);
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
        let base = Setup::paper("sn54")
            .unwrap()
            .with_smart(true)
            .with_routing(RoutingKind::UgalL)
            .with_seed(7);
        for (preset, config) in presets {
            // On an untouched setup: the preset's SimConfig with the
            // setup's own vcs / SMART / routing / seed.
            let expected = SimConfig {
                vcs: 4,
                smart_hops: 9,
                routing: RoutingKind::UgalL,
                seed: 7,
                ..config
            };
            // Applying one preset over another leaves no trace of the first.
            let via_cbr = base.clone().with_buffers(BufferPreset::Cbr(40));
            assert_eq!(via_cbr.with_buffers(preset).sim, expected, "{preset}");
            // Parameters no preset governs survive it.
            let mut tuned = base.clone();
            tuned.sim.packet_flits = 4;
            tuned.sim.injection_queue_flits = 32;
            let expected = SimConfig {
                packet_flits: 4,
                injection_queue_flits: 32,
                ..expected
            };
            assert_eq!(tuned.with_buffers(preset).sim, expected, "{preset}");
        }
    }

    #[test]
    fn buffer_flits_per_router_values() {
        let s = Setup::paper("sn54").unwrap();
        // EB-Small: k' * vcs * 5 = 5 * 2 * 5.
        assert_eq!(s.buffer_flits_per_router(), 50);
        let large = s.clone().with_buffers(BufferPreset::EbLarge);
        assert_eq!(large.buffer_flits_per_router(), 150);
        let cbr = s.clone().with_buffers(BufferPreset::Cbr(20));
        // Eq. 6 per router: 20 + 2 * 5 * 2 = 40.
        assert_eq!(cbr.buffer_flits_per_router(), 40);
        let el = s.with_buffers(BufferPreset::ElLinks);
        assert_eq!(el.buffer_flits_per_router(), 10);
    }

    #[test]
    fn smart_toggles_h() {
        let s = Setup::paper("sn54").unwrap();
        assert_eq!(s.sim.smart_hops, 1);
        assert_eq!(s.clone().with_smart(true).sim.smart_hops, 9);
        assert_eq!(s.with_smart(true).with_smart(false).sim.smart_hops, 1);
    }

    #[test]
    fn ugal_forces_four_vcs() {
        let s = Setup::paper("sn_s")
            .unwrap()
            .with_routing(RoutingKind::UgalL);
        assert_eq!(s.sim.vcs, 4);
    }

    #[test]
    fn validate_fails_exactly_where_the_simulator_refuses_to_build() {
        let base = Setup::paper("sn54").unwrap();
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
                    let mut s = base.clone().with_buffers(buffers).with_routing(routing);
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
    fn unknown_name_is_an_error() {
        assert!(Setup::paper("hyperx").is_err());
    }
}
