//! Sweep-campaign engine: declarative topology × traffic × load grids.
//!
//! The paper's figures are families of latency–throughput curves —
//! dozens of independent simulations each. A [`CampaignSpec`] describes
//! one such family as data (which setup recipes, which
//! [`TrafficPattern`]s, which injection-rate grid, which simulation
//! windows); [`Campaign::from_spec`] makes it runnable and
//! [`Campaign::run`] fans the curves out over worker threads, giving
//! every simulated point a seed derived from the spec alone. Results
//! are therefore **bit-identical for every thread count** and can be
//! re-derived point-by-point.
//!
//! Around the saturation knee the fixed grid is coarse; optional
//! adaptive refinement bisects the interval between the last
//! unsaturated and the first saturated load, sharpening the measured
//! knee without wasting simulations deep inside either regime.
//!
//! Results come back as a flat, structured [`CampaignResult`] that can
//! be rendered as figure tables ([`CampaignResult::series`]) or emitted
//! as machine-readable JSON ([`CampaignResult::to_json`]).
//!
//! # Example
//!
//! ```
//! use snoc_core::{Campaign, CampaignSpec, SetupSpec};
//! use snoc_traffic::TrafficPattern;
//!
//! let mut spec = CampaignSpec::new("demo");
//! spec.setups = vec![SetupSpec::new("sn54")];
//! spec.patterns = vec![TrafficPattern::Random];
//! spec.loads = vec![0.02, 0.05];
//! (spec.warmup, spec.measure) = (200, 800);
//! let result = Campaign::from_spec(&spec)?.run();
//! assert_eq!(result.points.len(), 2);
//! assert!(result.to_json().contains("\"schema\""));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::cache::{mix64, CachedPoint, PointCache, PointCoord};
use crate::json::Layout::{Inline, Lines};
use crate::json::{Floats, Raw, Writer};
use crate::parallel::parallel_map_with_state;
use crate::report::Series;
use crate::setup::{Setup, Traffic};
use crate::spec::{CampaignSpec, SpecError};
use snoc_power::TechNode;
use snoc_sim::{saturation_heuristic, Simulator};
use snoc_traffic::TrafficPattern;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// A campaign worker's simulator between points, with the setup that
/// built it. The worker's next simulated point of that setup
/// [resets](Simulator::reset) it instead of building anew; a point of
/// another setup drops it first, so a worker holds at most one.
type Idle<'a> = Option<(&'a Setup, Simulator)>;

/// What the points of one latency–load curve share.
struct Curve<'a> {
    setup: &'a Setup,
    traffic: Traffic<'a>,
    /// What the cache keys of this curve's points share; `None` when
    /// its points are not cached ([`Campaign::key_halves`]).
    key_halves: Option<[String; 2]>,
    /// Reference latency for saturation detection, set by the curve's
    /// first point — cached points reproduce it bit-exactly, so warm
    /// and cold curves agree on every derived flag.
    zero_load: f64,
    /// Points served from / simulated into the attached cache.
    hits: u64,
    misses: u64,
}

/// A runnable campaign: the [`CampaignSpec`] it was built from, that
/// spec's setups built and validated, and the attached point cache.
/// Every combination of setup × pattern is one latency–load curve,
/// swept over the spec's loads (plus optional knee refinement); every
/// setup × workload is one point at its own rate.
#[derive(Debug, Clone)]
pub struct Campaign {
    spec: CampaignSpec,
    setups: Vec<Setup>,
    /// Content-addressed point cache. Shared (`Arc`) so concurrent
    /// campaigns — e.g. server clients — reuse each other's warm points.
    cache: Option<Arc<PointCache>>,
}

impl Campaign {
    /// The campaign a spec describes, including its point cache when
    /// `cache_dir` is set.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when `shards` is not 1, a pattern or
    /// workload is listed twice, the loads do not strictly increase, a
    /// setup recipe fails to build or to [validate](Setup::validate),
    /// two setups share a name (curves are keyed by name), or the cache
    /// directory cannot be opened — everything that would otherwise
    /// panic, run a point twice, or silently run something else once
    /// the campaign runs.
    pub fn from_spec(spec: &CampaignSpec) -> Result<Campaign, SpecError> {
        if spec.shards != 1 {
            return Err(SpecError::Parse(format!(
                "`shards` is {}: campaign points always run on the monolithic engine",
                spec.shards
            )));
        }
        once("patterns", spec.patterns.iter().map(|p| p.short_name()))?;
        once("workloads", spec.workloads.iter().map(|w| w.name))?;
        if let Some(pair) = spec.loads.windows(2).find(|pair| pair[0] >= pair[1]) {
            return Err(SpecError::Parse(format!(
                "`loads` must strictly increase, but {} is followed by {}",
                pair[0], pair[1]
            )));
        }
        let mut setups = Vec::with_capacity(spec.setups.len());
        for recipe in &spec.setups {
            let setup = recipe.build()?;
            setup.validate()?;
            if setups.iter().any(|s: &Setup| s.name == setup.name) {
                return Err(SpecError::DuplicateSetup(setup.name));
            }
            setups.push(setup);
        }
        let cache = match &spec.cache_dir {
            Some(dir) => Some(Arc::new(PointCache::open(dir).map_err(SpecError::Cache)?)),
            None => None,
        };
        Ok(Campaign {
            spec: spec.clone(),
            setups,
            cache,
        })
    }

    /// A campaign of no setups under [`CampaignSpec::new`]'s defaults:
    /// it runs nothing, and serves [`Campaign::point_seed`] under
    /// [`Campaign::with_seed`].
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Campaign {
            spec: CampaignSpec::new(name),
            setups: Vec::new(),
            cache: None,
        }
    }

    /// Sets the base seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.spec.base_seed = seed;
        self
    }

    /// The spec the campaign was built from.
    #[must_use]
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// The spec's setups, built and validated, in spec order.
    #[must_use]
    pub fn setups(&self) -> &[Setup] {
        &self.setups
    }

    /// Attaches a shared content-addressed point cache in place of the
    /// spec's own: points whose coordinate (setup recipe × pattern ×
    /// load bits × windows × base seed × tech) is already stored are
    /// reconstructed instead of simulated, bit-identically to a cold
    /// run.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<PointCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Opens (creating if needed) a [`PointCache`] at `dir` and
    /// attaches it; see [`Campaign::with_cache`]. A spec names its
    /// store with `cache_dir` instead; after this call `spec().cache_dir`
    /// no longer describes [`Campaign::cache`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from [`PointCache::open`].
    pub fn with_cache_dir(self, dir: impl AsRef<Path>) -> io::Result<Self> {
        Ok(self.with_cache(Arc::new(PointCache::open(dir)?)))
    }

    /// The attached point cache, if any.
    #[must_use]
    pub fn cache(&self) -> Option<&Arc<PointCache>> {
        self.cache.as_ref()
    }

    /// The deterministic seed of one simulated point. Derived only from
    /// the base seed and the point's coordinates, so any point can be
    /// re-run in isolation and any execution order yields the same
    /// simulation.
    #[must_use]
    pub fn point_seed(&self, setup: &str, pattern: TrafficPattern, load: f64) -> u64 {
        self.seed_of(setup, pattern.short_name(), load)
    }

    /// [`Campaign::point_seed`] by curve key (a workload's is its name).
    fn seed_of(&self, setup: &str, traffic: &str, load: f64) -> u64 {
        let load = load.to_bits().to_le_bytes();
        let parts: [&[u8]; 3] = [setup.as_bytes(), traffic.as_bytes(), &load];
        mix64(0xcbf2_9ce4_8422_2325 ^ self.spec.base_seed, &parts)
    }

    /// Runs the campaign: one parallel task per (setup, pattern) and
    /// per (setup, workload) curve. Output ordering and every simulated
    /// number are independent of the thread count.
    #[must_use]
    pub fn run(&self) -> CampaignResult {
        self.run_observed(|_| {})
    }

    /// Runs the campaign, invoking `observe` on every finished point
    /// (from worker threads, in completion order — *not* result order).
    /// The campaign server streams progress through this; [`run`] is
    /// this with a no-op observer.
    ///
    /// Only points that miss the cache build anything: a setup's
    /// routing table once per process (shared through the setup, see
    /// [`Setup::simulator`]), and per worker one simulator, reset for
    /// each further point of the same setup.
    ///
    /// [`run`]: Campaign::run
    #[must_use]
    pub fn run_observed<F: Fn(&SweepPoint) + Sync>(&self, observe: F) -> CampaignResult {
        let spec = &self.spec;
        let patterns = spec.patterns.iter().copied().map(Traffic::Pattern);
        let traffics: Vec<Traffic<'_>> = patterns
            .chain(spec.workloads.iter().map(Traffic::Trace))
            .collect();
        let pairs: Vec<(usize, Traffic<'_>)> = (0..self.setups.len())
            .flat_map(|s| traffics.iter().map(move |&t| (s, t)))
            .collect();
        let curves = parallel_map_with_state(
            pairs,
            spec.threads,
            || None,
            |idle, (s, traffic)| {
                let setup = &self.setups[s];
                let curve = Curve {
                    setup,
                    traffic,
                    key_halves: self.key_halves(setup, traffic),
                    zero_load: 0.0,
                    hits: 0,
                    misses: 0,
                };
                self.run_curve(curve, idle, &observe)
            },
        );
        let mut points = Vec::new();
        let (mut cache_hits, mut cache_misses) = (0, 0);
        for (curve, hits, misses) in curves {
            points.extend(curve);
            cache_hits += hits;
            cache_misses += misses;
        }
        CampaignResult {
            name: spec.name.clone(),
            setups: self.setups.iter().map(|s| s.name.clone()).collect(),
            patterns: traffics.iter().map(|t| t.name().to_string()).collect(),
            warmup: spec.warmup,
            measure: spec.measure,
            base_seed: spec.base_seed,
            tech: spec.power_tech,
            cache_hits,
            cache_misses,
            points,
        }
    }

    /// Runs one latency–load curve (grid sweep + knee refinement; a
    /// workload's one-point grid has no knee); returns the points plus
    /// this curve's cache hit/miss counts.
    fn run_curve<'a, F: Fn(&SweepPoint) + Sync>(
        &'a self,
        mut curve: Curve<'a>,
        idle: &mut Idle<'a>,
        observe: &F,
    ) -> (Vec<SweepPoint>, u64, u64) {
        let mut points = Vec::new();
        let mut last_ok: Option<f64> = None;
        let mut first_sat: Option<f64> = None;
        let loads = match curve.traffic {
            Traffic::Pattern(_) => self.spec.loads.clone(),
            Traffic::Trace(workload) => vec![workload.offered_flit_rate()],
        };
        for load in loads {
            let point = self.run_point(&mut curve, idle, load, false);
            observe(&point);
            let saturated = point.saturated;
            points.push(point);
            if saturated {
                first_sat = Some(load);
                if self.spec.stop_at_saturation {
                    break;
                }
            } else if first_sat.is_none() {
                last_ok = Some(load);
            }
        }
        // Adaptive refinement: bisect the knee bracket. Each round
        // halves the interval between the highest load known to be
        // below saturation and the lowest known saturated load.
        if let (Some(mut lo), Some(mut hi)) = (last_ok, first_sat) {
            for _ in 0..self.spec.refine_rounds {
                let mid = 0.5 * (lo + hi);
                let point = self.run_point(&mut curve, idle, mid, true);
                observe(&point);
                if point.saturated {
                    hi = mid;
                } else {
                    lo = mid;
                }
                points.push(point);
            }
        }
        points.sort_by(|a, b| a.load.total_cmp(&b.load));
        (points, curve.hits, curve.misses)
    }

    /// The load-independent halves of the cache keys of one curve, when
    /// the campaign has a cache: the recipe of the setup as built is
    /// serialized once per curve, not once per point.
    fn key_halves(&self, setup: &Setup, traffic: Traffic<'_>) -> Option<[String; 2]> {
        self.cache.as_ref()?;
        let setup_spec = setup.to_spec()?.canonical_json();
        let spec = &self.spec;
        let tech = spec.power_tech.map(|t| t.to_string());
        let coord = PointCoord {
            setup_spec: &setup_spec,
            pattern: traffic.name(),
            load: 0.0, // in neither half
            warmup: spec.warmup,
            measure: spec.measure,
            base_seed: spec.base_seed,
            shards: 1, // every point runs on the monolithic engine
            tech: tech.as_deref(),
        };
        Some(coord.canonical_halves())
    }

    /// Runs (or replays from cache) one point of `curve`. Only a point
    /// that has to be simulated touches the worker's `idle` simulator.
    fn run_point<'a>(
        &self,
        curve: &mut Curve<'a>,
        idle: &mut Idle<'a>,
        load: f64,
        refined: bool,
    ) -> SweepPoint {
        let (setup, traffic) = (curve.setup, curve.traffic);
        let seed = self.seed_of(&setup.name, traffic.name(), load);
        let keyed = self.cache.as_deref().zip(curve.key_halves.as_ref());
        let keyed = keyed.map(|(cache, halves)| (cache, cache.key_at(halves, load)));
        let cached = keyed.and_then(|(cache, key)| cache.get_at(key));
        let point = if let Some(hit) = cached {
            curve.hits += 1;
            hit
        } else {
            let reuse = match idle.take() {
                Some((built_by, sim)) if std::ptr::eq(built_by, setup) => Some(sim),
                _ => None, // another setup's simulator is dropped here
            };
            let (warmup, measure) = (self.spec.warmup, self.spec.measure);
            let (report, sim) = setup.run_point(reuse, seed, traffic, load, warmup, measure);
            *idle = Some((setup, sim));
            let point = CachedPoint {
                latency: report.avg_packet_latency(),
                p99_latency: report.latency_percentile(0.99),
                throughput: report.throughput(),
                avg_hops: report.avg_hops(),
                acceptance: report.acceptance(),
                delivered_packets: report.delivered_packets,
                dropped_packets: report.dropped_packets,
                injected_packets: report.injected_packets,
                drained: report.drained,
                power: self
                    .spec
                    .power_tech
                    .map(|tech| PowerPoint::from_report(&setup.power_report(tech, &report))),
            };
            if let Some((cache, key)) = keyed {
                curve.misses += 1;
                // A failed append only loses future reuse, never this run.
                let _ = cache.put_at(key, &point);
            }
            point
        };
        if curve.zero_load == 0.0 {
            curve.zero_load = point.latency;
        }
        SweepPoint {
            setup: setup.name.clone(),
            pattern: traffic.name().to_string(),
            load,
            seed,
            latency: point.latency,
            p99_latency: point.p99_latency,
            throughput: point.throughput,
            avg_hops: point.avg_hops,
            acceptance: point.acceptance,
            delivered_packets: point.delivered_packets,
            dropped_packets: point.dropped_packets,
            saturated: saturation_heuristic(
                point.latency,
                point.acceptance,
                point.drained,
                point.delivered_packets,
                point.injected_packets,
                curve.zero_load,
            ),
            drained: point.drained,
            refined,
            power: point.power,
        }
    }
}

/// Refuses a spec list that names a curve twice: it would run twice and
/// interleave in [`CampaignResult::series`].
fn once<'a>(field: &str, names: impl Iterator<Item = &'a str>) -> Result<(), SpecError> {
    let mut seen = Vec::new();
    for name in names {
        if seen.contains(&name) {
            return Err(SpecError::Parse(format!("`{field}` lists `{name}` twice")));
        }
        seen.push(name);
    }
    Ok(())
}

/// Power/area columns of one power-aware sweep point, condensed from a
/// [`snoc_power::PowerReport`] driven by measured activity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerPoint {
    /// Total (static + dynamic) power in watts.
    pub power_w: f64,
    /// Static (leakage) power in watts.
    pub static_w: f64,
    /// Dynamic power in watts.
    pub dynamic_w: f64,
    /// Total network area in mm².
    pub area_mm2: f64,
    /// Delivered throughput per watt in flits/J (Table 5's metric).
    pub throughput_per_watt: f64,
    /// Network energy per delivered flit in joules.
    pub energy_per_flit_j: f64,
    /// Energy–delay product in J·s.
    pub edp_js: f64,
}

impl PowerPoint {
    /// Condenses a full power report into the sweep columns.
    #[must_use]
    pub fn from_report(r: &snoc_power::PowerReport) -> Self {
        PowerPoint {
            power_w: r.total_power_w(),
            static_w: r.static_power.total_w(),
            dynamic_w: r.dynamic_power.total_w(),
            area_mm2: r.area.total_mm2(),
            throughput_per_watt: r.throughput_per_power(),
            energy_per_flit_j: r.energy_per_flit(),
            edp_js: r.energy_delay(),
        }
    }

    /// The columns in schema order, under their sweep-JSON names.
    pub(crate) fn columns(&self) -> [(&'static str, f64); 7] {
        [
            ("power_w", self.power_w),
            ("static_w", self.static_w),
            ("dynamic_w", self.dynamic_w),
            ("area_mm2", self.area_mm2),
            ("throughput_per_watt", self.throughput_per_watt),
            ("energy_per_flit_j", self.energy_per_flit_j),
            ("edp_js", self.edp_js),
        ]
    }
}

/// One simulated point of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Setup name.
    pub setup: String,
    /// Pattern short name (`RND`, `ADV1`, …) or workload name (`fft`, …).
    pub pattern: String,
    /// Offered load in flits/node/cycle.
    pub load: f64,
    /// The derived per-point RNG seed (for exact reruns).
    pub seed: u64,
    /// Average packet latency in cycles.
    pub latency: f64,
    /// 99th-percentile packet latency in cycles.
    pub p99_latency: u64,
    /// Accepted throughput in flits/node/cycle.
    pub throughput: f64,
    /// Average network hops per packet.
    pub avg_hops: f64,
    /// Fraction of offered packets accepted into injection queues.
    pub acceptance: f64,
    /// Measured packets delivered.
    pub delivered_packets: u64,
    /// Packets dropped by live fault injection (`0` — and absent from
    /// the JSON line — on fault-free setups).
    pub dropped_packets: u64,
    /// Whether the point is past the saturation knee.
    pub saturated: bool,
    /// Whether the network fully drained.
    pub drained: bool,
    /// `true` for points added by adaptive knee refinement (as opposed
    /// to the base grid).
    pub refined: bool,
    /// Power/area columns (power-aware campaigns only).
    pub power: Option<PowerPoint>,
}

impl SweepPoint {
    /// The point as one compact JSON object — exactly the form embedded
    /// in [`CampaignResult::to_json`] point lines, and the form the
    /// campaign server streams per finished point.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut w = Writer::new(SWEEP_FLOATS);
        w.object(Inline)
            .field("setup", &self.setup)
            .field("pattern", &self.pattern)
            .field("load", self.load)
            .field("seed", self.seed)
            .field("latency", self.latency)
            .field("p99_latency", self.p99_latency)
            .field("throughput", self.throughput)
            .field("avg_hops", self.avg_hops)
            .field("acceptance", self.acceptance)
            .field("delivered_packets", self.delivered_packets)
            .field("saturated", self.saturated)
            .field("drained", self.drained)
            .field("refined", self.refined);
        if self.dropped_packets > 0 {
            w.field("dropped_packets", self.dropped_packets);
        }
        for (name, value) in self.power.iter().flat_map(PowerPoint::columns) {
            w.field(name, value);
        }
        w.finish()
    }
}

/// The structured result of a campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Campaign name.
    pub name: String,
    /// Setup names, in spec order.
    pub setups: Vec<String>,
    /// Pattern short names, then workload names, in spec order.
    pub patterns: Vec<String>,
    /// Warmup cycles per point.
    pub warmup: u64,
    /// Measured cycles per point.
    pub measure: u64,
    /// The campaign's base seed.
    pub base_seed: u64,
    /// The technology node of power-aware campaigns (`None` for plain
    /// latency sweeps; selects the v1 vs v2 JSON schema).
    pub tech: Option<TechNode>,
    /// Points of this run served from the content-addressed cache.
    /// Zero when no cache is attached. Deliberately *excluded* from
    /// [`CampaignResult::to_json`]: warm and cold runs of the same spec
    /// must serialize byte-identically.
    pub cache_hits: u64,
    /// Points of this run actually simulated while a cache was
    /// attached (and stored for future reuse). Zero when no cache is
    /// attached. Excluded from the JSON like [`cache_hits`].
    ///
    /// [`cache_hits`]: CampaignResult::cache_hits
    pub cache_misses: u64,
    /// All simulated points, grouped by curve, sorted by load within
    /// each curve.
    pub points: Vec<SweepPoint>,
}

impl CampaignResult {
    /// The points of one (setup, pattern) curve, in load order.
    pub fn curve<'a>(
        &'a self,
        setup: &'a str,
        pattern: &'a str,
    ) -> impl Iterator<Item = &'a SweepPoint> + 'a {
        self.points
            .iter()
            .filter(move |p| p.setup == setup && p.pattern == pattern)
    }

    /// The point of curve (setup, pattern) at exactly `load`: the grid
    /// value swept, or a workload's
    /// [`offered_flit_rate`](snoc_traffic::TraceWorkload::offered_flit_rate).
    #[must_use]
    pub fn point(&self, setup: &str, pattern: &str, load: f64) -> Option<&SweepPoint> {
        self.points
            .iter()
            .find(|p| p.setup == setup && p.pattern == pattern && p.load == load)
    }

    /// Latency-vs-load series for one pattern, one per setup in spec
    /// order, truncated at saturation (figure convention: "we omit
    /// performance data for points after network saturation").
    #[must_use]
    pub fn series(&self, pattern: &str) -> Vec<Series> {
        self.setups
            .iter()
            .map(|name| {
                let mut s = Series::new(name.clone());
                for p in self.curve(name, pattern) {
                    if p.saturated {
                        break;
                    }
                    s.push(p.load, p.latency);
                }
                s
            })
            .collect()
    }

    /// The measured saturation-knee estimate for one curve: the highest
    /// unsaturated load bracketed by a saturated one. `None` when the
    /// curve never saturated.
    #[must_use]
    pub fn knee(&self, setup: &str, pattern: &str) -> Option<f64> {
        let first_sat = self
            .curve(setup, pattern)
            .find(|p| p.saturated)
            .map(|p| p.load)?;
        self.curve(setup, pattern)
            .filter(|p| !p.saturated && p.load < first_sat)
            .map(|p| p.load)
            .reduce(f64::max)
    }

    /// The highest accepted throughput on one curve: the saturation-
    /// throughput estimate of a curve swept past its knee
    /// ([`CampaignSpec::stop_at_saturation`] off). `0.0` for a
    /// curve without points.
    #[must_use]
    pub fn peak_throughput(&self, setup: &str, pattern: &str) -> f64 {
        self.curve(setup, pattern)
            .map(|p| p.throughput)
            .fold(0.0, f64::max)
    }

    /// Serializes the full result as JSON through
    /// [`json::Writer`](crate::json::Writer).
    ///
    /// Plain latency campaigns emit schema `slim_noc-sweep-v1`.
    /// Power-aware campaigns ([`CampaignSpec::power_tech`]) emit
    /// `slim_noc-sweep-v2`, a strict superset: every v1 field keeps its
    /// name, order, and units, and each point gains trailing power/area
    /// columns (`power_w`, `static_w`, `dynamic_w`, `area_mm2`,
    /// `throughput_per_watt` in flits/J, `energy_per_flit_j`, `edp_js`)
    /// plus a top-level `tech` entry. v1 consumers that index by field
    /// name parse v2 unchanged.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_json_with(SweepPoint::to_json_line)
    }

    /// [`CampaignResult::to_json`] with each point's line supplied by
    /// `line` — a caller that already rendered
    /// [`SweepPoint::to_json_line`] (the server streamed it) hands the
    /// same text back instead of paying for it twice.
    #[must_use]
    pub fn to_json_with<L: fmt::Display>(&self, mut line: impl FnMut(&SweepPoint) -> L) -> String {
        let mut w = Writer::new(SWEEP_FLOATS);
        let schema = match self.tech {
            Some(_) => "slim_noc-sweep-v2",
            None => "slim_noc-sweep-v1",
        };
        w.object(Lines)
            .field("schema", schema)
            .field("campaign", &self.name)
            .key("setups")
            .list_of(&self.setups)
            .key("patterns")
            .list_of(&self.patterns)
            .field("warmup", self.warmup)
            .field("measure", self.measure)
            .field("base_seed", self.base_seed);
        if let Some(tech) = self.tech {
            w.field("tech", &tech.to_string());
        }
        // No points: the list still closes on a line of its own.
        w.key("points").list(Lines);
        for p in &self.points {
            w.item(Raw(line(p)));
        }
        w.finish() + "\n"
    }
}

/// The sweep documents' float rule: six decimals of
/// [`format_float`](crate::format_float), NaN and ±∞ as `null` (which
/// downstream tooling treats as missing).
const SWEEP_FLOATS: Floats = Floats::Decimals(6);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SetupSpec;

    fn tiny_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::new("unit");
        spec.setups = vec![SetupSpec::new("sn54")];
        spec.patterns = vec![TrafficPattern::Random];
        spec.loads = vec![0.02, 0.05];
        (spec.warmup, spec.measure) = (150, 500);
        spec
    }

    fn tiny_campaign() -> Campaign {
        Campaign::from_spec(&tiny_spec()).expect("valid spec")
    }

    fn powered_campaign() -> Campaign {
        let spec = CampaignSpec {
            power_tech: Some(TechNode::N45),
            ..tiny_spec()
        };
        Campaign::from_spec(&spec).expect("valid spec")
    }

    #[test]
    fn seeds_depend_on_every_coordinate() {
        let c = tiny_campaign();
        let base = c.point_seed("sn54", TrafficPattern::Random, 0.02);
        assert_ne!(base, c.point_seed("sn54", TrafficPattern::Random, 0.05));
        assert_ne!(base, c.point_seed("sn_s", TrafficPattern::Random, 0.02));
        assert_ne!(
            base,
            c.point_seed("sn54", TrafficPattern::Adversarial1, 0.02)
        );
        assert_ne!(
            base,
            c.clone()
                .with_seed(1)
                .point_seed("sn54", TrafficPattern::Random, 0.02)
        );
        // And stable: the same coordinates always hash identically.
        assert_eq!(base, c.point_seed("sn54", TrafficPattern::Random, 0.02));
    }

    #[test]
    fn run_produces_grid_points_in_order() {
        let r = tiny_campaign().run();
        assert_eq!(r.points.len(), 2);
        assert_eq!(r.points[0].load, 0.02);
        assert_eq!(r.points[1].load, 0.05);
        assert!(r.points.iter().all(|p| p.delivered_packets > 0));
        assert!(r.points.iter().all(|p| !p.refined));
    }

    #[test]
    fn campaigns_share_tables_and_a_warm_run_builds_nothing() {
        let dir = std::env::temp_dir().join(format!("snoc_sweep_shared_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = tiny_spec();
        spec.setups.push(SetupSpec::new("fbf3"));
        spec.patterns.push(TrafficPattern::Adversarial1);
        spec.threads = 1; // the calling thread is the one worker
        spec.cache_dir = Some(dir.display().to_string());
        let campaign = || Campaign::from_spec(&spec).expect("valid spec");
        let built = || crate::setup::tests::SIMULATORS_BUILT.with(std::cell::Cell::get);
        let before = built();
        // Cold: 2 curves × 2 loads per setup all miss; the worker builds
        // one simulator per setup and resets it for the other three.
        let first = campaign();
        let cold = first.run();
        assert_eq!((cold.cache_hits, cold.cache_misses), (0, 8));
        assert_eq!(built() - before, 2);
        // Two campaigns from one spec hold one table per setup, each
        // its own setup's.
        let second = campaign();
        for (a, b) in first.setups().iter().zip(second.setups()) {
            let table = a.minimal_table();
            assert!(Arc::ptr_eq(&table, &b.minimal_table()));
            let r0 = snoc_topology::RouterId(0);
            assert_eq!(table.port_count(r0), a.topology.neighbors(r0).len());
        }
        // Warm: every point replays, so no simulator is built — and a
        // campaign fetches a table only to build one.
        let warm = second.run();
        assert_eq!((warm.cache_hits, warm.cache_misses), (8, 0));
        assert_eq!(built() - before, 2);
        assert_eq!(warm.to_json(), cold.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn series_truncates_at_saturation() {
        let mut r = tiny_campaign().run();
        // Forge a saturated tail point.
        let mut sat = r.points[1].clone();
        sat.load = 0.9;
        sat.saturated = true;
        r.points.push(sat);
        let series = r.series("RND");
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].points.len(), 2, "saturated point dropped");
        assert_eq!(r.knee("sn54", "RND"), Some(0.05));
    }

    #[test]
    fn duplicate_setup_names_are_refused() {
        let mut spec = tiny_spec();
        spec.setups.push(SetupSpec {
            smart: true,
            ..SetupSpec::new("sn54")
        });
        assert!(matches!(
            Campaign::from_spec(&spec),
            Err(SpecError::DuplicateSetup(name)) if name == "sn54"
        ));
    }

    #[test]
    fn knee_is_none_without_saturation() {
        let r = tiny_campaign().run();
        assert_eq!(r.knee("sn54", "RND"), None);
    }

    #[test]
    fn peak_throughput_is_the_maximum_over_its_own_curve() {
        let point = |setup: &str, pattern: &str, load: f64, throughput: f64| SweepPoint {
            setup: setup.to_string(),
            pattern: pattern.to_string(),
            load,
            seed: 0,
            latency: 20.0,
            p99_latency: 40,
            throughput,
            avg_hops: 2.0,
            acceptance: 1.0,
            delivered_packets: 100,
            dropped_packets: 0,
            saturated: false,
            drained: true,
            refined: false,
            power: None,
        };
        let r = CampaignResult {
            name: "hand-built".to_string(),
            setups: vec!["sn54".to_string(), "t2d54".to_string()],
            patterns: vec!["RND".to_string(), "ADV1".to_string()],
            warmup: 0,
            measure: 0,
            base_seed: 0,
            tech: None,
            cache_hits: 0,
            cache_misses: 0,
            // Throughput falls again past the knee: the peak is not the
            // last point.
            points: vec![
                point("sn54", "RND", 0.1, 0.10),
                point("sn54", "RND", 0.4, 0.31),
                point("sn54", "RND", 0.8, 0.27),
                point("sn54", "ADV1", 0.4, 0.90),
                point("t2d54", "RND", 0.4, 0.95),
            ],
        };
        assert_eq!(r.peak_throughput("sn54", "RND"), 0.31);
        assert_eq!(r.peak_throughput("sn54", "ADV1"), 0.90);
        assert_eq!(r.peak_throughput("cm54", "RND"), 0.0, "unknown curve");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let r = tiny_campaign().run();
        let json = r.to_json();
        assert!(json.contains("\"schema\": \"slim_noc-sweep-v1\""));
        assert!(json.contains("\"campaign\": \"unit\""));
        assert_eq!(json.matches("\"setup\":").count(), 2);
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn power_campaign_attaches_measured_power_columns() {
        let r = powered_campaign().run();
        assert_eq!(r.tech, Some(TechNode::N45));
        for p in &r.points {
            let pw = p.power.expect("power-aware point");
            assert!(pw.power_w > 0.0 && pw.power_w.is_finite());
            assert!(pw.static_w > 0.0);
            assert!(pw.dynamic_w > 0.0, "activity must be measured");
            assert!(pw.area_mm2 > 0.0);
            assert!(pw.throughput_per_watt > 0.0);
            assert!(pw.energy_per_flit_j > 0.0);
            assert!(pw.edp_js > 0.0);
            assert!((pw.power_w - (pw.static_w + pw.dynamic_w)).abs() < 1e-12);
        }
        // More load, more measured activity, more dynamic power.
        let d = |i: usize| r.points[i].power.unwrap().dynamic_w;
        assert!(d(1) > d(0), "dynamic power grows with load");
    }

    #[test]
    fn plain_campaign_has_no_power_columns_and_v1_schema() {
        let r = tiny_campaign().run();
        assert_eq!(r.tech, None);
        assert!(r.points.iter().all(|p| p.power.is_none()));
        assert!(r.to_json().contains("\"schema\": \"slim_noc-sweep-v1\""));
        assert!(!r.to_json().contains("power_w"));
    }

    #[test]
    fn v2_json_is_a_superset_of_v1() {
        let v2 = powered_campaign().run();
        let json = v2.to_json();
        assert!(json.contains("\"schema\": \"slim_noc-sweep-v2\""));
        assert!(json.contains("\"tech\": \"45nm\""));
        for field in [
            "power_w",
            "static_w",
            "dynamic_w",
            "area_mm2",
            "throughput_per_watt",
            "energy_per_flit_j",
            "edp_js",
        ] {
            assert_eq!(
                json.matches(&format!("\"{field}\":")).count(),
                v2.points.len(),
                "{field} on every point"
            );
        }
        // Strict v1 compatibility: stripping the power columns and the
        // tech header yields exactly the v1 serialization of the same
        // points.
        let mut v1 = v2.clone();
        v1.tech = None;
        for p in &mut v1.points {
            p.power = None;
        }
        let v1_json = v1.to_json();
        for (l2, l1) in json
            .lines()
            .filter(|l| !l.contains("\"tech\":"))
            .zip(v1_json.lines())
        {
            if l2.contains("\"schema\":") {
                continue;
            }
            let stripped = match l2.find(", \"power_w\":") {
                Some(idx) => {
                    let tail = if l2.ends_with("},") { "}," } else { "}" };
                    format!("{}{}", &l2[..idx], tail)
                }
                None => l2.to_string(),
            };
            assert_eq!(stripped, l1, "v2 line must reduce to its v1 form");
        }
    }
}
