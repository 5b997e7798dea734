//! The two cold-campaign workloads (`fig_cold`, `lowload_grid`) and the
//! unrolled campaign twin every campaign-shaped workload traces with.

use crate::inputs::Paths;
use crate::timing::Stopwatch;
use crate::trace::{Layer, Recorder, SpanId};
use crate::workload::{check_report, Counts, Pass, Twin, Workload};
use snoc_core::{
    CachedPoint, Campaign, CampaignResult, CampaignSpec, PointCache, PointCoord, PowerPoint, Setup,
    SweepPoint,
};
use snoc_sim::{saturation_heuristic, RoutingTable};
use snoc_traffic::TrafficPattern;
use std::collections::HashMap;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// A cold campaign as a user reproducing §5 runs it: one spec file
/// through `Campaign::from_spec(..).run_observed`, no cache.
pub struct CampaignWorkload {
    name: &'static str,
    spec_text: String,
    /// The last pass's result, for [`Workload::verify_once`].
    last: Option<CampaignResult>,
}

impl CampaignWorkload {
    pub fn setup(name: &str, paths: &Paths) -> Result<Self, String> {
        let name = crate::workload::NAMES
            .into_iter()
            .find(|n| *n == name)
            .expect("a campaign workload name");
        let spec_text = std::fs::read_to_string(paths.campaign_spec(name))
            .map_err(|e| format!("{name}: read spec: {e}"))?;
        // Parse and build once so a bad input fails here, not mid-pass.
        let spec = CampaignSpec::from_json(&spec_text).map_err(|e| e.to_string())?;
        Campaign::from_spec(&spec).map_err(|e| e.to_string())?;
        Ok(CampaignWorkload {
            name,
            spec_text,
            last: None,
        })
    }

    fn pass_on(&mut self, threads: Option<usize>) -> Pass {
        let (pass, result) = run_spec_text(&self.spec_text, threads);
        self.last = result;
        pass
    }
}

/// Completion times seen by the campaign observer.
pub struct Observed {
    /// Each worker thread's previous completion.
    last: HashMap<ThreadId, Instant>,
    pub ops: Vec<(String, f64)>,
    pub first_op_s: Option<f64>,
}

/// Runs a built campaign that started (parse and build included) at
/// `start`. An op is a campaign point; its time is the gap to the
/// previous completion on the same worker thread (`start` for a
/// thread's first point).
pub fn run_timed(campaign: &Campaign, start: Instant) -> (CampaignResult, Observed) {
    let seen = Mutex::new(Observed {
        last: HashMap::new(),
        ops: Vec::new(),
        first_op_s: None,
    });
    let result = campaign.run_observed(|p| {
        let now = Instant::now();
        let mut seen = seen.lock().expect("observer lock");
        let prev = seen
            .last
            .insert(std::thread::current().id(), now)
            .unwrap_or(start);
        seen.ops.push((op_key(p), (now - prev).as_secs_f64()));
        seen.first_op_s
            .get_or_insert_with(|| (now - start).as_secs_f64());
    });
    (result, seen.into_inner().expect("observer lock"))
}

/// The id of a campaign point, the same in every pass.
fn op_key(p: &SweepPoint) -> String {
    format!("{}|{}|{:016x}", p.setup, p.pattern, p.load.to_bits())
}

/// Runs one spec text as a timed pass through [`run_timed`].
pub fn run_spec_text(spec_text: &str, threads: Option<usize>) -> (Pass, Option<CampaignResult>) {
    let sw = Stopwatch::start();
    let start = sw.wall_start();
    let run = || -> Result<_, String> {
        let mut spec = CampaignSpec::from_json(spec_text).map_err(|e| e.to_string())?;
        if let Some(t) = threads {
            spec.threads = t;
        }
        let campaign = Campaign::from_spec(&spec).map_err(|e| e.to_string())?;
        let (result, seen) = run_timed(&campaign, start);
        let json = result.to_json();
        Ok((result, json, seen))
    };
    let outcome = run();
    let (wall_s, cpu_s) = sw.stop();
    match outcome {
        Ok((result, json, seen)) => {
            let mut failures = Vec::new();
            for p in &result.points {
                if !p.saturated && !p.drained {
                    failures.push(format!("{}: unsaturated point not drained", op_key(p)));
                }
            }
            if seen.ops.len() != result.points.len() {
                failures.push(format!(
                    "observer saw {} points, result holds {}",
                    seen.ops.len(),
                    result.points.len()
                ));
            }
            let pass = Pass {
                wall_s,
                cpu_s,
                first_op_s: seen.first_op_s.unwrap_or(wall_s),
                window_cycles: (result.warmup + result.measure) * result.points.len() as u64,
                ops: seen.ops,
                result: json,
                failed_ops: failures.len(),
                failures,
            };
            (pass, Some(result))
        }
        Err(e) => (
            Pass {
                wall_s,
                cpu_s,
                first_op_s: wall_s,
                ops: vec![("campaign".to_string(), wall_s)],
                window_cycles: 0,
                result: String::new(),
                failures: vec![e],
                failed_ops: 1,
            },
            None,
        ),
    }
}

impl Workload for CampaignWorkload {
    fn pass(&mut self) -> Pass {
        self.pass_on(None)
    }

    fn reference_pass(&mut self) -> Pass {
        self.pass_on(Some(1))
    }

    fn twin(&mut self, rec: &mut Recorder) -> Result<Twin, String> {
        let root = rec.open("twin.pass", Layer::Root, None);
        let twin = campaign_twin(&self.spec_text, None, rec, root);
        rec.close(root);
        twin
    }

    /// Re-runs a handful of the last pass's points directly through
    /// `Setup::run_load` with the point's own seed: an independent path
    /// to the same numbers.
    fn verify_once(&mut self) -> Vec<String> {
        let Some(result) = &self.last else {
            return vec![format!("{}: no completed pass to verify", self.name)];
        };
        let spec = CampaignSpec::from_json(&self.spec_text).expect("spec parsed at setup");
        let mut failures = Vec::new();
        let step = (result.points.len() / 6).max(1);
        for p in result.points.iter().step_by(step) {
            let recipe = spec
                .setups
                .iter()
                .find(|s| s.name == p.setup)
                .expect("point names a spec setup");
            let pattern = TrafficPattern::from_short_name(&p.pattern).expect("spec pattern");
            let setup = recipe.build().expect("built at setup").with_seed(p.seed);
            let report = setup.run_load(pattern, p.load, spec.warmup, spec.measure);
            if let Err(e) = check_report(&op_key(p), &report) {
                failures.push(e);
            }
            let same = report.avg_packet_latency().to_bits() == p.latency.to_bits()
                && report.throughput().to_bits() == p.throughput.to_bits()
                && report.delivered_packets == p.delivered_packets
                && report.dropped_packets == p.dropped_packets
                && report.drained == p.drained;
            if !same {
                failures.push(format!(
                    "{}: direct run_load disagrees with the campaign point",
                    op_key(p)
                ));
            }
        }
        failures
    }

    /// `fig_cold` runs on two threads: its bytes must not depend on it.
    fn cross_checks(&mut self) -> Vec<String> {
        let (two, one) = (self.pass_on(Some(2)), self.pass_on(Some(1)));
        if two.result == one.result {
            Vec::new()
        } else {
            vec![format!("{}: 1-thread and 2-thread bytes differ", self.name)]
        }
    }
}

/// The unrolled twin of `Campaign::from_spec(spec).run().to_json()` on
/// one thread and the monolithic engine: the same curve walk, knee
/// refinement, seeds, cache protocol and result assembly as
/// `snoc_core::sweep`, spelled out over the lower public API with a
/// span around every call. Its JSON must be byte-identical to the
/// campaign's — that identity is what makes its time split trustworthy.
pub fn campaign_twin(
    spec_text: &str,
    cache: Option<&PointCache>,
    rec: &mut Recorder,
    parent: SpanId,
) -> Result<Twin, String> {
    let (_, spec) = rec.time("core.spec.from_json", Layer::CoreSpecJson, parent, || {
        CampaignSpec::from_json(spec_text)
    });
    let spec = spec.map_err(|e| e.to_string())?;
    if spec.shards != 1 {
        return Err("the campaign twin unrolls the monolithic engine only".to_string());
    }
    let mut setups = Vec::with_capacity(spec.setups.len());
    for recipe in &spec.setups {
        let (id, setup) = rec.time("core.spec.build", Layer::CoreSpecJson, parent, || {
            recipe.build()
        });
        setups.push(setup.map_err(|e| e.to_string())?);
        let desc = rec.beside("topology.paper_config", Layer::FieldTopology, id, || {
            snoc_topology::paper_config(&recipe.config)
        });
        let desc = desc.map_err(|e| e.to_string())?;
        rec.beside("layout.natural", Layer::Layout, id, || {
            snoc_layout::Layout::natural(&desc.topology)
        });
    }
    let mut twin = TwinRun {
        seeder: Campaign::new(spec.name.clone()).with_seed(spec.base_seed),
        tech_name: spec.power_tech.map(|t| t.to_string()),
        spec: &spec,
        cache,
        rec,
        counts: Counts::default(),
        hits: 0,
        misses: 0,
        failures: Vec::new(),
    };
    let mut points = Vec::new();
    for setup in &setups {
        for &pattern in &spec.patterns {
            points.extend(twin.curve(setup, pattern, parent)?);
        }
    }
    let TwinRun {
        rec,
        counts,
        hits,
        misses,
        failures,
        ..
    } = twin;
    let result = CampaignResult {
        name: spec.name.clone(),
        setups: setups.iter().map(|s| s.name.clone()).collect(),
        patterns: spec
            .patterns
            .iter()
            .map(|p| p.short_name().to_string())
            .collect(),
        warmup: spec.warmup,
        measure: spec.measure,
        base_seed: spec.base_seed,
        tech: spec.power_tech,
        cache_hits: hits,
        cache_misses: misses,
        points,
    };
    let (_, json) = rec.time("core.sweep.to_json", Layer::CoreSpecJson, parent, || {
        result.to_json()
    });
    Ok(Twin {
        root: parent,
        result: json,
        counts,
        cache_hits: hits,
        cache_misses: misses,
        failures,
    })
}

struct TwinRun<'a> {
    /// Only for `Campaign::point_seed`, which reads nothing but the
    /// base seed.
    seeder: Campaign,
    tech_name: Option<String>,
    spec: &'a CampaignSpec,
    cache: Option<&'a PointCache>,
    rec: &'a mut Recorder,
    counts: Counts,
    hits: u64,
    misses: u64,
    failures: Vec<String>,
}

impl TwinRun<'_> {
    /// `Campaign::run_curve`: the grid sweep, then the knee bisection.
    fn curve(
        &mut self,
        setup: &Setup,
        pattern: TrafficPattern,
        parent: SpanId,
    ) -> Result<Vec<SweepPoint>, String> {
        let mut points = Vec::new();
        let mut zero_load = 0.0;
        let (mut last_ok, mut first_sat) = (None, None);
        for &load in &self.spec.loads {
            let point = self.point(setup, pattern, load, false, &mut zero_load, parent)?;
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
        if let (Some(mut lo), Some(mut hi)) = (last_ok, first_sat) {
            for _ in 0..self.spec.refine_rounds {
                let mid = 0.5 * (lo + hi);
                let point = self.point(setup, pattern, mid, true, &mut zero_load, parent)?;
                if point.saturated {
                    hi = mid;
                } else {
                    lo = mid;
                }
                points.push(point);
            }
        }
        points.sort_by(|a, b| a.load.total_cmp(&b.load));
        Ok(points)
    }

    /// `Campaign::run_point`: key → get → (clone+seed → build → run →
    /// power → put) → point.
    fn point(
        &mut self,
        setup: &Setup,
        pattern: TrafficPattern,
        load: f64,
        refined: bool,
        zero_load: &mut f64,
        parent: SpanId,
    ) -> Result<SweepPoint, String> {
        let spec = self.spec;
        let at = self
            .rec
            .open("core.sweep.run_point", Layer::CoreSweep, Some(parent));
        let seed = self.seeder.point_seed(&setup.name, pattern, load);
        let key = self.cache.and_then(|cache| {
            let tech = self.tech_name.as_deref();
            let (_, key) = self.rec.time("core.cache.key", Layer::CoreCache, at, || {
                let setup_spec = setup.to_spec()?.canonical_json();
                Some(cache.key(&PointCoord {
                    setup_spec: &setup_spec,
                    pattern: pattern.short_name(),
                    load,
                    warmup: spec.warmup,
                    measure: spec.measure,
                    base_seed: spec.base_seed,
                    shards: spec.shards,
                    tech,
                }))
            });
            key.map(|k| (cache, k))
        });
        // What the point is assembled from: the stored numbers on a
        // hit, else a simulation's.
        let stored = key.as_ref().and_then(|(cache, key)| {
            let get = || cache.get(key);
            self.rec.time("core.cache.get", Layer::CoreCache, at, get).1
        });
        let cached = match stored {
            Some(hit) => {
                self.hits += 1;
                hit
            }
            None => self.simulate(setup, pattern, load, seed, key.as_ref(), at)?,
        };
        let (_, point) = self.rec.time("core.sweep.point", Layer::CoreSweep, at, || {
            if *zero_load == 0.0 {
                *zero_load = cached.latency;
            }
            SweepPoint {
                setup: setup.name.clone(),
                pattern: pattern.short_name().to_string(),
                load,
                seed,
                latency: cached.latency,
                p99_latency: cached.p99_latency,
                throughput: cached.throughput,
                avg_hops: cached.avg_hops,
                acceptance: cached.acceptance,
                delivered_packets: cached.delivered_packets,
                dropped_packets: cached.dropped_packets,
                saturated: saturation_heuristic(
                    cached.latency,
                    cached.acceptance,
                    cached.drained,
                    cached.delivered_packets,
                    cached.injected_packets,
                    *zero_load,
                ),
                drained: cached.drained,
                refined,
                power: cached.power,
            }
        });
        self.rec.close(at);
        Ok(point)
    }

    /// The miss path: clone+seed → build → run → power → put.
    fn simulate(
        &mut self,
        setup: &Setup,
        pattern: TrafficPattern,
        load: f64,
        seed: u64,
        key: Option<&(&PointCache, String)>,
        at: SpanId,
    ) -> Result<CachedPoint, String> {
        let spec = self.spec;
        let (_, seeded) = self
            .rec
            .time("core.setup.clone_seed", Layer::CoreSweep, at, || {
                setup.clone().with_seed(seed)
            });
        let (build, sim) = self
            .rec
            .time("sim.build", Layer::SimBuild, at, || seeded.simulator());
        let mut sim = sim.map_err(|e| format!("{}: {e}", setup.name))?;
        self.rec
            .beside("sim.routing.minimal", Layer::SimRouting, build, || {
                RoutingTable::minimal(&seeded.topology)
            });
        let (_, report) = self.rec.time("sim.run", Layer::SimRun, at, || {
            sim.run_synthetic(pattern, load, spec.warmup, spec.measure)
        });
        self.counts.add(&report);
        let what = format!("{}|{}|{load}", setup.name, pattern.short_name());
        if let Err(e) = check_report(&what, &report) {
            self.failures.push(e);
        }
        let power = spec.power_tech.map(|tech| {
            let evaluate = || PowerPoint::from_report(&seeded.power_report(tech, &report));
            self.rec
                .time("power.evaluate", Layer::Power, at, evaluate)
                .1
        });
        let cached = CachedPoint {
            latency: report.avg_packet_latency(),
            p99_latency: report.latency_percentile(0.99),
            throughput: report.throughput(),
            avg_hops: report.avg_hops(),
            acceptance: report.acceptance(),
            delivered_packets: report.delivered_packets,
            dropped_packets: report.dropped_packets,
            injected_packets: report.injected_packets,
            drained: report.drained,
            power,
        };
        if let Some((cache, key)) = key {
            self.misses += 1;
            let put = || cache.put(key, &cached);
            let (_, stored) = self.rec.time("core.cache.put", Layer::CoreCache, at, put);
            stored.map_err(|e| format!("cache put: {e}"))?;
        }
        Ok(cached)
    }
}
