//! One benchmark run: set-up, timed passes (or the traced twin),
//! checks, and the reduction to the contract's metrics.

use crate::contract::{Contract, MetricDef};
use crate::inputs::{self, Scale};
use crate::probes;
use crate::timing::{
    deflated_floors, fnv64, median_sorted, peak_rss_mib, quartiles, tail_sorted, OpFloors,
};
use crate::trace::{Layer, Recorder};
use crate::workload::{self, Env, Pass, Workload};
use std::fmt::Write as _;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their floor ([`SetupTimes::floor_s`]).
/// The workload is set up again between passes — so the samples spread over the run like every
/// other floor's — up to [`SETUPS_PER_GAP`] times or [`GAP_S`] seconds
/// per gap while the set-ups together stay within [`SETUP_BUDGET`] of
/// the run, and at least [`MIN_SETUPS`] times whatever they cost.
const MIN_SETUPS: usize = 3;
const SETUPS_PER_GAP: usize = 8;
const GAP_S: f64 = 0.02;
const SETUP_BUDGET: f64 = 1.0 / 3.0;
/// Passes every full-size run completes, however slow the host. Peak
/// RSS is sampled right after them, so it does not depend on how many
/// more passes the time box admits.
const MIN_PASSES: usize = 3;

pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// The time box for starting passes.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// Everything one run reports.
pub struct Report {
    pub config: RunConfig,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    /// `(name, value)` of every measured metric.
    pub metrics: Vec<(String, f64)>,
    /// FNV digest of the result bytes, equal across all passes.
    pub result_digest: u64,
    /// Informational fields for the `--out` line (name, JSON value).
    pub info: Vec<(&'static str, String)>,
    /// The twin's spans (traced runs).
    pub spans: Option<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The metric definitions this run answers to.
    fn defs<'a>(&self, contract: &'a Contract) -> &'a [MetricDef] {
        if self.config.trace {
            &contract.per_layer
        } else {
            &contract.end_to_end
        }
    }

    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self, contract: &Contract) -> Result<String, String> {
        let bound = Contract::bind(self.defs(contract), &self.metrics)?;
        let metrics: Vec<String> = bound
            .iter()
            .map(|(def, value)| {
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    def.name, def.unit
                )
            })
            .collect();
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }

    /// The `--out` line: the result line's fields plus the run's
    /// identity, pass statistics and (traced) spans.
    pub fn out_line(&self, contract: &Contract) -> Result<String, String> {
        let result = self.result_line(contract)?;
        let mut out = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"smoke\": {}, \
             \"result_digest\": \"{:016x}\"",
            self.config.workload,
            self.config.seed,
            u8::from(self.config.trace),
            self.config.scale.smoke,
            self.result_digest
        );
        for (name, value) in &self.info {
            let _ = write!(out, ", \"{name}\": {value}");
        }
        if let Some(spans) = &self.spans {
            let _ = write!(out, ", \"spans\": {spans}");
        }
        // Splice the result line's fields in after the opening brace.
        let _ = write!(out, ", {}", &result[1..]);
        Ok(out)
    }

    /// Every metric by name with its unit, for people.
    pub fn human(&self, contract: &Contract) -> String {
        let mut out = format!(
            "workload {} seed {} ({})\n",
            self.config.workload,
            self.config.seed,
            if self.config.trace {
                "traced twin, per-layer"
            } else {
                "untraced, end-to-end"
            }
        );
        let _ = writeln!(out, "  result_digest {:016x}", self.result_digest);
        // Long fields (the per-op floors) are for the `--out` line only.
        for (name, value) in self.info.iter().filter(|(_, v)| v.len() <= 200) {
            let _ = writeln!(out, "  {name} {value}");
        }
        for def in self.defs(contract) {
            match self.metrics.iter().find(|(n, _)| *n == def.name) {
                Some((_, v)) => {
                    let _ = writeln!(out, "  {:<36} {v:>16.6} {}", def.name, def.unit);
                }
                None => {
                    let _ = writeln!(out, "  {:<36} {:>16}", def.name, "MISSING");
                }
            }
        }
        let _ = writeln!(
            out,
            "  ops attempted {} failed {} (op_fail_share {})",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for f in self.failures.iter().take(20) {
            let _ = writeln!(out, "  FAILED: {f}");
        }
        out
    }
}

/// One timed set-up: input generation, then everything the workload
/// prepares before its first pass. Returns the workload and the seconds
/// it took.
fn timed_setup(config: &RunConfig, env: &mut Env) -> Result<(Box<dyn Workload>, f64), String> {
    let t = Instant::now();
    inputs::generate(&env.paths, &config.workload, config.seed, config.scale)
        .map_err(|e| format!("generate inputs: {e}"))?;
    let workload = workload::setup(&config.workload, env)?;
    Ok((workload, t.elapsed().as_secs_f64()))
}

/// The set-ups of one run and the ops they timed.
#[derive(Default)]
struct SetupTimes {
    /// `(wall, 0, sum of op seconds)` per set-up, as
    /// [`deflated_floors`] takes passes.
    times: Vec<(f64, f64, f64)>,
    floors: OpFloors,
}

impl SetupTimes {
    fn record(&mut self, workload: &dyn Workload, took_s: f64) {
        let ops = workload.setup_ops();
        self.floors.record_pass(ops);
        let op_sum_s = ops.iter().map(|(_, secs)| secs).sum();
        self.times.push((took_s, 0.0, op_sum_s));
    }

    fn spent_s(&self) -> f64 {
        self.times.iter().map(|t| t.0).sum()
    }

    fn fastest_s(&self) -> f64 {
        self.times.iter().map(|t| t.0).fold(f64::INFINITY, f64::min)
    }

    /// The fastest set-up after each is deflated by the slowdown its
    /// own ops measured, like a pass; plainly the fastest when the
    /// set-up times no ops.
    fn floor_s(&self) -> f64 {
        deflated_floors(&self.times, self.floors.sorted().iter().sum()).0
    }
}

/// The run's tallies: ops attempted and failed, the failures' messages,
/// and the result digest every pass must repeat.
struct Tally {
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    digest: Option<u64>,
}

impl Tally {
    fn new() -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            digest: None,
        }
    }

    fn pass(&mut self, what: &str, pass: &Pass) {
        self.attempted += pass.ops.len();
        self.failed += pass.failed_ops;
        self.failures
            .extend(pass.failures.iter().map(|f| format!("{what}: {f}")));
        let digest = fnv64(pass.result.as_bytes());
        if *self.digest.get_or_insert(digest) != digest {
            // Every op of a pass whose bytes moved is suspect.
            self.failed += pass.ops.len() - pass.failed_ops;
            self.failures
                .push(format!("{what}: result_digest {digest:016x} differs"));
        }
    }

    fn check(&mut self, failures: Vec<String>) {
        self.failed += failures.len();
        self.failures.extend(failures);
    }
}

/// The untraced run: the end-to-end metrics.
pub fn untraced(config: RunConfig, env: &mut Env) -> Result<Report, String> {
    let smoke = config.scale.smoke;
    let (mut workload, took_s) = timed_setup(&config, env)?;
    let mut setups = SetupTimes::default();
    setups.record(workload.as_ref(), took_s);
    let mut tally = Tally::new();
    let mut floors = OpFloors::default();
    let mut walls = Vec::new();
    // `(wall, cpu, sum of op seconds)` per pass, for the deflated floors.
    let mut pass_times = Vec::new();
    let mut first_op_s = f64::INFINITY;
    let mut rss_mib = None;
    let (mut ops_per_pass, mut window_cycles);
    // Seconds of the box spent: the passes' timed sections only, so
    // neither set-ups nor checks eat into the number of passes.
    let mut spent_s = 0.0;
    loop {
        let pass = workload.pass();
        tally.pass(&format!("pass {}", walls.len() + 1), &pass);
        floors.record_pass(&pass.ops);
        walls.push(pass.wall_s);
        let op_sum_s: f64 = pass.ops.iter().map(|(_, secs)| secs).sum();
        pass_times.push((pass.wall_s, pass.cpu_s, op_sum_s));
        first_op_s = first_op_s.min(pass.first_op_s);
        (ops_per_pass, window_cycles) = (pass.ops.len(), pass.window_cycles);
        if walls.len() == MIN_PASSES {
            rss_mib = Some(peak_rss_mib());
        }
        spent_s += pass.wall_s;
        let floor = walls.iter().copied().fold(f64::INFINITY, f64::min);
        // Start another pass only if its floor still fits the box.
        if smoke || (walls.len() >= MIN_PASSES && spent_s + floor > config.seconds) {
            break;
        }
        let mut gap_s = 0.0;
        for _ in 0..SETUPS_PER_GAP {
            let affordable = setups.spent_s() + setups.fastest_s() <= SETUP_BUDGET * config.seconds;
            if gap_s >= GAP_S || (setups.times.len() >= MIN_SETUPS && !affordable) {
                break;
            }
            // Free the previous set-up first: two live copies would
            // inflate the peak RSS the run reports.
            drop(workload);
            let took_s;
            (workload, took_s) = timed_setup(&config, env)?;
            setups.record(workload.as_ref(), took_s);
            gap_s += took_s;
        }
    }
    tally.check(workload.verify_once());

    let fastest_s = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let ops = floors.sorted();
    let op_floor_sum_s: f64 = ops.iter().sum();
    let (wall_s, cpu_s) = deflated_floors(&pass_times, op_floor_sum_s);
    let (tail_s, beyond) = tail_sorted(&ops);
    let metrics = vec![
        ("wall_s".to_string(), wall_s),
        ("cpu_s".to_string(), cpu_s),
        ("setup_s".to_string(), setups.floor_s()),
        (
            "peak_rss_mb".to_string(),
            rss_mib.unwrap_or_else(peak_rss_mib),
        ),
        ("ops_per_s".to_string(), ops_per_pass as f64 / wall_s),
        (
            "sim_mcycles_per_s".to_string(),
            window_cycles as f64 / 1e6 / wall_s,
        ),
        ("op_p50_ms".to_string(), median_sorted(&ops) * 1e3),
        ("op_tail_ms".to_string(), tail_s * 1e3),
    ];
    let mut info = vec![
        ("passes", walls.len().to_string()),
        ("setups", setups.times.len().to_string()),
        ("setup_fastest_s", setups.fastest_s().to_string()),
        ("ops_per_pass", ops_per_pass.to_string()),
        ("distinct_ops", floors.len().to_string()),
        ("tail_ops_beyond", beyond.to_string()),
        ("first_op_ms", (first_op_s * 1e3).to_string()),
        (
            "op_fail_share",
            (tally.failed as f64 / tally.attempted.max(1) as f64).to_string(),
        ),
    ];
    let op_floors: Vec<String> = floors
        .by_id()
        .map(|(id, secs)| format!("\"{}\": {}", snoc_core::json::escape(id), secs * 1e3))
        .collect();
    info.push(("op_floors_ms", format!("{{{}}}", op_floors.join(", "))));
    if walls.len() >= 2 {
        let (q1, med, q3) = quartiles(&walls);
        info.push((
            "pass_wall_s",
            format!(
                "{{\"min\": {fastest_s}, \"q1\": {q1}, \"median\": {med}, \"q3\": {q3}, \"n\": {}}}",
                walls.len()
            ),
        ));
    }
    Ok(Report {
        config,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        metrics,
        result_digest: tally.digest.unwrap_or(0),
        info,
        spans: None,
    })
}

/// The traced run: every layer probe, then the workload's unrolled
/// twin against two untraced reference passes.
pub fn traced(config: RunConfig, env: &mut Env) -> Result<Report, String> {
    // The probes read other workloads' inputs too.
    for name in workload::NAMES {
        inputs::generate(&env.paths, name, config.seed, config.scale)
            .map_err(|e| format!("generate inputs: {e}"))?;
    }
    let (mut workload, _) = timed_setup(&config, env)?;
    let mut metrics: Vec<(String, f64)> = probes::run_all(env, config.seed, config.scale)?
        .into_iter()
        .map(|(name, value)| (name.to_string(), value))
        .collect();

    let mut tally = Tally::new();
    // Reference, twin, reference: host drift hits both sides alike.
    let before = workload.reference_pass();
    let mut rec = Recorder::new();
    let twin = workload.twin(&mut rec)?;
    let references = [before, workload.reference_pass()];
    for (i, pass) in references.iter().enumerate() {
        tally.pass(&format!("reference pass {}", i + 1), pass);
    }
    tally.attempted += references[0].ops.len();
    tally.check(twin.failures);
    if twin.result != references[0].result {
        tally.check(vec![
            "twin bytes differ from the untraced result".to_string()
        ]);
    }
    let mismatches = metrics
        .iter()
        .find(|(name, _)| name == "refsim.exact_mismatches")
        .map_or(0.0, |m| m.1);
    if mismatches != 0.0 {
        tally.check(vec![format!("refsim: {mismatches} exact mismatches")]);
    }

    let (lo, hi) = (
        references[0].wall_s.min(references[1].wall_s),
        references[0].wall_s.max(references[1].wall_s),
    );
    let twin_s = rec.duration_s(twin.root) - rec.beside_s();
    let layers = rec.layer_self_s();
    let explained: f64 = layers.iter().sum();
    for (layer, own) in Layer::REPORTED.iter().zip(layers) {
        metrics.push((format!("share.{}", layer.name()), own / twin_s));
    }
    metrics.push(("trace.gap_pct".to_string(), 100.0 * (lo - explained) / lo));
    metrics.push(("trace.overhead_pct".to_string(), 100.0 * (twin_s - lo) / lo));
    metrics.push(("host.pass_spread_pct".to_string(), 100.0 * (hi - lo) / lo));
    metrics.push((
        "pass.first_op_ms".to_string(),
        references[0].first_op_s.min(references[1].first_op_s) * 1e3,
    ));
    let lookups = twin.cache_hits + twin.cache_misses;
    metrics.push((
        "core.cache.hit_ratio".to_string(),
        twin.cache_hits as f64 / lookups.max(1) as f64,
    ));
    let c = twin.counts;
    for (name, count) in [
        ("sim.run.cycles", c.cycles),
        ("sim.run.flit_hops", c.flit_hops),
        ("sim.run.alloc_grants", c.alloc_grants),
        ("sim.run.buffer_writes", c.buffer_writes),
        ("sim.run.delivered_packets", c.delivered_packets),
        ("sim.run.dropped_packets", c.dropped_packets),
    ] {
        metrics.push((name.to_string(), count as f64));
    }
    let info = vec![
        ("untraced_floor_s", lo.to_string()),
        ("twin_wall_s", twin_s.to_string()),
        ("twin_explained_s", explained.to_string()),
        ("span_count", rec.spans().len().to_string()),
    ];
    Ok(Report {
        config,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        metrics,
        result_digest: tally.digest.unwrap_or(0),
        info,
        spans: Some(rec.to_json()),
    })
}
