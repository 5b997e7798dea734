//! What a workload is: identical passes of fixed work, their checks,
//! and an unrolled twin for the traced run.

use crate::inputs::Paths;
use crate::trace::{Recorder, SpanId};
use snoc_sim::SimReport;
use std::path::{Path, PathBuf};

/// The four workloads, in reporting order.
pub const NAMES: [&str; 4] = ["fig_cold", "lowload_grid", "served_mix", "big_point"];

/// What one pass measured and checked. Timing covers only the timed
/// section; every check runs after the clocks stop.
pub struct Pass {
    /// Wall seconds of the timed section.
    pub wall_s: f64,
    /// Process user+sys CPU seconds of the timed section.
    pub cpu_s: f64,
    /// Pass start to the first result handed back, in seconds.
    pub first_op_s: f64,
    /// `(op id, seconds)`; the id names the same work in every pass.
    pub ops: Vec<(String, f64)>,
    /// `warmup + measure` cycles of every point returned to the caller.
    pub window_cycles: u64,
    /// The result bytes (digested, and compared with the twin's).
    pub result: String,
    /// One message per failed check.
    pub failures: Vec<String>,
    /// Ops that failed a check.
    pub failed_ops: usize,
}

/// Exact work counts of the simulations a twin ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub cycles: u64,
    pub flit_hops: u64,
    pub alloc_grants: u64,
    pub buffer_writes: u64,
    pub delivered_packets: u64,
    pub dropped_packets: u64,
}

impl Counts {
    pub fn add(&mut self, report: &SimReport) {
        self.cycles += report.total_cycles;
        self.flit_hops += report.activity.link_flit_hops;
        self.alloc_grants += report.activity.alloc_grants;
        self.buffer_writes += report.activity.buffer_writes;
        self.delivered_packets += report.delivered_packets;
        self.dropped_packets += report.dropped_packets;
    }
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, other: Counts) {
        self.cycles += other.cycles;
        self.flit_hops += other.flit_hops;
        self.alloc_grants += other.alloc_grants;
        self.buffer_writes += other.buffer_writes;
        self.delivered_packets += other.delivered_packets;
        self.dropped_packets += other.dropped_packets;
    }
}

/// What a traced twin pass produced.
pub struct Twin {
    /// The twin's root span.
    pub root: SpanId,
    /// Result bytes; must equal the untraced pass's.
    pub result: String,
    pub counts: Counts,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// One message per failed check.
    pub failures: Vec<String>,
}

/// One benchmark workload, set up and ready to run passes.
pub trait Workload {
    /// `(op id, seconds)` of the ops its set-up timed, the same work in
    /// every set-up: what `setup_s` is deflated by, like a pass by its
    /// ops. Empty when the set-up is too short to have any.
    fn setup_ops(&self) -> &[(String, f64)] {
        &[]
    }

    /// One pass of the fixed work, with its checks.
    fn pass(&mut self) -> Pass;

    /// The pass the twin is compared with: the same work on the twin's
    /// single thread.
    fn reference_pass(&mut self) -> Pass {
        self.pass()
    }

    /// The unrolled twin of [`Workload::reference_pass`], recording a
    /// span around every call into a layer.
    fn twin(&mut self, rec: &mut Recorder) -> Result<Twin, String>;

    /// Checks too slow for every pass, applied once per run to the last
    /// pass. Returns one message per failure.
    fn verify_once(&mut self) -> Vec<String> {
        Vec::new()
    }

    /// Identities only `selfcheck` pays for.
    fn cross_checks(&mut self) -> Vec<String> {
        Vec::new()
    }
}

/// Where a workload finds its inputs and may write.
pub struct Env {
    pub paths: Paths,
    scratch: PathBuf,
    next_dir: u32,
}

impl Env {
    pub fn new(scratch: &Path) -> Self {
        Env {
            paths: Paths::new(&scratch.join("inputs")),
            scratch: scratch.to_path_buf(),
            next_dir: 0,
        }
    }

    /// A fresh, not yet created directory under the scratch root.
    pub fn fresh_dir(&mut self, tag: &str) -> PathBuf {
        self.next_dir += 1;
        self.scratch.join(format!("{tag}-{}", self.next_dir))
    }
}

/// Sets up the named workload from the generated inputs. Everything in
/// here is what `setup_s` times.
pub fn setup(name: &str, env: &mut Env) -> Result<Box<dyn Workload>, String> {
    match name {
        "fig_cold" | "lowload_grid" => Ok(Box::new(crate::campaign::CampaignWorkload::setup(
            name, &env.paths,
        )?)),
        "served_mix" => Ok(Box::new(crate::served::ServedMix::setup(env)?)),
        "big_point" => Ok(Box::new(crate::big_point::BigPoint::setup(&env.paths)?)),
        other => Err(format!(
            "unknown workload `{other}` (one of {})",
            NAMES.join(", ")
        )),
    }
}

/// `check_conservation()` and the no-deadlock rule on a directly held
/// report.
pub fn check_report(what: &str, report: &SimReport) -> Result<(), String> {
    use snoc_sim::Conformance as _;
    if let Some(diag) = &report.deadlock {
        return Err(format!("{what}: watchdog abort: {diag}"));
    }
    report
        .snapshot()
        .check_conservation()
        .map_err(|e| format!("{what}: conservation: {e}"))
}
