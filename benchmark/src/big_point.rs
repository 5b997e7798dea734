//! `big_point`: one Slim NoC over the non-prime field F₂₇ (1458
//! routers, 20 412 endpoints), built and run once on the monolithic
//! engine and once on two shards.
//!
//! This workload is **not gated**: `BENCHMARK.json` does not list it.
//! Its ops are a second of uninterruptible work on a working set far
//! beyond the caches, and its sharded half couples two threads through
//! two barriers per cycle; on the shared 2-vCPU host their floors did
//! not repeat within a quarter (`README.md`). It runs like the others
//! (`run --workload big_point`, `all`, `selfcheck`, `--trace 1`) for
//! whoever has a quiet host.

use crate::inputs::{self, BigPointParams, Paths};
use crate::timing::Stopwatch;
use crate::trace::{Layer, Recorder};
use crate::workload::{check_report, Counts, Pass, Twin, Workload};
use snoc_core::Setup;
use snoc_sim::{RoutingTable, ShardedSimulator, SimReport};
use snoc_topology::Topology;
use snoc_traffic::TrafficPattern;
use std::time::Instant;

const SHARDS: usize = 2;

pub struct BigPoint {
    params: BigPointParams,
    setup: Setup,
}

/// The setup of a Slim NoC over F_q with the natural layout.
pub fn slim_noc_setup(q: usize, concentration: usize, seed: u64) -> Result<Setup, String> {
    let topology = Topology::slim_noc(q, concentration).map_err(|e| e.to_string())?;
    Ok(Setup::from_topology(&format!("sn_q{q}"), topology, 0.5)
        .map_err(|e| e.to_string())?
        .with_seed(seed))
}

impl BigPoint {
    pub fn setup(paths: &Paths) -> Result<Self, String> {
        let params = inputs::read_big_point_params(paths).map_err(|e| format!("big_point: {e}"))?;
        let setup = slim_noc_setup(params.q, params.concentration, params.seed)
            .map_err(|e| format!("big_point: {e}"))?;
        Ok(BigPoint { params, setup })
    }

    /// The result bytes and the checks of one monolithic + sharded pair.
    fn judge(mono: &SimReport, sharded: &SimReport) -> (String, Vec<String>) {
        let (a, b) = (mono.to_json(), sharded.to_json());
        let mut failures = Vec::new();
        for (what, report) in [("monolithic", mono), ("sharded", sharded)] {
            if let Err(e) = check_report(what, report) {
                failures.push(e);
            } else if !report.drained || report.delivered_packets == 0 {
                failures.push(format!("{what}: low-load point did not deliver and drain"));
            }
        }
        if a != b {
            failures.push("sharded report differs from the monolithic one".to_string());
        }
        (format!("{a}\n{b}\n"), failures)
    }
}

impl Workload for BigPoint {
    /// Two ops, each a build + run: the point on the monolithic engine,
    /// then on two shards.
    fn pass(&mut self) -> Pass {
        let p = &self.params;
        let sw = Stopwatch::start();
        let mono = self
            .setup
            .run_load(TrafficPattern::Random, p.load, p.warmup, p.measure);
        let mono_s = sw.wall_start().elapsed().as_secs_f64();
        let t = Instant::now();
        let sharded = self.setup.run_load_sharded(
            TrafficPattern::Random,
            p.load,
            p.warmup,
            p.measure,
            SHARDS,
        );
        let sharded_s = t.elapsed().as_secs_f64();
        let (wall_s, cpu_s) = sw.stop();
        let (result, failures) = Self::judge(&mono, &sharded);
        Pass {
            wall_s,
            cpu_s,
            first_op_s: mono_s,
            ops: vec![
                ("monolithic".to_string(), mono_s),
                ("sharded".to_string(), sharded_s),
            ],
            window_cycles: 2 * (p.warmup + p.measure),
            result,
            failed_ops: failures.len().min(2),
            failures,
        }
    }

    /// `Setup::run_load` and `run_load_sharded` unrolled into table,
    /// partition, build, run and drop.
    fn twin(&mut self, rec: &mut Recorder) -> Result<Twin, String> {
        let p = &self.params;
        let s = &self.setup;
        let root = rec.open("twin.pass", Layer::Root, None);

        let (build, sim) = rec.time("sim.build", Layer::SimBuild, root, || s.simulator());
        let mut sim = sim.map_err(|e| format!("big_point: {e}"))?;
        rec.beside("sim.routing.minimal", Layer::SimRouting, build, || {
            RoutingTable::minimal(&s.topology)
        });
        let (_, mono) = rec.time("sim.run", Layer::SimRun, root, || {
            sim.run_synthetic(TrafficPattern::Random, p.load, p.warmup, p.measure)
        });
        rec.time("sim.drop", Layer::SimBuild, root, || drop(sim));

        let (build, sim) = rec.time("sim.shard.build", Layer::SimBuild, root, || {
            ShardedSimulator::build_with_layout(&s.topology, &s.layout, &s.sim, SHARDS)
        });
        let mut sim = sim.map_err(|e| format!("big_point: {e}"))?;
        rec.beside("sim.routing.minimal", Layer::SimRouting, build, || {
            RoutingTable::minimal(&s.topology)
        });
        rec.beside("topology.partition", Layer::FieldTopology, build, || {
            s.topology.partition(SHARDS)
        });
        let (_, sharded) = rec.time("sim.shard.run", Layer::SimRun, root, || {
            sim.run_synthetic(TrafficPattern::Random, p.load, p.warmup, p.measure)
        });
        rec.time("sim.drop", Layer::SimBuild, root, || drop(sim));
        rec.close(root);

        let mut counts = Counts::default();
        counts.add(&mono);
        counts.add(&sharded);
        let (result, failures) = Self::judge(&mono, &sharded);
        Ok(Twin {
            root,
            result,
            counts,
            cache_hits: 0,
            cache_misses: 0,
            failures,
        })
    }
}
