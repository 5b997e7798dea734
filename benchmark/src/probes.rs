//! Per-layer probes: each times one public function of one layer on a
//! fixed input, from outside, and reports its fastest repetition.
//!
//! The probes do not depend on the workload, so every traced run takes
//! all of them; the workload's own twin adds the shares, the exact
//! counts and the trace bookkeeping on top. Inputs come from the same
//! seeded generator the workloads use.

use crate::big_point::slim_noc_setup;
use crate::campaign::{campaign_twin, run_spec_text};
use crate::inputs::{self, Scale, SMALL_CLASS};
use crate::served::{http_get, start_server, submit_timed, Template};
use crate::timing::{floor_of, Stopwatch};
use crate::trace::{Layer, Recorder};
use crate::workload::Env;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use snoc_core::json;
use snoc_core::{Campaign, CampaignSpec, PointCache, PointCoord, PowerPoint, Setup};
use snoc_field::{GeneratorSets, Gf};
use snoc_layout::{Layout, SnLayout, TechNode};
use snoc_refsim::{RefConfig, RefSimulator};
use snoc_sim::{
    Conformance as _, FaultKind, FaultPlan, RoutingTable, ShardedSimulator, SimConfig, SimReport,
    Simulator,
};
use snoc_topology::{paper_config, NodeId, RouterId, Topology};
use snoc_traffic::{BurstModel, InjectionProcess, PatternSampler, TrafficPattern};
use std::sync::Arc;
use std::time::Instant;

type Metrics = Vec<(&'static str, f64)>;

/// Runs every probe. `reps` scales down to one repetition under
/// `--smoke`.
pub fn run_all(env: &mut Env, seed: u64, scale: Scale) -> Result<Metrics, String> {
    let reps = |full: usize| if scale.smoke { 1 } else { full };
    let mut m = Metrics::new();
    m.push(("host.alu_ref_ms", alu_reference_s(reps(3)) * 1e3));
    construction(&mut m, &reps)?;
    traffic(&mut m, &reps);
    // `big_point`'s topology: the workload itself is not gated, so every
    // traced run measures its construction and its engines here.
    let q27 = slim_noc_setup(27, 14, inputs::derive(seed, 5))?;
    routing_and_build(&mut m, &reps, &q27)?;
    simulation(&mut m, &reps, seed, scale)?;
    sharding(&mut m, &q27, scale)?;
    refsim(&mut m, seed, scale)?;
    let template = Template::build(env)?;
    spec_and_cache(&mut m, &reps, &template, env)?;
    serving(&mut m, &reps, &template, env)?;
    campaign_overheads(&mut m, &reps, seed, scale)?;
    Ok(m)
}

/// A dependent multiply-add chain: no memory traffic, no parallelism to
/// steal — the host's noise thermometer.
fn alu_reference_s(reps: usize) -> f64 {
    floor_of(reps, || {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..10_000_000u64 {
            // The black box keeps the chain dependent: without it the
            // compiler splits the recurrence into independent lanes.
            x = std::hint::black_box(x)
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(i);
        }
        x
    })
    .0
}

fn paper(name: &str) -> Result<Setup, String> {
    Setup::paper(name).map_err(|e| e.to_string())
}

fn construction(m: &mut Metrics, reps: &dyn Fn(usize) -> usize) -> Result<(), String> {
    let (s, gf) = floor_of(reps(20), || Gf::new(27));
    let gf = gf.map_err(|e| e.to_string())?;
    m.push(("field.gf_build_us", s * 1e6));
    let (s, sets) = floor_of(reps(20), || GeneratorSets::generate(&gf));
    sets.map_err(|e| e.to_string())?;
    m.push(("field.generators_us", s * 1e6));

    let (s, _) = floor_of(reps(5), || SMALL_CLASS.map(|n| paper_config(n).is_ok()));
    m.push(("topology.paper_small_ms", s * 1e3));
    let (s, topo) = floor_of(reps(5), || Topology::slim_noc(27, 14));
    let topo = topo.map_err(|e| e.to_string())?;
    m.push(("topology.slim_noc_q27_ms", s * 1e3));
    m.push((
        "topology.diameter_q27_ms",
        floor_of(reps(3), || topo.diameter()).0 * 1e3,
    ));
    m.push((
        "topology.partition2_q27_ms",
        floor_of(reps(3), || topo.partition(2)).0 * 1e3,
    ));
    m.push((
        "layout.natural_q27_ms",
        floor_of(reps(3), || Layout::natural(&topo)).0 * 1e3,
    ));
    let sn_l = paper("sn_l")?;
    m.push((
        "layout.slim_noc_sn_l_us",
        floor_of(reps(20), || {
            Layout::slim_noc(&sn_l.topology, SnLayout::Subgroup)
        })
        .0 * 1e6,
    ));
    m.push((
        "core.setup.paper_us",
        floor_of(reps(20), || Setup::paper("sn_s")).0 * 1e6,
    ));
    m.push((
        "core.setup.clone_seed_us",
        floor_of(reps(50), || sn_l.clone().with_seed(7)).0 * 1e6,
    ));
    Ok(())
}

fn traffic(m: &mut Metrics, reps: &dyn Fn(usize) -> usize) {
    const CALLS: usize = 200_000;
    let topo = Topology::slim_noc(9, 8).expect("sn_l's topology");
    let nodes = topo.node_count();
    let (s, _) = floor_of(reps(3), || {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut process = InjectionProcess::new(nodes, 0.008, 4, BurstModel::uniform());
        (0..CALLS)
            .filter_map(|i| process.next_arrival(i % nodes, &mut rng))
            .fold(0u64, u64::wrapping_add)
    });
    m.push(("traffic.next_arrival_ns", s * 1e9 / CALLS as f64));
    let sampler = PatternSampler::new(TrafficPattern::Random, &topo);
    let (s, _) = floor_of(reps(3), || {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        (0..CALLS)
            .filter_map(|i| sampler.sample(NodeId(i % nodes), &mut rng))
            .fold(0usize, |acc, d| acc.wrapping_add(d.index()))
    });
    m.push(("traffic.dest_ns", s * 1e9 / CALLS as f64));
}

fn routing_and_build(
    m: &mut Metrics,
    reps: &dyn Fn(usize) -> usize,
    big: &Setup,
) -> Result<(), String> {
    let (sn_s, sn_l) = (paper("sn_s")?, paper("sn_l")?);
    let mut build_self_s = 0.0;
    for (setup, n, table_name, build_name) in [
        (
            &sn_s,
            20,
            "sim.routing.minimal_sn_s_ms",
            "sim.build_sn_s_ms",
        ),
        (
            &sn_l,
            10,
            "sim.routing.minimal_sn_l_ms",
            "sim.build_sn_l_ms",
        ),
        (big, 2, "sim.routing.minimal_q27_ms", "sim.build_q27_ms"),
    ] {
        let (table_s, _) = floor_of(reps(n), || RoutingTable::minimal(&setup.topology));
        let (build_s, sim) = floor_of(reps(n), || setup.simulator());
        sim.map_err(|e| e.to_string())?;
        m.push((table_name, table_s * 1e3));
        m.push((build_name, build_s * 1e3));
        // The last row is q = 27: its build minus its table.
        build_self_s = build_s - table_s;
    }
    m.push(("sim.build_self_q27_ms", build_self_s * 1e3));
    for (setup, name) in [
        (&sn_s, "sim.routing.degraded_sn_s_ms"),
        (&sn_l, "sim.routing.degraded_sn_l_ms"),
    ] {
        let topo = &setup.topology;
        let dead: Vec<(RouterId, RouterId)> = FaultPlan::storm(topo, 10, 0, 1, 0xFA17)
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::LinkDown { a, b } => Some((a, b)),
                _ => None,
            })
            .collect();
        let alive = vec![true; topo.router_count()];
        let (s, _) = floor_of(reps(10), || {
            RoutingTable::degraded(topo, &alive, |a, b| {
                !dead.contains(&(a, b)) && !dead.contains(&(b, a))
            })
        });
        m.push((name, s * 1e3));
    }
    Ok(())
}

/// Builds a simulator (untimed) and times only its run; the fastest of
/// `reps` runs and its report.
fn time_run(
    setup: &Setup,
    pattern: TrafficPattern,
    load: f64,
    windows: (u64, u64),
    reps: usize,
) -> Result<(f64, SimReport), String> {
    let mut best: Option<(f64, SimReport)> = None;
    for _ in 0..reps {
        let mut sim = setup.simulator().map_err(|e| e.to_string())?;
        let t = Instant::now();
        let report = sim.run_synthetic(pattern, load, windows.0, windows.1);
        let s = t.elapsed().as_secs_f64();
        crate::workload::check_report(&setup.name, &report)?;
        if best.as_ref().is_none_or(|(b, _)| s < *b) {
            best = Some((s, report));
        }
    }
    best.ok_or_else(|| "no repetitions".to_string())
}

fn simulation(
    m: &mut Metrics,
    reps: &dyn Fn(usize) -> usize,
    seed: u64,
    scale: Scale,
) -> Result<(), String> {
    let low = inputs::lowload_grid_spec(seed, scale);
    let (s, r) = time_run(
        &paper("sn_l")?,
        TrafficPattern::Random,
        0.008,
        (low.warmup, low.measure),
        reps(3),
    )?;
    m.push((
        "sim.run.lowload_ns_per_cycle",
        s * 1e9 / r.total_cycles as f64,
    ));
    m.push((
        "sim.run.lowload_ns_per_flit_hop",
        s * 1e9 / r.activity.link_flit_hops as f64,
    ));
    // The saturated end of `fig_cold`'s grid, on its own setups.
    let fig = inputs::fig_cold_spec(seed, scale);
    for (setup, name) in [
        ("sn_s", "sim.run.sat_ns_per_grant"),
        ("sn_s+cbr20", "sim.run.sat_cbr_ns_per_grant"),
        ("sn_s+ugal-l", "sim.run.sat_ugal_ns_per_grant"),
        ("sn_s+storm", "sim.run.storm_ns_per_grant"),
    ] {
        let recipe = fig.setups.iter().find(|s| s.name == setup);
        let setup = recipe
            .expect("fig_cold names this setup")
            .build()
            .map_err(|e| e.to_string())?;
        let (s, r) = time_run(
            &setup,
            TrafficPattern::Random,
            0.4,
            (fig.warmup, fig.measure),
            reps(3),
        )?;
        m.push((name, s * 1e9 / r.activity.alloc_grants as f64));
    }
    Ok(())
}

/// Wall and process-CPU seconds of `f`.
fn wall_and_cpu<T>(f: impl FnOnce() -> T) -> (f64, f64, T) {
    let sw = Stopwatch::start();
    let out = f();
    let (wall_s, cpu_s) = sw.stop();
    (wall_s, cpu_s, out)
}

/// One engine's `(build wall, run wall, build + run CPU, report)`.
type EngineCost = (f64, f64, f64, SimReport);

/// A setup's point on the monolithic engine and on two shards, each
/// split into build and run.
fn engine_pair(
    s: &Setup,
    load: f64,
    windows: (u64, u64),
) -> Result<(EngineCost, EngineCost), String> {
    let (build_s, build_cpu, sim) = wall_and_cpu(|| s.simulator());
    let mut sim = sim.map_err(|e| e.to_string())?;
    let (run_s, run_cpu, report) =
        wall_and_cpu(|| sim.run_synthetic(TrafficPattern::Random, load, windows.0, windows.1));
    drop(sim);
    let mono = (build_s, run_s, build_cpu + run_cpu, report);
    let (build_s, build_cpu, sim) =
        wall_and_cpu(|| ShardedSimulator::build_with_layout(&s.topology, &s.layout, &s.sim, 2));
    let mut sim = sim.map_err(|e| e.to_string())?;
    let (run_s, run_cpu, report) =
        wall_and_cpu(|| sim.run_synthetic(TrafficPattern::Random, load, windows.0, windows.1));
    if report.to_json() != mono.3.to_json() {
        return Err("sharded report differs from the monolithic one".to_string());
    }
    Ok((mono, (build_s, run_s, build_cpu + run_cpu, report)))
}

/// The F27 point, split into build and run per engine.
fn sharding(m: &mut Metrics, q27: &Setup, scale: Scale) -> Result<(), String> {
    let (mono, sharded) = engine_pair(q27, 0.02, inputs::big_point_windows(scale))?;
    m.push((
        "sim.run.big_ns_per_flit_hop",
        mono.1 * 1e9 / mono.3.activity.link_flit_hops as f64,
    ));
    m.push((
        "sim.shard.speedup_2",
        (mono.0 + mono.1) / (sharded.0 + sharded.1),
    ));
    m.push(("sim.shard.build_ratio_2", sharded.0 / mono.0));
    m.push((
        "sim.shard.cpu_per_wall_2",
        sharded.2 / (sharded.0 + sharded.1),
    ));
    Ok(())
}

/// `paper-scale`: the q = 47 Slim NoC (106 032 endpoints) once, as one
/// JSON line. Far too slow for every traced run, and never gated.
pub fn paper_scale() -> Result<String, String> {
    let topo = Topology::slim_noc(47, 24).map_err(|e| e.to_string())?;
    let setup = Setup::from_topology("sn_q47", topo, 0.5).map_err(|e| e.to_string())?;
    let (table_s, _) = floor_of(1, || RoutingTable::minimal(&setup.topology));
    let (mono, sharded) = engine_pair(&setup, 0.02, (200, 1_000))?;
    let metric = |name: &str, value: f64, unit: &str| {
        format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
    };
    Ok(format!(
        "{{\"workload\": \"paper_scale\", \"trace\": 1, \"endpoints\": {}, \"metrics\": {{{}, {}, {}, {}}}}}",
        setup.topology.node_count(),
        metric("sim.routing.minimal_q47_s", table_s, "s"),
        metric("sim.build_q47_s", mono.0, "s"),
        metric("sim.run_q47_s", mono.1, "s"),
        metric(
            "sim.shard.speedup_2_q47",
            (mono.0 + mono.1) / (sharded.0 + sharded.1),
            "ratio"
        ),
    ))
}

/// The accuracy figure: `Snapshot` equality against the reference
/// simulator on explicit workloads drawn from a held-out seed. The
/// model has no hardware reference; this is the only error it can
/// state. Returns `(mismatches, reference seconds, reference cycles)`.
fn refsim_cases(seed: u64, scale: Scale) -> Result<(u64, f64, u64), String> {
    let cycles = if scale.smoke { 200 } else { 1_200 };
    let held_out = inputs::derive(seed, 6);
    let topologies = [
        Topology::slim_noc(3, 3).map_err(|e| e.to_string())?,
        Topology::mesh(4, 3, 2),
        Topology::torus(4, 4, 2),
        Topology::flattened_butterfly(3, 3, 2),
    ];
    let (mut mismatches, mut ref_s, mut ref_cycles) = (0, 0.0, 0);
    for topo in &topologies {
        for pattern in [TrafficPattern::Random, TrafficPattern::Adversarial1] {
            let cfg = SimConfig::default().with_vcs(2).with_seed(held_out);
            let ref_cfg = RefConfig::try_from_sim(&cfg).expect("edge-buffer, credited config");
            let trace = snoc_refsim::check::workload(topo, pattern, 0.1, cycles, held_out);
            let mut sim = Simulator::build(topo, &cfg).map_err(|e| e.to_string())?;
            let optimized = sim.run_trace(&trace, cycles / 4).snapshot();
            let mut reference = RefSimulator::build(topo, &ref_cfg)?;
            let t = Instant::now();
            let expected = reference.run_workload(&trace, cycles / 4);
            ref_s += t.elapsed().as_secs_f64();
            ref_cycles += expected.total_cycles;
            if optimized != expected || optimized.check_conservation().is_err() {
                mismatches += 1;
            }
        }
    }
    Ok((mismatches, ref_s, ref_cycles))
}

/// Exact mismatches against the reference simulator (`selfcheck`).
pub fn refsim_mismatches(seed: u64, scale: Scale) -> Result<u64, String> {
    refsim_cases(seed, scale).map(|(mismatches, _, _)| mismatches)
}

fn refsim(m: &mut Metrics, seed: u64, scale: Scale) -> Result<(), String> {
    let (mismatches, ref_s, ref_cycles) = refsim_cases(seed, scale)?;
    m.push(("refsim.exact_mismatches", mismatches as f64));
    m.push(("refsim.ns_per_cycle", ref_s * 1e9 / ref_cycles as f64));
    Ok(())
}

fn spec_and_cache(
    m: &mut Metrics,
    reps: &dyn Fn(usize) -> usize,
    template: &Template,
    env: &mut Env,
) -> Result<(), String> {
    let text = &template.base_spec;
    let (s, spec) = floor_of(reps(50), || CampaignSpec::from_json(text));
    let spec = spec.map_err(|e| e.to_string())?;
    m.push(("core.spec.from_json_us", s * 1e6));
    let (s, campaign) = floor_of(reps(20), || Campaign::from_spec(&spec));
    let campaign = campaign.map_err(|e| e.to_string())?;
    m.push(("core.spec.build_us", s * 1e6));
    m.push((
        "core.spec.to_json_us",
        floor_of(reps(50), || spec.to_json()).0 * 1e6,
    ));

    let dir = env.fresh_dir("probe.cache");
    template.copy_to(&dir).map_err(|e| e.to_string())?;
    let (s, cache) = floor_of(reps(3), || PointCache::open(&dir));
    let cache = Arc::new(cache.map_err(|e| e.to_string())?);
    m.push(("core.cache.open_ms", s * 1e3));
    m.push((
        "core.cache.open_us_per_line",
        s * 1e6 / template.lines as f64,
    ));
    // A warm replay through the cache: the 120-point result the JSON
    // writer is timed on, and the live keys `get` is timed on.
    let warm = campaign.with_cache(Arc::clone(&cache)).run();
    if warm.cache_misses != 0 {
        return Err("probe store copy is not warm".to_string());
    }
    m.push((
        "core.sweep.to_json_us",
        floor_of(reps(50), || warm.to_json()).0 * 1e6,
    ));
    let setup_specs: Vec<String> = spec.setups.iter().map(|s| s.canonical_json()).collect();
    let tech = spec.power_tech.map(|t| t.to_string());
    let mut coords = Vec::new();
    for setup_spec in &setup_specs {
        for pattern in &spec.patterns {
            for &load in &spec.loads {
                coords.push(PointCoord {
                    setup_spec,
                    pattern: pattern.short_name(),
                    load,
                    warmup: spec.warmup,
                    measure: spec.measure,
                    base_seed: spec.base_seed,
                    shards: 1,
                    tech: tech.as_deref(),
                });
            }
        }
    }
    let (s, keys) = floor_of(reps(10), || {
        coords.iter().map(|c| cache.key(c)).collect::<Vec<_>>()
    });
    m.push(("core.cache.key_us", s * 1e6 / coords.len() as f64));
    let (s, found) = floor_of(reps(10), || {
        keys.iter().filter(|k| cache.get(k).is_some()).count()
    });
    if found == 0 {
        return Err("no probe key hits the store".to_string());
    }
    m.push(("core.cache.get_ns", s * 1e9 / keys.len() as f64));
    let point = cache.get(&keys[0]).ok_or("first grid point is stored")?;
    let (s, stored) = floor_of(reps(3), || {
        keys.iter().try_for_each(|k| cache.put(k, &point))
    });
    stored.map_err(|e| e.to_string())?;
    m.push(("core.cache.put_us", s * 1e6 / keys.len() as f64));

    let sn_s = paper("sn_s")?;
    let report = sn_s.run_load(TrafficPattern::Random, 0.03, spec.warmup, spec.measure);
    m.push((
        "power.evaluate_us",
        floor_of(reps(50), || {
            PowerPoint::from_report(&sn_s.power_report(TechNode::N45, &report))
        })
        .0 * 1e6,
    ));
    Ok(())
}

fn serving(
    m: &mut Metrics,
    reps: &dyn Fn(usize) -> usize,
    template: &Template,
    env: &mut Env,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("serve probe: {e}");
    let addr = start_server(template, &env.fresh_dir("probe.server")).map_err(io)?;
    for (path, name) in [
        ("/health", "bench.serve.health_rtt_us"),
        ("/stats", "bench.serve.stats_rtt_us"),
    ] {
        let (s, body) = floor_of(reps(30), || http_get(&addr, path));
        body.map_err(io)?;
        m.push((name, s * 1e6));
    }
    let mut first_point_s = f64::INFINITY;
    let (served_s, served) = floor_of(reps(5), || {
        submit_timed(&addr, &template.base_spec).inspect(|s| {
            first_point_s = first_point_s.min(s.first_point_s.unwrap_or(f64::INFINITY));
        })
    });
    let served = served.map_err(io)?;
    // The same submission without the server: parse, build, replay
    // through an in-process cache on its own store copy, serialize.
    let dir = env.fresh_dir("probe.replay");
    template.copy_to(&dir).map_err(io)?;
    let cache = Arc::new(PointCache::open(&dir).map_err(io)?);
    let (replay_s, replayed) = floor_of(reps(5), || -> Result<String, String> {
        let spec = CampaignSpec::from_json(&template.base_spec).map_err(|e| e.to_string())?;
        let campaign = Campaign::from_spec(&spec).map_err(|e| e.to_string())?;
        let result = campaign.with_cache(Arc::clone(&cache)).run();
        Ok(json::compact(&result.to_json()))
    });
    if replayed? != served.result || served.cache_misses != 0 {
        return Err("serve probe: served bytes differ from the in-process replay".to_string());
    }
    m.push((
        "bench.serve.framing_us_per_point",
        (served_s - replay_s) * 1e6 / served.points as f64,
    ));
    m.push(("bench.serve.first_point_gap_ms", first_point_s * 1e3));
    Ok(())
}

fn campaign_overheads(
    m: &mut Metrics,
    reps: &dyn Fn(usize) -> usize,
    seed: u64,
    scale: Scale,
) -> Result<(), String> {
    // The small-class half of `lowload_grid`: a one-thread campaign
    // pass against the build + run time of its own twin.
    let mut low = inputs::lowload_grid_spec(seed, scale);
    low.setups.truncate(SMALL_CLASS.len());
    let text = low.to_json();
    let mut pass = run_spec_text(&text, None).0;
    let mut campaign_s = pass.wall_s;
    for _ in 1..reps(2) {
        pass = run_spec_text(&text, None).0;
        campaign_s = campaign_s.min(pass.wall_s);
    }
    let mut rec = Recorder::new();
    let root = rec.open("probe", Layer::Root, None);
    let twin = campaign_twin(&text, None, &mut rec, root)?;
    rec.close(root);
    if twin.result != pass.result {
        return Err("overhead probe: twin bytes differ from the campaign's".to_string());
    }
    let engine_s: f64 = rec
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s.op, "sim.build" | "sim.run"))
        .map(|(id, _)| rec.duration_s(id))
        .sum();
    m.push((
        "core.sweep.point_overhead_us",
        (campaign_s - engine_s) * 1e6 / pass.ops.len() as f64,
    ));

    // `fig_cold` on one thread and on two.
    let text = inputs::fig_cold_spec(seed, scale).to_json();
    let one = run_spec_text(&text, Some(1)).0;
    let two = run_spec_text(&text, Some(2)).0;
    if one.result != two.result || !one.failures.is_empty() {
        return Err("efficiency probe: thread counts disagree".to_string());
    }
    m.push((
        "core.parallel.efficiency_2t",
        one.wall_s / (2.0 * two.wall_s),
    ));
    Ok(())
}
