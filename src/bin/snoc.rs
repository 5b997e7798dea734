//! `snoc` — command-line front end to the Slim NoC reproduction.
//!
//! The one executable of the workspace: single simulations and
//! analyses, every figure of the paper (`snoc_bench::figures`), spec
//! campaigns, and the campaign server — without writing Rust:
//!
//! ```text
//! snoc sim --config sn_s --pattern rnd --load 0.1 --smart
//! snoc sim --topology sn --q 9 --p 8 --buffers cbr20 --pattern adv1
//! snoc analyze --config sn_l
//! snoc list
//! snoc repro --list
//! snoc repro fig12 --quick --csv
//! snoc run --spec campaign.json --cache-dir .snoc-cache
//! snoc serve --cache-dir .snoc-cache
//! snoc submit --spec campaign.json
//! ```

use slim_noc::core::{format_float, BufferPreset, Setup, SetupSpec, TextTable};
use slim_noc::layout::SnLayout;
use slim_noc::power::TechNode;
use slim_noc::prelude::*;
use slim_noc::sim::RoutingKind;
use snoc_bench::{figures, Args};
use std::process::ExitCode;

/// Splits every `--flag=value` argument into `--flag` and `value`, so
/// each command reads one spelling (the next argument) and all of them
/// accept both.
fn split_inline_values(args: impl Iterator<Item = String>) -> Vec<String> {
    args.flat_map(|arg| match arg.split_once('=') {
        Some((flag, value)) if flag.starts_with("--") => {
            vec![flag.to_string(), value.to_string()]
        }
        _ => vec![arg],
    })
    .collect()
}

fn main() -> ExitCode {
    let args = split_inline_values(std::env::args().skip(1));
    let wants_help = args.iter().skip(1).any(|a| a == "--help" || a == "-h");
    let result = match args.first().map(String::as_str) {
        // `--help` after a command is a request, not a flag to reject.
        Some("sim" | "analyze" | "repro" | "run" | "serve" | "submit" | "list") if wants_help => {
            usage();
            Ok(())
        }
        Some("sim") => cmd_sim(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("repro") => cmd_repro(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("list") => {
            cmd_list();
            Ok(())
        }
        Some("--help" | "-h") | None => {
            usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (try --help)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn usage() {
    // The `--json` entry names the figures that answer it, straight from
    // the registry (`Figure::answers_json`), five to a line.
    let answering: Vec<&str> = figures::REGISTRY
        .iter()
        .filter(|f| f.answers_json())
        .map(|f| f.name)
        .collect();
    let names: Vec<String> = answering.chunks(5).map(|line| line.join(" ")).collect();
    let json = format!(
        "  --json              repro: JSON instead of tables: the sweep JSON of a
                      one-campaign figure, or a figure's own JSON form;
                      the others refuse it. Answered by:
                      {}",
        names.join("\n                      ")
    );
    println!(
        "snoc — Slim NoC reproduction CLI

USAGE:
  snoc sim [OPTIONS]       run one simulation
  snoc analyze [OPTIONS]   print topology/layout/cost analysis
  snoc list                list named paper configurations
  snoc repro --list        list the paper's figures, tables and studies
  snoc repro <name> [OPTIONS]
                           regenerate one of them
  snoc run --spec <file> [OPTIONS]
                           run a slim_noc-spec-v1 campaign file: sweep
                           JSON on stdout, cache statistics on stderr
  snoc serve [OPTIONS]     run the campaign server (see README:
                           \"Campaign server & cache\")
  snoc submit [OPTIONS]    submit a spec file to a running server

REPRO / RUN OPTIONS:
  --csv               repro: CSV instead of aligned text
{json}
  --quick             short simulation windows (300 + 1200 cycles)
  --smoke             minimal windows (20 + 60; meaningless numbers)
  --threads <n>       campaign worker threads (0 = per core)
  --cache-dir <dir>   content-addressed point cache to replay from

SERVE / SUBMIT OPTIONS:
  --addr <host:port>  server address (default 127.0.0.1:7077)
  --cache-dir <dir>   serve: shared content-addressed point cache
  --threads <n>       serve: worker threads per job (0 = per core)
  --spec <file>       submit: slim_noc-spec-v1 campaign file

SIM / ANALYZE OPTIONS:
  --config <name>     a paper configuration (see `snoc list`)
  --topology <kind>   sn | mesh | torus | fbf (with --x/--y or --q)
  --q <q> --p <p>     Slim NoC parameters (default q=5 p=4)
  --x <x> --y <y>     grid dimensions for mesh/torus/fbf (default 8x8)
  --layout <name>     basic | subgr | gr | rand (Slim NoC only)
  --buffers <name>    eb-small | eb-large | eb-var | el-links | cbr<N>
  --pattern <name>    rnd | shf | rev | adv1 | adv2 | asym | trn
  --routing <name>    min | ugal-l | ugal-g | xy
  --load <f>          offered load in flits/node/cycle (default 0.05)
  --warmup <cycles>   default 2000
  --measure <cycles>  default 10000
  --smart             enable SMART links (H = 9)
  --tech <node>       45 | 22 | 11 (default 45)
  --seed <n>          RNG seed
  --work              sim: also print the engine's work counters and the
                      network's bytes (stderr)"
    );
}

struct Options {
    setup: Setup,
    buffers: BufferPreset,
    pattern: TrafficPattern,
    load: f64,
    warmup: u64,
    measure: u64,
    tech: TechNode,
    /// `sim --work`: print the engine's work counters and the
    /// network's bytes on stderr.
    work: bool,
}

/// The value of flag `name`: the next argument.
fn value(it: &mut std::slice::Iter<'_, String>, name: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("flag {name} needs a value"))
}

/// The numeric value of flag `name`.
fn number<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    name: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value(it, name)?.parse().map_err(|e| format!("{name}: {e}"))
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut config: Option<String> = None;
    let mut topology = String::from("sn");
    let (mut q, mut p) = (5usize, 4usize);
    let (mut x, mut y) = (8usize, 8usize);
    let mut layout: Option<String> = None;
    let mut buffers: Option<String> = None;
    let mut pattern = String::from("rnd");
    let mut routing = String::from("min");
    let mut load = 0.05f64;
    let mut warmup = 2_000u64;
    let mut measure = 10_000u64;
    let mut smart = false;
    let mut tech = String::from("45");
    let mut seed: Option<u64> = None;
    let mut work = false;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let it = &mut it;
        match flag.as_str() {
            "--config" => config = Some(value(it, flag)?),
            "--topology" => topology = value(it, flag)?,
            "--q" => q = number(it, flag)?,
            "--p" => p = number(it, flag)?,
            "--x" => x = number(it, flag)?,
            "--y" => y = number(it, flag)?,
            "--layout" => layout = Some(value(it, flag)?),
            "--buffers" => buffers = Some(value(it, flag)?),
            "--pattern" => pattern = value(it, flag)?,
            "--routing" => routing = value(it, flag)?,
            "--load" => load = number(it, flag)?,
            "--warmup" => warmup = number(it, flag)?,
            "--measure" => measure = number(it, flag)?,
            "--smart" => smart = true,
            "--tech" => tech = value(it, flag)?,
            "--seed" => seed = Some(number(it, flag)?),
            "--work" => work = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }

    // A zero-rate run is legitimate; a negative or NaN rate is not.
    if !(load.is_finite() && load >= 0.0) {
        return Err(format!("--load: `{load}` is not a finite rate >= 0"));
    }
    // One recipe of modifiers, named as in campaign specs, for both.
    let custom = format!("{topology} (custom)");
    let mut recipe = SetupSpec::new(config.as_deref().unwrap_or(&custom));
    if let Some(l) = layout {
        recipe.sn_layout = Some(match (l.as_str(), seed) {
            // A bare `rand` shuffles with `--seed`.
            ("rand", Some(seed)) => SnLayout::Random(seed),
            _ => SnLayout::from_spec_name(&l).ok_or_else(|| format!("unknown layout `{l}`"))?,
        });
    }
    if let Some(b) = buffers {
        recipe.buffers =
            BufferPreset::from_spec_name(&b).ok_or_else(|| format!("unknown buffers `{b}`"))?;
    }
    recipe.routing = RoutingKind::from_spec_name(&routing)
        .ok_or_else(|| format!("unknown routing `{routing}`"))?;
    recipe.smart = smart;
    let mut setup = if config.is_some() {
        recipe.build()
    } else {
        if topology != "sn" && (x == 0 || y == 0 || p == 0) {
            return Err(format!(
                "--x, --y and --p must be at least 1 (got {x}x{y}, p={p})"
            ));
        }
        let topo = match topology.as_str() {
            "sn" => Topology::slim_noc(q, p).map_err(|e| e.to_string())?,
            "mesh" => Topology::mesh(x, y, p),
            "torus" => Topology::torus(x, y, p),
            "fbf" => Topology::flattened_butterfly(x, y, p),
            other => return Err(format!("unknown topology `{other}`")),
        };
        Setup::from_topology(&custom, topo, 0.5).map(|base| recipe.build_on(base))
    }
    .map_err(|e| e.to_string())?;
    // A recipe ignores a layout off Slim NoC; a command line refuses it.
    let slim_noc = matches!(setup.topology.kind(), TopologyKind::SlimNoc { .. });
    if recipe.sn_layout.is_some() && !slim_noc {
        return Err(format!("--layout: `{}` is not a Slim NoC", setup.name));
    }
    if let Some(s) = seed {
        setup = setup.with_seed(s);
    }
    let pattern = TrafficPattern::from_short_name(&pattern.to_uppercase())
        .ok_or_else(|| format!("unknown pattern `{pattern}`"))?;
    let tech = TechNode::from_name(&tech).ok_or_else(|| format!("unknown tech node `{tech}`"))?;
    Ok(Options {
        setup,
        buffers: recipe.buffers,
        pattern,
        load,
        warmup,
        measure,
        tech,
        work,
    })
}

fn cmd_sim(args: &[String]) -> Result<(), String> {
    let opt = parse(args)?;
    let mut sim = opt.setup.simulator().map_err(|e| e.to_string())?;
    let report = sim.run_synthetic(opt.pattern, opt.load, opt.warmup, opt.measure);
    if let Some(diag) = &report.deadlock {
        return Err(format!(
            "simulation deadlocked ({}): {diag}",
            opt.setup.name
        ));
    }
    let power = opt.setup.power_report(opt.tech, &report);
    let mut t = TextTable::new(
        format!(
            "{} | {} @ {} flits/node/cycle | buffers {} | H={}",
            opt.setup.name, opt.pattern, opt.load, opt.buffers, opt.setup.sim.smart_hops
        ),
        &["metric", "value"],
    );
    let mut row = |k: &str, v: String| t.push_row(vec![k.to_string(), v]);
    row(
        "avg latency [cycles]",
        format_float(report.avg_packet_latency(), 2),
    );
    row(
        "p99 latency [cycles]",
        report.latency_percentile(0.99).to_string(),
    );
    row(
        "throughput [flits/node/cycle]",
        format_float(report.throughput(), 4),
    );
    row("acceptance", format_float(report.acceptance(), 3));
    row("avg hops", format_float(report.avg_hops(), 3));
    row("delivered packets", report.delivered_packets.to_string());
    row("drained", report.drained.to_string());
    row("area [mm^2]", format_float(power.area.total_mm2(), 1));
    row(
        "static power [W]",
        format_float(power.static_power.total_w(), 2),
    );
    row(
        "dynamic power [W]",
        format_float(power.dynamic_power.total_w(), 2),
    );
    row(
        "throughput/power [flits/J]",
        format_float(power.throughput_per_power(), 3),
    );
    t.print(false);
    if opt.work {
        let mut w = TextTable::new("engine work (whole run)", &["counter", "count"]);
        for (name, count) in sim.work().rows() {
            w.push_row(vec![name.to_string(), count.to_string()]);
        }
        for (name, bytes) in sim.footprint().rows() {
            w.push_row(vec![name.to_string(), bytes.to_string()]);
        }
        w.write_to(&mut std::io::stderr().lock(), false)
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let opt = parse(args)?;
    let topo = &opt.setup.topology;
    let layout = &opt.setup.layout;
    let stats = topo.path_stats();
    let wires = layout.wire_stats(topo);
    let mut t = TextTable::new(
        format!("analysis: {}", opt.setup.name),
        &["metric", "value"],
    );
    let mut row = |k: &str, v: String| t.push_row(vec![k.to_string(), v]);
    row("nodes", topo.node_count().to_string());
    row("routers", topo.router_count().to_string());
    row("network radix k'", topo.network_radix().to_string());
    row("router radix k", topo.router_radix().to_string());
    row("diameter", stats.diameter.to_string());
    row("avg path [hops]", format_float(stats.average, 3));
    row("links", topo.link_count().to_string());
    row(
        "die grid",
        format!("{}x{}", layout.grid().0, layout.grid().1),
    );
    row(
        "avg wire [tiles]",
        format_float(layout.average_wire_length(topo), 3),
    );
    row("max wire [tiles]", layout.max_wire_length(topo).to_string());
    row("max wire crossings W", wires.max_crossings.to_string());
    row("bisection links", layout.bisection_links(topo).to_string());
    row(
        "buffers/router [flits]",
        opt.setup.buffer_flits_per_router().to_string(),
    );
    t.print(false);
    Ok(())
}

fn cmd_list() {
    let mut t = TextTable::new("paper configurations", &["name", "N", "k'", "D"]);
    for name in slim_noc::topology::paper_config_names() {
        if let Ok(cfg) = slim_noc::topology::paper_config(name) {
            t.push_row(vec![
                name.to_string(),
                cfg.topology.node_count().to_string(),
                cfg.topology.network_radix().to_string(),
                cfg.topology.diameter().to_string(),
            ]);
        }
    }
    t.print(false);
}

fn cmd_repro(args: &[String]) -> Result<(), String> {
    let (name, flags) = args
        .split_first()
        .ok_or("repro needs a figure name (see `snoc repro --list`)")?;
    if name == "--list" {
        let names = figures::REGISTRY.iter().map(|f| f.name.len());
        let width = names.max().unwrap_or(0);
        for figure in figures::REGISTRY {
            println!("{:<width$}  {}", figure.name, figure.about);
        }
        return Ok(());
    }
    let figure = figures::find(name)
        .ok_or_else(|| format!("unknown figure `{name}` (see `snoc repro --list`)"))?;
    let args = Args::parse_from(flags.iter().cloned())?;
    figure.check(&args)?;
    let run = figure.run(&args, &mut std::io::stdout().lock());
    if let Err(msg) = run {
        // Not a usage error: the figure ran and failed (a diverged
        // `verify` case, a closed stdout).
        eprintln!("snoc repro {name}: {msg}");
        std::process::exit(1);
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let mut spec_path: Option<String> = None;
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--spec" => spec_path = Some(value(&mut it, flag)?),
            _ => flags.push(flag.clone()),
        }
    }
    let path = spec_path.ok_or("run needs --spec <file>")?;
    let args = Args::parse_from(flags.into_iter())?;
    let stats = snoc_bench::run_spec(&path, &args, &mut std::io::stdout().lock())?;
    eprintln!("{stats}");
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut addr = String::from("127.0.0.1:7077");
    let mut cache_dir: Option<String> = None;
    let mut threads = 0usize;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let it = &mut it;
        match flag.as_str() {
            "--addr" => addr = value(it, flag)?,
            "--cache-dir" => cache_dir = Some(value(it, flag)?),
            "--threads" => threads = number(it, flag)?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let server = snoc_bench::serve::Server::bind(&addr, cache_dir.as_deref(), threads)
        .map_err(|e| format!("bind {addr}: {e}"))?;
    match server.local_addr() {
        Ok(bound) => eprintln!("snoc serve: listening on {bound}"),
        Err(_) => eprintln!("snoc serve: listening on {addr}"),
    }
    if let Some(dir) = &cache_dir {
        eprintln!("snoc serve: shared cache at {dir}");
    }
    server.run().map_err(|e| format!("serve: {e}"))
}

fn cmd_submit(args: &[String]) -> Result<(), String> {
    let mut addr = String::from("127.0.0.1:7077");
    let mut spec_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => addr = value(&mut it, flag)?,
            "--spec" => spec_path = Some(value(&mut it, flag)?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let path = spec_path.ok_or("submit needs --spec <file>")?;
    let spec_json = std::fs::read_to_string(&path).map_err(|e| format!("read `{path}`: {e}"))?;
    let outcome = snoc_bench::serve::submit(&addr, &spec_json, |line| println!("{line}"))
        .map_err(|e| format!("submit to {addr}: {e}"))?;
    eprintln!(
        "snoc-submit-stats: points={} hits={} misses={}",
        outcome.points, outcome.cache_hits, outcome.cache_misses
    );
    Ok(())
}
