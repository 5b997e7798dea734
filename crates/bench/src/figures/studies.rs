//! The extension studies of the registry: ablation, static resilience
//! and the §5.5 sensitivity summary.

use super::{campaign, eb_var, emit, point_at};
use crate::{io_err, Args};
use snoc_core::json::Layout::{Inline, Lines};
use snoc_core::json::{Floats, Raw, Writer};
use snoc_core::{format_float, Setup, TextTable};
use snoc_power::TechNode;
use snoc_topology::paper_config;
use std::io::Write;

/// The committed campaigns of [`ablation`]: each step at the two loads
/// the table reads (power-aware), and its saturation sweep.
pub(super) const ABLATION: [&str; 2] = [spec!("ablation"), spec!("ablation_saturation")];

/// Ablation study of Slim NoC's design ingredients (`ablation` in the
/// README's "Reproducing figures and tables"): starting from the naive
/// design (basic layout, small edge buffers, no SMART) and adding one
/// mechanism at a time —
/// layout → RTT-sized buffers → SMART links → central-buffer routers —
/// measuring latency, saturation throughput, buffer area and
/// throughput/power at each step.
pub(super) fn ablation(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let mut table = TextTable::new(
        "Ablation: Slim NoC design ingredients (SN-S, RND)",
        &[
            "configuration",
            "latency @0.05",
            "sat thpt",
            "buf flits/rtr",
            "thpt/power [flits/J]",
        ],
    );
    let steps = campaign(ABLATION[0], args)?;
    // Latency at 0.05 and throughput/power at 0.2 are two points of one
    // power-aware curve per step.
    let powered = steps.run();
    let saturation = campaign(ABLATION[1], args)?.run();
    for setup in steps.setups() {
        let at = |load| point_at(&powered, &setup.name, "RND", load);
        let tpp = at(0.2).power.expect("power-aware campaign");
        table.push_row(vec![
            setup.name.clone(),
            format_float(at(0.05).latency, 2),
            format_float(saturation.peak_throughput(&setup.name, "RND"), 3),
            setup.buffer_flits_per_router().to_string(),
            format_float(tpp.throughput_per_watt, 3),
        ]);
    }
    emit(&table, args, out)
}

/// Mean and population standard deviation of a sample.
fn mean_std(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// One aggregated (network, fraction) cell.
struct Cell {
    network: &'static str,
    fraction: f64,
    connected: usize,
    diameter: (f64, f64),
    path: (f64, f64),
    component: (f64, f64),
}

const FRACTIONS: [f64; 4] = [0.05, 0.10, 0.20, 0.30];

fn study(seeds: &[u64]) -> Vec<Cell> {
    let nets = ["sn_s", "fbf4", "pfbf4", "t2d4", "cm4"]
        .map(|name| (name, paper_config(name).expect("paper config").topology));
    let mut cells = Vec::new();
    for fraction in FRACTIONS {
        for (name, topo) in &nets {
            let mut connected = 0usize;
            let (mut diam, mut path, mut comp) = (Vec::new(), Vec::new(), Vec::new());
            for &seed in seeds {
                let r = topo.link_failure_report(fraction, seed);
                connected += usize::from(r.connected);
                diam.push(r.diameter as f64);
                path.push(r.average_path);
                comp.push(r.largest_component as f64);
            }
            cells.push(Cell {
                network: name,
                fraction,
                connected,
                diameter: mean_std(&diam),
                path: mean_std(&path),
                component: mean_std(&comp),
            });
        }
    }
    cells
}

fn json_report(cells: &[Cell], seeds: usize) -> String {
    let mut w = Writer::new(Floats::Decimals(4));
    w.object(Lines)
        .field("schema", "slim_noc-resilience-v1")
        .field("seeds", seeds)
        .key("rows")
        .list(Lines);
    for c in cells {
        // A failure fraction is a grid constant, written as it reads.
        w.object(Inline)
            .field("network", c.network)
            .field("fraction", Raw(c.fraction))
            .field("connected", c.connected)
            .field("diameter_mean", c.diameter.0)
            .field("diameter_std", c.diameter.1)
            .field("path_mean", c.path.0)
            .field("path_std", c.path.1)
            .field("component_mean", c.component.0)
            .field("component_std", c.component.1)
            .end();
    }
    w.finish() + "\n"
}

/// Extension study: link-failure resilience (static graph metrics).
///
/// §2.1 credits MMS graphs with "high resilience to link failures
/// because the considered graphs are good expanders". This study
/// quantifies the static half of that claim: random link failures vs.
/// connectivity, diameter and average path length, for Slim NoC against
/// the paper's baselines at the 200-node scale — reporting mean ± std
/// across seeds per failure fraction, so a lucky draw can't masquerade
/// as robustness. (The dynamic half — delivered throughput under live
/// storms — is the `fault_storm` figure.)
///
/// `--json` emits the same study as one structured object instead of
/// tables; `--csv` renders the tables as CSV.
pub(super) fn resilience(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    // Smoke runs keep the study end-to-end but shrink the seed pool.
    let seeds: Vec<u64> = if args.smoke {
        (0..2).collect()
    } else {
        (0..8).collect()
    };
    let cells = study(&seeds);
    if args.json {
        return out
            .write_all(json_report(&cells, seeds.len()).as_bytes())
            .map_err(io_err);
    }
    for fraction in FRACTIONS {
        let mut table = TextTable::new(
            format!(
                "Resilience under {:.0}% random link failures ({} seeds, mean±std)",
                fraction * 100.0,
                seeds.len()
            ),
            &[
                "network",
                "connected runs",
                "diameter",
                "avg path",
                "largest component",
            ],
        );
        for c in cells.iter().filter(|c| c.fraction == fraction) {
            table.push_row(vec![
                c.network.to_string(),
                format!("{}/{}", c.connected, seeds.len()),
                format!(
                    "{}±{}",
                    format_float(c.diameter.0, 2),
                    format_float(c.diameter.1, 2)
                ),
                format!(
                    "{}±{}",
                    format_float(c.path.0, 3),
                    format_float(c.path.1, 3)
                ),
                format!(
                    "{}±{}",
                    format_float(c.component.0, 1),
                    format_float(c.component.1, 1)
                ),
            ]);
        }
        emit(&table, args, out)?;
    }
    Ok(())
}

/// The committed campaigns of [`sensitivity`]: the concentration sweep
/// at low load and to saturation, the injection-rate sweep, the size
/// sweep and the traffic-pattern sweep. A saturation sweep runs many
/// points, so it gets half the default windows.
pub(super) const SENSITIVITY: [&str; 5] = [
    spec!("sensitivity_p"),
    spec!("sensitivity_p_saturation"),
    spec!("sensitivity_rate"),
    spec!("sensitivity_size"),
    spec!("sensitivity_pattern"),
];

/// The §5.5 sensitivity summary: Slim NoC's advantages under
/// varying concentration, injection rate, technology node, network size
/// and traffic pattern.
///
/// Each sub-study prints SN next to its strongest competitor so the
/// robustness claim ("SN's benefits are robust") can be checked row by
/// row.
pub(super) fn sensitivity(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    // (1) Concentration sweep: SN with p in {3, 4, 5} at q = 5.
    let mut table = TextTable::new(
        "Sensitivity: concentration p (q = 5, RND)",
        &["p", "N", "latency @0.05", "saturation thpt"],
    );
    let concentrations = campaign(SENSITIVITY[0], args)?;
    let low_load = concentrations.run();
    let saturation = campaign(SENSITIVITY[1], args)?.run();
    for setup in concentrations.setups() {
        let point = point_at(&low_load, &setup.name, "RND", 0.05);
        table.push_row(vec![
            setup.topology.concentration().to_string(),
            setup.topology.node_count().to_string(),
            format_float(point.latency, 2),
            format_float(saturation.peak_throughput(&setup.name, "RND"), 3),
        ]);
    }
    emit(&table, args, out)?;

    // (2) Injection-rate sweep: SN vs FBF advantage across loads.
    let mut table = TextTable::new(
        "Sensitivity: injection rate (SN-S vs fbf3, SMART, RND latency)",
        &["load", "sn_s", "fbf3"],
    );
    let rates = campaign(SENSITIVITY[2], args)?;
    let result = rates.run();
    for &load in &rates.spec().loads {
        let latency = |setup| point_at(&result, setup, "RND", load).latency;
        table.push_row(vec![
            format_float(load, 2),
            format_float(latency("sn_s"), 2),
            format_float(latency("fbf3"), 2),
        ]);
    }
    emit(&table, args, out)?;

    // (3) Technology node: area/static-power advantage at 45/22/11 nm.
    let mut table = TextTable::new(
        "Sensitivity: technology node (SN-S vs fbf3, EB-Var)",
        &["tech", "SN area/FBF area", "SN static/FBF static"],
    );
    for tech in [TechNode::N45, TechNode::N22, TechNode::N11] {
        let eval = |s: &Setup| {
            let m = s.power_model(tech);
            let a = m.area(&s.topology, &s.layout, s.buffer_flits_per_router());
            let p = m.static_power(&s.topology, &s.layout, &a);
            (a.total_mm2(), p.total_w())
        };
        let (a1, p1) = eval(&eb_var("sn_s", None));
        let (a2, p2) = eval(&eb_var("fbf3", None));
        table.push_row(vec![
            tech.to_string(),
            format_float(a1 / a2, 3),
            format_float(p1 / p2, 3),
        ]);
    }
    emit(&table, args, out)?;

    // (4) Other network sizes (§5.5 lists 588, 686, 1024).
    let mut table = TextTable::new(
        "Sensitivity: network size (SN vs torus of equal N, RND saturation)",
        &["N", "sn thpt", "t2d thpt", "gain"],
    );
    let sizes = campaign(SENSITIVITY[3], args)?;
    let saturation = sizes.run();
    for pair in sizes.setups().chunks(2) {
        let s1 = saturation.peak_throughput(&pair[0].name, "RND");
        let s2 = saturation.peak_throughput(&pair[1].name, "RND");
        table.push_row(vec![
            pair[0].topology.node_count().to_string(),
            format_float(s1, 3),
            format_float(s2, 3),
            format!("{:.1}x", s1 / s2),
        ]);
    }
    emit(&table, args, out)?;

    // (5) Traffic patterns: SN latency across all patterns at one load.
    let mut table = TextTable::new(
        "Sensitivity: traffic pattern (SN-S, SMART, load 0.05)",
        &["pattern", "latency", "avg hops"],
    );
    let patterns = campaign(SENSITIVITY[4], args)?;
    let by_pattern = patterns.run();
    for pattern in &patterns.spec().patterns {
        let point = point_at(&by_pattern, "sn_s", pattern.short_name(), 0.05);
        table.push_row(vec![
            pattern.to_string(),
            format_float(point.latency, 2),
            format_float(point.avg_hops, 3),
        ]);
    }
    emit(&table, args, out)
}
