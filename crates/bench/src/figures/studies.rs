//! The extension studies of the registry: ablation, static resilience
//! and the §5.5 sensitivity summary.

use super::{emit, sn_s_with_layout};
use crate::{io_err, Args};
use snoc_core::{format_float, BufferPreset, Setup, TextTable};
use snoc_layout::SnLayout;
use snoc_power::TechNode;
use snoc_topology::Topology;
use snoc_traffic::TrafficPattern;
use std::fmt::Write as _;
use std::io::Write;

/// Average packet latency of `setup` under uniform random traffic.
fn rnd_latency(setup: &Setup, load: f64, args: &Args) -> f64 {
    setup
        .run_load(TrafficPattern::Random, load, args.warmup(), args.measure())
        .avg_packet_latency()
}

/// Saturation throughput of `setup` under uniform random traffic (the
/// search runs many simulations, so each gets half the windows).
fn rnd_saturation(setup: &Setup, args: &Args) -> f64 {
    setup.saturation_throughput(
        TrafficPattern::Random,
        args.warmup() / 2,
        args.measure() / 2,
    )
}

struct Step {
    name: &'static str,
    layout: SnLayout,
    buffers: BufferPreset,
    smart: bool,
}

/// Ablation study of Slim NoC's design ingredients (the DESIGN.md
/// ablation index): starting from the naive design (basic layout, small
/// edge buffers, no SMART) and adding one mechanism at a time —
/// layout → RTT-sized buffers → SMART links → central-buffer routers —
/// measuring latency, saturation throughput, buffer area and
/// throughput/power at each step.
pub(super) fn ablation(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let steps = [
        Step {
            name: "naive (basic, EB-Small)",
            layout: SnLayout::Basic,
            buffers: BufferPreset::EbSmall,
            smart: false,
        },
        Step {
            name: "+ subgroup layout",
            layout: SnLayout::Subgroup,
            buffers: BufferPreset::EbSmall,
            smart: false,
        },
        Step {
            name: "+ RTT-sized buffers",
            layout: SnLayout::Subgroup,
            buffers: BufferPreset::EbVar,
            smart: false,
        },
        Step {
            name: "+ SMART links",
            layout: SnLayout::Subgroup,
            buffers: BufferPreset::EbVar,
            smart: true,
        },
        Step {
            name: "+ CBR-20 (full design)",
            layout: SnLayout::Subgroup,
            buffers: BufferPreset::Cbr(20),
            smart: true,
        },
    ];
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
    for step in &steps {
        let setup = sn_s_with_layout(step.layout)
            .with_buffers(step.buffers)
            .with_smart(step.smart);
        let tpp = setup
            .evaluate_power(
                TechNode::N45,
                TrafficPattern::Random,
                0.2,
                args.warmup(),
                args.measure(),
            )
            .throughput_per_power();
        table.push_row(vec![
            step.name.to_string(),
            format_float(rnd_latency(&setup, 0.05, args), 2),
            format_float(rnd_saturation(&setup, args), 3),
            setup.buffer_flits_per_router().to_string(),
            format_float(tpp, 3),
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
    let nets: Vec<(&'static str, Topology)> = vec![
        ("sn_s", Topology::slim_noc(5, 4).expect("sn")),
        ("fbf4", Topology::flattened_butterfly(10, 5, 4)),
        ("pfbf4", Topology::partitioned_fbf(2, 1, 5, 5, 4)),
        ("t2d4", Topology::torus(10, 5, 4)),
        ("cm4", Topology::mesh(10, 5, 4)),
    ];
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
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\n  \"schema\": \"slim_noc-resilience-v1\",\n  \"seeds\": {seeds},\n  \"rows\": ["
    );
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"network\": \"{}\", \"fraction\": {}, \"connected\": {}, \
             \"diameter_mean\": {}, \"diameter_std\": {}, \
             \"path_mean\": {}, \"path_std\": {}, \
             \"component_mean\": {}, \"component_std\": {}}}{}",
            c.network,
            c.fraction,
            c.connected,
            format_float(c.diameter.0, 4),
            format_float(c.diameter.1, 4),
            format_float(c.path.0, 4),
            format_float(c.path.1, 4),
            format_float(c.component.0, 4),
            format_float(c.component.1, 4),
            if i + 1 < cells.len() { "," } else { "" },
        );
    }
    out.push_str("  ]\n}\n");
    out
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
    for p in [3usize, 4, 5] {
        let topo = Topology::slim_noc(5, p).expect("sn");
        let setup = Setup::from_topology(&format!("sn p={p}"), topo, 0.5).expect("setup");
        table.push_row(vec![
            p.to_string(),
            setup.topology.node_count().to_string(),
            format_float(rnd_latency(&setup, 0.05, args), 2),
            format_float(rnd_saturation(&setup, args), 3),
        ]);
    }
    emit(&table, args, out)?;

    // (2) Injection-rate sweep: SN vs FBF advantage across loads.
    let mut table = TextTable::new(
        "Sensitivity: injection rate (SN-S vs fbf3, SMART, RND latency)",
        &["load", "sn_s", "fbf3"],
    );
    let sn = Setup::paper("sn_s").expect("sn").with_smart(true);
    let fbf = Setup::paper("fbf3").expect("fbf").with_smart(true);
    for load in [0.01, 0.05, 0.1, 0.2] {
        table.push_row(vec![
            format_float(load, 2),
            format_float(rnd_latency(&sn, load, args), 2),
            format_float(rnd_latency(&fbf, load, args), 2),
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
        let sn_e = Setup::paper("sn_s")
            .expect("sn")
            .with_buffers(BufferPreset::EbVar);
        let fbf_e = Setup::paper("fbf3")
            .expect("fbf")
            .with_buffers(BufferPreset::EbVar);
        let (a1, p1) = eval(&sn_e);
        let (a2, p2) = eval(&fbf_e);
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
    for (q, p, tx, ty, tp) in [(7usize, 6usize, 14usize, 7usize, 6usize), (8, 8, 16, 8, 8)] {
        let sn_t = Topology::slim_noc(q, p).expect("sn");
        let n = sn_t.node_count();
        let sn_s = Setup::from_topology("sn", sn_t, 0.5).expect("setup");
        let t2d_s = Setup::from_topology("t2d", Topology::torus(tx, ty, tp), 0.4).expect("setup");
        let s1 = rnd_saturation(&sn_s, args);
        let s2 = rnd_saturation(&t2d_s, args);
        table.push_row(vec![
            n.to_string(),
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
    for pattern in [
        TrafficPattern::Random,
        TrafficPattern::BitShuffle,
        TrafficPattern::BitReversal,
        TrafficPattern::Transpose,
        TrafficPattern::Adversarial1,
        TrafficPattern::Adversarial2,
        TrafficPattern::Asymmetric,
    ] {
        let r = sn.run_load(pattern, 0.05, args.warmup(), args.measure());
        table.push_row(vec![
            pattern.to_string(),
            format_float(r.avg_packet_latency(), 2),
            format_float(r.avg_hops(), 3),
        ]);
    }
    emit(&table, args, out)
}
