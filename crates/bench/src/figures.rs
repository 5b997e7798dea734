//! The figure registry: every table, figure and study of the paper's
//! evaluation as one row of [`REGISTRY`], reached through
//! `snoc repro <name>`.
//!
//! A figure is a function from the shared flags ([`Args`]) to bytes on
//! a writer. Figures that differ only in data — the class-comparison
//! latency figures (12/13/14), the per-node cost figures (16/17), the
//! energy sweeps — are one function each, parameterised by their row.

mod studies;
mod verify;

use crate::fault_storm::{retention_rows, storm_campaign, LOAD};
use crate::{
    energy_campaign, energy_load_grid, figure_campaign, io_err, latency_curves, load_grid, Args,
};
use snoc_core::{
    format_float, BufferPreset, Campaign, CampaignResult, PowerPoint, Series, Setup, SweepPoint,
    TextTable,
};
use snoc_field::{GeneratorSets, Gf};
use snoc_layout::{
    max_wires_per_tile, per_router_central_buffers, BufferModel, BufferSpec, Layout, SnLayout,
};
use snoc_power::{PowerModel, TechNode};
use snoc_sim::RoutingKind;
use snoc_topology::{paper_config, table2_rows, Topology};
use snoc_traffic::{benchmark_workloads, TrafficPattern};
use std::io::Write;

/// One reproducible table, figure or study.
pub struct Figure {
    /// Registry key: `snoc repro <name>`.
    pub name: &'static str,
    /// One-line description shown by `snoc repro --list`.
    pub about: &'static str,
    /// Runs the figure under the shared flags, writing its report to
    /// the writer. `Err` carries a diagnostic for a failed write or —
    /// for the self-checking `verify` entry — a detected divergence.
    pub run: fn(&Args, &mut dyn Write) -> Result<(), String>,
}

/// Every figure, in the order `snoc repro --list` prints them.
pub const REGISTRY: &[Figure] = &[
    Figure {
        name: "fig1",
        about: "headline comparison at N=1296: ADV1 latency, throughput/power",
        run: fig1,
    },
    Figure {
        name: "fig3",
        about: "cost of Slim Fly / Dragonfly used naively on-chip",
        run: fig3,
    },
    Figure {
        name: "fig5",
        about: "layout cost analysis: wire length, buffers, wire crossings",
        run: fig5,
    },
    Figure {
        name: "fig6",
        about: "link-distance distributions of the sn_gr / sn_subgr layouts",
        run: fig6,
    },
    Figure {
        name: "fig10",
        about: "effect of Slim NoC layouts on latency (N=200, no SMART)",
        run: fig10,
    },
    Figure {
        name: "fig11",
        about: "buffering strategies (edge, elastic, central) with/without SMART",
        run: fig11,
    },
    Figure {
        name: "fig12",
        about: "latency vs load with SMART, small class (campaign)",
        run: |a, o| class_figure(&FIG12, a, o),
    },
    Figure {
        name: "fig13",
        about: "latency vs load with SMART, N=1296 (campaign)",
        run: |a, o| class_figure(&FIG13, a, o),
    },
    Figure {
        name: "fig14",
        about: "latency vs load without SMART, small class (campaign)",
        run: |a, o| class_figure(&FIG14, a, o),
    },
    Figure {
        name: "fig15",
        about: "area and static power without SMART at N=200",
        run: fig15,
    },
    Figure {
        name: "fig16",
        about: "per-node area/static/dynamic power with SMART, small class",
        run: |a, o| {
            per_node_cost(
                "Fig 16",
                "N in {192,200}",
                &["fbf3", "fbf4", "pfbf3", "sn_s", "t2d4", "cm4"],
                a,
                o,
            )
        },
    },
    Figure {
        name: "fig17",
        about: "per-node area/static/dynamic power with SMART, N=1296",
        run: |a, o| {
            per_node_cost(
                "Fig 17",
                "N=1296",
                &["fbf8", "fbf9", "pfbf9", "sn_l", "t2d9", "cm9"],
                a,
                o,
            )
        },
    },
    Figure {
        name: "fig18",
        about: "energy-delay product on PARSEC/SPLASH-like traces vs FBF",
        run: fig18,
    },
    Figure {
        name: "fig19",
        about: "today's small-scale designs (N=54): latency, area, power",
        run: fig19,
    },
    Figure {
        name: "fig20",
        about: "adaptive routing (UGAL-L/G, XY) in input-queued routers",
        run: fig20,
    },
    Figure {
        name: "table2",
        about: "all Slim NoC configurations with N <= 1300",
        run: table2,
    },
    Figure {
        name: "table3",
        about: "GF(9) and GF(8) operation tables and generator sets",
        run: table3,
    },
    Figure {
        name: "table4",
        about: "the evaluated network configurations",
        run: table4,
    },
    Figure {
        name: "table5",
        about: "Slim NoC throughput/power gains over every baseline",
        run: table5,
    },
    Figure {
        name: "table6",
        about: "latency decrease due to SMART links per benchmark",
        run: table6,
    },
    Figure {
        name: "energy_mesh",
        about: "energy-efficiency sweep of the mesh (cm4)",
        run: |a, o| energy_figure("energy_mesh", &["cm4"], "Energy: mesh (cm4)", a, o),
    },
    Figure {
        name: "energy_torus",
        about: "energy-efficiency sweep of the torus (t2d4)",
        run: |a, o| energy_figure("energy_torus", &["t2d4"], "Energy: torus (t2d4)", a, o),
    },
    Figure {
        name: "energy_df",
        about: "energy-efficiency sweep of the Dragonfly (df3)",
        run: |a, o| energy_figure("energy_df", &["df3"], "Energy: dragonfly (df3)", a, o),
    },
    Figure {
        name: "energy_sn",
        about: "energy-efficiency sweep of the Slim NoC (sn_s)",
        run: |a, o| energy_figure("energy_sn", &["sn_s"], "Energy: Slim NoC (sn_s)", a, o),
    },
    Figure {
        name: "fig_energy",
        about: "matched-load throughput/Watt and EDP: mesh, torus, DF, SN",
        run: |a, o| {
            energy_figure(
                "fig_energy",
                &ENERGY_CLASS,
                "Energy figure: matched-load efficiency, N~200 class + df3",
                a,
                o,
            )
        },
    },
    Figure {
        name: "ablation",
        about: "Slim NoC design ingredients added one at a time",
        run: studies::ablation,
    },
    Figure {
        name: "resilience",
        about: "connectivity and path length under random link failures",
        run: studies::resilience,
    },
    Figure {
        name: "fault_storm",
        about: "delivered-throughput retention under live link storms",
        run: fault_storm,
    },
    Figure {
        name: "sensitivity",
        about: "the section 5.5 sensitivity summary",
        run: studies::sensitivity,
    },
    Figure {
        name: "verify",
        about: "differential verification against the reference simulator",
        run: verify::verify,
    },
];

/// Looks a figure up by its registry name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Figure> {
    REGISTRY.iter().find(|f| f.name == name)
}

/// The paper's small-class comparison set (N ∈ {192, 200}).
const SMALL_CLASS: [&str; 6] = ["cm3", "t2d3", "pfbf3", "pfbf4", "sn_s", "fbf3"];

/// The paper's large-class comparison set (N = 1296).
const LARGE_CLASS: [&str; 5] = ["cm9", "t2d9", "pfbf9", "sn_l", "fbf9"];

/// The energy-efficiency comparison class: the paper's matched-cost
/// N ∈ {192, 200} mesh/torus/Slim NoC plus the nearest balanced
/// Dragonfly (df3, N = 342; balanced DFs only exist at N = 2h²(2h²+1)).
/// All four sit in comparable bisection-per-node classes; metrics are
/// normalized per delivered flit, so the size mismatch washes out.
const ENERGY_CLASS: [&str; 4] = ["cm4", "t2d4", "df3", "sn_s"];

/// The four Slim NoC layouts, in the order Figs. 5 and 15 list them.
const SN_LAYOUTS: [(&str, SnLayout); 4] = [
    ("sn_rand", SnLayout::Random(1)),
    ("sn_basic", SnLayout::Basic),
    ("sn_gr", SnLayout::Group),
    ("sn_subgr", SnLayout::Subgroup),
];

/// Builds the named paper configurations (they never fail to build).
fn paper_setups(names: &[&str]) -> Vec<Setup> {
    names
        .iter()
        .map(|n| Setup::paper(n).expect("paper config"))
        .collect()
}

/// Writes one table in the format the flags select.
fn emit(table: &TextTable, args: &Args, out: &mut dyn Write) -> Result<(), String> {
    table.write_to(out, args.csv).map_err(io_err)
}

/// Writes a campaign's raw sweep JSON (`--json` of the campaign figures).
fn emit_json(result: &CampaignResult, out: &mut dyn Write) -> Result<(), String> {
    out.write_all(result.to_json().as_bytes()).map_err(io_err)
}

/// One row of a power table: a setup's power columns at one offered
/// load, driven by the activity its simulation measured.
struct PowerRow {
    name: String,
    /// Endpoints of the setup's topology; the per-node columns of
    /// Figs. 16, 17 and 19 divide the network totals by it.
    nodes: f64,
    power: PowerPoint,
}

/// Every setup's [`PowerRow`] under uniform random traffic at one
/// offered load: one power-aware campaign, one point per setup, in setup
/// order.
fn power_rows(
    campaign: &str,
    setups: Vec<Setup>,
    tech: TechNode,
    load: f64,
    args: &Args,
) -> Vec<PowerRow> {
    let nodes: Vec<usize> = setups.iter().map(|s| s.topology.node_count()).collect();
    let result = energy_campaign(campaign, setups, args)
        .with_power(tech)
        .with_loads(vec![load])
        .run();
    result
        .points
        .into_iter()
        .zip(nodes)
        .map(|(point, nodes)| PowerRow {
            power: point.power.expect("power-aware campaign"),
            name: point.setup,
            nodes: nodes as f64,
        })
        .collect()
}

/// The trace campaign behind Fig. 10b, Fig. 18 and Table 6: `setups` ×
/// the 14 workloads, the first tenth of each trace as warmup.
fn trace_campaign(name: &str, setups: Vec<Setup>, args: &Args) -> Campaign {
    let cycles = args.trace_cycles();
    figure_campaign(name, setups, Vec::new(), args)
        .with_workloads(benchmark_workloads())
        .with_windows(cycles / 10, cycles - cycles / 10)
}

/// The point of curve (setup, pattern or workload name) at `load`, for
/// figures that ran every curve over its whole grid.
fn point_at<'a>(result: &'a CampaignResult, setup: &str, curve: &str, load: f64) -> &'a SweepPoint {
    let point = result.point(setup, curve, load);
    point.expect("every grid point of the curve was run")
}

/// Writes the per-benchmark table the trace figures share: one row per
/// workload of the trace campaign `result`, one column per entry of
/// `columns`, holding `cell(the workload's point of a setup, column
/// index)` rendered by `fmt`. Returns the values by column.
fn benchmark_table<'a>(
    title: &str,
    columns: &[&str],
    result: &'a CampaignResult,
    cell: impl Fn(&dyn Fn(&str) -> &'a SweepPoint, usize) -> f64,
    fmt: fn(f64) -> String,
    args: &Args,
    out: &mut dyn Write,
) -> Result<Vec<Vec<f64>>, String> {
    let mut table = TextTable::new(title, &[&["benchmark"], columns].concat());
    let mut values = vec![Vec::new(); columns.len()];
    for w in benchmark_workloads() {
        let at = |setup: &str| point_at(result, setup, w.name, w.offered_flit_rate());
        let mut cells = vec![w.name.to_string()];
        for (i, column) in values.iter_mut().enumerate() {
            let value = cell(&at, i);
            column.push(value);
            cells.push(fmt(value));
        }
        table.push_row(cells);
    }
    emit(&table, args, out)?;
    Ok(values)
}

/// The geometric mean of a column of positive values.
fn geomean(column: &[f64]) -> f64 {
    column
        .iter()
        .product::<f64>()
        .powf(1.0 / column.len() as f64)
}

/// Figure 1: the headline comparison at N = 1296.
///
/// - (a) latency vs. load under the adversarial pattern (ADV1) for
///   Slim NoC, torus, mesh, and bisection-matched Flattened Butterflies;
/// - (b)/(c) throughput per power at 45 nm and 22 nm under random
///   traffic near each network's operating load.
///
/// All networks use the paper's shared microarchitecture (SMART links +
/// CBR-20, per §1's "all using the same microarchitectural schemes").
fn fig1(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let setups = || -> Vec<Setup> {
        paper_setups(&["t2d9", "cm9", "pfbf9", "sn_l", "fbf9"])
            .into_iter()
            .map(|s| s.with_smart(true).with_buffers(BufferPreset::Cbr(20)))
            .collect()
    };

    // (a) ADV1 latency-load curves.
    let curves = latency_curves(&setups(), TrafficPattern::Adversarial1, args);
    let title = "Fig 1a: latency [cycles] vs load, ADV1, N=1296 (SMART + CBR-20)";
    emit(&Series::tabulate(title, "load", &curves), args, out)?;

    // (b)/(c) Throughput per power at a heavy common offered load (0.4
    // flits/node/cycle of random traffic): every network delivers its
    // saturated throughput, and the metric divides flits delivered per
    // second by the power consumed during delivery.
    for tech in [TechNode::N45, TechNode::N22] {
        let mut table = TextTable::new(
            format!("Fig 1b/c: throughput per power ({tech}), RND @ 0.4 offered"),
            &["network", "throughput/power [flits/J]"],
        );
        for row in power_rows("fig1", setups(), tech, 0.40, args) {
            table.push_row(vec![
                row.name,
                format_float(row.power.throughput_per_watt, 3),
            ]);
        }
        emit(&table, args, out)?;
    }
    Ok(())
}

/// Figure 3: the cost of using Slim Fly and Dragonfly
/// *straightforwardly* as NoCs.
///
/// - (a) average wire length (hops) vs. core count for SF (naive basic
///   layout), DF, FBF (fixed radix and full bandwidth) and T2D;
/// - (b) area per node at N ≈ 200 for FBF, PFBF, T2D, CM, SF, DF;
/// - (c) static power per node for the same set.
fn fig3(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    // (a) Average wire length vs. core count.
    let mut sf = Series::new("slim-fly (naive)");
    for q in [3usize, 5, 7, 8, 9, 11, 13] {
        let p = (3 * q).div_ceil(4); // near-ideal concentration
        let t = Topology::slim_noc(q, p).expect("slim noc");
        let l = Layout::slim_noc(&t, SnLayout::Basic).expect("basic layout");
        if t.node_count() <= 2500 {
            sf.push(t.node_count() as f64, l.average_wire_length(&t));
        }
    }
    let mut df = Series::new("dragonfly");
    for h in [1usize, 2, 3, 4] {
        let t = Topology::dragonfly(h);
        let l = Layout::natural(&t);
        if t.node_count() <= 2500 {
            df.push(t.node_count() as f64, l.average_wire_length(&t));
        }
    }
    let mut fbf_full = Series::new("fbf (full bandwidth)");
    let mut t2d = Series::new("t2d");
    for side in [6usize, 8, 10, 12, 14, 16] {
        let p = 4;
        let fb = Topology::flattened_butterfly(side, side, p);
        let to = Topology::torus(side, side, p);
        if fb.node_count() <= 2500 {
            fbf_full.push(
                fb.node_count() as f64,
                Layout::natural(&fb).average_wire_length(&fb),
            );
            t2d.push(
                to.node_count() as f64,
                Layout::natural(&to).average_wire_length(&to),
            );
        }
    }
    let mut fbf_fixed = Series::new("fbf (fixed radix)");
    for p in [4usize, 8, 16, 32, 64, 128] {
        let t = Topology::flattened_butterfly(4, 4, p);
        if t.node_count() <= 2500 {
            fbf_fixed.push(
                t.node_count() as f64,
                Layout::natural(&t).average_wire_length(&t),
            );
        }
    }
    let title = "Fig 3a: average wire length [tile hops] vs cores";
    let series = [sf, df, fbf_fixed, fbf_full, t2d];
    emit(&Series::tabulate(title, "N", &series), args, out)?;

    // (b) + (c): area and static power per node at N ≈ 200.
    let model = PowerModel::new(TechNode::N45);
    let spec = BufferSpec::standard();
    // Naive Slim Fly: basic layout, RTT-sized buffers.
    let sf = Topology::slim_noc(5, 4).expect("sn");
    let sf_layout = Layout::slim_noc(&sf, SnLayout::Basic).expect("layout");
    let natural = |name: &'static str, t: Topology| {
        let l = Layout::natural(&t);
        (name, t, l)
    };
    let nets: Vec<(&str, Topology, Layout)> = vec![
        natural("FBF", Topology::flattened_butterfly(10, 5, 4)),
        natural("PFBF", Topology::partitioned_fbf(2, 1, 5, 5, 4)),
        natural("T2D", Topology::torus(10, 5, 4)),
        natural("CM", Topology::mesh(10, 5, 4)),
        ("SF", sf, sf_layout),
        natural("DF", Topology::dragonfly(3)), // 342 nodes, nearest DF size
    ];
    let mut table = TextTable::new(
        "Fig 3b/3c: naive off-chip topologies on-chip (≈200 cores, 45nm)",
        &["network", "N", "area/node [cm^2]", "static power/node [W]"],
    );
    for (name, t, l) in &nets {
        let flits = BufferModel::edge_buffers(t, l, spec).average_per_router() as usize;
        let area = model.area(t, l, flits);
        let stat = model.static_power(t, l, &area);
        table.push_row(vec![
            name.to_string(),
            t.node_count().to_string(),
            format_float(area.per_node_cm2(), 5),
            format_float(stat.per_node_w(), 5),
        ]);
    }
    emit(&table, args, out)
}

/// Figure 5: layout cost analysis over the Slim NoC configuration
/// space.
///
/// - (a) average wire length `M` vs. N for the four layouts;
/// - (b) per-router total buffer size without SMART (+ CBR-20/40 lines);
/// - (c) the same with SMART links;
/// - (d) maximum wire crossings `W` vs. the 22 nm technology bound.
fn fig5(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    // The configuration space: near-ideal concentration per q, capped
    // at `max_nodes` endpoints.
    let space = |max_nodes: usize| {
        [3usize, 4, 5, 7, 8, 9, 11]
            .into_iter()
            .map(|q| Topology::slim_noc(q, (3 * q).div_ceil(4)).expect("sn"))
            .filter(move |t| t.node_count() <= max_nodes)
    };
    let layout_series =
        || -> Vec<Series> { SN_LAYOUTS.iter().map(|(n, _)| Series::new(*n)).collect() };

    // (a) Average wire length M.
    let mut m_series = layout_series();
    for t in space(2000) {
        for (i, (_, kind)) in SN_LAYOUTS.into_iter().enumerate() {
            let l = Layout::slim_noc(&t, kind).expect("layout");
            m_series[i].push(t.node_count() as f64, l.average_wire_length(&t));
        }
    }
    let title = "Fig 5a: average wire length M [hops]";
    emit(&Series::tabulate(title, "N", &m_series), args, out)?;

    // (b)+(c) Per-router buffer totals.
    for (title, spec) in [
        (
            "Fig 5b: buffer flits per router (no SMART)",
            BufferSpec::standard(),
        ),
        (
            "Fig 5c: buffer flits per router (SMART, H=9)",
            BufferSpec::smart(),
        ),
    ] {
        let mut series = layout_series();
        let mut cbr20 = Series::new("CBR20");
        let mut cbr40 = Series::new("CBR40");
        for t in space(2000) {
            for (i, (_, kind)) in SN_LAYOUTS.into_iter().enumerate() {
                let l = Layout::slim_noc(&t, kind).expect("layout");
                let model = BufferModel::edge_buffers(&t, &l, spec);
                series[i].push(t.node_count() as f64, model.average_per_router());
            }
            cbr20.push(
                t.node_count() as f64,
                per_router_central_buffers(&t, 20, spec.vcs) as f64,
            );
            cbr40.push(
                t.node_count() as f64,
                per_router_central_buffers(&t, 40, spec.vcs) as f64,
            );
        }
        series.push(cbr20);
        series.push(cbr40);
        emit(&Series::tabulate(title, "N", &series), args, out)?;
    }

    // (d) Max wire crossings vs. the 22nm bound.
    let mut table = TextTable::new(
        "Fig 5d: max wires over one tile vs the technology bound",
        &["N", "layout", "max W", "bound(22nm)", "ok"],
    );
    for t in space(2500) {
        let bound = max_wires_per_tile(TechNode::N22, t.concentration());
        for (name, kind) in SN_LAYOUTS {
            let l = Layout::slim_noc(&t, kind).expect("layout");
            let stats = l.wire_stats(&t);
            table.push_row(vec![
                t.node_count().to_string(),
                name.to_string(),
                stats.max_crossings.to_string(),
                bound.to_string(),
                if stats.satisfies_limit(bound) {
                    "yes"
                } else {
                    "VIOLATED"
                }
                .to_string(),
            ]);
        }
    }
    emit(&table, args, out)
}

/// Figure 6: the distribution of link Manhattan distances in Slim NoCs
/// with N ∈ {200, 1024, 1296} for the two best layouts (sn_gr and
/// sn_subgr), binned in ranges of 2 as in the paper.
fn fig6(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let configs = [
        ("N=200", 5usize, 4usize),
        ("N=1024", 8, 8),
        ("N=1296", 9, 8),
    ];
    for (label, q, p) in configs {
        let t = Topology::slim_noc(q, p).expect("sn");
        let gr = Layout::slim_noc(&t, SnLayout::Group).expect("group");
        let sub = Layout::slim_noc(&t, SnLayout::Subgroup).expect("subgroup");
        let d_gr = gr.link_distance_density(&t, 2);
        let d_sub = sub.link_distance_density(&t, 2);
        let bins = d_gr.len().max(d_sub.len());
        let mut table = TextTable::new(
            format!("Fig 6 ({label}): link distance probability density"),
            &["distance range", "sn_gr", "sn_subgr"],
        );
        for b in 0..bins {
            table.push_row(vec![
                format!("{}-{}", 2 * b + 1, 2 * b + 2),
                format_float(d_gr.get(b).copied().unwrap_or(0.0), 3),
                format_float(d_sub.get(b).copied().unwrap_or(0.0), 3),
            ]);
        }
        emit(&table, args, out)?;
    }
    Ok(())
}

/// The `sn_s` paper setup re-placed with one Slim NoC layout.
fn sn_s_with_layout(layout: SnLayout) -> Setup {
    Setup::paper("sn_s")
        .expect("sn_s")
        .with_sn_layout(layout)
        .expect("layout")
}

/// Figure 10: the effect of Slim NoC layouts on performance at N = 200
/// without SMART links.
///
/// - (a) latency vs. load for REV / RND / SHF under each layout;
/// - (b) average latency on the 14 PARSEC/SPLASH-like workloads per
///   layout.
fn fig10(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let layout_setups = || -> Vec<Setup> {
        [
            ("sn_basic", SnLayout::Basic),
            ("sn_gr", SnLayout::Group),
            ("sn_rand", SnLayout::Random(1)),
            ("sn_subgr", SnLayout::Subgroup),
        ]
        .into_iter()
        .map(|(name, l)| {
            let mut s = sn_s_with_layout(l);
            s.name = name.to_string();
            s
        })
        .collect()
    };

    // (a) Synthetic patterns.
    for pattern in [
        TrafficPattern::BitReversal,
        TrafficPattern::Random,
        TrafficPattern::BitShuffle,
    ] {
        let curves = latency_curves(&layout_setups(), pattern, args);
        let title = format!("Fig 10a ({pattern}): latency vs load per SN layout, N=200, no SMART");
        emit(&Series::tabulate(title, "load", &curves), args, out)?;
    }

    // (b) Trace workloads.
    let columns = ["sn_basic", "sn_gr", "sn_subgr"];
    let setups = layout_setups()
        .into_iter()
        .filter(|s| columns.contains(&s.name.as_str()))
        .collect();
    let result = trace_campaign("fig10b", setups, args).run();
    let latency = benchmark_table(
        "Fig 10b: PARSEC/SPLASH-like latency [cycles] per SN layout",
        &columns,
        &result,
        |at, i| at(columns[i]).latency,
        |v| format_float(v, 2),
        args,
        out,
    )?;
    let gain = 100.0 * (1.0 - geomean(&latency[2]) / geomean(&latency[0]));
    writeln!(
        out,
        "sn_subgr vs sn_basic (geometric mean latency): {gain:.1}% lower (paper: ~5%)\n"
    )
    .map_err(io_err)
}

/// Figure 11: the impact of buffering strategies (edge buffers, elastic
/// links, central buffers) on Slim NoC latency, with and without SMART
/// links, for N = 200 and N = 1296.
fn fig11(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let presets = [
        ("EB-Small", BufferPreset::EbSmall),
        ("EB-Var", BufferPreset::EbVar),
        ("EB-Large", BufferPreset::EbLarge),
        ("EL-Links", BufferPreset::ElLinks),
        ("CBR-40", BufferPreset::Cbr(40)),
        ("CBR-6", BufferPreset::Cbr(6)),
    ];
    for (size_label, cfg_name) in [("200", "sn_s"), ("1296", "sn_l")] {
        for smart in [false, true] {
            let smart_label = if smart { "SMART" } else { "No-SMART" };
            let setups: Vec<Setup> = presets
                .into_iter()
                .map(|(name, preset)| {
                    let mut s = Setup::paper(cfg_name)
                        .expect("config")
                        .with_buffers(preset)
                        .with_smart(smart);
                    s.name = name.to_string();
                    s
                })
                .collect();
            let curves = latency_curves(&setups, TrafficPattern::Random, args);
            let title = format!("Fig 11 (N={size_label}, {smart_label}): latency vs load, RND");
            emit(&Series::tabulate(title, "load", &curves), args, out)?;
        }
    }
    Ok(())
}

/// One class-comparison latency figure (Figs. 12–14): a sweep campaign
/// of `setups` × the paper pattern set × the standard load grid.
struct ClassFigure {
    /// Campaign name (recorded in the `--json` output).
    name: &'static str,
    /// Title prefix, e.g. `Fig 12`.
    figure: &'static str,
    subtitle: &'static str,
    setups: &'static [&'static str],
    smart: bool,
    /// The Slim NoC setup the ratio annotations compare against…
    sn: &'static str,
    /// …each of these.
    baselines: &'static [&'static str],
}

/// Figure 12: synthetic-traffic performance with SMART links for the
/// small network class across all topologies.
const FIG12: ClassFigure = ClassFigure {
    name: "fig12",
    figure: "Fig 12",
    subtitle: "latency vs load, SMART, N in {192,200}",
    setups: &SMALL_CLASS,
    smart: true,
    sn: "sn_s",
    baselines: &["cm3", "t2d3", "pfbf3", "pfbf4", "fbf3"],
};

/// Figure 13: the same for the large network class (N = 1296).
const FIG13: ClassFigure = ClassFigure {
    name: "fig13",
    figure: "Fig 13",
    subtitle: "latency vs load, SMART, N=1296",
    setups: &LARGE_CLASS,
    smart: true,
    sn: "sn_l",
    baselines: &["cm9", "t2d9", "pfbf9", "fbf9"],
};

/// Figure 14: the small class *without* SMART links — the case where
/// Slim NoC's longer wires cost latency against FBF.
const FIG14: ClassFigure = ClassFigure {
    name: "fig14",
    figure: "Fig 14",
    subtitle: "latency vs load, no SMART, N in {192,200}",
    setups: &SMALL_CLASS,
    smart: false,
    sn: "sn_s",
    baselines: &["cm3", "t2d3", "pfbf3", "fbf3"],
};

/// Runs one [`ClassFigure`]: a latency-vs-load table per pattern plus
/// the paper's SN/baseline latency-ratio annotations at the lowest
/// load. With `--json` the raw campaign result is emitted instead.
fn class_figure(fig: &ClassFigure, args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let setups = paper_setups(fig.setups)
        .into_iter()
        .map(|s| s.with_smart(fig.smart))
        .collect();
    let result = figure_campaign(fig.name, setups, TrafficPattern::paper_set(), args).run();
    if args.json {
        return emit_json(&result, out);
    }
    let (figure, low) = (fig.figure, load_grid()[0]);
    for pattern in &result.patterns {
        let curves = result.series(pattern);
        let title = format!("{figure} ({pattern}): {}", fig.subtitle);
        emit(&Series::tabulate(title, "load", &curves), args, out)?;
        // A curve already saturated at the grid's lowest load has no ratio.
        let at_low = |name: &str| {
            let point = result.point(name, pattern, low);
            point.filter(|p| !p.saturated).map(|p| p.latency)
        };
        if let Some(sn_lat) = at_low(fig.sn) {
            let mut table = TextTable::new(
                format!("{figure} ({pattern}): SN latency ratio at load 0.008"),
                &["baseline", "SN/baseline"],
            );
            for base in fig.baselines {
                if let Some(b) = at_low(base) {
                    table.push_row(vec![
                        (*base).to_string(),
                        format!("{:.0}%", 100.0 * sn_lat / b),
                    ]);
                }
            }
            emit(&table, args, out)?;
        }
    }
    Ok(())
}

/// Figure 15: area and static power without SMART links at N = 200.
///
/// - (a) total area of the four Slim NoC layouts;
/// - (b) total area per network (fbf4, pfbf4, sn_subgr, t2d4, cm4);
/// - (c) total static power per network.
fn fig15(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let tech = TechNode::N45;

    // (a) SN layouts (RTT-sized buffers make layout quality visible).
    let mut table = TextTable::new(
        "Fig 15a: total area of SN layouts (N=200, no SMART, EB-Var)",
        &["layout", "area [cm^2]"],
    );
    for (name, l) in SN_LAYOUTS {
        let s = sn_s_with_layout(l).with_buffers(BufferPreset::EbVar);
        let model = s.power_model(tech);
        let area = model.area(&s.topology, &s.layout, s.buffer_flits_per_router());
        table.push_row(vec![
            name.to_string(),
            format_float(area.total_mm2() / 100.0, 4),
        ]);
    }
    emit(&table, args, out)?;

    // (b) + (c) per network.
    let mut table = TextTable::new(
        "Fig 15b/c: area and static power per network (N=200, no SMART)",
        &[
            "network",
            "area routers [cm^2]",
            "area wires [cm^2]",
            "area total [cm^2]",
            "static power [W]",
        ],
    );
    for s in paper_setups(&["fbf4", "pfbf4", "sn_s", "t2d4", "cm4"]) {
        let s = s.with_buffers(BufferPreset::EbVar);
        let model = s.power_model(tech);
        let area = model.area(&s.topology, &s.layout, s.buffer_flits_per_router());
        let stat = model.static_power(&s.topology, &s.layout, &area);
        table.push_row(vec![
            s.name.clone(),
            format_float(area.routers_mm2() / 100.0, 4),
            format_float(area.wires_mm2() / 100.0, 4),
            format_float(area.total_mm2() / 100.0, 4),
            format_float(stat.total_w(), 3),
        ]);
    }
    emit(&table, args, out)
}

/// The paper's power-evaluation design point: SMART links on,
/// RTT-sized edge buffers.
fn smart_eb_var(names: &[&str]) -> Vec<Setup> {
    paper_setups(names)
        .into_iter()
        .map(|s| s.with_smart(true).with_buffers(BufferPreset::EbVar))
        .collect()
}

/// Figures 16 and 17: per-node area, static power and dynamic power
/// with SMART links for one size class at 45 nm and 22 nm.
fn per_node_cost(
    figure: &str,
    class: &str,
    names: &[&str],
    args: &Args,
    out: &mut dyn Write,
) -> Result<(), String> {
    for tech in [TechNode::N45, TechNode::N22] {
        let mut table = TextTable::new(
            format!("{figure} ({tech}): per-node area/power, SMART, {class}"),
            &[
                "network",
                "area/node [cm^2]",
                "static/node [W]",
                "dynamic/node [W]",
            ],
        );
        for row in power_rows(figure, smart_eb_var(names), tech, 0.10, args) {
            table.push_row(vec![
                row.name,
                format_float(row.power.area_mm2 / 100.0 / row.nodes, 5),
                format_float(row.power.static_w / row.nodes, 5),
                format_float(row.power.dynamic_w / row.nodes, 5),
            ]);
        }
        emit(&table, args, out)?;
    }
    Ok(())
}

/// The four networks of the trace-driven comparisons (Fig. 18, Table 6).
const TRACE_NETS: [&str; 4] = ["fbf3", "pfbf3", "cm3", "sn_s"];

/// Figure 18: energy–delay product on the PARSEC/SPLASH-like workloads,
/// normalized to FBF, for fbf3 / pfbf3 / cm3 / sn_subgr (SMART links
/// on, 45 nm).
fn fig18(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let result = trace_campaign("fig18", smart_eb_var(&TRACE_NETS), args)
        .with_power(TechNode::N45)
        .run();
    if args.json {
        return emit_json(&result, out);
    }
    let edp = |p: &SweepPoint| p.power.expect("power-aware campaign").edp_js;
    let normalized = benchmark_table(
        "Fig 18: energy-delay product normalized to FBF (SMART, 45nm)",
        &["fbf3", "pfbf3", "cm3", "sn_subgr"],
        &result,
        |at, i| edp(at(TRACE_NETS[i])) / edp(at(TRACE_NETS[0])),
        |v| format_float(v, 3),
        args,
        out,
    )?;
    let mut summary = TextTable::new(
        "Fig 18 summary: geometric-mean EDP vs FBF (paper: SN 55% better)",
        &["network", "geomean EDP / FBF"],
    );
    for (net, column) in TRACE_NETS.iter().zip(normalized) {
        summary.push_row(vec![net.to_string(), format_float(geomean(&column), 3)]);
    }
    emit(&summary, args, out)
}

/// Figure 19: today's small-scale designs (N = 54, the KNL scale of
/// §5.6) — latency, per-node area and per-node dynamic power at 45 nm
/// with SMART links.
fn fig19(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let setups = || smart_eb_var(&["fbf54", "pfbf54", "sn54", "t2d54"]);

    // (a) Latency-load.
    let curves = latency_curves(&setups(), TrafficPattern::Random, args);
    let title = "Fig 19a: latency vs load, N=54, SMART, RND";
    emit(&Series::tabulate(title, "load", &curves), args, out)?;

    // (b)+(c) Area and dynamic power per node.
    let mut table = TextTable::new(
        "Fig 19b/c: per-node area and dynamic power, N=54 (45nm, SMART)",
        &["network", "area/node [cm^2]", "dynamic/node [W]"],
    );
    for row in power_rows("fig19", setups(), TechNode::N45, 0.10, args) {
        table.push_row(vec![
            row.name,
            format_float(row.power.area_mm2 / 100.0 / row.nodes, 5),
            format_float(row.power.dynamic_w / row.nodes, 5),
        ]);
    }
    emit(&table, args, out)
}

/// Figure 20: preliminary adaptive-routing analysis at N = 200 in
/// simple input-queued routers (no CBR / SMART / elastic links): SN
/// with MIN / UGAL-L / UGAL-G vs. FBF with MIN / UGAL-L / XY-adaptive,
/// under uniform random and the asymmetric pattern of §6.
fn fig20(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let setups: Vec<Setup> = [
        ("SN_MIN", "sn_s", RoutingKind::Minimal),
        ("SN_UGAL-L", "sn_s", RoutingKind::UgalL),
        ("SN_UGAL-G", "sn_s", RoutingKind::UgalG),
        ("FBF_MIN", "fbf4", RoutingKind::Minimal),
        ("FBF_UGAL-L", "fbf4", RoutingKind::UgalL),
        ("FBF_XY-ADAPT", "fbf4", RoutingKind::XyAdaptive),
    ]
    .into_iter()
    .map(|(name, config, routing)| {
        let mut s = Setup::paper(config)
            .expect("paper config")
            .with_routing(routing);
        s.name = name.to_string();
        s
    })
    .collect();
    for pattern in [TrafficPattern::Random, TrafficPattern::Asymmetric] {
        let curves = latency_curves(&setups, pattern, args);
        let title = format!("Fig 20 ({pattern}): adaptive routing, N=200, input-queued routers");
        emit(&Series::tabulate(title, "load", &curves), args, out)?;
    }
    Ok(())
}

/// Table 2: all Slim NoC configurations with N ≤ 1300 nodes, split into
/// non-prime and prime finite fields, with the paper's highlight
/// columns (power-of-two N; equal groups per die side).
fn table2(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let rows = table2_rows(1300);
    for prime in [false, true] {
        let title = if prime {
            "Table 2 (lower half): prime finite fields"
        } else {
            "Table 2 (upper half): non-prime finite fields"
        };
        let mut table = TextTable::new(
            title,
            &[
                "k'",
                "p",
                "p_ideal",
                "sub%",
                "N",
                "N_r",
                "q",
                "pow2(N)",
                "eq.groups",
                "square(N)",
            ],
        );
        for r in rows.iter().filter(|r| r.prime_field == prime) {
            table.push_row(vec![
                r.network_radix.to_string(),
                r.concentration.to_string(),
                r.ideal_concentration.to_string(),
                format!("{}%", r.subscription_percent),
                r.network_size.to_string(),
                r.router_count.to_string(),
                r.q.to_string(),
                if r.n_power_of_two { "bold" } else { "" }.to_string(),
                if r.equal_groups_per_side { "grey" } else { "" }.to_string(),
                if r.n_perfect_square { "dark" } else { "" }.to_string(),
            ]);
        }
        emit(&table, args, out)?;
    }
    Ok(())
}

/// Table 3: addition, product and inverse-element tables for GF(9) and
/// GF(8), plus the generator element ξ and the generator sets X and X′
/// of §3.5.2.
///
/// GF(9) uses the canonical first irreducible modulus (x² + 1), which is
/// exactly the field printed in the paper. The paper's GF(8) table
/// corresponds to the modulus x³ + x² + 1, which we pass explicitly.
fn table3(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let f9 = Gf::new(9).expect("GF(9)");
    field_tables("GF(9) [modulus x^2 + 1]", &f9, args, out)?;
    let f8 = Gf::with_modulus(8, &[1, 0, 1, 1]).expect("GF(8) with x^3 + x^2 + 1");
    field_tables("GF(8) [modulus x^3 + x^2 + 1]", &f8, args, out)
}

fn field_tables(name: &str, field: &Gf, args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let names: Vec<String> = field.elements().map(|e| field.element_name(e)).collect();
    let mut header: Vec<&str> = vec!["+"];
    header.extend(names.iter().map(String::as_str));

    let mut add = TextTable::new(format!("{name}: addition"), &header);
    for (i, row) in field.addition_table().into_iter().enumerate() {
        let mut cells = vec![names[i].clone()];
        cells.extend(row);
        add.push_row(cells);
    }
    emit(&add, args, out)?;

    header[0] = "x";
    let mut mul = TextTable::new(format!("{name}: product"), &header);
    for (i, row) in field.multiplication_table().into_iter().enumerate() {
        let mut cells = vec![names[i].clone()];
        cells.extend(row);
        mul.push_row(cells);
    }
    emit(&mul, args, out)?;

    let mut neg = TextTable::new(format!("{name}: inverse elements"), &["e", "-e"]);
    for (e, ne) in field.negation_table() {
        neg.push_row(vec![e, ne]);
    }
    emit(&neg, args, out)?;

    let sets = GeneratorSets::generate(field).expect("paper fields have generator sets");
    let fmt = |set: &[snoc_field::Elem]| {
        set.iter()
            .map(|&e| field.element_name(e))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut meta = TextTable::new(format!("{name}: generators"), &["item", "value"]);
    meta.push_row(vec![
        "xi (smallest)".into(),
        field.element_name(field.generator()),
    ]);
    meta.push_row(vec!["all generators".into(), fmt(&field.all_generators())]);
    meta.push_row(vec!["X".into(), fmt(sets.x())]);
    meta.push_row(vec!["X'".into(), fmt(sets.x_prime())]);
    emit(&meta, args, out)
}

/// Table 4: the evaluated network configurations for both size classes,
/// with derived parameters (p, k', k, router grid, N) and measured
/// structural properties (diameter, bisection links).
fn table4(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let mut table = TextTable::new(
        "Table 4: considered configurations",
        &[
            "sym",
            "D",
            "p",
            "k'",
            "k",
            "routers",
            "N",
            "bisection links",
        ],
    );
    let names = [
        "t2d3", "t2d4", "cm3", "cm4", "fbf3", "fbf4", "pfbf3", "pfbf4", "sn_s", "t2d9", "t2d8",
        "cm9", "cm8", "fbf9", "fbf8", "pfbf9", "pfbf8", "sn_l",
    ];
    for name in names {
        let cfg = paper_config(name).expect("paper config");
        let t = &cfg.topology;
        let layout = Layout::natural(t);
        table.push_row(vec![
            name.to_string(),
            t.diameter().to_string(),
            t.concentration().to_string(),
            t.network_radix().to_string(),
            t.router_radix().to_string(),
            format!("{}x{}", layout.grid().0, layout.grid().1),
            t.node_count().to_string(),
            layout.bisection_links(t).to_string(),
        ]);
    }
    emit(&table, args, out)
}

/// Table 5: Slim NoC's relative throughput-per-power gains over every
/// other topology under random traffic, at 45 nm and 22 nm, for both
/// size classes.
///
/// Every network runs at a heavy common offered load, so each delivers
/// its saturated throughput while consuming its own saturated power
/// (the paper divides delivered flits per cycle by the power consumed
/// during delivery).
fn table5(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    // Slim NoC first, then its baselines.
    let classes: [(&str, [&str; 6]); 2] = [
        (
            "N in {192,200}",
            ["sn_s", "t2d4", "cm4", "pfbf3", "fbf3", "fbf4"],
        ),
        ("N = 1296", ["sn_l", "t2d9", "cm9", "pfbf9", "fbf8", "fbf9"]),
    ];
    for (class, names) in classes {
        for tech in [TechNode::N45, TechNode::N22] {
            let rows = power_rows("table5", smart_eb_var(&names), tech, 0.40, args);
            let sn_tpp = rows[0].power.throughput_per_watt;
            let mut table = TextTable::new(
                format!("Table 5 ({class}, {tech}): SN throughput/power advantage, RND"),
                &["baseline", "SN gain"],
            );
            for row in rows.into_iter().skip(1) {
                let gain = 100.0 * (sn_tpp / row.power.throughput_per_watt - 1.0);
                table.push_row(vec![row.name, format!("{gain:+.0}%")]);
            }
            emit(&table, args, out)?;
        }
    }
    Ok(())
}

/// Table 6: the percentage decrease in average packet latency due to
/// SMART links, per topology, per PARSEC/SPLASH-like benchmark
/// (N = 192/200 class).
fn table6(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let smart_name = |net: &str| format!("{net}+smart");
    let setups = smart_eb_var(&TRACE_NETS)
        .into_iter()
        .flat_map(|smart| {
            let plain = smart.clone().with_smart(false);
            let name = smart_name(&smart.name);
            [plain, Setup { name, ..smart }]
        })
        .collect();
    let result = trace_campaign("table6", setups, args).run();
    if args.json {
        return emit_json(&result, out);
    }
    let gains = benchmark_table(
        "Table 6: % latency decrease due to SMART links",
        &["fbf3", "pfbf3", "cm3", "sn"],
        &result,
        |at, i| {
            let no = at(TRACE_NETS[i]).latency;
            let yes = at(&smart_name(TRACE_NETS[i])).latency;
            if no > 0.0 {
                100.0 * (1.0 - yes / no)
            } else {
                0.0
            }
        },
        |v| format!("{v:.1}"),
        args,
        out,
    )?;
    let mut summary = TextTable::new(
        "Table 6 summary: mean latency gain from SMART (paper: SN largest at ~11%)",
        &["network", "mean gain %"],
    );
    for (net, column) in TRACE_NETS.iter().zip(gains) {
        let mean = column.iter().sum::<f64>() / column.len() as f64;
        summary.push_row(vec![net.to_string(), format!("{mean:.1}")]);
    }
    emit(&summary, args, out)
}

/// The energy figures: a power-aware campaign of `setups` whose
/// dynamic power is driven by the activity factors the simulator
/// *measured* (buffer reads/writes, crossbar traversals, allocator
/// grants, link flit·tiles) — no analytic activity defaults. Prints one
/// power/efficiency table per load, plus every setup's ratio of
/// throughput/Watt and EDP against the first setup at the highest load
/// (§5.4's matched-load methodology: past the mesh/torus saturation
/// knee the low-diameter Slim NoC keeps accepting traffic at ~2
/// hops/packet, so its delivered flits per joule pull ahead). With
/// `--json` the raw `slim_noc-sweep-v2` campaign result is emitted
/// instead.
fn energy_figure(
    name: &str,
    setups: &[&str],
    figure: &str,
    args: &Args,
    out: &mut dyn Write,
) -> Result<(), String> {
    let result = energy_campaign(name, paper_setups(setups), args).run();
    if args.json {
        return emit_json(&result, out);
    }
    let baseline = setups[0];
    let pattern = &result.patterns[0];
    let loads = energy_load_grid();
    for &load in &loads {
        let mut table = TextTable::new(
            format!("{figure} ({pattern}): offered load {load} flits/node/cycle"),
            &[
                "setup",
                "thpt",
                "latency",
                "power[W]",
                "area[mm2]",
                "thpt/W[flits/J]",
                "E/flit[pJ]",
                "EDP[J*s]",
            ],
        );
        for name in &result.setups {
            let Some(p) = result.point(name, pattern, load) else {
                continue;
            };
            let pw = p.power.expect("power-aware campaign");
            table.push_row(vec![
                name.clone(),
                format_float(p.throughput, 3),
                format_float(p.latency, 1),
                format_float(pw.power_w, 2),
                format_float(pw.area_mm2, 1),
                format_float(pw.throughput_per_watt, 3),
                format_float(pw.energy_per_flit_j * 1e12, 2),
                format_float(pw.edp_js, 3),
            ]);
        }
        emit(&table, args, out)?;
    }
    // Matched-load efficiency ratios at the top of the grid, the
    // figure's headline comparison.
    if let Some(&top) = loads.last() {
        let at_top = |name: &str| result.point(name, pattern, top).and_then(|p| p.power);
        if let Some(base) = at_top(baseline) {
            let mut table = TextTable::new(
                format!("{figure}: efficiency vs {baseline} at load {top}"),
                &["setup", "thpt/W ratio", "EDP ratio"],
            );
            for name in &result.setups {
                if let Some(pw) = at_top(name) {
                    table.push_row(vec![
                        name.clone(),
                        format!("{:.2}x", pw.throughput_per_watt / base.throughput_per_watt),
                        format!("{:.2}x", pw.edp_js / base.edp_js),
                    ]);
                }
            }
            emit(&table, args, out)?;
        }
    }
    Ok(())
}

/// Extension study: delivered-throughput retention under live
/// link-failure storms — the dynamic half of §2.1's resilience claim
/// (see [`crate::fault_storm`] for the campaign). `--json` emits the
/// raw sweep campaign JSON (degraded points carry a `dropped_packets`
/// column).
fn fault_storm(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let result = storm_campaign(args).run();
    if args.json {
        return emit_json(&result, out);
    }
    let mut table = TextTable::new(
        format!("Delivered-throughput retention under live link storms (load {LOAD})"),
        &[
            "network",
            "failed links",
            "thpt",
            "dropped pkts",
            "retention",
        ],
    );
    for row in retention_rows(&result) {
        table.push_row(vec![
            format!("{}@{:.0}%", row.network, row.fraction * 100.0),
            row.links_failed.to_string(),
            format_float(row.throughput, 4),
            row.dropped.to_string(),
            format!("{:.0}%", row.retention * 100.0),
        ]);
    }
    emit(&table, args, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_cli_words_that_find_resolves() {
        for (i, figure) in REGISTRY.iter().enumerate() {
            assert!(
                figure
                    .name
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'),
                "`{}` is not a plain CLI word",
                figure.name
            );
            assert!(
                !figure.about.is_empty(),
                "{} has no description",
                figure.name
            );
            assert!(
                REGISTRY[..i].iter().all(|f| f.name != figure.name),
                "duplicate registry name `{}`",
                figure.name
            );
            assert_eq!(find(figure.name).map(|f| f.name), Some(figure.name));
        }
        assert!(find("fig2").is_none());
    }

    #[test]
    fn class_setup_lists_build() {
        assert_eq!(paper_setups(&SMALL_CLASS).len(), 6);
        assert_eq!(paper_setups(&LARGE_CLASS).len(), 5);
        assert_eq!(paper_setups(&ENERGY_CLASS).len(), 4);
    }
}
