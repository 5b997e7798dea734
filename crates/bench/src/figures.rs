//! The figure registry: every table, figure and study of the paper's
//! evaluation as one row of [`REGISTRY`], reached through
//! `snoc repro <name>`.
//!
//! A figure that simulates is data where it can be: each of its
//! campaigns is a committed `slim_noc-spec-v1` file under `specs/`,
//! drawn by one of five shared renderers ([`Render`]). Code writes the
//! rest: the analytic figures, the studies that fold several campaigns
//! into one table, `fault_storm` and `verify`.

/// The text of the committed campaign spec `specs/<stem>.json`.
macro_rules! spec {
    ($stem:literal) => {
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../specs/",
            $stem,
            ".json"
        ))
    };
}

mod studies;
mod verify;

use crate::fault_storm::{retention_rows, storm_spec, LOAD};
use crate::{io_err, Args};
use snoc_core::{
    format_float, BufferPreset, Campaign, CampaignResult, CampaignSpec, PointCache, PowerPoint,
    Series, Setup, SetupSpec, SpecError, SweepPoint, TextTable,
};
use snoc_field::{GeneratorSets, Gf};
use snoc_layout::{
    max_wires_per_tile, per_router_central_buffers, BufferModel, BufferSpec, Layout, SnLayout,
};
use snoc_power::{PowerModel, TechNode};
use snoc_topology::{paper_config, table2_rows, Topology};
use std::io::Write;
use std::sync::Arc;
use Draw::{Code, Json, Panels};
use Render::{Benchmarks, Energy, Gain, Latency, Power};

/// One reproducible table, figure or study.
pub struct Figure {
    /// Registry key: `snoc repro <name>`.
    pub name: &'static str,
    /// One-line description shown by `snoc repro --list`.
    pub about: &'static str,
    /// How the figure makes its report.
    pub draw: Draw,
}

/// Code that writes a report under the flags.
pub type Run = fn(&Args, &mut dyn Write) -> Result<(), String>;

/// How a [`Figure`] makes its report.
pub enum Draw {
    /// Committed campaigns (spec texts), each drawn by a shared renderer.
    Panels(&'static [(&'static str, Render)]),
    /// Code, running the committed campaigns listed; it refuses `--json`.
    Code(&'static [&'static str], Run),
    /// Code that answers `--json`: with its one campaign's sweep JSON, or
    /// with a JSON form of its own.
    Json(Run),
}

/// A shared renderer: how a committed campaign's result becomes tables.
/// `{pattern}` and `{tech}` in a title stand for the table's pattern and
/// technology node.
pub enum Render {
    /// `(title, ratios)`: a latency–load table per pattern. With
    /// `ratios = Some((sn, baselines))` each is followed by `sn`'s
    /// latency as a share of each baseline's at the lowest load.
    Latency(
        &'static str,
        Option<(&'static str, &'static [&'static str])>,
    ),
    /// `(title, nodes, columns)`: a row of power columns per setup of a
    /// one-load campaign, run at each node.
    Power(&'static str, &'static [TechNode], &'static [PowerColumn]),
    /// `(title, nodes)`: the first setup's throughput-per-watt gain over
    /// every other setup, at each node.
    Gain(&'static str, &'static [TechNode]),
    /// `(title, headers, cell, summary)`: a row per trace workload and a
    /// column per header, then the summary `cell` names.
    Benchmarks(&'static str, &'static [&'static str], Cell, &'static str),
    /// `(title)`: power and efficiency of every setup at each load, then
    /// every setup's throughput/W and EDP against the first's at the top
    /// load.
    Energy(&'static str),
}

/// A column of a [`Render::Power`] table.
#[derive(Debug, Clone, Copy)]
pub enum PowerColumn {
    /// Delivered flits per joule.
    ThroughputPerWatt,
    /// Area per endpoint in cm².
    AreaPerNode,
    /// Static power per endpoint in W.
    StaticPerNode,
    /// Dynamic power per endpoint in W.
    DynamicPerNode,
}

/// What column `i` of a [`Render::Benchmarks`] table holds, and how the
/// table is summarised.
#[derive(Debug, Clone, Copy)]
pub enum Cell {
    /// Setup `i`'s mean latency in cycles. Summary: a line, `{gain}` set
    /// to the last column's geometric-mean latency cut against the first.
    Latency,
    /// Setup `i`'s EDP over setup 0's. Summary: each column's geometric
    /// mean.
    EdpRatio,
    /// The latency cut in % that SMART links give network `i`: setup
    /// `2i` without them, `2i + 1` with. Summary: each column's mean.
    SmartGain,
}

/// Both technology nodes of the power tables.
const BOTH_NODES: &[TechNode] = &[TechNode::N45, TechNode::N22];

/// The per-node columns of Figs. 16 and 17.
const PER_NODE: &[PowerColumn] = &[
    PowerColumn::AreaPerNode,
    PowerColumn::StaticPerNode,
    PowerColumn::DynamicPerNode,
];

/// Every figure, in the order `snoc repro --list` prints them.
pub const REGISTRY: &[Figure] = &[
    Figure {
        name: "fig1",
        about: "headline comparison at N=1296: ADV1 latency, throughput/power",
        draw: Panels(&[
            (
                spec!("fig1a"),
                Latency(
                    "Fig 1a: latency [cycles] vs load, ADV1, N=1296 (SMART + CBR-20)",
                    None,
                ),
            ),
            (
                spec!("fig1bc"),
                Power(
                    "Fig 1b/c: throughput per power ({tech}), RND @ 0.4 offered",
                    BOTH_NODES,
                    &[PowerColumn::ThroughputPerWatt],
                ),
            ),
        ]),
    },
    Figure {
        name: "fig3",
        about: "cost of Slim Fly / Dragonfly used naively on-chip",
        draw: Code(&[], fig3),
    },
    Figure {
        name: "fig5",
        about: "layout cost analysis: wire length, buffers, wire crossings",
        draw: Code(&[], fig5),
    },
    Figure {
        name: "fig6",
        about: "link-distance distributions of the sn_gr / sn_subgr layouts",
        draw: Code(&[], fig6),
    },
    Figure {
        name: "fig10",
        about: "effect of Slim NoC layouts on latency (N=200, no SMART)",
        draw: Panels(&[
            (
                spec!("fig10a"),
                Latency(
                    "Fig 10a ({pattern}): latency vs load per SN layout, N=200, no SMART",
                    None,
                ),
            ),
            (
                spec!("fig10b"),
                Benchmarks(
                    "Fig 10b: PARSEC/SPLASH-like latency [cycles] per SN layout",
                    &["sn_basic", "sn_gr", "sn_subgr"],
                    Cell::Latency,
                    "sn_subgr vs sn_basic (geometric mean latency): {gain}% lower (paper: ~5%)",
                ),
            ),
        ]),
    },
    Figure {
        name: "fig11",
        about: "buffering strategies (edge, elastic, central) with/without SMART",
        draw: Panels(&[
            (
                spec!("fig11_200"),
                Latency("Fig 11 (N=200, No-SMART): latency vs load, RND", None),
            ),
            (
                spec!("fig11_200_smart"),
                Latency("Fig 11 (N=200, SMART): latency vs load, RND", None),
            ),
            (
                spec!("fig11_1296"),
                Latency("Fig 11 (N=1296, No-SMART): latency vs load, RND", None),
            ),
            (
                spec!("fig11_1296_smart"),
                Latency("Fig 11 (N=1296, SMART): latency vs load, RND", None),
            ),
        ]),
    },
    Figure {
        name: "fig12",
        about: "latency vs load with SMART, small class (campaign)",
        draw: Panels(&[(
            spec!("fig12"),
            Latency(
                "Fig 12 ({pattern}): latency vs load, SMART, N in {192,200}",
                Some(("sn_s", &["cm3", "t2d3", "pfbf3", "pfbf4", "fbf3"])),
            ),
        )]),
    },
    Figure {
        name: "fig13",
        about: "latency vs load with SMART, N=1296 (campaign)",
        draw: Panels(&[(
            spec!("fig13"),
            Latency(
                "Fig 13 ({pattern}): latency vs load, SMART, N=1296",
                Some(("sn_l", &["cm9", "t2d9", "pfbf9", "fbf9"])),
            ),
        )]),
    },
    Figure {
        name: "fig14",
        about: "latency vs load without SMART, small class (campaign)",
        draw: Panels(&[(
            spec!("fig14"),
            Latency(
                "Fig 14 ({pattern}): latency vs load, no SMART, N in {192,200}",
                Some(("sn_s", &["cm3", "t2d3", "pfbf3", "fbf3"])),
            ),
        )]),
    },
    Figure {
        name: "fig15",
        about: "area and static power without SMART at N=200",
        draw: Code(&[], fig15),
    },
    Figure {
        name: "fig16",
        about: "per-node area/static/dynamic power with SMART, small class",
        draw: Panels(&[(
            spec!("fig16"),
            Power(
                "Fig 16 ({tech}): per-node area/power, SMART, N in {192,200}",
                BOTH_NODES,
                PER_NODE,
            ),
        )]),
    },
    Figure {
        name: "fig17",
        about: "per-node area/static/dynamic power with SMART, N=1296",
        draw: Panels(&[(
            spec!("fig17"),
            Power(
                "Fig 17 ({tech}): per-node area/power, SMART, N=1296",
                BOTH_NODES,
                PER_NODE,
            ),
        )]),
    },
    Figure {
        name: "fig18",
        about: "energy-delay product on PARSEC/SPLASH-like traces vs FBF",
        draw: Panels(&[(
            spec!("fig18"),
            Benchmarks(
                "Fig 18: energy-delay product normalized to FBF (SMART, 45nm)",
                &["fbf3", "pfbf3", "cm3", "sn_subgr"],
                Cell::EdpRatio,
                "Fig 18 summary: geometric-mean EDP vs FBF (paper: SN 55% better)",
            ),
        )]),
    },
    Figure {
        name: "fig19",
        about: "today's small-scale designs (N=54): latency, area, power",
        draw: Panels(&[
            (
                spec!("fig19a"),
                Latency("Fig 19a: latency vs load, N=54, SMART, RND", None),
            ),
            (
                spec!("fig19bc"),
                Power(
                    "Fig 19b/c: per-node area and dynamic power, N=54 (45nm, SMART)",
                    &[TechNode::N45],
                    &[PowerColumn::AreaPerNode, PowerColumn::DynamicPerNode],
                ),
            ),
        ]),
    },
    Figure {
        name: "fig20",
        about: "adaptive routing (UGAL-L/G, XY) in input-queued routers",
        draw: Panels(&[(
            spec!("fig20"),
            Latency(
                "Fig 20 ({pattern}): adaptive routing, N=200, input-queued routers",
                None,
            ),
        )]),
    },
    Figure {
        name: "table2",
        about: "all Slim NoC configurations with N <= 1300",
        draw: Code(&[], table2),
    },
    Figure {
        name: "table3",
        about: "GF(9) and GF(8) operation tables and generator sets",
        draw: Code(&[], table3),
    },
    Figure {
        name: "table4",
        about: "the evaluated network configurations",
        draw: Code(&[], table4),
    },
    Figure {
        name: "table5",
        about: "Slim NoC throughput/power gains over every baseline",
        // Every network runs at a heavy common offered load, so each
        // delivers its saturated throughput at its own saturated power.
        draw: Panels(&[
            (
                spec!("table5_small"),
                Gain(
                    "Table 5 (N in {192,200}, {tech}): SN throughput/power advantage, RND",
                    BOTH_NODES,
                ),
            ),
            (
                spec!("table5_large"),
                Gain(
                    "Table 5 (N = 1296, {tech}): SN throughput/power advantage, RND",
                    BOTH_NODES,
                ),
            ),
        ]),
    },
    Figure {
        name: "table6",
        about: "latency decrease due to SMART links per benchmark",
        draw: Panels(&[(
            spec!("table6"),
            Benchmarks(
                "Table 6: % latency decrease due to SMART links",
                &["fbf3", "pfbf3", "cm3", "sn"],
                Cell::SmartGain,
                "Table 6 summary: mean latency gain from SMART (paper: SN largest at ~11%)",
            ),
        )]),
    },
    Figure {
        name: "energy_mesh",
        about: "energy-efficiency sweep of the mesh (cm4)",
        draw: Panels(&[(spec!("energy_mesh"), Energy("Energy: mesh (cm4)"))]),
    },
    Figure {
        name: "energy_torus",
        about: "energy-efficiency sweep of the torus (t2d4)",
        draw: Panels(&[(spec!("energy_torus"), Energy("Energy: torus (t2d4)"))]),
    },
    Figure {
        name: "energy_df",
        about: "energy-efficiency sweep of the Dragonfly (df3)",
        draw: Panels(&[(spec!("energy_df"), Energy("Energy: dragonfly (df3)"))]),
    },
    Figure {
        name: "energy_sn",
        about: "energy-efficiency sweep of the Slim NoC (sn_s)",
        draw: Panels(&[(spec!("energy_sn"), Energy("Energy: Slim NoC (sn_s)"))]),
    },
    Figure {
        name: "fig_energy",
        about: "matched-load throughput/Watt and EDP: mesh, torus, DF, SN",
        // The matched-cost N in {192, 200} mesh, torus and Slim NoC plus
        // the nearest balanced Dragonfly (df3, N = 342): metrics are per
        // delivered flit, so the size mismatch washes out.
        draw: Panels(&[(
            spec!("fig_energy"),
            Energy("Energy figure: matched-load efficiency, N~200 class + df3"),
        )]),
    },
    Figure {
        name: "ablation",
        about: "Slim NoC design ingredients added one at a time",
        draw: Code(&studies::ABLATION, studies::ablation),
    },
    Figure {
        name: "resilience",
        about: "connectivity and path length under random link failures",
        draw: Json(studies::resilience),
    },
    Figure {
        name: "fault_storm",
        about: "delivered-throughput retention under live link storms",
        draw: Json(fault_storm),
    },
    Figure {
        name: "sensitivity",
        about: "the section 5.5 sensitivity summary",
        draw: Code(&studies::SENSITIVITY, studies::sensitivity),
    },
    Figure {
        name: "verify",
        about: "differential verification against the reference simulator",
        draw: Json(verify::verify),
    },
];

/// Looks a figure up by its registry name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Figure> {
    REGISTRY.iter().find(|f| f.name == name)
}

impl Figure {
    /// Whether the figure answers `--json`: one that runs exactly one
    /// campaign, or [`Draw::Json`] code.
    #[must_use]
    pub fn answers_json(&self) -> bool {
        match self.draw {
            Panels(panels) => panels.iter().map(|(_, r)| r.campaigns()).sum::<usize>() == 1,
            Code(..) => false,
            Json(_) => true,
        }
    }

    /// Refuses, before anything simulates, a flag the figure cannot
    /// honour: `--json` when it does not [answer it](Figure::answers_json),
    /// and a `--cache-dir` that cannot be opened (with the diagnostic
    /// [`Args::campaign`] gives).
    ///
    /// # Errors
    ///
    /// The usage error to report.
    pub fn check(&self, args: &Args) -> Result<(), String> {
        if args.json && !self.answers_json() {
            return Err(format!(
                "`{}` has no JSON form (--json needs a figure that runs exactly one campaign)",
                self.name
            ));
        }
        if let Some(dir) = &args.cache_dir {
            PointCache::open(dir).map_err(|e| SpecError::Cache(e).to_string())?;
        }
        Ok(())
    }

    /// Runs the figure under the flags, writing its report to `out`.
    ///
    /// # Errors
    ///
    /// A diagnostic for a failed write, a campaign the runner refused,
    /// or — for the self-checking `verify` entry — a detected divergence.
    pub fn run(&self, args: &Args, out: &mut dyn Write) -> Result<(), String> {
        match self.draw {
            Panels(panels) => panels.iter().try_for_each(|(s, r)| r.draw(s, args, out)),
            Code(_, run) | Json(run) => run(args, out),
        }
    }
}

/// A committed spec's text, parsed.
fn committed(spec: &str) -> Result<CampaignSpec, String> {
    CampaignSpec::from_json(spec).map_err(|e| format!("committed spec: {e}"))
}

/// The campaign a committed spec describes, fitted to the flags
/// ([`Args::campaign`]).
fn campaign(spec: &str, args: &Args) -> Result<Campaign, String> {
    args.campaign(committed(spec)?).map_err(|e| e.to_string())
}

impl Render {
    /// The campaigns the renderer runs: one per node for the power
    /// tables, else the spec's one.
    fn campaigns(&self) -> usize {
        match self {
            Power(_, nodes, _) | Gain(_, nodes) => nodes.len(),
            Latency(..) | Benchmarks(..) | Energy(_) => 1,
        }
    }

    /// Runs `spec`, as one campaign per node for the power tables, and
    /// draws each result. The `--cache-dir` store is read once and
    /// shared by the panel's campaigns.
    fn draw(&self, spec: &str, args: &Args, out: &mut dyn Write) -> Result<(), String> {
        let spec = committed(spec)?;
        let nodes = match *self {
            Power(_, nodes, _) | Gain(_, nodes) => nodes.iter().map(|&n| Some(n)).collect(),
            Latency(..) | Benchmarks(..) | Energy(_) => vec![spec.power_tech],
        };
        let open = |dir: &String| PointCache::open(dir).map(Arc::new);
        let cache = args.cache_dir.as_ref().map(open).transpose();
        let cache = cache.map_err(|e| SpecError::Cache(e).to_string())?;
        let uncached = Args {
            cache_dir: None,
            ..args.clone()
        };
        for power_tech in nodes {
            let spec = CampaignSpec {
                power_tech,
                ..spec.clone()
            };
            let mut campaign = uncached.campaign(spec).map_err(|e| e.to_string())?;
            if let Some(cache) = &cache {
                campaign = campaign.with_cache(Arc::clone(cache));
            }
            if let Some(result) = run(&campaign, args, out)? {
                self.tables(&campaign, &result, args, out)?;
            }
        }
        Ok(())
    }

    fn tables(
        &self,
        campaign: &Campaign,
        result: &CampaignResult,
        args: &Args,
        out: &mut dyn Write,
    ) -> Result<(), String> {
        let spec = campaign.spec();
        let tech = spec.power_tech.map(|t| t.to_string()).unwrap_or_default();
        let power = |p: &SweepPoint| p.power.expect("power-aware campaign");
        match *self {
            Latency(title, ratios) => latency(result, title, ratios, spec.loads[0], args, out),
            Power(title, _, columns) => {
                let headers: Vec<&str> = columns.iter().map(|c| c.header()).collect();
                let headers = [&["network"], &headers[..]].concat();
                let mut table = TextTable::new(title.replace("{tech}", &tech), &headers);
                for (point, setup) in result.points.iter().zip(campaign.setups()) {
                    let nodes = setup.topology.node_count() as f64;
                    let mut row = vec![point.setup.clone()];
                    row.extend(columns.iter().map(|c| c.cell(&power(point), nodes)));
                    table.push_row(row);
                }
                emit(&table, args, out)
            }
            Gain(title, _) => {
                let title = title.replace("{tech}", &tech);
                let mut table = TextTable::new(title, &["baseline", "SN gain"]);
                let tpw = |p: &SweepPoint| power(p).throughput_per_watt;
                let (sn, baselines) = result.points.split_first().expect("a campaign with setups");
                for point in baselines {
                    let gain = 100.0 * (tpw(sn) / tpw(point) - 1.0);
                    table.push_row(vec![point.setup.clone(), format!("{gain:+.0}%")]);
                }
                emit(&table, args, out)
            }
            Benchmarks(title, headers, cell, summary) => {
                benchmarks(result, title, headers, cell, summary, args, out)
            }
            Energy(title) => energy(result, title, &spec.loads, args, out),
        }
    }
}

impl PowerColumn {
    fn header(self) -> &'static str {
        match self {
            PowerColumn::ThroughputPerWatt => "throughput/power [flits/J]",
            PowerColumn::AreaPerNode => "area/node [cm^2]",
            PowerColumn::StaticPerNode => "static/node [W]",
            PowerColumn::DynamicPerNode => "dynamic/node [W]",
        }
    }

    fn cell(self, power: &PowerPoint, nodes: f64) -> String {
        match self {
            PowerColumn::ThroughputPerWatt => format_float(power.throughput_per_watt, 3),
            PowerColumn::AreaPerNode => format_float(power.area_mm2 / 100.0 / nodes, 5),
            PowerColumn::StaticPerNode => format_float(power.static_w / nodes, 5),
            PowerColumn::DynamicPerNode => format_float(power.dynamic_w / nodes, 5),
        }
    }
}

/// Runs one of a figure's campaigns. Under `--json`, which only a figure
/// of exactly one campaign accepts ([`Figure::check`]), writes the
/// campaign's sweep JSON instead of returning the result for tables.
fn run(
    campaign: &Campaign,
    args: &Args,
    out: &mut dyn Write,
) -> Result<Option<CampaignResult>, String> {
    let result = campaign.run();
    if args.json {
        out.write_all(result.to_json().as_bytes()).map_err(io_err)?;
        return Ok(None);
    }
    Ok(Some(result))
}

/// Writes one table in the format the flags select.
fn emit(table: &TextTable, args: &Args, out: &mut dyn Write) -> Result<(), String> {
    table.write_to(out, args.csv).map_err(io_err)
}

/// The point of curve (setup, pattern or workload name) at `load`, for
/// figures that ran every curve over its whole grid.
fn point_at<'a>(result: &'a CampaignResult, setup: &str, curve: &str, load: f64) -> &'a SweepPoint {
    let point = result.point(setup, curve, load);
    point.expect("every grid point of the curve was run")
}

/// The geometric mean of a column of positive values.
fn geomean(column: &[f64]) -> f64 {
    column
        .iter()
        .product::<f64>()
        .powf(1.0 / column.len() as f64)
}

/// [`Render::Latency`]: a table per pattern, each followed by the
/// latency ratios at `low`, the grid's lowest load.
fn latency(
    result: &CampaignResult,
    title: &str,
    ratios: Option<(&str, &[&str])>,
    low: f64,
    args: &Args,
    out: &mut dyn Write,
) -> Result<(), String> {
    for pattern in &result.patterns {
        let title = title.replace("{pattern}", pattern);
        emit(
            &Series::tabulate(&title, "load", &result.series(pattern)),
            args,
            out,
        )?;
        let Some((sn, baselines)) = ratios else {
            continue;
        };
        // A curve already saturated at the grid's lowest load has no ratio.
        let at_low = |name: &str| {
            let point = result.point(name, pattern, low);
            point.filter(|p| !p.saturated).map(|p| p.latency)
        };
        if let Some(sn_lat) = at_low(sn) {
            let figure = title.split_once(": ").map_or(&*title, |(figure, _)| figure);
            let mut table = TextTable::new(
                format!("{figure}: SN latency ratio at load {low}"),
                &["baseline", "SN/baseline"],
            );
            for base in baselines {
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

/// [`Render::Benchmarks`]: a row per workload of the trace campaign,
/// then the summary `cell` names.
fn benchmarks(
    result: &CampaignResult,
    title: &str,
    headers: &[&str],
    cell: Cell,
    summary: &str,
    args: &Args,
    out: &mut dyn Write,
) -> Result<(), String> {
    // Setup `i`'s point of a workload, at the workload's own rate.
    let at = |i: usize, workload: &str| {
        let (setup, mut points) = (&result.setups[i], result.points.iter());
        let point = points.find(|p| p.setup == *setup && p.pattern == workload);
        point.expect("every setup ran every workload")
    };
    let edp = |p: &SweepPoint| p.power.expect("power-aware campaign").edp_js;
    let value = |i: usize, workload: &str| match cell {
        Cell::Latency => at(i, workload).latency,
        Cell::EdpRatio => edp(at(i, workload)) / edp(at(0, workload)),
        Cell::SmartGain => {
            let (no, yes) = (at(2 * i, workload).latency, at(2 * i + 1, workload).latency);
            if no > 0.0 {
                100.0 * (1.0 - yes / no)
            } else {
                0.0
            }
        }
    };
    let columns: Vec<Vec<f64>> = (0..headers.len())
        .map(|i| result.patterns.iter().map(|w| value(i, w)).collect())
        .collect();
    let mut table = TextTable::new(title, &[&["benchmark"], headers].concat());
    for (row, workload) in result.patterns.iter().enumerate() {
        let mut cells = vec![workload.clone()];
        cells.extend(columns.iter().map(|column| match cell {
            Cell::Latency => format_float(column[row], 2),
            Cell::EdpRatio => format_float(column[row], 3),
            Cell::SmartGain => format!("{:.1}", column[row]),
        }));
        table.push_row(cells);
    }
    emit(&table, args, out)?;
    let (step, header) = match cell {
        Cell::Latency => {
            let last = &columns[columns.len() - 1];
            let gain = 100.0 * (1.0 - geomean(last) / geomean(&columns[0]));
            let line = summary.replace("{gain}", &format!("{gain:.1}"));
            return writeln!(out, "{line}\n").map_err(io_err);
        }
        Cell::EdpRatio => (1, "geomean EDP / FBF"),
        Cell::SmartGain => (2, "mean gain %"),
    };
    let mut table = TextTable::new(summary, &["network", header]);
    for (setup, column) in result.setups.iter().step_by(step).zip(&columns) {
        let mean = column.iter().sum::<f64>() / column.len() as f64;
        table.push_row(vec![
            setup.clone(),
            match cell {
                Cell::SmartGain => format!("{mean:.1}"),
                _ => format_float(geomean(column), 3),
            },
        ]);
    }
    emit(&table, args, out)
}

/// [`Render::Energy`]: the power-aware campaign's power/efficiency table
/// at each of `loads`, with dynamic power driven by the activity the
/// simulator *measured*, then every setup's throughput/W and EDP ratio
/// against the first setup at the top load (§5.4's matched-load
/// methodology: past the mesh/torus saturation knee the low-diameter
/// Slim NoC keeps accepting traffic at ~2 hops/packet, so its delivered
/// flits per joule pull ahead).
fn energy(
    result: &CampaignResult,
    title: &str,
    loads: &[f64],
    args: &Args,
    out: &mut dyn Write,
) -> Result<(), String> {
    let baseline = &result.setups[0];
    let pattern = &result.patterns[0];
    for &load in loads {
        let mut table = TextTable::new(
            format!("{title} ({pattern}): offered load {load} flits/node/cycle"),
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
                format!("{title}: efficiency vs {baseline} at load {top}"),
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
/// (see [`crate::fault_storm`] for the spec, built in Rust because the
/// storm's timing follows the windows). Degraded points carry a
/// `dropped_packets` column in the sweep JSON.
fn fault_storm(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let campaign = args.campaign(storm_spec(args)).map_err(|e| e.to_string())?;
    let Some(result) = run(&campaign, args, out)? else {
        return Ok(());
    };
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

/// The four Slim NoC layouts, in the order Figs. 5 and 15 list them.
const SN_LAYOUTS: [(&str, SnLayout); 4] = [
    ("sn_rand", SnLayout::Random(1)),
    ("sn_basic", SnLayout::Basic),
    ("sn_gr", SnLayout::Group),
    ("sn_subgr", SnLayout::Subgroup),
];

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

    // (b) + (c): area and static power per node at N ≈ 200, with
    // RTT-sized buffers; df3 (342 nodes) is the nearest DF size.
    let model = PowerModel::new(TechNode::N45);
    let spec = BufferSpec::standard();
    let mut table = TextTable::new(
        "Fig 3b/3c: naive off-chip topologies on-chip (≈200 cores, 45nm)",
        &["network", "N", "area/node [cm^2]", "static power/node [W]"],
    );
    // The naive Slim Fly keeps its basic layout; the rest their natural one.
    let nets = [
        ("FBF", "fbf4", None),
        ("PFBF", "pfbf4", None),
        ("T2D", "t2d4", None),
        ("CM", "cm4", None),
        ("SF", "sn_s", Some(SnLayout::Basic)),
        ("DF", "df3", None),
    ];
    for (name, config, sn_layout) in nets {
        let t = &paper_config(config).expect("paper config").topology;
        let l = &match sn_layout {
            Some(kind) => Layout::slim_noc(t, kind).expect("slim noc layout"),
            None => Layout::natural(t),
        };
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
    for config in ["sn_s", "sn_p2", "sn_l"] {
        let t = paper_config(config).expect("paper config").topology;
        let label = format!("N={}", t.node_count());
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

/// Paper configuration `config` on `sn_layout` with EB-Var buffers.
fn eb_var(config: &str, sn_layout: Option<SnLayout>) -> Setup {
    let recipe = SetupSpec {
        sn_layout,
        buffers: BufferPreset::EbVar,
        ..SetupSpec::new(config)
    };
    recipe.build().expect("paper config")
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
        let s = eb_var("sn_s", Some(l));
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
    for name in ["fbf4", "pfbf4", "sn_s", "t2d4", "cm4"] {
        let s = eb_var(name, None);
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
}
