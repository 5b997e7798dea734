//! The reproduction layer behind the `snoc` executable: the figure
//! registry of `snoc repro <name>` ([`figures::REGISTRY`]), the spec
//! runner of `snoc run --spec FILE` ([`run_spec`]), the campaign server
//! of `snoc serve` / `snoc submit` ([`serve`]), and the flags they
//! share ([`Args`]).
//!
//! Every registry entry regenerates one table, figure or study of the
//! paper. All accept:
//!
//! - `--csv` — emit CSV instead of aligned text;
//! - `--json` — emit the structured sweep-campaign JSON (figures that
//!   are one [`Campaign`]: `fig12`–`fig14`, `fig18`, `table6`, energy,
//!   `fault_storm`; see `snoc_core::sweep` for the schema);
//! - `--quick` — shorter warmup/measurement windows (for quick local
//!   runs and CI; the default windows are the ones behind the shapes
//!   quoted in the README, "Reproducing figures and tables");
//! - `--smoke` — minimal windows (statistically meaningless numbers);
//!   used by the `repro_smoke` test suite to exercise every entry;
//! - `--threads N` — worker threads for campaign fan-out (0 = one per
//!   core; results are identical for every thread count);
//! - `--cache-dir DIR` — attach the content-addressed point cache at
//!   `DIR` to the figure's campaigns: already-simulated points replay
//!   from disk, new ones are stored for next time.
//!
//! `snoc run --spec FILE` takes the same execution flags (`--quick`,
//! `--smoke`, `--threads`, `--cache-dir`) and folds them
//! into the spec it runs.
//!
//! Every simulated number a figure prints is a point of the
//! sweep-campaign engine: a figure declares its campaign — setups ×
//! patterns × a load grid via [`figure_campaign`] or
//! [`energy_campaign`]; for `fig10` (b), `fig18` and `table6`, setups ×
//! trace workloads — and only formats the result.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault_storm;
pub mod figures;
pub mod serve;

use snoc_core::{Campaign, CampaignResult, CampaignSpec, PointCache, Series, Setup};
use snoc_power::TechNode;
use snoc_traffic::TrafficPattern;
use std::io::Write;
use std::sync::Arc;

/// Command-line options shared by every figure and by `snoc run`.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// Emit CSV instead of aligned text tables.
    pub csv: bool,
    /// Emit the sweep campaign's structured JSON instead of tables
    /// (single-campaign figures only; others ignore it).
    pub json: bool,
    /// Use short simulation windows.
    pub quick: bool,
    /// Use minimal simulation windows: every experiment still builds and
    /// runs end-to-end, but the numbers are statistically meaningless.
    /// Exists so the test suite can smoke-run every figure cheaply.
    pub smoke: bool,
    /// Campaign worker threads (0 = one per core).
    pub threads: usize,
    /// Attach the content-addressed point cache at this directory.
    pub cache_dir: Option<String>,
}

impl Args {
    /// Parses an argument list of `--flag` and `--flag value` words (the
    /// `snoc` executable splits `--flag=value` before any command sees
    /// it).
    ///
    /// # Errors
    ///
    /// Returns a message for unknown flags, missing values, or
    /// malformed numbers.
    pub fn parse_from(raw: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args::default();
        let mut raw = raw;
        while let Some(flag) = raw.next() {
            let mut next_value = || -> Result<String, String> {
                raw.next().ok_or_else(|| format!("{flag} needs a value"))
            };
            let count = |value: String| -> Result<usize, String> {
                value.parse().map_err(|e| format!("{flag}: {e}"))
            };
            match flag.as_str() {
                "--csv" => args.csv = true,
                "--json" => args.json = true,
                "--quick" => args.quick = true,
                "--smoke" => args.smoke = true,
                "--threads" => args.threads = count(next_value()?)?,
                "--cache-dir" => args.cache_dir = Some(next_value()?),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(args)
    }

    /// Applies the execution-environment flags (`--threads`,
    /// `--cache-dir`) to a campaign. An unopenable cache directory
    /// degrades to an uncached run with a warning — a figure must never
    /// fail because a cache is unavailable.
    #[must_use]
    pub fn configure(&self, mut campaign: Campaign) -> Campaign {
        if self.threads != 0 {
            campaign = campaign.with_threads(self.threads);
        }
        if let Some(dir) = &self.cache_dir {
            match PointCache::open(dir) {
                Ok(cache) => campaign = campaign.with_cache(Arc::new(cache)),
                Err(e) => eprintln!("warning: cache dir `{dir}`: {e}; running uncached"),
            }
        }
        campaign
    }

    /// Folds the window/thread/cache overrides into a parsed spec
    /// (`--smoke`/`--quick` replace the spec's windows; `--threads` and
    /// `--cache-dir` replace its execution settings).
    pub fn apply_to_spec(&self, spec: &mut CampaignSpec) {
        if self.smoke || self.quick {
            spec.warmup = self.warmup();
            spec.measure = self.measure();
        }
        if self.threads != 0 {
            spec.threads = self.threads;
        }
        if let Some(dir) = &self.cache_dir {
            spec.cache_dir = Some(dir.clone());
        }
    }

    /// The value the window flags select: `--smoke` wins over `--quick`.
    fn window(&self, smoke: u64, quick: u64, full: u64) -> u64 {
        if self.smoke {
            smoke
        } else if self.quick {
            quick
        } else {
            full
        }
    }

    /// Simulation warmup window in cycles.
    #[must_use]
    pub fn warmup(&self) -> u64 {
        self.window(20, 300, 2_000)
    }

    /// Simulation measurement window in cycles.
    #[must_use]
    pub fn measure(&self) -> u64 {
        self.window(60, 1_200, 10_000)
    }

    /// Trace length in cycles.
    #[must_use]
    pub fn trace_cycles(&self) -> u64 {
        self.window(150, 3_000, 20_000)
    }
}

/// Runs the `slim_noc-spec-v1` campaign spec in the file `path` with
/// the CLI overrides folded in ([`Args::apply_to_spec`]), writes its
/// sweep JSON to `out`, and returns the [`cache_stats_line`] for the
/// caller to report (`snoc run --spec` prints it to stderr).
///
/// # Errors
///
/// Returns a printable message for unreadable files, malformed specs,
/// unknown setup recipes, an unopenable cache directory, or a failed
/// write to `out`.
pub fn run_spec(path: &str, args: &Args, out: &mut dyn Write) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("--spec: read `{path}`: {e}"))?;
    let mut spec = CampaignSpec::from_json(&text).map_err(|e| format!("--spec: `{path}`: {e}"))?;
    args.apply_to_spec(&mut spec);
    let campaign = Campaign::from_spec(&spec).map_err(|e| format!("--spec: `{path}`: {e}"))?;
    let result = campaign.run();
    out.write_all(result.to_json().as_bytes()).map_err(io_err)?;
    Ok(cache_stats_line(
        &result,
        campaign.cache().map(AsRef::as_ref),
    ))
}

/// The diagnostic for a report that could not be written out.
fn io_err(e: std::io::Error) -> String {
    format!("write: {e}")
}

/// The machine-greppable cache summary every spec run prints to
/// stderr (and CI uploads as an artifact):
/// `snoc-cache-stats: hits=H misses=M entries=E`.
#[must_use]
pub fn cache_stats_line(result: &CampaignResult, cache: Option<&PointCache>) -> String {
    format!(
        "snoc-cache-stats: hits={} misses={} entries={}",
        result.cache_hits,
        result.cache_misses,
        cache.map_or(0, PointCache::len),
    )
}

/// The standard load grid of the paper's latency–load figures
/// (log-spaced from 0.008 to 0.4 flits/node/cycle).
#[must_use]
pub fn load_grid() -> Vec<f64> {
    vec![0.008, 0.016, 0.03, 0.06, 0.1, 0.16, 0.24, 0.4]
}

/// The load grid of the saturation-throughput columns: geometric from
/// 0.05 in steps of 1.6× up to 1.0 flits/node/cycle. Swept with
/// [`Campaign::with_stop_at_saturation`]`(false)` and read back through
/// [`CampaignResult::peak_throughput`].
#[must_use]
pub fn saturation_load_grid() -> Vec<f64> {
    std::iter::successors(Some(0.05), |load| Some(load * 1.6))
        .take_while(|&load| load <= 1.0)
        .collect()
}

/// The declarative sweep campaign behind one latency–load figure: the
/// given setups × patterns over the standard load grid with the
/// window sizes selected by `args`.
#[must_use]
pub fn figure_campaign(
    name: &str,
    setups: Vec<Setup>,
    patterns: Vec<TrafficPattern>,
    args: &Args,
) -> Campaign {
    args.configure(
        Campaign::new(name)
            .with_setups(setups)
            .with_patterns(patterns)
            .with_loads(load_grid())
            .with_windows(args.warmup(), args.measure()),
    )
}

/// Runs one latency–load curve per setup in parallel and returns them
/// as series (each stops at saturation, like the figures). Runs through
/// the sweep engine, so points carry deterministic spec-derived seeds.
#[must_use]
pub fn latency_curves(setups: &[Setup], pattern: TrafficPattern, args: &Args) -> Vec<Series> {
    figure_campaign("latency_curves", setups.to_vec(), vec![pattern], args)
        .run()
        .series(pattern.short_name())
}

/// The load grid of the energy figures: from low load through well past
/// the mesh/torus saturation knee (≈0.07–0.1 flits/node/cycle on the
/// N ≈ 200 class), so matched-load comparisons expose the low-diameter
/// networks' acceptance advantage, not just their power draw.
#[must_use]
pub fn energy_load_grid() -> Vec<f64> {
    vec![0.05, 0.15, 0.30]
}

/// The declarative power-aware campaign behind one energy figure: the
/// given setups under uniform random traffic over [`energy_load_grid`]
/// at 45 nm, with measured-activity power evaluation at every point.
/// Saturated points are kept (matched-load comparison needs every
/// setup evaluated at every load).
#[must_use]
pub fn energy_campaign(name: &str, setups: Vec<Setup>, args: &Args) -> Campaign {
    figure_campaign(name, setups, vec![TrafficPattern::Random], args)
        .with_loads(energy_load_grid())
        .with_power(TechNode::N45)
        .with_stop_at_saturation(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_grid_is_increasing() {
        let g = load_grid();
        for w in g.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(g[0], 0.008);
    }

    #[test]
    fn saturation_load_grid_is_the_geometric_walk_up_to_one() {
        let g = saturation_load_grid();
        assert_eq!((g.len(), g[0], g[1]), (7, 0.05, 0.05 * 1.6));
        assert!(g[6] <= 1.0 && g[6] * 1.6 > 1.0);
    }

    #[test]
    fn parse_from_reads_flags_with_values_and_rejects_strangers() {
        let parse = |raw: &[&str]| Args::parse_from(raw.iter().map(ToString::to_string));
        let args = parse(&[
            "--csv",
            "--threads",
            "3",
            "--cache-dir",
            "/tmp/c",
            "--smoke",
        ])
        .unwrap();
        assert!(args.csv && args.smoke && !args.json && !args.quick);
        assert_eq!(args.threads, 3);
        assert_eq!(args.cache_dir.as_deref(), Some("/tmp/c"));
        // `--spec` belongs to `snoc run`, not to a figure.
        for bad in [&["--spec", "x"][..], &["--threads"], &["--threads", "two"]] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn quick_windows_are_shorter() {
        let quick = Args {
            quick: true,
            ..Args::default()
        };
        let smoke = Args {
            smoke: true,
            ..quick.clone()
        };
        let full = Args::default();
        assert!(quick.warmup() < full.warmup());
        assert!(quick.measure() < full.measure());
        assert!(smoke.warmup() < quick.warmup());
        assert!(smoke.measure() < quick.measure());
        assert!(smoke.trace_cycles() < quick.trace_cycles());
    }

    #[test]
    fn figure_campaign_reflects_args() {
        let args = Args {
            quick: true,
            ..Args::default()
        };
        let c = figure_campaign(
            "t",
            vec![Setup::paper("sn54").unwrap()],
            vec![TrafficPattern::Random],
            &args,
        );
        assert_eq!(c.warmup, args.warmup());
        assert_eq!(c.measure, args.measure());
        assert_eq!(c.loads, load_grid());
    }
}
