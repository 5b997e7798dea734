//! The reproduction layer behind the `snoc` executable: the figure
//! registry of `snoc repro <name>` ([`figures::REGISTRY`]), the spec
//! runner of `snoc run --spec FILE` ([`run_spec`]), the campaign server
//! of `snoc serve` / `snoc submit` ([`serve`]), and the flags they
//! share ([`Args`]).
//!
//! Every campaign a figure runs whose fields are all static is data: a
//! committed `slim_noc-spec-v1` file under `specs/`, compiled into its
//! registry row and drawn by one of a few shared renderers, so
//! `snoc run --spec specs/fig12.json` reproduces a figure's data with no
//! registry. Only the `fault_storm` grid builds its spec in Rust: its
//! storm timing follows the run's windows.
//!
//! Every registry entry accepts:
//!
//! - `--csv` — emit CSV instead of aligned text;
//! - `--json` — emit the sweep JSON (schema in `snoc_core::sweep`) of a
//!   figure that runs exactly one campaign; `resilience` and `verify`
//!   answer with JSON forms of their own, and every other figure
//!   refuses the flag before simulating ([`figures::Figure::check`]);
//! - `--quick` / `--smoke` — replace every campaign's windows with
//!   [`Args::warmup`] / [`Args::measure`] cycles (300/1 200 and 20/60);
//!   smoke numbers are statistically meaningless and exist so the
//!   `repro_smoke` suite can exercise every entry;
//! - `--threads N` — worker threads for campaign fan-out (0 = one per
//!   core; results are identical for every thread count);
//! - `--cache-dir DIR` — attach the content-addressed point cache at
//!   `DIR`: already-simulated points replay from disk, new ones are
//!   stored for next time. A directory that cannot be opened is an
//!   error, never an uncached run.
//!
//! `snoc run --spec FILE` takes the same four execution flags. Every
//! campaign spec — committed, read by `snoc run`, or built in Rust —
//! meets them in one place, [`Args::campaign`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault_storm;
pub mod figures;
pub mod serve;

use snoc_core::{Campaign, CampaignResult, CampaignSpec, PointCache, SpecError};
use std::io::Write;

/// Command-line options shared by every figure and by `snoc run`.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// Emit CSV instead of aligned text tables.
    pub csv: bool,
    /// Emit JSON instead of tables: the sweep JSON of a figure that
    /// runs exactly one campaign, or the own JSON form of `resilience`
    /// and `verify`. Every other figure refuses it.
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

    /// The campaign `spec` describes, fitted to the flags:
    /// `--quick`/`--smoke` replace its windows with
    /// [`Args::warmup`]/[`Args::measure`], `--threads` its worker count,
    /// and `--cache-dir` its `cache_dir`. The one place the flags meet a
    /// campaign, whether its spec is committed, the file
    /// `snoc run --spec` reads, or built in Rust.
    ///
    /// # Errors
    ///
    /// Whatever [`Campaign::from_spec`] refuses, including an unopenable
    /// cache directory ([`SpecError::Cache`]).
    pub fn campaign(&self, mut spec: CampaignSpec) -> Result<Campaign, SpecError> {
        if self.smoke || self.quick {
            (spec.warmup, spec.measure) = (self.warmup(), self.measure());
        }
        if self.threads != 0 {
            spec.threads = self.threads;
        }
        if self.cache_dir.is_some() {
            spec.cache_dir.clone_from(&self.cache_dir);
        }
        Campaign::from_spec(&spec)
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

    /// Simulation warmup window in cycles: `--smoke` 20, `--quick` 300,
    /// otherwise [`CampaignSpec::new`]'s 2 000.
    #[must_use]
    pub fn warmup(&self) -> u64 {
        self.window(20, 300, 2_000)
    }

    /// Simulation measurement window in cycles: `--smoke` 60, `--quick`
    /// 1 200, otherwise [`CampaignSpec::new`]'s 10 000.
    #[must_use]
    pub fn measure(&self) -> u64 {
        self.window(60, 1_200, 10_000)
    }
}

/// Runs the `slim_noc-spec-v1` campaign spec in the file `path` under
/// the flags ([`Args::campaign`]), writes its
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
    let campaign = CampaignSpec::from_json(&text)
        .and_then(|spec| args.campaign(spec))
        .map_err(|e| format!("--spec: `{path}`: {e}"))?;
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
/// `snoc-cache-stats: hits=H misses=M entries=E`, followed by
/// ` skipped=N` when the store skipped `N` lines at open
/// ([`PointCache::corrupt_lines`]).
#[must_use]
pub fn cache_stats_line(result: &CampaignResult, cache: Option<&PointCache>) -> String {
    let skipped = match cache.map_or(0, PointCache::corrupt_lines) {
        0 => String::new(),
        n => format!(" skipped={n}"),
    };
    format!(
        "snoc-cache-stats: hits={} misses={} entries={}{skipped}",
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
/// [`CampaignSpec::stop_at_saturation`] off and read back through
/// [`CampaignResult::peak_throughput`].
#[must_use]
pub fn saturation_load_grid() -> Vec<f64> {
    std::iter::successors(Some(0.05), |load| Some(load * 1.6))
        .take_while(|&load| load <= 1.0)
        .collect()
}

/// The load grid of the energy figures: from low load through well past
/// the mesh/torus saturation knee (≈0.07–0.1 flits/node/cycle on the
/// N ≈ 200 class), so matched-load comparisons expose the low-diameter
/// networks' acceptance advantage, not just their power draw.
#[must_use]
pub fn energy_load_grid() -> Vec<f64> {
    vec![0.05, 0.15, 0.30]
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
    }

    #[test]
    fn every_campaign_meets_the_flags_in_one_place() {
        let mut spec = CampaignSpec::new("t");
        spec.setups = vec![snoc_core::SetupSpec::new("sn54")];
        (spec.warmup, spec.measure, spec.threads) = (1_000, 5_000, 2);
        let windows = |args: &Args| {
            let c = args.campaign(spec.clone()).unwrap();
            (c.spec().warmup, c.spec().measure, c.spec().threads)
        };
        // Without a window flag the spec keeps its own; with one, every
        // campaign takes the same rule.
        assert_eq!(windows(&Args::default()), (1_000, 5_000, 2));
        let quick = Args {
            quick: true,
            threads: 3,
            ..Args::default()
        };
        assert_eq!(windows(&quick), (300, 1_200, 3));
        let smoke = Args {
            smoke: true,
            ..quick.clone()
        };
        assert_eq!(windows(&smoke), (20, 60, 3));

        // `--cache-dir` replaces the spec's directory, and one that
        // cannot be opened is an error, never an uncached run.
        let root = std::env::temp_dir().join(format!("snoc_configure_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let file = root.join("file");
        std::fs::write(&file, "").unwrap();
        let unopenable = file.join("cache").to_str().unwrap().to_string();
        spec.cache_dir = Some(unopenable.clone());
        let good = root.join("cache").to_str().unwrap().to_string();
        let cached = Args {
            cache_dir: Some(good.clone()),
            ..Args::default()
        };
        let campaign = cached.campaign(spec.clone()).unwrap();
        assert_eq!(campaign.cache().unwrap().dir(), std::path::Path::new(&good));
        let refused = Args {
            cache_dir: Some(unopenable),
            ..Args::default()
        };
        assert!(matches!(
            refused.campaign(CampaignSpec::new("rust")),
            Err(SpecError::Cache(_))
        ));
        assert!(matches!(
            Args::default().campaign(spec),
            Err(SpecError::Cache(_))
        ));
        let _ = std::fs::remove_dir_all(&root);
    }
}
