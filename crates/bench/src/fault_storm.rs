//! The campaign behind the `fault_storm` figure: delivered-throughput
//! retention under live link-failure storms.
//!
//! §2.1 credits MMS graphs with "high resilience to link failures". The
//! static half of that claim (connectivity, diameter inflation) is
//! the `resilience` figure; this module tests it *dynamically*: each network
//! runs with a seeded storm that severs a fraction of its links mid-run
//! (routing self-heals, severed pairs quiesce, in-flight casualties are
//! dropped), and the figure reports how much delivered throughput each
//! network retains relative to its own fault-free run. The e2e pin in
//! `tests/fault_retention.rs` asserts Slim NoC retains strictly more
//! than the mesh at every fraction ≥ 10%.
//!
//! Everything here is deterministic: storms are seeded, per-point seeds
//! are spec-derived, and results are identical across thread counts.

use crate::Args;
use snoc_core::{CampaignResult, CampaignSpec, FaultsSpec, Setup, SetupSpec, StormSpec};
use snoc_traffic::TrafficPattern;

/// Offered load of every run, in flits/node/cycle — below each healthy
/// network's saturation knee, so fault-free runs deliver comparably and
/// retention isolates the degradation.
pub const LOAD: f64 = 0.05;

/// Offered load of the deadlock-hunt sweep — past every network's
/// saturation knee, so buffers stay full and any channel-dependency
/// cycle in a degraded routing table would actually wedge rather than
/// hide behind slack credits.
pub const SATURATION_LOAD: f64 = 0.60;

/// Failed-link fractions swept (0 is the per-network baseline).
pub const FRACTIONS: [f64; 4] = [0.0, 0.05, 0.10, 0.20];

/// The networks compared, at the paper's N ∈ {192, 200} scale, all on
/// minimal routing (the fault-injection envelope).
pub const NETWORKS: [&str; 4] = ["sn_s", "fbf3", "t2d4", "cm4"];

/// The storm seed; fixed so the figure and its e2e pin are exactly
/// reproducible.
pub const STORM_SEED: u64 = 0xFA17;

/// Campaign setup name of one (network, fraction) cell, e.g. `cm4@10`.
#[must_use]
pub fn setup_name(network: &str, fraction: f64) -> String {
    format!("{network}@{:.0}", fraction * 100.0)
}

/// Number of links a storm severs on `network` at `fraction` (rounded
/// to the nearest whole link).
///
/// # Panics
///
/// Panics if `network` is not a paper configuration.
#[must_use]
pub fn failed_links(network: &str, fraction: f64) -> usize {
    let setup = Setup::paper(network).expect("paper config");
    let total = setup.topology.links().count();
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    #[allow(clippy::cast_sign_loss)]
    let links = (fraction * total as f64).round() as usize;
    links
}

/// The campaign behind the figure: every network × failure fraction at
/// [`LOAD`], with each faulted setup carrying a seeded storm that
/// strikes just after measurement opens — the measured
/// window watches the network lose links live, so in-flight casualties
/// show up in the `dropped_packets` column and the throughput average
/// is dominated by the degraded steady state.
#[must_use]
pub fn storm_spec(args: &Args) -> CampaignSpec {
    storm_spec_at("fault_storm", LOAD, args)
}

/// The deadlock-hunt variant: the same network × fraction storm grid
/// driven at [`SATURATION_LOAD`]. Every simulator runs with its
/// no-progress watchdog armed (the default), and `Setup::run_load`
/// panics with the full diagnostic on a watchdog abort — so merely
/// completing this campaign is evidence that every degraded table kept
/// flits moving under maximal backpressure. Throughput retention from
/// this sweep is not a figure; liveness is the product.
#[must_use]
pub fn saturation_storm_spec(args: &Args) -> CampaignSpec {
    storm_spec_at("fault_storm_saturation", SATURATION_LOAD, args)
}

fn storm_spec_at(name: &str, load: f64, args: &Args) -> CampaignSpec {
    let mut spec = CampaignSpec::new(name);
    (spec.warmup, spec.measure) = (args.warmup(), args.measure());
    // All failures land in the first tenth of the measured window.
    let storm_start = spec.warmup + (spec.measure / 20).max(1);
    let storm_window = (spec.measure / 20).max(1);
    for network in NETWORKS {
        for fraction in FRACTIONS {
            let links = failed_links(network, fraction);
            spec.setups.push(SetupSpec {
                name: setup_name(network, fraction),
                faults: (links > 0).then_some(FaultsSpec {
                    events: Vec::new(),
                    storm: Some(StormSpec {
                        links,
                        start: storm_start,
                        window: storm_window,
                        seed: STORM_SEED,
                    }),
                }),
                ..SetupSpec::new(network)
            });
        }
    }
    // Built in Rust, not committed: the storm's timing follows the
    // windows the flags select, which the spec states itself.
    spec.patterns = vec![TrafficPattern::Random];
    spec.loads = vec![load];
    spec.stop_at_saturation = false;
    spec
}

/// One cell of the retention figure.
#[derive(Debug, Clone, PartialEq)]
pub struct RetentionRow {
    /// Paper network name (`sn_s`, `cm4`, …).
    pub network: &'static str,
    /// Failed-link fraction of this cell.
    pub fraction: f64,
    /// Links the storm severed.
    pub links_failed: usize,
    /// Measured delivered throughput in flits/node/cycle.
    pub throughput: f64,
    /// Packets dropped by the storm (in-flight casualties).
    pub dropped: u64,
    /// `throughput` relative to the network's own fault-free run.
    pub retention: f64,
}

/// Condenses a [`storm_spec`] campaign's result into retention rows, one per
/// network × fraction in sweep order.
///
/// # Panics
///
/// Panics if `result` is missing a campaign point (it never is for a
/// result of [`storm_spec`]'s campaign).
#[must_use]
pub fn retention_rows(result: &CampaignResult) -> Vec<RetentionRow> {
    let mut rows = Vec::new();
    for network in NETWORKS {
        let point = |fraction: f64| {
            let name = setup_name(network, fraction);
            let p = result.point(&name, "RND", LOAD);
            p.unwrap_or_else(|| panic!("missing point {network}@{fraction}"))
        };
        let baseline = point(0.0).throughput;
        for fraction in FRACTIONS {
            let p = point(fraction);
            rows.push(RetentionRow {
                network,
                fraction,
                links_failed: failed_links(network, fraction),
                throughput: p.throughput,
                dropped: p.dropped_packets,
                retention: if baseline > 0.0 {
                    p.throughput / baseline
                } else {
                    0.0
                },
            });
        }
    }
    rows
}

/// Looks up one retention cell.
///
/// # Panics
///
/// Panics if the (network, fraction) cell is not in `rows`.
#[must_use]
pub fn retention_at<'a>(
    rows: &'a [RetentionRow],
    network: &str,
    fraction: f64,
) -> &'a RetentionRow {
    rows.iter()
        .find(|r| r.network == network && (r.fraction - fraction).abs() < 1e-12)
        .unwrap_or_else(|| panic!("no retention row {network}@{fraction}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_shape_covers_every_cell() {
        let args = Args {
            smoke: true,
            ..Args::default()
        };
        let c = storm_spec(&args);
        assert_eq!(c.setups.len(), NETWORKS.len() * FRACTIONS.len());
        assert_eq!(c.loads, vec![LOAD]);
        // Baselines are fault-free; every other cell severs links.
        for network in NETWORKS {
            assert_eq!(failed_links(network, 0.0), 0);
            assert!(failed_links(network, 0.10) > 0, "{network}");
        }
    }

    #[test]
    fn saturation_campaign_mirrors_the_storm_grid_at_high_load() {
        let args = Args {
            smoke: true,
            ..Args::default()
        };
        let c = saturation_storm_spec(&args);
        assert_eq!(c.setups.len(), NETWORKS.len() * FRACTIONS.len());
        assert_eq!(c.loads, vec![SATURATION_LOAD]);
        let names: Vec<_> = c.setups.iter().map(|s| s.name.clone()).collect();
        let base: Vec<_> = storm_spec(&args)
            .setups
            .iter()
            .map(|s| s.name.clone())
            .collect();
        assert_eq!(names, base, "same cells, only the load differs");
    }

    #[test]
    fn storm_lands_early_in_the_measured_window() {
        for args in [
            Args::default(),
            Args {
                quick: true,
                ..Args::default()
            },
            Args {
                smoke: true,
                ..Args::default()
            },
        ] {
            let (warmup, measure) = (args.warmup(), args.measure());
            let start = warmup + (measure / 20).max(1);
            let window = (measure / 20).max(1);
            assert!(start > warmup, "strikes after measurement opens");
            assert!(
                start + window < warmup + measure / 5,
                "fully degraded for at least 80% of the measured window"
            );
        }
    }
}
