//! Shared by the integration tests that compare saturation throughput.

use slim_noc::core::{Campaign, CampaignResult, Setup};
use slim_noc::traffic::TrafficPattern;

/// Sweeps `setups` (distinctly named) under uniform random traffic over
/// the figures' saturation load grid, saturated points kept. A setup's
/// saturation throughput is `peak_throughput(name, "RND")` of the result.
pub fn saturation_sweep(setups: Vec<Setup>, warmup: u64, measure: u64) -> CampaignResult {
    Campaign::new("saturation")
        .with_setups(setups)
        .with_patterns(vec![TrafficPattern::Random])
        .with_loads(snoc_bench::saturation_load_grid())
        .with_windows(warmup, measure)
        .with_stop_at_saturation(false)
        .run()
}
