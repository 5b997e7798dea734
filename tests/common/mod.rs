//! Shared by the integration tests that compare saturation throughput.

use slim_noc::core::{Campaign, CampaignResult, CampaignSpec, SetupSpec};
use slim_noc::traffic::TrafficPattern;

/// Sweeps `setups` (distinctly named) under uniform random traffic over
/// the figures' saturation load grid, saturated points kept. A setup's
/// saturation throughput is `peak_throughput(name, "RND")` of the result.
pub fn saturation_sweep(setups: Vec<SetupSpec>, warmup: u64, measure: u64) -> CampaignResult {
    let mut spec = CampaignSpec::new("saturation");
    spec.setups = setups;
    spec.patterns = vec![TrafficPattern::Random];
    spec.loads = snoc_bench::saturation_load_grid();
    (spec.warmup, spec.measure) = (warmup, measure);
    spec.stop_at_saturation = false;
    Campaign::from_spec(&spec).expect("valid spec").run()
}
