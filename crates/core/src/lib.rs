//! Experiment configurations, runners and reporting for the Slim NoC
//! reproduction.
//!
//! This crate glues the substrates together: it knows how the paper
//! configures each named network (Table 4 cycle times, per-topology VC
//! counts, buffer presets of §5.1), runs latency–load sweeps with
//! saturation detection, replays trace workloads (both as points of a
//! [`Campaign`]), evaluates the power model, and renders results as
//! aligned text tables or CSV.
//!
//! # Example
//!
//! ```
//! use snoc_core::SetupSpec;
//! use snoc_traffic::TrafficPattern;
//!
//! // The paper's SN-S configuration with SMART links.
//! let setup = SetupSpec { smart: true, ..SetupSpec::new("sn_s") }.build()?;
//! let report = setup.run_load(TrafficPattern::Random, 0.02, 500, 1_500);
//! assert!(report.delivered_packets > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod faults;
pub mod json;
mod parallel;
mod report;
mod setup;
mod spec;
mod sweep;

pub use cache::{CachedPoint, PointCache, PointCoord, ENGINE_VERSION};
pub use faults::{FaultsSpec, StormSpec};
pub use parallel::parallel_map_with_threads;
pub use report::{format_float, Series, TextTable};
pub use setup::{BufferPreset, Setup, SetupError};
pub use spec::{CampaignSpec, SetupSpec, SpecError};
pub use sweep::{Campaign, CampaignResult, Observer, PowerPoint, SweepPoint};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::{BufferPreset, Campaign, Series, Setup, TextTable};
}
