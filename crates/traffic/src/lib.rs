//! Traffic generation for the Slim NoC reproduction.
//!
//! Two families of workloads drive the paper's evaluation (§5.1):
//!
//! 1. **Synthetic patterns** — uniform random (RND), bit shuffle (SHF),
//!    bit reversal (REV), two adversarial patterns (ADV1 stressing
//!    single-link paths, ADV2 stressing multi-link paths), and the
//!    asymmetric pattern of §6 — implemented in [`TrafficPattern`].
//! 2. **PARSEC/SPLASH-like traces** — the paper records L1-backside
//!    traces with Manifold + DRAMSim2. We do not have those proprietary
//!    traces, so [`TraceWorkload`] generates synthetic equivalents that
//!    preserve the properties the evaluation depends on: per-benchmark
//!    load intensity, the 2-flit read / 6-flit write / 2-flit coherence
//!    message mix, 6-flit replies to every read, hotspot skew, and
//!    bursty injection (the README's "Reproducing figures and tables"
//!    lists the three artifacts they drive: `fig10` (b), `fig18`,
//!    `table6`).
//!
//! # Example
//!
//! ```
//! use snoc_topology::Topology;
//! use snoc_traffic::{PatternSampler, TrafficPattern};
//! use rand::SeedableRng;
//!
//! let topo = Topology::slim_noc(5, 4)?;
//! let sampler = PatternSampler::new(TrafficPattern::Random, &topo);
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let dst = sampler.sample(snoc_topology::NodeId(0), &mut rng);
//! assert!(dst.map_or(true, |d| d.index() < topo.node_count()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod injection;
mod patterns;
mod trace;

pub use injection::{geometric_failures, BurstModel, InjectionProcess};
pub use patterns::{PatternSampler, TrafficPattern};
pub use trace::{
    benchmark_names, benchmark_workloads, MessageKind, TraceMessage, TraceWorkload, WorkloadParams,
};
