//! The repository benchmark: four workloads (`train_raw`, `train_sz`,
//! `dist_sz`, `serve_mixed`) driven through the public API of the
//! `ebtrain` crates, with end-to-end metrics from untraced runs and
//! per-layer metrics from traced runs. See `README.md` in this
//! directory for the workloads, the metrics and the layer map.

pub mod dist;
pub mod harness;
pub mod layers;
pub mod report;
pub mod serve;
pub mod timing;
pub mod train;
