//! Experiment harness reproducing the paper's evaluation (§VII).
//!
//! Each binary in `src/bin/` regenerates one table or figure:
//!
//! | binary                 | paper artefact                                  |
//! |------------------------|-------------------------------------------------|
//! | `fig10_robustness`     | Fig. 1 / Fig. 10 — join time vs density ratio    |
//! | `fig11_nonuniform`     | Fig. 11 — indexing, join breakdown, #tests       |
//! | `table1_uniform`       | Table I — uniform-distribution join times        |
//! | `fig12_neuro`          | Fig. 12 — neuroscience workload                  |
//! | `fig13_transformations`| Fig. 13 — transformation impact & thresholds     |
//! | `fig14_overhead`       | Fig. 14 — adaptive exploration overhead          |
//! | `extra_baselines`      | §VIII-B — SSSJ and S3 vs the measured approaches |
//! | `all_experiments`      | everything above, CSVs into `results/`           |
//!
//! Scale: dataset sizes default to laptop scale and multiply by the
//! `TFM_SCALE` environment variable (e.g. `TFM_SCALE=4` for 4× larger
//! runs). "Join time" columns report *simulated device time + measured
//! CPU time* — see `DESIGN.md` substitution 1.

#![warn(missing_docs)]

pub mod report;
pub mod runner;
pub mod serve;
pub mod shard;
pub mod workloads;

pub use report::{print_table, write_csv};
pub use runner::{run_approach, Approach, Metrics, RunConfig};
pub use serve::{
    print_serve_table, run_serve, run_serve_sweep, run_serve_traced, write_serve_csv, ServeJob,
    ServeMetrics,
};
pub use shard::run_serve_sharded;
pub use tfm_serve::ServeEngineKind;

/// Reads the scale multiplier from `TFM_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("TFM_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
        .unwrap_or(1.0)
}

/// Applies the global scale to a base element count.
pub fn scaled(base: usize) -> usize {
    ((base as f64) * scale()).round().max(1.0) as usize
}

/// The host's CPU model string (`/proc/cpuinfo` on Linux), so checked-in
/// bench artifacts document the hardware they came from.
pub fn host_cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}
