//! Experiment harness reproducing the paper's evaluation (§VII).
//!
//! [`experiments`] describes every table and figure once, as one row of a
//! table; the `reproduce` binary runs the whole table, or only the ids it
//! is given, printing summaries and writing one CSV per row into
//! `results/`:
//!
//! | id                | paper artefact                                   |
//! |-------------------|--------------------------------------------------|
//! | `fig10`           | Fig. 1 / Fig. 10 — join time vs density ratio    |
//! | `fig11`           | Fig. 11 — indexing, join breakdown, #tests       |
//! | `table1`          | Table I — uniform-distribution join times        |
//! | `fig12`           | Fig. 12 — neuroscience workload                  |
//! | `fig13-left`      | Fig. 13 left — impact of transformations         |
//! | `fig13-right`     | Fig. 13 right — threshold sensitivity            |
//! | `fig14`           | Fig. 14 — adaptive exploration overhead          |
//! | `filtering`       | §VII-C2 — share of element pages never read      |
//! | `parallel`        | parallel join at 1/2/4/8 workers vs sequential   |
//! | `serve`           | query serving over the TRANSFORMERS index        |
//!
//! Scale: dataset sizes default to the paper's ÷ 1000 and multiply by the
//! `TFM_SCALE` environment variable (e.g. `TFM_SCALE=0.05` for a smoke
//! run, `TFM_SCALE=4` for 4× larger runs). "Join time" columns report
//! *simulated device time + measured CPU time* — see `DESIGN.md`
//! substitution 1.
//!
//! Besides `reproduce`, the crate has one more binary, `crash_child`: the
//! process the crash-recovery tests kill mid-commit. [`args`] is the
//! `--flag` parser of `crash_child` and of `tfm`. Performance is measured
//! by the standalone `benchmark/` package, not here.

#![warn(missing_docs)]

pub mod args;
pub mod experiments;
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

/// Reads the scale multiplier from `TFM_SCALE` (default 1.0) through
/// [`parse_scale`]; a value it rejects ends the process with the error,
/// so a typo never turns a smoke run into the full sweep.
pub fn scale() -> f64 {
    let raw = std::env::var("TFM_SCALE").ok();
    parse_scale(raw.as_deref()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// Parses a `TFM_SCALE` value: unset is 1.0, anything else must be a
/// positive finite number.
pub fn parse_scale(raw: Option<&str>) -> Result<f64, String> {
    let Some(raw) = raw else { return Ok(1.0) };
    match raw.parse::<f64>() {
        Ok(s) if s.is_finite() && s > 0.0 => Ok(s),
        _ => Err(format!(
            "TFM_SCALE={raw:?} is not a positive finite number (e.g. 0.05)"
        )),
    }
}

/// Applies a scale multiplier to a base element count (at least 1).
pub fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64) * scale).round().max(1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_rejects_what_is_not_a_positive_finite_number() {
        assert_eq!(parse_scale(None), Ok(1.0));
        assert_eq!(parse_scale(Some("0.05")), Ok(0.05));
        for bad in ["0,05", "-1", "0", "inf", "NaN", ""] {
            let err = parse_scale(Some(bad)).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn scaled_rounds_and_keeps_one_element() {
        assert_eq!(scaled(250_000, 0.05), 12_500);
        assert_eq!(scaled(3, 0.1), 1);
    }
}
