//! The measurement primitive: one warm-up round, then timed rounds until
//! the time budget is spent, each round a complete pass over the pipeline
//! so phases interleave across the whole run.
//!
//! The host's noise is one-sided and arrives in bursts that last seconds:
//! a burst inflates the rounds it hits and leaves the others alone. The
//! reported value of a timed metric is therefore the quartile on its good
//! side (lower for times, upper for rates), which ignores up to three
//! quarters of the rounds being hit; `n`, min, median and max are printed
//! beside it so the spread is visible.

use crate::spec::Better;
use std::time::{Duration, Instant};

/// Never report a timed metric from fewer timed rounds than this.
pub const MIN_ROUNDS: usize = 8;

/// Per-round samples of every metric, in first-recorded order.
#[derive(Default)]
pub struct Recorder {
    series: Vec<(&'static str, Vec<f64>)>,
}

impl Recorder {
    /// Adds one round's sample of `name`.
    pub fn record(&mut self, name: &'static str, value: f64) {
        match self.series.iter_mut().find(|(n, _)| *n == name) {
            Some((_, samples)) => samples.push(value),
            None => self.series.push((name, vec![value])),
        }
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.series
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(&[], |(_, s)| s.as_slice())
    }
}

/// Order statistics of one metric's samples.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Quartiles by the same rule as Python's `statistics.quantiles(n=4)`
    /// (exclusive method), so the README's numbers can be re-derived with
    /// the tool the driver uses.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let quantile = |p: f64| {
            if n == 1 {
                return s[0];
            }
            // Position among n sorted values on the (n+1)·p scale, clamped.
            let pos = ((n + 1) as f64 * p).clamp(1.0, n as f64);
            let lo = pos.floor() as usize;
            let frac = pos - lo as f64;
            let hi = (lo + 1).min(n);
            s[lo - 1] + frac * (s[hi - 1] - s[lo - 1])
        };
        Some(Self {
            n,
            min: s[0],
            q1: quantile(0.25),
            median: quantile(0.5),
            q3: quantile(0.75),
            max: s[n - 1],
        })
    }

    /// The quartile on the metric's good side.
    pub fn good_quartile(&self, better: Better) -> f64 {
        match better {
            Better::Lower => self.q1,
            Better::Higher => self.q3,
        }
    }
}

/// Runs `round` once as a discarded warm-up, then as timed rounds until
/// `budget` has passed and at least [`MIN_ROUNDS`] are in. Returns the
/// timed rounds' samples. The process's peak-RSS mark is reset after the
/// warm-up, so [`peak_rss_mb`] covers the timed rounds only.
pub fn rounds<E>(
    budget: Duration,
    mut round: impl FnMut(&mut Recorder) -> Result<(), E>,
) -> Result<Recorder, E> {
    round(&mut Recorder::default())?;
    reset_peak_rss();
    let mut rec = Recorder::default();
    let start = Instant::now();
    let mut done = 0usize;
    while done < MIN_ROUNDS || start.elapsed() < budget {
        round(&mut rec)?;
        done += 1;
    }
    Ok(rec)
}

/// Resets `VmHWM` to the current resident set (Linux: `5` into
/// `/proc/self/clear_refs`). Where the kernel refuses, the mark keeps
/// covering the whole process and the run says so.
fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        println!(
            "note: peak RSS not reset after the warm-up round ({e}); peak_rss_mb covers it too"
        );
    }
}

/// `VmHWM` of this process in MiB: the peak resident set since the last
/// reset.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..9], n=4) == [2.5, 5.0, 7.5]
        let s = Summary::of(&[9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.5, 5.0, 7.5));
        assert_eq!((s.n, s.min, s.max), (9, 1.0, 9.0));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        let s = Summary::of(&[1.0, 2.0, 4.0, 8.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.25, 3.0, 7.0));
    }

    #[test]
    fn rounds_discards_the_warm_up_and_honours_the_minimum() {
        let mut calls = 0;
        let rec = rounds(Duration::ZERO, |rec| {
            calls += 1;
            rec.record("x", calls as f64);
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(calls, MIN_ROUNDS + 1);
        assert_eq!(rec.samples("x").len(), MIN_ROUNDS);
        assert_eq!(rec.samples("x")[0], 2.0);
    }
}
