//! `tfm-obs`: dependency-free observability substrate for the
//! TRANSFORMERS reproduction.
//!
//! Every performance tier — the adaptive parallel join, the staged index
//! build, the `SharedPageCache`, and `tfm-serve` — reports into one
//! process-wide [`MetricsRegistry`] under the dotted naming scheme
//! documented in [`names`]. The design goals, in order:
//!
//! 1. **Hot-path cost is one atomic add.** Metric handles are resolved
//!    once per name ([`Arc`]s out of the registry map); recording through
//!    a handle is a relaxed `fetch_add` into a counter or a log-bucketed
//!    [`Histogram`] slot.
//! 2. **Off means off.** The registry carries a runtime switch shared by
//!    all of its metrics: while off (the [`global`] registry's default),
//!    every record call is a single relaxed flag load and no
//!    read-modify-write.
//! 3. **Exportable.** [`MetricsSnapshot`] serializes to JSON lines (and
//!    parses back — CI archives and gates on the round-trip) and to
//!    Prometheus text; [`QueryTrace`] records interleave in the same
//!    `.jsonl` stream; [`SnapshotThread`] appends periodic snapshots for
//!    long serve runs.
//!
//! Timing comes from RAII spans: [`SpanTimer`] (wall time into a
//! histogram, used per join chunk and per query) and [`StageTimer`]
//! (wall + process-CPU per build stage).

#![warn(missing_docs)]

mod hist;
mod registry;
mod snapshot;
mod trace;

pub mod names;

pub use hist::{
    bucket_index, bucket_lower_bound, Histogram, HistogramSnapshot, SpanTimer, BUCKETS, SUB_BUCKETS,
};
pub use registry::{Counter, Gauge, MetricsRegistry, StageTimer};
pub use snapshot::{MetricSnapshot, MetricValue, MetricsSnapshot};
pub use trace::QueryTrace;

use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// The process-wide registry every subsystem publishes into.
///
/// Starts **disabled** (zero-overhead beyond one relaxed load per record
/// call) unless the `TFM_METRICS` environment variable is set to
/// something other than `0` at first access; `tfm serve --metrics` /
/// `tfm join --metrics` flip it on explicitly via [`set_enabled`].
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let r = MetricsRegistry::default();
        let on = std::env::var("TFM_METRICS").is_ok_and(|v| !v.is_empty() && v != "0");
        r.set_enabled(on);
        r
    })
}

/// Flips recording on the [`global`] registry.
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

/// Whether the [`global`] registry is currently recording.
pub fn enabled() -> bool {
    global().is_enabled()
}

/// Total process CPU time (user + system, all threads) in nanoseconds.
///
/// Reads `/proc/self/stat` `utime`+`stime`, assuming the conventional
/// 100 Hz clock tick, so the granularity is 10 ms. Returns `None` on
/// non-Linux platforms or if the file is unreadable — stage timers
/// simply skip CPU attribution then.
pub fn process_cpu_nanos() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2 (comm) may contain spaces; everything after the closing
    // paren is whitespace-delimited, with utime/stime at positions 13/14
    // of that remainder (0-indexed; stat fields 14/15 overall).
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    const NANOS_PER_TICK: u64 = 1_000_000_000 / 100;
    Some((utime + stime) * NANOS_PER_TICK)
}

/// Background thread appending periodic JSON-lines snapshots of a
/// registry to a file.
///
/// Each interval it writes a sequence-header line
/// (`{"snapshot":N,"elapsed_nanos":E}`) followed by the registry's
/// metric lines; [`MetricsSnapshot::parse_jsonl`] skips the headers, so
/// the accumulated file parses as the union of all snapshots (last
/// occurrence of each metric wins for point-in-time reads). A final
/// snapshot is written on [`SnapshotThread::stop`].
#[derive(Debug)]
pub struct SnapshotThread {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl SnapshotThread {
    /// Starts the writer. `registry` is typically [`global`]; tests can
    /// leak a local one. Snapshots append to `path` (created if absent).
    pub fn start(
        registry: &'static MetricsRegistry,
        path: std::path::PathBuf,
        interval: Duration,
    ) -> std::io::Result<SnapshotThread> {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("tfm-obs-snapshot".into())
            .spawn(move || -> std::io::Result<()> {
                let start = Instant::now();
                let mut seq = 0u64;
                let (lock, cv) = &*stop2;
                loop {
                    let stopped = {
                        let guard = lock.lock().unwrap_or_else(PoisonError::into_inner);
                        let (guard, _) = cv
                            .wait_timeout_while(guard, interval, |s| !*s)
                            .unwrap_or_else(PoisonError::into_inner);
                        *guard
                    };
                    seq += 1;
                    writeln!(
                        file,
                        "{{\"snapshot\":{seq},\"elapsed_nanos\":{}}}",
                        start.elapsed().as_nanos()
                    )?;
                    file.write_all(registry.snapshot().to_jsonl().as_bytes())?;
                    file.flush()?;
                    if stopped {
                        return Ok(());
                    }
                }
            })?;
        Ok(SnapshotThread {
            stop,
            handle: Some(handle),
        })
    }

    /// Signals the writer, waits for its final snapshot, and returns any
    /// I/O error the thread hit.
    pub fn stop(mut self) -> std::io::Result<()> {
        self.signal();
        match self.handle.take() {
            Some(h) => h.join().unwrap_or(Ok(())),
            None => Ok(()),
        }
    }

    fn signal(&self) {
        let (lock, cv) = &*self.stop;
        *lock.lock().unwrap_or_else(PoisonError::into_inner) = true;
        cv.notify_all();
    }
}

impl Drop for SnapshotThread {
    fn drop(&mut self) {
        self.signal();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_time_is_monotone_when_available() {
        let Some(a) = process_cpu_nanos() else {
            return; // non-Linux: nothing to assert
        };
        // Burn a little CPU; the reading must never go backwards.
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(i).rotate_left(7);
        }
        assert!(x != 42, "keep the loop alive");
        let b = process_cpu_nanos().expect("second reading");
        assert!(b >= a);
    }

    #[test]
    fn snapshot_thread_writes_parseable_snapshots() {
        let reg: &'static MetricsRegistry = Box::leak(Box::new(MetricsRegistry::new()));
        reg.counter("test.count").add(5);
        reg.histogram("test.nanos").record(1_000);
        let path = std::env::temp_dir().join(format!("tfm_obs_snap_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let t = SnapshotThread::start(reg, path.clone(), Duration::from_millis(5))
            .expect("start snapshot thread");
        std::thread::sleep(Duration::from_millis(25));
        reg.counter("test.count").add(2);
        t.stop().expect("stop snapshot thread");
        let text = std::fs::read_to_string(&path).expect("read snapshot file");
        let parsed = MetricsSnapshot::parse_jsonl(&text).expect("parse snapshots");
        // Multiple snapshots accumulate; at least the final one carries
        // the updated counter, and headers were skipped cleanly.
        assert!(text.contains("\"snapshot\":1"));
        assert!(parsed
            .entries
            .iter()
            .any(|e| e.name == "test.count" && e.value == MetricValue::Counter(7)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn global_registry_starts_disabled_and_toggles() {
        // TFM_METRICS is unset in the test environment, so the global
        // registry defaults to off; flipping it is what the CLI does.
        if std::env::var("TFM_METRICS").is_ok() {
            return;
        }
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
