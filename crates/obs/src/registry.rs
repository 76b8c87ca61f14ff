//! The named-metric registry: counters, gauges and histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`crate::Histogram`]) are `Arc`s
//! resolved **once** per name, so the name lookup (a mutexed map) stays
//! off every hot path; recording through a handle is a single relaxed
//! `fetch_add`. Each registry carries a runtime switch shared by all of
//! its metrics: while off, every record call is one relaxed flag load and
//! no read-modify-write.

use crate::hist::{Histogram, SpanTimer};
use crate::process_cpu_nanos;
use crate::snapshot::{MetricSnapshot, MetricValue, MetricsSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// The shared gate check every record path runs first.
#[inline]
pub(crate) fn flag_is_on(flag: &AtomicBool) -> bool {
    flag.load(Ordering::Relaxed)
}

/// A monotonically increasing named counter.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
    enabled: Arc<AtomicBool>,
}

impl Counter {
    fn with_flag(enabled: Arc<AtomicBool>) -> Self {
        Self {
            value: AtomicU64::new(0),
            enabled,
        }
    }

    /// Adds `n` (no-op while the registry is disabled).
    pub fn add(&self, n: u64) {
        if flag_is_on(&self.enabled) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A named signed gauge (set/adjust semantics, e.g. a queue depth).
#[derive(Debug)]
pub struct Gauge {
    value: AtomicI64,
    enabled: Arc<AtomicBool>,
}

impl Gauge {
    fn with_flag(enabled: Arc<AtomicBool>) -> Self {
        Self {
            value: AtomicI64::new(0),
            enabled,
        }
    }

    /// Sets the gauge (no-op while the registry is disabled).
    pub fn set(&self, v: i64) {
        if flag_is_on(&self.enabled) {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adjusts the gauge by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        if flag_is_on(&self.enabled) {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A process-wide (or test-local) registry of named metrics.
///
/// Names follow the dotted scheme documented in [`crate::names`]
/// (`subsystem.metric_unit`). Looking a name up registers it on first
/// use; re-registering the same name returns the same underlying metric,
/// and asking for it under a different kind panics — a naming-scheme
/// violation is a programming error, not a runtime condition.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    enabled: Arc<AtomicBool>,
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An enabled, empty registry. The process-wide [`crate::global`]
    /// registry starts **disabled** instead; test-local registries are
    /// usually wanted live immediately.
    pub fn new() -> Self {
        let r = Self::default();
        r.set_enabled(true);
        r
    }

    /// Flips the runtime switch shared by every metric of this registry.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is currently on. Callers with per-run publication
    /// blocks (several registry lookups) should gate on this once rather
    /// than rely on each metric's internal check.
    pub fn is_enabled(&self) -> bool {
        flag_is_on(&self.enabled)
    }

    fn resolve(&self, name: &str, make: impl FnOnce(Arc<AtomicBool>) -> Metric) -> Metric {
        let mut map = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        map.entry(name.to_string())
            .or_insert_with(|| make(Arc::clone(&self.enabled)))
            .clone()
    }

    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.resolve(name, |f| Metric::Counter(Arc::new(Counter::with_flag(f)))) {
            Metric::Counter(c) => c,
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.resolve(name, |f| Metric::Gauge(Arc::new(Gauge::with_flag(f)))) {
            Metric::Gauge(g) => g,
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.resolve(name, |f| {
            Metric::Histogram(Arc::new(Histogram::with_flag(f)))
        }) {
            Metric::Histogram(h) => h,
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    /// Starts an RAII wall-clock span recording into the histogram named
    /// `name` when dropped.
    pub fn span(&self, name: &str) -> SpanTimer {
        self.histogram(name).span()
    }

    /// Starts a build-stage timer: wall time goes to `<prefix>_nanos`
    /// (histogram), process CPU time to `<prefix>_cpu_nanos` (counter;
    /// scheduler-tick granularity, Linux only — see
    /// [`crate::process_cpu_nanos`]).
    pub fn stage_span(&self, prefix: &str) -> StageTimer {
        let cpu_start = self.is_enabled().then(process_cpu_nanos).flatten();
        StageTimer {
            wall: self.histogram(&format!("{prefix}_nanos")),
            cpu: self.counter(&format!("{prefix}_cpu_nanos")),
            start: Instant::now(),
            cpu_start,
        }
    }

    /// Point-in-time copy of every registered metric, name-sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        MetricsSnapshot {
            entries: map
                .iter()
                .map(|(name, metric)| MetricSnapshot {
                    name: name.clone(),
                    value: match metric {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }

    /// Zeroes every registered metric (handles stay valid).
    pub fn reset(&self) {
        let map = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        for metric in map.values() {
            match metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }
}

/// RAII build-stage timer pairing a wall-time histogram with a process-CPU
/// counter; see [`MetricsRegistry::stage_span`].
#[derive(Debug)]
pub struct StageTimer {
    wall: Arc<Histogram>,
    cpu: Arc<Counter>,
    start: Instant,
    cpu_start: Option<u64>,
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        self.wall.record(self.start.elapsed().as_nanos() as u64);
        if let (Some(before), Some(after)) = (self.cpu_start, process_cpu_nanos()) {
            self.cpu.add(after.saturating_sub(before));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = MetricsRegistry::new();
        let c = r.counter("test.count");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name resolves to the same metric.
        assert_eq!(r.counter("test.count").get(), 5);
        let g = r.gauge("test.depth");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn a_poisoned_registry_still_records_and_snapshots() {
        // Every metric is its own atomic and the map is only ever inserted
        // into, so a thread that panicked holding the lock left nothing half
        // written: the registry takes its guard back.
        let r = MetricsRegistry::new();
        r.counter("test.count").add(3);
        r.gauge("test.depth").set(2);
        r.histogram("test.nanos").record(10);
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _guard = r.metrics.lock().unwrap();
                panic!("poison the registry");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(r.metrics.is_poisoned());
        r.counter("test.count").inc();
        r.counter("test.late").add(5);
        let snap = r.snapshot();
        assert_eq!(snap.counter("test.count"), Some(4));
        assert_eq!(snap.counter("test.late"), Some(5));
        assert_eq!(snap.get("test.depth"), Some(&MetricValue::Gauge(2)));
        assert_eq!(snap.histogram("test.nanos").map(|h| h.count), Some(1));
        assert_eq!(snap.entries.len(), 4);
        r.reset();
        assert_eq!(r.snapshot().counter("test.count"), Some(0));
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = MetricsRegistry::new();
        let c = r.counter("test.count");
        let h = r.histogram("test.nanos");
        r.set_enabled(false);
        assert!(!r.is_enabled());
        c.add(10);
        h.record(10);
        r.gauge("test.depth").set(3);
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(r.gauge("test.depth").get(), 0);
        // Flipping back on re-activates the very same handles.
        r.set_enabled(true);
        c.add(10);
        h.record(10);
        assert_eq!(c.get(), 10);
        assert_eq!(h.count(), 1);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.counter("test.count");
        r.gauge("test.count");
    }

    #[test]
    fn snapshot_is_name_sorted_and_reset_zeroes() {
        let r = MetricsRegistry::new();
        r.counter("b.two").add(2);
        r.counter("a.one").add(1);
        r.histogram("c.nanos").record(42);
        let s = r.snapshot();
        let names: Vec<&str> = s.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a.one", "b.two", "c.nanos"]);
        r.reset();
        for e in r.snapshot().entries {
            match e.value {
                MetricValue::Counter(v) => assert_eq!(v, 0, "{}", e.name),
                MetricValue::Gauge(v) => assert_eq!(v, 0, "{}", e.name),
                MetricValue::Histogram(h) => assert_eq!(h.count, 0, "{}", e.name),
            }
        }
    }

    #[test]
    fn stage_span_times_wall_and_cpu() {
        let r = MetricsRegistry::new();
        {
            let _t = r.stage_span("test.stage");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let wall = r.histogram("test.stage_nanos").snapshot();
        assert_eq!(wall.count, 1);
        assert!(wall.max >= 1_000_000);
        // CPU time is best-effort (tick granularity); just ensure the
        // counter exists and is readable.
        let _ = r.counter("test.stage_cpu_nanos").get();
    }
}
