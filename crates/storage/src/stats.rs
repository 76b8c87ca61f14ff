//! I/O statistics collection.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Live, thread-safe I/O counters owned by a [`crate::Disk`].
///
/// Reads and writes are classified as *sequential* (page id is the successor
/// of the previously accessed page id of the same kind) or *random*. The
/// simulated device time integrated from the [`crate::DiskModel`] is
/// accumulated in nanoseconds.
#[derive(Debug, Default)]
pub struct IoStats {
    pub(crate) seq_reads: AtomicU64,
    pub(crate) rand_reads: AtomicU64,
    pub(crate) seq_writes: AtomicU64,
    pub(crate) rand_writes: AtomicU64,
    pub(crate) sim_read_nanos: AtomicU64,
    pub(crate) sim_write_nanos: AtomicU64,
}

impl IoStats {
    /// Takes a point-in-time copy of all counters.
    pub fn snapshot(&self) -> IoStatsSnapshot {
        IoStatsSnapshot {
            seq_reads: self.seq_reads.load(Ordering::Relaxed),
            rand_reads: self.rand_reads.load(Ordering::Relaxed),
            seq_writes: self.seq_writes.load(Ordering::Relaxed),
            rand_writes: self.rand_writes.load(Ordering::Relaxed),
            sim_read_nanos: self.sim_read_nanos.load(Ordering::Relaxed),
            sim_write_nanos: self.sim_write_nanos.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.seq_reads.store(0, Ordering::Relaxed);
        self.rand_reads.store(0, Ordering::Relaxed);
        self.seq_writes.store(0, Ordering::Relaxed);
        self.rand_writes.store(0, Ordering::Relaxed);
        self.sim_read_nanos.store(0, Ordering::Relaxed);
        self.sim_write_nanos.store(0, Ordering::Relaxed);
    }

    pub(crate) fn record_read(&self, sequential: bool, cost: Duration) {
        if sequential {
            self.seq_reads.fetch_add(1, Ordering::Relaxed);
        } else {
            self.rand_reads.fetch_add(1, Ordering::Relaxed);
        }
        self.sim_read_nanos
            .fetch_add(cost.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_write(&self, sequential: bool, cost: Duration) {
        if sequential {
            self.seq_writes.fetch_add(1, Ordering::Relaxed);
        } else {
            self.rand_writes.fetch_add(1, Ordering::Relaxed);
        }
        self.sim_write_nanos
            .fetch_add(cost.as_nanos() as u64, Ordering::Relaxed);
    }

    /// `n` sequential writes of `cost` each: the same counts as `n` calls
    /// of [`record_write`](Self::record_write).
    pub(crate) fn record_seq_writes(&self, n: u64, cost: Duration) {
        self.seq_writes.fetch_add(n, Ordering::Relaxed);
        self.sim_write_nanos
            .fetch_add(n * cost.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// An immutable copy of [`IoStats`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoStatsSnapshot {
    /// Page reads whose page id followed the previously read id.
    pub seq_reads: u64,
    /// Page reads that required repositioning.
    pub rand_reads: u64,
    /// Page writes whose page id followed the previously written id.
    pub seq_writes: u64,
    /// Page writes that required repositioning.
    pub rand_writes: u64,
    /// Simulated device time spent reading, in nanoseconds.
    pub sim_read_nanos: u64,
    /// Simulated device time spent writing, in nanoseconds.
    pub sim_write_nanos: u64,
}

impl IoStatsSnapshot {
    /// Total page reads.
    pub fn reads(&self) -> u64 {
        self.seq_reads + self.rand_reads
    }

    /// Total page writes.
    pub fn writes(&self) -> u64 {
        self.seq_writes + self.rand_writes
    }

    /// Fraction of reads classified sequential, in `0.0..=1.0` (0 when no
    /// reads happened). Locality optimizations — the index build's
    /// contiguous layouts, the serving layer's Hilbert-ordered batching —
    /// show up directly in this number.
    pub fn seq_read_fraction(&self) -> f64 {
        let total = self.reads();
        if total == 0 {
            return 0.0;
        }
        self.seq_reads as f64 / total as f64
    }

    /// Total simulated device time (read + write).
    pub fn sim_io_time(&self) -> Duration {
        Duration::from_nanos(self.sim_read_nanos + self.sim_write_nanos)
    }

    /// Simulated device time spent reading.
    pub fn sim_read_time(&self) -> Duration {
        Duration::from_nanos(self.sim_read_nanos)
    }

    /// Simulated device time spent writing.
    pub fn sim_write_time(&self) -> Duration {
        Duration::from_nanos(self.sim_write_nanos)
    }

    /// Publishes these counters into `reg` under the `io.*` naming scheme
    /// (see `tfm_obs::names`). Callers publish a phase's *delta* snapshot
    /// once per run, so repeated publication accumulates across runs but
    /// never double-counts within one.
    pub fn publish(&self, reg: &tfm_obs::MetricsRegistry) {
        use tfm_obs::names;
        reg.counter(names::IO_SEQ_READS).add(self.seq_reads);
        reg.counter(names::IO_RAND_READS).add(self.rand_reads);
        reg.counter(names::IO_SEQ_WRITES).add(self.seq_writes);
        reg.counter(names::IO_RAND_WRITES).add(self.rand_writes);
        reg.counter(names::IO_SIM_NANOS)
            .add(self.sim_read_nanos + self.sim_write_nanos);
    }

    /// Counter-wise difference `self - earlier`; use to measure a phase.
    pub fn delta_since(&self, earlier: &IoStatsSnapshot) -> IoStatsSnapshot {
        IoStatsSnapshot {
            seq_reads: self.seq_reads - earlier.seq_reads,
            rand_reads: self.rand_reads - earlier.rand_reads,
            seq_writes: self.seq_writes - earlier.seq_writes,
            rand_writes: self.rand_writes - earlier.rand_writes,
            sim_read_nanos: self.sim_read_nanos - earlier.sim_read_nanos,
            sim_write_nanos: self.sim_write_nanos - earlier.sim_write_nanos,
        }
    }

    /// Counter-wise sum of two snapshots (e.g. both datasets' disks).
    pub fn merged(&self, other: &IoStatsSnapshot) -> IoStatsSnapshot {
        IoStatsSnapshot {
            seq_reads: self.seq_reads + other.seq_reads,
            rand_reads: self.rand_reads + other.rand_reads,
            seq_writes: self.seq_writes + other.seq_writes,
            rand_writes: self.rand_writes + other.rand_writes,
            sim_read_nanos: self.sim_read_nanos + other.sim_read_nanos,
            sim_write_nanos: self.sim_write_nanos + other.sim_write_nanos,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let s = IoStats::default();
        s.record_read(true, Duration::from_micros(50));
        s.record_read(false, Duration::from_micros(6550));
        s.record_write(false, Duration::from_micros(6550));
        let snap = s.snapshot();
        assert_eq!(snap.seq_reads, 1);
        assert_eq!(snap.rand_reads, 1);
        assert_eq!(snap.reads(), 2);
        assert_eq!(snap.seq_read_fraction(), 0.5);
        assert_eq!(IoStatsSnapshot::default().seq_read_fraction(), 0.0);
        assert_eq!(snap.writes(), 1);
        assert_eq!(snap.sim_read_time(), Duration::from_micros(6600));
        assert_eq!(snap.sim_write_time(), Duration::from_micros(6550));
        assert_eq!(snap.sim_io_time(), Duration::from_micros(13150));
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = IoStats::default();
        s.record_read(true, Duration::from_micros(1));
        s.reset();
        assert_eq!(s.snapshot(), IoStatsSnapshot::default());
    }

    #[test]
    fn delta_and_merge() {
        let s = IoStats::default();
        s.record_read(true, Duration::from_micros(10));
        let a = s.snapshot();
        s.record_read(false, Duration::from_micros(20));
        let b = s.snapshot();
        let d = b.delta_since(&a);
        assert_eq!(d.reads(), 1);
        assert_eq!(d.rand_reads, 1);
        let m = a.merged(&d);
        assert_eq!(m, b);
    }
}
