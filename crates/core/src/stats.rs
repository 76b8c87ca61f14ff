//! Join-execution statistics and time breakdown.

use std::time::Duration;
use tfm_memjoin::JoinStats;

/// Counters and the execution-time breakdown of one TRANSFORMERS join.
///
/// The split between `join_cpu` + `sim_io` ("join cost") and
/// `exploration_overhead` reproduces the paper's Fig. 14 accounting: "The
/// join cost is the time spent on disk access and the time needed to join
/// the data (the final candidate set) in memory. Everything else is
/// considered as the overhead of adaptive exploration."
#[derive(Debug, Clone, Default)]
pub struct TransformersStats {
    /// Metadata comparisons: descriptor-MBB distance/overlap tests during
    /// walk, crawl, prefilter and transformation decisions. The paper's
    /// intersection-test counts for TRANSFORMERS "also include metadata
    /// comparisons" (Fig. 11), so harnesses report
    /// `mem.element_tests + metadata_tests`.
    pub metadata_tests: u64,
    /// Element-level counters of the in-memory joins (raw, before final
    /// deduplication).
    pub mem: JoinStats,
    /// Result pairs after deduplication.
    pub unique_results: u64,
    /// Element pages fetched from disk (page-cache misses), both datasets.
    pub pages_read: u64,
    /// Page-cache hits (reads answered without touching the disk), both
    /// datasets — with the shared cache this includes hits on pages another
    /// worker faulted in.
    pub pool_hits: u64,
    /// Metadata pages read when loading descriptor tables at join start.
    pub metadata_pages_read: u64,
    /// Role transformations performed (guide ↔ follower switches, §VI-A).
    pub role_transformations: u64,
    /// Node → unit layout transformations (§VI-B).
    pub layout_transformations: u64,
    /// Unit → element layout transformations ("extreme skew", §VI-C).
    pub element_layout_transformations: u64,
    /// Candidate units dropped by the to-do-list filter (§V): their node
    /// had already been fully processed as a pivot, so every pair they
    /// could contribute was already produced.
    pub pruned_units: u64,
    /// Subset of [`pruned_units`](Self::pruned_units) pruned because
    /// *another worker's* completed pivot covered the node (via the shared
    /// board of the parallel path). Always 0 in the sequential join.
    pub cross_worker_pruned_units: u64,
    /// Guide pivots skipped whole because the opposite dataset was already
    /// fully covered (the parallel analogue of the sequential join's
    /// early-termination condition). Always 0 in the sequential join.
    pub pruned_pivots: u64,
    /// Adaptive-walk expansion steps.
    pub walk_steps: u64,
    /// Crawl expansion steps.
    pub crawl_steps: u64,
    /// Walks that exhausted their patience and fell back to the metadata
    /// scan (correctness guarantee; see `DESIGN.md`).
    pub walk_fallbacks: u64,
    /// Pivot windows executed: runs of consecutive node-level pivots
    /// planned together, whose follower pages were read in one ascending
    /// sweep (a window of one pivot is the read-per-pivot order). Windows
    /// whose pivots all had nothing to read are not counted.
    pub windows: u64,
    /// Node-level pivots joined through those windows (the pivots whose
    /// exploration left nothing to read are not counted).
    pub window_pivots: u64,
    /// Distinct follower pages of the windows, summed over windows: a page
    /// several pivots of one window need counts once.
    pub swept_pages: u64,
    /// Pages read only to keep a sweep sequential: the short gaps between
    /// two missing pages that cost less to read through than to skip
    /// ([`tfm_storage::DiskModel::read_through_gap`]). They go past the
    /// cache, so they are disk reads on top of `pages_read`.
    pub read_through_pages: u64,
    /// Wall-clock time spent in the in-memory joins.
    pub join_cpu: Duration,
    /// Wall-clock time spent in walk/crawl/filter/transformation logic.
    pub exploration_overhead: Duration,
    /// Simulated device time for all page traffic during the join.
    pub sim_io: Duration,
}

impl TransformersStats {
    /// Total intersection tests as the paper counts them for TRANSFORMERS
    /// (element tests + metadata comparisons, Fig. 11 right).
    pub fn total_tests(&self) -> u64 {
        self.mem.element_tests + self.metadata_tests
    }

    /// "Join cost" in the Fig. 14 sense: simulated I/O + in-memory join CPU.
    pub fn join_cost(&self) -> Duration {
        self.sim_io + self.join_cpu
    }

    /// Page-cache hit fraction of the join phase, in `0.0..=1.0`.
    pub fn pool_hit_fraction(&self) -> f64 {
        let total = self.pool_hits + self.pages_read;
        if total == 0 {
            return 0.0;
        }
        self.pool_hits as f64 / total as f64
    }

    /// Total transformations of any kind.
    pub fn transformations(&self) -> u64 {
        self.role_transformations
            + self.layout_transformations
            + self.element_layout_transformations
    }

    /// Publishes this record's join counters into `reg` under the unified
    /// naming scheme (see `tfm_obs::names`): the cache signals previously
    /// reported only as `pool_hits`/`pages_read` route to `cache.hits` /
    /// `cache.misses`, and the TRANSFORMERS-specific exploration counters
    /// to the `join.*` family. Call once per run with the final (merged)
    /// record — the parallel path publishes the post-merge aggregate, the
    /// sequential path its own stats — so nothing double-counts.
    pub fn publish(&self, reg: &tfm_obs::MetricsRegistry) {
        use tfm_obs::names;
        reg.counter(names::CACHE_HITS).add(self.pool_hits);
        reg.counter(names::CACHE_MISSES).add(self.pages_read);
        reg.counter(names::JOIN_TESTS).add(self.total_tests());
        reg.counter(names::JOIN_ROLE_TRANSFORMATIONS)
            .add(self.role_transformations);
        reg.counter(names::JOIN_PRUNED_UNITS).add(self.pruned_units);
        reg.counter(names::JOIN_WALK_STEPS).add(self.walk_steps);
        reg.counter(names::JOIN_CRAWL_STEPS).add(self.crawl_steps);
        reg.counter(names::JOIN_WINDOWS).add(self.windows);
        reg.counter(names::JOIN_WINDOW_PIVOTS)
            .add(self.window_pivots);
        reg.counter(names::JOIN_SWEPT_PAGES).add(self.swept_pages);
        reg.counter(names::JOIN_READ_THROUGH_PAGES)
            .add(self.read_through_pages);
        reg.counter(names::JOIN_MEM_JOIN_NANOS)
            .add(self.join_cpu.as_nanos() as u64);
        reg.counter(names::JOIN_EXPLORATION_NANOS)
            .add(self.exploration_overhead.as_nanos() as u64);
    }

    /// Accumulates another stats record into this one.
    ///
    /// Used by the parallel execution subsystem (`tfm-exec`) to combine
    /// per-worker statistics: all counters are exact sums, so merging the
    /// workers in a fixed order yields a deterministic aggregate. Fields
    /// that are only meaningful globally (`unique_results`, `sim_io`) are
    /// summed too and are expected to be overwritten by the caller after
    /// the final deduplication / I/O accounting.
    pub fn merge(&mut self, other: &TransformersStats) {
        self.metadata_tests += other.metadata_tests;
        self.mem.element_tests += other.mem.element_tests;
        self.mem.results += other.mem.results;
        self.unique_results += other.unique_results;
        self.pages_read += other.pages_read;
        self.pool_hits += other.pool_hits;
        self.metadata_pages_read += other.metadata_pages_read;
        self.role_transformations += other.role_transformations;
        self.layout_transformations += other.layout_transformations;
        self.element_layout_transformations += other.element_layout_transformations;
        self.pruned_units += other.pruned_units;
        self.cross_worker_pruned_units += other.cross_worker_pruned_units;
        self.pruned_pivots += other.pruned_pivots;
        self.walk_steps += other.walk_steps;
        self.crawl_steps += other.crawl_steps;
        self.walk_fallbacks += other.walk_fallbacks;
        self.windows += other.windows;
        self.window_pivots += other.window_pivots;
        self.swept_pages += other.swept_pages;
        self.read_through_pages += other.read_through_pages;
        self.join_cpu += other.join_cpu;
        self.exploration_overhead += other.exploration_overhead;
        self.sim_io += other.sim_io;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_combine_counters() {
        let s = TransformersStats {
            metadata_tests: 10,
            mem: JoinStats {
                element_tests: 90,
                results: 5,
            },
            sim_io: Duration::from_millis(3),
            join_cpu: Duration::from_millis(2),
            exploration_overhead: Duration::from_millis(1),
            role_transformations: 1,
            layout_transformations: 2,
            element_layout_transformations: 3,
            ..Default::default()
        };
        assert_eq!(s.total_tests(), 100);
        assert_eq!(s.join_cost(), Duration::from_millis(5));
        assert_eq!(s.transformations(), 6);
    }

    #[test]
    fn merge_sums_all_counters() {
        let mut a = TransformersStats {
            metadata_tests: 5,
            mem: JoinStats {
                element_tests: 10,
                results: 2,
            },
            unique_results: 2,
            pages_read: 3,
            walk_steps: 7,
            join_cpu: Duration::from_millis(1),
            ..Default::default()
        };
        let b = TransformersStats {
            metadata_tests: 20,
            mem: JoinStats {
                element_tests: 30,
                results: 4,
            },
            unique_results: 4,
            pages_read: 6,
            walk_steps: 1,
            windows: 2,
            window_pivots: 9,
            swept_pages: 40,
            read_through_pages: 3,
            pruned_units: 11,
            cross_worker_pruned_units: 4,
            pruned_pivots: 2,
            join_cpu: Duration::from_millis(2),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.metadata_tests, 25);
        assert_eq!(a.mem.element_tests, 40);
        assert_eq!(a.mem.results, 6);
        assert_eq!(a.unique_results, 6);
        assert_eq!(a.pages_read, 9);
        assert_eq!(a.walk_steps, 8);
        assert_eq!(a.pruned_units, 11);
        assert_eq!(a.cross_worker_pruned_units, 4);
        assert_eq!(a.pruned_pivots, 2);
        assert_eq!(
            (
                a.windows,
                a.window_pivots,
                a.swept_pages,
                a.read_through_pages
            ),
            (2, 9, 40, 3)
        );
        assert_eq!(a.join_cpu, Duration::from_millis(3));
    }
}
