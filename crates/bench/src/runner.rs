//! Uniform approach runner: executes one join approach on one workload and
//! returns comparable [`Metrics`].
//!
//! All approaches run on fresh in-memory simulated disks with the same page
//! size and page-cache capacity; indexing and join phases are measured
//! separately (the paper reports them separately, §VII-C2: "the results of
//! the join, excluding the index building time").

use std::time::{Duration, Instant};
use tfm_geom::{Aabb, SpatialElement};
use tfm_gipsy::{gipsy_join, GipsyStats, SparseFile};
use tfm_memjoin::ResultPair;
use tfm_pbsm::{pbsm_join, pbsm_partition, PbsmConfig, PbsmStats};
use tfm_rtree::{sync_join, RTree, RtreeStats};
use tfm_storage::{CacheHandle, Disk, IoStatsSnapshot, SharedPageCache, StoreBackend};
use transformers::{
    transformers_join, IndexBuildPipeline, IndexConfig, JoinConfig, ThresholdPolicy,
    TransformersIndex,
};

/// Which join approach to run.
#[derive(Debug, Clone, PartialEq)]
pub enum Approach {
    /// TRANSFORMERS with the given join configuration.
    Transformers(JoinConfig),
    /// TRANSFORMERS executed by the parallel subsystem (`tfm-exec`) with
    /// the given join configuration and worker count.
    TransformersParallel(JoinConfig, usize),
    /// PBSM (space-oriented partitioning baseline).
    Pbsm,
    /// Synchronized R-Tree traversal (data-oriented baseline).
    Rtree,
    /// GIPSY (crawling baseline; the smaller dataset is declared sparse).
    Gipsy,
}

impl Approach {
    /// TRANSFORMERS with default (cost-model) configuration.
    pub fn transformers() -> Self {
        Approach::Transformers(JoinConfig::default())
    }

    /// Parallel TRANSFORMERS with default configuration and `threads`
    /// workers: fully adaptive — in-chunk role transformations plus
    /// cross-worker to-do-list pruning over the shared coverage board.
    pub fn parallel(threads: usize) -> Self {
        Approach::TransformersParallel(JoinConfig::default(), threads)
    }

    /// TRANSFORMERS with transformations disabled ("No TR", Fig. 13).
    pub fn no_tr() -> Self {
        Approach::Transformers(JoinConfig::without_transformations())
    }

    /// TRANSFORMERS with a specific threshold policy (Fig. 13 right).
    pub fn with_policy(policy: ThresholdPolicy) -> Self {
        Approach::Transformers(JoinConfig::default().with_thresholds(policy))
    }

    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            Approach::Transformers(cfg) => match cfg.thresholds {
                ThresholdPolicy::Disabled => "NoTR".into(),
                ThresholdPolicy::CostModel => "TRANSFORMERS".into(),
                ThresholdPolicy::Fixed { t_su, .. } if t_su <= 2.0 => "TR-OverFit".into(),
                ThresholdPolicy::Fixed { t_su, .. } if t_su >= 1e5 => "TR-UnderFit".into(),
                ThresholdPolicy::Fixed { .. } => "TR-Fixed".into(),
            },
            Approach::TransformersParallel(_, threads) => format!("TFM-PARx{threads}"),
            Approach::Pbsm => "PBSM".into(),
            Approach::Rtree => "R-TREE".into(),
            Approach::Gipsy => "GIPSY".into(),
        }
    }
}

/// Harness-wide run parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Page size for every disk. The default (2 KiB) shrinks space units
    /// and nodes proportionally to the laptop-scale datasets, preserving
    /// the paper's elements-per-node *relationship* (see `DESIGN.md`).
    pub page_size: usize,
    /// PBSM grid cells per dimension (paper: 10³ partitions for synthetic
    /// data, 20³ for neuroscience).
    pub pbsm_partitions: usize,
    /// Buffer-pool capacity in pages, shared by all approaches.
    pub pool_pages: usize,
    /// Worker threads for the index-build phase of the STR-indexed
    /// approaches (TRANSFORMERS, GIPSY's two sides, the R-Tree). Builds
    /// are byte-identical at any setting; only `index_wall` changes.
    pub build_threads: usize,
    /// Storage backend every disk of the run is created with. The
    /// default [`StoreBackend::Mem`] preserves the historical in-memory
    /// behaviour; [`StoreBackend::File`] writes one page image per disk
    /// (tagged by role) under the given directory and reads it back with
    /// positional I/O. Results are byte-identical either way.
    pub backend: StoreBackend,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            page_size: 2048,
            pbsm_partitions: 10,
            pool_pages: 1024,
            build_threads: 1,
            backend: StoreBackend::Mem,
        }
    }
}

impl RunConfig {
    /// Creates one disk of this run. `tag` names the page image when the
    /// backend is a file directory (`<dir>/<tag>.pages`); the mem backend
    /// ignores it.
    pub fn disk(&self, tag: &str) -> Disk {
        Disk::for_backend(&self.backend, self.page_size, tag).expect("run disk backend")
    }
}

/// Comparable measurements of one (approach, workload) execution.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Approach label.
    pub approach: String,
    /// Workload label.
    pub workload: String,
    /// |A| and |B|.
    pub n_a: usize,
    /// Number of elements in dataset B.
    pub n_b: usize,
    /// Wall-clock time of the indexing phase.
    pub index_wall: Duration,
    /// Simulated device time of the indexing phase.
    pub index_sim_io: Duration,
    /// Wall-clock (CPU) time of the join phase.
    pub join_wall: Duration,
    /// Simulated device time of the join phase.
    pub join_sim_io: Duration,
    /// Pages read from disk during the join.
    pub pages_read: u64,
    /// Page-cache hits during the join (TRANSFORMERS paths only; the
    /// baselines keep their caches' counters out of `Metrics`).
    pub pool_hits: u64,
    /// Random reads during the join.
    pub rand_reads: u64,
    /// Sequential reads during the join.
    pub seq_reads: u64,
    /// Intersection tests (element-level; for TRANSFORMERS this includes
    /// metadata comparisons, matching the paper's Fig. 11 convention).
    pub tests: u64,
    /// Result pairs (deduplicated).
    pub results: u64,
    /// Transformations performed (TRANSFORMERS only).
    pub transformations: u64,
    /// Exploration overhead wall time (TRANSFORMERS only; Fig. 14).
    pub overhead_wall: Duration,
    /// Time inside the in-memory join kernel (TRANSFORMERS only). With
    /// `overhead_wall` it splits `join_wall`; the remainder is page reads,
    /// element copies and the final merge. Both are summed over workers, so
    /// on the parallel path they can exceed `join_wall`.
    pub mem_join_wall: Duration,
    /// Build workers used for the indexing phase (1 = sequential build;
    /// approaches without an STR build phase ignore the setting).
    pub build_threads: usize,
    /// Pivot windows the join executed, the node-level pivots joined
    /// through them, the follower pages they swept into slots, the most
    /// slots one window had live, the pages pivots read out of sweep order
    /// because every slot was live, and the gap pages read through
    /// (TRANSFORMERS only; see [`transformers::TransformersStats`]).
    pub windows: u64,
    /// See [`windows`](Self::windows).
    pub window_pivots: u64,
    /// See [`windows`](Self::windows).
    pub swept_pages: u64,
    /// See [`windows`](Self::windows).
    pub window_pages_max: u64,
    /// See [`windows`](Self::windows).
    pub forced_pages: u64,
    /// See [`windows`](Self::windows).
    pub read_through_pages: u64,
}

impl Metrics {
    /// Total indexing time: simulated I/O + CPU.
    pub fn index_time(&self) -> Duration {
        self.index_wall + self.index_sim_io
    }

    /// Total join time: simulated I/O + CPU. This is the quantity the
    /// figure reproductions plot as "join time".
    pub fn join_time(&self) -> Duration {
        self.join_wall + self.join_sim_io
    }

    /// Records the join phase's I/O, read off the two disks.
    fn take_join_io(&mut self, a: &Disk, b: &Disk) {
        let io = merged(a, b);
        self.join_sim_io = io.sim_io_time();
        self.pages_read = io.reads();
        self.rand_reads = io.rand_reads;
        self.seq_reads = io.seq_reads;
    }
}

fn merged(a: &Disk, b: &Disk) -> IoStatsSnapshot {
    a.stats().merged(&b.stats())
}

/// Runs `approach` on the pair `(a, b)` and returns metrics (and the result
/// pairs, oriented `(id in A, id in B)`, for correctness checks).
pub fn run_approach(
    approach: &Approach,
    workload: &str,
    a: &[SpatialElement],
    b: &[SpatialElement],
    cfg: &RunConfig,
) -> (Metrics, Vec<ResultPair>) {
    let mut m = Metrics {
        approach: approach.label(),
        workload: workload.to_string(),
        n_a: a.len(),
        n_b: b.len(),
        build_threads: cfg.build_threads.max(1),
        ..Metrics::default()
    };
    let pairs = match approach {
        Approach::Transformers(join_cfg) => {
            run_transformers(&mut m, a, b, cfg, join_cfg, transformers_join)
        }
        Approach::TransformersParallel(join_cfg, threads) => {
            run_transformers(&mut m, a, b, cfg, join_cfg, |ia, da, ib, db, jc| {
                tfm_exec::parallel_join(ia, da, ib, db, jc, *threads)
            })
        }
        Approach::Pbsm => run_pbsm(&mut m, a, b, cfg),
        Approach::Rtree => run_rtree(&mut m, a, b, cfg),
        Approach::Gipsy => run_gipsy(&mut m, a, b, cfg),
    };
    (m, pairs)
}

/// Shared harness for the sequential and parallel TRANSFORMERS runners:
/// builds the indexes, resets I/O accounting, runs `join`, and extracts
/// the common metrics.
fn run_transformers(
    m: &mut Metrics,
    a: &[SpatialElement],
    b: &[SpatialElement],
    cfg: &RunConfig,
    join_cfg: &JoinConfig,
    join: impl FnOnce(
        &TransformersIndex,
        &Disk,
        &TransformersIndex,
        &Disk,
        &JoinConfig,
    ) -> transformers::JoinOutcome,
) -> Vec<ResultPair> {
    let disk_a = cfg.disk("tfm_a");
    let disk_b = cfg.disk("tfm_b");
    let idx_cfg = IndexConfig::default().with_build_threads(cfg.build_threads);

    let t = Instant::now();
    let idx_a = TransformersIndex::build(&disk_a, a.to_vec(), &idx_cfg);
    let idx_b = TransformersIndex::build(&disk_b, b.to_vec(), &idx_cfg);
    m.index_wall = t.elapsed();
    m.index_sim_io = merged(&disk_a, &disk_b).sim_io_time();

    disk_a.reset_stats();
    disk_b.reset_stats();
    let join_cfg = JoinConfig {
        pool_pages: cfg.pool_pages,
        ..*join_cfg
    };
    let t = Instant::now();
    let out = join(&idx_a, &disk_a, &idx_b, &disk_b, &join_cfg);
    m.join_wall = t.elapsed();
    m.take_join_io(&disk_a, &disk_b);
    m.tests = out.stats.total_tests();
    m.results = out.stats.unique_results;
    m.transformations = out.stats.transformations();
    m.overhead_wall = out.stats.exploration_overhead;
    m.mem_join_wall = out.stats.join_cpu;
    m.pool_hits = out.stats.pool_hits;
    m.windows = out.stats.windows;
    m.window_pivots = out.stats.window_pivots;
    m.swept_pages = out.stats.swept_pages;
    m.window_pages_max = out.stats.window_pages_max;
    m.forced_pages = out.stats.forced_pages;
    m.read_through_pages = out.stats.read_through_pages;
    out.pairs
}

fn run_pbsm(
    m: &mut Metrics,
    a: &[SpatialElement],
    b: &[SpatialElement],
    cfg: &RunConfig,
) -> Vec<ResultPair> {
    let disk_a = cfg.disk("pbsm_a");
    let disk_b = cfg.disk("pbsm_b");
    let pbsm_cfg = PbsmConfig::with_partitions(cfg.pbsm_partitions);
    // Both sides are partitioned over their common extent.
    let extent = Aabb::union_all(a.iter().chain(b.iter()).map(|e| e.mbb));
    let mut stats = PbsmStats::default();

    let t = Instant::now();
    let parts = (!extent.is_empty()).then(|| {
        (
            pbsm_partition(&disk_a, a, extent, &pbsm_cfg, &mut stats),
            pbsm_partition(&disk_b, b, extent, &pbsm_cfg, &mut stats),
        )
    });
    m.index_wall = t.elapsed();
    m.index_sim_io = merged(&disk_a, &disk_b).sim_io_time();

    disk_a.reset_stats();
    disk_b.reset_stats();
    let pairs = match &parts {
        Some((pa, pb)) => {
            // The cells' pages are read through the shared cache (one
            // reader, so one shard).
            let cache_a = SharedPageCache::with_shards(&disk_a, cfg.pool_pages, 1);
            let cache_b = SharedPageCache::with_shards(&disk_b, cfg.pool_pages, 1);
            let mut handle_a = CacheHandle::shared(&cache_a);
            let mut handle_b = CacheHandle::shared(&cache_b);
            let t = Instant::now();
            let pairs = pbsm_join(&mut handle_a, pa, &mut handle_b, pb, &mut stats);
            m.join_wall = t.elapsed();
            pairs
        }
        None => Vec::new(),
    };
    m.take_join_io(&disk_a, &disk_b);
    m.tests = stats.mem.element_tests;
    m.results = pairs.len() as u64;
    pairs
}

fn run_rtree(
    m: &mut Metrics,
    a: &[SpatialElement],
    b: &[SpatialElement],
    cfg: &RunConfig,
) -> Vec<ResultPair> {
    let disk_a = cfg.disk("rtree_a");
    let disk_b = cfg.disk("rtree_b");

    let pipeline = IndexBuildPipeline::new(cfg.build_threads);
    let t = Instant::now();
    let tree_a = RTree::bulk_load_pipelined(&disk_a, a.to_vec(), &pipeline);
    let tree_b = RTree::bulk_load_pipelined(&disk_b, b.to_vec(), &pipeline);
    m.index_wall = t.elapsed();
    m.index_sim_io = merged(&disk_a, &disk_b).sim_io_time();

    disk_a.reset_stats();
    disk_b.reset_stats();
    let mut stats = RtreeStats::default();
    let t = Instant::now();
    // The synchronized traversal reads node pages through the shared
    // cache (pin guards, recycled frames).
    let cache_a = SharedPageCache::with_shards(&disk_a, cfg.pool_pages, 1);
    let cache_b = SharedPageCache::with_shards(&disk_b, cfg.pool_pages, 1);
    let mut handle_a = CacheHandle::shared(&cache_a);
    let mut handle_b = CacheHandle::shared(&cache_b);
    let pairs = sync_join(&mut handle_a, &tree_a, &mut handle_b, &tree_b, &mut stats);
    m.join_wall = t.elapsed();
    m.take_join_io(&disk_a, &disk_b);
    m.tests = stats.mem.element_tests;
    m.results = pairs.len() as u64;
    pairs
}

fn run_gipsy(
    m: &mut Metrics,
    a: &[SpatialElement],
    b: &[SpatialElement],
    cfg: &RunConfig,
) -> Vec<ResultPair> {
    // GIPSY requires the sparse dataset to be known in advance (paper
    // §VIII-A: "the performance of GIPSY relies on the ability to
    // predetermine which dataset is dense and which one is sparse").
    let a_is_sparse = a.len() <= b.len();
    let (sparse, dense) = if a_is_sparse { (a, b) } else { (b, a) };

    let sparse_disk = cfg.disk("gipsy_sparse");
    let dense_disk = cfg.disk("gipsy_dense");

    let pipeline = IndexBuildPipeline::new(cfg.build_threads);
    let idx_cfg = IndexConfig::default().with_build_threads(cfg.build_threads);
    let t = Instant::now();
    let sparse_file = SparseFile::write_with(&sparse_disk, sparse.to_vec(), &pipeline);
    let dense_idx = TransformersIndex::build(&dense_disk, dense.to_vec(), &idx_cfg);
    m.index_wall = t.elapsed();
    m.index_sim_io = merged(&sparse_disk, &dense_disk).sim_io_time();

    sparse_disk.reset_stats();
    dense_disk.reset_stats();
    let mut stats = GipsyStats::default();
    let t = Instant::now();
    // The dense side's element and B+-tree pages are read through the
    // shared cache (one reader, so one shard).
    let dense_cache = SharedPageCache::with_shards(&dense_disk, cfg.pool_pages, 1);
    let pairs = gipsy_join(
        &sparse_disk,
        &sparse_file,
        &mut CacheHandle::shared(&dense_cache),
        &dense_idx,
        &mut stats,
    );
    m.join_wall = t.elapsed();
    m.take_join_io(&sparse_disk, &dense_disk);
    m.tests = stats.mem.element_tests;
    m.results = pairs.len() as u64;
    if a_is_sparse {
        pairs
    } else {
        pairs.into_iter().map(|(s, d)| (d, s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_datagen::{generate, DatasetSpec};
    use tfm_memjoin::canonicalize;

    #[test]
    fn all_approaches_agree_on_results() {
        let a = generate(&DatasetSpec {
            max_side: 8.0,
            ..DatasetSpec::uniform(1500, 200)
        });
        let b = generate(&DatasetSpec {
            max_side: 8.0,
            ..DatasetSpec::uniform(4000, 201)
        });
        let cfg = RunConfig::default();
        let approaches = [
            Approach::transformers(),
            Approach::no_tr(),
            Approach::Pbsm,
            Approach::Rtree,
            Approach::Gipsy,
        ];
        let mut reference: Option<Vec<ResultPair>> = None;
        for ap in &approaches {
            let (metrics, pairs) = run_approach(ap, "t", &a, &b, &cfg);
            let pairs = canonicalize(pairs);
            assert_eq!(metrics.results as usize, pairs.len(), "{}", ap.label());
            match &reference {
                None => reference = Some(pairs),
                Some(r) => assert_eq!(&pairs, r, "approach {} diverges", ap.label()),
            }
        }
        assert!(!reference.unwrap().is_empty());
    }

    #[test]
    fn build_threads_change_nothing_but_wall_time() {
        let a = generate(&DatasetSpec {
            max_side: 8.0,
            ..DatasetSpec::uniform(1200, 204)
        });
        let b = generate(&DatasetSpec {
            max_side: 8.0,
            ..DatasetSpec::uniform(1200, 205)
        });
        for ap in [Approach::transformers(), Approach::Rtree, Approach::Gipsy] {
            let (m1, p1) = run_approach(&ap, "t", &a, &b, &RunConfig::default());
            let cfg4 = RunConfig {
                build_threads: 4,
                ..RunConfig::default()
            };
            let (m4, p4) = run_approach(&ap, "t", &a, &b, &cfg4);
            assert_eq!(canonicalize(p1), canonicalize(p4), "{}", ap.label());
            // The build is deterministic, so every join-phase metric (and
            // the simulated build I/O) must match exactly.
            assert_eq!(m1.index_sim_io, m4.index_sim_io, "{}", ap.label());
            assert_eq!(m1.pages_read, m4.pages_read, "{}", ap.label());
            assert_eq!(m1.tests, m4.tests, "{}", ap.label());
            assert_eq!(m4.build_threads, 4);
        }
    }

    #[test]
    fn metrics_phases_are_populated() {
        let a = generate(&DatasetSpec {
            max_side: 6.0,
            ..DatasetSpec::uniform(2000, 202)
        });
        let b = generate(&DatasetSpec {
            max_side: 6.0,
            ..DatasetSpec::uniform(2000, 203)
        });
        let (m, _) = run_approach(
            &Approach::transformers(),
            "t",
            &a,
            &b,
            &RunConfig::default(),
        );
        assert!(m.index_sim_io > Duration::ZERO);
        assert!(m.join_sim_io > Duration::ZERO);
        assert!(m.pages_read > 0);
        assert!(m.join_time() >= m.join_sim_io);
    }
}
