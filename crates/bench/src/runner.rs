//! Uniform approach runner: executes one join approach on one workload and
//! returns comparable [`Metrics`].
//!
//! All approaches run on fresh in-memory simulated disks with the same page
//! size and buffer-pool capacity; indexing and join phases are measured
//! separately (the paper reports them separately, §VII-C2: "the results of
//! the join, excluding the index building time").

use std::time::{Duration, Instant};
use tfm_geom::{Aabb, SpatialElement};
use tfm_gipsy::{gipsy_join, GipsyConfig, GipsyStats, SparseFile};
use tfm_memjoin::ResultPair;
use tfm_pbsm::{pbsm_join, pbsm_partition, PbsmConfig, PbsmStats};
use tfm_rtree::{sync_join, RTree, RtreeStats};
use tfm_storage::{BufferPool, CacheHandle, Disk, IoStatsSnapshot, SharedPageCache, StoreBackend};
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
    /// SSSJ (related-work baseline, §VIII-B): strips + plane sweep.
    Sssj,
    /// S3 size-separation join (related-work baseline, §VIII-B).
    S3,
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

    /// Parallel TRANSFORMERS with `threads` fully *independent* workers
    /// (no role transformations, no cross-worker pruning) — the PR 1
    /// execution mode, kept as the ablation baseline for the adaptive
    /// parallel path.
    pub fn parallel_independent(threads: usize) -> Self {
        Approach::TransformersParallel(
            JoinConfig::default()
                .without_worker_transforms()
                .without_cross_worker_pruning(),
            threads,
        )
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
            Approach::TransformersParallel(cfg, threads) => {
                let mut label = format!("TFM-PARx{threads}");
                if !cfg.worker_role_transforms {
                    label.push_str("-noTR");
                }
                if !cfg.cross_worker_pruning {
                    label.push_str("-noPrune");
                }
                label
            }
            Approach::Pbsm => "PBSM".into(),
            Approach::Rtree => "R-TREE".into(),
            Approach::Gipsy => "GIPSY".into(),
            Approach::Sssj => "SSSJ".into(),
            Approach::S3 => "S3".into(),
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
    /// Device read-latency injection scale, forwarded to
    /// [`Disk::with_read_latency`]: each page read sleeps
    /// `model cost × scale` on the reading thread. `0.0` (the default)
    /// disables injection; non-zero values make cold-cache wall time
    /// track the [`tfm_storage::DiskModel`] so queue-depth experiments
    /// behave like a real device even on one core.
    pub read_latency: f64,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            page_size: 2048,
            pbsm_partitions: 10,
            pool_pages: 1024,
            build_threads: 1,
            backend: StoreBackend::Mem,
            read_latency: 0.0,
        }
    }
}

impl RunConfig {
    /// Creates one disk of this run. `tag` names the page image when the
    /// backend is a file directory (`<dir>/<tag>.pages`); the mem backend
    /// ignores it.
    pub fn disk(&self, tag: &str) -> Disk {
        Disk::for_backend(&self.backend, self.page_size, tag)
            .expect("run disk backend")
            .with_read_latency(self.read_latency)
    }
}

/// Comparable measurements of one (approach, workload) execution.
#[derive(Debug, Clone)]
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
    /// other baselines keep their private pools out of `Metrics`).
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
    /// Pages the join prefetch pipeline landed into cache frames
    /// (parallel TRANSFORMERS with readahead on; 0 otherwise).
    pub prefetch_issued: u64,
    /// Demand reads served by a frame the prefetch pipeline had staged.
    pub prefetch_hits: u64,
    /// Prefetched frames never touched by a demand read — a mis-sized
    /// readahead window shows up here.
    pub prefetch_unused: u64,
    /// Pivot windows the join executed, the node-level pivots joined
    /// through them, the distinct follower pages they swept and the gap
    /// pages read through (TRANSFORMERS only; see
    /// [`transformers::TransformersStats`]).
    pub windows: u64,
    /// See [`windows`](Self::windows).
    pub window_pivots: u64,
    /// See [`windows`](Self::windows).
    pub swept_pages: u64,
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

    fn base(
        approach: &Approach,
        workload: &str,
        a: &[SpatialElement],
        b: &[SpatialElement],
    ) -> Self {
        Self {
            approach: approach.label(),
            workload: workload.to_string(),
            n_a: a.len(),
            n_b: b.len(),
            index_wall: Duration::ZERO,
            index_sim_io: Duration::ZERO,
            join_wall: Duration::ZERO,
            join_sim_io: Duration::ZERO,
            pages_read: 0,
            pool_hits: 0,
            rand_reads: 0,
            seq_reads: 0,
            tests: 0,
            results: 0,
            transformations: 0,
            overhead_wall: Duration::ZERO,
            mem_join_wall: Duration::ZERO,
            build_threads: 1,
            prefetch_issued: 0,
            prefetch_hits: 0,
            prefetch_unused: 0,
            windows: 0,
            window_pivots: 0,
            swept_pages: 0,
            read_through_pages: 0,
        }
    }

    fn take_prefetch_counters(&mut self, report: &tfm_exec::ExecReport) {
        self.prefetch_issued = report.prefetch_issued;
        self.prefetch_hits = report.prefetch_hits;
        self.prefetch_unused = report.prefetch_unused;
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
    let mut m = Metrics::base(approach, workload, a, b);
    m.build_threads = cfg.build_threads.max(1);
    match approach {
        Approach::Transformers(join_cfg) => run_transformers(&mut m, a, b, cfg, join_cfg),
        Approach::TransformersParallel(join_cfg, threads) => {
            run_transformers_parallel(&mut m, a, b, cfg, join_cfg, *threads)
        }
        Approach::Pbsm => run_pbsm(&mut m, a, b, cfg),
        Approach::Rtree => run_rtree(&mut m, a, b, cfg),
        Approach::Gipsy => run_gipsy(&mut m, a, b, cfg),
        Approach::Sssj => run_sssj(&mut m, a, b, cfg),
        Approach::S3 => run_s3(&mut m, a, b, cfg),
    }
}

/// [`run_approach`] with the steal-skew feedback loop closed through a
/// persistent [`crate::SkewStore`] sidecar.
///
/// For the parallel TRANSFORMERS approach: a skew fraction recorded for
/// `workload` by a previous run is injected as
/// [`JoinConfig::recorded_steal_skew`] (unless the caller already set
/// one), and the run's observed [`tfm_exec::ExecReport::steal_fraction`]
/// is written back — so the *second* run of any workload sizes its chunks
/// adaptively with no manual `with_recorded_skew` plumbing. The store is
/// updated in memory; the caller decides when to
/// [`save`](crate::SkewStore::save). Other approaches pass through
/// unchanged.
pub fn run_approach_with_skew(
    approach: &Approach,
    workload: &str,
    a: &[SpatialElement],
    b: &[SpatialElement],
    cfg: &RunConfig,
    store: &mut crate::SkewStore,
) -> (Metrics, Vec<ResultPair>) {
    let Approach::TransformersParallel(join_cfg, threads) = approach else {
        return run_approach(approach, workload, a, b, cfg);
    };
    let mut join_cfg = *join_cfg;
    if join_cfg.recorded_steal_skew.is_none() {
        if let Some(skew) = store.recorded(workload) {
            join_cfg = join_cfg.with_recorded_skew(skew);
        }
    }
    let mut m = Metrics::base(approach, workload, a, b);
    m.build_threads = cfg.build_threads.max(1);
    let threads = *threads;
    let mut report = None;
    let (m, pairs) = run_transformers_with(
        &mut m,
        a,
        b,
        cfg,
        &join_cfg,
        |idx_a, disk_a, idx_b, disk_b, jc| {
            let (out, rep) =
                tfm_exec::parallel_join_with_report(idx_a, disk_a, idx_b, disk_b, jc, threads);
            report = Some(rep);
            out
        },
    );
    let mut m = m;
    if let Some(report) = report {
        store.record(workload, report.steal_fraction());
        m.take_prefetch_counters(&report);
    }
    (m, pairs)
}

fn run_sssj(
    m: &mut Metrics,
    a: &[SpatialElement],
    b: &[SpatialElement],
    cfg: &RunConfig,
) -> (Metrics, Vec<ResultPair>) {
    use tfm_sweep::sssj::{sssj_join, sssj_partition, SssjStats};
    let disk_a = cfg.disk("sssj_a");
    let disk_b = cfg.disk("sssj_b");
    let extent = Aabb::union_all(a.iter().chain(b.iter()).map(|e| e.mbb));
    let mut stats = SssjStats::default();
    // Strip count comparable to PBSM's tiling along one dimension squared.
    let strips = cfg.pbsm_partitions.pow(2);

    let t = Instant::now();
    let parts = if extent.is_empty() {
        None
    } else {
        Some((
            sssj_partition(&disk_a, a, extent, strips, &mut stats),
            sssj_partition(&disk_b, b, extent, strips, &mut stats),
        ))
    };
    m.index_wall = t.elapsed();
    m.index_sim_io = merged(&disk_a, &disk_b).sim_io_time();

    disk_a.reset_stats();
    disk_b.reset_stats();
    let pairs = if let Some((pa, pb)) = &parts {
        let mut pool_a = BufferPool::new(&disk_a, cfg.pool_pages);
        let mut pool_b = BufferPool::new(&disk_b, cfg.pool_pages);
        let t = Instant::now();
        let pairs = sssj_join(&mut pool_a, pa, &mut pool_b, pb, &mut stats);
        m.join_wall = t.elapsed();
        pairs
    } else {
        Vec::new()
    };
    let io = merged(&disk_a, &disk_b);
    m.join_sim_io = io.sim_io_time();
    m.pages_read = io.reads();
    m.rand_reads = io.rand_reads;
    m.seq_reads = io.seq_reads;
    m.tests = stats.mem.element_tests;
    m.results = pairs.len() as u64;
    (m.clone(), pairs)
}

fn run_s3(
    m: &mut Metrics,
    a: &[SpatialElement],
    b: &[SpatialElement],
    cfg: &RunConfig,
) -> (Metrics, Vec<ResultPair>) {
    use tfm_sweep::s3::{s3_join, s3_partition, S3Stats};
    let disk_a = cfg.disk("s3_a");
    let disk_b = cfg.disk("s3_b");
    let extent = Aabb::union_all(a.iter().chain(b.iter()).map(|e| e.mbb));
    let mut stats = S3Stats::default();
    // Depth such that the deepest level's cells hold roughly a page of
    // elements: 2^(levels-1) cells per dimension ≈ cbrt(pages of the larger
    // dataset).
    let cap = ((cfg.page_size - 2) / 56).max(1);
    let pages = (a.len().max(b.len()) as f64 / cap as f64).max(1.0);
    let levels = ((pages.cbrt().log2().round() as i64) + 1).clamp(2, 8) as u8;

    let t = Instant::now();
    let parts = if extent.is_empty() {
        None
    } else {
        Some((
            s3_partition(&disk_a, a, extent, levels, &mut stats),
            s3_partition(&disk_b, b, extent, levels, &mut stats),
        ))
    };
    m.index_wall = t.elapsed();
    m.index_sim_io = merged(&disk_a, &disk_b).sim_io_time();

    disk_a.reset_stats();
    disk_b.reset_stats();
    let pairs = if let Some((pa, pb)) = &parts {
        let mut pool_a = BufferPool::new(&disk_a, cfg.pool_pages);
        let mut pool_b = BufferPool::new(&disk_b, cfg.pool_pages);
        let t = Instant::now();
        let pairs = s3_join(&mut pool_a, pa, &mut pool_b, pb, &mut stats);
        m.join_wall = t.elapsed();
        pairs
    } else {
        Vec::new()
    };
    let io = merged(&disk_a, &disk_b);
    m.join_sim_io = io.sim_io_time();
    m.pages_read = io.reads();
    m.rand_reads = io.rand_reads;
    m.seq_reads = io.seq_reads;
    m.tests = stats.mem.element_tests;
    m.results = pairs.len() as u64;
    (m.clone(), pairs)
}

fn run_transformers(
    m: &mut Metrics,
    a: &[SpatialElement],
    b: &[SpatialElement],
    cfg: &RunConfig,
    join_cfg: &JoinConfig,
) -> (Metrics, Vec<ResultPair>) {
    run_transformers_with(m, a, b, cfg, join_cfg, transformers_join)
}

fn run_transformers_parallel(
    m: &mut Metrics,
    a: &[SpatialElement],
    b: &[SpatialElement],
    cfg: &RunConfig,
    join_cfg: &JoinConfig,
    threads: usize,
) -> (Metrics, Vec<ResultPair>) {
    let mut report = None;
    let (mut m, pairs) = run_transformers_with(
        m,
        a,
        b,
        cfg,
        join_cfg,
        |idx_a, disk_a, idx_b, disk_b, jc| {
            let (out, rep) =
                tfm_exec::parallel_join_with_report(idx_a, disk_a, idx_b, disk_b, jc, threads);
            report = Some(rep);
            out
        },
    );
    if let Some(rep) = report {
        m.take_prefetch_counters(&rep);
    }
    (m, pairs)
}

/// Shared harness for the sequential and parallel TRANSFORMERS runners:
/// builds the indexes, resets I/O accounting, runs `join`, and extracts
/// the common metrics.
fn run_transformers_with(
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
) -> (Metrics, Vec<ResultPair>) {
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
    let io = merged(&disk_a, &disk_b);
    m.join_sim_io = io.sim_io_time();
    m.pages_read = io.reads();
    m.rand_reads = io.rand_reads;
    m.seq_reads = io.seq_reads;
    m.tests = out.stats.total_tests();
    m.results = out.stats.unique_results;
    m.transformations = out.stats.transformations();
    m.overhead_wall = out.stats.exploration_overhead;
    m.mem_join_wall = out.stats.join_cpu;
    m.pool_hits = out.stats.pool_hits;
    m.windows = out.stats.windows;
    m.window_pivots = out.stats.window_pivots;
    m.swept_pages = out.stats.swept_pages;
    m.read_through_pages = out.stats.read_through_pages;
    (m.clone(), out.pairs)
}

fn run_pbsm(
    m: &mut Metrics,
    a: &[SpatialElement],
    b: &[SpatialElement],
    cfg: &RunConfig,
) -> (Metrics, Vec<ResultPair>) {
    let disk_a = cfg.disk("pbsm_a");
    let disk_b = cfg.disk("pbsm_b");
    let pbsm_cfg = PbsmConfig::with_partitions(cfg.pbsm_partitions);
    let extent = Aabb::union_all(a.iter().chain(b.iter()).map(|e| e.mbb));
    let mut stats = PbsmStats::default();

    let t = Instant::now();
    let (part_a, part_b) = if extent.is_empty() {
        (None, None)
    } else {
        (
            Some(pbsm_partition(&disk_a, a, extent, &pbsm_cfg, &mut stats)),
            Some(pbsm_partition(&disk_b, b, extent, &pbsm_cfg, &mut stats)),
        )
    };
    m.index_wall = t.elapsed();
    m.index_sim_io = merged(&disk_a, &disk_b).sim_io_time();

    disk_a.reset_stats();
    disk_b.reset_stats();
    let pairs = if let (Some(pa), Some(pb)) = (&part_a, &part_b) {
        let mut pool_a = BufferPool::new(&disk_a, cfg.pool_pages);
        let mut pool_b = BufferPool::new(&disk_b, cfg.pool_pages);
        let t = Instant::now();
        let pairs = pbsm_join(&mut pool_a, pa, &mut pool_b, pb, &mut stats);
        m.join_wall = t.elapsed();
        pairs
    } else {
        Vec::new()
    };
    let io = merged(&disk_a, &disk_b);
    m.join_sim_io = io.sim_io_time();
    m.pages_read = io.reads();
    m.rand_reads = io.rand_reads;
    m.seq_reads = io.seq_reads;
    m.tests = stats.mem.element_tests;
    m.results = pairs.len() as u64;
    (m.clone(), pairs)
}

fn run_rtree(
    m: &mut Metrics,
    a: &[SpatialElement],
    b: &[SpatialElement],
    cfg: &RunConfig,
) -> (Metrics, Vec<ResultPair>) {
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
    let io = merged(&disk_a, &disk_b);
    m.join_sim_io = io.sim_io_time();
    m.pages_read = io.reads();
    m.rand_reads = io.rand_reads;
    m.seq_reads = io.seq_reads;
    m.tests = stats.mem.element_tests;
    m.results = pairs.len() as u64;
    (m.clone(), pairs)
}

fn run_gipsy(
    m: &mut Metrics,
    a: &[SpatialElement],
    b: &[SpatialElement],
    cfg: &RunConfig,
) -> (Metrics, Vec<ResultPair>) {
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
    let gipsy_cfg = GipsyConfig {
        pool_pages: cfg.pool_pages,
        ..GipsyConfig::default()
    };
    let mut stats = GipsyStats::default();
    let t = Instant::now();
    let pairs = gipsy_join(
        &sparse_disk,
        &sparse_file,
        &dense_disk,
        &dense_idx,
        &gipsy_cfg,
        &mut stats,
    );
    m.join_wall = t.elapsed();
    let io = merged(&sparse_disk, &dense_disk);
    m.join_sim_io = io.sim_io_time();
    m.pages_read = io.reads();
    m.rand_reads = io.rand_reads;
    m.seq_reads = io.seq_reads;
    m.tests = stats.mem.element_tests;
    m.results = pairs.len() as u64;
    let oriented: Vec<ResultPair> = if a_is_sparse {
        pairs
    } else {
        pairs.into_iter().map(|(s, d)| (d, s)).collect()
    };
    (m.clone(), oriented)
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
            Approach::Sssj,
            Approach::S3,
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
    fn skew_feedback_loop_records_and_reuses() {
        let a = generate(&DatasetSpec {
            max_side: 8.0,
            ..DatasetSpec::uniform(1500, 206)
        });
        let b = generate(&DatasetSpec {
            max_side: 8.0,
            ..DatasetSpec::uniform(1500, 207)
        });
        let cfg = RunConfig::default();
        let path =
            std::env::temp_dir().join(format!("tfm_runner_skew_{}.json", std::process::id()));
        std::fs::remove_file(&path).ok();
        let ap = Approach::parallel(2);
        // First run: no recorded signal yet; afterwards one is stored.
        let mut store = crate::SkewStore::load(&path);
        assert_eq!(store.recorded("wl"), None);
        let (_, p1) = run_approach_with_skew(&ap, "wl", &a, &b, &cfg, &mut store);
        let recorded = store.recorded("wl").expect("first run must record skew");
        assert!((0.0..=1.0).contains(&recorded));
        store.save().unwrap();
        // Second run: the persisted signal is injected automatically and
        // cannot change the result set.
        let mut store = crate::SkewStore::load(&path);
        assert_eq!(store.recorded("wl"), Some(recorded));
        let (_, p2) = run_approach_with_skew(&ap, "wl", &a, &b, &cfg, &mut store);
        assert_eq!(canonicalize(p1), canonicalize(p2));
        // Non-parallel approaches pass through untouched.
        let before = store.clone();
        let _ = run_approach_with_skew(&Approach::Pbsm, "wl2", &a, &b, &cfg, &mut store);
        assert_eq!(store, before);
        std::fs::remove_file(&path).ok();
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
