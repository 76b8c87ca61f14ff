//! **tfm-exec** — parallel execution subsystem for the TRANSFORMERS
//! spatial join.
//!
//! The join has one driver: a [`transformers::JoinRun`] sets it up (loads
//! both descriptor tables, creates the coverage board) and finishes it
//! (merge, dedup, I/O accounting, publishing), and every owner of guide
//! pivots joins them with a [`transformers::PivotEngine`] of its own. The
//! sequential [`transformers::transformers_join`] is one owner of every
//! pivot. Per-pivot work — the adaptive walk, the crawl, page reads and the
//! in-memory grid hash join — only *reads* the two indexes and disks
//! (`Disk` reads take `&self` and its I/O counters are atomics), so the
//! join is embarrassingly parallel across pivots. This crate adds only what
//! is parallel:
//!
//! * a [`pool::ChunkScheduler`] — partitions the pivot list into
//!   contiguous chunks, statically sharded across workers, with work
//!   stealing for the stragglers that non-uniform data inevitably
//!   produces. The chunk size is derived from the pivot count and worker
//!   count ([`chunk_size`]);
//! * a scoped **worker pool** ([`pool::StagePool`], from the `tfm-pool`
//!   crate) where each worker owns one engine of the join, reading through
//!   the two per-dataset [`SharedPageCache`]s, sharded for the worker
//!   count, that every worker shares;
//! * **prune announcements** at chunk boundaries and the [`ExecReport`].
//!   The workers' raw pairs and statistics go to
//!   [`transformers::JoinRun::finish`] in worker order, so
//!   [`parallel_join`] returns the sequential join's pair vector whatever
//!   the thread count or scheduling.
//!
//! The engines are the join's only readers: [`parallel_join_with_report`]
//! spawns exactly `threads` workers, and every page the join reads is read
//! by one of their engines.
//!
//! # The transformation / pruning protocol
//!
//! The paper's defining mechanism is *adaptivity*: role transformations
//! (§VI-A) and to-do-list pruning (§V). Both are stateful; the engines of
//! one join share them through the join's lock-free coverage board — two
//! atomic bitmaps (*claimed*, *covered*) per dataset plus a remaining
//! counter — and three rules:
//!
//! 1. **Claim before switching.** A worker may role-switch onto follower
//!    node `nf` only after winning its claim bit (a test-and-set).
//!    Exactly one worker processes each switched pivot; a losing worker
//!    simply continues its own pivot at node granularity, the same
//!    fallback as for an already-checked node.
//! 2. **Cover on completion.** A node's *covered* bit is set (`Release`)
//!    only after its pivot processing has emitted every one of its pairs
//!    into the owning worker's buffer. Candidate filters read the bit with
//!    `Acquire` and prune covered nodes' units. Two in-flight pivots can
//!    therefore never prune each other — that would need each node's
//!    completion to happen-before the other's filter point, a cycle — so
//!    no pair is ever lost, and the merged, normalized result stays
//!    byte-identical to the sequential join's at any thread count.
//! 3. **Announce exhaustion at chunk boundaries.** When the follower
//!    dataset is fully covered ([`transformers::JoinRun::follower_exhausted`]),
//!    every pivot still queued would have its whole candidate list pruned.
//!    The worker that observes this cancels the scheduler
//!    ([`pool::ChunkScheduler::cancel`]): it stops dealing chunks (own
//!    deques and steals alike) and the discarded tail is reported as
//!    [`ExecReport::chunks_pruned`]. Within a
//!    chunk, engines make the same check per pivot
//!    ([`transformers::TransformersStats::pruned_pivots`]).
//!
//! Every parallel join runs both: there is no independent-worker mode.
//! The one transformation ablation is the paper's "No TR"
//! ([`transformers::JoinConfig::without_transformations`]), which the
//! parallel join honours like the sequential one.
//!
//! # Example
//!
//! ```
//! use tfm_storage::Disk;
//! use tfm_datagen::{generate, DatasetSpec};
//! use transformers::{transformers_join, IndexConfig, JoinConfig, TransformersIndex};
//! use tfm_exec::parallel_join;
//!
//! let disk_a = Disk::default_in_memory();
//! let disk_b = Disk::default_in_memory();
//! let idx_a = TransformersIndex::build(&disk_a, generate(&DatasetSpec::uniform(2_000, 1)), &IndexConfig::default());
//! let idx_b = TransformersIndex::build(&disk_b, generate(&DatasetSpec::uniform(2_000, 2)), &IndexConfig::default());
//!
//! let cfg = JoinConfig::default();
//! let par = parallel_join(&idx_a, &disk_a, &idx_b, &disk_b, &cfg, 4);
//! let seq = transformers_join(&idx_a, &disk_a, &idx_b, &disk_b, &cfg);
//! assert_eq!(par.pairs, seq.pairs);
//! ```

#![warn(missing_docs)]

mod scheduler;

pub use scheduler::{chunk_size, MAX_CHUNK_PIVOTS};

/// The generic scoped worker pool this subsystem runs on, re-exported from
/// the `tfm-pool` crate — spawn-scoped workers, chunked deque+steal
/// scheduling and deterministic merges, usable by any stage (the index
/// build pipeline in `transformers` fans out over the same primitives).
pub mod pool {
    pub use tfm_pool::{Chunk, ChunkScheduler, StagePool};
}

use tfm_pool::{ChunkScheduler, StagePool};
use tfm_storage::{Disk, SharedPageCache};
use transformers::{JoinConfig, JoinOutcome, JoinRun, TransformersIndex, TransformersStats};

/// What one worker hands back: raw pairs, its stats, pivots processed.
type WorkerResult = (Vec<(u64, u64)>, TransformersStats, u64);

/// How a parallel join was executed: scheduling and balance counters.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// Workers actually spawned.
    pub threads: usize,
    /// Guide pivots processed (sum over workers).
    pub pivots: u64,
    /// Chunks the pivot list was split into.
    pub chunks: usize,
    /// Pivots per chunk the scheduler aimed for.
    pub chunk_size: usize,
    /// Chunks a worker obtained by stealing from another worker's share.
    pub steals: u64,
    /// Pivots processed by each worker — the skew between entries shows
    /// how unbalanced the workload was before stealing evened it out.
    pub worker_pivots: Vec<u64>,
    /// Chunks discarded by a prune announcement: the follower dataset was
    /// fully covered before these chunks were dispatched, so their pivots
    /// could not have contributed any new pair.
    pub chunks_pruned: u64,
}

impl ExecReport {
    /// Fraction of dispatched chunks that were obtained by stealing, in
    /// `0.0..=1.0` — how skewed the pivot costs were for the static
    /// shares.
    pub fn steal_fraction(&self) -> f64 {
        let dispatched = self.chunks as u64 - self.chunks_pruned;
        if dispatched == 0 {
            return 0.0;
        }
        (self.steals as f64 / dispatched as f64).clamp(0.0, 1.0)
    }
}

/// Runs the TRANSFORMERS join in parallel over `threads` workers and also
/// returns the execution report.
///
/// See [`parallel_join`] for the semantics; this variant additionally
/// exposes scheduling counters for benchmarks and the CLI.
pub fn parallel_join_with_report(
    idx_a: &TransformersIndex,
    disk_a: &Disk,
    idx_b: &TransformersIndex,
    disk_b: &Disk,
    cfg: &JoinConfig,
    threads: usize,
) -> (JoinOutcome, ExecReport) {
    let threads = threads.max(1);
    let obs = tfm_obs::global();
    let wall_start = std::time::Instant::now();
    // Resolved once outside the worker loop; `None` while metrics are off,
    // so the per-chunk cost is a single branch.
    let chunk_hist = obs
        .is_enabled()
        .then(|| obs.histogram(tfm_obs::names::JOIN_CHUNK_NANOS));

    // The per-dataset page caches shared by every worker: one
    // lock-striped cache per disk, sized to the configured pool budget and
    // sharded for the worker count.
    let shards = SharedPageCache::shards_for_threads(threads);
    let cache_a = SharedPageCache::with_shards(disk_a, cfg.pool_pages, shards);
    let cache_b = SharedPageCache::with_shards(disk_b, cfg.pool_pages, shards);
    // The configured first guide supplies the scheduler's pivot list; role
    // transformations let individual workers locally re-pivot on the other
    // side without changing that list.
    let join = JoinRun::new(idx_a, &cache_a, idx_b, &cache_b, cfg);

    let pivots = join.pivots();
    let pivots_per_chunk = chunk_size(pivots, threads);
    let scheduler = ChunkScheduler::new(pivots, threads, pivots_per_chunk);

    // One worker per thread, results collected in worker order — the
    // merge depends on that order.
    let worker_pool = StagePool::new(threads);
    let worker_results: Vec<WorkerResult> = worker_pool.scoped_run(|w| {
        let mut engine = join.engine();
        let mut processed = 0;
        while let Some(chunk) = scheduler.next(w) {
            let _span = chunk_hist.as_ref().map(|h| h.span());
            engine.process_pivots(chunk.start..chunk.end);
            processed += chunk.len() as u64;
            // Chunk boundary: if the follower dataset is now fully
            // covered, announce it so queued chunks are discarded
            // instead of dispatched.
            if join.follower_exhausted() {
                scheduler.cancel();
            }
        }
        let (raw, stats) = engine.finish();
        (raw, stats, processed)
    });

    let worker_pivots: Vec<u64> = worker_results.iter().map(|r| r.2).collect();
    let report = ExecReport {
        threads,
        pivots: worker_pivots.iter().sum(),
        chunks: scheduler.chunk_count(),
        chunk_size: pivots_per_chunk,
        steals: scheduler.steals(),
        worker_pivots,
        chunks_pruned: scheduler.chunks_cancelled(),
    };
    let outcome = join.finish(
        worker_results
            .into_iter()
            .map(|(raw, stats, _)| (raw, stats)),
    );

    // Run-end telemetry past what the join's finish publishes: the
    // scheduler's balance counters.
    if obs.is_enabled() {
        use tfm_obs::names;
        obs.counter(names::JOIN_PIVOTS).add(report.pivots);
        obs.counter(names::JOIN_CHUNKS).add(report.chunks as u64);
        obs.counter(names::JOIN_CHUNKS_PRUNED)
            .add(report.chunks_pruned);
        obs.counter(names::JOIN_STEALS).add(report.steals);
        obs.histogram(names::JOIN_WALL_NANOS)
            .record(wall_start.elapsed().as_nanos() as u64);
    }
    (outcome, report)
}

/// Runs the TRANSFORMERS join between two indexed datasets in parallel
/// over `threads` workers (`threads == 0` is treated as 1).
///
/// Guide pivots are sharded across a scoped worker pool; each worker
/// explores and joins its pivots with an engine of its own
/// ([`JoinRun::engine`]), performing
/// role and layout transformations within its chunks and pruning
/// candidates through the shared coverage board (see the module docs for
/// the protocol). The per-worker results are merged deterministically: the
/// returned pair vector is **byte-identical** to
/// [`transformers::transformers_join`]'s for any thread count, and the
/// statistics are exact sums of the per-worker counters.
pub fn parallel_join(
    idx_a: &TransformersIndex,
    disk_a: &Disk,
    idx_b: &TransformersIndex,
    disk_b: &Disk,
    cfg: &JoinConfig,
    threads: usize,
) -> JoinOutcome {
    parallel_join_with_report(idx_a, disk_a, idx_b, disk_b, cfg, threads).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_datagen::{generate, DatasetSpec, Distribution};
    use tfm_storage::Disk;
    use transformers::{transformers_join, GuidePick, IndexConfig};

    fn build(spec: &DatasetSpec) -> (Disk, TransformersIndex) {
        let disk = Disk::default_in_memory();
        let idx = TransformersIndex::build(&disk, generate(spec), &IndexConfig::default());
        (disk, idx)
    }

    fn uniform(count: usize, seed: u64) -> DatasetSpec {
        DatasetSpec {
            max_side: 8.0,
            ..DatasetSpec::uniform(count, seed)
        }
    }

    #[test]
    fn matches_sequential_on_uniform_data() {
        let (disk_a, idx_a) = build(&uniform(3_000, 1));
        let (disk_b, idx_b) = build(&uniform(3_000, 2));
        let cfg = JoinConfig::default();
        let seq = transformers_join(&idx_a, &disk_a, &idx_b, &disk_b, &cfg);
        for threads in [1, 2, 4] {
            let par = parallel_join(&idx_a, &disk_a, &idx_b, &disk_b, &cfg, threads);
            assert_eq!(par.pairs, seq.pairs, "threads = {threads}");
            assert_eq!(par.stats.unique_results, seq.stats.unique_results);
        }
    }

    #[test]
    fn matches_sequential_on_skewed_data() {
        let (disk_a, idx_a) = build(&DatasetSpec {
            max_side: 5.0,
            ..DatasetSpec::with_distribution(
                6_000,
                Distribution::MassiveCluster {
                    clusters: 4,
                    elements_per_cluster: 1_500,
                },
                3,
            )
        });
        let (disk_b, idx_b) = build(&uniform(6_000, 4));
        let cfg = JoinConfig::default();
        let seq = transformers_join(&idx_a, &disk_a, &idx_b, &disk_b, &cfg);
        let par = parallel_join(&idx_a, &disk_a, &idx_b, &disk_b, &cfg, 4);
        assert_eq!(par.pairs, seq.pairs);
    }

    #[test]
    fn guide_pick_b_still_orients_pairs_as_a_b() {
        let (disk_a, idx_a) = build(&uniform(1_500, 5));
        let (disk_b, idx_b) = build(&uniform(4_000, 6));
        let cfg = JoinConfig {
            first_guide: GuidePick::B,
            ..JoinConfig::default()
        };
        let seq = transformers_join(&idx_a, &disk_a, &idx_b, &disk_b, &cfg);
        let par = parallel_join(&idx_a, &disk_a, &idx_b, &disk_b, &cfg, 3);
        assert_eq!(par.pairs, seq.pairs);
    }

    #[test]
    fn report_accounts_for_every_pivot() {
        let (disk_a, idx_a) = build(&uniform(5_000, 7));
        let (disk_b, idx_b) = build(&uniform(5_000, 8));
        let cfg = JoinConfig::default();
        let (out, report) = parallel_join_with_report(&idx_a, &disk_a, &idx_b, &disk_b, &cfg, 4);
        assert!(out.stats.unique_results > 0);
        assert_eq!(report.threads, 4);
        assert_eq!(report.worker_pivots.len(), 4);
        assert_eq!(report.pivots as usize, idx_a.nodes().len());
        assert_eq!(report.worker_pivots.iter().sum::<u64>(), report.pivots);
    }

    #[test]
    fn empty_inputs_are_handled() {
        let (disk_a, idx_a) = build(&uniform(1_000, 9));
        let disk_e = Disk::default_in_memory();
        let idx_e = TransformersIndex::build(&disk_e, Vec::new(), &IndexConfig::default());
        let cfg = JoinConfig::default();
        assert!(parallel_join(&idx_a, &disk_a, &idx_e, &disk_e, &cfg, 4)
            .pairs
            .is_empty());
        assert!(parallel_join(&idx_e, &disk_e, &idx_a, &disk_a, &cfg, 4)
            .pairs
            .is_empty());
        assert!(parallel_join(&idx_e, &disk_e, &idx_e, &disk_e, &cfg, 2)
            .pairs
            .is_empty());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let (disk_a, idx_a) = build(&uniform(800, 10));
        let (disk_b, idx_b) = build(&uniform(800, 11));
        let cfg = JoinConfig::default();
        let seq = transformers_join(&idx_a, &disk_a, &idx_b, &disk_b, &cfg);
        let par = parallel_join(&idx_a, &disk_a, &idx_b, &disk_b, &cfg, 0);
        assert_eq!(par.pairs, seq.pairs);
    }

    #[test]
    fn stats_cover_the_work_done() {
        let (disk_a, idx_a) = build(&uniform(4_000, 12));
        let (disk_b, idx_b) = build(&uniform(4_000, 13));
        let cfg = JoinConfig::default();
        let par = parallel_join(&idx_a, &disk_a, &idx_b, &disk_b, &cfg, 4);
        assert_eq!(par.stats.unique_results, par.pairs.len() as u64);
        assert!(par.stats.pages_read > 0);
        assert!(par.stats.metadata_pages_read > 0);
        assert!(par.stats.walk_steps > 0);
        assert!(par.stats.cross_worker_pruned_units <= par.stats.pruned_units);
    }

    /// Clustered-vs-uniform fixture with node capacities small enough that
    /// the density contrast is *local* and role transformations fire.
    fn adaptive_fixture() -> (Disk, TransformersIndex, Disk, TransformersIndex) {
        let idx_cfg = IndexConfig {
            unit_capacity: Some(32),
            node_capacity: Some(8),
            ..IndexConfig::default()
        };
        let a = generate(&DatasetSpec {
            max_side: 4.0,
            ..DatasetSpec::with_distribution(10_000, Distribution::massive_cluster_for(10_000), 14)
        });
        let b = generate(&DatasetSpec {
            max_side: 4.0,
            ..DatasetSpec::uniform(10_000, 15)
        });
        let disk_a = Disk::default_in_memory();
        let disk_b = Disk::default_in_memory();
        let idx_a = TransformersIndex::build(&disk_a, a, &idx_cfg);
        let idx_b = TransformersIndex::build(&disk_b, b, &idx_cfg);
        (disk_a, idx_a, disk_b, idx_b)
    }

    #[test]
    fn adaptive_workers_match_sequential_and_transform() {
        let (disk_a, idx_a, disk_b, idx_b) = adaptive_fixture();
        let cfg = JoinConfig::default();
        let seq = transformers_join(&idx_a, &disk_a, &idx_b, &disk_b, &cfg);
        for threads in [1, 2, 4] {
            let par = parallel_join(&idx_a, &disk_a, &idx_b, &disk_b, &cfg, threads);
            assert_eq!(par.pairs, seq.pairs, "threads = {threads}");
            assert!(
                par.stats.role_transformations > 0,
                "threads = {threads}: local contrast should switch roles: {:?}",
                par.stats
            );
            assert!(
                par.stats.pruned_units > 0,
                "threads = {threads}: switched pivots should feed the to-do filter: {:?}",
                par.stats
            );
        }
    }

    #[test]
    fn steal_fraction_handles_degenerate_reports() {
        let empty = ExecReport {
            threads: 2,
            pivots: 0,
            chunks: 0,
            chunk_size: 1,
            steals: 0,
            worker_pivots: vec![0, 0],
            chunks_pruned: 0,
        };
        assert_eq!(empty.steal_fraction(), 0.0);
        let all_pruned = ExecReport {
            chunks: 8,
            chunks_pruned: 8,
            ..empty
        };
        assert_eq!(all_pruned.steal_fraction(), 0.0);
    }

    /// The engines are the join's only readers: what the two disks read
    /// over a parallel join is exactly what the engines count — the
    /// descriptor tables' metadata pages, the cache misses and the pages
    /// read through to keep a run sequential.
    #[test]
    fn every_disk_read_is_an_engines() {
        let (disk_a, idx_a, disk_b, idx_b) = adaptive_fixture();
        let cfg = JoinConfig::default();
        for threads in [1, 2, 4] {
            let before = disk_a.stats().merged(&disk_b.stats());
            let (par, report) =
                parallel_join_with_report(&idx_a, &disk_a, &idx_b, &disk_b, &cfg, threads);
            let disk_reads = disk_a
                .stats()
                .merged(&disk_b.stats())
                .delta_since(&before)
                .reads();
            let s = &par.stats;
            assert_eq!(report.worker_pivots.len(), threads, "one entry per worker");
            assert_eq!(
                disk_reads,
                s.metadata_pages_read + s.pages_read + s.read_through_pages,
                "threads = {threads}: a disk read no engine counted: {s:?}"
            );
        }
    }
}
