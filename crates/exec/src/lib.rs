//! **tfm-exec** — parallel execution subsystem for the TRANSFORMERS
//! spatial join.
//!
//! The sequential [`transformers::transformers_join`] visits the guide's
//! space-node pivots one after the other. Per-pivot work — the adaptive
//! walk, the crawl, page reads and the in-memory grid hash join — only
//! *reads* the two indexes and disks, so once storage access is
//! thread-safe (which `tfm-storage` guarantees: `Disk` reads take `&self`
//! and its I/O counters are atomics), the join is embarrassingly parallel
//! across pivots. This crate supplies the machinery:
//!
//! * [`JoinScheduler`] — partitions the pivot list into contiguous chunks,
//!   statically sharded across workers, with work stealing for the
//!   stragglers that non-uniform data inevitably produces. Its **initial
//!   chunk size is adaptive**: derived from the pivot count and worker
//!   count, and tilted by a recorded skew signal
//!   ([`ExecReport::steal_fraction`] of a previous run, fed back through
//!   [`transformers::JoinConfig::recorded_steal_skew`]) — skewed
//!   workloads get finer chunks for stealing, balanced ones longer
//!   locality runs;
//! * a scoped **worker pool** ([`pool::StagePool`]) where each worker owns
//!   a private [`transformers::PivotEngine`] (its own cache handles,
//!   exploration scratch, cost model and statistics accumulator) over the
//!   two per-dataset [`SharedPageCache`]s every worker reads through;
//! * a **deterministic merge**: raw per-worker pair buffers are
//!   concatenated in worker order, sorted and deduplicated — exactly the
//!   normalization the sequential join applies — so [`parallel_join`]
//!   returns a byte-identical pair vector regardless of thread count or
//!   scheduling; per-worker [`transformers::TransformersStats`] are summed
//!   in worker order.
//!
//! # The extracted pool
//!
//! PR 3 extracted the scheduling and worker-spawn machinery out of this
//! crate's join path into the dependency-free `tfm-pool` crate, re-exported
//! here as [`pool`]: [`pool::ChunkScheduler`] (deques + stealing +
//! cancellation) and [`pool::StagePool`] (scoped workers, deterministic
//! map/merge combinators, parallel stable sort). The join path now runs on
//! those primitives, and so does everything *below* this crate in the
//! dependency graph — `tfm_partition::str_partition_pooled` and the core's
//! `IndexBuildPipeline` fan the index-build stages (STR passes,
//! element-page encoding, connectivity) over the same pool, which is what
//! makes `tfm build --build-threads N` possible. This crate keeps the
//! join-specific policy: pivot vocabulary, prune announcements, adaptive
//! chunk sizing.
//!
//! # The transformation / pruning protocol
//!
//! The paper's defining mechanism is *adaptivity*: role transformations
//! (§VI-A) and to-do-list pruning (§V). Both are stateful, which is why
//! PR 1 disabled them to keep workers independent. They are recovered
//! with one lock-free structure, [`transformers::SharedTodo`] — two
//! atomic bitmaps (*claimed*, *covered*) per dataset plus a remaining
//! counter — and three rules:
//!
//! 1. **Claim before switching.** A worker may role-switch onto follower
//!    node `nf` only after winning `try_claim(nf)` (a test-and-set bit).
//!    Exactly one worker processes each switched pivot; a losing worker
//!    simply continues its own pivot at node granularity, the same
//!    fallback the sequential join uses for an already-checked node.
//! 2. **Cover on completion.** A node's *covered* bit is set (`Release`)
//!    only after its pivot processing has emitted every one of its pairs
//!    into the owning worker's buffer. Candidate filters read the bit with
//!    `Acquire` and prune covered nodes' units. Two in-flight pivots can
//!    therefore never prune each other — that would need each node's
//!    completion to happen-before the other's filter point, a cycle — so
//!    no pair is ever lost, and the merged, normalized result stays
//!    byte-identical to the sequential join's at any thread count.
//! 3. **Announce exhaustion at chunk boundaries.** When the follower
//!    dataset's remaining counter hits zero, every pivot still queued
//!    would have its whole candidate list pruned. The worker that observes
//!    this calls [`JoinScheduler::announce_prune`]; the scheduler stops
//!    dealing chunks (own deques and steals alike) and reports the
//!    discarded tail as [`ExecReport::chunks_pruned`]. Within a chunk,
//!    engines make the same check per pivot
//!    ([`transformers::TransformersStats::pruned_pivots`]).
//!
//! Both features default **on** (see
//! [`transformers::JoinConfig::worker_role_transforms`] and
//! [`transformers::JoinConfig::cross_worker_pruning`]) and can be disabled
//! independently — `tfm join --no-transform` / `--no-prune` — which
//! restores PR 1's fully independent workers as an escape hatch and an
//! ablation baseline. Every combination returns the identical pair set.
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

pub use scheduler::{Chunk, JoinScheduler};

/// The generic scoped worker pool this subsystem runs on, re-exported from
/// the `tfm-pool` crate — spawn-scoped workers, chunked deque+steal
/// scheduling and deterministic merges, usable by any stage (the index
/// build pipeline in `transformers` fans out over the same primitives).
pub mod pool {
    pub use tfm_pool::{Chunk, ChunkScheduler, StagePool};
}

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tfm_pool::StagePool;
use tfm_storage::{Disk, PageId, PrefetchQueue, SharedPageCache};
use transformers::{
    EngineSide, GuidePick, JoinConfig, JoinOutcome, PivotEngine, SharedTodo, SpaceNode,
    SpaceUnitDesc, TransformersIndex, TransformersStats,
};

/// What one worker hands back: raw pairs, its stats, pivots processed.
type WorkerResult = (Vec<(u64, u64)>, TransformersStats, u64);

/// Bit 63 of a queued page id routes the prefetch to the follower-side
/// cache; the two datasets have independent page-id spaces, so the queue
/// needs an in-band side tag. Page ids are dense allocations far below
/// 2⁶³, so the bit is otherwise unused. The tag never leaves this crate:
/// it is applied when a schedule is pushed and stripped by the I/O thread
/// before the cache sees the id.
const FOLLOWER_PAGE_TAG: u64 = 1 << 63;

/// Derives the unit-page schedule of one claimed pivot chunk and pushes
/// it into the prefetch window (lossy: pages beyond the window are simply
/// demand-paged).
///
/// The schedule mirrors what the engine will read: every unit page of the
/// chunk's guide pivots, plus — the same page-MBB prefilter the serve
/// engines use for their readahead
/// ([`TransformersIndex::for_each_candidate_unit`]) — the follower unit
/// pages whose node and unit page MBBs intersect a pivot's page MBB. The
/// follower crawl can reach a little past a pivot's MBB (reach-epsilon
/// expansion), so the prefilter under-approximates slightly; missed pages
/// demand-page while over-fetching would show up as
/// `io.prefetch.join.unused`.
///
/// Stealing needs no special case: chunks are claimed whole from the
/// scheduler, so whichever worker ends up with a stolen chunk pushes the
/// chunk's full schedule before touching its pivots.
fn push_chunk_schedule(
    queue: &PrefetchQueue,
    chunk: &Chunk,
    guide_nodes: &[SpaceNode],
    guide_units: &[SpaceUnitDesc],
    follower: &TransformersIndex,
) {
    let follower_units = follower.units();
    let mut pages: Vec<u64> = Vec::new();
    for pivot in &guide_nodes[chunk.start..chunk.end] {
        for u in pivot.unit_range() {
            pages.push(guide_units[u].page.0);
        }
        follower.for_each_candidate_unit(&pivot.page_mbb, |u| {
            pages.push(follower_units[u].page.0 | FOLLOWER_PAGE_TAG);
        });
    }
    // Ascending-id sweep per side (the tag bit sorts the follower run
    // after the guide run), duplicates collapsed within the chunk;
    // cross-chunk duplicates are cheap no-ops in `prefetch_page`.
    pages.sort_unstable();
    pages.dedup();
    for p in pages {
        queue.try_push(PageId(p));
    }
}

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
    /// Pages the join prefetch pipeline read and landed into the caches
    /// (both sides; 0 when prefetch is off).
    pub prefetch_issued: u64,
    /// Demand reads served by a join-prefetched frame.
    pub prefetch_hits: u64,
    /// Join-prefetched pages never consumed by a demand read — evicted
    /// early or still untouched at the end of the run. The readahead
    /// window is mis-sized when this grows against `prefetch_issued`.
    pub prefetch_unused: u64,
}

impl ExecReport {
    /// Fraction of dispatched chunks that were obtained by stealing, in
    /// `0.0..=1.0` — the recorded pivot-cost skew signal. Feed it back
    /// through [`transformers::JoinConfig::with_recorded_skew`] to let the
    /// next run of the same workload pick its chunk size adaptively
    /// (high steal fraction → finer chunks).
    pub fn steal_fraction(&self) -> f64 {
        let dispatched = self.chunks as u64 - self.chunks_pruned;
        if dispatched == 0 {
            return 0.0;
        }
        (self.steals as f64 / dispatched as f64).clamp(0.0, 1.0)
    }

    /// Fraction of issued join prefetches never consumed by a demand read,
    /// in `0.0..=1.0` (0 when prefetch was off) — the readahead-window
    /// sizing signal `bench_tune` gates on.
    pub fn unused_prefetch_fraction(&self) -> f64 {
        if self.prefetch_issued == 0 {
            return 0.0;
        }
        (self.prefetch_unused as f64 / self.prefetch_issued as f64).clamp(0.0, 1.0)
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
    let io_before = disk_a.stats().merged(&disk_b.stats());
    let mut stats = TransformersStats::default();

    // Load each side's descriptor tables once (charged as metadata I/O,
    // exactly like the sequential join's startup); workers share them
    // read-only through `Arc`s.
    let (nodes_a, units_a, meta_a) = idx_a.load_metadata(disk_a);
    let (nodes_b, units_b, meta_b) = idx_b.load_metadata(disk_b);
    stats.metadata_pages_read += meta_a + meta_b;
    let (nodes_a, units_a) = (Arc::new(nodes_a), Arc::new(units_a));
    let (nodes_b, units_b) = (Arc::new(nodes_b), Arc::new(units_b));

    // The configured first guide supplies the scheduler's pivot list; role
    // transformations (when enabled) let individual workers locally
    // re-pivot on the other side without changing that list.
    let guide_is_a = matches!(cfg.first_guide, GuidePick::A);
    // The per-dataset page caches shared by every worker: one
    // lock-striped cache per disk, sized to the configured pool budget and
    // sharded for the worker count.
    let shards = SharedPageCache::shards_for_threads(threads);
    let cache_a = SharedPageCache::with_shards(disk_a, cfg.pool_pages, shards);
    let cache_b = SharedPageCache::with_shards(disk_b, cfg.pool_pages, shards);
    // One routing decision so index, cache and tables can never pair up
    // inconsistently: (idx, cache, nodes, units) per role.
    let (guide_side, follower_side) = if guide_is_a {
        (
            (idx_a, &cache_a, &nodes_a, &units_a),
            (idx_b, &cache_b, &nodes_b, &units_b),
        )
    } else {
        (
            (idx_b, &cache_b, &nodes_b, &units_b),
            (idx_a, &cache_a, &nodes_a, &units_a),
        )
    };

    // The join-path prefetch pipeline (the serve tier's readahead, pointed
    // at the exec scheduler's foreknowledge): each claimed chunk's
    // unit-page schedule is pushed into a bounded lossy window, and
    // `io_depth` dedicated I/O threads pop ids and land the pages into
    // recycled cache frames ahead of the workers. Purely a warm-up —
    // results are byte-identical with prefetch on or off.
    let prefetch_on = cfg.readahead > 0;
    let io_threads = if prefetch_on { cfg.io_depth.max(1) } else { 0 };
    let prefetch_queue = prefetch_on.then(|| PrefetchQueue::new(cfg.readahead));
    // The last join worker to finish closes the window so the I/O threads
    // drain and exit.
    let join_workers_left = AtomicUsize::new(threads);

    let pivots = guide_side.2.len();
    // Adaptive initial chunk size: pivot count, worker count, and — when a
    // previous run recorded one — the observed steal fraction as the skew
    // signal (see the scheduler docs for the policy).
    let chunk_size = JoinScheduler::adaptive_chunk_size(pivots, threads, cfg.recorded_steal_skew);
    let scheduler = JoinScheduler::new(pivots, threads, chunk_size);

    // The shared coverage board recovering the sequential path's
    // to-do-list pruning across workers (see the module docs for the
    // protocol). `--no-prune` drops it: workers then prune only locally.
    let todo = cfg
        .cross_worker_pruning
        .then(|| Arc::new(SharedTodo::new(nodes_a.len(), nodes_b.len())));

    // The scoped worker pool (extracted to `tfm-pool` in PR 3): one worker
    // per thread plus the dedicated prefetch I/O threads, results collected
    // in worker order — the deterministic merge below depends on that
    // order (I/O threads return empty results and are skipped there).
    let worker_pool = StagePool::new(threads + io_threads);
    let worker_results: Vec<WorkerResult> = worker_pool.scoped_run(|w| {
        if w >= threads {
            // Prefetch I/O thread: pop tagged page ids and land the pages
            // into the side's cache until the window closes.
            let pq = prefetch_queue
                .as_ref()
                .expect("I/O threads only spawn with prefetch on");
            let mut scratch = Vec::new();
            while let Some(id) = pq.pop() {
                let side = if id.0 & FOLLOWER_PAGE_TAG != 0 {
                    follower_side
                } else {
                    guide_side
                };
                side.1
                    .prefetch_page(PageId(id.0 & !FOLLOWER_PAGE_TAG), &mut scratch);
            }
            return (Vec::new(), TransformersStats::default(), 0);
        }
        let [guide, follower] =
            [guide_side, follower_side].map(|(idx, cache, nodes, units)| EngineSide {
                idx,
                cache,
                nodes: Arc::clone(nodes),
                units: Arc::clone(units),
            });
        let mut engine = PivotEngine::new(guide, follower, guide_is_a, cfg)
            .with_role_transforms(cfg.worker_role_transforms);
        if let Some(todo) = &todo {
            engine = engine.with_shared_todo(Arc::clone(todo));
        }
        while let Some(chunk) = scheduler.next(w) {
            // The chunk is claimed (own share or stolen) — push its page
            // schedule before processing so the I/O threads warm the cache
            // while the engine works through the pivots.
            if let Some(pq) = &prefetch_queue {
                push_chunk_schedule(pq, &chunk, guide_side.2, guide_side.3, follower_side.0);
            }
            let _span = chunk_hist.as_ref().map(|h| h.span());
            engine.process_pivots(chunk.start..chunk.end);
            // Chunk boundary: if the follower dataset is now fully
            // covered, announce it so queued chunks are discarded
            // instead of dispatched.
            if let Some(todo) = &todo {
                if todo.remaining(!guide_is_a) == 0 {
                    scheduler.announce_prune();
                }
            }
        }
        let processed = engine.pivots_processed();
        let (raw, stats) = engine.finish();
        // Last join worker out closes the prefetch window; the I/O
        // threads drain whatever is still queued, then exit.
        if let Some(pq) = &prefetch_queue {
            if join_workers_left.fetch_sub(1, Ordering::AcqRel) == 1 {
                pq.close();
            }
        }
        (raw, stats, processed)
    });

    // Deterministic merge: concatenate in worker order, then normalize the
    // pair set the same way the sequential join does (sort + dedup). The
    // final vector is byte-identical to the sequential result.
    let mut raw = Vec::new();
    let mut worker_pivots = Vec::with_capacity(threads);
    // `.take(threads)` drops the trailing I/O-thread entries (always
    // empty) so the per-worker balance vector only covers join workers.
    for (pairs, worker_stats, processed) in worker_results.into_iter().take(threads) {
        raw.extend(pairs);
        stats.merge(&worker_stats);
        worker_pivots.push(processed);
    }
    raw.sort_unstable();
    raw.dedup();
    stats.unique_results = raw.len() as u64;

    let io_after = disk_a.stats().merged(&disk_b.stats());
    stats.sim_io = io_after.delta_since(&io_before).sim_io_time();

    // Prefetch accounting: sweep still-resident-but-untouched prefetched
    // frames into the unused counter first (the eviction path alone
    // undercounts at end of run), then sum both sides.
    let (mut pf_issued, mut pf_hits, mut pf_unused) = (0, 0, 0);
    for c in [&cache_a, &cache_b] {
        if prefetch_on {
            c.reclaim_unused_prefetch();
        }
        let s = c.stats();
        pf_issued += s.prefetch_issued;
        pf_hits += s.prefetch_hits;
        pf_unused += s.prefetch_unused;
    }

    let report = ExecReport {
        threads,
        pivots: worker_pivots.iter().sum(),
        chunks: scheduler.chunk_count(),
        chunk_size: scheduler.chunk_size(),
        steals: scheduler.steals(),
        worker_pivots,
        chunks_pruned: scheduler.chunks_pruned(),
        prefetch_issued: pf_issued,
        prefetch_hits: pf_hits,
        prefetch_unused: pf_unused,
    };

    // Run-end telemetry: publish the merged record once (workers never
    // publish individually), plus the scheduler's balance counters and the
    // shared caches' internals. `cache.hits`/`cache.misses` come from the
    // merged handle-local pool counters inside `stats`.
    if obs.is_enabled() {
        use tfm_obs::names;
        stats.publish(obs);
        io_after.delta_since(&io_before).publish(obs);
        obs.counter(names::JOIN_PIVOTS).add(report.pivots);
        obs.counter(names::JOIN_CHUNKS).add(report.chunks as u64);
        obs.counter(names::JOIN_CHUNKS_PRUNED)
            .add(report.chunks_pruned);
        obs.counter(names::JOIN_STEALS).add(report.steals);
        obs.histogram(names::JOIN_WALL_NANOS)
            .record(wall_start.elapsed().as_nanos() as u64);
        // The join-path slice of the prefetch pipeline, published under its
        // own prefix so a mis-sized `--readahead` shows up by itself (the
        // generic `io.prefetch.*` totals flow via `publish_shared_extras`).
        if prefetch_on {
            obs.counter(names::IO_PREFETCH_JOIN_ISSUED)
                .add(report.prefetch_issued);
            obs.counter(names::IO_PREFETCH_JOIN_HITS)
                .add(report.prefetch_hits);
            obs.counter(names::IO_PREFETCH_JOIN_UNUSED)
                .add(report.prefetch_unused);
        }
        cache_a.stats().publish_shared_extras(obs);
        cache_b.stats().publish_shared_extras(obs);
    }
    (JoinOutcome { pairs: raw, stats }, report)
}

/// Runs the TRANSFORMERS join between two indexed datasets in parallel
/// over `threads` workers (`threads == 0` is treated as 1).
///
/// Guide pivots are sharded across a scoped worker pool; each worker
/// explores and joins its pivots with a private [`PivotEngine`], performing
/// role and layout transformations within its chunks and pruning
/// candidates through the shared coverage board (see the module docs for
/// the protocol; [`JoinConfig::worker_role_transforms`] and
/// [`JoinConfig::cross_worker_pruning`] opt out). The per-worker results
/// are merged deterministically: the returned pair vector is
/// **byte-identical** to [`transformers::transformers_join`]'s for any
/// thread count and feature combination, and the statistics are exact sums
/// of the per-worker counters.
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
    use transformers::{transformers_join, IndexConfig};

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
    fn recorded_skew_changes_chunking_not_results() {
        let (disk_a, idx_a, disk_b, idx_b) = adaptive_fixture();
        let base = JoinConfig::default();
        let (seq_out, first_report) =
            parallel_join_with_report(&idx_a, &disk_a, &idx_b, &disk_b, &base, 4);
        let skew = first_report.steal_fraction();
        assert!((0.0..=1.0).contains(&skew), "skew out of range: {skew}");
        // Feed the recorded signal back, at both extremes for good measure.
        for forced in [skew, 0.0, 1.0] {
            let cfg = base.with_recorded_skew(forced);
            let (out, report) =
                parallel_join_with_report(&idx_a, &disk_a, &idx_b, &disk_b, &cfg, 4);
            assert_eq!(out.pairs, seq_out.pairs, "skew = {forced}");
            assert_eq!(
                report.chunk_size,
                JoinScheduler::adaptive_chunk_size(report.pivots as usize, 4, Some(forced))
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
            prefetch_issued: 0,
            prefetch_hits: 0,
            prefetch_unused: 0,
        };
        assert_eq!(empty.steal_fraction(), 0.0);
        assert_eq!(empty.unused_prefetch_fraction(), 0.0);
        let all_pruned = ExecReport {
            chunks: 8,
            chunks_pruned: 8,
            ..empty.clone()
        };
        assert_eq!(all_pruned.steal_fraction(), 0.0);
        let half_unused = ExecReport {
            prefetch_issued: 10,
            prefetch_hits: 5,
            prefetch_unused: 5,
            ..empty
        };
        assert_eq!(half_unused.unused_prefetch_fraction(), 0.5);
    }

    #[test]
    fn prefetch_pipeline_matches_sequential_and_issues_pages() {
        let (disk_a, idx_a, disk_b, idx_b) = adaptive_fixture();
        let seq = transformers_join(&idx_a, &disk_a, &idx_b, &disk_b, &JoinConfig::default());
        for threads in [1, 2, 4] {
            for io_depth in [1, 4] {
                let cfg = JoinConfig::default()
                    .with_readahead(256)
                    .with_io_depth(io_depth);
                let (par, report) =
                    parallel_join_with_report(&idx_a, &disk_a, &idx_b, &disk_b, &cfg, threads);
                assert_eq!(
                    par.pairs, seq.pairs,
                    "threads={threads} io_depth={io_depth}: prefetch changed results"
                );
                assert!(
                    report.prefetch_issued > 0,
                    "threads={threads} io_depth={io_depth}: no pages prefetched"
                );
                assert_eq!(
                    report.prefetch_issued,
                    report.prefetch_hits + report.prefetch_unused,
                    "threads={threads} io_depth={io_depth}: every issued prefetch \
                     must resolve to a hit or be reclaimed as unused"
                );
                assert_eq!(report.worker_pivots.len(), threads.max(1));
            }
        }
    }

    #[test]
    fn every_feature_combination_matches_sequential() {
        let (disk_a, idx_a, disk_b, idx_b) = adaptive_fixture();
        let seq = transformers_join(&idx_a, &disk_a, &idx_b, &disk_b, &JoinConfig::default());
        for transforms in [false, true] {
            for pruning in [false, true] {
                let cfg = JoinConfig {
                    worker_role_transforms: transforms,
                    cross_worker_pruning: pruning,
                    ..JoinConfig::default()
                };
                for threads in [2, 4] {
                    let (par, report) =
                        parallel_join_with_report(&idx_a, &disk_a, &idx_b, &disk_b, &cfg, threads);
                    assert_eq!(
                        par.pairs, seq.pairs,
                        "transforms={transforms} pruning={pruning} threads={threads}"
                    );
                    if !pruning {
                        assert_eq!(par.stats.cross_worker_pruned_units, 0);
                        assert_eq!(par.stats.pruned_pivots, 0);
                        assert_eq!(report.chunks_pruned, 0);
                    }
                    if !transforms {
                        assert_eq!(par.stats.role_transformations, 0);
                    }
                }
            }
        }
    }
}
