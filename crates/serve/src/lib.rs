//! **tfm-serve** — concurrent spatial query serving over shared indexes.
//!
//! The reproduction can build every index in parallel and run the
//! TRANSFORMERS join on an adaptive worker pool, but the paper's own
//! motivation (§I–II) is neuroscience analyses issuing *massive numbers of
//! spatial probes* against the built structures — a serving workload, not
//! a one-shot batch join. This crate turns those probes into a
//! first-class, measurable workload:
//!
//! * [`QueryEngine`] / [`QuerySession`] — one trait implemented by all
//!   three disk-resident structures (TRANSFORMERS, GIPSY-style
//!   element-granularity crawling, the R-tree baseline). An engine owns
//!   the one [`tfm_storage::SharedPageCache`] over its disk and is shared
//!   immutably across workers; sessions hold all per-worker mutable state
//!   (a counted handle onto that cache via the core's `UnitReader`, walk
//!   position, scratch), so readers share pages, not locks on state.
//! * [`RequestQueue`] — the bounded admission edge: blocking `push` is
//!   backpressure, non-blocking `try_push` is load shedding.
//! * **Locality-aware batching** — [`serve_trace`] splits the trace into
//!   arrival-order batches and (by default) sorts each batch by the
//!   Hilbert order of the queries' probe centers. Consecutive queries of
//!   a sorted batch probe neighbouring regions, so their candidate pages
//!   overlap or adjoin: page accesses that would be random seeks under
//!   arrival order become buffer hits or sequential reads — directly
//!   visible in the [`tfm_storage::IoStatsSnapshot`] sequential/random
//!   split ([`ServeStats::seq_read_fraction`]). See `DESIGN.md` for why
//!   this falls out of the disk model.
//! * [`ServeStats`] — per-run aggregates: latency percentiles, pool
//!   hits/misses, the I/O delta, per-worker query counts.
//! * **Sharded scatter-gather** — [`ShardedCluster`] partitions the
//!   dataset into self-contained index shards (each with its own disk,
//!   cache and worker pool); [`serve_sharded`] routes every probe onto
//!   only the shards its probe box intersects, scatter-gathers the
//!   shard-local partials and merges them deterministically. See
//!   [`serve_sharded`]'s docs and `ARCHITECTURE.md`.
//!
//! # Determinism
//!
//! Batch composition depends only on the trace and the batch size (never
//! on the worker count), each query's result is a pure function of the
//! query and the index, and results are reassembled by query position —
//! so the result vector is **byte-identical for any thread count and
//! either batching mode**. The `serve_equivalence` integration test holds
//! all engines to that against a sequential full-scan reference.
//!
//! # Example
//!
//! ```
//! use tfm_datagen::{generate, generate_trace, DatasetSpec, QueryTraceSpec};
//! use tfm_serve::{serve_trace, ServeConfig, TransformersEngine};
//! use tfm_storage::Disk;
//! use transformers::{IndexConfig, TransformersIndex};
//!
//! let disk = Disk::default_in_memory();
//! let idx = TransformersIndex::build(&disk, generate(&DatasetSpec::uniform(2_000, 1)), &IndexConfig::default());
//! let trace = generate_trace(&QueryTraceSpec::uniform(200, 2));
//!
//! let engine = TransformersEngine::new(&idx, &disk);
//! let out = serve_trace(&engine, &trace, &ServeConfig::default().with_threads(2));
//! assert_eq!(out.results.len(), trace.len());
//! assert_eq!(out.stats.queries, 200);
//! ```

#![warn(missing_docs)]

mod engines;
mod queue;
mod shard;
mod stats;

pub use engines::{
    GipsyEngine, MutableTransformersEngine, QueryEngine, QuerySession, RtreeEngine,
    TransformersEngine,
};
pub use queue::RequestQueue;
pub use shard::{
    plan_shards, serve_sharded, IndexShard, ShardEngineKind, ShardPartitioner, ShardRouter,
    ShardServeConfig, ShardSpec, ShardStats, ShardedCluster, ShardedServeOutcome,
    ShardedServeStats,
};
pub use stats::{AutoBatchSummary, LatencySummary, ServeStats};

use std::sync::Mutex;
use std::time::Instant;
use tfm_geom::{hilbert, Aabb, ElementId, SpatialQuery};
use tfm_pool::StagePool;
use tfm_storage::PrefetchQueue;

/// Configuration of one serve run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads executing queries (`0` is clamped to 1).
    pub threads: usize,
    /// Queries per batch — the unit of queueing and of locality sorting
    /// (`0` is clamped to 1).
    pub batch: usize,
    /// Sort each batch by the Hilbert order of probe centers before
    /// execution (on by default; turn off for the arrival-order ablation).
    pub hilbert_batching: bool,
    /// Page-cache budget in pages. [`serve_trace`] does not read it — an
    /// engine's cache is sized when the engine is built
    /// (`with_shared_cache`) — so this is the number the harnesses that
    /// *build* engines (`tfm-bench`, the CLI) size that cache with.
    pub pool_pages: usize,
    /// Bounded request-queue capacity in batches — the backpressure
    /// window between the feeding thread and the workers.
    pub queue_batches: usize,
    /// Collect one [`tfm_obs::QueryTrace`] per query in
    /// [`ServeOutcome::traces`] (queue-wait/service split and per-query
    /// pool-counter attribution). Off by default: trace records cost a
    /// per-query allocation the hot path otherwise never pays.
    pub collect_traces: bool,
    /// Dedicated I/O threads keeping prefetch reads in flight — the
    /// submission queue depth of the readahead pipeline. Only consulted
    /// when [`ServeConfig::readahead`] enables prefetching; `0` is
    /// clamped to 1.
    pub io_depth: usize,
    /// Readahead window in pages: the capacity of the bounded
    /// [`tfm_storage::PrefetchQueue`] the feeder fills with each batch's
    /// Hilbert-ordered candidate pages. `0` (the default) disables the
    /// prefetch pipeline entirely; it also stays off on engines that
    /// cannot compute a schedule ([`QueryEngine::supports_prefetch`]) and
    /// on the single-threaded inline path.
    pub readahead: usize,
    /// Self-tuning batch sizing: every few batches the feeder re-scores
    /// the run from the observed cache hit fraction and sequential-read
    /// fraction, growing the batch (up to 4× [`ServeConfig::batch`]) while
    /// locality is poor — a larger batch gives the Hilbert sort more scope
    /// — and decaying back toward the base once the signals recover. Batch
    /// *composition* stays arrival-order slices and results are keyed by
    /// query position, so results are byte-identical to any fixed batch
    /// size. Only the queued (multi-worker) path tunes; the inline path
    /// ignores this flag.
    pub auto_batch: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            batch: 64,
            hilbert_batching: true,
            pool_pages: tfm_storage::DEFAULT_POOL_PAGES,
            queue_batches: 4,
            collect_traces: false,
            io_depth: 1,
            readahead: 0,
            auto_batch: false,
        }
    }
}

impl ServeConfig {
    /// Builder: sets the worker count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builder: sets the batch size.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Builder: disables Hilbert-ordered batching (arrival order).
    pub fn without_hilbert_batching(mut self) -> Self {
        self.hilbert_batching = false;
        self
    }

    /// Builder: collect per-query [`tfm_obs::QueryTrace`] records.
    pub fn with_traces(mut self) -> Self {
        self.collect_traces = true;
        self
    }

    /// Builder: sets the prefetch queue depth (I/O threads in flight).
    pub fn with_io_depth(mut self, io_depth: usize) -> Self {
        self.io_depth = io_depth;
        self
    }

    /// Builder: sets the readahead window in pages (enables the prefetch
    /// pipeline when non-zero).
    pub fn with_readahead(mut self, readahead: usize) -> Self {
        self.readahead = readahead;
        self
    }

    /// Builder: enables the self-tuning batch loop (see
    /// [`ServeConfig::auto_batch`]).
    pub fn with_auto_batch(mut self) -> Self {
        self.auto_batch = true;
        self
    }
}

/// What a serve run returns: per-query results plus aggregate statistics.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// `results[i]` is the ascending id list answering `trace[i]`.
    /// Identical for any thread count and batching mode.
    pub results: Vec<Vec<ElementId>>,
    /// Aggregate counters of the run.
    pub stats: ServeStats,
    /// Per-query trace records, in trace-ID order; empty unless
    /// [`ServeConfig::collect_traces`] was set. The trace ID is the
    /// query's position in the input trace, assigned at queue admission,
    /// so IDs are stable across thread counts and batching modes.
    pub traces: Vec<tfm_obs::QueryTrace>,
}

/// Splits `trace` into arrival-order batches of `batch` queries and, when
/// `hilbert_batching` is on, sorts each batch by the Hilbert index of the
/// probe centers (over the trace's own center bounding box).
///
/// Batch *composition* is always arrival-order — only the order *within*
/// a batch changes — so results cannot depend on the batching mode.
pub(crate) fn plan_batches(
    trace: &[SpatialQuery],
    batch: usize,
    hilbert_batching: bool,
) -> Vec<Vec<usize>> {
    let universe = Aabb::union_all(trace.iter().map(|q| Aabb::from_point(q.center())));
    (0..trace.len())
        .step_by(batch)
        .map(|start| {
            let mut ids: Vec<usize> = (start..(start + batch).min(trace.len())).collect();
            if hilbert_batching {
                // Tie-break on the query position so the plan is total.
                ids.sort_by_key(|&i| (hilbert::index_of_point(&trace[i].center(), &universe), i));
            }
            ids
        })
        .collect()
}

/// What one worker hands back per executed query.
struct Executed {
    qid: usize,
    ids: Vec<ElementId>,
    service_nanos: u64,
    /// Admission-to-pop wait of the query's batch (0 on the inline path).
    queue_wait_nanos: u64,
    /// Handle-local pool-counter deltas around this query's probe.
    pool_hits: u64,
    pool_misses: u64,
}

/// One worker's complete contribution: executed queries plus its
/// session's pool counters.
struct WorkerOut {
    worker: usize,
    done: Vec<Executed>,
    hits: u64,
    misses: u64,
}

/// Replays `trace` against `engine` on `cfg.threads` workers and returns
/// every query's result plus aggregate [`ServeStats`].
///
/// Queries are queued batch-wise through a bounded [`RequestQueue`]
/// (worker 0 doubles as the feeder, then joins the drain), executed on
/// per-worker [`QuerySession`]s, and reassembled by query position. The
/// result vector is byte-identical for any `threads`/batching setting.
pub fn serve_trace<E: QueryEngine + ?Sized>(
    engine: &E,
    trace: &[SpatialQuery],
    cfg: &ServeConfig,
) -> ServeOutcome {
    let threads = cfg.threads.max(1);
    let batch = cfg.batch.max(1);
    // The self-tuning loop only exists on the queued path: the inline
    // single-worker path has no queue-vs-locality tradeoff to tune.
    let auto_on = cfg.auto_batch && threads > 1;
    let batches = if auto_on {
        Vec::new() // the feeder slices the trace incrementally instead
    } else {
        plan_batches(trace, batch, cfg.hilbert_batching)
    };
    let mut n_batches = batches.len();
    let mut max_batch = batches.iter().map(Vec::len).max().unwrap_or(0);
    // Filled by the auto-batch feeder: (loop counters, batches fed,
    // widest batch).
    let auto_out: Mutex<Option<(AutoBatchSummary, usize, usize)>> = Mutex::new(None);

    let io_before = engine.io_snapshot();
    let cache_before = engine.cache_stats();
    let start = Instant::now();

    let worker_results: Vec<WorkerOut> = if threads == 1 {
        // Inline fast path: no queue, no spawn — the exact sequential
        // reference the equivalence tests compare against. No queue means
        // no queue wait: those samples are honestly zero.
        let mut session = engine.session(cfg.pool_pages);
        let mut done: Vec<Executed> = Vec::with_capacity(trace.len());
        for b in &batches {
            for &qid in b {
                done.push(execute_one(&mut *session, trace, qid, 0));
            }
        }
        let (hits, misses) = session.pool_counters();
        vec![WorkerOut {
            worker: 0,
            done,
            hits,
            misses,
        }]
    } else {
        // Each queue item carries its admission instant so the popping
        // worker can split queue wait from service time per batch.
        let queue: RequestQueue<(Vec<usize>, Instant)> =
            RequestQueue::new(cfg.queue_batches.max(1));
        let feed: Mutex<Option<Vec<Vec<usize>>>> = Mutex::new(Some(batches));
        // Readahead pipeline: the feeder pushes each batch's candidate
        // pages (in the batch's Hilbert order — an ascending page sweep)
        // into a bounded lossy queue, and `io_depth` dedicated I/O
        // threads keep that many reads in flight, landing completed
        // pages directly into the engine's cache frames ahead of the
        // workers.
        let prefetch_on = cfg.readahead > 0 && engine.supports_prefetch();
        let io_threads = if prefetch_on { cfg.io_depth.max(1) } else { 0 };
        let prefetch_queue = prefetch_on.then(|| PrefetchQueue::new(cfg.readahead));
        let pq = prefetch_queue.as_ref();
        StagePool::new(threads + io_threads).scoped_run(|w| {
            if w >= threads {
                // Dedicated prefetch I/O thread: pop page ids and land
                // them in the cache until the feeder closes the queue.
                // Device latency (real file seeks, or the injected
                // `Disk` read latency) is paid here, off the workers'
                // critical path.
                let pq = pq.expect("io worker without prefetch queue");
                let mut scratch = Vec::new();
                while let Some(id) = pq.pop() {
                    engine.prefetch_page(id, &mut scratch);
                }
                return WorkerOut {
                    worker: w,
                    done: Vec::new(),
                    hits: 0,
                    misses: 0,
                };
            }
            let mut session = engine.session(cfg.pool_pages);
            let mut done: Vec<Executed> = Vec::new();
            if w == 0 {
                // Worker 0 feeds the queue (blocking on the bounded
                // capacity — backpressure), then drains like everyone
                // else. Interleaving feeding with the other workers'
                // draining keeps the backlog within `queue_batches`.
                let feed_batch = |b: Vec<usize>| {
                    if let Some(pq) = pq {
                        // Announce the batch's page schedule before the
                        // batch itself so the I/O threads start on it
                        // ahead of the executing workers. `try_push` is
                        // lossy by design: a full queue means the I/O
                        // threads are already `readahead` pages ahead.
                        let probes: Vec<SpatialQuery> = b.iter().map(|&qid| trace[qid]).collect();
                        for page in engine.prefetch_schedule(&probes) {
                            pq.try_push(page);
                        }
                    }
                    queue.push((b, Instant::now()));
                };
                if auto_on {
                    feed_auto_batches(engine, trace, cfg, batch, &auto_out, feed_batch);
                } else {
                    let batches = feed
                        .lock()
                        .expect("feed poisoned")
                        .take()
                        .expect("feeder ran twice");
                    for b in batches {
                        feed_batch(b);
                    }
                }
                queue.close();
                if let Some(pq) = pq {
                    pq.close();
                }
            }
            while let Some((b, admitted)) = queue.pop() {
                let wait = admitted.elapsed().as_nanos() as u64;
                for qid in b {
                    done.push(execute_one(&mut *session, trace, qid, wait));
                }
            }
            let (hits, misses) = session.pool_counters();
            WorkerOut {
                worker: w,
                done,
                hits,
                misses,
            }
        })
    };

    let autobatch = if auto_on {
        let (summary, fed, widest) = auto_out
            .lock()
            .expect("auto_out poisoned")
            .take()
            .expect("auto-batch feeder did not run");
        n_batches = fed;
        max_batch = widest;
        Some(summary)
    } else {
        None
    };

    let wall = start.elapsed();
    let io = engine.io_snapshot().delta_since(&io_before);
    let cache = engine.cache_stats().delta_since(&cache_before);

    // Deterministic reassembly by query position. Latencies accumulate
    // into the shared log-bucketed histogram type (always-on, local to
    // this run) rather than a per-query sample vector; the summaries and
    // any run-end publication both read its snapshot.
    let service_hist = tfm_obs::Histogram::new();
    let wait_hist = tfm_obs::Histogram::new();
    let mut results: Vec<Vec<ElementId>> = vec![Vec::new(); trace.len()];
    let mut traces: Vec<tfm_obs::QueryTrace> = Vec::new();
    let mut result_ids = 0u64;
    let mut pool_hits = 0u64;
    let mut pool_misses = 0u64;
    let mut per_worker_queries = Vec::with_capacity(worker_results.len());
    for worker in worker_results {
        if worker.worker >= threads {
            // Dedicated prefetch I/O threads execute no queries and own
            // no session; they don't appear in per-worker stats.
            continue;
        }
        pool_hits += worker.hits;
        pool_misses += worker.misses;
        per_worker_queries.push(worker.done.len() as u64);
        for ex in worker.done {
            result_ids += ex.ids.len() as u64;
            service_hist.record(ex.service_nanos);
            wait_hist.record(ex.queue_wait_nanos);
            if cfg.collect_traces {
                traces.push(tfm_obs::QueryTrace {
                    trace_id: ex.qid as u64,
                    worker: worker.worker as u64,
                    queue_wait_nanos: ex.queue_wait_nanos,
                    service_nanos: ex.service_nanos,
                    pool_hits: ex.pool_hits,
                    pool_misses: ex.pool_misses,
                    result_ids: ex.ids.len() as u64,
                });
            }
            results[ex.qid] = ex.ids;
        }
    }
    traces.sort_unstable_by_key(|t| t.trace_id);
    let service_snap = service_hist.snapshot();
    let wait_snap = wait_hist.snapshot();

    // Run-end publication into the process-wide registry (one shot, so
    // per-query counters never double-count): the serve.* family plus the
    // cache/io signals this run owns. `cache.hits`/`cache.misses` come
    // from the handle-local pool counters; the shared cache contributes
    // only its internal extras (evictions, contention, decoded tier).
    let obs = tfm_obs::global();
    if obs.is_enabled() {
        use tfm_obs::names;
        obs.counter(names::SERVE_QUERIES).add(trace.len() as u64);
        obs.counter(names::SERVE_BATCHES).add(n_batches as u64);
        obs.counter(names::SERVE_RESULT_IDS).add(result_ids);
        obs.histogram(names::SERVE_WALL_NANOS)
            .record(wall.as_nanos() as u64);
        obs.histogram(names::SERVE_SERVICE_NANOS)
            .merge_snapshot(&service_snap);
        obs.histogram(names::SERVE_QUEUE_WAIT_NANOS)
            .merge_snapshot(&wait_snap);
        obs.counter(names::CACHE_HITS).add(pool_hits);
        obs.counter(names::CACHE_MISSES).add(pool_misses);
        io.publish(obs);
        cache.publish_shared_extras(obs);
        if let Some(ab) = &autobatch {
            obs.counter(names::SERVE_AUTOBATCH_RETUNES).add(ab.retunes);
            obs.counter(names::SERVE_AUTOBATCH_GROWS).add(ab.grows);
            obs.counter(names::SERVE_AUTOBATCH_SHRINKS).add(ab.shrinks);
            obs.gauge(names::SERVE_AUTOBATCH_FINAL_BATCH)
                .set(ab.final_batch as i64);
        }
    }

    let stats = ServeStats {
        queries: trace.len() as u64,
        result_ids,
        batches: n_batches as u64,
        max_batch,
        threads,
        hilbert_batching: cfg.hilbert_batching,
        wall,
        latency: LatencySummary::from_histogram(&service_snap),
        queue_wait: LatencySummary::from_histogram(&wait_snap),
        pool_hits,
        pool_misses,
        io,
        per_worker_queries,
        cache,
        autobatch,
    };
    ServeOutcome {
        results,
        stats,
        traces,
    }
}

/// How many batches the auto-batch feeder admits between retune
/// decisions — long enough to average out per-batch noise in the cache
/// and I/O counters, short enough to adapt within a few hundred queries.
const AUTO_BATCH_WINDOW: usize = 8;

/// The self-tuning feeder (`--auto-batch`): slices the trace into
/// arrival-order batches of a *dynamic* size and re-scores the run every
/// [`AUTO_BATCH_WINDOW`] batches from two feedback signals — the shared
/// cache's hit fraction and the disk's sequential-read fraction over the
/// window. A low score means poor locality: the batch grows (up to 4× the
/// configured base) so the Hilbert sort gets more queries to order into a
/// spatial sweep. A recovered score decays the batch back toward the base,
/// bounding queue latency. Batch composition stays arrival-order slices,
/// so results are byte-identical to any fixed batch size.
fn feed_auto_batches<E: QueryEngine + ?Sized>(
    engine: &E,
    trace: &[SpatialQuery],
    cfg: &ServeConfig,
    base: usize,
    auto_out: &Mutex<Option<(AutoBatchSummary, usize, usize)>>,
    feed_batch: impl Fn(Vec<usize>),
) {
    let universe = Aabb::union_all(trace.iter().map(|q| Aabb::from_point(q.center())));
    let cap = base.saturating_mul(4).max(base);
    let mut cur = base;
    let mut fed = 0usize;
    let mut widest = 0usize;
    let mut since_retune = 0usize;
    let mut summary = AutoBatchSummary::default();
    let mut win_cache = engine.cache_stats();
    let mut win_io = engine.io_snapshot();
    let mut start = 0usize;
    while start < trace.len() {
        let end = (start + cur).min(trace.len());
        let mut ids: Vec<usize> = (start..end).collect();
        if cfg.hilbert_batching {
            // Same within-batch ordering as `plan_batches`.
            ids.sort_by_key(|&i| (hilbert::index_of_point(&trace[i].center(), &universe), i));
        }
        widest = widest.max(ids.len());
        fed += 1;
        feed_batch(ids);
        start = end;
        since_retune += 1;
        if since_retune >= AUTO_BATCH_WINDOW && start < trace.len() {
            since_retune = 0;
            // Score the window from whichever signals it produced: the
            // cache's hit fraction and/or the sequential-read split. A
            // window with neither (no page touched) does not retune.
            let io_now = engine.io_snapshot();
            let io_delta = io_now.delta_since(&win_io);
            win_io = io_now;
            let mut score = 0.0f64;
            let mut signals = 0u32;
            let cache_now = engine.cache_stats();
            let d = cache_now.delta_since(&win_cache);
            win_cache = cache_now;
            if d.hits + d.misses > 0 {
                score += d.hit_fraction();
                signals += 1;
            }
            if io_delta.reads() > 0 {
                score += io_delta.seq_read_fraction();
                signals += 1;
            }
            if signals > 0 {
                let score = score / f64::from(signals);
                summary.retunes += 1;
                if score < 0.5 && cur < cap {
                    cur = (cur * 2).min(cap);
                    summary.grows += 1;
                } else if score > 0.8 && cur > base {
                    cur = (cur / 2).max(base);
                    summary.shrinks += 1;
                }
            }
        }
    }
    summary.final_batch = cur;
    *auto_out.lock().expect("auto_out poisoned") = Some((summary, fed, widest));
}

fn execute_one(
    session: &mut dyn QuerySession,
    trace: &[SpatialQuery],
    qid: usize,
    queue_wait_nanos: u64,
) -> Executed {
    let (hits_before, misses_before) = session.pool_counters();
    let t = Instant::now();
    let ids = session.execute(&trace[qid]);
    let service_nanos = t.elapsed().as_nanos() as u64;
    let (hits_after, misses_after) = session.pool_counters();
    Executed {
        qid,
        ids,
        service_nanos,
        queue_wait_nanos,
        pool_hits: hits_after - hits_before,
        pool_misses: misses_after - misses_before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_datagen::{generate, generate_trace, DatasetSpec, ProbeMix, QueryTraceSpec};
    use tfm_storage::Disk;
    use transformers::{IndexConfig, TransformersIndex};

    fn fixture(
        count: usize,
        seed: u64,
    ) -> (Disk, TransformersIndex, Vec<tfm_geom::SpatialElement>) {
        let disk = Disk::in_memory(2048);
        let elems = generate(&DatasetSpec {
            max_side: 6.0,
            ..DatasetSpec::uniform(count, seed)
        });
        let idx = TransformersIndex::build(&disk, elems.clone(), &IndexConfig::default());
        (disk, idx, elems)
    }

    /// The oracle: a full scan per query.
    fn reference(
        elems: &[tfm_geom::SpatialElement],
        trace: &[SpatialQuery],
    ) -> Vec<Vec<ElementId>> {
        trace
            .iter()
            .map(|q| {
                let mut ids: Vec<ElementId> = elems
                    .iter()
                    .filter(|e| q.matches(&e.mbb))
                    .map(|e| e.id)
                    .collect();
                ids.sort_unstable();
                ids
            })
            .collect()
    }

    #[test]
    fn batches_partition_the_trace_in_arrival_chunks() {
        let trace = generate_trace(&QueryTraceSpec::uniform(250, 1));
        for hilbert in [false, true] {
            let batches = plan_batches(&trace, 64, hilbert);
            assert_eq!(batches.len(), 4);
            assert_eq!(batches[3].len(), 250 - 3 * 64);
            // Composition is arrival-order regardless of the sort.
            for (i, b) in batches.iter().enumerate() {
                let mut sorted = b.clone();
                sorted.sort_unstable();
                let expected: Vec<usize> = (i * 64..(i * 64 + b.len())).collect();
                assert_eq!(sorted, expected, "hilbert = {hilbert}");
            }
        }
        // The Hilbert plan actually reorders something.
        let arrival = plan_batches(&trace, 64, false);
        let hilberted = plan_batches(&trace, 64, true);
        assert_ne!(arrival, hilberted);
    }

    #[test]
    fn transformers_engine_answers_every_query_kind() {
        let (disk, idx, elems) = fixture(4000, 10);
        let trace = generate_trace(&QueryTraceSpec::uniform(300, 11));
        let engine = TransformersEngine::new(&idx, &disk);
        let out = serve_trace(&engine, &trace, &ServeConfig::default());
        assert_eq!(out.results, reference(&elems, &trace));
        assert_eq!(out.stats.queries, 300);
        assert_eq!(out.stats.per_worker_queries, vec![300]);
        assert!(out.stats.pool_misses > 0);
        assert!(out.stats.io.reads() > 0);
        assert_eq!(engine.label(), "TRANSFORMERS");
    }

    #[test]
    fn all_engines_agree_with_the_reference() {
        let (disk, idx, elems) = fixture(3000, 12);
        let rtree_disk = Disk::in_memory(2048);
        let tree = tfm_rtree::RTree::bulk_load(&rtree_disk, elems.clone());
        let trace = generate_trace(&QueryTraceSpec::with_mix(
            200,
            ProbeMix::Clustered { clusters: 4 },
            13,
        ));
        let expected = reference(&elems, &trace);
        let engines: Vec<Box<dyn QueryEngine>> = vec![
            Box::new(TransformersEngine::new(&idx, &disk)),
            Box::new(GipsyEngine::new(&idx, &disk)),
            Box::new(RtreeEngine::new(&tree, &rtree_disk)),
        ];
        for engine in &engines {
            let out = serve_trace(engine.as_ref(), &trace, &ServeConfig::default());
            assert_eq!(out.results, expected, "{}", engine.label());
        }
    }

    #[test]
    fn results_identical_across_threads_and_batching() {
        let (disk, idx, elems) = fixture(2500, 14);
        let trace = generate_trace(&QueryTraceSpec::uniform(240, 15));
        let expected = reference(&elems, &trace);
        let engine = TransformersEngine::new(&idx, &disk);
        for threads in [1, 2, 4] {
            for hilbert in [false, true] {
                let cfg = ServeConfig {
                    threads,
                    hilbert_batching: hilbert,
                    batch: 32,
                    queue_batches: 2,
                    ..ServeConfig::default()
                };
                let out = serve_trace(&engine, &trace, &cfg);
                assert_eq!(
                    out.results, expected,
                    "threads = {threads}, hilbert = {hilbert}"
                );
                assert_eq!(out.stats.per_worker_queries.iter().sum::<u64>(), 240);
                assert_eq!(out.stats.threads, threads);
            }
        }
    }

    #[test]
    fn hilbert_batching_raises_the_sequential_read_fraction() {
        // A large uniform trace over a sizeable index, one worker, one
        // big batch: arrival order hops randomly, Hilbert order sweeps.
        let (disk, idx, _) = fixture(30_000, 16);
        let trace = generate_trace(&QueryTraceSpec {
            count: 1500,
            max_window_side: 12.0,
            ..QueryTraceSpec::uniform(1500, 17)
        });
        let engine = TransformersEngine::new(&idx, &disk).with_shared_cache(64, 1);
        let base = ServeConfig::default().with_batch(1500);
        let unbatched = serve_trace(&engine, &trace, &base.without_hilbert_batching());
        engine.reset_cache();
        let batched = serve_trace(&engine, &trace, &base);
        assert_eq!(unbatched.results, batched.results);
        assert!(
            batched.stats.seq_read_fraction() > unbatched.stats.seq_read_fraction(),
            "hilbert {:.3} must beat arrival {:.3}",
            batched.stats.seq_read_fraction(),
            unbatched.stats.seq_read_fraction()
        );
    }

    #[test]
    fn engines_report_cache_stats_that_sum_from_the_handles() {
        let (disk, idx, elems) = fixture(2500, 22);
        let trace = generate_trace(&QueryTraceSpec::uniform(200, 23));
        let expected = reference(&elems, &trace);
        let engine = TransformersEngine::new(&idx, &disk).with_shared_cache(256, 4);
        for threads in [1, 4] {
            engine.reset_cache();
            let out = serve_trace(
                &engine,
                &trace,
                &ServeConfig::default().with_threads(threads),
            );
            assert_eq!(out.results, expected, "threads = {threads}");
            let cache = out.stats.cache;
            assert!(cache.hits + cache.misses > 0);
            // Probes test boxes in the pinned page: a serve run neither
            // consults nor fills the decoded tier.
            assert_eq!((cache.decoded_hits, cache.decoded_misses), (0, 0));
            assert!(out.stats.pool_hit_fraction() > 0.0);
            // Handle-local counters sum to the cache's global totals.
            assert_eq!(out.stats.pool_hits, cache.hits);
            assert_eq!(out.stats.pool_misses, cache.misses);
        }
    }

    #[test]
    fn every_candidate_page_misses_once_at_any_worker_count() {
        // A cache at least as large as the touched page set: whichever
        // worker faults a page in, it is a hit for everyone after, so a
        // replay misses exactly once per distinct candidate page.
        let (disk, idx, _) = fixture(6000, 24);
        let trace = generate_trace(&QueryTraceSpec::uniform(400, 25));
        let engine = TransformersEngine::new(&idx, &disk).with_shared_cache(4096, 8);
        let distinct_pages = engine.prefetch_schedule(&trace).len() as u64;
        assert!(distinct_pages > 0);
        for threads in [1, 2, 4, 8] {
            engine.reset_cache();
            let cfg = ServeConfig::default().with_threads(threads).with_batch(16);
            let out = serve_trace(&engine, &trace, &cfg);
            assert_eq!(out.stats.pool_misses, distinct_pages, "threads = {threads}");
            assert_eq!(out.stats.io.reads(), distinct_pages, "threads = {threads}");
            // Handle-local counters still sum to the cache's totals.
            assert_eq!(out.stats.pool_misses, out.stats.cache.misses);
            assert_eq!(out.stats.pool_hits, out.stats.cache.hits);
        }
    }

    #[test]
    fn readahead_preserves_results_and_reports_prefetch_counters() {
        let (disk, idx, elems) = fixture(6000, 30);
        let trace = generate_trace(&QueryTraceSpec::uniform(400, 31));
        let expected = reference(&elems, &trace);
        // A cache far smaller than the index's page set: prefetched pages
        // can't all be resident already, so the pipeline always lands some.
        let engine = TransformersEngine::new(&idx, &disk).with_shared_cache(48, 4);
        assert!(engine.supports_prefetch());
        for (threads, io_depth, readahead) in [(2, 1, 64), (2, 4, 256), (4, 2, 128)] {
            engine.reset_cache();
            let cfg = ServeConfig::default()
                .with_threads(threads)
                .with_batch(32)
                .with_io_depth(io_depth)
                .with_readahead(readahead);
            let out = serve_trace(&engine, &trace, &cfg);
            assert_eq!(
                out.results, expected,
                "threads = {threads}, io_depth = {io_depth}, readahead = {readahead}"
            );
            // The I/O threads never surface in per-worker stats.
            assert_eq!(out.stats.per_worker_queries.len(), threads);
            let cache = out.stats.cache;
            assert!(
                cache.prefetch_issued > 0,
                "prefetch pipeline must have landed pages"
            );
            // Prefetch accounting stays disjoint from the hit/miss pair:
            // every page the workers touched is exactly one of the three.
            assert_eq!(out.stats.pool_hits, cache.hits);
            assert_eq!(out.stats.pool_misses, cache.misses);
            assert!(cache.prefetch_hits <= cache.prefetch_issued);
        }
        // An engine that cannot compute a schedule ignores the request.
        let rtree_disk = Disk::in_memory(2048);
        let tree = tfm_rtree::RTree::bulk_load(&rtree_disk, elems);
        let rtree = RtreeEngine::new(&tree, &rtree_disk);
        assert!(!rtree.supports_prefetch());
        let out = serve_trace(
            &rtree,
            &trace,
            &ServeConfig::default().with_threads(2).with_readahead(64),
        );
        assert_eq!(out.results, expected);
        assert_eq!(out.stats.cache.prefetch_issued, 0);
    }

    #[test]
    fn auto_batch_matches_fixed_batch_results_exactly() {
        let (disk, idx, elems) = fixture(6000, 32);
        let trace = generate_trace(&QueryTraceSpec::uniform(600, 33));
        let expected = reference(&elems, &trace);
        // Small cache + small base batch so the feedback loop has signals
        // to react to and windows to react in.
        let engine = TransformersEngine::new(&idx, &disk).with_shared_cache(64, 4);
        for threads in [2, 4] {
            engine.reset_cache();
            let cfg = ServeConfig::default()
                .with_threads(threads)
                .with_batch(16)
                .with_auto_batch();
            let out = serve_trace(&engine, &trace, &cfg);
            assert_eq!(out.results, expected, "threads={threads}");
            let ab = out
                .stats
                .autobatch
                .expect("queued auto run reports a summary");
            assert!(ab.retunes > 0, "600 queries at base 16 must cross a window");
            assert!(ab.final_batch >= 16 && ab.final_batch <= 64);
            assert!(ab.grows + ab.shrinks <= ab.retunes);
            assert_eq!(
                out.stats.per_worker_queries.iter().sum::<u64>(),
                trace.len() as u64
            );
        }
        // The inline path ignores the flag and reports no summary.
        let out = serve_trace(&engine, &trace, &ServeConfig::default().with_auto_batch());
        assert_eq!(out.results, expected);
        assert!(out.stats.autobatch.is_none());
    }

    #[test]
    fn auto_batch_composes_with_readahead() {
        let (disk, idx, elems) = fixture(4000, 34);
        let trace = generate_trace(&QueryTraceSpec::uniform(400, 35));
        let expected = reference(&elems, &trace);
        let engine = TransformersEngine::new(&idx, &disk).with_shared_cache(48, 4);
        let cfg = ServeConfig::default()
            .with_threads(4)
            .with_batch(16)
            .with_io_depth(2)
            .with_readahead(128)
            .with_auto_batch();
        let out = serve_trace(&engine, &trace, &cfg);
        assert_eq!(out.results, expected);
        assert!(out.stats.cache.prefetch_issued > 0);
        assert!(out.stats.autobatch.is_some());
    }

    #[test]
    fn empty_trace_and_empty_index() {
        let (disk, idx, _) = fixture(500, 18);
        let engine = TransformersEngine::new(&idx, &disk);
        let out = serve_trace(&engine, &[], &ServeConfig::default().with_threads(4));
        assert!(out.results.is_empty());
        assert_eq!(out.stats.queries, 0);

        let empty_disk = Disk::in_memory(2048);
        let empty = TransformersIndex::build(&empty_disk, vec![], &IndexConfig::default());
        let trace = generate_trace(&QueryTraceSpec::uniform(50, 19));
        for engine in [
            Box::new(TransformersEngine::new(&empty, &empty_disk)) as Box<dyn QueryEngine>,
            Box::new(GipsyEngine::new(&empty, &empty_disk)),
        ] {
            let out = serve_trace(engine.as_ref(), &trace, &ServeConfig::default());
            assert!(out.results.iter().all(Vec::is_empty), "{}", engine.label());
        }
    }

    #[test]
    fn mutable_engine_matches_rebuilt_index_across_workers() {
        use tfm_storage::{NoopLog, SharedPageCache};
        use transformers::{MutableTransformers, MutationOp};

        let (disk, idx, elems) = fixture(2500, 40);
        let cache = SharedPageCache::new(&disk, 4096);
        let overlay = MutableTransformers::adopt(&idx, &disk);
        let log = NoopLog::new();

        // Mutate: delete every 5th element, insert a fresh batch.
        let mut ops: Vec<MutationOp> = elems
            .iter()
            .filter(|e| e.id % 5 == 0)
            .map(|e| MutationOp::Delete(e.id))
            .collect();
        let fresh = generate(&DatasetSpec {
            max_side: 6.0,
            ..DatasetSpec::uniform(400, 41)
        });
        let base = 1 + elems.iter().map(|e| e.id).max().unwrap_or(0);
        let mut mutated: Vec<tfm_geom::SpatialElement> =
            elems.iter().filter(|e| e.id % 5 != 0).cloned().collect();
        for mut e in fresh {
            e.id += base;
            ops.push(MutationOp::Insert(e));
            mutated.push(e);
        }
        let out = overlay.apply_batch(&log, &cache, &ops);
        assert_eq!(out.rejected_inserts, 0);
        assert_eq!(out.missing_deletes, 0);

        // The acceptance property: serve results over the mutated overlay
        // are byte-identical to an index rebuilt from scratch on the
        // mutated dataset, at every worker count.
        let trace = generate_trace(&QueryTraceSpec::uniform(240, 42));
        let expected = reference(&mutated, &trace);
        let engine = MutableTransformersEngine::new(&overlay, &cache);
        assert_eq!(engine.label(), "TRANSFORMERS-MUT");
        for threads in [1, 2, 4, 8] {
            let cfg = ServeConfig::default().with_threads(threads).with_batch(32);
            let got = serve_trace(&engine, &trace, &cfg);
            assert_eq!(got.results, expected, "threads = {threads}");
            assert!(got.stats.cache.hits + got.stats.cache.misses > 0);
        }

        let rebuilt_disk = Disk::in_memory(2048);
        let rebuilt =
            TransformersIndex::build(&rebuilt_disk, mutated.clone(), &IndexConfig::default());
        let static_engine = TransformersEngine::new(&rebuilt, &rebuilt_disk);
        let got = serve_trace(&static_engine, &trace, &ServeConfig::default());
        assert_eq!(got.results, expected);
    }

    #[test]
    fn mutable_engine_serves_consistent_snapshots_during_writes() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use tfm_storage::{NoopLog, SharedPageCache};
        use transformers::{MutableTransformers, MutationOp};

        let (disk, idx, elems) = fixture(1500, 44);
        let cache = SharedPageCache::new(&disk, 4096);
        let overlay = MutableTransformers::adopt(&idx, &disk);
        let log = NoopLog::new();
        let trace = generate_trace(&QueryTraceSpec::uniform(120, 45));
        let engine = MutableTransformersEngine::new(&overlay, &cache);
        let base = 1 + elems.iter().map(|e| e.id).max().unwrap_or(0);
        let done = AtomicBool::new(false);

        // Writers apply insert batches while serve runs keep querying the
        // latest published snapshot. Every result must be internally
        // consistent: sorted, duplicate-free, and only ids that exist in
        // the original dataset or were inserted by a committed batch.
        std::thread::scope(|s| {
            s.spawn(|| {
                let fresh = generate(&DatasetSpec {
                    max_side: 6.0,
                    ..DatasetSpec::uniform(600, 46)
                });
                for chunk in fresh.chunks(60) {
                    let ops: Vec<MutationOp> = chunk
                        .iter()
                        .map(|e| {
                            let mut e = *e;
                            e.id += base;
                            MutationOp::Insert(e)
                        })
                        .collect();
                    overlay.apply_batch(&log, &cache, &ops);
                }
                done.store(true, Ordering::Release);
            });
            while !done.load(Ordering::Acquire) {
                let out = serve_trace(&engine, &trace, &ServeConfig::default().with_threads(2));
                for ids in &out.results {
                    assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
                }
            }
        });

        // Quiesced: results equal the full mutated reference.
        let fresh = generate(&DatasetSpec {
            max_side: 6.0,
            ..DatasetSpec::uniform(600, 46)
        });
        let mut mutated = elems.clone();
        mutated.extend(fresh.into_iter().map(|mut e| {
            e.id += base;
            e
        }));
        let out = serve_trace(&engine, &trace, &ServeConfig::default().with_threads(4));
        assert_eq!(out.results, reference(&mutated, &trace));
    }

    #[test]
    fn config_clamps_degenerate_values() {
        let (disk, idx, elems) = fixture(800, 20);
        let trace = generate_trace(&QueryTraceSpec::uniform(30, 21));
        let engine = TransformersEngine::new(&idx, &disk);
        let cfg = ServeConfig {
            threads: 0,
            batch: 0,
            queue_batches: 0,
            pool_pages: 0,
            ..ServeConfig::default()
        };
        let out = serve_trace(&engine, &trace, &cfg);
        assert_eq!(out.results, reference(&elems, &trace));
        assert_eq!(out.stats.threads, 1);
        assert_eq!(out.stats.max_batch, 1);
        assert_eq!(out.stats.batches, 30);
    }
}
