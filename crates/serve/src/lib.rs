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
//!   backpressure, non-blocking `try_push` is load shedding
//!   ([`ServeConfig::shed`]).
//! * **Locality-aware batching** — the feeder splits the trace into
//!   arrival-order batches and (by default) sorts each batch by the
//!   Hilbert order of the queries' probe centers. Consecutive queries of
//!   a sorted batch probe neighbouring regions, so their candidate pages
//!   overlap or adjoin: page accesses that would be random seeks under
//!   arrival order become buffer hits or sequential reads — directly
//!   visible in the [`tfm_storage::IoStatsSnapshot`] sequential/random
//!   split ([`ServeStats::seq_read_fraction`]). See `DESIGN.md` for why
//!   this falls out of the disk model.
//! * **One serve path** — [`serve_trace`] (one engine) and
//!   [`serve_sharded`] (a [`ShardedCluster`] of self-contained index
//!   shards behind a [`ShardRouter`]) are the one-target and N-target
//!   cases of the same executor, under one [`ServeConfig`] and returning
//!   one [`ServeOutcome`]: one feeder plans batches, routes them,
//!   announces each sub-batch's readahead schedule and admits it; one
//!   target-local pool opens sessions, pops the queue and times every
//!   probe; one gather merges the partials per query. Auto-batching,
//!   per-query traces, readahead and shedding therefore work on either
//!   entry point. See `ARCHITECTURE.md`.
//!
//! # Who executes
//!
//! `threads == 1` on a single engine runs inline on the caller — no
//! queue, no spawn — and is the sequential reference the equivalence
//! suites compare against. A queued single-engine run spawns `threads`
//! workers of which **worker 0 feeds first** and joins the drain only
//! once the whole trace is admitted, so with few workers it executes
//! almost nothing ([`ServeStats::per_worker_queries`] shows the split;
//! `DESIGN.md` records the measurement and the dedicated-feeder
//! trade-off). A cluster keeps the caller thread as the feeder: a feeder
//! that is also a shard's only worker drains nothing while it feeds, so
//! its blocking push into that shard's full queue would wait on itself.
//!
//! # Determinism
//!
//! Batch composition depends only on the trace and the batch size (never
//! on the worker count), each query's result is a pure function of the
//! query and the index, every element lives in exactly one shard, and
//! results are reassembled by query position — so the result vector is
//! **byte-identical for any thread count, shard count and batching
//! mode**. The `serve_equivalence` and `shard_equivalence` integration
//! tests hold all engines to that against a sequential full-scan
//! reference. (Load shedding deliberately breaks the guarantee — shed
//! partials are counted, not silently dropped.)
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
    ServeEngineKind, TransformersEngine,
};
pub use queue::RequestQueue;
pub use shard::{
    plan_shards, serve_sharded, IndexShard, ShardPartitioner, ShardRouter, ShardSpec,
    ShardedCluster,
};
pub use stats::{AutoBatchSummary, LatencySummary, ServeStats, ShardStats};

use std::borrow::Cow;
use std::ops::Range;
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use tfm_geom::{hilbert, Aabb, ElementId, SpatialQuery};
use tfm_pool::StagePool;
use tfm_storage::{CacheStats, IoStatsSnapshot, PrefetchQueue};

/// Configuration of one serve run, single-engine or sharded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads per target — per engine for [`serve_trace`], per
    /// shard for [`serve_sharded`] (`0` is clamped to 1). On a queued
    /// single-engine run worker 0 feeds the queue before it drains, so
    /// `threads = 2` executes nearly every query on worker 1 alone (see
    /// the crate docs, "Who executes").
    pub threads: usize,
    /// Queries per batch — the unit of queueing and of locality sorting
    /// (`0` is clamped to 1).
    pub batch: usize,
    /// Sort each batch by the Hilbert order of probe centers before
    /// execution (on by default; turn off for the arrival-order ablation).
    pub hilbert_batching: bool,
    /// Page-cache budget in pages. [`serve_sharded`] builds its shards'
    /// caches from it, an even split (`pool_pages / shards`, floor 16).
    /// [`serve_trace`] does not read it — a borrowed engine's cache was
    /// sized when the engine was built (`with_shared_cache`) — so there it
    /// is the number the harnesses that *build* engines (`tfm-bench`, the
    /// CLI) size that cache with.
    pub pool_pages: usize,
    /// Bounded request-queue capacity in (sub-)batches, per target — the
    /// backpressure window between the feeder and a target's workers.
    pub queue_batches: usize,
    /// Collect one [`tfm_obs::QueryTrace`] per query in
    /// [`ServeOutcome::traces`] (queue-wait/service split and per-query
    /// pool-counter attribution). Off by default: the records are kept
    /// only when asked for.
    pub collect_traces: bool,
    /// Dedicated I/O threads per target keeping prefetch reads in flight —
    /// the submission queue depth of the readahead pipeline. Only
    /// consulted when [`ServeConfig::readahead`] enables prefetching; `0`
    /// is clamped to 1.
    pub io_depth: usize,
    /// Readahead window in pages: the capacity of the bounded
    /// [`tfm_storage::PrefetchQueue`] in front of each target, which the
    /// feeder fills with each sub-batch's Hilbert-ordered candidate pages.
    /// `0` (the default) disables the prefetch pipeline entirely; it also
    /// stays off on engines that cannot compute a schedule
    /// ([`QueryEngine::supports_prefetch`]) and on the inline path.
    pub readahead: usize,
    /// Self-tuning batch sizing: every few batches the feeder re-scores
    /// the run from the observed cache hit fraction and sequential-read
    /// fraction (summed over the targets), growing the batch (up to 4×
    /// [`ServeConfig::batch`]) while locality is poor — a larger batch
    /// gives the Hilbert sort more scope — and decaying back toward the
    /// base once the signals recover. Batch *composition* stays
    /// arrival-order slices and results are keyed by query position, so
    /// results are byte-identical to any fixed batch size. Only queued
    /// runs tune; the inline path ignores this flag.
    pub auto_batch: bool,
    /// Load shedding: admit sub-batches with `try_push` and count
    /// rejections instead of blocking. Shed partials make the affected
    /// queries' results incomplete (tracked in
    /// [`ServeStats::shed_queries`]); leave this off for the
    /// byte-identical path. The inline path has no queue to refuse work.
    pub shed: bool,
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
            shed: false,
        }
    }
}

impl ServeConfig {
    /// Builder: sets the worker count (per target).
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

    /// Builder: switches admission from backpressure to load shedding.
    pub fn with_shedding(mut self) -> Self {
        self.shed = true;
        self
    }
}

/// What a serve run returns: per-query results plus aggregate statistics.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// `results[i]` is the ascending id list answering `trace[i]`.
    /// Identical for any thread count, shard count and batching mode
    /// (backpressure admission).
    pub results: Vec<Vec<ElementId>>,
    /// Aggregate and per-target counters of the run.
    pub stats: ServeStats,
    /// Per-query trace records, in trace-ID order; empty unless
    /// [`ServeConfig::collect_traces`] was set. The trace ID is the
    /// query's position in the input trace, so IDs are stable across
    /// thread counts and batching modes. A scattered query's record holds
    /// its critical path (service and wait: the maximum over its
    /// partials, `worker` the one that ran the slowest partial) and the
    /// sums of its partials' pool counters and result ids.
    pub traces: Vec<tfm_obs::QueryTrace>,
}

/// The box the Hilbert order of a trace's probe centers is taken over.
fn center_universe(trace: &[SpatialQuery]) -> Aabb {
    Aabb::union_all(trace.iter().map(|q| Aabb::from_point(q.center())))
}

/// One batch: the arrival-order slice `range` of the trace, sorted by the
/// Hilbert index of the probe centers when `hilbert_batching` is on.
fn order_batch(
    trace: &[SpatialQuery],
    range: Range<usize>,
    hilbert_batching: bool,
    universe: &Aabb,
) -> Vec<usize> {
    let mut ids: Vec<usize> = range.collect();
    if hilbert_batching {
        // Tie-break on the query position so the plan is total.
        ids.sort_by_key(|&i| (hilbert::index_of_point(&trace[i].center(), universe), i));
    }
    ids
}

/// Splits `trace` into arrival-order batches of `batch` queries and, when
/// `hilbert_batching` is on, sorts each batch by the Hilbert index of the
/// probe centers (over the trace's own center bounding box).
///
/// Batch *composition* is always arrival-order — only the order *within*
/// a batch changes — so results cannot depend on the batching mode.
fn plan_batches(trace: &[SpatialQuery], batch: usize, hilbert_batching: bool) -> Vec<Vec<usize>> {
    let universe = center_universe(trace);
    (0..trace.len())
        .step_by(batch)
        .map(|start| {
            let end = (start + batch).min(trace.len());
            order_batch(trace, start..end, hilbert_batching, &universe)
        })
        .collect()
}

/// What one worker hands back per executed query partial.
struct Executed {
    qid: usize,
    ids: Vec<ElementId>,
    service_nanos: u64,
    /// Admission-to-pop wait of the partial's batch (0 on the inline path).
    queue_wait_nanos: u64,
    /// Handle-local pool-counter deltas around this probe.
    pool_hits: u64,
    pool_misses: u64,
}

/// One worker's complete contribution: executed partials plus its
/// session's pool counters.
struct WorkerOut {
    done: Vec<Executed>,
    hits: u64,
    misses: u64,
}

/// One target's complete contribution: its workers' outputs in worker
/// order plus the run's deltas on its disk and cache.
struct TargetOut {
    pool: Vec<WorkerOut>,
    io: IoStatsSnapshot,
    cache: CacheStats,
}

/// One serve target: an engine with the admission edge and the readahead
/// queue in front of its pool.
struct Target<'a, E: ?Sized> {
    engine: &'a E,
    /// Each item carries its admission instant so the popping worker can
    /// split queue wait from service time per sub-batch.
    queue: RequestQueue<(Vec<usize>, Instant)>,
    /// Bounded and lossy; present when readahead is on and the engine can
    /// compute a schedule. Targets prefetch into their own caches from
    /// their own disks, so the pipelines share nothing.
    prefetch: Option<PrefetchQueue>,
}

/// What the feeder counted while scattering (per-target vectors are
/// indexed by target).
struct Fed {
    batches: usize,
    widest: usize,
    autobatch: Option<AutoBatchSummary>,
    routed: Vec<u64>,
    shed_batches: Vec<u64>,
    shed: Vec<u64>,
    shed_queries: u64,
    /// Most target queues simultaneously full as a batch was admitted.
    max_full_queues: usize,
}

impl Fed {
    fn new(targets: usize) -> Self {
        Self {
            batches: 0,
            widest: 0,
            autobatch: None,
            routed: vec![0; targets],
            shed_batches: vec![0; targets],
            shed: vec![0; targets],
            shed_queries: 0,
            max_full_queues: 0,
        }
    }
}

/// Replays `trace` against `engine` on `cfg.threads` workers and returns
/// every query's result plus aggregate [`ServeStats`].
///
/// This is the one-target case of the executor [`serve_sharded`] also
/// runs: no router, every batch goes whole to the engine's queue. At
/// `threads == 1` it runs inline on the caller; otherwise queries are
/// queued batch-wise through a bounded [`RequestQueue`] (worker 0 feeds
/// it, then joins the drain), executed on per-worker [`QuerySession`]s,
/// and reassembled by query position. The result vector is byte-identical
/// for any `threads`/batching setting.
pub fn serve_trace<E: QueryEngine + ?Sized>(
    engine: &E,
    trace: &[SpatialQuery],
    cfg: &ServeConfig,
) -> ServeOutcome {
    serve(&[engine], None, trace, cfg, tfm_obs::global())
}

/// The executor under both entry points: plans and routes before the
/// clock starts, runs the feeder and the target pools, and gathers.
/// `router` is `None` for a single borrowed engine; run-end metrics go to
/// `obs` (a parameter so a test can read them from a registry nothing
/// else publishes into).
fn serve<E: QueryEngine + ?Sized>(
    engines: &[&E],
    router: Option<&ShardRouter>,
    trace: &[SpatialQuery],
    cfg: &ServeConfig,
    obs: &tfm_obs::MetricsRegistry,
) -> ServeOutcome {
    let workers = cfg.threads.max(1);
    let batch = cfg.batch.max(1);
    // The inline fast path: one engine, one worker — no queue, so no
    // queue-vs-locality tradeoff to tune and nothing to shed from.
    let inline = router.is_none() && workers == 1;
    let auto = cfg.auto_batch && !inline;
    let plan = if auto {
        Vec::new() // the feeder slices the trace incrementally instead
    } else {
        plan_batches(trace, batch, cfg.hilbert_batching)
    };
    // Route once per query: the ascending shard list its probe box hits.
    let routes: Option<Vec<Vec<usize>>> =
        router.map(|r| trace.iter().map(|q| r.route(q)).collect());
    let before: Vec<(IoStatsSnapshot, CacheStats)> = engines
        .iter()
        .map(|e| (e.io_snapshot(), e.cache_stats()))
        .collect();

    let start = Instant::now();
    let (fed, pools): (Fed, Vec<Vec<WorkerOut>>) = if inline {
        // The exact sequential reference the equivalence tests compare
        // against. No queue means no queue wait: those samples are
        // honestly zero.
        let mut session = engines[0].session(cfg.pool_pages);
        let mut done: Vec<Executed> = Vec::with_capacity(trace.len());
        for &qid in plan.iter().flatten() {
            done.push(execute_one(&mut *session, trace, qid, 0));
        }
        let (hits, misses) = session.pool_counters();
        let fed = Fed {
            batches: plan.len(),
            widest: plan.iter().map(Vec::len).max().unwrap_or(0),
            routed: vec![trace.len() as u64],
            ..Fed::new(1)
        };
        (fed, vec![vec![WorkerOut { done, hits, misses }]])
    } else {
        let targets: Vec<Target<'_, E>> = engines
            .iter()
            .map(|&engine| Target {
                engine,
                queue: RequestQueue::new(cfg.queue_batches.max(1)),
                prefetch: (cfg.readahead > 0 && engine.supports_prefetch())
                    .then(|| PrefetchQueue::new(cfg.readahead)),
            })
            .collect();
        let fed = OnceLock::new();
        let feeder = || {
            let out = feed(&targets, routes.as_deref(), trace, cfg, &plan);
            fed.set(out).ok().expect("feeder ran twice");
        };
        let pools = if router.is_none() {
            // One borrowed engine: worker 0 of its pool is the feeder
            // (blocking on the bounded capacity — backpressure), then
            // drains like everyone else.
            vec![run_pool(&targets[0], trace, cfg, Some(&feeder))]
        } else {
            // One driver thread per shard runs that shard's pool; the
            // caller thread stays the feeder, so scattering overlaps
            // draining and a blocking push is backpressure, not deadlock.
            std::thread::scope(|scope| {
                let drivers: Vec<_> = targets
                    .iter()
                    .map(|t| scope.spawn(move || run_pool(t, trace, cfg, None)))
                    .collect();
                feeder();
                drivers
                    .into_iter()
                    .map(|d| d.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .collect()
            })
        };
        (fed.into_inner().expect("feeder did not run"), pools)
    };
    let wall = start.elapsed();

    let outs = pools
        .into_iter()
        .zip(engines.iter().zip(before))
        .map(|(pool, (e, (io, cache)))| TargetOut {
            pool,
            io: e.io_snapshot().delta_since(&io),
            cache: e.cache_stats().delta_since(&cache),
        });
    gather(outs, fed, routes.as_deref(), trace, cfg, wall, obs)
}

/// The one feeder: takes the next batch (planned, or auto-sized), routes
/// it into one sub-batch per target preserving the within-batch (Hilbert)
/// order so each target still sweeps, announces each sub-batch's page
/// schedule to the target's I/O threads and admits it — blocking, or
/// shedding under [`ServeConfig::shed`]. Closes every queue when the
/// trace is through.
fn feed<E: QueryEngine + ?Sized>(
    targets: &[Target<'_, E>],
    routes: Option<&[Vec<usize>]>,
    trace: &[SpatialQuery],
    cfg: &ServeConfig,
    plan: &[Vec<usize>],
) -> Fed {
    let mut fed = Fed::new(targets.len());
    let mut shed_flags = vec![false; if cfg.shed { trace.len() } else { 0 }];
    let mut planned = plan.iter();
    let mut tuner = cfg
        .auto_batch
        .then(|| AutoBatch::new(targets, trace, cfg.batch.max(1)));
    let mut next = 0usize; // auto: first query of the next slice
    loop {
        let batch: Cow<'_, [usize]> = match &mut tuner {
            None => match planned.next() {
                Some(b) => Cow::Borrowed(b),
                None => break,
            },
            Some(_) if next >= trace.len() => break,
            Some(t) => {
                let end = (next + t.cur).min(trace.len());
                let ids = order_batch(trace, next..end, cfg.hilbert_batching, &t.universe);
                next = end;
                Cow::Owned(ids)
            }
        };
        fed.batches += 1;
        fed.widest = fed.widest.max(batch.len());
        let subs: Vec<Vec<usize>> = match routes {
            None => vec![batch.into_owned()],
            Some(routes) => {
                let mut subs = vec![Vec::new(); targets.len()];
                for &qid in batch.iter() {
                    for &s in &routes[qid] {
                        subs[s].push(qid);
                    }
                }
                subs
            }
        };
        let full = targets
            .iter()
            .filter(|t| t.queue.len() >= t.queue.capacity())
            .count();
        fed.max_full_queues = fed.max_full_queues.max(full);
        for (s, sub) in subs.into_iter().enumerate() {
            if sub.is_empty() {
                continue;
            }
            let target = &targets[s];
            fed.routed[s] += sub.len() as u64;
            if let Some(pq) = &target.prefetch {
                // Announce the sub-batch's page schedule before the
                // sub-batch itself so the I/O threads start on it ahead of
                // the executing workers. `try_push` is lossy by design: a
                // full queue means they are already `readahead` ahead.
                let probes: Vec<SpatialQuery> = sub.iter().map(|&qid| trace[qid]).collect();
                for page in target.engine.prefetch_schedule(&probes) {
                    pq.try_push(page);
                }
            }
            if !cfg.shed {
                target.queue.push((sub, Instant::now()));
            } else if let Err((lost, _)) = target.queue.try_push((sub, Instant::now())) {
                fed.shed_batches[s] += 1;
                fed.shed[s] += lost.len() as u64;
                for qid in lost {
                    shed_flags[qid] = true;
                }
            }
        }
        if let Some(t) = tuner.as_mut().filter(|_| next < trace.len()) {
            t.batch_fed(targets);
        }
    }
    for target in targets {
        target.queue.close();
        if let Some(pq) = &target.prefetch {
            pq.close();
        }
    }
    fed.shed_queries = shed_flags.iter().filter(|&&f| f).count() as u64;
    fed.autobatch = tuner.map(|t| AutoBatchSummary {
        final_batch: t.cur,
        ..t.summary
    });
    fed
}

/// How many batches the auto-batch feeder admits between retune
/// decisions — long enough to average out per-batch noise in the cache
/// and I/O counters, short enough to adapt within a few hundred queries.
const AUTO_BATCH_WINDOW: usize = 8;

/// The self-tuning batch size (`--auto-batch`): the feeder slices the
/// trace into arrival-order batches of the *current* size and re-scores
/// the run every [`AUTO_BATCH_WINDOW`] batches from two feedback signals —
/// the targets' cache hit fraction and their disks' sequential-read
/// fraction over the window. A low score means poor locality: the batch
/// grows (up to 4× the configured base) so the Hilbert sort gets more
/// queries to order into a spatial sweep. A recovered score decays the
/// batch back toward the base, bounding queue latency.
struct AutoBatch {
    universe: Aabb,
    base: usize,
    cap: usize,
    cur: usize,
    since_retune: usize,
    summary: AutoBatchSummary,
    win_io: IoStatsSnapshot,
    win_cache: CacheStats,
}

impl AutoBatch {
    fn new<E: QueryEngine + ?Sized>(
        targets: &[Target<'_, E>],
        trace: &[SpatialQuery],
        base: usize,
    ) -> Self {
        let (win_io, win_cache) = Self::signals(targets);
        Self {
            universe: center_universe(trace),
            base,
            cap: base.saturating_mul(4).max(base),
            cur: base,
            since_retune: 0,
            summary: AutoBatchSummary::default(),
            win_io,
            win_cache,
        }
    }

    /// The feedback counters, summed over every target.
    fn signals<E: QueryEngine + ?Sized>(
        targets: &[Target<'_, E>],
    ) -> (IoStatsSnapshot, CacheStats) {
        targets.iter().fold(Default::default(), |(io, cache), t| {
            (
                io.merged(&t.engine.io_snapshot()),
                cache.merged(&t.engine.cache_stats()),
            )
        })
    }

    /// Called after each admitted batch that is not the last: retunes once
    /// a window is through.
    fn batch_fed<E: QueryEngine + ?Sized>(&mut self, targets: &[Target<'_, E>]) {
        self.since_retune += 1;
        if self.since_retune < AUTO_BATCH_WINDOW {
            return;
        }
        self.since_retune = 0;
        // Score the window from whichever signals it produced: the
        // caches' hit fraction and/or the sequential-read split. A window
        // with neither (no page touched) does not retune.
        let (io_now, cache_now) = Self::signals(targets);
        let io = io_now.delta_since(&self.win_io);
        let cache = cache_now.delta_since(&self.win_cache);
        (self.win_io, self.win_cache) = (io_now, cache_now);
        let mut score = 0.0f64;
        let mut signals = 0u32;
        if cache.hits + cache.misses > 0 {
            score += cache.hit_fraction();
            signals += 1;
        }
        if io.reads() > 0 {
            score += io.seq_read_fraction();
            signals += 1;
        }
        if signals > 0 {
            let score = score / f64::from(signals);
            self.summary.retunes += 1;
            if score < 0.5 && self.cur < self.cap {
                self.cur = (self.cur * 2).min(self.cap);
                self.summary.grows += 1;
            } else if score > 0.8 && self.cur > self.base {
                self.cur = (self.cur / 2).max(self.base);
                self.summary.shrinks += 1;
            }
        }
    }
}

/// The one target-local pool: `cfg.threads` workers, each with its own
/// [`QuerySession`], drain the target's queue; when the target has a
/// prefetch queue, `cfg.io_depth` more threads land its pages in the
/// cache. With a `feeder`, worker 0 runs it before it starts draining.
/// Returns the workers' outputs in worker order.
fn run_pool<E: QueryEngine + ?Sized>(
    target: &Target<'_, E>,
    trace: &[SpatialQuery],
    cfg: &ServeConfig,
    feeder: Option<&(dyn Fn() + Sync)>,
) -> Vec<WorkerOut> {
    let workers = cfg.threads.max(1);
    let io_threads = match target.prefetch {
        Some(_) => cfg.io_depth.max(1),
        None => 0,
    };
    let mut outs = StagePool::new(workers + io_threads).scoped_run(|w| {
        let mut done: Vec<Executed> = Vec::new();
        if w >= workers {
            // Dedicated prefetch I/O thread: pop page ids and land them in
            // the cache until the feeder closes the queue. Device latency
            // (real file seeks, or the injected `Disk` read latency) is
            // paid here, off the workers' critical path.
            let pq = target.prefetch.as_ref().expect("io thread without queue");
            let mut scratch = Vec::new();
            while let Some(id) = pq.pop() {
                target.engine.prefetch_page(id, &mut scratch);
            }
            return WorkerOut {
                done,
                hits: 0,
                misses: 0,
            };
        }
        let mut session = target.engine.session(cfg.pool_pages);
        if let (0, Some(feeder)) = (w, feeder) {
            // Interleaving feeding with the other workers' draining keeps
            // the backlog within `queue_batches`.
            feeder();
        }
        while let Some((qids, admitted)) = target.queue.pop() {
            let wait = admitted.elapsed().as_nanos() as u64;
            for qid in qids {
                done.push(execute_one(&mut *session, trace, qid, wait));
            }
        }
        let (hits, misses) = session.pool_counters();
        WorkerOut { done, hits, misses }
    });
    // The I/O threads execute no queries and own no session; they don't
    // appear in per-worker stats.
    outs.truncate(workers);
    outs
}

/// The only place a probe is executed, timed and attributed.
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

/// The one gather: merges the targets' partials per query (targets hold
/// disjoint element sets, so the sorted union of their ascending partials
/// is the single-engine answer), takes each query's critical path (the
/// maximum over its partials), summarises per target and per run, and
/// publishes the run-end metrics.
fn gather(
    outs: impl ExactSizeIterator<Item = TargetOut>,
    fed: Fed,
    routes: Option<&[Vec<usize>]>,
    trace: &[SpatialQuery],
    cfg: &ServeConfig,
    wall: Duration,
    obs: &tfm_obs::MetricsRegistry,
) -> ServeOutcome {
    use tfm_obs::{names, Histogram, QueryTrace};
    let workers = cfg.threads.max(1);
    let publish = obs.is_enabled();
    let mut results: Vec<Vec<ElementId>> = vec![Vec::new(); trace.len()];
    // One record per query, keyed by position: the accumulator of the
    // merge, and the trace vector when the caller asked for one.
    let mut per_query: Vec<QueryTrace> = (0..trace.len() as u64)
        .map(|trace_id| QueryTrace {
            trace_id,
            ..QueryTrace::default()
        })
        .collect();
    let mut stats = ServeStats {
        queries: trace.len() as u64,
        batches: fed.batches as u64,
        max_batch: fed.widest,
        threads: workers,
        hilbert_batching: cfg.hilbert_batching,
        wall,
        autobatch: fed.autobatch,
        routed_partials: fed.routed.iter().sum(),
        shed_partials: fed.shed.iter().sum(),
        shed_queries: fed.shed_queries,
        max_cluster_pressure: fed.max_full_queues as f64 / outs.len() as f64,
        ..ServeStats::default()
    };
    for (s, out) in outs.enumerate() {
        // Latencies accumulate into the shared log-bucketed histogram type
        // (always-on, local to this run) rather than per-sample vectors.
        let service = Histogram::new();
        let wait = Histogram::new();
        let mut shard = ShardStats {
            shard: s,
            routed: fed.routed[s],
            shed_batches: fed.shed_batches[s],
            shed: fed.shed[s],
            cache: out.cache,
            io: out.io,
            ..ShardStats::default()
        };
        for (w, worker) in out.pool.into_iter().enumerate() {
            shard.pool_hits += worker.hits;
            shard.pool_misses += worker.misses;
            shard.per_worker_queries.push(worker.done.len() as u64);
            for ex in worker.done {
                service.record(ex.service_nanos);
                wait.record(ex.queue_wait_nanos);
                let q = &mut per_query[ex.qid];
                if ex.service_nanos >= q.service_nanos {
                    q.worker = (s * workers + w) as u64;
                    q.service_nanos = ex.service_nanos;
                }
                q.queue_wait_nanos = q.queue_wait_nanos.max(ex.queue_wait_nanos);
                q.pool_hits += ex.pool_hits;
                q.pool_misses += ex.pool_misses;
                q.result_ids += ex.ids.len() as u64;
                let merged = &mut results[ex.qid];
                if merged.is_empty() {
                    *merged = ex.ids;
                } else {
                    merged.extend(ex.ids);
                    merged.sort_unstable();
                }
            }
        }
        shard.executed = shard.per_worker_queries.iter().sum();
        let (service, wait) = (service.snapshot(), wait.snapshot());
        shard.service = LatencySummary::from_histogram(&service);
        shard.queue_wait = LatencySummary::from_histogram(&wait);
        if publish {
            shard.io.publish(obs);
            shard.cache.publish_shared_extras(obs);
        }
        if publish && routes.is_some() {
            // The per-partial and per-shard half of the shard.* family.
            obs.histogram(names::SHARD_SERVICE_NANOS)
                .merge_snapshot(&service);
            obs.histogram(names::SHARD_QUEUE_WAIT_NANOS)
                .merge_snapshot(&wait);
            obs.counter(&format!("shard.{s}.queries"))
                .add(shard.executed);
            obs.counter(&format!("shard.{s}.pool_hits"))
                .add(shard.pool_hits);
            obs.counter(&format!("shard.{s}.pool_misses"))
                .add(shard.pool_misses);
            obs.histogram(&format!("shard.{s}.queue_wait_nanos"))
                .merge_snapshot(&wait);
        }
        stats.pool_hits += shard.pool_hits;
        stats.pool_misses += shard.pool_misses;
        stats.io = stats.io.merged(&shard.io);
        stats.cache = stats.cache.merged(&shard.cache);
        stats
            .per_worker_queries
            .extend_from_slice(&shard.per_worker_queries);
        stats.per_shard.push(shard);
    }

    let service = Histogram::new();
    let wait = Histogram::new();
    for q in &per_query {
        service.record(q.service_nanos);
        wait.record(q.queue_wait_nanos);
        stats.result_ids += q.result_ids;
    }
    let (service, wait) = (service.snapshot(), wait.snapshot());
    stats.latency = LatencySummary::from_histogram(&service);
    stats.queue_wait = LatencySummary::from_histogram(&wait);
    stats.fanout_max = match routes {
        Some(routes) => routes.iter().map(Vec::len).max().unwrap_or(0),
        None => usize::from(!trace.is_empty()),
    };
    if !trace.is_empty() {
        stats.fanout_mean = stats.routed_partials as f64 / trace.len() as f64;
    }

    // Run-end publication (one shot, so per-query counters never
    // double-count): the serve.* family plus the cache/io signals this run
    // owns, and for a routed run the shard.* family. `cache.hits`/
    // `cache.misses` come from the handle-local pool counters; the caches
    // contributed only their internal extras above (evictions, contention).
    if publish {
        obs.counter(names::SERVE_QUERIES).add(stats.queries);
        obs.counter(names::SERVE_BATCHES).add(stats.batches);
        obs.counter(names::SERVE_RESULT_IDS).add(stats.result_ids);
        obs.histogram(names::SERVE_WALL_NANOS)
            .record(wall.as_nanos() as u64);
        obs.histogram(names::SERVE_SERVICE_NANOS)
            .merge_snapshot(&service);
        obs.histogram(names::SERVE_QUEUE_WAIT_NANOS)
            .merge_snapshot(&wait);
        obs.counter(names::CACHE_HITS).add(stats.pool_hits);
        obs.counter(names::CACHE_MISSES).add(stats.pool_misses);
        if let Some(ab) = &stats.autobatch {
            obs.counter(names::SERVE_AUTOBATCH_RETUNES).add(ab.retunes);
            obs.counter(names::SERVE_AUTOBATCH_GROWS).add(ab.grows);
            obs.counter(names::SERVE_AUTOBATCH_SHRINKS).add(ab.shrinks);
            obs.gauge(names::SERVE_AUTOBATCH_FINAL_BATCH)
                .set(ab.final_batch as i64);
        }
        if let Some(routes) = routes {
            obs.counter(names::SHARD_QUERIES).add(stats.queries);
            obs.counter(names::SHARD_ROUTED).add(stats.routed_partials);
            obs.counter(names::SHARD_SHED_BATCHES)
                .add(fed.shed_batches.iter().sum());
            obs.counter(names::SHARD_SHED_QUERIES)
                .add(stats.shed_partials);
            obs.gauge(names::SHARD_COUNT)
                .set(stats.per_shard.len() as i64);
            obs.gauge(names::SHARD_CLUSTER_PRESSURE_MAX_PCT)
                .set((stats.max_cluster_pressure * 100.0).round() as i64);
            let fanout = obs.histogram(names::SHARD_FANOUT);
            for r in routes {
                fanout.record(r.len() as u64);
            }
        }
    }

    ServeOutcome {
        results,
        stats,
        traces: if cfg.collect_traces {
            per_query
        } else {
            Vec::new()
        },
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
        // The routing block of a single engine is one trivial row.
        assert_eq!(out.stats.per_shard.len(), 1);
        assert_eq!(out.stats.per_shard[0].executed, 300);
        assert_eq!((out.stats.fanout_max, out.stats.routed_partials), (1, 300));
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
    fn a_single_engine_sheds_and_accounts_like_a_shard() {
        let (disk, idx, elems) = fixture(3000, 36);
        let trace = generate_trace(&QueryTraceSpec::uniform(600, 37));
        let expected = reference(&elems, &trace);
        let engine = TransformersEngine::new(&idx, &disk);
        // A one-slot queue and tiny batches make refusals plausible but not
        // guaranteed; either way every partial is executed or counted.
        let cfg = ServeConfig {
            batch: 4,
            queue_batches: 1,
            ..ServeConfig::default().with_threads(2).with_shedding()
        };
        let out = serve_trace(&engine, &trace, &cfg);
        let row = &out.stats.per_shard[0];
        assert_eq!(row.executed + row.shed, 600);
        assert_eq!((row.shed, row.routed), (out.stats.shed_partials, 600));
        assert_eq!(out.stats.shed_queries, out.stats.shed_partials);
        let answered = out
            .results
            .iter()
            .zip(&expected)
            .filter(|(got, want)| got == want);
        assert!(answered.count() as u64 >= row.executed);
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
