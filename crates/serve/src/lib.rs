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
//! * [`RequestQueue`] — the bounded admission edge: the feeder admits
//!   every sub-batch with a blocking `push` into a queue four sub-batches
//!   deep, so a full queue is backpressure and no query is ever dropped.
//! * **Locality-aware batching** — the feeder splits the trace into
//!   arrival-order batches and sorts each batch by the Hilbert order of
//!   the queries' probe centers. Consecutive queries of a sorted batch
//!   probe neighbouring regions, so their candidate pages overlap or
//!   adjoin: page accesses that would be random seeks under
//!   arrival order become buffer hits or sequential reads — directly
//!   visible in the [`tfm_storage::IoStatsSnapshot`] sequential/random
//!   split ([`ServeStats::seq_read_fraction`]). See `DESIGN.md` for why
//!   this falls out of the disk model.
//! * **One serve path** — [`serve_trace`] (one engine) and
//!   [`serve_sharded`] (a [`ShardedCluster`] of self-contained index
//!   shards behind a [`ShardRouter`]) are the one-target and N-target
//!   cases of the same executor, under one [`ServeConfig`] and returning
//!   one [`ServeOutcome`]: one feeder plans batches, routes them and
//!   admits each sub-batch; one target-local pool opens sessions, pops
//!   the queue and times every probe; one gather merges the partials per
//!   query. Per-query traces therefore work on either entry point. Every
//!   page is read by the query that needs it: there are no I/O threads.
//!   See `ARCHITECTURE.md`.
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
//! **byte-identical for any thread count, shard count and batch size**.
//! The `serve_equivalence` and `shard_equivalence` integration tests hold
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
mod shard;
mod stats;

pub use engines::{
    GipsyEngine, MutableTransformersEngine, QueryEngine, QuerySession, RtreeEngine,
    ServeEngineKind, TransformersEngine,
};
pub use shard::{plan_shards, serve_sharded, IndexShard, ShardRouter, ShardSpec, ShardedCluster};
pub use stats::{LatencySummary, ServeStats, ShardStats};
pub use tfm_pool::RequestQueue;

use std::sync::OnceLock;
use std::time::{Duration, Instant};
use tfm_geom::{hilbert, Aabb, ElementId, SpatialQuery};
use tfm_pool::StagePool;
use tfm_storage::{CacheStats, IoStatsSnapshot};

/// Capacity of every target's request queue, in (sub-)batches: the
/// backpressure window between the feeder and a target's workers.
const QUEUE_BATCHES: usize = 4;

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
    /// Page-cache budget in pages. [`serve_sharded`] builds its shards'
    /// caches from it, an even split (`pool_pages / shards`, floor 16).
    /// [`serve_trace`] does not read it — a borrowed engine's cache was
    /// sized when the engine was built (`with_shared_cache`) — so there it
    /// is the number the harnesses that *build* engines (`tfm-bench`, the
    /// CLI) size that cache with.
    pub pool_pages: usize,
    /// Collect one [`tfm_obs::QueryTrace`] per query in
    /// [`ServeOutcome::traces`] (queue-wait/service split and per-query
    /// pool-counter attribution). Off by default: the records are kept
    /// only when asked for.
    pub collect_traces: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            batch: 64,
            pool_pages: tfm_storage::DEFAULT_POOL_PAGES,
            collect_traces: false,
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

    /// Builder: collect per-query [`tfm_obs::QueryTrace`] records.
    pub fn with_traces(mut self) -> Self {
        self.collect_traces = true;
        self
    }
}

/// What a serve run returns: per-query results plus aggregate statistics.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// `results[i]` is the ascending id list answering `trace[i]`.
    /// Identical for any thread count, shard count and batch size.
    pub results: Vec<Vec<ElementId>>,
    /// Aggregate and per-target counters of the run.
    pub stats: ServeStats,
    /// Per-query trace records, in trace-ID order; empty unless
    /// [`ServeConfig::collect_traces`] was set. The trace ID is the
    /// query's position in the input trace, so IDs are stable across
    /// thread counts and batch sizes. A scattered query's record holds
    /// its critical path (service and wait: the maximum over its
    /// partials, `worker` the one that ran the slowest partial) and the
    /// sums of its partials' pool counters and result ids.
    pub traces: Vec<tfm_obs::QueryTrace>,
}

/// Splits `trace` into arrival-order batches of `batch` queries and sorts
/// each batch by the Hilbert index of the probe centers (over the trace's
/// own center bounding box).
///
/// Batch *composition* is arrival-order — only the order *within* a batch
/// changes — so a batch of one replays the trace in arrival order.
fn plan_batches(trace: &[SpatialQuery], batch: usize) -> Vec<Vec<usize>> {
    let universe = Aabb::union_all(trace.iter().map(|q| Aabb::from_point(q.center())));
    (0..trace.len())
        .step_by(batch)
        .map(|start| {
            let end = (start + batch).min(trace.len());
            let mut ids: Vec<usize> = (start..end).collect();
            // Tie-break on the query position so the plan is total.
            ids.sort_by_key(|&i| (hilbert::index_of_point(&trace[i].center(), &universe), i));
            ids
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

/// One serve target: an engine with the admission edge in front of its
/// pool.
struct Target<'a, E: ?Sized> {
    engine: &'a E,
    /// Each item carries its admission instant so the popping worker can
    /// split queue wait from service time per sub-batch.
    queue: RequestQueue<(Vec<usize>, Instant)>,
}

/// What the feeder counted while scattering (per-target vectors are
/// indexed by target).
struct Fed {
    batches: usize,
    widest: usize,
    routed: Vec<u64>,
    /// Most target queues simultaneously full as a batch was admitted.
    max_full_queues: usize,
}

impl Fed {
    fn new(targets: usize) -> Self {
        Self {
            batches: 0,
            widest: 0,
            routed: vec![0; targets],
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
/// for any `threads`/`batch` setting.
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
    // The inline fast path: one engine, one worker — no queue.
    let inline = router.is_none() && workers == 1;
    let plan = plan_batches(trace, batch);
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
                queue: RequestQueue::new(QUEUE_BATCHES),
            })
            .collect();
        let fed = OnceLock::new();
        let feeder = || {
            let out = feed(&targets, routes.as_deref(), &plan);
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

/// The one feeder: takes the next planned batch, routes it into one
/// sub-batch per target preserving the within-batch (Hilbert)
/// order so each target still sweeps, and admits each sub-batch with a
/// blocking push. Closes every queue when the trace is through.
fn feed<E: QueryEngine + ?Sized>(
    targets: &[Target<'_, E>],
    routes: Option<&[Vec<usize>]>,
    plan: &[Vec<usize>],
) -> Fed {
    let mut fed = Fed::new(targets.len());
    for batch in plan {
        fed.batches += 1;
        fed.widest = fed.widest.max(batch.len());
        let subs: Vec<Vec<usize>> = match routes {
            None => vec![batch.clone()],
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
            fed.routed[s] += sub.len() as u64;
            targets[s].queue.push((sub, Instant::now()));
        }
    }
    for target in targets {
        target.queue.close();
    }
    fed
}

/// The one target-local pool: `cfg.threads` workers, each with its own
/// [`QuerySession`], drain the target's queue. With a `feeder`, worker 0
/// runs it before it starts draining. Returns the workers' outputs in
/// worker order.
fn run_pool<E: QueryEngine + ?Sized>(
    target: &Target<'_, E>,
    trace: &[SpatialQuery],
    cfg: &ServeConfig,
    feeder: Option<&(dyn Fn() + Sync)>,
) -> Vec<WorkerOut> {
    StagePool::new(cfg.threads.max(1)).scoped_run(|w| {
        let mut done: Vec<Executed> = Vec::new();
        let mut session = target.engine.session(cfg.pool_pages);
        if let (0, Some(feeder)) = (w, feeder) {
            // Interleaving feeding with the other workers' draining keeps
            // the backlog within `QUEUE_BATCHES`.
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
    })
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
        wall,
        routed_partials: fed.routed.iter().sum(),
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
            obs.counter(&format!("shard.{s}.queries")).add(shard.routed);
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
        if let Some(routes) = routes {
            obs.counter(names::SHARD_QUERIES).add(stats.queries);
            obs.counter(names::SHARD_ROUTED).add(stats.routed_partials);
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
        let batches = plan_batches(&trace, 64);
        assert_eq!(batches.len(), 4);
        assert_eq!(batches[3].len(), 250 - 3 * 64);
        // Composition is arrival-order; only the order within a batch is
        // the sort's.
        for (i, b) in batches.iter().enumerate() {
            let mut sorted = b.clone();
            sorted.sort_unstable();
            let expected: Vec<usize> = (i * 64..(i * 64 + b.len())).collect();
            assert_eq!(sorted, expected);
        }
        // The Hilbert plan actually reorders something, and batches of
        // one replay the trace in arrival order.
        let arrival: Vec<usize> = (0..trace.len()).collect();
        assert_ne!(batches.concat(), arrival);
        assert_eq!(plan_batches(&trace, 1).concat(), arrival);
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
        assert_eq!(out.stats.per_shard[0].routed, 300);
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
            for batch in [1, 32] {
                let cfg = ServeConfig::default()
                    .with_threads(threads)
                    .with_batch(batch);
                let out = serve_trace(&engine, &trace, &cfg);
                assert_eq!(
                    out.results, expected,
                    "threads = {threads}, batch = {batch}"
                );
                assert_eq!(out.stats.per_worker_queries.iter().sum::<u64>(), 240);
                assert_eq!(out.stats.threads, threads);
            }
        }
    }

    #[test]
    fn hilbert_batching_raises_the_sequential_read_fraction() {
        // A large uniform trace over a sizeable index, one worker: batches
        // of one replay it in arrival order, which hops randomly; one big
        // Hilbert-ordered batch sweeps.
        let (disk, idx, _) = fixture(30_000, 16);
        let trace = generate_trace(&QueryTraceSpec {
            count: 1500,
            max_window_side: 12.0,
            ..QueryTraceSpec::uniform(1500, 17)
        });
        let engine = TransformersEngine::new(&idx, &disk).with_shared_cache(64, 1);
        let unbatched = serve_trace(&engine, &trace, &ServeConfig::default().with_batch(1));
        engine.reset_cache();
        let batched = serve_trace(&engine, &trace, &ServeConfig::default().with_batch(1500));
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
    fn a_single_engine_accounts_like_a_shard() {
        let (disk, idx, elems) = fixture(3000, 36);
        let trace = generate_trace(&QueryTraceSpec::uniform(600, 37));
        let engine = TransformersEngine::new(&idx, &disk);
        // Tiny batches keep the queue full while worker 0 feeds: the
        // blocking push waits, and every partial is executed.
        let cfg = ServeConfig::default().with_threads(2).with_batch(4);
        let out = serve_trace(&engine, &trace, &cfg);
        assert_eq!(out.results, reference(&elems, &trace));
        let row = &out.stats.per_shard[0];
        assert_eq!((row.routed, out.stats.routed_partials), (600, 600));
        assert_eq!(row.per_worker_queries.iter().sum::<u64>(), row.routed);
        assert_eq!(row.per_worker_queries, out.stats.per_worker_queries);
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
