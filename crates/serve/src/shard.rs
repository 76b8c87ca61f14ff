//! The sharded scatter-gather serve cluster.
//!
//! One [`SharedPageCache`](tfm_storage::SharedPageCache) and one
//! [`RequestQueue`](crate::RequestQueue) cap what a single serve instance
//! can absorb: every worker funnels through the same shard locks and the
//! same admission edge. This module splits the *dataset* instead of just
//! the work — the horizontal-scaling seam of the ROADMAP:
//!
//! 1. [`plan_shards`] partitions the elements into N disjoint subsets
//!    with the same machinery the index build uses (a Hilbert-order
//!    split, or grouped STR partitions), so each subset is spatially
//!    compact.
//! 2. [`ShardedCluster::build`] turns each subset into a self-contained
//!    **index shard**: its own simulated [`Disk`], its own built index
//!    (TRANSFORMERS hierarchy or R-tree), and — at serve time — its own
//!    [`SharedPageCache`](tfm_storage::SharedPageCache) and its own
//!    `tfm-pool` worker pool. Shards share nothing, which is exactly
//!    what makes this the seam for a future multi-process split.
//! 3. [`ShardRouter`] plans each window / point / ε-ball probe onto only
//!    the shards whose element bounds its probe box intersects: a shard
//!    that cannot hold a match never sees the query.
//! 4. [`serve_sharded`] scatter-gathers: a feeder routes each planned
//!    batch into per-shard bounded [`RequestQueue`](crate::RequestQueue)s
//!    (blocking admission is backpressure; [`ShardServeConfig::shed`]
//!    switches to load shedding), per-shard worker pools drain them, and
//!    the partial id lists are merged back per query.
//!
//! # Determinism
//!
//! Batch composition reuses the unsharded planner, each element lives in
//! exactly one shard, and every shard-local result is the ascending id
//! list of its shard's matches — so the merged result (union of disjoint
//! sorted sets, re-sorted) is **byte-identical to the unsharded serve
//! path at any shard count and any worker count**. The
//! `shard_equivalence` integration test holds all three engines to that
//! across a 1/2/4/8-shard × 1/2/4-worker grid; a property test checks
//! the router never skips a shard holding a matching element. (Load
//! shedding deliberately breaks the guarantee — shed partials are
//! counted, not silently dropped.)

use std::time::{Duration, Instant};

use crate::{
    GipsyEngine, LatencySummary, QueryEngine, RequestQueue, RtreeEngine, TransformersEngine,
};
use tfm_geom::{hilbert, Aabb, ElementId, HasMbb, SpatialElement, SpatialQuery};
use tfm_partition::str_partition;
use tfm_pool::StagePool;
use tfm_rtree::RTree;
use tfm_storage::{
    CacheStats, Disk, IoStatsSnapshot, PrefetchQueue, SharedPageCache, StoreBackend,
};
use transformers::{IndexConfig, TransformersIndex};

/// How [`plan_shards`] splits the dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPartitioner {
    /// Sort elements by the Hilbert index of their MBB centers and cut
    /// the curve into N near-equal contiguous runs. Cheap, and shards
    /// inherit the curve's locality.
    Hilbert,
    /// Run the index build's own STR partitioner at capacity ≈ n/N and
    /// group consecutive partitions into N shards. Shard bounds follow
    /// the STR tiling instead of the curve.
    Str,
}

/// Which index structure each shard builds and serves from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardEngineKind {
    /// The TRANSFORMERS hierarchy behind [`TransformersEngine`].
    Transformers,
    /// The TRANSFORMERS hierarchy crawled GIPSY-style ([`GipsyEngine`]).
    Gipsy,
    /// An STR-bulk-loaded R-tree behind [`RtreeEngine`].
    Rtree,
}

/// Build-time shape of a [`ShardedCluster`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    /// Number of shards (`0` is clamped to 1).
    pub shards: usize,
    /// Dataset split strategy.
    pub partitioner: ShardPartitioner,
    /// Index structure per shard.
    pub engine: ShardEngineKind,
    /// Page size of each shard's private disk.
    pub page_size: usize,
    /// Storage backend of each shard's private disk. With
    /// [`StoreBackend::File`] every shard writes its own page image
    /// (`shard<i>.pages`) under the given directory, so shards never
    /// contend on one file either.
    pub backend: StoreBackend,
    /// Injected device-read latency scale on each shard's disk
    /// ([`Disk::with_read_latency`]): every serve-time page read sleeps
    /// the modeled cost times this factor. `0.0` (default) injects
    /// nothing. Applied after the index build so bulk loading stays
    /// fast; used to make queue-depth/readahead effects deterministic
    /// on hosts whose real I/O is too fast to measure.
    pub read_latency: f64,
}

impl Default for ShardSpec {
    fn default() -> Self {
        Self {
            shards: 1,
            partitioner: ShardPartitioner::Hilbert,
            engine: ShardEngineKind::Transformers,
            page_size: tfm_storage::DEFAULT_PAGE_SIZE,
            backend: StoreBackend::Mem,
            read_latency: 0.0,
        }
    }
}

impl ShardSpec {
    /// Builder: sets the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Builder: sets the split strategy.
    pub fn with_partitioner(mut self, partitioner: ShardPartitioner) -> Self {
        self.partitioner = partitioner;
        self
    }

    /// Builder: sets the per-shard index structure.
    pub fn with_engine(mut self, engine: ShardEngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Builder: sets the per-shard storage backend.
    pub fn with_backend(mut self, backend: StoreBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Builder: sets the injected serve-time read-latency scale.
    pub fn with_read_latency(mut self, scale: f64) -> Self {
        self.read_latency = scale;
        self
    }
}

/// Splits `elements` into `shards` disjoint, spatially compact subsets.
///
/// Every element lands in exactly one subset (some may be empty when
/// `shards > elements.len()`), and the split depends only on the input
/// and the strategy — never on thread counts — so cluster builds are
/// deterministic.
pub fn plan_shards(
    elements: &[SpatialElement],
    shards: usize,
    partitioner: ShardPartitioner,
) -> Vec<Vec<SpatialElement>> {
    let n = shards.max(1);
    if elements.is_empty() {
        return vec![Vec::new(); n];
    }
    match partitioner {
        ShardPartitioner::Hilbert => {
            let universe = Aabb::union_all(elements.iter().map(|e| e.mbb));
            let mut order: Vec<usize> = (0..elements.len()).collect();
            // Tie-break on the element id so the split is total.
            order.sort_by_key(|&i| {
                (
                    hilbert::index_of_point(&elements[i].center(), &universe),
                    elements[i].id,
                )
            });
            let total = order.len();
            (0..n)
                .map(|g| {
                    order[total * g / n..total * (g + 1) / n]
                        .iter()
                        .map(|&i| elements[i])
                        .collect()
                })
                .collect()
        }
        ShardPartitioner::Str => {
            let total = elements.len();
            let capacity = total.div_ceil(n);
            let parts = str_partition(elements.to_vec(), capacity);
            // STR may emit more than N partitions; group consecutive
            // (spatially adjacent) partitions so shard g closes once the
            // running element count reaches g+1 N-ths of the total. A run
            // of partitions is one slice of the partitioned vector.
            let items = parts.items();
            let mut out: Vec<Vec<SpatialElement>> = Vec::with_capacity(n);
            let mut assigned = 0usize;
            let mut start = 0usize;
            for part in parts.iter() {
                while out.len() + 1 < n && assigned * n >= total * (out.len() + 1) {
                    out.push(items[start..assigned].to_vec());
                    start = assigned;
                }
                assigned += part.items.len();
            }
            out.push(items[start..].to_vec());
            out.resize(n, Vec::new());
            out
        }
    }
}

/// One self-contained index shard: a private disk plus a built index
/// over this shard's elements only.
pub struct IndexShard {
    disk: Disk,
    index: ShardIndex,
    bounds: Aabb,
    elements: u64,
}

enum ShardIndex {
    Transformers(TransformersIndex),
    Rtree(RTree),
}

impl IndexShard {
    fn build(elements: Vec<SpatialElement>, spec: &ShardSpec, shard: usize) -> Self {
        let bounds = Aabb::union_all(elements.iter().map(|e| e.mbb));
        let count = elements.len() as u64;
        let disk = Disk::for_backend(&spec.backend, spec.page_size, &format!("shard{shard}"))
            .expect("shard disk backend");
        let index = match spec.engine {
            ShardEngineKind::Rtree => ShardIndex::Rtree(RTree::bulk_load(&disk, elements)),
            // GIPSY serves from the TRANSFORMERS structure too.
            _ => ShardIndex::Transformers(TransformersIndex::build(
                &disk,
                elements,
                &IndexConfig::default(),
            )),
        };
        // Latency injection starts after the build: bulk loading stays
        // fast, only serve-time reads pay the modeled sleep.
        let disk = disk.with_read_latency(spec.read_latency);
        Self {
            disk,
            index,
            bounds,
            elements: count,
        }
    }

    /// Union of this shard's element MBBs — the routing box. Empty for
    /// an empty shard (and an empty box intersects nothing, so empty
    /// shards are never routed to).
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// Elements indexed by this shard.
    pub fn elements(&self) -> u64 {
        self.elements
    }

    /// Constructs this shard's serve engine with its own shared page
    /// cache of `cache_pages` pages over `cache_shards` lock stripes.
    fn engine(
        &self,
        kind: ShardEngineKind,
        cache_pages: usize,
        cache_shards: usize,
    ) -> Box<dyn QueryEngine + '_> {
        match (&self.index, kind) {
            (ShardIndex::Rtree(tree), _) => Box::new(
                RtreeEngine::new(tree, &self.disk).with_shared_cache(cache_pages, cache_shards),
            ),
            (ShardIndex::Transformers(idx), ShardEngineKind::Gipsy) => Box::new(
                GipsyEngine::new(idx, &self.disk).with_shared_cache(cache_pages, cache_shards),
            ),
            (ShardIndex::Transformers(idx), _) => Box::new(
                TransformersEngine::new(idx, &self.disk)
                    .with_shared_cache(cache_pages, cache_shards),
            ),
        }
    }
}

/// Plans probes onto shards: a query is routed to exactly the shards
/// whose element bounds its probe box intersects.
///
/// Soundness leans on two established facts: every element's MBB is
/// contained in its shard's routing box (the box is their union), and
/// [`SpatialQuery::probe`] is a sound prefilter (an element a query
/// matches always intersects the probe box — property-tested in
/// `tfm-geom`). A shard holding a matching element therefore always
/// intersects the probe box and is always routed to.
pub struct ShardRouter {
    bounds: Vec<Aabb>,
}

impl ShardRouter {
    /// Builds a router over per-shard routing boxes.
    pub fn new(bounds: Vec<Aabb>) -> Self {
        Self { bounds }
    }

    /// Routing boxes, indexed by shard.
    pub fn bounds(&self) -> &[Aabb] {
        &self.bounds
    }

    /// The ascending list of shards `query` must be scattered to.
    pub fn route(&self, query: &SpatialQuery) -> Vec<usize> {
        let probe = query.probe();
        self.bounds
            .iter()
            .enumerate()
            .filter(|(_, b)| b.intersects(&probe))
            .map(|(s, _)| s)
            .collect()
    }
}

/// N self-contained index shards plus the router that targets them.
pub struct ShardedCluster {
    shards: Vec<IndexShard>,
    router: ShardRouter,
    spec: ShardSpec,
}

impl ShardedCluster {
    /// Partitions `elements` per `spec` and builds every shard's index.
    pub fn build(elements: Vec<SpatialElement>, spec: &ShardSpec) -> Self {
        let shards: Vec<IndexShard> = plan_shards(&elements, spec.shards, spec.partitioner)
            .into_iter()
            .enumerate()
            .map(|(i, subset)| IndexShard::build(subset, spec, i))
            .collect();
        let router = ShardRouter::new(shards.iter().map(IndexShard::bounds).collect());
        let count = shards.len();
        Self {
            shards,
            router,
            spec: ShardSpec {
                shards: count,
                ..spec.clone()
            },
        }
    }

    /// Number of shards (≥ 1).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The cluster's router.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The shards themselves (for bounds / element counts).
    pub fn shards(&self) -> &[IndexShard] {
        &self.shards
    }

    /// The spec the cluster was built with (shard count clamped).
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }
}

/// Configuration of one [`serve_sharded`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardServeConfig {
    /// Worker threads per shard (`0` is clamped to 1).
    pub workers_per_shard: usize,
    /// Queries per batch, shared with the unsharded planner.
    pub batch: usize,
    /// Hilbert-sort each batch before scattering (same planner as
    /// [`crate::serve_trace`], so composition matches the unsharded run).
    pub hilbert_batching: bool,
    /// Total page-cache budget, split evenly across shards (each shard's
    /// own `SharedPageCache` gets `pool_pages / shards`, floor 16 pages).
    pub pool_pages: usize,
    /// Per-shard bounded queue capacity in sub-batches — the
    /// backpressure window between the router and each shard's pool.
    pub queue_batches: usize,
    /// Load shedding: admit sub-batches with `try_push` and count
    /// rejections instead of blocking. Shed partials make the affected
    /// queries' results incomplete (tracked in
    /// [`ShardedServeStats::shed_queries`]); leave this off for the
    /// byte-identical path.
    pub shed: bool,
    /// Dedicated prefetch I/O threads per shard (the readahead queue
    /// depth); only consulted when [`ShardServeConfig::readahead`] is
    /// non-zero. `0` is clamped to 1.
    pub io_depth: usize,
    /// Per-shard readahead window in pages; `0` (the default) disables
    /// the prefetch pipeline. Same semantics as
    /// [`crate::ServeConfig::readahead`], applied shard-locally: each
    /// shard's feeder pushes its sub-batches' candidate pages into that
    /// shard's own bounded prefetch queue.
    pub readahead: usize,
}

impl Default for ShardServeConfig {
    fn default() -> Self {
        Self {
            workers_per_shard: 1,
            batch: 64,
            hilbert_batching: true,
            pool_pages: tfm_storage::DEFAULT_POOL_PAGES,
            queue_batches: 4,
            shed: false,
            io_depth: 1,
            readahead: 0,
        }
    }
}

impl ShardServeConfig {
    /// Builder: sets the per-shard worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers_per_shard = workers;
        self
    }

    /// Builder: sets the batch size.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Builder: switches admission from backpressure to load shedding.
    pub fn with_shedding(mut self) -> Self {
        self.shed = true;
        self
    }

    /// Builder: sets the per-shard prefetch queue depth.
    pub fn with_io_depth(mut self, io_depth: usize) -> Self {
        self.io_depth = io_depth;
        self
    }

    /// Builder: sets the per-shard readahead window (enables prefetch
    /// when non-zero).
    pub fn with_readahead(mut self, readahead: usize) -> Self {
        self.readahead = readahead;
        self
    }
}

/// Per-shard counters of one [`serve_sharded`] run.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Elements this shard indexes.
    pub elements: u64,
    /// Query partials routed to this shard.
    pub routed: u64,
    /// Query partials actually executed (= routed unless shedding).
    pub executed: u64,
    /// Sub-batches refused by the full queue (shedding mode only).
    pub shed_batches: u64,
    /// Query partials lost to those refusals.
    pub shed: u64,
    /// Per-partial service-time percentiles on this shard.
    pub service: LatencySummary,
    /// Per-partial queue-wait percentiles: admission to worker pop.
    pub queue_wait: LatencySummary,
    /// This shard's cache-handle hits.
    pub pool_hits: u64,
    /// This shard's cache-handle misses (disk page reads).
    pub pool_misses: u64,
    /// This shard's own `SharedPageCache` counters for the run.
    pub cache: CacheStats,
    /// I/O delta on this shard's private disk.
    pub io: IoStatsSnapshot,
    /// Partials served by each of this shard's workers.
    pub per_worker_queries: Vec<u64>,
}

/// Aggregate counters of one [`serve_sharded`] run.
#[derive(Debug, Clone)]
pub struct ShardedServeStats {
    /// Queries in the trace.
    pub queries: u64,
    /// Result ids returned, summed over all queries.
    pub result_ids: u64,
    /// Batches the trace was split into (same plan as unsharded).
    pub batches: u64,
    /// Shards in the cluster.
    pub shards: usize,
    /// Workers per shard.
    pub workers_per_shard: usize,
    /// Wall-clock time of the run (routing + queueing + execution + merge).
    pub wall: Duration,
    /// Per-query *critical-path* service percentiles: a scattered query's
    /// service time is the maximum over its shard partials.
    pub latency: LatencySummary,
    /// Per-query critical-path queue-wait percentiles.
    pub queue_wait: LatencySummary,
    /// Mean shards routed per query.
    pub fanout_mean: f64,
    /// Largest per-query fanout.
    pub fanout_max: usize,
    /// Query partials routed, summed over shards (= Σ per-query fanout).
    pub routed_partials: u64,
    /// Query partials lost to shedding (0 with backpressure admission).
    pub shed_partials: u64,
    /// Queries whose result is incomplete because ≥ 1 partial was shed.
    pub shed_queries: u64,
    /// Peak fraction of shard queues simultaneously full when a
    /// sub-batch was admitted — the cluster-level backpressure signal
    /// (1.0 means every shard was saturated at once).
    pub max_cluster_pressure: f64,
    /// Per-shard breakdowns.
    pub per_shard: Vec<ShardStats>,
}

impl ShardedServeStats {
    /// Queries per wall-clock second.
    pub fn throughput_qps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.queries as f64 / secs
    }

    /// Cache-handle hit fraction summed over every shard.
    pub fn pool_hit_fraction(&self) -> f64 {
        let (hits, misses) = self.per_shard.iter().fold((0u64, 0u64), |(h, m), s| {
            (h + s.pool_hits, m + s.pool_misses)
        });
        if hits + misses == 0 {
            return 0.0;
        }
        hits as f64 / (hits + misses) as f64
    }

    /// I/O deltas of all shard disks merged into one snapshot.
    pub fn io_merged(&self) -> IoStatsSnapshot {
        self.per_shard
            .iter()
            .fold(IoStatsSnapshot::default(), |acc, s| acc.merged(&s.io))
    }
}

/// What [`serve_sharded`] returns.
#[derive(Debug, Clone)]
pub struct ShardedServeOutcome {
    /// `results[i]` is the ascending id list answering `trace[i]` —
    /// byte-identical to the unsharded [`crate::serve_trace`] results at
    /// any shard count and worker count (backpressure admission).
    pub results: Vec<Vec<ElementId>>,
    /// Aggregate and per-shard counters of the run.
    pub stats: ShardedServeStats,
}

/// One executed query partial, handed back by a shard worker.
struct PartialExec {
    qid: usize,
    ids: Vec<ElementId>,
    service_nanos: u64,
    queue_wait_nanos: u64,
}

/// One shard's complete contribution.
struct ShardOut {
    done: Vec<PartialExec>,
    pool_hits: u64,
    pool_misses: u64,
    per_worker_queries: Vec<u64>,
    cache: CacheStats,
    io: IoStatsSnapshot,
}

/// Replays `trace` against the cluster: routes every planned batch onto
/// the shards its queries' probe boxes intersect, executes the per-shard
/// sub-batches on per-shard worker pools, and merges the partial results
/// deterministically.
pub fn serve_sharded(
    cluster: &ShardedCluster,
    trace: &[SpatialQuery],
    cfg: &ShardServeConfig,
) -> ShardedServeOutcome {
    serve_sharded_publishing(cluster, trace, cfg, tfm_obs::global())
}

/// [`serve_sharded`] with the registry its run-end metrics go to as a
/// parameter, so a test can read them from a registry nothing else
/// publishes into.
fn serve_sharded_publishing(
    cluster: &ShardedCluster,
    trace: &[SpatialQuery],
    cfg: &ShardServeConfig,
    obs: &tfm_obs::MetricsRegistry,
) -> ShardedServeOutcome {
    let n = cluster.shard_count();
    let workers = cfg.workers_per_shard.max(1);
    let batch = cfg.batch.max(1);
    let batches = crate::plan_batches(trace, batch, cfg.hilbert_batching);
    let n_batches = batches.len();
    let cache_pages = (cfg.pool_pages / n).max(16);
    let cache_shards = SharedPageCache::shards_for_threads(workers);

    // Route once per query: the ascending shard list its probe box hits.
    let routes: Vec<Vec<usize>> = trace.iter().map(|q| cluster.router().route(q)).collect();
    let routed_partials: u64 = routes.iter().map(|r| r.len() as u64).sum();
    let fanout_max = routes.iter().map(Vec::len).max().unwrap_or(0);

    let engines: Vec<Box<dyn QueryEngine + '_>> = cluster
        .shards
        .iter()
        .map(|s| s.engine(cluster.spec.engine, cache_pages, cache_shards))
        .collect();
    let io_before: Vec<IoStatsSnapshot> = engines.iter().map(|e| e.io_snapshot()).collect();
    let cache_before: Vec<CacheStats> = engines.iter().map(|e| e.cache_stats()).collect();

    let queues: Vec<RequestQueue<(Vec<usize>, Instant)>> = (0..n)
        .map(|_| RequestQueue::new(cfg.queue_batches.max(1)))
        .collect();
    // Per-shard readahead pipeline: one bounded prefetch queue per shard
    // whose engine supports it, drained by `io_depth` dedicated I/O
    // threads inside that shard's pool. Shards prefetch into their own
    // caches from their own disks, so the pipelines share nothing.
    let pqs: Vec<Option<PrefetchQueue>> = engines
        .iter()
        .map(|e| {
            (cfg.readahead > 0 && e.supports_prefetch()).then(|| PrefetchQueue::new(cfg.readahead))
        })
        .collect();

    let mut shed_flags: Vec<bool> = vec![false; trace.len()];
    let mut shed_batches_per_shard: Vec<u64> = vec![0; n];
    let mut shed_partials_per_shard: Vec<u64> = vec![0; n];
    let mut max_full_queues = 0usize;

    let start = Instant::now();
    let shard_outs: Vec<ShardOut> = std::thread::scope(|scope| {
        // One driver thread per shard runs that shard's worker pool; the
        // caller thread stays the feeder, so scattering overlaps
        // draining and blocking pushes are real backpressure, not
        // deadlock.
        let handles: Vec<_> = engines
            .iter()
            .zip(&queues)
            .zip(&pqs)
            .map(|((engine, queue), pq)| {
                scope.spawn(move || {
                    let io_threads = if pq.is_some() { cfg.io_depth.max(1) } else { 0 };
                    let outs = StagePool::new(workers + io_threads).scoped_run(|w| {
                        if w >= workers {
                            // Dedicated shard-local prefetch I/O thread.
                            let pq = pq.as_ref().expect("io worker without prefetch queue");
                            let mut scratch = Vec::new();
                            while let Some(id) = pq.pop() {
                                engine.prefetch_page(id, &mut scratch);
                            }
                            return (Vec::new(), 0, 0);
                        }
                        let mut session = engine.session(cache_pages);
                        let mut done: Vec<PartialExec> = Vec::new();
                        while let Some((qids, admitted)) = queue.pop() {
                            let wait = admitted.elapsed().as_nanos() as u64;
                            for qid in qids {
                                let t = Instant::now();
                                let ids = session.execute(&trace[qid]);
                                done.push(PartialExec {
                                    qid,
                                    ids,
                                    service_nanos: t.elapsed().as_nanos() as u64,
                                    queue_wait_nanos: wait,
                                });
                            }
                        }
                        let (hits, misses) = session.pool_counters();
                        (done, hits, misses)
                    });
                    let mut done = Vec::new();
                    let mut hits = 0;
                    let mut misses = 0;
                    let mut per_worker = Vec::with_capacity(workers);
                    for (w, (d, h, m)) in outs.into_iter().enumerate() {
                        if w >= workers {
                            // Prefetch I/O threads execute no partials.
                            continue;
                        }
                        per_worker.push(d.len() as u64);
                        done.extend(d);
                        hits += h;
                        misses += m;
                    }
                    (done, hits, misses, per_worker)
                })
            })
            .collect();

        // Scatter: per batch, one sub-batch per routed shard, preserving
        // the within-batch (Hilbert) order so each shard still sweeps.
        for b in &batches {
            let mut subs: Vec<Vec<usize>> = vec![Vec::new(); n];
            for &qid in b {
                for &s in &routes[qid] {
                    subs[s].push(qid);
                }
            }
            // Cluster backpressure signal: how many shard queues are
            // simultaneously full as this batch is admitted.
            let full = queues.iter().filter(|q| q.len() >= q.capacity()).count();
            max_full_queues = max_full_queues.max(full);
            for (s, sub) in subs.into_iter().enumerate() {
                if sub.is_empty() {
                    continue;
                }
                if let Some(pq) = &pqs[s] {
                    // Announce this sub-batch's candidate pages to the
                    // shard's I/O threads before the batch itself (lossy
                    // push: a full queue is already `readahead` ahead).
                    let probes: Vec<SpatialQuery> = sub.iter().map(|&qid| trace[qid]).collect();
                    for page in engines[s].prefetch_schedule(&probes) {
                        pq.try_push(page);
                    }
                }
                if cfg.shed {
                    if let Err((lost, _)) = queues[s].try_push((sub, Instant::now())) {
                        shed_batches_per_shard[s] += 1;
                        shed_partials_per_shard[s] += lost.len() as u64;
                        for qid in lost {
                            shed_flags[qid] = true;
                        }
                    }
                } else {
                    queues[s].push((sub, Instant::now()));
                }
            }
        }
        for q in &queues {
            q.close();
        }
        for pq in pqs.iter().flatten() {
            pq.close();
        }

        handles
            .into_iter()
            .enumerate()
            .map(|(s, h)| {
                let (done, pool_hits, pool_misses, per_worker_queries) =
                    h.join().expect("shard driver panicked");
                ShardOut {
                    done,
                    pool_hits,
                    pool_misses,
                    per_worker_queries,
                    cache: engines[s].cache_stats().delta_since(&cache_before[s]),
                    io: engines[s].io_snapshot().delta_since(&io_before[s]),
                }
            })
            .collect()
    });
    let wall = start.elapsed();

    // Gather: per-query critical-path latency (max over partials) and the
    // deterministic merge. Shards hold disjoint element sets, so the
    // union of their sorted partials, re-sorted, is the unsharded answer.
    let mut results: Vec<Vec<ElementId>> = vec![Vec::new(); trace.len()];
    let mut service_max: Vec<u64> = vec![0; trace.len()];
    let mut wait_max: Vec<u64> = vec![0; trace.len()];
    let mut result_ids = 0u64;
    let partial_service = tfm_obs::Histogram::new();
    let partial_wait = tfm_obs::Histogram::new();
    let mut shard_wait_snaps: Vec<tfm_obs::HistogramSnapshot> = Vec::with_capacity(n);
    let mut per_shard: Vec<ShardStats> = Vec::with_capacity(n);
    for (s, out) in shard_outs.into_iter().enumerate() {
        let service_hist = tfm_obs::Histogram::new();
        let wait_hist = tfm_obs::Histogram::new();
        let executed = out.done.len() as u64;
        for p in out.done {
            service_hist.record(p.service_nanos);
            wait_hist.record(p.queue_wait_nanos);
            partial_service.record(p.service_nanos);
            partial_wait.record(p.queue_wait_nanos);
            service_max[p.qid] = service_max[p.qid].max(p.service_nanos);
            wait_max[p.qid] = wait_max[p.qid].max(p.queue_wait_nanos);
            result_ids += p.ids.len() as u64;
            results[p.qid].extend(p.ids);
        }
        per_shard.push(ShardStats {
            shard: s,
            elements: cluster.shards[s].elements(),
            routed: routes.iter().filter(|r| r.contains(&s)).count() as u64,
            executed,
            shed_batches: shed_batches_per_shard[s],
            shed: shed_partials_per_shard[s],
            service: LatencySummary::from_histogram(&service_hist.snapshot()),
            queue_wait: {
                let snap = wait_hist.snapshot();
                let summary = LatencySummary::from_histogram(&snap);
                shard_wait_snaps.push(snap);
                summary
            },
            pool_hits: out.pool_hits,
            pool_misses: out.pool_misses,
            cache: out.cache,
            io: out.io,
            per_worker_queries: out.per_worker_queries,
        });
    }
    for ids in &mut results {
        ids.sort_unstable();
    }

    let latency_hist = tfm_obs::Histogram::new();
    let wait_hist = tfm_obs::Histogram::new();
    for qid in 0..trace.len() {
        latency_hist.record(service_max[qid]);
        wait_hist.record(wait_max[qid]);
    }
    let shed_queries = shed_flags.iter().filter(|&&f| f).count() as u64;
    let shed_partials: u64 = shed_partials_per_shard.iter().sum();
    let max_cluster_pressure = if n == 0 {
        0.0
    } else {
        max_full_queues as f64 / n as f64
    };

    // Run-end publication (into the process-wide registry, for every
    // caller but the metrics test): the shard.* family (cluster-wide plus
    // per-shard dynamic names) and each shard's cache/io extras, one shot
    // per run.
    if obs.is_enabled() {
        use tfm_obs::names;
        obs.counter(names::SHARD_QUERIES).add(trace.len() as u64);
        obs.counter(names::SHARD_ROUTED).add(routed_partials);
        obs.counter(names::SHARD_SHED_BATCHES)
            .add(shed_batches_per_shard.iter().sum());
        obs.counter(names::SHARD_SHED_QUERIES).add(shed_partials);
        obs.gauge(names::SHARD_COUNT).set(n as i64);
        obs.gauge(names::SHARD_CLUSTER_PRESSURE_MAX_PCT)
            .set((max_cluster_pressure * 100.0).round() as i64);
        let fanout = obs.histogram(names::SHARD_FANOUT);
        for r in &routes {
            fanout.record(r.len() as u64);
        }
        obs.histogram(names::SHARD_SERVICE_NANOS)
            .merge_snapshot(&partial_service.snapshot());
        obs.histogram(names::SHARD_QUEUE_WAIT_NANOS)
            .merge_snapshot(&partial_wait.snapshot());
        for stats in &per_shard {
            let s = stats.shard;
            obs.counter(&format!("shard.{s}.queries"))
                .add(stats.executed);
            obs.counter(&format!("shard.{s}.pool_hits"))
                .add(stats.pool_hits);
            obs.counter(&format!("shard.{s}.pool_misses"))
                .add(stats.pool_misses);
            obs.histogram(&format!("shard.{s}.queue_wait_nanos"))
                .merge_snapshot(&shard_wait_snaps[s]);
            stats.io.publish(obs);
            stats.cache.publish_shared_extras(obs);
        }
    }

    let stats = ShardedServeStats {
        queries: trace.len() as u64,
        result_ids,
        batches: n_batches as u64,
        shards: n,
        workers_per_shard: workers,
        wall,
        latency: LatencySummary::from_histogram(&latency_hist.snapshot()),
        queue_wait: LatencySummary::from_histogram(&wait_hist.snapshot()),
        fanout_mean: if trace.is_empty() {
            0.0
        } else {
            routed_partials as f64 / trace.len() as f64
        },
        fanout_max,
        routed_partials,
        shed_partials,
        shed_queries,
        max_cluster_pressure,
        per_shard,
    };
    ShardedServeOutcome { results, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_datagen::{generate, generate_trace, DatasetSpec, QueryTraceSpec};

    fn dataset(count: usize, seed: u64) -> Vec<SpatialElement> {
        generate(&DatasetSpec {
            max_side: 6.0,
            ..DatasetSpec::uniform(count, seed)
        })
    }

    fn reference(elems: &[SpatialElement], trace: &[SpatialQuery]) -> Vec<Vec<ElementId>> {
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
    fn plan_shards_partitions_every_element_once() {
        let elems = dataset(1200, 31);
        for partitioner in [ShardPartitioner::Hilbert, ShardPartitioner::Str] {
            for n in [1usize, 2, 3, 5, 8] {
                let shards = plan_shards(&elems, n, partitioner);
                assert_eq!(shards.len(), n, "{partitioner:?}");
                let mut ids: Vec<ElementId> = shards.iter().flatten().map(|e| e.id).collect();
                ids.sort_unstable();
                let expected: Vec<ElementId> = (0..elems.len() as u64).collect();
                assert_eq!(ids, expected, "{partitioner:?} shards={n}");
                // Near-balanced: no shard more than twice the fair share.
                let fair = elems.len().div_ceil(n);
                for (s, shard) in shards.iter().enumerate() {
                    assert!(
                        shard.len() <= 2 * fair,
                        "{partitioner:?} shard {s} holds {} of fair {fair}",
                        shard.len()
                    );
                }
            }
        }
    }

    #[test]
    fn plan_shards_is_deterministic() {
        let elems = dataset(800, 32);
        for partitioner in [ShardPartitioner::Hilbert, ShardPartitioner::Str] {
            let a = plan_shards(&elems, 4, partitioner);
            let b = plan_shards(&elems, 4, partitioner);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn router_covers_every_matching_shard() {
        let elems = dataset(1500, 33);
        let trace = generate_trace(&QueryTraceSpec::uniform(300, 34));
        let plan = plan_shards(&elems, 4, ShardPartitioner::Hilbert);
        let router = ShardRouter::new(
            plan.iter()
                .map(|s| Aabb::union_all(s.iter().map(|e| e.mbb)))
                .collect(),
        );
        for q in &trace {
            let routed = router.route(q);
            for (s, shard) in plan.iter().enumerate() {
                if shard.iter().any(|e| q.matches(&e.mbb)) {
                    assert!(routed.contains(&s), "matching shard {s} not routed");
                }
            }
        }
    }

    #[test]
    fn sharded_serve_matches_the_reference() {
        let elems = dataset(2000, 35);
        let trace = generate_trace(&QueryTraceSpec::uniform(150, 36));
        let expected = reference(&elems, &trace);
        for shards in [1usize, 3] {
            let cluster =
                ShardedCluster::build(elems.clone(), &ShardSpec::default().with_shards(shards));
            for workers in [1usize, 2] {
                let out = serve_sharded(
                    &cluster,
                    &trace,
                    &ShardServeConfig::default().with_workers(workers),
                );
                assert_eq!(out.results, expected, "shards={shards} workers={workers}");
                assert_eq!(out.stats.queries, 150);
                assert_eq!(out.stats.shards, shards);
                assert_eq!(out.stats.shed_partials, 0);
                assert_eq!(
                    out.stats.routed_partials,
                    out.stats.per_shard.iter().map(|s| s.executed).sum::<u64>()
                );
            }
        }
    }

    #[test]
    fn str_partitioned_cluster_matches_too() {
        let elems = dataset(1600, 37);
        let trace = generate_trace(&QueryTraceSpec::uniform(120, 38));
        let expected = reference(&elems, &trace);
        let cluster = ShardedCluster::build(
            elems,
            &ShardSpec::default()
                .with_shards(4)
                .with_partitioner(ShardPartitioner::Str),
        );
        let out = serve_sharded(&cluster, &trace, &ShardServeConfig::default());
        assert_eq!(out.results, expected);
    }

    #[test]
    fn file_backed_cluster_with_readahead_matches_reference() {
        let elems = dataset(12_000, 49);
        let trace = generate_trace(&QueryTraceSpec::uniform(150, 50));
        let expected = reference(&elems, &trace);
        let dir = std::env::temp_dir().join(format!("tfm-shardio-{}", std::process::id()));
        // Injected read latency makes the prefetch race deterministic:
        // without it a loaded single-core host can let the demand reads
        // win every landing race and the pipeline assertion below flakes.
        // A sleeping demand read always yields the CPU to the I/O
        // threads, exactly like bench_io's throttled runs.
        let cluster = ShardedCluster::build(
            elems,
            &ShardSpec::default()
                .with_shards(3)
                .with_backend(StoreBackend::File(dir.clone()))
                .with_read_latency(0.02),
        );
        // Every shard wrote its own page image.
        for s in 0..3 {
            assert!(dir.join(format!("shard{s}.pages")).is_file());
        }
        // A cache far smaller than each shard's page set, so prefetched
        // pages can't all be resident already.
        let out = serve_sharded(
            &cluster,
            &trace,
            &ShardServeConfig {
                pool_pages: 96,
                ..ShardServeConfig::default()
                    .with_workers(2)
                    .with_io_depth(2)
                    .with_readahead(64)
            },
        );
        assert_eq!(out.results, expected);
        for s in &out.stats.per_shard {
            assert_eq!(
                s.per_worker_queries.len(),
                2,
                "prefetch I/O threads must not surface in per-worker stats"
            );
        }
        assert!(
            out.stats
                .per_shard
                .iter()
                .any(|s| s.cache.prefetch_issued > 0),
            "at least one shard's prefetch pipeline must have landed pages"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fanout_stays_below_shard_count_for_point_probes() {
        // Point probes have degenerate probe boxes; with spatially
        // compact shards most points hit a strict subset of shards.
        let elems = dataset(3000, 39);
        let cluster = ShardedCluster::build(elems, &ShardSpec::default().with_shards(8));
        let trace = generate_trace(&QueryTraceSpec::uniform(400, 40));
        let out = serve_sharded(&cluster, &trace, &ShardServeConfig::default());
        assert!(out.stats.fanout_mean < 8.0, "routing must prune shards");
        assert!(out.stats.fanout_max <= 8);
    }

    #[test]
    fn shedding_accounts_for_every_partial() {
        let elems = dataset(2500, 41);
        let cluster = ShardedCluster::build(elems, &ShardSpec::default().with_shards(2));
        let trace = generate_trace(&QueryTraceSpec::uniform(600, 42));
        // A tiny queue and batch makes rejection plausible but not
        // guaranteed; either way the accounting must balance.
        let cfg = ShardServeConfig {
            batch: 4,
            queue_batches: 1,
            ..ShardServeConfig::default().with_shedding()
        };
        let out = serve_sharded(&cluster, &trace, &cfg);
        let executed: u64 = out.stats.per_shard.iter().map(|s| s.executed).sum();
        assert_eq!(
            executed + out.stats.shed_partials,
            out.stats.routed_partials,
            "executed + shed must equal routed"
        );
        if out.stats.shed_partials == 0 {
            assert_eq!(out.stats.shed_queries, 0);
        }
    }

    #[test]
    fn empty_trace_and_empty_dataset() {
        let cluster = ShardedCluster::build(Vec::new(), &ShardSpec::default().with_shards(4));
        assert_eq!(cluster.shard_count(), 4);
        let trace = generate_trace(&QueryTraceSpec::uniform(40, 43));
        let out = serve_sharded(&cluster, &trace, &ShardServeConfig::default());
        assert!(out.results.iter().all(Vec::is_empty));
        assert_eq!(
            out.stats.routed_partials, 0,
            "empty shards are never routed"
        );

        let elems = dataset(500, 44);
        let cluster = ShardedCluster::build(elems, &ShardSpec::default().with_shards(2));
        let out = serve_sharded(&cluster, &[], &ShardServeConfig::default());
        assert!(out.results.is_empty());
        assert_eq!(out.stats.queries, 0);
    }

    #[test]
    fn degenerate_config_is_clamped() {
        let elems = dataset(600, 45);
        let expected_len = 30;
        let trace = generate_trace(&QueryTraceSpec::uniform(expected_len, 46));
        let cluster = ShardedCluster::build(elems.clone(), &ShardSpec::default().with_shards(0));
        assert_eq!(cluster.shard_count(), 1);
        let cfg = ShardServeConfig {
            workers_per_shard: 0,
            batch: 0,
            queue_batches: 0,
            pool_pages: 0,
            ..ShardServeConfig::default()
        };
        let out = serve_sharded(&cluster, &trace, &cfg);
        assert_eq!(out.results, reference(&elems, &trace));
        assert_eq!(out.stats.workers_per_shard, 1);
    }

    #[test]
    fn shard_metrics_publish_at_run_end() {
        // A registry of the test's own: while the process-wide one was
        // enabled here, every `serve_sharded` run of a test on another
        // thread added its queries to the same `shard.queries` counter.
        let reg = tfm_obs::MetricsRegistry::default();
        reg.set_enabled(true);
        let elems = dataset(900, 47);
        let trace = generate_trace(&QueryTraceSpec::uniform(80, 48));
        let cluster = ShardedCluster::build(elems, &ShardSpec::default().with_shards(3));
        let out = serve_sharded_publishing(&cluster, &trace, &ShardServeConfig::default(), &reg);
        let snap = reg.snapshot();
        use tfm_obs::MetricValue;
        let value = |name: &str| {
            snap.entries
                .iter()
                .find(|e| e.name == name)
                .map(|e| e.value.clone())
        };
        assert_eq!(
            value(tfm_obs::names::SHARD_QUERIES),
            Some(MetricValue::Counter(80))
        );
        assert_eq!(
            value(tfm_obs::names::SHARD_ROUTED),
            Some(MetricValue::Counter(out.stats.routed_partials))
        );
        assert_eq!(
            value(tfm_obs::names::SHARD_COUNT),
            Some(MetricValue::Gauge(3))
        );
        assert!(value("shard.0.queries").is_some());
        assert!(value("shard.2.queries").is_some());
        if let Some(MetricValue::Histogram(h)) = value(tfm_obs::names::SHARD_FANOUT) {
            assert_eq!(h.count, 80, "one fanout sample per query");
        } else {
            panic!("shard.fanout histogram missing");
        }
    }
}
