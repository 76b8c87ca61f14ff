//! The sharded scatter-gather serve cluster.
//!
//! One [`SharedPageCache`](tfm_storage::SharedPageCache) and one
//! [`RequestQueue`](crate::RequestQueue) cap what a single serve instance
//! can absorb: every worker funnels through the same shard locks and the
//! same admission edge. This module splits the *dataset* instead of just
//! the work — the horizontal-scaling seam of the ROADMAP:
//!
//! 1. [`plan_shards`] cuts the Hilbert order of the elements' centers
//!    into N disjoint, near-equal runs, so each subset is spatially
//!    compact.
//! 2. [`ShardedCluster::build`] turns each subset into a self-contained
//!    [`IndexShard`]: its own simulated [`Disk`], its own built index
//!    (TRANSFORMERS hierarchy or R-tree), and — at serve time — its own
//!    [`SharedPageCache`](tfm_storage::SharedPageCache) and its own
//!    `tfm-pool` worker pool. Shards share nothing, which is exactly
//!    what makes this the seam for a future multi-process split.
//! 3. [`ShardRouter`] plans each window / point / ε-ball probe onto only
//!    the shards whose element bounds its probe box intersects: a shard
//!    that cannot hold a match never sees the query.
//! 4. [`serve_sharded`] opens one engine per shard and hands them, with
//!    the router, to the crate's one executor — the N-target case of the
//!    code [`crate::serve_trace`] runs for one engine (see the crate
//!    docs): the feeder scatters each batch into per-shard bounded
//!    queues, per-shard pools drain them, the gather merges the partial
//!    id lists back per query.

use crate::{
    GipsyEngine, QueryEngine, RtreeEngine, ServeConfig, ServeEngineKind, ServeOutcome,
    TransformersEngine,
};
use tfm_geom::{hilbert, Aabb, HasMbb, SpatialElement, SpatialQuery};
use tfm_rtree::RTree;
use tfm_storage::{Disk, SharedPageCache, StoreBackend};
use transformers::{IndexBuildPipeline, IndexConfig, TransformersIndex};

/// Build-time shape of a [`ShardedCluster`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    /// Number of shards (`0` is clamped to 1).
    pub shards: usize,
    /// Index structure per shard.
    pub engine: ServeEngineKind,
    /// Page size of each shard's private disk.
    pub page_size: usize,
    /// Storage backend of each shard's private disk. With
    /// [`StoreBackend::File`] every shard writes its own page image
    /// (`shard<i>.pages`) under the given directory, so shards never
    /// contend on one file either.
    pub backend: StoreBackend,
}

impl Default for ShardSpec {
    fn default() -> Self {
        Self {
            shards: 1,
            engine: ServeEngineKind::Transformers,
            page_size: tfm_storage::DEFAULT_PAGE_SIZE,
            backend: StoreBackend::Mem,
        }
    }
}

impl ShardSpec {
    /// Builder: sets the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Builder: sets the per-shard index structure.
    pub fn with_engine(mut self, engine: ServeEngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Builder: sets the per-shard storage backend.
    pub fn with_backend(mut self, backend: StoreBackend) -> Self {
        self.backend = backend;
        self
    }
}

/// Splits `elements` into `shards` disjoint, spatially compact subsets:
/// sorts them by the Hilbert index of their MBB centers and cuts the curve
/// into `shards` near-equal contiguous runs, so shards inherit the curve's
/// locality.
///
/// Every element lands in exactly one subset (some may be empty when
/// `shards > elements.len()`), and the split depends only on the input —
/// never on thread counts — so cluster builds are deterministic.
pub fn plan_shards(elements: &[SpatialElement], shards: usize) -> Vec<Vec<SpatialElement>> {
    let n = shards.max(1);
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

/// One self-contained index shard: a disk of its own plus a built index
/// over this shard's elements only — also what a harness builds to serve
/// one unsharded index of a chosen kind.
pub struct IndexShard {
    disk: Disk,
    index: ShardIndex,
    kind: ServeEngineKind,
    bounds: Aabb,
    elements: u64,
}

enum ShardIndex {
    Transformers(TransformersIndex),
    Rtree(RTree),
}

impl IndexShard {
    /// Builds the `kind` structure over `elements` on `disk`, on
    /// `cfg.build_threads` workers (the pages are byte-identical at any
    /// thread count).
    pub fn build(
        elements: Vec<SpatialElement>,
        kind: ServeEngineKind,
        disk: Disk,
        cfg: &IndexConfig,
    ) -> Self {
        let bounds = Aabb::union_all(elements.iter().map(|e| e.mbb));
        let count = elements.len() as u64;
        let index = match kind {
            ServeEngineKind::Rtree => ShardIndex::Rtree(RTree::bulk_load_pipelined(
                &disk,
                elements,
                &IndexBuildPipeline::new(cfg.build_threads),
            )),
            // GIPSY serves from the TRANSFORMERS structure too.
            ServeEngineKind::Transformers | ServeEngineKind::Gipsy => {
                ShardIndex::Transformers(TransformersIndex::build(&disk, elements, cfg))
            }
        };
        Self {
            disk,
            index,
            kind,
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

    /// The disk this shard's pages live on.
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// Opens this shard's serve engine with its own shared page cache of
    /// `cache_pages` pages over `cache_shards` lock stripes.
    pub fn engine(&self, cache_pages: usize, cache_shards: usize) -> Box<dyn QueryEngine + '_> {
        match (&self.index, self.kind) {
            (ShardIndex::Rtree(tree), _) => Box::new(
                RtreeEngine::new(tree, &self.disk).with_shared_cache(cache_pages, cache_shards),
            ),
            (ShardIndex::Transformers(idx), ServeEngineKind::Gipsy) => Box::new(
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
    /// Partitions `elements` per `spec` and builds every shard's index
    /// with `index_cfg` on a disk of its own.
    pub fn build(elements: Vec<SpatialElement>, spec: &ShardSpec, index_cfg: &IndexConfig) -> Self {
        let shards: Vec<IndexShard> = plan_shards(&elements, spec.shards)
            .into_iter()
            .enumerate()
            .map(|(i, subset)| {
                let disk = Disk::for_backend(&spec.backend, spec.page_size, &format!("shard{i}"))
                    .expect("shard disk backend");
                IndexShard::build(subset, spec.engine, disk, index_cfg)
            })
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

/// Replays `trace` against the cluster: the N-target case of the crate's
/// one executor. Opens one engine per shard — each with its own cache, an
/// even split of [`ServeConfig::pool_pages`] (floor 16 pages) — and runs
/// them behind the cluster's router with `cfg.threads` workers per shard.
/// Results are byte-identical to [`crate::serve_trace`] over one index of
/// the whole dataset, at any shard and worker count.
pub fn serve_sharded(
    cluster: &ShardedCluster,
    trace: &[SpatialQuery],
    cfg: &ServeConfig,
) -> ServeOutcome {
    serve_sharded_publishing(cluster, trace, cfg, tfm_obs::global())
}

/// [`serve_sharded`] with the registry its run-end metrics go to as a
/// parameter, so a test can read them from a registry nothing else
/// publishes into.
fn serve_sharded_publishing(
    cluster: &ShardedCluster,
    trace: &[SpatialQuery],
    cfg: &ServeConfig,
    obs: &tfm_obs::MetricsRegistry,
) -> ServeOutcome {
    let cache_pages = (cfg.pool_pages / cluster.shard_count()).max(16);
    let cache_shards = SharedPageCache::shards_for_threads(cfg.threads.max(1));
    let engines: Vec<Box<dyn QueryEngine + '_>> = cluster
        .shards
        .iter()
        .map(|s| s.engine(cache_pages, cache_shards))
        .collect();
    let targets: Vec<&dyn QueryEngine> = engines.iter().map(|e| &**e).collect();
    crate::serve(&targets, Some(&cluster.router), trace, cfg, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_datagen::{generate, generate_trace, DatasetSpec, QueryTraceSpec};
    use tfm_geom::ElementId;

    fn build_cluster(elems: Vec<SpatialElement>, spec: &ShardSpec) -> ShardedCluster {
        ShardedCluster::build(elems, spec, &IndexConfig::default())
    }

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

    /// The counters of one run must add up however it was sharded and
    /// fed: each shard's workers execute every partial routed to it, and
    /// the per-shard rows and per-query traces sum to the run's totals.
    fn reconcile(out: &ServeOutcome) {
        let stats = &out.stats;
        let sum = |f: fn(&crate::ShardStats) -> u64| stats.per_shard.iter().map(f).sum::<u64>();
        assert_eq!(sum(|s| s.routed), stats.routed_partials);
        for s in &stats.per_shard {
            assert_eq!(
                s.per_worker_queries.iter().sum::<u64>(),
                s.routed,
                "shard {} must execute what it was routed",
                s.shard
            );
        }
        assert_eq!(sum(|s| s.pool_hits), stats.pool_hits);
        assert_eq!(sum(|s| s.pool_misses), stats.pool_misses);
        assert_eq!(sum(|s| s.io.reads()), stats.io.reads());
        assert_eq!(
            stats.per_worker_queries.iter().sum::<u64>(),
            stats.routed_partials
        );
        if !out.traces.is_empty() {
            let traced = |f: fn(&tfm_obs::QueryTrace) -> u64| out.traces.iter().map(f).sum::<u64>();
            assert_eq!(traced(|t| t.pool_hits), stats.pool_hits);
            assert_eq!(traced(|t| t.pool_misses), stats.pool_misses);
            assert_eq!(traced(|t| t.result_ids), stats.result_ids);
        }
    }

    #[test]
    fn plan_shards_partitions_every_element_once() {
        let elems = dataset(1200, 31);
        for n in [1usize, 2, 3, 5, 8] {
            let shards = plan_shards(&elems, n);
            assert_eq!(shards.len(), n);
            let mut ids: Vec<ElementId> = shards.iter().flatten().map(|e| e.id).collect();
            ids.sort_unstable();
            let expected: Vec<ElementId> = (0..elems.len() as u64).collect();
            assert_eq!(ids, expected, "shards={n}");
            // Near-balanced: no shard more than twice the fair share.
            let fair = elems.len().div_ceil(n);
            for (s, shard) in shards.iter().enumerate() {
                assert!(
                    shard.len() <= 2 * fair,
                    "shard {s} holds {} of fair {fair}",
                    shard.len()
                );
            }
        }
    }

    #[test]
    fn plan_shards_is_deterministic() {
        let elems = dataset(800, 32);
        assert_eq!(plan_shards(&elems, 4), plan_shards(&elems, 4));
    }

    #[test]
    fn router_covers_every_matching_shard() {
        let elems = dataset(1500, 33);
        let trace = generate_trace(&QueryTraceSpec::uniform(300, 34));
        let plan = plan_shards(&elems, 4);
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
            let cluster = build_cluster(elems.clone(), &ShardSpec::default().with_shards(shards));
            for workers in [1usize, 2] {
                let cfg = ServeConfig::default().with_threads(workers).with_traces();
                let out = serve_sharded(&cluster, &trace, &cfg);
                assert_eq!(out.results, expected, "shards={shards} workers={workers}");
                assert_eq!(out.stats.queries, 150);
                assert_eq!(out.stats.per_shard.len(), shards);
                assert_eq!(out.stats.per_worker_queries.len(), shards * workers);
                reconcile(&out);
                assert_eq!(out.traces.len(), trace.len(), "one record per query");
            }
        }
    }

    #[test]
    fn file_backed_cluster_matches_reference() {
        let elems = dataset(12_000, 49);
        let trace = generate_trace(&QueryTraceSpec::uniform(150, 50));
        let expected = reference(&elems, &trace);
        let dir = std::env::temp_dir().join(format!("tfm-shardio-{}", std::process::id()));
        let cluster = build_cluster(
            elems,
            &ShardSpec::default()
                .with_shards(3)
                .with_backend(StoreBackend::File(dir.clone())),
        );
        // Every shard wrote its own page image.
        for s in 0..3 {
            assert!(dir.join(format!("shard{s}.pages")).is_file());
        }
        // A cache far smaller than each shard's page set, so the workers'
        // demand misses read the page images again and again.
        let out = serve_sharded(
            &cluster,
            &trace,
            &ServeConfig {
                pool_pages: 96,
                ..ServeConfig::default().with_threads(2)
            },
        );
        assert_eq!(out.results, expected);
        reconcile(&out);
        for s in &out.stats.per_shard {
            assert_eq!(s.per_worker_queries.len(), 2);
            // Every miss is one page read from the shard's own file.
            assert_eq!(s.io.reads(), s.pool_misses);
        }
        assert!(out.stats.pool_misses > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fanout_stays_below_shard_count_for_point_probes() {
        // Point probes have degenerate probe boxes; with spatially
        // compact shards most points hit a strict subset of shards.
        let elems = dataset(3000, 39);
        let cluster = build_cluster(elems, &ShardSpec::default().with_shards(8));
        let trace = generate_trace(&QueryTraceSpec::uniform(400, 40));
        let out = serve_sharded(&cluster, &trace, &ServeConfig::default());
        assert!(out.stats.fanout_mean < 8.0, "routing must prune shards");
        assert!(out.stats.fanout_max <= 8);
    }

    #[test]
    fn one_shard_one_worker_reads_what_the_inline_path_reads() {
        // Same index, same cache budget (small enough to evict), same
        // batch order: the queued one-worker pool must touch exactly the
        // pages the inline reference touches, in the same order.
        let spec = ShardSpec {
            page_size: 2048,
            ..ShardSpec::default()
        };
        let cluster = build_cluster(dataset(6000, 51), &spec);
        let trace = generate_trace(&QueryTraceSpec::uniform(400, 52));
        let cfg = ServeConfig {
            pool_pages: 48,
            ..ServeConfig::default().with_batch(16)
        };
        let engine = cluster.shards()[0].engine(48, SharedPageCache::shards_for_threads(1));
        let inline = crate::serve_trace(&*engine, &trace, &cfg);
        let queued = serve_sharded(&cluster, &trace, &cfg);
        assert_eq!(queued.results, inline.results);
        assert!(inline.stats.cache.evictions > 0 && inline.stats.pool_hits > 0);
        let (q, i) = (&queued.stats, &inline.stats);
        assert_eq!(q.io.reads(), i.io.reads());
        assert_eq!((q.pool_hits, q.pool_misses), (i.pool_hits, i.pool_misses));
    }

    #[test]
    fn a_trace_that_saturates_one_shard_then_the_other_completes() {
        // Backpressure without deadlock: one worker per shard, and a trace
        // routed wholly to shard 0, then wholly to shard 1. Its 25
        // sub-batches per shard overfill the four-slot queue, so the
        // feeder blocks on shard 0's full queue while shard 1 idles, then
        // the reverse; it must never be the thread a full queue is
        // waiting on.
        let elems = dataset(2500, 53);
        let cluster = build_cluster(elems.clone(), &ShardSpec::default().with_shards(2));
        let probes = generate_trace(&QueryTraceSpec::uniform(1500, 54));
        let only = |s: usize| {
            let router = cluster.router();
            probes
                .iter()
                .filter(move |q| router.route(q) == [s])
                .take(200)
                .copied()
        };
        let trace: Vec<SpatialQuery> = only(0).chain(only(1)).collect();
        assert_eq!(trace.len(), 400, "200 probes for each shard alone");
        let cfg = ServeConfig::default().with_batch(8);
        let out = serve_sharded(&cluster, &trace, &cfg);
        assert_eq!(out.results, reference(&elems, &trace));
        assert_eq!(out.stats.per_worker_queries, vec![200, 200]);
        reconcile(&out);
    }

    #[test]
    fn empty_trace_and_empty_dataset() {
        let cluster = build_cluster(Vec::new(), &ShardSpec::default().with_shards(4));
        assert_eq!(cluster.shard_count(), 4);
        let trace = generate_trace(&QueryTraceSpec::uniform(40, 43));
        let out = serve_sharded(&cluster, &trace, &ServeConfig::default());
        assert!(out.results.iter().all(Vec::is_empty));
        assert_eq!(
            out.stats.routed_partials, 0,
            "empty shards are never routed"
        );

        let elems = dataset(500, 44);
        let cluster = build_cluster(elems, &ShardSpec::default().with_shards(2));
        let out = serve_sharded(&cluster, &[], &ServeConfig::default());
        assert!(out.results.is_empty());
        assert_eq!(out.stats.queries, 0);
    }

    #[test]
    fn degenerate_config_is_clamped() {
        let elems = dataset(600, 45);
        let expected_len = 30;
        let trace = generate_trace(&QueryTraceSpec::uniform(expected_len, 46));
        let cluster = build_cluster(elems.clone(), &ShardSpec::default().with_shards(0));
        assert_eq!(cluster.shard_count(), 1);
        let cfg = ServeConfig {
            threads: 0,
            batch: 0,
            pool_pages: 0,
            ..ServeConfig::default()
        };
        let out = serve_sharded(&cluster, &trace, &cfg);
        assert_eq!(out.results, reference(&elems, &trace));
        assert_eq!(out.stats.threads, 1);
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
        let cluster = build_cluster(elems, &ShardSpec::default().with_shards(3));
        let out = serve_sharded_publishing(&cluster, &trace, &ServeConfig::default(), &reg);
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
