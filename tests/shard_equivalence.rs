//! Acceptance tests for the sharded scatter-gather serve cluster
//! (`tfm-serve`'s shard module):
//!
//! * every (shards, workers) combination from {1,2,4,8} × {1,2,4}
//!   answers a trace **byte-identically** to the unsharded serve path
//!   and to a sequential full-scan reference — on every engine, with
//!   per-query traces off and on — and reports exactly the fan-out its
//!   router decides (partials routed, widest query) and executes every
//!   partial it routes;
//! * property test: a probe's routed shard set always covers every
//!   shard that holds a matching element (routing soundness), and the
//!   sharded answer stays equal to the oracle.

use proptest::prelude::*;
use tfm_datagen::{generate, generate_trace, DatasetSpec, ProbeMix, QueryTraceSpec};
use tfm_geom::{Aabb, ElementId, HasMbb, SpatialElement, SpatialQuery};
use tfm_serve::{
    plan_shards, serve_sharded, serve_trace, ServeConfig, ServeEngineKind, ShardRouter, ShardSpec,
    ShardedCluster, TransformersEngine,
};
use tfm_storage::Disk;
use transformers::{IndexConfig, TransformersIndex};

const PAGE: usize = 2048;

/// The sequential reference: one full scan per query.
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
fn every_shard_and_worker_count_matches_the_unsharded_path() {
    let elems = generate(&DatasetSpec {
        max_side: 6.0,
        ..DatasetSpec::uniform(5_000, 501)
    });
    let trace = generate_trace(&QueryTraceSpec::with_mix(
        200,
        ProbeMix::Clustered { clusters: 4 },
        502,
    ));
    let expected = reference(&elems, &trace);

    // Unsharded serve agrees with the oracle (anchor for "byte-identical
    // to the unsharded path").
    let disk = Disk::in_memory(PAGE);
    let idx = TransformersIndex::build(&disk, elems.clone(), &IndexConfig::default());
    let engine = TransformersEngine::new(&idx, &disk);
    let unsharded = serve_trace(&engine, &trace, &ServeConfig::default());
    assert_eq!(unsharded.results, expected);

    for engine in ServeEngineKind::all() {
        for shards in [1usize, 2, 4, 8] {
            let spec = ShardSpec::default().with_shards(shards).with_engine(engine);
            let cluster = ShardedCluster::build(elems.clone(), &spec, &IndexConfig::default());
            // The fan-out the router decides, which the stats must report
            // exactly: partials routed in all, and the widest query.
            let routes: Vec<usize> = trace
                .iter()
                .map(|q| cluster.router().route(q).len())
                .collect();
            let routed: u64 = routes.iter().map(|&n| n as u64).sum();
            let widest = routes.iter().copied().max().unwrap_or(0);
            for workers in [1usize, 2, 4] {
                for collect_traces in [false, true] {
                    // Small batches: 50 of them in 200 queries.
                    let cfg = ServeConfig {
                        threads: workers,
                        batch: 4,
                        collect_traces,
                        ..ServeConfig::default()
                    };
                    let out = serve_sharded(&cluster, &trace, &cfg);
                    let case = format!(
                        "engine={engine:?} shards={shards} workers={workers} \
                         traces={collect_traces}"
                    );
                    assert_eq!(out.results, expected, "{case}");
                    assert_eq!(out.stats.queries, trace.len() as u64);
                    assert_eq!(out.stats.routed_partials, routed, "{case}");
                    assert_eq!(out.stats.fanout_max, widest, "{case}");
                    // Each shard executes every partial routed to it (no
                    // silent drops).
                    for s in &out.stats.per_shard {
                        let executed: u64 = s.per_worker_queries.iter().sum();
                        assert_eq!(executed, s.routed, "{case} shard {}", s.shard);
                    }
                    let traced = if collect_traces { trace.len() } else { 0 };
                    assert_eq!(out.traces.len(), traced, "{case}");
                    for (i, t) in out.traces.iter().enumerate() {
                        assert_eq!(t.trace_id, i as u64);
                        assert_eq!(t.result_ids, expected[i].len() as u64, "{case}");
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Routing soundness: for every query, the routed shard set covers
    // every shard whose partition holds a matching element — so no
    // shard that could contribute to the answer is skipped — and the
    // gathered answer equals the full-scan oracle.
    #[test]
    fn routed_shards_always_cover_matching_partitions(
        n in 300usize..2000,
        data_seed in 0u64..1000,
        trace_seed in 0u64..1000,
        queries in 10usize..60,
        shards in 2usize..8,
        max_side in 1.0f64..8.0,
    ) {
        let elems = generate(&DatasetSpec {
            max_side,
            ..DatasetSpec::uniform(n, data_seed)
        });
        let trace = generate_trace(&QueryTraceSpec {
            count: queries,
            ..QueryTraceSpec::uniform(queries, trace_seed)
        });
        let partitions = plan_shards(&elems, shards);
        let router = ShardRouter::new(
            partitions
                .iter()
                .map(|p| Aabb::union_all(p.iter().map(|e| e.mbb())))
                .collect(),
        );
        for q in &trace {
            let routed = router.route(q);
            for (s, part) in partitions.iter().enumerate() {
                let has_match = part.iter().any(|e| q.matches(&e.mbb));
                if has_match {
                    prop_assert!(
                        routed.contains(&s),
                        "shard {s} holds a match but was not routed (routed={routed:?})"
                    );
                }
            }
        }
        let spec = ShardSpec::default().with_shards(shards);
        let cluster = ShardedCluster::build(elems.clone(), &spec, &IndexConfig::default());
        let out = serve_sharded(&cluster, &trace, &ServeConfig::default());
        prop_assert_eq!(out.results, reference(&elems, &trace));
    }
}
