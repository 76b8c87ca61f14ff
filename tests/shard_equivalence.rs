//! Acceptance tests for the sharded scatter-gather serve cluster
//! (`tfm-serve`'s shard module):
//!
//! * every (shards, workers) combination from {1,2,4,8} × {1,2,4}
//!   answers a trace **byte-identically** to the unsharded serve path
//!   and to a sequential full-scan reference — on every engine and
//!   both partitioners, with the auto-batch loop and per-query traces
//!   off and on;
//! * property test: a probe's routed shard set always covers every
//!   shard that holds a matching element (routing soundness), and the
//!   sharded answer stays equal to the oracle.

use proptest::prelude::*;
use tfm_datagen::{generate, generate_trace, DatasetSpec, ProbeMix, QueryTraceSpec};
use tfm_geom::{Aabb, ElementId, HasMbb, SpatialElement, SpatialQuery};
use tfm_serve::{
    plan_shards, serve_sharded, serve_trace, ServeConfig, ServeEngineKind, ShardPartitioner,
    ShardRouter, ShardSpec, ShardedCluster, TransformersEngine,
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
            for workers in [1usize, 2, 4] {
                for (auto_batch, collect_traces) in
                    [(false, false), (false, true), (true, false), (true, true)]
                {
                    // A base batch small enough that the auto-batch loop
                    // sees several feedback windows in 200 queries.
                    let cfg = ServeConfig {
                        threads: workers,
                        batch: 4,
                        auto_batch,
                        collect_traces,
                        ..ServeConfig::default()
                    };
                    let out = serve_sharded(&cluster, &trace, &cfg);
                    let case = format!(
                        "engine={engine:?} shards={shards} workers={workers} \
                         auto_batch={auto_batch} traces={collect_traces}"
                    );
                    assert_eq!(out.results, expected, "{case}");
                    assert_eq!(out.stats.queries, trace.len() as u64);
                    assert_eq!(out.stats.shed_partials, 0);
                    // Every routed partial executed (no silent drops).
                    let executed: u64 = out.stats.per_shard.iter().map(|s| s.executed).sum();
                    assert_eq!(executed, out.stats.routed_partials, "{case}");
                    let retunes = out.stats.autobatch.map(|a| a.retunes);
                    assert_eq!(retunes.is_some(), auto_batch, "{case}");
                    assert!(
                        retunes.is_none_or(|r| r > 0),
                        "{case}: 50 batches, no retune"
                    );
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

#[test]
fn both_partitioners_agree_with_the_oracle() {
    let elems = generate(&DatasetSpec {
        max_side: 5.0,
        ..DatasetSpec::uniform(3_000, 503)
    });
    let trace = generate_trace(&QueryTraceSpec::uniform(150, 504));
    let expected = reference(&elems, &trace);
    for partitioner in [ShardPartitioner::Hilbert, ShardPartitioner::Str] {
        let spec = ShardSpec::default()
            .with_shards(4)
            .with_partitioner(partitioner);
        let cluster = ShardedCluster::build(elems.clone(), &spec, &IndexConfig::default());
        let out = serve_sharded(&cluster, &trace, &ServeConfig::default());
        assert_eq!(out.results, expected, "partitioner={partitioner:?}");
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
        let spec = ShardSpec::default().with_shards(shards);
        let partitions = plan_shards(&elems, shards, spec.partitioner);
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
        let cluster = ShardedCluster::build(elems.clone(), &spec, &IndexConfig::default());
        let out = serve_sharded(&cluster, &trace, &ServeConfig::default());
        prop_assert_eq!(out.results, reference(&elems, &trace));
    }
}
