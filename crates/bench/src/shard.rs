//! Harness for the sharded scatter-gather serve cluster (`tfm-serve`'s
//! shard module): partitions a dataset, builds one index per shard, and
//! replays a trace through the router — the cluster-side counterpart of
//! [`crate::run_serve`], reporting the same [`ServeMetrics`] row.

use tfm_geom::{ElementId, SpatialElement, SpatialQuery};
use tfm_serve::{serve_sharded, ServeConfig, ShardSpec, ShardedCluster};
use transformers::IndexConfig;

use crate::serve::ServeMetrics;

/// Partitions `elements` per `spec`, builds one index per shard with
/// `index_cfg` on its own disk, replays `trace` through the router, and
/// returns metrics, every query's result ids (ascending — byte-identical
/// to [`crate::run_serve`]'s results) and the per-query traces
/// `serve_cfg.collect_traces` asked for.
pub fn run_serve_sharded(
    workload: &str,
    elements: &[SpatialElement],
    trace: &[SpatialQuery],
    spec: &ShardSpec,
    index_cfg: &IndexConfig,
    serve_cfg: &ServeConfig,
) -> (ServeMetrics, Vec<Vec<ElementId>>, Vec<tfm_obs::QueryTrace>) {
    let cluster = ShardedCluster::build(elements.to_vec(), spec, index_cfg);
    let out = serve_sharded(&cluster, trace, serve_cfg);
    let metrics = ServeMetrics::from_stats(workload, elements.len(), serve_cfg, &out.stats);
    (metrics, out.results, out.traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunConfig;
    use tfm_datagen::{generate, generate_trace, DatasetSpec, QueryTraceSpec};

    #[test]
    fn sharded_runner_matches_unsharded_runner() {
        let elements = generate(&DatasetSpec {
            max_side: 6.0,
            ..DatasetSpec::uniform(1500, 71)
        });
        let trace = generate_trace(&QueryTraceSpec::uniform(120, 72));
        let (_, unsharded) = crate::run_serve(
            "shard-bench",
            &elements,
            &trace,
            &RunConfig::default(),
            &ServeConfig::default(),
        );
        for shards in [1usize, 3] {
            let (m, results, _) = run_serve_sharded(
                "shard-bench",
                &elements,
                &trace,
                &ShardSpec::default().with_shards(shards),
                &IndexConfig::default(),
                &ServeConfig::default(),
            );
            assert_eq!(results, unsharded, "shards={shards}");
            assert_eq!(m.shards, shards);
            assert_eq!(m.queries, 120);
        }
    }
}
