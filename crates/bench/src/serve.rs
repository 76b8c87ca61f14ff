//! Harness for the query-serving workload (`tfm-serve`): builds an index
//! (or a sharded cluster of them), replays a query trace, and reports
//! comparable [`ServeMetrics`] — the serving-side counterpart of
//! [`crate::run_approach`].

use crate::runner::RunConfig;
use std::time::Duration;
use tfm_geom::{ElementId, SpatialElement, SpatialQuery};
use tfm_serve::{serve_trace, IndexShard, ServeConfig, ServeEngineKind, ServeStats};
use tfm_storage::SharedPageCache;
use transformers::IndexConfig;

/// Comparable measurements of one (engine, trace) serve run.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    /// Workload label.
    pub workload: String,
    /// Engine label.
    pub engine: String,
    /// Indexed elements.
    pub n_elements: usize,
    /// Queries replayed.
    pub queries: u64,
    /// Index shards the trace was served from (1 for a single engine).
    pub shards: usize,
    /// Serve workers per shard.
    pub threads: usize,
    /// Batch size.
    pub batch: usize,
    /// Whether batches were Hilbert-ordered.
    pub hilbert_batching: bool,
    /// Wall-clock serve time.
    pub wall: Duration,
    /// Simulated device time of the serve phase.
    pub sim_io: Duration,
    /// Queries per wall-clock second.
    pub qps: f64,
    /// Median per-query latency (critical path over a query's shards).
    pub p50: Duration,
    /// 95th-percentile per-query latency.
    pub p95: Duration,
    /// 99th-percentile per-query latency.
    pub p99: Duration,
    /// Median queue wait (batch admission to worker pop; zero on the
    /// single-threaded inline path).
    pub queue_wait_p50: Duration,
    /// 99th-percentile queue wait.
    pub queue_wait_p99: Duration,
    /// Pages read from disk during the serve phase.
    pub pages_read: u64,
    /// Sequential page reads.
    pub seq_reads: u64,
    /// Random page reads.
    pub rand_reads: u64,
    /// Page-cache hits over all worker sessions.
    pub pool_hits: u64,
    /// Page-cache misses over all worker sessions.
    pub pool_misses: u64,
    /// Shard-lock acquisitions of the engine's cache.
    pub lock_acquisitions: u64,
    /// Contended shard-lock acquisitions of the engine's cache.
    pub lock_contended: u64,
    /// Pages the prefetch pipeline landed into cache frames (0 with
    /// readahead off).
    pub prefetch_issued: u64,
    /// Demand reads served by a prefetched frame — kept disjoint from
    /// `pool_hits`/`pool_misses`, so readahead cannot inflate the
    /// hit-fraction gates.
    pub prefetch_hits: u64,
    /// Prefetched frames evicted before any demand read used them.
    pub prefetch_unused: u64,
    /// Prefetch I/O threads the run was configured with.
    pub io_depth: usize,
    /// Readahead window in pages (0 = prefetch pipeline off).
    pub readahead: usize,
    /// Retune decisions of the self-tuning batch loop (0 with
    /// `--auto-batch` off or on the inline path).
    pub autobatch_retunes: u64,
    /// Retunes that grew the batch.
    pub autobatch_grows: u64,
    /// Retunes that shrank the batch.
    pub autobatch_shrinks: u64,
    /// Batch size in effect at end of trace (0 with auto-batch off).
    pub autobatch_final_batch: usize,
    /// Mean shards routed per query.
    pub fanout_mean: f64,
    /// Largest per-query fanout.
    pub fanout_max: usize,
    /// Query partials routed (Σ fanout).
    pub routed_partials: u64,
    /// Query partials lost to load shedding.
    pub shed_partials: u64,
    /// Peak fraction of shard queues simultaneously full.
    pub max_cluster_pressure: f64,
    /// Result ids returned, summed over the trace.
    pub result_ids: u64,
}

impl ServeMetrics {
    /// Fraction of page reads classified sequential.
    pub fn seq_read_fraction(&self) -> f64 {
        let total = self.seq_reads + self.rand_reads;
        if total == 0 {
            return 0.0;
        }
        self.seq_reads as f64 / total as f64
    }

    /// Page-cache hit fraction over all worker sessions.
    pub fn pool_hit_fraction(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            return 0.0;
        }
        self.pool_hits as f64 / total as f64
    }

    pub(crate) fn from_stats(
        kind: ServeEngineKind,
        workload: &str,
        n_elements: usize,
        cfg: &ServeConfig,
        stats: &ServeStats,
    ) -> Self {
        Self {
            workload: workload.to_string(),
            engine: kind.label().to_string(),
            n_elements,
            queries: stats.queries,
            shards: stats.per_shard.len(),
            threads: stats.threads,
            batch: cfg.batch.max(1),
            hilbert_batching: cfg.hilbert_batching,
            wall: stats.wall,
            sim_io: stats.io.sim_io_time(),
            qps: stats.throughput_qps(),
            p50: stats.latency.p50(),
            p95: stats.latency.p95(),
            p99: stats.latency.p99(),
            queue_wait_p50: stats.queue_wait.p50(),
            queue_wait_p99: stats.queue_wait.p99(),
            pages_read: stats.io.reads(),
            seq_reads: stats.io.seq_reads,
            rand_reads: stats.io.rand_reads,
            pool_hits: stats.pool_hits,
            pool_misses: stats.pool_misses,
            lock_acquisitions: stats.cache.lock_acquisitions,
            lock_contended: stats.cache.lock_contended,
            prefetch_issued: stats.cache.prefetch_issued,
            prefetch_hits: stats.cache.prefetch_hits,
            prefetch_unused: stats.cache.prefetch_unused,
            io_depth: cfg.io_depth.max(1),
            readahead: cfg.readahead,
            autobatch_retunes: stats.autobatch.map_or(0, |a| a.retunes),
            autobatch_grows: stats.autobatch.map_or(0, |a| a.grows),
            autobatch_shrinks: stats.autobatch.map_or(0, |a| a.shrinks),
            autobatch_final_batch: stats.autobatch.map_or(0, |a| a.final_batch),
            fanout_mean: stats.fanout_mean,
            fanout_max: stats.fanout_max,
            routed_partials: stats.routed_partials,
            shed_partials: stats.shed_partials,
            max_cluster_pressure: stats.max_cluster_pressure,
            result_ids: stats.result_ids,
        }
    }
}

/// Builds the `kind` structure over `elements` on a fresh `run_cfg` disk,
/// with `run_cfg`'s page size and build threads.
fn build_index(
    kind: ServeEngineKind,
    elements: &[SpatialElement],
    run_cfg: &RunConfig,
) -> IndexShard {
    let idx_cfg = IndexConfig::default().with_build_threads(run_cfg.build_threads);
    IndexShard::build(elements.to_vec(), kind, run_cfg.disk("serve"), &idx_cfg)
}

/// Builds the `kind` structure over `elements` (on a fresh disk with
/// `run_cfg`'s backend, page size and build threads), replays `trace`
/// with `serve_cfg`, and returns the metrics plus every query's result
/// ids (ascending; for correctness checks).
pub fn run_serve(
    kind: ServeEngineKind,
    workload: &str,
    elements: &[SpatialElement],
    trace: &[SpatialQuery],
    run_cfg: &RunConfig,
    serve_cfg: &ServeConfig,
) -> (ServeMetrics, Vec<Vec<ElementId>>) {
    let (metrics, results, _) =
        run_serve_traced(kind, workload, elements, trace, run_cfg, serve_cfg);
    (metrics, results)
}

/// [`run_serve`] additionally returning the per-query
/// [`tfm_obs::QueryTrace`] records (trace-ID order: queue-wait/service
/// split and pool attribution) — one per query when
/// [`ServeConfig::collect_traces`] is set, none otherwise. The engine's
/// cache is sized `serve_cfg.pool_pages` pages, striped for
/// `serve_cfg.threads`.
pub fn run_serve_traced(
    kind: ServeEngineKind,
    workload: &str,
    elements: &[SpatialElement],
    trace: &[SpatialQuery],
    run_cfg: &RunConfig,
    serve_cfg: &ServeConfig,
) -> (ServeMetrics, Vec<Vec<ElementId>>, Vec<tfm_obs::QueryTrace>) {
    let index = build_index(kind, elements, run_cfg);
    let stripes = SharedPageCache::shards_for_threads(serve_cfg.threads);
    let engine = index.engine(serve_cfg.pool_pages.max(1), stripes);
    index.disk().reset_stats();
    let out = serve_trace(&*engine, trace, serve_cfg);
    let metrics = ServeMetrics::from_stats(kind, workload, elements.len(), serve_cfg, &out.stats);
    (metrics, out.results, out.traces)
}

/// One entry of a [`run_serve_sweep`]: a labelled trace plus the serve
/// configuration to replay it with.
pub struct ServeJob<'a> {
    /// Workload label for the metrics row.
    pub workload: &'a str,
    /// The query trace to replay.
    pub trace: &'a [SpatialQuery],
    /// Worker/batch configuration.
    pub config: ServeConfig,
}

/// [`run_serve`] over several jobs sharing one index build: the `kind`
/// structure is built **once** and every job replays against it (disk
/// stats and the engine's cache reset between jobs, so each row starts
/// cold). Use this for config sweeps — rebuilding a large index per
/// (threads, batching) combination would dominate the run.
///
/// The cache size is taken from the **first** job's config; jobs in one
/// sweep share one engine, so they must agree on it.
pub fn run_serve_sweep(
    kind: ServeEngineKind,
    elements: &[SpatialElement],
    run_cfg: &RunConfig,
    jobs: &[ServeJob<'_>],
) -> Vec<ServeMetrics> {
    // The engine (and its cache) is built once for the whole
    // sweep: take the first job's config but size the cache's sharding
    // for the *largest* worker count any job will run with, so
    // multi-thread rows are not measured against a cache striped for one
    // reader.
    let mut engine_cfg = jobs.first().map(|j| j.config).unwrap_or_default();
    engine_cfg.threads = jobs.iter().map(|j| j.config.threads).max().unwrap_or(1);
    debug_assert!(
        jobs.iter()
            .all(|j| j.config.pool_pages == engine_cfg.pool_pages),
        "jobs of one sweep share an engine and must agree on the cache budget"
    );
    let index = build_index(kind, elements, run_cfg);
    let stripes = SharedPageCache::shards_for_threads(engine_cfg.threads);
    let engine = index.engine(engine_cfg.pool_pages.max(1), stripes);
    jobs.iter()
        .map(|job| {
            index.disk().reset_stats();
            engine.reset_cache();
            let outcome = serve_trace(&*engine, job.trace, &job.config);
            ServeMetrics::from_stats(
                kind,
                job.workload,
                elements.len(),
                &job.config,
                &outcome.stats,
            )
        })
        .collect()
}

/// Prints a fixed-width comparison table of serve metrics, sharded rows
/// and single-engine rows alike.
pub fn print_serve_table(title: &str, rows: &[ServeMetrics]) {
    println!("\n== {title} ==");
    println!(
        "{:<20} {:<14} {:>8} {:>8} {:>3} {:>3} {:>6} {:>3} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8} {:>6} {:>6} {:>10}",
        "workload",
        "engine",
        "|D|",
        "queries",
        "sh",
        "w",
        "batch",
        "hb",
        "qps",
        "p50_us",
        "p95_us",
        "p99_us",
        "pages",
        "seq%",
        "hit%",
        "fanout",
        "shed",
        "results"
    );
    for m in rows {
        println!(
            "{:<20} {:<14} {:>8} {:>8} {:>3} {:>3} {:>6} {:>3} {:>10.0} {:>10.1} {:>10.1} {:>10.1} {:>10} {:>8.1} {:>8.1} {:>6.2} {:>6} {:>10}",
            m.workload,
            m.engine,
            m.n_elements,
            m.queries,
            m.shards,
            m.threads,
            m.batch,
            if m.hilbert_batching { "on" } else { "off" },
            m.qps,
            m.p50.as_secs_f64() * 1e6,
            m.p95.as_secs_f64() * 1e6,
            m.p99.as_secs_f64() * 1e6,
            m.pages_read,
            m.seq_read_fraction() * 100.0,
            m.pool_hit_fraction() * 100.0,
            m.fanout_mean,
            m.shed_partials,
            m.result_ids
        );
    }
}

/// CSV header matching [`serve_csv_row`].
pub const SERVE_CSV_HEADER: &str = "workload,engine,n_elements,queries,threads,batch,hilbert_batching,wall_s,sim_io_s,qps,p50_us,p95_us,p99_us,queue_wait_p50_us,queue_wait_p99_us,pages_read,seq_reads,rand_reads,pool_hits,pool_misses,lock_acquisitions,lock_contended,prefetch_issued,prefetch_hits,prefetch_unused,io_depth,readahead,autobatch_retunes,autobatch_grows,autobatch_shrinks,autobatch_final_batch,shards,fanout_mean,fanout_max,routed_partials,shed_partials,max_cluster_pressure,result_ids";

/// One CSV row for a serve-metrics record.
pub fn serve_csv_row(m: &ServeMetrics) -> String {
    format!(
        "{},{},{},{},{},{},{},{:.6},{:.6},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.3},{},{},{},{:.3},{}",
        m.workload,
        m.engine,
        m.n_elements,
        m.queries,
        m.threads,
        m.batch,
        m.hilbert_batching,
        m.wall.as_secs_f64(),
        m.sim_io.as_secs_f64(),
        m.qps,
        m.p50.as_secs_f64() * 1e6,
        m.p95.as_secs_f64() * 1e6,
        m.p99.as_secs_f64() * 1e6,
        m.queue_wait_p50.as_secs_f64() * 1e6,
        m.queue_wait_p99.as_secs_f64() * 1e6,
        m.pages_read,
        m.seq_reads,
        m.rand_reads,
        m.pool_hits,
        m.pool_misses,
        m.lock_acquisitions,
        m.lock_contended,
        m.prefetch_issued,
        m.prefetch_hits,
        m.prefetch_unused,
        m.io_depth,
        m.readahead,
        m.autobatch_retunes,
        m.autobatch_grows,
        m.autobatch_shrinks,
        m.autobatch_final_batch,
        m.shards,
        m.fanout_mean,
        m.fanout_max,
        m.routed_partials,
        m.shed_partials,
        m.max_cluster_pressure,
        m.result_ids,
    )
}

/// Writes serve metrics to `path` as CSV (creating parent directories).
pub fn write_serve_csv<P: AsRef<std::path::Path>>(
    path: P,
    rows: &[ServeMetrics],
) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(parent) = path.as_ref().parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{SERVE_CSV_HEADER}")?;
    for m in rows {
        writeln!(f, "{}", serve_csv_row(m))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_datagen::{generate, generate_trace, DatasetSpec, QueryTraceSpec};

    #[test]
    fn engines_serve_identical_results() {
        let elements = generate(&DatasetSpec {
            max_side: 6.0,
            ..DatasetSpec::uniform(2500, 90)
        });
        let trace = generate_trace(&QueryTraceSpec::uniform(150, 91));
        let run_cfg = RunConfig::default();
        let serve_cfg = ServeConfig::default().with_threads(2);
        let mut reference: Option<Vec<Vec<ElementId>>> = None;
        for kind in ServeEngineKind::all() {
            let (m, results) = run_serve(kind, "t", &elements, &trace, &run_cfg, &serve_cfg);
            assert_eq!(m.queries, 150, "{}", kind.label());
            assert_eq!(m.engine, kind.label());
            assert!(m.pages_read > 0);
            match &reference {
                None => reference = Some(results),
                Some(r) => assert_eq!(&results, r, "{} diverges", kind.label()),
            }
        }
    }

    #[test]
    fn csv_row_has_header_arity() {
        let elements = generate(&DatasetSpec::uniform(400, 92));
        let trace = generate_trace(&QueryTraceSpec::uniform(20, 93));
        let (m, _) = run_serve(
            ServeEngineKind::Transformers,
            "t",
            &elements,
            &trace,
            &RunConfig::default(),
            &ServeConfig::default(),
        );
        assert_eq!(
            serve_csv_row(&m).split(',').count(),
            SERVE_CSV_HEADER.split(',').count()
        );
    }

    #[test]
    fn csv_file_roundtrip() {
        let elements = generate(&DatasetSpec::uniform(400, 94));
        let trace = generate_trace(&QueryTraceSpec::uniform(20, 95));
        let (m, _) = run_serve(
            ServeEngineKind::Rtree,
            "t",
            &elements,
            &trace,
            &RunConfig::default(),
            &ServeConfig::default(),
        );
        let dir = std::env::temp_dir().join(format!("tfm_serve_csv_{}", std::process::id()));
        let path = dir.join("serve.csv");
        write_serve_csv(&path, &[m]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.lines().count(), 2);
        assert!(content.starts_with("workload,"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
