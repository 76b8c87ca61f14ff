//! Cold-cache byte-identity of the real file backend.
//!
//! Every run here builds its indexes fresh (cold caches, cold pools) on
//! either the in-memory [`StoreBackend::Mem`] or the on-disk
//! [`StoreBackend::File`] page store and must return exactly the same
//! results: the backend decides where page bytes live, never what a
//! query or join computes. The sweeps cover all three serve engines and
//! join approaches at 1/2/4/8 workers, sharded and unsharded. Every page
//! is read on demand by the query or join worker that needs it, so at one
//! worker the file backend also repeats the in-memory run's page reads,
//! hits and misses exactly.

use tfm_bench::{run_approach, run_serve, run_serve_sharded, Approach, RunConfig, ServeEngineKind};
use tfm_datagen::{generate, generate_trace, DatasetSpec, Distribution, QueryTraceSpec};
use tfm_memjoin::canonicalize;
use tfm_serve::{ServeConfig, ShardSpec};
use tfm_storage::StoreBackend;
use transformers::IndexConfig;

const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Per-test page-image directory (tests in this binary run in parallel
/// threads of one process, so the pid alone is not unique enough).
fn image_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tfm_io_eq_{tag}_{}", std::process::id()))
}

fn file_cfg(dir: &std::path::Path) -> RunConfig {
    RunConfig {
        backend: StoreBackend::File(dir.to_path_buf()),
        ..RunConfig::default()
    }
}

#[test]
fn serve_results_match_mem_across_engines_and_workers() {
    let dataset = generate(&DatasetSpec {
        max_side: 6.0,
        ..DatasetSpec::uniform(4_000, 101)
    });
    let trace = generate_trace(&QueryTraceSpec::uniform(400, 102));
    let dir = image_dir("serve");

    for kind in ServeEngineKind::all() {
        let (_, reference) = run_serve(
            kind,
            "io-eq",
            &dataset,
            &trace,
            &RunConfig::default(),
            &ServeConfig::default(),
        );
        for &threads in &WORKER_SWEEP {
            let serve_cfg = ServeConfig::default().with_threads(threads).with_batch(32);
            let (_, results) =
                run_serve(kind, "io-eq", &dataset, &trace, &file_cfg(&dir), &serve_cfg);
            assert_eq!(
                results, reference,
                "{kind:?}: file backend diverged at {threads} workers"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_counts_match_mem_at_one_worker() {
    let dataset = generate(&DatasetSpec {
        max_side: 6.0,
        ..DatasetSpec::uniform(4_000, 107)
    });
    let trace = generate_trace(&QueryTraceSpec::uniform(400, 108));
    let dir = image_dir("counts");
    // A cache smaller than the touched page set, so the run evicts and
    // reads pages again: the counts are the demand-paging sequence itself.
    let cfg = ServeConfig {
        pool_pages: 48,
        ..ServeConfig::default().with_batch(32)
    };

    for kind in ServeEngineKind::all() {
        let (mem, mem_results) =
            run_serve(kind, "io-eq", &dataset, &trace, &RunConfig::default(), &cfg);
        let (file, file_results) =
            run_serve(kind, "io-eq", &dataset, &trace, &file_cfg(&dir), &cfg);
        assert_eq!(file_results, mem_results, "{kind:?}: results diverged");
        assert!(mem.pool_misses > 0 && mem.pool_hits > 0, "{kind:?}");
        assert_eq!(
            (file.pages_read, file.pool_hits, file.pool_misses),
            (mem.pages_read, mem.pool_hits, mem.pool_misses),
            "{kind:?}: file backend read other pages than the mem run"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_serve_results_match_mem_across_engines_and_workers() {
    let dataset = generate(&DatasetSpec {
        max_side: 6.0,
        ..DatasetSpec::uniform(4_000, 103)
    });
    let trace = generate_trace(&QueryTraceSpec::uniform(300, 104));
    let dir = image_dir("shard");

    for kind in ServeEngineKind::all() {
        let mem_spec = ShardSpec {
            shards: 3,
            ..ShardSpec::default()
        };
        let (_, reference, _) = run_serve_sharded(
            kind,
            "io-eq",
            &dataset,
            &trace,
            &mem_spec,
            &IndexConfig::default(),
            &ServeConfig::default(),
        );
        let file_spec = ShardSpec {
            shards: 3,
            backend: StoreBackend::File(dir.join(format!("{kind:?}"))),
            ..ShardSpec::default()
        };
        for &workers in &WORKER_SWEEP {
            let cfg = ServeConfig {
                threads: workers,
                batch: 32,
                ..ServeConfig::default()
            };
            let (_, results, _) = run_serve_sharded(
                kind,
                "io-eq",
                &dataset,
                &trace,
                &file_spec,
                &IndexConfig::default(),
                &cfg,
            );
            assert_eq!(
                results, reference,
                "{kind:?}: sharded file backend diverged at {workers} workers/shard"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn join_results_match_mem_across_approaches_and_workers() {
    let a = generate(&DatasetSpec {
        max_side: 5.0,
        ..DatasetSpec::with_distribution(
            2_500,
            Distribution::MassiveCluster {
                clusters: 4,
                elements_per_cluster: 625,
            },
            105,
        )
    });
    let b = generate(&DatasetSpec {
        max_side: 5.0,
        ..DatasetSpec::uniform(2_500, 106)
    });
    let dir = image_dir("join");
    let mem_cfg = RunConfig::default();

    // Each approach against its own mem run: backends must agree even
    // where approaches legitimately differ in their result ordering.
    for approach in [Approach::transformers(), Approach::Rtree, Approach::Gipsy] {
        let (_, mem_pairs) = run_approach(&approach, "io-eq", &a, &b, &mem_cfg);
        let (_, file_pairs) = run_approach(&approach, "io-eq", &a, &b, &file_cfg(&dir));
        assert_eq!(
            canonicalize(file_pairs),
            canonicalize(mem_pairs),
            "{approach:?}: file backend changed the join result"
        );
    }

    // The parallel TRANSFORMERS join sweeps the worker counts on the
    // file backend against the sequential mem reference.
    let (_, reference) = run_approach(&Approach::transformers(), "io-eq", &a, &b, &mem_cfg);
    let reference = canonicalize(reference);
    for &threads in &WORKER_SWEEP {
        let approach = Approach::TransformersParallel(transformers::JoinConfig::default(), threads);
        let (_, pairs) = run_approach(&approach, "io-eq", &a, &b, &file_cfg(&dir));
        assert_eq!(
            canonicalize(pairs),
            reference,
            "parallel x{threads}: file backend changed the join result"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
