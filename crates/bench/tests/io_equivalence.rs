//! Cold-cache byte-identity of the real file backend.
//!
//! Every run here builds its indexes fresh (cold caches, cold pools) on
//! either the in-memory [`StoreBackend::Mem`] or the on-disk
//! [`StoreBackend::File`] page store and must return exactly the same
//! results: the backend decides where page bytes live, never what a
//! query or join computes. The sweeps cover all three serve engines and
//! join approaches at 1/2/4/8 workers, sharded and unsharded, with the
//! prefetch pipeline (dedicated I/O threads + Hilbert-driven readahead)
//! active wherever the engine supports it.

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
            // The R-tree engine has no page-schedule hook: it serves the
            // file image demand-paged (readahead 0); the other engines
            // run the full prefetch pipeline.
            let readahead = if matches!(kind, ServeEngineKind::Rtree) {
                0
            } else {
                64
            };
            let serve_cfg = ServeConfig::default()
                .with_threads(threads)
                .with_batch(32)
                .with_io_depth(2)
                .with_readahead(readahead);
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
                io_depth: 2,
                readahead: if matches!(kind, ServeEngineKind::Rtree) {
                    0
                } else {
                    32
                },
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

#[test]
fn join_prefetch_matches_mem_across_workers() {
    // The join prefetch pipeline (chunk-schedule readahead through
    // dedicated I/O threads) only warms the cache: file-backed
    // prefetching joins must be byte-identical to the sequential mem
    // reference at every worker count, and the pipeline must actually run
    // (issued pages > 0) at multi-worker counts where chunks exist to
    // schedule.
    let a = generate(&DatasetSpec {
        max_side: 5.0,
        ..DatasetSpec::uniform(3_000, 107)
    });
    let b = generate(&DatasetSpec {
        max_side: 5.0,
        ..DatasetSpec::uniform(3_000, 108)
    });
    let dir = image_dir("join_prefetch");

    let (_, reference) = run_approach(
        &Approach::transformers(),
        "io-eq",
        &a,
        &b,
        &RunConfig::default(),
    );
    let reference = canonicalize(reference);
    let sweep = || {
        let mut total_issued = 0;
        for &threads in &WORKER_SWEEP {
            let join_cfg = transformers::JoinConfig::default()
                .with_io_depth(2)
                .with_readahead(128);
            let approach = Approach::TransformersParallel(join_cfg, threads);
            let (m, pairs) = run_approach(&approach, "io-eq", &a, &b, &file_cfg(&dir));
            assert_eq!(
                canonicalize(pairs),
                reference,
                "prefetch x{threads}: file backend changed the join result"
            );
            assert_eq!(
                m.prefetch_issued,
                m.prefetch_hits + m.prefetch_unused,
                "prefetch x{threads}: accounting must partition issued pages"
            );
            total_issued += m.prefetch_issued;
        }
        total_issued
    };
    // Per-run issue counts are timing-dependent (demand reads can win the
    // race to every page on a loaded host), but a whole sweep where the
    // pipeline never lands a single page means it is wired up wrong. On a
    // 2-CPU host under load one sweep in ~20 loses every race (2 of 88 at
    // PR 21's commit, 6 of 100 at PR 22's), so the sweep gets three tries.
    assert!(
        (0..3).any(|_| sweep() > 0),
        "pipeline never issued a page across the worker sweep"
    );
    std::fs::remove_dir_all(&dir).ok();
}
