//! Acceptance tests for the query-serving subsystem (`tfm-serve`):
//!
//! * every query of a trace answers **identically** at 1/2/4/8 workers,
//!   in Hilbert-ordered batches of 32 and in batches of one (arrival
//!   order), on both engines (a built index, and the mutable overlay
//!   adopted from it) — and identically to a sequential full-scan
//!   reference;
//! * Hilbert-ordered batching strictly raises the sequential-read
//!   fraction over arrival-order replay (batches of one) of the same
//!   trace;
//! * sampled probes and their candidate pages equal a full scan on an
//!   index whose node count puts two probe-directory levels above it;
//! * property test: random datasets and traces keep the 1-worker and
//!   4-worker transformers engines equal to the oracle.

use proptest::prelude::*;
use tfm_datagen::{generate, generate_trace, DatasetSpec, ProbeMix, QueryTraceSpec};
use tfm_geom::{ElementId, SpatialElement, SpatialQuery};
use tfm_serve::{
    serve_trace, MutableTransformersEngine, QueryEngine, ServeConfig, TransformersEngine,
};
use tfm_storage::{Disk, SharedPageCache};
use transformers::{IndexConfig, MutableTransformers, TransformersIndex};

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

fn build_index(elems: &[SpatialElement]) -> (Disk, TransformersIndex) {
    let disk = Disk::in_memory(PAGE);
    let idx = TransformersIndex::build(&disk, elems.to_vec(), &IndexConfig::default());
    (disk, idx)
}

#[test]
fn every_engine_thread_count_and_batching_mode_agrees() {
    let elems = generate(&DatasetSpec {
        max_side: 6.0,
        ..DatasetSpec::uniform(6_000, 400)
    });
    let (disk, idx) = build_index(&elems);
    let cache = SharedPageCache::new(&disk, 1024);
    let overlay = MutableTransformers::adopt(&idx, &disk);

    for (mix, seed) in [
        (ProbeMix::Uniform, 401u64),
        (ProbeMix::Clustered { clusters: 5 }, 402),
        (ProbeMix::NeuroCorrelated, 403),
    ] {
        let trace = generate_trace(&QueryTraceSpec::with_mix(220, mix, seed));
        let expected = reference(&elems, &trace);
        let engines: [(&str, Box<dyn QueryEngine>); 2] = [
            ("immutable", Box::new(TransformersEngine::new(&idx, &disk))),
            (
                "mutable",
                Box::new(MutableTransformersEngine::new(&overlay, &cache)),
            ),
        ];
        for (label, engine) in &engines {
            for threads in [1usize, 2, 4, 8] {
                // A batch of one is arrival order: nothing to sort.
                for batch in [32, 1] {
                    let cfg = ServeConfig::default()
                        .with_threads(threads)
                        .with_batch(batch);
                    let out = serve_trace(engine.as_ref(), &trace, &cfg);
                    assert_eq!(
                        out.results, expected,
                        "{label} mix={mix:?} threads={threads} batch={batch}"
                    );
                    assert_eq!(out.stats.queries, trace.len() as u64);
                    assert_eq!(
                        out.stats.per_worker_queries.iter().sum::<u64>(),
                        trace.len() as u64
                    );
                }
            }
        }
    }
}

#[test]
fn hilbert_batching_strictly_raises_sequential_reads() {
    // Sizeable index + small cache, cold for each replay: batches of one
    // replay the probes in arrival order, which hops across the disk; one
    // Hilbert-ordered batch sweeps it. Results must not change; the
    // IoStats split must.
    let elems = generate(&DatasetSpec {
        max_side: 5.0,
        ..DatasetSpec::uniform(40_000, 404)
    });
    let (disk, idx) = build_index(&elems);
    let trace = generate_trace(&QueryTraceSpec {
        count: 2_000,
        max_window_side: 12.0,
        ..QueryTraceSpec::uniform(2_000, 405)
    });
    let engine = TransformersEngine::new(&idx, &disk).with_shared_cache(64, 1);
    let arrival = serve_trace(&engine, &trace, &ServeConfig::default().with_batch(1));
    engine.reset_cache();
    let hilberted = serve_trace(&engine, &trace, &ServeConfig::default().with_batch(2_000));
    assert_eq!(arrival.results, hilberted.results);
    assert!(
        hilberted.stats.seq_read_fraction() > arrival.stats.seq_read_fraction(),
        "hilbert {:.3} must strictly beat arrival {:.3}",
        hilberted.stats.seq_read_fraction(),
        arrival.stats.seq_read_fraction()
    );
    // Locality also shows up as fewer pool misses (more overlap hits).
    assert!(hilberted.stats.pool_misses <= arrival.stats.pool_misses);
}

#[test]
fn sampled_probes_match_a_full_scan_across_a_directory_level_boundary() {
    // Small units and nodes so a few thousand elements give well over
    // 8² nodes: the probe directory (fanout 8) then has two levels above
    // the node table, and the last run of each level is a partial one.
    let elems = generate(&DatasetSpec {
        max_side: 6.0,
        ..DatasetSpec::uniform(6_000, 408)
    });
    let disk = Disk::in_memory(PAGE);
    let cfg = IndexConfig {
        unit_capacity: Some(8),
        node_capacity: Some(4),
        ..IndexConfig::default()
    };
    let idx = TransformersIndex::build(&disk, elems.clone(), &cfg);
    assert!(idx.nodes().len() > 64 && !idx.nodes().len().is_multiple_of(8));

    let engine = TransformersEngine::new(&idx, &disk);
    for (mix, seed) in [
        (ProbeMix::Uniform, 409u64),
        (ProbeMix::Clustered { clusters: 5 }, 410),
    ] {
        let trace = generate_trace(&QueryTraceSpec::with_mix(300, mix, seed));
        let out = serve_trace(&engine, &trace, &ServeConfig::default());
        assert_eq!(out.results, reference(&elems, &trace), "mix={mix:?}");
        // A batch's candidate pages come from the same prefilter: they must
        // name exactly the pages of the units a scan of the whole unit
        // table admits, in ascending page order.
        for q in &trace {
            let probe = q.probe();
            let mut scanned: Vec<_> = idx
                .units()
                .iter()
                .filter(|u| u.page_mbb.intersects(&probe))
                .map(|u| u.page)
                .collect();
            scanned.sort_unstable();
            assert_eq!(engine.prefetch_schedule(std::slice::from_ref(q)), scanned);
        }
    }
}

#[test]
#[ignore = "needs real cores; run explicitly in CI's multi-core serve job"]
fn four_workers_outrun_one_on_multicore() {
    // CPU-heavy trace (large windows -> many candidates and matches) so
    // per-query work dwarfs queue overhead; on a multi-core machine four
    // workers must beat the single-worker inline path.
    let elems = generate(&DatasetSpec {
        max_side: 6.0,
        ..DatasetSpec::uniform(30_000, 406)
    });
    let (disk, idx) = build_index(&elems);
    let trace = generate_trace(&QueryTraceSpec {
        count: 4_000,
        max_window_side: 40.0,
        ..QueryTraceSpec::uniform(4_000, 407)
    });
    let engine = TransformersEngine::new(&idx, &disk);
    let cfg = ServeConfig {
        batch: 64,
        ..ServeConfig::default()
    };
    // Warm-up evens out lazy costs, then best-of-3 per worker count to
    // shave scheduler noise.
    let _ = serve_trace(&engine, &trace, &cfg);
    let best = |threads: usize| {
        (0..3)
            .map(|_| {
                serve_trace(&engine, &trace, &cfg.with_threads(threads))
                    .stats
                    .throughput_qps()
            })
            .fold(0.0f64, f64::max)
    };
    let one = best(1);
    let four = best(4);
    assert!(
        four > one,
        "4-worker throughput {four:.0} q/s must beat 1-worker {one:.0} q/s on multi-core"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_traces_serve_identically_at_any_worker_count(
        n in 500usize..2500,
        data_seed in 0u64..1000,
        trace_seed in 0u64..1000,
        queries in 20usize..120,
        batch in 1usize..64,
        max_side in 1.0f64..10.0,
    ) {
        let elems = generate(&DatasetSpec {
            max_side,
            ..DatasetSpec::uniform(n, data_seed)
        });
        let (disk, idx) = build_index(&elems);
        let trace = generate_trace(&QueryTraceSpec {
            count: queries,
            ..QueryTraceSpec::uniform(queries, trace_seed)
        });
        let expected = reference(&elems, &trace);
        let engine = TransformersEngine::new(&idx, &disk);
        for threads in [1usize, 4] {
            let cfg = ServeConfig::default().with_threads(threads).with_batch(batch);
            let out = serve_trace(&engine, &trace, &cfg);
            prop_assert_eq!(
                &out.results, &expected,
                "threads={} batch={}", threads, batch
            );
        }
    }
}
