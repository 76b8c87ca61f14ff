//! Acceptance: the shared page cache never changes results — only I/O.
//!
//! Stress shape: a **tiny** cache (heavy eviction + recycling + pinning)
//! under **8 workers**, for both the serving layer and the parallel join,
//! always compared against caching-free references (a full scan per
//! query; the nested-loop join). A third test bounds what sharing buys:
//! over an unstarved cache the join reads no more pages than the disks
//! hold, however many workers interleave (the exact "each page fetched
//! once" count is `tfm-storage`'s `SharedPageCache` unit test).

use transformers_repro::prelude::*;
use transformers_repro::serve::{serve_trace, ServeConfig, TransformersEngine};
use transformers_repro::storage::Disk;

fn fixture(count: usize, seed: u64) -> (Disk, TransformersIndex, Vec<SpatialElement>) {
    let disk = Disk::in_memory(2048);
    let elems = generate(&DatasetSpec {
        max_side: 6.0,
        ..DatasetSpec::uniform(count, seed)
    });
    let idx = TransformersIndex::build(&disk, elems.clone(), &IndexConfig::default());
    (disk, idx, elems)
}

fn full_scan(elems: &[SpatialElement], trace: &[SpatialQuery]) -> Vec<Vec<u64>> {
    trace
        .iter()
        .map(|q| {
            let mut ids: Vec<u64> = elems
                .iter()
                .filter(|e| q.matches(&e.mbb))
                .map(|e| e.id)
                .collect();
            ids.sort_unstable();
            ids
        })
        .collect()
}

/// 8 serve workers over a cache of 8 frames (2 shards): constant
/// eviction, recycling and cross-worker pinning — results must equal the
/// full-scan reference.
#[test]
fn eight_workers_on_a_tiny_shared_cache_match_the_full_scan() {
    let (disk, idx, elems) = fixture(5000, 301);
    let trace = generate_trace(&QueryTraceSpec::with_mix(
        300,
        ProbeMix::Clustered { clusters: 4 },
        302,
    ));
    let expected = full_scan(&elems, &trace);
    let cfg = ServeConfig {
        threads: 8,
        batch: 16,
        ..ServeConfig::default()
    };
    let engine = TransformersEngine::new(&idx, &disk).with_shared_cache(8, 2);
    let out = serve_trace(&engine, &trace, &cfg);
    assert_eq!(out.results, expected);
    let cache = out.stats.cache;
    assert!(
        cache.evictions > 0,
        "an 8-frame cache must thrash: {cache:?}"
    );
    assert!(cache.recycled_frames > 0);
}

/// The sequential join and the parallel join at 1/2/4/8 workers produce
/// exactly the nested-loop join's pairs, under a starved cache as under a
/// roomy one.
#[test]
fn join_outputs_match_the_nested_loop_at_any_worker_count() {
    let a = generate(&DatasetSpec {
        max_side: 5.0,
        ..DatasetSpec::with_distribution(
            6_000,
            Distribution::MassiveCluster {
                clusters: 3,
                elements_per_cluster: 2_000,
            },
            303,
        )
    });
    let b = generate(&DatasetSpec {
        max_side: 5.0,
        ..DatasetSpec::uniform(6_000, 304)
    });
    let reference = canonicalize(transformers_repro::memjoin::nested_loop_join(
        &a,
        &b,
        &mut JoinStats::default(),
    ));
    assert!(!reference.is_empty());
    let disk_a = Disk::default_in_memory();
    let disk_b = Disk::default_in_memory();
    let idx_a = TransformersIndex::build(&disk_a, a, &IndexConfig::default());
    let idx_b = TransformersIndex::build(&disk_b, b, &IndexConfig::default());

    for pool_pages in [16, 1024] {
        let cfg = JoinConfig {
            pool_pages,
            ..JoinConfig::default()
        };
        let seq = transformers_join(&idx_a, &disk_a, &idx_b, &disk_b, &cfg);
        assert_eq!(seq.pairs, reference, "sequential pool_pages={pool_pages}");
        for threads in [1, 2, 4, 8] {
            let par = parallel_join(&idx_a, &disk_a, &idx_b, &disk_b, &cfg, threads);
            assert_eq!(
                par.pairs, reference,
                "threads={threads} pool_pages={pool_pages}"
            );
            assert!(par.stats.pages_read > 0);
        }
    }
}

/// What one cache under every worker buys: over an unstarved cache the
/// join reads each page it needs at most once, so `pages_read` at 1/2/4/8
/// workers is bounded by the two disks' allocated pages. And under a
/// starved budget the pairs still equal the sequential join's.
///
/// The adaptive join's *work* (which pages get visited) varies with thread
/// interleaving, so the bound, not an exact count, is what holds across
/// worker counts.
#[test]
fn no_page_is_fetched_twice_however_the_join_workers_interleave() {
    let a = generate(&DatasetSpec {
        max_side: 5.0,
        ..DatasetSpec::with_distribution(
            10_000,
            Distribution::MassiveCluster {
                clusters: 4,
                elements_per_cluster: 2_500,
            },
            305,
        )
    });
    let b = generate(&DatasetSpec {
        max_side: 5.0,
        ..DatasetSpec::uniform(10_000, 306)
    });
    // 2 KiB pages (the bench harness default) keep the page count high
    // enough that the 32-page budget below is genuinely scarce.
    let disk_a = Disk::in_memory(2048);
    let disk_b = Disk::in_memory(2048);
    let idx_a = TransformersIndex::build(&disk_a, a, &IndexConfig::default());
    let idx_b = TransformersIndex::build(&disk_b, b, &IndexConfig::default());
    let allocated = disk_a.allocated_pages() + disk_b.allocated_pages();

    let cfg = |pool_pages| JoinConfig {
        pool_pages,
        ..JoinConfig::default()
    };
    let run = |pool_pages, threads| {
        parallel_join(&idx_a, &disk_a, &idx_b, &disk_b, &cfg(pool_pages), threads)
    };
    let seq = transformers_join(&idx_a, &disk_a, &idx_b, &disk_b, &cfg(32));
    for threads in [1, 2, 4, 8] {
        let par = run(4096, threads);
        assert_eq!(par.pairs, seq.pairs, "threads={threads}");
        assert!(
            par.stats.pages_read > 0 && par.stats.pages_read <= allocated,
            "threads={threads}: {} pages read of {allocated} allocated: a page was \
             fetched twice",
            par.stats.pages_read
        );
    }
    assert_eq!(run(32, 4).pairs, seq.pairs, "starved 32-page budget");
}
