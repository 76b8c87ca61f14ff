//! Exact page counts of the baseline joins on one small fixed pair, under
//! a 32-page cache that evicts.
//!
//! The baselines' page reads are a function of their access order and of
//! the cache's victim choice alone: each join drops a page's pin before
//! its next read and never writes, so every frame of its one-shard cache
//! is evictable and CLOCK picks the same victims whatever cache type runs
//! it. Any change to a baseline's reads or to the eviction order moves one
//! of these counts.

use tfm_bench::{run_approach, Approach, RunConfig};
use tfm_datagen::{generate, generate_trace, DatasetSpec, Distribution, QueryTraceSpec};
use tfm_geom::{Aabb, SpatialElement};
use tfm_gipsy::{gipsy_join, GipsyStats, SparseFile};
use tfm_serve::{serve_trace, GipsyEngine, ServeConfig};
use tfm_storage::{CacheHandle, Disk, SharedPageCache};
use tfm_sweep::{s3, sssj};
use transformers::{IndexConfig, TransformersIndex};

/// `(pages_read, (rand_reads, seq_reads), results)` per approach.
type Counts = (u64, (u64, u64), u64);

const EXPECTED: [(&str, Counts); 5] = [
    ("PBSM", (192, (183, 9), 71)),
    ("R-TREE", (168, (158, 10), 71)),
    ("SSSJ", (351, (56, 295), 71)),
    ("S3", (345, (330, 15), 71)),
    ("GIPSY", (137, (13, 124), 71)),
];

fn pair() -> (Vec<SpatialElement>, Vec<SpatialElement>) {
    let a = generate(&DatasetSpec {
        max_side: 20.0,
        ..DatasetSpec::with_distribution(4_000, Distribution::DenseCluster { clusters: 6 }, 260)
    });
    let b = generate(&DatasetSpec {
        max_side: 20.0,
        ..DatasetSpec::uniform(6_000, 261)
    });
    (a, b)
}

#[test]
fn baseline_page_reads_under_a_small_cache_are_pinned() {
    let (a, b) = pair();
    let cfg = RunConfig {
        pool_pages: 32,
        ..RunConfig::default()
    };
    let approaches = [
        Approach::Pbsm,
        Approach::Rtree,
        Approach::Sssj,
        Approach::S3,
        Approach::Gipsy,
    ];
    let got: Vec<(String, Counts)> = approaches
        .iter()
        .map(|ap| {
            let (m, _) = run_approach(ap, "pinned", &a, &b, &cfg);
            assert_eq!(m.rand_reads + m.seq_reads, m.pages_read);
            (
                m.approach,
                (m.pages_read, (m.rand_reads, m.seq_reads), m.results),
            )
        })
        .collect();
    let want: Vec<(String, Counts)> = EXPECTED
        .iter()
        .map(|&(label, counts)| (label.to_string(), counts))
        .collect();
    assert_eq!(got, want);
}

/// GIPSY's exploration on the fixed pair, `a` sparse as in
/// `run_approach`: every walk, fallback and crawl step and every
/// descriptor and element test is a function of the walk's start, its
/// bound and the tiling alone, so a change to the explorer that should
/// move no decision keeps every count.
#[test]
fn gipsy_exploration_counts_are_pinned() {
    let (a, b) = pair();
    let cfg = RunConfig::default();
    let (sparse_disk, dense_disk) = (cfg.disk("gipsy_sparse"), cfg.disk("gipsy_dense"));
    let sparse = SparseFile::write(&sparse_disk, a);
    let dense = TransformersIndex::build(&dense_disk, b, &IndexConfig::default());
    let dense_cache = SharedPageCache::with_shards(&dense_disk, 32, 1);
    let mut stats = GipsyStats::default();
    let pairs = gipsy_join(
        &sparse_disk,
        &sparse,
        &mut CacheHandle::shared(&dense_cache),
        &dense,
        &mut stats,
    );
    let got = (
        stats.metadata_tests,
        stats.walk_steps,
        stats.walk_fallbacks,
        stats.crawl_steps,
        stats.mem.element_tests,
        stats.mem.results,
        pairs.len(),
    );
    assert_eq!(got, (154_656, 4_007, 0, 14_176, 187_465, 71, 71));
}

/// The GIPSY probe engine on the fixed pair's dense side: one worker
/// serves one fixed uniform trace through an 8-page cache, so its page
/// reads and pool hits follow from the probes' walks and crawls alone.
#[test]
fn gipsy_engine_page_counts_are_pinned() {
    let (_, b) = pair();
    let disk = RunConfig::default().disk("gipsy_engine");
    let idx = TransformersIndex::build(&disk, b, &IndexConfig::default());
    let engine = GipsyEngine::new(&idx, &disk).with_shared_cache(8, 1);
    let trace = generate_trace(&QueryTraceSpec::uniform(400, 262));
    let out = serve_trace(&engine, &trace, &ServeConfig::default());
    assert_eq!(out.stats.threads, 1);
    let got = (
        out.stats.io.reads(),
        out.stats.pool_misses,
        out.stats.pool_hits,
        out.stats.result_ids,
    );
    assert_eq!(got, (389, 389, 70, 13));
}

/// Runs `join` through a one-frame cache per side and checks that it held
/// no pin across a read: with one frame, a pin still held when the next
/// page is read leaves no victim, and the ring grows a second frame.
fn assert_no_pin_held(
    label: &str,
    disk_a: &Disk,
    disk_b: &Disk,
    join: impl FnOnce(&mut CacheHandle<'_, '_>, &mut CacheHandle<'_, '_>),
) {
    let cache_a = SharedPageCache::with_shards(disk_a, 1, 1);
    let cache_b = SharedPageCache::with_shards(disk_b, 1, 1);
    join(
        &mut CacheHandle::shared(&cache_a),
        &mut CacheHandle::shared(&cache_b),
    );
    for cache in [&cache_a, &cache_b] {
        let s = cache.stats();
        assert!(s.evictions > 0, "{label}: no eviction pressure: {s:?}");
        assert_eq!(s.fresh_allocs, 1, "{label}: the ring grew: {s:?}");
        assert_eq!(cache.pinned_pages(), 0, "{label}");
    }
}

#[test]
fn baselines_hold_no_pin_across_a_read() {
    let (a, b) = pair();
    let extent = Aabb::union_all(a.iter().chain(&b).map(|e| e.mbb));
    let disks = || (Disk::in_memory(2048), Disk::in_memory(2048));

    let (disk_a, disk_b) = disks();
    let config = tfm_pbsm::PbsmConfig::default();
    let mut stats = tfm_pbsm::PbsmStats::default();
    let pa = tfm_pbsm::pbsm_partition(&disk_a, &a, extent, &config, &mut stats);
    let pb = tfm_pbsm::pbsm_partition(&disk_b, &b, extent, &config, &mut stats);
    assert_no_pin_held("PBSM", &disk_a, &disk_b, |ha, hb| {
        tfm_pbsm::pbsm_join(ha, &pa, hb, &pb, &mut stats);
    });

    let (disk_a, disk_b) = disks();
    let mut stats = sssj::SssjStats::default();
    let pa = sssj::sssj_partition(&disk_a, &a, extent, 100, &mut stats);
    let pb = sssj::sssj_partition(&disk_b, &b, extent, 100, &mut stats);
    assert_no_pin_held("SSSJ", &disk_a, &disk_b, |ha, hb| {
        sssj::sssj_join(ha, &pa, hb, &pb, &mut stats);
    });

    let (disk_a, disk_b) = disks();
    let mut stats = s3::S3Stats::default();
    let levels = s3::levels_for(b.len(), 2048);
    let pa = s3::s3_partition(&disk_a, &a, extent, levels, &mut stats);
    let pb = s3::s3_partition(&disk_b, &b, extent, levels, &mut stats);
    assert_no_pin_held("S3", &disk_a, &disk_b, |ha, hb| {
        s3::s3_join(ha, &pa, hb, &pb, &mut stats);
    });

    let (disk_a, disk_b) = disks();
    let ta = tfm_rtree::RTree::bulk_load(&disk_a, a.clone());
    let tb = tfm_rtree::RTree::bulk_load(&disk_b, b.clone());
    let mut stats = tfm_rtree::RtreeStats::default();
    assert_no_pin_held("R-TREE", &disk_a, &disk_b, |ha, hb| {
        tfm_rtree::sync_join(ha, &ta, hb, &tb, &mut stats);
    });
}
