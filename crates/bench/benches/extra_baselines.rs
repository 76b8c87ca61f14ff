//! Criterion bench: the related-work baselines (SSSJ, S3) against PBSM on
//! the uniform workload, plus the R-Tree packing ablation (STR vs Hilbert,
//! §VIII-A).

mod common;

use common::*;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tfm_datagen::Distribution;
use tfm_geom::Aabb;
use tfm_storage::{CacheHandle, Disk};

fn bench(c: &mut Criterion) {
    let a = dataset(10_000, Distribution::Uniform, 100);
    let b = dataset(10_000, Distribution::Uniform, 101);
    let extent = Aabb::union_all(a.iter().chain(b.iter()).map(|e| e.mbb));

    let mut group = c.benchmark_group("extra/space_oriented");
    group.sample_size(10);

    let pbsm = PbsmFixture::new(&a, &b);
    group.bench_function("pbsm", |bench| bench.iter(|| black_box(pbsm.join())));

    // SSSJ fixture.
    let disk_a = Disk::in_memory(PAGE);
    let disk_b = Disk::in_memory(PAGE);
    let mut stats = tfm_sweep::sssj::SssjStats::default();
    let sa = tfm_sweep::sssj::sssj_partition(&disk_a, &a, extent, 100, &mut stats);
    let sb = tfm_sweep::sssj::sssj_partition(&disk_b, &b, extent, 100, &mut stats);
    group.bench_function("sssj", |bench| {
        bench.iter(|| {
            let mut stats = tfm_sweep::sssj::SssjStats::default();
            let (cache_a, cache_b) = (cache(&disk_a), cache(&disk_b));
            let mut pool_a = CacheHandle::shared(&cache_a);
            let mut pool_b = CacheHandle::shared(&cache_b);
            black_box(
                tfm_sweep::sssj::sssj_join(&mut pool_a, &sa, &mut pool_b, &sb, &mut stats).len(),
            )
        })
    });

    // S3 fixture.
    let disk_a3 = Disk::in_memory(PAGE);
    let disk_b3 = Disk::in_memory(PAGE);
    let mut stats3 = tfm_sweep::s3::S3Stats::default();
    let ta = tfm_sweep::s3::s3_partition(&disk_a3, &a, extent, 7, &mut stats3);
    let tb = tfm_sweep::s3::s3_partition(&disk_b3, &b, extent, 7, &mut stats3);
    group.bench_function("s3", |bench| {
        bench.iter(|| {
            let mut stats = tfm_sweep::s3::S3Stats::default();
            let (cache_a, cache_b) = (cache(&disk_a3), cache(&disk_b3));
            let mut pool_a = CacheHandle::shared(&cache_a);
            let mut pool_b = CacheHandle::shared(&cache_b);
            black_box(tfm_sweep::s3::s3_join(&mut pool_a, &ta, &mut pool_b, &tb, &mut stats).len())
        })
    });
    group.finish();

    // R-Tree packing ablation: STR vs Hilbert bulk load + sync join.
    let mut group = c.benchmark_group("ablation/rtree_packing");
    group.sample_size(10);
    for (label, hilbert) in [("str", false), ("hilbert", true)] {
        let disk_a = Disk::in_memory(PAGE);
        let disk_b = Disk::in_memory(PAGE);
        let (tree_a, tree_b) = if hilbert {
            (
                tfm_rtree::RTree::bulk_load_hilbert(&disk_a, a.clone()),
                tfm_rtree::RTree::bulk_load_hilbert(&disk_b, b.clone()),
            )
        } else {
            (
                tfm_rtree::RTree::bulk_load(&disk_a, a.clone()),
                tfm_rtree::RTree::bulk_load(&disk_b, b.clone()),
            )
        };
        group.bench_function(label, |bench| {
            bench.iter(|| {
                let mut stats = tfm_rtree::RtreeStats::default();
                let (cache_a, cache_b) = (cache(&disk_a), cache(&disk_b));
                let mut pool_a = CacheHandle::shared(&cache_a);
                let mut pool_b = CacheHandle::shared(&cache_b);
                black_box(
                    tfm_rtree::sync_join(&mut pool_a, &tree_a, &mut pool_b, &tree_b, &mut stats)
                        .len(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
