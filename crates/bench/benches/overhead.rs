//! Criterion bench for Fig. 14: end-to-end adaptive exploration on
//! MassiveCluster data (the workload whose overhead the paper reports),
//! plus the isolated walk+crawl cost per pivot.

mod common;

use common::*;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tfm_datagen::Distribution;
use transformers::explore::{adaptive_crawl, adaptive_walk, ExploreScratch};
use transformers::{JoinConfig, NodeId};

fn bench(c: &mut Criterion) {
    let a = dataset(
        20_000,
        Distribution::MassiveCluster {
            clusters: 5,
            elements_per_cluster: 2_000,
        },
        60,
    );
    let b = dataset(
        20_000,
        Distribution::MassiveCluster {
            clusters: 5,
            elements_per_cluster: 2_000,
        },
        61,
    );
    let tr = TrFixture::new(a, b);

    let mut group = c.benchmark_group("fig14/overhead");
    group.sample_size(10);
    group.bench_function("full_join", |bench| {
        bench.iter(|| black_box(tr.join(&JoinConfig::default())))
    });

    // Isolated exploration: one walk + crawl per pivot over the follower.
    let nodes = tr.idx_b.nodes();
    let units = tr.idx_b.units();
    let reach = tr.idx_b.reach_eps();
    let pivots: Vec<_> = tr.idx_a.nodes().iter().map(|n| n.page_mbb).collect();
    group.bench_function("walk_and_crawl_all_pivots", |bench| {
        bench.iter(|| {
            let mut scratch = ExploreScratch::default();
            let mut candidates = Vec::new();
            let mut found = 0usize;
            let mut pos = NodeId(0);
            for pivot in &pivots {
                let r = adaptive_walk(nodes, reach, pivot, pos, 64, &mut scratch);
                pos = r.found.unwrap_or(r.closest);
                if let Some(nf) = r.found {
                    candidates.clear();
                    adaptive_crawl(
                        nodes,
                        units,
                        reach,
                        pivot,
                        nf,
                        &mut scratch,
                        &mut candidates,
                    );
                    found += candidates.len();
                }
            }
            black_box(found)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
