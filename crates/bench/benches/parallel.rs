//! Scaling bench for the parallel execution subsystem (`tfm-exec`):
//! join-phase throughput at 1/2/4/8 workers on a uniform and a
//! non-uniform (clustered, cost-skewed) workload.
//!
//! The sequential `transformers_join` is included as the baseline so the
//! parallel path's single-worker overhead is visible, not just its
//! scaling.
//!
//! Note: on a single-CPU machine (e.g. a 1-core container) the curves are
//! flat — the bench then measures the parallel path's overhead, which
//! should stay within a few percent of sequential at every worker count.

mod common;

use common::*;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tfm_datagen::Distribution;
use tfm_exec::parallel_join;
use transformers::JoinConfig;

fn bench_workload(c: &mut Criterion, label: &str, fixture: &TrFixture) {
    let mut group = c.benchmark_group(format!("parallel/{label}"));
    group.sample_size(10);

    group.bench_function("sequential", |bench| {
        bench.iter(|| black_box(fixture.join(&JoinConfig::default())))
    });

    let cfg = JoinConfig::default();
    for workers in [1usize, 2, 4, 8] {
        group.bench_function(format!("workers_{workers}"), |bench| {
            bench.iter(|| {
                black_box(
                    parallel_join(
                        &fixture.idx_a,
                        &fixture.disk_a,
                        &fixture.idx_b,
                        &fixture.disk_b,
                        &cfg,
                        workers,
                    )
                    .pairs
                    .len(),
                )
            })
        });
    }
    group.finish();
}

fn bench(c: &mut Criterion) {
    let n = 20_000;

    let uniform = TrFixture::new(
        dataset(n, Distribution::Uniform, 30),
        dataset(n, Distribution::Uniform, 31),
    );
    bench_workload(c, &format!("uniform_{n}"), &uniform);

    // Non-uniform: massive clusters against a near-uniform background —
    // maximally skewed per-pivot cost, the case work stealing exists for.
    let nonuniform = TrFixture::new(
        dataset(
            n,
            Distribution::MassiveCluster {
                clusters: 5,
                elements_per_cluster: n / 5,
            },
            32,
        ),
        dataset(n, Distribution::UniformCluster { clusters: 100 }, 33),
    );
    bench_workload(c, &format!("nonuniform_{n}"), &nonuniform);
}

criterion_group!(benches, bench);
criterion_main!(benches);
