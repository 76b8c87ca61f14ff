//! Behavioural contracts of the adaptive machinery: transformations fire
//! where the paper says they should and stay quiet where they should not.

use transformers_repro::prelude::*;

fn run(
    a: Vec<SpatialElement>,
    b: Vec<SpatialElement>,
    cfg: &JoinConfig,
) -> transformers::TransformersStats {
    let disk_a = Disk::default_in_memory();
    let disk_b = Disk::default_in_memory();
    // Small capacities give a rich node graph even at test scale, matching
    // the paper's elements-to-nodes proportions.
    let idx_cfg = IndexConfig {
        unit_capacity: Some(32),
        node_capacity: Some(16),
        ..IndexConfig::default()
    };
    let idx_a = TransformersIndex::build(&disk_a, a, &idx_cfg);
    let idx_b = TransformersIndex::build(&disk_b, b, &idx_cfg);
    transformers_join(&idx_a, &disk_a, &idx_b, &disk_b, cfg).stats
}

fn uniform(count: usize, seed: u64) -> Vec<SpatialElement> {
    generate(&DatasetSpec {
        max_side: 4.0,
        ..DatasetSpec::uniform(count, seed)
    })
}

#[test]
fn extreme_contrast_triggers_transformations_and_filters_pages() {
    // 500x density contrast: the sparse side must guide and the layout
    // must descend, so only a small fraction of the dense side is read.
    let stats = run(uniform(800, 1), uniform(400_000, 2), &JoinConfig::default());
    assert!(
        stats.transformations() > 0,
        "extreme contrast must transform: {stats:?}"
    );
    let dense_pages = 400_000 / 32; // unit capacity 32 in run()
    assert!(
        (stats.pages_read as usize) < dense_pages / 2,
        "expected strong filtering, read {} of ~{} pages",
        stats.pages_read,
        dense_pages
    );
}

#[test]
fn uniform_similar_density_stays_coarse() {
    // Equal densities: volume ratios hover around 1, far from t_su, so the
    // join should stay at node granularity.
    let stats = run(
        uniform(20_000, 3),
        uniform(20_000, 4),
        &JoinConfig::default(),
    );
    assert_eq!(
        stats.layout_transformations + stats.element_layout_transformations,
        0,
        "similar densities must not split: {stats:?}"
    );
}

#[test]
fn no_tr_config_never_transforms_anywhere() {
    let cfg = JoinConfig::without_transformations();
    let stats = run(uniform(500, 5), uniform(100_000, 6), &cfg);
    assert_eq!(stats.transformations(), 0);
}

#[test]
fn overfit_thresholds_transform_more_than_cost_model() {
    let a = || {
        generate(&DatasetSpec {
            max_side: 4.0,
            ..DatasetSpec::with_distribution(
                30_000,
                Distribution::MassiveCluster {
                    clusters: 4,
                    elements_per_cluster: 4_000,
                },
                7,
            )
        })
    };
    let b = || uniform(30_000, 8);
    let over = run(
        a(),
        b(),
        &JoinConfig::default().with_thresholds(ThresholdPolicy::over_fit()),
    );
    let under = run(
        a(),
        b(),
        &JoinConfig::default().with_thresholds(ThresholdPolicy::under_fit()),
    );
    assert!(over.transformations() > under.transformations());
    assert_eq!(under.layout_transformations, 0);
}

#[test]
fn exploration_overhead_is_bounded() {
    // Fig. 14: the adaptive machinery must not dominate execution. At
    // laptop scale (in-memory metadata) overhead is a small share of CPU
    // time; assert a generous bound. The share is exploration ÷
    // (exploration + in-memory join), so it moves when either does: the
    // window-clipped grid kernel roughly halved the denominator's join
    // part, which took the share on `benchmark/`'s four workloads from
    // 5–14 % to 10–36 % with exploration itself unchanged.
    let stats = run(
        uniform(50_000, 9),
        uniform(50_000, 10),
        &JoinConfig::default(),
    );
    let total_cpu = stats.join_cpu + stats.exploration_overhead;
    assert!(
        stats.exploration_overhead.as_secs_f64() <= 0.8 * total_cpu.as_secs_f64().max(1e-9),
        "overhead {:?} of cpu {:?}",
        stats.exploration_overhead,
        total_cpu
    );
}

#[test]
fn walk_fallbacks_are_rare_on_well_behaved_data() {
    let stats = run(
        uniform(30_000, 11),
        uniform(30_000, 12),
        &JoinConfig::default(),
    );
    // The Hilbert-seeded best-first walk should essentially never give up
    // on uniformly distributed data.
    assert!(
        stats.walk_fallbacks <= stats.walk_steps / 10 + 2,
        "too many fallbacks: {stats:?}"
    );
}
