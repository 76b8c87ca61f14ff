//! Property tests for the cross-worker pruning structure.
//!
//! Two contracts, checked over randomized workloads, worker counts and
//! index geometries:
//!
//! 1. **Pruning is invisible in the results.** The parallel join, pruning
//!    across workers through the shared board, returns the sequential
//!    join's pair set at every worker count.
//! 2. **Pruning is sound in the counters.** Cross-worker prunes are a
//!    subset of all prunes, and a 1-worker adaptive join under *fixed*
//!    thresholds reproduces the sequential join's pruned-candidate count
//!    exactly (the board then carries precisely the sequential `checked`
//!    state, so the parallel path can never prune more candidates than the
//!    sequential join — the multi-worker counts depend on thread
//!    interleaving and are checked against the set-equality contract
//!    instead).
//!
//! Fixed thresholds keep the transformation decisions independent of
//! wall-clock measurements, so the 1-worker trace comparison is exact.

use proptest::prelude::*;
use tfm_datagen::{generate, DatasetSpec, Distribution};
use tfm_exec::parallel_join;
use tfm_storage::Disk;
use transformers::{
    transformers_join, IndexConfig, JoinConfig, JoinOutcome, ThresholdPolicy, TransformersIndex,
};

fn dataset(count: usize, dist_pick: u8, seed: u64) -> Vec<tfm_geom::SpatialElement> {
    let distribution = match dist_pick % 4 {
        0 => Distribution::Uniform,
        1 => Distribution::massive_cluster_for(count),
        2 => Distribution::DenseCluster { clusters: 6 },
        _ => Distribution::UniformCluster { clusters: 12 },
    };
    generate(&DatasetSpec {
        max_side: 5.0,
        ..DatasetSpec::with_distribution(count, distribution, seed)
    })
}

struct Fixture {
    disk_a: Disk,
    idx_a: TransformersIndex,
    disk_b: Disk,
    idx_b: TransformersIndex,
    cfg: JoinConfig,
}

impl Fixture {
    fn run_parallel(&self, threads: usize) -> JoinOutcome {
        parallel_join(
            &self.idx_a,
            &self.disk_a,
            &self.idx_b,
            &self.disk_b,
            &self.cfg,
            threads,
        )
    }

    fn run_sequential(&self) -> JoinOutcome {
        transformers_join(
            &self.idx_a,
            &self.disk_a,
            &self.idx_b,
            &self.disk_b,
            &self.cfg,
        )
    }
}

fn fixture(
    na: usize,
    nb: usize,
    dist_a: u8,
    dist_b: u8,
    seed: u64,
    unit_cap: usize,
    node_cap: usize,
) -> Fixture {
    let a = dataset(na, dist_a, seed);
    let b = dataset(nb, dist_b, seed ^ 0x5bf0_3635);
    let disk_a = Disk::default_in_memory();
    let disk_b = Disk::default_in_memory();
    let idx_cfg = IndexConfig {
        unit_capacity: Some(unit_cap),
        node_capacity: Some(node_cap),
        ..IndexConfig::default()
    };
    let idx_a = TransformersIndex::build(&disk_a, a, &idx_cfg);
    let idx_b = TransformersIndex::build(&disk_b, b, &idx_cfg);
    // Aggressive fixed thresholds: plenty of role switches, and decisions
    // that do not depend on wall-clock cost-model calibration.
    let cfg = JoinConfig::default().with_thresholds(ThresholdPolicy::Fixed {
        t_su: 2.0,
        t_so: 4.0,
    });
    Fixture {
        disk_a,
        idx_a,
        disk_b,
        idx_b,
        cfg,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn pruned_and_unpruned_parallel_joins_agree(
        na in 400usize..2500,
        nb in 400usize..2500,
        dist_a in 0u8..4,
        dist_b in 0u8..4,
        seed in 0u64..1_000_000,
        unit_cap in 8usize..48,
        node_cap in 4usize..16,
    ) {
        let fx = fixture(na, nb, dist_a, dist_b, seed, unit_cap, node_cap);
        let seq = fx.run_sequential();
        for threads in [1usize, 2, 4] {
            let pruned = fx.run_parallel(threads);
            // Contract 1: the sequential pair set.
            prop_assert_eq!(&pruned.pairs, &seq.pairs, "threads = {}", threads);
            // Contract 2: counter soundness.
            prop_assert!(
                pruned.stats.cross_worker_pruned_units <= pruned.stats.pruned_units,
                "cross-worker prunes must be a subset of all prunes"
            );
        }
    }

    #[test]
    fn single_worker_pruning_matches_the_sequential_trace(
        na in 400usize..2000,
        nb in 400usize..2000,
        dist_a in 0u8..4,
        dist_b in 0u8..4,
        seed in 0u64..1_000_000,
    ) {
        let fx = fixture(na, nb, dist_a, dist_b, seed, 32, 8);
        let seq = fx.run_sequential();
        let par = fx.run_parallel(1);
        prop_assert_eq!(&par.pairs, &seq.pairs);
        // One worker sees through the shared board exactly the coverage
        // the sequential join tracks in its `checked` bitmaps, and fixed
        // thresholds make the transformation decisions identical — the
        // whole adaptive trace must therefore match, and in particular the
        // parallel join prunes no more candidates than the sequential one.
        prop_assert_eq!(par.stats.pruned_units, seq.stats.pruned_units);
        prop_assert_eq!(par.stats.role_transformations, seq.stats.role_transformations);
        prop_assert_eq!(par.stats.layout_transformations, seq.stats.layout_transformations);
        prop_assert_eq!(
            par.stats.element_layout_transformations,
            seq.stats.element_layout_transformations
        );
        prop_assert_eq!(par.stats.walk_steps, seq.stats.walk_steps);
        prop_assert_eq!(par.stats.mem.element_tests, seq.stats.mem.element_tests);
    }
}
