//! Property tests: the TRANSFORMERS join must equal the nested-loop oracle
//! on arbitrary inputs, configurations and index geometries.

use proptest::prelude::*;
use tfm_geom::{Aabb, Point3, SpatialElement};
use tfm_memjoin::{canonicalize, nested_loop_join, JoinStats};
use tfm_storage::Disk;
use transformers::{
    transformers_join, GuidePick, IndexConfig, JoinConfig, ThresholdPolicy, TransformersIndex,
};

fn arb_elems(max: usize, span: f64) -> impl Strategy<Value = Vec<SpatialElement>> {
    prop::collection::vec(
        (
            0.0..span,
            0.0..span,
            0.0..span,
            0.0..10.0f64,
            0.0..10.0f64,
            0.0..10.0f64,
        ),
        0..max,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(id, (x, y, z, dx, dy, dz))| {
                SpatialElement::new(
                    id as u64,
                    Aabb::new(Point3::new(x, y, z), Point3::new(x + dx, y + dy, z + dz)),
                )
            })
            .collect()
    })
}

fn oracle(a: &[SpatialElement], b: &[SpatialElement]) -> Vec<(u64, u64)> {
    let mut s = JoinStats::default();
    canonicalize(nested_loop_join(a, b, &mut s))
}

fn run(
    a: &[SpatialElement],
    b: &[SpatialElement],
    idx_cfg: &IndexConfig,
    join_cfg: &JoinConfig,
) -> Vec<(u64, u64)> {
    let disk_a = Disk::default_in_memory();
    let disk_b = Disk::default_in_memory();
    let idx_a = TransformersIndex::build(&disk_a, a.to_vec(), idx_cfg);
    let idx_b = TransformersIndex::build(&disk_b, b.to_vec(), idx_cfg);
    transformers_join(&idx_a, &disk_a, &idx_b, &disk_b, join_cfg).pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn join_matches_oracle_random_data(
        a in arb_elems(120, 100.0),
        b in arb_elems(120, 100.0),
        unit_cap in 2usize..20,
        node_cap in 2usize..8,
    ) {
        let idx_cfg = IndexConfig {
            unit_capacity: Some(unit_cap),
            node_capacity: Some(node_cap),
            ..IndexConfig::default()
        };
        let got = run(&a, &b, &idx_cfg, &JoinConfig::default());
        prop_assert_eq!(got, oracle(&a, &b));
    }

    #[test]
    fn join_matches_oracle_all_policies(
        a in arb_elems(80, 60.0),
        b in arb_elems(80, 60.0),
        policy_idx in 0usize..4,
        guide_b in any::<bool>(),
    ) {
        let policy = [
            ThresholdPolicy::CostModel,
            ThresholdPolicy::over_fit(),
            ThresholdPolicy::under_fit(),
            ThresholdPolicy::Disabled,
        ][policy_idx];
        let idx_cfg = IndexConfig { unit_capacity: Some(8), node_capacity: Some(4), ..IndexConfig::default() };
        let join_cfg = JoinConfig {
            thresholds: policy,
            first_guide: if guide_b { GuidePick::B } else { GuidePick::A },
            ..JoinConfig::default()
        };
        let got = run(&a, &b, &idx_cfg, &join_cfg);
        prop_assert_eq!(got, oracle(&a, &b));
    }

    #[test]
    fn join_matches_oracle_disjoint_and_overlapping_regions(
        a in arb_elems(60, 50.0),
        mut b in arb_elems(60, 50.0),
        shift in 0.0..200.0f64,
    ) {
        // Shift B so the datasets range from fully overlapping to disjoint.
        for e in &mut b {
            e.mbb = Aabb::new(
                Point3::new(e.mbb.min.x + shift, e.mbb.min.y, e.mbb.min.z),
                Point3::new(e.mbb.max.x + shift, e.mbb.max.y, e.mbb.max.z),
            );
        }
        let idx_cfg = IndexConfig { unit_capacity: Some(8), node_capacity: Some(4), ..IndexConfig::default() };
        let got = run(&a, &b, &idx_cfg, &JoinConfig::default());
        prop_assert_eq!(got, oracle(&a, &b));
    }
}
