//! Property tests for GIPSY: oracle equivalence regardless of which side
//! is sparse and of index geometry.

use proptest::prelude::*;
use tfm_geom::{Aabb, Point3, SpatialElement};
use tfm_gipsy::{gipsy_join, GipsyStats, SparseFile};
use tfm_memjoin::{canonicalize, nested_loop_join, JoinStats};
use tfm_storage::{CacheHandle, Disk, SharedPageCache, DEFAULT_POOL_PAGES};
use transformers::{IndexConfig, TransformersIndex};

fn arb_elems(max: usize) -> impl Strategy<Value = Vec<SpatialElement>> {
    prop::collection::vec(
        (
            0.0..100.0f64,
            0.0..100.0f64,
            0.0..100.0f64,
            0.0..8.0f64,
            0.0..8.0f64,
            0.0..8.0f64,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matches_oracle(
        sparse in arb_elems(40),
        dense in arb_elems(120),
        unit_cap in 2usize..20,
        node_cap in 2usize..8,
    ) {
        let sparse_disk = Disk::in_memory(2048);
        let dense_disk = Disk::in_memory(2048);
        let sf = SparseFile::write(&sparse_disk, sparse.clone());
        let idx_cfg = IndexConfig {
            unit_capacity: Some(unit_cap),
            node_capacity: Some(node_cap),
            ..IndexConfig::default()
        };
        let di = TransformersIndex::build(&dense_disk, dense.clone(), &idx_cfg);
        let dense_cache = SharedPageCache::with_shards(&dense_disk, DEFAULT_POOL_PAGES, 1);
        let mut stats = GipsyStats::default();
        let pairs = gipsy_join(&sparse_disk, &sf, &mut CacheHandle::shared(&dense_cache), &di, &mut stats);
        let total = pairs.len();
        let got = canonicalize(pairs);
        prop_assert_eq!(got.len(), total, "duplicates emitted");
        let mut s = JoinStats::default();
        prop_assert_eq!(got, canonicalize(nested_loop_join(&sparse, &dense, &mut s)));
    }
}
