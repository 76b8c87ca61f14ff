//! Property tests for the STR partitioner: the invariants the adaptive walk
//! depends on must hold for arbitrary inputs.

use proptest::prelude::*;
use tfm_geom::{Aabb, Point3, SpatialElement};
use tfm_partition::{str_partition, str_partition_pooled};
use tfm_pool::StagePool;

fn arb_elems(max: usize) -> impl Strategy<Value = Vec<SpatialElement>> {
    prop::collection::vec(
        (
            -100.0..100.0f64,
            -100.0..100.0f64,
            -100.0..100.0f64,
            0.0..5.0f64,
            0.0..5.0f64,
            0.0..5.0f64,
        ),
        1..max,
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn partitions_preserve_items_exactly(elems in arb_elems(200), cap in 1usize..40) {
        let n = elems.len();
        let parts = str_partition(elems, cap);
        let mut ids: Vec<u64> = parts.iter().flat_map(|p| p.items.iter().map(|e| e.id)).collect();
        ids.sort_unstable();
        let expected: Vec<u64> = (0..n as u64).collect();
        prop_assert_eq!(ids, expected);
    }

    #[test]
    fn capacity_respected(elems in arb_elems(150), cap in 1usize..30) {
        for p in str_partition(elems, cap).iter() {
            prop_assert!(!p.items.is_empty());
            prop_assert!(p.items.len() <= cap);
        }
    }

    #[test]
    fn centers_inside_partition_mbb(elems in arb_elems(150), cap in 1usize..30) {
        use tfm_geom::HasMbb;
        for p in str_partition(elems, cap).iter() {
            for item in p.items {
                prop_assert!(p.partition_mbb.contains_point(&item.center()));
            }
        }
    }

    #[test]
    fn partition_mbbs_tile_extent(elems in arb_elems(120), cap in 1usize..25) {
        let elems_boxes: Vec<Aabb> = elems.iter().map(|e| e.mbb).collect();
        let extent = Aabb::union_all(elems_boxes);
        let parts = str_partition(elems, cap);
        // Union of partition MBBs covers the extent...
        let union = Aabb::union_all(parts.iter().map(|p| p.partition_mbb));
        prop_assert_eq!(union, extent);
        // ...their volumes sum to the extent volume (no gaps)...
        let total: f64 = parts.iter().map(|p| p.partition_mbb.volume()).sum();
        prop_assert!((total - extent.volume()).abs() <= 1e-6 * extent.volume().max(1.0));
        // ...and pairwise interiors are disjoint.
        for (i, a) in parts.iter().enumerate() {
            for b in parts.iter().skip(i + 1) {
                let v = a.partition_mbb.intersection(&b.partition_mbb).map(|x| x.volume()).unwrap_or(0.0);
                prop_assert!(v <= 1e-9, "overlap volume {}", v);
            }
        }
    }

    #[test]
    fn page_mbb_is_union_of_items(elems in arb_elems(120), cap in 1usize..25) {
        for p in str_partition(elems, cap).iter() {
            let tight = Aabb::union_all(p.items.iter().map(|e| e.mbb));
            prop_assert_eq!(p.page_mbb, tight);
        }
    }

    #[test]
    fn pooled_equals_sequential(elems in arb_elems(200), cap in 1usize..40, threads in 2usize..6) {
        // The parallel partitioner must reproduce the sequential partition
        // vector exactly — same partition order, same items per partition
        // (in order), same boxes — or parallel index builds would lay out
        // different pages.
        let seq = str_partition(elems.clone(), cap);
        let pooled = str_partition_pooled(elems, cap, &StagePool::new(threads));
        prop_assert_eq!(pooled.len(), seq.len());
        for (a, b) in pooled.iter().zip(seq.iter()) {
            prop_assert_eq!(a.page_mbb, b.page_mbb);
            prop_assert_eq!(a.partition_mbb, b.partition_mbb);
            let ids_a: Vec<u64> = a.items.iter().map(|e| e.id).collect();
            let ids_b: Vec<u64> = b.items.iter().map(|e| e.id).collect();
            prop_assert_eq!(ids_a, ids_b);
        }
    }
}
