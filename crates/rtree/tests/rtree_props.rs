//! Property tests for the R-Tree: range queries and the synchronized join
//! must match brute force on arbitrary inputs.

use proptest::prelude::*;
use tfm_geom::{Aabb, Point3, SpatialElement};
use tfm_memjoin::{canonicalize, nested_loop_join, JoinStats};
use tfm_rtree::{sync_join, RTree, RtreeStats};
use tfm_storage::Disk;

fn arb_elems(max: usize) -> impl Strategy<Value = Vec<SpatialElement>> {
    prop::collection::vec(
        (
            0.0..200.0f64,
            0.0..200.0f64,
            0.0..200.0f64,
            0.0..15.0f64,
            0.0..15.0f64,
            0.0..15.0f64,
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

fn arb_query() -> impl Strategy<Value = Aabb> {
    (
        0.0..200.0f64,
        0.0..200.0f64,
        0.0..200.0f64,
        0.0..100.0f64,
        0.0..100.0f64,
        0.0..100.0f64,
    )
        .prop_map(|(x, y, z, dx, dy, dz)| {
            Aabb::new(Point3::new(x, y, z), Point3::new(x + dx, y + dy, z + dz))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn range_query_matches_scan(elems in arb_elems(150), query in arb_query()) {
        // Small page size forces several tree levels even on small inputs.
        let disk = Disk::in_memory(256);
        let tree = RTree::bulk_load(&disk, elems.clone());
        let mut stats = RtreeStats::default();
        let mut got = tree.range_query(&mut &disk, &query, &mut stats);
        got.sort_unstable();
        let mut expected: Vec<u64> = elems
            .iter()
            .filter(|e| e.mbb.intersects(&query))
            .map(|e| e.id)
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn sync_join_matches_oracle(a in arb_elems(100), b in arb_elems(100)) {
        let disk_a = Disk::in_memory(256);
        let disk_b = Disk::in_memory(512); // deliberately different heights
        let tree_a = RTree::bulk_load(&disk_a, a.clone());
        let tree_b = RTree::bulk_load(&disk_b, b.clone());
        let mut stats = RtreeStats::default();
        let got = canonicalize(sync_join(&mut &disk_a, &tree_a, &mut &disk_b, &tree_b, &mut stats));
        let mut s = JoinStats::default();
        prop_assert_eq!(got, canonicalize(nested_loop_join(&a, &b, &mut s)));
    }

    #[test]
    fn sync_join_reports_each_pair_once(a in arb_elems(80), b in arb_elems(80)) {
        let disk_a = Disk::in_memory(256);
        let disk_b = Disk::in_memory(256);
        let tree_a = RTree::bulk_load(&disk_a, a);
        let tree_b = RTree::bulk_load(&disk_b, b);
        let mut stats = RtreeStats::default();
        let got = sync_join(&mut &disk_a, &tree_a, &mut &disk_b, &tree_b, &mut stats);
        let n = got.len();
        prop_assert_eq!(canonicalize(got).len(), n, "duplicate pairs emitted");
    }
}
