//! Property-based tests for the geometry substrate.

use proptest::prelude::*;
use tfm_geom::hilbert;
use tfm_geom::{for_each_bit, total_order_key, Aabb, BoxColumns, Point3, SpatialQuery};

fn arb_point() -> impl Strategy<Value = Point3> {
    (-1000.0..1000.0f64, -1000.0..1000.0f64, -1000.0..1000.0f64)
        .prop_map(|(x, y, z)| Point3::new(x, y, z))
}

fn arb_aabb() -> impl Strategy<Value = Aabb> {
    (arb_point(), arb_point()).prop_map(|(a, b)| Aabb::from_corners(a, b))
}

/// A point on a 5×5×5 lattice: boxes built from such corners share faces,
/// edges and corners, collapse to flat or point boxes, and miss each other
/// along any one axis, all often.
fn lattice_point() -> impl Strategy<Value = Point3> {
    (0u8..5, 0u8..5, 0u8..5).prop_map(|(x, y, z)| Point3::new(x as f64, y as f64, z as f64))
}

fn lattice_aabb() -> impl Strategy<Value = Aabb> {
    // One box in four is a point box on purpose.
    (0u8..4, lattice_point(), lattice_point()).prop_map(|(kind, a, b)| match kind {
        0 => Aabb::from_point(a),
        _ => Aabb::from_corners(a, b),
    })
}

/// The closed-box intersection test as six plain comparisons.
fn plain_intersects(a: &Aabb, b: &Aabb) -> bool {
    a.min.x <= b.max.x
        && b.min.x <= a.max.x
        && a.min.y <= b.max.y
        && b.min.y <= a.max.y
        && a.min.z <= b.max.z
        && b.min.z <= a.max.z
}

/// The closed point-in-box test as six plain comparisons.
fn plain_contains_point(a: &Aabb, p: &Point3) -> bool {
    a.min.x <= p.x
        && p.x <= a.max.x
        && a.min.y <= p.y
        && p.y <= a.max.y
        && a.min.z <= p.z
        && p.z <= a.max.z
}

proptest! {
    #[test]
    fn intersection_symmetric(a in arb_aabb(), b in arb_aabb()) {
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
    }

    #[test]
    fn intersects_iff_zero_distance(a in arb_aabb(), b in arb_aabb()) {
        prop_assert_eq!(a.intersects(&b), a.min_distance_sq(&b) == 0.0);
    }

    #[test]
    fn union_contains_operands(a in arb_aabb(), b in arb_aabb()) {
        let u = a.union(&b);
        prop_assert!(u.contains(&a));
        prop_assert!(u.contains(&b));
    }

    #[test]
    fn intersection_contained_in_both(a in arb_aabb(), b in arb_aabb()) {
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.contains(&i));
            prop_assert!(b.contains(&i));
            prop_assert!(i.is_valid());
        }
    }

    #[test]
    fn containment_implies_intersection(a in arb_aabb(), b in arb_aabb()) {
        if a.contains(&b) {
            prop_assert!(a.intersects(&b));
        }
    }

    #[test]
    fn volume_nonnegative_and_monotone(a in arb_aabb(), b in arb_aabb()) {
        let u = a.union(&b);
        prop_assert!(a.volume() >= 0.0);
        prop_assert!(u.volume() >= a.volume().max(b.volume()) - 1e-9);
    }

    #[test]
    fn center_inside_box(a in arb_aabb()) {
        prop_assert!(a.contains_point(&a.center()));
    }

    #[test]
    fn inflate_contains_original(a in arb_aabb(), eps in 0.0..10.0f64) {
        prop_assert!(a.inflate(eps).contains(&a));
    }

    #[test]
    fn distance_triangle_inequality_via_union(a in arb_aabb(), b in arb_aabb(), c in arb_aabb()) {
        // dist(a, c) <= dist(a, b) + diameter-ish bound is hard; instead check
        // the weaker, exact property: distance to a union never exceeds the
        // distance to either operand.
        let u = b.union(&c);
        prop_assert!(a.min_distance_sq(&u) <= a.min_distance_sq(&b) + 1e-9);
        prop_assert!(a.min_distance_sq(&u) <= a.min_distance_sq(&c) + 1e-9);
    }

    #[test]
    fn hilbert_roundtrip(x in 0u32..=hilbert::MAX_COORD,
                         y in 0u32..=hilbert::MAX_COORD,
                         z in 0u32..=hilbert::MAX_COORD) {
        let idx = hilbert::index_from_coords([x, y, z]);
        prop_assert_eq!(hilbert::coords_from_index(idx), [x, y, z]);
    }

    #[test]
    fn hilbert_index_in_range(x in 0u32..=hilbert::MAX_COORD,
                              y in 0u32..=hilbert::MAX_COORD,
                              z in 0u32..=hilbert::MAX_COORD) {
        let idx = hilbert::index_from_coords([x, y, z]);
        prop_assert!(idx < 1u64 << (3 * hilbert::BITS));
    }

    #[test]
    fn hilbert_injective_on_pairs(a in any::<[u32; 3]>(), b in any::<[u32; 3]>()) {
        let a = a.map(|v| v & hilbert::MAX_COORD);
        let b = b.map(|v| v & hilbert::MAX_COORD);
        let ia = hilbert::index_from_coords(a);
        let ib = hilbert::index_from_coords(b);
        prop_assert_eq!(a == b, ia == ib);
    }

    #[test]
    fn total_order_key_orders_like_total_cmp(raw in prop::collection::vec(any::<u64>(), 0..24)) {
        // The values a comparison-free STR pass must order exactly as the
        // comparator did: both zeros, both infinities, the smallest and
        // largest subnormals and normals, quiet and signalling NaNs of both
        // signs — and random bit patterns on top.
        let mut values: Vec<f64> = [
            0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits((1 << 52) - 1),
            1.0,
            1.0 + f64::EPSILON,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0x7fff_ffff_ffff_ffff),
        ]
        .into_iter()
        .flat_map(|v| [v, -v])
        .collect();
        values.extend(raw.into_iter().map(f64::from_bits));
        for &a in &values {
            for &b in &values {
                prop_assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "{:#018x} vs {:#018x}", a.to_bits(), b.to_bits()
                );
            }
        }
    }

    #[test]
    fn for_each_match_is_matches_in_a_loop(
        boxes in prop::collection::vec(arb_aabb(), 0..40),
        window in arb_aabb(),
        point in arb_point(),
        eps in 0.0..400.0f64,
    ) {
        // Boxes drawn from the same cube as the probes: every kind both
        // hits and misses, and touching boxes occur via shared corners.
        let mut boxes = boxes;
        boxes.push(window);
        boxes.push(Aabb::from_point(point));
        for q in [
            SpatialQuery::Window(window),
            SpatialQuery::Point(point),
            SpatialQuery::Distance { center: point, eps },
        ] {
            let mut hits = Vec::new();
            q.for_each_match(boxes.len(), |i| boxes[i], |i| hits.push(i));
            let expected: Vec<usize> =
                (0..boxes.len()).filter(|&i| q.matches(&boxes[i])).collect();
            prop_assert_eq!(hits, expected, "{:?}", q);
        }
    }

    #[test]
    fn branch_free_box_tests_match_the_plain_comparisons(
        boxes in prop::collection::vec(lattice_aabb(), 1..80),
        probe in lattice_aabb(),
        point in lattice_point(),
    ) {
        // The empty box too: it intersects and contains nothing.
        let mut boxes = boxes;
        boxes.push(Aabb::empty());
        for b in &boxes {
            prop_assert_eq!(b.intersects(&probe), plain_intersects(b, &probe), "{:?} {:?}", b, probe);
            prop_assert_eq!(probe.intersects(b), plain_intersects(&probe, b), "{:?} {:?}", probe, b);
            prop_assert_eq!(b.contains_point(&point), plain_contains_point(b, &point), "{:?} {:?}", b, point);
        }
        // A column-wise group test sets exactly the bits of the boxes the
        // plain test admits, for every run a mask can cover.
        let columns: BoxColumns = boxes.iter().copied().collect();
        for start in 0..boxes.len() {
            let end = boxes.len().min(start + tfm_geom::MASK_BITS);
            let mut got = Vec::new();
            for_each_bit(columns.hit_mask(start..end, &probe), |k| got.push(start + k));
            let expected: Vec<usize> =
                (start..end).filter(|&i| plain_intersects(&boxes[i], &probe)).collect();
            prop_assert_eq!(got, expected);
        }
    }
}
