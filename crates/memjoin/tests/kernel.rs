//! The grid kernel against the nested-loop oracle on the inputs a grid gets
//! wrong first: coordinates on a lattice (reference points on cell
//! boundaries), windows with no thickness, duplicates, one box over every
//! cell, lopsided sides — and an exact test count on a pivot-shaped input,
//! so a selectivity regression fails without a timer.

use tfm_geom::{Aabb, Point3, SpatialElement};
use tfm_memjoin::{
    canonicalize, grid_hash_join, nested_loop_join, GridConfig, GridJoin, JoinStats, ResultPair,
};

fn cube(id: u64, min: [f64; 3], side: [f64; 3]) -> SpatialElement {
    SpatialElement::new(
        id,
        Aabb::new(
            Point3::new(min[0], min[1], min[2]),
            Point3::new(min[0] + side[0], min[1] + side[1], min[2] + side[2]),
        ),
    )
}

fn oracle(a: &[SpatialElement], b: &[SpatialElement]) -> Vec<ResultPair> {
    canonicalize(nested_loop_join(a, b, &mut JoinStats::default()))
}

/// Asserts the grid join of `a` × `b` equals the oracle, with no pair
/// reported twice, at resolution `config`.
fn assert_matches_oracle(a: &[SpatialElement], b: &[SpatialElement], config: &GridConfig) {
    let got = grid_hash_join(a, b, config, &mut JoinStats::default());
    let reported = got.len();
    let got = canonicalize(got);
    assert_eq!(got.len(), reported, "a pair was reported twice");
    assert_eq!(got, oracle(a, b), "{config:?}");
}

/// SplitMix64: a seeded stream without a dev-dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Three integers below `n`, as floats.
    fn below3(&mut self, n: u64) -> [f64; 3] {
        [0; 3].map(|_| (self.next() % n) as f64)
    }

    /// Three floats in `0.0..1.0`.
    fn unit3(&mut self) -> [f64; 3] {
        [0; 3].map(|_| (self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

#[test]
fn lattice_pair_on_a_cell_boundary_is_reported() {
    // Coordinates are multiples of 0.7. The pair's reference point (6.3 per
    // axis) sits on a cell boundary of the 5-cell grid over 0..10.5, where
    // ⌊(p − min) / cell_size⌋ and min + x · cell_size ≤ p round differently.
    let f = |k: u32| k as f64 * 0.7;
    let left = [
        cube(0, [f(9); 3], [f(10) - f(9); 3]),
        cube(1, [0.0; 3], [0.0; 3]),
        cube(2, [f(15); 3], [0.0; 3]),
    ];
    let right = [cube(0, [f(8); 3], [f(10) - f(8); 3])];
    assert_eq!(oracle(&left, &right), vec![(0, 0)]);
    assert_matches_oracle(&left, &right, &GridConfig::fixed(5));
}

#[test]
fn lattice_sweep_matches_oracle() {
    let mut rng = Rng(19);
    for step in [0.1, 0.3, 0.7, 1.0 / 3.0, 0.01, 0.001, 0.123] {
        for origin in [0.0, 0.1, 1.0 / 3.0, 7.3, 100.1] {
            for n in 1..=12 {
                for _ in 0..40 {
                    let mut side = |_| -> Vec<SpatialElement> {
                        (0..20)
                            .map(|id| {
                                let min = rng.below3(16).map(|k| origin + k * step);
                                cube(id, min, rng.below3(4).map(|k| k * step))
                            })
                            .collect()
                    };
                    let (a, b) = (side(0), side(1));
                    assert_matches_oracle(&a, &b, &GridConfig::fixed(n));
                }
            }
        }
    }
}

#[test]
fn windows_of_zero_thickness_report_the_touching_pairs() {
    // Two 3×3×3 blocks of unit cubes whose extents share only a face, an
    // edge or a corner: the window is flat in one, two or three dimensions
    // and the closed-box rule still joins the cubes that touch across it.
    let block = |offset: [f64; 3]| -> Vec<SpatialElement> {
        (0..27u64)
            .map(|i| {
                let k = [i % 3, i / 3 % 3, i / 9].map(|k| k as f64);
                cube(
                    i,
                    [k[0] + offset[0], k[1] + offset[1], k[2] + offset[2]],
                    [1.0; 3],
                )
            })
            .collect()
    };
    let a = block([0.0; 3]);
    for (offset, touching) in [
        ([3.0, 0.0, 0.0], "face"),
        ([3.0, 3.0, 0.0], "edge"),
        ([3.0, 3.0, 3.0], "corner"),
    ] {
        let b = block(offset);
        assert!(!oracle(&a, &b).is_empty(), "{touching}");
        for config in [
            GridConfig::default(),
            GridConfig::fixed(1),
            GridConfig::fixed(4),
        ] {
            assert_matches_oracle(&a, &b, &config);
            assert_matches_oracle(&b, &a, &config);
        }
    }
}

#[test]
fn disjoint_extents_report_nothing_and_test_nothing() {
    let a: Vec<_> = (0..50).map(|i| cube(i, [i as f64; 3], [1.0; 3])).collect();
    let b: Vec<_> = (0..50)
        .map(|i| cube(i, [i as f64 + 500.0; 3], [1.0; 3]))
        .collect();
    let mut stats = JoinStats::default();
    assert!(grid_hash_join(&a, &b, &GridConfig::default(), &mut stats).is_empty());
    assert_eq!(stats, JoinStats::default());
}

#[test]
fn identical_duplicate_boxes_on_both_sides() {
    // 30 copies of one box per side (all 900 pairs match), plus a few
    // distinct ones so the window is wider than the duplicates.
    let mut a: Vec<_> = (0..30).map(|i| cube(i, [2.0; 3], [1.0; 3])).collect();
    let mut b = a.clone();
    a.push(cube(30, [0.0; 3], [0.5; 3]));
    b.push(cube(30, [9.0; 3], [0.5; 3]));
    b.push(cube(31, [0.25; 3], [0.5; 3]));
    assert!(oracle(&a, &b).len() > 900);
    for n in [1, 2, 5, 9] {
        assert_matches_oracle(&a, &b, &GridConfig::fixed(n));
    }
    assert_matches_oracle(&a, &b, &GridConfig::default());
}

#[test]
fn one_element_spanning_every_cell() {
    let small: Vec<_> = (0..200)
        .map(|i| {
            let k = [i % 6, i / 6 % 6, i / 36].map(|k| k as f64 * 1.5);
            cube(i, k, [1.0; 3])
        })
        .collect();
    let huge = [cube(0, [-5.0; 3], [30.0; 3])];
    assert_eq!(oracle(&huge, &small).len(), 200);
    for config in [GridConfig::default(), GridConfig::fixed(7)] {
        assert_matches_oracle(&huge, &small, &config);
        assert_matches_oracle(&small, &huge, &config);
    }
}

#[test]
fn lopsided_sides_keep_the_pair_orientation() {
    // One side 100× the other, both orders: the kernel indexes the smaller
    // side either way and must still emit (left, right). Ids are disjoint
    // ranges, so a swapped pair cannot pass for a correct one.
    let mut rng = Rng(7);
    let mut side = |count: u64, first_id: u64| -> Vec<SpatialElement> {
        (0..count)
            .map(|i| cube(first_id + i, rng.unit3().map(|u| u * 40.0), [4.0; 3]))
            .collect()
    };
    let (few, many) = (side(30, 1_000_000), side(3000, 0));
    let mut kernel = GridJoin::default();
    for (left, right) in [(&few, &many), (&many, &few)] {
        let mut got = Vec::new();
        kernel.join(left, right, &mut JoinStats::default(), |l, r| {
            got.push((l.id, r.id))
        });
        assert!(got.len() > 100);
        assert_eq!(canonicalize(got), oracle(left, right));
    }
}

#[test]
fn pivot_shaped_input_costs_an_exact_number_of_tests() {
    // What a TRANSFORMERS pivot hands the kernel: a node's ~600 guide
    // elements packed in one tile, and ~1 700 follower elements from the
    // candidate units around it, most of which lie outside the tile.
    let mut rng = Rng(31);
    let mut boxes = |count: u64, from: f64, span: f64| -> Vec<SpatialElement> {
        (0..count)
            .map(|id| {
                let min = rng.unit3().map(|u| from + u * span);
                cube(id, min, rng.unit3().map(|u| u * 4.0))
            })
            .collect()
    };
    let guide = boxes(600, 0.0, 100.0);
    let follower = boxes(1700, -100.0, 300.0);
    let mut stats = JoinStats::default();
    let got = grid_hash_join(&guide, &follower, &GridConfig::default(), &mut stats);
    assert_eq!(canonicalize(got), oracle(&guide, &follower));
    // 2 300 of them are the window filter's. The grid over the union of
    // both extents that this kernel replaced made 6 477 tests on this input
    // (counted at that commit); the nested loop makes 1 020 000.
    const REPLACED_KERNEL_TESTS: u64 = 6_477;
    assert_eq!(stats.element_tests, 4_339);
    assert!(stats.element_tests < REPLACED_KERNEL_TESTS);
}
