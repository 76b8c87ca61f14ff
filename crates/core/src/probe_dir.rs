//! The in-memory **probe directory**: a packed, fixed-fanout bounding-box
//! hierarchy over the node level's page MBBs.
//!
//! The paper's hierarchy exists so a probe touches only the descriptors
//! near it; a flat scan of the node table throws that away. The directory
//! restores it for every probe-shaped prefilter (serve execute, a batch's
//! candidate pages, the mutable overlay's queries):
//! level 0 holds the node page MBBs in node order, and each box of level
//! `k + 1` is the union of a run of [`FANOUT`] consecutive level-`k`
//! boxes. Nodes come out of the node-level STR pass in STR order, so
//! consecutive runs are spatially tight without any re-sorting.
//!
//! Every level, and the unit page MBBs, is stored as six coordinate arrays
//! ([`BoxColumns`]), not as an array of [`Aabb`]s. A probe tests a whole
//! group of siblings at once — the up to [`FANOUT`] children of a box, or
//! up to [`MASK_BITS`] units of a node — into a bitmask with no branch per
//! box, and then walks the set bits. Only a hit decides a jump.
//!
//! The set bits are walked low to high, which is index order, and a probe
//! descends depth-first, so candidate units are yielded in ascending unit
//! (= page) order — exactly the order of the linear node→unit scan the
//! directory replaced, which keeps every page-read sequence and therefore
//! every I/O count identical.
//!
//! The directory is derived state: it is rebuilt from the descriptor
//! tables (index build, every published mutable snapshot) and never
//! written to disk.

use std::ops::Range;
use tfm_geom::{for_each_bit, Aabb, BoxColumns, MASK_BITS};

/// Boxes summarized by one box of the next level up.
const FANOUT: usize = 8;

/// Packed bounding-box hierarchy over one node table.
#[derive(Debug)]
pub(crate) struct ProbeDirectory {
    /// `levels[0]` holds node `n`'s page MBB at `n`; box `i` of
    /// `levels[k + 1]` is the union of boxes `i * FANOUT..(i + 1) * FANOUT`
    /// of `levels[k]`. The last level holds at most [`FANOUT`] boxes.
    levels: Vec<BoxColumns>,
    /// Node `n`'s member units, as indices into the unit table.
    unit_ranges: Vec<Range<u32>>,
    /// The unit page MBBs, in unit order.
    unit_boxes: BoxColumns,
}

impl ProbeDirectory {
    /// Builds the directory from each node's page MBB and unit range, in
    /// node order, and every unit's page MBB, in unit order.
    pub(crate) fn build(
        nodes: impl Iterator<Item = (Aabb, Range<u32>)>,
        unit_boxes: impl Iterator<Item = Aabb>,
    ) -> Self {
        let (boxes, unit_ranges): (BoxColumns, Vec<Range<u32>>) = nodes.unzip();
        let mut levels = vec![boxes];
        while let Some(below) = levels.last().filter(|below| below.len() > FANOUT) {
            let above = (0..below.len())
                .step_by(FANOUT)
                .map(|first| {
                    let run = first..(first + FANOUT).min(below.len());
                    Aabb::union_all(run.map(|i| below.get(i)))
                })
                .collect();
            levels.push(above);
        }
        Self {
            levels,
            unit_ranges,
            unit_boxes: unit_boxes.collect(),
        }
    }

    /// Calls `visit` with the index of every unit whose node page MBB
    /// **and** own page MBB intersect `probe` (closed intervals), in
    /// ascending unit order.
    #[inline]
    pub(crate) fn for_each_candidate_unit(&self, probe: &Aabb, mut visit: impl FnMut(usize)) {
        let top = self.levels.len() - 1;
        self.descend(top, 0..self.levels[top].len(), probe, &mut |node| {
            let units = &self.unit_ranges[node];
            let end = units.end as usize;
            for first in (units.start as usize..end).step_by(MASK_BITS) {
                let run = first..end.min(first + MASK_BITS);
                for_each_bit(self.unit_boxes.hit_mask(run, probe), |k| visit(first + k));
            }
        });
    }

    /// Visits, in ascending order, the nodes under `run` of `level` whose
    /// page MBB intersects `probe`.
    fn descend(
        &self,
        level: usize,
        run: Range<usize>,
        probe: &Aabb,
        visit_node: &mut impl FnMut(usize),
    ) {
        let mask = self.levels[level].hit_mask(run.clone(), probe);
        for_each_bit(mask, |k| {
            let i = run.start + k;
            if level == 0 {
                visit_node(i);
            } else {
                let first = i * FANOUT;
                let end = (first + FANOUT).min(self.levels[level - 1].len());
                self.descend(level - 1, first..end, probe, visit_node);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tfm_geom::Point3;

    /// A synthetic two-level table: per-node page MBB + unit range, and
    /// the unit page MBBs.
    struct Table {
        nodes: Vec<(Aabb, Range<u32>)>,
        units: Vec<Aabb>,
    }

    impl Table {
        fn directory(&self) -> ProbeDirectory {
            ProbeDirectory::build(self.nodes.iter().cloned(), self.units.iter().copied())
        }

        fn visited(&self, dir: &ProbeDirectory, probe: &Aabb) -> Vec<usize> {
            let mut out = Vec::new();
            dir.for_each_candidate_unit(probe, |u| out.push(u));
            out
        }

        /// The oracle: the linear node→unit scan the directory replaced.
        fn linear(&self, probe: &Aabb) -> Vec<usize> {
            let mut out = Vec::new();
            for (node_mbb, units) in &self.nodes {
                if !node_mbb.intersects(probe) {
                    continue;
                }
                for u in units.start as usize..units.end as usize {
                    if self.units[u].intersects(probe) {
                        out.push(u);
                    }
                }
            }
            out
        }
    }

    /// Tiny deterministic generator (SplitMix64) so table shapes are a
    /// function of `(nodes, seed)` alone.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Integer-valued coordinate in `[0, n)` — integers make exact
        /// face contact between boxes and probes common, not a fluke.
        fn coord(&mut self, n: u64) -> f64 {
            (self.next() % n) as f64
        }
    }

    /// `n` nodes laid out along x like STR slabs (so directory runs are
    /// spatially coherent, as in a built index), 0–3 units each; a node's
    /// page MBB is the union of its units' (empty for a unit-less node).
    fn table(n: usize, seed: u64) -> Table {
        let mut rng = Rng(seed);
        let mut nodes = Vec::with_capacity(n);
        let mut units = Vec::new();
        for i in 0..n {
            let first = units.len() as u32;
            for _ in 0..rng.next() % 4 {
                let min = Point3::new((i * 4) as f64 + rng.coord(4), rng.coord(40), rng.coord(40));
                let max = Point3::new(
                    min.x + rng.coord(6),
                    min.y + rng.coord(12),
                    min.z + rng.coord(12),
                );
                units.push(Aabb::new(min, max));
            }
            let range = first..units.len() as u32;
            let mbb = Aabb::union_all(units[first as usize..].iter().copied());
            nodes.push((mbb, range));
        }
        Table { nodes, units }
    }

    /// Node counts around every level boundary up to three levels above
    /// the node level, plus the degenerate tables.
    fn boundary_counts() -> Vec<usize> {
        let mut counts = vec![0, 1];
        for k in 1..=3u32 {
            let fk = FANOUT.pow(k);
            counts.extend([fk - 1, fk, fk + 1]);
        }
        counts
    }

    fn assert_same(t: &Table, dir: &ProbeDirectory, probe: &Aabb, tag: &str) {
        let got = t.visited(dir, probe);
        assert_eq!(got, t.linear(probe), "{tag}: probe {probe:?}");
        assert!(got.windows(2).all(|w| w[0] < w[1]), "{tag}: not ascending");
    }

    #[test]
    fn level_shapes_follow_the_fanout() {
        for n in boundary_counts() {
            let dir = table(n, 1).directory();
            assert_eq!(dir.levels[0].len(), n);
            for w in dir.levels.windows(2) {
                assert_eq!(w[1].len(), w[0].len().div_ceil(FANOUT), "n = {n}");
            }
            assert!(dir.levels.last().unwrap().len() <= FANOUT, "n = {n}");
        }
    }

    #[test]
    fn empty_and_outside_probes_visit_nothing() {
        let whole = Aabb::new(Point3::new(-1e9, -1e9, -1e9), Point3::new(1e9, 1e9, 1e9));
        let empty = table(0, 2);
        assert!(empty.visited(&empty.directory(), &whole).is_empty());

        for n in boundary_counts() {
            let t = table(n, 3);
            let dir = t.directory();
            // Everything lives in x ≥ 0, y/z in [0, 52].
            let outside = Aabb::new(Point3::new(-9.0, -9.0, -9.0), Point3::new(-1.0, 99.0, 99.0));
            assert!(t.visited(&dir, &outside).is_empty(), "n = {n}");
            assert_same(&t, &dir, &outside, "outside");
            // And the all-covering probe yields every unit of every node.
            assert_eq!(
                t.visited(&dir, &whole),
                (0..t.units.len()).collect::<Vec<_>>(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn face_touching_probes_count_as_hits() {
        for n in boundary_counts().into_iter().filter(|&n| n > 0) {
            let t = table(n, 4);
            let dir = t.directory();
            for (u, b) in t.units.iter().enumerate() {
                // A slab whose low x face coincides with the unit's high x
                // face: closed intervals make that an intersection.
                let probe = Aabb::new(
                    Point3::new(b.max.x, b.min.y, b.min.z),
                    Point3::new(b.max.x + 0.5, b.max.y, b.max.z),
                );
                let got = t.visited(&dir, &probe);
                assert!(got.contains(&u), "n = {n}: unit {u} missed on face contact");
                assert_same(&t, &dir, &probe, "face");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Visitor ≡ linear scan — same units, same ascending order — for
        // window and point probes inside, straddling and outside the
        // extent, at every boundary node count.
        #[test]
        fn visitor_equals_linear_scan(
            seed in 0u64..1_000_000,
            raw in proptest::collection::vec(
                ((0u32..80, 0u32..80, 0u32..80), (0u32..30, 0u32..30, 0u32..30)),
                1..24,
            ),
        ) {
            for n in boundary_counts() {
                let t = table(n, seed);
                let dir = t.directory();
                // Stretch x so probes sweep the whole slab layout.
                let sx = (n.max(1) * 4) as f64 / 40.0;
                for &((x, y, z), (dx, dy, dz)) in &raw {
                    // Shifted so a quarter of the probes start below the extent.
                    let (x, y, z) = (x as f64 - 20.0, y as f64 - 20.0, z as f64 - 20.0);
                    let min = Point3::new(x * sx, y, z);
                    let window = Aabb::new(
                        min,
                        Point3::new(min.x + dx as f64 * sx, min.y + dy as f64, min.z + dz as f64),
                    );
                    for probe in [window, Aabb::from_point(min), Aabb::from_point(window.max)] {
                        let got = t.visited(&dir, &probe);
                        prop_assert_eq!(&got, &t.linear(&probe), "n = {} probe {:?}", n, probe);
                        prop_assert!(got.windows(2).all(|w| w[0] < w[1]));
                    }
                }
            }
        }
    }
}
