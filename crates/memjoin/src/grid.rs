//! Uniform-grid hash join (Tauheed et al., BICOD '15).

use crate::{JoinStats, ResultPair};
use tfm_geom::{Aabb, SpatialElement};

/// Configuration of the uniform grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridConfig {
    /// Fixed number of cells per dimension; `None` derives it from the
    /// indexed side's cardinality via `target_per_cell`.
    pub cells_per_dim: Option<usize>,
    /// Desired average number of indexed elements per cell when sizing
    /// the grid automatically.
    pub target_per_cell: f64,
}

impl Default for GridConfig {
    fn default() -> Self {
        Self {
            cells_per_dim: None,
            target_per_cell: 4.0,
        }
    }
}

impl GridConfig {
    /// A grid with exactly `n` cells per dimension.
    pub fn fixed(n: usize) -> Self {
        Self {
            cells_per_dim: Some(n),
            target_per_cell: 4.0,
        }
    }

    fn resolve(&self, build_count: usize) -> usize {
        if let Some(n) = self.cells_per_dim {
            return n.max(1);
        }
        let cells = (build_count as f64 / self.target_per_cell).max(1.0);
        (cells.cbrt().ceil() as usize).clamp(1, 256)
    }
}

/// The one cell function of a grid of `n`³ cells over the join window.
///
/// [`cell`](Self::cell) is non-decreasing in the coordinate: the
/// subtraction, the multiplication by a non-negative constant, the
/// truncating cast and the clamp each are. Hashing, probing and pair
/// ownership all go through it, and that is the whole correctness argument
/// of [`GridJoin::join`] — no cell boundary is ever re-derived in floating
/// point.
struct CellFn {
    min: [f64; 3],
    /// `n / extent` per dimension; 0 where the window is flat (or so thin
    /// that the quotient overflows), which maps the dimension to cell 0.
    scale: [f64; 3],
    n: usize,
}

impl CellFn {
    fn new(window: &Aabb, n: usize) -> Self {
        let mut scale = [0.0; 3];
        for (d, s) in scale.iter_mut().enumerate() {
            let q = n as f64 / window.extent(d);
            if q.is_finite() {
                *s = q;
            }
        }
        Self {
            min: [window.min.x, window.min.y, window.min.z],
            scale,
            n,
        }
    }

    /// `clamp(⌊(v − min_d) · n / extent_d⌋, 0, n − 1)`. The cast truncates
    /// and saturates, which after the clamp is the same thing: anything
    /// below the window lands in cell 0, anything above in `n − 1`. (`i32`
    /// because x86-64 converts to it in one instruction, and to no unsigned
    /// type.)
    #[inline]
    fn cell(&self, d: usize, v: f64) -> usize {
        ((((v - self.min[d]) * self.scale[d]) as i32).max(0) as usize).min(self.n - 1)
    }

    /// Inclusive cell range a box overlaps (its corners clipped to the
    /// window by the clamp in [`cell`](Self::cell)).
    #[inline]
    fn range(&self, mbb: &Aabb) -> ([usize; 3], [usize; 3]) {
        (
            [
                self.cell(0, mbb.min.x),
                self.cell(1, mbb.min.y),
                self.cell(2, mbb.min.z),
            ],
            [
                self.cell(0, mbb.max.x),
                self.cell(1, mbb.max.y),
                self.cell(2, mbb.max.z),
            ],
        )
    }

    /// True if cell `c` owns the reference point `max(a.min, b.min)` of an
    /// intersecting pair.
    #[inline]
    fn owns(&self, c: [usize; 3], a: &Aabb, b: &Aabb) -> bool {
        self.cell(0, a.min.x.max(b.min.x)) == c[0]
            && self.cell(1, a.min.y.max(b.min.y)) == c[1]
            && self.cell(2, a.min.z.max(b.min.z)) == c[2]
    }
}

/// Closed-box intersection as six compares and no branch: on candidates
/// that share a cell the outcome of each single compare is close to a coin
/// flip. The outcomes are summed as integers because the optimiser turns
/// `&` on `bool`s back into a chain of short-circuit jumps.
#[inline]
fn overlaps(a: &Aabb, b: &Aabb) -> bool {
    (a.min.x <= b.max.x) as u8
        + (b.min.x <= a.max.x) as u8
        + (a.min.y <= b.max.y) as u8
        + (b.min.y <= a.max.y) as u8
        + (a.min.z <= b.max.z) as u8
        + (b.min.z <= a.max.z) as u8
        == 6
}

/// The grid itself, in CSR form: cell `c` holds
/// `cells[starts[c]..starts[c + 1]]`.
#[derive(Debug, Default)]
struct CellIndex {
    /// One slot longer than the layout needs: the counting sort shifts its
    /// counters by one so the fill pass can use them as cursors.
    starts: Vec<u32>,
    /// Cell-ordered copies of the indexed elements. Never shrunk; only the
    /// prefix `starts` describes is meaningful.
    cells: Vec<SpatialElement>,
}

impl CellIndex {
    /// Hashes `side[i]` for every `i` in `keep` into the cells its box
    /// overlaps, by a two-pass counting sort.
    fn build(&mut self, f: &CellFn, side: &[SpatialElement], keep: &[u32]) {
        let n = f.n;
        // Pass 1: cell `c`'s count goes to slot `c + 2`, so that after the
        // running sum slot `c + 1` holds the cell's start …
        self.starts.clear();
        self.starts.resize(n * n * n + 2, 0);
        for &i in keep {
            let (lo, hi) = f.range(&side[i as usize].mbb);
            for cz in lo[2]..=hi[2] {
                for cy in lo[1]..=hi[1] {
                    let row = (cz * n + cy) * n;
                    for count in &mut self.starts[row + lo[0] + 2..=row + hi[0] + 2] {
                        *count += 1;
                    }
                }
            }
        }
        let mut total = 0u32;
        for slot in &mut self.starts {
            total = total
                .checked_add(*slot)
                .expect("grid join replicates past u32 offsets");
            *slot = total;
        }
        if self.cells.len() < total as usize {
            self.cells.resize(total as usize, side[0]);
        }
        // … and pass 2 bumps slot `c + 1` once per element it places, which
        // leaves it at the cell's end, i.e. the start of cell `c + 1`:
        // slots `c` and `c + 1` now bracket cell `c`.
        for &i in keep {
            let e = side[i as usize];
            let (lo, hi) = f.range(&e.mbb);
            for cz in lo[2]..=hi[2] {
                for cy in lo[1]..=hi[1] {
                    let row = (cz * n + cy) * n;
                    for cursor in &mut self.starts[row + lo[0] + 1..=row + hi[0] + 1] {
                        self.cells[*cursor as usize] = e;
                        *cursor += 1;
                    }
                }
            }
        }
    }

    /// Tests `side[i]` for every `i` in `keep` against the elements of the
    /// cells its box overlaps, handing `hit` each intersecting (indexed
    /// element, probe) pair in the cell that owns it. Returns (box tests
    /// made, pairs handed over).
    fn probe(
        &self,
        f: &CellFn,
        side: &[SpatialElement],
        keep: &[u32],
        mut hit: impl FnMut(&SpatialElement, &SpatialElement),
    ) -> (u64, u64) {
        let n = f.n;
        let (mut tests, mut results) = (0u64, 0u64);
        for &i in keep {
            let p = &side[i as usize];
            let (lo, hi) = f.range(&p.mbb);
            for cz in lo[2]..=hi[2] {
                for cy in lo[1]..=hi[1] {
                    let row = (cz * n + cy) * n;
                    for cx in lo[0]..=hi[0] {
                        let cell = &self.cells
                            [self.starts[row + cx] as usize..self.starts[row + cx + 1] as usize];
                        tests += cell.len() as u64;
                        for e in cell {
                            if overlaps(&e.mbb, &p.mbb) && f.owns([cx, cy, cz], &e.mbb, &p.mbb) {
                                results += 1;
                                hit(e, p);
                            }
                        }
                    }
                }
            }
        }
        (tests, results)
    }
}

/// The uniform-grid hash join, with its scratch memory.
///
/// A value is meant to be kept and reused: every buffer grows to the
/// largest call it has seen and is then only overwritten, so a caller that
/// joins thousands of pivot-sized inputs (the TRANSFORMERS join, PBSM's
/// cell loop) allocates during the first few calls and never again.
///
/// One call of [`join`](Self::join):
///
/// 1. **Window.** `W = extent(left) ∩ extent(right)`. The overlap of any
///    intersecting pair lies inside both extents, hence inside `W`, so an
///    element that misses `W` cannot match anything and is dropped by one
///    box test. Disjoint extents end the call here.
/// 2. **Index the smaller side.** Whichever side has fewer survivors is
///    hashed into a grid over `W` of `n`³ cells (`n` from
///    [`GridConfig`] and that side's surviving count). The grid is a CSR
///    layout built by a two-pass counting sort: per-cell start offsets plus
///    cell-ordered *copies* of the elements, so a probe streams contiguous
///    memory instead of chasing indexes.
/// 3. **Probe.** Every survivor of the other side visits the cells its box
///    overlaps and is tested against their elements.
///
/// An element spanning several cells meets the same partner several times;
/// the pair is reported only in the cell that owns its *reference point*
/// `max(a.min, b.min)`, the minimum corner of the overlap (Dittrich &
/// Seeger, ICDE '00 — the technique PBSM uses across its partitions). The
/// cells an element is hashed into, the cells a probe visits and the owner
/// of a reference point all come from the one monotone cell function
/// `cell`: `a.min ≤ max(a.min, b.min) ≤ a.max` holds per dimension for an
/// intersecting pair, and likewise for `b`, so by monotonicity the owner
/// lies in both elements' cell ranges — the pair is tested there, and
/// reported there only. Deciding ownership with a second formula (say,
/// `min + x · cell_size ≤ p`) is what loses pairs: on coordinates that are
/// multiples of a step like 0.7 the two round differently, and a pair whose
/// reference point sits on a cell boundary is then reported in no cell.
#[derive(Debug, Default)]
pub struct GridJoin {
    config: GridConfig,
    /// Indexes of the elements of each side that meet the window.
    keep_left: Vec<u32>,
    keep_right: Vec<u32>,
    grid: CellIndex,
}

impl GridJoin {
    /// A kernel with empty scratch.
    pub fn new(config: GridConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }

    /// Joins `left` and `right`, handing every intersecting pair to `emit`
    /// exactly once as `(element of left, element of right)` — whichever
    /// side the kernel chose to index.
    ///
    /// `stats.element_tests` grows by every box comparison made, the
    /// window filter's included; the count is a function of the two inputs
    /// and the configuration only, not of what the scratch held before.
    pub fn join(
        &mut self,
        left: &[SpatialElement],
        right: &[SpatialElement],
        stats: &mut JoinStats,
        mut emit: impl FnMut(&SpatialElement, &SpatialElement),
    ) {
        if left.is_empty() || right.is_empty() {
            return;
        }
        assert!(
            left.len().max(right.len()) <= u32::MAX as usize,
            "grid join input exceeds u32 indexes"
        );
        let (el, er) = (extent(left), extent(right));
        let window = Aabb {
            min: el.min.max(&er.min),
            max: el.max.min(&er.max),
        };
        if window.is_empty() {
            return;
        }
        stats.element_tests += (left.len() + right.len()) as u64;
        keep_overlapping(left, &window, &mut self.keep_left);
        keep_overlapping(right, &window, &mut self.keep_right);

        // A tie indexes `left`, so the choice is a function of the inputs.
        let index_left = self.keep_left.len() <= self.keep_right.len();
        let (indexed, keep_indexed, probes, keep_probes) = if index_left {
            (left, &self.keep_left, right, &self.keep_right)
        } else {
            (right, &self.keep_right, left, &self.keep_left)
        };
        let f = CellFn::new(&window, self.config.resolve(keep_indexed.len()));
        self.grid.build(&f, indexed, keep_indexed);
        let (tests, results) = if index_left {
            self.grid.probe(&f, probes, keep_probes, |a, b| emit(a, b))
        } else {
            self.grid.probe(&f, probes, keep_probes, |b, a| emit(a, b))
        };
        stats.element_tests += tests;
        stats.results += results;
    }
}

fn extent(side: &[SpatialElement]) -> Aabb {
    Aabb::union_all(side.iter().map(|e| e.mbb))
}

/// Refills `keep` with the indexes of the elements of `side` that meet
/// `window`. Every index is written and the cursor advances only past the
/// survivors: whether an element survives is as unpredictable as a branch
/// gets.
fn keep_overlapping(side: &[SpatialElement], window: &Aabb, keep: &mut Vec<u32>) {
    keep.clear();
    keep.resize(side.len(), 0);
    let mut kept = 0;
    for (i, e) in side.iter().enumerate() {
        keep[kept] = i as u32;
        kept += overlaps(&e.mbb, window) as usize;
    }
    keep.truncate(kept);
}

/// Joins `left` and `right` with a throw-away [`GridJoin`], collecting the
/// id pairs. For tests and one-off calls; anything that joins repeatedly
/// keeps a [`GridJoin`] and reuses its scratch.
pub fn grid_hash_join(
    left: &[SpatialElement],
    right: &[SpatialElement],
    config: &GridConfig,
    stats: &mut JoinStats,
) -> Vec<ResultPair> {
    let mut out = Vec::new();
    GridJoin::new(*config).join(left, right, stats, |a, b| out.push((a.id, b.id)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{canonicalize, nested_loop_join};
    use tfm_geom::Point3;

    fn elem(id: u64, min: (f64, f64, f64), max: (f64, f64, f64)) -> SpatialElement {
        SpatialElement::new(
            id,
            Aabb::new(
                Point3::new(min.0, min.1, min.2),
                Point3::new(max.0, max.1, max.2),
            ),
        )
    }

    #[test]
    fn matches_nested_loop_on_small_input() {
        let a = vec![
            elem(0, (0.0, 0.0, 0.0), (2.0, 2.0, 2.0)),
            elem(1, (5.0, 5.0, 5.0), (7.0, 7.0, 7.0)),
            elem(2, (1.0, 1.0, 1.0), (6.0, 6.0, 6.0)),
        ];
        let b = vec![
            elem(0, (1.5, 1.5, 1.5), (5.5, 5.5, 5.5)),
            elem(1, (8.0, 8.0, 8.0), (9.0, 9.0, 9.0)),
        ];
        let mut s1 = JoinStats::default();
        let mut s2 = JoinStats::default();
        let expected = canonicalize(nested_loop_join(&a, &b, &mut s1));
        let got = canonicalize(grid_hash_join(&a, &b, &GridConfig::fixed(4), &mut s2));
        assert_eq!(got, expected);
    }

    #[test]
    fn no_duplicates_for_elements_spanning_many_cells() {
        // One huge element overlapping every cell of a fine grid.
        let a = vec![elem(0, (0.0, 0.0, 0.0), (100.0, 100.0, 100.0))];
        let b = vec![elem(0, (10.0, 10.0, 10.0), (90.0, 90.0, 90.0))];
        let mut s = JoinStats::default();
        let pairs = grid_hash_join(&a, &b, &GridConfig::fixed(8), &mut s);
        assert_eq!(pairs, vec![(0, 0)]);
        // It was *tested* in many cells but reported once.
        assert!(s.element_tests > 1);
    }

    #[test]
    fn empty_inputs_return_empty() {
        let a = vec![elem(0, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))];
        let mut s = JoinStats::default();
        assert!(grid_hash_join(&a, &[], &GridConfig::default(), &mut s).is_empty());
        assert!(grid_hash_join(&[], &a, &GridConfig::default(), &mut s).is_empty());
        assert_eq!(s.element_tests, 0);
    }

    #[test]
    fn degenerate_extent_single_point() {
        // All elements identical points: grid has zero extent.
        let a = vec![elem(0, (5.0, 5.0, 5.0), (5.0, 5.0, 5.0))];
        let b = vec![elem(0, (5.0, 5.0, 5.0), (5.0, 5.0, 5.0))];
        let mut s = JoinStats::default();
        let pairs = grid_hash_join(&a, &b, &GridConfig::default(), &mut s);
        assert_eq!(pairs, vec![(0, 0)]);
    }

    #[test]
    fn auto_sizing_clamps_reasonably() {
        assert_eq!(GridConfig::default().resolve(0), 1);
        assert_eq!(GridConfig::default().resolve(1), 1);
        assert!(GridConfig::default().resolve(1_000_000) <= 256);
        assert_eq!(GridConfig::fixed(10).resolve(5), 10);
    }

    #[test]
    fn grid_uses_fewer_tests_than_nested_loop_on_spread_data() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..100 {
            let f = i as f64 * 10.0;
            a.push(elem(i, (f, f, f), (f + 1.0, f + 1.0, f + 1.0)));
            b.push(elem(
                i,
                (f + 0.5, f + 0.5, f + 0.5),
                (f + 1.5, f + 1.5, f + 1.5),
            ));
        }
        let mut sn = JoinStats::default();
        let mut sg = JoinStats::default();
        let expected = canonicalize(nested_loop_join(&a, &b, &mut sn));
        let got = canonicalize(grid_hash_join(&a, &b, &GridConfig::fixed(10), &mut sg));
        assert_eq!(got, expected);
        assert!(sg.element_tests < sn.element_tests / 5);
    }

    /// `count` unit-ish boxes strung along the diagonal from `from`.
    fn diagonal(count: u64, from: f64) -> Vec<SpatialElement> {
        (0..count)
            .map(|i| {
                let f = from + i as f64 * 0.37;
                elem(i, (f, f, f), (f + 1.0, f + 1.5, f + 0.5))
            })
            .collect()
    }

    #[test]
    fn reused_scratch_gives_the_same_pairs_and_counts_and_stops_allocating() {
        // Alternating sizes, so every call meets scratch sized by another.
        let inputs: Vec<_> = [(600, 0.0, 40, 30.0), (3, 5.0, 900, 0.0), (70, 2.0, 70, 3.0)]
            .iter()
            .map(|&(na, fa, nb, fb)| (diagonal(na, fa), diagonal(nb, fb)))
            .collect();
        let capacities = |k: &GridJoin| {
            [
                k.keep_left.capacity(),
                k.keep_right.capacity(),
                k.grid.starts.capacity(),
                k.grid.cells.capacity(),
            ]
        };
        let mut kernel = GridJoin::default();
        let mut grown = None;
        for call in 0..1000 {
            let (a, b) = &inputs[call % inputs.len()];
            let (mut reused, mut fresh) = (Vec::new(), Vec::new());
            let (mut sr, mut sf) = (JoinStats::default(), JoinStats::default());
            kernel.join(a, b, &mut sr, |x, y| reused.push((x.id, y.id)));
            GridJoin::default().join(a, b, &mut sf, |x, y| fresh.push((x.id, y.id)));
            assert_eq!(reused, fresh, "call {call}");
            assert_eq!(sr, sf, "call {call}");
            assert!(!fresh.is_empty());
            // Every allocation the kernel makes is the growth of one of
            // its four buffers; once each input has been seen, none grows.
            if call + 1 == inputs.len() {
                grown = Some(capacities(&kernel));
            } else if call >= inputs.len() {
                assert_eq!(Some(capacities(&kernel)), grown, "call {call} allocated");
            }
        }
    }
}
