//! Sort-Tile-Recursive partitioning, sequential and pooled: one in-place
//! kernel that sorts integer keys, not elements.
//!
//! Every pass is `slice::sort_by_cached_key` on one `u64` per element —
//! [`total_order_key`] of the centre coordinate, computed once — so no
//! comparator re-derives centres and no element moves until its final
//! position in the pass is known. The input vector is permuted in place
//! and comes back as the result's storage; the partitions are ranges over
//! it ([`StrPartitions`]). A stable sort's output is unique and the key
//! orders exactly like `f64::total_cmp`, so the permutation — and with it
//! every page the bulk loads write — is the one the comparator sort of
//! whole elements produced, ties included (the test module keeps that
//! partitioner as the oracle).

use std::ops::Range;
use tfm_geom::{total_order_key, Aabb, HasMbb, Point3};
use tfm_pool::StagePool;

/// The result of an STR pass: the input vector, permuted into partition
/// order, plus one table row per partition (its range of the vector and
/// its two descriptor boxes). Consecutive partitions are consecutive
/// ranges, so any run of partitions is one slice of [`items`](Self::items).
#[derive(Debug, Clone)]
pub struct StrPartitions<T> {
    items: Vec<T>,
    table: Vec<StrEntry>,
}

/// One row of the partition table.
#[derive(Debug, Clone)]
struct StrEntry {
    range: Range<usize>,
    page_mbb: Aabb,
    partition_mbb: Aabb,
}

/// One STR partition, borrowed from a [`StrPartitions`].
#[derive(Debug)]
pub struct StrPartition<'a, T> {
    /// The items assigned to this partition (at most `capacity`).
    pub items: &'a [T],
    /// Tight bounding box of the items ("page MBB", paper §IV).
    pub page_mbb: Aabb,
    /// The slab region of the sort-split; partition MBBs of all partitions
    /// tile the dataset extent with no gaps ("partition MBB", paper §IV).
    pub partition_mbb: Aabb,
}

impl<T> StrPartitions<T> {
    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True if there are no partitions (the input was empty).
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// All items, in partition order.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// The items of partition `i`: a contiguous slice of [`items`](Self::items).
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn items_of(&self, i: usize) -> &[T] {
        &self.items[self.table[i].range.clone()]
    }

    /// Partition `i` with its two boxes.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> StrPartition<'_, T> {
        StrPartition {
            items: self.items_of(i),
            page_mbb: self.table[i].page_mbb,
            partition_mbb: self.table[i].partition_mbb,
        }
    }

    /// The partitions in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = StrPartition<'_, T>> {
        (0..self.len()).map(|i| self.get(i))
    }
}

impl<T: HasMbb> StrPartitions<T> {
    /// Cuts `items`, already in the order the caller wants on disk, into
    /// consecutive partitions of `capacity`; both boxes of a partition are
    /// the tight box of its items. This is how a packing that is not STR
    /// (the R-Tree's Hilbert ablation) hands its leaves to the same
    /// pipeline stages.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn chunked(items: Vec<T>, capacity: usize) -> Self {
        assert!(capacity > 0, "partition capacity must be positive");
        let table = (0..items.len())
            .step_by(capacity)
            .map(|start| {
                let range = start..(start + capacity).min(items.len());
                let mbb = Aabb::union_all(items[range.clone()].iter().map(|i| i.mbb()));
                StrEntry {
                    range,
                    page_mbb: mbb,
                    partition_mbb: mbb,
                }
            })
            .collect();
        Self { items, table }
    }
}

/// Partitions `items` into groups of at most `capacity` with 3-D STR.
///
/// The items are sorted by x-center and cut into vertical slabs, each slab
/// is sorted by y-center and cut into runs, and each run is sorted by
/// z-center and chunked into final partitions. Consecutive partitions are
/// spatially adjacent, so writing them to disk in order preserves spatial
/// locality (paper §IV: "spatially close elements are stored on the same
/// disk page").
///
/// Slab boundaries are the midpoints between neighbouring sort keys,
/// extended to the dataset extent at the edges — this is what makes the
/// partition MBBs a gap-free tiling (verified by property tests).
///
/// `items` is permuted in place and returned inside the result; no other
/// element buffer is allocated.
///
/// # Panics
/// Panics if `capacity == 0`.
pub fn str_partition<T: HasMbb>(items: Vec<T>, capacity: usize) -> StrPartitions<T> {
    partition_with(
        items,
        capacity,
        |items| items.sort_by_cached_key(|item| center_key(item, 0)),
        |slabs, plan| {
            slabs
                .into_iter()
                .flat_map(|slab| partition_slab(slab, plan))
                .collect()
        },
    )
}

/// [`str_partition`] with the x-sort and the per-slab y/z passes fanned out
/// over `pool`.
///
/// The result is **identical** to the sequential [`str_partition`] at any
/// thread count: the x pass sorts `(key, index)` pairs — distinct, so their
/// order is unique — with the pool's merge sort and applies the permutation
/// in place, and each x-slab — an independent, disjoint sub-slice after the
/// x pass — is partitioned by exactly the sequential code, with the slabs'
/// table rows concatenated in slab order. Index builds therefore lay out
/// byte-identical pages however many build threads run (verified by
/// equivalence property tests).
pub fn str_partition_pooled<T: HasMbb + Send>(
    items: Vec<T>,
    capacity: usize,
    pool: &StagePool,
) -> StrPartitions<T> {
    if pool.is_sequential() {
        return str_partition(items, capacity);
    }
    partition_with(
        items,
        capacity,
        |items| sort_x_pooled(items, pool),
        |slabs, plan| {
            pool.map_owned(slabs, |_, slab| partition_slab(slab, plan))
                .into_iter()
                .flatten()
                .collect()
        },
    )
}

/// The kernel both entry points run: plan, x pass, cut into slabs, y/z
/// passes per slab. They differ only in how the x pass sorts (`sort_x`) and
/// in where the slabs run (`fan_out`, which returns the slabs' table rows
/// in slab order).
fn partition_with<T: HasMbb>(
    mut items: Vec<T>,
    capacity: usize,
    sort_x: impl FnOnce(&mut [T]),
    fan_out: impl for<'a> FnOnce(Vec<Slab<'a, T>>, &StrPlan) -> Vec<StrEntry>,
) -> StrPartitions<T> {
    let table = match StrPlan::new(&items, capacity) {
        Some(plan) => {
            sort_x(&mut items);
            fan_out(x_slabs(&mut items, &plan), &plan)
        }
        None => Vec::new(),
    };
    StrPartitions { items, table }
}

/// The sort key of one pass: orders like `total_cmp` on the centre
/// coordinate along `dim`.
#[inline]
fn center_key<T: HasMbb>(item: &T, dim: usize) -> u64 {
    total_order_key(item.center().coord(dim))
}

/// The x pass of the pooled partitioner: what `sort_by_cached_key` does,
/// with the pair sort on the pool.
fn sort_x_pooled<T: HasMbb>(items: &mut [T], pool: &StagePool) {
    let mut order: Vec<(u64, usize)> = items
        .iter()
        .enumerate()
        .map(|(i, item)| (center_key(item, 0), i))
        .collect();
    pool.sort_by(&mut order, |a, b| a.cmp(b));
    // `order[i].1` is the item that belongs at `i`. Positions below `i`
    // are final, so an item swapped out of one of them is found by
    // following the swaps; recording where it went keeps later look-ups
    // short.
    for i in 0..items.len() {
        let mut from = order[i].1;
        while from < i {
            from = order[from].1;
        }
        order[i].1 = from;
        items.swap(i, from);
    }
}

/// The split geometry shared by the sequential and pooled partitioners.
struct StrPlan {
    extent: Aabb,
    /// Number of x-slabs: sx ≈ p^(1/3).
    sx: usize,
    per_x_slab: usize,
    /// y-runs per x-slab: sy ≈ sqrt(p/sx).
    sy: usize,
    capacity: usize,
}

impl StrPlan {
    /// `None` for an empty input, which has no extent to tile.
    fn new<T: HasMbb>(items: &[T], capacity: usize) -> Option<Self> {
        assert!(capacity > 0, "partition capacity must be positive");
        if items.is_empty() {
            return None;
        }
        let extent = Aabb::union_all(items.iter().map(|i| i.mbb()));
        let n = items.len();
        let p = n.div_ceil(capacity);
        let sx = (p as f64).cbrt().ceil() as usize;
        let per_x_slab = n.div_ceil(sx);
        let p_per_slab = p.div_ceil(sx);
        let sy = (p_per_slab as f64).sqrt().ceil() as usize;
        Some(Self {
            extent,
            sx,
            per_x_slab,
            sy,
            capacity,
        })
    }
}

/// One run of a sorted slice with its tiling interval along the sort
/// dimension.
struct Tile {
    range: Range<usize>,
    lo: f64,
    hi: f64,
}

/// Cuts `items`, sorted by centre along `dim`, into runs of `per_run` (at
/// most `max_runs`; the last run absorbs any remainder if the cap is hit)
/// and gives each run its tiling interval: boundaries are midpoints between
/// the last centre of a run and the first centre of the next, with the
/// outermost bounds extended to the dataset extent `lo..hi`. Midpoints are
/// clamped to be non-decreasing so that duplicate sort keys cannot produce
/// inverted slabs.
fn tiles<T: HasMbb>(
    items: &[T],
    dim: usize,
    max_runs: usize,
    per_run: usize,
    lo: f64,
    hi: f64,
) -> Vec<Tile> {
    let n = items.len();
    let mut out: Vec<Tile> = Vec::with_capacity(n.div_ceil(per_run).min(max_runs));
    let mut start = 0;
    let mut lower = lo;
    while start < n {
        let end = if out.len() + 1 == max_runs {
            n
        } else {
            (start + per_run).min(n)
        };
        let upper = if end == n {
            hi
        } else {
            let last = items[end - 1].center().coord(dim);
            let first = items[end].center().coord(dim);
            ((last + first) * 0.5).clamp(lower, hi)
        };
        out.push(Tile {
            range: start..end,
            lo: lower,
            // A single run spans the extent as given, even an inverted one.
            hi: if end - start == n {
                upper
            } else {
                upper.max(lower)
            },
        });
        lower = upper;
        start = end;
    }
    out
}

/// One x-slab: a disjoint sub-slice of the x-sorted vector, and the tile
/// (its range of that vector, its x interval) it was cut by.
struct Slab<'a, T> {
    items: &'a mut [T],
    x: Tile,
}

/// Cuts the x-sorted `items` into the plan's slabs.
fn x_slabs<'a, T: HasMbb>(items: &'a mut [T], plan: &StrPlan) -> Vec<Slab<'a, T>> {
    let (lo, hi) = (plan.extent.min.x, plan.extent.max.x);
    let mut rest = items;
    tiles(rest, 0, plan.sx, plan.per_x_slab, lo, hi)
        .into_iter()
        .map(|x| {
            let (items, tail) = std::mem::take(&mut rest).split_at_mut(x.range.len());
            rest = tail;
            Slab { items, x }
        })
        .collect()
}

/// The y/z passes over one x-slab — the independent unit of work the
/// pooled partitioner fans out. Returns the slab's rows of the partition
/// table, their ranges relative to the whole vector.
fn partition_slab<T: HasMbb>(slab: Slab<'_, T>, plan: &StrPlan) -> Vec<StrEntry> {
    let Slab { items, x } = slab;
    let extent = &plan.extent;
    let mut out = Vec::with_capacity(items.len().div_ceil(plan.capacity) + plan.sy);
    items.sort_by_cached_key(|item| center_key(item, 1));
    let per_y_run = items.len().div_ceil(plan.sy);
    for y in tiles(items, 1, plan.sy, per_y_run, extent.min.y, extent.max.y) {
        let run = &mut items[y.range.clone()];
        run.sort_by_cached_key(|item| center_key(item, 2));
        let run_start = x.range.start + y.range.start;
        for z in tiles(
            run,
            2,
            usize::MAX,
            plan.capacity,
            extent.min.z,
            extent.max.z,
        ) {
            out.push(StrEntry {
                page_mbb: Aabb::union_all(run[z.range.clone()].iter().map(|i| i.mbb())),
                partition_mbb: Aabb::new(
                    Point3::new(x.lo, y.lo, z.lo),
                    Point3::new(x.hi, y.hi, z.hi),
                ),
                range: run_start + z.range.start..run_start + z.range.end,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_geom::{Point3, SpatialElement};

    fn pt_elem(id: u64, x: f64, y: f64, z: f64) -> SpatialElement {
        SpatialElement::new(id, Aabb::from_point(Point3::new(x, y, z)))
    }

    fn grid_elems(n: usize) -> Vec<SpatialElement> {
        let mut v = Vec::new();
        let mut id = 0;
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    v.push(pt_elem(id, x as f64, y as f64, z as f64));
                    id += 1;
                }
            }
        }
        v
    }

    #[test]
    fn empty_input_gives_no_partitions() {
        let parts = str_partition(Vec::<SpatialElement>::new(), 10);
        assert!(parts.is_empty());
    }

    #[test]
    fn single_partition_when_under_capacity() {
        let elems = grid_elems(2); // 8 elements
        let parts = str_partition(elems.clone(), 100);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts.get(0).items.len(), 8);
        let extent = Aabb::union_all(elems.iter().map(|e| e.mbb));
        assert_eq!(parts.get(0).partition_mbb, extent);
        assert_eq!(parts.get(0).page_mbb, extent);
    }

    #[test]
    fn every_item_lands_in_exactly_one_partition() {
        let elems = grid_elems(6); // 216
        let parts = str_partition(elems.clone(), 10);
        let mut ids: Vec<u64> = parts
            .iter()
            .flat_map(|p| p.items.iter().map(|e| e.id))
            .collect();
        ids.sort_unstable();
        let expected: Vec<u64> = (0..216).collect();
        assert_eq!(ids, expected);
        for p in parts.iter() {
            assert!(p.items.len() <= 10);
            assert!(!p.items.is_empty());
        }
    }

    #[test]
    fn page_mbb_is_tight_and_inside_items_union() {
        let elems = grid_elems(5);
        for p in str_partition(elems, 12).iter() {
            let tight = Aabb::union_all(p.items.iter().map(|e| e.mbb));
            assert_eq!(p.page_mbb, tight);
        }
    }

    #[test]
    fn partition_mbbs_cover_every_item_center() {
        let elems = grid_elems(6);
        for p in str_partition(elems, 9).iter() {
            for item in p.items {
                assert!(
                    p.partition_mbb.contains_point(&item.center()),
                    "{:?} outside {:?}",
                    item.center(),
                    p.partition_mbb
                );
            }
        }
    }

    #[test]
    fn partition_mbbs_tile_without_gaps() {
        // Total volume of partition MBBs equals the extent volume, and no
        // two partition MBBs overlap with positive volume.
        let elems = grid_elems(6);
        let parts = str_partition(elems, 9);
        let extent = Aabb::union_all(parts.iter().map(|p| p.partition_mbb));
        let total: f64 = parts.iter().map(|p| p.partition_mbb.volume()).sum();
        assert!(
            (total - extent.volume()).abs() < 1e-6 * extent.volume(),
            "tiling volume {total} vs extent {}",
            extent.volume()
        );
        for (i, a) in parts.iter().enumerate() {
            for b in parts.iter().skip(i + 1) {
                let overlap = a
                    .partition_mbb
                    .intersection(&b.partition_mbb)
                    .map(|x| x.volume())
                    .unwrap_or(0.0);
                assert!(overlap < 1e-9, "partitions overlap by {overlap}");
            }
        }
    }

    #[test]
    fn partition_count_is_near_optimal() {
        let elems = grid_elems(6); // 216 items
        let parts = str_partition(elems, 10); // ⌈216/10⌉ = 22 minimum
        assert!(parts.len() >= 22);
        assert!(parts.len() <= 40, "too many partitions: {}", parts.len());
    }

    #[test]
    fn duplicate_coordinates_are_handled() {
        // All elements at the same point: degenerate extent.
        let elems: Vec<_> = (0..50).map(|i| pt_elem(i, 1.0, 1.0, 1.0)).collect();
        let parts = str_partition(elems, 8);
        let total: usize = parts.iter().map(|p| p.items.len()).sum();
        assert_eq!(total, 50);
        for p in parts.iter() {
            assert!(p.items.len() <= 8);
        }
    }

    #[test]
    fn pooled_partitioning_matches_sequential_exactly() {
        // Non-trivial sizes with duplicate coordinates so both the stable
        // sort and the slab fan-out are exercised.
        let mut elems = grid_elems(6); // 216 items
        elems.extend((0..40).map(|i| pt_elem(1000 + i, 2.0, 2.0, 2.0)));
        for cap in [1, 7, 10, 50] {
            let seq = str_partition(elems.clone(), cap);
            for threads in [1, 2, 3, 4, 8] {
                let pooled = str_partition_pooled(elems.clone(), cap, &StagePool::new(threads));
                assert_eq!(pooled.len(), seq.len(), "cap {cap} threads {threads}");
                for (a, b) in pooled.iter().zip(seq.iter()) {
                    assert_eq!(a.page_mbb, b.page_mbb, "cap {cap} threads {threads}");
                    assert_eq!(a.partition_mbb, b.partition_mbb);
                    let ids_a: Vec<u64> = a.items.iter().map(|e| e.id).collect();
                    let ids_b: Vec<u64> = b.items.iter().map(|e| e.id).collect();
                    assert_eq!(ids_a, ids_b, "cap {cap} threads {threads}");
                }
            }
        }
    }

    #[test]
    fn works_for_generic_mbb_items() {
        // STR over plain Aabbs (as used when grouping space units into nodes).
        let boxes: Vec<Aabb> = (0..30)
            .map(|i| {
                let f = i as f64;
                Aabb::new(Point3::new(f, 0.0, 0.0), Point3::new(f + 0.5, 1.0, 1.0))
            })
            .collect();
        let parts = str_partition(boxes, 4);
        let total: usize = parts.iter().map(|p| p.items.len()).sum();
        assert_eq!(total, 30);
    }

    /// The partitioner this kernel replaced, kept as the oracle: it stable-
    /// sorts the elements themselves with a `total_cmp` comparator and moves
    /// every run into its own `Vec`.
    mod reference {
        use tfm_geom::{Aabb, HasMbb, Point3};

        pub struct Partition<T> {
            pub items: Vec<T>,
            pub page_mbb: Aabb,
            pub partition_mbb: Aabb,
        }

        pub fn str_partition<T: HasMbb>(items: Vec<T>, capacity: usize) -> Vec<Partition<T>> {
            assert!(capacity > 0, "partition capacity must be positive");
            if items.is_empty() {
                return Vec::new();
            }
            let extent = Aabb::union_all(items.iter().map(|i| i.mbb()));
            let n = items.len();
            let p = n.div_ceil(capacity);
            let sx = (p as f64).cbrt().ceil() as usize;
            let per_x_slab = n.div_ceil(sx);
            let sy = (p.div_ceil(sx) as f64).sqrt().ceil() as usize;

            let mut out = Vec::new();
            let x_slabs = split_sorted(items, 0, sx, per_x_slab);
            for (x_lo, x_hi, slab) in with_bounds(x_slabs, extent.min.x, extent.max.x, 0) {
                let per_y_run = slab.len().div_ceil(sy);
                let y_runs = split_sorted(slab, 1, sy, per_y_run);
                for (y_lo, y_hi, run) in with_bounds(y_runs, extent.min.y, extent.max.y, 1) {
                    let chunks = split_sorted(run, 2, usize::MAX, capacity);
                    for (z_lo, z_hi, chunk) in with_bounds(chunks, extent.min.z, extent.max.z, 2) {
                        out.push(Partition {
                            page_mbb: Aabb::union_all(chunk.iter().map(|i| i.mbb())),
                            partition_mbb: Aabb::new(
                                Point3::new(x_lo, y_lo, z_lo),
                                Point3::new(x_hi, y_hi, z_hi),
                            ),
                            items: chunk,
                        });
                    }
                }
            }
            out
        }

        fn split_sorted<T: HasMbb>(
            mut items: Vec<T>,
            dim: usize,
            max_runs: usize,
            per_run: usize,
        ) -> Vec<Vec<T>> {
            items.sort_by(|a, b| a.center().coord(dim).total_cmp(&b.center().coord(dim)));
            let mut runs: Vec<Vec<T>> = Vec::new();
            let mut it = items.into_iter().peekable();
            while it.peek().is_some() {
                if runs.len() + 1 == max_runs {
                    runs.push(it.by_ref().collect());
                    break;
                }
                runs.push(it.by_ref().take(per_run).collect());
            }
            runs
        }

        fn with_bounds<T: HasMbb>(
            runs: Vec<Vec<T>>,
            lo: f64,
            hi: f64,
            dim: usize,
        ) -> Vec<(f64, f64, Vec<T>)> {
            let n = runs.len();
            if n == 1 {
                let only = runs.into_iter().next().expect("n == 1");
                return vec![(lo, hi, only)];
            }
            let mut bounds = Vec::with_capacity(n + 1);
            bounds.push(lo);
            for w in runs.windows(2) {
                let last = w[0].last().expect("non-empty run").center().coord(dim);
                let first = w[1].first().expect("non-empty run").center().coord(dim);
                let prev = *bounds.last().expect("non-empty bounds");
                bounds.push(((last + first) * 0.5).clamp(prev, hi));
            }
            bounds.push(hi);
            runs.into_iter()
                .enumerate()
                .map(|(i, run)| (bounds[i], bounds[i + 1].max(bounds[i]), run))
                .collect()
        }
    }

    fn box_bits(b: &Aabb) -> [u64; 6] {
        [b.min.x, b.min.y, b.min.z, b.max.x, b.max.y, b.max.z].map(f64::to_bits)
    }

    fn elem_bits(e: &SpatialElement) -> (u64, [u64; 6]) {
        (e.id, box_bits(&e.mbb))
    }

    /// The kernel, sequential and pooled at 1, 2, 3 and 8 threads, must
    /// reproduce the reference partition sequence: the same items in the
    /// same order in every partition, both boxes equal to the bit.
    fn assert_equals_reference(elems: &[SpatialElement], capacity: usize) {
        let want = reference::str_partition(elems.to_vec(), capacity);
        let mut runs = vec![(
            "sequential".to_string(),
            str_partition(elems.to_vec(), capacity),
        )];
        for threads in [1, 2, 3, 8] {
            let pool = StagePool::new(threads);
            runs.push((
                format!("{threads} threads"),
                str_partition_pooled(elems.to_vec(), capacity, &pool),
            ));
        }
        for (how, got) in &runs {
            let ctx = format!("{how}, n {}, capacity {capacity}", elems.len());
            assert_eq!(got.len(), want.len(), "{ctx}");
            assert_eq!(got.is_empty(), want.is_empty(), "{ctx}");
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                let g_items: Vec<_> = g.items.iter().map(elem_bits).collect();
                let w_items: Vec<_> = w.items.iter().map(elem_bits).collect();
                assert_eq!(g_items, w_items, "{ctx}, partition {i}");
                assert_eq!(g.items, got.items_of(i), "{ctx}, partition {i}");
                assert_eq!(
                    box_bits(&g.page_mbb),
                    box_bits(&w.page_mbb),
                    "{ctx}, partition {i}"
                );
                assert_eq!(
                    box_bits(&g.partition_mbb),
                    box_bits(&w.partition_mbb),
                    "{ctx}, partition {i}"
                );
            }
            // The ranges are consecutive: the flat vector is the
            // concatenation of the partitions.
            let flat: Vec<_> = got.items().iter().map(elem_bits).collect();
            let concat: Vec<_> = want
                .iter()
                .flat_map(|w| w.items.iter().map(elem_bits))
                .collect();
            assert_eq!(flat, concat, "{ctx}");
        }
    }

    /// SplitMix64: a seeded stream for the oracle inputs.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `lo..hi`.
        fn float(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
        }
    }

    fn random_boxes(n: usize, seed: u64, lo: f64, hi: f64) -> Vec<SpatialElement> {
        let mut rng = Rng(seed);
        (0..n as u64)
            .map(|id| {
                let min = Point3::new(rng.float(lo, hi), rng.float(lo, hi), rng.float(lo, hi));
                let side = Point3::new(
                    rng.float(0.0, 5.0),
                    rng.float(0.0, 5.0),
                    rng.float(0.0, 5.0),
                );
                SpatialElement::new(id, Aabb::new(min, min + side))
            })
            .collect()
    }

    /// Input order decides ties under a stable sort, so shuffle it.
    fn shuffled(mut elems: Vec<SpatialElement>, seed: u64) -> Vec<SpatialElement> {
        let mut rng = Rng(seed);
        for i in (1..elems.len()).rev() {
            elems.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        elems
    }

    #[test]
    fn oracle_random_boxes() {
        for (n, capacity, seed) in [
            (1, 4, 1),
            (2, 1, 2),
            (500, 9, 3),
            (3000, 36, 4),
            (4097, 16, 5),
        ] {
            assert_equals_reference(&random_boxes(n, seed, 0.0, 1000.0), capacity);
        }
    }

    #[test]
    fn oracle_lattice_with_ties_on_all_axes() {
        // 9 x 9 x 9 lattice points, each four times: every pass sorts long
        // runs of equal keys, so only stability decides the order.
        let mut elems = Vec::new();
        for copy in 0..4u64 {
            for (i, e) in grid_elems(9).into_iter().enumerate() {
                elems.push(SpatialElement::new(copy * 1000 + i as u64, e.mbb));
            }
        }
        for capacity in [5, 36, 100] {
            assert_equals_reference(&elems, capacity);
            assert_equals_reference(&shuffled(elems.clone(), capacity as u64), capacity);
        }
    }

    #[test]
    fn oracle_identical_boxes() {
        let b = Aabb::new(Point3::new(1.0, 2.0, 3.0), Point3::new(2.0, 3.0, 4.0));
        let elems: Vec<_> = (0..200).map(|id| SpatialElement::new(id, b)).collect();
        for capacity in [1, 8, 199, 200] {
            assert_equals_reference(&shuffled(elems.clone(), 7), capacity);
        }
    }

    #[test]
    fn oracle_fewer_items_than_capacity() {
        assert_equals_reference(&random_boxes(17, 11, -50.0, 50.0), 100);
        assert_equals_reference(&random_boxes(1, 12, -50.0, 50.0), 100);
        assert_equals_reference(&[], 100);
    }

    #[test]
    fn oracle_capacity_one() {
        assert_equals_reference(&random_boxes(130, 13, 0.0, 10.0), 1);
        assert_equals_reference(&shuffled(grid_elems(4), 14), 1);
    }

    #[test]
    fn oracle_negative_coordinates_and_negative_zero_centres() {
        let mut elems = random_boxes(400, 15, -1000.0, -1.0);
        elems.extend(
            random_boxes(400, 16, -3.0, 3.0)
                .into_iter()
                .map(|e| SpatialElement::new(e.id + 1000, e.mbb)),
        );
        // Centres that are +0.0 and -0.0 on every axis: `total_cmp` (and so
        // the key) puts -0.0 first, `==` would call them a tie.
        for id in 0..60u64 {
            let zero = if id % 2 == 0 { 0.0 } else { -0.0 };
            let c = Point3::new(zero, -zero, zero);
            elems.push(SpatialElement::new(2000 + id, Aabb::from_point(c)));
        }
        assert!(elems
            .iter()
            .any(|e| e.center().x.to_bits() == (-0.0f64).to_bits()));
        for capacity in [3, 20] {
            assert_equals_reference(&shuffled(elems.clone(), capacity as u64), capacity);
        }
    }

    #[test]
    fn oracle_sizes_around_a_multiple_of_capacity_times_slabs() {
        // capacity 7 and 4 x-slabs: 280 = 10 * (7 * 4). One fewer leaves
        // the last slab short, one more spills a one-item run.
        for n in [279, 280, 281] {
            let elems = random_boxes(n, n as u64, 0.0, 100.0);
            let plan = StrPlan::new(&elems, 7).expect("non-empty");
            assert_eq!(plan.sx, 4);
            assert_equals_reference(&elems, 7);
        }
        // The same around a cube number of pages, where `cbrt` decides sx.
        for n in [26 * 5, 27 * 5 - 1, 27 * 5, 27 * 5 + 1, 64 * 5, 64 * 5 + 1] {
            assert_equals_reference(&random_boxes(n, n as u64, 0.0, 100.0), 5);
        }
    }

    #[test]
    fn sequential_kernel_permutes_the_callers_vector_in_place() {
        let mut elems = random_boxes(2000, 21, 0.0, 100.0);
        elems.reserve(123);
        let (ptr, capacity) = (elems.as_ptr(), elems.capacity());
        let parts = str_partition(elems, 16);
        assert_eq!(parts.items.as_ptr(), ptr);
        assert_eq!(parts.items.capacity(), capacity);
        assert_eq!(parts.items().len(), 2000);
    }

    #[test]
    fn chunked_cuts_consecutive_runs_with_tight_boxes() {
        let elems = random_boxes(23, 22, 0.0, 100.0);
        let parts = StrPartitions::chunked(elems.clone(), 5);
        assert_eq!(parts.len(), 5);
        for (p, chunk) in parts.iter().zip(elems.chunks(5)) {
            assert_eq!(p.items, chunk);
            let tight = Aabb::union_all(chunk.iter().map(|e| e.mbb));
            assert_eq!(p.page_mbb, tight);
            assert_eq!(p.partition_mbb, tight);
        }
        assert!(StrPartitions::chunked(Vec::<SpatialElement>::new(), 5).is_empty());
    }
}
