//! Sort-Tile-Recursive partitioning, sequential and pooled: one in-place
//! kernel that selects on integer keys and moves each element twice.
//!
//! STR needs slabs, not a total order on x: a slab or a y-run is a rank
//! range, so its membership is a multi-select, and only the order inside a
//! y-run is total, because it fixes the record order on the page. Every
//! key is [`total_order_key`] of a centre coordinate, and every comparison is on a composite key that ends in the item's original
//! index — `(kx, i)` for the slabs, `(ky, kx, i)` for the runs of a slab,
//! `(kz, ky, kx, i)` inside a run. Those keys are unique and order like
//! the stable passes of the comparator partitioner this kernel replaced
//! (each of its passes broke ties by the order the previous one left), so
//! the blocks, the order inside a run and with them every page the bulk
//! loads write are that partitioner's, ties included (the test module
//! keeps it as the oracle).
//!
//! The elements move twice. The x pass selects the slabs on 16-byte
//! `(kx, i)` keys and then distributes the elements into their slabs'
//! ranges in place, through one sequential write front per slab (a random
//! permutation of the whole vector would miss the cache on every move);
//! each element's original index `i` moves with it. Each slab then builds
//! 32-byte keys in a buffer its worker reuses across slabs, selects its
//! y-runs, sorts each run and permutes its own, cache-resident, elements
//! into page order. The input vector comes back as the result's storage;
//! the partitions are ranges over it ([`StrPartitions`]).

use std::ops::Range;
use tfm_geom::{total_order_key, Aabb, HasMbb, Point3};
use tfm_obs::names;
use tfm_pool::StagePool;

/// The result of an STR pass: the input vector, permuted into partition
/// order, plus one table row per partition (its range of the vector and
/// its two descriptor boxes). Consecutive partitions are consecutive
/// ranges, so any run of partitions is one slice of [`items`](Self::items).
#[derive(Debug, Clone)]
pub struct StrPartitions<T> {
    items: Vec<T>,
    table: Vec<StrEntry>,
    extent: Aabb,
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

    /// The union of every item's box, folded in input order
    /// ([`Aabb::empty`] when there are no items): the extent the partition
    /// MBBs tile.
    pub fn extent(&self) -> Aabb {
        self.extent
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
        let extent = Aabb::union_all(items.iter().map(|i| i.mbb()));
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
        Self {
            items,
            table,
            extent,
        }
    }
}

/// Partitions `items` into groups of at most `capacity` with 3-D STR.
///
/// The items are cut by x-center into vertical slabs, each slab by
/// y-center into runs, and each run, ordered by z-center, is chunked into
/// final partitions. Consecutive partitions are spatially adjacent, so
/// writing them to disk in order preserves spatial locality (paper §IV:
/// "spatially close elements are stored on the same disk page").
///
/// Slab boundaries are the midpoints between neighbouring centres across
/// a cut, extended to the dataset extent at the edges — this is what makes
/// the partition MBBs a gap-free tiling (verified by property tests).
///
/// `items` is permuted in place and returned inside the result; no other
/// element buffer is allocated. This is [`str_partition_pooled`] on a
/// sequential pool.
///
/// # Panics
/// Panics if `capacity == 0` or if there are more than `u32::MAX` items.
pub fn str_partition<T: HasMbb + Send + Sync>(items: Vec<T>, capacity: usize) -> StrPartitions<T> {
    str_partition_pooled(items, capacity, &StagePool::sequential())
}

/// [`str_partition`] with every pass fanned out over `pool`.
///
/// The result is **identical** at any thread count, because every pass
/// computes the same values wherever it runs:
///
/// * the x pass computes the `(kx, i)` keys and the extent in fixed
///   blocks, runs the two halves of its multi-select on two threads once
///   the middle cut is selected, scans the slabs' key extremes per slab,
///   and reads each item's slab id off the selected keys;
/// * the distribution moves the items of the lower and the upper half of
///   the slabs apart and distributes each half on its own thread;
/// * each x-slab — an independent, disjoint sub-slice after it — runs the
///   y/z passes on one worker, with one key buffer per worker, and the
///   slabs' table rows are concatenated in slab order.
///
/// Index builds therefore lay out byte-identical pages however many build
/// threads run (verified by equivalence property tests). The three passes
/// record the `build.str_x`, `build.str_distribute` and `build.str_slabs`
/// stage timers.
///
/// # Panics
/// Panics if `capacity == 0` or if there are more than `u32::MAX` items.
pub fn str_partition_pooled<T: HasMbb + Send + Sync>(
    mut items: Vec<T>,
    capacity: usize,
    pool: &StagePool,
) -> StrPartitions<T> {
    assert!(capacity > 0, "partition capacity must be positive");
    let obs = tfm_obs::global();
    let stage = obs.stage_span(names::BUILD_STR_X);
    if items.is_empty() {
        return StrPartitions {
            items,
            table: Vec::new(),
            extent: Aabb::empty(),
        };
    }
    let n = u32_len(items.len());
    // The 16-byte keys are dropped before the distribution allocates its
    // 4 bytes per item.
    let (plan, ends, x_tiles, mut slab_ids) = {
        let mut keys: Vec<(u64, u32)> = vec![(0, 0); items.len()];
        let plan = StrPlan::with_extent(items.len(), capacity, x_keys(&items, &mut keys, pool));
        let ends = run_ends(items.len(), plan.sx, plan.per_x_slab);
        select_blocks(&mut keys, &ends, |&k| k, pool);
        // Per slab: its smallest and its largest `kx`.
        let blocks: Vec<(u64, u64)> = pool.map_range(ends.len(), |b| {
            keys[block(&ends, b)]
                .iter()
                .fold((u64::MAX, 0), |(min, max), &(kx, _)| {
                    (min.min(kx), max.max(kx))
                })
        });
        let (lo, hi) = (plan.extent.min.x, plan.extent.max.x);
        let x_tiles = tiles(&ends, lo, hi, |b| blocks[b]);
        // An item's slab is the block its key was selected into, read off
        // the keys in one pass: its writes stay in a table of 2 B per item.
        // `sx` is at most ⌈∛u32::MAX⌉ = 1 626, so the id fits a `u16`.
        let mut slab_ids: Vec<u16> = vec![0; items.len()];
        for b in 0..ends.len() {
            for &(_, i) in &keys[block(&ends, b)] {
                slab_ids[i as usize] = b as u16;
            }
        }
        (plan, ends, x_tiles, slab_ids)
    };
    drop(stage);

    let stage = obs.stage_span(names::BUILD_STR_DISTRIBUTE);
    let mut orig: Vec<u32> = (0..n).collect();
    distribute(&mut items, &mut orig, &mut slab_ids, &ends, (0, 0), pool);
    drop(slab_ids);
    drop(stage);

    let _stage = obs.stage_span(names::BUILD_STR_SLABS);
    let table = pool
        .map_owned(
            x_slabs(&mut items, &orig, x_tiles),
            Vec::new,
            |keys, _, slab| partition_slab(slab, &plan, keys),
        )
        .into_iter()
        .flatten()
        .collect();
    StrPartitions {
        items,
        table,
        extent: plan.extent,
    }
}

/// Items per block of the per-item passes the pool fans out.
const BLOCK: usize = 1 << 16;

/// `v` cut into blocks of [`BLOCK`] items, each with its offset in `v`:
/// the tasks of a per-item pass on the pool.
fn blocks<T>(v: &mut [T]) -> Vec<(usize, &mut [T])> {
    v.chunks_mut(BLOCK)
        .enumerate()
        .map(|(b, block)| (b * BLOCK, block))
        .collect()
}

/// Fills `keys` with every item's `(kx, i)` and returns the union of the
/// items' boxes — the one pass over the items before the slabs are cut.
/// The blocks' boxes are folded in block order, so the extent does not
/// depend on the thread count.
fn x_keys<T: HasMbb + Sync>(items: &[T], keys: &mut [(u64, u32)], pool: &StagePool) -> Aabb {
    let boxes = pool.map_owned(
        blocks(keys),
        || (),
        |_, _, (offset, block)| {
            let mut mbb = Aabb::empty();
            for ((key, item), i) in block.iter_mut().zip(&items[offset..]).zip(offset as u32..) {
                mbb = mbb.union(&item.mbb());
                *key = (x_key(item), i);
            }
            mbb
        },
    );
    Aabb::union_all(boxes)
}

/// `len` as the kernel's `u32` item index.
///
/// # Panics
/// Panics if `len > u32::MAX`: the kernel would otherwise truncate indices
/// and scramble the partitions silently.
fn u32_len(len: usize) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| {
        panic!(
            "STR indexes items with u32: {len} items exceed the limit of {}",
            u32::MAX
        )
    })
}

/// The x pass's sort key of one item: [`total_order_key`] of its x-centre.
#[inline]
fn x_key<T: HasMbb>(item: &T) -> u64 {
    total_order_key(item.center().x)
}

/// Moves every item into its slab's range of `items`, in place. `slab[p]`
/// is the slab of the item at `p`; it and `orig`, each item's original
/// index `i`, move with the item. `ends` are the end positions, in the
/// whole vector, of the slabs `first..first + ends.len()`, and `base` is
/// the position of `items[0]` in it. The order inside a slab is whatever
/// the moves leave.
///
/// On a pool of more than one worker the slabs are split into a lower and
/// an upper half: the items of the lower half's slabs that sit above the
/// boundary trade places, pairwise, with the upper half's items below it
/// (two sequential fronts), and then each half is distributed on half the
/// pool. A sequential pool distributes all its slabs at once.
fn distribute<T: Send>(
    items: &mut [T],
    orig: &mut [u32],
    slab: &mut [u16],
    ends: &[usize],
    (base, first): (usize, u16),
    pool: &StagePool,
) {
    if pool.is_sequential() || ends.len() < 2 {
        distribute_flag(items, orig, slab, ends, (base, first));
        return;
    }
    let half = ends.len() / 2;
    let mid = ends[half - 1] - base;
    let upper = first + half as u16;
    let (mut lo, mut hi) = (0, mid);
    loop {
        while lo < mid && slab[lo] < upper {
            lo += 1;
        }
        while hi < items.len() && slab[hi] >= upper {
            hi += 1;
        }
        // The two halves are full, so an item out of place on one side
        // has a partner on the other.
        if lo == mid {
            break;
        }
        items.swap(lo, hi);
        orig.swap(lo, hi);
        slab.swap(lo, hi);
    }
    let (items_lo, items_hi) = items.split_at_mut(mid);
    let (orig_lo, orig_hi) = orig.split_at_mut(mid);
    let (slab_lo, slab_hi) = slab.split_at_mut(mid);
    let width = pool.threads() / 2;
    let (pool_lo, pool_hi) = (
        StagePool::new(width),
        StagePool::new(pool.threads() - width),
    );
    pool.join(
        || {
            distribute(
                items_lo,
                orig_lo,
                slab_lo,
                &ends[..half],
                (base, first),
                &pool_lo,
            )
        },
        || {
            distribute(
                items_hi,
                orig_hi,
                slab_hi,
                &ends[half..],
                (base + mid, upper),
                &pool_hi,
            )
        },
    );
}

/// [`distribute`] on one thread: an American-flag distribution with one
/// write cursor per slab, so the moves stream through `ends.len()`
/// sequential fronts instead of jumping across the whole vector.
fn distribute_flag<T>(
    items: &mut [T],
    orig: &mut [u32],
    slab: &mut [u16],
    ends: &[usize],
    (base, first): (usize, u16),
) {
    let end = |b: usize| ends[b] - base;
    let mut heads: Vec<usize> = (0..ends.len())
        .map(|b| if b == 0 { 0 } else { end(b - 1) })
        .collect();
    for b in 0..ends.len() {
        while heads[b] < end(b) {
            let p = heads[b];
            let to = usize::from(slab[p] - first);
            if to == b {
                heads[b] += 1;
            } else {
                // Slabs below `b` are full, so `to > b`: the item takes the
                // next free place of its slab, and whatever was there comes
                // here to be placed next.
                let q = heads[to];
                heads[to] += 1;
                items.swap(p, q);
                orig.swap(p, q);
                slab.swap(p, q);
            }
        }
    }
}

/// A slab pass's key of one item: its three centre keys, its original
/// index `i` and `pos`, its position in the slab before the pass.
#[derive(Clone, Copy)]
struct SlabKey {
    kx: u64,
    ky: u64,
    kz: u64,
    i: u32,
    pos: u32,
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
    /// The plan for `n > 0` items whose boxes span `extent`.
    fn with_extent(n: usize, capacity: usize, extent: Aabb) -> Self {
        let p = n.div_ceil(capacity);
        let sx = (p as f64).cbrt().ceil() as usize;
        let per_x_slab = n.div_ceil(sx);
        let p_per_slab = p.div_ceil(sx);
        let sy = (p_per_slab as f64).sqrt().ceil() as usize;
        Self {
            extent,
            sx,
            per_x_slab,
            sy,
            capacity,
        }
    }

    /// The plan for `items`; `None` for an empty input, which has no
    /// extent to tile.
    #[cfg(test)]
    fn new<T: HasMbb>(items: &[T], capacity: usize) -> Option<Self> {
        (!items.is_empty()).then(|| {
            let extent = Aabb::union_all(items.iter().map(|i| i.mbb()));
            Self::with_extent(items.len(), capacity, extent)
        })
    }
}

/// The ends of the blocks that cut `n > 0` ranks into runs of `per_run`
/// (at most `max_runs`; the last run absorbs any remainder if the cap is
/// hit). Every block is non-empty and the last end is `n`.
fn run_ends(n: usize, max_runs: usize, per_run: usize) -> Vec<usize> {
    let mut ends = Vec::with_capacity(n.div_ceil(per_run).min(max_runs));
    let mut end = 0;
    while end < n {
        end = if ends.len() + 1 == max_runs {
            n
        } else {
            (end + per_run).min(n)
        };
        ends.push(end);
    }
    ends
}

/// Reorders `keys` so that the block before each of `ends` holds exactly
/// the keys of those ranks under `key` (which must be unique), in no
/// particular order inside a block: a recursive multi-select, splitting at
/// the middle cut each time. Below each cut the two halves are disjoint,
/// so they run on the two halves of `pool`.
fn select_blocks<K: Send, O: Ord>(
    keys: &mut [K],
    ends: &[usize],
    key: impl Fn(&K) -> O + Copy + Sync,
    pool: &StagePool,
) {
    fn split<K: Send, O: Ord>(
        keys: &mut [K],
        offset: usize,
        cuts: &[usize],
        key: impl Fn(&K) -> O + Copy + Sync,
        pool: &StagePool,
    ) {
        if cuts.is_empty() {
            return;
        }
        let mid = cuts.len() / 2;
        let at = cuts[mid] - offset;
        keys.select_nth_unstable_by_key(at, key);
        let (left, right) = keys.split_at_mut(at);
        let half = pool.threads() / 2;
        let (l, r) = (StagePool::new(half), StagePool::new(pool.threads() - half));
        pool.join(
            || split(left, offset, &cuts[..mid], key, &l),
            || split(right, cuts[mid], &cuts[mid + 1..], key, &r),
        );
    }
    split(keys, 0, &ends[..ends.len() - 1], key, pool);
}

/// The range of block `b` of a tiling with block ends `ends`.
fn block(ends: &[usize], b: usize) -> Range<usize> {
    (if b == 0 { 0 } else { ends[b - 1] })..ends[b]
}

/// The `f64` whose [`total_order_key`] is `key`, to the bit.
fn key_value(key: u64) -> f64 {
    // A set top bit marks a non-negative value, whose key flipped only the
    // sign bit; a negative value's key flipped every bit.
    f64::from_bits(if key >> 63 == 1 {
        key ^ (1 << 63)
    } else {
        !key
    })
}

/// Puts the item at `keys[p].pos` at every position `p` of the slab, in
/// place: one swap per position, in position order. Positions below `p`
/// are final, so an item swapped out of one of them is found by following
/// the swaps; `pos` is overwritten with where the item went, which keeps
/// later look-ups short.
fn permute<T>(items: &mut [T], keys: &mut [SlabKey]) {
    for p in 0..u32_len(items.len()) {
        let mut from = keys[p as usize].pos;
        while from < p {
            from = keys[from as usize].pos;
        }
        keys[p as usize].pos = from;
        items.swap(p as usize, from as usize);
    }
}

/// One block of a tiling with its interval along the cut dimension.
struct Tile {
    range: Range<usize>,
    lo: f64,
    hi: f64,
}

/// Gives each block of `ends` its tiling interval: boundaries are
/// midpoints between the largest centre of a block and the smallest of
/// the next (`span(b)` gives both keys of block `b`), with the outermost
/// bounds extended to the dataset extent `lo..hi`. Midpoints are clamped
/// to be non-decreasing so that duplicate centres cannot produce inverted
/// slabs.
fn tiles(ends: &[usize], lo: f64, hi: f64, span: impl Fn(usize) -> (u64, u64)) -> Vec<Tile> {
    let n = ends[ends.len() - 1];
    let mut lower = lo;
    let mut this = span(0);
    (0..ends.len())
        .map(|b| {
            let range = block(ends, b);
            let upper = if range.end == n {
                hi
            } else {
                let next = span(b + 1);
                let mid = (key_value(this.1) + key_value(next.0)) * 0.5;
                this = next;
                mid.clamp(lower, hi)
            };
            let tile = Tile {
                // A single run spans the extent as given, even an inverted one.
                hi: if range.len() == n {
                    upper
                } else {
                    upper.max(lower)
                },
                lo: lower,
                range,
            };
            lower = upper;
            tile
        })
        .collect()
}

/// One x-slab: a disjoint sub-slice of the vector after the x pass, the
/// original indices of its items (in the same order), and the tile (its
/// range of that vector, its x interval) it was cut by.
struct Slab<'a, T> {
    items: &'a mut [T],
    orig: &'a [u32],
    x: Tile,
}

/// Cuts `items`, distributed into x-slabs, into the plan's slabs.
fn x_slabs<'a, T>(items: &'a mut [T], orig: &'a [u32], x_tiles: Vec<Tile>) -> Vec<Slab<'a, T>> {
    let mut rest = items;
    x_tiles
        .into_iter()
        .map(|x| {
            let (items, tail) = std::mem::take(&mut rest).split_at_mut(x.range.len());
            rest = tail;
            Slab {
                items,
                orig: &orig[x.range.clone()],
                x,
            }
        })
        .collect()
}

/// The y/z passes over one x-slab — the independent unit of work the
/// pooled partitioner fans out — with `keys` as the scratch buffer.
/// Returns the slab's rows of the partition table, their ranges relative
/// to the whole vector.
fn partition_slab<T: HasMbb>(
    slab: Slab<'_, T>,
    plan: &StrPlan,
    keys: &mut Vec<SlabKey>,
) -> Vec<StrEntry> {
    let Slab { items, orig, x } = slab;
    let extent = &plan.extent;
    keys.clear();
    keys.extend(
        items
            .iter()
            .zip(orig)
            .zip(0..u32_len(items.len()))
            .map(|((item, &i), pos)| {
                let c = item.center();
                SlabKey {
                    kx: total_order_key(c.x),
                    ky: total_order_key(c.y),
                    kz: total_order_key(c.z),
                    i,
                    pos,
                }
            }),
    );
    let y_ends = run_ends(items.len(), plan.sy, items.len().div_ceil(plan.sy));
    select_blocks(
        keys,
        &y_ends,
        |k| (k.ky, k.kx, k.i),
        &StagePool::sequential(),
    );
    let y_tiles = tiles(&y_ends, extent.min.y, extent.max.y, |b| {
        keys[block(&y_ends, b)]
            .iter()
            .fold((u64::MAX, 0), |(min, max), k| {
                (min.min(k.ky), max.max(k.ky))
            })
    });
    let mut cells: Vec<(Range<usize>, Aabb)> =
        Vec::with_capacity(items.len().div_ceil(plan.capacity) + plan.sy);
    for y in y_tiles {
        let run = &mut keys[y.range.clone()];
        run.sort_unstable_by_key(|k| (k.kz, k.ky, k.kx, k.i));
        let z_ends = run_ends(run.len(), usize::MAX, plan.capacity);
        let z_tiles = tiles(&z_ends, extent.min.z, extent.max.z, |b| {
            let r = block(&z_ends, b);
            (run[r.start].kz, run[r.end - 1].kz)
        });
        cells.extend(z_tiles.into_iter().map(|z| {
            (
                y.range.start + z.range.start..y.range.start + z.range.end,
                Aabb::new(Point3::new(x.lo, y.lo, z.lo), Point3::new(x.hi, y.hi, z.hi)),
            )
        }));
    }
    permute(items, keys);
    cells
        .into_iter()
        .map(|(range, partition_mbb)| StrEntry {
            page_mbb: Aabb::union_all(items[range.clone()].iter().map(|i| i.mbb())),
            partition_mbb,
            range: x.range.start + range.start..x.range.start + range.end,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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
        assert_equals_reference_at(elems, capacity, &[1, 2, 3, 8]);
    }

    /// [`assert_equals_reference`], pooled at the given thread counts.
    fn assert_equals_reference_at(elems: &[SpatialElement], capacity: usize, pooled: &[usize]) {
        let want = reference::str_partition(elems.to_vec(), capacity);
        let mut runs = vec![(
            "sequential".to_string(),
            str_partition(elems.to_vec(), capacity),
        )];
        for &threads in pooled {
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
    fn oracle_ties_straddle_the_slab_and_run_cuts() {
        // 256 items at capacity 4: 4 x-slabs of 64 (cuts at ranks 64, 128
        // and 192) and 4 y-runs of 16 per slab. x-centres in groups of 40
        // and three y-centres (≈ 21 items each in a slab) put a tie group
        // across every cut, so only the `(key, index)` tie-break decides on
        // which side of a cut each of its items lands; one z-centre for all
        // leaves the order inside a run to the tie-break too.
        let lattice: Vec<_> = (0..256u64)
            .map(|id| pt_elem(id, (id / 40) as f64, (id % 3) as f64, 1.0))
            .collect();
        let plan = StrPlan::new(&lattice, 4).expect("non-empty");
        assert_eq!((plan.sx, plan.per_x_slab, plan.sy), (4, 64, 4));
        let centre = |e: &&SpatialElement, dim: usize| e.center().coord(dim);
        for seed in [1, 2, 3] {
            let elems = shuffled(lattice.clone(), seed);
            // The stable passes' order: every x cut, and every y cut of
            // the first slab, falls between two equal centres.
            let mut by_x: Vec<&SpatialElement> = elems.iter().collect();
            by_x.sort_by(|a, b| centre(a, 0).total_cmp(&centre(b, 0)));
            for cut in [64, 128, 192] {
                assert_eq!(centre(&by_x[cut - 1], 0), centre(&by_x[cut], 0));
            }
            let mut slab = by_x[..64].to_vec();
            slab.sort_by(|a, b| centre(a, 1).total_cmp(&centre(b, 1)));
            for cut in [16, 32, 48] {
                assert_eq!(centre(&slab[cut - 1], 1), centre(&slab[cut], 1));
            }
            assert_equals_reference(&elems, 4);
        }
    }

    /// Coordinates from a small set, `±0.0` included: most centres tie
    /// with many others on every axis.
    fn tied_elems() -> impl Strategy<Value = Vec<SpatialElement>> {
        const MINS: [f64; 6] = [-2.0, -1.0, -0.0, 0.0, 1.0, 2.0];
        const SIDES: [f64; 3] = [0.0, 1.0, 2.0];
        let (m, d) = (0..MINS.len(), 0..SIDES.len());
        prop::collection::vec((m.clone(), m.clone(), m, d.clone(), d.clone(), d), 1..3000).prop_map(
            |raw| {
                (0u64..)
                    .zip(raw)
                    .map(|(id, (x, y, z, dx, dy, dz))| {
                        let min = Point3::new(MINS[x], MINS[y], MINS[z]);
                        let side = Point3::new(SIDES[dx], SIDES[dy], SIDES[dz]);
                        SpatialElement::new(id, Aabb::new(min, min + side))
                    })
                    .collect()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn oracle_heavy_ties_at_random_sizes(elems in tied_elems(), capacity in 1usize..64) {
            // 2 and 3 threads, and the host's worker count: the default of
            // `IndexConfig::build_threads` in the core crate.
            let host = std::thread::available_parallelism().map_or(1, |n| n.get());
            assert_equals_reference_at(&elems, capacity, &[2, 3, host]);
        }
    }

    #[test]
    #[should_panic(expected = "exceed the limit of 4294967295")]
    fn item_index_does_not_truncate() {
        u32_len(u32::MAX as usize + 1);
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
