//! Size Separation Spatial Join (Koudas & Sevcik, SIGMOD '97).
//!
//! A hierarchy of equi-width grids of increasing granularity: level `l`
//! has `2^l` cells per dimension. Each element is assigned to the deepest
//! level at which it still overlaps exactly one cell (multiple matching —
//! no replication, paper §VIII-B). Two elements can only intersect if one
//! element's cell is an ancestor of (or equal to) the other's, because
//! same-level cells are disjoint and cells across levels are nested. The
//! join therefore visits every occupied cell `c` and joins it with
//! * the other dataset's elements in `c`, and
//! * the other dataset's elements in every ancestor of `c`,
//!
//! which considers each candidate pair exactly once.

use std::collections::BTreeMap;
use tfm_geom::{Aabb, SpatialElement};
use tfm_memjoin::{plane_sweep_join, JoinStats, ResultPair};
use tfm_storage::{
    CacheHandle, Disk, ElementPageCodec, PageId, SharedPageCache, DEFAULT_POOL_PAGES,
};

/// Cell address: level + per-dimension coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId {
    /// Hierarchy level (0 = one cell covering everything).
    pub level: u8,
    /// Cell coordinates at that level.
    pub coords: [u32; 3],
}

impl CellId {
    /// The ancestor of this cell at `level` (must not exceed own level).
    fn ancestor(&self, level: u8) -> CellId {
        debug_assert!(level <= self.level);
        let shift = self.level - level;
        CellId {
            level,
            coords: self.coords.map(|c| c >> shift),
        }
    }
}

/// Counters of an S3 run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct S3Stats {
    /// Occupied (level, cell) slots across both datasets.
    pub occupied_cells: u64,
    /// Element-level counters.
    pub mem: JoinStats,
}

/// One dataset assigned onto the level hierarchy and written to disk.
#[derive(Debug)]
pub struct S3Dataset {
    /// Each occupied cell's pages, in cell order.
    cells: BTreeMap<CellId, Vec<PageId>>,
    extent: Aabb,
    levels: u8,
    len: usize,
}

impl S3Dataset {
    /// Number of assigned elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no elements were assigned.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of occupied cells.
    pub fn occupied(&self) -> usize {
        self.cells.len()
    }

    /// The pages of `cell` (none when it is empty).
    fn pages(&self, cell: &CellId) -> &[PageId] {
        self.cells.get(cell).map_or(&[], Vec::as_slice)
    }
}

/// The deepest level (≤ `levels - 1`) at which `mbb` overlaps exactly one
/// cell of the `2^l` grid over `extent`.
fn level_of(mbb: &Aabb, extent: &Aabb, levels: u8) -> CellId {
    let mut best = CellId {
        level: 0,
        coords: [0, 0, 0],
    };
    for level in 1..levels {
        let n = 1u32 << level;
        let mut coords = [0u32; 3];
        let mut fits = true;
        for (d, coord) in coords.iter_mut().enumerate() {
            let ext = extent.extent(d);
            let cw = if ext > 0.0 {
                ext / n as f64
            } else {
                f64::MIN_POSITIVE
            };
            let lo = (((mbb.min.coord(d) - extent.min.coord(d)) / cw).floor() as i64)
                .clamp(0, n as i64 - 1);
            let hi = (((mbb.max.coord(d) - extent.min.coord(d)) / cw).floor() as i64)
                .clamp(0, n as i64 - 1);
            if lo != hi {
                fits = false;
                break;
            }
            *coord = lo as u32;
        }
        if !fits {
            break;
        }
        best = CellId { level, coords };
    }
    best
}

/// The depth the harness runs S3 at for an input of `elements` on pages of
/// `page_size` bytes: a deepest-level cell holds about one page, i.e.
/// `2^(levels-1)` cells per dimension ≈ the cube root of the input's
/// pages, clamped to 2..=8 levels.
pub fn levels_for(elements: usize, page_size: usize) -> u8 {
    let cap = ElementPageCodec::new(page_size).capacity();
    let pages = (elements as f64 / cap as f64).max(1.0);
    ((pages.cbrt().log2().round() as i64) + 1).clamp(2, 8) as u8
}

/// Assigns `elements` onto the `levels`-deep hierarchy over `extent` and
/// writes per-cell page lists to `disk`.
pub fn s3_partition(
    disk: &Disk,
    elements: &[SpatialElement],
    extent: Aabb,
    levels: u8,
    stats: &mut S3Stats,
) -> S3Dataset {
    let levels = levels.clamp(1, 16);
    let codec = ElementPageCodec::new(disk.page_size());
    let cap = codec.capacity();

    // Ordered maps: each cell's last page is flushed in cell order, so the
    // layout (and with it the join's read pattern) is exact per input.
    let mut buffers: BTreeMap<CellId, Vec<SpatialElement>> = BTreeMap::new();
    let mut cells: BTreeMap<CellId, Vec<PageId>> = BTreeMap::new();
    for e in elements {
        let cell = level_of(&e.mbb, &extent, levels);
        let buf = buffers.entry(cell).or_default();
        buf.push(*e);
        if buf.len() == cap {
            let page = disk.allocate();
            disk.write_page(page, &codec.encode(buf));
            cells.entry(cell).or_default().push(page);
            buf.clear();
        }
    }
    for (cell, buf) in buffers {
        if !buf.is_empty() {
            let page = disk.allocate();
            disk.write_page(page, &codec.encode(&buf));
            cells.entry(cell).or_default().push(page);
        }
    }
    stats.occupied_cells += cells.len() as u64;

    S3Dataset {
        cells,
        extent,
        levels,
        len: elements.len(),
    }
}

/// Joins two S3-assigned datasets (must share extent and depth).
///
/// # Panics
/// Panics if the hierarchies differ.
pub fn s3_join(
    pool_a: &mut CacheHandle<'_, '_>,
    part_a: &S3Dataset,
    pool_b: &mut CacheHandle<'_, '_>,
    part_b: &S3Dataset,
    stats: &mut S3Stats,
) -> Vec<ResultPair> {
    assert_eq!(part_a.extent, part_b.extent, "hierarchies must match");
    assert_eq!(part_a.levels, part_b.levels, "hierarchies must match");
    let codec_a = ElementPageCodec::new(pool_a.cache().disk().page_size());
    let codec_b = ElementPageCodec::new(pool_b.cache().disk().page_size());

    let mut out = Vec::new();
    // One buffer per dataset, reused for every cell it reads.
    let (mut elems_a, mut elems_b) = (Vec::new(), Vec::new());
    // Cells are visited in cell order.
    for (ca, pages) in &part_a.cells {
        codec_a.read_pages_into(pool_a, pages, &mut elems_a);
        // Same cell plus every ancestor cell of B.
        for level in (0..=ca.level).rev() {
            let anc = ca.ancestor(level);
            codec_b.read_pages_into(pool_b, part_b.pages(&anc), &mut elems_b);
            if !elems_b.is_empty() {
                out.extend(plane_sweep_join(&elems_a, &elems_b, &mut stats.mem));
            }
        }
    }
    // B's cells joined against A's *strict* ancestors (the equal-cell case
    // was covered above).
    for (cb, pages) in &part_b.cells {
        if cb.level == 0 {
            continue;
        }
        codec_b.read_pages_into(pool_b, pages, &mut elems_b);
        for level in (0..cb.level).rev() {
            let anc = cb.ancestor(level);
            codec_a.read_pages_into(pool_a, part_a.pages(&anc), &mut elems_a);
            if !elems_a.is_empty() {
                out.extend(plane_sweep_join(&elems_a, &elems_b, &mut stats.mem));
            }
        }
    }
    out
}

/// Convenience wrapper: assigns both datasets and joins them.
pub fn s3_join_datasets(
    disk_a: &Disk,
    a: &[SpatialElement],
    disk_b: &Disk,
    b: &[SpatialElement],
    levels: u8,
) -> (Vec<ResultPair>, S3Stats) {
    let mut stats = S3Stats::default();
    let extent = Aabb::union_all(a.iter().chain(b.iter()).map(|e| e.mbb));
    if extent.is_empty() {
        return (Vec::new(), stats);
    }
    let part_a = s3_partition(disk_a, a, extent, levels, &mut stats);
    let part_b = s3_partition(disk_b, b, extent, levels, &mut stats);
    let cache_a = SharedPageCache::with_shards(disk_a, DEFAULT_POOL_PAGES, 1);
    let cache_b = SharedPageCache::with_shards(disk_b, DEFAULT_POOL_PAGES, 1);
    let pairs = s3_join(
        &mut CacheHandle::shared(&cache_a),
        &part_a,
        &mut CacheHandle::shared(&cache_b),
        &part_b,
        &mut stats,
    );
    (pairs, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_datagen::{generate, DatasetSpec, Distribution};
    use tfm_memjoin::{canonicalize, nested_loop_join};

    fn oracle_check(a: &[SpatialElement], b: &[SpatialElement], levels: u8) -> S3Stats {
        let disk_a = Disk::default_in_memory();
        let disk_b = Disk::default_in_memory();
        let (pairs, stats) = s3_join_datasets(&disk_a, a, &disk_b, b, levels);
        let total = pairs.len();
        let got = canonicalize(pairs);
        assert_eq!(got.len(), total, "S3 emitted duplicates");
        let mut s = JoinStats::default();
        assert_eq!(got, canonicalize(nested_loop_join(a, b, &mut s)));
        stats
    }

    #[test]
    fn matches_oracle_uniform() {
        let a = generate(&DatasetSpec {
            max_side: 10.0,
            ..DatasetSpec::uniform(800, 400)
        });
        let b = generate(&DatasetSpec {
            max_side: 10.0,
            ..DatasetSpec::uniform(800, 401)
        });
        let stats = oracle_check(&a, &b, 6);
        assert!(stats.occupied_cells > 2);
    }

    #[test]
    fn matches_oracle_mixed_sizes() {
        // Small and huge elements together: size separation is the point.
        let mut a = generate(&DatasetSpec {
            max_side: 2.0,
            ..DatasetSpec::uniform(400, 402)
        });
        let big = generate(&DatasetSpec {
            max_side: 300.0,
            ..DatasetSpec::uniform(50, 403)
        });
        let offset = a.len() as u64;
        a.extend(
            big.into_iter()
                .map(|e| SpatialElement::new(e.id + offset, e.mbb)),
        );
        let b = generate(&DatasetSpec {
            max_side: 50.0,
            ..DatasetSpec::uniform(400, 404)
        });
        oracle_check(&a, &b, 6);
    }

    #[test]
    fn matches_oracle_clustered() {
        let a = generate(&DatasetSpec {
            max_side: 6.0,
            ..DatasetSpec::with_distribution(700, Distribution::DenseCluster { clusters: 8 }, 405)
        });
        let b = generate(&DatasetSpec {
            max_side: 6.0,
            ..DatasetSpec::uniform(700, 406)
        });
        oracle_check(&a, &b, 7);
    }

    #[test]
    fn single_level_degenerates_to_full_sweep() {
        let a = generate(&DatasetSpec {
            max_side: 5.0,
            ..DatasetSpec::uniform(200, 407)
        });
        let b = generate(&DatasetSpec {
            max_side: 5.0,
            ..DatasetSpec::uniform(200, 408)
        });
        let stats = oracle_check(&a, &b, 1);
        assert_eq!(stats.occupied_cells, 2); // one root cell per dataset
    }

    #[test]
    fn level_assignment_is_deepest_fitting() {
        let extent = Aabb::new(
            tfm_geom::Point3::new(0.0, 0.0, 0.0),
            tfm_geom::Point3::new(1024.0, 1024.0, 1024.0),
        );
        // A tiny element deep inside one cell at every level.
        let tiny = Aabb::new(
            tfm_geom::Point3::new(1.0, 1.0, 1.0),
            tfm_geom::Point3::new(2.0, 2.0, 2.0),
        );
        let cell = level_of(&tiny, &extent, 8);
        assert_eq!(cell.level, 7);
        // An element crossing the center plane never fits below level 0.
        let crossing = Aabb::new(
            tfm_geom::Point3::new(500.0, 1.0, 1.0),
            tfm_geom::Point3::new(600.0, 2.0, 2.0),
        );
        let cell = level_of(&crossing, &extent, 8);
        assert_eq!(cell.level, 0);
    }

    #[test]
    fn empty_inputs() {
        let disk_a = Disk::default_in_memory();
        let disk_b = Disk::default_in_memory();
        let (pairs, _) = s3_join_datasets(&disk_a, &[], &disk_b, &[], 5);
        assert!(pairs.is_empty());
    }
}
