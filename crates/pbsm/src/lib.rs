//! Partition Based Spatial-Merge join (Patel & DeWitt, SIGMOD '96).
//!
//! PBSM is the space-oriented-partitioning baseline of the paper (§VII-A,
//! §VIII-B). It tiles the universe with a uniform grid and works in two
//! phases:
//!
//! 1. **Indexing**: every element of both datasets is assigned (replicated)
//!    to each grid cell it overlaps; per-cell buffers are flushed to disk
//!    whenever they fill a page. Because cells fill at different rates, a
//!    cell's pages end up *scattered* across the disk — the paper calls
//!    this out as the cause of PBSM's "almost exclusively random reads
//!    during the join phase".
//! 2. **Join**: cells are processed one at a time; both datasets' cell
//!    contents are read back and joined in memory with the grid hash join
//!    (§VII-A), with duplicate results suppressed by the reference-point
//!    method (Dittrich & Seeger, ICDE 2000).
//!
//! PBSM's strengths and weaknesses reproduce directly: it indexes very fast
//! (one streaming pass, no sorting) but reads *all* data during the join and
//! replicates boundary-crossing elements, and its partitioning depends on
//! both datasets, so it cannot be reused across joins (paper §VII-C2).

#![warn(missing_docs)]

use tfm_geom::{Aabb, SpatialElement};
use tfm_memjoin::{GridJoin, JoinStats, ResultPair};
use tfm_partition::UniformGrid;
use tfm_storage::{BufferPool, Disk, ElementPageCodec, PageId};

/// Configuration of a PBSM join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PbsmConfig {
    /// Grid cells per dimension (paper: 10 for synthetic data, 20 for the
    /// neuroscience workload).
    pub partitions_per_dim: usize,
}

impl Default for PbsmConfig {
    fn default() -> Self {
        Self {
            partitions_per_dim: 10,
        }
    }
}

impl PbsmConfig {
    /// A config with `n` partitions per dimension.
    pub fn with_partitions(n: usize) -> Self {
        Self {
            partitions_per_dim: n,
        }
    }
}

/// Counters specific to the PBSM phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PbsmStats {
    /// Element copies created by multiple assignment (beyond the original).
    pub replicated: u64,
    /// Candidate pairs suppressed by reference-point deduplication.
    pub duplicates_suppressed: u64,
    /// Element-level counters of the in-memory joins.
    pub mem: JoinStats,
}

/// One dataset partitioned onto a PBSM grid and written to its disk.
#[derive(Debug)]
pub struct PbsmDataset {
    grid: UniformGrid,
    /// Pages of each cell, in flush order.
    cell_pages: Vec<Vec<PageId>>,
    /// Elements per cell (including replicas).
    cell_counts: Vec<usize>,
    len: usize,
}

impl PbsmDataset {
    /// The grid this dataset was partitioned with.
    pub fn grid(&self) -> &UniformGrid {
        &self.grid
    }

    /// Number of distinct elements partitioned.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total element slots including replicas.
    pub fn total_assigned(&self) -> usize {
        self.cell_counts.iter().sum()
    }

    /// Reads all elements of one cell back from disk.
    fn read_cell(
        &self,
        pool: &mut BufferPool<'_>,
        codec: &ElementPageCodec,
        cell: usize,
    ) -> Vec<SpatialElement> {
        let mut out = Vec::with_capacity(self.cell_counts[cell]);
        for &page in &self.cell_pages[cell] {
            out.extend(codec.decode(pool.read(page)));
        }
        out
    }
}

/// Partitions `elements` onto the PBSM grid over `extent`, streaming pages
/// to `disk` as per-cell buffers fill. This is PBSM's entire "indexing"
/// phase for one dataset.
pub fn pbsm_partition(
    disk: &Disk,
    elements: &[SpatialElement],
    extent: Aabb,
    config: &PbsmConfig,
    stats: &mut PbsmStats,
) -> PbsmDataset {
    let n = config.partitions_per_dim.max(1);
    let grid = UniformGrid::cubic(extent, n);
    let codec = ElementPageCodec::new(disk.page_size());
    let cap = codec.capacity();

    let mut buffers: Vec<Vec<SpatialElement>> = vec![Vec::new(); grid.cell_count()];
    let mut cell_pages: Vec<Vec<PageId>> = vec![Vec::new(); grid.cell_count()];
    let mut cell_counts = vec![0usize; grid.cell_count()];

    for e in elements {
        let mut copies = 0;
        for cell in grid.cells_overlapping(&e.mbb) {
            copies += 1;
            cell_counts[cell] += 1;
            buffers[cell].push(*e);
            if buffers[cell].len() == cap {
                let page = disk.allocate();
                disk.write_page(page, &codec.encode(&buffers[cell]));
                cell_pages[cell].push(page);
                buffers[cell].clear();
            }
        }
        debug_assert!(copies >= 1);
        stats.replicated += copies - 1;
    }

    // Flush partial buffers.
    for (cell, buf) in buffers.iter().enumerate() {
        if !buf.is_empty() {
            let page = disk.allocate();
            disk.write_page(page, &codec.encode(buf));
            cell_pages[cell].push(page);
        }
    }

    PbsmDataset {
        grid,
        cell_pages,
        cell_counts,
        len: elements.len(),
    }
}

/// Joins two PBSM-partitioned datasets cell by cell.
///
/// Both datasets must have been partitioned with the same grid (same extent
/// and resolution); this is inherent to PBSM and the reason its partitions
/// cannot be reused across dataset combinations.
///
/// # Panics
/// Panics if the grids differ.
pub fn pbsm_join(
    pool_a: &mut BufferPool<'_>,
    part_a: &PbsmDataset,
    pool_b: &mut BufferPool<'_>,
    part_b: &PbsmDataset,
    stats: &mut PbsmStats,
) -> Vec<ResultPair> {
    assert_eq!(
        part_a.grid.extent(),
        part_b.grid.extent(),
        "grids must match"
    );
    assert_eq!(part_a.grid.dims(), part_b.grid.dims(), "grids must match");

    let codec_a = ElementPageCodec::new(pool_a.disk().page_size());
    let codec_b = ElementPageCodec::new(pool_b.disk().page_size());
    let grid = &part_a.grid;

    let mut out = Vec::new();
    let mut kernel = GridJoin::default();
    let mut mem = JoinStats::default();
    for cell in 0..grid.cell_count() {
        if part_a.cell_counts[cell] == 0 || part_b.cell_counts[cell] == 0 {
            continue;
        }
        let elems_a = part_a.read_cell(pool_a, &codec_a, cell);
        let elems_b = part_b.read_cell(pool_b, &codec_b, cell);

        // In-memory grid hash join within the cell, with cross-cell
        // deduplication by the reference-point method: a pair is reported
        // only in the cell that owns the minimum corner of the MBB
        // intersection.
        kernel.join(&elems_a, &elems_b, &mut mem, |a, b| {
            if grid.cell_of_point(&a.mbb.min.max(&b.mbb.min)) == cell {
                out.push((a.id, b.id));
            } else {
                stats.duplicates_suppressed += 1;
            }
        });
    }
    stats.mem.element_tests += mem.element_tests;
    stats.mem.results += out.len() as u64;
    out
}

/// Convenience wrapper running both PBSM phases end to end on fresh disks.
/// Returns the result pairs plus the stats; used by tests and examples.
pub fn pbsm_join_datasets(
    disk_a: &Disk,
    elements_a: &[SpatialElement],
    disk_b: &Disk,
    elements_b: &[SpatialElement],
    config: &PbsmConfig,
) -> (Vec<ResultPair>, PbsmStats) {
    let mut stats = PbsmStats::default();
    let extent = Aabb::union_all(elements_a.iter().chain(elements_b.iter()).map(|e| e.mbb));
    if extent.is_empty() {
        return (Vec::new(), stats);
    }
    let part_a = pbsm_partition(disk_a, elements_a, extent, config, &mut stats);
    let part_b = pbsm_partition(disk_b, elements_b, extent, config, &mut stats);
    let mut pool_a = BufferPool::with_default_capacity(disk_a);
    let mut pool_b = BufferPool::with_default_capacity(disk_b);
    let pairs = pbsm_join(&mut pool_a, &part_a, &mut pool_b, &part_b, &mut stats);
    (pairs, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_datagen::{generate, DatasetSpec, Distribution};
    use tfm_memjoin::{canonicalize, nested_loop_join};

    fn oracle_check(a: &[SpatialElement], b: &[SpatialElement], config: &PbsmConfig) -> PbsmStats {
        let disk_a = Disk::default_in_memory();
        let disk_b = Disk::default_in_memory();
        let (pairs, stats) = pbsm_join_datasets(&disk_a, a, &disk_b, b, config);
        let total = pairs.len();
        let got = canonicalize(pairs);
        assert_eq!(got.len(), total, "PBSM emitted duplicate pairs");
        let mut oracle = JoinStats::default();
        assert_eq!(got, canonicalize(nested_loop_join(a, b, &mut oracle)));
        stats
    }

    #[test]
    fn matches_oracle_uniform() {
        let a = generate(&DatasetSpec {
            max_side: 10.0,
            ..DatasetSpec::uniform(900, 30)
        });
        let b = generate(&DatasetSpec {
            max_side: 10.0,
            ..DatasetSpec::uniform(900, 31)
        });
        let stats = oracle_check(&a, &b, &PbsmConfig::default());
        assert!(
            stats.replicated > 0,
            "10-unit boxes must cross 100-unit cells"
        );
    }

    #[test]
    fn matches_oracle_skewed() {
        let a = generate(&DatasetSpec {
            max_side: 6.0,
            ..DatasetSpec::with_distribution(700, Distribution::DenseCluster { clusters: 9 }, 32)
        });
        let b = generate(&DatasetSpec {
            max_side: 6.0,
            ..DatasetSpec::uniform(1100, 33)
        });
        oracle_check(&a, &b, &PbsmConfig::with_partitions(7));
    }

    #[test]
    fn matches_oracle_large_elements_heavy_replication() {
        // Elements comparable to cell size: heavy replication exercises the
        // reference-point dedup across cells.
        let a = generate(&DatasetSpec {
            max_side: 180.0,
            ..DatasetSpec::uniform(150, 34)
        });
        let b = generate(&DatasetSpec {
            max_side: 180.0,
            ..DatasetSpec::uniform(150, 35)
        });
        let stats = oracle_check(&a, &b, &PbsmConfig::with_partitions(6));
        assert!(stats.duplicates_suppressed > 0);
    }

    #[test]
    fn empty_datasets() {
        let disk_a = Disk::default_in_memory();
        let disk_b = Disk::default_in_memory();
        let (pairs, _) = pbsm_join_datasets(&disk_a, &[], &disk_b, &[], &PbsmConfig::default());
        assert!(pairs.is_empty());
        let a = generate(&DatasetSpec::uniform(50, 36));
        let (pairs, _) = pbsm_join_datasets(&disk_a, &a, &disk_b, &[], &PbsmConfig::default());
        assert!(pairs.is_empty());
    }

    #[test]
    fn partition_phase_writes_all_data() {
        let disk = Disk::default_in_memory();
        let a = generate(&DatasetSpec::uniform(2000, 37));
        let mut stats = PbsmStats::default();
        let extent = Aabb::union_all(a.iter().map(|e| e.mbb));
        let part = pbsm_partition(&disk, &a, extent, &PbsmConfig::default(), &mut stats);
        assert_eq!(part.len(), 2000);
        assert_eq!(part.total_assigned() as u64, 2000 + stats.replicated);
        assert!(disk.stats().writes() > 0);
        // Every assigned element is on disk exactly once.
        let codec = ElementPageCodec::new(disk.page_size());
        let mut read_back = 0;
        let mut pool = BufferPool::with_default_capacity(&disk);
        for cell in 0..part.grid().cell_count() {
            read_back += part.read_cell(&mut pool, &codec, cell).len();
        }
        assert_eq!(read_back, part.total_assigned());
    }

    #[test]
    fn join_reads_are_mostly_random_for_interleaved_cells() {
        // The signature PBSM behaviour: cell pages interleave on disk, so
        // the join phase reads are dominated by random accesses.
        // Enough elements that cells flush pages mid-stream (capacity 146
        // per page, 1000 cells -> ~200 elements per cell) and interleave.
        let a = generate(&DatasetSpec::uniform(200_000, 38));
        let b = generate(&DatasetSpec::uniform(200_000, 39));
        let disk_a = Disk::default_in_memory();
        let disk_b = Disk::default_in_memory();
        let mut stats = PbsmStats::default();
        let extent = Aabb::union_all(a.iter().chain(b.iter()).map(|e| e.mbb));
        let config = PbsmConfig::default();
        let part_a = pbsm_partition(&disk_a, &a, extent, &config, &mut stats);
        let part_b = pbsm_partition(&disk_b, &b, extent, &config, &mut stats);
        disk_a.reset_stats();
        disk_b.reset_stats();
        let mut pool_a = BufferPool::with_default_capacity(&disk_a);
        let mut pool_b = BufferPool::with_default_capacity(&disk_b);
        let _ = pbsm_join(&mut pool_a, &part_a, &mut pool_b, &part_b, &mut stats);
        let s = disk_a.stats().merged(&disk_b.stats());
        assert!(s.reads() > 0);
        assert!(
            s.rand_reads > s.seq_reads,
            "expected random-dominated reads, got {} random vs {} sequential",
            s.rand_reads,
            s.seq_reads
        );
    }
}
