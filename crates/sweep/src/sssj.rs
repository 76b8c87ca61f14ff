//! Scalable Sweeping-Based Spatial Join (Arge et al., VLDB '98).
//!
//! Space is partitioned into `n` strips of equal width along the
//! x-dimension. Each element is assigned to the strip that *fully
//! contains* it (multiple matching — no replication); elements crossing a
//! strip boundary go to a *spanning set*. The join then runs a plane
//! sweep within each strip, joins each dataset's spanning set against the
//! other dataset's strips it covers, and finally joins the two spanning
//! sets — each candidate pair is considered exactly once:
//!
//! * both elements strip-resident: they can only intersect within the one
//!   strip each fully occupies (x-overlap forces equal strips);
//! * spanning × strip-resident: the resident element lives in exactly one
//!   strip, so the pair appears once;
//! * spanning × spanning: joined once globally.

use tfm_geom::{Aabb, SpatialElement};
use tfm_memjoin::{plane_sweep_join, JoinStats, ResultPair};
use tfm_storage::{
    CacheHandle, Disk, ElementPageCodec, PageId, SharedPageCache, DEFAULT_POOL_PAGES,
};

/// Counters of an SSSJ run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SssjStats {
    /// Elements assigned to the spanning set (both datasets).
    pub spanning: u64,
    /// Element-level counters.
    pub mem: JoinStats,
}

/// One dataset partitioned into strips + spanning set, stored on disk.
#[derive(Debug)]
pub struct SssjDataset {
    /// Pages of each strip (strip-resident elements).
    strip_pages: Vec<Vec<PageId>>,
    /// Pages of the spanning set.
    spanning_pages: Vec<PageId>,
    /// x-range covered by the strips.
    x_lo: f64,
    strip_width: f64,
    len: usize,
}

impl SssjDataset {
    /// Number of partitioned elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no elements were partitioned.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of strips.
    pub fn strips(&self) -> usize {
        self.strip_pages.len()
    }
}

/// Partitions `elements` into `strips` equal-width x-strips over `extent`,
/// writing strip files and the spanning set to `disk`.
pub fn sssj_partition(
    disk: &Disk,
    elements: &[SpatialElement],
    extent: Aabb,
    strips: usize,
    stats: &mut SssjStats,
) -> SssjDataset {
    let strips = strips.max(1);
    let codec = ElementPageCodec::new(disk.page_size());
    let cap = codec.capacity();
    let x_lo = extent.min.x;
    let width = (extent.extent(0) / strips as f64).max(f64::MIN_POSITIVE);

    let mut strip_bufs: Vec<Vec<SpatialElement>> = vec![Vec::new(); strips];
    let mut strip_pages: Vec<Vec<PageId>> = vec![Vec::new(); strips];
    let mut span_buf: Vec<SpatialElement> = Vec::new();
    let mut spanning_pages: Vec<PageId> = Vec::new();

    let strip_of = |x: f64| -> usize {
        (((x - x_lo) / width).floor() as i64).clamp(0, strips as i64 - 1) as usize
    };

    for e in elements {
        let lo = strip_of(e.mbb.min.x);
        let hi = strip_of(e.mbb.max.x);
        if lo == hi {
            strip_bufs[lo].push(*e);
            if strip_bufs[lo].len() == cap {
                let page = disk.allocate();
                disk.write_page(page, &codec.encode(&strip_bufs[lo]));
                strip_pages[lo].push(page);
                strip_bufs[lo].clear();
            }
        } else {
            stats.spanning += 1;
            span_buf.push(*e);
            if span_buf.len() == cap {
                let page = disk.allocate();
                disk.write_page(page, &codec.encode(&span_buf));
                spanning_pages.push(page);
                span_buf.clear();
            }
        }
    }
    for (i, buf) in strip_bufs.iter().enumerate() {
        if !buf.is_empty() {
            let page = disk.allocate();
            disk.write_page(page, &codec.encode(buf));
            strip_pages[i].push(page);
        }
    }
    if !span_buf.is_empty() {
        let page = disk.allocate();
        disk.write_page(page, &codec.encode(&span_buf));
        spanning_pages.push(page);
    }

    SssjDataset {
        strip_pages,
        spanning_pages,
        x_lo,
        strip_width: width,
        len: elements.len(),
    }
}

/// Joins two SSSJ-partitioned datasets (must share strip geometry).
///
/// # Panics
/// Panics if the strip geometries differ.
pub fn sssj_join(
    pool_a: &mut CacheHandle<'_, '_>,
    part_a: &SssjDataset,
    pool_b: &mut CacheHandle<'_, '_>,
    part_b: &SssjDataset,
    stats: &mut SssjStats,
) -> Vec<ResultPair> {
    assert_eq!(part_a.strips(), part_b.strips(), "strip counts must match");
    assert!(
        (part_a.x_lo - part_b.x_lo).abs() < 1e-9
            && (part_a.strip_width - part_b.strip_width).abs() < 1e-9,
        "strip geometry must match"
    );
    let codec_a = ElementPageCodec::new(pool_a.cache().disk().page_size());
    let codec_b = ElementPageCodec::new(pool_b.cache().disk().page_size());

    let (mut span_a, mut span_b) = (Vec::new(), Vec::new());
    codec_a.read_pages_into(pool_a, &part_a.spanning_pages, &mut span_a);
    codec_b.read_pages_into(pool_b, &part_b.spanning_pages, &mut span_b);

    let mut out = Vec::new();
    // One buffer per dataset, reused for every strip.
    let (mut strip_a, mut strip_b) = (Vec::new(), Vec::new());
    for i in 0..part_a.strips() {
        codec_a.read_pages_into(pool_a, &part_a.strip_pages[i], &mut strip_a);
        codec_b.read_pages_into(pool_b, &part_b.strip_pages[i], &mut strip_b);
        // Resident × resident within the strip.
        out.extend(plane_sweep_join(&strip_a, &strip_b, &mut stats.mem));
        // Spanning × resident (each resident element lives in exactly one
        // strip, so each such pair is produced once).
        if !span_a.is_empty() && !strip_b.is_empty() {
            out.extend(plane_sweep_join(&span_a, &strip_b, &mut stats.mem));
        }
        if !strip_a.is_empty() && !span_b.is_empty() {
            out.extend(plane_sweep_join(&strip_a, &span_b, &mut stats.mem));
        }
    }
    // Spanning × spanning, once globally.
    out.extend(plane_sweep_join(&span_a, &span_b, &mut stats.mem));
    out
}

/// Convenience wrapper: partitions both datasets and joins them.
pub fn sssj_join_datasets(
    disk_a: &Disk,
    a: &[SpatialElement],
    disk_b: &Disk,
    b: &[SpatialElement],
    strips: usize,
) -> (Vec<ResultPair>, SssjStats) {
    let mut stats = SssjStats::default();
    let extent = Aabb::union_all(a.iter().chain(b.iter()).map(|e| e.mbb));
    if extent.is_empty() {
        return (Vec::new(), stats);
    }
    let part_a = sssj_partition(disk_a, a, extent, strips, &mut stats);
    let part_b = sssj_partition(disk_b, b, extent, strips, &mut stats);
    let cache_a = SharedPageCache::with_shards(disk_a, DEFAULT_POOL_PAGES, 1);
    let cache_b = SharedPageCache::with_shards(disk_b, DEFAULT_POOL_PAGES, 1);
    let pairs = sssj_join(
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

    fn oracle_check(a: &[SpatialElement], b: &[SpatialElement], strips: usize) -> SssjStats {
        let disk_a = Disk::default_in_memory();
        let disk_b = Disk::default_in_memory();
        let (pairs, stats) = sssj_join_datasets(&disk_a, a, &disk_b, b, strips);
        let total = pairs.len();
        let got = canonicalize(pairs);
        assert_eq!(got.len(), total, "SSSJ emitted duplicates");
        let mut s = JoinStats::default();
        assert_eq!(got, canonicalize(nested_loop_join(a, b, &mut s)));
        stats
    }

    #[test]
    fn matches_oracle_uniform() {
        let a = generate(&DatasetSpec {
            max_side: 10.0,
            ..DatasetSpec::uniform(800, 300)
        });
        let b = generate(&DatasetSpec {
            max_side: 10.0,
            ..DatasetSpec::uniform(800, 301)
        });
        let stats = oracle_check(&a, &b, 16);
        assert!(
            stats.spanning > 0,
            "10-unit boxes must cross 62-unit strips sometimes"
        );
    }

    #[test]
    fn matches_oracle_clustered() {
        let a = generate(&DatasetSpec {
            max_side: 6.0,
            ..DatasetSpec::with_distribution(700, Distribution::DenseCluster { clusters: 8 }, 302)
        });
        let b = generate(&DatasetSpec {
            max_side: 6.0,
            ..DatasetSpec::uniform(900, 303)
        });
        oracle_check(&a, &b, 10);
    }

    #[test]
    fn matches_oracle_single_strip() {
        let a = generate(&DatasetSpec {
            max_side: 5.0,
            ..DatasetSpec::uniform(300, 304)
        });
        let b = generate(&DatasetSpec {
            max_side: 5.0,
            ..DatasetSpec::uniform(300, 305)
        });
        let stats = oracle_check(&a, &b, 1);
        assert_eq!(stats.spanning, 0, "one strip contains everything");
    }

    #[test]
    fn matches_oracle_everything_spans() {
        // Strips thinner than the elements: everything is spanning.
        let a = generate(&DatasetSpec {
            max_side: 80.0,
            ..DatasetSpec::uniform(150, 306)
        });
        let b = generate(&DatasetSpec {
            max_side: 80.0,
            ..DatasetSpec::uniform(150, 307)
        });
        oracle_check(&a, &b, 64);
    }

    #[test]
    fn empty_inputs() {
        let disk_a = Disk::default_in_memory();
        let disk_b = Disk::default_in_memory();
        let (pairs, _) = sssj_join_datasets(&disk_a, &[], &disk_b, &[], 8);
        assert!(pairs.is_empty());
    }
}
