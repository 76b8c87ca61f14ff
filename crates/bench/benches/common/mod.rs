#![allow(dead_code)] // each bench target uses a subset of these fixtures

//! Shared fixtures for the Criterion benches.
//!
//! Benches measure the *join phase* wall time on pre-built indexes/
//! partitions (the paper reports join time excluding index building).
//! Sizes are deliberately small so `cargo bench --workspace` completes in
//! minutes; the full-scale figure reproductions are the `src/bin/*`
//! binaries.

use tfm_datagen::{generate, DatasetSpec, Distribution};
use tfm_geom::{Aabb, SpatialElement};
use tfm_storage::{CacheHandle, Disk, SharedPageCache, DEFAULT_POOL_PAGES};
use transformers::{transformers_join, IndexConfig, JoinConfig, TransformersIndex};

/// Page size used by all bench fixtures (matches the experiment binaries).
pub const PAGE: usize = 2048;

/// Elements with the harness's default box size.
pub fn dataset(count: usize, distribution: Distribution, seed: u64) -> Vec<SpatialElement> {
    generate(&DatasetSpec {
        max_side: 4.0,
        ..DatasetSpec::with_distribution(count, distribution, seed)
    })
}

/// A single owner's page cache over `disk`, as a baseline run reads
/// through: one shard of the default capacity.
pub fn cache(disk: &Disk) -> SharedPageCache<'_> {
    SharedPageCache::with_shards(disk, DEFAULT_POOL_PAGES, 1)
}

/// A ready-to-join TRANSFORMERS fixture.
pub struct TrFixture {
    pub disk_a: Disk,
    pub disk_b: Disk,
    pub idx_a: TransformersIndex,
    pub idx_b: TransformersIndex,
}

impl TrFixture {
    pub fn new(a: Vec<SpatialElement>, b: Vec<SpatialElement>) -> Self {
        let disk_a = Disk::in_memory(PAGE);
        let disk_b = Disk::in_memory(PAGE);
        let idx_a = TransformersIndex::build(&disk_a, a, &IndexConfig::default());
        let idx_b = TransformersIndex::build(&disk_b, b, &IndexConfig::default());
        Self {
            disk_a,
            disk_b,
            idx_a,
            idx_b,
        }
    }

    pub fn join(&self, cfg: &JoinConfig) -> usize {
        transformers_join(&self.idx_a, &self.disk_a, &self.idx_b, &self.disk_b, cfg)
            .pairs
            .len()
    }
}

/// A ready-to-join PBSM fixture.
pub struct PbsmFixture {
    pub disk_a: Disk,
    pub disk_b: Disk,
    pub part_a: tfm_pbsm::PbsmDataset,
    pub part_b: tfm_pbsm::PbsmDataset,
}

impl PbsmFixture {
    pub fn new(a: &[SpatialElement], b: &[SpatialElement]) -> Self {
        let disk_a = Disk::in_memory(PAGE);
        let disk_b = Disk::in_memory(PAGE);
        let config = tfm_pbsm::PbsmConfig::default();
        let extent = Aabb::union_all(a.iter().chain(b.iter()).map(|e| e.mbb));
        let mut stats = tfm_pbsm::PbsmStats::default();
        let part_a = tfm_pbsm::pbsm_partition(&disk_a, a, extent, &config, &mut stats);
        let part_b = tfm_pbsm::pbsm_partition(&disk_b, b, extent, &config, &mut stats);
        Self {
            disk_a,
            disk_b,
            part_a,
            part_b,
        }
    }

    pub fn join(&self) -> usize {
        let mut stats = tfm_pbsm::PbsmStats::default();
        let (cache_a, cache_b) = (cache(&self.disk_a), cache(&self.disk_b));
        tfm_pbsm::pbsm_join(
            &mut CacheHandle::shared(&cache_a),
            &self.part_a,
            &mut CacheHandle::shared(&cache_b),
            &self.part_b,
            &mut stats,
        )
        .len()
    }
}

/// A ready-to-join synchronized R-Tree fixture.
pub struct RtreeFixture {
    pub disk_a: Disk,
    pub disk_b: Disk,
    pub tree_a: tfm_rtree::RTree,
    pub tree_b: tfm_rtree::RTree,
}

impl RtreeFixture {
    pub fn new(a: Vec<SpatialElement>, b: Vec<SpatialElement>) -> Self {
        let disk_a = Disk::in_memory(PAGE);
        let disk_b = Disk::in_memory(PAGE);
        let tree_a = tfm_rtree::RTree::bulk_load(&disk_a, a);
        let tree_b = tfm_rtree::RTree::bulk_load(&disk_b, b);
        Self {
            disk_a,
            disk_b,
            tree_a,
            tree_b,
        }
    }

    pub fn join(&self) -> usize {
        let mut stats = tfm_rtree::RtreeStats::default();
        let (cache_a, cache_b) = (cache(&self.disk_a), cache(&self.disk_b));
        tfm_rtree::sync_join(
            &mut CacheHandle::shared(&cache_a),
            &self.tree_a,
            &mut CacheHandle::shared(&cache_b),
            &self.tree_b,
            &mut stats,
        )
        .len()
    }
}

/// A ready-to-join GIPSY fixture (first dataset is declared sparse).
pub struct GipsyFixture {
    pub sparse_disk: Disk,
    pub dense_disk: Disk,
    pub sparse: tfm_gipsy::SparseFile,
    pub dense: TransformersIndex,
}

impl GipsyFixture {
    pub fn new(sparse: Vec<SpatialElement>, dense: Vec<SpatialElement>) -> Self {
        let sparse_disk = Disk::in_memory(PAGE);
        let dense_disk = Disk::in_memory(PAGE);
        let sparse = tfm_gipsy::SparseFile::write(&sparse_disk, sparse);
        let dense = TransformersIndex::build(&dense_disk, dense, &IndexConfig::default());
        Self {
            sparse_disk,
            dense_disk,
            sparse,
            dense,
        }
    }

    pub fn join(&self) -> usize {
        let mut stats = tfm_gipsy::GipsyStats::default();
        tfm_gipsy::gipsy_join(
            &self.sparse_disk,
            &self.sparse,
            &self.dense_disk,
            &self.dense,
            &tfm_gipsy::GipsyConfig::default(),
            &mut stats,
        )
        .len()
    }
}
