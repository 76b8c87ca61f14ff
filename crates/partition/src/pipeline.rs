//! The staged, data-parallel index-build pipeline (paper §IV, parallelized).
//!
//! Every disk-resident structure in the reproduction is bulk-loaded the
//! same way: STR-partition a set of spatial items (in place: the result
//! is the input vector permuted, plus a table of ranges — see
//! [`StrPartitions`]), encode each partition — one contiguous slice of
//! that vector — into one page image, and write the images to a
//! contiguous page run.
//! [`IndexBuildPipeline`] packages those stages once, fanned out over a
//! [`StagePool`], and is shared by
//!
//! * `TransformersIndex::build` (the `transformers` core crate, which
//!   re-exports this type) — both STR passes, the element-page encoding
//!   and the connectivity self-join run on the pipeline's pool;
//! * GIPSY's `SparseFile` (the `tfm-gipsy` crate) — sparse-side pages;
//! * the STR-packed R-Tree baseline (the `tfm-rtree` crate) — leaf and
//!   inner levels.
//!
//! It lives here — above `tfm-pool` and `tfm-storage`, below every index
//! crate — so the baselines stay decoupled from the TRANSFORMERS core.
//!
//! **Determinism.** All stages are order-preserving: partitioning uses
//! [`str_partition_pooled`] (identical partition sequence at any thread
//! count), page images are encoded in parallel but **written sequentially
//! in page order** — so both the bytes on disk and the simulated I/O
//! accounting (sequential-write classification) are independent of the
//! worker count. A build with `build_threads = 8` produces byte-identical
//! disk pages, metadata and B+-tree to a sequential build; only wall time
//! changes. The `build_determinism` test checksums whole disks to hold the
//! pipeline to that.

use crate::str::{str_partition_pooled, StrPartition, StrPartitions};
use tfm_geom::HasMbb;
use tfm_pool::StagePool;
use tfm_storage::{Disk, PageId};

/// A reusable, staged, data-parallel index builder: a worker pool plus the
/// order-preserving bulk-load stages every index in the workspace shares.
#[derive(Debug, Clone, Copy)]
pub struct IndexBuildPipeline {
    pool: StagePool,
}

impl IndexBuildPipeline {
    /// A pipeline fanning its stages over `build_threads` workers
    /// (`0` is clamped to 1).
    pub fn new(build_threads: usize) -> Self {
        Self {
            pool: StagePool::new(build_threads),
        }
    }

    /// The single-threaded pipeline: every stage runs inline.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The underlying pool, for stages that need custom fan-out shapes
    /// (e.g. the connectivity self-join's per-node neighbour scan).
    pub fn pool(&self) -> &StagePool {
        &self.pool
    }

    /// **Partition stage**: STR-partitions `items` into groups of at most
    /// `capacity`, with the x-sort and per-slab passes fanned out over the
    /// pool. `items` is permuted in place and returned inside the result.
    /// Identical output to the sequential partitioner at any thread count.
    pub fn partition<T: HasMbb + Send>(&self, items: Vec<T>, capacity: usize) -> StrPartitions<T> {
        let _stage = tfm_obs::global().stage_span(tfm_obs::names::BUILD_PARTITION);
        str_partition_pooled(items, capacity, &self.pool)
    }

    /// **Encode + write stage**: produces `count` page images with `encode`
    /// (fanned out over the pool, collected in index order) and writes them
    /// to a freshly allocated contiguous run **sequentially in page order**,
    /// so the on-disk bytes and the sequential-write I/O accounting match a
    /// single-threaded build exactly. Returns the first page of the run.
    ///
    /// `encode(i, buf)` serializes page `i` into `buf` (handed in empty):
    /// the sequential pipeline streams encode→write one page at a time
    /// through **one reused buffer** (zero per-page allocation — pair it
    /// with `ElementPageCodec::encode_into`); parallel pipelines fan the
    /// encoding out in bounded batches so peak memory stays at a few
    /// thousand page images, not the whole file.
    pub fn encode_and_write<F>(&self, disk: &Disk, count: usize, encode: F) -> PageId
    where
        F: Fn(usize, &mut Vec<u8>) + Sync,
    {
        self.encode_run(disk, count, move |_, i, buf| encode(i, buf))
    }

    /// [`encode_and_write`](Self::encode_and_write) for encoders that must
    /// know the page run before producing bytes — e.g. the B+-tree's leaf
    /// level, where each page stores a next-leaf pointer to its physical
    /// successor. The run is allocated first and its first page id passed
    /// to every `encode(first, i)` call; everything else (parallel encode,
    /// sequential in-order writes, byte-determinism) is identical.
    pub fn encode_run<F>(&self, disk: &Disk, count: usize, encode: F) -> PageId
    where
        F: Fn(PageId, usize, &mut Vec<u8>) + Sync,
    {
        let _stage = tfm_obs::global().stage_span(tfm_obs::names::BUILD_ENCODE_WRITE);
        let first = disk.allocate_contiguous(count as u64);
        if self.pool.is_sequential() {
            // One buffer for the whole run: `encode` fills it in place.
            let mut buf = Vec::new();
            for i in 0..count {
                buf.clear();
                encode(first, i, &mut buf);
                disk.write_page(PageId(first.0 + i as u64), &buf);
            }
            return first;
        }
        // Batch sizing trades the per-batch scope spawn/join against peak
        // memory: a few thousand in-flight page images (single-digit MiB
        // at typical page sizes) amortizes the thread churn to a handful
        // of scopes even for million-page builds.
        let batch = (self.pool.threads() * 512).max(2048);
        let mut start = 0;
        while start < count {
            let end = (start + batch).min(count);
            let images = self.pool.map_range(end - start, |i| {
                let mut buf = Vec::with_capacity(disk.page_size());
                encode(first, start + i, &mut buf);
                buf
            });
            for (i, image) in images.iter().enumerate() {
                disk.write_page(PageId(first.0 + (start + i) as u64), image);
            }
            start = end;
        }
        first
    }

    /// Convenience wrapper over [`encode_and_write`](Self::encode_and_write)
    /// for the common "one partition = one page" layout. Returns the first
    /// page; partition `i` lives on page `first + i`.
    pub fn pack_pages<T, F>(&self, disk: &Disk, parts: &StrPartitions<T>, encode: F) -> PageId
    where
        T: Sync,
        F: Fn(StrPartition<'_, T>, &mut Vec<u8>) + Sync,
    {
        self.encode_and_write(disk, parts.len(), |i, buf| encode(parts.get(i), buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_geom::{Aabb, Point3, SpatialElement};
    use tfm_storage::ElementPageCodec;

    fn elems(n: usize) -> Vec<SpatialElement> {
        (0..n)
            .map(|i| {
                let f = i as f64;
                SpatialElement::new(
                    i as u64,
                    Aabb::new(
                        Point3::new(f, f * 0.5, -f),
                        Point3::new(f + 1.0, f * 0.5 + 1.0, -f + 1.0),
                    ),
                )
            })
            .collect()
    }

    #[test]
    fn pack_pages_writes_identical_bytes_at_any_thread_count() {
        let reference = {
            let disk = Disk::in_memory(512);
            let pipe = IndexBuildPipeline::sequential();
            let codec = ElementPageCodec::new(512);
            let parts = pipe.partition(elems(500), codec.capacity());
            let first = pipe.pack_pages(&disk, &parts, |p, buf| codec.encode_into(p.items, buf));
            (0..parts.len())
                .map(|i| disk.read_page_vec(PageId(first.0 + i as u64)))
                .collect::<Vec<_>>()
        };
        for threads in [2, 4] {
            let disk = Disk::in_memory(512);
            let pipe = IndexBuildPipeline::new(threads);
            let codec = ElementPageCodec::new(512);
            let parts = pipe.partition(elems(500), codec.capacity());
            let first = pipe.pack_pages(&disk, &parts, |p, buf| codec.encode_into(p.items, buf));
            let got: Vec<_> = (0..parts.len())
                .map(|i| disk.read_page_vec(PageId(first.0 + i as u64)))
                .collect();
            assert_eq!(got, reference, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_writes_stay_sequentially_classified() {
        // The deterministic write order is also what keeps the simulated
        // I/O accounting honest: a contiguous run written in order is all
        // sequential writes after the first.
        let disk = Disk::in_memory(256);
        let pipe = IndexBuildPipeline::new(4);
        let first = pipe.encode_and_write(&disk, 64, |i, buf| buf.resize(16, i as u8));
        assert_eq!(first, PageId(0));
        let s = disk.stats();
        assert_eq!(s.rand_writes, 1);
        assert_eq!(s.seq_writes, 63);
    }

    #[test]
    fn batched_parallel_encode_spans_batch_boundaries() {
        // 5000 pages > the 2048-image minimum batch, so the parallel path
        // takes several batches; bytes must still match the streaming
        // sequential path exactly.
        let encode = |i: usize, buf: &mut Vec<u8>| buf.resize(32, (i % 251) as u8);
        let seq_disk = Disk::in_memory(64);
        IndexBuildPipeline::sequential().encode_and_write(&seq_disk, 5000, encode);
        let par_disk = Disk::in_memory(64);
        IndexBuildPipeline::new(4).encode_and_write(&par_disk, 5000, encode);
        assert_eq!(seq_disk.allocated_pages(), par_disk.allocated_pages());
        for p in 0..5000 {
            assert_eq!(
                seq_disk.read_page_vec(PageId(p)),
                par_disk.read_page_vec(PageId(p)),
                "page {p}"
            );
        }
        // Batch boundaries leave no seams in the I/O classification.
        assert_eq!(par_disk.stats().rand_writes, 1);
        assert_eq!(par_disk.stats().seq_writes, 4999);
    }

    #[test]
    fn zero_pages_allocate_nothing() {
        let disk = Disk::in_memory(256);
        let pipe = IndexBuildPipeline::new(2);
        pipe.encode_and_write(&disk, 0, |_, _: &mut Vec<u8>| {});
        assert_eq!(disk.allocated_pages(), 0);
    }
}
