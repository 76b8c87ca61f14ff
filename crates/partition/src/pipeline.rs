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
//! count), page images are encoded beside the writes but **written
//! sequentially in page order**, a batch per [`Disk::write_run`] whose
//! accounting is that of writing its pages one by one — so both the bytes
//! on disk and the simulated I/O accounting (sequential-write
//! classification) are independent of the worker count. A build with
//! `build_threads = 8` produces byte-identical disk pages, metadata and
//! B+-tree to a sequential build; only wall time changes. The `build_determinism` test checksums whole disks to hold the
//! pipeline to that.

use crate::str::{str_partition_pooled, StrPartition, StrPartitions};
use std::ops::Range;
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
    /// `capacity`, every pass fanned out over the pool
    /// ([`str_partition_pooled`]). `items` is permuted in place and
    /// returned inside the result. Identical output at any thread count.
    pub fn partition<T: HasMbb + Send + Sync>(
        &self,
        items: Vec<T>,
        capacity: usize,
    ) -> StrPartitions<T> {
        let _stage = tfm_obs::global().stage_span(tfm_obs::names::BUILD_PARTITION);
        str_partition_pooled(items, capacity, &self.pool)
    }

    /// **Encode + write stage**: produces `count` page images with `encode`
    /// and writes them to a freshly allocated contiguous run, **in page
    /// order**, so the on-disk bytes and the sequential-write I/O
    /// accounting match a single-threaded build exactly. Returns the first
    /// page of the run.
    ///
    /// `encode(i, buf)` serializes page `i` into `buf` (handed in empty;
    /// shorter images are zero-padded to the page). The images go through
    /// one scratch `Vec` per batch into the batch buffer
    /// ([`write_pages`](Self::write_pages) has the batching); an encoder
    /// that can write a page in place should use `write_pages` itself and
    /// skip the copy.
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
    /// to every `encode(first, i)` call; everything else (batching,
    /// in-order writes, byte-determinism) is identical.
    pub fn encode_run<F>(&self, disk: &Disk, count: usize, encode: F) -> PageId
    where
        F: Fn(PageId, usize, &mut Vec<u8>) + Sync,
    {
        let page_size = disk.page_size();
        self.pack_run(disk, count, |first, pages, batch| {
            let mut buf = Vec::with_capacity(page_size);
            for (page, i) in batch.chunks_exact_mut(page_size).zip(pages) {
                buf.clear();
                encode(first, i, &mut buf);
                assert!(
                    buf.len() <= page_size,
                    "page image of {} bytes exceeds page size {page_size}",
                    buf.len()
                );
                let (image, padding) = page.split_at_mut(buf.len());
                image.copy_from_slice(&buf);
                padding.fill(0);
            }
        })
    }

    /// [`encode_and_write`](Self::encode_and_write) for encoders that write
    /// a page in place: `fill(i, page)` writes page `i`'s whole image into
    /// `page`, a slot of a batch buffer exactly one page long that still
    /// holds an earlier page's bytes.
    ///
    /// The pages go through two batch buffers, allocated once per call,
    /// and each batch goes to the store in one [`Disk::write_run`]; no
    /// buffer is allocated per page. On a pool of two or more workers the
    /// caller's thread writes one batch of 1 MiB while a second thread
    /// fills the next, so encoding hides behind the store's copy. A
    /// sequential pool fills and writes in turn, one page at a time: a
    /// larger batch bought nothing there and cost a little (DESIGN.md
    /// § "Bulk load").
    pub fn write_pages<F>(&self, disk: &Disk, count: usize, fill: F) -> PageId
    where
        F: Fn(usize, &mut [u8]) + Sync,
    {
        let page_size = disk.page_size();
        self.pack_run(disk, count, |_, pages, batch| {
            for (page, i) in batch.chunks_exact_mut(page_size).zip(pages) {
                fill(i, page);
            }
        })
    }

    /// The batching under every encode stage: allocates the run, then for
    /// each batch of pages runs `fill(first, pages, batch)` — `batch` holds
    /// exactly the pages `pages` of the run — and writes it, overlapping
    /// the write of one batch with the fill of the next.
    fn pack_run<F>(&self, disk: &Disk, count: usize, fill: F) -> PageId
    where
        F: Fn(PageId, Range<usize>, &mut [u8]) + Sync,
    {
        let _stage = tfm_obs::global().stage_span(tfm_obs::names::BUILD_ENCODE_WRITE);
        let first = disk.allocate_contiguous(count as u64);
        let page_size = disk.page_size();
        let per_batch = if self.pool.is_sequential() {
            1
        } else {
            ((1 << 20) / page_size).max(1)
        };
        let batches = count.div_ceil(per_batch);
        let pages_of = |b: usize| b * per_batch..((b + 1) * per_batch).min(count);
        let bytes_of = |pages: &Range<usize>| pages.len() * page_size;
        let mut ready = vec![0u8; count.min(per_batch) * page_size];
        let mut next = vec![0u8; if batches > 1 { ready.len() } else { 0 }];
        if batches > 0 {
            let pages = pages_of(0);
            fill(first, pages.clone(), &mut ready[..bytes_of(&pages)]);
        }
        for b in 0..batches {
            let this = pages_of(b);
            self.pool.join(
                || {
                    let first = PageId(first.0 + this.start as u64);
                    // A failed write still panics here and in
                    // `Disk::write_page` until the bulk load can carry an
                    // error (ROADMAP item 1, slice B: fallible writes).
                    disk.write_run(first, &ready[..bytes_of(&this)])
                        .unwrap_or_else(|e| panic!("page write failed ({first}): {e}"))
                },
                || {
                    if b + 1 < batches {
                        let after = pages_of(b + 1);
                        fill(first, after.clone(), &mut next[..bytes_of(&after)]);
                    }
                },
            );
            std::mem::swap(&mut ready, &mut next);
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
        // 700 pages of 4 KiB: three batches of at most 1 MiB on a pool,
        // one page per batch on one thread; bytes and I/O accounting must
        // match page-by-page writes exactly.
        let encode = |i: usize, buf: &mut Vec<u8>| buf.resize(32 + i % 7, (i % 251) as u8);
        let reference = Disk::in_memory(4096);
        let first = reference.allocate_contiguous(700);
        let mut buf = Vec::new();
        for i in 0..700 {
            buf.clear();
            encode(i, &mut buf);
            reference.write_page(PageId(first.0 + i as u64), &buf);
        }
        let written = reference.stats();
        for threads in [1, 2, 4] {
            let disk = Disk::in_memory(4096);
            IndexBuildPipeline::new(threads).encode_and_write(&disk, 700, encode);
            assert_eq!(disk.allocated_pages(), 700);
            // Batch boundaries leave no seams in the I/O accounting.
            assert_eq!(disk.stats(), written, "threads = {threads}");
            for p in 0..700 {
                assert_eq!(
                    disk.read_page_vec(PageId(p)),
                    reference.read_page_vec(PageId(p)),
                    "threads = {threads}, page {p}"
                );
            }
        }
    }

    #[test]
    fn in_place_fills_write_what_encoders_write() {
        // `write_pages` hands out batch slots that still hold the page
        // written a batch earlier: a fill that writes every byte must
        // give the bytes of the `Vec` path.
        let parts = IndexBuildPipeline::sequential().partition(elems(3000), 9);
        let codec = ElementPageCodec::new(512);
        let encoded = Disk::in_memory(512);
        IndexBuildPipeline::sequential()
            .pack_pages(&encoded, &parts, |p, buf| codec.encode_into(p.items, buf));
        let written = encoded.stats();
        for threads in [1, 2, 3] {
            let filled = Disk::in_memory(512);
            IndexBuildPipeline::new(threads).write_pages(&filled, parts.len(), |i, page| {
                codec.encode_page(parts.items_of(i), page)
            });
            assert_eq!(filled.stats(), written, "threads = {threads}");
            for p in 0..parts.len() as u64 {
                assert_eq!(
                    filled.read_page_vec(PageId(p)),
                    encoded.read_page_vec(PageId(p)),
                    "threads = {threads}, page {p}"
                );
            }
        }
    }

    #[test]
    fn zero_pages_allocate_nothing() {
        let disk = Disk::in_memory(256);
        let pipe = IndexBuildPipeline::new(2);
        pipe.encode_and_write(&disk, 0, |_, _: &mut Vec<u8>| {});
        assert_eq!(disk.allocated_pages(), 0);
    }
}
