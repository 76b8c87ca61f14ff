//! The unified read path: one trait over private pools, the shared cache
//! and the raw disk.
//!
//! Index structures (the B+-tree, the R-tree, the TRANSFORMERS unit
//! reader) are generic over [`PageReads`] so one traversal implementation
//! serves every caching mode:
//!
//! * [`BufferPool`] — the classic private per-owner pool;
//! * [`CacheHandle`] — a per-worker *view* that is either a private pool
//!   or a thin handle onto the process-wide [`SharedPageCache`] (with its
//!   own hit/miss counters, so per-worker accounting survives sharing);
//! * `&Disk` — uncached direct reads, for one-shot metadata passes.
//!
//! Page bytes come back as a [`PageSlice`] (borrowed from a private pool,
//! pinned zero-copy from the shared cache, or owned from the raw disk) and
//! decoded element pages as an [`ElemSlice`] (scratch-decoded privately,
//! or the shared cache's cached `Arc<[SpatialElement]>`). Both deref to
//! slices, so call sites are caching-agnostic. A reader that only tests
//! an element page's boxes takes the [`PageSlice`] and views it with
//! [`ElementPageCodec::view`]; [`PageReads::elements`] is for readers that
//! keep the elements.

use crate::shared::{DecodedOutcome, ReadOutcome};
use crate::{BufferPool, Disk, ElementPageCodec, PageId, PageRef, SharedPageCache};
use std::ops::Deref;
use std::sync::Arc;
use tfm_geom::SpatialElement;

/// Per-handle cache counters (both tiers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Page-tier hits.
    pub hits: u64,
    /// Page-tier misses (disk page reads triggered by this handle).
    pub misses: u64,
    /// Decoded-tier hits (decode skipped).
    pub decoded_hits: u64,
    /// Decoded-tier misses (a decode ran for this handle's read).
    pub decoded_misses: u64,
    /// Reads served by a frame the prefetch pipeline landed — tracked
    /// apart from `hits`/`misses` so readahead cannot inflate
    /// [`hit_fraction`](PoolCounters::hit_fraction).
    pub prefetch_hits: u64,
}

impl PoolCounters {
    /// Page-tier hit fraction in `0.0..=1.0` (0 when idle).
    pub fn hit_fraction(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// One page's bytes, however the cache mode produced them.
pub enum PageSlice<'a> {
    /// Borrowed from a private pool frame.
    Borrowed(&'a [u8]),
    /// Pinned zero-copy in the shared cache.
    Pinned(PageRef),
    /// Freshly read from the disk (uncached mode).
    Owned(Vec<u8>),
}

impl Deref for PageSlice<'_> {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        match self {
            PageSlice::Borrowed(s) => s,
            PageSlice::Pinned(r) => r,
            PageSlice::Owned(v) => v,
        }
    }
}

/// One element page's decoded records, however the cache mode produced
/// them.
pub enum ElemSlice<'a> {
    /// Decoded into the caller's scratch buffer (private/uncached modes).
    Borrowed(&'a [SpatialElement]),
    /// The shared cache's decoded-tier entry (no decode ran on a hit).
    Cached(Arc<[SpatialElement]>),
}

impl Deref for ElemSlice<'_> {
    type Target = [SpatialElement];

    #[inline]
    fn deref(&self) -> &[SpatialElement] {
        match self {
            ElemSlice::Borrowed(s) => s,
            ElemSlice::Cached(a) => a,
        }
    }
}

/// A source of cached page reads — the one abstraction every index
/// traversal reads pages through (see the module docs for the three
/// implementors and what each returns).
///
/// The contract: [`page`](PageReads::page) must return exactly the bytes
/// the underlying [`Disk`] holds for that id (caching may only change
/// *when* the disk is touched, never *what* comes back), and
/// [`counters`](PageReads::counters) must account every `page`/
/// [`elements`](PageReads::elements) call as either a hit or a miss so
/// per-worker accounting stays exact under sharing. Handles are `&mut
/// self` per owner: concurrency lives *inside* an implementation (the
/// shared cache's lock striping), never in the trait.
pub trait PageReads {
    /// Reads one page's bytes.
    fn page(&mut self, id: PageId) -> PageSlice<'_>;

    /// Reads and decodes one element page. Implementations without a
    /// decoded tier decode into `scratch`; the shared cache returns its
    /// cached records and leaves `scratch` untouched.
    fn elements<'s>(
        &'s mut self,
        codec: &ElementPageCodec,
        id: PageId,
        scratch: &'s mut Vec<SpatialElement>,
    ) -> ElemSlice<'s> {
        let page = self.page(id);
        codec.decode_into(&page, scratch);
        drop(page);
        ElemSlice::Borrowed(scratch)
    }

    /// This handle's cache counters (zeros for uncached modes).
    fn counters(&self) -> PoolCounters;
}

impl PageReads for BufferPool<'_> {
    fn page(&mut self, id: PageId) -> PageSlice<'_> {
        PageSlice::Borrowed(self.read(id))
    }

    fn counters(&self) -> PoolCounters {
        PoolCounters {
            hits: self.hits(),
            misses: self.misses(),
            ..PoolCounters::default()
        }
    }
}

/// Uncached direct reads; every access reaches the disk and allocates.
/// Meant for one-shot traversals (e.g. a single B+-tree lookup on a cold
/// path), not hot loops.
impl PageReads for &Disk {
    fn page(&mut self, id: PageId) -> PageSlice<'_> {
        PageSlice::Owned(self.read_page_vec(id))
    }

    fn counters(&self) -> PoolCounters {
        PoolCounters::default()
    }
}

/// A per-worker view over some cache: either a private [`BufferPool`] or
/// a counted handle onto a [`SharedPageCache`].
///
/// This is what rides inside `transformers::UnitReader`, the join's
/// per-side state and the serve sessions: workers construct their handle
/// once and the rest of the read path is mode-agnostic. The `Shared`
/// variant keeps **local** counters, so summing per-worker counters never
/// double-counts the global cache's totals.
pub enum CacheHandle<'c, 'd> {
    /// A private CLOCK pool owned by this handle.
    Private(BufferPool<'d>),
    /// A view onto the process-wide shared cache.
    Shared {
        /// The shared cache all handles read through.
        cache: &'c SharedPageCache<'d>,
        /// This handle's own hit/miss counters.
        counters: PoolCounters,
    },
}

impl<'c, 'd> CacheHandle<'c, 'd> {
    /// A handle owning a private pool of `pages` pages (clamped to ≥ 1).
    pub fn private(disk: &'d Disk, pages: usize) -> Self {
        CacheHandle::Private(BufferPool::new(disk, pages.max(1)))
    }

    /// A handle viewing the shared cache.
    pub fn shared(cache: &'c SharedPageCache<'d>) -> Self {
        CacheHandle::Shared {
            cache,
            counters: PoolCounters::default(),
        }
    }

    /// The disk behind this handle.
    pub fn disk(&self) -> &'d Disk {
        match self {
            CacheHandle::Private(pool) => pool.disk(),
            CacheHandle::Shared { cache, .. } => cache.disk(),
        }
    }

    /// True when this handle views the process-wide shared cache.
    pub fn is_shared(&self) -> bool {
        matches!(self, CacheHandle::Shared { .. })
    }
}

impl PageReads for CacheHandle<'_, '_> {
    fn page(&mut self, id: PageId) -> PageSlice<'_> {
        match self {
            CacheHandle::Private(pool) => PageSlice::Borrowed(pool.read(id)),
            CacheHandle::Shared { cache, counters } => {
                let (page, outcome) = cache.read_tracked(id);
                match outcome {
                    ReadOutcome::Hit => counters.hits += 1,
                    ReadOutcome::PrefetchHit => counters.prefetch_hits += 1,
                    ReadOutcome::Miss => counters.misses += 1,
                }
                PageSlice::Pinned(page)
            }
        }
    }

    fn elements<'s>(
        &'s mut self,
        codec: &ElementPageCodec,
        id: PageId,
        scratch: &'s mut Vec<SpatialElement>,
    ) -> ElemSlice<'s> {
        match self {
            CacheHandle::Private(pool) => {
                codec.decode_into(pool.read(id), scratch);
                ElemSlice::Borrowed(scratch)
            }
            CacheHandle::Shared { cache, counters } => {
                let (elems, outcome) = cache.read_decoded_tracked(codec, id);
                match outcome {
                    DecodedOutcome::Decoded => {
                        counters.hits += 1;
                        counters.decoded_hits += 1;
                    }
                    DecodedOutcome::Page => {
                        counters.hits += 1;
                        counters.decoded_misses += 1;
                    }
                    DecodedOutcome::PrefetchedPage => {
                        counters.prefetch_hits += 1;
                        counters.decoded_misses += 1;
                    }
                    DecodedOutcome::Miss => {
                        counters.misses += 1;
                        counters.decoded_misses += 1;
                    }
                }
                ElemSlice::Cached(elems)
            }
        }
    }

    fn counters(&self) -> PoolCounters {
        match self {
            CacheHandle::Private(pool) => PageReads::counters(pool),
            CacheHandle::Shared { counters, .. } => *counters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiskModel;
    use tfm_geom::{Aabb, Point3};

    fn elem(id: u64) -> SpatialElement {
        let f = id as f64;
        SpatialElement::new(
            id,
            Aabb::new(Point3::new(f, f, f), Point3::new(f + 1.0, f + 1.0, f + 1.0)),
        )
    }

    fn element_disk(pages: u64) -> (Disk, ElementPageCodec) {
        let codec = ElementPageCodec::new(512);
        let d = Disk::in_memory(512).with_model(DiskModel::free());
        let first = d.allocate_contiguous(pages);
        for i in 0..pages {
            d.write_page(PageId(first.0 + i), &codec.encode(&[elem(i)]));
        }
        d.reset_stats();
        (d, codec)
    }

    /// Every mode must produce identical bytes and identical decoded
    /// elements for the same page.
    #[test]
    fn all_modes_agree() {
        let (d, codec) = element_disk(6);
        let shared = SharedPageCache::with_shards(&d, 4, 2);
        let mut handles: Vec<CacheHandle> =
            vec![CacheHandle::private(&d, 4), CacheHandle::shared(&shared)];
        let mut direct: &Disk = &d;
        let mut scratch = Vec::new();
        for p in 0..6u64 {
            let reference = direct.page(PageId(p)).to_vec();
            for h in handles.iter_mut() {
                assert_eq!(&*h.page(PageId(p)), reference.as_slice());
                let mut s = Vec::new();
                let e = h.elements(&codec, PageId(p), &mut s);
                assert_eq!(e[0], elem(p));
            }
            let e = direct.elements(&codec, PageId(p), &mut scratch);
            assert_eq!(e[0], elem(p));
        }
        // Handle-local counters: private counts its own pool, shared
        // counts only this handle's traffic.
        for h in &handles {
            let c = h.counters();
            assert_eq!(c.hits + c.misses, 12, "{c:?}");
        }
        assert_eq!(direct.counters(), PoolCounters::default());
    }

    #[test]
    fn shared_handles_count_locally_not_globally() {
        let (d, codec) = element_disk(3);
        let shared = SharedPageCache::with_shards(&d, 8, 2);
        let mut h1 = CacheHandle::shared(&shared);
        let mut h2 = CacheHandle::shared(&shared);
        let mut scratch = Vec::new();
        // h1 faults everything in; h2 rides its hits.
        for p in 0..3u64 {
            h1.elements(&codec, PageId(p), &mut scratch);
        }
        for p in 0..3u64 {
            h2.elements(&codec, PageId(p), &mut scratch);
        }
        assert_eq!(h1.counters().misses, 3);
        assert_eq!(h2.counters().misses, 0);
        assert_eq!(h2.counters().decoded_hits, 3);
        // Global totals equal the sum of the handle-local counters.
        let g = shared.stats();
        assert_eq!(g.misses, h1.counters().misses + h2.counters().misses);
        assert_eq!(g.hits, h1.counters().hits + h2.counters().hits);
        assert!(h2.is_shared() && h1.is_shared());
        assert!(!CacheHandle::private(&d, 1).is_shared());
    }

    #[test]
    fn prefetch_hits_stay_out_of_handle_hit_fractions() {
        let (d, codec) = element_disk(4);
        let shared = SharedPageCache::with_shards(&d, 8, 2);
        let mut scratch_page = Vec::new();
        for p in 0..4u64 {
            shared.prefetch_page(PageId(p), &mut scratch_page);
        }
        let mut h = CacheHandle::shared(&shared);
        let mut scratch = Vec::new();
        for p in 0..4u64 {
            h.elements(&codec, PageId(p), &mut scratch);
        }
        let c = h.counters();
        assert_eq!(c.prefetch_hits, 4);
        assert_eq!((c.hits, c.misses), (0, 0));
        assert_eq!(c.hit_fraction(), 0.0, "readahead must not look like hits");
        // Handle-local and global prefetch accounting agree.
        let g = shared.stats();
        assert_eq!(g.prefetch_hits, c.prefetch_hits);
        assert_eq!(g.prefetch_issued, 4);
    }
}
