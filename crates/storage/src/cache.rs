//! The unified read path: one trait over the shared cache and the raw
//! disk.
//!
//! Index structures (the B+-tree, the R-tree, the TRANSFORMERS unit
//! reader) are generic over [`PageReads`] so one traversal implementation
//! serves every reader:
//!
//! * [`CacheHandle`] — a per-worker view onto a [`SharedPageCache`] with
//!   its own hit/miss counters, so per-worker accounting survives
//!   sharing. Every join, probe and write reads through one; a single
//!   owner's scan (the PBSM, sweep and R-tree baselines) holds the one
//!   handle onto a one-shard cache;
//! * `&Disk` — uncached direct reads, for one-shot metadata passes.
//!
//! Page bytes come back as a [`PageSlice`] (pinned zero-copy from the
//! shared cache, or owned from the raw disk), which derefs to a byte
//! slice, so call sites are caching-agnostic. A reader of an element page
//! views the slice with [`ElementPageCodec::view`](crate::ElementPageCodec::view):
//! a probe tests the boxes in place, a join copies the records it keeps
//! into a buffer it owns.

use crate::shared::ReadOutcome;
use crate::{Disk, PageId, PageRef, SharedPageCache};
use std::ops::Deref;

/// Per-handle cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Page-tier hits.
    pub hits: u64,
    /// Page-tier misses (disk page reads triggered by this handle).
    pub misses: u64,
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

/// One page's bytes, however the read path produced them.
pub enum PageSlice {
    /// Pinned zero-copy in the shared cache.
    Pinned(PageRef),
    /// Freshly read from the disk (uncached mode).
    Owned(Vec<u8>),
}

impl Deref for PageSlice {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        match self {
            PageSlice::Pinned(r) => r,
            PageSlice::Owned(v) => v,
        }
    }
}

/// A source of cached page reads — the one abstraction every index
/// traversal reads pages through (see the module docs for the two
/// implementors and what each returns).
///
/// The contract: [`page`](PageReads::page) must return exactly the bytes
/// the underlying [`Disk`] holds for that id (caching may only change
/// *when* the disk is touched, never *what* comes back), and
/// [`counters`](PageReads::counters) must account every `page` call as
/// either a hit or a miss so per-worker accounting stays exact under
/// sharing. Handles are `&mut self` per owner: concurrency lives *inside*
/// an implementation (the shared cache's lock striping), never in the
/// trait.
pub trait PageReads {
    /// Reads one page's bytes. Over the cache the slice pins its frame
    /// until it is dropped, so a scan drops each page before its next read
    /// and leaves every frame evictable.
    fn page(&mut self, id: PageId) -> PageSlice;

    /// This handle's cache counters (zeros for uncached modes).
    fn counters(&self) -> PoolCounters;
}

/// Uncached direct reads; every access reaches the disk and allocates.
/// Meant for one-shot traversals (e.g. a single B+-tree lookup on a cold
/// path), not hot loops.
impl PageReads for &Disk {
    fn page(&mut self, id: PageId) -> PageSlice {
        PageSlice::Owned(self.read_page_vec(id))
    }

    fn counters(&self) -> PoolCounters {
        PoolCounters::default()
    }
}

/// A per-worker view onto a [`SharedPageCache`].
///
/// This is what rides inside `transformers::UnitReader`, the join's
/// per-side state, the serve sessions and the baselines' scans: workers
/// construct their handle once and read through it. The handle keeps
/// **local** counters, so summing per-worker counters never double-counts
/// the cache's totals.
pub struct CacheHandle<'c, 'd> {
    cache: &'c SharedPageCache<'d>,
    counters: PoolCounters,
}

impl<'c, 'd> CacheHandle<'c, 'd> {
    /// A handle viewing `cache`.
    pub fn shared(cache: &'c SharedPageCache<'d>) -> Self {
        Self {
            cache,
            counters: PoolCounters::default(),
        }
    }

    /// The cache this handle reads through.
    pub fn cache(&self) -> &'c SharedPageCache<'d> {
        self.cache
    }

    /// Reads one page and returns the pin itself, counted like
    /// [`page`](PageReads::page): for a reader that copies the bytes out
    /// (the join's follower sweep) or holds several pages at once.
    pub fn pin(&mut self, id: PageId) -> PageRef {
        let (page, outcome) = self.cache.read_tracked(id);
        match outcome {
            ReadOutcome::Hit => self.counters.hits += 1,
            ReadOutcome::Miss => self.counters.misses += 1,
        }
        page
    }
}

impl PageReads for CacheHandle<'_, '_> {
    fn page(&mut self, id: PageId) -> PageSlice {
        PageSlice::Pinned(self.pin(id))
    }

    fn counters(&self) -> PoolCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskModel, ElementPageCodec};
    use tfm_geom::{Aabb, Point3, SpatialElement};

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

    /// Both implementors must produce identical bytes for the same page,
    /// and those bytes the elements that were written.
    #[test]
    fn all_modes_agree() {
        fn check(r: &mut impl PageReads, codec: &ElementPageCodec, p: u64, reference: &[u8]) {
            assert_eq!(&*r.page(PageId(p)), reference);
            assert_eq!(codec.decode(&r.page(PageId(p)))[0], elem(p));
        }
        let (d, codec) = element_disk(6);
        let shared = SharedPageCache::with_shards(&d, 4, 2);
        let mut handle = CacheHandle::shared(&shared);
        let mut direct: &Disk = &d;
        for p in 0..6u64 {
            let reference = d.read_page_vec(PageId(p));
            check(&mut handle, &codec, p, &reference);
            check(&mut direct, &codec, p, &reference);
        }
        // The handle counts its own traffic; the raw disk counts nothing.
        let c = handle.counters();
        assert_eq!(c.hits + c.misses, 12, "{c:?}");
        assert_eq!(direct.counters(), PoolCounters::default());
    }

    #[test]
    fn pins_are_counted_like_page_reads_and_can_be_held_together() {
        let (d, _) = element_disk(4);
        let shared = SharedPageCache::with_shards(&d, 2, 1);
        let mut h = CacheHandle::shared(&shared);
        assert!(!shared.is_resident(PageId(0)));
        // More pins than frames: the ring grows instead of evicting one.
        let pins: Vec<PageRef> = (0..4).map(|p| h.pin(PageId(p))).collect();
        assert_eq!((h.counters().hits, h.counters().misses), (0, 4));
        assert_eq!(shared.pinned_pages(), 4);
        for (p, pin) in pins.iter().enumerate() {
            assert_eq!(&**pin, d.read_page_vec(PageId(p as u64)).as_slice());
            assert!(shared.is_resident(PageId(p as u64)));
        }
        // Asking is not reading: no counter moved.
        assert_eq!(shared.stats().hits + shared.stats().misses, 4);
        drop(h.pin(PageId(1)));
        assert_eq!(h.counters().hits, 1);
        drop(pins);
        assert_eq!(shared.pinned_pages(), 0);
    }

    #[test]
    fn shared_handles_count_locally_not_globally() {
        let (d, _) = element_disk(3);
        let shared = SharedPageCache::with_shards(&d, 8, 2);
        let mut h1 = CacheHandle::shared(&shared);
        let mut h2 = CacheHandle::shared(&shared);
        // h1 faults everything in; h2 rides its hits.
        for p in 0..3u64 {
            h1.page(PageId(p));
        }
        for p in 0..3u64 {
            h2.page(PageId(p));
        }
        assert_eq!(h1.counters().misses, 3);
        assert_eq!((h2.counters().hits, h2.counters().misses), (3, 0));
        // Global totals equal the sum of the handle-local counters.
        let g = shared.stats();
        assert_eq!(g.misses, h1.counters().misses + h2.counters().misses);
        assert_eq!(g.hits, h1.counters().hits + h2.counters().hits);
    }
}
