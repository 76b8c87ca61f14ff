//! A small private page cache with CLOCK (second-chance) replacement.
//!
//! The paper's experiments run with cold *OS* caches (§VII-A) but every
//! join implementation still owns an in-process buffer: the synchronized
//! R-Tree revisits nodes, TRANSFORMERS' crawl can touch a follower page
//! from several pivots, and PBSM streams partitions. To keep the comparison
//! fair, every approach in this reproduction reads data pages through a
//! CLOCK cache of the same default capacity — this [`BufferPool`] for the
//! sequential baselines, a [`crate::SharedPageCache`] of as many pages for
//! TRANSFORMERS, GIPSY and the R-tree's runs — and only *misses* reach the
//! [`Disk`] and are charged I/O.
//!
//! The pool runs on the same [`crate::clock`] CLOCK ring as the shards of
//! the process-wide [`crate::SharedPageCache`]: a hit costs one hash
//! lookup and one reference-bit store (the previous LRU paid two
//! `BTreeMap` updates per read), and a miss recycles the victim frame's
//! buffer in place instead of allocating a fresh `Vec` per page.

use crate::clock::ClockRing;
use crate::{Disk, PageId};

/// Default pool capacity in pages: 1024 × 8 KiB = 8 MiB.
pub const DEFAULT_POOL_PAGES: usize = 1024;

/// A private CLOCK page cache in front of a [`Disk`].
///
/// For a cache *shared* by concurrent readers use
/// [`crate::SharedPageCache`] — every TRANSFORMERS, GIPSY, serve and
/// mutate read does; this type is `&mut self` and belongs to one owner
/// scanning on its own (a sequential baseline's read loop).
pub struct BufferPool<'d> {
    disk: &'d Disk,
    ring: ClockRing<Vec<u8>>,
    hits: u64,
    misses: u64,
}

impl<'d> BufferPool<'d> {
    /// Creates a pool of `capacity` pages over `disk`.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(disk: &'d Disk, capacity: usize) -> Self {
        Self {
            disk,
            ring: ClockRing::new(capacity),
            hits: 0,
            misses: 0,
        }
    }

    /// Creates a pool with the default capacity.
    pub fn with_default_capacity(disk: &'d Disk) -> Self {
        Self::new(disk, DEFAULT_POOL_PAGES)
    }

    /// The underlying disk.
    pub fn disk(&self) -> &'d Disk {
        self.disk
    }

    /// Reads a page, from cache if possible. Returns a reference valid
    /// until the next call that can evict.
    pub fn read(&mut self, id: PageId) -> &[u8] {
        if let Some(i) = self.ring.find(id.0) {
            self.hits += 1;
            return self.ring.payload_mut(i);
        }
        self.misses += 1;
        let page_size = self.disk.page_size();
        // The victim's buffer is recycled in place; only a growing pool
        // (or an all-pinned ring, impossible here) allocates.
        let slot = self.ring.insert(id.0, |_| true, || vec![0u8; page_size]);
        self.disk.read_page(id, slot.payload);
        slot.payload
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (disk reads) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drops all cached pages (does not reset hit/miss counters).
    pub fn clear(&mut self) {
        self.ring.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiskModel;

    fn disk_with_pages(n: u64, page_size: usize) -> Disk {
        let d = Disk::in_memory(page_size).with_model(DiskModel::free());
        let first = d.allocate_contiguous(n);
        for i in 0..n {
            d.write_page(PageId(first.0 + i), &[i as u8]);
        }
        d.reset_stats();
        d
    }

    #[test]
    fn hit_avoids_disk() {
        let d = disk_with_pages(4, 16);
        let mut pool = BufferPool::new(&d, 2);
        assert_eq!(pool.read(PageId(0))[0], 0);
        assert_eq!(pool.read(PageId(0))[0], 0);
        assert_eq!(pool.hits(), 1);
        assert_eq!(pool.misses(), 1);
        assert_eq!(d.stats().reads(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let d = disk_with_pages(3, 16);
        let mut pool = BufferPool::new(&d, 2);
        pool.read(PageId(0));
        pool.read(PageId(1));
        pool.read(PageId(0)); // refresh 0; second-chance victim is now 1
        pool.read(PageId(2)); // evicts 1
        assert_eq!(d.stats().reads(), 3);
        pool.read(PageId(0)); // still cached
        assert_eq!(d.stats().reads(), 3);
        pool.read(PageId(1)); // was evicted -> miss
        assert_eq!(d.stats().reads(), 4);
    }

    #[test]
    fn clear_forces_reread() {
        let d = disk_with_pages(1, 16);
        let mut pool = BufferPool::new(&d, 4);
        pool.read(PageId(0));
        pool.clear();
        pool.read(PageId(0));
        assert_eq!(d.stats().reads(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_capacity_panics() {
        let d = disk_with_pages(1, 16);
        let _ = BufferPool::new(&d, 0);
    }

    #[test]
    fn capacity_one_thrashes_correctly() {
        let d = disk_with_pages(2, 16);
        let mut pool = BufferPool::new(&d, 1);
        assert_eq!(pool.read(PageId(0))[0], 0);
        assert_eq!(pool.read(PageId(1))[0], 1);
        assert_eq!(pool.read(PageId(0))[0], 0);
        assert_eq!(d.stats().reads(), 3);
    }

    #[test]
    fn recycled_frames_return_fresh_bytes() {
        // Thrash a capacity-1 pool across distinct pages: every miss
        // recycles the same buffer, which must always end up holding the
        // newly requested page's bytes.
        let d = disk_with_pages(8, 16);
        let mut pool = BufferPool::new(&d, 1);
        for round in 0..3 {
            for i in 0..8u64 {
                assert_eq!(pool.read(PageId(i))[0], i as u8, "round {round}");
            }
        }
        assert_eq!(pool.hits(), 0);
        assert_eq!(pool.misses(), 24);
    }
}
