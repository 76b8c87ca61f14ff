//! A prefetch whose disk read overlaps a write of the same page must not
//! land the pre-write image.
//!
//! `prefetch_page` reads the disk off-lock. If the page is written,
//! flushed and evicted while that read is parked, the page is again "not
//! resident" when the prefetcher comes back — the state in which it lands
//! its bytes — but the bytes are the old image. The mutable serve engine
//! runs exactly this combination (readahead under concurrent batches, and
//! `apply_batch` writes the dirty tier back whenever it fills).

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use tfm_storage::{Disk, DiskBackendKind, MemStore, PageId, PageStore, SharedPageCache};

const PAGE: usize = 64;

/// Where the parked read and the test thread meet.
struct Parking {
    armed: AtomicBool,
    parked: Barrier,
    release: Barrier,
}

/// A `MemStore` whose next read of `target` (once armed) copies the bytes
/// and then waits — a device read that completed just before a write.
struct ParkingStore {
    inner: MemStore,
    target: u64,
    parking: Arc<Parking>,
}

impl PageStore for ParkingStore {
    fn kind(&self) -> DiskBackendKind {
        self.inner.kind()
    }

    fn read_page(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_page(offset, buf)?;
        if offset == self.target && self.parking.armed.swap(false, Ordering::AcqRel) {
            self.parking.parked.wait();
            self.parking.release.wait();
        }
        Ok(())
    }

    fn write_page(&self, offset: u64, page: &[u8]) -> io::Result<()> {
        self.inner.write_page(offset, page)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

#[test]
fn prefetch_parked_across_a_write_flush_and_eviction_lands_nothing() {
    let target = PageId(1);
    let parking = Arc::new(Parking {
        armed: AtomicBool::new(false),
        parked: Barrier::new(2),
        release: Barrier::new(2),
    });
    let store = ParkingStore {
        inner: MemStore::new(),
        target: target.0 * PAGE as u64,
        parking: Arc::clone(&parking),
    };
    let disk = Disk::with_store(Box::new(store), PAGE);
    let first = disk.allocate_contiguous(9);
    for i in 0..9u64 {
        disk.write_page(PageId(first.0 + i), &[i as u8; PAGE]);
    }
    // One shard, two frames: seven reads are sure to evict the target.
    let cache = SharedPageCache::with_shards(&disk, 2, 1);

    parking.armed.store(true, Ordering::Release);
    std::thread::scope(|s| {
        s.spawn(|| cache.prefetch_page(target, &mut Vec::new()));
        // The prefetcher holds the old image; now the page changes, reaches
        // the disk and leaves the cache before it comes back.
        parking.parked.wait();
        cache.write_page(target, &[2; PAGE], 0);
        assert_eq!(cache.flush_dirty(u64::MAX), (1, 0));
        for i in 2..9u64 {
            assert_eq!(cache.read(PageId(i))[0], i as u8);
        }
        parking.release.wait();
    });

    assert_eq!(&*cache.read(target), &[2; PAGE], "stale image served");
    let stats = cache.stats();
    assert_eq!((stats.prefetch_issued, stats.prefetch_stale), (0, 1));
}
