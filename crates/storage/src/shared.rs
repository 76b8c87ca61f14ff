//! The process-wide, sharded, pinned-frame page cache.
//!
//! Every access path in the reproduction — the TRANSFORMERS join, the
//! GIPSY walk+crawl, the PBSM, sweep and R-tree/B+-tree baselines and the
//! serving layer — bottoms out in page reads against an immutable
//! [`Disk`], and every one of them reads through this cache. Readers that
//! share a disk share **one** cache over it, so a hot page is resident
//! once and read from the disk once per residency, however many workers
//! touch it; a single owner's scan holds a one-shard cache of its own:
//!
//! * **Sharded / lock-striped** — the page-id space is striped over
//!   independently locked shards (consecutive pages land on different
//!   shards), so concurrent readers rarely contend; contention that does
//!   happen is counted ([`CacheStats::lock_contended`]).
//! * **CLOCK eviction per shard** — the second-chance ring of
//!   [`crate::clock`], with pinned and dirty frames skipped. It is the
//!   only policy: a 2Q admission variant was measured and retired
//!   (`DESIGN.md`, § "Shared page cache").
//! * **Zero-copy pin guards** — [`SharedPageCache::read`] hands out a
//!   [`PageRef`] that borrows the cached bytes (`Deref<Target = [u8]>`)
//!   by bumping the frame's `Arc`; no bytes are copied and no `Vec` is
//!   allocated per read. A pinned frame cannot be recycled: eviction
//!   checks the `Arc` count under the shard lock, so a live guard always
//!   observes the page it pinned.
//! * **Recycled miss buffers** — a miss evicts an unpinned victim and
//!   reads the new page *into the victim's buffer*; at steady state a
//!   miss allocates nothing.
//! * **Decoded second tier** — [`SharedPageCache::read_decoded`] keeps a
//!   decoded `Arc<[SpatialElement]>` alongside the frame, built once per
//!   residency, and decoded entries live and die with their frame. No
//!   join or probe reads it any more: they pin the page with
//!   [`SharedPageCache::read_tracked`] and read the records in place
//!   through [`crate::ElementPageCodec::view`]. Only the benchmark's layer
//!   probe still times it; the tier goes once that probe stops.
//!
//! Reads take `&self`; the cache is `Sync` and is meant to be shared by
//! reference across worker threads (see `transformers::UnitReader` and
//! the serve engines). Results are unaffected by caching — decode is pure
//! and the disk is immutable during joins/serves — so join and serve
//! outputs are byte-identical at any worker count and any capacity; only
//! the I/O counters move.
//!
//! Miss fills and decoded-tier fills run **under the shard lock**. That
//! serializes co-shard misses, but it also guarantees each page is read
//! and decoded at most once per residency (no thundering-herd duplicate
//! I/O) and keeps the pin check race-free; against the in-memory store a
//! fill is a `memcpy`, so the hold time is small and the `lock_contended`
//! counter makes the cost observable. A decode is not small — which is
//! why every reader parses outside the lock, from its pin. Every page
//! enters the cache by a demand read or a write: there is no readahead,
//! so every read is exactly one hit or one miss.

use crate::clock::ClockRing;
use crate::{Disk, ElementPageCodec, PageId};
use parking_lot::Mutex;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use tfm_geom::SpatialElement;

/// Default shard count for caches shared by a handful of workers.
pub const DEFAULT_CACHE_SHARDS: usize = 8;

/// Default cache capacity in pages: 1024 × 8 KiB = 8 MiB.
pub const DEFAULT_POOL_PAGES: usize = 1024;

/// One frame of a shard: the pinned page bytes plus the decoded tier.
struct SharedFrame {
    /// Page bytes; `Arc` strong count > 1 means the frame is pinned by at
    /// least one live [`PageRef`] and must not be recycled.
    buf: Arc<Vec<u8>>,
    /// Decoded element records, populated lazily by `read_decoded`.
    decoded: Option<Arc<[SpatialElement]>>,
    /// True while the frame holds bytes newer than the disk image. Dirty
    /// frames are never evicted (the ring grows instead) and only reach
    /// the store through [`SharedPageCache::flush_dirty`].
    dirty: bool,
    /// LSN of the WAL record that logged the frame's current bytes; the
    /// flush gate compares it against the log's durable LSN so no page
    /// reaches the store before its redo record is on stable storage.
    page_lsn: u64,
}

/// Per-shard counters (kept inside the shard lock; aggregated on demand).
#[derive(Default)]
struct ShardCounters {
    hits: u64,
    misses: u64,
    decoded_hits: u64,
    decoded_misses: u64,
    evictions: u64,
    recycled_frames: u64,
    fresh_allocs: u64,
    dirty_installs: u64,
    flushed_pages: u64,
}

struct ShardInner {
    ring: ClockRing<SharedFrame>,
    counters: ShardCounters,
    /// Frames of this shard with `dirty` set, kept where the flag flips
    /// ([`SharedPageCache::write_page`] and the flush) so that
    /// [`SharedPageCache::dirty_pages`] sums one number per shard instead
    /// of scanning every frame.
    dirty: usize,
}

impl ShardInner {
    /// Registers the non-resident `id` in the ring and returns its frame,
    /// clean, for the caller to fill: evicts and recycles an
    /// unpinned clean victim when the ring is full, allocates otherwise.
    /// The one place evictions, recycles and fresh frames are counted.
    fn claim_frame(&mut self, id: PageId, page_size: usize) -> &mut SharedFrame {
        let slot = self.ring.insert(
            id.0,
            // A frame is evictable only while no PageRef pins its buffer
            // (clones only happen under this shard's lock, so the count is
            // stable for the duration of the sweep) and its bytes are on
            // disk — evicting a dirty frame would lose the write.
            |f| Arc::strong_count(&f.buf) == 1 && !f.dirty,
            || SharedFrame {
                buf: Arc::new(vec![0u8; page_size]),
                decoded: None,
                dirty: false,
                page_lsn: 0,
            },
        );
        if slot.evicted.is_some() {
            self.counters.evictions += 1;
            self.counters.recycled_frames += 1;
        }
        if slot.fresh {
            self.counters.fresh_allocs += 1;
        }
        let f = slot.payload;
        // A victim is never dirty (the predicate above), so the shard's
        // dirty count does not move here.
        debug_assert!(!f.dirty, "claimed a dirty frame");
        f.decoded = None;
        f.page_lsn = 0;
        f
    }
}

struct Shard {
    inner: Mutex<ShardInner>,
    /// Lock acquisitions / acquisitions that found the lock held — the
    /// shard-contention signal reported in [`CacheStats`].
    acquisitions: AtomicU64,
    contended: AtomicU64,
}

impl Shard {
    fn lock(&self) -> std::sync::MutexGuard<'_, ShardInner> {
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        if let Some(g) = self.inner.try_lock() {
            return g;
        }
        self.contended.fetch_add(1, Ordering::Relaxed);
        self.inner.lock()
    }
}

/// A zero-copy pin guard over one cached page.
///
/// Holding a `PageRef` pins the frame: the shard's CLOCK sweep skips
/// pinned frames, so the bytes seen through the guard are immutable and
/// always belong to the page that was read — even if the frame table has
/// since moved on. Dropping the guard unpins the frame.
#[derive(Debug, Clone)]
pub struct PageRef {
    buf: Arc<Vec<u8>>,
}

impl Deref for PageRef {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

/// Which tier answered a [`SharedPageCache::read_tracked`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The page tier had the frame.
    Hit,
    /// The page was read from disk on demand.
    Miss,
}

/// Aggregated counters of a [`SharedPageCache`] (or the delta between two
/// snapshots of one).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Page-tier hits (bytes served from a resident frame).
    pub hits: u64,
    /// Page-tier misses (disk page reads).
    pub misses: u64,
    /// Decoded-tier hits (decode skipped entirely).
    pub decoded_hits: u64,
    /// Decoded-tier misses (a decode ran).
    pub decoded_misses: u64,
    /// Frames whose page was evicted to make room.
    pub evictions: u64,
    /// Misses served by recycling an evicted frame's buffer in place.
    pub recycled_frames: u64,
    /// Misses that had to allocate a fresh frame buffer (pool still
    /// filling, or every victim candidate was pinned).
    pub fresh_allocs: u64,
    /// Writes installed into the dirty tier (cache writes not yet on disk
    /// at the time of the write).
    pub dirty_installs: u64,
    /// Dirty frames written back to the store by `flush_dirty`.
    pub flushed_pages: u64,
    /// Most dirty frames any [`SharedPageCache::dirty_pages`] call counted
    /// (a level, not a counter: deltas carry the later snapshot's).
    pub dirty_high_water: u64,
    /// Shard-lock acquisitions.
    pub lock_acquisitions: u64,
    /// Acquisitions that found the shard lock already held — the
    /// lock-striping contention signal.
    pub lock_contended: u64,
    /// Shard count of the cache (configuration, not a counter).
    pub shards: usize,
    /// Total frame capacity in pages (configuration, not a counter).
    pub capacity: usize,
}

impl CacheStats {
    /// Page-tier hit fraction in `0.0..=1.0` (0 when idle).
    pub fn hit_fraction(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }

    /// Fraction of shard-lock acquisitions that found the lock held.
    pub fn contention_fraction(&self) -> f64 {
        if self.lock_acquisitions == 0 {
            return 0.0;
        }
        self.lock_contended as f64 / self.lock_acquisitions as f64
    }

    /// Publishes the shared-cache-only counters into `reg` under the
    /// `cache.*` naming scheme (see `tfm_obs::names`).
    ///
    /// Deliberately excludes `hits`/`misses`: those are owned by the
    /// handle-local pool counters and published once by the run-level
    /// reporter (join or serve), so page-tier traffic never double-counts
    /// when both a handle delta and a shared-cache snapshot are in hand.
    pub fn publish_shared_extras(&self, reg: &tfm_obs::MetricsRegistry) {
        use tfm_obs::names;
        reg.counter(names::CACHE_DECODED_HITS)
            .add(self.decoded_hits);
        reg.counter(names::CACHE_DECODED_MISSES)
            .add(self.decoded_misses);
        reg.counter(names::CACHE_EVICTIONS).add(self.evictions);
        reg.counter(names::CACHE_RECYCLED_FRAMES)
            .add(self.recycled_frames);
        reg.counter(names::CACHE_FRESH_ALLOCS)
            .add(self.fresh_allocs);
        reg.counter(names::CACHE_LOCK_ACQUISITIONS)
            .add(self.lock_acquisitions);
        reg.counter(names::CACHE_LOCK_CONTENDED)
            .add(self.lock_contended);
        reg.counter(names::CACHE_DIRTY_INSTALLS)
            .add(self.dirty_installs);
        reg.counter(names::CACHE_FLUSHED_PAGES)
            .add(self.flushed_pages);
        reg.gauge(names::CACHE_DIRTY_HIGH_WATER)
            .set(self.dirty_high_water as i64);
    }

    /// Counter-wise difference `self - earlier` (configuration fields are
    /// carried over); use to measure one phase of a longer run.
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            decoded_hits: self.decoded_hits - earlier.decoded_hits,
            decoded_misses: self.decoded_misses - earlier.decoded_misses,
            evictions: self.evictions - earlier.evictions,
            recycled_frames: self.recycled_frames - earlier.recycled_frames,
            fresh_allocs: self.fresh_allocs - earlier.fresh_allocs,
            dirty_installs: self.dirty_installs - earlier.dirty_installs,
            flushed_pages: self.flushed_pages - earlier.flushed_pages,
            dirty_high_water: self.dirty_high_water,
            lock_acquisitions: self.lock_acquisitions - earlier.lock_acquisitions,
            lock_contended: self.lock_contended - earlier.lock_contended,
            shards: self.shards,
            capacity: self.capacity,
        }
    }

    /// Counter-wise sum of two caches' stats (e.g. every shard of a serve
    /// cluster): counters, stripes and capacity add, the dirty level is
    /// the higher of the two.
    pub fn merged(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            decoded_hits: self.decoded_hits + other.decoded_hits,
            decoded_misses: self.decoded_misses + other.decoded_misses,
            evictions: self.evictions + other.evictions,
            recycled_frames: self.recycled_frames + other.recycled_frames,
            fresh_allocs: self.fresh_allocs + other.fresh_allocs,
            dirty_installs: self.dirty_installs + other.dirty_installs,
            flushed_pages: self.flushed_pages + other.flushed_pages,
            dirty_high_water: self.dirty_high_water.max(other.dirty_high_water),
            lock_acquisitions: self.lock_acquisitions + other.lock_acquisitions,
            lock_contended: self.lock_contended + other.lock_contended,
            shards: self.shards + other.shards,
            capacity: self.capacity + other.capacity,
        }
    }
}

/// The process-wide sharded page cache. See the module docs.
pub struct SharedPageCache<'d> {
    disk: &'d Disk,
    shards: Box<[Shard]>,
    capacity: usize,
    /// Highest count [`dirty_pages`](Self::dirty_pages) has returned.
    dirty_high_water: AtomicUsize,
}

impl<'d> SharedPageCache<'d> {
    /// Creates a cache of `capacity` pages total, striped over `shards`
    /// locks (both clamped to at least 1). Each shard gets an equal slice
    /// of the capacity and evicts by CLOCK.
    pub fn with_shards(disk: &'d Disk, capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let capacity = capacity.max(1);
        let per_shard = (capacity / shards).max(1);
        let shards: Box<[Shard]> = (0..shards)
            .map(|_| Shard {
                inner: Mutex::new(ShardInner {
                    ring: ClockRing::new(per_shard),
                    counters: ShardCounters::default(),
                    dirty: 0,
                }),
                acquisitions: AtomicU64::new(0),
                contended: AtomicU64::new(0),
            })
            .collect();
        let capacity = per_shard * shards.len();
        Self {
            disk,
            shards,
            capacity,
            dirty_high_water: AtomicUsize::new(0),
        }
    }

    /// Creates a cache of `capacity` pages with [`DEFAULT_CACHE_SHARDS`].
    pub fn new(disk: &'d Disk, capacity: usize) -> Self {
        Self::with_shards(disk, capacity, DEFAULT_CACHE_SHARDS)
    }

    /// Shard count sized for `threads` concurrent readers: about two
    /// shards per worker, a power of two, at most 64.
    pub fn shards_for_threads(threads: usize) -> usize {
        (threads.max(1) * 2).next_power_of_two().min(64)
    }

    /// The underlying disk.
    pub fn disk(&self) -> &'d Disk {
        self.disk
    }

    /// Total frame capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of lock-striped shards the capacity is split over.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard(&self, id: PageId) -> &Shard {
        // Stripe by page id: consecutive pages (the common sequential
        // access pattern) hit different shard locks.
        &self.shards[(id.0 % self.shards.len() as u64) as usize]
    }

    /// True if `id` is resident right now. Touches neither the reference
    /// bit nor a counter, so asking does not change what gets evicted; with
    /// concurrent readers the answer can be stale by the time it is used.
    pub fn is_resident(&self, id: PageId) -> bool {
        self.shard(id).lock().ring.contains(id.0)
    }

    /// Number of frames pinned by a live [`PageRef`] right now.
    pub fn pinned_pages(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let mut guard = s.inner.lock();
                guard
                    .ring
                    .iter_mut()
                    .filter(|(_, f)| Arc::strong_count(&f.buf) > 1)
                    .count()
            })
            .sum()
    }

    /// Reads a page through the cache, returning a zero-copy pin guard.
    pub fn read(&self, id: PageId) -> PageRef {
        self.read_tracked(id).0
    }

    /// [`read`](Self::read) plus which tier answered — for handles that
    /// keep per-worker counters over a shared cache.
    pub fn read_tracked(&self, id: PageId) -> (PageRef, ReadOutcome) {
        let shard = self.shard(id);
        let mut guard = shard.lock();
        let ShardInner { ring, counters, .. } = &mut *guard;
        if let Some(f) = ring.get(id.0) {
            counters.hits += 1;
            return (
                PageRef {
                    buf: Arc::clone(&f.buf),
                },
                ReadOutcome::Hit,
            );
        }
        guard.counters.misses += 1;
        let f = Self::load_frame(self.disk, &mut guard, id);
        (
            PageRef {
                buf: Arc::clone(&f.buf),
            },
            ReadOutcome::Miss,
        )
    }

    /// Reads and decodes an element page through both tiers, returning the
    /// shared decoded records. The page tier counts the read like
    /// [`read_tracked`](Self::read_tracked); the decoded tier counts a hit
    /// when the frame already held the records and a miss when the decode
    /// ran.
    pub fn read_decoded(&self, codec: &ElementPageCodec, id: PageId) -> Arc<[SpatialElement]> {
        let shard = self.shard(id);
        let mut guard = shard.lock();
        let ShardInner { ring, counters, .. } = &mut *guard;
        let f = match ring.get(id.0) {
            Some(f) => {
                counters.hits += 1;
                f
            }
            None => {
                counters.misses += 1;
                Self::load_frame(self.disk, &mut guard, id)
            }
        };
        if let Some(decoded) = &f.decoded {
            let decoded = Arc::clone(decoded);
            guard.counters.decoded_hits += 1;
            return decoded;
        }
        let decoded: Arc<[SpatialElement]> = codec.view(&f.buf).iter().collect();
        f.decoded = Some(Arc::clone(&decoded));
        guard.counters.decoded_misses += 1;
        decoded
    }

    /// Miss path: claims a frame for `id` under the shard lock and fills
    /// its buffer from disk.
    fn load_frame<'r>(disk: &Disk, inner: &'r mut ShardInner, id: PageId) -> &'r mut SharedFrame {
        let f = inner.claim_frame(id, disk.page_size());
        let buf =
            Arc::get_mut(&mut f.buf).expect("unpinned frame buffer is uniquely owned under lock");
        disk.read_page(id, buf);
        f
    }

    /// Installs new bytes for page `id` into the cache's dirty tier
    /// without touching the disk. `bytes` must not exceed the page size;
    /// shorter data is zero-padded.
    ///
    /// `lsn` is the WAL record that logged these bytes; the frame stays
    /// dirty (never evicted, never written back) until a
    /// [`flush_dirty`](Self::flush_dirty) call whose durable LSN covers
    /// it. Writers using no log pass `lsn = 0`, which every flush covers.
    ///
    /// Concurrent readers are never torn: a pinned frame's buffer is not
    /// mutated in place — the frame's `Arc` is *replaced*, so live
    /// [`PageRef`]s keep the complete pre-write snapshot while new reads
    /// see the complete new bytes.
    pub fn write_page(&self, id: PageId, bytes: &[u8], lsn: u64) {
        let page_size = self.disk.page_size();
        assert!(
            bytes.len() <= page_size,
            "write of {} bytes exceeds page size {}",
            bytes.len(),
            page_size
        );
        let shard = self.shard(id);
        let mut guard = shard.lock();
        let inner = &mut *guard;
        inner.counters.dirty_installs += 1;
        let f = match inner.ring.find(id.0) {
            Some(i) => inner.ring.payload_mut(i),
            // Not resident: claim a frame. No disk read — the caller
            // provides the full new page image.
            None => inner.claim_frame(id, page_size),
        };
        match Arc::get_mut(&mut f.buf) {
            Some(buf) => {
                buf[..bytes.len()].copy_from_slice(bytes);
                buf[bytes.len()..].fill(0);
            }
            None => {
                // Pinned by live readers: replace the Arc so their
                // snapshot stays intact.
                let mut fresh = vec![0u8; page_size];
                fresh[..bytes.len()].copy_from_slice(bytes);
                f.buf = Arc::new(fresh);
            }
        }
        f.decoded = None;
        f.page_lsn = lsn;
        if !std::mem::replace(&mut f.dirty, true) {
            inner.dirty += 1;
        }
    }

    /// Writes back dirty frames whose `page_lsn` is at most `durable_lsn`
    /// (the WAL-before-data gate) and marks them clean: at most
    /// `max_pages` of them, the **least recently written** first (lowest
    /// `page_lsn` — a frame a burst keeps rewriting stays behind), each
    /// call's pages in ascending page order. Returns `(flushed, retained)`:
    /// retained frames are dirty pages the gate or the page budget kept
    /// in memory.
    ///
    /// Callers must only flush state whose transactions have committed
    /// (the cache has no undo path — this is a redo-only, no-steal
    /// design); the mutable index layers flush at batch boundaries, when
    /// the dirty tier has grown past its bound, and at checkpoints.
    pub fn flush_dirty_up_to(&self, durable_lsn: u64, max_pages: usize) -> (usize, usize) {
        let mut eligible: Vec<(u64, u64)> = Vec::new();
        let mut dirty = 0usize;
        for shard in self.shards.iter() {
            let mut guard = shard.inner.lock();
            dirty += guard.dirty;
            eligible.extend(
                guard
                    .ring
                    .iter_mut()
                    .filter(|(_, f)| f.dirty && f.page_lsn <= durable_lsn)
                    .map(|(page, f)| (f.page_lsn, page)),
            );
        }
        if eligible.len() > max_pages {
            eligible.sort_unstable();
            eligible.truncate(max_pages);
        }
        eligible.sort_unstable_by_key(|&(_, page)| page);
        let mut flushed = 0usize;
        for &(_, page) in &eligible {
            let mut guard = self.shard(PageId(page)).inner.lock();
            let inner = &mut *guard;
            // Looked up again under the lock: a writer may have replaced
            // the bytes since the scan, and the gate is about the bytes
            // that are written, not the ones that were seen.
            let Some(f) = inner.ring.peek_mut(page) else {
                continue;
            };
            if !f.dirty || f.page_lsn > durable_lsn {
                continue;
            }
            self.disk.write_page(PageId(page), &f.buf);
            f.dirty = false;
            inner.dirty -= 1;
            inner.counters.flushed_pages += 1;
            flushed += 1;
        }
        (flushed, dirty - flushed)
    }

    /// [`flush_dirty_up_to`](Self::flush_dirty_up_to) with no page budget.
    pub fn flush_dirty(&self, durable_lsn: u64) -> (usize, usize) {
        self.flush_dirty_up_to(durable_lsn, usize::MAX)
    }

    /// Number of dirty (unflushed) frames currently resident: the sum of
    /// the shards' counters. The write path asks once per batch;
    /// [`CacheStats::dirty_high_water`] is the highest answer given.
    pub fn dirty_pages(&self) -> usize {
        let dirty = self
            .shards
            .iter()
            .map(|s| {
                let mut guard = s.inner.lock();
                let dirty = guard.dirty;
                debug_assert_eq!(
                    dirty,
                    guard.ring.iter_mut().filter(|(_, f)| f.dirty).count(),
                    "shard dirty counter drifted from its frames"
                );
                dirty
            })
            .sum();
        self.dirty_high_water.fetch_max(dirty, Ordering::Relaxed);
        dirty
    }

    /// The resident frame of `id`, pinned, or `None` — without a disk
    /// read, a counter or a reference bit, so asking changes nothing. The
    /// logged write path diffs a page's new bytes against this.
    pub fn resident(&self, id: PageId) -> Option<PageRef> {
        let guard = self.shard(id).lock();
        guard.ring.peek(id.0).map(|f| PageRef {
            buf: Arc::clone(&f.buf),
        })
    }

    /// Aggregates all shard counters into one snapshot.
    pub fn stats(&self) -> CacheStats {
        let mut s = CacheStats {
            shards: self.shards.len(),
            capacity: self.capacity,
            dirty_high_water: self.dirty_high_water.load(Ordering::Relaxed) as u64,
            ..CacheStats::default()
        };
        for shard in self.shards.iter() {
            s.lock_acquisitions += shard.acquisitions.load(Ordering::Relaxed);
            s.lock_contended += shard.contended.load(Ordering::Relaxed);
            let inner = shard.inner.lock();
            let c = &inner.counters;
            s.hits += c.hits;
            s.misses += c.misses;
            s.decoded_hits += c.decoded_hits;
            s.decoded_misses += c.decoded_misses;
            s.evictions += c.evictions;
            s.recycled_frames += c.recycled_frames;
            s.fresh_allocs += c.fresh_allocs;
            s.dirty_installs += c.dirty_installs;
            s.flushed_pages += c.flushed_pages;
        }
        s
    }

    /// Drops every *clean* cached page and decoded entry (counters keep
    /// running). Dirty frames are retained — dropping them would lose
    /// writes that only exist in the cache; flush first if a full clear is
    /// wanted. Live [`PageRef`]s stay valid — their buffers are kept alive
    /// by the guards themselves.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.inner.lock().ring.retain(|f| f.dirty);
        }
    }

    /// Zeroes all counters (e.g. between comparable measurement phases).
    pub fn reset_stats(&self) {
        self.dirty_high_water.store(0, Ordering::Relaxed);
        for shard in self.shards.iter() {
            shard.acquisitions.store(0, Ordering::Relaxed);
            shard.contended.store(0, Ordering::Relaxed);
            let mut inner = shard.inner.lock();
            inner.counters = ShardCounters::default();
        }
    }
}

impl std::fmt::Debug for SharedPageCache<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedPageCache")
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.len())
            .finish()
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
    fn hit_avoids_disk_and_is_zero_copy() {
        let d = disk_with_pages(4, 32);
        let cache = SharedPageCache::with_shards(&d, 4, 2);
        let a = cache.read(PageId(1));
        let b = cache.read(PageId(1));
        assert_eq!(a[0], 1);
        // Both guards pin the same underlying buffer: zero-copy.
        assert!(std::ptr::eq(a.as_ptr(), b.as_ptr()));
        assert_eq!(d.stats().reads(), 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!(s.hit_fraction() > 0.4);
    }

    #[test]
    fn pinned_pages_survive_eviction_pressure() {
        let d = disk_with_pages(16, 32);
        // One shard, two frames: heavy pressure.
        let cache = SharedPageCache::with_shards(&d, 2, 1);
        let pinned = cache.read(PageId(3));
        for i in 0..16u64 {
            let r = cache.read(PageId(i));
            assert_eq!(r[0], i as u8);
        }
        // The pin held throughout: its bytes never changed under it.
        assert_eq!(pinned[0], 3);
        let s = cache.stats();
        assert!(s.evictions > 0, "pressure must evict: {s:?}");
        assert!(s.recycled_frames > 0, "misses must recycle: {s:?}");
    }

    #[test]
    fn steady_state_misses_recycle_not_allocate() {
        let d = disk_with_pages(8, 32);
        let cache = SharedPageCache::with_shards(&d, 2, 1);
        for round in 0..4 {
            for i in 0..8u64 {
                assert_eq!(cache.read(PageId(i))[0], i as u8, "round {round}");
            }
        }
        let s = cache.stats();
        // Two fills for the two frames; every later miss recycled.
        assert_eq!(s.fresh_allocs, 2);
        assert_eq!(s.misses, 32);
        assert_eq!(s.recycled_frames, 30);
    }

    #[test]
    fn hit_avoids_disk() {
        let d = disk_with_pages(4, 16);
        let cache = SharedPageCache::with_shards(&d, 2, 1);
        assert_eq!(cache.read(PageId(0))[0], 0);
        assert_eq!(cache.read(PageId(0))[0], 0);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(d.stats().reads(), 1);
    }

    #[test]
    fn clear_forces_reread() {
        let d = disk_with_pages(1, 16);
        let cache = SharedPageCache::with_shards(&d, 4, 1);
        cache.read(PageId(0));
        cache.clear();
        cache.read(PageId(0));
        assert_eq!(d.stats().reads(), 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        let d = disk_with_pages(3, 16);
        let cache = SharedPageCache::with_shards(&d, 2, 1);
        cache.read(PageId(0));
        cache.read(PageId(1));
        cache.read(PageId(0)); // refresh 0; second-chance victim is now 1
        cache.read(PageId(2)); // evicts 1
        assert_eq!(d.stats().reads(), 3);
        cache.read(PageId(0)); // still cached
        assert_eq!(d.stats().reads(), 3);
        cache.read(PageId(1)); // was evicted -> miss
        assert_eq!(d.stats().reads(), 4);
    }

    #[test]
    fn capacity_one_thrashes_correctly() {
        let d = disk_with_pages(2, 16);
        let cache = SharedPageCache::with_shards(&d, 1, 1);
        assert_eq!(cache.read(PageId(0))[0], 0);
        assert_eq!(cache.read(PageId(1))[0], 1);
        assert_eq!(cache.read(PageId(0))[0], 0);
        assert_eq!(d.stats().reads(), 3);
    }

    #[test]
    fn recycled_frames_return_fresh_bytes() {
        // Thrash a one-frame cache across distinct pages: every miss
        // recycles the same buffer, which must always end up holding the
        // newly requested page's bytes.
        let d = disk_with_pages(8, 16);
        let cache = SharedPageCache::with_shards(&d, 1, 1);
        for round in 0..3 {
            for i in 0..8u64 {
                assert_eq!(cache.read(PageId(i))[0], i as u8, "round {round}");
            }
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 24));
        assert_eq!((s.fresh_allocs, s.recycled_frames), (1, 23));
    }

    #[test]
    fn decoded_tier_skips_the_codec() {
        use tfm_geom::{Aabb, Point3};
        let codec = ElementPageCodec::new(512);
        let d = Disk::in_memory(512).with_model(DiskModel::free());
        let p = d.allocate();
        let elems = vec![
            SpatialElement::new(
                7,
                Aabb::new(Point3::new(0.0, 0.0, 0.0), Point3::new(1.0, 1.0, 1.0)),
            ),
            SpatialElement::new(
                9,
                Aabb::new(Point3::new(2.0, 2.0, 2.0), Point3::new(3.0, 3.0, 3.0)),
            ),
        ];
        d.write_page(p, &codec.encode(&elems));
        d.reset_stats();

        let cache = SharedPageCache::with_shards(&d, 4, 1);
        let first = cache.read_decoded(&codec, p);
        let s = cache.stats();
        assert_eq!((s.misses, s.decoded_misses), (1, 1));
        assert_eq!(first.as_ref(), elems.as_slice());
        let second = cache.read_decoded(&codec, p);
        // Same Arc: the decode ran exactly once.
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(d.stats().reads(), 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!((s.decoded_hits, s.decoded_misses), (1, 1));

        // A byte-level read of the same page hits the page tier.
        let (_, outcome) = cache.read_tracked(p);
        assert_eq!(outcome, ReadOutcome::Hit);
    }

    #[test]
    fn decoded_entries_die_with_their_frame() {
        use tfm_geom::{Aabb, Point3};
        let codec = ElementPageCodec::new(512);
        let d = Disk::in_memory(512).with_model(DiskModel::free());
        let first = d.allocate_contiguous(4);
        for i in 0..4u64 {
            let e = SpatialElement::new(
                i,
                Aabb::new(Point3::new(0.0, 0.0, 0.0), Point3::new(1.0, 1.0, 1.0)),
            );
            d.write_page(PageId(first.0 + i), &codec.encode(&[e]));
        }
        let cache = SharedPageCache::with_shards(&d, 1, 1);
        assert_eq!(cache.read_decoded(&codec, PageId(0))[0].id, 0);
        // Evict page 0, then return to it: the decode must run again.
        assert_eq!(cache.read_decoded(&codec, PageId(1))[0].id, 1);
        let before = cache.stats();
        cache.read_decoded(&codec, PageId(0));
        let delta = cache.stats().delta_since(&before);
        assert_eq!((delta.misses, delta.decoded_misses), (1, 1));
    }

    #[test]
    fn clear_drops_residency_but_guards_stay_valid() {
        let d = disk_with_pages(2, 32);
        let cache = SharedPageCache::with_shards(&d, 4, 2);
        let guard = cache.read(PageId(1));
        cache.clear();
        assert_eq!(guard[0], 1, "live guards outlive clear()");
        cache.read(PageId(1));
        assert_eq!(d.stats().reads(), 2, "clear() forces a re-read");
    }

    #[test]
    fn stats_reset_and_delta() {
        let d = disk_with_pages(4, 32);
        let cache = SharedPageCache::new(&d, 16);
        cache.read(PageId(0));
        cache.read(PageId(0));
        let before = cache.stats();
        cache.read(PageId(1));
        let delta = cache.stats().delta_since(&before);
        assert_eq!((delta.hits, delta.misses), (0, 1));
        assert_eq!(delta.shards, DEFAULT_CACHE_SHARDS);
        cache.reset_stats();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.lock_acquisitions), (0, 0, 0));
    }

    #[test]
    fn concurrent_readers_agree_with_the_disk() {
        let d = disk_with_pages(64, 32);
        let cache = SharedPageCache::with_shards(&d, 8, 4);
        std::thread::scope(|s| {
            for t in 0..8 {
                let cache = &cache;
                s.spawn(move || {
                    for round in 0..4u64 {
                        for i in 0..64u64 {
                            let p = (i * 7 + t + round) % 64;
                            let r = cache.read(PageId(p));
                            assert_eq!(r[0], p as u8);
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 8 * 4 * 64);
        assert_eq!(s.misses, d.stats().reads());
    }

    #[test]
    fn no_page_is_fetched_twice_however_readers_interleave() {
        // Eight readers over overlapping page sets, each starting at its own
        // offset and stepping by its own stride; the cache holds every page.
        // A miss fills its frame under the shard lock, so a racing reader of
        // the same page waits and hits: each page reaches the disk once.
        const PAGES: u64 = 96;
        let d = disk_with_pages(PAGES, 32);
        let cache = SharedPageCache::with_shards(&d, PAGES as usize, 4);
        // All eight start together, so their first misses race.
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let (cache, start) = (&cache, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..PAGES {
                        let id = (t * 11 + i * (2 * t + 1)) % PAGES;
                        assert_eq!(cache.read(PageId(id))[0], id as u8);
                    }
                });
            }
        });
        assert_eq!(d.stats().reads(), PAGES);
        let s = cache.stats();
        assert_eq!((s.misses, s.hits), (PAGES, 8 * PAGES - PAGES));
    }

    #[test]
    fn shards_for_threads_is_sane() {
        assert_eq!(SharedPageCache::shards_for_threads(0), 2);
        assert_eq!(SharedPageCache::shards_for_threads(1), 2);
        assert_eq!(SharedPageCache::shards_for_threads(4), 8);
        assert_eq!(SharedPageCache::shards_for_threads(1000), 64);
    }

    #[test]
    fn cache_writes_are_visible_before_any_flush() {
        let d = disk_with_pages(4, 32);
        let cache = SharedPageCache::with_shards(&d, 4, 2);
        cache.write_page(PageId(1), &[0xAB; 32], 7);
        assert_eq!(cache.read(PageId(1))[0], 0xAB, "read sees the cache write");
        // The disk still holds the old bytes: nothing was flushed.
        assert_eq!(d.read_page_vec(PageId(1))[0], 1);
        assert_eq!(cache.dirty_pages(), 1);
        let s = cache.stats();
        assert_eq!((s.dirty_installs, s.flushed_pages), (1, 0));
    }

    #[test]
    fn flush_gate_holds_back_frames_past_the_durable_lsn() {
        let d = disk_with_pages(4, 32);
        let cache = SharedPageCache::with_shards(&d, 4, 2);
        cache.write_page(PageId(0), &[0x11; 32], 5);
        cache.write_page(PageId(1), &[0x22; 32], 9);
        // Only the LSN-5 write may reach the disk at durable LSN 6.
        let (flushed, retained) = cache.flush_dirty(6);
        assert_eq!((flushed, retained), (1, 1));
        assert_eq!(d.read_page_vec(PageId(0))[0], 0x11);
        assert_eq!(
            d.read_page_vec(PageId(1))[0],
            1,
            "gated write stays in cache"
        );
        // Once the log is durable past 9, the second frame flushes too.
        let (flushed, retained) = cache.flush_dirty(9);
        assert_eq!((flushed, retained), (1, 0));
        assert_eq!(d.read_page_vec(PageId(1))[0], 0x22);
        assert_eq!(cache.dirty_pages(), 0);
        assert!(cache.stats().flushed_pages == 2);
    }

    #[test]
    fn dirty_frames_survive_eviction_pressure_and_clear() {
        let d = disk_with_pages(16, 32);
        // One shard, two frames: heavy pressure.
        let cache = SharedPageCache::with_shards(&d, 2, 1);
        cache.write_page(PageId(3), &[0x33; 32], 1);
        for i in 0..16u64 {
            let _ = cache.read(PageId(i));
        }
        // The dirty frame was never evicted: its bytes are still the write.
        assert_eq!(cache.read(PageId(3))[0], 0x33);
        cache.clear();
        assert_eq!(cache.dirty_pages(), 1, "clear() keeps dirty frames");
        assert_eq!(cache.read(PageId(3))[0], 0x33);
        // After a covering flush the frame is clean and clear() drops it.
        cache.flush_dirty(u64::MAX);
        cache.clear();
        assert_eq!(cache.dirty_pages(), 0);
        assert_eq!(d.read_page_vec(PageId(3))[0], 0x33);
    }

    #[test]
    fn pinned_readers_keep_their_snapshot_across_writes() {
        let d = disk_with_pages(4, 32);
        let cache = SharedPageCache::with_shards(&d, 4, 2);
        let before = cache.read(PageId(2));
        assert_eq!(before[0], 2);
        cache.write_page(PageId(2), &[0x77; 32], 3);
        // The pinned guard still sees the complete pre-write page while
        // new readers see the complete new page: no torn reads.
        assert_eq!(before[0], 2);
        assert_eq!(cache.read(PageId(2))[0], 0x77);
    }

    #[test]
    fn write_invalidates_the_decoded_tier() {
        use tfm_geom::{Aabb, Point3};
        let codec = ElementPageCodec::new(512);
        let d = Disk::in_memory(512).with_model(DiskModel::free());
        let p = d.allocate();
        let one = |id| {
            SpatialElement::new(
                id,
                Aabb::new(Point3::new(0.0, 0.0, 0.0), Point3::new(1.0, 1.0, 1.0)),
            )
        };
        d.write_page(p, &codec.encode(&[one(7)]));
        let cache = SharedPageCache::with_shards(&d, 4, 1);
        assert_eq!(cache.read_decoded(&codec, p)[0].id, 7);
        cache.write_page(p, &codec.encode(&[one(8), one(9)]), 1);
        let decoded = cache.read_decoded(&codec, p);
        assert_eq!(decoded.len(), 2, "stale decode was dropped");
        assert_eq!(decoded[0].id, 8);
    }

    #[test]
    fn flush_page_budget_limits_writeback() {
        let d = disk_with_pages(8, 32);
        let cache = SharedPageCache::with_shards(&d, 8, 2);
        for i in 0..6u64 {
            cache.write_page(PageId(i), &[0x40 + i as u8; 32], 1);
        }
        let (flushed, retained) = cache.flush_dirty_up_to(u64::MAX, 2);
        assert_eq!((flushed, retained), (2, 4));
        assert_eq!(cache.dirty_pages(), 4);
        let (flushed, _) = cache.flush_dirty(u64::MAX);
        assert_eq!(flushed, 4);
        for i in 0..6u64 {
            assert_eq!(d.read_page_vec(PageId(i))[0], 0x40 + i as u8);
        }
    }

    #[test]
    fn a_budgeted_flush_takes_the_least_recently_written_frames() {
        let d = disk_with_pages(8, 32);
        let cache = SharedPageCache::with_shards(&d, 8, 2);
        // Written in the order 5, 0, 3, 6, then 0 again: page 0's frame
        // now carries the newest LSN.
        for (lsn, page) in [(1, 5u64), (2, 0), (3, 3), (4, 6), (5, 0)] {
            cache.write_page(PageId(page), &[0x80 + page as u8; 32], lsn);
        }
        assert_eq!(cache.dirty_pages(), 4, "a rewrite dirties nothing new");
        // Budget 2 of the 3 frames the gate lets through at LSN 4: the
        // oldest two, pages 5 and 3 — not page 0, rewritten since.
        assert_eq!(cache.flush_dirty_up_to(4, 2), (2, 2));
        let on_disk = |p: u64| d.read_page_vec(PageId(p))[0] == 0x80 + p as u8;
        assert!(on_disk(5) && on_disk(3) && !on_disk(6) && !on_disk(0));
        assert_eq!(cache.dirty_pages(), 2);
        for (lsn, page) in [(6, 7u64), (7, 1), (8, 4)] {
            cache.write_page(PageId(page), &[0x80 + page as u8; 32], lsn);
        }
        assert_eq!(cache.flush_dirty(u64::MAX), (5, 0));
        assert!((0..8).filter(|&p| p != 2).all(on_disk));
        let s = cache.stats();
        assert_eq!((s.flushed_pages, s.dirty_high_water), (7, 4));
        assert_eq!(cache.dirty_pages(), 0);
        let reg = tfm_obs::MetricsRegistry::new();
        reg.set_enabled(true);
        s.publish_shared_extras(&reg);
        assert_eq!(reg.gauge(tfm_obs::names::CACHE_DIRTY_HIGH_WATER).get(), 4);
    }

    #[test]
    fn resident_pins_the_frame_without_reading_or_counting() {
        let d = disk_with_pages(4, 32);
        let cache = SharedPageCache::with_shards(&d, 4, 2);
        assert!(cache.resident(PageId(1)).is_none(), "no read is made");
        assert_eq!(d.stats().reads(), 0);
        cache.read(PageId(1));
        let before = cache.stats();
        let pin = cache.resident(PageId(1)).expect("resident after a read");
        assert_eq!(pin[0], 1);
        let after = cache.stats();
        assert_eq!((after.hits, after.misses), (before.hits, before.misses));
        // It is a pin like any other: a write while it is held leaves it
        // the old bytes.
        cache.write_page(PageId(1), &[9; 32], 1);
        assert_eq!((pin[0], cache.read(PageId(1))[0]), (1, 9));
    }
}
