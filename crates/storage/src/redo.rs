//! The write-path seam: redo logging and logged page writes.
//!
//! The mutable index layers (B+-tree insert/delete, TRANSFORMERS unit
//! mutation) never talk to a concrete WAL — they write through
//! [`PageWrites`], which pairs the read abstraction ([`PageReads`]) with a
//! `write`/`allocate` half, and the durability contract lives behind
//! [`RedoLog`]:
//!
//! * every page write is first appended to the log, which returns the
//!   record's LSN: handed the page's resident bytes and its new ones
//!   ([`RedoLog::log_change`]), the log keeps the page's first record
//!   since it was opened or checkpointed a complete after-image and may
//!   record later ones as the bytes that differ. Either way redo is
//!   physical — a record carries bytes, not an operation — so replay is
//!   idempotent;
//! * the new bytes then land in the [`SharedPageCache`] dirty tier stamped
//!   with that LSN ([`SharedPageCache::write_page`]);
//! * dirty frames only reach the [`Disk`] through
//!   [`SharedPageCache::flush_dirty`], whose gate compares each frame's
//!   LSN against [`RedoLog::durable_lsn`] — the WAL-before-data ordering
//!   invariant in one comparison. *When* they are flushed is the write
//!   path's policy (`transformers::MutableTransformers`): write-back once
//!   the dirty tier is half the cache, and everything at a checkpoint.
//!
//! `tfm-wal` provides the real segmented, group-committing implementation
//! of [`RedoLog`]; [`NoopLog`] here is the no-durability stand-in (every
//! LSN is instantly "durable") so the mutable layers can be built, tested
//! and benchmarked without a log directory. This split keeps the
//! dependency graph acyclic: storage defines the traits, `tfm-wal` depends
//! on storage, and the index crates depend only on storage.

use crate::cache::{PageReads, PageSlice, PoolCounters};
use crate::{CacheHandle, Disk, PageId, SharedPageCache};
use std::sync::atomic::{AtomicU64, Ordering};

/// A redo-only write-ahead log: append page records, commit, ask what is
/// durable.
///
/// Contract: [`log_page`](RedoLog::log_page) and
/// [`log_change`](RedoLog::log_change) return a strictly monotonically
/// increasing LSN per record; [`commit`](RedoLog::commit)
/// returns only once the transaction's records (and the commit record)
/// are durable, and its return value — like
/// [`durable_lsn`](RedoLog::durable_lsn) — is a lower bound on the LSNs
/// that are on stable storage. Implementations are shared by reference
/// across writer threads.
pub trait RedoLog: Send + Sync {
    /// Opens a new transaction and returns its id.
    fn begin(&self) -> u64;

    /// Appends a full-page after-image for `page` under transaction
    /// `txn`; returns the record's LSN. `image` must be exactly one page.
    fn log_page(&self, txn: u64, page: PageId, image: &[u8]) -> u64;

    /// Appends a record that takes `page` from `before` — the bytes every
    /// earlier record of the page adds up to, i.e. what the cache holds —
    /// to `after`, both exactly one page; returns the record's LSN. A log
    /// may store the bytes that differ when replay is certain to have
    /// `before` in hand, and must store `after` whole otherwise. The
    /// default stores `after` whole.
    fn log_change(&self, txn: u64, page: PageId, before: &[u8], after: &[u8]) -> u64 {
        let _ = before;
        self.log_page(txn, page, after)
    }

    /// Appends a commit record for `txn` and makes the transaction
    /// durable; returns the durable LSN (covering at least this commit).
    fn commit(&self, txn: u64) -> u64;

    /// Highest LSN known to be on stable storage.
    fn durable_lsn(&self) -> u64;

    /// Forces everything appended so far to stable storage and returns
    /// the resulting durable LSN.
    fn sync(&self) -> u64;

    /// Tells the log that every page it has a record of is on the data
    /// disk and synced, so the records are no longer needed: a log with
    /// storage behind it drops them here. Callable only with no
    /// transaction open. The default keeps nothing, so drops nothing.
    fn checkpoint(&self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The no-durability [`RedoLog`]: LSNs are handed out and instantly
/// "durable", nothing is written anywhere. In-memory mutable indexes use
/// this — the flush gate always passes, crash recovery is moot.
#[derive(Debug, Default)]
pub struct NoopLog {
    next_lsn: AtomicU64,
    next_txn: AtomicU64,
}

impl NoopLog {
    /// Creates a fresh no-op log (LSNs start at 1).
    pub fn new() -> Self {
        Self::default()
    }
}

impl RedoLog for NoopLog {
    fn begin(&self) -> u64 {
        self.next_txn.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn log_page(&self, _txn: u64, _page: PageId, _image: &[u8]) -> u64 {
        self.next_lsn.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn commit(&self, _txn: u64) -> u64 {
        self.durable_lsn()
    }

    fn durable_lsn(&self) -> u64 {
        self.next_lsn.load(Ordering::Relaxed)
    }

    fn sync(&self) -> u64 {
        self.durable_lsn()
    }
}

/// [`PageReads`] plus the write half: the handle the mutable index layers
/// are generic over.
///
/// `write` must make the new bytes visible to subsequent reads through
/// *this and every concurrent* handle of the same dataset (the logged
/// implementation routes through the shared cache), and `allocate` hands
/// out fresh page ids. Like reads, handles are `&mut self` per owner;
/// cross-writer coordination (latching) lives above this trait.
pub trait PageWrites: PageReads {
    /// Writes `bytes` (at most one page; shorter data is zero-padded) to
    /// page `id`.
    fn write(&mut self, id: PageId, bytes: &[u8]);

    /// Allocates a fresh page and returns its id.
    fn allocate(&mut self) -> PageId;

    /// The page size of the underlying disk.
    fn page_size(&self) -> usize;
}

/// Direct write-through, no cache, no log: for standalone structure tests
/// and initial (pre-WAL) image construction. Reads pair with the existing
/// uncached `PageReads for &Disk`.
impl PageWrites for &Disk {
    fn write(&mut self, id: PageId, bytes: &[u8]) {
        self.write_page(id, bytes);
    }

    fn allocate(&mut self) -> PageId {
        Disk::allocate(self)
    }

    fn page_size(&self) -> usize {
        Disk::page_size(self)
    }
}

/// The logged write handle: reads through the [`SharedPageCache`] (seeing
/// dirty frames), writes via log-then-cache under one transaction.
///
/// One handle per writer per transaction: create it with the transaction
/// id from [`RedoLog::begin`], perform the mutation, then commit through
/// the log. The handle never flushes — that is the batch boundary's job.
/// A write of a page that is not resident (a fresh allocation, or a frame
/// evicted since it was last read) is logged whole; no disk read is made
/// to diff it.
pub struct LoggedPages<'l, 'c, 'd> {
    log: &'l dyn RedoLog,
    reads: CacheHandle<'c, 'd>,
    txn: u64,
    scratch: Vec<u8>,
}

impl<'l, 'c, 'd> LoggedPages<'l, 'c, 'd> {
    /// Creates a write handle for transaction `txn`.
    pub fn new(log: &'l dyn RedoLog, cache: &'c SharedPageCache<'d>, txn: u64) -> Self {
        Self {
            log,
            reads: CacheHandle::shared(cache),
            txn,
            scratch: Vec::new(),
        }
    }

    /// The transaction this handle writes under.
    pub fn txn(&self) -> u64 {
        self.txn
    }

    /// The cache this handle reads and writes through.
    pub fn cache(&self) -> &'c SharedPageCache<'d> {
        self.reads.cache()
    }
}

impl PageReads for LoggedPages<'_, '_, '_> {
    fn page(&mut self, id: PageId) -> PageSlice {
        self.reads.page(id)
    }

    fn counters(&self) -> PoolCounters {
        self.reads.counters()
    }
}

impl PageWrites for LoggedPages<'_, '_, '_> {
    fn write(&mut self, id: PageId, bytes: &[u8]) {
        let cache = self.reads.cache();
        let page_size = cache.disk().page_size();
        assert!(
            bytes.len() <= page_size,
            "write of {} bytes exceeds page size {}",
            bytes.len(),
            page_size
        );
        // Log the page (zero-padded) against the bytes the cache holds,
        // then install it in the dirty tier stamped with the LSN. The pin
        // on the old bytes ends before the install, which then reuses the
        // frame's buffer.
        self.scratch.clear();
        self.scratch.extend_from_slice(bytes);
        self.scratch.resize(page_size, 0);
        let lsn = match cache.resident(id) {
            Some(before) => self.log.log_change(self.txn, id, &before, &self.scratch),
            None => self.log.log_page(self.txn, id, &self.scratch),
        };
        cache.write_page(id, &self.scratch, lsn);
    }

    fn allocate(&mut self) -> PageId {
        self.reads.cache().disk().allocate()
    }

    fn page_size(&self) -> usize {
        self.reads.cache().disk().page_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiskModel;

    #[test]
    fn noop_log_lsns_are_monotonic_and_instantly_durable() {
        let log = NoopLog::new();
        let t = log.begin();
        let a = log.log_page(t, PageId(0), &[0u8; 8]);
        let b = log.log_page(t, PageId(1), &[0u8; 8]);
        assert!(b > a);
        assert!(log.durable_lsn() >= b, "no-op log is always durable");
        assert!(log.commit(t) >= b);
        assert_ne!(log.begin(), t);
    }

    #[test]
    fn logged_writes_go_through_cache_and_flush_after_commit() {
        let d = Disk::in_memory(64).with_model(DiskModel::free());
        let p = d.allocate();
        d.write_page(p, &[1u8; 64]);
        let cache = SharedPageCache::with_shards(&d, 4, 2);
        let log = NoopLog::new();

        let txn = log.begin();
        let mut h = LoggedPages::new(&log, &cache, txn);
        assert_eq!(h.page(p)[0], 1);
        h.write(p, &[2u8; 16]); // short write: zero-padded
        assert_eq!(h.page(p)[0], 2, "handle reads its own write");
        assert_eq!(h.page(p)[20], 0, "tail was padded");
        assert_eq!(d.read_page_vec(p)[0], 1, "disk untouched before flush");
        log.commit(txn);

        let (flushed, retained) = cache.flush_dirty(log.durable_lsn());
        assert_eq!((flushed, retained), (1, 0));
        assert_eq!(d.read_page_vec(p)[0], 2);
    }

    #[test]
    fn direct_disk_writes_are_a_page_writes_impl() {
        let d = Disk::in_memory(32).with_model(DiskModel::free());
        let mut h: &Disk = &d;
        let p = PageWrites::allocate(&mut h);
        h.write(p, &[9u8; 4]);
        assert_eq!(h.page(p)[0], 9);
        assert_eq!(PageWrites::page_size(&h), 32);
    }

    /// One call at the log seam: `before` is `None` for `log_page`.
    type Logged = (PageId, Option<Vec<u8>>, Vec<u8>);

    /// Records what the write handle hands the log.
    #[derive(Default)]
    struct Seam {
        inner: NoopLog,
        calls: std::sync::Mutex<Vec<Logged>>,
    }

    impl RedoLog for Seam {
        fn begin(&self) -> u64 {
            self.inner.begin()
        }
        fn log_page(&self, txn: u64, page: PageId, image: &[u8]) -> u64 {
            let mut calls = self.calls.lock().unwrap();
            calls.push((page, None, image.to_vec()));
            self.inner.log_page(txn, page, image)
        }
        fn log_change(&self, txn: u64, page: PageId, before: &[u8], after: &[u8]) -> u64 {
            let mut calls = self.calls.lock().unwrap();
            calls.push((page, Some(before.to_vec()), after.to_vec()));
            self.inner.log_page(txn, page, after)
        }
        fn commit(&self, txn: u64) -> u64 {
            self.inner.commit(txn)
        }
        fn durable_lsn(&self) -> u64 {
            self.inner.durable_lsn()
        }
        fn sync(&self) -> u64 {
            self.inner.sync()
        }
    }

    #[test]
    fn a_write_is_logged_against_the_resident_bytes_or_whole() {
        let d = Disk::in_memory(16).with_model(DiskModel::free());
        let first = d.allocate_contiguous(2);
        let (read, fresh) = (first, PageId(first.0 + 1));
        d.write_page(read, &[1u8; 16]);
        let cache = SharedPageCache::with_shards(&d, 4, 1);
        let log = Seam::default();
        let mut h = LoggedPages::new(&log, &cache, log.begin());

        // Not resident: logged whole, and no disk read is made to diff it.
        h.write(fresh, &[7u8; 4]);
        assert_eq!(d.stats().reads(), 0);
        // Resident (read first, as every index mutation does): logged
        // against the bytes the cache holds, then against its own write.
        assert_eq!(h.page(read)[0], 1);
        h.write(read, &[2u8; 16]);
        h.write(read, &[3u8; 8]);
        let calls = log.calls.lock().unwrap();
        let padded = |head: &[u8]| {
            let mut p = head.to_vec();
            p.resize(16, 0);
            p
        };
        assert_eq!(
            *calls,
            [
                (fresh, None, padded(&[7; 4])),
                (read, Some(vec![1; 16]), vec![2; 16]),
                (read, Some(vec![2; 16]), padded(&[3; 8])),
            ]
        );
        // The pin on `before` ended with the call: the install reused the
        // frame's buffer instead of replacing it.
        assert_eq!(cache.stats().fresh_allocs, 2);
    }

    #[test]
    fn log_change_defaults_to_the_full_image_and_checkpoint_to_nothing() {
        let log = NoopLog::new();
        let t = log.begin();
        let a = log.log_page(t, PageId(0), &[0u8; 8]);
        let b = log.log_change(t, PageId(0), &[0u8; 8], &[1u8; 8]);
        assert!(b > a);
        log.checkpoint().unwrap();
    }
}
