//! The page-addressed storage device: accounting over a [`PageStore`].

use crate::store::{FileStore, MemStore, PageStore, StoreBackend};
use crate::{DiskModel, IoStats, IoStatsSnapshot, PageId, DEFAULT_PAGE_SIZE};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which backend a [`Disk`] stores its pages in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskBackendKind {
    /// Pages live in a growable memory buffer (default; deterministic).
    Memory,
    /// Pages live in a real file accessed with positional I/O.
    File,
}

/// Jump from the head's expected position (`prev + 1`) to the accessed
/// page: `(forward, gap)`. Gap 0 = sequential. A cold head (no previous
/// access) is charged a full-span backward jump.
fn jump_from(prev: u64, id: u64) -> (bool, u64) {
    if prev == PageId::NONE {
        return (false, u64::MAX);
    }
    let expected = prev.wrapping_add(1);
    (id >= expected, expected.abs_diff(id))
}

/// A page-addressed storage device with I/O accounting.
///
/// All datasets and indexes of the reproduction live on `Disk`s. Every page
/// read/write is counted, classified sequential vs random, and costed with
/// the attached [`DiskModel`]; experiment harnesses read the resulting
/// [`IoStatsSnapshot`] to report the "I/O" component of join time exactly
/// like the paper's execution-time breakdowns (Fig. 11, 12, 14).
///
/// The bytes themselves live in a [`PageStore`]: [`MemStore`] (default) or
/// a real-file [`FileStore`]. The accounting layer is identical for both,
/// so a run's page counts, sequential/random classification and simulated
/// device time do not depend on the backend — the model stays the
/// determinism oracle while the file backend adds real wall-clock I/O.
///
/// Reads take `&self` (statistics are internally synchronized), so index
/// structures can share a disk immutably during the join phase.
pub struct Disk {
    page_size: usize,
    store: Box<dyn PageStore>,
    model: DiskModel,
    stats: IoStats,
    next_page: AtomicU64,
    last_read: AtomicU64,
    last_write: AtomicU64,
}

impl Disk {
    /// Creates a disk over an explicit [`PageStore`].
    pub fn with_store(store: Box<dyn PageStore>, page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be positive");
        Self {
            page_size,
            store,
            model: DiskModel::default(),
            stats: IoStats::default(),
            next_page: AtomicU64::new(0),
            last_read: AtomicU64::new(PageId::NONE),
            last_write: AtomicU64::new(PageId::NONE),
        }
    }

    /// Creates an in-memory disk with the given page size.
    pub fn in_memory(page_size: usize) -> Self {
        Self::with_store(Box::new(MemStore::new()), page_size)
    }

    /// Creates an in-memory disk with the default 8 KiB page size.
    pub fn default_in_memory() -> Self {
        Self::in_memory(DEFAULT_PAGE_SIZE)
    }

    /// Creates (or truncates) a file-backed disk at `path`.
    pub fn file<P: AsRef<Path>>(path: P, page_size: usize) -> io::Result<Self> {
        Ok(Self::with_store(
            Box::new(FileStore::create(path, page_size)?),
            page_size,
        ))
    }

    /// Opens an existing file image at `path`; its whole pages count as
    /// already allocated.
    pub fn open_file<P: AsRef<Path>>(path: P, page_size: usize) -> io::Result<Self> {
        let store = FileStore::open(path, page_size)?;
        let pages = store.pages();
        let disk = Self::with_store(Box::new(store), page_size);
        disk.next_page.store(pages, Ordering::Relaxed);
        Ok(disk)
    }

    /// Opens an existing checksummed file image (with its `.sums` sidecar,
    /// backfilled if missing); its whole pages count as already allocated.
    pub fn open_file_checksummed<P: AsRef<Path>>(path: P, page_size: usize) -> io::Result<Self> {
        let store = FileStore::open_checksummed(path, page_size)?;
        let pages = store.pages();
        let disk = Self::with_store(Box::new(store), page_size);
        disk.next_page.store(pages, Ordering::Relaxed);
        Ok(disk)
    }

    /// Creates a disk for `backend`: in-memory, or a file image named
    /// `<tag>.pages` under the backend's directory (created as needed).
    pub fn for_backend(backend: &StoreBackend, page_size: usize, tag: &str) -> io::Result<Self> {
        match backend {
            StoreBackend::Mem => Ok(Self::in_memory(page_size)),
            StoreBackend::File(dir) => {
                std::fs::create_dir_all(dir)?;
                Self::file(dir.join(format!("{tag}.pages")), page_size)
            }
            StoreBackend::FileChecksummed(dir) => {
                std::fs::create_dir_all(dir)?;
                Ok(Self::with_store(
                    Box::new(FileStore::create_checksummed(
                        dir.join(format!("{tag}.pages")),
                        page_size,
                    )?),
                    page_size,
                ))
            }
        }
    }

    /// Replaces the cost model (builder style).
    pub fn with_model(mut self, model: DiskModel) -> Self {
        self.model = model;
        self
    }

    /// The configured page size in bytes.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The cost model in effect.
    #[inline]
    pub fn model(&self) -> DiskModel {
        self.model
    }

    /// Which backend this disk uses.
    pub fn backend_kind(&self) -> DiskBackendKind {
        self.store.kind()
    }

    /// Bytes currently held by the backing store (the written extent —
    /// the size of the file image for file-backed disks).
    pub fn store_len(&self) -> u64 {
        self.store.len()
    }

    /// Number of pages allocated so far.
    pub fn allocated_pages(&self) -> u64 {
        self.next_page.load(Ordering::Relaxed)
    }

    /// Allocates one fresh page and returns its id.
    pub fn allocate(&self) -> PageId {
        PageId(self.next_page.fetch_add(1, Ordering::Relaxed))
    }

    /// Allocates `n` physically contiguous pages and returns the first id.
    ///
    /// Contiguity matters: sequentially reading a contiguously written
    /// dataset is charged sequential-transfer cost only.
    pub fn allocate_contiguous(&self, n: u64) -> PageId {
        PageId(self.next_page.fetch_add(n, Ordering::Relaxed))
    }

    /// Ensures the allocation watermark covers at least `pages` pages.
    ///
    /// WAL recovery uses this: replayed records may address pages that were
    /// allocated (and logged) but never flushed before the crash, so they
    /// lie past the reopened image's extent.
    pub fn ensure_allocated(&self, pages: u64) {
        self.next_page.fetch_max(pages, Ordering::Relaxed);
    }

    /// Forces all written pages to durable media (fsync for file-backed
    /// disks; a no-op in memory).
    pub fn sync(&self) -> io::Result<()> {
        self.store.sync()
    }

    /// Writes `data` to page `id`. `data` must not exceed the page size;
    /// shorter data is zero-padded to a full page.
    ///
    /// # Panics
    /// Panics if `data.len() > page_size`, the page was never allocated,
    /// or the backing store fails.
    pub fn write_page(&self, id: PageId, data: &[u8]) {
        assert!(
            data.len() <= self.page_size,
            "write of {} bytes exceeds page size {}",
            data.len(),
            self.page_size
        );
        let written = if data.len() == self.page_size {
            self.write_run(id, data)
        } else {
            // Zero-pad the tail so re-writes of shorter data do not leak.
            let mut page = vec![0u8; self.page_size];
            page[..data.len()].copy_from_slice(data);
            self.write_run(id, &page)
        };
        // A failed write still panics here and in the bulk load's packer
        // until their callers can carry an error (ROADMAP item 1, slice B:
        // fallible writes); recovery already returns it.
        written.unwrap_or_else(|e| panic!("page write failed ({id}): {e}"));
    }

    /// Writes `pages`, a whole number of full pages, to the contiguous run
    /// of pages that starts at `first`, in one store call. The accounting
    /// is that of [`write_page`](Self::write_page) on each page in order:
    /// the first page is classified and costed by its jump from the last
    /// page written, each later one is a sequential write.
    ///
    /// # Errors
    /// The backing store's error when it fails to write the run (part of
    /// it may have been written; the statistics count the whole run).
    ///
    /// # Panics
    /// Panics if `pages.len()` is not a multiple of the page size or the
    /// run reaches past the allocated pages.
    pub fn write_run(&self, first: PageId, pages: &[u8]) -> io::Result<()> {
        assert!(
            pages.len().is_multiple_of(self.page_size),
            "run of {} bytes is not a whole number of {}-byte pages",
            pages.len(),
            self.page_size
        );
        let count = (pages.len() / self.page_size) as u64;
        if count == 0 {
            return Ok(());
        }
        let last = first.0 + count - 1;
        assert!(
            last < self.allocated_pages(),
            "write to unallocated page {}",
            PageId(last)
        );
        let prev = self.last_write.swap(last, Ordering::Relaxed);
        let (forward, gap) = jump_from(prev, first.0);
        self.stats
            .record_write(gap == 0, self.model.cost_for_jump(forward, gap));
        self.stats
            .record_seq_writes(count - 1, self.model.cost_for_jump(true, 0));
        self.store
            .write_pages(first.0 * self.page_size as u64, pages, self.page_size)
    }

    /// Reads page `id` into `buf` (which must be exactly one page long).
    ///
    /// # Panics
    /// Panics if `buf.len() != page_size`, the page was never allocated,
    /// or the backing store fails (e.g. a torn page in a truncated file
    /// image).
    pub fn read_page(&self, id: PageId, buf: &mut [u8]) {
        assert_eq!(
            buf.len(),
            self.page_size,
            "read buffer must be exactly one page"
        );
        assert!(
            id.0 < self.allocated_pages(),
            "read of unallocated page {id}"
        );
        let prev = self.last_read.swap(id.0, Ordering::Relaxed);
        let (forward, gap) = jump_from(prev, id.0);
        let cost = self.model.cost_for_jump(forward, gap);
        self.stats.record_read(gap == 0, cost);

        let offset = id.0 * self.page_size as u64;
        self.store
            .read_page(offset, buf)
            .unwrap_or_else(|e| panic!("page read failed ({id}): {e}"));
    }

    /// Where the model's head is: the page the last read left it on, or
    /// `None` before the first read and after
    /// [`reset_stats`](Disk::reset_stats). Every reader of the disk moves
    /// this one head, whichever thread it runs on.
    pub fn head(&self) -> Option<PageId> {
        let last = self.last_read.load(Ordering::Relaxed);
        (last != PageId::NONE).then_some(PageId(last))
    }

    /// Convenience: reads page `id` into a fresh buffer.
    pub fn read_page_vec(&self, id: PageId) -> Vec<u8> {
        let mut buf = vec![0u8; self.page_size];
        self.read_page(id, &mut buf);
        buf
    }

    /// Point-in-time copy of the I/O counters.
    pub fn stats(&self) -> IoStatsSnapshot {
        self.stats.snapshot()
    }

    /// Zeroes the I/O counters (e.g. between the index and join phases) and
    /// forgets the head position, so the first access of the next phase is
    /// charged as random — matching the paper's cold-cache methodology.
    pub fn reset_stats(&self) {
        self.stats.reset();
        self.last_read.store(PageId::NONE, Ordering::Relaxed);
        self.last_write.store(PageId::NONE, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Disk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Disk")
            .field("page_size", &self.page_size)
            .field("backend", &self.backend_kind())
            .field("allocated_pages", &self.allocated_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_memory() {
        let d = Disk::in_memory(64);
        let p = d.allocate();
        d.write_page(p, b"hello");
        let buf = d.read_page_vec(p);
        assert_eq!(&buf[..5], b"hello");
        assert!(buf[5..].iter().all(|&b| b == 0));
    }

    #[test]
    fn sequential_vs_random_classification() {
        let d = Disk::in_memory(32).with_model(DiskModel::free());
        let p0 = d.allocate_contiguous(3);
        for i in 0..3 {
            d.write_page(PageId(p0.0 + i), &[i as u8]);
        }
        // First write is random (no previous head position), next two follow.
        let s = d.stats();
        assert_eq!(s.rand_writes, 1);
        assert_eq!(s.seq_writes, 2);

        let mut buf = vec![0u8; 32];
        d.read_page(PageId(2), &mut buf);
        d.read_page(PageId(0), &mut buf);
        d.read_page(PageId(1), &mut buf);
        d.read_page(PageId(2), &mut buf);
        let s = d.stats();
        // 2 is random, 0 is random (backwards), 1 and 2 are sequential.
        assert_eq!(s.rand_reads, 2);
        assert_eq!(s.seq_reads, 2);
    }

    #[test]
    fn sim_time_integrates_model() {
        let d = Disk::in_memory(32); // default SAS model
        let p = d.allocate();
        d.write_page(p, &[1]);
        let mut buf = vec![0u8; 32];
        d.read_page(p, &mut buf);
        let s = d.stats();
        let m = DiskModel::default();
        // Cold head: both accesses are charged a full-stroke positioning.
        assert_eq!(s.sim_write_time(), m.cost_for_gap(u64::MAX));
        assert_eq!(s.sim_read_time(), m.cost_for_gap(u64::MAX));
    }

    #[test]
    fn near_reads_cost_less_than_far_reads() {
        let d = Disk::in_memory(32);
        let _ = d.allocate_contiguous(200_000);
        let mut buf = vec![0u8; 32];
        d.read_page(PageId(0), &mut buf);
        d.reset_stats();
        d.read_page(PageId(0), &mut buf);
        d.read_page(PageId(5), &mut buf); // near seek
        let near = d.stats().sim_read_time();
        d.reset_stats();
        d.read_page(PageId(0), &mut buf);
        d.read_page(PageId(199_999), &mut buf); // far seek
        let far = d.stats().sim_read_time();
        assert!(far > near, "far {far:?} vs near {near:?}");
    }

    #[test]
    fn reset_stats_forgets_head() {
        let d = Disk::in_memory(32).with_model(DiskModel::free());
        let _ = d.allocate_contiguous(3);
        d.write_page(PageId(0), &[0]);
        d.write_page(PageId(1), &[1]);
        d.reset_stats();
        // Page 2 would be sequential after page 1, but the head position was
        // forgotten by reset_stats, so it must be classified random.
        d.write_page(PageId(2), &[2]);
        let s = d.stats();
        assert_eq!(s.rand_writes, 1);
        assert_eq!(s.seq_writes, 0);
    }

    #[test]
    fn head_is_the_last_page_read() {
        let d = Disk::in_memory(16);
        let _ = d.allocate_contiguous(4);
        assert_eq!(d.head(), None);
        d.write_page(PageId(3), &[3]);
        assert_eq!(d.head(), None, "writes do not move the read head");
        d.read_page_vec(PageId(2));
        d.read_page_vec(PageId(0));
        assert_eq!(d.head(), Some(PageId(0)));
        d.reset_stats();
        assert_eq!(d.head(), None);
    }

    #[test]
    fn unwritten_page_reads_zero() {
        let d = Disk::in_memory(16);
        let p = d.allocate();
        let buf = d.read_page_vec(p);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn reading_unallocated_page_panics() {
        let d = Disk::in_memory(16);
        let mut buf = vec![0u8; 16];
        d.read_page(PageId(0), &mut buf);
    }

    #[test]
    #[should_panic(expected = "exceeds page size")]
    fn oversized_write_panics() {
        let d = Disk::in_memory(4);
        let p = d.allocate();
        d.write_page(p, &[0; 5]);
    }

    #[test]
    fn file_backend_roundtrip() {
        let path = std::env::temp_dir().join(format!("tfm_disk_test_{}.bin", std::process::id()));
        let d = Disk::file(&path, 128).unwrap();
        let p0 = d.allocate_contiguous(4);
        d.write_page(PageId(p0.0 + 2), b"page two");
        d.write_page(PageId(p0.0), b"page zero");
        assert_eq!(&d.read_page_vec(PageId(p0.0 + 2))[..8], b"page two");
        assert_eq!(&d.read_page_vec(PageId(p0.0))[..9], b"page zero");
        // allocated-but-unwritten page reads zeros
        assert!(d.read_page_vec(PageId(p0.0 + 3)).iter().all(|&b| b == 0));
        assert_eq!(d.backend_kind(), DiskBackendKind::File);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_backend_matches_memory_byte_for_byte() {
        let path = std::env::temp_dir().join(format!("tfm_disk_eq_{}.bin", std::process::id()));
        let mem = Disk::in_memory(64);
        let file = Disk::file(&path, 64).unwrap();
        for d in [&mem, &file] {
            let first = d.allocate_contiguous(8);
            for i in 0..8u64 {
                // Short writes exercise the zero-padding path.
                d.write_page(PageId(first.0 + i), &vec![i as u8; 1 + i as usize]);
            }
        }
        for i in 0..8u64 {
            assert_eq!(mem.read_page_vec(PageId(i)), file.read_page_vec(PageId(i)));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_file_resumes_allocation_at_image_end() {
        let path = std::env::temp_dir().join(format!("tfm_disk_open_{}.bin", std::process::id()));
        {
            let d = Disk::file(&path, 64).unwrap();
            let p = d.allocate_contiguous(3);
            for i in 0..3u64 {
                d.write_page(PageId(p.0 + i), &[i as u8]);
            }
        }
        let d = Disk::open_file(&path, 64).unwrap();
        assert_eq!(d.allocated_pages(), 3);
        assert_eq!(d.read_page_vec(PageId(2))[0], 2);
        assert_eq!(d.allocate(), PageId(3));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn backend_constructor_places_file_images_under_dir() {
        let dir = std::env::temp_dir().join(format!("tfm_disk_dir_{}", std::process::id()));
        let d = Disk::for_backend(&StoreBackend::File(dir.clone()), 64, "unit-test").unwrap();
        let p = d.allocate();
        d.write_page(p, &[42]);
        assert!(dir.join("unit-test.pages").is_file());
        assert_eq!(d.store_len(), 64);
        let m = Disk::for_backend(&StoreBackend::Mem, 64, "ignored").unwrap();
        assert_eq!(m.backend_kind(), DiskBackendKind::Memory);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_run_matches_page_by_page_writes_on_every_backend() {
        let dir = std::env::temp_dir().join(format!("tfm_disk_run_{}", std::process::id()));
        let backends = [
            StoreBackend::Mem,
            StoreBackend::File(dir.join("file")),
            StoreBackend::FileChecksummed(dir.join("sums")),
        ];
        let page = |p: u64| -> Vec<u8> { (0..64u64).map(|b| (p * 7 + b) as u8).collect() };
        for backend in &backends {
            let by_page = Disk::for_backend(backend, 64, "by_page").unwrap();
            let by_run = Disk::for_backend(backend, 64, "by_run").unwrap();
            for d in [&by_page, &by_run] {
                d.allocate_contiguous(40);
                // An unrelated write first, so each run's first page is a
                // random write: one behind the head, one far ahead.
                d.write_page(PageId(30), &page(30));
            }
            // Runs that start random (after the unrelated write, a forward
            // skip, a jump back) and one that continues the last.
            for (first, count) in [(5u64, 12u64), (20, 1), (21, 9), (2, 3)] {
                let bytes: Vec<u8> = (first..first + count).flat_map(page).collect();
                for p in first..first + count {
                    by_page.write_page(PageId(p), &page(p));
                }
                by_run.write_run(PageId(first), &bytes).unwrap();
            }
            by_run.write_run(PageId(0), &[]).unwrap();
            let (a, b) = (by_page.stats(), by_run.stats());
            assert_eq!(a.seq_writes, b.seq_writes, "{backend:?}");
            assert_eq!(a.rand_writes, b.rand_writes, "{backend:?}");
            assert_eq!(a.sim_write_nanos, b.sim_write_nanos, "{backend:?}");
            assert_eq!((a.rand_writes, a.seq_writes), (4, 22), "{backend:?}");
            assert_eq!(by_page.store_len(), by_run.store_len(), "{backend:?}");
            for p in 0..40 {
                assert_eq!(
                    by_page.read_page_vec(PageId(p)),
                    by_run.read_page_vec(PageId(p)),
                    "{backend:?}, page {p}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "not a whole number")]
    fn a_run_of_part_of_a_page_panics() {
        let d = Disk::in_memory(16);
        d.allocate_contiguous(2);
        let _ = d.write_run(PageId(0), &[0; 20]);
    }

    #[test]
    #[should_panic(expected = "unallocated page p2")]
    fn a_run_past_the_allocation_panics() {
        let d = Disk::in_memory(16);
        d.allocate_contiguous(2);
        let _ = d.write_run(PageId(1), &[0; 32]);
    }

    #[test]
    fn allocate_contiguous_returns_first_of_run() {
        let d = Disk::in_memory(16);
        let a = d.allocate_contiguous(10);
        let b = d.allocate();
        assert_eq!(a, PageId(0));
        assert_eq!(b, PageId(10));
        assert_eq!(d.allocated_pages(), 11);
    }
}
