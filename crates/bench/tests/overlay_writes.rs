//! Change-only overlay persistence: a batch logs the overlay chain pages
//! whose bytes it changed, not the chain.
//!
//! The write counts are taken where they cost — at the [`RedoLog`] seam,
//! by a wrapper that records every page id handed to `log_page` — and the
//! overlay pages among them are told apart by walking the chain's `next`
//! pointers on the data image. The two recovery tests run the batches
//! through a real [`Wal`] and replay it onto a copy of the image taken
//! right after adoption, which is the state a crash before the first
//! write-back leaves behind.

use std::sync::Mutex;
use tfm_datagen::{generate, generate_mixed_trace, DatasetSpec, MixedOp, MixedTraceSpec};
use tfm_geom::{Aabb, Point3, SpatialElement};
use tfm_storage::{Disk, DiskModel, NoopLog, PageId, RedoLog, SharedPageCache};
use tfm_wal::{Wal, WalOptions};
use transformers::{IndexConfig, MutableTransformers, MutationOp, TransformersIndex, NO_PAGE};

const PAGE_SIZE: usize = 512;
const SEED: u64 = 17;

/// Forwards to `inner` and remembers which pages were logged.
struct CountingLog<'a> {
    inner: &'a dyn RedoLog,
    pages: Mutex<Vec<PageId>>,
}

impl<'a> CountingLog<'a> {
    fn new(inner: &'a dyn RedoLog) -> Self {
        Self {
            inner,
            pages: Mutex::new(Vec::new()),
        }
    }

    /// How many of the logged records target a page of `chain`.
    fn logged_in(&self, chain: &[PageId]) -> usize {
        let pages = self.pages.lock().unwrap();
        pages.iter().filter(|p| chain.contains(p)).count()
    }
}

impl RedoLog for CountingLog<'_> {
    fn begin(&self) -> u64 {
        self.inner.begin()
    }
    fn log_page(&self, txn: u64, page: PageId, image: &[u8]) -> u64 {
        self.pages.lock().unwrap().push(page);
        self.inner.log_page(txn, page, image)
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

fn base(count: usize) -> (Disk, Vec<SpatialElement>, MutableTransformers) {
    let elems = generate(&DatasetSpec {
        max_side: 6.0,
        ..DatasetSpec::uniform(count, SEED)
    });
    let disk = Disk::in_memory(PAGE_SIZE).with_model(DiskModel::free());
    let idx = TransformersIndex::build(&disk, elems.clone(), &IndexConfig::default());
    let overlay = MutableTransformers::adopt(&idx, &disk);
    (disk, elems, overlay)
}

/// The overlay chain's page ids, read off the image (`next u64` leads
/// every chain page).
fn overlay_chain(disk: &Disk, head: PageId) -> Vec<PageId> {
    let mut chain = vec![head];
    loop {
        let page = disk.read_page_vec(*chain.last().unwrap());
        let next = u64::from_le_bytes(page[..8].try_into().unwrap());
        if next == NO_PAGE {
            return chain;
        }
        chain.push(PageId(next));
    }
}

fn image_of(disk: &Disk) -> Vec<Vec<u8>> {
    (0..disk.allocated_pages())
        .map(|p| disk.read_page_vec(PageId(p)))
        .collect()
}

fn copy_of(disk: &Disk) -> Disk {
    let copy = Disk::in_memory(PAGE_SIZE).with_model(DiskModel::free());
    for (p, page) in image_of(disk).iter().enumerate() {
        copy.ensure_allocated(p as u64 + 1);
        copy.write_page(PageId(p as u64), page);
    }
    copy
}

fn fresh(id: u64) -> MutationOp {
    // Mid-universe: the unit it lands in sits deep inside the chain.
    let lo = Point3::new(480.0, 510.0, 530.0);
    MutationOp::Insert(SpatialElement::new(
        id,
        Aabb::new(lo, Point3::new(lo.x + 2.0, lo.y + 2.0, lo.z + 2.0)),
    ))
}

/// One insert touches the overlay head (live count, directory length,
/// watermark), one unit entry and one node entry; an entry can straddle
/// one chain-page boundary.
const ONE_INSERT_OVERLAY_PAGES: usize = 5;

#[test]
fn one_insert_logs_a_few_overlay_pages_whatever_the_index_size() {
    let mut chains = Vec::new();
    for count in [400usize, 4000] {
        let (disk, _, overlay) = base(count);
        let chain = overlay_chain(&disk, overlay.meta_head());
        let cache = SharedPageCache::new(&disk, 4096);
        let noop = NoopLog::new();
        let log = CountingLog::new(&noop);

        let out = overlay.apply_batch(&log, &cache, &[fresh(9_000_000)]);
        assert_eq!(out.inserted, 1);
        let logged = log.logged_in(&chain);
        assert_eq!(logged, out.overlay_pages_written, "{count} elements");
        assert!(
            (1..=ONE_INSERT_OVERLAY_PAGES).contains(&logged),
            "{logged} of {} overlay pages logged for one insert into {count} elements",
            chain.len()
        );
        assert!(log.pages.lock().unwrap().contains(&chain[0]), "head logged");
        // The chain did not move or grow: the skipped pages are the ones
        // adoption wrote.
        assert_eq!(overlay_chain(&disk, chain[0]), chain);
        chains.push(chain.len());
    }
    // Same bound on a chain ten times as long: which of 1..=5 it is
    // depends on where the two entries fall relative to page boundaries,
    // not on how many entries there are.
    assert!(chains[1] >= 8 * chains[0], "{chains:?}");
}

#[test]
fn a_batch_of_rejected_ops_logs_no_page() {
    let (disk, elems, overlay) = base(400);
    let cache = SharedPageCache::new(&disk, 4096);
    let noop = NoopLog::new();
    let log = CountingLog::new(&noop);
    let duplicate = MutationOp::Insert(elems[3]);
    let ops = [duplicate, duplicate, MutationOp::Delete(u64::MAX)];
    let out = overlay.apply_batch(&log, &cache, &ops);
    assert_eq!((out.rejected_inserts, out.missing_deletes), (2, 1));
    assert_eq!(*log.pages.lock().unwrap(), Vec::<PageId>::new());
    assert_eq!((out.overlay_pages_written, out.flushed_pages), (0, 0));
}

/// Runs `batches` write batches on a fresh base through a real WAL,
/// flushes every committed page, and replays that log onto a copy of the
/// image as adoption left it. Returns (flushed image, recovered image,
/// head).
fn flushed_and_recovered(tag: &str, batches: usize) -> (Disk, Disk, PageId) {
    let wal_dir = std::env::temp_dir().join(format!("tfm_overlay_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&wal_dir).ok();
    let (disk, elems, overlay) = base(600);
    let head = overlay.meta_head();
    let crashed = copy_of(&disk);
    let chain = overlay_chain(&disk, head);

    let live: Vec<u64> = elems.iter().map(|e| e.id).collect();
    let trace = generate_mixed_trace(&MixedTraceSpec::uniform(batches * 40, 1000, SEED), &live);
    let cache = SharedPageCache::new(&disk, 4096);
    let wal = Wal::open(&wal_dir, WalOptions::default()).expect("open wal");
    for chunk in trace.chunks(40) {
        let writes: Vec<MutationOp> = chunk
            .iter()
            .map(|op| match op {
                MixedOp::Insert(e) => MutationOp::Insert(*e),
                MixedOp::Delete(id) => MutationOp::Delete(*id),
                MixedOp::Query(_) => unreachable!("writes-only trace"),
            })
            .collect();
        let out = overlay.apply_batch(&wal, &cache, &writes);
        assert!(
            (1..chain.len()).contains(&out.overlay_pages_written),
            "a 40-op batch rewrote {} of {} overlay pages",
            out.overlay_pages_written,
            chain.len()
        );
    }
    // Flush to the durable LSN (not a checkpoint: the log stays whole).
    let (_, retained) = cache.flush_dirty(wal.sync());
    assert_eq!(retained, 0, "every committed page is flushed");
    drop(wal);

    let report = tfm_wal::recover(&wal_dir, &crashed).expect("recover");
    assert_eq!(report.commits, batches as u64);
    std::fs::remove_dir_all(&wal_dir).ok();
    (disk, crashed, head)
}

#[test]
fn recovered_image_equals_the_flushed_image_overlay_chain_included() {
    let (flushed, recovered, head) = flushed_and_recovered("image", 6);
    // Reopening restores the allocation watermark; it writes nothing.
    let reopened = MutableTransformers::reopen(&recovered, head);
    assert_eq!(recovered.allocated_pages(), flushed.allocated_pages());
    let (want, got) = (image_of(&flushed), image_of(&recovered));
    for (p, (want, got)) in want.iter().zip(&got).enumerate() {
        assert!(want == got, "page {p} differs after recovery");
    }
    assert_eq!(
        overlay_chain(&recovered, head),
        overlay_chain(&flushed, head)
    );
    assert_eq!(
        reopened.len(),
        MutableTransformers::reopen(&flushed, head).len()
    );
}

#[test]
fn first_batch_after_recover_and_reopen_is_change_only() {
    let (_, recovered, head) = flushed_and_recovered("reopen", 4);
    let overlay = MutableTransformers::reopen(&recovered, head);
    let chain = overlay_chain(&recovered, head);
    let cache = SharedPageCache::new(&recovered, 4096);
    let noop = NoopLog::new();
    let log = CountingLog::new(&noop);
    let out = overlay.apply_batch(&log, &cache, &[fresh(9_000_001)]);
    assert_eq!(out.inserted, 1);
    let logged = log.logged_in(&chain);
    assert_eq!(logged, out.overlay_pages_written);
    assert!(
        (1..=ONE_INSERT_OVERLAY_PAGES).contains(&logged),
        "{logged} of {} overlay pages logged by the first batch after reopen",
        chain.len()
    );
}
