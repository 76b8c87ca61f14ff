//! Crash-injection recovery harness: kill the writer mid-commit at
//! randomized byte positions, recover, and verify the restored image.
//!
//! Each kill point spawns the `crash_child` binary with an armed
//! byte-clock crash hook (`Wal::set_crash_after_bytes`): the WAL append
//! that would cross the chosen byte writes a partial frame, syncs, and
//! aborts the process — a torn write at an adversarial position. The
//! parent then:
//!
//! 1. replays the log against the surviving data image
//!    ([`tfm_wal::recover`] — the pages committed transactions wrote are
//!    brought forward from their images and deltas and rewritten,
//!    uncommitted records skipped);
//! 2. reopens the mutable overlay from its sidecar head page;
//! 3. asserts the restored state equals a reference replay of **exactly
//!    the batches the child reported committed** — every committed batch
//!    present, nothing of the torn batch visible.
//!
//! The child only prints `committed k` after batch `k`'s commit record is
//! durable, and the crash hook fires *inside* a WAL append — so the
//! printed set is precisely the committed set, and the equality is exact,
//! not a two-way tolerance. What `committed k` does not say is that the
//! batch's data pages are in place: they are in the log, and reach the
//! image when the dirty tier is written back or at the checkpoint the
//! child takes half-way through its run. Kill points therefore fall
//! before and after a log truncation, and the surviving image ranges from
//! "nothing written back yet" to "checkpointed, then more batches".

//!
//! The in-process tests below the harness take the crash states the byte
//! clock cannot reach — it only fires inside a log append: a write-back
//! interrupted after any number of its in-place writes, with the next
//! page torn; and the moments before, inside and after a checkpoint. They
//! build the same image from the same trace and hold it to the same
//! reference. Two more keep the write-back policy's promises: the dirty
//! tier stays bounded, and the log and a recovery stay bounded by the
//! checkpoint interval however long the history.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Arc, Mutex};
use tfm_datagen::{generate, generate_mixed_trace, DatasetSpec, MixedOp, MixedTraceSpec};
use tfm_geom::{Aabb, Point3, SpatialElement, SpatialQuery};
use tfm_storage::{
    Disk, DiskBackendKind, DiskModel, FileStore, PageId, PageStore, RedoLog, SharedPageCache,
};
use tfm_wal::{Wal, WalOptions};
use transformers::{
    IndexConfig, MutableTransformers, MutationOp, TransformersIndex, CHECKPOINT_LOG_BYTES,
    DIRTY_HIGH_WATER, DIRTY_LOW_WATER,
};

const COUNT: usize = 250;
const BATCH: usize = 40;
const OPS: usize = 320;
const SEED: u64 = 7;
const PAGE_SIZE: usize = 512;
/// Randomized kill points per run (the ISSUE's acceptance floor is 50).
const KILL_POINTS: u64 = 56;

struct ChildRun {
    committed: usize,
    meta_head: u64,
    total_bytes: Option<u64>,
    success: bool,
}

fn run_child(dir: &Path, crash_after: Option<u64>) -> ChildRun {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).expect("create run dir");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_crash_child"));
    cmd.arg("--dir").arg(dir);
    for (name, v) in [
        ("--count", COUNT),
        ("--batch", BATCH),
        ("--ops", OPS),
        ("--seed", SEED as usize),
        ("--page-size", PAGE_SIZE),
    ] {
        cmd.arg(name).arg(v.to_string());
    }
    if let Some(b) = crash_after {
        cmd.arg("--crash-after").arg(b.to_string());
    }
    let out = cmd.output().expect("spawn crash_child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut committed = 0usize;
    let mut meta_head = None;
    let mut total_bytes = None;
    for line in stdout.lines() {
        if let Some(k) = line.strip_prefix("committed ") {
            committed = k.trim().parse::<usize>().expect("batch index") + 1;
        } else if let Some(p) = line.strip_prefix("meta_head ") {
            meta_head = Some(p.trim().parse().expect("page id"));
        } else if let Some(b) = line.strip_prefix("total_bytes ") {
            total_bytes = Some(b.trim().parse().expect("byte count"));
        }
    }
    ChildRun {
        committed,
        meta_head: meta_head.expect("child prints meta_head before mutating"),
        total_bytes,
        success: out.status.success(),
    }
}

/// The base dataset and the deterministic writes-only trace of `ops`
/// operations over it — what `crash_child` generates from the same flags.
fn base_and_trace(ops: usize) -> (Vec<SpatialElement>, Vec<MixedOp>) {
    let elems = generate(&DatasetSpec {
        max_side: 6.0,
        ..DatasetSpec::uniform(COUNT, SEED)
    });
    let live_ids: Vec<u64> = elems.iter().map(|e| e.id).collect();
    let trace = generate_mixed_trace(&MixedTraceSpec::uniform(ops, 1000, SEED), &live_ids);
    (elems, trace)
}

/// A writes-only trace cut into the write batches `apply_batch` takes.
fn write_batches(trace: &[MixedOp]) -> Vec<Vec<MutationOp>> {
    trace
        .chunks(BATCH)
        .map(|chunk| {
            chunk
                .iter()
                .map(|op| match op {
                    MixedOp::Insert(e) => MutationOp::Insert(*e),
                    MixedOp::Delete(id) => MutationOp::Delete(*id),
                    MixedOp::Query(_) => unreachable!("writes-only trace"),
                })
                .collect()
        })
        .collect()
}

/// The element set after replaying the first `batches` write batches of
/// the `ops`-operation trace over the base dataset.
fn reference_after(ops: usize, batches: usize) -> BTreeMap<u64, SpatialElement> {
    let (elems, trace) = base_and_trace(ops);
    let mut live: BTreeMap<u64, SpatialElement> = elems.into_iter().map(|e| (e.id, e)).collect();
    for chunk in trace.chunks(BATCH).take(batches) {
        for op in chunk {
            match op {
                MixedOp::Insert(e) => {
                    live.insert(e.id, *e);
                }
                MixedOp::Delete(id) => {
                    live.remove(id);
                }
                MixedOp::Query(_) => unreachable!("writes-only trace"),
            }
        }
    }
    live
}

/// Deterministic probe set covering the universe at several scales.
fn probes() -> Vec<SpatialQuery> {
    let mut out = Vec::new();
    for (lo, hi) in [
        (0.0, 1000.0),
        (100.0, 420.0),
        (500.0, 900.0),
        (330.0, 340.0),
    ] {
        out.push(SpatialQuery::Window(Aabb::new(
            Point3::new(lo, lo, lo),
            Point3::new(hi, hi, hi),
        )));
    }
    out
}

/// Recovers the image in `dir` and asserts the reopened overlay equals
/// the reference state after exactly `batches` committed batches.
fn verify_recovered(dir: &Path, meta_head: u64, batches: usize, kill_byte: Option<u64>) {
    let disk =
        Disk::open_file_checksummed(dir.join("crash.pages"), PAGE_SIZE).expect("reopen data image");
    tfm_wal::recover(&dir.join("wal"), &disk).expect("recovery must succeed");
    let ctx = format!("kill at byte {kill_byte:?}, {batches} committed batches");
    assert_reopens_to(&disk, meta_head, &reference_after(OPS, batches), &ctx);
}

/// Asserts the overlay reopened from `disk` holds exactly `reference`.
fn assert_reopens_to(
    disk: &Disk,
    meta_head: u64,
    reference: &BTreeMap<u64, SpatialElement>,
    ctx: &str,
) {
    let overlay = MutableTransformers::reopen(disk, PageId(meta_head));
    assert_eq!(overlay.len(), reference.len() as u64, "{ctx}: length");
    let snapshot = overlay.snapshot();
    let mut reader = disk;
    for (qi, q) in probes().iter().enumerate() {
        let got = snapshot.query(&mut reader, q);
        let mut expected: Vec<u64> = reference
            .values()
            .filter(|e| q.matches(&e.mbb))
            .map(|e| e.id)
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected, "{ctx}: probe {qi}");
    }
}

/// Multiplicative-hash PRNG — deterministic kill points without a rand
/// dependency, spread over the whole log.
fn scatter(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ i
}

#[test]
fn randomized_kill_points_recover_to_the_committed_prefix() {
    let base = std::env::temp_dir().join(format!("tfm_crash_recovery_{}", std::process::id()));

    // Clean run first: learns the full log size (kill-point range) and
    // proves the no-crash path replays every batch.
    let clean = run_child(&base, None);
    assert!(clean.success, "clean run must exit 0");
    let total_batches = OPS.div_ceil(BATCH);
    assert_eq!(clean.committed, total_batches);
    let total_bytes = clean.total_bytes.expect("clean run prints total_bytes");
    assert!(total_bytes > 0);
    // The clean run ends without a flush: its image holds what the
    // checkpoint and the write-backs put there, the log the rest.
    verify_recovered(&base, clean.meta_head, total_batches, None);

    let mut min_committed = usize::MAX;
    let mut max_committed = 0usize;
    for i in 0..KILL_POINTS {
        // Kill points spread over [1, total_bytes): every region of the
        // log gets hit — first batch, mid-log, segment tails.
        let kill = 1 + scatter(i) % (total_bytes - 1);
        let run = run_child(&base, Some(kill));
        assert!(
            !run.success,
            "kill at byte {kill} must abort the child (log is {total_bytes} bytes)"
        );
        assert!(
            run.committed < total_batches,
            "kill at byte {kill} cannot have committed everything"
        );
        min_committed = min_committed.min(run.committed);
        max_committed = max_committed.max(run.committed);
        verify_recovered(&base, run.meta_head, run.committed, Some(kill));
    }
    // The kill points actually exercised different crash epochs: some
    // before the first commit, some deep into the replay.
    assert_eq!(min_committed, 0, "no kill landed inside the first batch");
    assert!(
        max_committed + 1 == total_batches,
        "no kill landed inside the final batch (max committed {max_committed})"
    );

    std::fs::remove_dir_all(&base).ok();
}

// --- in-process crash states ---------------------------------------------

/// In-place page writes in the order they were made, as
/// `(byte offset, page)`.
type Journal = Arc<Mutex<Vec<(u64, Vec<u8>)>>>;

/// A checksummed file store that remembers every page write, in order:
/// what a write-back put on the disk, to be replayed up to any point.
struct JournalStore {
    inner: FileStore,
    writes: Journal,
}

impl PageStore for JournalStore {
    fn kind(&self) -> DiskBackendKind {
        self.inner.kind()
    }
    fn read_page(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        self.inner.read_page(offset, buf)
    }
    fn write_page(&self, offset: u64, page: &[u8]) -> std::io::Result<()> {
        self.writes.lock().unwrap().push((offset, page.to_vec()));
        self.inner.write_page(offset, page)
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn sync(&self) -> std::io::Result<()> {
        self.inner.sync()
    }
}

/// What `crash_child` builds, in this process: the adopted base image in
/// `dir/crash.pages` (checksummed, synced, every later page write
/// journalled) and the trace cut into write batches.
struct InProcess {
    disk: Disk,
    overlay: MutableTransformers,
    batches: Vec<Vec<MutationOp>>,
    /// In-place page writes since adoption.
    journal: Journal,
}

fn in_process(dir: &Path, ops: usize) -> InProcess {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).expect("create run dir");
    let journal = Journal::default();
    let store = JournalStore {
        inner: FileStore::create_checksummed(dir.join("crash.pages"), PAGE_SIZE)
            .expect("create data image"),
        writes: Arc::clone(&journal),
    };
    let disk = Disk::with_store(Box::new(store), PAGE_SIZE).with_model(DiskModel::free());
    let (elems, trace) = base_and_trace(ops);
    let idx = TransformersIndex::build(&disk, elems, &IndexConfig::default());
    let overlay = MutableTransformers::adopt(&idx, &disk);
    disk.sync().expect("sync base image");
    journal.lock().unwrap().clear();
    InProcess {
        disk,
        overlay,
        batches: write_batches(&trace),
        journal,
    }
}

/// Copies the data image and its checksum sidecar from `image_dir` and
/// the log from `run_dir/wal` into `to` (emptied first): the files a
/// crash leaves, in the layout [`verify_recovered`] reads.
fn copy_crash_state(image_dir: &Path, run_dir: &Path, to: &Path) {
    std::fs::remove_dir_all(to).ok();
    std::fs::create_dir_all(to.join("wal")).expect("create case dir");
    for name in ["crash.pages", "crash.pages.sums"] {
        std::fs::copy(image_dir.join(name), to.join(name)).expect("copy image");
    }
    let Ok(segments) = std::fs::read_dir(run_dir.join("wal")) else {
        return; // no log yet
    };
    for entry in segments {
        let entry = entry.expect("wal entry");
        std::fs::copy(entry.path(), to.join("wal").join(entry.file_name())).expect("copy segment");
    }
}

fn case_dirs(tag: &str) -> (PathBuf, PathBuf) {
    let root = std::env::temp_dir().join(format!("tfm_crash_{tag}_{}", std::process::id()));
    (root.join("run"), root.join("case"))
}

#[test]
fn a_write_back_torn_after_any_page_recovers_to_the_committed_prefix() {
    let (run, case) = case_dirs("torn_flush");
    let w = in_process(&run, OPS);
    let meta_head = w.overlay.meta_head().0;
    // The image as adoption left it, to rebuild every crash state from.
    let pristine = run.with_file_name("pristine");
    copy_crash_state(&run, &run, &pristine);
    // 32 frames: most batches end in a write-back.
    let cache = SharedPageCache::with_shards(&w.disk, 32, 2);
    let wal = Wal::open(run.join("wal"), WalOptions::default()).expect("open wal");

    let mut write_backs = 0;
    for (k, writes) in w.batches.iter().enumerate() {
        let before = w.journal.lock().unwrap().len();
        let out = w.overlay.apply_batch(&wal, &cache, writes);
        let journal = w.journal.lock().unwrap().clone();
        assert_eq!(journal.len() - before, out.flushed_pages);
        if out.flushed_pages == 0 {
            continue;
        }
        write_backs += 1;
        // The process dies inside this write-back: `done` of its pages
        // are in place, the next one is half written. The log is what it
        // is now — batch `k` committed before its write-back began.
        for done in [0, 1, out.flushed_pages / 2, out.flushed_pages - 1] {
            copy_crash_state(&pristine, &run, &case);
            let image = Disk::open_file_checksummed(case.join("crash.pages"), PAGE_SIZE).unwrap();
            for (offset, page) in &journal[..before + done] {
                let id = offset / PAGE_SIZE as u64;
                image.ensure_allocated(id + 1);
                image.write_page(PageId(id), page);
            }
            drop(image);
            // A torn write: half the page is garbage and the sidecar sum,
            // written after the page, still is the old one.
            let (offset, _) = journal[before + done];
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(case.join("crash.pages"))
                .unwrap();
            std::os::unix::fs::FileExt::write_all_at(&file, &[0xA5; PAGE_SIZE / 2], offset)
                .unwrap();
            // Whole pages, as a filesystem that allocates by the block
            // leaves them: an image that ends inside a page is refused
            // when it is opened, before recovery is asked anything.
            let len = file.metadata().unwrap().len();
            file.set_len(len.next_multiple_of(PAGE_SIZE as u64))
                .unwrap();
            drop(file);
            verify_recovered(&case, meta_head, k + 1, None);
        }
    }
    assert!(write_backs >= 4, "only {write_backs} write-backs to tear");
    std::fs::remove_dir_all(run.parent().unwrap()).ok();
}

/// Forwards to a [`Wal`] and calls `at_checkpoint` when asked to
/// checkpoint, before the log is truncated: the moment at which the data
/// disk is flushed and synced and the log still whole.
struct SnapshotAtCheckpoint<'a> {
    inner: &'a Wal,
    at_checkpoint: &'a (dyn Fn() + Sync),
}

impl RedoLog for SnapshotAtCheckpoint<'_> {
    fn begin(&self) -> u64 {
        self.inner.begin()
    }
    fn log_page(&self, txn: u64, page: PageId, image: &[u8]) -> u64 {
        self.inner.log_page(txn, page, image)
    }
    fn log_change(&self, txn: u64, page: PageId, before: &[u8], after: &[u8]) -> u64 {
        self.inner.log_change(txn, page, before, after)
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
    fn checkpoint(&self) -> std::io::Result<()> {
        (self.at_checkpoint)();
        self.inner.checkpoint()
    }
}

#[test]
fn a_kill_before_inside_or_after_a_checkpoint_recovers_to_the_committed_prefix() {
    let (run, case) = case_dirs("checkpoint");
    let w = in_process(&run, OPS);
    let meta_head = w.overlay.meta_head().0;
    let cache = SharedPageCache::with_shards(&w.disk, 32, 2);
    let wal = Wal::open(run.join("wal"), WalOptions::default()).expect("open wal");
    // Every crash state is the files as they are at that moment.
    let crash_now = |committed: usize| {
        copy_crash_state(&run, &run, &case);
        verify_recovered(&case, meta_head, committed, None);
    };
    let half = w.batches.len() / 2;
    for writes in &w.batches[..half] {
        w.overlay.apply_batch(&wal, &cache, writes);
    }
    let segments_before = std::fs::read_dir(run.join("wal")).unwrap().count();

    // Before: dirty pages in the cache only, the whole log on disk.
    assert!(cache.dirty_pages() > 0);
    crash_now(half);
    // Inside: every page flushed and synced, the log not yet truncated.
    let inside = SnapshotAtCheckpoint {
        inner: &wal,
        at_checkpoint: &|| crash_now(half),
    };
    let flushed = w.overlay.checkpoint(&inside, &cache).expect("checkpoint");
    assert!(flushed > 0 && cache.dirty_pages() == 0);
    // After: the image alone carries the first half.
    assert_eq!(wal.stats().segments, 1);
    assert!(segments_before >= 1);
    assert!(
        tfm_wal::scan_dir(&run.join("wal")).unwrap().records == 0,
        "the checkpoint left records in the log"
    );
    crash_now(half);
    // Later: the truncated log's records go on top of that image.
    for (k, writes) in w.batches.iter().enumerate().skip(half) {
        w.overlay.apply_batch(&wal, &cache, writes);
        crash_now(k + 1);
    }
    std::fs::remove_dir_all(run.parent().unwrap()).ok();
}

#[test]
fn the_dirty_tier_stays_bounded_and_hot_pages_are_written_once_per_write_back() {
    let (run, _) = case_dirs("dirty_bound");
    let w = in_process(&run, 2000);
    let head_offset = w.overlay.meta_head().0 * PAGE_SIZE as u64;
    let cache = SharedPageCache::with_shards(&w.disk, 64, 2);
    let (high, low) = (
        cache.capacity() / DIRTY_HIGH_WATER,
        cache.capacity() / DIRTY_LOW_WATER,
    );
    let wal = Wal::open(run.join("wal"), WalOptions::default()).expect("open wal");

    let (mut write_backs, mut flushed) = (0usize, 0usize);
    for writes in &w.batches {
        let out = w.overlay.apply_batch(&wal, &cache, writes);
        assert!(
            out.overlay_pages_written >= 1,
            "every batch rewrites the head"
        );
        // One writer, every record durable at the commit: a write-back
        // reaches the low-water mark, and no batch ends above the high.
        assert_eq!(out.retained_pages, cache.dirty_pages());
        assert!(out.retained_pages < high, "{} dirty", out.retained_pages);
        if out.flushed_pages > 0 {
            assert_eq!(out.retained_pages, low);
            let journal = w.journal.lock().unwrap();
            assert_eq!(journal.len(), flushed + out.flushed_pages);
            assert!(
                journal[flushed..].windows(2).all(|w| w[0].0 < w[1].0),
                "a write-back writes ascending pages"
            );
            write_backs += 1;
            flushed += out.flushed_pages;
        }
    }
    let journal = w.journal.lock().unwrap();
    assert_eq!(journal.len(), flushed, "only write-backs write in place");
    assert!(write_backs >= 10, "{write_backs} write-backs");
    // The overlay head is the most recently written page at every
    // write-back, so the least-recently-written rule leaves it dirty:
    // 50 batches rewrote it, far fewer write-backs wrote it in place.
    let head_writes = journal.iter().filter(|(o, _)| *o == head_offset).count();
    assert!(
        head_writes <= write_backs / 2,
        "head written in place {head_writes} times in {write_backs} write-backs"
    );
    assert!(cache.stats().dirty_high_water as usize >= high);
    drop(journal);
    std::fs::remove_dir_all(run.parent().unwrap()).ok();
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "writes ~300 MB of log: run with --release, as CI's release test job does"
)]
fn log_size_and_recovery_are_bounded_by_the_checkpoint_interval() {
    // 32 KiB pages: a write's records run to kilobytes (an insert shifts
    // half a directory leaf), so a few thousand ops cross the interval.
    const BIG_PAGE: usize = 32 << 10;
    let run = |ops: usize, tag: &str| {
        let wal_dir = std::env::temp_dir().join(format!("tfm_crash_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&wal_dir).ok();
        let (elems, trace) = base_and_trace(ops);
        let disk = Disk::in_memory(BIG_PAGE).with_model(DiskModel::free());
        let idx = TransformersIndex::build(&disk, elems, &IndexConfig::default());
        let overlay = MutableTransformers::adopt(&idx, &disk);
        let cache = SharedPageCache::with_shards(&disk, 64, 2);
        let wal = Wal::open(&wal_dir, WalOptions::default()).expect("open wal");
        let (mut checkpoints, mut checkpointed_at) = (0, 0);
        for writes in write_batches(&trace) {
            overlay.apply_batch(&wal, &cache, &writes);
            // `tfm mutate`'s cadence.
            if wal.appended_bytes() - checkpointed_at >= CHECKPOINT_LOG_BYTES {
                overlay.checkpoint(&wal, &cache).expect("checkpoint");
                checkpoints += 1;
                checkpointed_at = wal.appended_bytes();
            }
        }
        let meta_head = overlay.meta_head().0;
        drop(wal);
        let log_bytes: u64 = tfm_wal::scan_dir(&wal_dir)
            .unwrap()
            .segments
            .iter()
            .map(|s| s.bytes)
            .sum();
        // A crash now: the image as write-backs and checkpoints left it.
        let crashed = Disk::in_memory(BIG_PAGE).with_model(DiskModel::free());
        crashed.ensure_allocated(disk.allocated_pages());
        for p in 0..disk.allocated_pages() {
            crashed.write_page(PageId(p), &disk.read_page_vec(PageId(p)));
        }
        let mut wall = std::time::Duration::MAX;
        let mut report = None;
        for _ in 0..3 {
            let t = std::time::Instant::now();
            report = Some(tfm_wal::recover(&wal_dir, &crashed).expect("recover"));
            wall = wall.min(t.elapsed());
        }
        let batches = ops.div_ceil(BATCH);
        assert_reopens_to(
            &crashed,
            meta_head,
            &reference_after(ops, batches),
            &format!("{ops} ops, {checkpoints} checkpoints"),
        );
        std::fs::remove_dir_all(&wal_dir).ok();
        (
            checkpoints,
            log_bytes,
            report.unwrap().records_scanned,
            wall,
        )
    };
    let (ckpt_1, bytes_1, records_1, wall_1) = run(4_000, "cadence_1x");
    let (ckpt_10, bytes_10, records_10, wall_10) = run(40_000, "cadence_10x");
    assert!(ckpt_1 >= 1, "the short run never reached the interval");
    assert!(ckpt_10 >= 8 * ckpt_1, "{ckpt_10} vs {ckpt_1} checkpoints");
    // Ten times the history, the same bound on what is kept and replayed.
    assert!(bytes_10 <= 2 * bytes_1, "{bytes_10} vs {bytes_1} log bytes");
    assert!(bytes_10 <= 2 * CHECKPOINT_LOG_BYTES);
    assert!(
        records_10 <= 2 * records_1,
        "{records_10} vs {records_1} records"
    );
    assert!(
        wall_10 <= 2 * wall_1 + std::time::Duration::from_millis(20),
        "recovery took {wall_10:?} after 10x the batches, {wall_1:?} after 1x"
    );
}
