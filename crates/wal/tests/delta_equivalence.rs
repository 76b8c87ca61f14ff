//! The delta log recovers to what the all-full-image log recovers to.
//!
//! Every scenario is written twice through [`LoggedPages`] over a cache,
//! as the mutable index layers write: once into a real [`Wal`], which may
//! record a write as the bytes that differ, and once into a second `Wal`
//! behind [`FullImages`], a wrapper that leaves [`RedoLog::log_change`] at
//! its default and so logs every write as a whole page. Each log is
//! replayed onto a copy of the image the scenario started from; the two
//! results must be equal byte for byte, and equal to an oracle that sets
//! each page to the last bytes a committed transaction wrote to it.
//!
//! The hazard a delta adds is that it is only as good as what it was
//! diffed against: bytes replay skips (an abandoned transaction's), or
//! does not have (a reopened or truncated log), must not be its base. The
//! named tests pin the writer's rule for each case; the property test
//! runs random interleavings, a torn tail included.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use tfm_storage::{
    CacheHandle, Disk, DiskModel, LoggedPages, PageId, PageReads, PageWrites, RedoLog,
    SharedPageCache,
};
use tfm_wal::{recover, scan_dir, visit_records, Wal, WalOptions, WalPayload};

const PAGE_SIZE: usize = 256;
const PAGES: u64 = 6;

/// Logs every write as a full page: `log_change` is not overridden, so it
/// falls back to `log_page`.
struct FullImages<'a>(&'a Wal);

impl RedoLog for FullImages<'_> {
    fn begin(&self) -> u64 {
        self.0.begin()
    }
    fn log_page(&self, txn: u64, page: PageId, image: &[u8]) -> u64 {
        self.0.log_page(txn, page, image)
    }
    fn commit(&self, txn: u64) -> u64 {
        self.0.commit(txn)
    }
    fn durable_lsn(&self) -> u64 {
        self.0.durable_lsn()
    }
    fn sync(&self) -> u64 {
        self.0.sync()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "tfm_wal_delta_{}_{}_{:?}",
        tag,
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// The image every scenario starts from: page `p` filled with `p + 1`.
fn pre_image() -> Vec<Vec<u8>> {
    (0..PAGES).map(|p| vec![p as u8 + 1; PAGE_SIZE]).collect()
}

fn disk_of(image: &[Vec<u8>]) -> Disk {
    let disk = Disk::in_memory(PAGE_SIZE).with_model(DiskModel::free());
    disk.allocate_contiguous(image.len() as u64);
    for (p, page) in image.iter().enumerate() {
        disk.write_page(PageId(p as u64), page);
    }
    disk
}

fn image_of(disk: &Disk) -> Vec<Vec<u8>> {
    (0..disk.allocated_pages())
        .map(|p| disk.read_page_vec(PageId(p)))
        .collect()
}

/// One step of a scenario. Up to three transactions are open at a time,
/// one per `slot`; a slot's transaction begins with its first write.
#[derive(Debug, Clone)]
enum Step {
    /// Overwrite `len` bytes of `page` at `at` with `fill` (clipped to the
    /// page), on top of what the cache holds.
    Write {
        slot: usize,
        page: u64,
        at: usize,
        len: usize,
        fill: u8,
    },
    /// Commit the slot's transaction, or abandon it (drop its handle with
    /// no commit record).
    End { slot: usize, commit: bool },
}

/// What a run logged, for the oracle: every write's transaction, page and
/// complete after-image in LSN order, and the transactions that committed.
#[derive(Default)]
struct Written {
    writes: Vec<(u64, u64, Vec<u8>)>,
    committed: Vec<u64>,
}

impl Written {
    /// Each page as the last committed write left it, over `base`.
    fn oracle(&self, base: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let mut image = base.to_vec();
        for (txn, page, after) in &self.writes {
            if self.committed.contains(txn) {
                image[*page as usize] = after.clone();
            }
        }
        image
    }
}

/// Runs `steps` against a fresh cache over `disk`, logging to `log`.
/// Transactions still open at the end are abandoned. Nothing is flushed:
/// the disk keeps the image it came with.
fn run(steps: &[Step], log: &dyn RedoLog, disk: &Disk) -> Written {
    let cache = SharedPageCache::with_shards(disk, 64, 2);
    let mut open: [Option<LoggedPages>; 3] = [None, None, None];
    let mut out = Written::default();
    for step in steps {
        match *step {
            Step::Write {
                slot,
                page,
                at,
                len,
                fill,
            } => {
                let h =
                    open[slot].get_or_insert_with(|| LoggedPages::new(log, &cache, log.begin()));
                let mut bytes = h.page(PageId(page)).to_vec();
                let end = (at + len).min(PAGE_SIZE);
                bytes[at.min(end)..end].fill(fill);
                h.write(PageId(page), &bytes);
                out.writes.push((h.txn(), page, bytes));
            }
            Step::End { slot, commit } => {
                if let Some(h) = open[slot].take() {
                    if commit {
                        log.commit(h.txn());
                        out.committed.push(h.txn());
                    }
                }
            }
        }
    }
    out
}

/// Replays the log in `dir` onto a copy of `base` and returns the image.
fn recovered(dir: &Path, base: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let disk = disk_of(base);
    recover(dir, &disk).expect("recover");
    image_of(&disk)
}

/// The page records of the log in `dir`, as `(txn, page, is_delta)`.
fn page_records(dir: &Path) -> Vec<(u64, u64, bool)> {
    let mut out = Vec::new();
    visit_records(dir, |r| {
        match r.payload {
            WalPayload::Page { page, .. } => out.push((r.txn, page, false)),
            WalPayload::Delta { page, .. } => out.push((r.txn, page, true)),
            WalPayload::Commit => {}
        }
        Ok(())
    })
    .expect("scan");
    out
}

/// Runs `steps` into a delta log and into a full-image log, both over
/// the pre-image; returns the two directories and what was written.
fn run_both(tag: &str, steps: &[Step]) -> (PathBuf, PathBuf, Written) {
    let base = pre_image();
    let (delta_dir, full_dir) = (temp_dir(&format!("{tag}_d")), temp_dir(&format!("{tag}_f")));
    let written = {
        let wal = Wal::open(&delta_dir, WalOptions::default()).unwrap();
        run(steps, &wal, &disk_of(&base))
    };
    {
        let wal = Wal::open(&full_dir, WalOptions::default()).unwrap();
        run(steps, &FullImages(&wal), &disk_of(&base));
    }
    assert!(
        page_records(&full_dir).iter().all(|&(_, _, delta)| !delta),
        "the reference log holds a delta"
    );
    (delta_dir, full_dir, written)
}

/// Runs `steps` into both logs, checks the two recover to the same bytes
/// and to the oracle, and returns the delta log's directory for the
/// caller to inspect (and remove).
fn assert_equivalent(tag: &str, steps: &[Step]) -> PathBuf {
    let base = pre_image();
    let (delta_dir, full_dir, written) = run_both(tag, steps);
    let from_deltas = recovered(&delta_dir, &base);
    assert!(
        from_deltas == recovered(&full_dir, &base),
        "{tag}: logs differ"
    );
    assert!(
        from_deltas == written.oracle(&base),
        "{tag}: not the oracle"
    );
    std::fs::remove_dir_all(&full_dir).ok();
    delta_dir
}

fn write(slot: usize, page: u64, at: usize, len: usize, fill: u8) -> Step {
    Step::Write {
        slot,
        page,
        at,
        len,
        fill,
    }
}

#[test]
fn a_delta_is_never_based_on_an_abandoned_write() {
    // A (slot 0) writes page 2 and is abandoned; B (slot 1) then changes
    // four other bytes of it and commits. B saw A's bytes in the cache, so
    // a delta of B's write would leave A's bytes out — and replay skips A.
    let steps = [
        write(0, 2, 10, 50, 0xAA),
        Step::End {
            slot: 0,
            commit: false,
        },
        write(1, 2, 100, 4, 0xBB),
        Step::End {
            slot: 1,
            commit: true,
        },
    ];
    let dir = assert_equivalent("abandoned", &steps);
    let records = page_records(&dir);
    assert_eq!(records.len(), 2);
    assert!(
        !records[1].2,
        "B's write on top of A's must be a full image"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_delta_follows_its_own_or_a_committed_image_and_nothing_else() {
    // Slot 0 and slot 1 interleave on page 1; slot 2 works alone on page 4.
    let steps = [
        write(0, 1, 0, 8, 0x10),  // first touch: full
        write(0, 1, 8, 8, 0x11),  // same transaction: delta
        write(1, 1, 16, 8, 0x20), // on top of open transaction 0: full
        write(0, 1, 24, 8, 0x12), // on top of open transaction 1: full
        Step::End {
            slot: 1,
            commit: true,
        },
        Step::End {
            slot: 0,
            commit: true,
        },
        write(2, 1, 32, 8, 0x30), // on top of committed transaction 0: delta
        write(2, 4, 0, 8, 0x31),  // first touch: full
        write(2, 4, 0, 8, 0x32),  // same transaction: delta
        Step::End {
            slot: 2,
            commit: true,
        },
    ];
    let dir = assert_equivalent("rules", &steps);
    let kinds: Vec<bool> = page_records(&dir).iter().map(|r| r.2).collect();
    assert_eq!(
        kinds,
        [false, true, false, false, true, false, true],
        "full/delta per write"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_reopened_log_starts_every_page_with_a_full_image() {
    let base = pre_image();
    let dir = temp_dir("reopen");
    let disk = disk_of(&base);
    let mut written = Written::default();
    {
        // One committed write, then an uncommitted tail the process dies
        // with.
        let wal = Wal::open(&dir, WalOptions::default()).unwrap();
        let first = run(
            &[
                write(0, 3, 0, 16, 0x41),
                Step::End {
                    slot: 0,
                    commit: true,
                },
                write(1, 3, 16, 16, 0x42),
            ],
            &wal,
            &disk,
        );
        written.writes.extend(first.writes);
        written.committed.extend(first.committed);
    }
    {
        // The restarted writer: image recovered, cache cold, log reopened.
        recover(&dir, &disk).unwrap();
        let wal = Wal::open(&dir, WalOptions::default()).unwrap();
        let second = run(
            &[
                write(0, 3, 32, 4, 0x43),
                write(0, 3, 36, 4, 0x44),
                Step::End {
                    slot: 0,
                    commit: true,
                },
            ],
            &wal,
            &disk,
        );
        written.writes.extend(second.writes);
        written.committed.extend(second.committed);
    }
    let kinds: Vec<bool> = page_records(&dir).iter().map(|r| r.2).collect();
    assert_eq!(kinds, [false, true, false, true], "full/delta per write");
    assert!(recovered(&dir, &base) == written.oracle(&base));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_truncated_log_starts_every_page_with_a_full_image() {
    let base = pre_image();
    let dir = temp_dir("truncate");
    let disk = disk_of(&base);
    let cache = SharedPageCache::with_shards(&disk, 64, 2);
    let wal = Wal::open(&dir, WalOptions::default()).unwrap();
    let put = |at: usize, fill: u8| {
        let txn = wal.begin();
        let mut h = LoggedPages::new(&wal, &cache, txn);
        let mut bytes = h.page(PageId(5)).to_vec();
        bytes[at..at + 8].fill(fill);
        h.write(PageId(5), &bytes);
        wal.commit(txn);
    };
    put(0, 0x51);
    put(8, 0x52);
    // Checkpoint by hand: flush, sync, truncate.
    assert_eq!(cache.flush_dirty(wal.sync()), (1, 0));
    disk.sync().unwrap();
    wal.checkpoint().unwrap();
    let checkpointed = image_of(&disk);
    put(16, 0x53);
    put(24, 0x54);
    let stats = wal.stats();
    assert_eq!((stats.full_records, stats.delta_records), (2, 2));
    drop(wal);

    // Only the records after the truncation are left, and the first of
    // them is whole: they replay onto the checkpointed image, and onto one
    // whose page 5 an interrupted write has since ruined.
    let kinds: Vec<bool> = page_records(&dir).iter().map(|r| r.2).collect();
    assert_eq!(kinds, [false, true]);
    let live = CacheHandle::shared(&cache).page(PageId(5)).to_vec();
    let mut ruined = checkpointed.clone();
    ruined[5][..PAGE_SIZE / 2].fill(0xEE);
    for start in [&checkpointed, &ruined] {
        assert!(recovered(&dir, start)[5] == live);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One write in five ends its slot's transaction instead, half of those
/// by committing it.
fn step_strategy() -> impl Strategy<Value = Step> {
    (
        0u8..10,
        0usize..3,
        0u64..PAGES,
        0usize..PAGE_SIZE,
        1usize..64,
        1u8..=255,
    )
        .prop_map(|(kind, slot, page, at, len, fill)| match kind {
            0 | 1 => Step::End {
                slot,
                commit: kind == 0,
            },
            _ => write(slot, page, at, len, fill),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Random interleavings of committed and abandoned transactions over a
    // few pages: the delta log and the full-image log recover to the same
    // bytes and to the oracle — whole, and with the last record torn off
    // both; replay twice changes nothing; and replay onto an image that
    // already holds a prefix of the committed writes in place converges
    // to the same bytes.
    #[test]
    fn delta_and_full_image_logs_recover_to_the_same_bytes(
        steps in prop::collection::vec(step_strategy(), 1..40),
        tear in 1u64..=28,
        flushed_prefix in 0usize..40,
        seed in 0u64..1_000_000,
    ) {
        let base = pre_image();
        let (delta_dir, full_dir, mut written) = run_both(&format!("prop{seed}"), &steps);
        let want = written.oracle(&base);
        let from_deltas = recovered(&delta_dir, &base);
        prop_assert!(from_deltas == recovered(&full_dir, &base), "logs differ");
        prop_assert!(from_deltas == want, "not the oracle");

        // Idempotent: a second replay over the result is a no-op.
        prop_assert!(recovered(&delta_dir, &from_deltas) == want);

        // An image that already has the first few committed writes in
        // place (what a write-back before the crash leaves) converges.
        let mut partly = base.clone();
        for (txn, page, after) in written.writes.iter().take(flushed_prefix) {
            if written.committed.contains(txn) {
                partly[*page as usize] = after.clone();
            }
        }
        prop_assert!(recovered(&delta_dir, &partly) == want);

        // Tear the last record off both logs (at most 28 bytes: less than
        // the smallest record, a 29-byte commit). If it was a commit, its
        // transaction no longer counts; if it was a write, its transaction
        // had not committed anyway.
        if last_record_is_commit(&delta_dir) {
            written.committed.pop();
        }
        for dir in [&delta_dir, &full_dir] {
            let scan = scan_dir(dir).unwrap();
            let last = scan.segments.last().unwrap();
            if last.bytes > 16 {
                let f = std::fs::OpenOptions::new().write(true).open(&last.path).unwrap();
                f.set_len(last.bytes - tear.min(last.bytes - 16)).unwrap();
            }
        }
        let want = written.oracle(&base);
        let torn = recovered(&delta_dir, &base);
        prop_assert!(torn == recovered(&full_dir, &base), "torn logs differ");
        prop_assert!(torn == want, "torn log is not the oracle");

        std::fs::remove_dir_all(&delta_dir).ok();
        std::fs::remove_dir_all(&full_dir).ok();
    }
}

/// True if the last record of the log in `dir` is a commit marker.
fn last_record_is_commit(dir: &Path) -> bool {
    let mut last = false;
    visit_records(dir, |r| {
        last = matches!(r.payload, WalPayload::Commit);
        Ok(())
    })
    .expect("scan");
    last
}
