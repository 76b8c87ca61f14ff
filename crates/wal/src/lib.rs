//! `tfm-wal` — the durability subsystem of the reproduction's write path.
//!
//! An append-only, checksummed, LSN-stamped **redo log** in rotating
//! segment files, plus the replay that brings a data image forward after
//! a crash. Together with the dirty tier of
//! [`tfm_storage::SharedPageCache`] it implements classic
//! WAL-before-data:
//!
//! 1. a mutation logs every page write
//!    ([`Wal::log_change`](tfm_storage::RedoLog::log_change) via
//!    `tfm_storage::LoggedPages`), each record stamped with an LSN: a
//!    page's first record since the log was opened or truncated is its
//!    full after-image, later ones carry the bytes that differ from the
//!    page's previous bytes — what the cache held, or what the writer
//!    kept from its own last write (see `record.rs` for the format and
//!    [`Wal`] for the rule that decides);
//! 2. the new bytes land in the shared cache's dirty tier carrying that
//!    LSN — the data disk is untouched;
//! 3. commit appends a commit marker and fsyncs the current segment
//!    under the append lock: one fsync per commit, durable on return;
//! 4. dirty frames reach the disk only through
//!    `SharedPageCache::flush_dirty(durable_lsn)`, whose gate keeps any
//!    page whose record is not yet durable in memory. The write path
//!    calls it when the dirty tier has grown to half the cache, and at a
//!    checkpoint, which then truncates the log
//!    ([`RedoLog::checkpoint`](tfm_storage::RedoLog::checkpoint)).
//!
//! After a crash, [`recover`] reads the log once — every segment with one
//! read, every record decoded and checksum-verified once, stopping at the
//! torn tail the dying append left behind — and holds it while it
//! collects the committed transaction set. It then brings each page those
//! transactions wrote forward in memory in LSN order and writes the pages
//! once, in ascending order, as runs of consecutive page ids.
//! Records carry bytes, not operations, and every page's chain of deltas
//! starts at a full image in the log, so replay is idempotent and never
//! depends on what an interrupted in-place write left of a page;
//! uncommitted work is simply never written. Reopening the [`Wal`]
//! truncates the torn tail and resumes numbering.
//!
//! The no-steal contract: callers only flush state whose transactions
//! committed (the mutable layers flush at batch boundaries), so the log
//! never needs undo records.

#![warn(missing_docs)]

mod reader;
mod record;
mod recover;
mod writer;

pub use reader::{scan_dir, segment_path, visit_records, ScanReport, SegmentInfo};
pub use record::{diff_pages, WalPayload, WalRecord};
pub use recover::{recover, RecoveryReport};
pub use writer::{Wal, WalOptions, WalStats};

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use tfm_storage::{Disk, DiskBackendKind, DiskModel, MemStore, PageId, PageStore, RedoLog};

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "tfm_wal_{}_{}_{:?}",
            tag,
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn small_opts() -> WalOptions {
        WalOptions {
            segment_bytes: 4096,
        }
    }

    fn page(fill: u8, len: usize) -> Vec<u8> {
        vec![fill; len]
    }

    #[test]
    fn committed_pages_replay_onto_a_fresh_disk() {
        let dir = temp_dir("replay");
        let wal = Wal::open(&dir, small_opts()).unwrap();
        let t1 = wal.begin();
        wal.log_page(t1, PageId(0), &page(1, 64));
        wal.log_page(t1, PageId(2), &page(3, 64));
        wal.commit(t1);
        // Transaction 2 never commits: its write must not replay.
        let t2 = wal.begin();
        wal.log_page(t2, PageId(1), &page(9, 64));
        drop(wal);

        let disk = Disk::in_memory(64).with_model(DiskModel::free());
        let report = recover(&dir, &disk).unwrap();
        assert_eq!(report.pages_replayed, 2);
        assert_eq!(report.skipped_uncommitted, 1);
        assert_eq!(report.commits, 1);
        assert!(!report.torn_tail);
        assert_eq!(disk.read_page_vec(PageId(0)), page(1, 64));
        assert_eq!(disk.read_page_vec(PageId(2)), page(3, 64));
        assert_eq!(
            disk.read_page_vec(PageId(1)),
            page(0, 64),
            "uncommitted absent"
        );

        // Idempotence: a second replay converges to the same image.
        let again = recover(&dir, &disk).unwrap();
        assert_eq!(again.pages_replayed, 2);
        assert_eq!(disk.read_page_vec(PageId(0)), page(1, 64));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_spreads_records_over_segments_and_replays_in_order() {
        let dir = temp_dir("rotate");
        let wal = Wal::open(&dir, small_opts()).unwrap();
        // Each record is ~64+37 bytes; hundreds of them cross several
        // 4 KiB segments. Later writes to the same page must win.
        for round in 0..10u8 {
            let t = wal.begin();
            for p in 0..20u64 {
                wal.log_page(t, PageId(p), &page(round * 20 + p as u8, 64));
            }
            wal.commit(t);
        }
        assert!(wal.stats().segments > 2, "{:?}", wal.stats());
        drop(wal);
        let disk = Disk::in_memory(64).with_model(DiskModel::free());
        recover(&dir, &disk).unwrap();
        for p in 0..20u64 {
            assert_eq!(disk.read_page_vec(PageId(p))[0], 9 * 20 + p as u8);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_detected_skipped_and_repaired_on_reopen() {
        let dir = temp_dir("torn");
        {
            let wal = Wal::open(&dir, small_opts()).unwrap();
            let t = wal.begin();
            wal.log_page(t, PageId(0), &page(1, 64));
            wal.commit(t);
            let t = wal.begin();
            wal.log_page(t, PageId(0), &page(2, 64));
            wal.commit(t);
        }
        // Tear the last record by chopping bytes off the newest segment.
        let scan = scan_dir(&dir).unwrap();
        let last = scan.segments.last().unwrap();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&last.path)
            .unwrap();
        f.set_len(last.bytes - 5).unwrap();
        drop(f);

        let disk = Disk::in_memory(64).with_model(DiskModel::free());
        let report = recover(&dir, &disk).unwrap();
        assert!(report.torn_tail);
        // The torn commit never happened: only txn 1's state replays.
        assert_eq!(disk.read_page_vec(PageId(0)), page(1, 64));

        // Reopen truncates the tear and writing continues cleanly.
        let wal = Wal::open(&dir, small_opts()).unwrap();
        let t = wal.begin();
        assert!(t >= 2, "txn numbering resumes past the old log");
        wal.log_page(t, PageId(0), &page(7, 64));
        wal.commit(t);
        drop(wal);
        let report = recover(&dir, &disk).unwrap();
        assert!(!report.torn_tail, "tear was repaired");
        assert_eq!(disk.read_page_vec(PageId(0)), page(7, 64));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_committers_are_each_durable_and_recover_idempotently() {
        let dir = temp_dir("concurrent");
        let wal = Wal::open(&dir, small_opts()).unwrap();
        let (threads, txns) = (4u64, 10u64);
        // Every thread commits from the same start, so commits queue on
        // the append lock while another one fsyncs.
        let start = std::sync::Barrier::new(threads as usize);
        // (txn, LSN its commit returned) for every commit.
        let returned: Vec<(u64, u64)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|w| {
                    let (wal, start) = (&wal, &start);
                    s.spawn(move || {
                        start.wait();
                        (0..txns)
                            .map(|i| {
                                let t = wal.begin();
                                let p = w * 100 + i;
                                wal.log_page(t, PageId(p), &page(p as u8 + 1, 64));
                                wal.log_page(t, PageId(p + 50), &page(p as u8 + 2, 64));
                                let durable = wal.commit(t);
                                assert!(wal.durable_lsn() >= durable);
                                (t, durable)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let stats = wal.stats();
        assert_eq!(stats.commits, threads * txns);
        assert_eq!(stats.fsyncs, stats.commits, "one fsync per commit");
        assert_eq!(stats.records, threads * txns * 3);
        drop(wal);

        let mut commit_lsn = std::collections::HashMap::new();
        visit_records(&dir, |r| {
            if matches!(r.payload, WalPayload::Commit) {
                commit_lsn.insert(r.txn, r.lsn);
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(returned.len() as u64, threads * txns);
        for &(t, durable) in &returned {
            assert!(
                durable >= commit_lsn[&t],
                "txn {t} returned {durable} before its commit"
            );
        }

        let disk = Disk::in_memory(64).with_model(DiskModel::free());
        let report = recover(&dir, &disk).unwrap();
        assert_eq!(report.commits, threads * txns);
        assert_eq!(report.pages_replayed, threads * txns * 2);
        assert_eq!(report.skipped_uncommitted, 0);
        assert!(!report.torn_tail);
        let image: Vec<Vec<u8>> = (0..disk.allocated_pages())
            .map(|p| disk.read_page_vec(PageId(p)))
            .collect();
        for w in 0..threads {
            for i in 0..txns {
                let p = w * 100 + i;
                assert_eq!(image[p as usize], page(p as u8 + 1, 64), "page {p}");
                assert_eq!(
                    image[p as usize + 50],
                    page(p as u8 + 2, 64),
                    "page {}",
                    p + 50
                );
            }
        }

        let again = recover(&dir, &disk).unwrap();
        assert_eq!(again.pages_replayed, report.pages_replayed);
        assert_eq!(disk.allocated_pages(), image.len() as u64);
        for (p, bytes) in image.iter().enumerate() {
            assert_eq!(
                &disk.read_page_vec(PageId(p as u64)),
                bytes,
                "page {p} moved"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_truncate_drops_replayed_segments() {
        let dir = temp_dir("ckpt");
        let disk = Disk::in_memory(64).with_model(DiskModel::free());
        let _ = disk.allocate_contiguous(8);
        let wal = Wal::open(&dir, small_opts()).unwrap();
        for p in 0..8u64 {
            let t = wal.begin();
            wal.log_page(t, PageId(p), &page(p as u8 + 1, 64));
            wal.commit(t);
        }
        // Checkpoint: everything durable is flushed by hand here, then
        // the old segments go away.
        for p in 0..8u64 {
            disk.write_page(PageId(p), &page(p as u8 + 1, 64));
        }
        disk.sync().unwrap();
        let removed = wal.checkpoint_truncate().unwrap();
        assert!(removed >= 1);
        // Replay of the truncated log is a no-op, and the image is intact.
        let report = recover(&dir, &disk).unwrap();
        assert_eq!(report.pages_replayed, 0);
        for p in 0..8u64 {
            assert_eq!(disk.read_page_vec(PageId(p))[0], p as u8 + 1);
        }
        // The log keeps working after a checkpoint.
        let t = wal.begin();
        wal.log_page(t, PageId(0), &page(99, 64));
        wal.commit(t);
        drop(wal);
        let report = recover(&dir, &disk).unwrap();
        assert_eq!(report.pages_replayed, 1);
        assert_eq!(disk.read_page_vec(PageId(0))[0], 99);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_resumes_lsn_numbering() {
        let dir = temp_dir("resume");
        let first_durable;
        {
            let wal = Wal::open(&dir, small_opts()).unwrap();
            let t = wal.begin();
            wal.log_page(t, PageId(0), &page(1, 64));
            first_durable = wal.commit(t);
        }
        {
            let wal = Wal::open(&dir, small_opts()).unwrap();
            assert_eq!(wal.durable_lsn(), first_durable);
            let t = wal.begin();
            let lsn = wal.log_page(t, PageId(1), &page(2, 64));
            assert!(lsn > first_durable, "LSNs continue past the old log");
            wal.commit(t);
        }
        let disk = Disk::in_memory(64).with_model(DiskModel::free());
        let report = recover(&dir, &disk).unwrap();
        assert_eq!(report.pages_replayed, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_publish_under_wal_names() {
        let dir = temp_dir("metrics");
        let wal = Wal::open(&dir, small_opts()).unwrap();
        let t = wal.begin();
        wal.log_page(t, PageId(0), &page(1, 64));
        let mut changed = page(1, 64);
        changed[5] = 9;
        wal.log_change(t, PageId(0), &page(1, 64), &changed);
        wal.commit(t);
        let reg = tfm_obs::MetricsRegistry::new();
        reg.set_enabled(true);
        wal.publish_metrics(&reg);
        assert_eq!(reg.counter(tfm_obs::names::WAL_RECORDS).get(), 3);
        assert_eq!(reg.counter(tfm_obs::names::WAL_FULL_RECORDS).get(), 1);
        assert_eq!(reg.counter(tfm_obs::names::WAL_DELTA_RECORDS).get(), 1);
        // frame 12 + lsn/kind/txn 17 + page 8 + one run (8 + 1 byte).
        assert_eq!(reg.counter(tfm_obs::names::WAL_DELTA_BYTES).get(), 46);
        assert!(reg.counter(tfm_obs::names::WAL_BYTES).get() > 64);
        assert_eq!(reg.counter(tfm_obs::names::WAL_COMMITS).get(), 1);
        assert_eq!(reg.counter(tfm_obs::names::WAL_FSYNCS).get(), 1);
        let disk = Disk::in_memory(64).with_model(DiskModel::free());
        let report = recover(wal.dir(), &disk).unwrap();
        report.publish(&reg);
        assert_eq!(reg.counter(tfm_obs::names::WAL_RECOVERY_REPLAYED).get(), 1);
        assert_eq!(
            reg.counter(tfm_obs::names::WAL_RECOVERY_RUNS_WRITTEN).get(),
            1
        );
        assert_eq!(
            reg.counter(tfm_obs::names::WAL_RECOVERY_BYTES_SCANNED)
                .get(),
            report.bytes_scanned
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn later_lsn_wins_whatever_the_commit_order() {
        let dir = temp_dir("order");
        let wal = Wal::open(&dir, small_opts()).unwrap();
        let (t1, t2, t3) = (wal.begin(), wal.begin(), wal.begin());
        wal.log_page(t1, PageId(4), &page(1, 64));
        wal.log_page(t2, PageId(4), &page(2, 64));
        // T3 never commits: its write, the latest, is skipped.
        wal.log_page(t3, PageId(4), &page(3, 64));
        wal.commit(t2);
        wal.commit(t1);
        drop(wal);

        let disk = Disk::in_memory(64).with_model(DiskModel::free());
        let report = recover(&dir, &disk).unwrap();
        // Replayed in commit order, T1's image would land last.
        assert_eq!(disk.read_page_vec(PageId(4)), page(2, 64));
        assert_eq!(report.records_applied, 2);
        assert_eq!(report.skipped_uncommitted, 1);
        assert_eq!(report.commits, 2);
        assert_eq!(report.pages_replayed, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_torn_record_in_a_non_final_segment_is_an_error_and_writes_nothing() {
        let dir = temp_dir("midtear");
        let wal = Wal::open(&dir, small_opts()).unwrap();
        for round in 0..4u8 {
            let t = wal.begin();
            for p in 0..20u64 {
                wal.log_page(t, PageId(p), &page(round + 1, 64));
            }
            wal.commit(t);
        }
        drop(wal);
        let scan = scan_dir(&dir).unwrap();
        assert!(scan.segments.len() > 2, "{:?}", scan.segments);
        // Flip a byte inside the first segment's last record.
        let first = &scan.segments[0];
        let mut bytes = std::fs::read(&first.path).unwrap();
        let at = first.valid_end as usize - 3;
        bytes[at] ^= 0xff;
        std::fs::write(&first.path, &bytes).unwrap();

        let disk = Disk::in_memory(64).with_model(DiskModel::free());
        let err = recover(&dir, &disk).expect_err("a tear before the last segment");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("non-final segment"), "{err}");
        assert_eq!(disk.allocated_pages(), 0, "nothing was replayed");
        assert_eq!(disk.stats().rand_writes + disk.stats().seq_writes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A `MemStore` that counts its write calls and fails a write once
    /// `budget` pages have been written, having written the pages the
    /// budget still covered.
    struct BudgetStore {
        inner: MemStore,
        budget: Arc<AtomicU64>,
        writes: Arc<AtomicU64>,
    }

    impl BudgetStore {
        fn disk(budget: u64) -> (Disk, Arc<AtomicU64>, Arc<AtomicU64>) {
            let (budget, writes) = (Arc::new(AtomicU64::new(budget)), Arc::default());
            let store = Self {
                inner: MemStore::new(),
                budget: Arc::clone(&budget),
                writes: Arc::clone(&writes),
            };
            let disk = Disk::with_store(Box::new(store), 64).with_model(DiskModel::free());
            (disk, budget, writes)
        }
    }

    impl PageStore for BudgetStore {
        fn kind(&self) -> DiskBackendKind {
            self.inner.kind()
        }

        fn read_page(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
            self.inner.read_page(offset, buf)
        }

        fn write_page(&self, offset: u64, page: &[u8]) -> std::io::Result<()> {
            self.write_pages(offset, page, page.len())
        }

        fn write_pages(&self, offset: u64, pages: &[u8], page_size: usize) -> std::io::Result<()> {
            self.writes.fetch_add(1, Ordering::Relaxed);
            let count = (pages.len() / page_size) as u64;
            let left = self.budget.load(Ordering::Relaxed);
            let written = count.min(left);
            self.budget.store(left - written, Ordering::Relaxed);
            let bytes = written as usize * page_size;
            self.inner.write_pages(offset, &pages[..bytes], page_size)?;
            if written < count {
                return Err(std::io::Error::other("injected write failure"));
            }
            Ok(())
        }

        fn len(&self) -> u64 {
            self.inner.len()
        }
    }

    #[test]
    fn replayed_pages_are_written_as_runs_of_consecutive_ids() {
        let dir = temp_dir("runs");
        let wal = Wal::open(&dir, small_opts()).unwrap();
        let t = wal.begin();
        for p in [9, 4, 3, 5, 4] {
            wal.log_page(t, PageId(p), &page(p as u8, 64));
        }
        wal.commit(t);
        // Uncommitted, page 7 would split 3..=9's gap into a third run.
        let open = wal.begin();
        wal.log_page(open, PageId(7), &page(7, 64));
        drop(wal);

        let (disk, _, writes) = BudgetStore::disk(u64::MAX);
        let report = recover(&dir, &disk).unwrap();
        assert_eq!(report.pages_replayed, 4);
        assert_eq!(report.runs_written, 2, "3..=5 and 9");
        assert_eq!(writes.load(Ordering::Relaxed), 2, "one store write per run");
        let stats = disk.stats();
        assert_eq!((stats.rand_writes, stats.seq_writes), (2, 2));
        for p in [3, 4, 5, 9] {
            assert_eq!(disk.read_page_vec(PageId(p)), page(p as u8, 64));
        }
        assert_eq!(disk.read_page_vec(PageId(7)), page(0, 64));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_replay_write_is_an_error_and_a_later_recovery_converges() {
        let dir = temp_dir("failwrite");
        let wal = Wal::open(&dir, small_opts()).unwrap();
        // Three runs of five pages, each page written twice, the second
        // time as a delta on the first.
        for round in 1..=2u8 {
            let t = wal.begin();
            for p in (0..5).chain(10..15).chain(20..25u64) {
                let mut after = page(p as u8, 64);
                after[p as usize] = round;
                if round == 1 {
                    wal.log_page(t, PageId(p), &after);
                } else {
                    let mut before = after.clone();
                    before[p as usize] = 1;
                    wal.log_change(t, PageId(p), &before, &after);
                }
            }
            wal.commit(t);
        }
        drop(wal);

        let good = Disk::in_memory(64).with_model(DiskModel::free());
        let reference = recover(&dir, &good).unwrap();
        assert_eq!(reference.runs_written, 3);
        let pages = good.allocated_pages();
        for k in 0..15 {
            let (disk, budget, _) = BudgetStore::disk(k);
            let err = recover(&dir, &disk).expect_err("a write past the budget fails");
            assert_eq!(err.kind(), std::io::ErrorKind::Other, "budget {k}");
            // The fault clears; recovering again over what the failed
            // pass left converges to the reference image.
            budget.store(u64::MAX, Ordering::Relaxed);
            let again = recover(&dir, &disk).unwrap();
            assert_eq!(
                (
                    again.pages_replayed,
                    again.records_applied,
                    again.runs_written
                ),
                (reference.pages_replayed, reference.records_applied, 3)
            );
            for p in 0..pages {
                assert_eq!(
                    disk.read_page_vec(PageId(p)),
                    good.read_page_vec(PageId(p)),
                    "budget {k}, page {p}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
