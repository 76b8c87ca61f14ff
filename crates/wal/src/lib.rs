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
//! 3. commit appends a commit marker and fsyncs (group commit: one fsync
//!    covers every record appended by then, so concurrent committers
//!    share the flush);
//! 4. dirty frames reach the disk only through
//!    `SharedPageCache::flush_dirty(durable_lsn)`, whose gate keeps any
//!    page whose record is not yet durable in memory. The write path
//!    calls it when the dirty tier has grown to half the cache, and at a
//!    checkpoint, which then truncates the log
//!    ([`RedoLog::checkpoint`](tfm_storage::RedoLog::checkpoint)).
//!
//! After a crash, [`recover`] scans the segments (stopping at the torn
//! tail the dying append left behind — every record is individually
//! checksummed), collects the committed transaction set, brings each
//! page they wrote forward in memory in LSN order and writes it once.
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
pub use writer::{SyncMode, Wal, WalOptions, WalStats};

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::time::Duration;
    use tfm_storage::{Disk, DiskModel, PageId, RedoLog};

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
            ..WalOptions::default()
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
    fn group_commit_shares_fsyncs_across_committers() {
        let dir = temp_dir("group");
        let wal = Wal::open(
            &dir,
            WalOptions {
                fsync_latency: Duration::from_millis(2),
                ..WalOptions::default()
            },
        )
        .unwrap();
        let threads = 4;
        let commits_per_thread = 10;
        std::thread::scope(|s| {
            for w in 0..threads {
                let wal = &wal;
                s.spawn(move || {
                    for i in 0..commits_per_thread {
                        let t = wal.begin();
                        wal.log_page(t, PageId((w * 100 + i) as u64), &page(w as u8, 64));
                        let durable = wal.commit(t);
                        assert!(durable > 0);
                    }
                });
            }
        });
        let stats = wal.stats();
        assert_eq!(stats.commits, (threads * commits_per_thread) as u64);
        assert!(
            stats.fsyncs < stats.commits,
            "group commit must batch: {} fsyncs for {} commits",
            stats.fsyncs,
            stats.commits
        );
        let batches = wal.batch_sizes();
        assert!(batches.iter().any(|&b| b > 1), "{batches:?}");
        assert_eq!(batches.iter().sum::<u64>(), stats.records);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn each_commit_mode_fsyncs_every_commit() {
        let dir = temp_dir("each");
        let wal = Wal::open(
            &dir,
            WalOptions {
                sync_mode: SyncMode::EachCommit,
                ..WalOptions::default()
            },
        )
        .unwrap();
        for i in 0..5u64 {
            let t = wal.begin();
            wal.log_page(t, PageId(i), &page(i as u8, 64));
            wal.commit(t);
        }
        assert!(wal.stats().fsyncs >= 5, "{:?}", wal.stats());
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
        assert!(reg.counter(tfm_obs::names::WAL_FSYNCS).get() >= 1);
        let disk = Disk::in_memory(64).with_model(DiskModel::free());
        let report = recover(wal.dir(), &disk).unwrap();
        report.publish(&reg);
        assert_eq!(reg.counter(tfm_obs::names::WAL_RECOVERY_REPLAYED).get(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
