//! Redo replay: bringing a data disk forward to the log's committed state.
//!
//! Recovery reads the log **once**. Which transactions count is known
//! only at the end of the log, and replay is in LSN order, so the log is
//! held: every segment file is read into memory with one read, every
//! record is decoded and its checksum verified once, and the page records
//! are kept as an index into the held bytes (transaction, page, kind and
//! body) while the commit set is collected. Replay then walks that index
//! in LSN order, skipping the records of transactions that never
//! committed.
//!
//! The memory bound is the log itself plus one copy of each replayed
//! page: the segments' bytes, some 50 bytes of index per record, and the
//! replayed pages in one arena. Under `tfm mutate`, which checkpoints
//! every `CHECKPOINT_LOG_BYTES` (16 MiB) of log, the log is at most that
//! interval plus one segment (4 MiB); a log that is never checkpointed is
//! held whole.
//!
//! The arena's slots are in ascending page order, so a stretch of
//! consecutive page ids is one contiguous slice of it: the replayed pages
//! go to the disk as maximal runs, each one [`Disk::write_run`] (one data
//! write and, on a checksummed store, one `.sums` write), and the disk is
//! synced once at the end.

use crate::reader::{invalid, read_log};
use crate::record::{apply_patch, WalPayload, WalRecord};
use std::collections::HashSet;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};
use tfm_storage::{Disk, PageId};

/// What a [`recover`] pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Complete records scanned from the log.
    pub records_scanned: u64,
    /// Distinct pages brought forward and written to the disk, once each.
    pub pages_replayed: u64,
    /// Committed page records (full images and deltas) applied to those
    /// pages in memory.
    pub records_applied: u64,
    /// Page records skipped because their transaction never committed.
    pub skipped_uncommitted: u64,
    /// Commit records seen (= committed transactions).
    pub commits: u64,
    /// True when the log ended in a torn record (a crash mid-append).
    pub torn_tail: bool,
    /// Highest LSN in the log (0 when empty).
    pub max_lsn: u64,
    /// Bytes of log scanned (segment headers and framing included).
    pub bytes_scanned: u64,
    /// Maximal runs of consecutive page ids the replayed pages were
    /// written as: one [`Disk::write_run`] each.
    pub runs_written: u64,
    /// Wall time of reading the segments and decoding and verifying
    /// their records.
    pub scan_time: Duration,
    /// Wall time of bringing the committed pages forward in memory.
    pub replay_time: Duration,
    /// Wall time of writing the replayed pages to the disk.
    pub write_time: Duration,
    /// Wall time of syncing the disk.
    pub sync_time: Duration,
}

impl RecoveryReport {
    /// Publishes the replay counters and the stage times into `reg`
    /// under `wal.recovery.*`.
    pub fn publish(&self, reg: &tfm_obs::MetricsRegistry) {
        use tfm_obs::names;
        let nanos = |d: Duration| d.as_nanos() as u64;
        for (name, value) in [
            (names::WAL_RECOVERY_REPLAYED, self.pages_replayed),
            (names::WAL_RECOVERY_SKIPPED, self.skipped_uncommitted),
            (names::WAL_RECOVERY_BYTES_SCANNED, self.bytes_scanned),
            (names::WAL_RECOVERY_RUNS_WRITTEN, self.runs_written),
            (names::WAL_RECOVERY_SCAN_NANOS, nanos(self.scan_time)),
            (names::WAL_RECOVERY_REPLAY_NANOS, nanos(self.replay_time)),
            (names::WAL_RECOVERY_WRITE_NANOS, nanos(self.write_time)),
            (names::WAL_RECOVERY_SYNC_NANOS, nanos(self.sync_time)),
        ] {
            reg.counter(name).add(value);
        }
    }
}

/// Replays the log in `dir` against `disk`. Each page a *committed*
/// transaction wrote is brought forward in memory, record by record in
/// LSN order — a full image replaces the page, a delta patches it — and
/// then written to the disk once, in ascending page order, before the
/// disk is synced. Records of transactions without a commit record —
/// including everything at and after a torn tail — are skipped:
/// uncommitted work vanishes, which is the atomicity contract.
///
/// A page's first record since the log was opened or truncated is a full
/// image (the writer's rule), so replay does not read the disk: whatever
/// an interrupted in-place write left of a page, it is overwritten whole.
/// Only a delta with no image before it in the scanned log — a crash
/// while a checkpoint was deleting segments, after it had synced every
/// page — starts from the page on the disk.
///
/// Replay is **idempotent**: records carry bytes, not operations, so
/// running recovery any number of times (including over a disk that
/// already has some or all of the writes) converges to the same image.
/// The log is not modified; torn-tail truncation happens when the
/// [`crate::Wal`] is next opened.
///
/// A missing directory is an empty log (fresh start, nothing to do). A
/// tear anywhere but the final segment is mid-log corruption and errors,
/// as does a record that does not fit the disk's pages, and so does a
/// failed write or sync of the disk (a later recovery starts over).
pub fn recover(dir: &Path, disk: &Disk) -> io::Result<RecoveryReport> {
    let started = Instant::now();
    let log = read_log(dir)?;
    let mut committed: HashSet<u64> = HashSet::new();
    let mut writes: Vec<WalRecord<'_>> = Vec::new();
    let scan = log.visit(|record| {
        match record.payload {
            WalPayload::Commit => {
                committed.insert(record.txn);
            }
            WalPayload::Page { .. } | WalPayload::Delta { .. } => writes.push(*record),
        }
        Ok(())
    })?;
    if let Some(torn) = scan.torn {
        if torn != scan.segments.len() - 1 {
            return Err(invalid(format!(
                "torn record in non-final segment {} of {} — mid-log corruption",
                scan.segments[torn].seq,
                dir.display()
            )));
        }
    }
    let scanned = writes.len() as u64;
    writes.retain(|record| committed.contains(&record.txn));
    let mut report = RecoveryReport {
        records_scanned: scan.records,
        records_applied: writes.len() as u64,
        skipped_uncommitted: scanned - writes.len() as u64,
        commits: committed.len() as u64,
        torn_tail: scan.torn.is_some(),
        max_lsn: scan.max_lsn,
        bytes_scanned: scan.bytes_scanned,
        scan_time: started.elapsed(),
        ..RecoveryReport::default()
    };

    let t = Instant::now();
    let page_size = disk.page_size();
    let mut pages: Vec<u64> = writes.iter().map(page_of).collect();
    pages.sort_unstable();
    pages.dedup();
    // Slot `i` of the arena is page `pages[i]`; `filled[i]` once a record
    // has given it its bytes.
    let mut arena = vec![0u8; pages.len() * page_size];
    let mut filled = vec![false; pages.len()];
    for record in &writes {
        let page = page_of(record);
        let slot = pages
            .binary_search(&page)
            .expect("every page written has a slot");
        let buf = &mut arena[slot * page_size..][..page_size];
        match record.payload {
            WalPayload::Page { image, .. } => {
                if image.len() > page_size {
                    return Err(invalid(format!(
                        "record {} holds a {}-byte image of page {page}; pages are {page_size} bytes",
                        record.lsn,
                        image.len()
                    )));
                }
                let (head, tail) = buf.split_at_mut(image.len());
                head.copy_from_slice(image);
                tail.fill(0);
            }
            WalPayload::Delta { patch, .. } => {
                if !filled[slot] {
                    disk.ensure_allocated(page + 1);
                    disk.read_page(PageId(page), buf);
                }
                apply_patch(patch, buf).map_err(|e| {
                    invalid(format!(
                        "record {} patches page {page} outside its {page_size} bytes: {e:?}",
                        record.lsn
                    ))
                })?;
            }
            WalPayload::Commit => unreachable!("commits are not kept as writes"),
        }
        filled[slot] = true;
    }
    report.pages_replayed = pages.len() as u64;
    report.replay_time = t.elapsed();

    let t = Instant::now();
    if let Some(&last) = pages.last() {
        disk.ensure_allocated(last + 1);
    }
    let mut slot = 0;
    for run in pages.chunk_by(|a, b| a + 1 == *b) {
        let end = slot + run.len();
        disk.write_run(PageId(run[0]), &arena[slot * page_size..end * page_size])?;
        report.runs_written += 1;
        slot = end;
    }
    report.write_time = t.elapsed();

    let t = Instant::now();
    disk.sync()?;
    report.sync_time = t.elapsed();
    Ok(report)
}

/// The page a page record (image or delta) writes.
fn page_of(record: &WalRecord<'_>) -> u64 {
    match record.payload {
        WalPayload::Page { page, .. } | WalPayload::Delta { page, .. } => page,
        WalPayload::Commit => unreachable!("a commit writes no page"),
    }
}
