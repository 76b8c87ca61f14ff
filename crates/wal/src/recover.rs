//! Redo replay: bringing a data disk forward to the log's committed state.

use crate::reader::{invalid, visit_records};
use crate::record::{apply_patch, WalPayload};
use std::collections::{BTreeMap, HashSet};
use std::io;
use std::path::Path;
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
}

impl RecoveryReport {
    /// Publishes the replay counters into `reg` under `wal.recovery.*`.
    pub fn publish(&self, reg: &tfm_obs::MetricsRegistry) {
        use tfm_obs::names;
        reg.counter(names::WAL_RECOVERY_REPLAYED)
            .add(self.pages_replayed);
        reg.counter(names::WAL_RECOVERY_SKIPPED)
            .add(self.skipped_uncommitted);
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
/// as does a record that does not fit the disk's pages.
pub fn recover(dir: &Path, disk: &Disk) -> io::Result<RecoveryReport> {
    // Which transactions count is known only at the end of the log, and
    // replay is in LSN order: the log is scanned twice, a segment at a
    // time, rather than held.
    let mut committed: HashSet<u64> = HashSet::new();
    let scan = visit_records(dir, |record| {
        if matches!(record.payload, WalPayload::Commit) {
            committed.insert(record.txn);
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
    let mut report = RecoveryReport {
        records_scanned: scan.records,
        commits: committed.len() as u64,
        torn_tail: scan.torn.is_some(),
        max_lsn: scan.max_lsn,
        ..RecoveryReport::default()
    };

    let page_size = disk.page_size();
    let mut pages: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    visit_records(dir, |record| {
        let (WalPayload::Page { page, .. } | WalPayload::Delta { page, .. }) = record.payload
        else {
            return Ok(());
        };
        if !committed.contains(&record.txn) {
            report.skipped_uncommitted += 1;
            return Ok(());
        }
        report.records_applied += 1;
        match record.payload {
            WalPayload::Page { image, .. } => {
                if image.len() > page_size {
                    return Err(invalid(format!(
                        "record {} holds a {}-byte image of page {page}; pages are {page_size} bytes",
                        record.lsn,
                        image.len()
                    )));
                }
                let buf = pages.entry(page).or_default();
                buf.clear();
                buf.extend_from_slice(image);
                buf.resize(page_size, 0);
            }
            WalPayload::Delta { patch, .. } => {
                let buf = pages.entry(page).or_insert_with(|| {
                    disk.ensure_allocated(page + 1);
                    disk.read_page_vec(PageId(page))
                });
                apply_patch(patch, buf).map_err(|e| {
                    invalid(format!(
                        "record {} patches page {page} outside its {page_size} bytes: {e:?}",
                        record.lsn
                    ))
                })?;
            }
            WalPayload::Commit => {}
        }
        Ok(())
    })?;

    for (&page, buf) in &pages {
        disk.ensure_allocated(page + 1);
        disk.write_page(PageId(page), buf);
    }
    report.pages_replayed = pages.len() as u64;
    disk.sync()?;
    Ok(report)
}
