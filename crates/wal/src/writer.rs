//! The append side: segmented log files, group commit, crash injection.

use crate::reader::{scan_dir, segment_path};
use crate::record::{
    diff_pages, encode_record, encode_segment_header, WalPayload, WalRecord, SEGMENT_HEADER_BYTES,
};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use tfm_storage::{PageId, RedoLog};

/// When `commit` fsyncs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncMode {
    /// Group commit: a commit whose LSN another thread's fsync already
    /// covered returns without its own fsync; otherwise one fsync makes
    /// every record appended so far durable. The default.
    #[default]
    GroupCommit,
    /// One fsync per commit, unconditionally — the ablation baseline
    /// `bench_wal` compares group commit against.
    EachCommit,
}

/// Tunables of a [`Wal`].
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// Rotate to a fresh segment once the current one exceeds this many
    /// bytes (checked at record boundaries; records are never split).
    pub segment_bytes: u64,
    /// Injected fsync latency: slept while holding the sync lock before
    /// every fsync. Zero (the default) injects nothing; benchmarks use it
    /// to make group-commit batching measurable on hosts whose fsync is
    /// nearly free (tmpfs CI runners).
    pub fsync_latency: Duration,
    /// When `commit` fsyncs.
    pub sync_mode: SyncMode,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self {
            segment_bytes: 4 << 20,
            fsync_latency: Duration::ZERO,
            sync_mode: SyncMode::GroupCommit,
        }
    }
}

/// Point-in-time writer counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (page images, deltas and commit markers).
    pub records: u64,
    /// Page records appended as a full after-image.
    pub full_records: u64,
    /// Page records appended as byte-range deltas.
    pub delta_records: u64,
    /// Bytes of the delta records, framing included (a part of `bytes`).
    pub delta_bytes: u64,
    /// Record bytes appended, framing included (segment headers excluded).
    pub bytes: u64,
    /// fsyncs issued against segment files by commit/sync calls.
    pub fsyncs: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Live segment files.
    pub segments: u64,
}

struct Inner {
    file: File,
    seg_seq: u64,
    seg_bytes: u64,
    next_lsn: u64,
    /// Seqs of all live segments, oldest first (current one last).
    segments: Vec<u64>,
    /// Record bytes appended over the log's lifetime (crash-hook clock).
    total_bytes: u64,
    /// Crash injection: abort the process once total appended record
    /// bytes would exceed this, writing only the bytes up to it.
    crash_after_bytes: Option<u64>,
    scratch: Vec<u8>,
    /// Scratch for the patch of a delta record.
    patch: Vec<u8>,
    /// Transactions begun and not yet committed.
    open: HashSet<u64>,
    /// Pages with a full image in the live segments — logged since the
    /// log was opened or last truncated — each with the transaction of
    /// its latest record. Only such a page may be logged as a delta, and
    /// only on top of a record replay is certain to apply: one of the
    /// same transaction, or of a committed one.
    imaged: HashMap<u64, u64>,
}

struct SyncHandle {
    file: File,
}

/// The write-ahead log: an append-only sequence of checksummed,
/// LSN-stamped records in rotating segment files under one directory.
///
/// Appends serialize on an internal lock; fsyncs serialize on a separate
/// lock so appenders never wait behind a device flush — that split is
/// what makes group commit work: while one committer holds the sync lock
/// in `fsync`, others keep appending, and the next fsync makes all of
/// them durable at once.
///
/// [`Wal`] implements [`RedoLog`], so `LoggedPages` handles write through
/// it without knowing the framing.
pub struct Wal {
    dir: PathBuf,
    opts: WalOptions,
    inner: Mutex<Inner>,
    sync_file: Mutex<SyncHandle>,
    /// Last appended LSN (bytes fully written to the current segment).
    appended: AtomicU64,
    /// Highest LSN known fsynced.
    durable: AtomicU64,
    next_txn: AtomicU64,
    records: AtomicU64,
    full_records: AtomicU64,
    delta_records: AtomicU64,
    delta_bytes: AtomicU64,
    bytes: AtomicU64,
    fsyncs: AtomicU64,
    commits: AtomicU64,
    /// Records appended since the last fsync (group-commit batch clock).
    pending: AtomicU64,
    /// Per-fsync batch sizes, for the group-commit histogram.
    batch_sizes: Mutex<Vec<u64>>,
}

impl Wal {
    /// Opens (or creates) the log in `dir` and starts a fresh segment.
    ///
    /// An existing log is scanned to resume LSN/transaction numbering,
    /// and a torn tail left by a crash is truncated away (its records
    /// belong to a transaction that never committed — see the framing
    /// docs in `record.rs`). Run [`crate::recover`] against the data
    /// disk *before* opening if the image may be behind the log.
    pub fn open<P: AsRef<Path>>(dir: P, opts: WalOptions) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let scan = scan_dir(&dir)?;
        if let Some(torn) = scan.torn {
            if torn != scan.segments.len() - 1 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "torn record in non-final segment {} of {} — mid-log corruption, refusing to open",
                        scan.segments[torn].seq,
                        dir.display()
                    ),
                ));
            }
            let seg = &scan.segments[torn];
            let f = OpenOptions::new().write(true).open(&seg.path)?;
            f.set_len(seg.valid_end)?;
            f.sync_all()?;
        }
        let last_seq = scan.segments.last().map(|s| s.seq).unwrap_or(0);
        let seg_seq = last_seq + 1;
        let file = Self::create_segment(&dir, seg_seq)?;
        let sync_handle = file.try_clone()?;
        Self::sync_dir(&dir)?;
        let mut segments: Vec<u64> = scan.segments.iter().map(|s| s.seq).collect();
        segments.push(seg_seq);
        Ok(Self {
            dir,
            opts,
            inner: Mutex::new(Inner {
                file,
                seg_seq,
                seg_bytes: SEGMENT_HEADER_BYTES as u64,
                next_lsn: scan.max_lsn + 1,
                segments,
                total_bytes: 0,
                crash_after_bytes: None,
                scratch: Vec::new(),
                patch: Vec::new(),
                open: HashSet::new(),
                imaged: HashMap::new(),
            }),
            sync_file: Mutex::new(SyncHandle { file: sync_handle }),
            appended: AtomicU64::new(scan.max_lsn),
            durable: AtomicU64::new(scan.max_lsn),
            next_txn: AtomicU64::new(scan.max_txn),
            records: AtomicU64::new(0),
            full_records: AtomicU64::new(0),
            delta_records: AtomicU64::new(0),
            delta_bytes: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            pending: AtomicU64::new(0),
            batch_sizes: Mutex::new(Vec::new()),
        })
    }

    fn create_segment(dir: &Path, seq: u64) -> io::Result<File> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(segment_path(dir, seq))?;
        file.write_all(&encode_segment_header(seq))?;
        file.sync_data()?;
        Ok(file)
    }

    fn sync_dir(dir: &Path) -> io::Result<()> {
        // Make segment creation/deletion durable (the directory entry).
        File::open(dir)?.sync_all()
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Arms crash injection: the append that would push total appended
    /// record bytes past `bytes` writes only the prefix up to the
    /// threshold and aborts the process — a deterministic torn tail at an
    /// arbitrary byte position. Crash-harness only.
    pub fn set_crash_after_bytes(&self, bytes: Option<u64>) {
        self.inner.lock().crash_after_bytes = bytes;
    }

    /// Total record bytes appended by this writer (the crash-hook clock).
    pub fn appended_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Appends a record of `page`'s new bytes: the bytes that differ from
    /// `before` when replay is certain to hold `before` at that point and
    /// the patch is smaller than the page, the whole of `after` otherwise.
    fn append_page(&self, txn: u64, page: u64, before: Option<&[u8]>, after: &[u8]) -> u64 {
        let mut inner = self.inner.lock();
        let based = inner
            .imaged
            .insert(page, txn)
            .is_some_and(|latest| latest == txn || !inner.open.contains(&latest));
        let mut patch = std::mem::take(&mut inner.patch);
        let lsn = match before {
            Some(before) if based && diff_pages(before, after, &mut patch) => {
                let patch = &patch[..];
                self.append(&mut inner, txn, WalPayload::Delta { page, patch })
            }
            _ => self.append(&mut inner, txn, WalPayload::Page { page, image: after }),
        };
        inner.patch = patch;
        lsn
    }

    /// Appends one record under the append lock, handling rotation and
    /// crash injection; returns its LSN.
    fn append(&self, inner: &mut Inner, txn: u64, payload: WalPayload<'_>) -> u64 {
        let lsn = inner.next_lsn;
        inner.next_lsn += 1;
        let mut frame = std::mem::take(&mut inner.scratch);
        encode_record(&WalRecord { lsn, txn, payload }, &mut frame);

        if inner.seg_bytes + frame.len() as u64 > self.opts.segment_bytes
            && inner.seg_bytes > SEGMENT_HEADER_BYTES as u64
        {
            self.rotate(inner).expect("wal segment rotation failed");
        }

        if let Some(limit) = inner.crash_after_bytes {
            if inner.total_bytes + frame.len() as u64 > limit {
                // Write only up to the threshold, force it down, and die:
                // the parent process finds a torn tail at an exact byte
                // position chosen by the harness.
                let keep = (limit.saturating_sub(inner.total_bytes)) as usize;
                let _ = inner.file.write_all(&frame[..keep.min(frame.len())]);
                let _ = inner.file.sync_data();
                std::process::abort();
            }
        }

        inner
            .file
            .write_all(&frame)
            .expect("wal append failed (segment write)");
        inner.seg_bytes += frame.len() as u64;
        inner.total_bytes += frame.len() as u64;
        self.bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.records.fetch_add(1, Ordering::Relaxed);
        match payload {
            WalPayload::Page { .. } => {
                self.full_records.fetch_add(1, Ordering::Relaxed);
            }
            WalPayload::Delta { .. } => {
                self.delta_records.fetch_add(1, Ordering::Relaxed);
                self.delta_bytes
                    .fetch_add(frame.len() as u64, Ordering::Relaxed);
            }
            WalPayload::Commit => {}
        }
        self.pending.fetch_add(1, Ordering::Relaxed);
        inner.scratch = frame;
        // Publish the LSN only after write_all returned: sync_to reads it
        // outside the append lock.
        self.appended.store(lsn, Ordering::Release);
        lsn
    }

    /// Rotates to a fresh segment (under the append lock): the old file
    /// is fsynced first, so every record in a non-current segment is
    /// durable by construction.
    fn rotate(&self, inner: &mut Inner) -> io::Result<()> {
        inner.file.sync_data()?;
        // Everything appended so far now *is* durable — credit it, so the
        // next commit's fsync only covers the new segment.
        self.durable
            .fetch_max(self.appended.load(Ordering::Acquire), Ordering::AcqRel);
        let seq = inner.seg_seq + 1;
        let file = Self::create_segment(&self.dir, seq)?;
        let clone = file.try_clone()?;
        Self::sync_dir(&self.dir)?;
        inner.file = file;
        inner.seg_seq = seq;
        inner.seg_bytes = SEGMENT_HEADER_BYTES as u64;
        inner.segments.push(seq);
        // Lock ordering: inner → sync_file (sync_to never takes inner).
        self.sync_file.lock().file = clone;
        Ok(())
    }

    /// Makes everything up to `lsn` durable, riding a concurrent fsync
    /// when one already covers it (group commit).
    fn sync_to(&self, lsn: u64, always_fsync: bool) -> u64 {
        let d = self.durable.load(Ordering::Acquire);
        if d >= lsn && !always_fsync {
            return d;
        }
        let guard = self.sync_file.lock();
        let d = self.durable.load(Ordering::Acquire);
        if d >= lsn && !always_fsync {
            // A racing committer's fsync covered us while we waited.
            return d;
        }
        // While we hold the sync lock no rotation can swap the
        // current segment out from under us, so `appended` is fully
        // contained in (already-durable older segments +) this file.
        let target = self.appended.load(Ordering::Acquire);
        let batch = self.pending.swap(0, Ordering::AcqRel);
        if !self.opts.fsync_latency.is_zero() {
            std::thread::sleep(self.opts.fsync_latency);
        }
        guard.file.sync_data().expect("wal fsync failed");
        drop(guard);
        self.durable.fetch_max(target, Ordering::AcqRel);
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        if batch > 0 {
            self.batch_sizes.lock().push(batch);
        }
        self.durable.load(Ordering::Acquire)
    }

    /// Deletes every segment except a freshly started one, oldest first,
    /// so that a crash part-way leaves a suffix of the log. Callable only
    /// at a quiescent point: no open transactions, and the caller must
    /// already have flushed all dirty pages covered by the log and synced
    /// the data disk — after truncation the log can no longer redo them.
    /// No page has an image in the log any more: each one's next record
    /// is a full image again.
    pub fn checkpoint_truncate(&self) -> io::Result<u64> {
        let mut inner = self.inner.lock();
        assert!(
            inner.open.is_empty(),
            "checkpoint with open transactions would lose their redo records"
        );
        inner.imaged.clear();
        self.rotate(&mut inner)?;
        let keep_from = inner.segments.len() - 1;
        let old: Vec<u64> = inner.segments.drain(..keep_from).collect();
        for seq in &old {
            std::fs::remove_file(segment_path(&self.dir, *seq))?;
        }
        Self::sync_dir(&self.dir)?;
        Ok(old.len() as u64)
    }

    /// Writer counters.
    pub fn stats(&self) -> WalStats {
        WalStats {
            records: self.records.load(Ordering::Relaxed),
            full_records: self.full_records.load(Ordering::Relaxed),
            delta_records: self.delta_records.load(Ordering::Relaxed),
            delta_bytes: self.delta_bytes.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            segments: self.inner.lock().segments.len() as u64,
        }
    }

    /// Group-commit batch sizes, one entry per fsync.
    pub fn batch_sizes(&self) -> Vec<u64> {
        self.batch_sizes.lock().clone()
    }

    /// Publishes the writer-side `wal.*` metrics into `reg`.
    pub fn publish_metrics(&self, reg: &tfm_obs::MetricsRegistry) {
        use tfm_obs::names;
        let s = self.stats();
        reg.counter(names::WAL_RECORDS).add(s.records);
        reg.counter(names::WAL_FULL_RECORDS).add(s.full_records);
        reg.counter(names::WAL_DELTA_RECORDS).add(s.delta_records);
        reg.counter(names::WAL_DELTA_BYTES).add(s.delta_bytes);
        reg.counter(names::WAL_BYTES).add(s.bytes);
        reg.counter(names::WAL_FSYNCS).add(s.fsyncs);
        reg.counter(names::WAL_COMMITS).add(s.commits);
        let hist = reg.histogram(names::WAL_GROUP_COMMIT_RECORDS);
        for b in self.batch_sizes() {
            hist.record(b);
        }
    }
}

impl RedoLog for Wal {
    fn begin(&self) -> u64 {
        let txn = self.next_txn.fetch_add(1, Ordering::Relaxed) + 1;
        self.inner.lock().open.insert(txn);
        txn
    }

    fn log_page(&self, txn: u64, page: PageId, image: &[u8]) -> u64 {
        self.append_page(txn, page.0, None, image)
    }

    fn log_change(&self, txn: u64, page: PageId, before: &[u8], after: &[u8]) -> u64 {
        self.append_page(txn, page.0, Some(before), after)
    }

    fn commit(&self, txn: u64) -> u64 {
        let lsn = {
            let mut inner = self.inner.lock();
            // Committed with the record's append, under one lock: a page
            // record that sees `txn` closed is behind its commit record.
            inner.open.remove(&txn);
            self.append(&mut inner, txn, WalPayload::Commit)
        };
        self.commits.fetch_add(1, Ordering::Relaxed);
        self.sync_to(lsn, self.opts.sync_mode == SyncMode::EachCommit)
    }

    fn durable_lsn(&self) -> u64 {
        self.durable.load(Ordering::Acquire)
    }

    fn sync(&self) -> u64 {
        let lsn = self.appended.load(Ordering::Acquire);
        if lsn == 0 {
            return self.durable_lsn();
        }
        self.sync_to(lsn, false)
    }

    fn checkpoint(&self) -> io::Result<()> {
        self.checkpoint_truncate().map(drop)
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("durable_lsn", &self.durable_lsn())
            .field("stats", &self.stats())
            .finish()
    }
}
