//! The append side: segmented log files, one fsync per commit, crash
//! injection.

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
use tfm_storage::{PageId, RedoLog};

/// Tunables of a [`Wal`].
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// Rotate to a fresh segment once the current one exceeds this many
    /// bytes (checked at record boundaries; records are never split).
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self {
            segment_bytes: 4 << 20,
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
    /// Last appended LSN (its bytes fully written to the current segment).
    appended: u64,
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

/// The write-ahead log: an append-only sequence of checksummed,
/// LSN-stamped records in rotating segment files under one directory.
///
/// Appends, commits and fsyncs serialize on one lock: a commit appends
/// its marker and fsyncs the current segment before it lets go, so each
/// commit is durable when it returns, at one fsync per commit. The write
/// path has one committer (`MutableTransformers` holds its writer lock
/// from `begin` to `commit`), so no commit could share another's fsync.
/// Concurrent committers stay correct, each behind its own fsync.
///
/// [`Wal`] implements [`RedoLog`], so `LoggedPages` handles write through
/// it without knowing the framing.
pub struct Wal {
    dir: PathBuf,
    opts: WalOptions,
    inner: Mutex<Inner>,
    /// Highest LSN known fsynced: stored (`Release`) under the append lock
    /// after the fsync returned, loaded (`Acquire`) without it by the
    /// dirty tier's flush gate.
    durable: AtomicU64,
    next_txn: AtomicU64,
    records: AtomicU64,
    full_records: AtomicU64,
    delta_records: AtomicU64,
    delta_bytes: AtomicU64,
    bytes: AtomicU64,
    fsyncs: AtomicU64,
    commits: AtomicU64,
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
                appended: scan.max_lsn,
                segments,
                total_bytes: 0,
                crash_after_bytes: None,
                scratch: Vec::new(),
                patch: Vec::new(),
                open: HashSet::new(),
                imaged: HashMap::new(),
            }),
            durable: AtomicU64::new(scan.max_lsn),
            next_txn: AtomicU64::new(scan.max_txn),
            records: AtomicU64::new(0),
            full_records: AtomicU64::new(0),
            delta_records: AtomicU64::new(0),
            delta_bytes: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            commits: AtomicU64::new(0),
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
        inner.scratch = frame;
        inner.appended = lsn;
        lsn
    }

    /// Rotates to a fresh segment (under the append lock): the old file
    /// is fsynced first, so every record in a non-current segment is
    /// durable by construction.
    fn rotate(&self, inner: &mut Inner) -> io::Result<()> {
        inner.file.sync_data()?;
        // Everything appended so far now *is* durable — credit it, so the
        // next commit's fsync only covers the new segment.
        self.durable.store(inner.appended, Ordering::Release);
        let seq = inner.seg_seq + 1;
        let file = Self::create_segment(&self.dir, seq)?;
        Self::sync_dir(&self.dir)?;
        inner.file = file;
        inner.seg_seq = seq;
        inner.seg_bytes = SEGMENT_HEADER_BYTES as u64;
        inner.segments.push(seq);
        Ok(())
    }

    /// fsyncs the current segment under the append lock, making every
    /// record appended so far durable (older segments were synced when
    /// they rotated out); returns the new durable LSN.
    fn fsync(&self, inner: &Inner) -> u64 {
        inner.file.sync_data().expect("wal fsync failed");
        self.durable.store(inner.appended, Ordering::Release);
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        inner.appended
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
        let mut inner = self.inner.lock();
        // Committed with the record's append, under one lock: a page
        // record that sees `txn` closed is behind its commit record.
        inner.open.remove(&txn);
        self.append(&mut inner, txn, WalPayload::Commit);
        self.commits.fetch_add(1, Ordering::Relaxed);
        self.fsync(&inner)
    }

    fn durable_lsn(&self) -> u64 {
        self.durable.load(Ordering::Acquire)
    }

    fn sync(&self) -> u64 {
        let inner = self.inner.lock();
        let durable = self.durable_lsn();
        if inner.appended > durable {
            self.fsync(&inner)
        } else {
            durable
        }
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
