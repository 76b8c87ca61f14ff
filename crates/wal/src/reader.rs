//! The scan side: reading segment directories back into record streams.

use crate::record::{
    decode_record, decode_segment_header, Decoded, WalRecord, SEGMENT_HEADER_BYTES,
};
use std::fs::File;
use std::io::{self, Read};
use std::path::{Path, PathBuf};

/// Path of segment `seq` under `dir`.
pub fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:06}.log"))
}

/// One scanned segment file.
#[derive(Debug, Clone)]
pub struct SegmentInfo {
    /// Sequence number (from the file name, verified against the header).
    pub seq: u64,
    /// The segment file.
    pub path: PathBuf,
    /// Total file bytes.
    pub bytes: u64,
    /// Offset just past the last complete, checksum-valid record — the
    /// truncation point when the segment ends in a torn tail.
    pub valid_end: u64,
}

/// Everything a directory scan learned.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Complete records seen (each was handed to the visitor, in LSN
    /// order).
    pub records: u64,
    /// Segments in sequence order.
    pub segments: Vec<SegmentInfo>,
    /// Index into `segments` of the segment with a torn tail, if any.
    /// Scanning stops at the tear.
    pub torn: Option<usize>,
    /// Total bytes scanned.
    pub bytes_scanned: u64,
    /// Highest LSN seen (0 when the log is empty).
    pub max_lsn: u64,
    /// Highest transaction id seen (0 when the log is empty).
    pub max_txn: u64,
}

/// Scans every `wal-*.log` segment under `dir` (a missing directory reads
/// as an empty log), decoding records until the end or the first torn
/// tail. Foreign files, header/name mismatches, gaps in the segment
/// sequence and non-monotonic LSNs are hard `InvalidData` errors —
/// corruption a tear cannot explain.
pub fn scan_dir(dir: &Path) -> io::Result<ScanReport> {
    visit_records(dir, |_| Ok(()))
}

/// [`scan_dir`], handing every complete record to `visit` in LSN order.
/// A record's body borrows from its segment's bytes, which are read into
/// one buffer that the next segment reuses: the scan holds one segment at
/// a time, never the log. An error from `visit` ends the scan.
pub fn visit_records(
    dir: &Path,
    mut visit: impl FnMut(&WalRecord<'_>) -> io::Result<()>,
) -> io::Result<ScanReport> {
    let mut report = ScanReport::default();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(report),
        Err(e) => return Err(e),
    };
    let mut seqs: Vec<(u64, PathBuf)> = Vec::new();
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            seqs.push((seq, entry.path()));
        }
    }
    seqs.sort();
    let mut bytes = Vec::new();
    for (i, (seq, path)) in seqs.iter().enumerate() {
        if i > 0 && *seq != seqs[i - 1].0 + 1 {
            return Err(invalid(format!(
                "segment sequence gap: {} follows {}",
                seq,
                seqs[i - 1].0
            )));
        }
        bytes.clear();
        File::open(path)?.read_to_end(&mut bytes)?;
        report.bytes_scanned += bytes.len() as u64;
        let header_seq = decode_segment_header(&bytes);
        if header_seq != Some(*seq) {
            return Err(invalid(format!(
                "segment {} has a foreign or corrupt header (decoded {:?})",
                path.display(),
                header_seq
            )));
        }
        let mut offset = SEGMENT_HEADER_BYTES;
        let mut torn_here = false;
        while offset < bytes.len() {
            match decode_record(&bytes[offset..]) {
                Decoded::Record(record, size) => {
                    if record.lsn <= report.max_lsn {
                        return Err(invalid(format!(
                            "non-monotonic LSN {} after {} in {}",
                            record.lsn,
                            report.max_lsn,
                            path.display()
                        )));
                    }
                    report.max_lsn = record.lsn;
                    report.max_txn = report.max_txn.max(record.txn);
                    report.records += 1;
                    visit(&record)?;
                    offset += size;
                }
                Decoded::Torn => {
                    torn_here = true;
                    break;
                }
                Decoded::End => break,
            }
        }
        report.segments.push(SegmentInfo {
            seq: *seq,
            path: path.clone(),
            bytes: bytes.len() as u64,
            valid_end: offset as u64,
        });
        if torn_here {
            report.torn = Some(report.segments.len() - 1);
            // Record the remaining (unscanned) segments so callers can
            // detect mid-log tears, then stop.
            for (seq, path) in seqs.iter().skip(i + 1) {
                report.segments.push(SegmentInfo {
                    seq: *seq,
                    path: path.clone(),
                    bytes: std::fs::metadata(path)?.len(),
                    valid_end: SEGMENT_HEADER_BYTES as u64,
                });
            }
            break;
        }
    }
    Ok(report)
}

pub(crate) fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}
