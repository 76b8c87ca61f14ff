//! On-disk framing of log segments and records.
//!
//! A segment file (`wal-<seq>.log`) is a 16-byte header followed by a
//! packed sequence of records:
//!
//! ```text
//! segment  := magic u64 LE | seq u64 LE | record*
//! record   := len u32 LE | sum u64 LE | payload[len]
//! payload  := lsn u64 LE | kind u8 | txn u64 LE | body
//! body     := page u64 LE | image bytes      (kind = 1, page after-image)
//!           | (empty)                        (kind = 2, commit)
//! ```
//!
//! `sum` is [`tfm_storage::checksum64`] over the payload (the same
//! function the checksummed `FileStore` sidecar uses: a four-lane sum over
//! 64-bit words that is guaranteed to change when any one word does, for
//! the 17-byte commit payload as for a page image). A record whose frame
//! runs past
//! the segment end, or whose checksum does not match, is a **torn tail**:
//! the incomplete suffix of the last append the process issued before it
//! died. Replay treats everything before the tear as the log and ignores
//! the tear itself — the transaction it belonged to never committed (its
//! commit record would have had to follow the torn record).

use tfm_storage::checksum64;

/// First 8 bytes of every segment file ("TFMWAL01", little-endian).
pub const SEGMENT_MAGIC: u64 = u64::from_le_bytes(*b"TFMWAL01");

/// Bytes of the segment header (magic + sequence number).
pub const SEGMENT_HEADER_BYTES: usize = 16;

/// Bytes of framing per record (length prefix + checksum).
pub const RECORD_FRAME_BYTES: usize = 4 + 8;

const KIND_PAGE: u8 = 1;
const KIND_COMMIT: u8 = 2;

/// One decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Log sequence number (strictly increasing across the whole log).
    pub lsn: u64,
    /// Transaction the record belongs to.
    pub txn: u64,
    /// What the record carries.
    pub payload: WalPayload,
}

/// Record body variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalPayload {
    /// Full-page after-image: replaying it writes `image` to page `page`.
    Page {
        /// Target page id on the data disk.
        page: u64,
        /// The complete page bytes after the write.
        image: Vec<u8>,
    },
    /// Transaction commit marker: every record of `txn` with a smaller
    /// LSN is part of the committed state.
    Commit,
}

/// Encodes the segment header for segment `seq`.
pub fn encode_segment_header(seq: u64) -> [u8; SEGMENT_HEADER_BYTES] {
    let mut h = [0u8; SEGMENT_HEADER_BYTES];
    h[..8].copy_from_slice(&SEGMENT_MAGIC.to_le_bytes());
    h[8..].copy_from_slice(&seq.to_le_bytes());
    h
}

/// Decodes and validates a segment header; returns the sequence number.
pub fn decode_segment_header(bytes: &[u8]) -> Option<u64> {
    if bytes.len() < SEGMENT_HEADER_BYTES {
        return None;
    }
    let magic = u64::from_le_bytes(bytes[..8].try_into().unwrap());
    if magic != SEGMENT_MAGIC {
        return None;
    }
    Some(u64::from_le_bytes(bytes[8..16].try_into().unwrap()))
}

/// What a record to append carries, borrowed from the caller: the page
/// image goes from the writer's argument into the frame without an owned
/// [`WalPayload`] in between.
#[derive(Debug, Clone, Copy)]
pub enum RecordBody<'a> {
    /// Full-page after-image of `page`.
    Page {
        /// Target page id on the data disk.
        page: u64,
        /// The complete page bytes after the write.
        image: &'a [u8],
    },
    /// Transaction commit marker.
    Commit,
}

/// Frames one record in place in `out` (cleared first): the 12-byte
/// prefix is reserved, the payload appended behind it, then length and
/// sum are patched in — no second buffer.
pub fn encode_record(lsn: u64, txn: u64, body: RecordBody<'_>, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&[0u8; RECORD_FRAME_BYTES]);
    out.extend_from_slice(&lsn.to_le_bytes());
    match body {
        RecordBody::Page { page, image } => {
            out.push(KIND_PAGE);
            out.extend_from_slice(&txn.to_le_bytes());
            out.extend_from_slice(&page.to_le_bytes());
            out.extend_from_slice(image);
        }
        RecordBody::Commit => {
            out.push(KIND_COMMIT);
            out.extend_from_slice(&txn.to_le_bytes());
        }
    }
    let payload = &out[RECORD_FRAME_BYTES..];
    let len = u32::try_from(payload.len()).expect("record payload exceeds u32::MAX bytes");
    let sum = checksum64(payload);
    out[..4].copy_from_slice(&len.to_le_bytes());
    out[4..RECORD_FRAME_BYTES].copy_from_slice(&sum.to_le_bytes());
}

/// Outcome of decoding the record at the start of `bytes`.
#[derive(Debug)]
pub enum Decoded {
    /// A complete, checksum-valid record followed by its total frame size.
    Record(WalRecord, usize),
    /// No more records: `bytes` is empty.
    End,
    /// A torn tail: an incomplete or checksum-failing record prefix.
    Torn,
}

/// Decodes the record at the start of `bytes` (which begins right after a
/// record boundary).
pub fn decode_record(bytes: &[u8]) -> Decoded {
    if bytes.is_empty() {
        return Decoded::End;
    }
    if bytes.len() < RECORD_FRAME_BYTES {
        return Decoded::Torn;
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    let sum = u64::from_le_bytes(bytes[4..12].try_into().unwrap());
    let total = RECORD_FRAME_BYTES + len;
    if bytes.len() < total || len < 17 {
        return Decoded::Torn;
    }
    let payload = &bytes[RECORD_FRAME_BYTES..total];
    if checksum64(payload) != sum {
        return Decoded::Torn;
    }
    let lsn = u64::from_le_bytes(payload[..8].try_into().unwrap());
    let kind = payload[8];
    let txn = u64::from_le_bytes(payload[9..17].try_into().unwrap());
    let record = match kind {
        KIND_PAGE if len >= 25 => WalRecord {
            lsn,
            txn,
            payload: WalPayload::Page {
                page: u64::from_le_bytes(payload[17..25].try_into().unwrap()),
                image: payload[25..].to_vec(),
            },
        },
        KIND_COMMIT => WalRecord {
            lsn,
            txn,
            payload: WalPayload::Commit,
        },
        // Unknown kind or malformed body: corruption at a record boundary
        // is treated like a tear (replay stops here).
        _ => return Decoded::Torn,
    };
    Decoded::Record(record, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_record(lsn: u64, txn: u64, page: u64, fill: u8) -> WalRecord {
        WalRecord {
            lsn,
            txn,
            payload: WalPayload::Page {
                page,
                image: vec![fill; 64],
            },
        }
    }

    fn commit_record(lsn: u64, txn: u64) -> WalRecord {
        WalRecord {
            lsn,
            txn,
            payload: WalPayload::Commit,
        }
    }

    fn encode(record: &WalRecord, out: &mut Vec<u8>) {
        let body = match &record.payload {
            WalPayload::Page { page, image } => RecordBody::Page { page: *page, image },
            WalPayload::Commit => RecordBody::Commit,
        };
        encode_record(record.lsn, record.txn, body, out);
    }

    /// The two-buffer encoder the in-place one replaced, kept as the
    /// oracle for the frame bytes: payload built apart, then copied
    /// behind its length and sum.
    fn encode_two_buffers(record: &WalRecord) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&record.lsn.to_le_bytes());
        match &record.payload {
            WalPayload::Page { page, image } => {
                payload.push(KIND_PAGE);
                payload.extend_from_slice(&record.txn.to_le_bytes());
                payload.extend_from_slice(&page.to_le_bytes());
                payload.extend_from_slice(image);
            }
            WalPayload::Commit => {
                payload.push(KIND_COMMIT);
                payload.extend_from_slice(&record.txn.to_le_bytes());
            }
        }
        let mut out = Vec::new();
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&checksum64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    #[test]
    fn record_roundtrip() {
        let mut buf = Vec::new();
        for r in [page_record(1, 10, 3, 0xAB), commit_record(2, 10)] {
            encode(&r, &mut buf);
            match decode_record(&buf) {
                Decoded::Record(decoded, size) => {
                    assert_eq!(decoded, r);
                    assert_eq!(size, buf.len());
                }
                other => panic!("expected record, got {other:?}"),
            }
        }
    }

    #[test]
    fn in_place_frames_equal_the_two_buffer_encoder() {
        // One scratch buffer reused across records of different sizes, as
        // the writer does: a longer record's bytes must not leak into the
        // shorter one framed after it.
        let mut buf = Vec::new();
        let mut big = page_record(7, 3, u64::MAX, 0x5A);
        if let WalPayload::Page { image, .. } = &mut big.payload {
            *image = (0..2048u32).map(|i| (i * 31 % 251) as u8).collect();
        }
        for r in [
            big,
            commit_record(8, 3),
            page_record(9, 4, 0, 0),
            commit_record(u64::MAX, u64::MAX),
        ] {
            encode(&r, &mut buf);
            assert_eq!(buf, encode_two_buffers(&r), "{r:?}");
        }
    }

    #[test]
    fn truncated_frames_and_bad_sums_are_torn() {
        let mut buf = Vec::new();
        encode(&page_record(5, 1, 0, 0x11), &mut buf);
        // Any strict prefix is torn, not an error and not a record.
        for cut in [
            1,
            RECORD_FRAME_BYTES - 1,
            RECORD_FRAME_BYTES + 3,
            buf.len() - 1,
        ] {
            assert!(
                matches!(decode_record(&buf[..cut]), Decoded::Torn),
                "cut {cut}"
            );
        }
        // A flipped payload byte fails the checksum.
        let mut bad = buf.clone();
        *bad.last_mut().unwrap() ^= 0xFF;
        assert!(matches!(decode_record(&bad), Decoded::Torn));
        assert!(matches!(decode_record(&[]), Decoded::End));
    }

    #[test]
    fn every_flipped_bit_of_a_commit_record_is_torn() {
        // The 17-byte payload is all remainder words and tail for the
        // word-wide sum; length and sum field flips must fail too.
        let mut buf = Vec::new();
        encode(&commit_record(12, 4), &mut buf);
        for bit in 0..buf.len() * 8 {
            let mut bad = buf.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(matches!(decode_record(&bad), Decoded::Torn), "bit {bit}");
        }
    }

    #[test]
    fn segment_header_roundtrip() {
        let h = encode_segment_header(42);
        assert_eq!(decode_segment_header(&h), Some(42));
        assert_eq!(decode_segment_header(&h[..8]), None);
        let mut foreign = h;
        foreign[0] ^= 1;
        assert_eq!(decode_segment_header(&foreign), None);
    }
}
