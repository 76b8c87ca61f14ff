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
//!           | page u64 LE | run*             (kind = 3, page delta)
//! run      := offset u32 LE | len u32 LE | bytes[len]
//! ```
//!
//! A **delta** carries the bytes of a page that a write changed: replay
//! copies each run over the page as the earlier records left it. The
//! writer only emits one when replay is certain to have those earlier
//! bytes (see `writer.rs`), and only when it is smaller than the image.
//! Runs are ascending and disjoint; two changed stretches closer than a
//! run header is long are one run (the unchanged bytes between them cost
//! less than a second header), and 32-bit offsets reach past the 4 MiB
//! pages of `tests/large_page_join.rs`. Redo stays physical: a run is
//! bytes at an offset, so applying a record twice is applying it once.
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

/// Bytes of a delta run's header (offset + length).
const RUN_HEADER_BYTES: usize = 4 + 4;

const KIND_PAGE: u8 = 1;
const KIND_COMMIT: u8 = 2;
const KIND_DELTA: u8 = 3;

/// One log record, its body borrowed: from the caller on the way into
/// the log, from the segment buffer on the way out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalRecord<'a> {
    /// Log sequence number (strictly increasing across the whole log).
    pub lsn: u64,
    /// Transaction the record belongs to.
    pub txn: u64,
    /// What the record carries.
    pub payload: WalPayload<'a>,
}

/// Record body variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalPayload<'a> {
    /// Full-page after-image: replaying it replaces page `page` by `image`.
    Page {
        /// Target page id on the data disk.
        page: u64,
        /// The complete page bytes after the write.
        image: &'a [u8],
    },
    /// The bytes of page `page` a write changed: replaying it copies the
    /// runs of `patch` over the page as earlier records left it.
    Delta {
        /// Target page id on the data disk.
        page: u64,
        /// The runs, each `offset u32 LE | len u32 LE | bytes[len]`.
        patch: &'a [u8],
    },
    /// Transaction commit marker: every record of `txn` with a smaller
    /// LSN is part of the committed state.
    Commit,
}

/// Appends to `patch` (cleared first) the runs that turn `before` into
/// `after`, two pages of one size. Gives up, returning `false` with
/// `patch` in an unspecified state, as soon as the patch would be no
/// smaller than the page itself; an empty patch (equal pages) is a patch.
pub fn diff_pages(before: &[u8], after: &[u8], patch: &mut Vec<u8>) -> bool {
    assert_eq!(before.len(), after.len(), "diff of unequal pages");
    assert!(
        u32::try_from(after.len()).is_ok(),
        "page of {} bytes exceeds a run's 32-bit offsets",
        after.len()
    );
    patch.clear();
    let n = after.len();
    let mut at = first_mismatch(before, after, 0);
    while at < n {
        // `end` is one past the run's last differing byte; the run grows
        // while the next difference starts within a header's length.
        let mut end = at + 1;
        let next = loop {
            while end < n && before[end] != after[end] {
                end += 1;
            }
            let next = first_mismatch(before, after, end);
            if next >= n || next - end > RUN_HEADER_BYTES {
                break next;
            }
            end = next + 1;
        };
        if patch.len() + RUN_HEADER_BYTES + (end - at) >= n {
            return false;
        }
        patch.extend_from_slice(&(at as u32).to_le_bytes());
        patch.extend_from_slice(&((end - at) as u32).to_le_bytes());
        patch.extend_from_slice(&after[at..end]);
        at = next;
    }
    true
}

/// Index of the first byte at or after `from` where the pages differ
/// (their length if none does), comparing sixteen bytes at a time.
fn first_mismatch(a: &[u8], b: &[u8], from: usize) -> usize {
    let (a, b) = (&a[from..], &b[from..]);
    let equal_blocks = a
        .chunks_exact(16)
        .zip(b.chunks_exact(16))
        .take_while(|(x, y)| x == y)
        .count();
    let mut i = equal_blocks * 16;
    while i < a.len() && a[i] == b[i] {
        i += 1;
    }
    from + i
}

/// Why a patch was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatchError {
    /// The patch ends inside a run header or inside a run's bytes.
    Truncated,
    /// A run reaches past the end of the page.
    OutOfBounds,
}

/// The runs of `patch` in order, each as `(offset, bytes)`; a patch that
/// ends inside a run yields the error and then nothing.
fn runs(patch: &[u8]) -> impl Iterator<Item = Result<(usize, &[u8]), PatchError>> {
    let mut rest = patch;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let run = rest
            .split_first_chunk::<RUN_HEADER_BYTES>()
            .and_then(|(header, tail)| {
                let [o0, o1, o2, o3, l0, l1, l2, l3] = *header;
                let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
                let (bytes, tail) = tail.split_at_checked(len)?;
                Some((u32::from_le_bytes([o0, o1, o2, o3]) as usize, bytes, tail))
            });
        match run {
            Some((offset, bytes, tail)) => {
                rest = tail;
                Some(Ok((offset, bytes)))
            }
            None => {
                rest = &[];
                Some(Err(PatchError::Truncated))
            }
        }
    })
}

/// Applies `patch` to `page`. The whole patch is checked first: a patch
/// that is refused has changed nothing.
pub fn apply_patch(patch: &[u8], page: &mut [u8]) -> Result<(), PatchError> {
    for run in runs(patch) {
        let (offset, bytes) = run?;
        if offset
            .checked_add(bytes.len())
            .is_none_or(|end| end > page.len())
        {
            return Err(PatchError::OutOfBounds);
        }
    }
    for (offset, bytes) in runs(patch).flatten() {
        page[offset..offset + bytes.len()].copy_from_slice(bytes);
    }
    Ok(())
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

/// Frames one record in place in `out` (cleared first): the 12-byte
/// prefix is reserved, the payload appended behind it, then length and
/// sum are patched in — no second buffer.
pub fn encode_record(record: &WalRecord<'_>, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&[0u8; RECORD_FRAME_BYTES]);
    out.extend_from_slice(&record.lsn.to_le_bytes());
    let (kind, body) = match record.payload {
        WalPayload::Page { page, image } => (KIND_PAGE, Some((page, image))),
        WalPayload::Delta { page, patch } => (KIND_DELTA, Some((page, patch))),
        WalPayload::Commit => (KIND_COMMIT, None),
    };
    out.push(kind);
    out.extend_from_slice(&record.txn.to_le_bytes());
    if let Some((page, bytes)) = body {
        out.extend_from_slice(&page.to_le_bytes());
        out.extend_from_slice(bytes);
    }
    let payload = &out[RECORD_FRAME_BYTES..];
    let len = u32::try_from(payload.len()).expect("record payload exceeds u32::MAX bytes");
    let sum = checksum64(payload);
    out[..4].copy_from_slice(&len.to_le_bytes());
    out[4..RECORD_FRAME_BYTES].copy_from_slice(&sum.to_le_bytes());
}

/// Outcome of decoding the record at the start of `bytes`.
#[derive(Debug)]
pub enum Decoded<'a> {
    /// A complete, checksum-valid record followed by its total frame size.
    Record(WalRecord<'a>, usize),
    /// No more records: `bytes` is empty.
    End,
    /// A torn tail: an incomplete or checksum-failing record prefix.
    Torn,
}

/// Decodes the record at the start of `bytes` (which begins right after a
/// record boundary). The record's body borrows from `bytes`.
pub fn decode_record(bytes: &[u8]) -> Decoded<'_> {
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
    let page_of = |payload: &[u8]| u64::from_le_bytes(payload[17..25].try_into().unwrap());
    let payload = match kind {
        KIND_PAGE if len >= 25 => WalPayload::Page {
            page: page_of(payload),
            image: &payload[25..],
        },
        KIND_DELTA if len >= 25 => WalPayload::Delta {
            page: page_of(payload),
            patch: &payload[25..],
        },
        KIND_COMMIT => WalPayload::Commit,
        // Unknown kind or malformed body: corruption at a record boundary
        // is treated like a tear (replay stops here).
        _ => return Decoded::Torn,
    };
    Decoded::Record(WalRecord { lsn, txn, payload }, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn page_record(lsn: u64, txn: u64, page: u64, image: &[u8]) -> WalRecord<'_> {
        WalRecord {
            lsn,
            txn,
            payload: WalPayload::Page { page, image },
        }
    }

    fn commit_record(lsn: u64, txn: u64) -> WalRecord<'static> {
        WalRecord {
            lsn,
            txn,
            payload: WalPayload::Commit,
        }
    }

    /// The two-buffer encoder the in-place one replaced, kept as the
    /// oracle for the frame bytes: payload built apart, then copied
    /// behind its length and sum.
    fn encode_two_buffers(record: &WalRecord<'_>) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&record.lsn.to_le_bytes());
        match record.payload {
            WalPayload::Page { page, image } => {
                payload.push(KIND_PAGE);
                payload.extend_from_slice(&record.txn.to_le_bytes());
                payload.extend_from_slice(&page.to_le_bytes());
                payload.extend_from_slice(image);
            }
            WalPayload::Delta { page, patch } => {
                payload.push(KIND_DELTA);
                payload.extend_from_slice(&record.txn.to_le_bytes());
                payload.extend_from_slice(&page.to_le_bytes());
                payload.extend_from_slice(patch);
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
        let image = [0xABu8; 64];
        let delta = WalRecord {
            lsn: 3,
            txn: 10,
            payload: WalPayload::Delta {
                page: 3,
                patch: &[4, 0, 0, 0, 2, 0, 0, 0, 0xEE, 0xFF],
            },
        };
        for r in [page_record(1, 10, 3, &image), commit_record(2, 10), delta] {
            encode_record(&r, &mut buf);
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
        let big: Vec<u8> = (0..2048u32).map(|i| (i * 31 % 251) as u8).collect();
        for r in [
            page_record(7, 3, u64::MAX, &big),
            commit_record(8, 3),
            page_record(9, 4, 0, &[0u8; 64]),
            WalRecord {
                lsn: 10,
                txn: 4,
                payload: WalPayload::Delta {
                    page: 0,
                    patch: &big[..40],
                },
            },
            commit_record(u64::MAX, u64::MAX),
        ] {
            encode_record(&r, &mut buf);
            assert_eq!(buf, encode_two_buffers(&r), "{r:?}");
        }
    }

    #[test]
    fn truncated_frames_and_bad_sums_are_torn() {
        let mut buf = Vec::new();
        encode_record(&page_record(5, 1, 0, &[0x11; 64]), &mut buf);
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
        encode_record(&commit_record(12, 4), &mut buf);
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

    /// `diff_pages` then `apply_patch` must reproduce `after`; a patch is
    /// smaller than its page or refused; the runs are ascending, disjoint
    /// and more than a header apart.
    fn assert_patch_roundtrip(before: &[u8], after: &[u8]) {
        let mut patch = vec![0xCC; 7]; // stale scratch contents must not leak
        if !diff_pages(before, after, &mut patch) {
            // Refused: a differing byte costs at most itself plus a
            // header (or a merged gap of a header's length), so only a
            // page with a ninth of its bytes changed can be refused.
            let differing = before.iter().zip(after).filter(|(a, b)| a != b).count();
            assert!(
                (1 + RUN_HEADER_BYTES) * differing >= after.len(),
                "refused a patch for {differing} differing bytes of {}",
                after.len()
            );
            return;
        }
        assert!(patch.len() < after.len().max(1), "patch not smaller");
        assert_eq!(patch.is_empty(), before == after);
        let mut page = before.to_vec();
        apply_patch(&patch, &mut page).expect("own patch applies");
        assert!(page == after, "patched page differs from `after`");
        // Applying it again changes nothing: physical redo.
        apply_patch(&patch, &mut page).unwrap();
        assert!(page == after);

        let mut prev_end = None::<usize>;
        for run in runs(&patch) {
            let (offset, bytes) = run.expect("own patch parses");
            let len = bytes.len();
            assert!(len > 0, "empty run");
            assert!(
                before[offset] != after[offset],
                "run starts on an equal byte"
            );
            assert!(
                before[offset + len - 1] != after[offset + len - 1],
                "run ends on an equal byte"
            );
            if let Some(prev) = prev_end {
                assert!(offset > prev + RUN_HEADER_BYTES, "runs not merged");
            }
            prev_end = Some(offset + len);
        }
    }

    #[test]
    fn patch_codec_edge_pages() {
        for size in [64usize, 2048, 1 << 22] {
            let before: Vec<u8> = (0..size).map(|i| (i * 7 % 253) as u8).collect();
            // Equal pages.
            assert_patch_roundtrip(&before, &before);
            // One byte: first, last, middle.
            for at in [0, size - 1, size / 2] {
                let mut after = before.clone();
                after[at] ^= 0x5A;
                assert_patch_roundtrip(&before, &after);
            }
            // Every byte: no patch is smaller than the page.
            let after: Vec<u8> = before.iter().map(|b| !b).collect();
            let mut patch = Vec::new();
            assert!(!diff_pages(&before, &after, &mut patch), "size {size}");
            // A run at offset 0 and a run ending on the last byte.
            let mut after = before.clone();
            for b in &mut after[..9] {
                *b = !*b;
            }
            for b in &mut after[size - 5..] {
                *b = !*b;
            }
            assert_patch_roundtrip(&before, &after);
            // Stretches 8 bytes apart merge, 9 bytes apart do not.
            for gap in [8usize, 9] {
                let mut after = before.clone();
                after[10] ^= 1;
                after[10 + gap + 1] ^= 1;
                let mut patch = Vec::new();
                assert!(diff_pages(&before, &after, &mut patch));
                let runs = if gap == 8 { 1 } else { 2 };
                assert_eq!(
                    patch.len(),
                    if runs == 1 {
                        RUN_HEADER_BYTES + gap + 2
                    } else {
                        2 * (RUN_HEADER_BYTES + 1)
                    },
                    "gap {gap}"
                );
                assert_patch_roundtrip(&before, &after);
            }
        }
    }

    #[test]
    fn corrupt_patches_are_rejected_and_change_nothing() {
        let run = |offset: u32, len: u32, bytes: &[u8]| {
            let mut p = Vec::new();
            p.extend_from_slice(&offset.to_le_bytes());
            p.extend_from_slice(&len.to_le_bytes());
            p.extend_from_slice(bytes);
            p
        };
        let original = [7u8; 64];
        let good = run(3, 2, &[1, 2]);
        let cases: Vec<(Vec<u8>, PatchError)> = vec![
            // A run that ends one byte past the page.
            (run(60, 5, &[9; 5]), PatchError::OutOfBounds),
            // A run that starts past the page.
            (run(64, 1, &[9]), PatchError::OutOfBounds),
            // offset + len overflows where usize is 32 bits wide.
            (run(u32::MAX, 2, &[9, 9]), PatchError::OutOfBounds),
            // A header cut short.
            (good[..5].to_vec(), PatchError::Truncated),
            // A run whose bytes are cut short.
            (run(3, 4, &[1, 2]), PatchError::Truncated),
            // A good run followed by a bad one: the good one is not applied.
            (
                [good.clone(), run(63, 2, &[9, 9])].concat(),
                PatchError::OutOfBounds,
            ),
            ([good.clone(), vec![0u8; 3]].concat(), PatchError::Truncated),
        ];
        for (patch, want) in cases {
            let mut page = original;
            assert_eq!(apply_patch(&patch, &mut page), Err(want), "{patch:?}");
            assert_eq!(page, original, "refused patch {patch:?} changed the page");
        }
        let mut page = original;
        apply_patch(&good, &mut page).unwrap();
        assert_eq!(&page[3..5], &[1, 2]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // Random pages of 64 B .. 8 KiB with a random set of rewritten
        // stretches (some touching byte 0 or the last byte, some rewriting
        // a byte to its old value).
        #[test]
        fn patch_codec_roundtrips_random_pages(
            size in 64usize..8192,
            seed in any::<u64>(),
            stretches in prop::collection::vec((any::<u32>(), 1usize..200, any::<u8>()), 0..12),
        ) {
            let mut x = seed | 1;
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            };
            let before: Vec<u8> = (0..size).map(|_| next()).collect();
            let mut after = before.clone();
            for (start, len, xor) in stretches {
                let start = start as usize % size;
                let end = (start + len).min(size);
                for b in &mut after[start..end] {
                    *b ^= xor & next();
                }
            }
            assert_patch_roundtrip(&before, &after);
        }
    }
}
