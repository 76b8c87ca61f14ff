//! Fixed-layout codec for storing spatial elements on pages.
//!
//! A page starts with a `u16` element count followed by fixed 56-byte
//! records (`id: u64 LE`, then the six `f64 LE` MBB coordinates). With the
//! default 8 KiB page this yields a capacity of 146 elements per page —
//! this is exactly the paper's *space unit* payload (§IV: "we pack as many
//! elements into a space unit as can fit on a disk page").
//!
//! # Reading: the view is the read path
//!
//! [`ElementPageCodec::view`] checks the count against the page length
//! once and returns an [`ElementRecords`] that reads ids and boxes straight
//! out of the page bytes — typically a pinned cache frame. A probe tests
//! every box in place and copies out nothing but the matching ids; nothing
//! is allocated and nothing outlives the pin. [`decode`] and
//! [`decode_into`] are the materialising convenience for callers that need
//! owned elements (the join's in-memory kernels, the baselines): they
//! collect the same view, so the format has exactly one record parser.
//! Records start at byte 2 (byte 10 on overflow pages), so every field
//! read is an unaligned `from_le_bytes` of a byte array — no `unsafe`.
//!
//! [`decode`]: ElementPageCodec::decode
//! [`decode_into`]: ElementPageCodec::decode_into

use tfm_geom::{Aabb, Point3, SpatialElement};

/// Bytes per element record: 8 (id) + 6 × 8 (two corners).
pub const RECORD_SIZE: usize = 56;

/// Bytes of page header: the `u16` element count.
pub const HEADER_SIZE: usize = 2;

/// A borrowed view of the element records on one page: `len()` fixed
/// 56-byte little-endian records, read in place.
///
/// Built by [`ElementPageCodec::view`] for element pages and by
/// [`ElementRecords::at`] for any other page that stores the same records
/// behind its own header (the mutable index's overflow pages). The view
/// borrows the page bytes, so over a cache frame it lives only as long as
/// the pin.
#[derive(Debug, Clone, Copy)]
pub struct ElementRecords<'a> {
    records: &'a [[u8; RECORD_SIZE]],
}

impl<'a> ElementRecords<'a> {
    /// The `count` records that start at byte `offset` of `page`, or `None`
    /// if the page is too short to hold them — the one bounds check every
    /// later record read relies on. Callers turn `None` into their page
    /// kind's "corrupt page" panic.
    #[inline]
    pub fn at(page: &'a [u8], offset: usize, count: usize) -> Option<Self> {
        let end = count.checked_mul(RECORD_SIZE)?.checked_add(offset)?;
        let (records, _) = page.get(offset..end)?.as_chunks();
        Some(Self { records })
    }

    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the page holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Id of record `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn id(&self, i: usize) -> u64 {
        id_of(&self.records[i])
    }

    /// Bounding box of record `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn mbb(&self, i: usize) -> Aabb {
        mbb_of(&self.records[i])
    }

    /// The records in page order, each read from the page bytes as the
    /// iterator reaches it. Exact-size, so collecting into a `Vec` or an
    /// `Arc<[SpatialElement]>` allocates once.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = SpatialElement> + 'a {
        self.records
            .iter()
            .map(|r| SpatialElement::new(id_of(r), mbb_of(r)))
    }
}

/// The `i`-th 8-byte field of a record.
#[inline]
fn word(record: &[u8; RECORD_SIZE], i: usize) -> [u8; 8] {
    record[i * 8..i * 8 + 8]
        .try_into()
        .expect("an 8-byte range of a record")
}

/// Writes one element as a record: the inverse of [`id_of`] + [`mbb_of`].
#[inline]
fn write_record(record: &mut [u8; RECORD_SIZE], e: &SpatialElement) {
    let (lo, hi) = (e.mbb.min, e.mbb.max);
    let words = [
        e.id,
        lo.x.to_bits(),
        lo.y.to_bits(),
        lo.z.to_bits(),
        hi.x.to_bits(),
        hi.y.to_bits(),
        hi.z.to_bits(),
    ];
    for (field, w) in record.chunks_exact_mut(8).zip(words) {
        field.copy_from_slice(&w.to_le_bytes());
    }
}

#[inline]
fn id_of(record: &[u8; RECORD_SIZE]) -> u64 {
    u64::from_le_bytes(word(record, 0))
}

#[inline]
fn mbb_of(record: &[u8; RECORD_SIZE]) -> Aabb {
    let coord = |i| f64::from_le_bytes(word(record, i));
    Aabb::new(
        Point3::new(coord(1), coord(2), coord(3)),
        Point3::new(coord(4), coord(5), coord(6)),
    )
}

/// Encoder/decoder for element pages of a fixed page size.
#[derive(Debug, Clone, Copy)]
pub struct ElementPageCodec {
    page_size: usize,
}

impl ElementPageCodec {
    /// Creates a codec for pages of `page_size` bytes.
    ///
    /// # Panics
    /// Panics if the page cannot hold at least one record.
    pub fn new(page_size: usize) -> Self {
        assert!(
            page_size >= HEADER_SIZE + RECORD_SIZE,
            "page size {page_size} too small for one element record"
        );
        Self { page_size }
    }

    /// Maximum number of elements one page holds: what fits, and never
    /// more than the `u16` count in the header can say (a page over
    /// 3.5 MiB has room for more records than it can count).
    #[inline]
    pub fn capacity(&self) -> usize {
        ((self.page_size - HEADER_SIZE) / RECORD_SIZE).min(u16::MAX as usize)
    }

    /// Serializes up to [`capacity`](Self::capacity) elements into a page
    /// image of exactly `page_size` bytes.
    ///
    /// # Panics
    /// Panics if more elements are given than fit.
    pub fn encode(&self, elements: &[SpatialElement]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.page_size);
        self.encode_into(elements, &mut buf);
        buf
    }

    /// Serializes a page image directly into `buf` (overwritten whole,
    /// reusing its capacity — no intermediate allocation, unlike `encode`).
    /// The write counterpart of [`decode_into`](Self::decode_into): the
    /// build pipeline's page-encode stages reuse one buffer across pages.
    ///
    /// The buffer is sized to the page once and the records are written at
    /// their fixed stride, so no field write checks for room; on a reused
    /// page buffer only the padding behind the last record is zeroed.
    ///
    /// # Panics
    /// Panics if more elements are given than fit.
    pub fn encode_into(&self, elements: &[SpatialElement], buf: &mut Vec<u8>) {
        assert!(
            elements.len() <= self.capacity(),
            "{} elements exceed page capacity {}",
            elements.len(),
            self.capacity()
        );
        let count = u16::try_from(elements.len()).expect("capacity fits the count field");
        buf.resize(self.page_size, 0);
        let (header, body) = buf.split_at_mut(HEADER_SIZE);
        header.copy_from_slice(&count.to_le_bytes());
        let (records, padding) = body.split_at_mut(elements.len() * RECORD_SIZE);
        let (records, _) = records.as_chunks_mut::<RECORD_SIZE>();
        for (record, e) in records.iter_mut().zip(elements) {
            write_record(record, e);
        }
        padding.fill(0);
    }

    /// Borrows the records of a page image in place: the count is read and
    /// checked against the page length here, once, and every later read
    /// through the view is a plain slice access.
    ///
    /// # Panics
    /// Panics if the page is shorter than its header or its declared
    /// payload.
    #[inline]
    pub fn view<'p>(&self, page: &'p [u8]) -> ElementRecords<'p> {
        let Some(header) = page.first_chunk::<HEADER_SIZE>() else {
            panic!(
                "corrupt element page: {} bytes is shorter than the header",
                page.len()
            );
        };
        let count = u16::from_le_bytes(*header) as usize;
        ElementRecords::at(page, HEADER_SIZE, count).unwrap_or_else(|| {
            panic!(
                "corrupt element page: count {count} does not fit {} bytes",
                page.len()
            )
        })
    }

    /// Deserializes the elements stored in a page image.
    ///
    /// # Panics
    /// Panics if the page is shorter than its declared payload.
    pub fn decode(&self, page: &[u8]) -> Vec<SpatialElement> {
        self.view(page).iter().collect()
    }

    /// Decodes a page directly into `out` (cleared first, reusing its
    /// capacity — no intermediate allocation, unlike `decode`).
    ///
    /// # Panics
    /// Panics if the page is shorter than its declared payload.
    pub fn decode_into(&self, page: &[u8], out: &mut Vec<SpatialElement>) {
        let records = self.view(page);
        out.clear();
        out.extend(records.iter());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_PAGE_SIZE;
    use proptest::prelude::*;

    fn elem(id: u64, lo: f64) -> SpatialElement {
        SpatialElement::new(
            id,
            Aabb::new(
                Point3::new(lo, lo + 1.0, lo + 2.0),
                Point3::new(lo + 3.0, lo + 4.0, lo + 5.0),
            ),
        )
    }

    #[test]
    fn default_page_capacity_matches_paper_math() {
        let c = ElementPageCodec::new(DEFAULT_PAGE_SIZE);
        assert_eq!(c.capacity(), (8192 - 2) / 56); // 146
    }

    #[test]
    fn roundtrip_full_page() {
        let c = ElementPageCodec::new(DEFAULT_PAGE_SIZE);
        let elems: Vec<_> = (0..c.capacity() as u64)
            .map(|i| elem(i, i as f64))
            .collect();
        let page = c.encode(&elems);
        assert_eq!(page.len(), DEFAULT_PAGE_SIZE);
        assert_eq!(c.decode(&page), elems);
    }

    #[test]
    fn roundtrip_empty_and_partial() {
        let c = ElementPageCodec::new(512);
        assert_eq!(c.decode(&c.encode(&[])), vec![]);
        let elems = vec![elem(7, 0.5), elem(9, -3.25)];
        assert_eq!(c.decode(&c.encode(&elems)), elems);
    }

    #[test]
    #[should_panic(expected = "exceed page capacity")]
    fn overfull_page_panics() {
        let c = ElementPageCodec::new(HEADER_SIZE + RECORD_SIZE); // capacity 1
        let elems = vec![elem(0, 0.0), elem(1, 1.0)];
        c.encode(&elems);
    }

    #[test]
    fn encode_into_reuses_buffer_and_matches_encode() {
        let c = ElementPageCodec::new(512);
        let elems = vec![elem(7, 0.5), elem(9, -3.25)];
        let mut buf = Vec::new();
        c.encode_into(&elems, &mut buf);
        assert_eq!(buf, c.encode(&elems));
        // Reuse with different (and empty) content: cleared each time.
        c.encode_into(&[elem(1, 1.0)], &mut buf);
        assert_eq!(buf, c.encode(&[elem(1, 1.0)]));
        c.encode_into(&[], &mut buf);
        assert_eq!(buf, c.encode(&[]));
        assert_eq!(buf.len(), 512);
    }

    /// The encoder this one replaced — one growth-checked `put_*` per
    /// field, then zero padding — kept as the oracle.
    fn oracle_encode(page_size: usize, elements: &[SpatialElement]) -> Vec<u8> {
        use bytes::BufMut;
        let mut buf = Vec::new();
        buf.put_u16_le(elements.len() as u16);
        for e in elements {
            buf.put_u64_le(e.id);
            buf.put_f64_le(e.mbb.min.x);
            buf.put_f64_le(e.mbb.min.y);
            buf.put_f64_le(e.mbb.min.z);
            buf.put_f64_le(e.mbb.max.x);
            buf.put_f64_le(e.mbb.max.y);
            buf.put_f64_le(e.mbb.max.z);
        }
        buf.resize(page_size, 0);
        buf
    }

    #[test]
    fn encode_into_equals_the_field_by_field_oracle_into_a_dirty_buffer() {
        // 520 bytes: capacity 9 with 14 bytes of padding even when full.
        let c = ElementPageCodec::new(520);
        let all: Vec<_> = (0..c.capacity() as u64)
            .map(|i| elem(u64::MAX - i, -(i as f64) * 0.37))
            .collect();
        // Every reuse starts from a buffer of another length full of ones:
        // longer than a page, a page, shorter, empty.
        for dirty_len in [4096, 520, 100, 0] {
            for n in [c.capacity(), 1, 0, 5] {
                let mut buf = vec![0xff; dirty_len];
                c.encode_into(&all[..n], &mut buf);
                assert_eq!(buf, oracle_encode(520, &all[..n]), "{n} into {dirty_len}");
            }
        }
        // One buffer across pages of shrinking fill, as the build reuses it.
        let mut buf = Vec::new();
        for n in [c.capacity(), 5, 1, 0] {
            c.encode_into(&all[..n], &mut buf);
            assert_eq!(buf, oracle_encode(520, &all[..n]), "{n} reused");
        }
    }

    #[test]
    fn capacity_never_exceeds_the_count_field() {
        // 4 MiB has room for 74 898 records; the header counts to 65 535.
        let c = ElementPageCodec::new(1 << 22);
        assert_eq!(c.capacity(), u16::MAX as usize);
        let elems: Vec<_> = (0..c.capacity() as u64)
            .map(|i| elem(i, i as f64))
            .collect();
        let page = c.encode(&elems);
        assert_eq!(c.view(&page).len(), elems.len());
        assert_eq!(c.decode(&page), elems);
        // Just under the cap nothing changes.
        let c = ElementPageCodec::new(HEADER_SIZE + 65_535 * RECORD_SIZE - 1);
        assert_eq!(c.capacity(), 65_534);
    }

    #[test]
    fn decode_into_reuses_buffer() {
        let c = ElementPageCodec::new(512);
        let page = c.encode(&[elem(1, 1.0)]);
        let mut buf = Vec::with_capacity(10);
        c.decode_into(&page, &mut buf);
        assert_eq!(buf.len(), 1);
        c.decode_into(&c.encode(&[]), &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn negative_and_fractional_coords_survive() {
        let c = ElementPageCodec::new(512);
        let e = SpatialElement::new(
            u64::MAX,
            Aabb::new(
                Point3::new(-1e9, -0.001, 1e-12),
                Point3::new(-1e8, 0.001, 2e-12),
            ),
        );
        assert_eq!(c.decode(&c.encode(&[e])), vec![e]);
    }

    /// A field-by-field cursor parser that shares nothing with the view:
    /// the oracle, since `decode*` itself reads through the view.
    fn oracle_decode(page: &[u8]) -> Vec<SpatialElement> {
        use bytes::Buf;
        let mut buf = page;
        let count = buf.get_u16_le() as usize;
        assert!(
            page.len() >= HEADER_SIZE + count * RECORD_SIZE,
            "corrupt element page: count {count} does not fit {} bytes",
            page.len()
        );
        (0..count)
            .map(|_| {
                let id = buf.get_u64_le();
                let min = Point3::new(buf.get_f64_le(), buf.get_f64_le(), buf.get_f64_le());
                let max = Point3::new(buf.get_f64_le(), buf.get_f64_le(), buf.get_f64_le());
                SpatialElement::new(id, Aabb::new(min, max))
            })
            .collect()
    }

    /// `==` on `f64` cannot tell `0.0` from `-0.0`; the format must.
    fn bits(e: &SpatialElement) -> [u64; 7] {
        let (lo, hi) = (e.mbb.min, e.mbb.max);
        [
            e.id,
            lo.x.to_bits(),
            lo.y.to_bits(),
            lo.z.to_bits(),
            hi.x.to_bits(),
            hi.y.to_bits(),
            hi.z.to_bits(),
        ]
    }

    /// Elements whose corners mix signed zeros, subnormals, fractions and
    /// large magnitudes; `min <= 0.0 <= max` on every axis.
    fn arb_elements(max: usize) -> impl Strategy<Value = Vec<SpatialElement>> {
        let magnitude = |class: u8, raw: u64| {
            let unit = (raw >> 11) as f64 / (1u64 << 53) as f64;
            match class % 4 {
                0 => 0.0,
                1 => f64::from_bits(raw % ((1 << 52) - 1) + 1),
                2 => unit,
                _ => unit * 1e12,
            }
        };
        prop::collection::vec(
            (any::<u64>(), any::<[u8; 6]>(), any::<[u64; 6]>()),
            0..max + 1,
        )
        .prop_map(move |raw| {
            raw.into_iter()
                .map(|(id, class, r)| {
                    let m: [f64; 6] = std::array::from_fn(|i| magnitude(class[i], r[i]));
                    SpatialElement::new(
                        id,
                        Aabb::new(
                            Point3::new(-m[0], -m[1], -m[2]),
                            Point3::new(m[3], m[4], m[5]),
                        ),
                    )
                })
                .collect()
        })
    }

    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let err = std::panic::catch_unwind(f).expect_err("must panic");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic carries a message")
    }

    proptest! {
        #[test]
        fn view_reads_back_the_encoded_input_bit_for_bit(elems in arb_elements(9)) {
            let c = ElementPageCodec::new(512); // capacity 9
            let page = c.encode(&elems);
            let view = c.view(&page);
            let want: Vec<[u64; 7]> = elems.iter().map(bits).collect();

            prop_assert_eq!(view.len(), elems.len());
            prop_assert_eq!(view.is_empty(), elems.is_empty());
            prop_assert_eq!(view.iter().len(), elems.len());
            let seen: Vec<[u64; 7]> = view.iter().map(|e| bits(&e)).collect();
            prop_assert_eq!(&seen, &want);
            let oracle: Vec<[u64; 7]> = oracle_decode(&page).iter().map(bits).collect();
            prop_assert_eq!(&oracle, &want);
            for (i, e) in elems.iter().enumerate() {
                prop_assert_eq!(view.id(i), e.id);
                prop_assert_eq!(bits(&SpatialElement::new(e.id, view.mbb(i))), bits(e));
            }
            // The materialising conveniences are the same parser.
            let decoded: Vec<[u64; 7]> = c.decode(&page).iter().map(bits).collect();
            prop_assert_eq!(&decoded, &want);
            let mut buf = vec![elem(99, 1.0)];
            c.decode_into(&page, &mut buf);
            let decoded: Vec<[u64; 7]> = buf.iter().map(bits).collect();
            prop_assert_eq!(&decoded, &want);
        }
    }

    #[test]
    fn view_rejects_a_count_that_does_not_fit_like_decode_into() {
        let c = ElementPageCodec::new(512);
        let mut page = c.encode(&[elem(1, 1.0)]);
        page[..2].copy_from_slice(&10u16.to_le_bytes()); // capacity is 9
        let from_view = panic_message(|| {
            c.view(&page);
        });
        let from_decode = panic_message(|| c.decode_into(&page, &mut Vec::new()));
        assert_eq!(
            from_view,
            "corrupt element page: count 10 does not fit 512 bytes"
        );
        assert_eq!(from_view, from_decode);
        assert_eq!(
            from_view,
            panic_message(|| {
                oracle_decode(&page);
            })
        );
        // A truncated image of an honest page fails the same way.
        let honest = c.encode(&[elem(1, 1.0), elem(2, 2.0)]);
        let msg = panic_message(|| {
            c.view(&honest[..HEADER_SIZE + 2 * RECORD_SIZE - 1]);
        });
        assert_eq!(msg, "corrupt element page: count 2 does not fit 113 bytes");
    }

    #[test]
    fn view_rejects_pages_shorter_than_the_header() {
        let c = ElementPageCodec::new(512);
        for len in 0..HEADER_SIZE {
            let msg = panic_message(|| {
                c.view(&vec![0u8; len]);
            });
            assert_eq!(
                msg,
                format!("corrupt element page: {len} bytes is shorter than the header")
            );
        }
        // The header alone is a valid empty page.
        assert!(c.view(&[0, 0]).is_empty());
        assert!(ElementRecords::at(&[0u8; 10], 11, 0).is_none());
        assert!(ElementRecords::at(&[0u8; 10], 10, 0).is_some());
        assert!(ElementRecords::at(&[0u8; 10], 2, usize::MAX).is_none());
    }

    #[test]
    #[should_panic]
    fn view_index_past_the_count_panics() {
        let c = ElementPageCodec::new(512);
        let page = c.encode(&[elem(1, 1.0)]);
        // Zero padding follows record 0; it is not record 1.
        c.view(&page).id(1);
    }
}
