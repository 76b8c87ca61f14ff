//! Page storage backends: where a [`crate::Disk`]'s bytes actually live.
//!
//! [`PageStore`] is the seam between the disk's *accounting* (allocation,
//! sequential/random classification, the [`crate::DiskModel`] cost oracle)
//! and its *bytes*. Two implementations:
//!
//! * [`MemStore`] — memory behind one `RwLock`, grown by fixed-size
//!   segments so that no stored byte is ever copied to make room; the
//!   deterministic default every test and harness runs on.
//! * [`FileStore`] — a real on-disk file of fixed-size pages accessed with
//!   positional `pread`/`pwrite` (`FileExt::read_at`/`write_all_at`).
//!   There is **no global file-offset lock**: positional I/O carries its
//!   offset per call, so any number of threads can read concurrently: the
//!   serve workers' demand misses and the parallel join's engines read one
//!   file without queueing on each other.
//!
//! Error semantics of [`FileStore`] are strict where silence would hide
//! corruption: a page that lies wholly past end-of-file reads as zeros
//! (allocated-but-never-written, matching [`MemStore`]), but end-of-file
//! landing *inside* a page is a torn/truncated image and surfaces as
//! [`std::io::ErrorKind::UnexpectedEof`]; likewise
//! [`FileStore::open`] rejects images whose length is not a multiple of
//! the page size.
//!
//! The checksummed variants ([`FileStore::create_checksummed`] /
//! [`FileStore::open_checksummed`]) add torn-*write* protection: every
//! page write also records the page's [`checksum64`] in a `.sums` sidecar
//! file, and every read verifies it. A mismatch (a write that reached the
//! image but not the sidecar, or vice versa, or bit rot) surfaces as
//! [`std::io::ErrorKind::InvalidData`] with a "checksum mismatch" message
//! — recognizable via [`is_checksum_mismatch`] and distinct from the
//! truncated-image `UnexpectedEof`. The sidecar (rather than an in-page
//! footer) keeps page images byte-identical to the memory backend, which
//! the file≡mem equivalence suite depends on.

use parking_lot::RwLock;
use std::fs::{File, OpenOptions};
use std::io;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use crate::DiskBackendKind;

/// A page-granular byte store: the backend a [`crate::Disk`] reads and
/// writes through.
///
/// Offsets are byte offsets (always page-aligned: the disk multiplies page
/// id by page size) and `buf`/`page` are always exactly one page long.
/// Implementations must be safe for concurrent calls from many threads —
/// serve workers and join engines read one disk at once.
pub trait PageStore: Send + Sync {
    /// Which backend family this store is (for reporting).
    fn kind(&self) -> DiskBackendKind;

    /// Reads one page at `offset` into `buf`, zero-filling pages beyond
    /// the written extent.
    fn read_page(&self, offset: u64, buf: &mut [u8]) -> io::Result<()>;

    /// Writes one full page at `offset`, extending the store as needed.
    fn write_page(&self, offset: u64, page: &[u8]) -> io::Result<()>;

    /// Writes `pages`, a whole number of full pages, to the consecutive
    /// pages that start at `offset`. The default writes them one by one;
    /// the in-tree stores write the run in one call.
    fn write_pages(&self, offset: u64, pages: &[u8], page_size: usize) -> io::Result<()> {
        for (k, page) in (0u64..).zip(pages.chunks_exact(page_size)) {
            self.write_page(offset + k * page_size as u64, page)?;
        }
        Ok(())
    }

    /// Bytes currently stored (the written extent, not the allocation).
    fn len(&self) -> u64;

    /// True when nothing has been written yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forces all written pages to durable media (fsync for file-backed
    /// stores). A no-op for memory stores.
    fn sync(&self) -> io::Result<()> {
        Ok(())
    }
}

/// Multiplier of every checksum step (odd, so `x * K` permutes `u64`).
const SUM_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// Start values of the four lanes.
const SUM_LANES: [u64; 4] = [
    0xcbf2_9ce4_8422_2325,
    0x8422_2325_cbf2_9ce4,
    0x2545_F491_4F6C_DD1D,
    0xD6E8_FEB8_6659_FD93,
];

/// One checksum step: xor, multiply by an odd constant, rotate. For a
/// fixed `word` it permutes `h`, and for a fixed `h` it permutes `word`.
#[inline(always)]
fn sum_step(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(SUM_MUL).rotate_left(29)
}

#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"))
}

/// The 64-bit page/record checksum of the checksummed [`FileStore`]
/// sidecar and of the WAL record framing.
///
/// `bytes` is read as little-endian `u64` words. Each 32-byte block feeds
/// four independent xor-multiply-rotate lanes (four multiply chains in
/// flight instead of FNV-1a's one multiply per byte); the lanes, then the
/// up to three whole words left over, then the up to seven tail bytes
/// packed into one word, are folded with the same step into a value
/// seeded by the length.
///
/// Every step permutes its state for fixed input and its input for fixed
/// state, so two inputs of equal length that differ only inside one
/// 8-byte word at a multiple-of-8 offset (any single-bit or single-byte
/// error included) always get different sums. Wider damage — a torn page,
/// a zero-extended or truncated one — is caught with probability
/// 1 − 2⁻⁶⁴, as by any 64-bit sum. It is not FNV-1a and not a
/// cryptographic hash.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut lanes = SUM_LANES;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = sum_step(*lane, le_word(word));
        }
    }
    let mut h = (bytes.len() as u64).wrapping_mul(SUM_MUL);
    for lane in lanes {
        h = sum_step(h, lane);
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for word in &mut words {
        h = sum_step(h, le_word(word));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = sum_step(h, u64::from_le_bytes(last));
    }
    h
}

/// True when `err` is a per-page checksum mismatch from a checksummed
/// [`FileStore`] (torn write or corruption), as opposed to the
/// truncated-image [`std::io::ErrorKind::UnexpectedEof`] torn-page error.
pub fn is_checksum_mismatch(err: &io::Error) -> bool {
    err.kind() == io::ErrorKind::InvalidData && err.to_string().contains("checksum mismatch")
}

/// log2 of the bytes per [`MemStore`] segment: 64 MiB. Keep it above
/// 32 MiB, the most glibc's `malloc` will ever serve from its own heap
/// (see [`MemStore`]).
const SEGMENT_SHIFT: u32 = 26;
const _: () = assert!(1usize << SEGMENT_SHIFT > 32 << 20);

/// The in-memory page store: fixed-size, zero-initialised segments behind
/// a `RwLock`, appended as the written extent grows.
///
/// A stored byte never moves. One `Vec<u8>` grown page by page doubles its
/// allocation as it fills — each doubling copies everything written so far
/// and, for as long as the copy takes, holds the old and the new buffer at
/// once — which showed as a resident-set spike in every bulk load
/// (DESIGN.md § "Bulk load" has the trace). Appending a segment costs one
/// zeroed allocation whatever the store already holds.
///
/// A segment is address space, not memory. A zeroed block of 64 MiB is
/// above the size up to which glibc's `malloc` serves requests from its
/// own heap (the mmap threshold adapts, but never past 32 MiB): it is
/// mapped from the operating system, its pages become resident as they are
/// first written, and dropping the store unmaps them. So the store costs
/// what was written to it, whatever state the allocator's heap is in, and
/// leaves nothing behind there. Segments of 1 MiB did neither: they were
/// carved from the holes of the heap, and where every later large
/// allocation of the process then landed depended on which holes they had
/// taken — the same build on the same input peaked at 95 MB in one run and
/// 113 MB in the next (DESIGN.md § "Bulk load"). The price is one page
/// fault per 4 KiB first written, every time a store is filled.
///
/// A page whose size does not divide the segment may straddle two
/// segments; reads and writes copy it piecewise. Pages past the written
/// extent read as zeros.
pub struct MemStore {
    /// log2 of the segment length ([`SEGMENT_SHIFT`] outside the tests).
    shift: u32,
    inner: RwLock<Segments>,
}

#[derive(Default)]
struct Segments {
    /// `1 << shift`-byte blocks; together they cover `0..len`.
    segments: Vec<Box<[u8]>>,
    /// The written extent: the end of the furthest page written.
    len: usize,
}

/// Splits the byte range `offset..offset + len` at the boundaries of
/// `1 << shift`-byte segments: one `(segment, range within it, range
/// within the page)` per piece.
fn pieces(
    shift: u32,
    offset: usize,
    len: usize,
) -> impl Iterator<Item = (usize, Range<usize>, Range<usize>)> {
    let segment_bytes = 1usize << shift;
    let mut done = 0;
    std::iter::from_fn(move || {
        if done == len {
            return None;
        }
        let at = (offset + done) & (segment_bytes - 1);
        let n = (len - done).min(segment_bytes - at);
        let piece = ((offset + done) >> shift, at..at + n, done..done + n);
        done += n;
        Some(piece)
    })
}

impl MemStore {
    /// Creates an empty memory store.
    pub fn new() -> Self {
        Self::with_segment_shift(SEGMENT_SHIFT)
    }

    /// An empty store of `1 << shift`-byte segments (the tests straddle
    /// boundaries without writing 64 MiB to reach one).
    fn with_segment_shift(shift: u32) -> Self {
        Self {
            shift,
            inner: RwLock::default(),
        }
    }
}

impl Default for MemStore {
    fn default() -> Self {
        Self::new()
    }
}

impl PageStore for MemStore {
    fn kind(&self) -> DiskBackendKind {
        DiskBackendKind::Memory
    }

    fn read_page(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let offset = offset as usize;
        let inner = self.inner.read();
        if inner.len >= offset + buf.len() {
            for (segment, within, of_page) in pieces(self.shift, offset, buf.len()) {
                buf[of_page].copy_from_slice(&inner.segments[segment][within]);
            }
        } else {
            // Allocated but never written: reads as zeros.
            buf.fill(0);
        }
        Ok(())
    }

    fn write_page(&self, offset: u64, page: &[u8]) -> io::Result<()> {
        self.write_pages(offset, page, page.len())
    }

    /// One lock and one copy per segment the run touches.
    fn write_pages(&self, offset: u64, pages: &[u8], _page_size: usize) -> io::Result<()> {
        let offset = offset as usize;
        let end = offset + pages.len();
        let mut inner = self.inner.write();
        while inner.segments.len() << self.shift < end {
            inner
                .segments
                .push(vec![0u8; 1 << self.shift].into_boxed_slice());
        }
        inner.len = inner.len.max(end);
        for (segment, within, of_run) in pieces(self.shift, offset, pages.len()) {
            inner.segments[segment][within].copy_from_slice(&pages[of_run]);
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.inner.read().len as u64
    }
}

impl std::fmt::Debug for MemStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemStore")
            .field("len", &self.len())
            .finish()
    }
}

/// The real-file page store: positional I/O against one on-disk image,
/// optionally paired with a per-page checksum sidecar (`<image>.sums`).
#[derive(Debug)]
pub struct FileStore {
    file: File,
    path: PathBuf,
    page_size: usize,
    /// Per-page [`checksum64`] sidecar (8 bytes per page, same index as the
    /// image).
    /// `None` for plain (unchecksummed) stores.
    sums: Option<File>,
}

impl FileStore {
    /// Creates (or truncates) a page image at `path`.
    pub fn create<P: AsRef<Path>>(path: P, page_size: usize) -> io::Result<Self> {
        Self::create_inner(path.as_ref(), page_size, false)
    }

    /// Creates (or truncates) a page image at `path` together with a
    /// `.sums` checksum sidecar; every read verifies its page checksum.
    pub fn create_checksummed<P: AsRef<Path>>(path: P, page_size: usize) -> io::Result<Self> {
        Self::create_inner(path.as_ref(), page_size, true)
    }

    fn create_inner(path: &Path, page_size: usize, checksummed: bool) -> io::Result<Self> {
        assert!(page_size > 0, "page size must be positive");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let sums = if checksummed {
            Some(
                OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(Self::sums_path(path))?,
            )
        } else {
            None
        };
        Ok(Self {
            file,
            path: path.to_path_buf(),
            page_size,
            sums,
        })
    }

    /// Opens an existing page image at `path`, rejecting images whose
    /// length is not a whole number of pages (a truncated or foreign file).
    pub fn open<P: AsRef<Path>>(path: P, page_size: usize) -> io::Result<Self> {
        Self::open_inner(path.as_ref(), page_size, false)
    }

    /// Opens an existing page image together with its `.sums` sidecar,
    /// creating and backfilling the sidecar when it is missing or short
    /// (migration path for images created by the plain backend).
    pub fn open_checksummed<P: AsRef<Path>>(path: P, page_size: usize) -> io::Result<Self> {
        Self::open_inner(path.as_ref(), page_size, true)
    }

    fn open_inner(path: &Path, page_size: usize, checksummed: bool) -> io::Result<Self> {
        assert!(page_size > 0, "page size must be positive");
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % page_size as u64 != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "page image {} is {} bytes, not a multiple of the {}-byte page size (truncated?)",
                    path.display(),
                    len,
                    page_size
                ),
            ));
        }
        let sums = if checksummed {
            let sums = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(Self::sums_path(path))?;
            // Backfill checksums for pages the sidecar does not cover yet.
            let pages = len / page_size as u64;
            let covered = sums.metadata()?.len() / 8;
            let mut buf = vec![0u8; page_size];
            for p in covered..pages {
                file.read_exact_at(&mut buf, p * page_size as u64)?;
                sums.write_all_at(&checksum64(&buf).to_le_bytes(), p * 8)?;
            }
            Some(sums)
        } else {
            None
        };
        Ok(Self {
            file,
            path: path.to_path_buf(),
            page_size,
            sums,
        })
    }

    fn sums_path(path: &Path) -> PathBuf {
        let mut p = path.as_os_str().to_os_string();
        p.push(".sums");
        PathBuf::from(p)
    }

    /// Whole pages currently in the image.
    pub fn pages(&self) -> u64 {
        self.len() / self.page_size as u64
    }

    /// Path of the backing image.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// True when this store verifies a per-page checksum sidecar.
    pub fn is_checksummed(&self) -> bool {
        self.sums.is_some()
    }

    fn verify_checksum(&self, sums: &File, offset: u64, buf: &[u8]) -> io::Result<()> {
        let index = offset / self.page_size as u64;
        let mut stored = [0u8; 8];
        let mut read = 0;
        while read < stored.len() {
            match sums.read_at(&mut stored[read..], index * 8 + read as u64) {
                Ok(0) => break,
                Ok(n) => read += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        let stored = u64::from_le_bytes(stored);
        // A zero slot means "never recorded": legitimate only for a hole —
        // a page the image extends over but never wrote (reads as zeros).
        if stored == 0 && read < 8 {
            return Ok(());
        }
        if stored == 0 && buf.iter().all(|&b| b == 0) {
            return Ok(());
        }
        let computed = checksum64(buf);
        if stored != computed {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "checksum mismatch on page {} of {}: stored {:#018x}, computed {:#018x} (torn write or corruption)",
                    index,
                    self.path.display(),
                    stored,
                    computed
                ),
            ));
        }
        Ok(())
    }
}

impl PageStore for FileStore {
    fn kind(&self) -> DiskBackendKind {
        DiskBackendKind::File
    }

    fn read_page(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        buf.fill(0);
        let mut read = 0;
        while read < buf.len() {
            match self.file.read_at(&mut buf[read..], offset + read as u64) {
                // EOF before the first byte: the page lies wholly past the
                // written extent and legitimately reads as zeros. EOF
                // *inside* the page means the image was truncated.
                Ok(0) if read == 0 => break,
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!(
                            "torn page in {}: end-of-file after {} of {} bytes at offset {}",
                            self.path.display(),
                            read,
                            buf.len(),
                            offset
                        ),
                    ))
                }
                Ok(n) => read += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if let Some(sums) = &self.sums {
            // Pages wholly past EOF never hit the disk and are trivially
            // consistent (all zeros, nothing recorded).
            if read > 0 {
                self.verify_checksum(sums, offset, buf)?;
            }
        }
        Ok(())
    }

    fn write_page(&self, offset: u64, page: &[u8]) -> io::Result<()> {
        self.write_pages(offset, page, self.page_size)
    }

    /// One positional write for the run's bytes and, when checksummed, one
    /// for its run of sidecar slots.
    fn write_pages(&self, offset: u64, pages: &[u8], page_size: usize) -> io::Result<()> {
        self.file.write_all_at(pages, offset)?;
        if let Some(sums) = &self.sums {
            let index = offset / page_size as u64;
            let slots: Vec<u8> = pages
                .chunks_exact(page_size)
                .flat_map(|page| checksum64(page).to_le_bytes())
                .collect();
            sums.write_all_at(&slots, index * 8)?;
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.file.metadata().map(|m| m.len()).unwrap_or(0)
    }

    fn sync(&self) -> io::Result<()> {
        self.file.sync_data()?;
        if let Some(sums) = &self.sums {
            sums.sync_data()?;
        }
        Ok(())
    }
}

/// Which [`PageStore`] a harness or CLI run should construct its disks
/// with — the configuration-level counterpart of [`DiskBackendKind`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum StoreBackend {
    /// In-memory pages ([`MemStore`]); the deterministic default.
    #[default]
    Mem,
    /// Real file images ([`FileStore`]) created under the given directory,
    /// one per disk, named by the caller's tag.
    File(PathBuf),
    /// Real file images with per-page checksum sidecars
    /// ([`FileStore::create_checksummed`]) — the backend the mutable write
    /// path uses so torn data-page writes are detected on read.
    FileChecksummed(PathBuf),
}

impl StoreBackend {
    /// The backend family this configuration produces.
    pub fn kind(&self) -> DiskBackendKind {
        match self {
            StoreBackend::Mem => DiskBackendKind::Memory,
            StoreBackend::File(_) | StoreBackend::FileChecksummed(_) => DiskBackendKind::File,
        }
    }

    /// True for the file-backed variants.
    pub fn is_file(&self) -> bool {
        matches!(
            self,
            StoreBackend::File(_) | StoreBackend::FileChecksummed(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tfm_store_{}_{}.pages", tag, std::process::id()))
    }

    /// Deterministic page-like bytes: no two neighbouring words equal.
    fn patterned(len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
            .collect()
    }

    fn assert_every_bit_flip_changes_the_sum(bytes: &[u8]) {
        let sum = checksum64(bytes);
        let mut flipped = bytes.to_vec();
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(
                checksum64(&flipped),
                sum,
                "bit {bit} of {} bytes",
                bytes.len()
            );
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn checksum_changes_on_each_of_the_16384_bit_flips_of_a_page() {
        assert_every_bit_flip_changes_the_sum(&patterned(2048));
        assert_every_bit_flip_changes_the_sum(&[0u8; 2048]);
    }

    #[test]
    fn checksum_handles_every_length_class() {
        // Empty, tail only, words + tail (a commit payload), one byte
        // short of a block, exactly one block, a block + tail, a page.
        let lengths = [0usize, 1, 17, 31, 32, 33, 2048];
        for len in lengths {
            assert_every_bit_flip_changes_the_sum(&patterned(len));
        }
        // Zero runs of different lengths differ by nothing but the length.
        let mut zero_sums: Vec<u64> = lengths.iter().map(|&n| checksum64(&vec![0; n])).collect();
        zero_sums.sort_unstable();
        zero_sums.dedup();
        assert_eq!(zero_sums.len(), lengths.len());
    }

    proptest! {
        // A torn write: the first `cut` bytes of the new image reached the
        // medium, the rest still holds the old one.
        #[test]
        fn checksum_detects_a_page_torn_at_any_byte(
            old in prop::collection::vec(any::<u8>(), 2048),
            edits in prop::collection::vec((0usize..2048, 1u8..=255), 1..12),
            cut in 0usize..=2048,
        ) {
            let mut new = old.clone();
            for (at, delta) in edits {
                new[at] ^= delta;
            }
            let mut torn = new[..cut].to_vec();
            torn.extend_from_slice(&old[cut..]);
            if torn != new {
                prop_assert_ne!(checksum64(&torn), checksum64(&new));
            }
            if torn != old {
                prop_assert_ne!(checksum64(&torn), checksum64(&old));
            }
        }

        #[test]
        fn checksum_detects_zero_extension_and_truncation(
            data in prop::collection::vec(any::<u8>(), 0..200),
            zeros in 1usize..80,
        ) {
            let mut extended = data.clone();
            extended.resize(data.len() + zeros, 0);
            prop_assert_ne!(checksum64(&extended), checksum64(&data));
        }
    }

    #[test]
    fn mem_store_roundtrip_and_zero_fill() {
        let s = MemStore::new();
        s.write_page(64, &[7u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        s.read_page(64, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 64]);
        // Page past the written extent reads zeros.
        buf.fill(0xff);
        s.read_page(128, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64]);
        assert_eq!(s.len(), 128);
    }

    /// The store this one replaced — one `Vec<u8>`, resized on every write
    /// past its end — kept as the model.
    #[derive(Default)]
    struct VecModel(Vec<u8>);

    impl VecModel {
        fn read_page(&self, offset: usize, buf: &mut [u8]) {
            if self.0.len() >= offset + buf.len() {
                buf.copy_from_slice(&self.0[offset..offset + buf.len()]);
            } else {
                buf.fill(0);
            }
        }

        fn write_page(&mut self, offset: usize, page: &[u8]) {
            if self.0.len() < offset + page.len() {
                self.0.resize(offset + page.len(), 0);
            }
            self.0[offset..offset + page.len()].copy_from_slice(page);
        }
    }

    #[test]
    fn mem_store_matches_a_vec_model_under_random_page_traffic() {
        // 1 MiB segments, so that a few thousand pages cross several
        // boundaries. 64 and 2 048 divide a segment; 1 000 does not, so
        // every 1 048th page straddles two segments; the last is larger
        // than a segment, so every page straddles at least one boundary.
        const SHIFT: u32 = 20;
        const SEGMENT_BYTES: usize = 1 << SHIFT;
        for (page_size, pages, writes) in [
            (64usize, 40_000u64, 300),
            (1_000, 2_600, 300),
            (2_048, 1_300, 300),
            (SEGMENT_BYTES + 24, 5, 12),
        ] {
            let store = MemStore::with_segment_shift(SHIFT);
            let mut model = VecModel::default();
            let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ page_size as u64;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut page = vec![0u8; page_size];
            let mut got = vec![0u8; page_size];
            let mut want = vec![0u8; page_size];
            let mut check = |store: &MemStore, model: &VecModel, id: u64| {
                let offset = id * page_size as u64;
                got.fill(0xAA);
                store.read_page(offset, &mut got).unwrap();
                model.read_page(offset as usize, &mut want);
                assert!(got == want, "page {id} of {page_size} bytes");
                assert_eq!(store.len(), model.0.len() as u64);
            };
            // Empty store: everything reads as zeros, len is 0.
            check(&store, &model, 0);
            check(&store, &model, pages - 1);
            assert!(store.is_empty());
            // The first write lands far from offset 0 (a sparse store).
            let first = pages * 3 / 4;
            for i in 0..writes {
                let id = match i {
                    0 => first,
                    // The page over the first segment boundary (or, where
                    // the page size divides a segment, the one ending there).
                    1 | 2 => (SEGMENT_BYTES as u64 - 1) / page_size as u64,
                    _ => next() % pages,
                };
                for word in page.chunks_mut(8) {
                    // Never all zeros: a written page differs from a hole.
                    let bytes = (next() | 1).to_le_bytes();
                    word.copy_from_slice(&bytes[..word.len()]);
                }
                store.write_page(id * page_size as u64, &page).unwrap();
                model.write_page((id * page_size as u64) as usize, &page);
                check(&store, &model, id);
                // A random page, the written page's neighbours (the far
                // side of a straddled boundary), the last page in the
                // extent and the first one past it.
                check(&store, &model, next() % pages);
                check(&store, &model, id.saturating_sub(1));
                check(&store, &model, id + 1);
                let extent_pages = store.len() / page_size as u64;
                check(&store, &model, extent_pages - 1);
                check(&store, &model, extent_pages);
                if i == 0 {
                    assert_eq!(store.len(), (first + 1) * page_size as u64);
                    check(&store, &model, 0);
                }
            }
            // Every page of the final image, straddlers included.
            for id in 0..pages + 2 {
                check(&store, &model, id);
            }
        }
    }

    #[test]
    fn file_store_concurrent_positional_reads() {
        let path = temp_path("concurrent");
        let s = FileStore::create(&path, 64).unwrap();
        for i in 0..16u64 {
            s.write_page(i * 64, &[i as u8; 64]).unwrap();
        }
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let s = &s;
                scope.spawn(move || {
                    let mut buf = [0u8; 64];
                    for round in 0..32u64 {
                        let p = (round * 5 + t) % 16;
                        s.read_page(p * 64, &mut buf).unwrap();
                        assert_eq!(buf, [p as u8; 64]);
                    }
                });
            }
        });
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_store_short_read_is_a_torn_page_error() {
        let path = temp_path("torn");
        let s = FileStore::create(&path, 64).unwrap();
        s.write_page(0, &[1u8; 64]).unwrap();
        s.write_page(64, &[2u8; 64]).unwrap();
        // Truncate mid-page: page 1 now ends after 32 of its 64 bytes.
        s.file.set_len(96).unwrap();
        let mut buf = [0u8; 64];
        // Page 0 is intact.
        s.read_page(0, &mut buf).unwrap();
        assert_eq!(buf, [1u8; 64]);
        // Page 1 is torn: must error, not silently zero-extend.
        let err = s.read_page(64, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("torn page"), "{err}");
        // Page 2 lies wholly past EOF: legitimate zero page.
        s.read_page(128, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_truncated_images() {
        let path = temp_path("openshort");
        {
            let s = FileStore::create(&path, 64).unwrap();
            s.write_page(0, &[3u8; 64]).unwrap();
            s.file.set_len(63).unwrap();
        }
        let err = FileStore::open(&path, 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("not a multiple"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_reads_existing_image() {
        let path = temp_path("reopen");
        {
            let s = FileStore::create(&path, 64).unwrap();
            s.write_page(0, &[9u8; 64]).unwrap();
            s.write_page(64, &[8u8; 64]).unwrap();
        }
        let s = FileStore::open(&path, 64).unwrap();
        assert_eq!(s.pages(), 2);
        let mut buf = [0u8; 64];
        s.read_page(64, &mut buf).unwrap();
        assert_eq!(buf, [8u8; 64]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_missing_file_errors() {
        let err = FileStore::open(temp_path("missing"), 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn checksummed_store_roundtrips_and_detects_corruption() {
        let path = temp_path("sums");
        let s = FileStore::create_checksummed(&path, 64).unwrap();
        assert!(s.is_checksummed());
        s.write_page(0, &[5u8; 64]).unwrap();
        s.write_page(64, &[6u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        s.read_page(0, &mut buf).unwrap();
        assert_eq!(buf, [5u8; 64]);
        // Page past EOF still reads as zeros with no checksum complaint.
        s.read_page(256, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64]);
        // Flip a byte in the image behind the sidecar's back: the next
        // read must surface a checksum mismatch, not silent corruption.
        s.file.write_all_at(&[0xAA], 70).unwrap();
        let err = s.read_page(64, &mut buf).unwrap_err();
        assert!(is_checksum_mismatch(&err), "{err}");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Distinct from the torn-page (truncated image) error kind.
        assert_ne!(err.kind(), io::ErrorKind::UnexpectedEof);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(FileStore::sums_path(&path)).ok();
    }

    #[test]
    fn checksummed_store_detects_torn_data_write() {
        let path = temp_path("tornwrite");
        {
            let s = FileStore::create_checksummed(&path, 64).unwrap();
            s.write_page(0, &[9u8; 64]).unwrap();
        }
        // Simulate a torn write: the page bytes changed but the process
        // died before the checksum landed (overwrite image directly).
        {
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            f.write_all_at(&[1u8; 32], 0).unwrap();
        }
        let s = FileStore::open_checksummed(&path, 64).unwrap();
        let mut buf = [0u8; 64];
        let err = s.read_page(0, &mut buf).unwrap_err();
        assert!(is_checksum_mismatch(&err), "{err}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(FileStore::sums_path(&path)).ok();
    }

    #[test]
    fn open_checksummed_backfills_plain_images() {
        let path = temp_path("backfill");
        {
            let s = FileStore::create(&path, 64).unwrap();
            s.write_page(0, &[3u8; 64]).unwrap();
            s.write_page(64, &[4u8; 64]).unwrap();
        }
        // Opening with checksums computes sums for the existing pages.
        let s = FileStore::open_checksummed(&path, 64).unwrap();
        let mut buf = [0u8; 64];
        s.read_page(0, &mut buf).unwrap();
        assert_eq!(buf, [3u8; 64]);
        s.read_page(64, &mut buf).unwrap();
        assert_eq!(buf, [4u8; 64]);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(FileStore::sums_path(&path)).ok();
    }
}
