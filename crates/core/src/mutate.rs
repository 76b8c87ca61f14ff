//! Online mutation of a built TRANSFORMERS index: the write path.
//!
//! The paper builds its structures offline; neuroscience workloads grow,
//! though — new segmentations add elements, curation removes them. This
//! module adds **online insert and delete** on top of a built
//! [`TransformersIndex`] without invalidating the serving read path:
//!
//! * **In-place element append.** An insert targets the space unit whose
//!   partition box covers the element's center (ties broken by scan
//!   order, so placement is deterministic). If the unit's base element
//!   page has room, the element is appended there; otherwise it goes to
//!   an **overflow page chain** hanging off the unit
//!   (`[next: u64][count: u16][56-byte element records]`). Chains are
//!   extended tail-first — the fresh page is written *before* the link to
//!   it — so a concurrent chain walker never follows a pointer into
//!   unwritten bytes.
//! * **Grow-only MBBs.** Inserts union the element's MBB into the unit's
//!   and node's page MBBs; deletes never shrink them. The prefilter
//!   therefore stays *conservative*: it may admit a unit that no longer
//!   has matching elements, but it never skips one that does, and the
//!   exact per-element [`SpatialQuery::matches`] test makes query results
//!   equal to an index rebuilt from scratch over the mutated dataset.
//! * **Element directory.** A [`BPlusTree`], changed in place under the
//!   batch mutex, maps element id → unit, so a delete finds its page
//!   without scanning. Deletes rewrite the one page holding the element,
//!   moving its last record into the hole (at most two records change);
//!   an overflow page that empties stays linked (lazy reclamation — the
//!   chain remains walkable for in-flight readers, mirroring the
//!   B+-tree's no-recycle rule).
//! * **Batch commit with WAL-before-data.** [`MutableTransformers::apply_batch`]
//!   routes every page write through [`LoggedPages`]: a record of the
//!   change to the [`RedoLog`] (the page's first since a checkpoint is
//!   its full image, later ones may be the bytes that differ), the new
//!   bytes to the shared cache's dirty tier — all but the overlay chain's,
//!   see below. The batch, overlay included, is one transaction. A crash
//!   anywhere leaves either the whole batch or none of it (redo-only,
//!   no-steal).
//! * **Write-back, bounded.** A committed page stays in the dirty tier,
//!   where the next batches rewrite it for free, until the tier holds
//!   half the cache: the batch that reaches that mark writes the least
//!   recently written frames back through the durable-LSN gate, in
//!   ascending page order, down to a quarter of the cache
//!   ([`DIRTY_HIGH_WATER`], [`DIRTY_LOW_WATER`]). Nothing else writes in
//!   place but [`MutableTransformers::write_back`], which writes every
//!   dirty frame and then the overlay chain pages logged since the last
//!   one, and [`MutableTransformers::checkpoint`], which is a write-back,
//!   a sync of the data disk and only then the log dropping its records
//!   — `apply_batch` never truncates the log, so a log kept whole replays
//!   onto the image it was started from.
//! * **Persisted overlay, logged change-only, written at a checkpoint.**
//!   The mutable state (per-unit counts, overflow heads, grown MBBs,
//!   directory root, allocation watermark) is serialized into a chain of
//!   **overlay pages**, sized and written once by `adopt`, and logged
//!   under the same transaction as the data it describes. The writer
//!   keeps each chain page's bytes as last logged and, per batch, logs
//!   only the pages whose finished bytes differ — a handful for a few
//!   inserts, none for a batch of rejected ops — because a page that
//!   compares equal already holds those bytes on the image or in an
//!   earlier committed transaction's log record. The kept bytes are also
//!   the base each change is logged against
//!   ([`LoggedPages::log_only`]), and no reader reads a chain page
//!   through the cache (snapshots are in memory, `reopen` reads the
//!   disk), so the chain never enters the dirty tier: its changed pages
//!   are written in place once per write-back, not once per stay in the
//!   tier. After crash recovery replays the log,
//!   [`MutableTransformers::reopen`] rebuilds the full handle from the
//!   overlay head page alone, chain images included.
//! * **Snapshot publication.** Readers never lock against writers: each
//!   committed batch publishes an immutable [`MutSnapshot`]
//!   (`Mutex<Arc<_>>` swap), and serve sessions query through the
//!   snapshot they grabbed. A reader overlapping a batch may observe that
//!   batch's effects at page granularity (read-committed style — pages
//!   themselves are never torn, the cache swaps whole frames); batch
//!   boundaries are the published consistency points.
//!
//! What a batch costs: its log records are proportional to the pages it
//! changed, overlay included, and a page is written in place once per
//! stay in the dirty tier (a chain page: once per write-back), not once
//! per batch. Two
//! O(units) steps remain and are CPU only: the overlay is serialized
//! whole before it is compared page by page, and the descriptor tables
//! are copied whole per publish. That is the honest cost of a design
//! whose readers are wait-free; incremental (copy-on-write chunked)
//! publication is an optimization left open in `ROADMAP.md`.

use crate::descriptor::NodeId;
use crate::metadata::bytes_ext::{BufExt, BufMutExt};
use crate::metadata::{get_aabb, put_aabb};
use crate::probe_dir::ProbeDirectory;
use crate::TransformersIndex;
use std::io;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use tfm_bptree::BPlusTree;
use tfm_geom::{Aabb, Point3, SpatialElement, SpatialQuery};
use tfm_storage::{
    Disk, ElementPageCodec, ElementRecords, LoggedPages, PageId, PageReads, PageWrites, RedoLog,
    SharedPageCache,
};

/// Sentinel for "no page" in overflow chains and the overlay page chain.
pub const NO_PAGE: u64 = u64::MAX;

/// Write-back starts once `capacity / DIRTY_HIGH_WATER` frames of the
/// cache are dirty: half. Above half, the dirty tier would take the
/// frames the probes between batches read through; the sweep that chose
/// both marks is in `DESIGN.md`, § "Write path & recovery".
pub const DIRTY_HIGH_WATER: usize = 2;

/// A write-back leaves `capacity / DIRTY_LOW_WATER` frames dirty, a
/// quarter of the cache — the most recently written ones, which the next
/// batches are the likeliest to rewrite.
pub const DIRTY_LOW_WATER: usize = 4;

/// How much log a writer should let accumulate between two
/// [`MutableTransformers::checkpoint`] calls: the bound on what a
/// recovery reads and on the log's size on disk. Every page's first
/// record after a checkpoint is a full image again, so a shorter interval
/// buys a shorter recovery with more log; `DESIGN.md`, § "Write path &
/// recovery" has the sweep. `tfm mutate` checkpoints at this interval.
pub const CHECKPOINT_LOG_BYTES: u64 = 16 << 20;

/// Bytes of overflow-page header: `next` pointer (u64) + element count
/// (u16).
pub const OVERFLOW_HEADER: usize = 10;

/// Bytes per element record, identical to the base-page layout of
/// [`ElementPageCodec`]: id (u64 LE) + six f64 LE MBB coordinates.
const ELEM_RECORD: usize = tfm_storage::ELEMENT_RECORD_BYTES;

/// Magic stamped on the first overlay page ("TFMMUT01").
const MUT_MAGIC: u64 = u64::from_le_bytes(*b"TFMMUT01");

/// Fixed overlay header bytes (see [`overlay_body`]).
const OVERLAY_FIXED: usize = 64;
/// Serialized bytes per unit entry in the overlay.
const OVERLAY_UNIT: usize = 8 + 8 + 4 + 4 + 48 + 48;
/// Serialized bytes per node entry in the overlay.
const OVERLAY_NODE: usize = 4 + 4 + 48 + 48;

fn put_elem(buf: &mut Vec<u8>, e: &SpatialElement) {
    buf.put_u64_le_ext(e.id);
    put_aabb(buf, &e.mbb);
}

/// A borrowed view of one overflow page: the chain pointer plus the
/// page's element records, read in place (see [`ElementRecords`]).
#[derive(Debug, Clone, Copy)]
pub struct OverflowPage<'a> {
    /// The next page of the chain, [`NO_PAGE`] at the tail.
    pub next: u64,
    /// The page's element records.
    pub records: ElementRecords<'a>,
}

/// Encoder/decoder for overflow pages:
/// `[next: u64 LE][count: u16 LE][count × 56-byte element records]`.
#[derive(Debug, Clone, Copy)]
pub struct OverflowCodec {
    page_size: usize,
}

impl OverflowCodec {
    /// Creates a codec for pages of `page_size` bytes.
    ///
    /// # Panics
    /// Panics if the page cannot hold at least one record.
    pub fn new(page_size: usize) -> Self {
        assert!(
            page_size >= OVERFLOW_HEADER + ELEM_RECORD,
            "page size {page_size} too small for one overflow record"
        );
        Self { page_size }
    }

    /// Maximum number of elements per overflow page: what fits, and never
    /// more than the `u16` count in the header can say.
    #[inline]
    pub fn capacity(&self) -> usize {
        ((self.page_size - OVERFLOW_HEADER) / ELEM_RECORD).min(u16::MAX as usize)
    }

    /// Serializes an overflow page into `buf` (cleared first), zero-padded
    /// to the page size.
    ///
    /// # Panics
    /// Panics if more elements are given than fit.
    pub fn encode_into(&self, next: u64, elements: &[SpatialElement], buf: &mut Vec<u8>) {
        assert!(
            elements.len() <= self.capacity(),
            "{} elements exceed overflow capacity {}",
            elements.len(),
            self.capacity()
        );
        buf.clear();
        buf.reserve(self.page_size);
        buf.put_u64_le_ext(next);
        buf.put_u16_le_ext(u16::try_from(elements.len()).expect("capacity fits the count field"));
        for e in elements {
            put_elem(buf, e);
        }
        buf.resize(self.page_size, 0);
    }

    /// Borrows an overflow page in place: header parsed and the count
    /// checked against the page length once, records read as they are
    /// asked for. Chain walkers that only need [`OverflowPage::next`] stop
    /// here and decode nothing.
    ///
    /// # Panics
    /// Panics if the page is shorter than its header or its declared
    /// payload.
    #[inline]
    pub fn view<'p>(&self, page: &'p [u8]) -> OverflowPage<'p> {
        let Some(header) = page.first_chunk::<OVERFLOW_HEADER>() else {
            panic!(
                "corrupt overflow page: {} bytes is shorter than the header",
                page.len()
            );
        };
        let next = u64::from_le_bytes(std::array::from_fn(|i| header[i]));
        let count = u16::from_le_bytes([header[8], header[9]]) as usize;
        let records = ElementRecords::at(page, OVERFLOW_HEADER, count).unwrap_or_else(|| {
            panic!(
                "corrupt overflow page: count {count} does not fit {} bytes",
                page.len()
            )
        });
        OverflowPage { next, records }
    }

    /// Appends the page's elements to `out` and returns the `next`
    /// pointer ([`NO_PAGE`] at the chain tail).
    ///
    /// # Panics
    /// Panics if the page is shorter than its declared payload.
    pub fn decode_append(&self, page: &[u8], out: &mut Vec<SpatialElement>) -> u64 {
        let page = self.view(page);
        out.extend(page.records.iter());
        page.next
    }
}

/// Mutable per-unit descriptor: the adopted [`SpaceUnitDesc`] state plus
/// the overflow chain head and a live (base + overflow) element count.
///
/// [`SpaceUnitDesc`]: crate::SpaceUnitDesc
#[derive(Debug, Clone, PartialEq)]
pub struct MutUnit {
    /// The unit's base element page.
    pub page: PageId,
    /// Conservative (grow-only) bounding box of the unit's elements.
    pub page_mbb: Aabb,
    /// The unit's tiling box — the insert-placement key.
    pub partition_mbb: Aabb,
    /// Head of the overflow page chain, [`NO_PAGE`] if none.
    pub overflow: u64,
    /// Live elements in the unit (base page plus overflow chain).
    pub count: u32,
    /// The node this unit belongs to.
    pub node: NodeId,
}

/// Mutable per-node descriptor: tile, grow-only page MBB and the unit
/// range (units stay contiguous per node — inserts only extend existing
/// units).
#[derive(Debug, Clone, PartialEq)]
pub struct MutNode {
    /// The node's tiling box.
    pub tile: Aabb,
    /// Conservative (grow-only) bounding box of the node's elements.
    pub page_mbb: Aabb,
    /// First unit of this node's contiguous unit range.
    pub first_unit: u32,
    /// Number of units in the range.
    pub unit_count: u32,
}

/// An immutable, consistent view of the mutable index, published at batch
/// boundaries. Sessions grab one ([`MutableTransformers::snapshot`]) and
/// query it through any [`PageReads`] handle — typically a view onto the
/// process-wide shared cache, so dirty (not yet flushed) pages are
/// visible.
#[derive(Debug)]
pub struct MutSnapshot {
    units: Vec<MutUnit>,
    nodes: Vec<MutNode>,
    /// Probe prefilter over this snapshot's (grown) node page MBBs.
    directory: ProbeDirectory,
    len: u64,
    page_size: usize,
    codec: ElementPageCodec,
    overflow_codec: OverflowCodec,
}

impl MutSnapshot {
    /// Live element count at publication time.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the snapshot holds no live elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Per-unit descriptors.
    pub fn units(&self) -> &[MutUnit] {
        &self.units
    }

    /// Per-node descriptors.
    pub fn nodes(&self) -> &[MutNode] {
        &self.nodes
    }

    /// Page size of the underlying disk.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Reads one unit's live elements — base page, then the overflow
    /// chain — into `out` (cleared first).
    pub fn read_unit<C: PageReads>(&self, cache: &mut C, unit: u32, out: &mut Vec<SpatialElement>) {
        let u = &self.units[unit as usize];
        out.clear();
        {
            let p = cache.page(u.page);
            self.codec.decode_into(&p, out);
        }
        let mut next = u.overflow;
        while next != NO_PAGE {
            let p = cache.page(PageId(next));
            next = self.overflow_codec.decode_append(&p, out);
        }
    }

    /// Calls `visit` with the index of every live unit a probe box can
    /// match — node page MBB **and** unit page MBB intersect `probe`, and
    /// the unit still holds elements — in ascending unit (= base page)
    /// order. Same prefilter as
    /// [`TransformersIndex::for_each_candidate_unit`], over this
    /// snapshot's grown MBBs.
    #[inline]
    pub fn for_each_candidate_unit(&self, probe: &Aabb, mut visit: impl FnMut(usize)) {
        self.directory.for_each_candidate_unit(probe, |u| {
            if self.units[u].count > 0 {
                visit(u);
            }
        });
    }

    /// Answers a spatial query: page-MBB prefilter
    /// ([`for_each_candidate_unit`](Self::for_each_candidate_unit)) →
    /// exact per-element test, exactly mirroring the immutable serve
    /// path: each candidate's base page and overflow chain pages are
    /// tested in their pinned frames, nothing is decoded. Returns matching
    /// element ids, sorted ascending.
    pub fn query<C: PageReads>(&self, cache: &mut C, q: &SpatialQuery) -> Vec<u64> {
        let mut out = Vec::new();
        let mut push_matches = |records: ElementRecords<'_>| {
            q.for_each_match(
                records.len(),
                |i| records.mbb(i),
                |i| out.push(records.id(i)),
            );
        };
        self.for_each_candidate_unit(&q.probe(), |u| {
            let unit = &self.units[u];
            push_matches(self.codec.view(&cache.page(unit.page)));
            let mut next = unit.overflow;
            while next != NO_PAGE {
                let raw = cache.page(PageId(next));
                let page = self.overflow_codec.view(&raw);
                push_matches(page.records);
                next = page.next;
            }
        });
        out.sort_unstable();
        out
    }
}

/// One mutation in a batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MutationOp {
    /// Insert an element. Rejected (counted, not applied) if an element
    /// with the same id is already present or the index has no units.
    Insert(SpatialElement),
    /// Delete the element with this id. Counted as missing if absent.
    Delete(u64),
}

/// What a committed batch did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchOutcome {
    /// Elements inserted.
    pub inserted: u64,
    /// Elements deleted.
    pub deleted: u64,
    /// Inserts rejected (duplicate id, or an index with no units).
    pub rejected_inserts: u64,
    /// Deletes whose id was not present.
    pub missing_deletes: u64,
    /// The WAL transaction the batch committed under.
    pub txn: u64,
    /// Durable LSN returned by the commit.
    pub durable_lsn: u64,
    /// Pages this batch's write-back wrote in place: zero unless the
    /// dirty tier had reached [`DIRTY_HIGH_WATER`].
    pub flushed_pages: usize,
    /// Dirty pages left in the cache when the batch returned.
    pub retained_pages: usize,
    /// Overlay chain pages the batch logged: those whose bytes the batch
    /// changed, not the chain length. They reach the data disk at the
    /// next [`MutableTransformers::write_back`] or checkpoint.
    pub overlay_pages_written: usize,
}

/// Writer-side state, guarded by the batch mutex.
#[derive(Debug)]
struct MutState {
    units: Vec<MutUnit>,
    nodes: Vec<MutNode>,
    len: u64,
    /// The element directory: element id → unit.
    directory: BPlusTree,
    /// Overlay page chain; `chain[0]` is the fixed head.
    chain: Vec<OverlayPage>,
    /// Per unit, the last page of its overflow chain ([`NO_PAGE`] if it
    /// has none), so an insert reads the one page it appends to instead
    /// of walking the chain. Derived state: not in the overlay, rebuilt by
    /// `adopt` and `reopen`.
    tails: Vec<u64>,
}

/// One page of the persisted overlay chain.
#[derive(Debug)]
struct OverlayPage {
    id: PageId,
    /// The page's bytes as written by `adopt`, last logged by
    /// [`write_overlay`] or read by [`MutableTransformers::reopen`] — what
    /// the page holds once every committed batch is applied.
    image: Vec<u8>,
    /// Whether the data disk holds `image`: false from the batch that
    /// logs a change of the page until the next write-back.
    on_disk: bool,
}

/// The mutable overlay over one TRANSFORMERS dataset: batched online
/// insert/delete with WAL-before-data durability and wait-free readers.
///
/// Batches serialize on an internal mutex (single-writer); readers run
/// concurrently against published [`MutSnapshot`]s and never block. See
/// the module docs at the top of `mutate.rs` for the full protocol.
#[derive(Debug)]
pub struct MutableTransformers {
    state: Mutex<MutState>,
    published: Mutex<Arc<MutSnapshot>>,
    page_size: usize,
}

impl MutableTransformers {
    /// Takes over a built index for online mutation.
    ///
    /// Reads every element page once to bulk-load the element directory
    /// (id → unit), allocates the overlay chain as one contiguous run —
    /// units and nodes never change in number, so neither does the chain
    /// — and writes it: all direct, unlogged writes, since adoption is part
    /// of initial image construction, before any WAL tracks the dataset.
    /// Element ids must be unique.
    pub fn adopt(idx: &TransformersIndex, disk: &Disk) -> Self {
        let page_size = disk.page_size();
        let codec = ElementPageCodec::new(page_size);
        let mut pairs: Vec<(u64, u64)> = Vec::with_capacity(idx.len());
        for u in idx.units() {
            for e in codec.decode(&disk.read_page_vec(u.page)) {
                pairs.push((e.id, u.id.0 as u64));
            }
        }
        pairs.sort_unstable();
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 != w[1].0),
            "duplicate element ids in adopted index"
        );
        let directory = BPlusTree::bulk_load(disk, &pairs);

        let units = idx
            .units()
            .iter()
            .map(|u| MutUnit {
                page: u.page,
                page_mbb: u.page_mbb,
                partition_mbb: u.partition_mbb,
                overflow: NO_PAGE,
                count: u.count as u32,
                node: u.node,
            })
            .collect::<Vec<_>>();
        let nodes = idx
            .nodes()
            .iter()
            .map(|n| MutNode {
                tile: n.tile,
                page_mbb: n.page_mbb,
                first_unit: n.first_unit,
                unit_count: n.unit_count,
            })
            .collect::<Vec<_>>();
        let pages = overlay_chain_len(units.len(), nodes.len(), page_size);
        let first = disk.allocate_contiguous(pages as u64).0;
        let mut st = MutState {
            tails: vec![NO_PAGE; units.len()],
            units,
            nodes,
            len: idx.len() as u64,
            directory,
            chain: (first..first + pages as u64)
                .map(|id| OverlayPage {
                    id: PageId(id),
                    image: Vec::new(),
                    on_disk: true,
                })
                .collect(),
        };
        let body = overlay_body(&st, disk.allocated_pages());
        for (i, chunk) in body.chunks(page_size - 8).enumerate() {
            let mut image = Vec::with_capacity(page_size);
            frame_chain_page(&st.chain, i, chunk, page_size, &mut image);
            disk.write_page(st.chain[i].id, &image);
            st.chain[i].image = image;
        }
        let snapshot = Arc::new(snapshot_of(&st, page_size));
        Self {
            state: Mutex::new(st),
            published: Mutex::new(snapshot),
            page_size,
        }
    }

    /// Rebuilds the handle from a recovered disk image: walks the overlay
    /// page chain starting at `meta_head` (see
    /// [`meta_head`](Self::meta_head)), restores descriptors, directory
    /// and the allocation watermark. This is the post-crash path: run
    /// WAL replay first, then reopen.
    ///
    /// # Panics
    /// Panics if `meta_head` does not point at an overlay chain.
    pub fn reopen(disk: &Disk, meta_head: PageId) -> Self {
        let page_size = disk.page_size();
        let mut chain = Vec::new();
        let mut body = Vec::new();
        let mut cur = meta_head;
        loop {
            let image = disk.read_page_vec(cur);
            let mut b: &[u8] = &image;
            let next = b.get_u64_le_ext();
            body.extend_from_slice(b);
            chain.push(OverlayPage {
                id: cur,
                image,
                on_disk: true,
            });
            if next == NO_PAGE {
                break;
            }
            cur = PageId(next);
        }

        let mut b: &[u8] = &body;
        let magic = b.get_u64_le_ext();
        assert_eq!(
            magic, MUT_MAGIC,
            "page {meta_head:?} is not an overlay head"
        );
        let len = b.get_u64_le_ext();
        let fanout = b.get_u32_le_ext() as usize;
        let dir_root = PageId(b.get_u64_le_ext());
        let dir_height = b.get_u32_le_ext();
        let dir_len = b.get_u64_le_ext();
        let watermark = b.get_u64_le_ext();
        let n_units = b.get_u64_le_ext() as usize;
        let mut units = Vec::with_capacity(n_units);
        for _ in 0..n_units {
            let page = PageId(b.get_u64_le_ext());
            let overflow = b.get_u64_le_ext();
            let count = b.get_u32_le_ext();
            let node = NodeId(b.get_u32_le_ext());
            let page_mbb = get_aabb(&mut b);
            let partition_mbb = get_aabb(&mut b);
            units.push(MutUnit {
                page,
                page_mbb,
                partition_mbb,
                overflow,
                count,
                node,
            });
        }
        let n_nodes = b.get_u64_le_ext() as usize;
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let first_unit = b.get_u32_le_ext();
            let unit_count = b.get_u32_le_ext();
            let tile = get_aabb(&mut b);
            let page_mbb = get_aabb(&mut b);
            nodes.push(MutNode {
                tile,
                page_mbb,
                first_unit,
                unit_count,
            });
        }

        debug_assert_eq!(
            chain.len(),
            overlay_chain_len(n_units, n_nodes, page_size),
            "the chain keeps the length adopt gave it"
        );
        // Committed batches may have allocated pages (overflow, directory
        // splits) past what replay touched; restore the watermark so new
        // allocations never clobber them.
        disk.ensure_allocated(watermark);
        let ov = OverflowCodec::new(page_size);
        let tails = units
            .iter()
            .map(|u| {
                let mut tail = u.overflow;
                while tail != NO_PAGE {
                    let next = ov.view(&disk.read_page_vec(PageId(tail))).next;
                    if next == NO_PAGE {
                        break;
                    }
                    tail = next;
                }
                tail
            })
            .collect();
        let st = MutState {
            tails,
            units,
            nodes,
            len,
            directory: BPlusTree::from_parts(dir_root, dir_height, dir_len as usize, fanout),
            chain,
        };
        let snapshot = Arc::new(snapshot_of(&st, page_size));
        Self {
            state: Mutex::new(st),
            published: Mutex::new(snapshot),
            page_size,
        }
    }

    /// The fixed head page of the persisted overlay chain — the one page
    /// id a manifest must remember to [`reopen`](Self::reopen) after a
    /// crash.
    pub fn meta_head(&self) -> PageId {
        self.writer().chain[0].id
    }

    /// Pages in the persisted overlay chain — the ceiling of
    /// [`BatchOutcome::overlay_pages_written`].
    pub fn overlay_chain_pages(&self) -> usize {
        self.writer().chain.len()
    }

    /// Live element count.
    pub fn len(&self) -> u64 {
        self.writer().len
    }

    /// True if no live elements remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The writer state, behind the batch mutex. A batch that panicked
    /// half-applied leaves the state torn, so a poisoned lock stays a
    /// panic here until the mutate path's I/O can fail instead
    /// (`ROADMAP.md` item 1, slice B).
    fn writer(&self) -> MutexGuard<'_, MutState> {
        self.state.lock().unwrap()
    }

    /// The most recently published consistent view.
    pub fn snapshot(&self) -> Arc<MutSnapshot> {
        // Publication swaps a whole `Arc`: a panic cannot leave it torn.
        self.published
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Looks up which unit holds element `id` via the element directory,
    /// after any batch in flight (the directory is writer state).
    pub fn unit_of<C: PageReads>(&self, cache: &mut C, id: u64) -> Option<u32> {
        let st = self.writer();
        st.directory.get_with(cache, id).map(|u| u as u32)
    }

    /// Applies one mutation batch as a single WAL transaction and
    /// publishes the result.
    ///
    /// Every page write (element pages, overflow pages, directory nodes,
    /// the overlay chain) is logged, and all but the chain's land in
    /// `cache`'s dirty tier; the commit fsyncs the log and the new
    /// [`MutSnapshot`] is published. Only then, and only if the dirty
    /// tier has reached [`DIRTY_HIGH_WATER`], are its least recently
    /// written frames
    /// written back through the durable-LSN gate — WAL-before-data end to
    /// end. A crash before the commit record is durable undoes the whole
    /// batch at replay; after, the whole batch survives, in the log if
    /// not yet in place.
    pub fn apply_batch(
        &self,
        log: &dyn RedoLog,
        cache: &SharedPageCache<'_>,
        ops: &[MutationOp],
    ) -> BatchOutcome {
        let mut st = self.writer();
        let txn = log.begin();
        let mut h = LoggedPages::new(log, cache, txn);
        let mut out = BatchOutcome {
            txn,
            ..BatchOutcome::default()
        };
        for op in ops {
            match *op {
                MutationOp::Insert(e) => {
                    if self.insert_one(&mut st, &mut h, e) {
                        out.inserted += 1;
                    } else {
                        out.rejected_inserts += 1;
                    }
                }
                MutationOp::Delete(id) => {
                    if self.delete_one(&mut st, &mut h, id) {
                        out.deleted += 1;
                    } else {
                        out.missing_deletes += 1;
                    }
                }
            }
        }
        out.overlay_pages_written = write_overlay(&mut st, &h);
        out.durable_lsn = log.commit(txn);
        drop(h);
        *self
            .published
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Arc::new(snapshot_of(&st, self.page_size));
        let dirty = cache.dirty_pages();
        out.retained_pages = dirty;
        if dirty >= (cache.capacity() / DIRTY_HIGH_WATER).max(1) {
            let budget = dirty - cache.capacity() / DIRTY_LOW_WATER;
            (out.flushed_pages, out.retained_pages) =
                cache.flush_dirty_up_to(out.durable_lsn, budget);
            tfm_obs::global()
                .counter(tfm_obs::names::MUTATE_WRITE_BACKS)
                .inc();
        }
        out
    }

    /// Makes the data disk current, with no batch in flight: every dirty
    /// frame is flushed (the log is synced first, so the gate holds none
    /// back), then the overlay chain pages logged since the last
    /// write-back are written in place, ascending. Returns the pages
    /// written. The log keeps every record, so it still replays onto the
    /// image it was started from, and that replay equals the image written
    /// back here.
    pub fn write_back(&self, log: &dyn RedoLog, cache: &SharedPageCache<'_>) -> io::Result<usize> {
        write_back_locked(&mut self.writer(), log, cache)
    }

    /// Makes the data disk current and the log short: a
    /// [`write_back`](Self::write_back), a sync of the data disk, and only
    /// then is the log told it may drop its records
    /// ([`RedoLog::checkpoint`]). Returns the pages written in place. A
    /// crash before the last step leaves the whole log to replay; after
    /// it, the disk needs none.
    ///
    /// Call it every [`CHECKPOINT_LOG_BYTES`] of log: recovery time and
    /// log size are bounded by the interval. `apply_batch` never calls
    /// it — a caller that keeps the log whole (a backup to replay onto
    /// the image it started from) does not checkpoint.
    pub fn checkpoint(&self, log: &dyn RedoLog, cache: &SharedPageCache<'_>) -> io::Result<usize> {
        let mut st = self.writer();
        let written = write_back_locked(&mut st, log, cache)?;
        cache.disk().sync()?;
        log.checkpoint()?;
        tfm_obs::global()
            .counter(tfm_obs::names::MUTATE_CHECKPOINTS)
            .inc();
        Ok(written)
    }

    fn insert_one<P: PageReads + PageWrites>(
        &self,
        st: &mut MutState,
        h: &mut P,
        e: SpatialElement,
    ) -> bool {
        if st.directory.get_with(h, e.id).is_some() {
            return false;
        }
        let Some(unit) = choose_unit(st, &e) else {
            return false;
        };
        let codec = ElementPageCodec::new(self.page_size);
        let base_page = st.units[unit].page;
        let mut elems: Vec<SpatialElement> = Vec::new();
        {
            let p = h.page(base_page);
            codec.decode_into(&p, &mut elems);
        }
        let mut buf = Vec::new();
        if elems.len() < codec.capacity() {
            elems.push(e);
            codec.encode_into(&elems, &mut buf);
            h.write(base_page, &buf);
        } else {
            let ov = OverflowCodec::new(self.page_size);
            if st.units[unit].overflow == NO_PAGE {
                let p = h.allocate();
                ov.encode_into(NO_PAGE, std::slice::from_ref(&e), &mut buf);
                h.write(p, &buf);
                st.units[unit].overflow = p.0;
                st.tails[unit] = p.0;
            } else {
                // The tail is the one chain page an insert reads.
                let cur = PageId(st.tails[unit]);
                let mut chunk: Vec<SpatialElement> = Vec::new();
                {
                    let raw = h.page(cur);
                    let page = ov.view(&raw);
                    debug_assert_eq!(page.next, NO_PAGE, "unit {unit}'s tail has a successor");
                    chunk.extend(page.records.iter());
                }
                if chunk.len() < ov.capacity() {
                    chunk.push(e);
                    ov.encode_into(NO_PAGE, &chunk, &mut buf);
                    h.write(cur, &buf);
                } else {
                    // Fresh tail first, link second: a concurrent
                    // chain walker never follows a pointer into
                    // unwritten bytes.
                    let np = h.allocate();
                    ov.encode_into(NO_PAGE, std::slice::from_ref(&e), &mut buf);
                    h.write(np, &buf);
                    ov.encode_into(np.0, &chunk, &mut buf);
                    h.write(cur, &buf);
                    st.tails[unit] = np.0;
                }
            }
        }
        let u = &mut st.units[unit];
        u.count += 1;
        u.page_mbb = u.page_mbb.union(&e.mbb);
        let n = &mut st.nodes[u.node.0 as usize];
        n.page_mbb = n.page_mbb.union(&e.mbb);
        st.len += 1;
        st.directory.insert(h, e.id, unit as u64);
        true
    }

    fn delete_one<P: PageReads + PageWrites>(&self, st: &mut MutState, h: &mut P, id: u64) -> bool {
        let Some(unit) = st.directory.get_with(h, id) else {
            return false;
        };
        let unit = unit as usize;
        let codec = ElementPageCodec::new(self.page_size);
        let base_page = st.units[unit].page;
        let mut elems: Vec<SpatialElement> = Vec::new();
        {
            let p = h.page(base_page);
            codec.decode_into(&p, &mut elems);
        }
        let mut buf = Vec::new();
        let mut removed = false;
        if let Some(pos) = elems.iter().position(|x| x.id == id) {
            elems.swap_remove(pos);
            codec.encode_into(&elems, &mut buf);
            h.write(base_page, &buf);
            removed = true;
        } else {
            let ov = OverflowCodec::new(self.page_size);
            let mut cur = st.units[unit].overflow;
            while cur != NO_PAGE {
                let mut chunk: Vec<SpatialElement> = Vec::new();
                let next = {
                    let p = h.page(PageId(cur));
                    ov.decode_append(&p, &mut chunk)
                };
                if let Some(pos) = chunk.iter().position(|x| x.id == id) {
                    chunk.swap_remove(pos);
                    // An emptied page stays linked (lazy reclamation) so
                    // the chain remains walkable for in-flight readers.
                    ov.encode_into(next, &chunk, &mut buf);
                    h.write(PageId(cur), &buf);
                    removed = true;
                    break;
                }
                cur = next;
            }
        }
        if !removed {
            // Directory pointed at a unit that no longer holds the id —
            // impossible while directory updates share the batch mutex.
            return false;
        }
        st.directory.delete(h, id);
        st.units[unit].count -= 1;
        st.len -= 1;
        true
    }
}

/// Deterministic insert placement: the node whose tile covers the
/// element's center (tiles tile the extent; nearest tile for outliers),
/// then the unit in that node whose partition box covers/is nearest to
/// the center. Scan order breaks ties, so placement is reproducible.
fn choose_unit(st: &MutState, e: &SpatialElement) -> Option<usize> {
    let probe = Aabb::from_point(center_of(&e.mbb));
    let mut best_node = None;
    let mut best_d = f64::INFINITY;
    for (i, n) in st.nodes.iter().enumerate() {
        if n.unit_count == 0 {
            continue;
        }
        let d = n.tile.min_distance_sq(&probe);
        if d < best_d {
            best_d = d;
            best_node = Some(i);
            if d == 0.0 {
                break;
            }
        }
    }
    let n = &st.nodes[best_node?];
    let mut best = None;
    let mut bd = f64::INFINITY;
    for ui in n.first_unit..(n.first_unit + n.unit_count) {
        let d = st.units[ui as usize].partition_mbb.min_distance_sq(&probe);
        if d < bd {
            bd = d;
            best = Some(ui as usize);
            if d == 0.0 {
                break;
            }
        }
    }
    best
}

fn center_of(a: &Aabb) -> Point3 {
    a.center()
}

fn snapshot_of(st: &MutState, page_size: usize) -> MutSnapshot {
    MutSnapshot {
        units: st.units.clone(),
        nodes: st.nodes.clone(),
        // Rebuilt per publish: inserts grow node page MBBs, and the tables
        // are copied whole here anyway.
        directory: ProbeDirectory::build(
            st.nodes
                .iter()
                .map(|n| (n.page_mbb, n.first_unit..n.first_unit + n.unit_count)),
            st.units.iter().map(|u| u.page_mbb),
        ),
        len: st.len,
        page_size,
        codec: ElementPageCodec::new(page_size),
        overflow_codec: OverflowCodec::new(page_size),
    }
}

/// The writer half of [`MutableTransformers::write_back`], under the
/// batch mutex `st` is guarded by.
fn write_back_locked(
    st: &mut MutState,
    log: &dyn RedoLog,
    cache: &SharedPageCache<'_>,
) -> io::Result<usize> {
    let (flushed, retained) = cache.flush_dirty(log.sync());
    if retained > 0 {
        return Err(io::Error::other(format!(
            "write-back left {retained} dirty pages whose records are not durable: \
             another writer shares the cache"
        )));
    }
    // Every chain record is durable too (synced above), so the pages may
    // follow them in place: ascending, as `adopt` allocated the chain.
    let disk = cache.disk();
    let mut written = 0;
    for page in st.chain.iter_mut().filter(|p| !p.on_disk) {
        disk.write_page(page.id, &page.image);
        page.on_disk = true;
        written += 1;
    }
    Ok(flushed + written)
}

/// Bytes of the serialized overlay over `units` units and `nodes` nodes.
fn overlay_body_len(units: usize, nodes: usize) -> usize {
    OVERLAY_FIXED + units * OVERLAY_UNIT + nodes * OVERLAY_NODE
}

/// Pages of the overlay chain over `units` units and `nodes` nodes: each
/// carries `page_size - 8` bytes of the body after its `next` pointer.
fn overlay_chain_len(units: usize, nodes: usize, page_size: usize) -> usize {
    overlay_body_len(units, nodes).div_ceil(page_size - 8)
}

/// Serializes the overlay, with `watermark` as the allocation watermark.
/// Layout:
///
/// ```text
/// chain page := next u64 | payload chunk (page_size - 8 bytes)
/// body       := magic u64 | len u64 | dir_fanout u32 | dir_root u64
///             | dir_height u32 | dir_len u64 | watermark u64
///             | n_units u64 | unit*
///             | n_nodes u64 | node*
/// unit       := page u64 | overflow u64 | count u32 | node u32
///             | page_mbb 48 | partition_mbb 48
/// node       := first_unit u32 | unit_count u32 | tile 48 | page_mbb 48
/// ```
fn overlay_body(st: &MutState, watermark: u64) -> Vec<u8> {
    let directory = &st.directory;
    let body_len = overlay_body_len(st.units.len(), st.nodes.len());
    let mut body = Vec::with_capacity(body_len);
    body.put_u64_le_ext(MUT_MAGIC);
    body.put_u64_le_ext(st.len);
    body.put_u32_le_ext(directory.fanout() as u32);
    body.put_u64_le_ext(directory.root().0);
    body.put_u32_le_ext(directory.height());
    body.put_u64_le_ext(directory.len() as u64);
    body.put_u64_le_ext(watermark);
    body.put_u64_le_ext(st.units.len() as u64);
    for u in &st.units {
        body.put_u64_le_ext(u.page.0);
        body.put_u64_le_ext(u.overflow);
        body.put_u32_le_ext(u.count);
        body.put_u32_le_ext(u.node.0);
        put_aabb(&mut body, &u.page_mbb);
        put_aabb(&mut body, &u.partition_mbb);
    }
    body.put_u64_le_ext(st.nodes.len() as u64);
    for n in &st.nodes {
        body.put_u32_le_ext(n.first_unit);
        body.put_u32_le_ext(n.unit_count);
        put_aabb(&mut body, &n.tile);
        put_aabb(&mut body, &n.page_mbb);
    }
    debug_assert_eq!(body.len(), body_len);
    body
}

/// Frames the body's `i`-th payload chunk as chain page `i` into `buf`
/// (cleared first): the next page's id, the chunk, zero padding to a whole
/// page as the store pads it, so that the page compares equal to the
/// bytes `reopen` reads back.
fn frame_chain_page(
    chain: &[OverlayPage],
    i: usize,
    chunk: &[u8],
    page_size: usize,
    buf: &mut Vec<u8>,
) {
    let next = chain.get(i + 1).map_or(NO_PAGE, |p| p.id.0);
    buf.clear();
    buf.extend_from_slice(&next.to_le_bytes());
    buf.extend_from_slice(chunk);
    buf.resize(page_size, 0);
}

/// Serializes the overlay over the page chain and logs the chain pages
/// whose finished bytes differ from [`OverlayPage::image`], each as a
/// change of that image; returns how many it logged. Nothing goes to the
/// cache: the logged pages are written in place by the next write-back.
/// An unchanged page is skipped whole — it already holds exactly these
/// bytes, from `adopt` or from an earlier committed batch, on disk or in
/// a log record replay applies first.
fn write_overlay(st: &mut MutState, h: &LoggedPages<'_, '_, '_>) -> usize {
    let disk = h.cache().disk();
    let ps = disk.page_size();
    let body = overlay_body(st, disk.allocated_pages());
    debug_assert_eq!(
        overlay_chain_len(st.units.len(), st.nodes.len(), ps),
        st.chain.len(),
        "the chain is sized once, at adopt"
    );
    let mut logged = 0;
    let mut buf = Vec::with_capacity(ps);
    for (i, chunk) in body.chunks(ps - 8).enumerate() {
        frame_chain_page(&st.chain, i, chunk, ps, &mut buf);
        let page = &mut st.chain[i];
        if page.image != buf {
            h.log_only(page.id, &page.image, &buf);
            page.image.clone_from(&buf);
            page.on_disk = false;
            logged += 1;
        }
    }
    logged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexConfig;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use tfm_storage::{CacheHandle, DiskModel, NoopLog};

    /// Tiny pages so overflow and multi-page overlays happen fast:
    /// base-page capacity (256-2)/56 = 4, overflow capacity 4,
    /// B+-tree fanout (256-11)/16 = 15.
    const PS: usize = 256;

    fn elem(id: u64, x: f64, y: f64, z: f64) -> SpatialElement {
        SpatialElement::new(
            id,
            Aabb::new(Point3::new(x, y, z), Point3::new(x + 1.0, y + 1.0, z + 1.0)),
        )
    }

    /// Deterministic pseudo-uniform points in [0, 100)^3.
    fn scatter(n: u64, id_base: u64) -> Vec<SpatialElement> {
        (0..n)
            .map(|i| {
                let h = (id_base + i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let x = (h % 97) as f64;
                let y = ((h >> 16) % 89) as f64;
                let z = ((h >> 32) % 83) as f64;
                elem(id_base + i, x, y, z)
            })
            .collect()
    }

    fn build(elems: Vec<SpatialElement>) -> (Disk, TransformersIndex) {
        let disk = Disk::in_memory(PS).with_model(DiskModel::free());
        let cfg = IndexConfig {
            unit_capacity: Some(4),
            node_capacity: Some(4),
            ..IndexConfig::default()
        };
        let idx = TransformersIndex::build(&disk, elems, &cfg);
        (disk, idx)
    }

    fn window(lo: f64, hi: f64) -> SpatialQuery {
        SpatialQuery::Window(Aabb::new(Point3::new(lo, lo, lo), Point3::new(hi, hi, hi)))
    }

    /// Ground truth: exact filter over the live element set.
    fn reference(live: &BTreeMap<u64, SpatialElement>, q: &SpatialQuery) -> Vec<u64> {
        let mut ids: Vec<u64> = live
            .values()
            .filter(|e| q.matches(&e.mbb))
            .map(|e| e.id)
            .collect();
        ids.sort_unstable();
        ids
    }

    const QUERIES: [(f64, f64); 4] = [(0.0, 100.0), (10.0, 40.0), (50.0, 90.0), (33.0, 34.0)];

    fn assert_matches_reference(
        snap: &MutSnapshot,
        cache: &SharedPageCache<'_>,
        live: &BTreeMap<u64, SpatialElement>,
        tag: &str,
    ) {
        let mut ch = CacheHandle::shared(cache);
        for (lo, hi) in QUERIES {
            let q = window(lo, hi);
            assert_eq!(
                snap.query(&mut ch, &q),
                reference(live, &q),
                "{tag}: window [{lo}, {hi}]"
            );
        }
        assert_eq!(snap.len(), live.len() as u64, "{tag}: live count");
    }

    /// The overflow layout parsed field by field with the cursor helpers,
    /// sharing nothing with [`OverflowCodec::view`]: the oracle.
    fn oracle_overflow(page: &[u8]) -> (u64, Vec<SpatialElement>) {
        let mut b = page;
        let next = b.get_u64_le_ext();
        let count = b.get_u16_le_ext() as usize;
        assert!(
            page.len() >= OVERFLOW_HEADER + count * ELEM_RECORD,
            "corrupt overflow page: count {count} does not fit {} bytes",
            page.len()
        );
        let elems = (0..count)
            .map(|_| SpatialElement::new(b.get_u64_le_ext(), get_aabb(&mut b)))
            .collect();
        (next, elems)
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

    /// Boxes whose corners mix signed zeros, subnormals, fractions and
    /// large magnitudes; `min <= 0.0 <= max` on every axis.
    fn odd_elements(raw: Vec<(u64, [u8; 6], [u64; 6])>) -> Vec<SpatialElement> {
        let magnitude = |class: u8, raw: u64| {
            let unit = (raw >> 11) as f64 / (1u64 << 53) as f64;
            match class % 4 {
                0 => 0.0,
                1 => f64::from_bits(raw % ((1 << 52) - 1) + 1),
                2 => unit,
                _ => unit * 1e12,
            }
        };
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
    }

    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let err = std::panic::catch_unwind(f).expect_err("must panic");
        err.downcast_ref::<String>()
            .cloned()
            .expect("panic carries a formatted message")
    }

    proptest! {
        #[test]
        fn overflow_view_reads_back_next_and_records_bit_for_bit(
            next in any::<u64>(),
            raw in prop::collection::vec((any::<u64>(), any::<[u8; 6]>(), any::<[u64; 6]>()), 0..5),
        ) {
            let ov = OverflowCodec::new(PS); // capacity 4
            let elems = odd_elements(raw);
            let mut page = Vec::new();
            ov.encode_into(next, &elems, &mut page);
            let want: Vec<[u64; 7]> = elems.iter().map(bits).collect();

            let view = ov.view(&page);
            prop_assert_eq!(view.next, next);
            prop_assert_eq!(view.records.len(), elems.len());
            let seen: Vec<[u64; 7]> = view.records.iter().map(|e| bits(&e)).collect();
            prop_assert_eq!(&seen, &want);
            for (i, e) in elems.iter().enumerate() {
                prop_assert_eq!(view.records.id(i), e.id);
                prop_assert_eq!(bits(&SpatialElement::new(e.id, view.records.mbb(i))), bits(e));
            }
            let (oracle_next, oracle_elems) = oracle_overflow(&page);
            prop_assert_eq!(oracle_next, next);
            let oracle: Vec<[u64; 7]> = oracle_elems.iter().map(bits).collect();
            prop_assert_eq!(&oracle, &want);
            // `decode_append` is the same parser, appending.
            let mut out = vec![elem(7, 1.0, 2.0, 3.0)];
            prop_assert_eq!(ov.decode_append(&page, &mut out), next);
            let appended: Vec<[u64; 7]> = out[1..].iter().map(bits).collect();
            prop_assert_eq!(&appended, &want);
        }
    }

    #[test]
    fn overflow_capacity_never_exceeds_the_count_field() {
        // 4 MiB has room for 74 898 records; the header counts to 65 535.
        assert_eq!(OverflowCodec::new(1 << 22).capacity(), u16::MAX as usize);
        let below = OverflowCodec::new(OVERFLOW_HEADER + 65_535 * ELEM_RECORD - 1);
        assert_eq!(below.capacity(), 65_534);
    }

    #[test]
    fn overflow_view_rejects_bad_counts_and_short_pages_like_decode_append() {
        let ov = OverflowCodec::new(PS);
        let mut page = Vec::new();
        ov.encode_into(NO_PAGE, &[elem(1, 0.0, 0.0, 0.0)], &mut page);
        page[8..10].copy_from_slice(&5u16.to_le_bytes()); // capacity is 4
        let from_view = panic_message(|| {
            ov.view(&page);
        });
        assert_eq!(
            from_view,
            "corrupt overflow page: count 5 does not fit 256 bytes"
        );
        assert_eq!(
            from_view,
            panic_message(|| {
                ov.decode_append(&page, &mut Vec::new());
            })
        );
        assert_eq!(
            from_view,
            panic_message(|| {
                oracle_overflow(&page);
            })
        );
        for len in 0..OVERFLOW_HEADER {
            let msg = panic_message(|| {
                ov.view(&vec![0xFF; len]);
            });
            assert_eq!(
                msg,
                format!("corrupt overflow page: {len} bytes is shorter than the header")
            );
        }
        let empty = ov.view(&[0u8; OVERFLOW_HEADER]);
        assert_eq!((empty.next, empty.records.len()), (0, 0));
    }

    #[test]
    fn inserts_land_in_base_pages_and_grow_mbbs() {
        let initial = scatter(24, 0);
        let mut live: BTreeMap<u64, SpatialElement> = initial.iter().map(|e| (e.id, *e)).collect();
        let (disk, idx) = build(initial);
        let mt = MutableTransformers::adopt(&idx, &disk);
        let cache = SharedPageCache::with_shards(&disk, 256, 4);
        let log = NoopLog::new();

        // An element far outside every page MBB still becomes queryable:
        // the grow-only MBBs keep the prefilter conservative.
        let far = elem(1000, 99.5, 99.5, 99.5);
        let ops = [MutationOp::Insert(far)];
        let out = mt.apply_batch(&log, &cache, &ops);
        assert_eq!((out.inserted, out.rejected_inserts), (1, 0));
        live.insert(far.id, far);

        let snap = mt.snapshot();
        assert_matches_reference(&snap, &cache, &live, "after far insert");
        let unit = mt
            .unit_of(&mut CacheHandle::shared(&cache), 1000)
            .expect("directory knows the new element");
        assert!(snap.units()[unit as usize].page_mbb.contains(&far.mbb));
    }

    #[test]
    fn published_snapshot_probes_find_inserts_outside_the_old_node_mbb() {
        // 16 elements per node => 19 nodes: the probe directory has a
        // level above the node level, so a stale directory (built over
        // the pre-insert MBBs) would prune the new element away.
        let (disk, idx) = build(scatter(300, 0));
        assert!(idx.nodes().len() > 8);
        let mt = MutableTransformers::adopt(&idx, &disk);
        let cache = SharedPageCache::with_shards(&disk, 512, 4);
        let log = NoopLog::new();

        let far = elem(5000, 250.0, 250.0, 250.0);
        let at_far = SpatialQuery::Window(far.mbb);
        assert!(idx.nodes().iter().all(|n| !n.page_mbb.intersects(&far.mbb)));
        let before = mt.snapshot();
        let mut ch = CacheHandle::shared(&cache);
        assert_eq!(before.query(&mut ch, &at_far), Vec::<u64>::new());

        mt.apply_batch(&log, &cache, &[MutationOp::Insert(far)]);
        let after = mt.snapshot();
        assert_eq!(after.query(&mut ch, &at_far), vec![5000]);
        let unit = mt.unit_of(&mut ch, 5000).expect("directory entry") as usize;
        let mut visited = Vec::new();
        after.for_each_candidate_unit(&far.mbb, |u| visited.push(u));
        assert_eq!(visited, vec![unit]);
        // The snapshot grabbed before the batch keeps its own directory.
        let mut visited = Vec::new();
        before.for_each_candidate_unit(&far.mbb, |u| visited.push(u));
        assert!(visited.is_empty());
    }

    #[test]
    fn overflow_chains_absorb_inserts_past_page_capacity() {
        // One unit's worth of elements clustered at a point: every insert
        // targets the same unit, so chains must grow.
        let initial: Vec<SpatialElement> = (0..4).map(|i| elem(i, 5.0, 5.0, 5.0)).collect();
        let mut live: BTreeMap<u64, SpatialElement> = initial.iter().map(|e| (e.id, *e)).collect();
        let (disk, idx) = build(initial);
        let mt = MutableTransformers::adopt(&idx, &disk);
        let cache = SharedPageCache::with_shards(&disk, 256, 4);
        let log = NoopLog::new();

        // 4 fill the base page already; 10 more need 3 overflow pages.
        let extra: Vec<MutationOp> = (0..10)
            .map(|i| MutationOp::Insert(elem(100 + i, 5.0, 5.0, 5.0)))
            .collect();
        let out = mt.apply_batch(&log, &cache, &extra);
        assert_eq!(out.inserted, 10);
        for op in &extra {
            if let MutationOp::Insert(e) = op {
                live.insert(e.id, *e);
            }
        }
        let snap = mt.snapshot();
        let chained = snap.units().iter().find(|u| u.overflow != NO_PAGE);
        assert!(chained.is_some(), "no overflow chain was created");
        assert_matches_reference(&snap, &cache, &live, "after overflow");

        // Read the chained unit directly: all 14 elements come back.
        let ui = snap
            .units()
            .iter()
            .position(|u| u.overflow != NO_PAGE)
            .unwrap() as u32;
        let mut elems = Vec::new();
        snap.read_unit(&mut CacheHandle::shared(&cache), ui, &mut elems);
        assert_eq!(elems.len() as u32, snap.units()[ui as usize].count);
    }

    #[test]
    fn deletes_remove_from_base_pages_and_chains() {
        let mut all = scatter(20, 0);
        all.extend((0..8).map(|i| elem(200 + i, 7.0, 7.0, 7.0)));
        let (disk, idx) = build(all.clone());
        let mut live: BTreeMap<u64, SpatialElement> = all.iter().map(|e| (e.id, *e)).collect();
        let mt = MutableTransformers::adopt(&idx, &disk);
        let cache = SharedPageCache::with_shards(&disk, 256, 4);
        let log = NoopLog::new();

        // Push the cluster unit into overflow, then delete across both
        // tiers plus a miss.
        let more: Vec<MutationOp> = (0..6)
            .map(|i| MutationOp::Insert(elem(300 + i, 7.0, 7.0, 7.0)))
            .collect();
        mt.apply_batch(&log, &cache, &more);
        for op in &more {
            if let MutationOp::Insert(e) = op {
                live.insert(e.id, *e);
            }
        }

        let ops = [
            MutationOp::Delete(0),
            MutationOp::Delete(203),
            MutationOp::Delete(305),
            MutationOp::Delete(9999), // never existed
        ];
        let out = mt.apply_batch(&log, &cache, &ops);
        assert_eq!((out.deleted, out.missing_deletes), (3, 1));
        for id in [0, 203, 305] {
            live.remove(&id);
        }
        assert_matches_reference(&mt.snapshot(), &cache, &live, "after deletes");

        // Deleted ids are gone from the directory; re-inserting works.
        let mut ch = CacheHandle::shared(&cache);
        assert_eq!(mt.unit_of(&mut ch, 203), None);
        let back = elem(203, 7.0, 7.0, 7.0);
        let out = mt.apply_batch(&log, &cache, &[MutationOp::Insert(back)]);
        assert_eq!(out.inserted, 1);
        live.insert(203, back);
        assert_matches_reference(&mt.snapshot(), &cache, &live, "after re-insert");
    }

    #[test]
    fn duplicate_inserts_are_rejected_not_applied() {
        let initial = scatter(12, 0);
        let (disk, idx) = build(initial.clone());
        let mt = MutableTransformers::adopt(&idx, &disk);
        let cache = SharedPageCache::with_shards(&disk, 256, 4);
        let log = NoopLog::new();
        let dup = MutationOp::Insert(elem(3, 1.0, 1.0, 1.0)); // id 3 exists
        let out = mt.apply_batch(&log, &cache, &[dup, dup]);
        assert_eq!((out.inserted, out.rejected_inserts), (0, 2));
        assert_eq!(mt.len(), initial.len() as u64);
    }

    #[test]
    fn mixed_batches_match_a_rebuilt_reference() {
        let initial = scatter(40, 0);
        let mut live: BTreeMap<u64, SpatialElement> = initial.iter().map(|e| (e.id, *e)).collect();
        let (disk, idx) = build(initial);
        let mt = MutableTransformers::adopt(&idx, &disk);
        let cache = SharedPageCache::with_shards(&disk, 512, 4);
        let log = NoopLog::new();

        // Deterministic mixed stream: 5 batches of inserts + deletes.
        for round in 0u64..5 {
            let mut ops = Vec::new();
            for i in 0..12 {
                let e = scatter(1, 1000 + round * 100 + i).remove(0);
                ops.push(MutationOp::Insert(e));
            }
            for i in 0..6 {
                // Delete a mix of initial and previously inserted ids.
                let id = (round * 13 + i * 7) % 40;
                ops.push(MutationOp::Delete(id));
            }
            let out = mt.apply_batch(&log, &cache, &ops);
            for op in &ops {
                match *op {
                    MutationOp::Insert(e) => {
                        if live.insert(e.id, e).is_some() {
                            panic!("test generated duplicate id {}", e.id);
                        }
                    }
                    MutationOp::Delete(id) => {
                        live.remove(&id);
                    }
                }
            }
            // Outcome arithmetic must agree with the reference walk.
            assert_eq!(out.inserted, 12, "round {round}");
            assert_eq!(out.deleted + out.missing_deletes, 6, "round {round}");
            assert_matches_reference(&mt.snapshot(), &cache, &live, &format!("round {round}"));
        }

        // Against a *rebuilt-from-scratch* index over the live set: query
        // results must be identical (the acceptance property).
        let (disk2, idx2) = build(live.values().copied().collect());
        let cache2 = SharedPageCache::with_shards(&disk2, 512, 4);
        let mt2 = MutableTransformers::adopt(&idx2, &disk2);
        let snap = mt.snapshot();
        let snap2 = mt2.snapshot();
        for (lo, hi) in QUERIES {
            let q = window(lo, hi);
            assert_eq!(
                snap.query(&mut CacheHandle::shared(&cache), &q),
                snap2.query(&mut CacheHandle::shared(&cache2), &q),
                "mutated vs rebuilt: window [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn overlay_reopen_restores_everything() {
        let initial = scatter(30, 0);
        let mut live: BTreeMap<u64, SpatialElement> = initial.iter().map(|e| (e.id, *e)).collect();
        let (disk, idx) = build(initial);
        let mt = MutableTransformers::adopt(&idx, &disk);
        let cache = SharedPageCache::with_shards(&disk, 512, 4);
        let log = NoopLog::new();

        let mut ops: Vec<MutationOp> = (0..9)
            .map(|i| MutationOp::Insert(elem(500 + i, 12.0, 12.0, 12.0)))
            .collect();
        ops.push(MutationOp::Delete(5));
        mt.apply_batch(&log, &cache, &ops);
        for op in &ops {
            match *op {
                MutationOp::Insert(e) => {
                    live.insert(e.id, e);
                }
                MutationOp::Delete(id) => {
                    live.remove(&id);
                }
            }
        }
        let head = mt.meta_head();
        let chain_pages = mt.overlay_chain_pages();
        let old = mt.snapshot();
        // A checkpoint flushes every dirty frame — the raw disk image is
        // complete. Reopen from it alone.
        mt.checkpoint(&log, &cache).unwrap();
        drop(mt);
        let mt2 = MutableTransformers::reopen(&disk, head);
        // Units and nodes never change in number: the chain keeps the
        // length `adopt` gave it.
        assert_eq!(mt2.overlay_chain_pages(), chain_pages);
        let snap = mt2.snapshot();
        assert_eq!(snap.units(), old.units());
        assert_eq!(snap.nodes(), old.nodes());
        assert_eq!(snap.len(), old.len());
        let fresh_cache = SharedPageCache::with_shards(&disk, 512, 4);
        assert_matches_reference(&snap, &fresh_cache, &live, "reopened");

        // The reopened handle keeps mutating correctly.
        let e = elem(900, 3.0, 3.0, 3.0);
        let out = mt2.apply_batch(&log, &fresh_cache, &[MutationOp::Insert(e)]);
        assert_eq!(out.inserted, 1);
        live.insert(e.id, e);
        assert_matches_reference(&mt2.snapshot(), &fresh_cache, &live, "mutated after reopen");
    }

    #[test]
    fn a_reopened_writer_appends_to_each_chains_tail() {
        // Two writers over identical images take the same inserts into
        // one unit's chain; one is reopened between the two batches. The
        // tails `reopen` rebuilds must put every later insert where the
        // writer that kept its own put it: the images end byte-identical.
        let initial: Vec<SpatialElement> = (0..4).map(|i| elem(i, 5.0, 5.0, 5.0)).collect();
        let mut live: BTreeMap<u64, SpatialElement> = initial.iter().map(|e| (e.id, *e)).collect();
        let batch = |base: u64, n: u64| -> Vec<MutationOp> {
            (0..n)
                .map(|i| MutationOp::Insert(elem(base + i, 5.0, 5.0, 5.0)))
                .collect()
        };
        // 10 fill three overflow pages to 4 + 4 + 2; 7 more fill the tail
        // and grow the chain by two pages.
        let (first, second) = (batch(100, 10), batch(200, 7));
        let log = NoopLog::new();
        let (kept_disk, kept_idx) = build(initial.clone());
        let kept = MutableTransformers::adopt(&kept_idx, &kept_disk);
        let kept_cache = SharedPageCache::with_shards(&kept_disk, 256, 4);
        let (disk, idx) = build(initial);
        let mt = MutableTransformers::adopt(&idx, &disk);
        let cache = SharedPageCache::with_shards(&disk, 256, 4);
        for (writer, cache) in [(&kept, &kept_cache), (&mt, &cache)] {
            assert_eq!(writer.apply_batch(&log, cache, &first).inserted, 10);
            writer.checkpoint(&log, cache).unwrap();
        }
        let head = mt.meta_head();
        drop(mt);
        let reopened = MutableTransformers::reopen(&disk, head);
        let cache = SharedPageCache::with_shards(&disk, 256, 4);
        for (writer, cache) in [(&kept, &kept_cache), (&reopened, &cache)] {
            assert_eq!(writer.apply_batch(&log, cache, &second).inserted, 7);
            writer.checkpoint(&log, cache).unwrap();
        }
        assert_eq!(disk.allocated_pages(), kept_disk.allocated_pages());
        for p in 0..disk.allocated_pages() {
            assert_eq!(
                disk.read_page_vec(PageId(p)),
                kept_disk.read_page_vec(PageId(p)),
                "page {p}"
            );
        }
        for op in first.iter().chain(&second) {
            if let MutationOp::Insert(e) = op {
                live.insert(e.id, *e);
            }
        }
        assert_matches_reference(&reopened.snapshot(), &cache, &live, "reopened, then grown");
    }

    #[test]
    fn a_poisoned_publication_lock_is_taken_back() {
        let initial = scatter(16, 0);
        let mut live: BTreeMap<u64, SpatialElement> = initial.iter().map(|e| (e.id, *e)).collect();
        let (disk, idx) = build(initial);
        let mt = MutableTransformers::adopt(&idx, &disk);
        let cache = SharedPageCache::with_shards(&disk, 256, 4);
        let log = NoopLog::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _held = mt.published.lock().unwrap();
                panic!("a reader panics while it holds the publication lock");
            })
            .join()
            .expect_err("the thread panicked");
        });
        assert!(mt.published.is_poisoned());

        assert_matches_reference(&mt.snapshot(), &cache, &live, "poisoned, before a batch");
        let e = elem(700, 4.0, 4.0, 4.0);
        let out = mt.apply_batch(
            &log,
            &cache,
            &[MutationOp::Insert(e), MutationOp::Delete(3)],
        );
        assert_eq!((out.inserted, out.deleted), (1, 1));
        live.insert(e.id, e);
        live.remove(&3);
        assert_matches_reference(&mt.snapshot(), &cache, &live, "poisoned, after a batch");
    }

    #[test]
    fn snapshots_stay_wait_free_under_concurrent_batches() {
        let initial = scatter(32, 0);
        let universe: std::collections::BTreeSet<u64> = (0..32u64).chain(2000..2120).collect();
        let (disk, idx) = build(initial);
        let mt = MutableTransformers::adopt(&idx, &disk);
        let cache = SharedPageCache::with_shards(&disk, 1024, 4);
        let log = NoopLog::new();
        let stop = AtomicBool::new(false);

        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        let snap = mt.snapshot();
                        let mut ch = CacheHandle::shared(&cache);
                        let ids = snap.query(&mut ch, &window(0.0, 100.0));
                        // Never garbage, never duplicates — under any
                        // interleaving with the writer.
                        assert!(ids.windows(2).all(|w| w[0] < w[1]), "unsorted/dup ids");
                        for id in &ids {
                            assert!(universe.contains(id), "phantom element id {id}");
                        }
                    }
                });
            }
            s.spawn(|| {
                for round in 0u64..10 {
                    let ops: Vec<MutationOp> = (0..12)
                        .map(|i| {
                            let id = 2000 + round * 12 + i;
                            MutationOp::Insert(elem(
                                id,
                                (id % 90) as f64,
                                (id % 80) as f64,
                                (id % 70) as f64,
                            ))
                        })
                        .chain((0..4).map(|i| MutationOp::Delete((round * 4 + i) % 32)))
                        .collect();
                    mt.apply_batch(&log, &cache, &ops);
                }
                stop.store(true, Ordering::Relaxed);
            });
        });
        assert!(mt.len() > 32, "writer made progress");
    }
}
