//! The TRANSFORMERS indexing phase (paper §IV).
//!
//! Given one dataset, indexing produces the three-level hierarchy:
//!
//! 1. **Space units** — the elements are STR-partitioned into page-sized
//!    groups; each unit's elements are written to one disk page, and the
//!    unit is summarized by a descriptor holding the page pointer, the
//!    tight *page MBB* and the tiling *partition MBB*.
//! 2. **Space nodes** — the unit descriptors are STR-partitioned again into
//!    page-sized groups. Node tiles (the node-level partition MBBs) tile
//!    the dataset extent with no gaps.
//! 3. **Connectivity** — a spatial self-join over the node tiles yields,
//!    per node, the list of overlapping/adjacent nodes ("any spatial join
//!    approach can be used; we use PBSM primarily because of its efficiency
//!    in the building phase" — here a uniform-grid self-join, which *is*
//!    PBSM's partitioning applied to the node tiles). Units inherit their
//!    node's neighbour list.
//!
//! Additionally a B+-tree over the Hilbert values of node centers is built
//! to locate walk start points (§V), and the descriptor tables are written
//! to a contiguous metadata region.
//!
//! # Staged, data-parallel construction
//!
//! [`TransformersIndex::build`] runs as an explicit five-stage pipeline on
//! an [`IndexBuildPipeline`] sized by [`IndexConfig::build_threads`]:
//!
//! 1. **Unit STR** — the element vector is permuted in place into
//!    space-unit order (integer-key selections: x-slabs selected and
//!    distributed on the caller, per-slab y/z passes fanned out) and comes
//!    back with a table of unit ranges and boxes;
//! 2. **Node STR** — one seed per unit (its two boxes, its count, its row
//!    in that table) → space nodes, the same kernel again;
//! 3. **Element-page packing** — the node pass's seed order *is* the page
//!    order, and page `i` encodes the unit-pass slice its seed names;
//!    images are encoded in parallel, written sequentially in page order;
//! 4. **Connectivity** — the uniform-grid self-join, fanned out per node;
//! 5. **Finalize** — reach, Hilbert B+-tree bulk load, metadata region.
//!
//! Every stage is order-preserving, so the disk image (pages, metadata,
//! B+-tree) is **byte-identical at any thread count** — the
//! `build_determinism` integration test checksums whole disks to verify.
//! Each stage records a `build.*_nanos` timer; `tfm build` prints the
//! split. DESIGN.md § "Bulk load" has the kernel and its numbers.
//!
//! Indexes are built per dataset and can be **reused** for joins against
//! any other indexed dataset (§VII-C2) — see `examples/index_reuse.rs`.

use crate::config::IndexConfig;
use crate::descriptor::{NodeId, SpaceNode, SpaceUnitDesc, UnitId};
use crate::metadata;
use crate::probe_dir::ProbeDirectory;
use tfm_bptree::BPlusTree;
use tfm_geom::{hilbert, Aabb, HasMbb, SpatialElement};
use tfm_partition::{IndexBuildPipeline, UniformGrid};
use tfm_pool::StagePool;
use tfm_storage::{
    CacheHandle, Disk, ElementPageCodec, ElementRecords, PageId, PageReads, PoolCounters,
    SharedPageCache,
};

/// Serialized size of one unit descriptor (see `metadata.rs`).
const UNIT_DESC_BYTES: usize = 8 + 48 + 48 + 4 + 2;

/// A fully built TRANSFORMERS index over one dataset.
///
/// The descriptor tables are kept in memory for convenience (tests, the
/// GIPSY baseline); the join phase nevertheless re-reads them from the
/// metadata pages so that the I/O accounting is honest.
#[derive(Debug)]
pub struct TransformersIndex {
    nodes: Vec<SpaceNode>,
    units: Vec<SpaceUnitDesc>,
    /// In-memory probe prefilter over `nodes` (derived, never persisted).
    directory: ProbeDirectory,
    extent: Aabb,
    reach_eps: f64,
    btree: BPlusTree,
    meta_first_page: PageId,
    meta_page_count: u64,
    meta_bytes: usize,
    len: usize,
    unit_capacity: usize,
    node_capacity: usize,
}

/// Seed item for the node-level STR pass: one unit with its tiling box.
struct UnitSeed {
    /// Row of the unit pass's partition table.
    part_idx: usize,
    partition_mbb: Aabb,
    page_mbb: Aabb,
    count: u16,
}

impl HasMbb for UnitSeed {
    fn mbb(&self) -> Aabb {
        self.partition_mbb
    }
}

impl TransformersIndex {
    /// Builds the index, writing element pages, metadata pages and the
    /// Hilbert B+-tree to `disk`.
    ///
    /// Runs the staged pipeline on [`IndexConfig::build_threads`] workers;
    /// the disk image is byte-identical at any thread count.
    ///
    /// # Panics
    /// Panics on an invalid configuration (see
    /// [`TransformersIndex::try_build`] for the non-panicking variant).
    pub fn build(disk: &Disk, elements: Vec<SpatialElement>, cfg: &IndexConfig) -> Self {
        Self::try_build(disk, elements, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`TransformersIndex::build`] with configuration problems (zero
    /// capacities, a unit capacity exceeding the page) reported as a clear
    /// `Err` up front instead of a panic deep inside an STR pass.
    pub fn try_build(
        disk: &Disk,
        elements: Vec<SpatialElement>,
        cfg: &IndexConfig,
    ) -> Result<Self, String> {
        let pipeline = IndexBuildPipeline::new(cfg.build_threads);
        Self::build_with_pipeline(disk, elements, cfg, &pipeline)
    }

    /// [`TransformersIndex::try_build`] on a caller-supplied
    /// [`IndexBuildPipeline`] (e.g. one shared across several dataset
    /// builds by a benchmark harness).
    pub fn build_with_pipeline(
        disk: &Disk,
        elements: Vec<SpatialElement>,
        cfg: &IndexConfig,
        pipeline: &IndexBuildPipeline,
    ) -> Result<Self, String> {
        cfg.validate()?;
        let codec = ElementPageCodec::new(disk.page_size());
        let unit_capacity = cfg.unit_capacity.unwrap_or_else(|| codec.capacity());
        if unit_capacity > codec.capacity() {
            return Err(format!(
                "index config: unit capacity {unit_capacity} exceeds page capacity {}",
                codec.capacity()
            ));
        }
        let node_capacity = cfg
            .node_capacity
            .unwrap_or((disk.page_size() - 16) / UNIT_DESC_BYTES)
            .max(1);

        let len = elements.len();
        if elements.is_empty() {
            let meta = metadata::encode(&[], &[]);
            let (first, count) = write_meta(disk, &meta);
            let btree = BPlusTree::bulk_load(disk, &[]);
            return Ok(Self {
                nodes: Vec::new(),
                units: Vec::new(),
                directory: ProbeDirectory::build(std::iter::empty(), std::iter::empty()),
                extent: Aabb::empty(),
                reach_eps: 0.0,
                btree,
                meta_first_page: first,
                meta_page_count: count,
                meta_bytes: meta.len(),
                len: 0,
                unit_capacity,
                node_capacity,
            });
        }

        let obs = tfm_obs::global();

        // Stage 1 — unit STR: the element vector, permuted in place into
        // space-unit order, plus one table row per unit.
        let stage = obs.stage_span(tfm_obs::names::BUILD_UNIT_STR);
        let unit_parts = pipeline.partition(elements, unit_capacity);
        let extent = unit_parts.extent();
        drop(stage);

        // Stage 2 — node STR: unit descriptors -> space nodes.
        let stage = obs.stage_span(tfm_obs::names::BUILD_NODE_STR);
        let seeds: Vec<UnitSeed> = unit_parts
            .iter()
            .enumerate()
            .map(|(i, p)| UnitSeed {
                part_idx: i,
                partition_mbb: p.partition_mbb,
                page_mbb: p.page_mbb,
                count: u16::try_from(p.items.len()).expect("unit capacity fits the count field"),
            })
            .collect();
        let node_parts = pipeline.partition(seeds, node_capacity);
        drop(stage);

        // Stage 3 — element-page packing: assign unit ids node by node so
        // each node's units are contiguous, and lay element pages out in
        // exactly that order (contiguous run => crawling a node reads
        // sequentially). Page images are encoded in parallel; the writes
        // stay in page order, so bytes and I/O classification match a
        // sequential build exactly.
        let stage = obs.stage_span(tfm_obs::names::BUILD_PAGE_PACK);
        let total_units = unit_parts.len();
        let mut units: Vec<SpaceUnitDesc> = Vec::with_capacity(total_units);
        let mut nodes: Vec<SpaceNode> = Vec::with_capacity(node_parts.len());
        // Node STR permuted the seeds into node order: that is the page
        // order, and each page's elements are one slice of the unit pass's
        // vector.
        let page_order = node_parts.items();
        let first_elem_page = pipeline.write_pages(disk, total_units, |i, page| {
            codec.encode_page(unit_parts.items_of(page_order[i].part_idx), page)
        });
        for (node_idx, np) in node_parts.iter().enumerate() {
            let first_unit = units.len() as u32;
            for seed in np.items {
                let unit_id = UnitId(units.len() as u32);
                let page = PageId(first_elem_page.0 + units.len() as u64);
                units.push(SpaceUnitDesc {
                    id: unit_id,
                    page,
                    page_mbb: seed.page_mbb,
                    partition_mbb: seed.partition_mbb,
                    node: NodeId(node_idx as u32),
                    count: seed.count,
                });
            }
            let page_mbb = Aabb::union_all(np.items.iter().map(|s| s.page_mbb));
            let hilbert_key = hilbert::index_of_point(&np.partition_mbb.center(), &extent);
            nodes.push(SpaceNode {
                id: NodeId(node_idx as u32),
                tile: np.partition_mbb,
                page_mbb,
                neighbors: Vec::new(),
                first_unit,
                unit_count: np.items.len() as u32,
                hilbert: hilbert_key,
            });
        }

        drop(stage);

        // Stage 4 — connectivity via a uniform-grid self-join on node
        // tiles, fanned out per node.
        let stage = obs.stage_span(tfm_obs::names::BUILD_CONNECTIVITY);
        compute_connectivity(&mut nodes, &extent, pipeline.pool());
        drop(stage);

        // Stage 5 — finalize: reach, Hilbert B+-tree, metadata region.
        let stage = obs.stage_span(tfm_obs::names::BUILD_FINALIZE);
        // How far element geometry can stick out of a node tile: the crawl
        // inflates tiles by this much so no intersecting page is missed.
        let reach_eps = compute_reach(&nodes, &units);

        // Hilbert B+-tree for walk starts, bulk-loaded through the same
        // pipeline (page encodes fan out; writes stay in page order).
        let mut keyed: Vec<(u64, u64)> = nodes.iter().map(|n| (n.hilbert, n.id.0 as u64)).collect();
        keyed.sort_unstable();
        let btree = BPlusTree::bulk_load_with(disk, &keyed, pipeline);

        // Metadata region.
        let meta = metadata::encode(&nodes, &units);
        let (meta_first_page, meta_page_count) = write_meta(disk, &meta);
        let directory = ProbeDirectory::build(
            nodes
                .iter()
                .map(|n| (n.page_mbb, n.first_unit..n.first_unit + n.unit_count)),
            units.iter().map(|u| u.page_mbb),
        );
        drop(stage);

        Ok(Self {
            nodes,
            units,
            directory,
            extent,
            reach_eps,
            btree,
            meta_first_page,
            meta_page_count,
            meta_bytes: meta.len(),
            len,
            unit_capacity,
            node_capacity,
        })
    }

    /// Space nodes (level 0).
    pub fn nodes(&self) -> &[SpaceNode] {
        &self.nodes
    }

    /// Space unit descriptors (level 1).
    pub fn units(&self) -> &[SpaceUnitDesc] {
        &self.units
    }

    /// Calls `visit` with the unit-table index of every unit a probe box
    /// can match — node page MBB **and** unit page MBB intersect `probe`
    /// (closed intervals) — in ascending unit order, which is ascending
    /// page order. This is the one probe prefilter: the in-memory probe
    /// directory finds the nodes in O(log nodes + hits) instead of a scan
    /// of the node table.
    #[inline]
    pub fn for_each_candidate_unit(&self, probe: &Aabb, visit: impl FnMut(usize)) {
        self.directory.for_each_candidate_unit(probe, visit);
    }

    /// Number of indexed elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the index holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bounding box of the dataset; node tiles tile exactly this box.
    pub fn extent(&self) -> Aabb {
        self.extent
    }

    /// Maximum distance element geometry protrudes beyond its node tile.
    /// Exploration inflates tiles by this amount (see `DESIGN.md`).
    pub fn reach_eps(&self) -> f64 {
        self.reach_eps
    }

    /// Elements per space unit.
    pub fn unit_capacity(&self) -> usize {
        self.unit_capacity
    }

    /// Units per space node.
    pub fn node_capacity(&self) -> usize {
        self.node_capacity
    }

    /// Number of metadata pages (read at join start).
    pub fn metadata_pages(&self) -> u64 {
        self.meta_page_count
    }

    /// Uses the Hilbert B+-tree to find the node whose center is closest
    /// (in Hilbert order) to `point` — the start descriptor of an adaptive
    /// walk (§V). Reads the tree's node pages through `cache`: the cache
    /// the caller reads element pages with, so walk-start lookups hit
    /// instead of re-reading the tree (`&mut &disk` reads uncached).
    pub fn walk_start<C: PageReads>(
        &self,
        cache: &mut C,
        point: &tfm_geom::Point3,
    ) -> Option<NodeId> {
        let key = hilbert::index_of_point(point, &self.extent);
        self.btree
            .nearest_with(cache, key)
            .map(|(_, node)| NodeId(node as u32))
    }

    /// Reads and decodes one space unit's elements through `pages` — a
    /// one-off read for a single owner (an example, a test). Concurrent
    /// readers take a [`UnitReader`] each
    /// ([`unit_reader_shared`](Self::unit_reader_shared)).
    pub fn read_unit(&self, pages: &mut impl PageReads, unit: UnitId) -> Vec<SpatialElement> {
        let page = pages.page(self.units[unit.0 as usize].page);
        ElementPageCodec::new(page.len()).decode(&page)
    }

    /// Creates a cheap per-worker read handle over this index's element
    /// pages: a thin view over the process-wide [`SharedPageCache`] plus
    /// the page codec. Reads pin cached frames zero-copy, shared across
    /// every reader of the cache, while hit/miss counters stay per-handle —
    /// so any number of [`UnitReader`]s can serve queries against one
    /// shared index concurrently.
    pub fn unit_reader_shared<'c, 'd>(
        &self,
        cache: &'c SharedPageCache<'d>,
    ) -> UnitReader<'_, 'c, 'd> {
        UnitReader {
            units: &self.units,
            codec: ElementPageCodec::new(cache.disk().page_size()),
            cache: CacheHandle::shared(cache),
        }
    }

    /// Re-reads the metadata region from disk (sequentially) and decodes
    /// the descriptor tables — what a join does on startup. Returns the
    /// number of pages read.
    pub fn load_metadata(&self, disk: &Disk) -> (Vec<SpaceNode>, Vec<SpaceUnitDesc>, u64) {
        let mut bytes = Vec::with_capacity((self.meta_page_count as usize) * disk.page_size());
        for i in 0..self.meta_page_count {
            bytes.extend_from_slice(&disk.read_page_vec(PageId(self.meta_first_page.0 + i)));
        }
        bytes.truncate(self.meta_bytes);
        let (nodes, units) = metadata::decode(&bytes);
        (nodes, units, self.meta_page_count)
    }
}

/// A per-worker read handle over one index's element pages: a
/// [`CacheHandle`] onto the process-wide shared cache plus the page codec.
///
/// This is the "split handle" that lets many readers share one immutable
/// [`TransformersIndex`]: the descriptor tables are borrowed read-only,
/// the disk is read through `&self`, and the handle's counters are its
/// own — so `N` workers hold `N` independent readers whose only shared
/// state is the lock-striped cache itself.
///
/// Its one read, [`with_records`](Self::with_records), **pins**: the
/// unit's page stays in its cache frame and the caller reads ids and boxes
/// in place. The serve probe path uses it: it tests every box once and
/// keeps only ids.
pub struct UnitReader<'i, 'c, 'd> {
    units: &'i [SpaceUnitDesc],
    codec: ElementPageCodec,
    cache: CacheHandle<'c, 'd>,
}

impl UnitReader<'_, '_, '_> {
    /// Pins one unit's page and hands `f` a borrowed view of its records:
    /// nothing is decoded, copied or allocated, and the pin is released
    /// when `f` returns. Counts one page-tier hit or miss on this handle,
    /// exactly like [`PageReads::page`].
    #[inline]
    pub fn with_records<R>(&mut self, unit: UnitId, f: impl FnOnce(ElementRecords<'_>) -> R) -> R {
        let page = self.cache.page(self.units[unit.0 as usize].page);
        f(self.codec.view(&page))
    }

    /// This handle's cache counters (hits, misses).
    pub fn counters(&self) -> PoolCounters {
        self.cache.counters()
    }

    /// Cache hits observed through this handle.
    pub fn hits(&self) -> u64 {
        self.counters().hits
    }

    /// Cache misses (disk page reads) triggered through this handle.
    pub fn misses(&self) -> u64 {
        self.counters().misses
    }
}

/// Writes `meta` to a fresh contiguous page run; returns (first, count).
fn write_meta(disk: &Disk, meta: &[u8]) -> (PageId, u64) {
    let ps = disk.page_size();
    let pages = meta.len().div_ceil(ps).max(1) as u64;
    let first = disk.allocate_contiguous(pages);
    for (i, chunk) in meta.chunks(ps).enumerate() {
        disk.write_page(PageId(first.0 + i as u64), chunk);
    }
    if meta.is_empty() {
        disk.write_page(first, &[]);
    }
    (first, pages)
}

/// Computes node neighbour lists: all pairs of nodes whose tiles intersect
/// (tiles tile space, so touching neighbours share boundary coordinates and
/// closed-box intersection finds them exactly).
///
/// The cell registry is built sequentially (cheap). The quadratic part
/// runs one of two kernels with identical output: a sequential pool uses
/// the classic per-cell **pairwise** loop (each co-located pair tested
/// once per shared cell — no redundant work); a parallel pool evaluates
/// neighbours independently **per node** and fans the nodes out over the
/// workers. `b` is a neighbour of `a` iff the two co-occupy a grid cell
/// and their tiles intersect — a symmetric condition, so both kernels
/// produce exactly the same sets (the parallel one tests each pair from
/// both endpoints, the price of having no shared mutable state). The
/// build-determinism tests compare builds across thread counts and thus
/// hold the two kernels equal.
fn compute_connectivity(nodes: &mut [SpaceNode], extent: &Aabb, pool: &StagePool) {
    if nodes.len() <= 1 {
        return;
    }
    let cells = (nodes.len() as f64).cbrt().ceil() as usize;
    let grid = UniformGrid::cubic(*extent, cells.max(1));
    let mut cell_nodes: Vec<Vec<u32>> = vec![Vec::new(); grid.cell_count()];
    let mut node_cells: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for n in nodes.iter() {
        for cell in grid.cells_overlapping(&n.tile) {
            cell_nodes[cell].push(n.id.0);
            node_cells[n.id.0 as usize].push(cell);
        }
    }

    let neighbor_lists: Vec<Vec<NodeId>> = if pool.is_sequential() {
        let mut sets: Vec<std::collections::BTreeSet<u32>> =
            vec![std::collections::BTreeSet::new(); nodes.len()];
        for members in &cell_nodes {
            for (i, &a) in members.iter().enumerate() {
                for &b in members.iter().skip(i + 1) {
                    if nodes[a as usize].tile.intersects(&nodes[b as usize].tile) {
                        sets[a as usize].insert(b);
                        sets[b as usize].insert(a);
                    }
                }
            }
        }
        sets.into_iter()
            .map(|s| s.into_iter().map(NodeId).collect())
            .collect()
    } else {
        let tiles: Vec<Aabb> = nodes.iter().map(|n| n.tile).collect();
        pool.map_range(nodes.len(), |a| {
            let mut set = std::collections::BTreeSet::new();
            for &cell in &node_cells[a] {
                for &b in &cell_nodes[cell] {
                    if b as usize != a && tiles[a].intersects(&tiles[b as usize]) {
                        set.insert(b);
                    }
                }
            }
            set.into_iter().map(NodeId).collect()
        })
    };
    for (n, list) in nodes.iter_mut().zip(neighbor_lists) {
        n.neighbors = list;
    }
}

/// Largest per-dimension protrusion of any unit's page MBB beyond its
/// node's tile.
fn compute_reach(nodes: &[SpaceNode], units: &[SpaceUnitDesc]) -> f64 {
    let mut reach = 0.0f64;
    for n in nodes {
        for u in n.unit_range() {
            let pm = &units[u].page_mbb;
            if pm.is_empty() {
                continue;
            }
            for d in 0..3 {
                reach = reach
                    .max(n.tile.min.coord(d) - pm.min.coord(d))
                    .max(pm.max.coord(d) - n.tile.max.coord(d));
            }
        }
    }
    reach.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_datagen::{generate, DatasetSpec, Distribution};

    fn build(count: usize, seed: u64) -> (Disk, TransformersIndex, Vec<SpatialElement>) {
        let disk = Disk::default_in_memory();
        let elems = generate(&DatasetSpec {
            max_side: 5.0,
            ..DatasetSpec::uniform(count, seed)
        });
        let idx = TransformersIndex::build(&disk, elems.clone(), &IndexConfig::default());
        (disk, idx, elems)
    }

    #[test]
    fn empty_index() {
        let disk = Disk::default_in_memory();
        let idx = TransformersIndex::build(&disk, vec![], &IndexConfig::default());
        assert!(idx.is_empty());
        assert!(idx.nodes().is_empty());
        assert_eq!(idx.walk_start(&mut &disk, &tfm_geom::Point3::ORIGIN), None);
    }

    #[test]
    fn hierarchy_structure_is_consistent() {
        let (_, idx, elems) = build(5000, 50);
        assert_eq!(idx.len(), elems.len());
        // Units are partitioned into nodes contiguously, each node non-empty.
        let mut seen_units = 0u32;
        for n in idx.nodes() {
            assert_eq!(n.first_unit, seen_units);
            assert!(n.unit_count > 0);
            seen_units += n.unit_count;
            for u in n.unit_range() {
                assert_eq!(idx.units()[u].node, n.id);
            }
        }
        assert_eq!(seen_units as usize, idx.units().len());
        // Total elements match.
        let total: usize = idx.units().iter().map(|u| u.count as usize).sum();
        assert_eq!(total, elems.len());
    }

    #[test]
    fn node_tiles_tile_the_extent() {
        let (_, idx, _) = build(8000, 51);
        let ext = idx.extent();
        let total: f64 = idx.nodes().iter().map(|n| n.tile.volume()).sum();
        assert!((total - ext.volume()).abs() < 1e-6 * ext.volume());
        let union = Aabb::union_all(idx.nodes().iter().map(|n| n.tile));
        assert_eq!(union, ext);
    }

    #[test]
    fn connectivity_links_are_symmetric_and_touching() {
        let (_, idx, _) = build(8000, 52);
        for n in idx.nodes() {
            for &nb in &n.neighbors {
                let other = &idx.nodes()[nb.0 as usize];
                assert!(n.tile.intersects(&other.tile));
                assert!(
                    other.neighbors.contains(&n.id),
                    "asymmetric link {:?} -> {:?}",
                    n.id,
                    nb
                );
                assert_ne!(nb, n.id, "self link");
            }
        }
    }

    #[test]
    fn connectivity_graph_is_connected() {
        let (_, idx, _) = build(6000, 53);
        let n = idx.nodes().len();
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 0;
        while let Some(i) = stack.pop() {
            count += 1;
            for &nb in &idx.nodes()[i].neighbors {
                if !seen[nb.0 as usize] {
                    seen[nb.0 as usize] = true;
                    stack.push(nb.0 as usize);
                }
            }
        }
        assert_eq!(count, n, "connectivity graph disconnected");
    }

    #[test]
    fn pages_roundtrip_all_elements() {
        let (disk, idx, elems) = build(3000, 54);
        let mut ids: Vec<u64> = Vec::new();
        for u in idx.units() {
            let read = idx.read_unit(&mut &disk, u.id);
            assert_eq!(read.len(), u.count as usize);
            for e in &read {
                assert!(u.page_mbb.contains(&e.mbb));
            }
            ids.extend(read.iter().map(|e| e.id));
        }
        ids.sort_unstable();
        let mut expected: Vec<u64> = elems.iter().map(|e| e.id).collect();
        expected.sort_unstable();
        assert_eq!(ids, expected);
    }

    #[test]
    fn unit_readers_share_an_index_concurrently() {
        let (disk, idx, elems) = build(3000, 62);
        let mut expected: Vec<u64> = elems.iter().map(|e| e.id).collect();
        expected.sort_unstable();
        // Four threads, each with its own reader over the same index and
        // cache — no `&mut` sharing, identical records.
        let cache = SharedPageCache::new(&disk, 64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut reader = idx.unit_reader_shared(&cache);
                    let mut ids: Vec<u64> = Vec::new();
                    for u in idx.units() {
                        reader.with_records(u.id, |r| ids.extend(r.iter().map(|e| e.id)));
                    }
                    ids.sort_unstable();
                    assert_eq!(ids, expected);
                    // Whoever faulted a page in, every read is this
                    // handle's own hit or miss.
                    let reads = reader.hits() + reader.misses();
                    assert_eq!(reads, idx.units().len() as u64);
                });
            }
        });
    }

    #[test]
    fn metadata_roundtrips_from_disk() {
        let (disk, idx, _) = build(4000, 55);
        let (nodes, units, pages) = idx.load_metadata(&disk);
        assert_eq!(nodes, idx.nodes());
        assert_eq!(units, idx.units());
        assert!(pages > 0);
    }

    #[test]
    fn walk_start_returns_nearby_node() {
        let (disk, idx, _) = build(9000, 56);
        let probe = tfm_geom::Point3::new(500.0, 500.0, 500.0);
        let start = idx.walk_start(&mut &disk, &probe).expect("non-empty index");
        let tile = &idx.nodes()[start.0 as usize].tile;
        // Hilbert locality: the chosen node should be reasonably close to
        // the probe (within a quarter of the universe diagonal).
        let dist = tile.min_distance(&Aabb::from_point(probe));
        assert!(dist < 450.0, "walk start {dist} away");
    }

    #[test]
    fn clustered_data_produces_small_and_large_tiles() {
        let disk = Disk::default_in_memory();
        let elems = generate(&DatasetSpec::with_distribution(
            10_000,
            Distribution::MassiveCluster {
                clusters: 2,
                elements_per_cluster: 5000,
            },
            57,
        ));
        let cfg = IndexConfig {
            unit_capacity: Some(16),
            node_capacity: Some(8),
            ..IndexConfig::default()
        };
        let idx = TransformersIndex::build(&disk, elems, &cfg);
        let vols: Vec<f64> = idx.nodes().iter().map(|n| n.tile.volume()).collect();
        let max = vols.iter().cloned().fold(0.0, f64::max);
        let min = vols.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max / min.max(1e-12) > 8.0,
            "expected contrasting tile volumes, got min {min} max {max}"
        );
    }

    #[test]
    fn try_build_rejects_bad_configs_up_front() {
        let disk = Disk::default_in_memory();
        let elems = generate(&DatasetSpec::uniform(100, 60));
        let err = TransformersIndex::try_build(
            &disk,
            elems.clone(),
            &IndexConfig {
                unit_capacity: Some(0),
                ..IndexConfig::default()
            },
        )
        .expect_err("unit_capacity 0 must be rejected");
        assert!(err.contains("unit_capacity"), "unhelpful error: {err}");
        let err = TransformersIndex::try_build(
            &disk,
            elems.clone(),
            &IndexConfig {
                node_capacity: Some(0),
                ..IndexConfig::default()
            },
        )
        .expect_err("node_capacity 0 must be rejected");
        assert!(err.contains("node_capacity"), "unhelpful error: {err}");
        let err = TransformersIndex::try_build(
            &disk,
            elems,
            &IndexConfig {
                unit_capacity: Some(usize::MAX),
                ..IndexConfig::default()
            },
        )
        .expect_err("oversized unit_capacity must be rejected");
        assert!(err.contains("page capacity"), "unhelpful error: {err}");
        // Nothing was written by any of the failed attempts.
        assert_eq!(disk.allocated_pages(), 0);
    }

    #[test]
    fn parallel_build_produces_identical_index_and_disk() {
        let elems = generate(&DatasetSpec {
            max_side: 5.0,
            ..DatasetSpec::uniform(4000, 61)
        });
        let seq_disk = Disk::default_in_memory();
        let sequential = IndexConfig::default().with_build_threads(1);
        let seq = TransformersIndex::build(&seq_disk, elems.clone(), &sequential);
        let dump = |d: &Disk| -> Vec<Vec<u8>> {
            (0..d.allocated_pages())
                .map(|p| d.read_page_vec(PageId(p)))
                .collect()
        };
        let seq_pages = dump(&seq_disk);
        for threads in [2, 4] {
            let disk = Disk::default_in_memory();
            let cfg = IndexConfig::default().with_build_threads(threads);
            let idx = TransformersIndex::build(&disk, elems.clone(), &cfg);
            assert_eq!(idx.nodes(), seq.nodes(), "threads = {threads}");
            assert_eq!(idx.units(), seq.units(), "threads = {threads}");
            assert_eq!(idx.reach_eps(), seq.reach_eps());
            assert_eq!(dump(&disk), seq_pages, "threads = {threads}");
        }
    }

    #[test]
    fn custom_capacities_respected() {
        let disk = Disk::default_in_memory();
        let elems = generate(&DatasetSpec::uniform(1000, 58));
        let cfg = IndexConfig {
            unit_capacity: Some(20),
            node_capacity: Some(4),
            ..IndexConfig::default()
        };
        let idx = TransformersIndex::build(&disk, elems, &cfg);
        for u in idx.units() {
            assert!(u.count <= 20);
        }
        for n in idx.nodes() {
            assert!(n.unit_count <= 4);
        }
    }
}
