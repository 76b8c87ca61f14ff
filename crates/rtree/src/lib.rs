//! Disk-based R-Tree and the synchronized-traversal join baseline.
//!
//! The paper's "R-TREE" baseline (§VII-A) is a synchronized R-Tree
//! traversal join (Brinkhoff et al., SIGMOD '93) over two R-Trees
//! bulk-loaded with STR (Leutenegger et al., ICDE '97), using plane sweep
//! as the in-memory kernel. This crate implements exactly that:
//!
//! * [`RTree`] — page-aligned nodes on a [`Disk`], STR bulk-loaded through
//!   the shared [`IndexBuildPipeline`] (so `--build-threads` parallelizes
//!   this baseline's build exactly like the TRANSFORMERS build);
//! * [`sync_join`] — the synchronized traversal;
//! * [`RTree::range_query`] — a box query, the bulk load's check against
//!   a scan.
//!
//! The R-Tree's structural weakness the paper highlights — *overlap* between
//! sibling MBBs forcing extra reads and comparisons — emerges naturally
//! here and is visible in the `node_tests` counter of [`RtreeStats`].

#![warn(missing_docs)]

mod join;
mod node;

pub use join::sync_join;
pub use node::{NodeEntry, RtreeNode};

use tfm_geom::{Aabb, ElementId, SpatialElement};
use tfm_memjoin::JoinStats;
use tfm_partition::IndexBuildPipeline;
use tfm_storage::{Disk, PageId, PageReads};

/// Counters for R-Tree operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RtreeStats {
    /// Node-MBB vs node-MBB (or query) intersection tests — the metadata
    /// comparisons caused by structural overlap.
    pub node_tests: u64,
    /// Element-level counters (intersection tests, results).
    pub mem: JoinStats,
}

/// A read-only, STR-bulk-loaded R-Tree whose nodes live on a [`Disk`].
#[derive(Debug)]
pub struct RTree {
    root: PageId,
    height: u32,
    len: usize,
    root_mbb: Aabb,
}

/// Internal helper tying a child page to its MBB for STR packing of inner
/// levels.
#[derive(Debug, Clone)]
struct ChildRef {
    page: PageId,
    mbb: Aabb,
}

impl tfm_geom::HasMbb for ChildRef {
    fn mbb(&self) -> Aabb {
        self.mbb
    }
}

impl RTree {
    /// Bulk-loads an R-Tree over `elements` using STR.
    ///
    /// Leaf pages hold as many 56-byte element records as fit; inner pages
    /// hold (MBB, child) entries of the same size, giving the paper's
    /// page-derived fanout (≈146 for 8 KiB pages; the paper's 135 reflects
    /// its slightly larger header). Each level is written contiguously.
    pub fn bulk_load(disk: &Disk, elements: Vec<SpatialElement>) -> Self {
        Self::bulk_load_pipelined(disk, elements, &IndexBuildPipeline::sequential())
    }

    /// [`RTree::bulk_load`] on a caller-supplied build pipeline: every
    /// level's STR pass and page encoding fan out over the pipeline's
    /// workers; the tree is byte-identical at any thread count.
    pub fn bulk_load_pipelined(
        disk: &Disk,
        elements: Vec<SpatialElement>,
        pipeline: &IndexBuildPipeline,
    ) -> Self {
        let capacity = node::capacity(disk.page_size());
        let len = elements.len();

        if elements.is_empty() {
            let page = disk.allocate();
            disk.write_page(page, &node::encode_leaf(disk.page_size(), &[]));
            return Self {
                root: page,
                height: 0,
                len: 0,
                root_mbb: Aabb::empty(),
            };
        }

        // Leaf level: STR on the shared pipeline.
        let parts = pipeline.partition(elements, capacity);
        let first = pipeline.pack_pages(disk, &parts, |p, buf| {
            node::encode_leaf_into(disk.page_size(), p.items, buf)
        });
        let mut level: Vec<ChildRef> = parts
            .iter()
            .enumerate()
            .map(|(i, p)| ChildRef {
                page: PageId(first.0 + i as u64),
                mbb: p.page_mbb,
            })
            .collect();

        // Inner levels, bottom-up through the same pipeline stages.
        let mut height = 0;
        while level.len() > 1 {
            height += 1;
            let parts = pipeline.partition(level, capacity);
            let first = pipeline.pack_pages(disk, &parts, |p, buf| {
                let entries: Vec<NodeEntry> = p
                    .items
                    .iter()
                    .map(|c| NodeEntry {
                        mbb: c.mbb,
                        child: c.page,
                    })
                    .collect();
                node::encode_inner_into(disk.page_size(), &entries, buf)
            });
            level = parts
                .iter()
                .enumerate()
                .map(|(i, p)| ChildRef {
                    page: PageId(first.0 + i as u64),
                    mbb: p.page_mbb,
                })
                .collect();
        }

        Self {
            root: level[0].page,
            height,
            len,
            root_mbb: level[0].mbb,
        }
    }

    /// Number of indexed elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no elements are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (0 = root is a leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Root page id.
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Bounding box of the whole tree.
    pub fn root_mbb(&self) -> Aabb {
        self.root_mbb
    }

    /// Returns the ids of all elements whose MBB intersects `query`,
    /// reading node pages through `pool` (any [`PageReads`] implementor:
    /// a `CacheHandle` onto a cache, or the raw `&Disk`). The join does
    /// not call it; `tests/rtree_props.rs` holds the bulk load to a scan
    /// through it.
    pub fn range_query<C: PageReads>(
        &self,
        pool: &mut C,
        query: &Aabb,
        stats: &mut RtreeStats,
    ) -> Vec<ElementId> {
        let mut out = Vec::new();
        if self.is_empty() {
            return out;
        }
        stats.node_tests += 1;
        if !self.root_mbb.intersects(query) {
            return out;
        }
        let mut stack = vec![(self.root, self.height)];
        while let Some((page, level)) = stack.pop() {
            let n = RtreeNode::decode(&pool.page(page));
            match n {
                RtreeNode::Leaf(elems) => {
                    for e in elems {
                        stats.mem.element_tests += 1;
                        if e.mbb.intersects(query) {
                            out.push(e.id);
                        }
                    }
                }
                RtreeNode::Inner(entries) => {
                    for entry in entries {
                        stats.node_tests += 1;
                        if entry.mbb.intersects(query) {
                            stack.push((entry.child, level - 1));
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_datagen::{generate, DatasetSpec};
    use tfm_geom::Point3;

    fn build(count: usize, seed: u64) -> (Disk, RTree, Vec<SpatialElement>) {
        let disk = Disk::default_in_memory();
        let elems = generate(&DatasetSpec::uniform(count, seed));
        let tree = RTree::bulk_load(&disk, elems.clone());
        (disk, tree, elems)
    }

    #[test]
    fn empty_tree() {
        let disk = Disk::default_in_memory();
        let tree = RTree::bulk_load(&disk, vec![]);
        assert!(tree.is_empty());
        let mut stats = RtreeStats::default();
        let q = Aabb::new(Point3::ORIGIN, Point3::new(1.0, 1.0, 1.0));
        assert!(tree.range_query(&mut &disk, &q, &mut stats).is_empty());
    }

    #[test]
    fn single_leaf_tree() {
        let (disk, tree, elems) = build(50, 1);
        assert_eq!(tree.height(), 0);
        assert_eq!(tree.len(), 50);
        let mut stats = RtreeStats::default();
        let all = tree.range_query(&mut &disk, &tree.root_mbb(), &mut stats);
        assert_eq!(all.len(), elems.len());
    }

    #[test]
    fn multi_level_tree_has_height() {
        let (_, tree, _) = build(2000, 2);
        assert!(tree.height() >= 1);
        assert!(!tree.root_mbb().is_empty());
    }

    #[test]
    fn range_query_matches_scan() {
        let (disk, tree, elems) = build(3000, 3);
        let mut stats = RtreeStats::default();
        let q = Aabb::new(
            Point3::new(100.0, 100.0, 100.0),
            Point3::new(400.0, 350.0, 300.0),
        );
        let mut got = tree.range_query(&mut &disk, &q, &mut stats);
        got.sort_unstable();
        let mut expected: Vec<u64> = elems
            .iter()
            .filter(|e| e.mbb.intersects(&q))
            .map(|e| e.id)
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
        assert!(
            stats.mem.element_tests < elems.len() as u64,
            "query should prune"
        );
    }

    #[test]
    fn pipelined_bulk_load_is_byte_identical() {
        let elems = generate(&DatasetSpec::uniform(5000, 9));
        let seq_disk = Disk::default_in_memory();
        let seq = RTree::bulk_load(&seq_disk, elems.clone());
        let dump = |d: &Disk| -> Vec<Vec<u8>> {
            (0..d.allocated_pages())
                .map(|p| d.read_page_vec(PageId(p)))
                .collect()
        };
        let seq_pages = dump(&seq_disk);
        for threads in [2, 4] {
            let disk = Disk::default_in_memory();
            let tree =
                RTree::bulk_load_pipelined(&disk, elems.clone(), &IndexBuildPipeline::new(threads));
            assert_eq!(tree.root(), seq.root(), "threads = {threads}");
            assert_eq!(tree.height(), seq.height());
            assert_eq!(tree.root_mbb(), seq.root_mbb());
            assert_eq!(dump(&disk), seq_pages, "threads = {threads}");
        }
    }

    #[test]
    fn range_query_outside_root_is_free() {
        let (disk, tree, _) = build(500, 4);
        disk.reset_stats();
        let mut stats = RtreeStats::default();
        let q = Aabb::new(
            Point3::new(-50.0, -50.0, -50.0),
            Point3::new(-10.0, -10.0, -10.0),
        );
        assert!(tree.range_query(&mut &disk, &q, &mut stats).is_empty());
        assert_eq!(stats.mem.element_tests, 0);
        assert_eq!(disk.stats().reads(), 0);
    }
}
