//! A disk-page B+-tree on `u64` keys.
//!
//! TRANSFORMERS "indexes the Hilbert value of the center point of all space
//! nodes in a dataset with a B+-Tree … instead of an R-Tree to avoid the
//! issue of overlap and also to speed up building the index" (paper §V,
//! "Adaptive Walk"). The tree maps Hilbert values to space-node ids and is
//! used only to locate the *start descriptor* of an adaptive walk.
//!
//! The tree is bulk-loaded bottom-up from sorted pairs, stores its nodes on
//! a [`Disk`] (every traversal is charged page I/O), and supports exact
//! lookup, range scans, and nearest-key search ([`BPlusTree::nearest`]) —
//! the operation the walk start actually needs.
//!
//! [`BPlusTree::bulk_load_with`] routes every level's page encoding through
//! the shared [`IndexBuildPipeline`] — the last sequential stage of the
//! staged index build. Pages are encoded in parallel but written in page
//! order, so the tree is **byte-identical at any thread count** (see the
//! `parallel_bulk_load_is_byte_identical` test).
//!
//! Traversals are generic over [`tfm_storage::PageReads`]: the `_with`
//! variants ([`BPlusTree::get_with`], [`BPlusTree::nearest_with`],
//! [`BPlusTree::range_with`]) read node pages through a caller-supplied
//! cache — in the join and serve paths the session's `CacheHandle` onto
//! the process-wide `SharedPageCache`, so B+-tree pages share frames with
//! the element pages read beside them. The plain `&Disk` variants
//! remain as uncached conveniences for one-shot lookups.
//!
//! # Insert and delete
//!
//! The write path's element directory (element id → unit) is the same
//! tree, bulk-loaded and then changed in place by [`BPlusTree::insert`]
//! and [`BPlusTree::delete`]. Both take `&mut self`, so a tree has one
//! writer at a time and no reader runs beside it; the caller that shares a
//! tree puts it behind whatever lock already serialises its writes. Page
//! writes go through [`tfm_storage::PageWrites`]: routed through
//! `tfm_storage::LoggedPages` they are WAL-logged and land in the shared
//! cache's dirty tier; `&Disk` writes in place, unlogged.
//!
//! * **Preventive splits.** A full node is split on the way down, before
//!   the descent enters it, so a split never propagates back up. The low
//!   half stays in the page, the high half moves to a fresh right sibling.
//! * **Lazy deletion.** An entry is removed in place. A leaf that empties
//!   is unlinked from its parent and from the leaf chain when its chain
//!   predecessor shares its parent; nodes never merge, and the page is not
//!   reused (the disk has no free list; a rebuild reclaims it).
//!
//! Splits between equal keys leave entries equal to the new separator in
//! the left sibling, so [`get`](BPlusTree::get) and
//! [`range`](BPlusTree::range) descend left-biased and walk the leaf chain
//! right from there, which finds every duplicate, first one first.

#![warn(missing_docs)]

use bytes::BufMut;
use std::ops::ControlFlow;
use tfm_partition::IndexBuildPipeline;
use tfm_storage::{Disk, PageId, PageReads, PageWrites};

const LEAF_TAG: u8 = 1;
const INNER_TAG: u8 = 0;
const HEADER: usize = 1 + 2; // tag + count
const ENTRY: usize = 16; // key + (value | child)
const NO_LEAF: u64 = u64::MAX;

/// Entries per node page: what fits behind the header and the next-leaf
/// pointer, and never more than the `u16` count can say.
///
/// # Panics
/// Panics if the page cannot hold two entries.
fn fanout_for(page_size: usize) -> usize {
    let fanout = (page_size.saturating_sub(HEADER + 8) / ENTRY).min(u16::MAX as usize);
    assert!(fanout >= 2, "page size too small for a B+-tree node");
    fanout
}

/// A B+-tree stored on a disk: bulk-loaded, then changed in place by one
/// writer (module docs).
#[derive(Debug)]
pub struct BPlusTree {
    root: PageId,
    height: u32,
    len: usize,
    fanout: usize,
}

impl BPlusTree {
    /// Bulk-loads a tree from key-sorted `(key, value)` pairs.
    ///
    /// Duplicate keys are allowed; lookups return the first match in input
    /// order. Leaves are written contiguously (sequential I/O), then each
    /// upper level in turn, matching how a real bulk loader would stream to
    /// disk. An empty input gives one empty leaf, the tree
    /// [`insert`](Self::insert) grows from.
    ///
    /// # Panics
    /// Panics if `pairs` is not sorted by key or the page size is too small
    /// to hold at least two entries per node.
    pub fn bulk_load(disk: &Disk, pairs: &[(u64, u64)]) -> Self {
        Self::bulk_load_with(disk, pairs, &IndexBuildPipeline::sequential())
    }

    /// [`BPlusTree::bulk_load`] on a caller-supplied build pipeline: every
    /// level's page images are encoded in parallel over the pipeline's
    /// workers and written sequentially in page order, so the on-disk tree
    /// is byte-identical at any thread count.
    pub fn bulk_load_with(
        disk: &Disk,
        pairs: &[(u64, u64)],
        pipeline: &IndexBuildPipeline,
    ) -> Self {
        let fanout = fanout_for(disk.page_size());
        assert!(
            pairs.windows(2).all(|w| w[0].0 <= w[1].0),
            "bulk_load requires key-sorted input"
        );

        if pairs.is_empty() {
            // A single empty leaf keeps the traversal code uniform.
            let page = disk.allocate();
            let mut buf = Vec::new();
            encode_node_into(LEAF_TAG, NO_LEAF, &[], &mut buf);
            disk.write_page(page, &buf);
            return Self::from_parts(page, 0, 0, fanout);
        }

        // Build the leaf level: leaves are chained through next-leaf
        // pointers to their physical successors, so the encoder needs the
        // run's first page id (`encode_run`).
        let n_leaves = pairs.len().div_ceil(fanout);
        let first_leaf = pipeline.encode_run(disk, n_leaves, |first, i, buf| {
            let chunk = &pairs[i * fanout..((i + 1) * fanout).min(pairs.len())];
            let next = if i + 1 < n_leaves {
                first.0 + i as u64 + 1
            } else {
                NO_LEAF
            };
            encode_node_into(LEAF_TAG, next, chunk, buf)
        });
        let mut level: Vec<(u64, PageId)> = (0..n_leaves)
            .map(|i| (pairs[i * fanout].0, PageId(first_leaf.0 + i as u64)))
            .collect();

        // Build inner levels until a single root remains.
        let mut height = 0u32;
        while level.len() > 1 {
            height += 1;
            let n_nodes = level.len().div_ceil(fanout);
            let first = pipeline.encode_run(disk, n_nodes, |_, i, buf| {
                let chunk = &level[i * fanout..((i + 1) * fanout).min(level.len())];
                let entries: Vec<(u64, u64)> = chunk.iter().map(|&(k, p)| (k, p.0)).collect();
                // The next-leaf slot is unused in inner nodes; keeping it
                // keeps the layout uniform.
                encode_node_into(INNER_TAG, NO_LEAF, &entries, buf)
            });
            level = (0..n_nodes)
                .map(|i| (level[i * fanout].0, PageId(first.0 + i as u64)))
                .collect();
        }

        Self::from_parts(level[0].1, height, pairs.len(), fanout)
    }

    /// Reattaches a tree from its header state — [`root`](Self::root),
    /// [`height`](Self::height), [`len`](Self::len) and
    /// [`fanout`](Self::fanout), as a superblock stores them.
    ///
    /// # Panics
    /// Panics if `fanout < 2`.
    pub fn from_parts(root: PageId, height: u32, len: usize, fanout: usize) -> Self {
        assert!(fanout >= 2, "a B+-tree node holds at least two entries");
        Self {
            root,
            height,
            len,
            fanout,
        }
    }

    /// Number of stored pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the tree stores nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (0 = the root is a leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Root page id.
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Maximum entries per node for this disk's page size.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Returns the first value stored under `key`, if any (uncached
    /// convenience over [`get_with`](Self::get_with)).
    pub fn get(&self, disk: &Disk, key: u64) -> Option<u64> {
        let mut direct: &Disk = disk;
        self.get_with(&mut direct, key)
    }

    /// Returns the first value stored under `key`, reading node pages
    /// through `cache`.
    pub fn get_with<C: PageReads>(&self, cache: &mut C, key: u64) -> Option<u64> {
        let first_at_least = |inner: &NodeView<'_>| inner.lower_bound(key).saturating_sub(1);
        self.walk_leaves(cache, first_at_least, |leaf| match leaf.get(key) {
            Some(v) => ControlFlow::Break(Some(v)),
            // The descent lands at or left of the first entry ≥ `key`.
            None if leaf.len() == 0 || key > leaf.key(leaf.len() - 1) => ControlFlow::Continue(()),
            None => ControlFlow::Break(None),
        })
        .flatten()
    }

    /// Returns all `(key, value)` pairs with `lo <= key <= hi` in key order
    /// (uncached convenience over [`range_with`](Self::range_with)).
    pub fn range(&self, disk: &Disk, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let mut direct: &Disk = disk;
        self.range_with(&mut direct, lo, hi)
    }

    /// [`range`](Self::range) reading node pages through `cache`.
    pub fn range_with<C: PageReads>(&self, cache: &mut C, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        if lo > hi || self.is_empty() {
            return out;
        }
        let first_at_least = |inner: &NodeView<'_>| inner.lower_bound(lo).saturating_sub(1);
        self.walk_leaves(cache, first_at_least, |leaf| {
            leaf.collect_range(lo, hi, &mut out)
        });
        out
    }

    /// Returns the stored pair whose key is numerically closest to `key`
    /// (ties broken towards the smaller key). This is the walk-start query:
    /// "a range query based on the Hilbert values of the centers of two
    /// neighboring space nodes" collapses to finding the closest indexed
    /// Hilbert value.
    ///
    /// Exact on a bulk-loaded tree and after inserts. After deletes the
    /// predecessor may sit in a leaf left of the one the descent lands on;
    /// the successor is then returned, still a valid walk start.
    pub fn nearest(&self, disk: &Disk, key: u64) -> Option<(u64, u64)> {
        let mut direct: &Disk = disk;
        self.nearest_with(&mut direct, key)
    }

    /// [`nearest`](Self::nearest) reading node pages through `cache`.
    pub fn nearest_with<C: PageReads>(&self, cache: &mut C, key: u64) -> Option<(u64, u64)> {
        if self.is_empty() {
            return None;
        }
        // Candidates: the last entry ≤ key in the covering leaf and the
        // first entry > key (possibly the first entry of the next leaf).
        // `below` stays `None` when key is smaller than every key in the
        // tree: the descent lands in the first leaf and `above` is set.
        let (mut below, mut above) = (None, None);
        let last_at_most = |inner: &NodeView<'_>| inner.upper_bound(key).saturating_sub(1);
        self.walk_leaves(cache, last_at_most, |leaf| {
            let after = leaf.upper_bound(key);
            if after > 0 {
                below = Some(leaf.entry(after - 1));
            }
            if after < leaf.len() {
                above = Some(leaf.entry(after));
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        });
        match (below, above) {
            (Some(b), Some(a)) => Some(if key - b.0 <= a.0 - key { b } else { a }),
            (Some(b), None) => Some(b),
            (None, a) => a,
        }
    }

    /// Follows `child_of` from the root down to a leaf, then walks the
    /// leaf chain rightwards for as long as `visit` returns
    /// [`ControlFlow::Continue`]. Every node is searched in the page bytes
    /// it was read into ([`NodeView`]); nothing is decoded. Returns
    /// `visit`'s break value, or `None` if the chain ended first.
    fn walk_leaves<C: PageReads, R>(
        &self,
        cache: &mut C,
        child_of: impl Fn(&NodeView<'_>) -> usize,
        mut visit: impl FnMut(&NodeView<'_>) -> ControlFlow<R>,
    ) -> Option<R> {
        let mut page = self.root;
        loop {
            let raw = cache.page(page);
            let node = NodeView::new(&raw);
            if !node.is_leaf() {
                page = PageId(node.value(child_of(&node)));
                continue;
            }
            if let ControlFlow::Break(found) = visit(&node) {
                return Some(found);
            }
            page = node.next_leaf()?;
        }
    }
}

/// Encodes one node page into `buf` (cleared first; the pipeline's
/// sequential path reuses one buffer across the whole run): tag, entry
/// count, next-leaf pointer, then fixed 16-byte entries. Shared by leaves
/// and inner nodes (identical layout; inner nodes carry `NO_LEAF` in the
/// pointer slot).
fn encode_node_into(tag: u8, next: u64, entries: &[(u64, u64)], buf: &mut Vec<u8>) {
    buf.clear();
    buf.reserve(HEADER + 8 + entries.len() * ENTRY);
    buf.put_u8(tag);
    buf.put_u16_le(u16::try_from(entries.len()).expect("fanout fits the count field"));
    buf.put_u64_le(next);
    for &(k, v) in entries {
        buf.put_u64_le(k);
        buf.put_u64_le(v);
    }
}

/// A borrowed view of one node page: the header is parsed and the entry
/// count checked against the page length once; keys and values are then
/// read, and searched, in the page bytes. This is the read path. Writers,
/// which edit entry lists, materialise a [`Node`] from it.
struct NodeView<'a> {
    is_leaf: bool,
    next: u64,
    entries: &'a [[u8; ENTRY]],
}

impl<'a> NodeView<'a> {
    /// # Panics
    /// Panics if the page is shorter than the node header or than the
    /// entries its count declares.
    fn new(page: &'a [u8]) -> Self {
        let Some((header, body)) = page.split_first_chunk::<{ HEADER + 8 }>() else {
            panic!(
                "corrupt B+-tree node: {} bytes is shorter than the header",
                page.len()
            );
        };
        let count = u16::from_le_bytes([header[1], header[2]]) as usize;
        let Some(entries) = body.get(..count * ENTRY) else {
            panic!(
                "corrupt B+-tree node: count {count} does not fit {} bytes",
                page.len()
            );
        };
        Self {
            is_leaf: header[0] == LEAF_TAG,
            next: u64::from_le_bytes(std::array::from_fn(|i| header[HEADER + i])),
            entries: entries.as_chunks().0,
        }
    }

    fn is_leaf(&self) -> bool {
        self.is_leaf
    }

    /// The right sibling of a leaf, `None` at the chain end and for inner
    /// nodes (whose pointer slot is unused).
    fn next_leaf(&self) -> Option<PageId> {
        (self.is_leaf && self.next != NO_LEAF).then_some(PageId(self.next))
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn key(&self, i: usize) -> u64 {
        entry_of(&self.entries[i]).0
    }

    /// The value of leaf entry `i`, or the child page of inner entry `i`.
    fn value(&self, i: usize) -> u64 {
        entry_of(&self.entries[i]).1
    }

    fn entry(&self, i: usize) -> (u64, u64) {
        entry_of(&self.entries[i])
    }

    /// The entries in page order.
    fn iter(&self) -> impl ExactSizeIterator<Item = (u64, u64)> + 'a {
        self.entries.iter().map(entry_of)
    }

    /// Binary search over the keys in place: the first index whose key
    /// fails `before`, which must hold for a prefix of the keys.
    ///
    /// Leaves are sorted throughout. An inner node is sorted from entry 1
    /// on: its first key is a lower bound nobody maintains (keys below it
    /// still descend into the first child). The search probes entry 0 only
    /// once every other entry is ruled out, so that key can only move the
    /// result between 0 and 1 — which both descent rules map to child 0.
    fn partition_point(&self, before: impl Fn(u64) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if before(self.key(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Index of the first entry whose key is ≥ `key`.
    fn lower_bound(&self, key: u64) -> usize {
        self.partition_point(|k| k < key)
    }

    /// Index of the first entry whose key is > `key`.
    fn upper_bound(&self, key: u64) -> usize {
        self.partition_point(|k| k <= key)
    }

    /// The value of the first entry stored under `key`.
    fn get(&self, key: u64) -> Option<u64> {
        let i = self.lower_bound(key);
        (i < self.len() && self.key(i) == key).then(|| self.value(i))
    }

    /// Appends this leaf's entries with `lo <= key <= hi`; breaks once a key
    /// beyond `hi` shows the range is exhausted.
    fn collect_range(&self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>) -> ControlFlow<()> {
        for i in self.lower_bound(lo)..self.len() {
            let (k, v) = self.entry(i);
            if k > hi {
                return ControlFlow::Break(());
            }
            out.push((k, v));
        }
        ControlFlow::Continue(())
    }
}

/// One 16-byte entry: little-endian key, then value or child page.
fn entry_of(entry: &[u8; ENTRY]) -> (u64, u64) {
    let word = |at: usize| u64::from_le_bytes(std::array::from_fn(|i| entry[at + i]));
    (word(0), word(8))
}

/// An owned, editable node: what the writers read, change and write back.
struct Node {
    is_leaf: bool,
    next_leaf: Option<PageId>,
    entries: Vec<(u64, u64)>,
}

impl Node {
    fn read<C: PageReads>(cache: &mut C, page: PageId) -> Self {
        let raw = cache.page(page);
        let view = NodeView::new(&raw);
        Self {
            is_leaf: view.is_leaf(),
            next_leaf: view.next_leaf(),
            entries: view.iter().collect(),
        }
    }

    /// Encodes the node into `buf` and writes it to `page`.
    fn write<P: PageWrites>(&self, pages: &mut P, page: PageId, buf: &mut Vec<u8>) {
        let tag = if self.is_leaf { LEAF_TAG } else { INNER_TAG };
        encode_node_into(
            tag,
            self.next_leaf.map_or(NO_LEAF, |p| p.0),
            &self.entries,
            buf,
        );
        pages.write(page, buf);
    }

    /// Writer descent rule: the last child whose separator is ≤ `key` —
    /// the rightmost subtree that may hold `key`, so an insert goes after
    /// every equal already stored.
    fn child_for(&self, key: u64) -> usize {
        self.entries
            .partition_point(|&(k, _)| k <= key)
            .saturating_sub(1)
    }

    /// Moves the high half of this full node, at `page`, to a fresh right
    /// sibling: the sibling is written first, then the shrunken node (a
    /// leaf now links to the sibling). Returns the separator — the
    /// sibling's first key — and the sibling's page.
    fn split<P: PageWrites>(
        &mut self,
        pages: &mut P,
        page: PageId,
        buf: &mut Vec<u8>,
    ) -> (u64, PageId) {
        let high = Node {
            is_leaf: self.is_leaf,
            next_leaf: self.next_leaf,
            entries: self.entries.split_off(self.entries.len() / 2),
        };
        let right = pages.allocate();
        high.write(pages, right, buf);
        if self.is_leaf {
            self.next_leaf = Some(right);
        }
        self.write(pages, page, buf);
        (high.entries[0].0, right)
    }
}

/// In-place insert and delete: the tree's one writer (module docs).
mod mutable {
    use super::{encode_node_into, BPlusTree, Node, INNER_TAG, NO_LEAF};
    use tfm_storage::{PageId, PageWrites};

    impl BPlusTree {
        /// Inserts `(key, value)`, after every entry already stored under
        /// an equal key.
        ///
        /// # Panics
        /// Panics if the fanout is 2: a root split leaves a full root, and
        /// a preventive split needs a parent with room for one more entry.
        pub fn insert<P: PageWrites>(&mut self, pages: &mut P, key: u64, value: u64) {
            assert!(self.fanout >= 3, "insert needs a fanout of at least 3");
            let mut buf = Vec::new();
            let mut node = Node::read(pages, self.root);
            if node.entries.len() >= self.fanout {
                // The old root keeps the low half and becomes the left
                // child of a fresh root.
                let (split_key, right) = node.split(pages, self.root, &mut buf);
                let new_root = pages.allocate();
                let children = [(node.entries[0].0, self.root.0), (split_key, right.0)];
                encode_node_into(INNER_TAG, NO_LEAF, &children, &mut buf);
                pages.write(new_root, &buf);
                self.root = new_root;
                self.height += 1;
                node = Node::read(pages, new_root);
            }
            let mut page = self.root;
            while !node.is_leaf {
                let idx = node.child_for(key);
                let mut child_page = PageId(node.entries[idx].1);
                let mut child = Node::read(pages, child_page);
                if child.entries.len() >= self.fanout {
                    let (split_key, right) = child.split(pages, child_page, &mut buf);
                    node.entries.insert(idx + 1, (split_key, right.0));
                    node.write(pages, page, &mut buf);
                    if key >= split_key {
                        child = Node::read(pages, right);
                        child_page = right;
                    }
                }
                page = child_page;
                node = child;
            }
            let pos = node.entries.partition_point(|&(k, _)| k <= key);
            node.entries.insert(pos, (key, value));
            node.write(pages, page, &mut buf);
            self.len += 1;
        }

        /// Deletes one entry stored under `key` and returns its value. With
        /// unique keys this is exact; with duplicates the rightmost subtree
        /// that may hold `key` is searched, so an equal entry left of a
        /// split boundary may be passed over.
        ///
        /// Deletion is lazy (module docs): the entry is removed in place,
        /// and a leaf that empties is unlinked from its parent and, when
        /// its chain predecessor is the sibling to its left, from the leaf
        /// chain.
        pub fn delete<P: PageWrites>(&mut self, pages: &mut P, key: u64) -> Option<u64> {
            let mut buf = Vec::new();
            let mut page = self.root;
            let mut leaf = Node::read(pages, page);
            // The leaf's parent, and the leaf's index in it.
            let mut parent = None;
            while !leaf.is_leaf {
                let idx = leaf.child_for(key);
                let child_page = PageId(leaf.entries[idx].1);
                let child = Node::read(pages, child_page);
                parent = Some((page, std::mem::replace(&mut leaf, child), idx));
                page = child_page;
            }
            let pos = leaf.entries.iter().position(|&(k, _)| k == key)?;
            let (_, value) = leaf.entries.remove(pos);
            leaf.write(pages, page, &mut buf);
            self.len -= 1;
            if let Some((parent_page, mut parent, idx)) = parent {
                if leaf.entries.is_empty() && idx > 0 {
                    // Bypass the empty leaf in the chain, then drop its
                    // separator.
                    let sibling_page = PageId(parent.entries[idx - 1].1);
                    let mut sibling = Node::read(pages, sibling_page);
                    sibling.next_leaf = leaf.next_leaf;
                    sibling.write(pages, sibling_page, &mut buf);
                    parent.entries.remove(idx);
                    parent.write(pages, parent_page, &mut buf);
                }
            }
            Some(value)
        }
    }

    #[cfg(test)]
    mod tests {
        use crate::BPlusTree;
        use tfm_storage::{Disk, DiskModel};

        fn small_disk() -> Disk {
            // fanout = (64 - 3 - 8) / 16 = 3: splits happen immediately.
            Disk::in_memory(64).with_model(DiskModel::free())
        }

        /// An empty tree on `disk` with `pairs` inserted one by one.
        fn grown(disk: &Disk, pairs: impl IntoIterator<Item = (u64, u64)>) -> BPlusTree {
            let mut tree = BPlusTree::bulk_load(disk, &[]);
            let mut pages: &Disk = disk;
            for (k, v) in pairs {
                tree.insert(&mut pages, k, v);
            }
            tree
        }

        #[test]
        fn insert_then_get_across_many_splits() {
            let disk = small_disk();
            let tree = grown(&disk, (0..500u64).map(|k| (k * 2, k)));
            assert_eq!(tree.len(), 500);
            for k in 0..500u64 {
                assert_eq!(tree.get(&disk, k * 2), Some(k), "key {}", k * 2);
                assert_eq!(tree.get(&disk, k * 2 + 1), None);
            }
        }

        #[test]
        fn random_order_inserts_match_a_sorted_reference() {
            let disk = small_disk();
            // Deterministic shuffle: odd multiplier mod power of two is a
            // bijection, so every key appears exactly once.
            let keys: Vec<u64> = (0..1024u64).map(|i| (i * 293) % 1024).collect();
            let tree = grown(&disk, keys.iter().map(|&k| (k, k ^ 0x5A)));
            let expect: Vec<(u64, u64)> = (0..1024u64).map(|k| (k, k ^ 0x5A)).collect();
            assert_eq!(tree.range(&disk, 0, u64::MAX), expect);
        }

        #[test]
        fn range_and_nearest_behave_like_the_bulk_loaded_tree() {
            let disk = small_disk();
            let tree = grown(&disk, (0..30u64).map(|k| (k * 10, k)));
            let expect: Vec<(u64, u64)> = (10..=16u64).map(|k| (k * 10, k)).collect();
            assert_eq!(tree.range(&disk, 95, 160), expect);
            assert_eq!(tree.nearest(&disk, 95), Some((90, 9)));
            assert_eq!(tree.nearest(&disk, 96), Some((100, 10)));
            assert_eq!(tree.nearest(&disk, 0), Some((0, 0)));
            assert_eq!(tree.nearest(&disk, 1_000_000), Some((290, 29)));
        }

        #[test]
        fn duplicate_keys_keep_insertion_order() {
            let disk = small_disk();
            let tree = grown(&disk, [(5, 100), (7, 200), (5, 101), (5, 102)]);
            assert_eq!(tree.range(&disk, 5, 5), vec![(5, 100), (5, 101), (5, 102)]);
            assert_eq!(tree.get(&disk, 5), Some(100));
        }

        #[test]
        fn delete_removes_and_reports_values() {
            let disk = small_disk();
            let mut tree = grown(&disk, (0..200u64).map(|k| (k, k + 1000)));
            let mut rw: &Disk = &disk;
            // Delete every third key.
            for k in (0..200u64).step_by(3) {
                assert_eq!(tree.delete(&mut rw, k), Some(k + 1000));
                assert_eq!(tree.delete(&mut rw, k), None, "second delete finds nothing");
            }
            for k in 0..200u64 {
                let expect = if k % 3 == 0 { None } else { Some(k + 1000) };
                assert_eq!(tree.get(&disk, k), expect, "key {k}");
            }
            let live = tree.range(&disk, 0, u64::MAX);
            assert_eq!(live.len(), tree.len());
            assert!(live.iter().all(|&(k, _)| k % 3 != 0));
        }

        #[test]
        fn delete_everything_then_reinsert() {
            let disk = small_disk();
            let mut tree = grown(&disk, (0..100u64).map(|k| (k, k)));
            let mut rw: &Disk = &disk;
            for k in 0..100u64 {
                assert_eq!(tree.delete(&mut rw, k), Some(k));
            }
            assert!(tree.is_empty());
            assert_eq!(tree.range(&disk, 0, u64::MAX), vec![]);
            assert_eq!(tree.nearest(&disk, 50), None);
            // The emptied tree keeps working.
            for k in 0..100u64 {
                tree.insert(&mut rw, k, k * 2);
            }
            for k in 0..100u64 {
                assert_eq!(tree.get(&disk, k), Some(k * 2));
            }
        }

        #[test]
        fn adopting_a_bulk_loaded_tree_preserves_and_extends_it() {
            let disk = small_disk();
            let pairs: Vec<(u64, u64)> = (0..100u64).map(|k| (k * 4, k)).collect();
            let mut tree = BPlusTree::bulk_load(&disk, &pairs);
            let mut rw: &Disk = &disk;
            // Bulk-loaded leaves are full, so the first inserts split.
            for k in 0..100u64 {
                tree.insert(&mut rw, k * 4 + 1, k + 5000);
            }
            assert_eq!(tree.delete(&mut rw, 40), Some(10));
            for k in 0..100u64 {
                let expect = if k == 10 { None } else { Some(k) };
                assert_eq!(tree.get(&disk, k * 4), expect);
                assert_eq!(tree.get(&disk, k * 4 + 1), Some(k + 5000));
            }
            assert_eq!(tree.len(), 100 + 100 - 1);
        }

        #[test]
        #[should_panic(expected = "fanout of at least 3")]
        fn insert_refuses_a_fanout_of_two() {
            // 48-byte pages hold two entries.
            let disk = Disk::in_memory(48);
            let mut tree = BPlusTree::bulk_load(&disk, &[(1, 1), (2, 2)]);
            tree.insert(&mut &disk, 3, 3);
        }

        #[test]
        fn parts_roundtrip_reattaches_the_same_tree() {
            let disk = small_disk();
            let tree = grown(&disk, (0..50u64).map(|k| (k, k * 3)));
            let again =
                BPlusTree::from_parts(tree.root(), tree.height(), tree.len(), tree.fanout());
            for k in 0..50u64 {
                assert_eq!(again.get(&disk, k), Some(k * 3));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tree_with(pairs: &[(u64, u64)]) -> (Disk, BPlusTree) {
        let disk = Disk::default_in_memory();
        let tree = BPlusTree::bulk_load(&disk, pairs);
        (disk, tree)
    }

    #[test]
    fn fanout_never_exceeds_the_count_field() {
        assert_eq!(fanout_for(64), 3);
        // 2 MiB has room for 131 071 entries; the header counts to 65 535.
        assert_eq!(fanout_for(1 << 21), u16::MAX as usize);
        assert_eq!(fanout_for(HEADER + 8 + 65_535 * ENTRY - 1), 65_534);
    }

    #[test]
    fn empty_tree_behaviour() {
        let (disk, t) = tree_with(&[]);
        assert!(t.is_empty());
        assert_eq!(t.get(&disk, 5), None);
        assert_eq!(t.nearest(&disk, 5), None);
        assert!(t.range(&disk, 0, u64::MAX).is_empty());
    }

    #[test]
    fn small_tree_lookup() {
        let pairs: Vec<_> = (0..10u64).map(|k| (k * 10, k)).collect();
        let (disk, t) = tree_with(&pairs);
        assert_eq!(t.height(), 0); // fits one leaf
        assert_eq!(t.get(&disk, 30), Some(3));
        assert_eq!(t.get(&disk, 31), None);
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn multi_level_tree_lookup() {
        // Force several levels with a small page size: fanout = (64-3-8)/16 = 3.
        let disk = Disk::in_memory(64);
        let pairs: Vec<_> = (0..200u64).map(|k| (k * 2, k)).collect();
        let t = BPlusTree::bulk_load(&disk, &pairs);
        assert!(t.height() >= 3, "height {}", t.height());
        for k in 0..200u64 {
            assert_eq!(t.get(&disk, k * 2), Some(k));
            assert_eq!(t.get(&disk, k * 2 + 1), None);
        }
    }

    #[test]
    fn range_scan_crosses_leaves() {
        let disk = Disk::in_memory(64);
        let pairs: Vec<_> = (0..100u64).map(|k| (k, k * 7)).collect();
        let t = BPlusTree::bulk_load(&disk, &pairs);
        let got = t.range(&disk, 10, 20);
        let expected: Vec<_> = (10..=20u64).map(|k| (k, k * 7)).collect();
        assert_eq!(got, expected);
        assert_eq!(t.range(&disk, 90, 200).len(), 10);
        assert_eq!(t.range(&disk, 200, 300), vec![]);
        assert_eq!(t.range(&disk, 20, 10), vec![]);
    }

    #[test]
    fn nearest_prefers_closer_key() {
        let (disk, t) = tree_with(&[(10, 1), (20, 2), (40, 4)]);
        assert_eq!(t.nearest(&disk, 0), Some((10, 1)));
        assert_eq!(t.nearest(&disk, 10), Some((10, 1)));
        assert_eq!(t.nearest(&disk, 14), Some((10, 1)));
        assert_eq!(t.nearest(&disk, 15), Some((10, 1))); // tie -> smaller
        assert_eq!(t.nearest(&disk, 16), Some((20, 2)));
        assert_eq!(t.nearest(&disk, 29), Some((20, 2)));
        assert_eq!(t.nearest(&disk, 31), Some((40, 4)));
        assert_eq!(t.nearest(&disk, 1000), Some((40, 4)));
    }

    #[test]
    fn nearest_across_leaf_boundary() {
        let disk = Disk::in_memory(64); // fanout 3
        let pairs: Vec<_> = (0..30u64).map(|k| (k * 10, k)).collect();
        let t = BPlusTree::bulk_load(&disk, &pairs);
        // 95 sits between 90 (leaf i) and 100 (possibly next leaf).
        assert_eq!(t.nearest(&disk, 95), Some((90, 9)));
        assert_eq!(t.nearest(&disk, 96), Some((100, 10)));
    }

    #[test]
    fn duplicate_keys_supported() {
        let (disk, t) = tree_with(&[(5, 100), (5, 101), (5, 102), (7, 200)]);
        let r = t.range(&disk, 5, 5);
        assert_eq!(r, vec![(5, 100), (5, 101), (5, 102)]);
        assert_eq!(t.get(&disk, 5), Some(100));
    }

    #[test]
    fn duplicate_keys_straddling_a_leaf_are_all_found() {
        // Fanout 3: leaves [1, 5, 5] and [5, 5, 9] under the separator 5.
        // A descent on the last separator <= 5 lands in the second leaf
        // and misses (5, 1) and (5, 2).
        let disk = Disk::in_memory(64);
        let pairs = [(1, 0), (5, 1), (5, 2), (5, 3), (5, 4), (9, 5)];
        let t = BPlusTree::bulk_load(&disk, &pairs);
        assert_eq!(t.height(), 1);
        assert_eq!(t.get(&disk, 5), Some(1));
        assert_eq!(t.range(&disk, 5, 5), vec![(5, 1), (5, 2), (5, 3), (5, 4)]);
        assert_eq!(t.range(&disk, 2, 9), pairs[1..].to_vec());
        assert_eq!(t.get(&disk, 9), Some(5));
        assert_eq!(t.get(&disk, 6), None);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_input_panics() {
        let disk = Disk::default_in_memory();
        BPlusTree::bulk_load(&disk, &[(5, 0), (3, 0)]);
    }

    #[test]
    fn parallel_bulk_load_is_byte_identical() {
        // Small page size forces several levels; the parallel pipeline
        // must reproduce the sequential disk image bit for bit.
        let pairs: Vec<_> = (0..3000u64).map(|k| (k * 3, k ^ 0xABCD)).collect();
        let seq_disk = Disk::in_memory(64);
        let seq = BPlusTree::bulk_load(&seq_disk, &pairs);
        let dump = |d: &Disk| -> Vec<Vec<u8>> {
            (0..d.allocated_pages())
                .map(|p| d.read_page_vec(PageId(p)))
                .collect()
        };
        let seq_pages = dump(&seq_disk);
        for threads in [2, 4, 8] {
            let disk = Disk::in_memory(64);
            let t = BPlusTree::bulk_load_with(&disk, &pairs, &IndexBuildPipeline::new(threads));
            assert_eq!(t.root(), seq.root(), "threads = {threads}");
            assert_eq!(t.height(), seq.height());
            assert_eq!(dump(&disk), seq_pages, "threads = {threads}");
            // The parallel load must stay queryable, not just byte-equal.
            assert_eq!(t.get(&disk, 300), Some(100 ^ 0xABCD));
            assert_eq!(t.nearest(&disk, 301), Some((300, 100 ^ 0xABCD)));
        }
    }

    #[test]
    fn traversal_charges_io() {
        let disk = Disk::in_memory(64);
        let pairs: Vec<_> = (0..500u64).map(|k| (k, k)).collect();
        let t = BPlusTree::bulk_load(&disk, &pairs);
        disk.reset_stats();
        let _ = t.get(&disk, 250);
        let reads = disk.stats().reads();
        assert_eq!(reads as u32, t.height() + 1, "one read per level");
    }

    /// The node layout read field by field with the cursor API, sharing
    /// nothing with [`NodeView`]: the oracle.
    fn oracle_node(page: &[u8]) -> (bool, Option<PageId>, Vec<(u64, u64)>) {
        use bytes::Buf;
        let mut buf = page;
        let tag = buf.get_u8();
        let count = buf.get_u16_le() as usize;
        let next = buf.get_u64_le();
        let entries = (0..count)
            .map(|_| (buf.get_u64_le(), buf.get_u64_le()))
            .collect();
        let next_leaf = (tag == LEAF_TAG && next != NO_LEAF).then_some(PageId(next));
        (tag == LEAF_TAG, next_leaf, entries)
    }

    /// Every page of `disk` is a node page; each must read the same through
    /// the view as through the oracle, and search like a sorted `Vec`.
    fn assert_views_match_oracle(disk: &Disk, probes: &[u64]) {
        for p in 0..disk.allocated_pages() {
            let page = disk.read_page_vec(PageId(p));
            let view = NodeView::new(&page);
            let (is_leaf, next_leaf, entries) = oracle_node(&page);
            assert_eq!(view.is_leaf(), is_leaf, "page {p}");
            assert_eq!(view.next_leaf(), next_leaf, "page {p}");
            assert_eq!(view.len(), entries.len(), "page {p}");
            assert_eq!(view.iter().collect::<Vec<_>>(), entries, "page {p}");
            for (i, &(k, v)) in entries.iter().enumerate() {
                assert_eq!((view.key(i), view.value(i)), (k, v), "page {p} entry {i}");
            }
            let node = Node::read(&mut &*disk, PageId(p));
            assert_eq!(
                (node.is_leaf, node.next_leaf, &node.entries),
                (is_leaf, next_leaf, &entries)
            );
            for &key in probes.iter().chain(entries.iter().map(|(k, _)| k)) {
                let lower = entries.partition_point(|&(k, _)| k < key);
                let upper = entries.partition_point(|&(k, _)| k <= key);
                // The two descent rules. An inner node's first key is only
                // a lower bound nobody maintains (smaller keys still go to
                // the first child), so the rules — not the raw bounds —
                // are what must agree there.
                assert_eq!(
                    view.lower_bound(key).saturating_sub(1),
                    lower.saturating_sub(1),
                    "page {p} key {key}"
                );
                assert_eq!(
                    view.upper_bound(key).saturating_sub(1),
                    upper.saturating_sub(1),
                    "page {p} key {key}"
                );
                if is_leaf {
                    assert_eq!(view.lower_bound(key), lower, "page {p} key {key}");
                    assert_eq!(view.upper_bound(key), upper, "page {p} key {key}");
                    assert_eq!(
                        view.get(key),
                        entries.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v),
                        "page {p} key {key}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn node_view_matches_the_cursor_parser_on_bulk_loaded_pages(
            keys in prop::collection::vec(0u64..2000, 0..300),
            probes in prop::collection::vec(0u64..2100, 16),
        ) {
            // Sorted with duplicates kept: equal keys may straddle leaves.
            let mut pairs: Vec<(u64, u64)> =
                keys.iter().enumerate().map(|(i, &k)| (k, i as u64)).collect();
            pairs.sort_unstable();
            let disk = Disk::in_memory(128); // fanout 7: several levels
            BPlusTree::bulk_load(&disk, &pairs);
            assert_views_match_oracle(&disk, &probes);
        }

        #[test]
        fn node_view_matches_the_cursor_parser_on_split_and_merged_pages(
            ops in prop::collection::vec((any::<bool>(), 0u64..400), 1..400),
            probes in prop::collection::vec(0u64..420, 16),
        ) {
            // Fanout 3: inserts split at once, deletes empty and unlink
            // leaves, so pages of every shape the writers produce exist.
            let disk = Disk::in_memory(64);
            let mut pages: &Disk = &disk;
            let mut tree = BPlusTree::bulk_load(&disk, &[]);
            for (insert, key) in ops {
                if insert {
                    tree.insert(&mut pages, key, key ^ 0xA5);
                } else {
                    tree.delete(&mut pages, key);
                }
            }
            assert_views_match_oracle(&disk, &probes);
        }
    }

    #[test]
    fn node_view_rejects_bad_counts_and_short_pages() {
        let mut page = Vec::new();
        encode_node_into(LEAF_TAG, NO_LEAF, &[(1, 2)], &mut page);
        page.resize(64, 0);
        page[1..3].copy_from_slice(&4u16.to_le_bytes()); // 11 + 4 * 16 > 64
        let err = std::panic::catch_unwind(|| {
            NodeView::new(&page);
        })
        .expect_err("an oversized count must not be indexed");
        assert_eq!(
            err.downcast_ref::<String>().map(String::as_str),
            Some("corrupt B+-tree node: count 4 does not fit 64 bytes")
        );
        for len in 0..HEADER + 8 {
            let short = vec![LEAF_TAG; len];
            let err = std::panic::catch_unwind(|| {
                NodeView::new(&short);
            })
            .expect_err("a page shorter than the header must be rejected");
            assert_eq!(
                err.downcast_ref::<String>().cloned(),
                Some(format!(
                    "corrupt B+-tree node: {len} bytes is shorter than the header"
                ))
            );
        }
    }
}
