//! Online insert and delete for the B+-tree, with latch-crabbing writers
//! and **latch-free readers**.
//!
//! [`MutableBPlusTree`] shares the bulk loader's node byte layout (tag,
//! count, next-leaf pointer, fixed 16-byte entries), so a bulk-loaded
//! tree can be [adopted](MutableBPlusTree::adopt) and mutated in place.
//! All page access is generic over [`tfm_storage::PageReads`] /
//! [`tfm_storage::PageWrites`]: mutations routed through
//! `tfm_storage::LoggedPages` are WAL-logged and land in the shared
//! cache's dirty tier; the `&Disk` implementations give unlogged direct
//! mutation for tests.
//!
//! # Concurrency protocol
//!
//! *Writers* serialize on per-page exclusive latches acquired top-down
//! with **crabbing**: a writer latches the root, then repeatedly latches
//! the child it descends into and releases the parent. Splits are
//! **preventive** — a full child is split while both parent and child
//! latches are held, so an insert never has to propagate a split back
//! upward and never holds more than three latches. All writers latch
//! strictly top-down, so they cannot deadlock.
//!
//! *Readers take no latches at all* — this is what keeps serve workers
//! off the writers' path. Two structural invariants make that safe:
//!
//! 1. **Keys only move right.** A split keeps the low half in the
//!    original page and moves the high half to a fresh right sibling,
//!    writing the sibling before the original before the parent. A
//!    reader that descends through a stale parent lands *at or left of*
//!    the correct leaf and recovers by walking the leaf chain right
//!    (the B-link trick). Deletion never moves keys (see below), so
//!    rightward recovery is always sufficient.
//! 2. **Pages are never recycled.** Deletion is lazy: an entry is
//!    removed in place, and a leaf that empties is unlinked from its
//!    parent and chain predecessor but keeps its contents and next
//!    pointer, so an in-flight reader standing on it still terminates
//!    correctly. The orphaned page is reclaimed by the next offline
//!    rebuild, mirroring how production B-trees defer page recycling.
//!
//! Readers therefore see every committed key and never a torn node; a
//! read racing a writer returns the pre- or post-state of that key,
//! either of which is a valid linearization.

use std::collections::HashSet;
use std::sync::{Condvar, Mutex};

use crate::{
    encode_node_into, fanout_for, walk_leaves, Nearest, Node, NodeView, INNER_TAG, LEAF_TAG,
    NO_LEAF,
};
use std::ops::ControlFlow;
use tfm_storage::{PageId, PageReads, PageWrites};

use crate::BPlusTree;

/// Tree header state shared by all handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TreeMeta {
    root: PageId,
    height: u32,
    len: u64,
}

/// A B+-tree on `u64` keys supporting online insert and delete.
///
/// See the module docs at the top of `mutable.rs` for the concurrency
/// protocol. The struct
/// itself is `Sync`: concurrent writers (each with its own
/// [`PageWrites`] handle) and readers may share one `&MutableBPlusTree`.
#[derive(Debug)]
pub struct MutableBPlusTree {
    meta: Mutex<TreeMeta>,
    latches: LatchTable,
    fanout: usize,
}

impl MutableBPlusTree {
    /// Creates an empty tree: one empty leaf as the root.
    pub fn create<P: PageWrites>(pages: &mut P) -> Self {
        let fanout = fanout_for(pages.page_size());
        let root = pages.allocate();
        let mut buf = Vec::new();
        encode_node_into(LEAF_TAG, NO_LEAF, &[], &mut buf);
        pages.write(root, &buf);
        Self {
            meta: Mutex::new(TreeMeta {
                root,
                height: 0,
                len: 0,
            }),
            latches: LatchTable::default(),
            fanout,
        }
    }

    /// Takes over a bulk-loaded tree for in-place mutation. The node
    /// layout is identical, so no pages are rewritten.
    pub fn adopt(tree: &BPlusTree) -> Self {
        Self::from_parts(tree.root(), tree.height(), tree.len() as u64, tree.fanout())
    }

    /// Rebuilds a handle from persisted header state (`root`, `height`,
    /// `len` as stored by a superblock) and the node fanout.
    pub fn from_parts(root: PageId, height: u32, len: u64, fanout: usize) -> Self {
        assert!(fanout >= 2);
        Self {
            meta: Mutex::new(TreeMeta { root, height, len }),
            latches: LatchTable::default(),
            fanout,
        }
    }

    /// Header state for persistence: `(root, height, len)`.
    pub fn parts(&self) -> (PageId, u32, u64) {
        let m = self.meta.lock().unwrap();
        (m.root, m.height, m.len)
    }

    /// Number of stored pairs.
    pub fn len(&self) -> u64 {
        self.meta.lock().unwrap().len
    }

    /// True if the tree stores nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum entries per node.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    // ------------------------------------------------------------------
    // Readers (latch-free)
    // ------------------------------------------------------------------

    /// Returns the first value stored under `key`, if any.
    pub fn get_with<C: PageReads>(&self, cache: &mut C, key: u64) -> Option<u64> {
        self.walk_leaves(cache, key, |leaf| match leaf.get(key) {
            Some(v) => ControlFlow::Break(Some(v)),
            // B-link recovery: a concurrent split may have moved the key
            // into a right sibling this parent did not yet point to.
            None if leaf.len() == 0 || key > leaf.key(leaf.len() - 1) => ControlFlow::Continue(()),
            None => ControlFlow::Break(None),
        })
        .flatten()
    }

    /// Returns all `(key, value)` pairs with `lo <= key <= hi` in key
    /// order.
    pub fn range_with<C: PageReads>(&self, cache: &mut C, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        if lo > hi {
            return out;
        }
        self.walk_leaves(cache, lo, |leaf| leaf.collect_range(lo, hi, &mut out));
        out
    }

    /// Returns a stored pair whose key is closest to `key` (ties toward
    /// the smaller key). Quiescent trees answer exactly; after deletions
    /// the true predecessor may live in an earlier leaf than the descent
    /// lands on, in which case the successor is returned instead — for
    /// the walk-start use this is still a valid (near) entry point.
    pub fn nearest_with<C: PageReads>(&self, cache: &mut C, key: u64) -> Option<(u64, u64)> {
        let mut nearest = Nearest::default();
        self.walk_leaves(cache, key, |leaf| nearest.visit(leaf, key));
        nearest.pick(key)
    }

    /// Root-to-leaf walk for readers, then rightwards along the leaf chain
    /// while `visit` asks to continue: the descent lands at or left of the
    /// leaf covering `key`, so the rightward walk is also the B-link
    /// recovery.
    ///
    /// Reader descent rule: the child *before the first separator ≥
    /// `key`*. A split between equal keys copies the separator from the
    /// right half's first key, so entries equal to a separator can sit in
    /// the child to its left — biasing left and recovering rightward along
    /// the leaf chain covers every occurrence.
    fn walk_leaves<C: PageReads, R>(
        &self,
        cache: &mut C,
        key: u64,
        visit: impl FnMut(&NodeView<'_>) -> ControlFlow<R>,
    ) -> Option<R> {
        let root = self.meta.lock().unwrap().root;
        walk_leaves(
            cache,
            root,
            |inner| inner.lower_bound(key).saturating_sub(1),
            visit,
        )
    }

    // ------------------------------------------------------------------
    // Writers (latch-crabbing)
    // ------------------------------------------------------------------

    /// Inserts `(key, value)`. Duplicate keys are kept in insertion
    /// order after existing equals.
    pub fn insert<P: PageReads + PageWrites>(&self, pages: &mut P, key: u64, value: u64) {
        loop {
            let meta = *self.meta.lock().unwrap();
            let root_latch = self.latches.acquire(meta.root);
            // The root may have split between the meta read and the
            // latch grant; restart on the new root if so.
            if self.meta.lock().unwrap().root != meta.root {
                drop(root_latch);
                continue;
            }
            let root = Node::read(pages, meta.root);
            if root.entries.len() >= self.fanout {
                self.split_root(pages, meta, root);
                drop(root_latch);
                continue; // redescend through the new root
            }
            self.insert_descent(pages, meta.root, root, root_latch, key, value);
            self.meta.lock().unwrap().len += 1;
            return;
        }
    }

    /// Descends from a latched, non-full node, splitting full children
    /// preventively, and inserts at the leaf.
    fn insert_descent<'a, P: PageReads + PageWrites>(
        &'a self,
        pages: &mut P,
        mut page: PageId,
        mut node: Node,
        mut latch: Latch<'a>,
        key: u64,
        value: u64,
    ) {
        let mut buf = Vec::new();
        while !node.is_leaf {
            let idx = child_index_upper(&node, key);
            let mut child_page = PageId(node.entries[idx].1);
            let mut child_latch = self.latches.acquire(child_page);
            let mut child = Node::read(pages, child_page);
            if child.entries.len() >= self.fanout {
                let (split_key, right_page) = self.split_child(
                    pages, page, &mut node, idx, child_page, &mut child, &mut buf,
                );
                if key >= split_key {
                    drop(child_latch);
                    child_latch = self.latches.acquire(right_page);
                    child = Node::read(pages, right_page);
                    child_page = right_page;
                }
            }
            drop(latch);
            latch = child_latch;
            page = child_page;
            node = child;
        }
        let pos = node.entries.partition_point(|&(k, _)| k <= key);
        node.entries.insert(pos, (key, value));
        write_node(pages, page, &node, &mut buf);
        drop(latch);
    }

    /// Splits the full root while holding its latch: the old root page
    /// keeps the low half (it becomes the left child in place, so stale
    /// readers entering through it just start one level lower), a fresh
    /// right sibling takes the high half, and a fresh root points at
    /// both.
    fn split_root<P: PageReads + PageWrites>(&self, pages: &mut P, meta: TreeMeta, mut root: Node) {
        let mut buf = Vec::new();
        let mid = root.entries.len() / 2;
        let high: Vec<(u64, u64)> = root.entries.split_off(mid);
        let split_key = high[0].0;
        let low_key = root.entries[0].0;

        let right = pages.allocate();
        let tag = if root.is_leaf { LEAF_TAG } else { INNER_TAG };
        let right_next = if root.is_leaf {
            root.next_leaf.map_or(NO_LEAF, |p| p.0)
        } else {
            NO_LEAF
        };
        encode_node_into(tag, right_next, &high, &mut buf);
        pages.write(right, &buf);

        if root.is_leaf {
            root.next_leaf = Some(right);
        }
        write_node(pages, meta.root, &root, &mut buf);

        let new_root = pages.allocate();
        encode_node_into(
            INNER_TAG,
            NO_LEAF,
            &[(low_key, meta.root.0), (split_key, right.0)],
            &mut buf,
        );
        pages.write(new_root, &buf);

        let mut m = self.meta.lock().unwrap();
        m.root = new_root;
        m.height = meta.height + 1;
    }

    /// Splits a full child while holding both the parent's and the
    /// child's latch. Write order — right sibling, then child, then
    /// parent — keeps every interleaving readable: a reader through the
    /// stale parent lands on the shrunken child and chains right.
    /// Returns the separator key and the new right page.
    #[allow(clippy::too_many_arguments)]
    fn split_child<P: PageReads + PageWrites>(
        &self,
        pages: &mut P,
        parent_page: PageId,
        parent: &mut Node,
        idx: usize,
        child_page: PageId,
        child: &mut Node,
        buf: &mut Vec<u8>,
    ) -> (u64, PageId) {
        let mid = child.entries.len() / 2;
        let high: Vec<(u64, u64)> = child.entries.split_off(mid);
        let split_key = high[0].0;

        let right = pages.allocate();
        let tag = if child.is_leaf { LEAF_TAG } else { INNER_TAG };
        let right_next = if child.is_leaf {
            child.next_leaf.map_or(NO_LEAF, |p| p.0)
        } else {
            NO_LEAF
        };
        encode_node_into(tag, right_next, &high, buf);
        pages.write(right, buf);

        if child.is_leaf {
            child.next_leaf = Some(right);
        }
        write_node(pages, child_page, child, buf);

        parent.entries.insert(idx + 1, (split_key, right.0));
        write_node(pages, parent_page, parent, buf);
        (split_key, right)
    }

    /// Deletes one entry stored under `key`, returning its value. With
    /// unique keys this is exact; with duplicates the rightmost subtree
    /// holding the key is searched, so an equal entry left of a split
    /// boundary may be passed over while any duplicate remains reachable
    /// to its right.
    ///
    /// Deletion is lazy (module docs): the entry is removed in place; a
    /// leaf that empties is unlinked from its parent and, when its chain
    /// predecessor shares the parent, from the leaf chain. The empty
    /// page keeps its bytes so latch-free readers standing on it still
    /// terminate.
    pub fn delete<P: PageReads + PageWrites>(&self, pages: &mut P, key: u64) -> Option<u64> {
        let mut buf = Vec::new();
        loop {
            let meta = *self.meta.lock().unwrap();
            let root_latch = self.latches.acquire(meta.root);
            if self.meta.lock().unwrap().root != meta.root {
                drop(root_latch);
                continue;
            }
            let root = Node::read(pages, meta.root);
            let removed = self.delete_descent(pages, meta.root, root, root_latch, key, &mut buf);
            if removed.is_some() {
                self.meta.lock().unwrap().len -= 1;
            }
            return removed;
        }
    }

    fn delete_descent<'a, P: PageReads + PageWrites>(
        &'a self,
        pages: &mut P,
        mut page: PageId,
        mut node: Node,
        mut latch: Latch<'a>,
        key: u64,
        buf: &mut Vec<u8>,
    ) -> Option<u64> {
        // Crab down until `node` is the parent of the target leaf (or is
        // itself a leaf when the tree is height 0).
        while !node.is_leaf {
            let idx = child_index_upper(&node, key);
            let child_page = PageId(node.entries[idx].1);
            let child_latch = self.latches.acquire(child_page);
            let child = Node::read(pages, child_page);
            if child.is_leaf {
                let removed =
                    self.delete_in_leaf(pages, page, &mut node, idx, child_page, child, buf, key);
                drop(child_latch);
                drop(latch);
                return removed;
            }
            drop(latch);
            latch = child_latch;
            page = child_page;
            node = child;
        }
        // Height-0 tree: the root is the leaf.
        let pos = node.entries.iter().position(|&(k, _)| k == key)?;
        let (_, value) = node.entries.remove(pos);
        write_node(pages, page, &node, buf);
        drop(latch);
        Some(value)
    }

    /// Removes `key` from the leaf at `parent.entries[idx]`, unlinking
    /// the leaf if it empties. Caller holds both latches.
    #[allow(clippy::too_many_arguments)]
    fn delete_in_leaf<P: PageReads + PageWrites>(
        &self,
        pages: &mut P,
        parent_page: PageId,
        parent: &mut Node,
        idx: usize,
        leaf_page: PageId,
        mut leaf: Node,
        buf: &mut Vec<u8>,
        key: u64,
    ) -> Option<u64> {
        let pos = leaf.entries.iter().position(|&(k, _)| k == key)?;
        let (_, value) = leaf.entries.remove(pos);
        write_node(pages, leaf_page, &leaf, buf);
        if leaf.entries.is_empty() && parent.entries.len() > 1 && idx > 0 {
            // Unlink: the left sibling under the same parent is the
            // chain predecessor. Bypass the empty leaf in the chain
            // first, then drop its separator; a reader through the stale
            // parent still finds an intact (empty) leaf whose next
            // pointer leads onward.
            let sibling_page = PageId(parent.entries[idx - 1].1);
            let _sibling_latch = self.latches.acquire(sibling_page);
            let mut sibling = Node::read(pages, sibling_page);
            sibling.next_leaf = leaf.next_leaf;
            write_node(pages, sibling_page, &sibling, buf);
            parent.entries.remove(idx);
            write_node(pages, parent_page, parent, buf);
        }
        Some(value)
    }
}

/// Writer descent rule: the last child whose separator is ≤ `key` — the
/// rightmost subtree that may hold `key`, so duplicate inserts append
/// after every existing equal. Exact for unique keys; with duplicate keys
/// split across subtrees, a delete routed this way removes the rightmost
/// reachable equal (see [`MutableBPlusTree::delete`]).
fn child_index_upper(node: &Node, key: u64) -> usize {
    node.entries
        .partition_point(|&(k, _)| k <= key)
        .saturating_sub(1)
}

fn write_node<P: PageWrites>(pages: &mut P, page: PageId, node: &Node, buf: &mut Vec<u8>) {
    let tag = if node.is_leaf { LEAF_TAG } else { INNER_TAG };
    let next = node.next_leaf.map_or(NO_LEAF, |p| p.0);
    encode_node_into(tag, next, &node.entries, buf);
    pages.write(page, buf);
}

/// Exclusive per-page latches for writers, hand-rolled on
/// `std::sync` (the vendored `parking_lot` facade has no `Condvar`).
/// One mutex + condvar over the held-set is plenty for the writer
/// concurrency this tree sees; readers never touch it.
#[derive(Debug, Default)]
struct LatchTable {
    held: Mutex<HashSet<u64>>,
    freed: Condvar,
}

impl LatchTable {
    fn acquire(&self, page: PageId) -> Latch<'_> {
        let mut held = self.held.lock().unwrap();
        while held.contains(&page.0) {
            held = self.freed.wait(held).unwrap();
        }
        held.insert(page.0);
        Latch { table: self, page }
    }
}

/// RAII exclusive latch on one page.
struct Latch<'a> {
    table: &'a LatchTable,
    page: PageId,
}

impl Drop for Latch<'_> {
    fn drop(&mut self) {
        self.table.held.lock().unwrap().remove(&self.page.0);
        self.table.freed.notify_all();
    }
}

impl std::fmt::Debug for Latch<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Latch({})", self.page.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_storage::{Disk, DiskModel};

    fn small_disk() -> Disk {
        // fanout = (64 - 3 - 8) / 16 = 3: splits happen immediately.
        Disk::in_memory(64).with_model(DiskModel::free())
    }

    fn insert_all(
        tree: &MutableBPlusTree,
        disk: &Disk,
        pairs: impl IntoIterator<Item = (u64, u64)>,
    ) {
        let mut pages: &Disk = disk;
        for (k, v) in pairs {
            tree.insert(&mut pages, k, v);
        }
    }

    #[test]
    fn insert_then_get_across_many_splits() {
        let disk = small_disk();
        let mut pages: &Disk = &disk;
        let tree = MutableBPlusTree::create(&mut pages);
        insert_all(&tree, &disk, (0..500u64).map(|k| (k * 2, k)));
        assert_eq!(tree.len(), 500);
        let mut cache: &Disk = &disk;
        for k in 0..500u64 {
            assert_eq!(tree.get_with(&mut cache, k * 2), Some(k), "key {}", k * 2);
            assert_eq!(tree.get_with(&mut cache, k * 2 + 1), None);
        }
    }

    #[test]
    fn random_order_inserts_match_a_sorted_reference() {
        let disk = small_disk();
        let mut pages: &Disk = &disk;
        let tree = MutableBPlusTree::create(&mut pages);
        // Deterministic shuffle: odd multiplier mod power of two is a
        // bijection, so every key appears exactly once.
        let keys: Vec<u64> = (0..1024u64).map(|i| (i * 293) % 1024).collect();
        insert_all(&tree, &disk, keys.iter().map(|&k| (k, k ^ 0x5A)));
        let mut cache: &Disk = &disk;
        let got = tree.range_with(&mut cache, 0, u64::MAX);
        let expect: Vec<(u64, u64)> = (0..1024u64).map(|k| (k, k ^ 0x5A)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn range_and_nearest_behave_like_the_bulk_loaded_tree() {
        let disk = small_disk();
        let mut pages: &Disk = &disk;
        let tree = MutableBPlusTree::create(&mut pages);
        insert_all(&tree, &disk, (0..30u64).map(|k| (k * 10, k)));
        let mut cache: &Disk = &disk;
        let got = tree.range_with(&mut cache, 95, 160);
        assert_eq!(
            got,
            vec![
                (100, 10),
                (110, 11),
                (120, 12),
                (130, 13),
                (140, 14),
                (150, 15),
                (160, 16)
            ]
        );
        assert_eq!(tree.nearest_with(&mut cache, 95), Some((90, 9)));
        assert_eq!(tree.nearest_with(&mut cache, 96), Some((100, 10)));
        assert_eq!(tree.nearest_with(&mut cache, 0), Some((0, 0)));
        assert_eq!(tree.nearest_with(&mut cache, 1_000_000), Some((290, 29)));
    }

    #[test]
    fn duplicate_keys_keep_insertion_order() {
        let disk = small_disk();
        let mut pages: &Disk = &disk;
        let tree = MutableBPlusTree::create(&mut pages);
        insert_all(&tree, &disk, [(5, 100), (7, 200), (5, 101), (5, 102)]);
        let mut cache: &Disk = &disk;
        assert_eq!(
            tree.range_with(&mut cache, 5, 5),
            vec![(5, 100), (5, 101), (5, 102)]
        );
        assert_eq!(tree.get_with(&mut cache, 5), Some(100));
    }

    #[test]
    fn delete_removes_and_reports_values() {
        let disk = small_disk();
        let mut pages: &Disk = &disk;
        let tree = MutableBPlusTree::create(&mut pages);
        insert_all(&tree, &disk, (0..200u64).map(|k| (k, k + 1000)));
        let mut rw: &Disk = &disk;
        // Delete every third key.
        for k in (0..200u64).step_by(3) {
            assert_eq!(tree.delete(&mut rw, k), Some(k + 1000));
            assert_eq!(tree.delete(&mut rw, k), None, "second delete finds nothing");
        }
        let mut cache: &Disk = &disk;
        for k in 0..200u64 {
            let expect = if k % 3 == 0 { None } else { Some(k + 1000) };
            assert_eq!(tree.get_with(&mut cache, k), expect, "key {k}");
        }
        let live = tree.range_with(&mut cache, 0, u64::MAX);
        assert_eq!(live.len() as u64, tree.len());
        assert!(live.iter().all(|&(k, _)| k % 3 != 0));
    }

    #[test]
    fn delete_everything_then_reinsert() {
        let disk = small_disk();
        let mut pages: &Disk = &disk;
        let tree = MutableBPlusTree::create(&mut pages);
        insert_all(&tree, &disk, (0..100u64).map(|k| (k, k)));
        let mut rw: &Disk = &disk;
        for k in 0..100u64 {
            assert_eq!(tree.delete(&mut rw, k), Some(k));
        }
        assert!(tree.is_empty());
        let mut cache: &Disk = &disk;
        assert_eq!(tree.range_with(&mut cache, 0, u64::MAX), vec![]);
        assert_eq!(tree.nearest_with(&mut cache, 50), None);
        // The emptied tree keeps working.
        insert_all(&tree, &disk, (0..100u64).map(|k| (k, k * 2)));
        for k in 0..100u64 {
            assert_eq!(tree.get_with(&mut cache, k), Some(k * 2));
        }
    }

    #[test]
    fn adopting_a_bulk_loaded_tree_preserves_and_extends_it() {
        let disk = small_disk();
        let pairs: Vec<(u64, u64)> = (0..100u64).map(|k| (k * 4, k)).collect();
        let bulk = BPlusTree::bulk_load(&disk, &pairs);
        let tree = MutableBPlusTree::adopt(&bulk);
        let mut rw: &Disk = &disk;
        // Bulk-loaded leaves are full, so the first inserts split.
        for k in 0..100u64 {
            tree.insert(&mut rw, k * 4 + 1, k + 5000);
        }
        assert_eq!(tree.delete(&mut rw, 40), Some(10));
        let mut cache: &Disk = &disk;
        for k in 0..100u64 {
            let expect = if k == 10 { None } else { Some(k) };
            assert_eq!(tree.get_with(&mut cache, k * 4), expect);
            assert_eq!(tree.get_with(&mut cache, k * 4 + 1), Some(k + 5000));
        }
        assert_eq!(tree.len(), 100 + 100 - 1);
    }

    #[test]
    fn parts_roundtrip_reattaches_the_same_tree() {
        let disk = small_disk();
        let mut pages: &Disk = &disk;
        let tree = MutableBPlusTree::create(&mut pages);
        insert_all(&tree, &disk, (0..50u64).map(|k| (k, k * 3)));
        let (root, height, len) = tree.parts();
        let again = MutableBPlusTree::from_parts(root, height, len, tree.fanout());
        let mut cache: &Disk = &disk;
        for k in 0..50u64 {
            assert_eq!(again.get_with(&mut cache, k), Some(k * 3));
        }
    }

    #[test]
    fn concurrent_writers_do_not_lose_keys() {
        let disk = small_disk();
        let mut pages: &Disk = &disk;
        let tree = MutableBPlusTree::create(&mut pages);
        let writers = 8u64;
        let per = 200u64;
        std::thread::scope(|s| {
            for w in 0..writers {
                let tree = &tree;
                let disk = &disk;
                s.spawn(move || {
                    let mut rw: &Disk = disk;
                    for i in 0..per {
                        let key = w * per + i;
                        tree.insert(&mut rw, key, key ^ 0xBEEF);
                    }
                });
            }
        });
        assert_eq!(tree.len(), writers * per);
        let mut cache: &Disk = &disk;
        for key in 0..writers * per {
            assert_eq!(
                tree.get_with(&mut cache, key),
                Some(key ^ 0xBEEF),
                "key {key}"
            );
        }
        let all = tree.range_with(&mut cache, 0, u64::MAX);
        assert_eq!(all.len() as u64, writers * per);
    }

    #[test]
    fn readers_stay_correct_while_writers_split_pages() {
        // Latch-free readers racing inserting writers: every key a
        // reader is told is committed must be found, through any number
        // of concurrent splits.
        use std::sync::atomic::{AtomicU64, Ordering};
        let disk = small_disk();
        let mut pages: &Disk = &disk;
        let tree = MutableBPlusTree::create(&mut pages);
        let committed = AtomicU64::new(0);
        let total = 600u64;
        std::thread::scope(|s| {
            let tree = &tree;
            let disk = &disk;
            let committed = &committed;
            s.spawn(move || {
                let mut rw: &Disk = disk;
                for key in 0..total {
                    tree.insert(&mut rw, key, key + 7);
                    committed.store(key + 1, Ordering::Release);
                }
            });
            for _ in 0..2 {
                s.spawn(move || {
                    let mut cache: &Disk = disk;
                    loop {
                        let seen = committed.load(Ordering::Acquire);
                        // Every committed key must be visible.
                        for key in (0..seen).step_by(97) {
                            assert_eq!(
                                tree.get_with(&mut cache, key),
                                Some(key + 7),
                                "committed key {key} invisible (committed={seen})"
                            );
                        }
                        let in_range = tree.range_with(&mut cache, 0, total);
                        assert!(
                            in_range.len() as u64 >= seen,
                            "range lost keys: {} < {}",
                            in_range.len(),
                            seen
                        );
                        if seen == total {
                            break;
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn readers_stay_correct_while_writers_delete() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let disk = small_disk();
        let mut pages: &Disk = &disk;
        let tree = MutableBPlusTree::create(&mut pages);
        let total = 600u64;
        insert_all(&tree, &disk, (0..total).map(|k| (k, k)));
        let deleted_below = AtomicU64::new(0);
        std::thread::scope(|s| {
            let tree = &tree;
            let disk = &disk;
            let deleted_below = &deleted_below;
            s.spawn(move || {
                let mut rw: &Disk = disk;
                for key in 0..total {
                    assert_eq!(tree.delete(&mut rw, key), Some(key));
                    deleted_below.store(key + 1, Ordering::Release);
                }
            });
            for _ in 0..2 {
                s.spawn(move || {
                    let mut cache: &Disk = disk;
                    loop {
                        let gone = deleted_below.load(Ordering::Acquire);
                        // Keys at/above the deletion frontier (with slack
                        // for in-flight deletes read later) must remain.
                        let frontier = deleted_below.load(Ordering::Acquire);
                        for key in (gone.max(frontier)..total).step_by(131) {
                            let got = tree.get_with(&mut cache, key);
                            let now = deleted_below.load(Ordering::Acquire);
                            // `key == now` means the deleter is mid-way
                            // through this very key: its physical removal
                            // precedes the frontier bump.
                            assert!(
                                got == Some(key) || key <= now,
                                "undeleted key {key} invisible (frontier {now})"
                            );
                        }
                        if gone == total {
                            break;
                        }
                    }
                });
            }
        });
        assert!(tree.is_empty());
    }
}
