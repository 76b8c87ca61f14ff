//! Adaptive walk (Alg. 1) and adaptive crawl over the connectivity graph,
//! driven by one [`Explorer`].
//!
//! The walk navigates the follower's space-node graph towards the pivot:
//! starting from a descriptor located via the Hilbert B+-tree, it
//! repeatedly moves to the unvisited neighbour whose tile is closest to
//! the pivot (implemented as best-first search, which is Alg. 1's
//! queue-based exploration with an optimal pop order). The paper's
//! `isMovingAway` condition is the fixed bound [`WALK_PATIENCE`]: if the
//! best distance has not improved for that many expansions the walk gives
//! up. Because a greedy walk can in principle give up wrongly on
//! pathological tilings, the explorer then falls back to a linear
//! metadata scan — counted as metadata comparisons — so no join or probe
//! misses results (`DESIGN.md`, "Adaptive walk").
//!
//! The crawl (§V "Adaptive Crawling") floods outward from the intersection
//! record over all nodes whose (inflated) tiles still intersect the pivot,
//! collecting every space unit whose *page MBB* intersects the pivot as a
//! candidate. Tiles intersecting a box form a connected subgraph of the
//! tiling adjacency graph, so the flood is exhaustive.

use crate::descriptor::{NodeId, SpaceNode, SpaceUnitDesc, UnitId};
use crate::index::TransformersIndex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tfm_geom::Aabb;
use tfm_storage::PageReads;

/// Alg. 1's `isMovingAway` bound: a walk gives up after this many
/// expansions without getting closer to the pivot, and the explorer scans.
pub const WALK_PATIENCE: usize = 64;

/// What an [`Explorer`] did, for the caller's statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExploreCounts {
    /// Descriptor comparisons: one per extent reject, the walk's and the
    /// crawl's own, and one per node a fallback scan read.
    pub metadata_tests: u64,
    /// Walk expansion steps.
    pub walk_steps: u64,
    /// Walks that gave up and fell back to the full metadata scan.
    pub walk_fallbacks: u64,
    /// Nodes the crawl visited.
    pub crawl_steps: u64,
}

/// The one driver of walk and crawl over one connectivity-indexed dataset
/// (the join's follower, GIPSY's dense side, a GIPSY probe session). It
/// owns the exploration scratch and the last walk position, and counts
/// what it does in [`ExploreCounts`].
#[derive(Debug)]
pub struct Explorer<'a> {
    idx: &'a TransformersIndex,
    nodes: &'a [SpaceNode],
    units: &'a [SpaceUnitDesc],
    reach: f64,
    /// The dataset's extent inflated by `reach`: a pivot outside it
    /// reaches no node.
    extent: Aabb,
    /// Where the next [`locate`](Self::locate) starts walking; `None`
    /// until the first walk, which starts from the Hilbert B+-tree.
    pub(crate) pos: Option<NodeId>,
    /// [`WALK_PATIENCE`]; tests lower it to force the fallback scan.
    pub(crate) patience: usize,
    scratch: ExploreScratch,
    counts: ExploreCounts,
}

impl<'a> Explorer<'a> {
    /// An explorer over `idx`'s own descriptor tables.
    pub fn new(idx: &'a TransformersIndex) -> Self {
        Self::over(idx, idx.nodes(), idx.units())
    }

    /// An explorer over descriptor tables of `idx` loaded by the caller
    /// (a join reads them from the metadata region).
    pub(crate) fn over(
        idx: &'a TransformersIndex,
        nodes: &'a [SpaceNode],
        units: &'a [SpaceUnitDesc],
    ) -> Self {
        let reach = idx.reach_eps();
        Self {
            idx,
            nodes,
            units,
            reach,
            extent: idx.extent().inflate(reach),
            pos: None,
            patience: WALK_PATIENCE,
            scratch: ExploreScratch::default(),
            counts: ExploreCounts::default(),
        }
    }

    /// What this explorer has done so far.
    pub fn counts(&self) -> ExploreCounts {
        self.counts
    }

    /// Locates a node whose inflated tile reaches `pivot`: rejects a pivot
    /// outside the extent, walks from the last position (the first time
    /// from the Hilbert B+-tree, whose pages are read through `pages`),
    /// and scans when the walk gives up. The walk's end — the node found,
    /// or the closest it reached — is where the next one starts.
    pub fn locate(&mut self, pages: &mut impl PageReads, pivot: &Aabb) -> Option<NodeId> {
        if self.nodes.is_empty() {
            return None;
        }
        self.counts.metadata_tests += 1;
        if !self.extent.intersects(pivot) {
            return None;
        }
        let start = match self.pos {
            Some(n) => n,
            None => self
                .idx
                .walk_start(pages, &pivot.center())
                .unwrap_or(NodeId(0)),
        };
        let (found, end) = self.walk_from(pivot, start);
        self.pos = Some(end);
        found
    }

    /// Walks from `start` towards `pivot` and scans when the walk gives
    /// up, so no reaching node is missed. Returns the node found, if any,
    /// and where the walk ended (the node it found, or the closest it
    /// reached); leaves the position alone.
    pub(crate) fn walk_from(&mut self, pivot: &Aabb, start: NodeId) -> (Option<NodeId>, NodeId) {
        let c = &mut self.counts;
        let (by_walk, end) = adaptive_walk(
            self.nodes,
            self.reach,
            pivot,
            start,
            self.patience,
            &mut self.scratch,
            c,
        );
        let found = by_walk.or_else(|| {
            c.walk_fallbacks += 1;
            scan_for_intersection(self.nodes, self.reach, pivot, &mut c.metadata_tests)
        });
        (found, end)
    }

    /// Crawls from `from`, a node reaching `pivot`, and appends the units
    /// whose page MBBs intersect the pivot to `candidates` in ascending
    /// page order — the elevator order their pages are read in. What the
    /// buffer already holds is left alone.
    pub fn crawl(&mut self, pivot: &Aabb, from: NodeId, candidates: &mut Vec<UnitId>) {
        let c0 = candidates.len();
        let units = self.units;
        adaptive_crawl(
            self.nodes,
            units,
            self.reach,
            pivot,
            from,
            &mut self.scratch,
            candidates,
            &mut self.counts,
        );
        candidates[c0..].sort_unstable_by_key(|u| units[u.0 as usize].page);
    }
}

/// Scratch space reused across walks/crawls to avoid re-allocating
/// visited-markers, the walk's heap and the crawl's frontier for every
/// pivot.
#[derive(Debug, Default)]
pub(crate) struct ExploreScratch {
    stamp: u64,
    visited: Vec<u64>,
    /// The walk's best-first heap; cleared when a walk begins (a walk that
    /// succeeds returns with entries left in it).
    heap: BinaryHeap<Reverse<(Dist, u32)>>,
    /// The crawl's frontier; empty between crawls.
    queue: Vec<NodeId>,
}

impl ExploreScratch {
    /// Prepares the scratch for a graph of `n` nodes and returns a fresh
    /// visitation stamp.
    fn begin(&mut self, n: usize) -> u64 {
        if self.visited.len() < n {
            self.visited.resize(n, 0);
        }
        self.stamp += 1;
        self.stamp
    }
}

/// `true` if `tile` inflated by `eps` intersects `pivot` — the reach test
/// used by both walk and crawl.
#[inline]
fn reaches(tile: &Aabb, pivot: &Aabb, eps: f64) -> bool {
    tile.inflate(eps).intersects(pivot)
}

/// Floating-point key for the best-first heap.
#[derive(Debug, PartialEq)]
struct Dist(f64);

impl Eq for Dist {}
impl PartialOrd for Dist {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Dist {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Adaptive walk: best-first search over `nodes` from `start` towards
/// `pivot`. Succeeds when a node's tile inflated by `reach_eps` intersects
/// the pivot; gives up after `patience` expansions without improvement.
/// Returns the node found, if any, and the closest node seen (the node
/// found, when there is one: the restart position for the next pivot).
pub(crate) fn adaptive_walk(
    nodes: &[SpaceNode],
    reach_eps: f64,
    pivot: &Aabb,
    start: NodeId,
    patience: usize,
    scratch: &mut ExploreScratch,
    counts: &mut ExploreCounts,
) -> (Option<NodeId>, NodeId) {
    let stamp = scratch.begin(nodes.len());
    let ExploreScratch { visited, heap, .. } = scratch;

    let start_dist = nodes[start.0 as usize].tile.min_distance_sq(pivot);
    counts.metadata_tests += 1;

    heap.clear();
    heap.push(Reverse((Dist(start_dist), start.0)));
    visited[start.0 as usize] = stamp;

    let mut closest = start;
    let mut best = start_dist;
    let mut since_improvement = 0usize;

    while let Some(Reverse((Dist(dist), id))) = heap.pop() {
        counts.walk_steps += 1;
        let node = &nodes[id as usize];
        counts.metadata_tests += 1;
        if reaches(&node.tile, pivot, reach_eps) {
            return (Some(NodeId(id)), NodeId(id));
        }
        if dist < best {
            best = dist;
            closest = NodeId(id);
            since_improvement = 0;
        } else {
            since_improvement += 1;
            if since_improvement > patience {
                break; // isMovingAway: the walk is not getting closer.
            }
        }
        for &nb in &node.neighbors {
            let v = &mut visited[nb.0 as usize];
            if *v != stamp {
                *v = stamp;
                counts.metadata_tests += 1;
                let d = nodes[nb.0 as usize].tile.min_distance_sq(pivot);
                heap.push(Reverse((Dist(d), nb.0)));
            }
        }
    }
    (None, closest)
}

/// Exhaustive fallback for walks that gave up: scans all node tiles.
/// Returns the first reaching node. The caller counts one metadata test
/// per scanned node.
pub(crate) fn scan_for_intersection(
    nodes: &[SpaceNode],
    reach_eps: f64,
    pivot: &Aabb,
    metadata_tests: &mut u64,
) -> Option<NodeId> {
    for n in nodes {
        *metadata_tests += 1;
        if reaches(&n.tile, pivot, reach_eps) {
            return Some(n.id);
        }
    }
    None
}

/// Adaptive crawl: flood from `from` over all nodes whose inflated tiles
/// intersect `pivot`, appending the units whose page MBBs intersect it to
/// `candidates` (what the buffer already holds is left alone, so a caller
/// can collect several pivots' candidates in one vector).
///
/// # Panics
/// Debug-asserts that `from` itself reaches the pivot (guaranteed when
/// `from` came from a successful [`adaptive_walk`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn adaptive_crawl(
    nodes: &[SpaceNode],
    units: &[SpaceUnitDesc],
    reach_eps: f64,
    pivot: &Aabb,
    from: NodeId,
    scratch: &mut ExploreScratch,
    candidates: &mut Vec<UnitId>,
    counts: &mut ExploreCounts,
) {
    debug_assert!(reaches(&nodes[from.0 as usize].tile, pivot, reach_eps));
    let stamp = scratch.begin(nodes.len());
    let ExploreScratch { visited, queue, .. } = scratch;

    queue.push(from);
    visited[from.0 as usize] = stamp;
    while let Some(id) = queue.pop() {
        counts.crawl_steps += 1;
        let node = &nodes[id.0 as usize];
        // Fast reject: if even the node's tight page MBB misses the pivot,
        // none of its units can contribute candidates.
        counts.metadata_tests += 1;
        if node.page_mbb.intersects(pivot) {
            for u in node.unit_range() {
                counts.metadata_tests += 1;
                if units[u].page_mbb.intersects(pivot) {
                    candidates.push(units[u].id);
                }
            }
        }
        for &nb in &node.neighbors {
            let v = &mut visited[nb.0 as usize];
            if *v != stamp {
                *v = stamp;
                counts.metadata_tests += 1;
                if reaches(&nodes[nb.0 as usize].tile, pivot, reach_eps) {
                    queue.push(nb);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndexConfig, TransformersIndex};
    use tfm_datagen::{generate, DatasetSpec};
    use tfm_geom::Point3;
    use tfm_storage::Disk;

    fn index(count: usize, seed: u64) -> TransformersIndex {
        indexed(count, seed).1
    }

    fn indexed(count: usize, seed: u64) -> (Disk, TransformersIndex) {
        let disk = Disk::default_in_memory();
        let elems = generate(&DatasetSpec {
            max_side: 5.0,
            ..DatasetSpec::uniform(count, seed)
        });
        // Small capacities so even modest datasets produce a rich node graph.
        let cfg = IndexConfig {
            unit_capacity: Some(16),
            node_capacity: Some(8),
            ..IndexConfig::default()
        };
        let idx = TransformersIndex::build(&disk, elems, &cfg);
        (disk, idx)
    }

    fn pivot_at(x: f64, y: f64, z: f64, half: f64) -> Aabb {
        Aabb::new(
            Point3::new(x - half, y - half, z - half),
            Point3::new(x + half, y + half, z + half),
        )
    }

    #[test]
    fn walk_finds_intersecting_node_from_any_start() {
        let idx = index(20_000, 60);
        let pivot = pivot_at(700.0, 300.0, 500.0, 10.0);
        let mut scratch = ExploreScratch::default();
        for start in [
            0u32,
            (idx.nodes().len() / 2) as u32,
            (idx.nodes().len() - 1) as u32,
        ] {
            let (found, _) = adaptive_walk(
                idx.nodes(),
                idx.reach_eps(),
                &pivot,
                NodeId(start),
                WALK_PATIENCE,
                &mut scratch,
                &mut ExploreCounts::default(),
            );
            let found = found.expect("pivot inside extent must be found");
            assert!(idx.nodes()[found.0 as usize]
                .tile
                .inflate(idx.reach_eps())
                .intersects(&pivot));
        }
    }

    #[test]
    fn walk_reports_no_intersection_outside_extent() {
        let idx = index(5_000, 61);
        let pivot = pivot_at(5000.0, 5000.0, 5000.0, 1.0);
        let mut scratch = ExploreScratch::default();
        let (found, _) = adaptive_walk(
            idx.nodes(),
            idx.reach_eps(),
            &pivot,
            NodeId(0),
            16,
            &mut scratch,
            &mut ExploreCounts::default(),
        );
        assert_eq!(found, None);
        // Fallback scan agrees.
        let mut tests = 0;
        assert_eq!(
            scan_for_intersection(idx.nodes(), idx.reach_eps(), &pivot, &mut tests),
            None
        );
        assert_eq!(tests as usize, idx.nodes().len());
    }

    #[test]
    fn crawl_collects_exactly_the_intersecting_units() {
        let idx = index(20_000, 62);
        let pivot = pivot_at(400.0, 600.0, 200.0, 25.0);
        let mut scratch = ExploreScratch::default();
        let mut counts = ExploreCounts::default();
        let (found, _) = adaptive_walk(
            idx.nodes(),
            idx.reach_eps(),
            &pivot,
            NodeId(0),
            WALK_PATIENCE,
            &mut scratch,
            &mut counts,
        );
        let from = found.expect("found");
        // The crawl appends: what the buffer held stays in front.
        let mut candidates = vec![UnitId(u32::MAX)];
        adaptive_crawl(
            idx.nodes(),
            idx.units(),
            idx.reach_eps(),
            &pivot,
            from,
            &mut scratch,
            &mut candidates,
            &mut counts,
        );
        assert_eq!(candidates[0], UnitId(u32::MAX));
        let mut got: Vec<u32> = candidates[1..].iter().map(|u| u.0).collect();
        got.sort_unstable();
        let mut expected: Vec<u32> = idx
            .units()
            .iter()
            .filter(|u| u.page_mbb.intersects(&pivot))
            .map(|u| u.id.0)
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected, "crawl must be exhaustive and exact");
    }

    #[test]
    fn crawl_visits_fewer_nodes_than_scan_for_small_pivots() {
        let idx = index(50_000, 63);
        let pivot = pivot_at(500.0, 500.0, 500.0, 3.0);
        let mut scratch = ExploreScratch::default();
        let mut counts = ExploreCounts::default();
        let (found, _) = adaptive_walk(
            idx.nodes(),
            idx.reach_eps(),
            &pivot,
            NodeId(0),
            WALK_PATIENCE,
            &mut scratch,
            &mut counts,
        );
        let from = found.expect("found");
        adaptive_crawl(
            idx.nodes(),
            idx.units(),
            idx.reach_eps(),
            &pivot,
            from,
            &mut scratch,
            &mut Vec::new(),
            &mut counts,
        );
        assert!(
            (counts.crawl_steps as usize) < idx.nodes().len() / 4,
            "crawl visited {} of {} nodes",
            counts.crawl_steps,
            idx.nodes().len()
        );
    }

    #[test]
    fn scratch_stamps_isolate_consecutive_explorations() {
        let idx = index(3_000, 64);
        let mut scratch = ExploreScratch::default();
        let p1 = pivot_at(100.0, 100.0, 100.0, 5.0);
        let p2 = pivot_at(900.0, 900.0, 900.0, 5.0);
        let mut counts = ExploreCounts::default();
        let (r1, _) = adaptive_walk(
            idx.nodes(),
            idx.reach_eps(),
            &p1,
            NodeId(0),
            WALK_PATIENCE,
            &mut scratch,
            &mut counts,
        );
        let (r2, _) = adaptive_walk(
            idx.nodes(),
            idx.reach_eps(),
            &p2,
            NodeId(0),
            WALK_PATIENCE,
            &mut scratch,
            &mut counts,
        );
        assert!(r1.is_some());
        assert!(r2.is_some());
        assert_ne!(r1, r2);
    }

    #[test]
    fn reused_scratch_walks_like_a_fresh_one() {
        // A successful walk returns with its heap still holding entries;
        // the next walk must not see them.
        let idx = index(20_000, 65);
        let mut reused = ExploreScratch::default();
        for (i, p) in [
            pivot_at(700.0, 300.0, 500.0, 10.0),
            pivot_at(100.0, 900.0, 200.0, 4.0),
            pivot_at(5000.0, 5000.0, 5000.0, 1.0),
            pivot_at(450.0, 450.0, 450.0, 30.0),
        ]
        .iter()
        .enumerate()
        {
            let start = NodeId((i * 37 % idx.nodes().len()) as u32);
            let walk = |scratch: &mut ExploreScratch| {
                let mut counts = ExploreCounts::default();
                let r = adaptive_walk(
                    idx.nodes(),
                    idx.reach_eps(),
                    p,
                    start,
                    16,
                    scratch,
                    &mut counts,
                );
                (r, counts)
            };
            assert_eq!(walk(&mut reused), walk(&mut ExploreScratch::default()));
        }
        assert!(reused.heap.capacity() > 0, "the heap is kept between walks");
    }

    #[test]
    fn locate_scans_exactly_when_the_walk_gives_up() {
        // A patience of 0..4 makes walks give up often. Whatever the walk
        // did, `locate` finds a reaching node exactly when the full scan
        // does, and counts one fallback per scan, with the scan's tests.
        let (disk, idx) = indexed(6_000, 66);
        let (nodes, reach) = (idx.nodes(), idx.reach_eps());
        let pivots = generate(&DatasetSpec {
            max_side: 30.0,
            ..DatasetSpec::uniform(300, 67)
        });
        let (mut walked, mut scanned) = (0, 0);
        for patience in 0..4 {
            let mut explorer = Explorer::new(&idx);
            explorer.patience = patience;
            let mut pos = None;
            for (i, e) in pivots.iter().enumerate() {
                // Every fifth pivot lies beyond the extent.
                let shift = if i % 5 == 0 { 1_100.0 } else { 0.0 };
                let pivot = Aabb::new(
                    Point3::new(e.mbb.min.x + shift, e.mbb.min.y, e.mbb.min.z),
                    Point3::new(e.mbb.max.x + shift, e.mbb.max.y, e.mbb.max.z),
                );
                let before = explorer.counts();
                let found = explorer.locate(&mut &disk, &pivot);

                let mut scan_tests = 0;
                let scan = scan_for_intersection(nodes, reach, &pivot, &mut scan_tests);
                assert_eq!(found.is_some(), scan.is_some(), "pivot {i}");
                if let Some(n) = found {
                    assert!(reaches(&nodes[n.0 as usize].tile, &pivot, reach));
                }
                let mut want = ExploreCounts {
                    metadata_tests: before.metadata_tests + 1,
                    ..before
                };
                if idx.extent().inflate(reach).intersects(&pivot) {
                    let start = pos.unwrap_or_else(|| {
                        let tree_start = idx.walk_start(&mut &disk, &pivot.center());
                        tree_start.unwrap_or(NodeId(0))
                    });
                    let mut scratch = ExploreScratch::default();
                    let (by_walk, end) = adaptive_walk(
                        nodes,
                        reach,
                        &pivot,
                        start,
                        patience,
                        &mut scratch,
                        &mut want,
                    );
                    if by_walk.is_none() {
                        want.walk_fallbacks += 1;
                        want.metadata_tests += scan_tests;
                        scanned += 1;
                    } else {
                        walked += 1;
                    }
                    pos = Some(end);
                }
                assert_eq!(explorer.counts(), want, "pivot {i}, patience {patience}");
                assert_eq!(explorer.pos, pos);
            }
        }
        assert!(
            walked > 0 && scanned > 0,
            "{walked} walked, {scanned} scanned"
        );
    }
}
