//! Adaptive walk (Alg. 1) and adaptive crawl over the connectivity graph.
//!
//! The walk navigates the follower's space-node graph towards the pivot:
//! starting from a descriptor located via the Hilbert B+-tree, it
//! repeatedly moves to the unvisited neighbour whose tile is closest to
//! the pivot (implemented as best-first search, which is Alg. 1's
//! queue-based exploration with an optimal pop order). The paper's
//! `isMovingAway` condition becomes a *patience* bound: if the best
//! distance has not improved for `walk_patience` expansions the walk gives
//! up. Because a greedy walk can in principle give up wrongly on
//! pathological tilings, callers fall back to a linear metadata scan —
//! counted as metadata comparisons — so the join never misses results
//! (`DESIGN.md`, "Adaptive walk").
//!
//! The crawl (§V "Adaptive Crawling") floods outward from the intersection
//! record over all nodes whose (inflated) tiles still intersect the pivot,
//! collecting every space unit whose *page MBB* intersects the pivot as a
//! candidate. Tiles intersecting a box form a connected subgraph of the
//! tiling adjacency graph, so the flood is exhaustive.

use crate::descriptor::{NodeId, SpaceNode, SpaceUnitDesc, UnitId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tfm_geom::Aabb;

/// Outcome of an adaptive walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkResult {
    /// A node whose inflated tile intersects the pivot, if one was found.
    pub found: Option<NodeId>,
    /// The closest node seen (walk restart position for the next pivot).
    pub closest: NodeId,
    /// Expansion steps performed.
    pub steps: u64,
    /// Tile-distance computations performed (metadata comparisons).
    pub metadata_tests: u64,
}

/// Scratch space reused across walks/crawls to avoid re-allocating
/// visited-markers and the crawl's frontier for every pivot.
#[derive(Debug, Default)]
pub struct ExploreScratch {
    stamp: u64,
    visited: Vec<u64>,
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
#[derive(PartialEq)]
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
pub fn adaptive_walk(
    nodes: &[SpaceNode],
    reach_eps: f64,
    pivot: &Aabb,
    start: NodeId,
    patience: usize,
    scratch: &mut ExploreScratch,
) -> WalkResult {
    let stamp = scratch.begin(nodes.len());
    let mut steps = 0u64;
    let mut metadata_tests = 0u64;

    let start_dist = nodes[start.0 as usize].tile.min_distance_sq(pivot);
    metadata_tests += 1;

    let mut heap: BinaryHeap<Reverse<(Dist, u32)>> = BinaryHeap::new();
    heap.push(Reverse((Dist(start_dist), start.0)));
    scratch.visited[start.0 as usize] = stamp;

    let mut closest = start;
    let mut best = start_dist;
    let mut since_improvement = 0usize;

    while let Some(Reverse((Dist(dist), id))) = heap.pop() {
        steps += 1;
        let node = &nodes[id as usize];
        metadata_tests += 1;
        if reaches(&node.tile, pivot, reach_eps) {
            return WalkResult {
                found: Some(NodeId(id)),
                closest: NodeId(id),
                steps,
                metadata_tests,
            };
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
            let v = &mut scratch.visited[nb.0 as usize];
            if *v != stamp {
                *v = stamp;
                metadata_tests += 1;
                let d = nodes[nb.0 as usize].tile.min_distance_sq(pivot);
                heap.push(Reverse((Dist(d), nb.0)));
            }
        }
    }

    WalkResult {
        found: None,
        closest,
        steps,
        metadata_tests,
    }
}

/// Exhaustive fallback for walks that gave up: scans all node tiles.
/// Returns the first reaching node. The caller counts one metadata test
/// per scanned node.
pub fn scan_for_intersection(
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

/// Counters of one crawl (the candidates go into the caller's buffer).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CrawlResult {
    /// Nodes visited.
    pub steps: u64,
    /// Metadata comparisons performed.
    pub metadata_tests: u64,
}

/// Adaptive crawl: flood from `from` over all nodes whose inflated tiles
/// intersect `pivot`, appending the units whose page MBBs intersect it to
/// `candidates` (what the buffer already holds is left alone, so a caller
/// can collect several pivots' candidates in one vector).
///
/// # Panics
/// Debug-asserts that `from` itself reaches the pivot (guaranteed when
/// `from` came from a successful [`adaptive_walk`]).
pub fn adaptive_crawl(
    nodes: &[SpaceNode],
    units: &[SpaceUnitDesc],
    reach_eps: f64,
    pivot: &Aabb,
    from: NodeId,
    scratch: &mut ExploreScratch,
    candidates: &mut Vec<UnitId>,
) -> CrawlResult {
    debug_assert!(reaches(&nodes[from.0 as usize].tile, pivot, reach_eps));
    let stamp = scratch.begin(nodes.len());
    let ExploreScratch { visited, queue, .. } = scratch;
    let mut result = CrawlResult::default();

    queue.push(from);
    visited[from.0 as usize] = stamp;
    while let Some(id) = queue.pop() {
        result.steps += 1;
        let node = &nodes[id.0 as usize];
        // Fast reject: if even the node's tight page MBB misses the pivot,
        // none of its units can contribute candidates.
        result.metadata_tests += 1;
        if node.page_mbb.intersects(pivot) {
            for u in node.unit_range() {
                result.metadata_tests += 1;
                if units[u].page_mbb.intersects(pivot) {
                    candidates.push(units[u].id);
                }
            }
        }
        for &nb in &node.neighbors {
            let v = &mut visited[nb.0 as usize];
            if *v != stamp {
                *v = stamp;
                result.metadata_tests += 1;
                if reaches(&nodes[nb.0 as usize].tile, pivot, reach_eps) {
                    queue.push(nb);
                }
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndexConfig, TransformersIndex};
    use tfm_datagen::{generate, DatasetSpec};
    use tfm_geom::Point3;
    use tfm_storage::Disk;

    fn index(count: usize, seed: u64) -> TransformersIndex {
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
        TransformersIndex::build(&disk, elems, &cfg)
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
            let r = adaptive_walk(
                idx.nodes(),
                idx.reach_eps(),
                &pivot,
                NodeId(start),
                64,
                &mut scratch,
            );
            let found = r.found.expect("pivot inside extent must be found");
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
        let r = adaptive_walk(
            idx.nodes(),
            idx.reach_eps(),
            &pivot,
            NodeId(0),
            16,
            &mut scratch,
        );
        assert_eq!(r.found, None);
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
        let walk = adaptive_walk(
            idx.nodes(),
            idx.reach_eps(),
            &pivot,
            NodeId(0),
            64,
            &mut scratch,
        );
        let from = walk.found.expect("found");
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
        let walk = adaptive_walk(
            idx.nodes(),
            idx.reach_eps(),
            &pivot,
            NodeId(0),
            64,
            &mut scratch,
        );
        let from = walk.found.expect("found");
        let crawl = adaptive_crawl(
            idx.nodes(),
            idx.units(),
            idx.reach_eps(),
            &pivot,
            from,
            &mut scratch,
            &mut Vec::new(),
        );
        assert!(
            (crawl.steps as usize) < idx.nodes().len() / 4,
            "crawl visited {} of {} nodes",
            crawl.steps,
            idx.nodes().len()
        );
    }

    #[test]
    fn scratch_stamps_isolate_consecutive_explorations() {
        let idx = index(3_000, 64);
        let mut scratch = ExploreScratch::default();
        let p1 = pivot_at(100.0, 100.0, 100.0, 5.0);
        let p2 = pivot_at(900.0, 900.0, 900.0, 5.0);
        let r1 = adaptive_walk(
            idx.nodes(),
            idx.reach_eps(),
            &p1,
            NodeId(0),
            64,
            &mut scratch,
        );
        let r2 = adaptive_walk(
            idx.nodes(),
            idx.reach_eps(),
            &p2,
            NodeId(0),
            64,
            &mut scratch,
        );
        assert!(r1.found.is_some());
        assert!(r2.found.is_some());
        assert_ne!(r1.found, r2.found);
    }
}
