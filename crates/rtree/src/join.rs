//! R-Tree join algorithms.

use crate::{RTree, RtreeNode, RtreeStats};
use tfm_geom::SpatialElement;
use tfm_memjoin::{plane_sweep_join, ResultPair};
use tfm_storage::{PageId, PageReads};

/// Synchronized R-Tree traversal join (Brinkhoff et al., SIGMOD '93).
///
/// Both trees are traversed top-down in lockstep: when two inner nodes'
/// entries intersect, the corresponding subtrees are joined recursively;
/// at the leaves, elements are joined with a plane sweep (paper §VII-A:
/// "R-TREE uses the plane sweep"). When the trees have different heights,
/// the taller tree is descended first until the levels align.
///
/// Node pages are read through per-tree caches (any [`PageReads`]
/// implementor — a `CacheHandle` onto each tree's `SharedPageCache` in a
/// baseline run), so the re-reads caused by structural overlap hit the
/// disk only when they exceed the cache — exactly the behaviour the paper
/// attributes to the R-Tree baseline.
pub fn sync_join<CA: PageReads, CB: PageReads>(
    pool_a: &mut CA,
    tree_a: &RTree,
    pool_b: &mut CB,
    tree_b: &RTree,
    stats: &mut RtreeStats,
) -> Vec<ResultPair> {
    let mut out = Vec::new();
    if tree_a.is_empty() || tree_b.is_empty() {
        return out;
    }
    stats.node_tests += 1;
    if !tree_a.root_mbb().intersects(&tree_b.root_mbb()) {
        return out;
    }
    join_rec(
        pool_a,
        tree_a.root(),
        tree_a.height(),
        pool_b,
        tree_b.root(),
        tree_b.height(),
        stats,
        &mut out,
    );
    out
}

#[allow(clippy::too_many_arguments)]
fn join_rec<CA: PageReads, CB: PageReads>(
    pool_a: &mut CA,
    page_a: PageId,
    level_a: u32,
    pool_b: &mut CB,
    page_b: PageId,
    level_b: u32,
    stats: &mut RtreeStats,
    out: &mut Vec<ResultPair>,
) {
    // Align heights by descending the taller side against the other node's
    // bounding region (approximated by testing child MBBs against the other
    // node's children later; here we simply descend every child — the
    // intersection filter happens in the aligned case below, and unaligned
    // descent only occurs near the root).
    if level_a > level_b {
        let children = inner_entries(pool_a, page_a);
        let b_mbb = node_mbb(pool_b, page_b);
        for c in children {
            stats.node_tests += 1;
            if c.mbb.intersects(&b_mbb) {
                join_rec(
                    pool_a,
                    c.child,
                    level_a - 1,
                    pool_b,
                    page_b,
                    level_b,
                    stats,
                    out,
                );
            }
        }
        return;
    }
    if level_b > level_a {
        let children = inner_entries(pool_b, page_b);
        let a_mbb = node_mbb(pool_a, page_a);
        for c in children {
            stats.node_tests += 1;
            if c.mbb.intersects(&a_mbb) {
                join_rec(
                    pool_a,
                    page_a,
                    level_a,
                    pool_b,
                    c.child,
                    level_b - 1,
                    stats,
                    out,
                );
            }
        }
        return;
    }

    if level_a == 0 {
        // Leaf vs leaf: plane sweep.
        let elems_a = leaf_elements(pool_a, page_a);
        let elems_b = leaf_elements(pool_b, page_b);
        out.extend(plane_sweep_join(&elems_a, &elems_b, &mut stats.mem));
        return;
    }

    // Inner vs inner at the same level: pairwise child comparison.
    let children_a = inner_entries(pool_a, page_a);
    let children_b = inner_entries(pool_b, page_b);
    for ca in &children_a {
        for cb in &children_b {
            stats.node_tests += 1;
            if ca.mbb.intersects(&cb.mbb) {
                join_rec(
                    pool_a,
                    ca.child,
                    level_a - 1,
                    pool_b,
                    cb.child,
                    level_b - 1,
                    stats,
                    out,
                );
            }
        }
    }
}

fn inner_entries<C: PageReads>(pool: &mut C, page: PageId) -> Vec<crate::NodeEntry> {
    match RtreeNode::decode(&pool.page(page)) {
        RtreeNode::Inner(entries) => entries,
        RtreeNode::Leaf(_) => panic!("expected inner node at {page}"),
    }
}

fn leaf_elements<C: PageReads>(pool: &mut C, page: PageId) -> Vec<SpatialElement> {
    match RtreeNode::decode(&pool.page(page)) {
        RtreeNode::Leaf(elems) => elems,
        RtreeNode::Inner(_) => panic!("expected leaf node at {page}"),
    }
}

fn node_mbb<C: PageReads>(pool: &mut C, page: PageId) -> tfm_geom::Aabb {
    match RtreeNode::decode(&pool.page(page)) {
        RtreeNode::Leaf(elems) => tfm_geom::Aabb::union_all(elems.iter().map(|e| e.mbb)),
        RtreeNode::Inner(entries) => tfm_geom::Aabb::union_all(entries.iter().map(|e| e.mbb)),
    }
}

/// Indexed nested-loop join (paper §VIII-A): probes `tree_a` with every
/// element of `probe_side`. "Given the considerable cost of a query, this
/// approach clearly is only efficient in case A >> B" — reproduced here as
/// an ablation baseline.
pub fn indexed_nested_loop_join<C: PageReads>(
    pool_a: &mut C,
    tree_a: &RTree,
    probe_side: &[SpatialElement],
    stats: &mut RtreeStats,
) -> Vec<ResultPair> {
    let mut out = Vec::new();
    for b in probe_side {
        for a_id in tree_a.range_query(pool_a, &b.mbb, stats) {
            out.push((a_id, b.id));
        }
    }
    stats.mem.results += out.len() as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RTree;
    use tfm_datagen::{generate, DatasetSpec, Distribution};
    use tfm_memjoin::{canonicalize, nested_loop_join, JoinStats};
    use tfm_storage::Disk;

    fn check_against_oracle(spec_a: DatasetSpec, spec_b: DatasetSpec) {
        let a = generate(&spec_a);
        let b = generate(&spec_b);
        let disk_a = Disk::default_in_memory();
        let disk_b = Disk::default_in_memory();
        let tree_a = RTree::bulk_load(&disk_a, a.clone());
        let tree_b = RTree::bulk_load(&disk_b, b.clone());
        let mut stats = RtreeStats::default();
        let got = canonicalize(sync_join(
            &mut &disk_a,
            &tree_a,
            &mut &disk_b,
            &tree_b,
            &mut stats,
        ));
        let mut oracle_stats = JoinStats::default();
        let expected = canonicalize(nested_loop_join(&a, &b, &mut oracle_stats));
        assert_eq!(got, expected);
        assert_eq!(stats.mem.results, expected.len() as u64);
    }

    #[test]
    fn sync_join_matches_oracle_uniform() {
        check_against_oracle(
            DatasetSpec {
                max_side: 12.0,
                ..DatasetSpec::uniform(800, 10)
            },
            DatasetSpec {
                max_side: 12.0,
                ..DatasetSpec::uniform(800, 11)
            },
        );
    }

    #[test]
    fn sync_join_matches_oracle_different_heights() {
        // Large A (multi-level), tiny B (single leaf).
        check_against_oracle(
            DatasetSpec {
                max_side: 15.0,
                ..DatasetSpec::uniform(3000, 12)
            },
            DatasetSpec {
                max_side: 30.0,
                ..DatasetSpec::uniform(40, 13)
            },
        );
        // And the mirror case.
        check_against_oracle(
            DatasetSpec {
                max_side: 30.0,
                ..DatasetSpec::uniform(40, 14)
            },
            DatasetSpec {
                max_side: 15.0,
                ..DatasetSpec::uniform(3000, 15)
            },
        );
    }

    #[test]
    fn sync_join_matches_oracle_clustered() {
        check_against_oracle(
            DatasetSpec {
                max_side: 8.0,
                ..DatasetSpec::with_distribution(
                    1000,
                    Distribution::DenseCluster { clusters: 12 },
                    16,
                )
            },
            DatasetSpec {
                max_side: 8.0,
                ..DatasetSpec::with_distribution(
                    1000,
                    Distribution::UniformCluster { clusters: 5 },
                    17,
                )
            },
        );
    }

    #[test]
    fn sync_join_empty_sides() {
        let disk_a = Disk::default_in_memory();
        let disk_b = Disk::default_in_memory();
        let tree_a = RTree::bulk_load(&disk_a, vec![]);
        let tree_b = RTree::bulk_load(&disk_b, generate(&DatasetSpec::uniform(100, 1)));
        let mut stats = RtreeStats::default();
        assert!(sync_join(&mut &disk_a, &tree_a, &mut &disk_b, &tree_b, &mut stats).is_empty());
        assert!(sync_join(&mut &disk_b, &tree_b, &mut &disk_a, &tree_a, &mut stats).is_empty());
    }

    #[test]
    fn inl_join_matches_oracle() {
        let a = generate(&DatasetSpec {
            max_side: 10.0,
            ..DatasetSpec::uniform(1200, 20)
        });
        let b = generate(&DatasetSpec {
            max_side: 10.0,
            ..DatasetSpec::uniform(150, 21)
        });
        let disk_a = Disk::default_in_memory();
        let tree_a = RTree::bulk_load(&disk_a, a.clone());
        let mut stats = RtreeStats::default();
        let got = canonicalize(indexed_nested_loop_join(
            &mut &disk_a,
            &tree_a,
            &b,
            &mut stats,
        ));
        let mut oracle_stats = JoinStats::default();
        let expected = canonicalize(nested_loop_join(&a, &b, &mut oracle_stats));
        assert_eq!(got, expected);
    }
}
