//! The join's to-do state: a lock-free, per-node coverage board that
//! carries the to-do-list pruning (§V) across every owner of a join's
//! pivots — the sequential join's one, or each parallel worker.
//!
//! Once a node has acted as a pivot, every result pair involving its
//! elements has been produced, so later pivots drop ("prune") candidate
//! units that belong to it. An owner knows which nodes it checked itself;
//! [`SharedTodo`] tells it which nodes any owner completed, with two atomic
//! bitmaps per dataset:
//!
//! * **covered** — set with `Release` ordering *after* a node's pivot
//!   processing has emitted all of its pairs into the owning worker's
//!   buffer, and read with `Acquire` by the candidate filters. Pruning a
//!   candidate therefore implies the pruned node's processing completed
//!   first. Two nodes can never mutually prune each other: each prune
//!   orders the other node's *completion* before this node's *filter
//!   point*, and both at once would form a happens-before cycle.
//! * **claimed** — a test-and-set latch a worker must win before it may
//!   role-switch onto a follower node, guaranteeing each node is processed
//!   as a pivot at most once globally (the cross-owner counterpart of the
//!   owner's own `!follower.checked[nf]` switch guard). Claims never prune
//!   anything, so claiming eagerly at switch time is safe.
//!
//! A per-side `remaining` counter (decremented on the first `mark_covered`
//! of each node) lets the engines and the scheduler detect that one
//! dataset is fully covered — the join's termination condition — and skip
//! or discard the pivots that are left.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One dataset's share of the board.
struct TodoSide {
    covered: Box<[AtomicU64]>,
    claimed: Box<[AtomicU64]>,
    remaining: AtomicUsize,
    nodes: usize,
}

const BITS: usize = u64::BITS as usize;

fn bitmap(nodes: usize) -> Box<[AtomicU64]> {
    (0..nodes.div_ceil(BITS))
        .map(|_| AtomicU64::new(0))
        .collect()
}

impl TodoSide {
    fn new(nodes: usize) -> Self {
        Self {
            covered: bitmap(nodes),
            claimed: bitmap(nodes),
            remaining: AtomicUsize::new(nodes),
            nodes,
        }
    }
}

/// Lock-free coverage board for one join, shared by its owners.
///
/// Indexed by dataset — `side_a = true` addresses dataset A's space nodes,
/// `false` dataset B's — so the same board stays valid when a role
/// transformation swaps which side currently guides.
pub struct SharedTodo {
    sides: [TodoSide; 2],
}

impl SharedTodo {
    /// Creates a board for `nodes_a` A-side and `nodes_b` B-side space
    /// nodes, all unclaimed and uncovered.
    pub fn new(nodes_a: usize, nodes_b: usize) -> Self {
        Self {
            sides: [TodoSide::new(nodes_a), TodoSide::new(nodes_b)],
        }
    }

    fn side(&self, side_a: bool) -> &TodoSide {
        &self.sides[usize::from(!side_a)]
    }

    /// Number of space nodes tracked on a side.
    pub fn nodes(&self, side_a: bool) -> usize {
        self.side(side_a).nodes
    }

    /// Has `node`'s pivot processing completed (all pairs emitted)?
    pub fn is_covered(&self, side_a: bool, node: usize) -> bool {
        let s = self.side(side_a);
        debug_assert!(node < s.nodes);
        s.covered[node / BITS].load(Ordering::Acquire) & (1 << (node % BITS)) != 0
    }

    /// Marks `node` covered. Must only be called once every result pair of
    /// `node` sits in some worker's buffer — the `Release` store is what
    /// makes pruning on the bit safe.
    pub fn mark_covered(&self, side_a: bool, node: usize) {
        let s = self.side(side_a);
        debug_assert!(node < s.nodes);
        let prev = s.covered[node / BITS].fetch_or(1 << (node % BITS), Ordering::Release);
        if prev & (1 << (node % BITS)) == 0 {
            s.remaining.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Attempts to claim `node` for exclusive pivot processing (a role
    /// switch). Returns `true` exactly once per node across all workers.
    pub fn try_claim(&self, side_a: bool, node: usize) -> bool {
        let s = self.side(side_a);
        debug_assert!(node < s.nodes);
        let prev = s.claimed[node / BITS].fetch_or(1 << (node % BITS), Ordering::AcqRel);
        prev & (1 << (node % BITS)) == 0
    }

    /// Nodes on a side not yet covered. Zero means the side is exhausted:
    /// every remaining pivot of the *other* side would have its entire
    /// candidate list pruned, so it can be skipped outright.
    pub fn remaining(&self, side_a: bool) -> usize {
        self.side(side_a).remaining.load(Ordering::Acquire)
    }
}

impl std::fmt::Debug for SharedTodo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedTodo")
            .field("nodes_a", &self.nodes(true))
            .field("nodes_b", &self.nodes(false))
            .field("remaining_a", &self.remaining(true))
            .field("remaining_b", &self.remaining(false))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fresh_board_is_uncovered_and_unclaimed() {
        let t = SharedTodo::new(70, 3);
        assert_eq!(t.nodes(true), 70);
        assert_eq!(t.nodes(false), 3);
        assert_eq!(t.remaining(true), 70);
        for n in 0..70 {
            assert!(!t.is_covered(true, n));
        }
    }

    #[test]
    fn covering_is_idempotent_and_counts_down() {
        let t = SharedTodo::new(5, 130);
        t.mark_covered(false, 129);
        t.mark_covered(false, 129);
        t.mark_covered(false, 0);
        assert!(t.is_covered(false, 129));
        assert!(t.is_covered(false, 0));
        assert!(!t.is_covered(false, 64));
        assert_eq!(t.remaining(false), 128);
        assert_eq!(t.remaining(true), 5);
    }

    #[test]
    fn sides_are_independent() {
        let t = SharedTodo::new(10, 10);
        t.mark_covered(true, 7);
        assert!(t.is_covered(true, 7));
        assert!(!t.is_covered(false, 7));
        assert!(t.try_claim(true, 7));
        assert!(t.try_claim(false, 7));
    }

    #[test]
    fn claim_succeeds_exactly_once() {
        let t = SharedTodo::new(0, 64);
        assert!(t.try_claim(false, 63));
        assert!(!t.try_claim(false, 63));
        assert!(t.try_claim(false, 62));
    }

    #[test]
    fn concurrent_claims_have_one_winner_per_node() {
        let t = Arc::new(SharedTodo::new(0, 1000));
        let wins: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let t = Arc::clone(&t);
                    s.spawn(move || (0..1000).filter(|&n| t.try_claim(false, n)).count())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(wins.iter().sum::<usize>(), 1000);
    }

    #[test]
    fn exhaustion_reaches_zero() {
        let t = SharedTodo::new(2, 1);
        t.mark_covered(true, 0);
        t.mark_covered(true, 1);
        assert_eq!(t.remaining(true), 0);
        assert_eq!(t.remaining(false), 1);
    }
}
