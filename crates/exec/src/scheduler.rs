//! Pivot scheduling: the generic [`ChunkScheduler`] from `tfm-pool`
//! wearing its join-phase vocabulary, plus the chunk sizing policy.
//!
//! The guide's space-node pivot list is split into contiguous chunks that
//! are dealt to per-worker deques up front (*static sharding* — contiguous
//! pivot ranges keep the follower walk short, because consecutive STR
//! nodes are spatially adjacent). Pivot cost is highly skewed on
//! non-uniform data — a pivot inside a massive cluster can cost orders of
//! magnitude more than one in empty space — so workers that drain their
//! own deque *steal* chunks from the back of the fullest other deque.
//! The mechanics (deques, stealing, cancellation) live in
//! [`tfm_pool::ChunkScheduler`], shared with the index-build pipeline;
//! this wrapper adds the join-specific policy:
//!
//! * **Prune announcements** — [`JoinScheduler::announce_prune`] maps to
//!   the generic cancel switch: once the follower dataset is fully
//!   covered on the shared board, every queued pivot is redundant and the
//!   scheduler stops dealing (see the crate docs for the protocol).
//! * **Chunk sizing** — [`JoinScheduler::chunk_size`] derives the chunk
//!   size from the pivot count and worker count alone: 8 chunks per
//!   worker, capped so that stealing always has a tail to take.

use tfm_pool::ChunkScheduler;

pub use tfm_pool::Chunk;

/// Deals pivot chunks to a fixed set of workers, with stealing and prune
/// announcements. A thin join-flavored wrapper over
/// [`tfm_pool::ChunkScheduler`].
pub struct JoinScheduler {
    inner: ChunkScheduler,
}

impl JoinScheduler {
    /// Partitions `pivots` pivot indices among `workers` workers in chunks
    /// of at most `chunk_size` pivots each.
    ///
    /// # Panics
    /// Panics if `workers == 0` or `chunk_size == 0`.
    pub fn new(pivots: usize, workers: usize, chunk_size: usize) -> Self {
        Self {
            inner: ChunkScheduler::new(pivots, workers, chunk_size),
        }
    }

    /// Derives the chunk size from the pivot count and the worker count:
    /// 8 chunks per worker, long enough runs for locality and enough
    /// chunks for stealing to even out skewed pivot costs. Two caps bound
    /// the result: every worker's static share must split into at least
    /// two chunks (a stealable tail even on tiny inputs), and no chunk
    /// exceeds [`MAX_CHUNK_PIVOTS`](Self::MAX_CHUNK_PIVOTS) pivots —
    /// without that bound, a huge pivot list could trap an entire
    /// expensive cluster inside one chunk where no stealing can reach it.
    pub fn chunk_size(pivots: usize, workers: usize) -> usize {
        let workers = workers.max(1);
        if pivots == 0 {
            return 1;
        }
        let cap = pivots
            .div_ceil(workers * 2)
            .clamp(1, Self::MAX_CHUNK_PIVOTS);
        let target = (pivots as f64 / (workers as f64 * 8.0)).round() as usize;
        target.clamp(1, cap)
    }

    /// Hard upper bound on the chunk size: stealing happens at chunk
    /// granularity, so a chunk is the largest unit of work that can end up
    /// serialized on one worker.
    pub const MAX_CHUNK_PIVOTS: usize = 256;

    /// Total chunks dealt at construction.
    pub fn chunk_count(&self) -> usize {
        self.inner.chunk_count()
    }

    /// Chunks obtained by stealing so far.
    pub fn steals(&self) -> u64 {
        self.inner.steals()
    }

    /// Announces that the rest of the pivot list is prunable (the
    /// follower dataset is fully covered): the scheduler stops dealing
    /// chunks — own-deque pops and steals alike return `None` from now on.
    pub fn announce_prune(&self) {
        self.inner.cancel();
    }

    /// Has a prune been announced?
    pub fn prune_announced(&self) -> bool {
        self.inner.is_cancelled()
    }

    /// Chunks dealt at construction but never dispatched because a prune
    /// announcement discarded them. Meaningful once the workers have
    /// drained (after the join's thread scope ends).
    pub fn chunks_pruned(&self) -> u64 {
        self.inner.chunks_cancelled()
    }

    /// Fetches the next chunk for `worker`: the front of its own deque,
    /// or — once that is empty — the back of the fullest other deque.
    /// Returns `None` when every deque is empty or a prune announcement
    /// has discarded the remaining work.
    ///
    /// # Panics
    /// Panics if `worker` is out of range.
    pub fn next(&self, worker: usize) -> Option<Chunk> {
        self.inner.next(worker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_chunk_size_is_sane() {
        assert_eq!(JoinScheduler::chunk_size(0, 4), 1);
        assert!(JoinScheduler::chunk_size(100, 2) >= 1);
        // The size targets 8 chunks per worker.
        assert_eq!(JoinScheduler::chunk_size(6400, 4), 200);
        // Every worker keeps a stealable tail: at least two chunks per
        // static share.
        assert_eq!(JoinScheduler::chunk_size(16, 8), 1);
        // Huge inputs never exceed the hard cap — a chunk is the largest
        // unstealable unit of work.
        assert_eq!(
            JoinScheduler::chunk_size(1_000_000, 4),
            JoinScheduler::MAX_CHUNK_PIVOTS
        );
    }

    #[test]
    fn prune_announcement_discards_remaining_chunks() {
        let sched = JoinScheduler::new(64, 2, 4); // 16 chunks
        assert!(sched.next(0).is_some());
        assert!(sched.next(1).is_some());
        assert!(!sched.prune_announced());
        sched.announce_prune();
        assert!(sched.prune_announced());
        assert_eq!(sched.next(0), None);
        assert_eq!(sched.next(1), None);
        assert_eq!(sched.chunks_pruned(), 14);
        assert_eq!(sched.steals(), 0);
    }

    #[test]
    fn wrapper_deals_every_pivot_exactly_once() {
        let sched = JoinScheduler::new(100, 4, JoinScheduler::chunk_size(100, 4));
        let mut seen = std::collections::BTreeSet::new();
        while let Some(c) = sched.next(0) {
            for p in c.start..c.end {
                assert!(seen.insert(p));
            }
        }
        assert_eq!(seen.len(), 100);
        assert_eq!(sched.chunks_pruned(), 0);
    }
}
