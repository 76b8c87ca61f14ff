//! Pivot scheduling policy: how long a chunk of pivots is.
//!
//! The guide's space-node pivot list is split into contiguous chunks that
//! are dealt to per-worker deques up front (*static sharding* — contiguous
//! pivot ranges keep the follower walk short, because consecutive STR
//! nodes are spatially adjacent). Pivot cost is highly skewed on
//! non-uniform data — a pivot inside a massive cluster can cost orders of
//! magnitude more than one in empty space — so workers that drain their
//! own deque *steal* chunks from the back of the fullest other deque.
//! The mechanics (deques, stealing, cancellation once the follower
//! dataset is covered) are [`tfm_pool::ChunkScheduler`]'s, shared with the
//! index-build pipeline; the join adds only [`chunk_size`]: 8 chunks per
//! worker, capped so that stealing always has a tail to take.

/// Hard upper bound on the chunk size: stealing happens at chunk
/// granularity, so a chunk is the largest unit of work that can end up
/// serialized on one worker.
pub const MAX_CHUNK_PIVOTS: usize = 256;

/// Derives the chunk size from the pivot count and the worker count:
/// 8 chunks per worker, long enough runs for locality and enough chunks
/// for stealing to even out skewed pivot costs. Two caps bound the
/// result: every worker's static share must split into at least two
/// chunks (a stealable tail even on tiny inputs), and no chunk exceeds
/// [`MAX_CHUNK_PIVOTS`] pivots — without that bound, a huge pivot list
/// could trap an entire expensive cluster inside one chunk where no
/// stealing can reach it.
pub fn chunk_size(pivots: usize, workers: usize) -> usize {
    let workers = workers.max(1);
    if pivots == 0 {
        return 1;
    }
    let cap = pivots.div_ceil(workers * 2).clamp(1, MAX_CHUNK_PIVOTS);
    let target = (pivots as f64 / (workers as f64 * 8.0)).round() as usize;
    target.clamp(1, cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_chunk_size_is_sane() {
        assert_eq!(chunk_size(0, 4), 1);
        assert!(chunk_size(100, 2) >= 1);
        // The size targets 8 chunks per worker.
        assert_eq!(chunk_size(6400, 4), 200);
        // Every worker keeps a stealable tail: at least two chunks per
        // static share.
        assert_eq!(chunk_size(16, 8), 1);
        // Huge inputs never exceed the hard cap — a chunk is the largest
        // unstealable unit of work.
        assert_eq!(chunk_size(1_000_000, 4), MAX_CHUNK_PIVOTS);
    }
}
