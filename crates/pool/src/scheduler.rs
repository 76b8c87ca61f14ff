//! Chunked work dealing: static sharding plus work stealing, with a
//! cancellation switch.
//!
//! A list of `items` task indices is split into contiguous chunks that are
//! dealt to per-worker deques up front (*static sharding* — contiguous
//! ranges preserve whatever locality the caller's task order encodes).
//! Task cost may be arbitrarily skewed, so workers that drain their own
//! deque *steal* chunks from the back of the fullest other deque
//! (stragglers keep the front of their own queue, preserving their
//! locality run).
//!
//! [`cancel`](ChunkScheduler::cancel) discards all still-queued work: own
//! pops and steals alike return `None` from then on, and the never-dealt
//! tail is reported by [`chunks_cancelled`](ChunkScheduler::chunks_cancelled).
//! The join path uses this for its prune announcements ("the follower
//! dataset is fully covered — every queued pivot is redundant").

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A contiguous range of task indices, `start..end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// First task index in the chunk.
    pub start: usize,
    /// One past the last task index.
    pub end: usize,
}

impl Chunk {
    /// Number of tasks in the chunk.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the chunk covers no tasks.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Deals task chunks to a fixed set of workers, with stealing.
pub struct ChunkScheduler {
    queues: Vec<Mutex<VecDeque<Chunk>>>,
    chunks: usize,
    chunk_size: usize,
    steals: AtomicU64,
    dispatched: AtomicU64,
    cancelled: AtomicBool,
}

impl ChunkScheduler {
    /// Partitions `items` task indices among `workers` workers in chunks
    /// of at most `chunk_size` tasks each.
    ///
    /// Each worker's static share is one contiguous slab of the index
    /// range (worker 0 gets the lowest indices), sliced into chunks so
    /// that stealing has useful granularity.
    ///
    /// # Panics
    /// Panics if `workers == 0` or `chunk_size == 0`.
    pub fn new(items: usize, workers: usize, chunk_size: usize) -> Self {
        assert!(workers > 0, "scheduler needs at least one worker");
        assert!(chunk_size > 0, "chunk size must be positive");
        let mut queues: Vec<VecDeque<Chunk>> = (0..workers).map(|_| VecDeque::new()).collect();
        let mut chunks = 0;
        let per_worker = items.div_ceil(workers);
        for (w, queue) in queues.iter_mut().enumerate() {
            let slab_start = (w * per_worker).min(items);
            let slab_end = ((w + 1) * per_worker).min(items);
            let mut start = slab_start;
            while start < slab_end {
                let end = (start + chunk_size).min(slab_end);
                queue.push_back(Chunk { start, end });
                chunks += 1;
                start = end;
            }
        }
        Self {
            queues: queues.into_iter().map(Mutex::new).collect(),
            chunks,
            chunk_size,
            steals: AtomicU64::new(0),
            dispatched: AtomicU64::new(0),
            cancelled: AtomicBool::new(false),
        }
    }

    /// Total chunks dealt at construction.
    pub fn chunk_count(&self) -> usize {
        self.chunks
    }

    /// The chunk size used at construction.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Chunks obtained by stealing so far.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Discards all still-queued work: the scheduler stops dealing chunks —
    /// own-deque pops and steals alike return `None` from now on.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Has the scheduler been cancelled?
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Chunks dealt at construction but never dispatched because a
    /// cancellation discarded them. Meaningful once the workers have
    /// drained (after the caller's thread scope ends).
    pub fn chunks_cancelled(&self) -> u64 {
        self.chunks as u64 - self.dispatched.load(Ordering::Acquire)
    }

    /// Worker `w`'s deque.
    fn queue(&self, w: usize) -> MutexGuard<'_, VecDeque<Chunk>> {
        lock(&self.queues[w])
    }

    /// Fetches the next chunk for `worker`: the front of its own deque,
    /// or — once that is empty — the back of the fullest other deque.
    /// Returns `None` when every deque is empty or a cancellation has
    /// discarded the remaining work.
    ///
    /// # Panics
    /// Panics if `worker` is out of range.
    pub fn next(&self, worker: usize) -> Option<Chunk> {
        if self.is_cancelled() {
            return None;
        }
        if let Some(chunk) = self.queue(worker).pop_front() {
            self.dispatched.fetch_add(1, Ordering::AcqRel);
            return Some(chunk);
        }
        // Own deque drained: steal from the back of the fullest victim so
        // the victim keeps the locality run at the front of its queue.
        loop {
            // Stealing also respects cancellation — a straggler's backlog
            // is exactly the work a cancellation makes redundant.
            if self.is_cancelled() {
                return None;
            }
            let mut best: Option<(usize, usize)> = None;
            for (v, queue) in self.queues.iter().enumerate() {
                if v == worker {
                    continue;
                }
                let len = lock(queue).len();
                if len > 0 && best.is_none_or(|(_, blen)| len > blen) {
                    best = Some((v, len));
                }
            }
            let (victim, _) = best?;
            // The victim may have been drained between the scan and this
            // lock; retry the scan in that case.
            if let Some(chunk) = self.queue(victim).pop_back() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                self.dispatched.fetch_add(1, Ordering::AcqRel);
                return Some(chunk);
            }
        }
    }
}

/// Locks a deque, poisoned or not: a deque is a list of chunk ranges and
/// every operation on it is one `pop` or `len`, so a worker that panicked
/// while holding the lock left it consistent. The panic itself reaches the
/// caller through the scope's join, with its own payload.
fn lock<T>(queue: &Mutex<T>) -> MutexGuard<'_, T> {
    queue.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn drain_all(sched: &ChunkScheduler, worker: usize) -> Vec<Chunk> {
        std::iter::from_fn(|| sched.next(worker)).collect()
    }

    #[test]
    fn covers_every_task_exactly_once() {
        for (items, workers, chunk) in [(100, 4, 8), (7, 3, 2), (1, 1, 1), (64, 8, 64)] {
            let sched = ChunkScheduler::new(items, workers, chunk);
            let mut seen = BTreeSet::new();
            for c in drain_all(&sched, 0) {
                for p in c.start..c.end {
                    assert!(seen.insert(p), "task {p} dealt twice");
                }
            }
            assert_eq!(seen.len(), items);
            assert_eq!(seen.first().copied(), (items > 0).then_some(0));
            assert_eq!(seen.last().copied(), items.checked_sub(1));
        }
    }

    #[test]
    fn zero_tasks_yield_nothing() {
        let sched = ChunkScheduler::new(0, 4, 16);
        assert_eq!(sched.next(2), None);
        assert_eq!(sched.chunk_count(), 0);
    }

    #[test]
    fn chunks_respect_size_bound() {
        let sched = ChunkScheduler::new(1000, 3, 16);
        for c in drain_all(&sched, 1) {
            assert!(c.len() <= 16 && !c.is_empty());
        }
    }

    #[test]
    fn stealing_kicks_in_when_own_queue_is_empty() {
        let sched = ChunkScheduler::new(64, 2, 4);
        // Worker 1 drains everything, including worker 0's share.
        let got = drain_all(&sched, 1);
        assert_eq!(got.iter().map(Chunk::len).sum::<usize>(), 64);
        assert!(sched.steals() > 0, "expected steals, got none");
    }

    #[test]
    fn own_chunks_come_in_order() {
        let sched = ChunkScheduler::new(32, 2, 4);
        let mut prev = None;
        while let Some(c) = sched.next(0) {
            if sched.steals() > 0 {
                break; // once stealing starts, order is no longer local
            }
            if let Some(p) = prev {
                assert!(c.start >= p, "own chunks must advance");
            }
            prev = Some(c.end);
        }
    }

    #[test]
    fn cancellation_discards_remaining_chunks() {
        let sched = ChunkScheduler::new(64, 2, 4); // 16 chunks
        assert!(sched.next(0).is_some());
        assert!(sched.next(1).is_some());
        assert!(!sched.is_cancelled());
        sched.cancel();
        assert!(sched.is_cancelled());
        // Own-deque pops and steals both stop.
        assert_eq!(sched.next(0), None);
        assert_eq!(sched.next(1), None);
        assert_eq!(sched.chunks_cancelled(), 14);
        assert_eq!(sched.steals(), 0);
    }

    #[test]
    fn full_drain_cancels_nothing() {
        let sched = ChunkScheduler::new(100, 3, 7);
        let n = drain_all(&sched, 0).len() as u64;
        assert_eq!(sched.chunks_cancelled(), 0);
        assert_eq!(n, sched.chunk_count() as u64);
    }

    #[test]
    fn concurrent_drain_is_exact() {
        let sched = ChunkScheduler::new(500, 4, 8);
        let counts: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|w| {
                    let sched = &sched;
                    s.spawn(move || drain_all(sched, w).iter().map(Chunk::len).sum::<usize>())
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        assert_eq!(counts.iter().sum::<usize>(), 500);
    }
}
