//! **tfm-pool** — the scoped worker pool underneath every parallel stage
//! of the reproduction.
//!
//! PR 1/PR 2 grew a worker pool inside `tfm-exec` for the join phase only.
//! Index building is just as data-parallel (the STR passes, element-page
//! encoding and the connectivity self-join all decompose into independent
//! tasks), but `tfm-exec` sits *above* the core crate in the dependency
//! graph, so the pool had to move down. This crate is that extraction: the
//! machinery with no join-specific policy, re-exported as `tfm_exec::pool`
//! for the join path and consumed directly by `tfm-partition` and the
//! core's `IndexBuildPipeline`.
//!
//! Three pieces:
//!
//! * [`ChunkScheduler`] — deals contiguous index chunks to per-worker
//!   deques (static sharding), with stealing from the back of the fullest
//!   victim once a worker's own deque drains, and a
//!   [`cancel`](ChunkScheduler::cancel) switch that discards all queued work
//!   (the join path's prune announcements);
//! * [`StagePool`] — spawn-scoped workers ([`StagePool::scoped_run`]) and
//!   deterministic data-parallel combinators on top of them:
//!   [`map`](StagePool::map) / [`map_range`](StagePool::map_range) /
//!   [`map_owned`](StagePool::map_owned) return outputs in **input order**
//!   regardless of thread count or scheduling, which is what lets the
//!   parallel index build produce byte-identical pages;
//! * [`StagePool::sort_by`] — a parallel **stable** merge sort whose result
//!   is identical to `slice::sort_by` (stable sorts have a unique output),
//!   so the pooled STR x-pass — which sorts `(key, index)` pairs with it
//!   and then permutes the elements — reproduces the sequential
//!   partitioner exactly.
//!
//! Everything runs on `std::thread::scope` — workers borrow their inputs,
//! no `'static` bounds, no channels, and the pool itself is just a thread
//! count: constructing one is free, so every stage can own its own.

#![warn(missing_docs)]

mod scheduler;

pub use scheduler::{Chunk, ChunkScheduler};

use std::cmp::Ordering;
use std::sync::Mutex;

/// A fixed-width scoped worker pool: `threads` workers are spawned per
/// stage invocation and joined before the call returns.
///
/// All combinators are **deterministic**: their results depend only on the
/// inputs, never on thread count or interleaving. A pool of one thread
/// runs everything inline on the caller's thread with no scheduler
/// overhead, so `StagePool::sequential()` is the exact sequential code
/// path, not a degenerate parallel one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagePool {
    threads: usize,
}

impl StagePool {
    /// A pool of `threads` workers (`0` is clamped to 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The single-threaded pool: combinators run inline on the caller.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True if the pool runs everything inline (one worker).
    pub fn is_sequential(&self) -> bool {
        self.threads == 1
    }

    /// Chunk size used by the map combinators: several chunks per worker
    /// for steal granularity, capped so tiny inputs are not shredded.
    fn chunk_size(&self, items: usize) -> usize {
        (items / (self.threads * 8)).clamp(1, 1024)
    }

    /// Spawns one scoped worker per thread, runs `f(worker_index)` on each,
    /// and returns the results **in worker order** (the deterministic merge
    /// the parallel join's per-worker buffers rely on).
    ///
    /// # Panics
    /// Propagates a panic from any worker.
    pub fn scoped_run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.is_sequential() {
            return vec![f(0)];
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads)
                .map(|w| {
                    let f = &f;
                    scope.spawn(move || f(w))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    // Re-raise with the original payload so a worker's
                    // assertion message is not lost behind a generic one.
                    h.join()
                        .unwrap_or_else(|err| std::panic::resume_unwind(err))
                })
                .collect()
        })
    }

    /// Applies `f` to every index in `0..count` across the pool and returns
    /// the outputs in index order.
    ///
    /// Work is dealt through a [`ChunkScheduler`] (contiguous chunks, steal
    /// on drain); each worker tags its output runs with their start index,
    /// and the runs are stitched back in order after the scope joins.
    pub fn map_range<R, F>(&self, count: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.is_sequential() || count <= 1 {
            return (0..count).map(f).collect();
        }
        let scheduler = ChunkScheduler::new(count, self.threads, self.chunk_size(count));
        let per_worker: Vec<Vec<(usize, Vec<R>)>> = self.scoped_run(|w| {
            let mut runs = Vec::new();
            while let Some(chunk) = scheduler.next(w) {
                let run: Vec<R> = (chunk.start..chunk.end).map(&f).collect();
                runs.push((chunk.start, run));
            }
            runs
        });
        let mut tagged: Vec<(usize, Vec<R>)> = per_worker.into_iter().flatten().collect();
        tagged.sort_unstable_by_key(|(start, _)| *start);
        let mut out = Vec::with_capacity(count);
        for (_, run) in tagged {
            out.extend(run);
        }
        debug_assert_eq!(out.len(), count);
        out
    }

    /// Applies `f` to every element of `items` across the pool; outputs
    /// come back in input order.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_range(items.len(), |i| f(i, &items[i]))
    }

    /// Consuming map: every task in `tasks` is handed to exactly one worker
    /// (by value); outputs come back in input order. Used for fanning out
    /// owned work items such as STR slabs.
    pub fn map_owned<T, R, F>(&self, tasks: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        if self.is_sequential() || tasks.len() <= 1 {
            return tasks
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(i, t))
                .collect();
        }
        let slots: Vec<Mutex<Option<T>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        self.map_range(slots.len(), |i| {
            let task = slots[i]
                .lock()
                .expect("task slot poisoned")
                .take()
                .expect("task taken twice");
            f(i, task)
        })
    }

    /// Sorts `items` with a parallel **stable** merge sort; the result is
    /// identical to `items.sort_by(cmp)` for any thread count (a stable
    /// sort's output is unique), so callers may switch freely between the
    /// two.
    pub fn sort_by<T, F>(&self, items: &mut Vec<T>, cmp: F)
    where
        T: Send,
        F: Fn(&T, &T) -> Ordering + Sync,
    {
        let n = items.len();
        // Below ~2 items per worker the split is pure overhead.
        if self.is_sequential() || n < self.threads * 2 {
            items.sort_by(cmp);
            return;
        }
        // Split into `threads` contiguous runs, stable-sort each in
        // parallel, then merge adjacent runs pairwise (left-biased merge
        // keeps stability). Each merge round's pairs are independent, so
        // the rounds fan out over the pool too — without this the O(n)
        // merge passes would serialize on the caller and cap the sort's
        // scaling (Amdahl).
        let run_len = n.div_ceil(self.threads);
        let mut runs: Vec<Vec<T>> = Vec::with_capacity(self.threads);
        let mut rest = std::mem::take(items);
        while rest.len() > run_len {
            let tail = rest.split_off(run_len);
            runs.push(rest);
            rest = tail;
        }
        runs.push(rest);
        let mut runs: Vec<Vec<T>> = self.map_owned(runs, |_, mut run| {
            run.sort_by(&cmp);
            run
        });
        while runs.len() > 1 {
            let mut pairs: Vec<(Vec<T>, Option<Vec<T>>)> =
                Vec::with_capacity(runs.len().div_ceil(2));
            let mut it = runs.into_iter();
            while let Some(left) = it.next() {
                pairs.push((left, it.next()));
            }
            runs = self.map_owned(pairs, |_, (left, right)| match right {
                Some(right) => merge_stable(left, right, &cmp),
                None => left,
            });
        }
        *items = runs.pop().unwrap_or_default();
    }
}

/// Merges two sorted runs, taking from `left` on ties (stability).
fn merge_stable<T, F>(left: Vec<T>, right: Vec<T>, cmp: &F) -> Vec<T>
where
    F: Fn(&T, &T) -> Ordering,
{
    let mut out = Vec::with_capacity(left.len() + right.len());
    let mut l = left.into_iter().peekable();
    let mut r = right.into_iter().peekable();
    loop {
        match (l.peek(), r.peek()) {
            (Some(a), Some(b)) => {
                if cmp(a, b) == Ordering::Greater {
                    out.push(r.next().expect("peeked"));
                } else {
                    out.push(l.next().expect("peeked"));
                }
            }
            (Some(_), None) => {
                out.extend(l);
                break;
            }
            (None, _) => {
                out.extend(r);
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = StagePool::new(0);
        assert_eq!(pool.threads(), 1);
        assert!(pool.is_sequential());
    }

    #[test]
    fn scoped_run_returns_worker_order() {
        for threads in [1, 2, 4, 7] {
            let pool = StagePool::new(threads);
            let got = pool.scoped_run(|w| w * 10);
            let expected: Vec<usize> = (0..threads).map(|w| w * 10).collect();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn map_range_is_in_order_at_any_thread_count() {
        for threads in [1, 2, 3, 8] {
            let pool = StagePool::new(threads);
            let got = pool.map_range(1000, |i| i * i);
            let expected: Vec<usize> = (0..1000).map(|i| i * i).collect();
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn map_borrows_inputs() {
        let items: Vec<String> = (0..100).map(|i| format!("item{i}")).collect();
        let pool = StagePool::new(4);
        let got = pool.map(&items, |i, s| format!("{i}:{s}"));
        assert_eq!(got.len(), 100);
        assert_eq!(got[42], "42:item42");
    }

    #[test]
    fn map_owned_consumes_each_task_exactly_once() {
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Vec<u32>> = (0..50).map(|i| vec![i; 3]).collect();
        let pool = StagePool::new(4);
        let got = pool.map_owned(tasks, |i, t| {
            counter.fetch_add(1, AtomicOrdering::Relaxed);
            (i, t.len())
        });
        assert_eq!(counter.load(AtomicOrdering::Relaxed), 50);
        for (i, (idx, len)) in got.iter().enumerate() {
            assert_eq!((i, 3), (*idx, *len));
        }
    }

    #[test]
    fn map_range_empty_and_single() {
        let pool = StagePool::new(4);
        assert!(pool.map_range(0, |i| i).is_empty());
        assert_eq!(pool.map_range(1, |i| i + 5), vec![5]);
    }

    #[test]
    fn parallel_sort_matches_sequential_stable_sort() {
        // Sort by a *non-unique* key so stability is observable through the
        // unique payload.
        let mut rng = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let items: Vec<(u64, u64)> = (0..10_000).map(|i| (next() % 97, i)).collect();
        let mut expected = items.clone();
        expected.sort_by_key(|a| a.0);
        for threads in [2, 3, 4, 8] {
            let mut got = items.clone();
            StagePool::new(threads).sort_by(&mut got, |a, b| a.0.cmp(&b.0));
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_sort_tiny_inputs() {
        let pool = StagePool::new(8);
        let mut v: Vec<u32> = vec![];
        pool.sort_by(&mut v, |a, b| a.cmp(b));
        assert!(v.is_empty());
        let mut v = vec![3u32, 1, 2];
        pool.sort_by(&mut v, |a, b| a.cmp(b));
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn merge_stable_prefers_left_on_ties() {
        let left = vec![(1, 'l'), (2, 'l')];
        let right = vec![(1, 'r'), (3, 'r')];
        let got = merge_stable(left, right, &|a: &(i32, char), b: &(i32, char)| {
            a.0.cmp(&b.0)
        });
        assert_eq!(got, vec![(1, 'l'), (1, 'r'), (2, 'l'), (3, 'r')]);
    }
}
