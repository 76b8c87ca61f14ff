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
//! * [`RequestQueue`] — the bounded MPMC queue under the serve tier's
//!   admission edge and under its readahead window.
//!
//! Everything runs on `std::thread::scope` — workers borrow their inputs,
//! no `'static` bounds, no channels, and the pool itself is just a thread
//! count: constructing one is free, so every stage can own its own.

#![warn(missing_docs)]

mod queue;
mod scheduler;

pub use queue::RequestQueue;
pub use scheduler::{Chunk, ChunkScheduler};

use std::sync::{Mutex, PoisonError};

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
        self.map_indexed(count, || (), |_, i| f(i))
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
    ///
    /// Each worker calls `scratch()` once and hands the value to every
    /// task it runs, so a buffer a task needs is allocated once per worker,
    /// not once per task; a sequential pool makes one.
    pub fn map_owned<T, S, R, F>(
        &self,
        tasks: Vec<T>,
        scratch: impl Fn() -> S + Sync,
        f: F,
    ) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(&mut S, usize, T) -> R + Sync,
    {
        let slots: Vec<Mutex<Option<T>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        self.map_indexed(slots.len(), scratch, |s, i| {
            // A slot is a task taken or not: a panic elsewhere cannot leave
            // it half-taken, so a poisoned lock is still a valid one.
            let task = slots[i]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .expect("task taken twice");
            f(s, i, task)
        })
    }

    /// [`map_range`](Self::map_range) with one `scratch()` value per worker
    /// handed to each of its calls of `f`.
    fn map_indexed<S, R, F>(&self, count: usize, scratch: impl Fn() -> S + Sync, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut S, usize) -> R + Sync,
    {
        if self.is_sequential() || count <= 1 {
            let mut s = scratch();
            return (0..count).map(|i| f(&mut s, i)).collect();
        }
        let scheduler = ChunkScheduler::new(count, self.threads, self.chunk_size(count));
        let per_worker: Vec<Vec<(usize, Vec<R>)>> = self.scoped_run(|w| {
            let mut s = scratch();
            let mut runs = Vec::new();
            while let Some(chunk) = scheduler.next(w) {
                let run: Vec<R> = (chunk.start..chunk.end).map(|i| f(&mut s, i)).collect();
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

    /// Runs `a` and `b` and returns both results: `b` on a thread of its
    /// own and `a` on the caller's, unless the pool is sequential, which
    /// runs `a` and then `b` inline.
    ///
    /// # Panics
    /// Propagates a panic from either, with its own payload.
    pub fn join<RA, RB>(
        &self,
        a: impl FnOnce() -> RA + Send,
        b: impl FnOnce() -> RB + Send,
    ) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
    {
        if self.is_sequential() {
            return (a(), b());
        }
        std::thread::scope(|scope| {
            let b = scope.spawn(b);
            let a = a();
            let b = b
                .join()
                .unwrap_or_else(|err| std::panic::resume_unwind(err));
            (a, b)
        })
    }
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
        let got = pool.map_owned(
            tasks,
            || (),
            |_, i, t| {
                counter.fetch_add(1, AtomicOrdering::Relaxed);
                (i, t.len())
            },
        );
        assert_eq!(counter.load(AtomicOrdering::Relaxed), 50);
        for (i, (idx, len)) in got.iter().enumerate() {
            assert_eq!((i, 3), (*idx, *len));
        }
    }

    #[test]
    fn map_owned_makes_one_scratch_per_worker() {
        for threads in [1, 2, 4] {
            let made = AtomicUsize::new(0);
            let pool = StagePool::new(threads);
            let got = pool.map_owned(
                (0..40).collect(),
                || {
                    made.fetch_add(1, AtomicOrdering::Relaxed);
                    Vec::<usize>::new()
                },
                |seen, i, t: usize| {
                    seen.push(t);
                    (i, t)
                },
            );
            assert_eq!(got, (0..40).map(|t| (t, t)).collect::<Vec<_>>());
            assert!(
                made.load(AtomicOrdering::Relaxed) <= threads,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn join_returns_both_results() {
        for threads in [1, 2, 3] {
            let (a, b) = StagePool::new(threads).join(|| 6 * 7, || "b");
            assert_eq!((a, b), (42, "b"));
        }
    }

    #[test]
    fn a_panicking_task_reaches_the_caller_with_its_own_payload() {
        let pool = StagePool::new(2);
        let payload = std::panic::catch_unwind(|| {
            pool.map_range(64, |i| {
                if i == 37 {
                    panic!("task {i} failed");
                }
                i
            })
        })
        .expect_err("the panic must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert_eq!(message, "task 37 failed");
        // The pool holds no state across calls: it works again at once.
        assert_eq!(pool.map_range(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn map_range_empty_and_single() {
        let pool = StagePool::new(4);
        assert!(pool.map_range(0, |i| i).is_empty());
        assert_eq!(pool.map_range(1, |i| i + 5), vec![5]);
    }
}
