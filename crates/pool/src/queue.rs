//! A bounded multi-producer/multi-consumer queue.
//!
//! Two edges of the workspace run on it: the serve tier's admission queue
//! of query batches, and the readahead window of page ids that the serve
//! tier pushes for its prefetch I/O threads (lossy:
//! only [`RequestQueue::try_push`], so a full window drops ids, which are
//! then read on demand). Capacity is fixed at
//! construction; [`RequestQueue::push`] blocks while the queue is full
//! (**backpressure** — a producer that outruns the workers is slowed to
//! their pace instead of growing an unbounded backlog), and
//! [`RequestQueue::try_push`] refuses instead of blocking (**admission
//! control** — a front end that must not stall can shed load and count
//! rejections). [`RequestQueue::close`] ends the stream: blocked
//! producers give up, and consumers drain the remaining items before
//! [`RequestQueue::pop`] returns `None`.
//!
//! Built on `std::sync::{Mutex, Condvar}` — the admission queue holds
//! whole query *batches*, so it is locked a handful of times per thousand
//! queries and needs no lock-free cleverness. A thread that panics while
//! holding the lock leaves the items and the `closed` flag consistent (no
//! method panics between changing one and unlocking), so the queue takes
//! a poisoned lock back and keeps working.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue with blocking and load-shedding producers.
pub struct RequestQueue<T> {
    state: Mutex<QueueState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> RequestQueue<T> {
    /// Creates a queue holding at most `capacity` items (`0` is clamped
    /// to 1 — a queue that can never admit anything deadlocks on first
    /// use).
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Locks the state, taking it back from a panicked holder.
    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue length.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `item`, blocking while the queue is full (backpressure).
    ///
    /// Returns `false` (dropping the item) if the queue was closed.
    pub fn push(&self, item: T) -> bool {
        let mut state = self.lock();
        while state.items.len() >= self.capacity && !state.closed {
            state = self
                .not_full
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if state.closed {
            return false;
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        true
    }

    /// Attempts to enqueue without blocking (admission control).
    ///
    /// Returns the item back to the caller when the queue is full or
    /// closed, so a load-shedding front end can count the rejection.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut state = self.lock();
        if state.closed || state.items.len() >= self.capacity {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, blocking while the queue is empty and
    /// still open. Returns `None` once the queue is closed **and**
    /// drained — the consumer's termination signal.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: producers stop being admitted, consumers drain
    /// the backlog and then observe the end of the stream.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fifo_within_capacity() {
        let q = RequestQueue::new(4);
        assert!(q.push(1));
        assert!(q.push(2));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        q.close();
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn try_push_sheds_load_when_full() {
        let q = RequestQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3)); // full -> rejected, item returned
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok()); // space again
        q.close();
        assert_eq!(q.try_push(4), Err(4)); // closed -> rejected
    }

    #[test]
    fn a_poisoned_lock_is_taken_back() {
        let q = RequestQueue::new(2);
        assert!(q.push(1));
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _guard = q.state.lock().unwrap();
                panic!("holder panics");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(q.state.is_poisoned());
        assert!(q.push(2));
        assert_eq!(q.try_push(3), Err(3), "still bounded");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        q.close();
        assert!(!q.push(4), "closed");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let q = RequestQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert!(q.push(7));
        assert_eq!(q.pop(), Some(7));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = RequestQueue::new(8);
        q.push(1);
        q.push(2);
        q.close();
        assert!(!q.push(3), "push after close must be refused");
        assert_eq!(q.try_push(4), Err(4), "so must try_push");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn backpressure_blocks_until_consumed() {
        // A capacity-1 queue forces the producer to run in lock-step with
        // the consumer: all items still arrive, in order.
        let q = RequestQueue::new(1);
        let produced = AtomicUsize::new(0);
        let consumed = std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..200 {
                    assert!(q.push(i));
                    produced.fetch_add(1, Ordering::Relaxed);
                }
                q.close();
            });
            let handle = s.spawn(|| {
                let mut got = Vec::new();
                while let Some(i) = q.pop() {
                    got.push(i);
                }
                got
            });
            handle.join().expect("consumer panicked")
        });
        assert_eq!(produced.load(Ordering::Relaxed), 200);
        assert_eq!(consumed, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_producers_and_consumers_see_every_id() {
        // Lossy producers, as a readahead feeder pushes: each retries until
        // its id is admitted, and the consumers see every one once.
        let q = RequestQueue::new(8);
        let total = 200u64;
        let seen = std::thread::scope(|s| {
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut got = Vec::new();
                        while let Some(i) = q.pop() {
                            got.push(i);
                        }
                        got
                    })
                })
                .collect();
            let producers: Vec<_> = (0..2u64)
                .map(|p| {
                    let q = &q;
                    s.spawn(move || {
                        for i in (p..total).step_by(2) {
                            while q.try_push(i).is_err() {
                                std::thread::yield_now();
                            }
                        }
                    })
                })
                .collect();
            for p in producers {
                p.join().expect("producer panicked");
            }
            q.close();
            let mut all: Vec<u64> = consumers
                .into_iter()
                .flat_map(|h| h.join().expect("consumer panicked"))
                .collect();
            all.sort_unstable();
            all
        });
        assert_eq!(seen, (0..total).collect::<Vec<_>>());
    }

    #[test]
    fn multiple_consumers_partition_the_stream() {
        let q = RequestQueue::new(4);
        let seen = std::thread::scope(|s| {
            let consumers: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        let mut got = Vec::new();
                        while let Some(i) = q.pop() {
                            got.push(i);
                        }
                        got
                    })
                })
                .collect();
            for i in 0..300 {
                assert!(q.push(i));
            }
            q.close();
            let mut all: Vec<i32> = consumers
                .into_iter()
                .flat_map(|h| h.join().expect("consumer panicked"))
                .collect();
            all.sort_unstable();
            all
        });
        assert_eq!(seen, (0..300).collect::<Vec<_>>());
    }
}
