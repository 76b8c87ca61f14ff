//! The CLOCK (second-chance) frame ring of each shard of
//! [`crate::SharedPageCache`].
//!
//! A ring holds up to `capacity` frames, each caching one page. Lookups
//! set the frame's reference bit; eviction sweeps a clock hand over the
//! ring, clearing reference bits and evicting the first frame whose bit
//! is already clear. Compared to a strict LRU this drops the per-read
//! ordering churn (an LRU keeps ordered maps and a fresh stamp on *every*
//! read) for one boolean store, while approximating the same recency
//! behaviour.
//!
//! The ring is generic over the frame payload: the cache's shards hold
//! pinned (`Arc`-counted) frames, the tests plain integers. Payload-aware
//! eviction is expressed through the `can_evict` predicate of
//! [`ClockRing::insert`]: a frame whose payload is pinned is skipped like
//! a referenced frame. If every frame is pinned, the ring grows one
//! overflow frame beyond `capacity` instead of dead-locking; the ring
//! never shrinks, so the overflow is bounded by the peak number of
//! simultaneously pinned frames.
//!
//! The page map hashes a page id with one multiply and one shift
//! ([`PageIdHasher`]) rather than SipHash: a hit is one lookup, a miss three,
//! and ids come from the ring's own cache, not from an adversary. Nothing
//! iterates the map, so the hasher cannot move an eviction.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One cached page: its id, the CLOCK reference bit, and the payload.
#[derive(Debug)]
pub(crate) struct Frame<T> {
    pub page: u64,
    pub referenced: bool,
    pub payload: T,
}

/// Result of [`ClockRing::insert`]: the slot the caller must fill.
pub(crate) struct Inserted<'a, T> {
    /// The (recycled or fresh) payload now registered under the new page.
    pub payload: &'a mut T,
    /// The page previously held by this frame, when one was evicted.
    pub evicted: Option<u64>,
    /// True when a brand-new frame was allocated (below capacity, or
    /// overflow because every victim candidate was pinned).
    pub fresh: bool,
}

/// A fixed-capacity CLOCK page ring: `page id -> frame` with second-chance
/// eviction.
#[derive(Debug)]
pub(crate) struct ClockRing<T> {
    capacity: usize,
    frames: Vec<Frame<T>>,
    map: HashMap<u64, usize, BuildHasherDefault<PageIdHasher>>,
    hand: usize,
}

/// Multiply-shift hash of a `u64` page id: the multiply spreads the id into
/// the high bits, which pick the map's control bytes, and the shift folds
/// them into the low bits, which pick its bucket. Without the fold, the ids
/// of one cache shard (all congruent modulo the shard count) would share
/// their low bits and crowd into a fraction of the buckets.
#[derive(Default)]
struct PageIdHasher(u64);

impl Hasher for PageIdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the page map hashes u64 page ids only")
    }

    #[inline]
    fn write_u64(&mut self, id: u64) {
        let h = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

impl<T> ClockRing<T> {
    /// Creates an empty ring of `capacity` frames.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a clock ring needs at least one page");
        Self {
            capacity,
            frames: Vec::with_capacity(capacity.min(1024)),
            map: HashMap::with_capacity_and_hasher(capacity.min(1024), Default::default()),
            hand: 0,
        }
    }

    /// Number of resident pages.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True if `page` is resident (does not touch the reference bit).
    pub fn contains(&self, page: u64) -> bool {
        self.map.contains_key(&page)
    }

    /// Payload of a resident page, reference bit untouched.
    pub fn peek(&self, page: u64) -> Option<&T> {
        self.map.get(&page).map(|&i| &self.frames[i].payload)
    }

    /// [`peek`](Self::peek), mutably: for maintenance that is not a use
    /// of the page (a write-back must not make its page look recent).
    pub fn peek_mut(&mut self, page: u64) -> Option<&mut T> {
        let &i = self.map.get(&page)?;
        Some(&mut self.frames[i].payload)
    }

    /// Looks up a resident page, setting its reference bit, and returns
    /// its frame index (for follow-up [`payload_mut`](Self::payload_mut)
    /// access without a second hash probe).
    pub fn find(&mut self, page: u64) -> Option<usize> {
        let &i = self.map.get(&page)?;
        self.frames[i].referenced = true;
        Some(i)
    }

    /// Looks up a resident page, setting its reference bit.
    pub fn get(&mut self, page: u64) -> Option<&mut T> {
        let i = self.find(page)?;
        Some(&mut self.frames[i].payload)
    }

    /// Payload of the frame at `index` (from [`find`](Self::find)).
    pub fn payload_mut(&mut self, index: usize) -> &mut T {
        &mut self.frames[index].payload
    }

    /// Registers `page` in the ring, evicting a victim if at capacity.
    ///
    /// `can_evict` vetoes victims whose payload is externally pinned;
    /// `fresh` allocates a payload for a brand-new frame. The caller must
    /// fill the returned payload with the new page's bytes.
    ///
    /// New frames enter with the reference bit **clear**, so a page read
    /// once and never again is the next eviction candidate — this is what
    /// preserves the scan-resistance the old LRU tests encode.
    pub fn insert(
        &mut self,
        page: u64,
        mut can_evict: impl FnMut(&T) -> bool,
        fresh: impl FnOnce() -> T,
    ) -> Inserted<'_, T> {
        debug_assert!(!self.map.contains_key(&page), "insert of resident page");
        if self.frames.len() < self.capacity {
            return self.push_fresh(page, fresh);
        }
        // Second-chance sweep: clear reference bits as the hand passes;
        // two full revolutions guarantee an unpinned frame is found if one
        // exists (first pass may only clear bits).
        let n = self.frames.len();
        let mut victim = None;
        for _ in 0..2 * n {
            let i = self.hand;
            self.hand = (self.hand + 1) % n;
            let f = &mut self.frames[i];
            if !can_evict(&f.payload) {
                continue;
            }
            if f.referenced {
                f.referenced = false;
                continue;
            }
            victim = Some(i);
            break;
        }
        match victim {
            Some(i) => {
                let evicted = self.frames[i].page;
                self.map.remove(&evicted);
                self.map.insert(page, i);
                let f = &mut self.frames[i];
                f.page = page;
                f.referenced = false;
                Inserted {
                    payload: &mut f.payload,
                    evicted: Some(evicted),
                    fresh: false,
                }
            }
            // Every frame is pinned: grow past capacity rather than spin.
            None => self.push_fresh(page, fresh),
        }
    }

    fn push_fresh(&mut self, page: u64, fresh: impl FnOnce() -> T) -> Inserted<'_, T> {
        let i = self.frames.len();
        self.frames.push(Frame {
            page,
            referenced: false,
            payload: fresh(),
        });
        self.map.insert(page, i);
        Inserted {
            payload: &mut self.frames[i].payload,
            evicted: None,
            fresh: true,
        }
    }

    /// Iterates over every resident frame as `(page id, payload)`.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut T)> {
        self.frames.iter_mut().map(|f| (f.page, &mut f.payload))
    }

    /// Drops every frame for which `keep` returns false, rebuilding the
    /// page map. The clock hand resets. Used by caches that must survive a
    /// `clear()` without losing frames that hold unflushed (dirty) state.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        self.frames.retain(|f| keep(&f.payload));
        self.map.clear();
        for (i, f) in self.frames.iter().enumerate() {
            self.map.insert(f.page, i);
        }
        self.hand = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(capacity: usize) -> ClockRing<u64> {
        ClockRing::new(capacity)
    }

    #[test]
    fn second_chance_prefers_unreferenced_victims() {
        let mut r = ring(2);
        *r.insert(0, |_| true, || 0).payload = 10;
        *r.insert(1, |_| true, || 0).payload = 11;
        // Re-reference page 0; page 1 keeps a clear bit.
        assert_eq!(r.get(0), Some(&mut 10));
        let ins = r.insert(2, |_| true, || 0);
        assert_eq!(ins.evicted, Some(1), "unreferenced page is evicted first");
        assert!(!ins.fresh);
        assert!(r.contains(0));
        assert!(!r.contains(1));
    }

    #[test]
    fn pinned_frames_are_skipped_and_overflow_grows() {
        let mut r = ring(2);
        r.insert(0, |_| true, || 0);
        r.insert(1, |_| true, || 1);
        // Pretend both frames are pinned: insertion must grow the ring.
        let ins = r.insert(2, |_| false, || 2);
        assert!(ins.fresh);
        assert_eq!(ins.evicted, None);
        assert_eq!(r.len(), 3);
        // With pins released the overflow frame becomes a normal victim.
        let ins = r.insert(3, |_| true, || 3);
        assert!(!ins.fresh);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn clear_resets_residency() {
        // The cache's `clear` keeps only dirty frames; with none kept the
        // ring is empty and refills from the start.
        let mut r = ring(2);
        r.insert(0, |_| true, || 7);
        r.insert(1, |_| true, || 8);
        r.retain(|&v| v == 8);
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(1), Some(&mut 8));
        r.retain(|_| false);
        assert_eq!(r.len(), 0);
        assert!(!r.contains(0));
        assert!(r.get(0).is_none());
        assert!(r.insert(0, |_| true, || 9).fresh);
    }

    /// The page ids a cache shard of four sees (all ≡ 1 mod 4), drawn by
    /// SplitMix64 so the trace re-reads some pages and not others.
    fn shard_trace(len: usize) -> Vec<u64> {
        let mut state = 7u64;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) % 12 * 4 + 1
            })
            .collect()
    }

    #[test]
    fn eviction_sequence_is_pinned_under_a_fixed_trace() {
        // Which page leaves, and when, is the ring's alone: the page map's
        // hasher must not move it (this is the sequence the ring gave over
        // std's SipHash map). Pages ≡ 0 mod 3 stay pinned throughout.
        let mut r = ring(4);
        let mut evicted = Vec::new();
        for page in shard_trace(48) {
            if r.get(page).is_none() {
                let ins = r.insert(page, |&p| p % 3 != 0, || page);
                *ins.payload = page;
                evicted.extend(ins.evicted);
            }
        }
        assert_eq!(
            evicted,
            [
                1, 13, 37, 25, 41, 29, 1, 17, 25, 17, 29, 37, 25, 13, 17, 1, 25, 37, 13, 37, 29, 5,
                17, 25, 41, 13
            ]
        );
        assert_eq!(r.len(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_capacity_panics() {
        let _ = ring(0);
    }
}
