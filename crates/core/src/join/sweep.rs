//! The sweep: the join's one page reader, and the slots a window's follower
//! pages wait in for the pivots that need them.
//!
//! Every page the join reads — guide, follower, swept, forced, unit- and
//! element-level — goes through [`Sweep::read`], which keeps runs of reads
//! sequential by reading short gaps through from the disk's head. A sealed
//! [`WindowPlan`](super::plan::WindowPlan) is swept once, its distinct
//! follower pages in ascending page order, each copied into a slot of a
//! buffer the engine owns and its pin dropped at once, so no cache frame is
//! held while a window runs. Each planned pivot runs, in the sealed plan's
//! order, as soon as its last page is in; a slot is freed when the last
//! pivot that needs its page has run, so the buffer holds only the pages
//! still needed. The window's guide pages are read the same way, once each
//! in ascending page order, by the guide pass ([`Sweep::pass`]) as the
//! pivots run.

use super::plan::WindowPlan;
use super::{PivotEngine, Side};
use crate::descriptor::UnitId;
use tfm_geom::SpatialElement;
use tfm_storage::{PageId, PageRef};

/// The most follower pages a window holds at once: the cap on its live
/// slots. The sweep copies each page into a slot of the engine's own
/// buffer and drops the pin at once, so the cap is not a share of the
/// cache: a window over an 8-page cache holds as much as one over the
/// default 1 024-page one, and every worker of a parallel join has a
/// window of its own. DESIGN.md has what 1 024 to 4 096 pages measured.
pub(super) const WINDOW_PAGES: usize = 2048;

/// Slots reserved at an engine's first window (2 MiB at 2 KiB pages). The
/// buffer grows once, to [`WINDOW_PAGES`], and only when a window's live
/// pages pass this many: a workload whose windows never need more
/// allocates no more (DESIGN.md has why that matters).
const FIRST_SLOTS: usize = 1024;

/// A plan page that holds no slot: not swept yet, or no longer needed.
pub(super) const NO_SLOT: u32 = u32::MAX;

/// One engine's reader: the read-through rule, the window's slots, the
/// guide pass and the gap page. Its buffers are reused by every window of
/// the engine.
#[derive(Default)]
pub(super) struct Sweep {
    /// The most live slots: the hold, at most one per unit.
    pub(super) cap: usize,
    /// Per entry of the plan's `pages`: the slot of `bytes` holding it, or
    /// [`NO_SLOT`].
    pub(super) slots: Vec<u32>,
    /// Slots of `bytes` that hold no page.
    pub(super) free: Vec<u32>,
    /// Page-sized slots the sweep copies pages into. Reserved at the first
    /// window, grown at most once, kept for every later one.
    pub(super) bytes: Vec<u8>,
    /// Where read-through pages land: read to move the disk head, then
    /// overwritten.
    gap_page: Vec<u8>,
    /// Pages read through, by every read of the engine.
    pub(super) read_through: u64,
    /// The guide pass: entries of the plan's `reads` read so far in this
    /// window.
    passed: usize,
    /// Entries of the plan's `collects` handed to their collections so far.
    handed: usize,
    /// Per switched pivot of the window: its candidates' elements, in the
    /// pass's order, collected as the pass reads their pages.
    pub(super) collected: Vec<Vec<SpatialElement>>,
    /// What each window read, for the tests to hold against its plan.
    #[cfg(test)]
    trace: Vec<tests::SweptWindow>,
}

impl Sweep {
    /// The join's one page read: pins the page of `side`'s `unit` through
    /// `side`'s cache and returns the pin, for the caller to copy out of
    /// and drop. When the page is missing and at most the device's break-even ahead of the
    /// disk's head ([`tfm_storage::Disk::head`],
    /// [`tfm_storage::DiskModel::read_through_gap`]), the gap pages are
    /// read first, so that the run stays sequential: that costs less than
    /// the skip. They go past the cache into the gap page — nobody asked
    /// for them, so they evict nothing, count as no one's miss, and what
    /// the cache holds afterwards depends only on what was asked for.
    /// Under the parallel join the head is the disk's one head, which every
    /// worker moves, so whether a gap is read through depends on how the
    /// workers' reads interleave.
    pub(super) fn read(&mut self, side: &mut Side<'_>, unit: UnitId) -> PageRef {
        let (disk, page) = (side.disk, side.units[unit.0 as usize].page);
        if !side.cache.cache().is_resident(page) {
            if let Some(head) = disk.head() {
                let gap = head.0 + 1..page.0;
                if !gap.is_empty() && gap.end - gap.start <= disk.model().read_through_gap() {
                    self.read_through += gap.end - gap.start;
                    self.gap_page.resize(disk.page_size(), 0);
                    for g in gap {
                        disk.read_page(PageId(g), &mut self.gap_page);
                    }
                }
            }
        }
        side.cache.pin(page)
    }

    /// Appends the elements of `side`'s `unit`, read by [`Sweep::read`],
    /// to `out`.
    pub(super) fn read_unit(
        &mut self,
        side: &mut Side<'_>,
        unit: UnitId,
        out: &mut Vec<SpatialElement>,
    ) {
        let page = self.read(side, unit);
        out.extend(side.codec.view(&page).iter());
    }

    /// Advances the window's guide pass over `guide` to the first `to`
    /// entries of `plan`'s `reads`, each read once by [`Sweep::read`], in
    /// ascending page order: a page of `own` (the running pivot's guide
    /// units, each ahead of the pass) goes to `out`, and a switched pivot's
    /// candidate to its collection.
    pub(super) fn pass(
        &mut self,
        guide: &mut Side<'_>,
        plan: &WindowPlan,
        to: usize,
        own: &[UnitId],
        out: &mut Vec<SpatialElement>,
    ) {
        let mut own = own.iter().peekable();
        while self.passed < to {
            let u = plan.reads[self.passed];
            let page = self.read(guide, u);
            let elems = guide.codec.view(&page);
            if own.next_if_eq(&&u).is_some() {
                out.extend(elems.iter());
            }
            while let Some(&(_, b)) = plan
                .collects
                .get(self.handed)
                .filter(|c| c.0 as usize == self.passed)
            {
                self.collected[b as usize].extend(elems.iter());
                self.handed += 1;
            }
            self.passed += 1;
        }
        debug_assert!(own.next().is_none(), "a guide unit behind the pass");
    }

    /// Live slots: those holding a page some pending pivot needs.
    fn live(&self, page_size: usize) -> usize {
        self.bytes.len() / page_size - self.free.len()
    }

    /// A free slot, or a new one while fewer than `cap` exist; `None` when
    /// all `cap` are live. The first new slot reserves
    /// `FIRST_SLOTS.min(cap)`, and the buffer grows once more, to `cap`,
    /// only when those are all live.
    fn take_slot(&mut self, page_size: usize) -> Option<u32> {
        if let Some(slot) = self.free.pop() {
            return Some(slot);
        }
        let made = self.bytes.len() / page_size;
        if made >= self.cap {
            return None;
        }
        if self.bytes.len() == self.bytes.capacity() {
            let room = if made < FIRST_SLOTS {
                FIRST_SLOTS.min(self.cap)
            } else {
                self.cap
            };
            self.bytes.reserve_exact((room - made) * page_size);
        }
        self.bytes.resize((made + 1) * page_size, 0);
        Some(made as u32)
    }
}

impl PivotEngine<'_> {
    /// Seals the plan and sweeps it — one pass over its distinct follower
    /// pages in ascending page order, each read by [`Sweep::read`] into a
    /// free slot — running each planned pivot as soon as its last page is
    /// in. A page whose pivots have all run is not read at all. Leaves the
    /// plan empty and no frame pinned.
    ///
    /// At most the hold's slots are live at once. When all are and the
    /// sweep needs one more, the next pivot runs at once: it reads what it
    /// still lacks through the cache by the same rule, in ascending order,
    /// and those reads are counted in `forced_pages`. A window of one pivot
    /// (say a range of one given to [`PivotEngine::process_pivots`]) holds
    /// nothing: its pivot streams through the cache.
    pub(super) fn sweep_window(&mut self) {
        if self.plan.pivots.is_empty() {
            return;
        }
        self.plan.seal(self.follower.units, self.guide.units);
        self.sweep.slots.clear();
        self.sweep.slots.resize(self.plan.pages.len(), NO_SLOT);
        // Each collection sized from the descriptors, so that it is written
        // once and never moved.
        let (plan, guide) = (&self.plan, &self.guide);
        let switched = || plan.pivots.iter().filter(|p| p.switched);
        self.sweep
            .collected
            .resize_with(switched().count(), Vec::new);
        for p in switched() {
            let reads = p.reads(&plan.guide_units, &plan.candidates);
            let count = |u: &UnitId| usize::from(guide.units[u.0 as usize].count);
            self.sweep.collected[p.collected].reserve_exact(reads.iter().map(count).sum());
        }
        (self.sweep.passed, self.sweep.handed) = (0, 0);
        let page_size = self.follower.disk.page_size();
        let stream = self.plan.pivots.len() == 1;
        let (mut next, mut swept) = (0, 0);
        #[cfg(test)]
        self.trace_window(true);
        loop {
            while next < self.plan.pivots.len() && (stream || self.plan.pivots[next].last <= swept)
            {
                self.run(next, false);
                next += 1;
            }
            if swept == self.plan.pages.len() {
                break;
            }
            if self.plan.last_use[swept] < next {
                swept += 1;
                continue;
            }
            let Some(slot) = self.sweep.take_slot(page_size) else {
                self.run(next, true);
                next += 1;
                continue;
            };
            #[cfg(test)]
            let before = self.follower.disk.stats().reads();
            let pin = self.sweep.read(&mut self.follower, self.plan.pages[swept]);
            #[cfg(test)]
            self.trace_demand(swept, before);
            self.sweep.bytes[slot as usize * page_size..][..page_size].copy_from_slice(&pin);
            self.ctx.stats.swept_pages += 1;
            self.sweep.slots[swept] = slot;
            swept += 1;
            let live = self.sweep.live(page_size) as u64;
            self.ctx.stats.window_pages_max = self.ctx.stats.window_pages_max.max(live);
        }
        debug_assert_eq!(self.sweep.passed, self.plan.reads.len());
        self.ctx.stats.windows += u64::from(!self.plan.pages.is_empty());
        #[cfg(test)]
        self.trace_window(false);
        self.plan.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{
        clustered_pair, contrast_pair, neuro_pair, small_index_cfg, uniform_pair,
    };
    use super::super::JoinRun;
    use super::*;
    use crate::config::{JoinConfig, ThresholdPolicy};
    use crate::index::TransformersIndex;
    use std::collections::BTreeSet;
    use std::ops::Range;
    use std::sync::{Arc, Mutex};
    use tfm_storage::{
        Disk, DiskBackendKind, MemStore, PageReads, PageStore, SharedPageCache, DEFAULT_PAGE_SIZE,
    };

    /// One window as the sweep ran it: what its plan held, what the sweep
    /// asked for, and how much the follower and the guide read meanwhile.
    #[derive(Debug)]
    pub(super) struct SweptWindow {
        follower_is_a: bool,
        /// Whether the window's one pivot streamed.
        stream: bool,
        /// Whether the window held a role-switched pivot.
        switched: bool,
        /// The distinct guide pages its pivots read: their guide units, a
        /// switched pivot's candidates.
        guide_pages: u64,
        /// The plan's follower pages, in sweep order.
        pages: Vec<PageId>,
        /// The sweep's reads: the index into `pages`, and the follower disk's
        /// read count before and after.
        demands: Vec<(usize, Range<u64>)>,
        /// [`PivotEngine::trace_counters`] when the window began, and their
        /// change over it.
        start: [u64; 7],
        delta: [u64; 7],
    }

    impl PivotEngine<'_> {
        /// Follower disk reads, follower cache misses, guide disk reads, guide
        /// cache misses, pages read through, forced pages and guide cache
        /// hits, so far.
        fn trace_counters(&self) -> [u64; 7] {
            [
                self.follower.disk.stats().reads(),
                self.follower.cache.counters().misses,
                self.guide.disk.stats().reads(),
                self.guide.cache.counters().misses,
                self.sweep.read_through,
                self.ctx.stats.forced_pages,
                self.guide.cache.counters().hits,
            ]
        }

        /// Opens (`start`) or closes a window of the trace; the plan is sealed.
        pub(super) fn trace_window(&mut self, start: bool) {
            let now = self.trace_counters();
            if start {
                let (units, plan) = (self.follower.units, &self.plan);
                let guide_pages: BTreeSet<_> = plan
                    .pivots
                    .iter()
                    .filter(|p| !p.candidates.is_empty())
                    .flat_map(|p| {
                        let reads = if p.switched {
                            &plan.candidates[p.candidates.clone()]
                        } else {
                            &plan.guide_units[p.guide_units.clone()]
                        };
                        reads.iter().map(|u| self.guide.units[u.0 as usize].page)
                    })
                    .collect();
                self.sweep.trace.push(SweptWindow {
                    follower_is_a: !self.guide_is_a,
                    stream: self.plan.pivots.len() == 1,
                    switched: self.plan.pivots.iter().any(|p| p.switched),
                    guide_pages: guide_pages.len() as u64,
                    pages: self
                        .plan
                        .pages
                        .iter()
                        .map(|u| units[u.0 as usize].page)
                        .collect(),
                    demands: Vec::new(),
                    start: now,
                    delta: [0; 7],
                });
            } else {
                let w = self.sweep.trace.last_mut().expect("an open window");
                w.delta = std::array::from_fn(|i| now[i] - w.start[i]);
            }
        }

        /// Records the sweep's read of the plan's page `at`, begun when the
        /// follower disk had read `before` pages.
        pub(super) fn trace_demand(&mut self, at: usize, before: u64) {
            let after = self.follower.disk.stats().reads();
            let w = self.sweep.trace.last_mut().expect("an open window");
            w.demands.push((at, before..after));
        }
    }

    /// A `MemStore` that logs the page of every read.
    struct RecordingStore {
        inner: MemStore,
        page_size: u64,
        log: ReadLog,
    }

    impl PageStore for RecordingStore {
        fn kind(&self) -> DiskBackendKind {
            self.inner.kind()
        }

        fn read_page(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
            self.log.lock().unwrap().push(offset / self.page_size);
            self.inner.read_page(offset, buf)
        }

        fn write_page(&self, offset: u64, page: &[u8]) -> std::io::Result<()> {
            self.inner.write_page(offset, page)
        }

        fn write_pages(&self, offset: u64, pages: &[u8], page_size: usize) -> std::io::Result<()> {
            self.inner.write_pages(offset, pages, page_size)
        }

        fn len(&self) -> u64 {
            self.inner.len()
        }
    }

    /// The pages a [`RecordingStore`] was asked for, in order.
    type ReadLog = Arc<Mutex<Vec<u64>>>;

    /// Two disks over [`RecordingStore`]s, and their logs.
    fn recording_disks() -> ([Disk; 2], [ReadLog; 2]) {
        let logs: [ReadLog; 2] = Default::default();
        let disks = logs.clone().map(|log| {
            let store = RecordingStore {
                inner: MemStore::new(),
                page_size: DEFAULT_PAGE_SIZE as u64,
                log,
            };
            Disk::with_store(Box::new(store), DEFAULT_PAGE_SIZE)
        });
        (disks, logs)
    }

    #[test]
    fn each_guide_page_is_read_once_per_window() {
        // Thresholds that fire role switches, so that switched pivots read
        // their candidates from the window's guide; a pool that never
        // evicts, so that a page asked for twice is a hit, not a miss.
        let mut switched = 0;
        for (name, (a, b)) in [
            ("uniform", uniform_pair()),
            ("contrast", contrast_pair()),
            ("clustered", clustered_pair()),
            ("neuro", neuro_pair()),
        ] {
            let (disks, logs) = recording_disks();
            let idx_a = TransformersIndex::build(&disks[0], a, &small_index_cfg());
            let idx_b = TransformersIndex::build(&disks[1], b, &small_index_cfg());
            let cfg = JoinConfig {
                pool_pages: 1 << 20,
                ..JoinConfig::default().with_thresholds(ThresholdPolicy::Fixed {
                    t_su: 2.0,
                    t_so: 4.0,
                })
            };
            let caches = disks
                .each_ref()
                .map(|d| SharedPageCache::with_shards(d, cfg.pool_pages, 1));
            let join = JoinRun::new(&idx_a, &caches[0], &idx_b, &caches[1], &cfg);
            let mut engine = join.engine();
            engine.process_pivots(0..join.pivots());
            for (k, w) in engine.sweep.trace.iter().enumerate() {
                let at = format!("{name}, window {k}");
                let [_, _, guide_reads, guide_misses, .., guide_hits] = w.delta;
                assert_eq!(
                    guide_misses + guide_hits,
                    w.guide_pages,
                    "{at}: a guide page asked for twice"
                );
                let log = logs[usize::from(w.follower_is_a)].lock().unwrap();
                let read = &log[w.start[2] as usize..][..guide_reads as usize];
                assert!(
                    read.windows(2).all(|p| p[0] < p[1]),
                    "{at}: the guide disk moved back: {read:?}"
                );
                switched += usize::from(w.switched);
            }
        }
        assert!(switched > 0, "no window held a role-switched pivot");
    }

    #[test]
    fn sweep_reads_exactly_the_pages_its_plan_leaves_it() {
        // Windows seen: all of them, those with a forced pivot, those whose
        // pivot streamed, those where the sweep skipped a page, and those
        // that held a role-switched pivot.
        let mut seen = [0; 5];
        for (name, (a, b)) in [
            ("uniform", uniform_pair()),
            ("contrast", contrast_pair()),
            ("clustered", clustered_pair()),
            ("neuro", neuro_pair()),
        ] {
            let (disks, logs) = recording_disks();
            let idx_a = TransformersIndex::build(&disks[0], a, &small_index_cfg());
            let idx_b = TransformersIndex::build(&disks[1], b, &small_index_cfg());
            for policy in [
                ThresholdPolicy::Fixed {
                    t_su: 2.0,
                    t_so: 4.0,
                },
                ThresholdPolicy::Disabled,
            ] {
                for hold in [1, 64, WINDOW_PAGES] {
                    let cfg = JoinConfig::default().with_thresholds(policy);
                    let caches = disks
                        .each_ref()
                        .map(|d| SharedPageCache::with_shards(d, cfg.pool_pages, 1));
                    let join = JoinRun::new(&idx_a, &caches[0], &idx_b, &caches[1], &cfg);
                    let mut engine = join.engine_holding(hold);
                    engine.process_pivots(0..join.pivots());
                    for (k, w) in engine.sweep.trace.iter().enumerate() {
                        let at = format!("{name}, {policy:?}, hold {hold}, window {k}");
                        let log = logs[usize::from(!w.follower_is_a)].lock().unwrap();
                        let [reads, misses, guide_reads, guide_misses, read_through, forced, _] =
                            w.delta;
                        // Every follower read is a miss of its cache or a gap
                        // page read through: the guide's gap pages aside.
                        let gaps = read_through - (guide_reads - guide_misses);
                        assert_eq!(reads, misses + gaps, "{at}");

                        // The plan's pages are distinct and ascending.
                        assert!(w.pages.windows(2).all(|p| p[0] < p[1]), "{at}");
                        // The sweep asks for the plan's pages in sweep order, and
                        // reads a page it asks for last, right after the gap
                        // pages in front of it — or nothing, when it is resident.
                        let (mut demand_reads, mut demand_gaps) = (0, 0);
                        let mut previous = None;
                        for (j, r) in &w.demands {
                            assert!(previous < Some(*j), "{at}: out of order");
                            previous = Some(*j);
                            let read = &log[r.start as usize..r.end as usize];
                            if let Some((&page, gap)) = read.split_last() {
                                assert_eq!(page, w.pages[*j].0, "{at}");
                                let first = page - gap.len() as u64;
                                assert!(gap.iter().copied().eq(first..page), "{at}: {read:?}");
                                demand_reads += 1;
                                demand_gaps += gap.len() as u64;
                            }
                        }
                        // Whatever else the follower read, a pivot read: one the
                        // sweep could not wait for (counted in forced pages, with
                        // its gap pages), or a window's one pivot, streaming.
                        let other = reads - demand_reads - demand_gaps;
                        let other_gaps = gaps - demand_gaps;
                        if w.stream {
                            assert!(w.demands.is_empty(), "{at}");
                            let read = &log[w.start[0] as usize..][..reads as usize];
                            assert!(read.windows(2).all(|p| p[0] < p[1]), "{at}: {read:?}");
                        } else {
                            assert!(other >= other_gaps && other - other_gaps <= forced, "{at}");
                        }
                        // A page the sweep skips was left to a pivot that read it
                        // itself; without one the sweep asks for every page.
                        if !w.stream && forced == 0 {
                            assert!(w.demands.iter().map(|d| d.0).eq(0..w.pages.len()), "{at}");
                            assert_eq!(other, 0, "{at}");
                        }
                        seen[0] += 1;
                        seen[1] += usize::from(forced > 0);
                        seen[2] += usize::from(w.stream);
                        seen[3] += usize::from(!w.stream && w.demands.len() < w.pages.len());
                        seen[4] += usize::from(w.switched);
                    }
                    let logged = logs.each_ref().map(|l| l.lock().unwrap().len() as u64);
                    assert_eq!(logged, disks.each_ref().map(|d| d.stats().reads()));
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "windows seen {seen:?}");
    }
}
