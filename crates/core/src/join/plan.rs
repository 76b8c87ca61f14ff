//! Planning a window (paper Alg. 2, §V–§VI).
//!
//! Everything that decides what a node-level pivot reads — walk, ratio,
//! crawl, to-do-list pruning, prefilter — works on descriptors alone, so
//! the join plans a *window* of consecutive pivots, every pivot up to the
//! next layout transformation, before it reads any element page. The plan
//! is a value, [`WindowPlan`]: the window's pivots with their guide units
//! and follower candidates, the window's distinct follower pages in the
//! ascending order the sweep reads them, and for each page the last
//! planned pivot that needs it; its distinct guide pages, in the ascending
//! order of the guide pass, and which switched pivot collects which. One
//! pivot's candidates start behind where the previous pivot's ended, in the
//! same few slabs of the follower's STR order; read per pivot, three
//! quarters of the modelled device time was repositioning between those
//! runs.
//!
//! Planning writes nothing a later decision reads: the board's covers and
//! the cost model's comparison timings are left to [`run`](super::run),
//! and so is `checked`, but at a role switch. A switch claims its follower
//! node on the board and plans it into the open window as a *switched*
//! pivot, whose own units are the window follower's pages and whose
//! candidates are the window guide's. The pivots planned before it are
//! marked `checked` then, and the switched pivot as soon as it is queued:
//! its to-do-list filter, and every plan after it, see the marks a
//! pivot-at-a-time join would have left by then. Sealing puts a switched
//! pivot after the first normal pivot whose guide read passes its last
//! candidate, so it runs later than its place in the plan.

use super::{vol, Ctx, PivotEngine, Side};
use crate::descriptor::{NodeId, SpaceUnitDesc, UnitId};
use std::ops::Range;
use std::time::Instant;

/// One planned node-level pivot: what its join reads, as ranges into the
/// plan's flat vectors. Both are empty when the exploration left nothing
/// to join.
pub(super) struct PlannedPivot {
    pub(super) ng: usize,
    /// A role-switched pivot: `ng` is a node of the window's follower, its
    /// guide units wait in slots and its candidates are units of the
    /// window's guide.
    pub(super) switched: bool,
    pub(super) guide_units: Range<usize>,
    pub(super) candidates: Range<usize>,
    /// Set when the plan is sealed: the pivot can run once the sweep has
    /// passed the first `last` entries of [`WindowPlan::pages`].
    pub(super) last: usize,
    /// Set when the plan is sealed: the pivot joins once the guide pass has
    /// read the first `due` entries of [`WindowPlan::reads`].
    pub(super) due: usize,
    /// Set when the plan is sealed, for a switched pivot: the sweep's
    /// buffer its candidates' elements are collected into.
    pub(super) collected: usize,
}

impl PlannedPivot {
    /// The window-follower units the pivot waits for, out of the plan's
    /// `guide_units` and `candidates`: its candidates, or a switched
    /// pivot's own units.
    pub(super) fn waits<'p>(
        &self,
        guide_units: &'p [UnitId],
        candidates: &'p [UnitId],
    ) -> &'p [UnitId] {
        if self.switched {
            &guide_units[self.guide_units.clone()]
        } else {
            &candidates[self.candidates.clone()]
        }
    }

    /// The window-guide units the pivot reads, in ascending page order: its
    /// guide units, or a switched pivot's candidates.
    pub(super) fn reads<'p>(
        &self,
        guide_units: &'p [UnitId],
        candidates: &'p [UnitId],
    ) -> &'p [UnitId] {
        if self.switched {
            &candidates[self.candidates.clone()]
        } else {
            &guide_units[self.guide_units.clone()]
        }
    }
}

/// Consecutive node-level pivots of one guide, planned from descriptors
/// alone and not yet run, with the follower and guide pages they read. The
/// vectors are reused by every window of one engine, so a join allocates
/// for its largest window once; only `pivots` is rebuilt, in run order, by
/// each seal.
#[derive(Default)]
pub(super) struct WindowPlan {
    /// The planned pivots, in plan order; once sealed, in run order.
    pub(super) pivots: Vec<PlannedPivot>,
    /// The planned pivots' surviving guide units: the pivot's own, on the
    /// window follower's side for a switched pivot.
    pub(super) guide_units: Vec<UnitId>,
    /// The planned pivots' surviving candidates, each pivot's range in
    /// ascending page order: units of the window guide for a switched
    /// pivot.
    pub(super) candidates: Vec<UnitId>,
    /// The distinct window-follower units the pivots wait for — a pivot's
    /// candidates, a switched pivot's guide units — one page each; in
    /// ascending page order — the sweep's — once the plan is sealed.
    pub(super) pages: Vec<UnitId>,
    /// Per entry of `pages`, once sealed: the last planned pivot that
    /// needs it.
    pub(super) last_use: Vec<usize>,
    /// One entry per follower unit: `u` is in the plan iff
    /// `pages[at[u]] == u` (a sparse set, so a new window clears nothing).
    /// Once sealed, it is the index of `u`'s page in `pages`.
    pub(super) at: Vec<u32>,
    /// Once sealed: the guide pass, the distinct window-guide units the
    /// pivots read — a pivot's guide units, a switched pivot's candidates —
    /// in ascending page order.
    pub(super) reads: Vec<UnitId>,
    /// Once sealed: `(entry of reads, collected buffer)` for each candidate
    /// of a switched pivot, in the guide pass's order.
    pub(super) collects: Vec<(u32, u32)>,
}

impl WindowPlan {
    /// Queues pivot `ng` with the units planned past `g0` / `c0`, and takes
    /// in the pages it waits for that the plan does not have yet.
    pub(super) fn queue(&mut self, ng: usize, g0: usize, c0: usize, switched: bool) {
        let p = PlannedPivot {
            ng,
            switched,
            guide_units: g0..self.guide_units.len(),
            candidates: c0..self.candidates.len(),
            last: 0,
            due: 0,
            collected: 0,
        };
        for &u in p.waits(&self.guide_units, &self.candidates) {
            let at = &mut self.at[u.0 as usize];
            if self.pages.get(*at as usize) != Some(&u) {
                *at = self.pages.len() as u32;
                self.pages.push(u);
            }
        }
        self.pivots.push(p);
    }

    /// Puts the follower pages in sweep order and the guide pages in the
    /// guide pass's — ascending page, over the follower's `units` and the
    /// guide's `guide_units` — puts the pivots in run order, and records
    /// who needs which page.
    ///
    /// A normal pivot joins once the pass has read its last guide unit. A
    /// switched pivot runs right after the first normal pivot, at or after
    /// its place in the plan, whose read passes its last candidate, or at
    /// the window's end; a page only switched pivots need is read in
    /// passing. So no guide page is read twice in a window.
    pub(super) fn seal(&mut self, units: &[SpaceUnitDesc], guide_units: &[SpaceUnitDesc]) {
        self.pages
            .sort_unstable_by_key(|u| units[u.0 as usize].page);
        for (i, u) in self.pages.iter().enumerate() {
            self.at[u.0 as usize] = i as u32;
        }

        let page = |u: &UnitId| guide_units[u.0 as usize].page;
        // The normal pivots' units first, then each switched pivot's
        // candidates: a few ascending runs, which a stable sort merges.
        self.reads.clear();
        for switched in [false, true] {
            for p in self.pivots.iter().filter(|p| p.switched == switched) {
                self.reads
                    .extend_from_slice(p.reads(&self.guide_units, &self.candidates));
            }
        }
        self.reads.sort_by_key(page);
        self.reads.dedup();
        let reads = &self.reads;
        let entry = |u: &UnitId| reads.partition_point(|r| page(r) < page(u));
        self.collects.clear();
        let mut collected = 0;
        for p in &mut self.pivots {
            let read = p.reads(&self.guide_units, &self.candidates);
            p.due = read.last().map_or(0, |u| entry(u) + 1);
            if p.switched {
                p.collected = collected;
                let b = collected as u32;
                self.collects
                    .extend(read.iter().map(|u| (entry(u) as u32, b)));
                collected += 1;
            }
        }
        self.collects.sort_unstable();

        // Run order: each switched pivot waits behind the normal pivots
        // until one has passed its `due`.
        let mut waiting = Vec::new();
        let mut passed = 0;
        for p in std::mem::take(&mut self.pivots) {
            if p.switched && p.due > passed {
                waiting.push(p);
                continue;
            }
            if !p.switched {
                passed = passed.max(p.due);
            }
            self.pivots.push(p);
            while let Some(k) = waiting.iter().position(|w| w.due <= passed) {
                self.pivots.push(waiting.remove(k));
            }
        }
        self.pivots.extend(waiting);

        self.last_use.clear();
        self.last_use.resize(self.pages.len(), 0);
        for (i, p) in self.pivots.iter_mut().enumerate() {
            for u in p.waits(&self.guide_units, &self.candidates) {
                let at = self.at[u.0 as usize] as usize;
                self.last_use[at] = i;
                p.last = p.last.max(at + 1);
            }
        }
    }

    /// Empties the plan; the buffers are kept for the next one.
    pub(super) fn clear(&mut self) {
        self.pivots.clear();
        self.guide_units.clear();
        self.candidates.clear();
        self.pages.clear();
    }
}

/// What the exploration decided for one node-level pivot.
pub(super) enum Decision {
    /// Join at node level: the pivot is queued in the plan.
    Queued,
    /// Role transformation, claimed: re-pivot on this follower node.
    SwitchRoles(NodeId),
    /// Layout transformation: descend the pivot to its space units, the
    /// first walk starting from this follower node.
    SplitNode(NodeId),
}

/// `Vec::retain` over `v[from..]`; `v[..from]` is left alone.
fn retain_from<T: Copy>(v: &mut Vec<T>, from: usize, mut keep: impl FnMut(T) -> bool) {
    let mut kept = from;
    for i in from..v.len() {
        let x = v[i];
        if keep(x) {
            v[kept] = x;
            kept += 1;
        }
    }
    v.truncate(kept);
}

impl Ctx<'_> {
    /// The to-do-list filter (§V): drops the units of `candidates[from..]`
    /// whose node has been fully processed as a pivot — by this owner
    /// (`checked`) or, through the board, by any owner. Counts the drops
    /// so adaptivity is observable in the statistics.
    pub(super) fn prune_covered(
        &mut self,
        follower: &Side<'_>,
        follower_is_a: bool,
        candidates: &mut Vec<UnitId>,
        from: usize,
    ) {
        let before = candidates.len() as u64;
        let mut cross = 0u64;
        let todo = self.todo;
        retain_from(candidates, from, |u| {
            let node = follower.units[u.0 as usize].node.0 as usize;
            if follower.checked[node] {
                return false;
            }
            if todo.is_covered(follower_is_a, node) {
                cross += 1;
                return false;
            }
            true
        });
        self.stats.pruned_units += before - candidates.len() as u64;
        self.stats.cross_worker_pruned_units += cross;
    }
}

impl PivotEngine<'_> {
    /// Plans node-level pivot `ng` of the guide from descriptors alone:
    /// walk, transformation decision, crawl, to-do-list filter and page-MBB
    /// prefilter. Reads no element page; a pivot that decides no
    /// transformation is queued in the plan. A `switched` pivot — planned
    /// with the roles swapped, into the window of the other orientation —
    /// switches no further.
    pub(super) fn plan_node_pivot(&mut self, ng: usize, switched: bool) -> Decision {
        let t0 = Instant::now();
        let (g0, c0) = (self.plan.guide_units.len(), self.plan.candidates.len());
        let decision = 'plan: {
            let pivot_box = self.guide.nodes[ng].page_mbb;
            if pivot_box.is_empty() {
                break 'plan Decision::Queued;
            }
            let (ctx, guide, follower) = (&mut self.ctx, &self.guide, &mut self.follower);
            // The walk's cold start reads the B+-tree through the
            // follower's page cache, so tree pages share frames with
            // element pages.
            let Some(nf) = follower.explorer.locate(&mut follower.cache, &pivot_box) else {
                break 'plan Decision::Queued;
            };

            // Transformation decision (§VI): compare pivot-local tile
            // volumes. Both indexes pack the same number of elements per
            // node, so the tile volume ratio reflects the inverse local
            // density ratio.
            let ratio = vol(&guide.nodes[ng].tile) / vol(&follower.nodes[nf.0 as usize].tile);
            if !switched
                && ctx.cost.should_switch_roles(ratio)
                && !follower.checked[nf.0 as usize]
                && ctx.todo.try_claim(!self.guide_is_a, nf.0 as usize)
            {
                break 'plan Decision::SwitchRoles(nf);
            }
            if ctx.cost.should_split_node(ratio) {
                break 'plan Decision::SplitNode(nf);
            }

            // No transformation: coarse-grained join of the whole node. The
            // crawl puts the pivot's candidates in ascending page order, as
            // when pivots read for themselves: the kernel sees the same
            // follower elements in the same order whatever the window.
            let candidates = &mut self.plan.candidates;
            follower.explorer.crawl(&pivot_box, nf, candidates);

            // To-do-list filter (§V): pairs against already-covered
            // follower nodes were produced when those nodes were pivots —
            // drop their units.
            ctx.prune_covered(follower, !self.guide_is_a, candidates, c0);
            if candidates.len() == c0 {
                break 'plan Decision::Queued;
            }

            // Node-level prefilter (§V "In-memory Join"): join the page MBBs
            // of the guide's units with the follower candidates; only
            // surviving pages are read.
            let guide_units = &mut self.plan.guide_units;
            guide_units.extend(guide.nodes[ng].unit_range().map(|u| guide.units[u].id));
            let considered = (guide_units.len() - g0 + candidates.len() - c0) as u64;
            ctx.follower_hit.clear();
            ctx.follower_hit.resize(candidates.len() - c0, false);
            retain_from(guide_units, g0, |gu| {
                let gbox = guide.units[gu.0 as usize].page_mbb;
                let mut any = false;
                for (fu, hit) in candidates[c0..].iter().zip(&mut ctx.follower_hit) {
                    ctx.stats.metadata_tests += 1;
                    if gbox.intersects(&follower.units[fu.0 as usize].page_mbb) {
                        any = true;
                        *hit = true;
                    }
                }
                any
            });
            let mut hits = ctx.follower_hit.iter();
            retain_from(candidates, c0, |_| {
                *hits.next().expect("one mark per candidate")
            });
            let filtered = considered - (guide_units.len() - g0 + candidates.len() - c0) as u64;
            ctx.cost.record_filter(filtered, considered);
            Decision::Queued
        };
        if matches!(decision, Decision::Queued) {
            self.plan.queue(ng, g0, c0, switched);
        }
        self.ctx.stats.exploration_overhead += t0.elapsed();
        decision
    }
}
