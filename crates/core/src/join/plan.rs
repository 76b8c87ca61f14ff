//! Planning a window (paper Alg. 2, §V–§VI).
//!
//! Everything that decides what a node-level pivot reads — walk, ratio,
//! crawl, to-do-list pruning, prefilter — works on descriptors alone, so
//! the join plans a *window* of consecutive pivots, every pivot up to the
//! next transformation, before it reads any element page. The plan is a
//! value, [`WindowPlan`]: the window's pivots with their guide units and
//! follower candidates, the window's distinct follower pages in the
//! ascending order the sweep reads them, and for each page the last
//! planned pivot that needs it. One pivot's candidates start behind where
//! the previous pivot's ended, in the same few slabs of the follower's STR
//! order; read per pivot, three quarters of the modelled device time was
//! repositioning between those runs.
//!
//! Planning writes nothing a later decision reads: `checked`, the board's
//! covers and the cost model's comparison timings are all left to
//! [`run`](super::run). A role-switch claim on the board is the one
//! exception, and it closes the window.

use super::{vol, Ctx, PivotEngine, Side};
use crate::descriptor::{NodeId, SpaceUnitDesc, UnitId};
use std::ops::Range;
use std::time::Instant;

/// One planned node-level pivot: what its join reads, as ranges into the
/// plan's flat vectors. Both are empty when the exploration left nothing
/// to join.
pub(super) struct PlannedPivot {
    pub(super) ng: usize,
    pub(super) guide_units: Range<usize>,
    pub(super) candidates: Range<usize>,
    /// Set when the plan is sealed: the pivot can run once the sweep has
    /// passed the first `last` entries of [`WindowPlan::pages`].
    pub(super) last: usize,
}

/// Consecutive node-level pivots of one guide, planned from descriptors
/// alone and not yet run, with the follower pages they read. The vectors
/// are reused by every window of one engine, so a join allocates for its
/// largest window once.
#[derive(Default)]
pub(super) struct WindowPlan {
    pub(super) pivots: Vec<PlannedPivot>,
    /// The planned pivots' surviving guide units.
    pub(super) guide_units: Vec<UnitId>,
    /// The planned pivots' surviving follower candidates, each pivot's
    /// range in ascending page order.
    pub(super) candidates: Vec<UnitId>,
    /// The distinct follower units behind `candidates`, one page each; in
    /// ascending page order — the sweep's — once the plan is sealed.
    pub(super) pages: Vec<UnitId>,
    /// Per entry of `pages`, once sealed: the last planned pivot that
    /// needs it.
    pub(super) last_use: Vec<usize>,
    /// One entry per follower unit: `u` is in the plan iff
    /// `pages[at[u]] == u` (a sparse set, so a new window clears nothing).
    /// Once sealed, it is the index of `u`'s page in `pages`.
    pub(super) at: Vec<u32>,
}

impl WindowPlan {
    /// Queues pivot `ng` with the units planned past `g0` / `c0`, and takes
    /// in the candidate pages the plan does not have yet.
    pub(super) fn queue(&mut self, ng: usize, g0: usize, c0: usize) {
        for &u in &self.candidates[c0..] {
            let at = &mut self.at[u.0 as usize];
            if self.pages.get(*at as usize) != Some(&u) {
                *at = self.pages.len() as u32;
                self.pages.push(u);
            }
        }
        self.pivots.push(PlannedPivot {
            ng,
            guide_units: g0..self.guide_units.len(),
            candidates: c0..self.candidates.len(),
            last: 0,
        });
    }

    /// Puts the pages in sweep order — ascending page, over the follower's
    /// `units` — and records who needs which.
    pub(super) fn seal(&mut self, units: &[SpaceUnitDesc]) {
        self.pages
            .sort_unstable_by_key(|u| units[u.0 as usize].page);
        for (i, u) in self.pages.iter().enumerate() {
            self.at[u.0 as usize] = i as u32;
        }
        self.last_use.clear();
        self.last_use.resize(self.pages.len(), 0);
        for (i, p) in self.pivots.iter_mut().enumerate() {
            for u in &self.candidates[p.candidates.clone()] {
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
    /// transformation is queued in the plan.
    pub(super) fn plan_node_pivot(&mut self, ng: usize, allow_switch: bool) -> Decision {
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
            if allow_switch
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
            self.plan.queue(ng, g0, c0);
        }
        self.ctx.stats.exploration_overhead += t0.elapsed();
        decision
    }
}
