//! Running a planned pivot: the in-memory join of one node-level pivot of a
//! window, from the pages the sweep put in slots for it.
//!
//! A pivot runs in plan order and does nothing the plan did not decide: it
//! reads its guide units, takes its follower pages from their slots (or,
//! for a pivot the sweep could not wait for, reads them itself), joins the
//! two in memory, and marks itself done. Marking it done — `checked`, then
//! covered on the board — is what later plans' to-do-list filter sees, so
//! it happens here and never in the plan.

use super::sweep::NO_SLOT;
use super::PivotEngine;

impl PivotEngine<'_> {
    /// Runs planned pivot `i`: fills its two element buffers — a follower
    /// page from its slot, or by [`Sweep::read`](super::sweep::Sweep::read)
    /// when the sweep has given it none (counted in `forced_pages` when
    /// `forced`) — joins them, marks the pivot done and frees the slots no
    /// later pivot needs.
    pub(super) fn run(&mut self, i: usize, forced: bool) {
        let (ctx, plan, sweep) = (&mut self.ctx, &self.plan, &mut self.sweep);
        let p = &plan.pivots[i];
        if !p.candidates.is_empty() {
            ctx.guide_elems.clear();
            for &u in &plan.guide_units[p.guide_units.clone()] {
                sweep.read_unit(&mut self.guide, u, &mut ctx.guide_elems);
            }
            ctx.follower_elems.clear();
            let page_size = self.follower.disk.page_size();
            for &u in &plan.candidates[p.candidates.clone()] {
                let at = plan.at[u.0 as usize] as usize;
                match sweep.slots[at] {
                    NO_SLOT => {
                        sweep.read_unit(&mut self.follower, u, &mut ctx.follower_elems);
                        ctx.stats.forced_pages += u64::from(forced);
                    }
                    slot => {
                        let bytes = &sweep.bytes[slot as usize * page_size..][..page_size];
                        ctx.follower_elems
                            .extend(self.follower.codec.view(bytes).iter());
                        if plan.last_use[at] == i {
                            sweep.free.push(slot);
                            sweep.slots[at] = NO_SLOT;
                        }
                    }
                }
            }
            ctx.join_buffered_elements(self.guide_is_a);
            ctx.stats.window_pivots += 1;
        }
        self.finish_pivot(p.ng);
    }
}
