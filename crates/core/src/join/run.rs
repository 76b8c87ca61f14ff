//! Running a planned pivot: the in-memory join of one node-level pivot of a
//! window, from the pages the sweep put in slots for it.
//!
//! A pivot runs in plan order and does nothing the plan did not decide: it
//! reads the units it needs from the window's guide, takes its follower
//! pages from their slots (or, for a pivot the sweep could not wait for,
//! reads them itself), joins the two in memory, and marks itself done. A
//! switched pivot does the same with the roles swapped: its own units are
//! the follower pages in slots, and its candidates are read from the guide.
//! Marking it done — `checked`, then covered on the board — is what later
//! plans' to-do-list filter sees, so it happens here and never in the plan;
//! a role switch alone marks `checked` early (see [`plan`](super::plan)).

use super::sweep::NO_SLOT;
use super::PivotEngine;

impl PivotEngine<'_> {
    /// Runs planned pivot `i`: fills its two element buffers — a window
    /// guide unit by [`Sweep::read`](super::sweep::Sweep::read), a window
    /// follower page from its slot, or by the same read when the sweep has
    /// given it none (counted in `forced_pages` when `forced`) — joins
    /// them, marks the pivot done and frees the slots no later pivot needs.
    pub(super) fn run(&mut self, i: usize, forced: bool) {
        let (ctx, plan, sweep) = (&mut self.ctx, &self.plan, &mut self.sweep);
        let p = &plan.pivots[i];
        if !p.candidates.is_empty() {
            // The pivot's own units are read and its candidates wait in
            // slots; a switched pivot's the other way round.
            let mut read = &plan.guide_units[p.guide_units.clone()];
            let mut slotted = &plan.candidates[p.candidates.clone()];
            let (mut read_elems, mut slot_elems) = (&mut ctx.guide_elems, &mut ctx.follower_elems);
            if p.switched {
                std::mem::swap(&mut read, &mut slotted);
                std::mem::swap(&mut read_elems, &mut slot_elems);
            }
            read_elems.clear();
            for &u in read {
                sweep.read_unit(&mut self.guide, u, read_elems);
            }
            slot_elems.clear();
            let page_size = self.follower.disk.page_size();
            for &u in slotted {
                let at = plan.at[u.0 as usize] as usize;
                match sweep.slots[at] {
                    NO_SLOT => {
                        sweep.read_unit(&mut self.follower, u, slot_elems);
                        ctx.stats.forced_pages += u64::from(forced);
                    }
                    slot => {
                        let bytes = &sweep.bytes[slot as usize * page_size..][..page_size];
                        slot_elems.extend(self.follower.codec.view(bytes).iter());
                        if plan.last_use[at] == i {
                            sweep.free.push(slot);
                            sweep.slots[at] = NO_SLOT;
                        }
                    }
                }
            }
            ctx.join_buffered_elements(self.guide_is_a != p.switched);
            ctx.stats.window_pivots += 1;
        }
        self.finish_pivot(p.ng, p.switched);
    }
}
