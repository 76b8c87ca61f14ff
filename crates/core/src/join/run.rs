//! Running a planned pivot: the in-memory join of one node-level pivot of a
//! window, from the pages the sweep put in slots for it.
//!
//! A pivot runs in the sealed plan's order and does nothing the plan did
//! not decide: it advances the window's one ascending guide pass to the
//! last guide unit it needs, takes its follower pages from their slots
//! (or, for a pivot the sweep could not wait for, reads them itself),
//! joins the two in memory, and marks itself done. A switched pivot does
//! the same with the roles swapped: its own units are the follower pages
//! in slots, and its candidates are the elements the guide pass collected
//! for it as it read their pages, in the same ascending page order. Marking
//! it done — `checked`, then covered on the board — is what later plans'
//! to-do-list filter sees, so it happens here and never in the plan; a
//! role switch alone marks `checked` early (see [`plan`](super::plan)).

use super::sweep::NO_SLOT;
use super::PivotEngine;

impl PivotEngine<'_> {
    /// Runs planned pivot `i`: advances the guide pass to the pivot's
    /// `due` ([`Sweep::pass`]), which reads a normal pivot's guide units and
    /// has collected a switched pivot's candidates; fills the other element
    /// buffer from the window follower's pages — from a slot, or by
    /// [`Sweep::read`] when the sweep has given the page none (counted in
    /// `forced_pages` when `forced`) — joins the two, marks the pivot done
    /// and frees the slots no later pivot needs.
    ///
    /// [`Sweep::pass`]: super::sweep::Sweep::pass
    /// [`Sweep::read`]: super::sweep::Sweep::read
    pub(super) fn run(&mut self, i: usize, forced: bool) {
        let (ctx, plan, sweep) = (&mut self.ctx, &self.plan, &mut self.sweep);
        let p = &plan.pivots[i];
        let own = if p.switched {
            &[][..]
        } else {
            &plan.guide_units[p.guide_units.clone()]
        };
        ctx.guide_elems.clear();
        sweep.pass(&mut self.guide, plan, p.due, own, &mut ctx.guide_elems);
        if !p.candidates.is_empty() {
            // A normal pivot's candidates wait in slots; a switched pivot's
            // own units do, and its candidates were collected by the pass.
            let slot_elems = if p.switched {
                std::mem::swap(&mut ctx.follower_elems, &mut sweep.collected[p.collected]);
                &mut ctx.guide_elems
            } else {
                &mut ctx.follower_elems
            };
            slot_elems.clear();
            let page_size = self.follower.disk.page_size();
            for &u in p.waits(&plan.guide_units, &plan.candidates) {
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
            let tests = ctx.stats.mem.element_tests;
            ctx.join_buffered_elements(self.guide_is_a != p.switched);
            if p.switched {
                ctx.stats.switched_tests += ctx.stats.mem.element_tests - tests;
                // The engine's buffer goes back; the collection is dropped.
                std::mem::swap(&mut ctx.follower_elems, &mut sweep.collected[p.collected]);
                sweep.collected[p.collected] = Vec::new();
            }
            ctx.stats.window_pivots += 1;
        }
        self.finish_pivot(p.ng, p.switched);
    }
}
