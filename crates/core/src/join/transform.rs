//! Layout transformations (§VI-B, §VI-C): the pivots a node splits into.
//!
//! When the guide is locally sparser than the follower, a node pivot
//! descends to its space units, each walked to and crawled for on its own
//! (transform 2); when a unit is still far sparser than the follower unit
//! closest to it, it descends once more, to its single elements
//! (transform 3), and a follower page is read only if some guide element
//! touches it. These pivots decide as they go, from the pages they have
//! read, so they read page by page through [`Sweep::read`] and hold no
//! window.
//!
//! [`Sweep::read`]: super::sweep::Sweep::read

use super::{vol, PivotEngine};
use crate::descriptor::{NodeId, UnitId};
use crate::walk::adaptive_crawl;
use std::time::Instant;

impl PivotEngine<'_> {
    /// Transform 2/3: processes guide node `ng` at space-unit granularity,
    /// with a possible further descent to element granularity, the first
    /// walk starting at `nf_hint`. The plan is empty and lends its
    /// candidate buffer.
    pub(super) fn process_node_units(&mut self, ng: usize, nf_hint: NodeId) {
        let mut local_pos = nf_hint;
        let mut candidates = std::mem::take(&mut self.plan.candidates);
        for u in self.guide.nodes[ng].unit_range() {
            let t0 = Instant::now();
            let unit_id = self.guide.units[u].id;
            let pivot_box = self.guide.units[u].page_mbb;
            if pivot_box.is_empty() {
                continue;
            }

            // Walk from the previous unit's position: consecutive units are
            // spatially adjacent, so the walk is short.
            let (found, pos) = self.walk_or_scan(&pivot_box, local_pos);
            local_pos = pos;
            let Some(nf) = found else {
                self.ctx.stats.exploration_overhead += t0.elapsed();
                continue;
            };
            let (ctx, follower) = (&mut self.ctx, &mut self.follower);
            follower.walk_pos = Some(nf);

            candidates.clear();
            let crawl = adaptive_crawl(
                follower.nodes,
                follower.units,
                follower.idx.reach_eps(),
                &pivot_box,
                nf,
                &mut follower.scratch,
                &mut candidates,
            );
            // To-do-list filter (§V), as at node level.
            ctx.prune_covered(follower, !self.guide_is_a, &mut candidates, 0);
            candidates.sort_unstable_by_key(|u| follower.units[u.0 as usize].page);
            ctx.stats.crawl_steps += crawl.steps;
            ctx.stats.metadata_tests += crawl.metadata_tests;
            if candidates.is_empty() {
                ctx.stats.exploration_overhead += t0.elapsed();
                continue;
            }

            // Unit-level ratio against the candidate closest to the pivot
            // (the "corresponding" unit of the follower, §VI-A).
            let distance = |x: &UnitId| {
                let page_mbb = follower.units[x.0 as usize].page_mbb;
                page_mbb.min_distance_sq(&pivot_box)
            };
            let closest = candidates
                .iter()
                .min_by(|x, y| distance(x).total_cmp(&distance(y)))
                .copied()
                .expect("non-empty candidates");
            ctx.stats.metadata_tests += candidates.len() as u64 * 2;
            let ratio = vol(&self.guide.units[u].partition_mbb)
                / vol(&follower.units[closest.0 as usize].partition_mbb);
            let split_elements = ctx.cost.should_split_unit(ratio);
            ctx.stats.exploration_overhead += t0.elapsed();

            // Read the guide unit's page.
            ctx.guide_elems.clear();
            self.sweep
                .read_unit(&mut self.guide, unit_id, &mut ctx.guide_elems);

            if split_elements {
                // Transform 3: element-granularity pivots. Each follower
                // page is read only if an actual guide element touches it.
                ctx.stats.element_layout_transformations += 1;
                ctx.cost.on_transformation();
                self.join_element_level(&candidates);
            } else {
                ctx.follower_elems.clear();
                for &fu in &candidates {
                    self.sweep.read_unit(follower, fu, &mut ctx.follower_elems);
                }
                ctx.join_buffered_elements(self.guide_is_a);
            }
        }
        candidates.clear();
        self.plan.candidates = candidates;
    }

    /// Element-level join of the guide unit in `ctx.guide_elems` against
    /// the candidate follower units: candidate pages whose page MBB no
    /// guide element touches are filtered out without being read. The
    /// kernel's window filter then drops the guide elements that miss a
    /// page that was read.
    fn join_element_level(&mut self, candidates: &[UnitId]) {
        let ctx = &mut self.ctx;
        let mut read_pages = 0u64;
        for &fu in candidates {
            let t0 = Instant::now();
            let fbox = self.follower.units[fu.0 as usize].page_mbb;
            // Element-granularity filter: does any actual guide element
            // reach this follower page?
            let mut touched = false;
            for e in &ctx.guide_elems {
                ctx.stats.metadata_tests += 1;
                if e.mbb.intersects(&fbox) {
                    touched = true;
                    break;
                }
            }
            ctx.stats.exploration_overhead += t0.elapsed();
            if !touched {
                continue;
            }
            read_pages += 1;
            ctx.follower_elems.clear();
            self.sweep
                .read_unit(&mut self.follower, fu, &mut ctx.follower_elems);
            ctx.join_buffered_elements(self.guide_is_a);
        }
        ctx.cost.record_filter(
            candidates.len() as u64 - read_pages,
            candidates.len() as u64,
        );
    }
}
