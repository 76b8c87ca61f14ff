//! The TRANSFORMERS join: adaptive exploration (paper Alg. 2) with role and
//! data-layout transformations (§VI).
//!
//! The guide dataset's space nodes are visited as pivots in index order
//! (nodes were laid out by STR, so consecutive pivots are spatially
//! adjacent). For each pivot the follower is navigated with the adaptive
//! walk; before any data is read, the pivot-local volume ratio
//! `V_g / V_f` of the two node tiles decides the transformation (§VI):
//!
//! * `V_g/V_f ≤ 1/t_su` → the *follower* is locally sparser: **switch
//!   roles** and re-pivot on the follower node closest to the old pivot;
//! * `V_g/V_f ≥ t_su` → the guide is locally sparser: **split the pivot**
//!   into space units (and possibly further into single elements when the
//!   unit-level ratio exceeds `t_so`) — [`transform`];
//! * otherwise join at the coarse node level: crawl the candidate units,
//!   prefilter guide and follower page MBBs against each other, read only
//!   the surviving pages, and run the grid hash join.
//!
//! Node-level pivots go through a *window* in three steps, one module
//! each: [`plan`] decides from descriptors alone what every pivot up to
//! the next transformation reads, [`sweep`] reads the window's follower
//! pages once in ascending order, and [`run`] joins each pivot from the
//! pages swept for it. A pivot that decides a transformation closes the
//! window before it, so thresholds, `checked` marks and the shared board
//! see exactly the order a pivot-at-a-time join gives them; a window of
//! one pivot *is* that join (`DESIGN.md`, § "Pivot windows and the
//! follower sweep").
//!
//! One driver runs every join. [`JoinRun::new`] loads both descriptor
//! tables once and creates the coverage board ([`SharedTodo`]); each owner
//! of pivots — the sequential join's one, or each worker of `tfm-exec` —
//! joins through a [`PivotEngine`] of its own, which holds the owner's
//! state: both sides, the window plan and the sweep; [`JoinRun::finish`]
//! merges what the owners found. The join is complete once the follower's
//! nodes are all covered on the board — every element of the follower has
//! then been tested against everything it could intersect (§V) — and the
//! guide pivots still pending are skipped. Pairs discovered twice
//! (possible after role switches) are deduplicated before returning.

mod plan;
mod run;
mod sweep;
mod transform;

use crate::config::{GuidePick, JoinConfig};
use crate::costmodel::CostModel;
use crate::descriptor::{SpaceNode, SpaceUnitDesc};
use crate::index::TransformersIndex;
use crate::stats::TransformersStats;
use crate::todo::SharedTodo;
use crate::walk::Explorer;
use plan::{Decision, WindowPlan};
use std::ops::Range;
use std::time::Instant;
use sweep::{Sweep, WINDOW_PAGES};
use tfm_geom::{Aabb, SpatialElement};
use tfm_memjoin::{GridJoin, ResultPair};
use tfm_storage::{
    CacheHandle, Disk, ElementPageCodec, IoStatsSnapshot, PageReads, SharedPageCache,
};

/// Result of a TRANSFORMERS join.
#[derive(Debug)]
pub struct JoinOutcome {
    /// Deduplicated, sorted result pairs `(id in A, id in B)`.
    pub pairs: Vec<ResultPair>,
    /// Execution counters and time breakdown.
    pub stats: TransformersStats,
}

/// Guard against degenerate (zero-volume) tiles in ratio computations.
const VOLUME_FLOOR: f64 = 1e-12;

#[inline]
fn vol(b: &Aabb) -> f64 {
    b.volume().max(VOLUME_FLOOR)
}

/// Per-dataset join state.
struct Side<'a> {
    disk: &'a Disk,
    /// The read path: this owner's view onto the dataset's shared page
    /// cache.
    cache: CacheHandle<'a, 'a>,
    codec: ElementPageCodec,
    // The descriptor tables, loaded once per join and read by every owner
    // (only `checked`, `explorer` and `cache` are the owner's own).
    nodes: &'a [SpaceNode],
    units: &'a [SpaceUnitDesc],
    checked: Vec<bool>,
    /// Walks and crawls this side when it follows, from where its last
    /// walk ended.
    explorer: Explorer<'a>,
}

impl<'a> Side<'a> {
    /// One owner's side over `data`, whose tables the join loaded.
    fn with_tables(data: &'a Dataset<'a>) -> Self {
        let disk = data.cache.disk();
        Self {
            disk,
            cache: CacheHandle::shared(data.cache),
            codec: ElementPageCodec::new(disk.page_size()),
            nodes: &data.nodes,
            units: &data.units,
            checked: vec![false; data.nodes.len()],
            explorer: Explorer::over(data.idx, &data.nodes, &data.units),
        }
    }
}

/// One owner's mutable join context.
struct Ctx<'a> {
    cost: CostModel,
    stats: TransformersStats,
    /// Raw result pairs, always oriented (id in A, id in B).
    raw: Vec<ResultPair>,
    /// The join's coverage board, shared by every owner of its pivots.
    todo: &'a SharedTodo,
    /// The in-memory join (grid hash join, §VII-A) and its scratch, reused
    /// by every pivot of this owner.
    kernel: GridJoin,
    // Per-pivot buffers, cleared and refilled by each pivot so that a join
    // allocates for its largest pivot once: the elements read for the two
    // sides and the prefilter's marks.
    guide_elems: Vec<SpatialElement>,
    follower_elems: Vec<SpatialElement>,
    follower_hit: Vec<bool>,
}

impl<'a> Ctx<'a> {
    /// Builds an owner's context for `join`: capacity-derived cost-model
    /// terms plus the device-bound Eq. 4/8 terms taken from the disk model
    /// of dataset B's disk.
    fn new(join: &'a JoinRun<'a>) -> Self {
        let [a, b] = &join.datasets;
        let unit_cap = a.idx.unit_capacity().max(b.idx.unit_capacity());
        let node_cap = a.idx.node_capacity().max(b.idx.node_capacity());
        let cfg = &join.cfg;
        // Device-bound Eq. 4/8 terms from the disk model (see CostModel docs).
        let model = b.cache.disk().model();
        let device = crate::costmodel::DeviceParams {
            // One extra fine-grained batch costs roughly one random
            // repositioning; one extra page within a batch costs one
            // sequential transfer. The resulting thresholds put the split
            // point where skipping data actually beats reading through it
            // on the modelled device.
            reposition: model.typical_random_cost(),
            transfer: model.sequential_cost(),
        };
        Self {
            cost: CostModel::with_device(cfg.thresholds, unit_cap, node_cap, device),
            stats: TransformersStats::default(),
            raw: Vec::new(),
            todo: &join.todo,
            kernel: GridJoin::default(),
            guide_elems: Vec::new(),
            follower_elems: Vec::new(),
            follower_hit: Vec::new(),
        }
    }

    /// Joins `guide_elems` with `follower_elems` in memory, pushing the
    /// pairs into `raw` oriented (id in A, id in B).
    fn join_buffered_elements(&mut self, guide_is_a: bool) {
        let tj = Instant::now();
        let before = self.stats.mem.element_tests;
        let raw = &mut self.raw;
        self.kernel.join(
            &self.guide_elems,
            &self.follower_elems,
            &mut self.stats.mem,
            |g, f| {
                raw.push(if guide_is_a {
                    (g.id, f.id)
                } else {
                    (f.id, g.id)
                })
            },
        );
        let dt = tj.elapsed();
        self.stats.join_cpu += dt;
        self.cost
            .record_comparisons(self.stats.mem.element_tests - before, dt);
    }
}

/// Runs the TRANSFORMERS join between two indexed datasets.
///
/// Both indexes must have been built (with [`TransformersIndex::build`]) on
/// their respective disks; the indexes are reusable across joins.
pub fn transformers_join(
    idx_a: &TransformersIndex,
    disk_a: &Disk,
    idx_b: &TransformersIndex,
    disk_b: &Disk,
    cfg: &JoinConfig,
) -> JoinOutcome {
    // The per-dataset page caches. The sequential join is one reader, so
    // one shard each: the shard count decides CLOCK eviction, and so which
    // pages are read.
    let cache_a = SharedPageCache::with_shards(disk_a, cfg.pool_pages, 1);
    let cache_b = SharedPageCache::with_shards(disk_b, cfg.pool_pages, 1);
    join_through(idx_a, &cache_a, idx_b, &cache_b, cfg, WINDOW_PAGES)
}

/// The sequential join over the two datasets' page caches: one engine over
/// every guide pivot, its windows holding at most `hold` follower pages at
/// once.
fn join_through<'a>(
    idx_a: &'a TransformersIndex,
    cache_a: &'a SharedPageCache<'a>,
    idx_b: &'a TransformersIndex,
    cache_b: &'a SharedPageCache<'a>,
    cfg: &JoinConfig,
    hold: usize,
) -> JoinOutcome {
    let join = JoinRun::new(idx_a, cache_a, idx_b, cache_b, cfg);
    let mut engine = join.engine_holding(hold);
    engine.process_pivots(0..join.pivots());
    let owner = engine.finish();
    join.finish([owner])
}

/// One dataset of a join: its index, the page cache over its disk and its
/// descriptor tables.
struct Dataset<'a> {
    idx: &'a TransformersIndex,
    cache: &'a SharedPageCache<'a>,
    nodes: Vec<SpaceNode>,
    units: Vec<SpaceUnitDesc>,
}

/// One join from setup to finish, whoever owns its pivots: the state every
/// owner's [`PivotEngine`] shares.
///
/// [`JoinRun::new`] loads both datasets' descriptor tables — once per join,
/// however many owners, charged as `metadata_pages_read` — routes guide and
/// follower by [`JoinConfig::first_guide`] and creates the coverage board.
/// Each owner then takes an engine ([`JoinRun::engine`]) and joins its
/// pivots; the sequential join is one owner of `0..pivots()`, `tfm-exec`'s
/// workers are one owner each of the chunks they claim. [`JoinRun::finish`]
/// merges what the owners found.
pub struct JoinRun<'a> {
    /// Datasets A and B, in that order.
    datasets: [Dataset<'a>; 2],
    guide_is_a: bool,
    cfg: JoinConfig,
    todo: SharedTodo,
    metadata_pages_read: u64,
    /// Both disks' I/O counters before the tables were loaded.
    io_before: IoStatsSnapshot,
}

impl<'a> JoinRun<'a> {
    /// Sets up a join of dataset A (`idx_a`, read through `cache_a`) with
    /// dataset B: loads both descriptor tables from their metadata regions
    /// (sequential reads charged to the disks) and creates the coverage
    /// board.
    pub fn new(
        idx_a: &'a TransformersIndex,
        cache_a: &'a SharedPageCache<'a>,
        idx_b: &'a TransformersIndex,
        cache_b: &'a SharedPageCache<'a>,
        cfg: &JoinConfig,
    ) -> Self {
        let io_before = cache_a.disk().stats().merged(&cache_b.disk().stats());
        let mut metadata_pages_read = 0;
        let datasets = [(idx_a, cache_a), (idx_b, cache_b)].map(|(idx, cache)| {
            let (nodes, units, pages) = idx.load_metadata(cache.disk());
            metadata_pages_read += pages;
            Dataset {
                idx,
                cache,
                nodes,
                units,
            }
        });
        let todo = SharedTodo::new(datasets[0].nodes.len(), datasets[1].nodes.len());
        Self {
            datasets,
            guide_is_a: matches!(cfg.first_guide, GuidePick::A),
            cfg: *cfg,
            todo,
            metadata_pages_read,
            io_before,
        }
    }

    fn guide(&self) -> &Dataset<'a> {
        &self.datasets[usize::from(!self.guide_is_a)]
    }

    fn follower(&self) -> &Dataset<'a> {
        &self.datasets[usize::from(self.guide_is_a)]
    }

    /// The number of guide node pivots: an engine joins ranges within
    /// `0..pivots()`.
    pub fn pivots(&self) -> usize {
        self.guide().nodes.len()
    }

    /// The guide's node and unit tables, in pivot order.
    pub fn guide_tables(&self) -> (&[SpaceNode], &[SpaceUnitDesc]) {
        (&self.guide().nodes, &self.guide().units)
    }

    /// The follower's index.
    pub fn follower_index(&self) -> &'a TransformersIndex {
        self.follower().idx
    }

    /// The guide's and the follower's page caches, in that order.
    pub fn caches(&self) -> [&'a SharedPageCache<'a>; 2] {
        [self.guide().cache, self.follower().cache]
    }

    /// Whether every follower node is covered on the board. Every guide
    /// pivot still pending would then have its whole candidate list pruned,
    /// so an engine skips it (counted in
    /// [`TransformersStats::pruned_pivots`]).
    pub fn follower_exhausted(&self) -> bool {
        self.todo.remaining(!self.guide_is_a) == 0
    }

    /// A new owner's engine: its own cache handles, exploration scratch,
    /// cost model, window plan, sweep and statistics, over this join's
    /// tables and board.
    pub fn engine(&self) -> PivotEngine<'_> {
        self.engine_holding(WINDOW_PAGES)
    }

    /// [`JoinRun::engine`] with windows holding at most `hold` follower
    /// pages at once.
    fn engine_holding(&self, hold: usize) -> PivotEngine<'_> {
        // A window's pages are distinct, one per unit at most; sized for
        // either side, since a role switch makes the guide the follower.
        let units = self.guide().units.len().max(self.follower().units.len());
        let mut engine = PivotEngine {
            guide: Side::with_tables(self.guide()),
            follower: Side::with_tables(self.follower()),
            ctx: Ctx::new(self),
            plan: WindowPlan::default(),
            sweep: Sweep::default(),
            guide_is_a: self.guide_is_a,
        };
        engine.plan.at = vec![0; units];
        engine.sweep.cap = hold.min(units);
        engine
    }

    /// Ends the join with what its owners' engines returned
    /// ([`PivotEngine::finish`]), merged in the order given: sorts and
    /// dedups the pairs, sums the statistics and fills `unique_results`
    /// and `sim_io` — the modelled device time of every page read since
    /// [`JoinRun::new`], the tables included. Publishes the statistics, the
    /// I/O and the caches' extras once, when metrics are on.
    pub fn finish(
        self,
        owners: impl IntoIterator<Item = (Vec<ResultPair>, TransformersStats)>,
    ) -> JoinOutcome {
        let mut stats = TransformersStats {
            metadata_pages_read: self.metadata_pages_read,
            ..TransformersStats::default()
        };
        let mut pairs = Vec::new();
        for (raw, owner) in owners {
            if pairs.is_empty() {
                pairs = raw;
            } else {
                pairs.extend(raw);
            }
            stats.merge(&owner);
        }
        // Pairs can be found from both sides after role switches.
        pairs.sort_unstable();
        pairs.dedup();
        stats.unique_results = pairs.len() as u64;
        let [a, b] = [self.datasets[0].cache, self.datasets[1].cache];
        let io = a
            .disk()
            .stats()
            .merged(&b.disk().stats())
            .delta_since(&self.io_before);
        stats.sim_io = io.sim_io_time();
        let obs = tfm_obs::global();
        if obs.is_enabled() {
            stats.publish(obs);
            io.publish(obs);
            a.stats().publish_shared_extras(obs);
            b.stats().publish_shared_extras(obs);
        }
        JoinOutcome { pairs, stats }
    }
}

/// One owner's share of a join: the building block of the sequential join
/// and of each worker of the parallel one (`tfm-exec`). Built by
/// [`JoinRun::engine`], ended by [`PivotEngine::finish`].
///
/// The engine owns its cache handles, exploration scratch, cost model,
/// window plan, sweep and statistics, and joins the guide node pivots it
/// is given through the one window loop (plan a window of pivots, sweep
/// its follower pages once into the sweep's own buffer, join from those
/// bytes; a window holds no cache frame). It performs the paper's full
/// adaptivity within its pivots:
///
/// * guide ↔ follower switches (§VI-A): the engine re-pivots on the
///   locally sparser follower node, keeping its own walk position,
///   cost-model calibration and transformation stats. A switched-over pivot
///   leaves the original guide node unchecked;
///   [`process_pivots`](Self::process_pivots) plans it again until it is
///   actually joined.
/// * the join's coverage board (a) makes role switches *exclusive*
///   across owners via claim bits, and (b) carries the to-do-list pruning
///   (§V): candidate units whose node any owner has *completely* processed
///   are dropped before their pages are read. The completion-ordered
///   `Release`/`Acquire` protocol of the board guarantees two nodes
///   can never mutually prune each other, so no pair is lost.
///
/// Duplicate pairs (possible after switches) are removed by
/// [`JoinRun::finish`]. The result-pair *set* is the same at any number of
/// owners.
pub struct PivotEngine<'a> {
    ctx: Ctx<'a>,
    guide: Side<'a>,
    follower: Side<'a>,
    guide_is_a: bool,
    plan: WindowPlan,
    sweep: Sweep,
}

impl PivotEngine<'_> {
    /// Processes the guide node pivots `pivots` to completion, in order:
    /// walk, transformation decisions, crawl and prefilter per pivot, page
    /// reads per window of pivots (one ascending sweep of the follower),
    /// in-memory join per pivot. Appends the found pairs to the engine's
    /// private result buffer. No page stays pinned on return.
    ///
    /// A taken role switch processes the *follower* node instead and
    /// leaves the pivot pending; the engine then plans it again until it
    /// is joined. Once the follower is fully covered on the board
    /// ([`JoinRun::follower_exhausted`]), a pivot is skipped outright —
    /// every candidate would be pruned — and counted in
    /// [`TransformersStats::pruned_pivots`].
    ///
    /// # Panics
    /// Panics if `pivots` reaches past [`JoinRun::pivots`].
    pub fn process_pivots(&mut self, pivots: Range<usize>) {
        assert!(
            pivots.end <= self.guide.nodes.len(),
            "pivots {pivots:?} out of range"
        );
        self.join_pivots(pivots, true);
    }

    /// The window loop: joins the guide's node pivots `pivots`, in order,
    /// against the follower.
    ///
    /// Pivots are planned into the window until a pivot decides a
    /// transformation or the range ends; the window is then swept, and a
    /// transformation runs after it from the walk result its plan already
    /// holds. A taken role switch joins the *follower* node as a pivot of
    /// its own (roles swapped, no further switch) and leaves `ng` pending,
    /// so `ng` is planned again until it is joined. The window is empty on
    /// return.
    fn join_pivots(&mut self, pivots: Range<usize>, allow_switch: bool) {
        for ng in pivots {
            while !self.guide.checked[ng] {
                if self.ctx.todo.remaining(!self.guide_is_a) == 0 {
                    // Safe to skip: a follower node is only marked covered
                    // once its processing emitted all its pairs, and that
                    // processing cannot have pruned `ng` (never covered —
                    // `ng` is ours and still pending), so it joined against
                    // `ng`'s units.
                    self.ctx.stats.pruned_pivots += 1;
                    self.plan
                        .queue(ng, self.plan.guide_units.len(), self.plan.candidates.len());
                    break;
                }
                match self.plan_node_pivot(ng, allow_switch) {
                    Decision::Queued => break,
                    Decision::SwitchRoles(nf) => {
                        // Transform 1 (role): the follower is locally
                        // sparser — let it guide. The new pivot is the
                        // follower node found at the old pivot's location;
                        // the old pivot stays unchecked and is revisited.
                        // The claim guarantees no other owner processes the
                        // same switched pivot.
                        self.sweep_window();
                        self.ctx.stats.role_transformations += 1;
                        self.ctx.cost.on_transformation();
                        self.switch_roles();
                        self.join_pivots(nf.0 as usize..nf.0 as usize + 1, false);
                        self.switch_roles();
                    }
                    Decision::SplitNode(nf) => {
                        // Transform 2 (layout): the guide is locally sparser
                        // — descend the pivot to space-unit granularity.
                        self.sweep_window();
                        self.ctx.stats.layout_transformations += 1;
                        self.ctx.cost.on_transformation();
                        self.process_node_units(ng, nf);
                        self.finish_pivot(ng);
                    }
                }
            }
        }
        self.sweep_window();
    }

    /// Swaps guide and follower.
    fn switch_roles(&mut self) {
        std::mem::swap(&mut self.guide, &mut self.follower);
        self.guide_is_a = !self.guide_is_a;
    }

    /// Marks `ng` done on all exit paths of a pivot: checked for the owner,
    /// then covered on the board — only after every pair of `ng` sits in
    /// `ctx.raw` (the `Release`/`Acquire` pairing in [`SharedTodo`] makes
    /// pruning on the bit safe across owners).
    fn finish_pivot(&mut self, ng: usize) {
        self.guide.checked[ng] = true;
        self.ctx.todo.mark_covered(self.guide_is_a, ng);
    }

    /// Tears the engine down, returning the raw (unsorted, possibly
    /// duplicated) result pairs oriented `(id in A, id in B)` plus this
    /// owner's statistics, for [`JoinRun::finish`]. `pages_read` and
    /// `pool_hits` are the engine's own cache-handle counts: summed over
    /// owners they equal the pages the join read, even through a shared
    /// cache.
    pub fn finish(self) -> (Vec<ResultPair>, TransformersStats) {
        let mut stats = self.ctx.stats;
        for side in [&self.guide, &self.follower] {
            let c = side.explorer.counts();
            stats.metadata_tests += c.metadata_tests;
            stats.walk_steps += c.walk_steps;
            stats.walk_fallbacks += c.walk_fallbacks;
            stats.crawl_steps += c.crawl_steps;
        }
        let (cg, cf) = (self.guide.cache.counters(), self.follower.cache.counters());
        stats.pages_read = cg.misses + cf.misses;
        stats.pool_hits = cg.hits + cf.hits;
        stats.read_through_pages = self.sweep.read_through;
        (self.ctx.raw, stats)
    }
}

#[cfg(test)]
mod tests;
