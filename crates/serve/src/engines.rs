//! The [`QueryEngine`] trait and its three implementations.
//!
//! An engine wraps one *built, immutable* index structure plus the
//! [`SharedPageCache`] over its disk, and hands out per-worker
//! [`QuerySession`]s. All mutable state a query needs — the cache handle
//! with its counters, exploration scratch, walk position — lives in the
//! session, so any number of workers can serve queries against one shared
//! engine with no synchronization beyond the lock-striped cache.
//!
//! * [`TransformersEngine`] — serves from the TRANSFORMERS hierarchy: the
//!   in-memory descriptor tables prefilter nodes then units by page MBB,
//!   and only the surviving unit pages are read. This is the structure the
//!   paper builds for the join, reused as a query-serving index.
//! * [`GipsyEngine`] — the GIPSY strategy fixed at element granularity:
//!   each probe directs an adaptive walk to the probe's region (resuming
//!   from the previous probe's position, which is what makes Hilbert
//!   batching help it) and a crawl collects the candidate pages.
//! * [`RtreeEngine`] — the R-tree baseline: a root-to-leaf range descent
//!   per probe, paying the sibling-overlap reads the paper highlights.
//! * [`MutableTransformersEngine`] — the TRANSFORMERS hierarchy under a
//!   [`MutableTransformers`] overlay: sessions query the latest published
//!   snapshot, so serves run concurrently with mutation batches without
//!   ever blocking on the writer.

use tfm_geom::{ElementId, SpatialQuery};
use tfm_rtree::{RTree, RtreeStats};
use tfm_storage::{
    CacheHandle, CacheStats, Disk, IoStatsSnapshot, PageId, PageReads, SharedPageCache,
    DEFAULT_POOL_PAGES,
};
use transformers::explore::Explorer;
use transformers::{MutableTransformers, TransformersIndex, UnitId, UnitReader};

/// Which structure serves a trace — what an [`crate::IndexShard`] builds
/// and opens engines over (labels match the join harness's vocabulary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEngineKind {
    /// The TRANSFORMERS hierarchy behind [`TransformersEngine`] (node/unit
    /// MBB prefilter + page reads).
    Transformers,
    /// The TRANSFORMERS hierarchy crawled GIPSY-style ([`GipsyEngine`]):
    /// per-probe directed walk + crawl at element granularity.
    Gipsy,
    /// The STR-bulk-loaded R-tree baseline behind [`RtreeEngine`].
    Rtree,
}

impl ServeEngineKind {
    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            ServeEngineKind::Transformers => "TRANSFORMERS",
            ServeEngineKind::Gipsy => "GIPSY",
            ServeEngineKind::Rtree => "R-TREE",
        }
    }

    /// All three engines, for sweep-style comparisons.
    pub fn all() -> [ServeEngineKind; 3] {
        [
            ServeEngineKind::Transformers,
            ServeEngineKind::Gipsy,
            ServeEngineKind::Rtree,
        ]
    }
}

/// A built index structure that can serve spatial queries.
///
/// Engines are shared (`&self`) across workers; each worker obtains a
/// private [`QuerySession`] carrying all per-worker mutable state.
pub trait QueryEngine: Sync {
    /// Approach-style label for reports ("TRANSFORMERS", "GIPSY", …).
    fn label(&self) -> &'static str;

    /// Creates a per-worker session: a thin view over the engine's cache
    /// plus the worker's scratch state. `pool_pages` is **not read** — a
    /// session owns no pages, the cache was sized when the engine was
    /// built — and keeps its place only for the callers that still pass
    /// it.
    fn session(&self, pool_pages: usize) -> Box<dyn QuerySession + '_>;

    /// The page cache every session of this engine reads through.
    fn cache(&self) -> &SharedPageCache<'_>;

    /// Point-in-time I/O counters of the engine's disk; the serve driver
    /// charges the delta to the run.
    fn io_snapshot(&self) -> IoStatsSnapshot {
        self.cache().disk().stats()
    }

    /// Counters of the engine's page cache.
    fn cache_stats(&self) -> CacheStats {
        self.cache().stats()
    }

    /// Drops the cache's resident pages and zeroes its counters so
    /// comparable measurement runs start cold. Dirty frames survive
    /// `clear` by design (they are the only copy of committed-but-unflushed
    /// state), so resetting a mutable engine never loses writes.
    fn reset_cache(&self) {
        self.cache().clear();
        self.cache().reset_stats();
    }

    /// The batch's candidate pages, ascending: every page the probe
    /// prefilter admits for some query of `queries`, deduplicated, from
    /// the in-memory descriptors alone (no page is read). Engines without
    /// such a prefilter return an empty list. The serve path does not call
    /// it: it is the probe directory's cost measured on its own, and the
    /// candidate set tests hold to a full scan.
    fn prefetch_schedule(&self, _queries: &[SpatialQuery]) -> Vec<PageId> {
        Vec::new()
    }
}

/// The unit pages `queries` will touch in a TRANSFORMERS-style hierarchy:
/// the same page-MBB prefilter the sessions run per probe
/// ([`TransformersIndex::for_each_candidate_unit`]), evaluated purely
/// against the in-memory descriptor tables (no page is read). Units are
/// numbered in page order, so sort+dedup yields an ascending sweep — with
/// a Hilbert-ordered batch this is exactly the order the workers will ask
/// for the pages in.
fn unit_pages_for(idx: &TransformersIndex, queries: &[SpatialQuery]) -> Vec<PageId> {
    let units = idx.units();
    let mut pages = Vec::new();
    for query in queries {
        idx.for_each_candidate_unit(&query.probe(), |u| pages.push(units[u].page));
    }
    pages.sort_unstable();
    pages.dedup();
    pages
}

/// Refinement of one candidate unit: tests every box on the unit's pinned
/// page in place and appends the ids that match. Nothing is decoded — on
/// a cold probe the page is tested once and its frame recycled, so an
/// owned copy of its elements would be built only to be dropped.
fn push_matches(
    reader: &mut UnitReader<'_, '_, '_>,
    unit: UnitId,
    query: &SpatialQuery,
    out: &mut Vec<ElementId>,
) {
    reader.with_records(unit, |records| {
        query.for_each_match(
            records.len(),
            |i| records.mbb(i),
            |i| out.push(records.id(i)),
        );
    });
}

/// Per-worker query executor: owns the worker's cache handle and scratch.
pub trait QuerySession {
    /// Executes one query, returning the matching element ids in
    /// ascending order (deterministic regardless of worker count,
    /// batching, or execution order).
    fn execute(&mut self, query: &SpatialQuery) -> Vec<ElementId>;

    /// `(hits, misses)` of this session's own reads through the engine's
    /// cache (handle-local, so per-worker sums never double-count).
    fn pool_counters(&self) -> (u64, u64);
}

/// Serves queries from a [`TransformersIndex`]'s hierarchy.
pub struct TransformersEngine<'a> {
    idx: &'a TransformersIndex,
    cache: SharedPageCache<'a>,
}

impl<'a> TransformersEngine<'a> {
    /// Wraps a built index and its disk, with a default-sized cache
    /// ([`DEFAULT_POOL_PAGES`] pages); chain
    /// [`with_shared_cache`](Self::with_shared_cache) to size it.
    pub fn new(idx: &'a TransformersIndex, disk: &'a Disk) -> Self {
        Self {
            idx,
            cache: SharedPageCache::new(disk, DEFAULT_POOL_PAGES),
        }
    }

    /// Replaces the engine's cache with one of `pages` pages over `shards`
    /// locks (see [`SharedPageCache::shards_for_threads`]).
    pub fn with_shared_cache(mut self, pages: usize, shards: usize) -> Self {
        self.cache = SharedPageCache::with_shards(self.cache.disk(), pages, shards);
        self
    }
}

impl QueryEngine for TransformersEngine<'_> {
    fn label(&self) -> &'static str {
        "TRANSFORMERS"
    }

    fn session(&self, _pool_pages: usize) -> Box<dyn QuerySession + '_> {
        Box::new(TransformersSession {
            idx: self.idx,
            reader: self.idx.unit_reader_shared(&self.cache),
        })
    }

    fn cache(&self) -> &SharedPageCache<'_> {
        &self.cache
    }

    fn prefetch_schedule(&self, queries: &[SpatialQuery]) -> Vec<PageId> {
        unit_pages_for(self.idx, queries)
    }
}

struct TransformersSession<'a> {
    idx: &'a TransformersIndex,
    reader: UnitReader<'a, 'a, 'a>,
}

impl QuerySession for TransformersSession<'_> {
    fn execute(&mut self, query: &SpatialQuery) -> Vec<ElementId> {
        let mut out = Vec::new();
        let units = self.idx.units();
        // A unit whose page MBB misses the probe box cannot hold a match.
        // Candidates arrive in ascending unit order, which is ascending
        // page order — a spatial sweep, not a seek storm.
        self.idx.for_each_candidate_unit(&query.probe(), |u| {
            push_matches(&mut self.reader, units[u].id, query, &mut out);
        });
        out.sort_unstable();
        out
    }

    fn pool_counters(&self) -> (u64, u64) {
        (self.reader.hits(), self.reader.misses())
    }
}

/// Serves queries from a [`MutableTransformers`] overlay — the read side
/// of the online write path.
///
/// Unlike the immutable engines this one *borrows* its cache, from the
/// writer: mutation batches land pages in the cache's dirty tier before
/// any flush, so readers must go through the same [`SharedPageCache`] the
/// writer logs into (a second cache over the raw disk would miss
/// unflushed state). Every [`QuerySession::execute`] call grabs the
/// overlay's latest published snapshot, so long-lived sessions observe
/// each committed batch without being recreated, and never block on the
/// writer.
pub struct MutableTransformersEngine<'a> {
    overlay: &'a MutableTransformers,
    cache: &'a SharedPageCache<'a>,
}

impl<'a> MutableTransformersEngine<'a> {
    /// Wraps a mutable overlay and the shared cache its writer flushes
    /// through.
    pub fn new(overlay: &'a MutableTransformers, cache: &'a SharedPageCache<'a>) -> Self {
        Self { overlay, cache }
    }
}

impl QueryEngine for MutableTransformersEngine<'_> {
    fn label(&self) -> &'static str {
        "TRANSFORMERS-MUT"
    }

    fn session(&self, _pool_pages: usize) -> Box<dyn QuerySession + '_> {
        Box::new(MutableTransformersSession {
            overlay: self.overlay,
            handle: CacheHandle::shared(self.cache),
        })
    }

    fn cache(&self) -> &SharedPageCache<'_> {
        self.cache
    }

    // Base unit pages of the latest snapshot only: overflow chains would
    // need page reads to enumerate.
    fn prefetch_schedule(&self, queries: &[SpatialQuery]) -> Vec<PageId> {
        let snap = self.overlay.snapshot();
        let units = snap.units();
        let mut pages = Vec::new();
        for query in queries {
            snap.for_each_candidate_unit(&query.probe(), |u| pages.push(units[u].page));
        }
        pages.sort_unstable();
        pages.dedup();
        pages
    }
}

struct MutableTransformersSession<'a> {
    overlay: &'a MutableTransformers,
    handle: CacheHandle<'a, 'a>,
}

impl QuerySession for MutableTransformersSession<'_> {
    fn execute(&mut self, query: &SpatialQuery) -> Vec<ElementId> {
        self.overlay.snapshot().query(&mut self.handle, query)
    }

    fn pool_counters(&self) -> (u64, u64) {
        let c = self.handle.counters();
        (c.hits, c.misses)
    }
}

/// Serves queries GIPSY-style: per-probe directed walk + crawl at element
/// granularity over a connectivity-indexed dataset.
pub struct GipsyEngine<'a> {
    idx: &'a TransformersIndex,
    cache: SharedPageCache<'a>,
}

impl<'a> GipsyEngine<'a> {
    /// Wraps the (dense-side) connectivity index and its disk, with a
    /// default-sized cache.
    pub fn new(idx: &'a TransformersIndex, disk: &'a Disk) -> Self {
        Self {
            idx,
            cache: SharedPageCache::new(disk, DEFAULT_POOL_PAGES),
        }
    }

    /// Replaces the engine's cache; see
    /// [`TransformersEngine::with_shared_cache`].
    pub fn with_shared_cache(mut self, pages: usize, shards: usize) -> Self {
        self.cache = SharedPageCache::with_shards(self.cache.disk(), pages, shards);
        self
    }
}

impl QueryEngine for GipsyEngine<'_> {
    fn label(&self) -> &'static str {
        "GIPSY"
    }

    fn session(&self, _pool_pages: usize) -> Box<dyn QuerySession + '_> {
        Box::new(GipsySession {
            reader: self.idx.unit_reader_shared(&self.cache),
            explorer: Explorer::new(self.idx),
            candidates: Vec::new(),
        })
    }

    fn cache(&self) -> &SharedPageCache<'_> {
        &self.cache
    }

    // GIPSY's crawl visits a subset of the unit pages the MBB prefilter
    // admits, so the TRANSFORMERS candidate set over-approximates it.
    fn prefetch_schedule(&self, queries: &[SpatialQuery]) -> Vec<PageId> {
        unit_pages_for(self.idx, queries)
    }
}

struct GipsySession<'a> {
    reader: UnitReader<'a, 'a, 'a>,
    /// Walks from the previous probe's position: consecutive
    /// Hilbert-ordered probes are spatial neighbours, so the walk is short.
    explorer: Explorer<'a>,
    /// The crawl's candidate units, reused from probe to probe.
    candidates: Vec<UnitId>,
}

impl QuerySession for GipsySession<'_> {
    fn execute(&mut self, query: &SpatialQuery) -> Vec<ElementId> {
        let probe = query.probe();
        let mut out = Vec::new();
        // A cold session's B+-tree descent reads through the session's
        // cache handle, so tree pages share the serving cache.
        let Some(nf) = self.explorer.locate(self.reader.cache_mut(), &probe) else {
            return out;
        };
        self.candidates.clear();
        self.explorer.crawl(&probe, nf, &mut self.candidates);
        for &cu in &self.candidates {
            push_matches(&mut self.reader, cu, query, &mut out);
        }
        out.sort_unstable();
        out
    }

    fn pool_counters(&self) -> (u64, u64) {
        (self.reader.hits(), self.reader.misses())
    }
}

/// Serves queries from an STR-bulk-loaded [`RTree`].
pub struct RtreeEngine<'a> {
    tree: &'a RTree,
    cache: SharedPageCache<'a>,
}

impl<'a> RtreeEngine<'a> {
    /// Wraps a bulk-loaded tree and its disk, with a default-sized cache.
    pub fn new(tree: &'a RTree, disk: &'a Disk) -> Self {
        Self {
            tree,
            cache: SharedPageCache::new(disk, DEFAULT_POOL_PAGES),
        }
    }

    /// Replaces the engine's cache; see
    /// [`TransformersEngine::with_shared_cache`]. (R-tree pages use their
    /// own node layout, so only the byte tier applies — the decoded tier
    /// is specific to element pages.)
    pub fn with_shared_cache(mut self, pages: usize, shards: usize) -> Self {
        self.cache = SharedPageCache::with_shards(self.cache.disk(), pages, shards);
        self
    }
}

impl QueryEngine for RtreeEngine<'_> {
    fn label(&self) -> &'static str {
        "R-TREE"
    }

    fn session(&self, _pool_pages: usize) -> Box<dyn QuerySession + '_> {
        Box::new(RtreeSession {
            tree: self.tree,
            pool: CacheHandle::shared(&self.cache),
            stats: RtreeStats::default(),
        })
    }

    fn cache(&self) -> &SharedPageCache<'_> {
        &self.cache
    }
}

struct RtreeSession<'a> {
    tree: &'a RTree,
    pool: CacheHandle<'a, 'a>,
    stats: RtreeStats,
}

impl QuerySession for RtreeSession<'_> {
    fn execute(&mut self, query: &SpatialQuery) -> Vec<ElementId> {
        let probe = query.probe();
        let mut out: Vec<ElementId> = self
            .tree
            .range_query_elements(&mut self.pool, &probe, &mut self.stats)
            .into_iter()
            .filter(|e| query.matches(&e.mbb))
            .map(|e| e.id)
            .collect();
        out.sort_unstable();
        out
    }

    fn pool_counters(&self) -> (u64, u64) {
        let c = self.pool.counters();
        (c.hits, c.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_datagen::{generate, DatasetSpec};
    use tfm_storage::{ElementPageCodec, PoolCounters};
    use transformers::IndexConfig;

    /// A probe's refinement step must answer the same and count exactly
    /// like [`PageReads::page`], whatever state the cache holds the unit's
    /// page in — and must leave the decoded tier alone.
    #[test]
    fn probe_of_a_unit_is_the_same_over_every_cache_state() {
        let disk = Disk::in_memory(2048);
        let elems = generate(&DatasetSpec {
            max_side: 6.0,
            ..DatasetSpec::uniform(1500, 91)
        });
        let idx = TransformersIndex::build(&disk, elems.clone(), &IndexConfig::default());
        let unit = &idx.units()[idx.units().len() / 2];
        // A window over half the unit's box: some of its elements match,
        // some do not.
        let mut window = unit.page_mbb;
        window.max.x = unit.page_mbb.center().x;
        let query = SpatialQuery::Window(window);
        let codec = ElementPageCodec::new(disk.page_size());
        let mut expected: Vec<ElementId> = codec
            .decode(&disk.read_page_vec(unit.page))
            .iter()
            .filter(|e| query.matches(&e.mbb))
            .map(|e| e.id)
            .collect();
        assert!(!expected.is_empty() && expected.len() < unit.count as usize);
        expected.sort_unstable();

        let cache = SharedPageCache::with_shards(&disk, 64, 2);
        let mut reader = idx.unit_reader_shared(&cache);
        let probe = |reader: &mut UnitReader<'_, '_, '_>| {
            let mut out = Vec::new();
            push_matches(reader, unit.id, &query, &mut out);
            out.sort_unstable();
            out
        };
        let counted = |hits, misses| PoolCounters { hits, misses };

        // Cold: a miss.
        assert_eq!(probe(&mut reader), expected);
        assert_eq!(reader.counters(), counted(0, 1));
        // Resident: a raw hit.
        assert_eq!(probe(&mut reader), expected);
        assert_eq!(reader.counters(), counted(1, 1));
        // A decoded entry a join left behind: the probe reads the bytes
        // beside it — a raw hit — and does not consult it.
        cache.clear();
        cache.read_decoded(&codec, unit.page);
        let before = cache.stats();
        assert_eq!((before.decoded_hits, before.decoded_misses), (0, 1));
        assert_eq!(probe(&mut reader), expected);
        assert_eq!(reader.counters(), counted(2, 1));
        let after = cache.stats();
        assert_eq!((after.decoded_hits, after.decoded_misses), (0, 1));

        // The handle's view of its own traffic matches the cache's totals
        // (the one extra miss is `read_decoded` above, not the handle's).
        assert_eq!((after.hits, after.misses), (2, 2));
    }
}
