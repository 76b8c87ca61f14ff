//! GIPSY: joining spatial datasets with contrasting density
//! (Pavlovic et al., SSDBM '13) — baseline of the paper's evaluation.
//!
//! GIPSY partitions the *dense* dataset in a data-oriented way with
//! connectivity information and then iterates the *sparse* dataset element
//! by element, using each sparse element to direct a walk/crawl through
//! the dense dataset and retrieve only the pages it can intersect.
//!
//! Two design choices distinguish it from TRANSFORMERS (paper §II-A,
//! §VIII-A) and are faithfully reproduced here:
//!
//! * **static roles** — the caller must declare which dataset is sparse;
//!   GIPSY cannot adapt when the local density relationship flips;
//! * **single granularity** — the walk is directed at the *spatial element*
//!   level, its only level; joining similar-density datasets drowns in
//!   per-element walk overhead ("GIPSY's performance suffers from the
//!   overhead of the directed walk on the spatial element level").
//!
//! The dense side reuses [`TransformersIndex`] (same partitioning +
//! connectivity the paper's GIPSY uses); the sparse side is stored as a
//! spatially-ordered sequence of element pages read sequentially. Both
//! sides bulk-load through the shared [`IndexBuildPipeline`]
//! ([`SparseFile::write_with`] for the sparse file), so GIPSY's build
//! parallelizes exactly like the TRANSFORMERS build.

#![warn(missing_docs)]

use tfm_geom::SpatialElement;
use tfm_memjoin::{JoinStats, ResultPair};
use tfm_storage::{CacheHandle, Disk, ElementPageCodec, PageId, PageReads};
use transformers::explore::Explorer;
use transformers::{IndexBuildPipeline, TransformersIndex};

/// Counters of a GIPSY join.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GipsyStats {
    /// Descriptor-MBB comparisons (walk + crawl + page filters).
    pub metadata_tests: u64,
    /// Element-level counters.
    pub mem: JoinStats,
    /// Walk expansion steps (the per-element directed-walk overhead).
    pub walk_steps: u64,
    /// Crawl expansion steps.
    pub crawl_steps: u64,
    /// Walks that fell back to the exhaustive metadata scan.
    pub walk_fallbacks: u64,
}

/// The sparse dataset stored as a spatially-ordered run of element pages.
#[derive(Debug)]
pub struct SparseFile {
    pages: Vec<PageId>,
    len: usize,
}

impl SparseFile {
    /// Writes `elements` to `disk` in STR order (spatially adjacent
    /// elements share pages and consecutive pages are adjacent, so the
    /// per-element walk moves smoothly through the dense dataset).
    pub fn write(disk: &Disk, elements: Vec<SpatialElement>) -> Self {
        Self::write_with(disk, elements, &IndexBuildPipeline::sequential())
    }

    /// [`SparseFile::write`] on a caller-supplied build pipeline: the STR
    /// pass and the page encoding fan out over the pipeline's workers, the
    /// writes stay in page order — the file is byte-identical at any
    /// thread count.
    pub fn write_with(
        disk: &Disk,
        elements: Vec<SpatialElement>,
        pipeline: &IndexBuildPipeline,
    ) -> Self {
        let codec = ElementPageCodec::new(disk.page_size());
        let len = elements.len();
        let parts = pipeline.partition(elements, codec.capacity());
        let first = pipeline.pack_pages(disk, &parts, |p, buf| codec.encode_into(p.items, buf));
        let pages = (0..parts.len())
            .map(|i| PageId(first.0 + i as u64))
            .collect();
        Self { pages, len }
    }

    /// Number of stored elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }
}

/// Runs the GIPSY join: `sparse` (a plain file) drives the retrieval from
/// `dense` (a connectivity-indexed dataset), whose element and B+-tree
/// pages are read through `dense_pages`, a handle onto the cache the
/// caller built for it.
///
/// Returns pairs oriented `(sparse element id, dense element id)`.
pub fn gipsy_join(
    sparse_disk: &Disk,
    sparse: &SparseFile,
    dense_pages: &mut CacheHandle<'_, '_>,
    dense: &TransformersIndex,
    stats: &mut GipsyStats,
) -> Vec<ResultPair> {
    let mut out = Vec::new();
    if sparse.is_empty() || dense.is_empty() {
        return out;
    }

    let sparse_codec = ElementPageCodec::new(sparse_disk.page_size());
    let dense_codec = ElementPageCodec::new(dense_pages.cache().disk().page_size());
    let mut explorer = Explorer::new(dense);
    let mut candidates = Vec::new();

    for &page in &sparse.pages {
        // Sequential scan of the sparse dataset: every page is read once,
        // so it goes straight to the disk.
        let sparse_elems = sparse_codec.decode(&sparse_disk.read_page_vec(page));
        for e in &sparse_elems {
            // Directed walk at spatial-element granularity — GIPSY's only
            // level — then the crawl for the element's candidate pages.
            let Some(nf) = explorer.locate(dense_pages, &e.mbb) else {
                continue;
            };
            candidates.clear();
            explorer.crawl(&e.mbb, nf, &mut candidates);
            for cu in &candidates {
                // Each box is tested once, in place in the pinned page.
                let dense_page = dense_pages.page(dense.units()[cu.0 as usize].page);
                let records = dense_codec.view(&dense_page);
                stats.mem.element_tests += records.len() as u64;
                for i in 0..records.len() {
                    if e.mbb.intersects(&records.mbb(i)) {
                        out.push((e.id, records.id(i)));
                    }
                }
            }
        }
    }
    let c = explorer.counts();
    stats.metadata_tests += c.metadata_tests;
    stats.walk_steps += c.walk_steps;
    stats.walk_fallbacks += c.walk_fallbacks;
    stats.crawl_steps += c.crawl_steps;
    stats.mem.results += out.len() as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_datagen::{generate, DatasetSpec, Distribution};
    use tfm_memjoin::{canonicalize, nested_loop_join};
    use tfm_storage::SharedPageCache;
    use transformers::IndexConfig;

    fn run(sparse: &[SpatialElement], dense: &[SpatialElement]) -> (Vec<ResultPair>, GipsyStats) {
        let sparse_disk = Disk::default_in_memory();
        let dense_disk = Disk::default_in_memory();
        let sparse_file = SparseFile::write(&sparse_disk, sparse.to_vec());
        let dense_idx =
            TransformersIndex::build(&dense_disk, dense.to_vec(), &IndexConfig::default());
        let dense_cache = SharedPageCache::new(&dense_disk, tfm_storage::DEFAULT_POOL_PAGES);
        let mut stats = GipsyStats::default();
        let pairs = gipsy_join(
            &sparse_disk,
            &sparse_file,
            &mut CacheHandle::shared(&dense_cache),
            &dense_idx,
            &mut stats,
        );
        (pairs, stats)
    }

    fn oracle(a: &[SpatialElement], b: &[SpatialElement]) -> Vec<ResultPair> {
        let mut s = JoinStats::default();
        canonicalize(nested_loop_join(a, b, &mut s))
    }

    #[test]
    fn matches_oracle_sparse_vs_dense() {
        let sparse = generate(&DatasetSpec {
            max_side: 15.0,
            ..DatasetSpec::uniform(200, 40)
        });
        let dense = generate(&DatasetSpec {
            max_side: 3.0,
            ..DatasetSpec::uniform(20_000, 41)
        });
        let (pairs, stats) = run(&sparse, &dense);
        assert_eq!(canonicalize(pairs), oracle(&sparse, &dense));
        assert!(stats.walk_steps > 0);
    }

    #[test]
    fn matches_oracle_similar_density() {
        let a = generate(&DatasetSpec {
            max_side: 8.0,
            ..DatasetSpec::uniform(2000, 42)
        });
        let b = generate(&DatasetSpec {
            max_side: 8.0,
            ..DatasetSpec::uniform(2000, 43)
        });
        let (pairs, _) = run(&a, &b);
        assert_eq!(canonicalize(pairs), oracle(&a, &b));
    }

    #[test]
    fn matches_oracle_clustered_dense() {
        let sparse = generate(&DatasetSpec {
            max_side: 10.0,
            ..DatasetSpec::uniform(300, 44)
        });
        let dense = generate(&DatasetSpec {
            max_side: 3.0,
            ..DatasetSpec::with_distribution(8000, Distribution::DenseCluster { clusters: 10 }, 45)
        });
        let (pairs, _) = run(&sparse, &dense);
        assert_eq!(canonicalize(pairs), oracle(&sparse, &dense));
    }

    #[test]
    fn empty_sides() {
        let a = generate(&DatasetSpec::uniform(100, 46));
        assert!(run(&[], &a).0.is_empty());
        assert!(run(&a, &[]).0.is_empty());
    }

    #[test]
    fn no_duplicate_pairs() {
        let sparse = generate(&DatasetSpec {
            max_side: 25.0,
            ..DatasetSpec::uniform(150, 47)
        });
        let dense = generate(&DatasetSpec {
            max_side: 5.0,
            ..DatasetSpec::uniform(5000, 48)
        });
        let (pairs, _) = run(&sparse, &dense);
        let n = pairs.len();
        assert_eq!(canonicalize(pairs).len(), n);
    }

    #[test]
    fn parallel_sparse_file_is_byte_identical() {
        let elems = generate(&DatasetSpec::uniform(2000, 50));
        let seq_disk = Disk::default_in_memory();
        let seq = SparseFile::write(&seq_disk, elems.clone());
        let dump = |d: &Disk, f: &SparseFile| -> Vec<Vec<u8>> {
            f.pages.iter().map(|&p| d.read_page_vec(p)).collect()
        };
        let seq_pages = dump(&seq_disk, &seq);
        for threads in [2, 4] {
            let disk = Disk::default_in_memory();
            let f = SparseFile::write_with(
                &disk,
                elems.clone(),
                &transformers::IndexBuildPipeline::new(threads),
            );
            assert_eq!(f.len(), seq.len());
            assert_eq!(f.page_count(), seq.page_count());
            assert_eq!(dump(&disk, &f), seq_pages, "threads = {threads}");
        }
    }

    #[test]
    fn sparse_file_layout() {
        let disk = Disk::default_in_memory();
        let elems = generate(&DatasetSpec::uniform(1000, 49));
        let f = SparseFile::write(&disk, elems);
        assert_eq!(f.len(), 1000);
        // STR may produce slightly more partitions than the lower bound
        // because slabs round up independently per dimension.
        let min_pages = 1000usize.div_ceil(ElementPageCodec::new(8192).capacity());
        assert!(f.page_count() >= min_pages);
        assert!(f.page_count() <= 2 * min_pages);
    }
}
