//! **TRANSFORMERS** — robust spatial joins on non-uniform data
//! distributions (Pavlovic et al., ICDE 2016).
//!
//! TRANSFORMERS is a disk-based spatial join that adapts *at runtime* to
//! local density variations between the two joined datasets:
//!
//! * **Adaptive strategy (role transformation, §VI-A)** — the locally
//!   sparser dataset *guides* the join; the denser dataset *follows*. When
//!   the follower turns out to be locally sparser at the current pivot,
//!   guide and follower switch roles, so only the data actually needed is
//!   retrieved from the locally denser side.
//! * **Adaptive data layout (layout transformation, §VI-B)** — pivots move
//!   between three page-aligned granularities built at indexing time:
//!   *space nodes* (level 0, groups of space units), *space units*
//!   (level 1, one disk page of elements) and *spatial elements*
//!   (level 2). Strong local contrast splits the pivot into finer units so
//!   each one joins against a small, precisely-filtered subset of the
//!   follower.
//! * **Adaptive exploration (§V)** — pivots of the guide are visited one
//!   after the other; the follower is navigated via *connectivity
//!   information* (neighbour links between partitions) with a directed
//!   walk (Alg. 1) and a crawl that collects the candidate pages, followed
//!   by an in-memory grid hash join.
//!
//! # Quick start
//!
//! ```
//! use tfm_storage::Disk;
//! use tfm_datagen::{generate, DatasetSpec};
//! use transformers::{IndexConfig, JoinConfig, TransformersIndex, transformers_join};
//!
//! let disk_a = Disk::default_in_memory();
//! let disk_b = Disk::default_in_memory();
//! let a = generate(&DatasetSpec::uniform(2_000, 1));
//! let b = generate(&DatasetSpec::uniform(2_000, 2));
//!
//! let idx_a = TransformersIndex::build(&disk_a, a, &IndexConfig::default());
//! let idx_b = TransformersIndex::build(&disk_b, b, &IndexConfig::default());
//!
//! let outcome = transformers_join(&idx_a, &disk_a, &idx_b, &disk_b, &JoinConfig::default());
//! println!("{} intersecting pairs", outcome.pairs.len());
//! ```
//!
//! Indexes are built **per dataset** and can be reused across joins with
//! any other indexed dataset — the property that lets TRANSFORMERS
//! amortize its indexing cost, unlike PBSM whose partitioning depends on
//! the dataset *combination* (paper §VII-C2).

#![warn(missing_docs)]

mod config;
mod costmodel;
mod descriptor;
mod distance;
mod index;
mod join;
mod metadata;
mod mutate;
mod probe_dir;
mod stats;
mod todo;
mod walk;

pub use config::{GuidePick, IndexConfig, JoinConfig, ThresholdPolicy};
pub use costmodel::{CostModel, DeviceParams};
pub use descriptor::{NodeId, SpaceNode, SpaceUnitDesc, UnitId};
pub use distance::distance_join;
pub use index::{TransformersIndex, UnitReader};
pub use join::{transformers_join, EngineSide, JoinOutcome, PivotEngine};
pub use mutate::{
    BatchOutcome, MutNode, MutSnapshot, MutUnit, MutableTransformers, MutationOp, OverflowCodec,
    OverflowPage, CHECKPOINT_LOG_BYTES, DIRTY_HIGH_WATER, DIRTY_LOW_WATER, NO_PAGE,
    OVERFLOW_HEADER,
};
pub use stats::TransformersStats;
// `IndexBuildPipeline` lives in `tfm-partition` (below the baselines,
// keeping them decoupled from this crate); re-exported so index users
// configure builds from one import.
pub use tfm_partition::IndexBuildPipeline;
pub use todo::SharedTodo;

/// Low-level exploration primitives (adaptive walk, crawl, fallback scan).
///
/// Public so that the GIPSY baseline — which the paper describes as using
/// the same crawling strategy, fixed at element granularity — can share
/// exactly the same machinery instead of a diverging re-implementation.
pub mod explore {
    pub use crate::walk::{
        adaptive_crawl, adaptive_walk, scan_for_intersection, CrawlResult, ExploreScratch,
        WalkResult,
    };
}
