//! Umbrella crate for the **TRANSFORMERS** (ICDE 2016) reproduction.
//!
//! Re-exports the whole workspace under one roof so examples, integration
//! tests and downstream users can depend on a single crate:
//!
//! * [`transformers`] — the adaptive spatial join (the paper's
//!   contribution): indexing, adaptive exploration, transformations;
//! * [`exec`] — the parallel execution subsystem (`parallel_join`):
//!   pivot scheduling, work stealing, scoped worker pool;
//! * [`serve`] — the concurrent query-serving subsystem: window /
//!   point-enclosure / distance probes against shared indexes, with
//!   admission control and locality-aware (Hilbert-ordered) batching;
//! * [`baselines`] — PBSM, synchronized R-Tree, GIPSY;
//! * [`geom`], [`storage`], [`datagen`], [`memjoin`], [`partition`],
//!   [`bptree`] — the substrates everything is built on.
//!
//! See `README.md` for a guided tour and `DESIGN.md` for the architecture.
//!
//! ```
//! use transformers_repro::prelude::*;
//!
//! let disk_a = Disk::default_in_memory();
//! let disk_b = Disk::default_in_memory();
//! let a = generate(&DatasetSpec::uniform(1_000, 1));
//! let b = generate(&DatasetSpec::uniform(1_000, 2));
//! let idx_a = TransformersIndex::build(&disk_a, a, &IndexConfig::default());
//! let idx_b = TransformersIndex::build(&disk_b, b, &IndexConfig::default());
//! let out = transformers_join(&idx_a, &disk_a, &idx_b, &disk_b, &JoinConfig::default());
//! assert_eq!(out.pairs.len() as u64, out.stats.unique_results);
//! ```

#![warn(missing_docs)]

pub use tfm_bptree as bptree;
pub use tfm_datagen as datagen;
pub use tfm_exec as exec;
pub use tfm_geom as geom;
pub use tfm_memjoin as memjoin;
pub use tfm_obs as obs;
pub use tfm_partition as partition;
pub use tfm_pool as pool;
pub use tfm_serve as serve;
pub use tfm_storage as storage;
pub use transformers;

/// The baseline join approaches the paper compares against (PBSM, the
/// synchronized R-Tree, GIPSY).
pub mod baselines {
    pub use tfm_gipsy as gipsy;
    pub use tfm_pbsm as pbsm;
    pub use tfm_rtree as rtree;
}

/// Common imports for examples and quick experiments.
pub mod prelude {
    pub use tfm_datagen::{
        generate, generate_trace, neuro, DatasetSpec, Distribution, ProbeMix, QueryTraceSpec,
    };
    pub use tfm_exec::{parallel_join, parallel_join_with_report, ExecReport};
    pub use tfm_geom::{Aabb, Point3, SpatialElement, SpatialQuery};
    pub use tfm_memjoin::{canonicalize, JoinStats, ResultPair};
    pub use tfm_serve::{serve_trace, QueryEngine, ServeConfig, ServeStats, TransformersEngine};
    pub use tfm_storage::{CacheHandle, Disk, DiskModel, SharedPageCache};
    pub use transformers::{
        transformers_join, GuidePick, IndexBuildPipeline, IndexConfig, JoinConfig, ThresholdPolicy,
        TransformersIndex,
    };
}
