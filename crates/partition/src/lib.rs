//! Data- and space-oriented partitioning substrates.
//!
//! * [`str_partition`] — the Sort-Tile-Recursive bulk-loading partitioner
//!   (Leutenegger et al., ICDE '97). TRANSFORMERS partitions both datasets
//!   with it (paper §IV "Partitioning"), GIPSY partitions the dense side,
//!   and the R-Tree baseline is STR-bulkloaded (§VII-A). It is one
//!   in-place kernel: each pass sorts one integer key per element
//!   (`tfm_geom::total_order_key` of the centre coordinate) and permutes
//!   the caller's vector, and the result is that vector plus a table of
//!   ranges and boxes ([`StrPartitions`]) — no per-partition `Vec`, no
//!   second element buffer. [`str_partition_pooled`] is the same kernel
//!   with the x-sort and the per-slab passes fanned out over a
//!   [`tfm_pool::StagePool`]; it returns the **identical** partition
//!   sequence at any thread count, which is what keeps parallel index
//!   builds byte-identical to sequential ones.
//! * [`UniformGrid`] — the uniform space tiling used by PBSM and by
//!   TRANSFORMERS' connectivity self-join (§IV "Connectivity").
//! * [`IndexBuildPipeline`] — the staged, data-parallel bulk-load
//!   pipeline (STR partition stage + order-preserving page encode/write
//!   stage over a `tfm_pool::StagePool`) shared by the TRANSFORMERS
//!   index build, GIPSY's sparse file and the STR-packed R-Tree.
//!
//! STR returns, for every partition, **two** bounding boxes exactly as the
//! paper's space descriptors store them (§IV "Data Organization"):
//!
//! * the **page MBB** — tight box around the partition's elements;
//! * the **partition MBB** — the slab region of the recursive sort-split,
//!   extended to the dataset extent, so that partition MBBs *tile* space
//!   with no gaps. Without it, "there may be gaps between two neighboring
//!   page MBBs … and TRANSFORMERS cannot navigate between them".

#![warn(missing_docs)]

mod grid;
mod pipeline;
mod str;

pub use grid::UniformGrid;
pub use pipeline::IndexBuildPipeline;
pub use str::{str_partition, str_partition_pooled, StrPartition, StrPartitions};
