//! Simulated disk substrate for the TRANSFORMERS spatial-join reproduction.
//!
//! The paper evaluates *disk-based* spatial joins on 10 kRPM SAS disks with
//! cold caches (§VII-A). This reproduction runs at laptop scale, so the
//! device is simulated instead (see `DESIGN.md`, substitution 1):
//!
//! * all data moves through fixed-size pages ([`DEFAULT_PAGE_SIZE`] =
//!   8 KiB, matching §VII-A) managed by a [`Disk`];
//! * every page access is counted and classified *sequential* vs *random*
//!   by comparing against the previously accessed page id;
//! * a calibrated [`DiskModel`] integrates those accesses into *simulated
//!   I/O time*, which is what the figure reproductions report as "I/O".
//!
//! The effects the paper attributes to the device — PBSM's random reads
//! after scattered partition writes, GIPSY's repeated small reads,
//! TRANSFORMERS reading strictly fewer pages — are all functions of page
//! access counts and their ordering, which this layer captures exactly.
//!
//! Bytes live behind the [`PageStore`] abstraction: [`MemStore`] (default;
//! deterministic and fast) or [`FileStore`] — a real on-disk page image
//! accessed with positional I/O and no global offset lock, into which
//! dedicated I/O threads can keep a queue depth of reads in flight ahead of
//! the workers ([`SharedPageCache::prefetch_page`]). Whichever backend is in
//! use, the accounting (and thus every result and every simulated-time
//! figure) is identical; only wall-clock behaviour differs.
//!
//! On top of the disk sits the one page cache every join, probe and write
//! reads through: the lock-striped [`SharedPageCache`] of pinned zero-copy
//! frames, one per dataset (a one-shard one for a single owner's scan),
//! read through a per-worker [`CacheHandle`]. Index traversals are generic
//! over the [`PageReads`] trait, whose two implementors are that handle
//! (also behind the write path's [`LoggedPages`]) and the raw `&Disk` for
//! one-shot uncached reads.

#![warn(missing_docs)]

mod cache;
mod clock;
mod disk;
mod elempage;
mod model;
mod redo;
mod shared;
mod stats;
mod store;

pub use cache::{CacheHandle, PageReads, PageSlice, PoolCounters};
pub use disk::{Disk, DiskBackendKind};
pub use elempage::{ElementPageCodec, ElementRecords, RECORD_SIZE as ELEMENT_RECORD_BYTES};
pub use model::DiskModel;
pub use redo::{LoggedPages, NoopLog, PageWrites, RedoLog};
pub use shared::{
    CacheStats, PageRef, ReadOutcome, SharedPageCache, DEFAULT_CACHE_SHARDS, DEFAULT_POOL_PAGES,
};
pub use stats::{IoStats, IoStatsSnapshot};
pub use store::{checksum64, is_checksum_mismatch, FileStore, MemStore, PageStore, StoreBackend};

/// Default page size used throughout the reproduction (paper §VII-A: 8 KB).
pub const DEFAULT_PAGE_SIZE: usize = 8192;

/// Identifier of a page on a [`Disk`].
///
/// Page ids are dense: the disk allocates them sequentially, so consecutive
/// ids model physically consecutive disk blocks, which is what the
/// sequential/random classification of the [`DiskModel`] relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl PageId {
    /// Sentinel used before any page has been accessed.
    pub(crate) const NONE: u64 = u64::MAX;
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}
