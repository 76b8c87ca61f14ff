//! The unified metric naming scheme.
//!
//! Every tier of the reproduction reports under `subsystem.metric_unit`:
//! the subsystem prefix (`cache`, `io`, `serve`, `join`, `build`) names
//! the layer that owns the signal, and duration metrics carry a `_nanos`
//! suffix. Counters previously scattered across `Metrics.pool_hits`,
//! `TransformersStats.pool_hits` and `ServeStats.cache` all route to the
//! single `cache.*` family below, published once per run from the
//! handle-local pool counters (never from both a local and a shared
//! surface, so nothing double-counts).
//!
//! Use these constants rather than string literals so the kind checks in
//! [`crate::MetricsRegistry`] stay meaningful and typos fail review, not
//! runs.

// --- cache.* : buffer-pool behaviour (SharedPageCache + CacheHandle) ---

/// Pool page hits, summed over all handle-local counters of a run.
pub const CACHE_HITS: &str = "cache.hits";
/// Pool page misses (disk page reads), handle-local.
pub const CACHE_MISSES: &str = "cache.misses";
/// Decoded-node cache hits (shared cache only).
pub const CACHE_DECODED_HITS: &str = "cache.decoded_hits";
/// Decoded-node cache misses (shared cache only).
pub const CACHE_DECODED_MISSES: &str = "cache.decoded_misses";
/// Frames evicted from the shared cache.
pub const CACHE_EVICTIONS: &str = "cache.evictions";
/// Evicted frames recycled instead of freshly allocated.
pub const CACHE_RECYCLED_FRAMES: &str = "cache.recycled_frames";
/// Fresh frame allocations in the shared cache.
pub const CACHE_FRESH_ALLOCS: &str = "cache.fresh_allocs";
/// Shard lock acquisitions in the shared cache.
pub const CACHE_LOCK_ACQUISITIONS: &str = "cache.lock_acquisitions";
/// Shard lock acquisitions that had to wait (contention signal).
pub const CACHE_LOCK_CONTENDED: &str = "cache.lock_contended";
/// Writes installed into the shared cache's dirty tier.
pub const CACHE_DIRTY_INSTALLS: &str = "cache.dirty_installs";
/// Dirty frames written back to the store by ordered flushing.
pub const CACHE_FLUSHED_PAGES: &str = "cache.flushed_pages";
/// Gauge: most dirty frames the cache held at a batch boundary.
pub const CACHE_DIRTY_HIGH_WATER: &str = "cache.dirty_high_water";

// --- io.* : simulated-disk access pattern (IoStats) ---

/// Sequential page reads.
pub const IO_SEQ_READS: &str = "io.seq_reads";
/// Random page reads.
pub const IO_RAND_READS: &str = "io.rand_reads";
/// Sequential page writes.
pub const IO_SEQ_WRITES: &str = "io.seq_writes";
/// Random page writes.
pub const IO_RAND_WRITES: &str = "io.rand_writes";
/// Simulated I/O cost in nanoseconds (disk model time, not wall time).
pub const IO_SIM_NANOS: &str = "io.sim_nanos";

// --- wal.* : the write-ahead log (tfm-wal) ---
//
// Published once per run by `Wal::publish_metrics` (writer-side counters)
// and `RecoveryReport::publish` (replay counters) — the log owns these
// signals, nothing else writes them.

/// Records appended to the log (page images, deltas and commit markers).
pub const WAL_RECORDS: &str = "wal.records";
/// Page records appended as a full after-image.
pub const WAL_FULL_RECORDS: &str = "wal.full_records";
/// Page records appended as byte-range deltas.
pub const WAL_DELTA_RECORDS: &str = "wal.delta_records";
/// Bytes of the delta records, framing included (a part of `wal.bytes`).
pub const WAL_DELTA_BYTES: &str = "wal.delta_bytes";
/// Bytes appended to the log, framing included.
pub const WAL_BYTES: &str = "wal.bytes";
/// fsyncs issued against log segments: one per commit, plus one per
/// `sync` that found records not yet durable.
pub const WAL_FSYNCS: &str = "wal.fsyncs";
/// Transactions committed through the log.
pub const WAL_COMMITS: &str = "wal.commits";
/// Distinct pages recovery brought forward and wrote to the image.
pub const WAL_RECOVERY_REPLAYED: &str = "wal.recovery.replayed";
/// Records of uncommitted transactions skipped during recovery.
pub const WAL_RECOVERY_SKIPPED: &str = "wal.recovery.skipped";
/// Bytes of log recovery scanned (every segment, read once).
pub const WAL_RECOVERY_BYTES_SCANNED: &str = "wal.recovery.bytes_scanned";
/// Runs of consecutive pages recovery wrote its replayed pages as (one
/// store write each).
pub const WAL_RECOVERY_RUNS_WRITTEN: &str = "wal.recovery.runs_written";
/// Wall time of recovery's scan: reading the segments and verifying
/// every record.
pub const WAL_RECOVERY_SCAN_NANOS: &str = "wal.recovery.scan_nanos";
/// Wall time of recovery's replay: the committed records applied to
/// their pages in memory.
pub const WAL_RECOVERY_REPLAY_NANOS: &str = "wal.recovery.replay_nanos";
/// Wall time of recovery's page writes.
pub const WAL_RECOVERY_WRITE_NANOS: &str = "wal.recovery.write_nanos";
/// Wall time of recovery's final sync of the data disk.
pub const WAL_RECOVERY_SYNC_NANOS: &str = "wal.recovery.sync_nanos";

// --- mutate.* : the online write path (`MutableTransformers`) ---
//
// Counted into the process-global registry where they happen.

/// Batches after which the dirty tier had reached its high-water mark
/// and `apply_batch` wrote the least recently written frames back.
pub const MUTATE_WRITE_BACKS: &str = "mutate.write_backs";
/// Checkpoints taken: every dirty frame flushed, the data disk synced
/// and the log truncated.
pub const MUTATE_CHECKPOINTS: &str = "mutate.checkpoints";

// --- serve.* : the concurrent query-serving subsystem ---

/// Queries served.
pub const SERVE_QUERIES: &str = "serve.queries";
/// Batches admitted to the request queue.
pub const SERVE_BATCHES: &str = "serve.batches";
/// Total result element IDs returned.
pub const SERVE_RESULT_IDS: &str = "serve.result_ids";
/// End-to-end serve wall time (one sample per run).
pub const SERVE_WALL_NANOS: &str = "serve.wall_nanos";
/// Per-query service time histogram (probe execution only).
pub const SERVE_SERVICE_NANOS: &str = "serve.service_nanos";
/// Per-query queue-wait histogram (admission to worker pop).
pub const SERVE_QUEUE_WAIT_NANOS: &str = "serve.queue_wait_nanos";

// --- shard.* : the sharded scatter-gather serve cluster ---
//
// Cluster-wide signals use the constants below; per-shard breakdowns use
// dynamic names of the form `shard.<i>.queries`, `shard.<i>.pool_hits`,
// `shard.<i>.pool_misses` and `shard.<i>.queue_wait_nanos` (the registry
// keys metrics by string, so dynamic families need no constants).

/// Queries admitted to the sharded serve path.
pub const SHARD_QUERIES: &str = "shard.queries";
/// Query partials routed to shards (Σ per-query fanout).
pub const SHARD_ROUTED: &str = "shard.routed";
/// Per-query fanout histogram: how many shards each probe scattered to.
pub const SHARD_FANOUT: &str = "shard.fanout";
/// Per-partial service-time histogram across all shards.
pub const SHARD_SERVICE_NANOS: &str = "shard.service_nanos";
/// Per-partial queue-wait histogram: sub-batch admission to worker pop.
pub const SHARD_QUEUE_WAIT_NANOS: &str = "shard.queue_wait_nanos";
/// Sub-batches refused by full shard queues (load-shedding admission).
pub const SHARD_SHED_BATCHES: &str = "shard.shed_batches";
/// Query partials lost to shed sub-batches.
pub const SHARD_SHED_QUERIES: &str = "shard.shed_queries";
/// Shards in the serving cluster.
pub const SHARD_COUNT: &str = "shard.count";
/// Peak percentage of shard queues simultaneously full during the run —
/// the cluster-level backpressure signal.
pub const SHARD_CLUSTER_PRESSURE_MAX_PCT: &str = "shard.cluster_pressure_max_pct";

// --- join.* : the adaptive parallel join ---

/// Pivot elements processed.
pub const JOIN_PIVOTS: &str = "join.pivots";
/// Chunks executed by the work-stealing scheduler.
pub const JOIN_CHUNKS: &str = "join.chunks";
/// Chunks skipped by the scheduler's pruning.
pub const JOIN_CHUNKS_PRUNED: &str = "join.chunks_pruned";
/// Successful steals between join workers.
pub const JOIN_STEALS: &str = "join.steals";
/// Per-chunk execution time histogram.
pub const JOIN_CHUNK_NANOS: &str = "join.chunk_nanos";
/// End-to-end join wall time (one sample per run).
pub const JOIN_WALL_NANOS: &str = "join.wall_nanos";
/// Join predicate evaluations (TRANSFORMERS `tests`).
pub const JOIN_TESTS: &str = "join.tests";
/// Guide/follower role transformations.
pub const JOIN_ROLE_TRANSFORMATIONS: &str = "join.role_transformations";
/// Node → unit layout transformations: pivots split into their space units.
pub const JOIN_LAYOUT_TRANSFORMATIONS: &str = "join.layout_transformations";
/// Result pairs the in-memory joins found more than once (after role
/// switches), removed by the final deduplication.
pub const JOIN_DUPLICATE_PAIRS: &str = "join.duplicate_pairs";
/// Units pruned by the connectivity filter.
pub const JOIN_PRUNED_UNITS: &str = "join.pruned_units";
/// Guide-walk steps.
pub const JOIN_WALK_STEPS: &str = "join.walk_steps";
/// Follower-crawl steps.
pub const JOIN_CRAWL_STEPS: &str = "join.crawl_steps";
/// Time inside the in-memory join kernel, summed over pivots and workers.
pub const JOIN_MEM_JOIN_NANOS: &str = "join.mem_join_nanos";
/// Time in walk, crawl, prefilter and transformation decisions (the
/// paper's exploration overhead), summed over pivots and workers.
pub const JOIN_EXPLORATION_NANOS: &str = "join.exploration_nanos";
/// Pivot windows executed (consecutive node-level pivots, up to the next
/// layout transformation, planned together and run from one ascending
/// follower sweep).
pub const JOIN_WINDOWS: &str = "join.windows";
/// Node-level pivots joined through windows (pivots with nothing to read
/// are not counted).
pub const JOIN_WINDOW_PIVOTS: &str = "join.window_pivots";
/// Follower pages the sweeps copied into a window slot, summed over
/// windows.
pub const JOIN_SWEPT_PAGES: &str = "join.swept_pages";
/// The most live slots any one window had (a gauge: the high-water mark
/// over windows and workers; at most 2 048).
pub const JOIN_WINDOW_PAGES_MAX: &str = "join.window_pages_max";
/// Follower pages a pivot read out of the sweep's order because every slot
/// of its window was live.
pub const JOIN_FORCED_PAGES: &str = "join.forced_pages";
/// Gap pages read only to keep a sweep sequential; they go past the cache,
/// so they are disk reads on top of `cache.misses`.
pub const JOIN_READ_THROUGH_PAGES: &str = "join.read_through_pages";
/// Element tests run by role-switched pivots (part of `join.tests`).
pub const JOIN_SWITCHED_TESTS: &str = "join.switched_tests";
/// Modelled device time of the join's page traffic on dataset A's disk.
pub const JOIN_MODEL_IO_A_NANOS: &str = "join.model_io_a_nanos";
/// Modelled device time of the join's page traffic on dataset B's disk.
pub const JOIN_MODEL_IO_B_NANOS: &str = "join.model_io_b_nanos";

// --- build.* : index-build stage timings ---
//
// Each stage records via `MetricsRegistry::stage_span(prefix)`, which
// emits `<prefix>_nanos` (wall histogram) and `<prefix>_cpu_nanos`
// (process-CPU counter). The constants below are the prefixes.

/// STR partitioning of the raw elements (tfm-partition pipeline).
pub const BUILD_PARTITION: &str = "build.partition";
/// Encoding and writing sorted runs to the disk image.
pub const BUILD_ENCODE_WRITE: &str = "build.encode_write";
/// Stage 1: STR ordering of leaf units.
pub const BUILD_UNIT_STR: &str = "build.unit_str";
/// Inside every STR pass: the x keys and extent, the slab multi-select,
/// the slab bounds and each item's slab id.
pub const BUILD_STR_X: &str = "build.str_x";
/// Inside every STR pass: the move of every item into its x-slab.
pub const BUILD_STR_DISTRIBUTE: &str = "build.str_distribute";
/// Inside every STR pass: the per-slab y-run selects, run sorts, permutes
/// and page boxes.
pub const BUILD_STR_SLABS: &str = "build.str_slabs";
/// Stage 2: STR ordering of internal nodes.
pub const BUILD_NODE_STR: &str = "build.node_str";
/// Stage 3: packing elements into pages.
pub const BUILD_PAGE_PACK: &str = "build.page_pack";
/// Stage 4: connectivity metadata.
pub const BUILD_CONNECTIVITY: &str = "build.connectivity";
/// Stage 5: finalize and root assembly.
pub const BUILD_FINALIZE: &str = "build.finalize";
