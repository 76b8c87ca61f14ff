//! Crash-injection child for the WAL recovery harness.
//!
//! The `crash_recovery` integration test spawns this binary once per kill
//! point. Each run is fully deterministic given its flags:
//!
//! 1. generate the base dataset, build the TRANSFORMERS index into a
//!    checksummed file image under `--dir`, adopt it into the mutable
//!    overlay (prints `meta_head <page>` — fixed from adoption on);
//! 2. open a WAL under `--dir/wal` and, with `--crash-after B`, arm the
//!    byte-clock crash hook: the append that would push total record
//!    bytes past `B` writes only a partial frame, syncs, and aborts the
//!    process — a kill mid-commit at a byte-exact position;
//! 3. replay a deterministic writes-only trace in batches, printing
//!    `committed <k>` after each batch's commit, and take one checkpoint
//!    half-way, so that kill points fall on both sides of a log
//!    truncation.
//!
//! `committed k` witnesses that batch `k`'s commit record is durable. Its
//! data pages are in the log; whether they are also in place depends on
//! the write-back (the dirty tier is flushed when it fills and at the
//! checkpoint, not per batch), and the run ends without a final flush —
//! recovery, not the writer, is what makes the image whole.
//!
//! The parent reads the `committed` lines to learn exactly which batches
//! committed before the kill, recovers the image, and verifies the
//! restored overlay equals that prefix — committed work present,
//! uncommitted work absent. Without `--crash-after` the run completes and
//! prints `total_bytes <n>`, which the parent uses to place kill points.

use tfm_bench::gate::Args;
use tfm_datagen::{generate, generate_mixed_trace, DatasetSpec, MixedOp, MixedTraceSpec};
use tfm_storage::{Disk, SharedPageCache, StoreBackend};
use tfm_wal::{Wal, WalOptions};
use transformers::{IndexConfig, MutableTransformers, MutationOp, TransformersIndex};

fn main() {
    let flags = [
        "--dir",
        "--crash-after",
        "--count",
        "--batch",
        "--ops",
        "--seed",
        "--page-size",
    ];
    let args = Args::from_env(&flags);
    let opt = |flag| args.get(flag);
    let dir = std::path::PathBuf::from(opt("--dir").expect("--dir DIR is required"));
    let crash_after: Option<u64> = opt("--crash-after").map(|v| v.parse().expect("bytes"));
    let count: usize = opt("--count").map_or(250, |v| v.parse().expect("count"));
    let batch: usize = opt("--batch").map_or(40, |v| v.parse().expect("batch"));
    let ops: usize = opt("--ops").map_or(320, |v| v.parse().expect("ops"));
    let seed: u64 = opt("--seed").map_or(7, |v| v.parse().expect("seed"));
    let page_size: usize = opt("--page-size").map_or(512, |v| v.parse().expect("page size"));

    let elems = generate(&DatasetSpec {
        max_side: 6.0,
        ..DatasetSpec::uniform(count, seed)
    });
    let backend = StoreBackend::FileChecksummed(dir.clone());
    let disk = Disk::for_backend(&backend, page_size, "crash").expect("create data image");
    let idx = TransformersIndex::build(&disk, elems.clone(), &IndexConfig::default());
    let overlay = MutableTransformers::adopt(&idx, &disk);
    let cache = SharedPageCache::new(&disk, 4096);
    // The overlay sidecar's head page never moves after adoption; sync the
    // adopted base image so recovery starts from a durable prefix.
    disk.sync().expect("sync base image");
    println!("meta_head {}", overlay.meta_head().0);

    let wal = Wal::open(dir.join("wal"), WalOptions::default()).expect("open wal");
    wal.set_crash_after_bytes(crash_after);

    // Writes-only trace: every op mutates, so each chunk is one non-empty
    // WAL transaction. The parent regenerates the identical trace.
    let live_ids: Vec<u64> = elems.iter().map(|e| e.id).collect();
    let trace = generate_mixed_trace(&MixedTraceSpec::uniform(ops, 1000, seed), &live_ids);
    let checkpoint_after = ops.div_ceil(batch) / 2;
    for (k, chunk) in trace.chunks(batch).enumerate() {
        let writes: Vec<MutationOp> = chunk
            .iter()
            .map(|op| match op {
                MixedOp::Insert(e) => MutationOp::Insert(*e),
                MixedOp::Delete(id) => MutationOp::Delete(*id),
                MixedOp::Query(_) => unreachable!("writes-only trace"),
            })
            .collect();
        let out = overlay.apply_batch(&wal, &cache, &writes);
        assert_eq!(out.rejected_inserts, 0, "trace must replay cleanly");
        assert_eq!(out.missing_deletes, 0, "trace must replay cleanly");
        // Only printed once the batch's commit record is durable — the
        // parent treats this line as the commit witness.
        println!("committed {k}");
        if k + 1 == checkpoint_after {
            overlay.checkpoint(&wal, &cache).expect("checkpoint");
        }
    }
    println!("total_bytes {}", wal.appended_bytes());
}
