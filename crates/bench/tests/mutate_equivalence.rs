//! Concurrent read/write equivalence — the write path's acceptance bar.
//!
//! After every applied mutation batch, serve results over the mutable
//! overlay must be **byte-identical** to a TRANSFORMERS index rebuilt
//! from scratch on the mutated dataset, at 1, 2, 4 and 8 serve workers.
//! The mutations go through a real segmented WAL (one fsync per commit, ordered
//! data flush), so the whole logged write path sits under the equality.

use std::collections::BTreeMap;
use tfm_datagen::{
    generate, generate_mixed_trace, generate_trace, DatasetSpec, MixedOp, MixedTraceSpec,
    QueryTraceSpec,
};
use tfm_geom::SpatialElement;
use tfm_serve::{serve_trace, MutableTransformersEngine, ServeConfig, TransformersEngine};
use tfm_storage::{Disk, SharedPageCache};
use tfm_wal::{Wal, WalOptions};
use transformers::{IndexConfig, MutableTransformers, MutationOp, TransformersIndex};

#[test]
fn mutated_overlay_matches_rebuilt_index_at_every_worker_count() {
    let wal_dir = std::env::temp_dir().join(format!("tfm_mutate_equiv_{}", std::process::id()));
    std::fs::remove_dir_all(&wal_dir).ok();

    let elems = generate(&DatasetSpec {
        max_side: 6.0,
        ..DatasetSpec::uniform(3000, 90)
    });
    let disk = Disk::in_memory(2048);
    let idx = TransformersIndex::build(&disk, elems.clone(), &IndexConfig::default());
    let overlay = MutableTransformers::adopt(&idx, &disk);
    let cache = SharedPageCache::new(&disk, 8192);
    let wal = Wal::open(&wal_dir, WalOptions::default()).expect("open wal");

    let live_ids: Vec<u64> = elems.iter().map(|e| e.id).collect();
    let trace = generate_mixed_trace(
        &MixedTraceSpec {
            insert_permille: 600,
            ..MixedTraceSpec::uniform(600, 1000, 91)
        },
        &live_ids,
    );
    let probes = generate_trace(&QueryTraceSpec::uniform(200, 92));
    let mut live: BTreeMap<u64, SpatialElement> = elems.into_iter().map(|e| (e.id, e)).collect();

    let engine = MutableTransformersEngine::new(&overlay, &cache);
    for (round, chunk) in trace.chunks(150).enumerate() {
        let writes: Vec<MutationOp> = chunk
            .iter()
            .map(|op| match op {
                MixedOp::Insert(e) => {
                    live.insert(e.id, *e);
                    MutationOp::Insert(*e)
                }
                MixedOp::Delete(id) => {
                    live.remove(id);
                    MutationOp::Delete(*id)
                }
                MixedOp::Query(_) => unreachable!("writes-only trace"),
            })
            .collect();
        let out = overlay.apply_batch(&wal, &cache, &writes);
        assert_eq!(out.rejected_inserts, 0);
        assert_eq!(out.missing_deletes, 0);
        assert_eq!(overlay.len(), live.len() as u64);

        // Rebuild from scratch on the mutated dataset and hold every
        // worker count to byte-identical results.
        let rebuilt_disk = Disk::in_memory(2048);
        let mutated: Vec<SpatialElement> = live.values().copied().collect();
        let rebuilt = TransformersIndex::build(&rebuilt_disk, mutated, &IndexConfig::default());
        let rebuilt_engine = TransformersEngine::new(&rebuilt, &rebuilt_disk);
        let expected = serve_trace(&rebuilt_engine, &probes, &ServeConfig::default());
        for threads in [1, 2, 4, 8] {
            let cfg = ServeConfig::default().with_threads(threads).with_batch(32);
            let got = serve_trace(&engine, &probes, &cfg);
            assert_eq!(
                got.results, expected.results,
                "round {round}, threads {threads}"
            );
        }
    }

    // The WAL really carried the batches: one commit per round, each
    // durable behind its own fsync.
    let stats = wal.stats();
    assert_eq!(stats.commits, trace.chunks(150).len() as u64);
    assert_eq!(stats.fsyncs, stats.commits);

    std::fs::remove_dir_all(&wal_dir).ok();
}
