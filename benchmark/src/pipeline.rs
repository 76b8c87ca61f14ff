//! One round: a complete, independent pass over one seed's inputs through
//! every layer a user reaches — bulk load, sequential and parallel join,
//! serve replay, mixed read/write replay on a real WAL, crash recovery —
//! with the correctness gate in the same pass.
//!
//! The expensive oracles (full scans, the 1-worker inline replay, the
//! model-mutated dataset) are pure functions of the seed, so they run once,
//! in the discarded warm-up round, and every timed round is compared with
//! their answers; the cross-path comparisons (parallel == sequential join)
//! run every round on that round's own outputs.

use crate::measure::Recorder;
use crate::trace::Tracer;
use crate::workloads::{CacheProperty, Inputs, Workload, CACHE_PAGES, PAGE_SIZE, RECORD_BYTES};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};
use tfm_datagen::{queries_of, MixedOp};
use tfm_exec::{parallel_join_with_report, ExecReport};
use tfm_geom::{SpatialElement, SpatialQuery};
use tfm_memjoin::ResultPair;
use tfm_serve::{
    serve_trace, LatencySummary, MutableTransformersEngine, ServeConfig, ServeStats,
    TransformersEngine,
};
use tfm_storage::{Disk, IoStatsSnapshot, SharedPageCache, StoreBackend};
use tfm_wal::{RecoveryReport, Wal, WalOptions, WalStats};
use transformers::{
    transformers_join, IndexConfig, JoinConfig, MutableTransformers, MutationOp, TransformersIndex,
    TransformersStats,
};

/// Probes sampled for each full-scan comparison.
const SAMPLED_PROBES: usize = 200;
/// Mixed-trace chunk: each chunk's writes are one WAL transaction, as in
/// `tfm mutate`.
const MUTATE_BATCH: usize = 64;

/// What stays the same across the rounds of one run.
pub struct Env<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    /// Shrinks every input size (1 in a `run`).
    pub scale: f64,
    /// Packs the join inputs and the probes into this fraction of each
    /// universe axis (1 in a `run`; see [`Workload::generate`]).
    pub squeeze: f64,
    pub workdir: &'a Path,
    /// Workers of the parallel join and the serve replay.
    pub workers: usize,
    /// Assert the workload's defining properties (off at `verify` scale,
    /// where the index fits the cache and the traces are too short).
    pub check_properties: bool,
}

/// Outcome of the correctness gate, summed over rounds.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the log.
    pub messages: Vec<String>,
}

impl Gate {
    /// Counts `ops` attempted operations of which `failed` failed.
    fn count(&mut self, ops: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += ops;
        if failed > 0 {
            self.failed += failed;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.count(1, u64::from(!ok), what);
    }
}

/// Oracle answers computed in the warm-up round.
pub struct Reference {
    pub pairs: Vec<ResultPair>,
    /// 1-worker inline answers to every probe.
    serve: Vec<Vec<u64>>,
    sampled: Vec<SpatialQuery>,
    /// Full-scan answers to `sampled` over the model-mutated base.
    mutated: Vec<Vec<u64>>,
}

/// Per-layer facts of one round, read from public stats structs, and the
/// round's index A on its disk for the layer probes of a traced run.
pub struct RoundDetail {
    pub idx_a: TransformersIndex,
    pub disk_a: Disk,
    pub seq: TransformersStats,
    pub seq_io: IoStatsSnapshot,
    pub seq_wall: Duration,
    pub par_report: ExecReport,
    pub par_io: IoStatsSnapshot,
    pub par_wall: Duration,
    pub serve: ServeStats,
    /// Mixed-trace ops (reads + writes) and the wall of their replay,
    /// split into the time inside `apply_batch` and inside `serve_trace`.
    pub mixed_ops: u64,
    pub replay_wall: Duration,
    pub apply: Duration,
    pub probe: Duration,
    pub flushed_pages: u64,
    pub store_growth: u64,
    pub write_ops: u64,
    pub wal: WalStats,
    pub recovery: RecoveryReport,
    pub recover_wall: Duration,
}

fn full_scan<'a>(elements: impl Iterator<Item = &'a SpatialElement>, q: &SpatialQuery) -> Vec<u64> {
    let mut ids: Vec<u64> = elements
        .filter(|e| q.matches(&e.mbb))
        .map(|e| e.id)
        .collect();
    ids.sort_unstable();
    ids
}

fn mismatches(got: &[Vec<u64>], want: &[Vec<u64>]) -> u64 {
    let differing = got.iter().zip(want).filter(|(g, w)| g != w).count();
    (differing + got.len().abs_diff(want.len())) as u64
}

/// Runs one round. Records every end-to-end sample into `rec`, counts
/// the gate's checks into `gate`, and fills `reference` the first time.
pub fn run_round(
    env: &Env<'_>,
    tracer: &mut Tracer,
    reference: &mut Option<Reference>,
    rec: &mut Recorder,
    gate: &mut Gate,
) -> io::Result<RoundDetail> {
    let round_span = tracer.begin("round");
    let w = env.workload;
    let mut setup = Duration::ZERO;
    // Times `$body` into `setup` under a span named `$name`.
    macro_rules! setup {
        ($name:literal, $body:expr) => {{
            let t = Instant::now();
            let span = tracer.begin($name);
            let out = $body;
            tracer.end(span);
            setup += t.elapsed();
            out
        }};
    }

    let Inputs {
        a,
        b,
        probes,
        base,
        mixed,
    } = setup!(
        "datagen.inputs",
        w.generate(env.seed, env.scale, env.squeeze)
    );
    let (disk_a, disk_b) = setup!(
        "storage.disks",
        (Disk::in_memory(PAGE_SIZE), Disk::in_memory(PAGE_SIZE))
    );
    let elements = (a.len() + b.len()) as f64;
    // The builds consume their inputs; the oracle's copies are taken
    // outside every timed region, and only while there is no reference.
    let oracle_a = reference.is_none().then(|| a.clone());

    // --- bulk load ---------------------------------------------------
    let cfg = IndexConfig::default();
    let t = Instant::now();
    let idx_a = tracer.span("core.build", |_| TransformersIndex::build(&disk_a, a, &cfg));
    let idx_b = tracer.span("core.build", |_| TransformersIndex::build(&disk_b, b, &cfg));
    rec.record("build_s", t.elapsed().as_secs_f64());
    let stored = (disk_a.store_len() + disk_b.store_len()) as f64;
    rec.record("space_amp", stored / (elements * RECORD_BYTES as f64));

    // --- sequential join ---------------------------------------------
    let join_cfg = JoinConfig::default();
    let io_of = || disk_a.stats().merged(&disk_b.stats());
    let before = io_of();
    let t = Instant::now();
    let seq = tracer.span("core.join_seq", |_| {
        transformers_join(&idx_a, &disk_a, &idx_b, &disk_b, &join_cfg)
    });
    let seq_wall = t.elapsed();
    let seq_io = io_of().delta_since(&before);
    rec.record("join_seq_s", seq_wall.as_secs_f64());
    rec.record("join_model_io_s", seq_io.sim_io_time().as_secs_f64());

    // --- parallel join -----------------------------------------------
    let before = io_of();
    let t = Instant::now();
    let (par, par_report) = tracer.span("exec.join_par", |_| {
        parallel_join_with_report(&idx_a, &disk_a, &idx_b, &disk_b, &join_cfg, env.workers)
    });
    let par_wall = t.elapsed();
    let par_io = io_of().delta_since(&before);
    gate.check(par.pairs == seq.pairs, || {
        format!(
            "parallel join returned {} pairs, sequential {} (or different ones)",
            par.pairs.len(),
            seq.pairs.len()
        )
    });

    // --- serve replay --------------------------------------------------
    let shards = SharedPageCache::shards_for_threads(env.workers);
    let engine = setup!(
        "serve.engine",
        TransformersEngine::new(&idx_a, &disk_a).with_shared_cache(CACHE_PAGES, shards)
    );
    // `with_traces` hands back each probe's service time after the run;
    // the records are assembled outside `ServeStats.wall`.
    let serve_cfg = ServeConfig::default()
        .with_threads(env.workers)
        .with_traces();
    let served = tracer.span("serve.replay", |_| {
        serve_trace(&engine, &probes, &serve_cfg)
    });
    // Exact nearest-rank percentiles over the raw samples; the histogram
    // behind `ServeStats.latency` rounds to 1/32 and would repeat values.
    let service =
        LatencySummary::from_samples(served.traces.iter().map(|t| t.service_nanos).collect());
    rec.record(
        "serve_qps",
        probes.len() as f64 / served.stats.wall.as_secs_f64(),
    );
    rec.record("serve_p50_us", service.p50_nanos as f64 / 1e3);

    // --- oracles, first round only ------------------------------------
    if let Some(a) = oracle_a {
        let check = tracer.begin("check.oracles");
        let inline_engine =
            TransformersEngine::new(&idx_a, &disk_a).with_shared_cache(CACHE_PAGES, shards);
        let inline = serve_trace(&inline_engine, &probes, &ServeConfig::default());
        let stride = (probes.len() / SAMPLED_PROBES).max(1);
        let sampled: Vec<SpatialQuery> = probes.iter().step_by(stride).copied().collect();
        let wrong = probes
            .iter()
            .step_by(stride)
            .zip(inline.results.iter().step_by(stride))
            .filter(|(q, got)| **got != full_scan(a.iter(), q))
            .count();
        gate.count(sampled.len() as u64, wrong as u64, || {
            format!("{wrong} sampled probes differ from the full scan of A")
        });
        let mut live: BTreeMap<u64, SpatialElement> = base.iter().map(|e| (e.id, *e)).collect();
        for op in &mixed {
            match op {
                MixedOp::Insert(e) => {
                    live.insert(e.id, *e);
                }
                MixedOp::Delete(id) => {
                    live.remove(id);
                }
                MixedOp::Query(_) => {}
            }
        }
        let mutated = sampled
            .iter()
            .map(|q| full_scan(live.values(), q))
            .collect();
        *reference = Some(Reference {
            pairs: seq.pairs.clone(),
            serve: inline.results,
            sampled,
            mutated,
        });
        tracer.end(check);
    }
    let reference = reference.as_ref().expect("filled above");
    gate.check(seq.pairs == reference.pairs, || {
        "sequential join differs from the warm-up round's".to_string()
    });
    let wrong = mismatches(&served.results, &reference.serve);
    gate.count(probes.len() as u64, wrong, || {
        format!("{wrong} probes answered differently by the worker pool and the inline replay")
    });

    // --- mutable base image + WAL ---------------------------------------
    let dir = env.workdir.join("round");
    let wal_dir = dir.join("wal");
    let base_disk = setup!("storage.base_image", {
        std::fs::create_dir_all(&dir)?;
        Disk::for_backend(
            &StoreBackend::FileChecksummed(dir.clone()),
            PAGE_SIZE,
            "base",
        )?
    });
    let base_idx = setup!(
        "core.build_base",
        TransformersIndex::build(&base_disk, base, &cfg)
    );
    let overlay = setup!(
        "core.adopt",
        MutableTransformers::adopt(&base_idx, &base_disk)
    );
    let meta_head = overlay.meta_head();
    // The image is copied without an fsync first: both files are read back
    // through the OS page cache, and the wait for the sandbox disk would
    // only add its noise to `setup_s`.
    setup!("storage.copy_image", {
        std::fs::copy(dir.join("base.pages"), dir.join("copy.pages"))?;
        std::fs::copy(dir.join("base.pages.sums"), dir.join("copy.pages.sums"))?;
    });
    let cache = setup!(
        "storage.cache",
        SharedPageCache::new(&base_disk, CACHE_PAGES)
    );
    // Flush policy: `WalOptions::default()` — group commit, one real
    // fsync per transaction, no injected latency.
    let wal = setup!("wal.open", Wal::open(&wal_dir, WalOptions::default())?);
    let mutable_engine = MutableTransformersEngine::new(&overlay, &cache);
    let inline_cfg = ServeConfig::default().with_batch(MUTATE_BATCH);

    let store_before = base_disk.store_len();
    let (mut apply, mut probe) = (Duration::ZERO, Duration::ZERO);
    let (mut write_ops, mut flushed_pages, mut refused) = (0u64, 0u64, 0u64);
    let replay = tracer.begin("mutate.replay");
    let t = Instant::now();
    for chunk in mixed.chunks(MUTATE_BATCH) {
        let writes: Vec<MutationOp> = chunk
            .iter()
            .filter_map(|op| match op {
                MixedOp::Insert(e) => Some(MutationOp::Insert(*e)),
                MixedOp::Delete(id) => Some(MutationOp::Delete(*id)),
                MixedOp::Query(_) => None,
            })
            .collect();
        if !writes.is_empty() {
            let t = Instant::now();
            let out = tracer.span("core.apply_batch", |_| {
                overlay.apply_batch(&wal, &cache, &writes)
            });
            apply += t.elapsed();
            write_ops += writes.len() as u64;
            flushed_pages += out.flushed_pages as u64;
            refused += out.rejected_inserts + out.missing_deletes;
        }
        let reads = queries_of(chunk);
        if !reads.is_empty() {
            let t = Instant::now();
            tracer.span("serve.chunk_probes", |_| {
                serve_trace(&mutable_engine, &reads, &inline_cfg)
            });
            probe += t.elapsed();
        }
    }
    let replay_wall = t.elapsed();
    tracer.end(replay);
    let wal_stats = wal.stats();
    let written = wal_stats.bytes + flushed_pages * PAGE_SIZE as u64;
    rec.record(
        "write_amp",
        written as f64 / (write_ops.max(1) * RECORD_BYTES as u64) as f64,
    );
    gate.count(mixed.len() as u64, refused, || {
        format!("{refused} inserts rejected or deletes missing in the mixed replay")
    });
    let after_replay = tracer.span("check.overlay", |_| {
        serve_trace(&mutable_engine, &reference.sampled, &inline_cfg).results
    });
    let wrong = mismatches(&after_replay, &reference.mutated);
    gate.count(reference.sampled.len() as u64, wrong, || {
        format!("{wrong} sampled probes on the overlay differ from the mutated full scan")
    });
    let store_growth = base_disk.store_len() - store_before;
    drop(wal);

    // --- recovery onto the pre-mutation image ---------------------------
    let copy = setup!(
        "storage.open_copy",
        Disk::open_file_checksummed(dir.join("copy.pages"), PAGE_SIZE)?
    );
    let t = Instant::now();
    let recovery = tracer.span("wal.recover", |_| tfm_wal::recover(&wal_dir, &copy))?;
    let recover_wall = t.elapsed();
    rec.record("recover_s", recover_wall.as_secs_f64());
    let reopened = tracer.span("check.reopen", |_| {
        let snapshot = MutableTransformers::reopen(&copy, meta_head).snapshot();
        let mut reader = &copy;
        reference
            .sampled
            .iter()
            .map(|q| snapshot.query(&mut reader, q))
            .collect::<Vec<_>>()
    });
    let wrong = mismatches(&reopened, &reference.mutated);
    gate.count(reference.sampled.len() as u64, wrong, || {
        format!("{wrong} sampled probes differ after recovery from the log alone")
    });
    setup!("storage.cleanup", std::fs::remove_dir_all(&dir)?);
    rec.record("setup_s", setup.as_secs_f64());

    // --- the workload's defining properties -----------------------------
    if env.check_properties {
        let share = write_ops as f64 * 1000.0 / mixed.len() as f64;
        gate.check(
            (share - w.write_permille as f64).abs() <= 0.25 * w.write_permille as f64,
            || {
                format!(
                    "write share drifted: {share:.0} permille of the trace, {} configured",
                    w.write_permille
                )
            },
        );
        let hit = served.stats.pool_hit_fraction();
        match w.cache {
            CacheProperty::Cold => gate.check(hit <= 0.10, || {
                format!(
                    "cold workload served {:.1} % cache hits (> 10 %)",
                    hit * 100.0
                )
            }),
            CacheProperty::Hot => gate.check(hit >= 0.90, || {
                format!(
                    "hot workload served {:.1} % cache hits (< 90 %)",
                    hit * 100.0
                )
            }),
            CacheProperty::Any => {}
        }
        if w.transforms {
            gate.check(seq.stats.transformations() > 0, || {
                "no transformation fired on the workload that exists to exercise them".to_string()
            });
        }
    }
    tracer.end(round_span);

    drop(engine);
    Ok(RoundDetail {
        idx_a,
        disk_a,
        seq: seq.stats,
        seq_io,
        seq_wall,
        par_report,
        par_io,
        par_wall,
        serve: served.stats,
        mixed_ops: mixed.len() as u64,
        replay_wall,
        apply,
        probe,
        flushed_pages,
        store_growth,
        write_ops,
        wal: wal_stats,
        recovery,
        recover_wall,
    })
}
