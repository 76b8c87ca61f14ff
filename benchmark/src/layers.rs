//! Per-layer numbers of the traced run: direct timings of public calls
//! into each layer on the workload's own index and pages, the counters a
//! round reads from public stats structs, and the open-loop probe.
//!
//! Everything here is measured from outside the product crates. Each
//! micro-timing is the best of three passes (the host's noise only ever
//! adds time); none of these metrics carries a regression bound.

use crate::pipeline::{Env, RoundDetail};
use crate::workloads::{CACHE_PAGES, PAGE_SIZE};
use std::hint::black_box;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tfm_bptree::BPlusTree;
use tfm_geom::{hilbert, Aabb, Point3, SpatialElement, SpatialQuery};
use tfm_partition::str_partition;
use tfm_pool::StagePool;
use tfm_serve::{
    serve_trace, LatencySummary, QueryEngine, RequestQueue, ServeConfig, TransformersEngine,
};
use tfm_storage::{Disk, ElementPageCodec, PageId, RedoLog, SharedPageCache};
use tfm_wal::{Wal, WalOptions};

/// Open-loop arrival rate and duration.
const OPEN_RATE_PER_S: u64 = 50_000;
const OPEN_SECONDS: u64 = 3;
/// Queue bound of the open loop: a probe that finds it full is shed.
const OPEN_QUEUE: usize = 4096;

/// Named per-layer values, in emission order.
pub type Values = Vec<(&'static str, f64)>;

/// Best-of-three nanoseconds per operation of `pass`, which performs `ops`
/// operations per call.
fn ns_per_op(ops: usize, mut pass: impl FnMut()) -> f64 {
    let best = (0..3)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed()
        })
        .min()
        .expect("three passes");
    best.as_nanos() as f64 / ops.max(1) as f64
}

/// The counters and splits one round already read from public stats.
pub fn from_round(d: &RoundDetail, out: &mut Values) {
    let secs = |d: Duration| d.as_secs_f64();
    out.push(("core.nodes", d.idx_a.nodes().len() as f64));
    out.push(("core.units", d.idx_a.units().len() as f64));
    out.push(("core.pages", d.disk_a.allocated_pages() as f64));
    out.push(("join.pages_read", d.seq.pages_read as f64));
    out.push(("join.seq_read_fraction", d.seq_io.seq_read_fraction()));
    out.push(("join.tests", d.seq.total_tests() as f64));
    out.push(("join.transformations", d.seq.transformations() as f64));
    out.push(("join.pruned_units", d.seq.pruned_units as f64));
    out.push(("join.pool_hit_fraction", d.seq.pool_hit_fraction()));
    out.push((
        "join.exploration_overhead_s",
        secs(d.seq.exploration_overhead),
    ));
    out.push(("join.results", d.seq.unique_results as f64));
    out.push(("exec.join_par_s", secs(d.par_wall)));
    out.push(("exec.speedup", secs(d.seq_wall) / secs(d.par_wall)));
    out.push(("exec.steal_fraction", d.par_report.steal_fraction()));
    out.push(("exec.par_pages_read", d.par_io.reads() as f64));
    out.push(("exec.par_model_io_s", secs(d.par_io.sim_io_time())));
    out.push(("serve.p99_us", d.serve.latency.p99_nanos as f64 / 1e3));
    out.push(("serve.cache_hit_fraction", d.serve.pool_hit_fraction()));
    out.push(("serve.pages_read", d.serve.io.reads() as f64));
    out.push(("serve.seq_read_fraction", d.serve.seq_read_fraction()));
    out.push(("serve.result_ids", d.serve.result_ids as f64));
    out.push(("mutate.ops_per_s", d.mixed_ops as f64 / secs(d.replay_wall)));
    out.push(("mutate.apply_s", secs(d.apply)));
    out.push(("mutate.probe_s", secs(d.probe)));
    out.push(("mutate.flushed_pages", d.flushed_pages as f64));
    out.push(("mutate.store_growth_bytes", d.store_growth as f64));
    out.push(("wal.bytes", d.wal.bytes as f64));
    out.push(("wal.records", d.wal.records as f64));
    out.push(("wal.commits", d.wal.commits as f64));
    out.push(("wal.fsyncs", d.wal.fsyncs as f64));
    out.push((
        "wal.bytes_per_write",
        d.wal.bytes as f64 / d.write_ops.max(1) as f64,
    ));
    out.push((
        "wal.recover_ns_per_page",
        d.recover_wall.as_nanos() as f64 / d.recovery.pages_replayed.max(1) as f64,
    ));
    out.push(("wal.pages_replayed", d.recovery.pages_replayed as f64));
}

/// Times public calls into each layer on this workload's own data: the
/// traced round's index A on its disk, and the seed's inputs again for the
/// elements that build consumed.
pub fn probe_layers(env: &Env<'_>, round: &RoundDetail, out: &mut Values) -> io::Result<()> {
    let inputs = env.workload.generate(env.seed, env.scale, env.squeeze);
    let codec = ElementPageCodec::new(PAGE_SIZE);
    let (idx, disk) = (&round.idx_a, &round.disk_a);
    let unit_pages: Vec<PageId> = idx.units().iter().map(|u| u.page).collect();
    let probes = &inputs.probes;

    // geom: one call per unit descriptor, the array a probe or a pivot scans.
    let universe = idx.extent();
    let centers: Vec<Point3> = idx.units().iter().map(|u| u.page_mbb.center()).collect();
    let boxes: Vec<Aabb> = idx.units().iter().map(|u| u.page_mbb).collect();
    out.push((
        "geom.hilbert_ns",
        ns_per_op(centers.len(), || {
            let mut acc = 0u64;
            for p in &centers {
                acc ^= hilbert::index_of_point(black_box(p), &universe);
            }
            black_box(acc);
        }),
    ));
    let window = probes[0].probe().inflate(50.0);
    out.push((
        "geom.intersect_ns",
        ns_per_op(boxes.len(), || {
            let hits = boxes
                .iter()
                .filter(|b| black_box(b).intersects(&window))
                .count();
            black_box(hits);
        }),
    ));

    // partition: the STR pass of the bulk load, on all of A.
    let mut copies: Vec<Vec<SpatialElement>> = (0..3).map(|_| inputs.a.clone()).collect();
    out.push((
        "partition.str_ns_per_elem",
        ns_per_op(inputs.a.len(), || {
            let items = copies.pop().expect("one copy per pass");
            black_box(str_partition(items, codec.capacity()));
        }),
    ));

    // storage: element-page codec.
    let chunks: Vec<&[SpatialElement]> = inputs.a.chunks(codec.capacity()).take(4096).collect();
    let mut buf = Vec::new();
    out.push((
        "storage.encode_ns_per_page",
        ns_per_op(chunks.len(), || {
            for c in &chunks {
                codec.encode_into(c, &mut buf);
                black_box(&buf);
            }
        }),
    ));
    let images: Vec<Vec<u8>> = chunks.iter().map(|c| codec.encode(c)).collect();
    let mut decoded = Vec::new();
    out.push((
        "storage.decode_ns_per_page",
        ns_per_op(images.len(), || {
            for image in &images {
                codec.decode_into(image, &mut decoded);
                black_box(&decoded);
            }
        }),
    ));

    // storage: shared cache (CLOCK), resident vs non-resident ids.
    let shards = SharedPageCache::shards_for_threads(env.workers);
    let cache = SharedPageCache::with_shards(disk, CACHE_PAGES, shards);
    let resident = &unit_pages[..(CACHE_PAGES / 2).min(unit_pages.len())];
    for &id in resident {
        cache.read_decoded(&codec, id);
    }
    out.push((
        "storage.cache_hit_ns",
        ns_per_op(resident.len() * 16, || {
            for _ in 0..16 {
                for &id in resident {
                    black_box(cache.read_tracked(id));
                }
            }
        }),
    ));
    out.push((
        "storage.cache_decoded_hit_ns",
        ns_per_op(resident.len() * 16, || {
            for _ in 0..16 {
                for &id in resident {
                    black_box(cache.read_decoded(&codec, id));
                }
            }
        }),
    ));
    // A sweep over every unit page of an index many times the cache:
    // each read misses and, once the frames are filled, recycles a victim.
    let sweep = SharedPageCache::with_shards(disk, CACHE_PAGES, shards);
    out.push((
        "storage.cache_miss_ns",
        ns_per_op(unit_pages.len(), || {
            for &id in &unit_pages {
                black_box(sweep.read_tracked(id));
            }
        }),
    ));
    let scratch_disk = Disk::in_memory(PAGE_SIZE);
    let dirty_cache = SharedPageCache::with_shards(&scratch_disk, CACHE_PAGES, shards);
    let dirty_first = scratch_disk.allocate_contiguous((CACHE_PAGES / 2) as u64).0;
    let image = &images[0];
    out.push((
        "storage.cache_dirty_flush_ns_per_page",
        // Only the flush is inside the clock: re-dirty before each pass.
        (0..3)
            .map(|_| {
                for i in 0..(CACHE_PAGES / 2) as u64 {
                    dirty_cache.write_page(PageId(dirty_first + i), image, 0);
                }
                let t = Instant::now();
                let (flushed, _) = dirty_cache.flush_dirty(u64::MAX);
                t.elapsed().as_nanos() as f64 / flushed.max(1) as f64
            })
            .fold(f64::INFINITY, f64::min),
    ));

    // storage: raw page reads, memory store vs a real file.
    let mut page = vec![0u8; PAGE_SIZE];
    out.push((
        "storage.mem_read_ns",
        ns_per_op(unit_pages.len(), || {
            for &id in &unit_pages {
                disk.read_page(id, &mut page);
                black_box(&page);
            }
        }),
    ));
    let file_path = env.workdir.join("layer.pages");
    let file_disk = Disk::file(&file_path, PAGE_SIZE)?;
    let file_pages = images.len() as u64;
    let file_first = file_disk.allocate_contiguous(file_pages).0;
    for (i, image) in images.iter().enumerate() {
        file_disk.write_page(PageId(file_first + i as u64), image);
    }
    file_disk.sync()?;
    out.push((
        "storage.file_read_ns",
        ns_per_op(images.len(), || {
            for i in 0..file_pages {
                file_disk.read_page(PageId(file_first + i), &mut page);
                black_box(&page);
            }
        }),
    ));
    drop(file_disk);
    std::fs::remove_file(&file_path)?;

    // bptree: point lookups in a tree the size of the walk-start directory.
    let tree_disk = Disk::in_memory(PAGE_SIZE);
    let pairs: Vec<(u64, u64)> = (0..inputs.a.len() as u64).map(|k| (k * 3, k)).collect();
    let tree = BPlusTree::bulk_load(&tree_disk, &pairs);
    let keys: Vec<u64> = pairs.iter().step_by(37).map(|&(k, _)| k).collect();
    out.push((
        "bptree.get_ns",
        ns_per_op(keys.len(), || {
            for &k in &keys {
                black_box(tree.get(&tree_disk, k));
            }
        }),
    ));

    // pool: the fixed cost of one scoped worker launch.
    let pool = StagePool::new(env.workers);
    out.push((
        "pool.scoped_run_us",
        ns_per_op(200, || {
            for _ in 0..200 {
                black_box(pool.scoped_run(|w| w));
            }
        }) / 1e3,
    ));

    // serve: prefilter, hot execute, inline replay, queue hand-off.
    let engine = TransformersEngine::new(idx, disk).with_shared_cache(CACHE_PAGES, shards);
    let singles = &probes[..probes.len().min(2000)];
    out.push((
        "serve.prefilter_ns_per_query",
        ns_per_op(singles.len(), || {
            for q in singles {
                black_box(engine.prefetch_schedule(std::slice::from_ref(q)));
            }
        }),
    ));
    let hot = &probes[..probes.len().min(32)];
    let mut session = engine.session(CACHE_PAGES);
    for q in hot {
        session.execute(q);
    }
    out.push((
        "serve.execute_hot_ns",
        ns_per_op(hot.len() * 32, || {
            for _ in 0..32 {
                for q in hot {
                    black_box(session.execute(q));
                }
            }
        }),
    ));
    drop(session);
    let inline_engine = TransformersEngine::new(idx, disk).with_shared_cache(CACHE_PAGES, shards);
    let inline = serve_trace(&inline_engine, probes, &ServeConfig::default());
    out.push((
        "serve.inline_qps",
        probes.len() as f64 / inline.stats.wall.as_secs_f64(),
    ));
    let queue: RequestQueue<u64> = RequestQueue::new(1024);
    out.push((
        "serve.queue_push_pop_ns",
        ns_per_op(1024 * 16, || {
            for _ in 0..16 {
                for i in 0..1024 {
                    queue.push(i);
                }
                for _ in 0..1024 {
                    black_box(queue.pop());
                }
            }
        }),
    ));

    // wal: direct appends and commits (real fsync, default options).
    let wal_dir = env.workdir.join("layer-wal");
    let wal = Wal::open(&wal_dir, WalOptions::default())?;
    let (mut append, mut commit) = (Duration::ZERO, Duration::ZERO);
    const TXNS: u64 = 64;
    const PAGES_PER_TXN: u64 = 16;
    for txn_no in 0..TXNS {
        let txn = wal.begin();
        let t = Instant::now();
        for p in 0..PAGES_PER_TXN {
            wal.log_page(txn, PageId(txn_no * PAGES_PER_TXN + p), image);
        }
        append += t.elapsed();
        let t = Instant::now();
        wal.commit(txn);
        commit += t.elapsed();
    }
    drop(wal);
    std::fs::remove_dir_all(&wal_dir)?;
    out.push((
        "wal.append_ns_per_page",
        append.as_nanos() as f64 / (TXNS * PAGES_PER_TXN) as f64,
    ));
    out.push(("wal.commit_ns", commit.as_nanos() as f64 / TXNS as f64));

    open_loop(&engine, probes, out);
    Ok(())
}

/// Open-loop probe: one pacer offers probes at a fixed rate regardless of
/// how the worker keeps up; one worker serves them. Latency runs from each
/// probe's *due* time, so a stall charges every probe queued behind it. A
/// probe that finds the queue full is shed and counted, never retried.
fn open_loop(engine: &TransformersEngine<'_>, probes: &[SpatialQuery], out: &mut Values) {
    let total = OPEN_RATE_PER_S * OPEN_SECONDS;
    let gap = Duration::from_nanos(1_000_000_000 / OPEN_RATE_PER_S);
    let queue: RequestQueue<(usize, Instant)> = RequestQueue::new(OPEN_QUEUE);
    let shed = AtomicU64::new(0);
    let late_max_ns = AtomicU64::new(0);
    let latencies: Vec<u64> = std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            let mut session = engine.session(CACHE_PAGES);
            let mut latencies = Vec::with_capacity(total as usize);
            while let Some((i, due)) = queue.pop() {
                black_box(session.execute(&probes[i % probes.len()]));
                latencies.push(due.elapsed().as_nanos() as u64);
            }
            latencies
        });
        let start = Instant::now();
        for i in 0..total {
            let due = start + gap * i as u32;
            // Spin: a sleeping pacer would wake late by more than the gap.
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            let late = due.elapsed().as_nanos() as u64;
            late_max_ns.fetch_max(late, Ordering::Relaxed);
            if queue.try_push((i as usize, due)).is_err() {
                shed.fetch_add(1, Ordering::Relaxed);
            }
        }
        queue.close();
        worker.join().expect("open-loop worker panicked")
    });
    let latency = LatencySummary::from_samples(latencies);
    out.push(("serve.open.p50_us", latency.p50_nanos as f64 / 1e3));
    out.push(("serve.open.p99_us", latency.p99_nanos as f64 / 1e3));
    out.push((
        "serve.open.late_max_us",
        late_max_ns.load(Ordering::Relaxed) as f64 / 1e3,
    ));
    out.push(("serve.open.shed", shed.load(Ordering::Relaxed) as f64));
}
