//! Real file storage backend gate — positional I/O, prefetch queue depth
//! and Hilbert-driven readahead.
//!
//! Four cold-cache serve runs of the TRANSFORMERS engine over one
//! workload, all required to return byte-identical results:
//!
//! 1. **mem** — the in-memory [`StoreBackend::Mem`] reference.
//! 2. **file** — [`StoreBackend::File`]: a real on-disk page image read
//!    with positional I/O, no latency injection. Proves the backend
//!    itself changes nothing but where the bytes live.
//! 3. **file, depth 1** — the file backend with device read latency
//!    injected ([`RunConfig::read_latency`] scales the
//!    [`tfm_storage::DiskModel`] cost onto the reading thread), **no**
//!    readahead: every cold miss pays its latency on a worker's critical
//!    path. This is the gate's denominator.
//! 4. **file, depth ≥ 4 + readahead** — same latency, but a prefetch
//!    pipeline (`--io-depth` dedicated I/O threads fed by the batches'
//!    Hilbert-ordered page schedule) keeps a queue depth of reads in
//!    flight. Latency is paid overlapped and off the workers, so
//!    cold-cache wall-clock throughput must beat run 3 by ≥ 1.3×.
//!
//! Results go to `BENCH_io.json` (written by `tfm_bench::gate`, host
//! provenance included); the process exits 1 when a gate fails, 2 on an
//! unknown option. Scale with `TFM_SCALE`; `--dir PATH` picks where page
//! images are written (a disk-backed directory exercises real device I/O,
//! tmpfs gives determinism), `--out PATH` the report path.

use tfm_bench::args::Args;
use tfm_bench::gate::{self, Gate, Json};
use tfm_bench::{run_serve, scale, scaled, RunConfig, ServeEngineKind, ServeMetrics};
use tfm_datagen::{generate, generate_trace, DatasetSpec, QueryTraceSpec};
use tfm_serve::ServeConfig;
use tfm_storage::StoreBackend;

/// Queue depth of the readahead run (gate numerator).
const IO_DEPTH: usize = 8;
/// Readahead window in pages of the readahead run.
const READAHEAD: usize = 512;
/// Device-latency injection scale for the throttled runs: large enough
/// that cold-miss latency dominates the serve wall clock (that is the
/// regime the paper's 10 kRPM SAS experiments run in), small enough that
/// the bench stays seconds, not minutes.
const LATENCY: f64 = 0.25;

fn json_row(label: &str, latency: f64, m: &ServeMetrics) -> Json {
    Json::Obj(vec![
        ("run", Json::Str(label.into())),
        ("read_latency", Json::num(latency)),
        ("io_depth", Json::num(m.io_depth)),
        ("readahead", Json::num(m.readahead)),
        ("wall_s", Json::fixed(m.wall.as_secs_f64(), 6)),
        ("qps", Json::fixed(m.qps, 1)),
        ("pages_read", Json::num(m.pages_read)),
        ("pool_hits", Json::num(m.pool_hits)),
        ("pool_misses", Json::num(m.pool_misses)),
        ("prefetch_issued", Json::num(m.prefetch_issued)),
        ("prefetch_hits", Json::num(m.prefetch_hits)),
        ("prefetch_unused", Json::num(m.prefetch_unused)),
        ("hit_fraction", Json::fixed(m.pool_hit_fraction(), 4)),
        ("sim_io_s", Json::fixed(m.sim_io.as_secs_f64(), 6)),
    ])
}

fn main() {
    let args = Args::from_env("bench_io [--out FILE] [--dir DIR]");
    let out_path = args.get("--out").unwrap_or("BENCH_io.json");
    let (dir, own_dir) = args.dir_or_temp("tfm_bench_io");

    let dataset = generate(&DatasetSpec {
        max_side: 6.0,
        ..DatasetSpec::uniform(scaled(20_000, scale()), 81)
    });
    let trace = generate_trace(&QueryTraceSpec::uniform(scaled(1_500, scale()), 82));

    // Every run builds its engine fresh (cold cache, cold pools); the
    // serve phase itself is what the rows time.
    let serve_base = ServeConfig::default().with_threads(2).with_batch(64);
    let run = |backend: StoreBackend, latency: f64, io_depth: usize, readahead: usize| {
        let run_cfg = RunConfig {
            backend,
            read_latency: latency,
            ..RunConfig::default()
        };
        let serve_cfg = serve_base.with_io_depth(io_depth).with_readahead(readahead);
        run_serve(
            ServeEngineKind::Transformers,
            "io-backend",
            &dataset,
            &trace,
            &run_cfg,
            &serve_cfg,
        )
    };

    let (mem, mem_results) = run(StoreBackend::Mem, 0.0, 1, 0);
    let (file_raw, file_raw_results) = run(StoreBackend::File(dir.clone()), 0.0, 1, 0);
    let (depth1, depth1_results) = run(StoreBackend::File(dir.clone()), LATENCY, 1, 0);
    let (ra, ra_results) = run(
        StoreBackend::File(dir.clone()),
        LATENCY,
        IO_DEPTH,
        READAHEAD,
    );

    let outputs_identical = file_raw_results == mem_results
        && depth1_results == mem_results
        && ra_results == mem_results;
    let speedup = if ra.wall.as_secs_f64() > 0.0 {
        depth1.wall.as_secs_f64() / ra.wall.as_secs_f64()
    } else {
        0.0
    };

    let gates = [
        ("outputs_identical", outputs_identical),
        ("readahead_speedup_1_3x", speedup >= 1.3),
        (
            "prefetch_pipeline_used",
            ra.prefetch_issued > 0 && ra.prefetch_hits > 0,
        ),
        (
            "prefetch_stays_out_of_hit_counters",
            ra.pool_hits + ra.pool_misses + ra.prefetch_hits
                >= depth1.pool_hits + depth1.pool_misses,
        ),
    ]
    .map(|(name, ok)| (name, Gate::from(ok)));

    let workload = Json::Obj(vec![
        ("dataset_elements", Json::num(dataset.len())),
        ("queries", Json::num(trace.len())),
        ("store_dir", Json::Str(dir.display().to_string())),
    ]);
    let rows = Json::Arr(vec![
        json_row("mem", 0.0, &mem),
        json_row("file", 0.0, &file_raw),
        json_row("file-depth1", LATENCY, &depth1),
        json_row("file-readahead", LATENCY, &ra),
    ]);
    gate::write_report(
        out_path,
        Some(scale()),
        vec![
            ("workload", workload),
            ("readahead_speedup", Json::fixed(speedup, 3)),
            ("rows", rows),
        ],
        &gates,
    );

    println!("== file storage backend: queue depth + Hilbert readahead ==");
    println!(
        "mem {:.3}s | file {:.3}s | file+latency depth1 {:.3}s | depth{} readahead{} {:.3}s",
        mem.wall.as_secs_f64(),
        file_raw.wall.as_secs_f64(),
        depth1.wall.as_secs_f64(),
        IO_DEPTH,
        READAHEAD,
        ra.wall.as_secs_f64(),
    );
    println!(
        "readahead speedup {speedup:.2}x (gate >= 1.3x); prefetch issued {} hit {} unused {}",
        ra.prefetch_issued, ra.prefetch_hits, ra.prefetch_unused
    );
    // Only remove page images this run created itself.
    if own_dir {
        std::fs::remove_dir_all(&dir).ok();
    }
    gate::finish(&gates, out_path);
}
