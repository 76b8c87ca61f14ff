//! Read-path tuning gate — join prefetch pipeline and readahead sizing.
//!
//! Three gates over one experiment: three cold-cache parallel
//! TRANSFORMERS joins over one uniform workload pair — a mem-backend
//! reference, a file-backend demand-paged run under injected device read
//! latency ([`RunConfig::read_latency`]), and a prefetching run with
//! `io_depth` dedicated I/O threads following each chunk's unit-page
//! schedule. All three must return byte-identical pairs.
//!
//! 1. **Join prefetch ≥ 1.3×.** The prefetch run must beat demand paging
//!    by ≥ 1.3× join wall time — the latency is paid overlapped on the
//!    I/O threads instead of on the workers' critical path. The speed-up
//!    exists only under the injected latency; it is not a claim about the
//!    in-memory store.
//! 2. **Pipeline used.** The prefetch run issued pages and demand reads
//!    hit them.
//! 3. **Unused prefetch < 20%.** The chunk schedule is derived from the
//!    pivot run actually joined, so on the uniform trace a well-sized
//!    readahead window must leave fewer than 20% of issued pages unread.
//!
//! Results go to `BENCH_tune.json` (written by `tfm_bench::gate`, host
//! provenance included); the process exits 1 when a gate fails, 2 on an
//! unknown option. Scale with `TFM_SCALE`; `--dir PATH` picks the
//! page-image directory, `--out PATH` the report path.

use tfm_bench::args::Args;
use tfm_bench::gate::{self, Gate, Json};
use tfm_bench::{run_approach, scale, scaled, Approach, Metrics, RunConfig};
use tfm_datagen::{generate, DatasetSpec};
use tfm_storage::StoreBackend;
use transformers::JoinConfig;

/// Queue depth of the prefetching join runs (gate requires ≥ 4).
const IO_DEPTH: usize = 8;
/// Readahead window in pages of the prefetching join runs.
const READAHEAD: usize = 512;
/// Join workers of every parallel run.
const JOIN_THREADS: usize = 2;
/// Device-latency injection scale for the throttled runs: cold-miss
/// latency must dominate the join wall clock (the regime the paper's
/// 10 kRPM SAS experiments run in) while keeping the bench in seconds.
const LATENCY: f64 = 0.25;

fn json_join_row(label: &str, latency: f64, m: &Metrics) -> Json {
    Json::Obj(vec![
        ("run", Json::Str(label.into())),
        ("read_latency", Json::num(latency)),
        ("join_wall_s", Json::fixed(m.join_wall.as_secs_f64(), 6)),
        ("pages_read", Json::num(m.pages_read)),
        ("pool_hits", Json::num(m.pool_hits)),
        ("prefetch_issued", Json::num(m.prefetch_issued)),
        ("prefetch_hits", Json::num(m.prefetch_hits)),
        ("prefetch_unused", Json::num(m.prefetch_unused)),
        ("results", Json::num(m.results)),
    ])
}

fn main() {
    let args = Args::from_env("bench_tune [--out FILE] [--dir DIR]");
    let out_path = args.get("--out").unwrap_or("BENCH_tune.json");
    let (dir, own_dir) = args.dir_or_temp("tfm_bench_tune");

    let a = generate(&DatasetSpec {
        max_side: 6.0,
        ..DatasetSpec::uniform(scaled(12_000, scale()), 71)
    });
    let b = generate(&DatasetSpec {
        max_side: 6.0,
        ..DatasetSpec::uniform(scaled(12_000, scale()), 72)
    });

    // Every run builds fresh indexes and a cold cache; the gate compares
    // join wall time only (index building never prefetches).
    let run_join = |backend: StoreBackend, latency: f64, join_cfg: JoinConfig| {
        let cfg = RunConfig {
            backend,
            read_latency: latency,
            ..RunConfig::default()
        };
        run_approach(
            &Approach::TransformersParallel(join_cfg, JOIN_THREADS),
            "tune-uniform",
            &a,
            &b,
            &cfg,
        )
    };
    let prefetch_cfg = JoinConfig::default()
        .with_io_depth(IO_DEPTH)
        .with_readahead(READAHEAD);

    let (mem, mem_pairs) = run_join(StoreBackend::Mem, 0.0, JoinConfig::default());
    let (demand, demand_pairs) = run_join(
        StoreBackend::File(dir.clone()),
        LATENCY,
        JoinConfig::default(),
    );
    let (pf, pf_pairs) = run_join(StoreBackend::File(dir.clone()), LATENCY, prefetch_cfg);

    let outputs_identical = demand_pairs == mem_pairs && pf_pairs == mem_pairs;
    let speedup = if pf.join_wall.as_secs_f64() > 0.0 {
        demand.join_wall.as_secs_f64() / pf.join_wall.as_secs_f64()
    } else {
        0.0
    };
    let unused_fraction = if pf.prefetch_issued > 0 {
        pf.prefetch_unused as f64 / pf.prefetch_issued as f64
    } else {
        1.0
    };

    let gates = [
        ("outputs_identical", outputs_identical),
        ("join_prefetch_speedup_1_3x", speedup >= 1.3),
        (
            "join_prefetch_pipeline_used",
            pf.prefetch_issued > 0 && pf.prefetch_hits > 0,
        ),
        ("unused_prefetch_below_20pct", unused_fraction < 0.20),
    ]
    .map(|(name, ok)| (name, Gate::from(ok)));

    let workload = Json::Obj(vec![
        ("n_a", Json::num(a.len())),
        ("n_b", Json::num(b.len())),
        ("join_threads", Json::num(JOIN_THREADS)),
        ("io_depth", Json::num(IO_DEPTH)),
        ("readahead", Json::num(READAHEAD)),
        ("store_dir", Json::Str(dir.display().to_string())),
    ]);
    let rows = Json::Arr(vec![
        json_join_row("mem", 0.0, &mem),
        json_join_row("file-demand", LATENCY, &demand),
        json_join_row("file-prefetch", LATENCY, &pf),
    ]);
    gate::write_report(
        out_path,
        Some(scale()),
        vec![
            ("workload", workload),
            ("join_prefetch_speedup", Json::fixed(speedup, 3)),
            ("unused_prefetch_fraction", Json::fixed(unused_fraction, 4)),
            ("rows", rows),
        ],
        &gates,
    );

    println!("== read-path tuning: join prefetch ==");
    println!(
        "join: mem {:.3}s | demand {:.3}s | prefetch depth{} {:.3}s",
        mem.join_wall.as_secs_f64(),
        demand.join_wall.as_secs_f64(),
        IO_DEPTH,
        pf.join_wall.as_secs_f64(),
    );
    println!(
        "join prefetch speedup {speedup:.2}x (gate >= 1.3x); issued {} hit {} unused {} \
         ({:.1}% unused, gate < 20%)",
        pf.prefetch_issued,
        pf.prefetch_hits,
        pf.prefetch_unused,
        unused_fraction * 100.0,
    );
    // Only remove page images this run created itself.
    if own_dir {
        std::fs::remove_dir_all(&dir).ok();
    }
    gate::finish(&gates, out_path);
}
