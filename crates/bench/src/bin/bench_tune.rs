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
//! Results go to `BENCH_tune.json` (flat hand-rolled JSON with host
//! provenance); the process exits non-zero when a gate fails. Scale with
//! `TFM_SCALE`; `--dir PATH` picks the page-image directory, `--out
//! PATH` the report path.

use std::fmt::Write as _;
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

fn arg(args: &[String], name: &str, default: &str) -> String {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| default.to_string())
}

fn json_join_row(out: &mut String, label: &str, latency: f64, m: &Metrics) {
    let _ = write!(
        out,
        "    {{\"run\": \"{}\", \"read_latency\": {}, \
         \"join_wall_s\": {:.6}, \"pages_read\": {}, \"pool_hits\": {}, \
         \"prefetch_issued\": {}, \"prefetch_hits\": {}, \"prefetch_unused\": {}, \
         \"results\": {}}}",
        label,
        latency,
        m.join_wall.as_secs_f64(),
        m.pages_read,
        m.pool_hits,
        m.prefetch_issued,
        m.prefetch_hits,
        m.prefetch_unused,
        m.results,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = arg(&args, "--out", "BENCH_tune.json");
    let default_dir = std::env::temp_dir()
        .join(format!("tfm_bench_tune_{}", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let dir = std::path::PathBuf::from(arg(&args, "--dir", &default_dir));

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
    ];

    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu_model = tfm_bench::host_cpu_model();
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"scale\": {},", scale());
    let _ = writeln!(
        json,
        "  \"host\": {{\"threads\": {host_threads}, \"cpu_model\": \"{cpu_model}\"}},"
    );
    let _ = writeln!(
        json,
        "  \"workload\": {{\"n_a\": {}, \"n_b\": {}, \"join_threads\": {}, \
         \"io_depth\": {IO_DEPTH}, \"readahead\": {READAHEAD}, \"store_dir\": \"{}\"}},",
        a.len(),
        b.len(),
        JOIN_THREADS,
        dir.display()
    );
    let _ = writeln!(json, "  \"join_prefetch_speedup\": {speedup:.3},");
    let _ = writeln!(
        json,
        "  \"unused_prefetch_fraction\": {unused_fraction:.4},"
    );
    json.push_str("  \"rows\": [\n");
    let rows: [(&str, f64, &Metrics); 3] = [
        ("mem", 0.0, &mem),
        ("file-demand", LATENCY, &demand),
        ("file-prefetch", LATENCY, &pf),
    ];
    for (i, (label, latency, m)) in rows.iter().enumerate() {
        json_join_row(&mut json, label, *latency, m);
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"gates\": {\n");
    for (i, (name, ok)) in gates.iter().enumerate() {
        let _ = write!(json, "    \"{name}\": {ok}");
        json.push_str(if i + 1 < gates.len() { ",\n" } else { "\n" });
    }
    json.push_str("  }\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_tune.json");

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
    let mut failed = false;
    for (name, ok) in gates {
        println!("gate {name}: {}", if ok { "PASS" } else { "FAIL" });
        failed |= !ok;
    }
    println!("wrote {out_path}");
    // Only remove page images this run created itself.
    if arg(&args, "--dir", &default_dir) == default_dir {
        std::fs::remove_dir_all(&dir).ok();
    }
    if failed {
        std::process::exit(1);
    }
}
