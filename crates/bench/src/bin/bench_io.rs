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
//! Results go to `BENCH_io.json` (flat hand-rolled JSON, host-provenance
//! fields included); the process exits non-zero when a gate fails. Scale
//! with `TFM_SCALE`; `--dir PATH` picks where page images are written
//! (point it at a disk-backed directory to exercise real device I/O, or
//! tmpfs for determinism), `--out PATH` the report path.

use std::fmt::Write as _;
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

fn arg(args: &[String], name: &str, default: &str) -> String {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| default.to_string())
}

fn json_row(out: &mut String, label: &str, latency: f64, m: &ServeMetrics) {
    let _ = write!(
        out,
        "    {{\"run\": \"{}\", \"read_latency\": {}, \"io_depth\": {}, \"readahead\": {}, \
         \"wall_s\": {:.6}, \"qps\": {:.1}, \"pages_read\": {}, \"pool_hits\": {}, \
         \"pool_misses\": {}, \"prefetch_issued\": {}, \"prefetch_hits\": {}, \
         \"prefetch_unused\": {}, \"hit_fraction\": {:.4}, \"sim_io_s\": {:.6}}}",
        label,
        latency,
        m.io_depth,
        m.readahead,
        m.wall.as_secs_f64(),
        m.qps,
        m.pages_read,
        m.pool_hits,
        m.pool_misses,
        m.prefetch_issued,
        m.prefetch_hits,
        m.prefetch_unused,
        m.pool_hit_fraction(),
        m.sim_io.as_secs_f64(),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = arg(&args, "--out", "BENCH_io.json");
    let default_dir = std::env::temp_dir()
        .join(format!("tfm_bench_io_{}", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let dir = std::path::PathBuf::from(arg(&args, "--dir", &default_dir));

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
        "  \"workload\": {{\"dataset_elements\": {}, \"queries\": {}, \"store_dir\": \"{}\"}},",
        dataset.len(),
        trace.len(),
        dir.display()
    );
    let _ = writeln!(json, "  \"readahead_speedup\": {speedup:.3},");
    json.push_str("  \"rows\": [\n");
    let rows: [(&str, f64, &ServeMetrics); 4] = [
        ("mem", 0.0, &mem),
        ("file", 0.0, &file_raw),
        ("file-depth1", LATENCY, &depth1),
        ("file-readahead", LATENCY, &ra),
    ];
    for (i, (label, latency, m)) in rows.iter().enumerate() {
        json_row(&mut json, label, *latency, m);
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"gates\": {\n");
    for (i, (name, ok)) in gates.iter().enumerate() {
        let _ = write!(json, "    \"{name}\": {ok}");
        json.push_str(if i + 1 < gates.len() { ",\n" } else { "\n" });
    }
    json.push_str("  }\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_io.json");

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
