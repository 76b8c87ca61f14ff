//! Acceptance bench of the sharded scatter-gather serve cluster —
//! emits `BENCH_shard.json` and exits non-zero when a gate fails.
//!
//! The sweep replays one uniform trace through clusters of 1/2/4/8
//! Hilbert-split shards at 1 and 2 workers per shard (two interleaved
//! rounds per configuration; best qps / lowest p95 kept), against the
//! unsharded single-threaded serve as the byte-identity reference.
//! Gates:
//!
//! * **`results_identical`** — every (shards, workers) configuration
//!   returns results byte-identical to the unsharded serve path.
//! * **`sharded_beats_single`** — a multi-core scaling gate: ≥ 1
//!   configuration with N > 1 shards beats the 1-shard row at the same
//!   workers-per-shard on throughput or p95. Shards are independent
//!   engines with their own queues and workers, so the win has to come
//!   from extra cores; a single index no longer pays a per-probe cost
//!   that grows with the dataset (the probe directory finds a probe's
//!   nodes in O(log nodes + hits)), so splitting it buys nothing on one
//!   core. On a host with fewer than 2 hardware threads the gate is
//!   therefore recorded as `"inconclusive"` — neither PASS nor FAIL, and
//!   it does not affect the exit code.
//! * **`slo_met`** — the best N > 1 configuration (highest throughput
//!   relative to its 1-shard row) holds the p50/p95/p99 SLO: each
//!   percentile within 1.5× of the 1-shard baseline's.
//!
//! Flat hand-rolled JSON (no serde_json in the offline tree); host CPU
//! model and thread count are recorded in the artifact. Scale with
//! `TFM_SCALE`; override the output path with `--out`.

use std::fmt::Write as _;
use tfm_bench::{run_serve, run_serve_sharded, scaled, RunConfig, ServeEngineKind, ServeMetrics};
use tfm_datagen::{generate, generate_trace, DatasetSpec, QueryTraceSpec};
use tfm_serve::{ServeConfig, ShardSpec};
use transformers::IndexConfig;

fn arg(args: &[String], name: &str, default: &str) -> String {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| default.to_string())
}

/// Outcome of one acceptance gate. `Inconclusive` means the host cannot
/// decide the question; it is recorded but never fails the run.
#[derive(Clone, Copy, PartialEq)]
enum Gate {
    Pass,
    Fail,
    Inconclusive,
}

impl From<bool> for Gate {
    fn from(ok: bool) -> Self {
        if ok {
            Gate::Pass
        } else {
            Gate::Fail
        }
    }
}

impl Gate {
    fn json(self) -> &'static str {
        match self {
            Gate::Pass => "true",
            Gate::Fail => "false",
            Gate::Inconclusive => "\"inconclusive\"",
        }
    }

    fn label(self) -> &'static str {
        match self {
            Gate::Pass => "PASS",
            Gate::Fail => "FAIL",
            Gate::Inconclusive => "INCONCLUSIVE (host has < 2 hardware threads)",
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = arg(&args, "--out", "BENCH_shard.json");
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu_model = tfm_bench::host_cpu_model();

    let dataset = generate(&DatasetSpec {
        max_side: 6.0,
        ..DatasetSpec::uniform(scaled(15_000), 91)
    });
    let trace = generate_trace(&QueryTraceSpec::uniform(scaled(2_000), 92));

    // Byte-identity reference: the unsharded single-threaded serve path.
    let (_, reference) = run_serve(
        ServeEngineKind::Transformers,
        "shard-ref",
        &dataset,
        &trace,
        &RunConfig::default(),
        &ServeConfig::default(),
    );

    let shard_sweep = [1usize, 2, 4, 8];
    let worker_sweep = [1usize, 2];
    let rounds = 2;

    // Interleave rounds across configurations so every configuration
    // sees the same warm-up and thermal conditions; keep each
    // configuration's best qps and lowest p95.
    let mut best: Vec<Option<ServeMetrics>> = vec![None; shard_sweep.len() * worker_sweep.len()];
    let mut results_identical = true;
    for _round in 0..rounds {
        for (si, &shards) in shard_sweep.iter().enumerate() {
            for (wi, &workers) in worker_sweep.iter().enumerate() {
                let (m, results, _) = run_serve_sharded(
                    ServeEngineKind::Transformers,
                    "shard-sweep",
                    &dataset,
                    &trace,
                    &ShardSpec::default().with_shards(shards),
                    &IndexConfig::default(),
                    &ServeConfig::default().with_threads(workers),
                );
                results_identical &= results == reference;
                let slot = &mut best[si * worker_sweep.len() + wi];
                let better = match slot {
                    None => true,
                    Some(b) => m.qps > b.qps,
                };
                let low_p95 = slot.as_ref().map(|b| b.p95.min(m.p95));
                if better {
                    *slot = Some(m);
                }
                if let (Some(b), Some(p95)) = (slot.as_mut(), low_p95) {
                    b.p95 = p95;
                }
            }
        }
    }
    let rows: Vec<ServeMetrics> = best.into_iter().map(Option::unwrap).collect();

    let baseline = |workers: usize| {
        rows.iter()
            .find(|m| m.shards == 1 && m.threads == workers)
            .expect("1-shard baseline row")
    };
    // The best multi-shard configuration: highest throughput relative to
    // the 1-shard row at the same workers-per-shard.
    let gain = |m: &ServeMetrics| m.qps / baseline(m.threads).qps;
    let best_multi = rows
        .iter()
        .filter(|m| m.shards > 1)
        .max_by(|a, b| gain(a).total_cmp(&gain(b)))
        .expect("the sweep has multi-shard rows");
    let best_base = baseline(best_multi.threads);

    // Gate 2 (multi-core scaling): some N>1 configuration beats its
    // 1-shard row on throughput or p95. Shards only win through extra
    // cores, so a single-threaded host cannot decide this either way.
    let sharded_beats_single = if host_threads < 2 {
        Gate::Inconclusive
    } else {
        Gate::from(rows.iter().filter(|m| m.shards > 1).any(|m| {
            let base = baseline(m.threads);
            m.qps > base.qps || m.p95 < base.p95
        }))
    };

    // Gate 3: the best N>1 configuration meets the latency SLO — every
    // percentile within 1.5× of its 1-shard baseline.
    const SLO_FACTOR: f64 = 1.5;
    let slo_met = best_multi.p50.as_secs_f64() <= SLO_FACTOR * best_base.p50.as_secs_f64()
        && best_multi.p95.as_secs_f64() <= SLO_FACTOR * best_base.p95.as_secs_f64()
        && best_multi.p99.as_secs_f64() <= SLO_FACTOR * best_base.p99.as_secs_f64();

    let gates = [
        ("results_identical", Gate::from(results_identical)),
        ("sharded_beats_single", sharded_beats_single),
        ("slo_met", Gate::from(slo_met)),
    ];

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"scale\": {},", tfm_bench::scale());
    let _ = writeln!(
        json,
        "  \"host\": {{\"threads\": {host_threads}, \"cpu_model\": \"{cpu_model}\"}},"
    );
    let _ = writeln!(
        json,
        "  \"workload\": {{\"dataset_elements\": {}, \"queries\": {}, \
         \"engine\": \"TRANSFORMERS\", \"partitioner\": \"hilbert\", \"rounds\": {rounds}}},",
        dataset.len(),
        trace.len()
    );
    let _ = writeln!(json, "  \"slo_factor_vs_single_shard\": {SLO_FACTOR},");
    json.push_str("  \"rows\": [\n");
    for (i, m) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"shards\": {}, \"workers_per_shard\": {}, \"qps\": {:.1}, \
             \"p50_us\": {:.2}, \"p95_us\": {:.2}, \"p99_us\": {:.2}, \
             \"queue_wait_p99_us\": {:.2}, \"fanout_mean\": {:.3}, \"fanout_max\": {}, \
             \"routed_partials\": {}, \"shed_partials\": {}, \
             \"max_cluster_pressure\": {:.3}, \"pages_read\": {}}}",
            m.shards,
            m.threads,
            m.qps,
            m.p50.as_secs_f64() * 1e6,
            m.p95.as_secs_f64() * 1e6,
            m.p99.as_secs_f64() * 1e6,
            m.queue_wait_p99.as_secs_f64() * 1e6,
            m.fanout_mean,
            m.fanout_max,
            m.routed_partials,
            m.shed_partials,
            m.max_cluster_pressure,
            m.pages_read
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"gates\": {\n");
    for (i, (name, gate)) in gates.iter().enumerate() {
        let _ = write!(json, "    \"{name}\": {}", gate.json());
        json.push_str(if i + 1 < gates.len() { ",\n" } else { "\n" });
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_shard.json");

    tfm_bench::print_serve_table("sharded serve cluster", &rows);
    println!(
        "best multi-shard: {} shards x {} workers at {:.0} qps (1 shard: {:.0} qps), \
         p95 {:.1}us vs {:.1}us",
        best_multi.shards,
        best_multi.threads,
        best_multi.qps,
        best_base.qps,
        best_multi.p95.as_secs_f64() * 1e6,
        best_base.p95.as_secs_f64() * 1e6
    );
    for (name, gate) in gates {
        println!("gate {name}: {}", gate.label());
    }
    println!("wrote {out_path}");
    if gates.iter().any(|(_, gate)| *gate == Gate::Fail) {
        std::process::exit(1);
    }
}
