//! Observability overhead ablation and multi-core scaling curves — the
//! acceptance bench of the `tfm-obs` subsystem.
//!
//! Two artifacts:
//!
//! * **`BENCH_obs.json`** — serve throughput with the global metrics
//!   registry (and per-query tracing) ON vs OFF, best-of-3 each,
//!   interleaved to share thermal/cache conditions. Gates: results must
//!   be byte-identical between the two modes, and metrics-on throughput
//!   must stay within 5% of metrics-off. A metrics-on vs -off parallel
//!   join row rides along as an informational trajectory (join wall time
//!   at this scale is too noisy for a strict gate).
//! * **`BENCH_serve.json`** — multi-core scaling curves: serve qps /
//!   latency / queue-wait for all three engines at 1/2/4/8 workers, and
//!   parallel-join wall time at 1/2/4/8 workers, recorded from this
//!   host (the `host` object documents the CPU model and the
//!   parallelism actually available, so a checked-in artifact carries
//!   its own provenance).
//!
//! Both files are written by `tfm_bench::gate`. The process exits
//! non-zero if a `BENCH_obs.json` gate fails, so CI can use it as the
//! observability overhead gate. Scale with `TFM_SCALE`; override the
//! output paths with `--obs-out` / `--serve-out`.

use tfm_bench::args::Args;
use tfm_bench::gate::{self, Gate, Json};
use tfm_bench::{
    run_approach, run_serve, run_serve_traced, scale, scaled, Approach, RunConfig, ServeEngineKind,
    ServeMetrics,
};
use tfm_datagen::{generate, generate_trace, DatasetSpec, Distribution, QueryTraceSpec};
use tfm_memjoin::canonicalize;
use tfm_serve::ServeConfig;

/// One serve measurement with the registry in the requested state.
/// Metrics-on also collects per-query traces — the full-fat
/// observability cost, not just the counter increments.
fn serve_once(
    on: bool,
    elements: &[tfm_geom::SpatialElement],
    trace: &[tfm_geom::SpatialQuery],
    run_cfg: &RunConfig,
    serve_cfg: &ServeConfig,
) -> (ServeMetrics, Vec<Vec<u64>>) {
    tfm_obs::set_enabled(on);
    if on {
        tfm_obs::global().reset();
        let (m, results, traces) = run_serve_traced(
            ServeEngineKind::Transformers,
            "obs-ablation",
            elements,
            trace,
            run_cfg,
            &serve_cfg.with_traces(),
        );
        assert_eq!(traces.len(), trace.len(), "one trace per query");
        (m, results)
    } else {
        let (m, results) = run_serve(
            ServeEngineKind::Transformers,
            "obs-ablation",
            elements,
            trace,
            run_cfg,
            serve_cfg,
        );
        (m, results)
    }
}

fn join_once(
    on: bool,
    a: &[tfm_geom::SpatialElement],
    b: &[tfm_geom::SpatialElement],
) -> (f64, Vec<(u64, u64)>) {
    tfm_obs::set_enabled(on);
    if on {
        tfm_obs::global().reset();
    }
    let approach = Approach::TransformersParallel(transformers::JoinConfig::default(), 4);
    let (m, pairs) = run_approach(&approach, "obs-join", a, b, &RunConfig::default());
    (m.join_time().as_secs_f64(), canonicalize(pairs))
}

fn main() {
    let args = Args::from_env("bench_obs [--obs-out FILE] [--serve-out FILE]");
    let obs_out = args.get("--obs-out").unwrap_or("BENCH_obs.json");
    let serve_out = args.get("--serve-out").unwrap_or("BENCH_serve.json");
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    // ---- Ablation workload -------------------------------------------
    let dataset = generate(&DatasetSpec {
        max_side: 6.0,
        ..DatasetSpec::uniform(scaled(15_000, scale()), 81)
    });
    let trace = generate_trace(&QueryTraceSpec::uniform(scaled(2_000, scale()), 82));
    let run_cfg = RunConfig::default();
    let serve_cfg = ServeConfig {
        threads: 4.min(host_threads),
        batch: 64,
        ..ServeConfig::default()
    };

    // Interleave off/on rounds so both modes see the same warm-up and
    // thermal conditions; keep the best of each (throughput benches
    // compare best-case, not noise).
    let mut off_qps: Vec<f64> = Vec::new();
    let mut on_qps: Vec<f64> = Vec::new();
    let mut reference: Option<Vec<Vec<u64>>> = None;
    let mut results_identical = true;
    for _round in 0..3 {
        for on in [false, true] {
            let (m, results) = serve_once(on, &dataset, &trace, &run_cfg, &serve_cfg);
            match &reference {
                None => reference = Some(results),
                Some(r) => results_identical &= &results == r,
            }
            if on {
                on_qps.push(m.qps);
            } else {
                off_qps.push(m.qps);
            }
        }
    }
    let best = |v: &[f64]| v.iter().cloned().fold(0.0f64, f64::max);
    let best_off = best(&off_qps);
    let best_on = best(&on_qps);
    let overhead = 1.0 - best_on / best_off.max(1e-9);
    let metric_series = tfm_obs::global().snapshot().entries.len();

    // Join ablation (informational): same interleaving, best-of-3 walls.
    let a = generate(&DatasetSpec {
        max_side: 5.0,
        ..DatasetSpec::with_distribution(
            scaled(8_000, scale()),
            Distribution::dense_cluster_default(),
            83,
        )
    });
    let b = generate(&DatasetSpec {
        max_side: 5.0,
        ..DatasetSpec::uniform(scaled(8_000, scale()), 84)
    });
    let mut join_off: Vec<f64> = Vec::new();
    let mut join_on: Vec<f64> = Vec::new();
    let mut join_reference: Option<Vec<(u64, u64)>> = None;
    let mut join_identical = true;
    for _round in 0..3 {
        for on in [false, true] {
            let (wall, pairs) = join_once(on, &a, &b);
            match &join_reference {
                None => join_reference = Some(pairs),
                Some(r) => join_identical &= &pairs == r,
            }
            if on {
                join_on.push(wall);
            } else {
                join_off.push(wall);
            }
        }
    }
    let best_wall = |v: &[f64]| v.iter().cloned().fold(f64::INFINITY, f64::min);
    tfm_obs::set_enabled(false);

    let gates = [
        ("serve_results_identical", results_identical),
        ("join_results_identical", join_identical),
        ("serve_overhead_within_5pct", best_on >= 0.95 * best_off),
    ]
    .map(|(name, ok)| (name, Gate::from(ok)));

    let serve = Json::Obj(vec![
        ("dataset_elements", Json::num(dataset.len())),
        ("queries", Json::num(trace.len())),
        ("threads", Json::num(serve_cfg.threads)),
        ("qps_off", Json::fixed_list(&off_qps, 1)),
        ("qps_on", Json::fixed_list(&on_qps, 1)),
        ("best_qps_off", Json::fixed(best_off, 1)),
        ("best_qps_on", Json::fixed(best_on, 1)),
        ("overhead_fraction", Json::fixed(overhead, 4)),
        ("metric_series_on", Json::num(metric_series)),
    ]);
    let join = Json::Obj(vec![
        ("a_elements", Json::num(a.len())),
        ("b_elements", Json::num(b.len())),
        ("threads", Json::num(4usize)),
        ("best_wall_s_off", Json::fixed(best_wall(&join_off), 6)),
        ("best_wall_s_on", Json::fixed(best_wall(&join_on), 6)),
    ]);
    let body = vec![("serve", serve), ("join", join)];
    gate::write_report(obs_out, Some(scale()), body, &gates);

    // ---- Multi-core curves -> BENCH_serve.json ------------------------
    let threads_sweep = [1usize, 2, 4, 8];
    let mut serve_rows = Vec::new();
    for kind in ServeEngineKind::all() {
        for &threads in &threads_sweep {
            let cfg = ServeConfig {
                threads,
                batch: 64,
                ..ServeConfig::default()
            };
            let (m, _) = run_serve(kind, "serve-curve", &dataset, &trace, &run_cfg, &cfg);
            serve_rows.push(Json::Obj(vec![
                ("engine", Json::Str(m.engine.clone())),
                ("threads", Json::num(m.threads)),
                ("qps", Json::fixed(m.qps, 1)),
                ("p50_us", Json::micros(m.p50)),
                ("p99_us", Json::micros(m.p99)),
                ("queue_wait_p50_us", Json::micros(m.queue_wait_p50)),
                ("queue_wait_p99_us", Json::micros(m.queue_wait_p99)),
                ("pages_read", Json::num(m.pages_read)),
            ]));
        }
    }
    let mut join_rows = Vec::new();
    for &threads in &threads_sweep {
        let approach = Approach::TransformersParallel(transformers::JoinConfig::default(), threads);
        let (m, _) = run_approach(&approach, "join-curve", &a, &b, &RunConfig::default());
        join_rows.push(Json::Obj(vec![
            ("threads", Json::num(threads)),
            ("join_wall_s", Json::fixed(m.join_time().as_secs_f64(), 6)),
            ("pages_read", Json::num(m.pages_read)),
        ]));
    }
    let serve = Json::Obj(vec![
        ("dataset_elements", Json::num(dataset.len())),
        ("queries", Json::num(trace.len())),
        ("rows", Json::Arr(serve_rows)),
    ]);
    let join = Json::Obj(vec![
        ("a_elements", Json::num(a.len())),
        ("b_elements", Json::num(b.len())),
        ("rows", Json::Arr(join_rows)),
    ]);
    let curves = vec![("serve", serve), ("join", join)];
    gate::write_report(serve_out, Some(scale()), curves, &[]);

    // ---- Report -------------------------------------------------------
    println!("== observability overhead ==");
    println!(
        "serve ({} queries, {} workers): best {:.0} qps off vs {:.0} qps on ({:+.2}% overhead)",
        trace.len(),
        serve_cfg.threads,
        best_off,
        best_on,
        overhead * 100.0
    );
    println!(
        "join (4 workers): best {:.3}s off vs {:.3}s on",
        best_wall(&join_off),
        best_wall(&join_on)
    );
    println!("metric series exported when on: {metric_series}");
    gate::finish(&gates, &format!("{obs_out} and {serve_out}"));
}
