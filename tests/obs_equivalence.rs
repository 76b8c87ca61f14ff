//! Observability must be free of *observer effects*: turning the
//! `tfm-obs` registry (and per-query tracing) on must leave every join
//! and serve result byte-identical at every worker count, turning it off
//! must leave every metric at 0, and the exported snapshots must
//! round-trip losslessly.
//!
//! All tests here toggle the process-global registry, so they serialize
//! on one lock — Rust's test harness runs them on concurrent threads.

use std::sync::Mutex;
use transformers_repro::baselines::rtree;
use transformers_repro::obs;
use transformers_repro::prelude::*;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn uniform(count: usize, seed: u64) -> Vec<SpatialElement> {
    generate(&DatasetSpec {
        max_side: 5.0,
        ..DatasetSpec::uniform(count, seed)
    })
}

fn build(elems: &[SpatialElement]) -> (Disk, TransformersIndex) {
    let disk = Disk::default_in_memory();
    let idx = TransformersIndex::build(&disk, elems.to_vec(), &IndexConfig::default());
    (disk, idx)
}

/// Off means off: after a run with the registry reset and switched off,
/// every counter, gauge and histogram in it still reads 0.
fn assert_nothing_recorded(case: &str) {
    for m in obs::global().snapshot().entries {
        let zero = match &m.value {
            obs::MetricValue::Counter(v) => *v == 0,
            obs::MetricValue::Gauge(v) => *v == 0,
            obs::MetricValue::Histogram(h) => h.count == 0,
        };
        assert!(
            zero,
            "{case}: `{}` recorded {:?} with metrics off",
            m.name, m.value
        );
    }
}

#[test]
fn join_results_identical_with_metrics_on_and_off_at_every_worker_count() {
    let _guard = OBS_LOCK.lock().unwrap();
    let a = uniform(3_000, 90);
    let b = uniform(3_000, 91);
    let (disk_a, idx_a) = build(&a);
    let (disk_b, idx_b) = build(&b);
    let cfg = JoinConfig::default();

    // Sequential reference with metrics off.
    obs::set_enabled(false);
    obs::global().reset();
    let reference = canonicalize(
        transformers_join(&idx_a, &disk_a, &idx_b, &disk_b, &cfg)
            .pairs
            .clone(),
    );
    assert_nothing_recorded("sequential join");

    // Sequential with metrics on publishes but must not perturb.
    obs::set_enabled(true);
    obs::global().reset();
    let seq_on = canonicalize(
        transformers_join(&idx_a, &disk_a, &idx_b, &disk_b, &cfg)
            .pairs
            .clone(),
    );
    assert_eq!(seq_on, reference, "sequential join perturbed by metrics");
    assert!(
        obs::global()
            .snapshot()
            .counter(obs::names::JOIN_TESTS)
            .unwrap_or(0)
            > 0,
        "sequential join must publish its stats"
    );

    for threads in [1usize, 2, 4, 8] {
        for on in [false, true] {
            obs::set_enabled(on);
            obs::global().reset();
            let pairs =
                canonicalize(parallel_join(&idx_a, &disk_a, &idx_b, &disk_b, &cfg, threads).pairs);
            assert_eq!(
                pairs, reference,
                "parallel join diverged (threads={threads}, metrics={on})"
            );
            if on {
                let snap = obs::global().snapshot();
                assert!(
                    snap.counter(obs::names::JOIN_CHUNKS).unwrap_or(0) > 0,
                    "parallel join must publish chunk counts"
                );
                assert!(
                    snap.histogram(obs::names::JOIN_CHUNK_NANOS)
                        .map(|h| h.count)
                        .unwrap_or(0)
                        > 0,
                    "per-chunk span timings must be recorded"
                );
            } else {
                assert_nothing_recorded(&format!("parallel join, threads={threads}"));
            }
        }
    }
    obs::set_enabled(false);
}

#[test]
fn serve_results_identical_with_metrics_and_tracing_on() {
    let _guard = OBS_LOCK.lock().unwrap();
    let elems = uniform(4_000, 92);
    let (disk, idx) = build(&elems);
    let engine = TransformersEngine::new(&idx, &disk).with_shared_cache(512, 8);
    let trace = generate_trace(&QueryTraceSpec::uniform(300, 93));

    obs::set_enabled(false);
    obs::global().reset();
    let reference = serve_trace(
        &engine,
        &trace,
        &ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        },
    )
    .results;
    assert_nothing_recorded("reference serve");

    for threads in [1usize, 2, 4, 8] {
        for on in [false, true] {
            obs::set_enabled(on);
            obs::global().reset();
            let cfg = ServeConfig {
                threads,
                batch: 32,
                ..ServeConfig::default()
            };
            let cfg = if on { cfg.with_traces() } else { cfg };
            let out = serve_trace(&engine, &trace, &cfg);
            assert_eq!(
                out.results, reference,
                "serve diverged (threads={threads}, metrics={on})"
            );
            if on {
                // One trace per query, in trace-ID order, consistent with
                // the results it annotates.
                assert_eq!(out.traces.len(), trace.len());
                for (i, t) in out.traces.iter().enumerate() {
                    assert_eq!(t.trace_id, i as u64, "traces must sort by trace id");
                    assert_eq!(
                        t.result_ids as usize,
                        reference[i].len(),
                        "trace {i} result count diverges"
                    );
                    assert!(t.worker < threads as u64, "trace {i} worker out of range");
                }
                let snap = obs::global().snapshot();
                assert_eq!(
                    snap.counter(obs::names::SERVE_QUERIES),
                    Some(trace.len() as u64)
                );
                let service = snap
                    .histogram(obs::names::SERVE_SERVICE_NANOS)
                    .expect("service histogram");
                assert_eq!(service.count, trace.len() as u64);
            } else {
                assert!(out.traces.is_empty(), "traces collected without opt-in");
                assert_nothing_recorded(&format!("serve, threads={threads}"));
            }
        }
    }
    obs::set_enabled(false);
}

#[test]
fn rtree_engine_is_also_unperturbed() {
    // The non-TRANSFORMERS engines share the serve plumbing; one spot
    // check guards the generic path.
    let _guard = OBS_LOCK.lock().unwrap();
    let elems = uniform(2_000, 94);
    let disk = Disk::default_in_memory();
    let tree = rtree::RTree::bulk_load(&disk, elems.clone());
    let engine = RtreeEngine::new(&tree, &disk);
    let cfg = ServeConfig {
        threads: 2,
        batch: 16,
        ..ServeConfig::default()
    };
    let trace = generate_trace(&QueryTraceSpec::uniform(120, 95));

    obs::set_enabled(false);
    let off = serve_trace(&engine, &trace, &cfg).results;
    obs::set_enabled(true);
    obs::global().reset();
    let on = serve_trace(&engine, &trace, &cfg.with_traces()).results;
    obs::set_enabled(false);
    assert_eq!(on, off);
}

#[test]
fn run_snapshot_round_trips_through_the_jsonl_export() {
    let _guard = OBS_LOCK.lock().unwrap();
    let elems = uniform(2_000, 96);

    obs::set_enabled(true);
    obs::global().reset();
    let (disk, idx) = build(&elems); // build.* stage spans land here
    let engine = TransformersEngine::new(&idx, &disk).with_shared_cache(512, 4);
    let trace = generate_trace(&QueryTraceSpec::uniform(150, 97));
    let out = serve_trace(&engine, &trace, &ServeConfig::default().with_traces());
    let snap = obs::global().snapshot();
    obs::set_enabled(false);

    // JSON-lines round-trip, with trace lines interleaved the way the
    // CLI writes them: the parser must skip them and reproduce the
    // snapshot exactly.
    let mut text = snap.to_jsonl();
    for t in &out.traces {
        text.push_str(&t.to_json());
        text.push('\n');
    }
    let parsed = obs::MetricsSnapshot::parse_jsonl(&text).expect("round-trip parse");
    assert_eq!(parsed.entries, snap.entries);

    // The run must have produced the acceptance shape: cache, queue,
    // latency-histogram and per-stage timing metrics.
    assert!(snap.counter(obs::names::CACHE_HITS).is_some());
    assert!(snap.counter(obs::names::SERVE_QUERIES).is_some());
    assert!(snap.histogram(obs::names::SERVE_SERVICE_NANOS).is_some());
    assert!(snap
        .histogram(&format!("{}_nanos", obs::names::BUILD_UNIT_STR))
        .is_some());
    assert!(snap
        .counter(&format!("{}_cpu_nanos", obs::names::BUILD_FINALIZE))
        .is_some());
}
