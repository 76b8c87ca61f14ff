//! Shared page cache vs private-pool ablation — the acceptance bench of
//! the cache subsystem.
//!
//! Two comparisons, both with byte-identical outputs required:
//!
//! * **E11 serve sweep** — the TRANSFORMERS engine replays one uniform
//!   probe trace at 1/2/4/8 workers, once through the process-wide
//!   [`tfm_serve` shared cache] and once through per-worker private
//!   pools. The shared cache must read **strictly fewer pages in total**
//!   over the sweep and post a **higher pool-hit fraction**.
//! * **4-worker parallel join** — the parallel join vs the
//!   `--private-pool` ablation on a clustered-vs-uniform workload at a
//!   scarce page budget; same gates. The *gate* rows run the
//!   independent-worker scheduler mode (`--no-transform --no-prune`),
//!   whose page workload is fixed — the fully adaptive join's *work* is
//!   interleaving-dependent (role switches and cross-worker pruning make
//!   the set of pages visited vary by ±10% between runs), which would
//!   turn a strict read-count comparison into a coin flip. Fully
//!   adaptive 1/2/4/8-worker rows are recorded alongside for the
//!   trajectory (outputs must match in every configuration; their I/O is
//!   informational).
//!
//! Results are written to `BENCH_cache.json` (flat, hand-rolled JSON like
//! the skew sidecar — no serde_json in the offline tree). The process
//! exits non-zero if any gate fails, so CI can use it as a perf gate.
//!
//! Scale with `TFM_SCALE` like the figure binaries; override the output
//! path with `--out PATH`.

use std::fmt::Write as _;
use tfm_bench::{run_serve, scaled, Approach, RunConfig, ServeEngineKind, ServeMetrics};
use tfm_datagen::{generate, generate_trace, DatasetSpec, Distribution, QueryTraceSpec};
use tfm_memjoin::canonicalize;
use tfm_serve::ServeConfig;

struct JoinRow {
    threads: usize,
    shared: bool,
    pages_read: u64,
    pool_hits: u64,
    /// Decoded-tier split of the shared caches (0/0 under private pools).
    /// The join is the path that fills the tier — probes test boxes in
    /// the pinned page — so only join rows carry it.
    decoded_hits: u64,
    decoded_misses: u64,
    join_time_s: f64,
}

impl JoinRow {
    fn hit_fraction(&self) -> f64 {
        let total = self.pool_hits + self.pages_read;
        if total == 0 {
            return 0.0;
        }
        self.pool_hits as f64 / total as f64
    }
}

fn json_serve_row(out: &mut String, m: &ServeMetrics) {
    let _ = write!(
        out,
        "    {{\"engine\": \"{}\", \"threads\": {}, \"shared_cache\": {}, \
         \"pages_read\": {}, \"pool_hits\": {}, \"pool_misses\": {}, \
         \"hit_fraction\": {:.4}, \"lock_acquisitions\": {}, \"lock_contended\": {}, \
         \"qps\": {:.1}, \"sim_io_s\": {:.6}}}",
        m.engine,
        m.threads,
        m.shared_cache,
        m.pages_read,
        m.pool_hits,
        m.pool_misses,
        m.pool_hit_fraction(),
        m.lock_acquisitions,
        m.lock_contended,
        m.qps,
        m.sim_io.as_secs_f64(),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_cache.json".to_string());

    let threads_sweep = [1usize, 2, 4, 8];
    let run_cfg = RunConfig::default();

    // ---- Serve: E11-style sweep, shared vs private -------------------
    let dataset = generate(&DatasetSpec {
        max_side: 6.0,
        ..DatasetSpec::uniform(scaled(15_000), 71)
    });
    let trace = generate_trace(&QueryTraceSpec::uniform(scaled(1_200), 72));

    let mut serve_rows: Vec<ServeMetrics> = Vec::new();
    let mut reference: Option<Vec<Vec<u64>>> = None;
    let mut outputs_identical = true;
    for &threads in &threads_sweep {
        for shared in [true, false] {
            let serve_cfg = ServeConfig {
                threads,
                batch: 64,
                shared_cache: shared,
                ..ServeConfig::default()
            };
            let (m, results) = run_serve(
                ServeEngineKind::Transformers,
                "cache-sweep",
                &dataset,
                &trace,
                &run_cfg,
                &serve_cfg,
            );
            match &reference {
                None => reference = Some(results),
                Some(r) => outputs_identical &= &results == r,
            }
            serve_rows.push(m);
        }
    }
    let serve_shared_reads: u64 = serve_rows
        .iter()
        .filter(|m| m.shared_cache)
        .map(|m| m.pages_read)
        .sum();
    let serve_private_reads: u64 = serve_rows
        .iter()
        .filter(|m| !m.shared_cache)
        .map(|m| m.pages_read)
        .sum();
    let hit_frac = |shared: bool| {
        let (hits, misses) = serve_rows
            .iter()
            .filter(|m| m.shared_cache == shared)
            .fold((0u64, 0u64), |(h, mi), m| {
                (h + m.pool_hits, mi + m.pool_misses)
            });
        hits as f64 / (hits + misses).max(1) as f64
    };
    let serve_shared_hit = hit_frac(true);
    let serve_private_hit = hit_frac(false);

    // ---- Join: 4-worker gate plus the 1/2/8 trajectory ---------------
    let a = generate(&DatasetSpec {
        max_side: 5.0,
        ..DatasetSpec::with_distribution(
            scaled(10_000),
            Distribution::MassiveCluster {
                clusters: 4,
                elements_per_cluster: scaled(10_000) / 4,
            },
            73,
        )
    });
    let b = generate(&DatasetSpec {
        max_side: 5.0,
        ..DatasetSpec::uniform(scaled(10_000), 74)
    });

    let mut join_rows: Vec<JoinRow> = Vec::new();
    let mut join_reference: Option<Vec<(u64, u64)>> = None;
    // Equal *total* page budget, sized below the working set: the private
    // ablation splits it into per-worker pools (which duplicate hot pages
    // and thrash), the shared cache keeps one copy of every hot page for
    // all workers.
    let join_pool_pages = 32;
    let run_join = |threads: usize,
                    shared: bool,
                    adaptive: bool,
                    join_reference: &mut Option<Vec<(u64, u64)>>,
                    outputs_identical: &mut bool| {
        let mut join_cfg = transformers::JoinConfig::default();
        if !shared {
            join_cfg = join_cfg.with_private_pools();
        }
        if !adaptive {
            join_cfg = join_cfg
                .without_worker_transforms()
                .without_cross_worker_pruning();
        }
        let approach = Approach::TransformersParallel(join_cfg, threads);
        let cfg = RunConfig {
            shared_cache: shared,
            pool_pages: join_pool_pages,
            ..run_cfg.clone()
        };
        let (m, pairs) = tfm_bench::run_approach(&approach, "cache-join", &a, &b, &cfg);
        let pairs = canonicalize(pairs);
        match &join_reference {
            None => *join_reference = Some(pairs),
            Some(r) => *outputs_identical &= &pairs == r,
        }
        JoinRow {
            threads,
            shared,
            pages_read: m.pages_read,
            pool_hits: m.pool_hits,
            decoded_hits: m.decoded_hits,
            decoded_misses: m.decoded_misses,
            join_time_s: m.join_time().as_secs_f64(),
        }
    };
    // Gate rows: fixed-work scheduler mode at 4 workers.
    let join_shared_4 = run_join(4, true, false, &mut join_reference, &mut outputs_identical);
    let join_private_4 = run_join(4, false, false, &mut join_reference, &mut outputs_identical);
    // Trajectory rows: the fully adaptive join at 1/2/4/8 workers.
    for &threads in &threads_sweep {
        for shared in [true, false] {
            let row = run_join(
                threads,
                shared,
                true,
                &mut join_reference,
                &mut outputs_identical,
            );
            join_rows.push(row);
        }
    }

    // ---- Gates --------------------------------------------------------
    let gates = [
        ("outputs_identical", outputs_identical),
        (
            "serve_fewer_page_reads",
            serve_shared_reads < serve_private_reads,
        ),
        (
            "serve_higher_hit_fraction",
            serve_shared_hit > serve_private_hit,
        ),
        (
            "join4_fewer_page_reads",
            join_shared_4.pages_read < join_private_4.pages_read,
        ),
        (
            "join4_higher_hit_fraction",
            join_shared_4.hit_fraction() > join_private_4.hit_fraction(),
        ),
    ];

    // ---- Report -------------------------------------------------------
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu_model = tfm_bench::host_cpu_model();
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"scale\": {},", tfm_bench::scale());
    let _ = writeln!(
        json,
        "  \"host\": {{\"threads\": {host_threads}, \"cpu_model\": \"{cpu_model}\"}},"
    );
    let _ = writeln!(
        json,
        "  \"serve\": {{\n    \"dataset_elements\": {}, \"queries\": {},",
        dataset.len(),
        trace.len()
    );
    let _ = writeln!(
        json,
        "    \"shared_total_pages_read\": {serve_shared_reads}, \
         \"private_total_pages_read\": {serve_private_reads},"
    );
    let _ = writeln!(
        json,
        "    \"shared_hit_fraction\": {serve_shared_hit:.4}, \
         \"private_hit_fraction\": {serve_private_hit:.4},"
    );
    json.push_str("    \"rows\": [\n");
    for (i, m) in serve_rows.iter().enumerate() {
        json.push_str("    ");
        json_serve_row(&mut json, m);
        json.push_str(if i + 1 < serve_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ]\n  },\n");
    let _ = writeln!(
        json,
        "  \"join\": {{\n    \"a_elements\": {}, \"b_elements\": {}, \"pool_pages\": {join_pool_pages},",
        a.len(),
        b.len()
    );
    let _ = writeln!(
        json,
        "    \"gate_x4\": {{\"shared_pages_read\": {}, \"shared_hit_fraction\": {:.4}, \
         \"private_pages_read\": {}, \"private_hit_fraction\": {:.4}}},",
        join_shared_4.pages_read,
        join_shared_4.hit_fraction(),
        join_private_4.pages_read,
        join_private_4.hit_fraction()
    );
    json.push_str("    \"adaptive_rows\": [\n");
    for (i, r) in join_rows.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"threads\": {}, \"shared_cache\": {}, \"pages_read\": {}, \
             \"pool_hits\": {}, \"hit_fraction\": {:.4}, \"decoded_hits\": {}, \
             \"decoded_misses\": {}, \"join_time_s\": {:.6}}}",
            r.threads,
            r.shared,
            r.pages_read,
            r.pool_hits,
            r.hit_fraction(),
            r.decoded_hits,
            r.decoded_misses,
            r.join_time_s
        );
        json.push_str(if i + 1 < join_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("    ]\n  },\n");
    json.push_str("  \"gates\": {\n");
    for (i, (name, ok)) in gates.iter().enumerate() {
        let _ = write!(json, "    \"{name}\": {ok}");
        json.push_str(if i + 1 < gates.len() { ",\n" } else { "\n" });
    }
    json.push_str("  }\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_cache.json");

    println!("== shared page cache vs private pools ==");
    println!(
        "serve sweep (1/2/4/8 workers): shared {} pages @ {:.1}% hits vs private {} pages @ {:.1}% hits",
        serve_shared_reads,
        serve_shared_hit * 100.0,
        serve_private_reads,
        serve_private_hit * 100.0
    );
    println!(
        "join x4: shared {} pages @ {:.1}% hits vs private {} pages @ {:.1}% hits",
        join_shared_4.pages_read,
        join_shared_4.hit_fraction() * 100.0,
        join_private_4.pages_read,
        join_private_4.hit_fraction() * 100.0
    );
    let mut failed = false;
    for (name, ok) in gates {
        println!("gate {name}: {}", if ok { "PASS" } else { "FAIL" });
        failed |= !ok;
    }
    println!("wrote {out_path}");
    if failed {
        std::process::exit(1);
    }
}
