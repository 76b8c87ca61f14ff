//! The benchmark's contract: workloads, metric names, units, directions and
//! regression bounds. `benchmark spec` prints this table as the
//! `BENCHMARK.json` checked in at the repo root, so the file and the harness
//! cannot drift apart.

/// Whether a larger or a smaller value of a metric is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a metric's per-round samples collapse into its reported value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A wall-clock measurement: the quartile on the good side of the
    /// per-round samples (lower for times, upper for rates), because the
    /// host's noise is one-sided.
    Timed,
    /// A count the program makes: identical every round; any difference
    /// between rounds is reported as a failed check.
    Exact,
    /// Read once when the run ends.
    AtExit,
}

/// One end-to-end metric.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub kind: Kind,
}

const fn timed(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        kind: Kind::Timed,
    }
}

const fn exact(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better: Better::Lower,
        bound,
        kind: Kind::Exact,
    }
}

/// Every workload reports all of these.
///
/// Bounds are set from data (see `README.md`). The driver accepts the
/// benchmark only if ten runs on ten different seeds spread (IQR / median)
/// by less than the bound, so a bound covers the host's run-to-run noise
/// and how much the metric moves with the seed. A timing's bound is three
/// times the widest spread seen for it, which on this host is the 25 % the
/// contract caps bounds at; a count's bound is about twice its widest
/// cross-seed spread, and `selfcheck` holds it to [`EXACT_REPEAT`] per seed.
/// Three timings the issue listed are per-layer metrics instead, because
/// no bound the contract allows covers them: the 2-worker join
/// (`exec.join_par_s`), the probe p99 (`serve.p99_us`) and the mixed
/// replay's rate (`mutate.ops_per_s`, half of which is the wait for the
/// sandbox disk's `fsync`).
pub const END_TO_END: &[EndToEnd] = &[
    timed("setup_s", "s", Better::Lower, 0.25),
    timed("build_s", "s", Better::Lower, 0.25),
    timed("join_seq_s", "s", Better::Lower, 0.25),
    exact("join_model_io_s", "s", 0.15),
    exact("space_amp", "ratio", 0.005),
    timed("serve_qps", "1/s", Better::Higher, 0.25),
    timed("serve_p50_us", "us", Better::Lower, 0.25),
    timed("recover_s", "s", Better::Lower, 0.25),
    exact("write_amp", "ratio", 0.10),
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        kind: Kind::AtExit,
    },
];

/// Two runs on the same seed must agree this closely on every
/// [`Kind::Exact`] metric (`selfcheck` enforces it).
pub const EXACT_REPEAT: f64 = 0.005;

/// One per-layer metric (no bound; produced by the `--trace 1` run).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    layer("geom.hilbert_ns", "ns", Lower),
    layer("geom.intersect_ns", "ns", Lower),
    layer("partition.str_ns_per_elem", "ns", Lower),
    layer("storage.encode_ns_per_page", "ns", Lower),
    layer("storage.decode_ns_per_page", "ns", Lower),
    layer("storage.cache_hit_ns", "ns", Lower),
    layer("storage.cache_decoded_hit_ns", "ns", Lower),
    layer("storage.cache_miss_ns", "ns", Lower),
    layer("storage.cache_dirty_flush_ns_per_page", "ns", Lower),
    layer("storage.mem_read_ns", "ns", Lower),
    layer("storage.file_read_ns", "ns", Lower),
    layer("bptree.get_ns", "ns", Lower),
    layer("core.nodes", "count", Lower),
    layer("core.units", "count", Lower),
    layer("core.pages", "count", Lower),
    layer("join.pages_read", "count", Lower),
    layer("join.seq_read_fraction", "ratio", Higher),
    layer("join.tests", "count", Lower),
    layer("join.transformations", "count", Higher),
    layer("join.pruned_units", "count", Higher),
    layer("join.pool_hit_fraction", "ratio", Higher),
    layer("join.exploration_overhead_s", "s", Lower),
    layer("join.results", "count", Higher),
    layer("exec.join_par_s", "s", Lower),
    layer("exec.speedup", "ratio", Higher),
    layer("exec.steal_fraction", "ratio", Lower),
    layer("exec.par_pages_read", "count", Lower),
    layer("exec.par_model_io_s", "s", Lower),
    layer("pool.scoped_run_us", "us", Lower),
    layer("serve.prefilter_ns_per_query", "ns", Lower),
    layer("serve.execute_hot_ns", "ns", Lower),
    layer("serve.inline_qps", "1/s", Higher),
    layer("serve.queue_push_pop_ns", "ns", Lower),
    layer("serve.p99_us", "us", Lower),
    layer("serve.cache_hit_fraction", "ratio", Higher),
    layer("serve.pages_read", "count", Lower),
    layer("serve.seq_read_fraction", "ratio", Higher),
    layer("serve.result_ids", "count", Higher),
    layer("mutate.ops_per_s", "1/s", Higher),
    layer("mutate.apply_s", "s", Lower),
    layer("mutate.probe_s", "s", Lower),
    layer("mutate.flushed_pages", "count", Lower),
    layer("mutate.store_growth_bytes", "bytes", Lower),
    layer("wal.bytes", "bytes", Lower),
    layer("wal.records", "count", Lower),
    layer("wal.commits", "count", Lower),
    layer("wal.fsyncs", "count", Lower),
    layer("wal.bytes_per_write", "bytes", Lower),
    layer("wal.append_ns_per_page", "ns", Lower),
    layer("wal.commit_ns", "ns", Lower),
    layer("wal.recover_ns_per_page", "ns", Lower),
    layer("wal.pages_replayed", "count", Lower),
    layer("serve.open.p50_us", "us", Lower),
    layer("serve.open.p99_us", "us", Lower),
    layer("serve.open.late_max_us", "us", Lower),
    layer("serve.open.shed", "count", Lower),
    layer("trace.overhead_s", "s", Lower),
    layer("trace.spans", "count", Lower),
];

/// Seconds one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u64 = 24;

/// The command the driver runs from the root of a checkout.
const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// Renders `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": [{}],\n", quoted(COMMAND)));
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        crate::workloads::ALL
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}
