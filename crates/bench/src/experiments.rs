//! The paper's evaluation (§VII) as one table.
//!
//! Each [`Experiment`] row names one table or figure: its id, title and
//! CSV path, and either a join sweep (workloads × approaches under one
//! [`RunConfig`], plus an optional stdout summary) or the serve sweep.
//! The `reproduce` binary runs the rows; `tests/claims.rs` checks the
//! paper's claims against the same rows. Sizes are the paper's ÷ 1000
//! times the scale each row's workload function is given (`TFM_SCALE`).

use crate::workloads::{
    contrast_pair, massive_pair, neuro_pair, nonuniform_pair, robustness_pairs,
    threshold_workloads, uniform_pair, Workload, BOX_SIDE,
};
use crate::{
    print_serve_table, print_table, run_approach, run_serve_sweep, scaled, write_csv,
    write_serve_csv, Approach, Metrics, RunConfig, ServeEngineKind, ServeJob, ServeMetrics,
};
use tfm_datagen::{generate, generate_trace, DatasetSpec, ProbeMix, QueryTraceSpec};
use tfm_serve::ServeConfig;
use tfm_storage::ElementPageCodec;
use transformers::ThresholdPolicy;

/// One table or figure of the evaluation.
pub struct Experiment {
    /// Selects the row on `reproduce`'s command line.
    pub id: &'static str,
    /// Heading of the printed table.
    pub title: &'static str,
    /// Where the rows are written.
    pub csv: &'static str,
    /// What runs.
    pub kind: Kind,
}

/// The two kinds of experiment.
pub enum Kind {
    /// A join sweep.
    Join(JoinSweep),
    /// The serve sweep: builds its own dataset and traces at a scale.
    Serve(fn(f64) -> Vec<ServeMetrics>),
}

/// Every approach joins every workload under one run configuration.
pub struct JoinSweep {
    /// Builds the workloads at a scale.
    pub workloads: fn(f64) -> Vec<Workload>,
    /// The approaches, in table order.
    pub approaches: Vec<Approach>,
    /// Run parameters shared by every join of the sweep.
    pub config: RunConfig,
    /// Prints what the table does not show, after it.
    pub summary: Option<fn(&JoinSweep, &[Metrics])>,
}

impl JoinSweep {
    /// Runs every approach on every workload, workload-major.
    pub fn run(&self, scale: f64) -> Vec<Metrics> {
        let mut rows = Vec::new();
        for w in (self.workloads)(scale) {
            for ap in &self.approaches {
                rows.push(run_approach(ap, &w.name, &w.a, &w.b, &self.config).0);
            }
        }
        rows
    }
}

impl Experiment {
    /// Runs the row, prints its table and summary, and writes its CSV.
    pub fn run(&self, scale: f64) -> std::io::Result<()> {
        match &self.kind {
            Kind::Join(sweep) => {
                let rows = sweep.run(scale);
                print_table(self.title, &rows);
                if let Some(summary) = sweep.summary {
                    summary(sweep, &rows);
                }
                write_csv(self.csv, &rows)
            }
            Kind::Serve(sweep) => {
                let rows = sweep(scale);
                print_serve_table(self.title, &rows);
                write_serve_csv(self.csv, &rows)
            }
        }
    }
}

/// A join row under the default [`RunConfig`].
fn join(
    workloads: fn(f64) -> Vec<Workload>,
    approaches: Vec<Approach>,
    summary: Option<fn(&JoinSweep, &[Metrics])>,
) -> Kind {
    Kind::Join(JoinSweep {
        workloads,
        approaches,
        config: RunConfig::default(),
        summary,
    })
}

/// One workload per base size, the i-th seeded `seed + i`.
fn sized(
    scale: f64,
    bases: &[usize],
    seed: u64,
    pair: fn(usize, u64) -> Workload,
) -> Vec<Workload> {
    (0u64..)
        .zip(bases)
        .map(|(i, base)| pair(scaled(*base, scale), seed + i))
        .collect()
}

fn tfm_pbsm_rtree() -> Vec<Approach> {
    vec![Approach::transformers(), Approach::Pbsm, Approach::Rtree]
}

/// The whole evaluation, in the order `reproduce` runs it.
pub fn table() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig10",
            title: "Fig. 10: join time across density ratios",
            csv: "results/fig10_robustness.csv",
            // Paper: 200 K -> 200 M (ratio 10^3). The dense endpoint must
            // stay large enough that selective retrieval skips whole disk
            // tracks (where crawling beats scanning on a rotational
            // device), so the sweep covers 1 K -> 4 M.
            kind: join(
                |s| robustness_pairs(scaled(1_000, s), scaled(4_000_000, s)),
                vec![
                    Approach::Pbsm,
                    Approach::Rtree,
                    Approach::Gipsy,
                    Approach::transformers(),
                ],
                Some(robustness),
            ),
        },
        Experiment {
            id: "fig11",
            title: "Fig. 11: non-uniform distributions",
            csv: "results/fig11_nonuniform.csv",
            // GIPSY is left out as in the paper ("due to the long execution
            // time when joining densely populated datasets").
            kind: join(
                |s| {
                    sized(
                        s,
                        &[350_000, 450_000, 550_000, 650_000],
                        3000,
                        nonuniform_pair,
                    )
                },
                tfm_pbsm_rtree(),
                Some(breakdown),
            ),
        },
        Experiment {
            id: "table1",
            title: "Table I: uniform distribution",
            csv: "results/table1_uniform.csv",
            kind: join(
                |s| sized(s, &[150_000, 250_000, 350_000], 4000, uniform_pair),
                tfm_pbsm_rtree(),
                None,
            ),
        },
        Experiment {
            id: "fig12",
            title: "Fig. 12: neuroscience data (axons x dendrites)",
            csv: "results/fig12_neuro.csv",
            kind: Kind::Join(JoinSweep {
                workloads: |s| sized(s, &[100_000, 250_000, 350_000], 5000, neuro_pair),
                approaches: vec![
                    Approach::transformers(),
                    Approach::Pbsm,
                    Approach::Rtree,
                    Approach::no_tr(),
                ],
                // §VII-A: PBSM uses 20 partitions per dimension on
                // neuroscience data.
                config: RunConfig {
                    pbsm_partitions: 20,
                    ..RunConfig::default()
                },
                summary: Some(breakdown_and_speedup),
            }),
        },
        Experiment {
            id: "fig13-left",
            title: "Fig. 13 left: impact of transformations (MassiveCluster)",
            csv: "results/fig13_transformations.csv",
            kind: join(
                |s| sized(s, &[50_000, 150_000, 250_000, 350_000], 6000, massive_pair),
                vec![Approach::no_tr(), Approach::transformers()],
                Some(transformation_speedup),
            ),
        },
        Experiment {
            id: "fig13-right",
            title: "Fig. 13 right: transformation-threshold sensitivity",
            csv: "results/fig13_thresholds.csv",
            kind: join(
                |s| threshold_workloads(scaled(350_000, s), 6100),
                [
                    ThresholdPolicy::over_fit(),
                    ThresholdPolicy::CostModel,
                    ThresholdPolicy::under_fit(),
                ]
                .map(Approach::with_policy)
                .to_vec(),
                None,
            ),
        },
        Experiment {
            id: "fig14",
            title: "Fig. 14: adaptive exploration overhead (MassiveCluster)",
            csv: "results/fig14_overhead.csv",
            kind: join(
                |s| sized(s, &[50_000, 150_000, 250_000, 350_000], 7000, massive_pair),
                vec![Approach::transformers()],
                Some(overhead),
            ),
        },
        Experiment {
            id: "filtering",
            title: "§VII-C2: data filtered by TRANSFORMERS",
            csv: "results/filtering.csv",
            // Local density contrast is what makes filtering possible (the
            // paper: 20 % filtered on DenseCluster, 47 % on MassiveCluster);
            // at laptop scale the effect concentrates in the contrasting
            // regime, so this measures a sparse × dense uniform pair.
            kind: join(
                |s| vec![contrast_pair(scaled(1_000, s), scaled(2_000_000, s), 8000)],
                vec![Approach::transformers()],
                Some(filtered_share),
            ),
        },
        Experiment {
            id: "parallel",
            title: "Parallel join scaling (1/2/4/8 workers vs sequential)",
            csv: "results/parallel.csv",
            // A uniform pair and a clustered, cost-skewed one: the case
            // work stealing exists for. Every worker count must find the
            // sequential join's pairs.
            kind: join(
                |s| {
                    let mut w = sized(s, &[250_000], 10_000, uniform_pair);
                    w.extend(sized(s, &[450_000], 10_100, nonuniform_pair));
                    w
                },
                std::iter::once(Approach::transformers())
                    .chain([1, 2, 4, 8].map(Approach::parallel))
                    .collect(),
                None,
            ),
        },
        Experiment {
            id: "serve",
            title: "Query serving (throughput, latency, I/O split)",
            csv: "results/serve.csv",
            kind: Kind::Serve(serve),
        },
    ]
}

/// The rows with the given ids, in table order; all of them when `ids`
/// is empty. An unknown id is an error that lists the valid ones.
pub fn select(ids: &[String]) -> Result<Vec<Experiment>, String> {
    let table = table();
    if let Some(bad) = ids.iter().find(|id| !table.iter().any(|e| e.id == *id)) {
        let valid: Vec<&str> = table.iter().map(|e| e.id).collect();
        return Err(format!(
            "unknown experiment `{bad}`; valid ids: {}",
            valid.join(", ")
        ));
    }
    Ok(table
        .into_iter()
        .filter(|e| ids.is_empty() || ids.iter().any(|id| id == e.id))
        .collect())
}

/// Fig. 10: max/min join time per approach across the ratio sweep.
fn robustness(sweep: &JoinSweep, rows: &[Metrics]) {
    println!("\nrobustness (max/min join time across the ratio sweep; lower = more robust):");
    for ap in &sweep.approaches {
        let times: Vec<f64> = rows
            .iter()
            .filter(|m| m.approach == ap.label())
            .map(|m| m.join_time().as_secs_f64())
            .collect();
        let max = times.iter().cloned().fold(0.0, f64::max);
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        println!("  {:<14} {:>8.1}x", ap.label(), max / min);
    }
}

/// Figs. 11 and 12 middle: join time split into modelled I/O and CPU.
fn breakdown(_: &JoinSweep, rows: &[Metrics]) {
    println!("\njoin breakdown (seconds: io + cpu):");
    for m in rows {
        println!(
            "  {:<10} {:<14} io={:>8.3} cpu={:>8.3} total={:>8.3}",
            m.workload,
            m.approach,
            m.join_sim_io.as_secs_f64(),
            m.join_wall.as_secs_f64(),
            m.join_time().as_secs_f64()
        );
    }
}

/// Fig. 12: the breakdown, then the speedup of transformations.
fn breakdown_and_speedup(sweep: &JoinSweep, rows: &[Metrics]) {
    breakdown(sweep, rows);
    transformation_speedup(sweep, rows);
}

/// Fig. 13 left (and Fig. 12): No TR's join time over TRANSFORMERS' per
/// workload.
fn transformation_speedup(_: &JoinSweep, rows: &[Metrics]) {
    println!("\nspeedup of transformations (NoTR / TRANSFORMERS join time):");
    let row = |workload: &str, approach: &str| {
        rows.iter()
            .find(|m| m.workload == workload && m.approach == approach)
            .unwrap_or_else(|| panic!("no {approach} row for {workload}"))
    };
    for m in rows.iter().filter(|m| m.approach == "TRANSFORMERS") {
        let no_tr = row(&m.workload, "NoTR");
        println!(
            "  {:<10} {:>6.2}x  (transformations performed: {})",
            m.workload,
            no_tr.join_time().as_secs_f64() / m.join_time().as_secs_f64(),
            m.transformations
        );
    }
}

/// Fig. 14: join time split into join cost and exploration overhead.
fn overhead(_: &JoinSweep, rows: &[Metrics]) {
    println!(
        "\n{:<10} {:>12} {:>12} {:>12} {:>10}",
        "elements", "join_cost_s", "overhead_s", "total_s", "overhead%"
    );
    for m in rows {
        let total = m.join_time().as_secs_f64();
        let overhead = m.overhead_wall.as_secs_f64();
        println!(
            "{:<10} {:>12.3} {:>12.3} {:>12.3} {:>9.1}%",
            m.workload,
            total - overhead,
            overhead,
            total,
            100.0 * overhead / total
        );
    }
}

/// §VII-C2: element pages TRANSFORMERS read, against all element pages.
fn filtered_share(sweep: &JoinSweep, rows: &[Metrics]) {
    let per_page = ElementPageCodec::new(sweep.config.page_size).capacity();
    for m in rows {
        let total_pages = m.n_a.div_ceil(per_page) + m.n_b.div_ceil(per_page);
        println!(
            "\nfiltering {}: TRANSFORMERS read {} of {} element pages ({:.0}% filtered out)",
            m.workload,
            m.pages_read,
            total_pages,
            100.0 * (1.0 - m.pages_read as f64 / total_pages as f64)
        );
    }
}

/// All three serve engines over one uniform dataset: a uniform and a
/// clustered probe trace, each at 1 and 4 workers.
fn serve(scale: f64) -> Vec<ServeMetrics> {
    let dataset = generate(&DatasetSpec {
        max_side: BOX_SIDE,
        ..DatasetSpec::uniform(scaled(350_000, scale), 9000)
    });
    let traces = [
        (ProbeMix::Uniform, "serve-uniform"),
        (ProbeMix::Clustered { clusters: 8 }, "serve-clustered"),
    ]
    .map(|(mix, name)| {
        let spec = QueryTraceSpec {
            max_window_side: 20.0,
            ..QueryTraceSpec::with_mix(scaled(20_000, scale).min(50_000), mix, 9001)
        };
        (name, generate_trace(&spec))
    });
    // One index build per engine; every job replays against it.
    let jobs: Vec<ServeJob> = traces
        .iter()
        .flat_map(|(name, trace)| {
            [1, 4].map(|threads| ServeJob {
                workload: name,
                trace,
                config: ServeConfig::default().with_threads(threads).with_batch(128),
            })
        })
        .collect();
    let cfg = RunConfig::default();
    ServeEngineKind::all()
        .into_iter()
        .flat_map(|kind| run_serve_sweep(kind, &dataset, &cfg, &jobs))
        .collect()
}
