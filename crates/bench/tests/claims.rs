//! The paper's claims, checked against the experiment table that
//! `reproduce` runs.
//!
//! The claims compare modelled join I/O (`join_sim_io`), which repeats
//! exactly from run to run, never wall time. They run the table's rows at
//! `TFM_SCALE` 0.05 and are `#[ignore]`d; run them in release:
//!
//! ```sh
//! cargo test --release -p tfm-bench --test claims -- --ignored
//! ```
//!
//! DESIGN.md § "What reproduces and what does not" records the same claims
//! at scale 1, and Fig. 13 left, which does not reproduce.

use tfm_bench::experiments::{select, table, Kind};
use tfm_bench::Metrics;

const SCALE: f64 = 0.05;

/// Runs the join row `id` at [`SCALE`].
fn run(id: &str) -> Vec<Metrics> {
    let row = select(&[id.to_string()]).unwrap().pop().unwrap();
    match row.kind {
        Kind::Join(sweep) => sweep.run(SCALE),
        Kind::Serve(_) => panic!("`{id}` is not a join row"),
    }
}

/// Modelled join I/O of each workload's rows, by approach label, in
/// table order.
fn by_workload(rows: &[Metrics]) -> Vec<(String, Vec<(String, f64)>)> {
    let mut out: Vec<(String, Vec<(String, f64)>)> = Vec::new();
    for m in rows {
        if out.last().is_none_or(|(w, _)| *w != m.workload) {
            out.push((m.workload.clone(), Vec::new()));
        }
        let io = m.join_sim_io.as_secs_f64();
        out.last_mut().unwrap().1.push((m.approach.clone(), io));
    }
    out
}

fn io_of(approaches: &[(String, f64)], label: &str) -> f64 {
    approaches
        .iter()
        .find(|(a, _)| a == label)
        .unwrap_or_else(|| panic!("no {label} row"))
        .1
}

/// TRANSFORMERS reads less modelled I/O than every other approach of the
/// row, on every workload.
fn transformers_beats_the_rest(id: &str) {
    transformers_beats(id, |label| label != "TRANSFORMERS");
}

/// TRANSFORMERS reads less modelled I/O than each approach of the row
/// whose label `rival` accepts, on every workload.
fn transformers_beats(id: &str, rival: impl Fn(&str) -> bool) {
    let workloads = by_workload(&run(id));
    assert!(!workloads.is_empty());
    for (workload, approaches) in &workloads {
        let tfm = io_of(approaches, "TRANSFORMERS");
        for (label, io) in approaches.iter().filter(|(a, _)| rival(a)) {
            assert!(
                tfm < *io,
                "{id} {workload}: TRANSFORMERS {tfm:.6} s is not below {label} {io:.6} s"
            );
        }
    }
}

#[test]
#[ignore = "runs the fig10 row: use --release -- --ignored"]
fn fig10_transformers_has_the_lowest_io_at_every_density_ratio() {
    transformers_beats_the_rest("fig10");
}

#[test]
#[ignore = "runs the table1 row: use --release -- --ignored"]
fn table1_transformers_beats_pbsm_and_rtree_at_every_size() {
    transformers_beats_the_rest("table1");
}

#[test]
#[ignore = "runs the fig11 row: use --release -- --ignored"]
fn fig11_transformers_beats_pbsm_and_rtree_at_every_size() {
    transformers_beats_the_rest("fig11");
}

#[test]
#[ignore = "runs the fig12 row: use --release -- --ignored"]
fn fig12_transformers_beats_pbsm_and_rtree_at_every_size() {
    // The row also holds No TR, which this claim does not cover.
    transformers_beats("fig12", |label| ["PBSM", "R-TREE"].contains(&label));
}

#[test]
#[ignore = "runs the fig13-right row: use --release -- --ignored"]
fn fig13_right_cost_model_is_no_worse_than_overfit_and_near_underfit() {
    let workloads = by_workload(&run("fig13-right"));
    assert_eq!(workloads.len(), 3);
    for (workload, approaches) in &workloads {
        let cost_model = io_of(approaches, "TRANSFORMERS");
        let over = io_of(approaches, "TR-OverFit");
        let under = io_of(approaches, "TR-UnderFit");
        assert!(
            cost_model <= over,
            "{workload}: cost model {cost_model:.6} s above OverFit {over:.6} s"
        );
        assert!(
            cost_model <= 1.10 * under,
            "{workload}: cost model {cost_model:.6} s more than 10 % above UnderFit {under:.6} s"
        );
    }
}

#[test]
#[ignore = "runs the parallel row: use --release -- --ignored"]
fn parallel_join_finds_the_sequential_pairs_at_every_worker_count() {
    let rows = run("parallel");
    assert_eq!(rows.len(), 10);
    for workload in rows.chunks(5) {
        let seq = (&workload[0].workload, workload[0].results);
        for m in workload {
            assert_eq!((&m.workload, m.results), seq, "{}", m.approach);
        }
    }
}

#[test]
fn ids_and_csv_paths_are_unique() {
    let table = table();
    for (i, e) in table.iter().enumerate() {
        for other in &table[i + 1..] {
            assert_ne!(e.id, other.id);
            assert_ne!(e.csv, other.csv, "{} and {} share a CSV", e.id, other.id);
        }
    }
}

#[test]
fn every_join_row_has_an_approach() {
    for e in table() {
        if let Kind::Join(sweep) = &e.kind {
            assert!(!sweep.approaches.is_empty(), "{} has no approach", e.id);
        }
    }
}

#[test]
fn selection_keeps_table_order_and_rejects_unknown_ids() {
    let ids = |sel: Vec<tfm_bench::experiments::Experiment>| -> Vec<&str> {
        sel.into_iter().map(|e| e.id).collect()
    };
    assert_eq!(ids(select(&[]).unwrap()).len(), table().len());
    let picked = select(&["serve".to_string(), "fig10".to_string()]).unwrap();
    assert_eq!(ids(picked), ["fig10", "serve"]);
    let err = select(&["fig10".to_string(), "fig99".to_string()])
        .err()
        .unwrap();
    assert!(err.contains("`fig99`"), "{err}");
    for e in table() {
        assert!(err.contains(e.id), "{err} does not list {}", e.id);
    }
}
