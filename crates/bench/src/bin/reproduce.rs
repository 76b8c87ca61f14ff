//! Reproduces the paper's evaluation from the table in
//! `tfm_bench::experiments`: every experiment, or only the ids given.
//! Each prints its table and summary and writes `results/<name>.csv`.
//!
//! ```sh
//! cargo run --release -p tfm-bench --bin reproduce                 # all
//! TFM_SCALE=0.05 cargo run --release -p tfm-bench --bin reproduce -- fig10 table1
//! ```
//!
//! An unknown id is an error that lists the valid ones.

use std::time::Instant;
use tfm_bench::experiments::select;

fn main() {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let experiments = select(&ids).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    let scale = tfm_bench::scale();
    let t0 = Instant::now();
    for e in &experiments {
        if let Err(err) = e.run(scale) {
            eprintln!("{}: writing {}: {err}", e.id, e.csv);
            std::process::exit(1);
        }
    }
    println!(
        "\n{} experiment(s) at scale {scale} finished in {:.1}s",
        experiments.len(),
        t0.elapsed().as_secs_f64()
    );
}
