//! Table printing and CSV output for experiment results.

use crate::runner::Metrics;
use std::io::Write;
use std::path::Path;

/// Formats a duration as seconds with three decimals.
fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Prints a fixed-width comparison table of metrics, one row per entry.
pub fn print_table(title: &str, rows: &[Metrics]) {
    println!("\n== {title} ==");
    println!(
        "{:<24} {:<22} {:>9} {:>9} {:>3} {:>10} {:>10} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "workload",
        "approach",
        "|A|",
        "|B|",
        "bt",
        "build_s",
        "build_cpu",
        "join_s",
        "io_s",
        "pages_read",
        "tests",
        "results"
    );
    for m in rows {
        println!(
            "{:<24} {:<22} {:>9} {:>9} {:>3} {:>10} {:>10} {:>10} {:>10} {:>12} {:>12} {:>10}",
            m.workload,
            m.approach,
            m.n_a,
            m.n_b,
            m.build_threads,
            secs(m.index_time()),
            secs(m.index_wall),
            secs(m.join_time()),
            secs(m.join_sim_io),
            m.pages_read,
            m.tests,
            m.results
        );
    }
}

/// CSV header matching [`csv_row`].
pub const CSV_HEADER: &str = "workload,approach,n_a,n_b,build_threads,index_wall_s,index_sim_io_s,index_total_s,join_wall_s,join_sim_io_s,join_total_s,pages_read,rand_reads,seq_reads,tests,results,transformations,overhead_wall_s";

/// One CSV row for a metrics record.
pub fn csv_row(m: &Metrics) -> String {
    format!(
        "{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{},{},{},{},{},{},{:.6}",
        m.workload,
        m.approach,
        m.n_a,
        m.n_b,
        m.build_threads,
        m.index_wall.as_secs_f64(),
        m.index_sim_io.as_secs_f64(),
        m.index_time().as_secs_f64(),
        m.join_wall.as_secs_f64(),
        m.join_sim_io.as_secs_f64(),
        m.join_time().as_secs_f64(),
        m.pages_read,
        m.rand_reads,
        m.seq_reads,
        m.tests,
        m.results,
        m.transformations,
        m.overhead_wall.as_secs_f64(),
    )
}

/// Writes metrics to `path` as CSV (creating parent directories).
pub fn write_csv<P: AsRef<Path>>(path: P, rows: &[Metrics]) -> std::io::Result<()> {
    if let Some(parent) = path.as_ref().parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{CSV_HEADER}")?;
    for m in rows {
        writeln!(f, "{}", csv_row(m))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample() -> Metrics {
        Metrics {
            approach: "TRANSFORMERS".into(),
            workload: "w".into(),
            n_a: 10,
            n_b: 20,
            index_wall: Duration::from_millis(5),
            index_sim_io: Duration::from_millis(10),
            join_wall: Duration::from_millis(1),
            join_sim_io: Duration::from_millis(2),
            pages_read: 7,
            pool_hits: 0,
            rand_reads: 3,
            seq_reads: 4,
            tests: 99,
            results: 11,
            transformations: 2,
            overhead_wall: Duration::from_micros(100),
            mem_join_wall: Duration::from_micros(300),
            build_threads: 1,
            windows: 3,
            window_pivots: 12,
            swept_pages: 80,
            window_pages_max: 40,
            forced_pages: 6,
            read_through_pages: 9,
        }
    }

    #[test]
    fn csv_row_has_header_arity() {
        let row = csv_row(&sample());
        assert_eq!(row.split(',').count(), CSV_HEADER.split(',').count());
    }

    #[test]
    fn csv_file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("tfm_csv_{}", std::process::id()));
        let path = dir.join("out.csv");
        write_csv(&path, &[sample(), sample()]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.lines().count(), 3);
        assert!(content.starts_with("workload,"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
