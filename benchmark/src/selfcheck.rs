//! A/A self-check: the whole suite as side A and again as side B, each
//! workload in its own process, same seed; `--runs N` (default 3) repeats
//! the A-then-B pair and compares the sides' medians, as the driver
//! compares medians of ten. Every workload x metric pair's relative
//! difference is printed beside its bound; any difference above the bound
//! (or any incorrect run) fails the check.

use crate::measure::Summary;
use crate::spec::{Kind, END_TO_END, EXACT_REPEAT, RUN_SECONDS};
use crate::{parse_opt, workloads};
use std::process::Command;

/// `name -> value` of one child's `METRIC` lines, plus its verdict.
struct ChildRun {
    values: Vec<(String, f64)>,
    correct: bool,
}

fn run_child(workload: &str, seed: u64, seconds: u64) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("spawning the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let values = stdout
        .lines()
        .filter_map(|l| {
            let mut f = l.strip_prefix("METRIC ")?.split_whitespace();
            let (name, _unit, value) = (f.next()?, f.next()?, f.next()?);
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect();
    Ok(ChildRun {
        values,
        correct: out.status.success(),
    })
}

pub fn cmd_selfcheck(args: &[String]) -> Result<bool, String> {
    let seed: u64 = parse_opt(args, "--seed", 1)?;
    let seconds: u64 = parse_opt(args, "--seconds", RUN_SECONDS)?;
    let runs: usize = parse_opt(args, "--runs", 3)?;
    // sides[side][workload] holds that side's runs of the workload; a whole
    // suite completes before the other side's starts.
    let mut sides: [Vec<Vec<ChildRun>>; 2] =
        [(); 2].map(|()| workloads::ALL.iter().map(|_| Vec::new()).collect());
    for _ in 0..runs.max(1) {
        for side in &mut sides {
            for (i, w) in workloads::ALL.iter().enumerate() {
                side[i].push(run_child(w.name, seed, seconds)?);
            }
        }
    }
    let mut ok = true;
    println!(
        "{:<10} {:<18} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (i, w) in workloads::ALL.iter().enumerate() {
        let (first, second) = (&sides[0][i], &sides[1][i]);
        if !first.iter().chain(second).all(|run| run.correct) {
            println!("{:<10} a run failed its correctness gate", w.name);
            ok = false;
        }
        for m in END_TO_END {
            // Median of the side's runs; `None` if any run lacks the metric.
            let find = |side: &[ChildRun]| {
                let values: Option<Vec<f64>> = side
                    .iter()
                    .map(|run| {
                        let hit = run.values.iter().find(|(n, _)| n == m.name);
                        hit.map(|&(_, v)| v)
                    })
                    .collect();
                Some(Summary::of(&values?)?.median)
            };
            let (Some(a), Some(b)) = (find(first), find(second)) else {
                println!("{:<10} {:<18} missing from a run's output", w.name, m.name);
                ok = false;
                continue;
            };
            let diff = (b - a).abs() / a.abs().max(f64::MIN_POSITIVE);
            // Same seed, same inputs: a count must repeat, whatever room
            // its bound leaves for other seeds.
            let bound = match m.kind {
                Kind::Exact => EXACT_REPEAT,
                Kind::Timed | Kind::AtExit => m.bound,
            };
            let breach = diff > bound;
            ok &= !breach;
            println!(
                "{:<10} {:<18} {:>14.6} {:>14.6} {:>7.2}% {:>6.1}%{}",
                w.name,
                m.name,
                a,
                b,
                diff * 100.0,
                bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    println!("selfcheck: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}
