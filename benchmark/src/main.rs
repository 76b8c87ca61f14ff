//! The repo's benchmark. One process runs one workload on one seed:
//!
//! ```text
//! benchmark run --workload <name> --seed <n> [--seconds S] [--trace 0|1]
//!               [--workdir DIR] [--trace-file FILE]
//! benchmark selfcheck [--seed <n>] [--seconds S] [--runs N]   # A/A medians
//! benchmark verify                                 # 1/15 scale + oracle
//! benchmark spec                                   # prints BENCHMARK.json
//! ```
//!
//! `run` prints every metric by name and unit (`METRIC` lines) and, as the
//! last line of its output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See `README.md` for what each number means.

mod layers;
mod measure;
mod pipeline;
mod selfcheck;
mod spec;
mod trace;
mod workloads;

use measure::{peak_rss_mb, rounds, Recorder, Summary};
use pipeline::{run_round, Env, Gate, Reference};
use spec::{Kind, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("selfcheck") => selfcheck::cmd_selfcheck(&args[1..]),
        Some("verify") => cmd_verify(),
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        _ => Err("usage: benchmark run|selfcheck|verify|spec (see benchmark/README.md)".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Value of `--name` in `args`, if present.
pub fn opt<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

pub fn parse_opt<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: T,
) -> Result<T, String> {
    match opt(args, name) {
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse '{v}'")),
        None => Ok(default),
    }
}

/// Workers of the parallel join and the serve replay: never more threads
/// than the host has.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The run's scratch directory: always a fresh `bench-work-<pid>-<nanos>`
/// subdirectory the benchmark creates itself, under `--workdir` when given
/// and otherwise next to the executable (inside the build directory, so
/// inside the checkout and never committed). Dropping the value removes
/// that subdirectory and nothing else: a directory the user named is never
/// deleted.
struct Scratch {
    /// Where the subdirectory lives; the span file goes here by default.
    base: PathBuf,
    dir: PathBuf,
}

impl Scratch {
    fn create(base: Option<&str>) -> Result<Self, String> {
        let base = match base {
            Some(d) => PathBuf::from(d),
            None => {
                let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
                exe.parent()
                    .ok_or("executable has no parent directory")?
                    .to_path_buf()
            }
        };
        // Pid and clock: a directory a killed run left behind is never met.
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = base.join(format!("bench-work-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&base).map_err(|e| format!("{}: {e}", base.display()))?;
        // `create_dir`, not `create_dir_all`: an existing directory of that
        // name is not ours to fill and delete.
        std::fs::create_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self { base, dir })
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if let Err(e) = std::fs::remove_dir_all(&self.dir) {
            eprintln!("benchmark: leaving {} behind: {e}", self.dir.display());
        }
    }
}

fn first_line_value(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split(':').nth(1)?.trim().to_string())
}

/// Filesystem type of the mount holding `dir` (longest mount-point prefix).
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point).then_some((point.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or("unknown".into(), |(_, fs)| fs.to_string())
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Per-round order statistics, for timed metrics.
    summary: Option<Summary>,
}

/// Prints the `METRIC` lines and the final JSON line; true when correct.
fn report(metrics: &[Metric], gate: &Gate) -> bool {
    for m in metrics {
        match &m.summary {
            Some(s) => println!(
                "METRIC {} {} {} n={} min={} q1={} median={} q3={} max={}",
                m.name, m.unit, m.value, s.n, s.min, s.q1, s.median, s.q3, s.max
            ),
            None => println!("METRIC {} {} {}", m.name, m.unit, m.value),
        }
    }
    for msg in &gate.messages {
        eprintln!("FAILED CHECK: {msg}");
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = gate.failed == 0 && finite;
    println!(
        "ops_attempted {} ops_failed {}",
        gate.attempted, gate.failed
    );
    let body = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        gate.attempted.max(1),
        gate.failed
    );
    correct
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let name = opt(args, "--workload").ok_or("--workload <name> is required")?;
    let workload = workloads::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (known: {})", known.join(", "))
    })?;
    let seed: u64 = parse_opt(args, "--seed", 1)?;
    let seconds: u64 = parse_opt(args, "--seconds", spec::RUN_SECONDS)?;
    let traced = match opt(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
    };
    let scratch = Scratch::create(opt(args, "--workdir"))?;
    let env = Env {
        workload,
        seed,
        scale: 1.0,
        squeeze: 1.0,
        workdir: &scratch.dir,
        workers: workers(),
        check_properties: true,
    };
    println!(
        "host: nproc={} cpu=\"{}\" workdir={} fs={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        first_line_value("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
        scratch.dir.display(),
        filesystem_of(&scratch.dir),
    );
    println!(
        "run: workload={name} seed={seed} seconds={seconds} workers={} page={}B cache={} pages; \
         WAL flush policy: group commit, one real fsync per transaction, no injected latency; \
         latencies are this sandbox's (reads served by the OS page cache), not a device's",
        env.workers,
        workloads::PAGE_SIZE,
        workloads::CACHE_PAGES
    );
    let budget = Duration::from_secs(seconds);
    let outcome = if traced {
        let file = match opt(args, "--trace-file") {
            Some(f) => PathBuf::from(f),
            None => scratch.base.join(format!("trace-{name}-{seed}.jsonl")),
        };
        run_traced(&env, budget, &file)
    } else {
        run_end_to_end(&env, budget)
    };
    outcome.map_err(|e| format!("i/o error: {e}"))
}

/// The gated run: untraced rounds, every end-to-end metric.
fn run_end_to_end(env: &Env<'_>, budget: Duration) -> std::io::Result<bool> {
    let mut tracer = Tracer::new();
    let mut reference: Option<Reference> = None;
    let mut gate = Gate::default();
    let rec: Recorder = rounds(budget, |rec| {
        run_round(env, &mut tracer, &mut reference, rec, &mut gate).map(drop)
    })?;
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .map(|m| {
            let samples = rec.samples(m.name);
            let (value, summary) = match m.kind {
                Kind::Timed => {
                    let s = Summary::of(samples).expect("every round records every metric");
                    (s.good_quartile(m.better), Some(s))
                }
                Kind::Exact => {
                    gate.check(samples.windows(2).all(|w| w[0] == w[1]), || {
                        format!("{} is a count but differed between rounds", m.name)
                    });
                    (samples[0], None)
                }
                Kind::AtExit => (peak_rss_mb(), None),
            };
            Metric {
                name: m.name,
                unit: m.unit,
                value,
                summary,
            }
        })
        .collect();
    Ok(report(&metrics, &gate))
}

/// The traced run: the same warm-up and untraced rounds for the baseline,
/// one traced round, then the layer probes; every per-layer metric.
fn run_traced(env: &Env<'_>, budget: Duration, span_file: &Path) -> std::io::Result<bool> {
    let mut tracer = Tracer::new();
    let mut reference: Option<Reference> = None;
    let mut gate = Gate::default();
    let mut timed_round = |tracer: &mut Tracer, gate: &mut Gate, rec: &mut Recorder| {
        let t = Instant::now();
        let detail = run_round(env, tracer, &mut reference, rec, gate)?;
        rec.record("round_s", t.elapsed().as_secs_f64());
        Ok::<_, std::io::Error>(detail)
    };
    let untraced = rounds(budget / 2, |rec| {
        timed_round(&mut tracer, &mut gate, rec).map(drop)
    })?;
    let untraced = Summary::of(untraced.samples("round_s")).expect("at least one round");
    let mut traced = Recorder::default();
    tracer.set_round(true, untraced.n as u32 + 1);
    let detail = timed_round(&mut tracer, &mut gate, &mut traced)?;
    tracer.set_round(false, 0);
    let traced_wall = traced.samples("round_s")[0];

    let mut values = layers::Values::new();
    layers::from_round(&detail, &mut values);
    layers::probe_layers(env, &detail, &mut values)?;
    values.push(("trace.overhead_s", traced_wall - untraced.median));
    values.push(("trace.spans", tracer.spans().len() as f64));
    tracer.write_jsonl(span_file)?;

    println!(
        "traced round {traced_wall:.4} s, median of {} untraced rounds {:.4} s; spans in {}",
        untraced.n,
        untraced.median,
        span_file.display()
    );
    for (name, self_s, count) in tracer.self_times() {
        println!("SELF {name} {self_s:.6} s over {count} spans");
    }
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|m| {
            let value = values.iter().find(|(n, _)| *n == m.name).map(|&(_, v)| v);
            gate.check(value.is_some(), || {
                format!("per-layer metric {} was not produced", m.name)
            });
            Metric {
                name: m.name,
                unit: m.unit,
                value: value.unwrap_or(0.0),
                summary: None,
            }
        })
        .collect();
    Ok(report(&metrics, &gate))
}

/// `verify` shrinks every workload to 40-67 k elements per pair, small
/// enough for the quadratic oracle, and packs them into a tenth of each
/// universe axis so the joins still return thousands of pairs.
const VERIFY_SCALE: f64 = 1.0 / 15.0;
const VERIFY_SQUEEZE: f64 = 0.1;

/// Every workload once at [`VERIFY_SCALE`], with the join held to the
/// nested-loop oracle on top of the gate's own checks.
fn cmd_verify() -> Result<bool, String> {
    let scratch = Scratch::create(None)?;
    let mut ok = true;
    for workload in workloads::ALL {
        let env = Env {
            workload,
            seed: 1,
            scale: VERIFY_SCALE,
            squeeze: VERIFY_SQUEEZE,
            workdir: &scratch.dir,
            workers: workers(),
            check_properties: false,
        };
        let mut reference = None;
        let mut gate = Gate::default();
        run_round(
            &env,
            &mut Tracer::new(),
            &mut reference,
            &mut Recorder::default(),
            &mut gate,
        )
        .map_err(|e| format!("i/o error: {e}"))?;
        let reference = reference.expect("the first round fills it");
        let inputs = workload.generate(env.seed, env.scale, env.squeeze);
        let oracle = tfm_memjoin::canonicalize(tfm_memjoin::nested_loop_join(
            &inputs.a,
            &inputs.b,
            &mut tfm_memjoin::JoinStats::default(),
        ));
        gate.check(oracle == reference.pairs, || {
            format!(
                "join returned {} pairs, the nested-loop oracle {}",
                reference.pairs.len(),
                oracle.len()
            )
        });
        for msg in &gate.messages {
            eprintln!("FAILED CHECK ({}): {msg}", workload.name);
        }
        println!(
            "verify {}: join {} pairs, nested loop {} pairs, ops_attempted {} ops_failed {}",
            workload.name,
            reference.pairs.len(),
            oracle.len(),
            gate.attempted,
            gate.failed
        );
        ok &= gate.failed == 0;
    }
    Ok(ok)
}
