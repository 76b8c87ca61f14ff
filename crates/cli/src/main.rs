//! `tfm` — command-line front end for the TRANSFORMERS reproduction.
//!
//! ```text
//! tfm generate --count 100000 --distribution uniform --seed 1 --out a.elems
//! tfm generate --count 100000 --distribution dense-cluster --seed 2 --out b.elems
//! tfm join --a a.elems --b b.elems --approach transformers
//! tfm join --a a.elems --b b.elems --approach pbsm --verify
//! tfm info --in a.elems
//! ```

/// `println!`, except that a reader who closed stdout (`tfm … | head`)
/// ends the process quietly with status 0 instead of a panic. Every print
/// of this file goes through it.
macro_rules! println {
    ($($arg:tt)*) => {
        print_line(format_args!($($arg)*))
    };
}

mod io;

use std::io::Write as _;
use std::process::ExitCode;
use tfm_bench::args::Args;
use tfm_bench::{run_approach, Approach, RunConfig};
use tfm_datagen::{generate, neuro, DatasetSpec, Distribution};
use tfm_memjoin::{canonicalize, nested_loop_join, JoinStats};
use tfm_storage::StoreBackend;

/// One subcommand's entry point; it gets the arguments after its name.
type Command = fn(&[String]) -> Result<(), String>;

/// Every subcommand, by the name [`USAGE`] gives it.
const COMMANDS: [(&str, Command); 6] = [
    ("generate", cmd_generate),
    ("build", cmd_build),
    ("join", cmd_join),
    ("serve", cmd_serve),
    ("mutate", cmd_mutate),
    ("info", cmd_info),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(name) => match COMMANDS.iter().find(|(n, _)| *n == name) {
            // `--help` anywhere after a command asks for its synopsis.
            Some(_) if args[1..].iter().any(|a| a == "--help") => {
                println!("{}", synopsis(name));
                Ok(())
            }
            Some((_, run)) => run(&args[1..]),
            None => Err(format!("unknown command `{name}`; try `tfm help`")),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// What `tfm help` prints. A subcommand's synopsis — its `  tfm NAME` line
/// and the `[…]` lines under it — is the one declaration of its flags:
/// [`parse_args`] parses the command line against it.
const USAGE: &str = "tfm — TRANSFORMERS robust spatial joins (ICDE 2016 reproduction)

USAGE:
  tfm generate --count N --out FILE [--distribution D] [--seed S] [--max-side F]
      D: uniform | dense-cluster | uniform-cluster | massive-cluster | axons | dendrites
  tfm build --in FILE [--page-size N] [--build-threads N]
            [--unit-capacity N] [--node-capacity N]
            [--backend mem|file|file-checksummed] [--store DIR]
      builds the TRANSFORMERS index once through the staged pipeline and
      reports hierarchy size, pages, build time and its split over the
      five build stages; the index is byte-identical at any
      --build-threads setting. With --backend file
      the pages are written to a real on-disk image DIR/build.pages
  tfm join --a FILE --b FILE [--approach A] [--page-size N] [--threads N]
           [--build-threads N]
           [--backend mem|file|file-checksummed] [--store DIR]
           [--verify] [--metrics PATH]
      A: transformers | no-tr | pbsm | rtree | gipsy (default: transformers)
      --threads N: run the transformers join on N parallel workers (tfm-exec)
      --build-threads N: build the indexes on N parallel workers
                  (transformers, gipsy and rtree builds; default: the
                  host's available parallelism, as IndexConfig::default())
  tfm serve --in FILE [--queries N] [--threads N] [--batch N] [--mix M]
            [--page-size N] [--build-threads N] [--trace-seed S]
            [--window F] [--eps F] [--shards N]
            [--backend mem|file|file-checksummed] [--store DIR]
            [--verify] [--metrics PATH]
      builds the TRANSFORMERS index once, generates a deterministic query
      trace (window / point-enclosure / distance probes) and replays it on
      N serve workers with locality-aware (Hilbert-ordered) batching
      M: uniform | clustered | neuro   (default: uniform)
      --batch N: queries per batch (default 64), each replayed in the
                  Hilbert order of its probe centers
      --shards N: serve through a sharded scatter-gather cluster of N
                  self-contained index shards cut from the Hilbert curve
                  (each with its own page cache and worker pool of
                  --threads workers); probes are routed only to the shards
                  their probe box intersects, and merged results stay
                  byte-identical to the unsharded path
  tfm mutate --in FILE [--ops N] [--write-permille N] [--insert-permille N]
             [--wal-dir DIR] [--threads N] [--batch N] [--seed S]
             [--page-size N] [--build-threads N] [--verify]
      builds the TRANSFORMERS index, adopts it into the mutable overlay
      and replays a deterministic mixed read/write trace against it:
      probes are served on N workers while inserts/deletes apply in
      write-ahead-logged batches (chunk size --batch)
      --ops N: total operations, reads + writes (default 1000)
      --write-permille N: fraction of ops that are writes, 0..=1000
                  (default 200); --insert-permille N: fraction of writes
                  that are inserts (default 700, rest are deletes)
      --wal-dir DIR: write every batch through a write-ahead log in DIR
                  (one fsync per batch, segment rotation); without it mutations
                  apply unlogged — fine for throughput runs, no crash
                  safety. The log is left in place for inspection;
                  recovery replays it via the tfm-wal crate
      --verify: after the replay, check every probe of the trace against
                  a full scan of the mutated dataset
  tfm info --in FILE
  tfm help

STORAGE BACKEND (build + join + serve):
  --backend file: keep every page in a real on-disk image under --store
      DIR (default: a per-run temp directory), read with positional I/O;
      the default mem backend keeps pages in memory. --backend
      file-checksummed adds a per-page checksum sidecar so torn
      data-page writes are detected on read (the write path's posture).
      Every page is read on demand by the query or join worker that needs
      it; results and page counts do not depend on the backend.
      --store requires --backend file.

METRICS (join + serve):
  --metrics PATH: enable the tfm-obs registry for the run and export the
      cache/IO/latency/stage-timing metrics to PATH as JSON lines; serve
      additionally appends one trace line per query (queue-wait/service
      split and page-cache attribution).";

fn print_usage() {
    println!("{USAGE}");
}

/// The body of this file's `println!`: one line to stdout. A closed pipe
/// exits 0, since whoever stopped reading has what they wanted; any other
/// write error panics, as `std`'s `println!` does.
fn print_line(line: std::fmt::Arguments<'_>) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_fmt(line).and_then(|()| out.write_all(b"\n")) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// `command`'s synopsis in [`USAGE`].
fn synopsis(command: &str) -> String {
    let mut lines = USAGE.lines().skip_while(|l| {
        let words = l.split_whitespace().take(2).collect::<Vec<_>>();
        words != ["tfm", command]
    });
    let first = lines.next().expect("every subcommand has a synopsis");
    let rest = lines.take_while(|l| l.trim_start().starts_with('['));
    std::iter::once(first)
        .chain(rest)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Parses `args` against `command`'s synopsis. Every subcommand calls this
/// first, before it touches a file: a misspelt or retired flag must not
/// silently become a no-op.
fn parse_args(command: &str, args: &[String]) -> Result<Args, String> {
    Args::parse(&synopsis(command), args).map_err(|e| format!("{e}; try `tfm help`"))
}

/// Storage-backend options shared by `tfm build`, `tfm join` and
/// `tfm serve`.
struct StoreOpts {
    backend: StoreBackend,
}

impl StoreOpts {
    /// The on-disk page-image directory, when the backend is a file.
    fn dir(&self) -> Option<&std::path::Path> {
        match &self.backend {
            StoreBackend::File(dir) | StoreBackend::FileChecksummed(dir) => Some(dir),
            StoreBackend::Mem => None,
        }
    }

    /// The `backend:` summary line of `tfm join` and `tfm serve`, when the
    /// backend is a file.
    fn summary(&self) -> Option<String> {
        self.dir()
            .map(|dir| format!("backend:         file ({})", dir.display()))
    }
}

/// Parses `--backend mem|file|file-checksummed [--store DIR]`.
///
/// The page-image directory only means something when pages live in a
/// real file, so on the default mem backend `--store` is rejected: a flag
/// that would change nothing is an error, not a silent no-op.
fn parse_store_opts(args: &Args) -> Result<StoreOpts, String> {
    let dir = || {
        args.get("--store").map_or_else(
            || std::env::temp_dir().join(format!("tfm_store_{}", std::process::id())),
            std::path::PathBuf::from,
        )
    };
    let backend = match args.get("--backend").unwrap_or("mem") {
        "mem" => {
            if args.get("--store").is_some() {
                return Err("--store requires --backend file".to_string());
            }
            StoreBackend::Mem
        }
        "file" => StoreBackend::File(dir()),
        // Per-page checksum sidecar: torn data-page writes are detected on
        // read (the write path's default posture).
        "file-checksummed" => StoreBackend::FileChecksummed(dir()),
        other => {
            return Err(format!(
                "unknown backend `{other}` (mem | file | file-checksummed)"
            ))
        }
    };
    Ok(StoreOpts { backend })
}

/// Arms the global registry (cleared, enabled) for `tfm join --metrics` or
/// `tfm serve --metrics`. Runs before the index build so the `build.*`
/// stage timings land in this run's export, and creates the export file
/// first so an unwritable `path` fails before the run, not after it.
fn start_metrics(path: &str) -> Result<(), String> {
    std::fs::write(path, "").map_err(|e| format!("creating {path}: {e}"))?;
    tfm_obs::set_enabled(true);
    tfm_obs::global().reset();
    Ok(())
}

/// Writes the registry's JSON-lines export plus one trace line per query
/// to `path`, parses the file back as a self-check, and returns a one-line
/// summary.
fn finish_metrics(path: &str, traces: &[tfm_obs::QueryTrace]) -> Result<String, String> {
    let snapshot = tfm_obs::global().snapshot();
    tfm_obs::set_enabled(false);
    let io_err = |e: std::io::Error| format!("writing {path}: {e}");
    let mut f = std::io::BufWriter::new(std::fs::File::create(path).map_err(io_err)?);
    f.write_all(snapshot.to_jsonl().as_bytes())
        .map_err(io_err)?;
    for t in traces {
        writeln!(f, "{}", t.to_json()).map_err(io_err)?;
    }
    f.flush().map_err(io_err)?;
    // Self-check: the export must round-trip through the parser with the
    // trace lines interleaved.
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading back {path}: {e}"))?;
    tfm_obs::MetricsSnapshot::parse_jsonl(&text)
        .map_err(|e| format!("{path}: exported metrics failed to parse back: {e}"))?;
    let traces_note = if traces.is_empty() {
        String::new()
    } else {
        format!(" + {} query traces", traces.len())
    };
    Ok(format!(
        "metrics:         {} series{traces_note} -> {}",
        snapshot.entries.len(),
        path
    ))
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let args = parse_args("generate", args)?;
    let count: usize = args.value("--count")?.expect("--count is required");
    let out = args.required("--out");
    let seed: u64 = args.value("--seed")?.unwrap_or(0);
    let max_side: f64 = args.value("--max-side")?.unwrap_or(1.0);
    let dist = args.get("--distribution").unwrap_or("uniform");

    let elements = match dist {
        "uniform" => generate(&DatasetSpec {
            max_side,
            ..DatasetSpec::uniform(count, seed)
        }),
        "dense-cluster" => generate(&DatasetSpec {
            max_side,
            ..DatasetSpec::with_distribution(count, Distribution::dense_cluster_default(), seed)
        }),
        "uniform-cluster" => generate(&DatasetSpec {
            max_side,
            ..DatasetSpec::with_distribution(count, Distribution::uniform_cluster_default(), seed)
        }),
        "massive-cluster" => generate(&DatasetSpec {
            max_side,
            ..DatasetSpec::with_distribution(count, Distribution::massive_cluster_for(count), seed)
        }),
        "axons" => neuro::axons(count, seed),
        "dendrites" => neuro::dendrites(count, seed),
        other => return Err(format!("unknown distribution `{other}`")),
    };
    io::write_elements(out, &elements).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {} elements to {out}", elements.len());
    Ok(())
}

/// `--build-threads`, or `IndexConfig::default()`'s worker count (the
/// host's available parallelism) when it is not given.
fn build_threads(args: &Args) -> Result<usize, String> {
    Ok(args
        .count("--build-threads")?
        .unwrap_or(transformers::IndexConfig::default().build_threads))
}

fn cmd_build(args: &[String]) -> Result<(), String> {
    use transformers::{IndexConfig, TransformersIndex};

    let args = parse_args("build", args)?;
    let path = args.required("--in");
    let page_size: usize = args.value("--page-size")?.unwrap_or(2048);
    let build_threads = build_threads(&args)?;
    let store = parse_store_opts(&args)?;
    let mut cfg = IndexConfig::default().with_build_threads(build_threads);
    cfg.unit_capacity = args.value("--unit-capacity")?;
    cfg.node_capacity = args.value("--node-capacity")?;

    let elems = io::read_elements(path).map_err(|e| format!("reading {path}: {e}"))?;
    let disk = tfm_storage::Disk::for_backend(&store.backend, page_size, "build")
        .map_err(|e| format!("creating page store: {e}"))?;
    // The build's stage timers record only while the registry is on.
    let metrics_were_on = tfm_obs::enabled();
    tfm_obs::set_enabled(true);
    tfm_obs::global().reset();
    let t = std::time::Instant::now();
    let built = TransformersIndex::try_build(&disk, elems, &cfg);
    let wall = t.elapsed();
    let stages = build_stage_split(&tfm_obs::global().snapshot());
    tfm_obs::set_enabled(metrics_were_on);
    let idx = built?;
    let io = disk.stats();

    println!("dataset:         {path}");
    println!("elements:        {}", idx.len());
    println!(
        "hierarchy:       {} nodes, {} units (unit cap {}, node cap {})",
        idx.nodes().len(),
        idx.units().len(),
        idx.unit_capacity(),
        idx.node_capacity()
    );
    println!(
        "pages:           {} total ({} metadata)",
        disk.allocated_pages(),
        idx.metadata_pages()
    );
    println!("build threads:   {build_threads}");
    println!(
        "build time:      {:.3}s  ({:.3}s sim I/O + {:.3}s CPU)",
        wall.as_secs_f64() + io.sim_io_time().as_secs_f64(),
        io.sim_io_time().as_secs_f64(),
        wall.as_secs_f64()
    );
    println!("build stages:    {stages}");
    if let Some(dir) = store.dir() {
        println!(
            "page image:      {} ({} bytes)",
            dir.join("build.pages").display(),
            disk.store_len()
        );
    }
    Ok(())
}

/// Where a build's CPU went, from the `build.*_nanos` stage timers the
/// index build records (wall time per stage, in stage order).
fn build_stage_split(snapshot: &tfm_obs::MetricsSnapshot) -> String {
    use tfm_obs::names::{
        BUILD_CONNECTIVITY, BUILD_FINALIZE, BUILD_NODE_STR, BUILD_PAGE_PACK, BUILD_STR_DISTRIBUTE,
        BUILD_STR_SLABS, BUILD_STR_X, BUILD_UNIT_STR,
    };
    [
        ("unit STR", BUILD_UNIT_STR),
        ("STR x", BUILD_STR_X),
        ("STR distribute", BUILD_STR_DISTRIBUTE),
        ("STR slabs", BUILD_STR_SLABS),
        ("node STR", BUILD_NODE_STR),
        ("page pack", BUILD_PAGE_PACK),
        ("connectivity", BUILD_CONNECTIVITY),
        ("finalize", BUILD_FINALIZE),
    ]
    .map(|(label, prefix)| {
        let nanos = snapshot
            .histogram(&format!("{prefix}_nanos"))
            .map_or(0, |h| h.sum);
        format!("{label} {:.3}s", nanos as f64 / 1e9)
    })
    .join(" + ")
}

fn parse_approach(name: &str) -> Result<Approach, String> {
    Ok(match name {
        "transformers" => Approach::transformers(),
        "no-tr" => Approach::no_tr(),
        "pbsm" => Approach::Pbsm,
        "rtree" => Approach::Rtree,
        "gipsy" => Approach::Gipsy,
        other => return Err(format!("unknown approach `{other}`")),
    })
}

fn cmd_join(args: &[String]) -> Result<(), String> {
    let args = parse_args("join", args)?;
    let path_a = args.required("--a");
    let path_b = args.required("--b");
    let approach = parse_approach(args.get("--approach").unwrap_or("transformers"))?;
    let page_size: usize = args.value("--page-size")?.unwrap_or(2048);
    let threads = args.count("--threads")?.unwrap_or(1);
    let build_threads = build_threads(&args)?;
    let store = parse_store_opts(&args)?;

    // `--threads N` (N > 1) routes TRANSFORMERS through the parallel
    // execution subsystem (`tfm-exec`); other approaches are sequential.
    let approach = match (approach, threads) {
        (Approach::Transformers(join_cfg), t) => {
            if t > 1 {
                Approach::TransformersParallel(join_cfg, t)
            } else {
                Approach::Transformers(join_cfg)
            }
        }
        (other, t) => {
            if t > 1 {
                eprintln!(
                    "note: --threads only affects the transformers approach; running sequentially"
                );
            }
            other
        }
    };

    let metrics = args.get("--metrics");
    if let Some(path) = metrics {
        start_metrics(path)?;
    }

    let a = io::read_elements(path_a).map_err(|e| format!("reading {path_a}: {e}"))?;
    let b = io::read_elements(path_b).map_err(|e| format!("reading {path_b}: {e}"))?;

    let cfg = RunConfig {
        page_size,
        build_threads,
        backend: store.backend.clone(),
        ..RunConfig::default()
    };
    let (m, pairs) = run_approach(&approach, "cli", &a, &b, &cfg);

    println!("approach:        {}", m.approach);
    if let Some(line) = store.summary() {
        println!("{line}");
    }
    println!("datasets:        |A| = {}, |B| = {}", m.n_a, m.n_b);
    println!("result pairs:    {}", m.results);
    println!(
        "build time:      {:.3}s  ({:.3}s sim I/O + {:.3}s CPU, {} build thread{})",
        m.index_time().as_secs_f64(),
        m.index_sim_io.as_secs_f64(),
        m.index_wall.as_secs_f64(),
        m.build_threads,
        if m.build_threads == 1 { "" } else { "s" }
    );
    // TRANSFORMERS says where its CPU went; the two timed parts are summed
    // over workers, so past one thread they are not shares of the wall.
    let cpu_split = if m.mem_join_wall.is_zero() && m.overhead_wall.is_zero() {
        String::new()
    } else if matches!(approach, Approach::TransformersParallel(..)) {
        format!(
            "; worker-summed: {:.3}s in-memory join, {:.3}s exploration",
            m.mem_join_wall.as_secs_f64(),
            m.overhead_wall.as_secs_f64()
        )
    } else {
        format!(
            " = {:.3}s in-memory join + {:.3}s exploration + {:.3}s page reads + merge",
            m.mem_join_wall.as_secs_f64(),
            m.overhead_wall.as_secs_f64(),
            m.join_wall
                .saturating_sub(m.mem_join_wall + m.overhead_wall)
                .as_secs_f64()
        )
    };
    println!(
        "join time:       {:.3}s  ({:.3}s sim I/O + {:.3}s CPU{cpu_split})",
        m.join_time().as_secs_f64(),
        m.join_sim_io.as_secs_f64(),
        m.join_wall.as_secs_f64()
    );
    if m.windows > 0 {
        println!(
            "windows:         {}, mean {:.1} pivots / {:.1} follower pages, at most {} held, {} forced, {} read through",
            m.windows,
            m.window_pivots as f64 / m.windows as f64,
            m.swept_pages as f64 / m.windows as f64,
            m.window_pages_max,
            m.forced_pages,
            m.read_through_pages
        );
    }
    println!(
        "join I/O:        {} pages ({} random, {} sequential)",
        m.pages_read, m.rand_reads, m.seq_reads
    );
    println!("intersection tests: {}", m.tests);
    if m.transformations > 0 {
        println!("transformations: {}", m.transformations);
    }
    if let Some(path) = metrics {
        println!("{}", finish_metrics(path, &[])?);
    }

    if args.has("--verify") {
        let mut s = JoinStats::default();
        let expected = canonicalize(nested_loop_join(&a, &b, &mut s));
        if canonicalize(pairs) == expected {
            println!(
                "verify:          OK ({} pairs match the nested-loop oracle)",
                expected.len()
            );
        } else {
            return Err("result set does NOT match the nested-loop oracle".into());
        }
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    println!("{}", serve_summary(args)?);
    Ok(())
}

/// Runs `tfm serve` and returns the summary it prints, one line per
/// quantity.
fn serve_summary(args: &[String]) -> Result<String, String> {
    use tfm_bench::{run_serve_sharded, run_serve_traced};
    use tfm_datagen::{generate_trace, ProbeMix, QueryTraceSpec};
    use tfm_serve::{ServeConfig, ShardSpec};
    use transformers::IndexConfig;

    let args = parse_args("serve", args)?;
    let path = args.required("--in");
    let mix = match args.get("--mix").unwrap_or("uniform") {
        "uniform" => ProbeMix::Uniform,
        "clustered" => ProbeMix::Clustered { clusters: 8 },
        "neuro" => ProbeMix::NeuroCorrelated,
        other => return Err(format!("unknown probe mix `{other}`")),
    };
    let queries: usize = args.value("--queries")?.unwrap_or(1000);
    let threads = args.count("--threads")?.unwrap_or(1);
    let batch = args.count("--batch")?.unwrap_or(64);
    let page_size: usize = args.value("--page-size")?.unwrap_or(2048);
    let build_threads = build_threads(&args)?;
    let trace_seed: u64 = args.value("--trace-seed")?.unwrap_or(1);
    let window: f64 = args.value("--window")?.unwrap_or(20.0);
    let eps: f64 = args.value("--eps")?.unwrap_or(5.0);
    let store = parse_store_opts(&args)?;
    // --shards N serves through the sharded scatter-gather cluster: the
    // dataset is split into N self-contained index shards, each with its
    // own cache and worker pool, behind the probe-box router.
    let spec = args.count("--shards")?.map(|shards| ShardSpec {
        shards,
        page_size,
        backend: store.backend.clone(),
    });
    let metrics = args.get("--metrics");

    let elems = io::read_elements(path).map_err(|e| format!("reading {path}: {e}"))?;
    let trace = generate_trace(&QueryTraceSpec {
        max_window_side: window,
        max_eps: eps,
        ..QueryTraceSpec::with_mix(queries, mix, trace_seed)
    });
    let run_cfg = RunConfig {
        page_size,
        build_threads,
        backend: store.backend.clone(),
        ..RunConfig::default()
    };
    let serve_cfg = ServeConfig {
        threads,
        batch,
        // With --metrics the run also collects one per-query trace (queue
        // wait / service split, pool attribution) for the JSON-lines export.
        collect_traces: metrics.is_some(),
        ..ServeConfig::default()
    };

    if let Some(path) = metrics {
        start_metrics(path)?;
    }
    let (m, results, traces) = match &spec {
        Some(spec) => {
            let idx_cfg = IndexConfig::default().with_build_threads(build_threads);
            run_serve_sharded("cli", &elems, &trace, spec, &idx_cfg, &serve_cfg)
        }
        None => run_serve_traced("cli", &elems, &trace, &run_cfg, &serve_cfg),
    };

    let mut lines: Vec<String> = store.summary().into_iter().collect();
    lines.push(format!(
        "dataset:         {path} ({} elements)",
        m.n_elements
    ));
    lines.push(format!(
        "trace:           {} queries ({:?} probes, seed {trace_seed})",
        m.queries, mix
    ));
    let shape = match &spec {
        Some(_) => format!("{} shards x {}", m.shards, m.threads),
        None => m.threads.to_string(),
    };
    lines.push(format!(
        "serving:         {shape} worker{}, batch {} (Hilbert-ordered)",
        if m.threads == 1 { "" } else { "s" },
        m.batch
    ));
    let queued = spec.is_some() || m.threads > 1;
    lines.push(format!(
        "throughput:      {:.0} queries/s  ({:.3}s wall + {:.3}s sim I/O)",
        m.qps,
        m.wall.as_secs_f64(),
        m.sim_io.as_secs_f64()
    ));
    lines.push(format!(
        "latency:         p50 {:.1}us  p95 {:.1}us  p99 {:.1}us{}",
        m.p50.as_secs_f64() * 1e6,
        m.p95.as_secs_f64() * 1e6,
        m.p99.as_secs_f64() * 1e6,
        if spec.is_some() {
            " (critical path)"
        } else {
            ""
        }
    ));
    if queued {
        lines.push(format!(
            "queue wait:      p50 {:.1}us  p99 {:.1}us",
            m.queue_wait_p50.as_secs_f64() * 1e6,
            m.queue_wait_p99.as_secs_f64() * 1e6
        ));
    }
    if spec.is_some() {
        lines.push(format!(
            "routing:         fanout mean {:.2} max {} ({} partials), \
             peak cluster pressure {:.0}%",
            m.fanout_mean,
            m.fanout_max,
            m.routed_partials,
            m.max_cluster_pressure * 100.0
        ));
    }
    lines.push(format!(
        "serve I/O:       {} pages ({} sequential, {} random — {:.1}% sequential), \
         {} pool hits ({:.1}% hit rate)",
        m.pages_read,
        m.seq_reads,
        m.rand_reads,
        m.seq_read_fraction() * 100.0,
        m.pool_hits,
        m.pool_hit_fraction() * 100.0
    ));
    lines.push(format!(
        "cache:           lock contention {}/{}",
        m.lock_contended, m.lock_acquisitions
    ));
    lines.push(format!("result ids:      {}", m.result_ids));
    if let Some(path) = metrics {
        lines.push(finish_metrics(path, &traces)?);
    }

    if args.has("--verify") {
        verify_full_scan(&trace, &results, &elems)?;
        lines.push(format!(
            "verify:          OK (all {} queries match the full scan)",
            m.queries
        ));
    }
    Ok(lines.join("\n"))
}

fn cmd_mutate(args: &[String]) -> Result<(), String> {
    println!("{}", mutate_summary(args)?);
    Ok(())
}

/// Runs `tfm mutate` and returns the summary it prints, one line per
/// quantity.
fn mutate_summary(args: &[String]) -> Result<String, String> {
    use tfm_datagen::{generate_mixed_trace, MixedOp, MixedTraceSpec};
    use tfm_serve::{serve_trace, MutableTransformersEngine, ServeConfig};
    use tfm_storage::{NoopLog, RedoLog, SharedPageCache};
    use transformers::{
        IndexConfig, MutableTransformers, MutationOp, TransformersIndex, CHECKPOINT_LOG_BYTES,
    };

    let args = parse_args("mutate", args)?;
    let path = args.required("--in");
    let ops: usize = args.value("--ops")?.unwrap_or(1000);
    let write_permille: u32 = args.value("--write-permille")?.unwrap_or(200);
    let insert_permille: u32 = args.value("--insert-permille")?.unwrap_or(700);
    for (name, v) in [
        ("--write-permille", write_permille),
        ("--insert-permille", insert_permille),
    ] {
        if v > 1000 {
            return Err(format!("{name} is a permille value (0..=1000), got {v}"));
        }
    }
    let threads = args.count("--threads")?.unwrap_or(1);
    let batch = args.count("--batch")?.unwrap_or(64);
    let seed: u64 = args.value("--seed")?.unwrap_or(1);
    let page_size: usize = args.value("--page-size")?.unwrap_or(2048);
    let build_threads = build_threads(&args)?;

    let elems = io::read_elements(path).map_err(|e| format!("reading {path}: {e}"))?;
    let live_ids: Vec<u64> = elems.iter().map(|e| e.id).collect();
    let trace = generate_mixed_trace(
        &MixedTraceSpec {
            ops,
            write_permille,
            insert_permille,
            ..MixedTraceSpec::uniform(ops, write_permille, seed)
        },
        &live_ids,
    );

    let disk = tfm_storage::Disk::in_memory(page_size);
    let cfg = IndexConfig::default().with_build_threads(build_threads);
    let idx = TransformersIndex::try_build(&disk, elems.clone(), &cfg)?;
    let overlay = MutableTransformers::adopt(&idx, &disk);
    let cache = SharedPageCache::new(&disk, tfm_storage::DEFAULT_POOL_PAGES);

    // The redo log: a real segmented WAL under --wal-dir, or the no-op
    // log (instantly "durable", nothing written) without one.
    let wal = match args.get("--wal-dir") {
        Some(dir) => Some(
            tfm_wal::Wal::open(dir, tfm_wal::WalOptions::default())
                .map_err(|e| format!("opening WAL in {dir}: {e}"))?,
        ),
        None => None,
    };
    let noop = NoopLog::new();
    let log: &dyn RedoLog = match &wal {
        Some(w) => w,
        None => &noop,
    };

    // Replay in arrival-order chunks: each chunk's writes apply as one
    // WAL transaction, then its probes are served on the worker pool.
    let engine = MutableTransformersEngine::new(&overlay, &cache);
    let serve_cfg = ServeConfig {
        threads,
        batch,
        ..ServeConfig::default()
    };
    let t = std::time::Instant::now();
    let mut inserted = 0u64;
    let mut deleted = 0u64;
    let mut batches = 0u64;
    let mut write_ops = 0u64;
    let mut write_backs = 0u64;
    let mut write_back_pages = 0u64;
    let mut checkpoints = 0u64;
    let mut checkpoint_pages = 0u64;
    let mut checkpointed_at = 0u64;
    let checkpoint = || {
        overlay
            .checkpoint(log, &cache)
            .map_err(|e| format!("checkpoint: {e}"))
    };
    let mut overlay_pages = 0u64;
    let mut overlay_pages_max = 0usize;
    let mut queries = 0u64;
    let mut result_ids = 0u64;
    for chunk in trace.chunks(batch) {
        let writes: Vec<MutationOp> = chunk
            .iter()
            .filter_map(|op| match op {
                MixedOp::Insert(e) => Some(MutationOp::Insert(*e)),
                MixedOp::Delete(id) => Some(MutationOp::Delete(*id)),
                MixedOp::Query(_) => None,
            })
            .collect();
        if !writes.is_empty() {
            let out = overlay.apply_batch(log, &cache, &writes);
            if out.rejected_inserts + out.missing_deletes > 0 {
                return Err(format!(
                    "generated trace must replay cleanly: {} rejected inserts, {} missing deletes",
                    out.rejected_inserts, out.missing_deletes
                ));
            }
            inserted += out.inserted;
            deleted += out.deleted;
            batches += 1;
            write_ops += writes.len() as u64;
            write_backs += u64::from(out.flushed_pages > 0);
            write_back_pages += out.flushed_pages as u64;
            overlay_pages += out.overlay_pages_written as u64;
            overlay_pages_max = overlay_pages_max.max(out.overlay_pages_written);
            // A fixed interval in log bytes, not in time: a run's counts
            // depend on its arguments alone.
            let logged = wal.as_ref().map_or(0, |w| w.appended_bytes());
            if logged - checkpointed_at >= CHECKPOINT_LOG_BYTES {
                checkpoint_pages += checkpoint()? as u64;
                checkpoints += 1;
                checkpointed_at = logged;
            }
        }
        let probes = tfm_datagen::queries_of(chunk);
        if !probes.is_empty() {
            let out = serve_trace(&engine, &probes, &serve_cfg);
            queries += out.stats.queries;
            result_ids += out.stats.result_ids;
        }
    }
    // The dirty pages and the overlay chain pages the last batches left
    // are part of what the run wrote: write them, so that `write amp:`
    // counts the tail.
    checkpoint_pages += checkpoint()? as u64;
    checkpoints += 1;
    let wall = t.elapsed();

    let mut lines = Vec::new();
    lines.push(format!(
        "dataset:         {path} ({} elements)",
        elems.len()
    ));
    lines.push(format!(
        "trace:           {ops} ops (seed {seed}, {write_permille}permille writes, \
         {insert_permille}permille of writes insert)"
    ));
    lines.push(format!(
        "mutations:       {inserted} inserts + {deleted} deletes in {batches} batches \
         (chunk {batch})"
    ));
    lines.push(format!(
        "index:           {} -> {} elements",
        elems.len(),
        overlay.len()
    ));
    lines.push(format!(
        "reads:           {queries} probes on {threads} worker{}, {result_ids} result ids",
        if threads == 1 { "" } else { "s" }
    ));
    lines.push(format!(
        "replay time:     {:.3}s  ({:.0} ops/s)",
        wall.as_secs_f64(),
        ops as f64 / wall.as_secs_f64().max(1e-9)
    ));
    if let Some(w) = &wal {
        let s = w.stats();
        lines.push(format!(
            "wal:             {} records, {} bytes, {} commits, {} fsyncs, {} segment{} in {}",
            s.records,
            s.bytes,
            s.commits,
            s.fsyncs,
            s.segments,
            if s.segments == 1 { "" } else { "s" },
            w.dir().display()
        ));
        lines.push(format!(
            "log:             {} full images + {} deltas (mean {:.0} bytes)",
            s.full_records,
            s.delta_records,
            s.delta_bytes as f64 / s.delta_records.max(1) as f64
        ));
    } else {
        lines.push("wal:             off (no --wal-dir; mutations unlogged)".into());
    }
    lines.push(format!(
        "flushed:         {write_back_pages} pages in {write_backs} write-backs + \
         {checkpoint_pages} at {checkpoints} checkpoints, {page_size} bytes each"
    ));
    lines.push(format!(
        "overlay:         {overlay_pages} pages logged, at most {overlay_pages_max} of the \
         chain's {} in one batch",
        overlay.overlay_chain_pages()
    ));
    // As `benchmark/README.md` defines `write_amp`: every byte the write
    // path put on stable storage over the bytes the writes carried (one
    // element record per write op).
    let record = tfm_storage::ELEMENT_RECORD_BYTES as u64;
    let wal_bytes = wal.as_ref().map_or(0, |w| w.stats().bytes);
    let flushed_pages = write_back_pages + checkpoint_pages;
    let written = wal_bytes + flushed_pages * page_size as u64;
    lines.push(format!(
        "write amp:       {:.1}x  (({wal_bytes} WAL bytes + {flushed_pages} flushed pages x \
         {page_size} B) / ({write_ops} write ops x {record} B))",
        written as f64 / (write_ops.max(1) * record) as f64
    ));

    if args.has("--verify") {
        // Replay the trace over a plain map to get the mutated dataset,
        // then hold every probe of the trace to the full-scan oracle.
        let mut live: std::collections::BTreeMap<u64, tfm_geom::SpatialElement> =
            elems.iter().map(|e| (e.id, *e)).collect();
        for op in &trace {
            match op {
                MixedOp::Insert(e) => {
                    live.insert(e.id, *e);
                }
                MixedOp::Delete(id) => {
                    live.remove(id);
                }
                MixedOp::Query(_) => {}
            }
        }
        let probes = tfm_datagen::queries_of(&trace);
        let out = serve_trace(&engine, &probes, &serve_cfg);
        let live: Vec<_> = live.into_values().collect();
        verify_full_scan(&probes, &out.results, &live)?;
        lines.push(format!(
            "verify:          OK (all {} probes match the mutated full scan)",
            probes.len()
        ));
    }
    Ok(lines.join("\n"))
}

/// The `--verify` oracle of `tfm serve` and `tfm mutate`: each probe's
/// result ids must equal a full scan of `elems`.
fn verify_full_scan(
    probes: &[tfm_geom::SpatialQuery],
    results: &[Vec<u64>],
    elems: &[tfm_geom::SpatialElement],
) -> Result<(), String> {
    for (i, q) in probes.iter().enumerate() {
        let mut expected: Vec<u64> = elems
            .iter()
            .filter(|e| q.matches(&e.mbb))
            .map(|e| e.id)
            .collect();
        expected.sort_unstable();
        if results[i] != expected {
            return Err(format!("probe {i} diverges from the full scan"));
        }
    }
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let args = parse_args("info", args)?;
    let path = args.required("--in");
    let elems = io::read_elements(path).map_err(|e| format!("reading {path}: {e}"))?;
    println!("file:      {path}");
    println!("elements:  {}", elems.len());
    if elems.is_empty() {
        return Ok(());
    }
    let extent = tfm_geom::Aabb::union_all(elems.iter().map(|e| e.mbb));
    println!(
        "extent:    [{:.1}, {:.1}, {:.1}] .. [{:.1}, {:.1}, {:.1}]",
        extent.min.x, extent.min.y, extent.min.z, extent.max.x, extent.max.y, extent.max.z
    );
    let mean_side: f64 = elems
        .iter()
        .map(|e| (e.mbb.extent(0) + e.mbb.extent(1) + e.mbb.extent(2)) / 3.0)
        .sum::<f64>()
        / elems.len() as f64;
    println!("mean side: {mean_side:.3}");
    // Density sketch: elements per z-slab (10 slabs).
    let mut hist = [0usize; 10];
    for e in &elems {
        let t = ((e.mbb.center().z - extent.min.z) / extent.extent(2).max(1e-12)).clamp(0.0, 1.0);
        hist[((t * 10.0) as usize).min(9)] += 1;
    }
    let max = hist.iter().copied().max().unwrap_or(1).max(1);
    println!("z-distribution:");
    for (i, c) in hist.iter().enumerate() {
        println!("  slab {i}: {:>8} {}", c, "#".repeat(c * 40 / max));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// A path under the temporary directory, unique to this process; what
    /// is there (file or directory) is removed on creation and on drop.
    struct Temp(std::path::PathBuf);

    impl Temp {
        fn new(name: &str) -> Temp {
            let pid = std::process::id();
            let temp = Temp(std::env::temp_dir().join(format!("tfm_cli_{pid}_{name}")));
            temp.clear();
            temp
        }

        /// A dataset `tfm generate` writes with `flags`.
        fn dataset(name: &str, flags: &[&str]) -> Temp {
            let temp = Temp::new(name);
            cmd_generate(&sv(&[&["--out", temp.s()][..], flags].concat())).unwrap();
            temp
        }

        fn s(&self) -> &str {
            self.0.to_str().unwrap()
        }

        fn clear(&self) {
            std::fs::remove_file(&self.0).ok();
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    impl Drop for Temp {
        fn drop(&mut self) {
            self.clear();
        }
    }

    #[test]
    fn approach_names() {
        for name in ["transformers", "no-tr", "pbsm", "rtree", "gipsy"] {
            assert!(parse_approach(name).is_ok(), "{name}");
        }
        assert!(parse_approach("bogus").is_err());
        // The retired related-work baselines are unknown names now.
        for name in ["sssj", "s3"] {
            assert!(parse_approach(name).is_err(), "{name}");
            assert_eq!(
                parse_approach(name).unwrap_err(),
                format!("unknown approach `{name}`")
            );
        }
    }

    #[test]
    fn zero_threads_is_rejected() {
        // `--threads 0` must fail fast with a clear message, before any
        // file I/O or scheduler construction happens.
        let args = sv(&[
            "--a",
            "nonexistent.a",
            "--b",
            "nonexistent.b",
            "--threads",
            "0",
        ]);
        let err = cmd_join(&args).expect_err("--threads 0 must be rejected");
        assert!(
            err.contains("--threads must be at least 1"),
            "unhelpful error: {err}"
        );
    }

    #[test]
    fn zero_build_threads_is_rejected() {
        let args = sv(&["--a", "x.a", "--b", "x.b", "--build-threads", "0"]);
        let err = cmd_join(&args).expect_err("--build-threads 0 must be rejected");
        assert!(err.contains("--build-threads must be at least 1"), "{err}");
        let args = sv(&["--in", "x.elems", "--build-threads", "0"]);
        let err = cmd_build(&args).expect_err("--build-threads 0 must be rejected");
        assert!(err.contains("--build-threads must be at least 1"), "{err}");
    }

    #[test]
    fn build_command_end_to_end() {
        let path = Temp::dataset("build.elems", &["--count", "500", "--seed", "7"]);
        for threads in ["1", "4"] {
            let build_args = sv(&[
                "--in",
                path.s(),
                "--build-threads",
                threads,
                "--unit-capacity",
                "16",
                "--node-capacity",
                "8",
            ]);
            cmd_build(&build_args).unwrap_or_else(|e| panic!("threads {threads}: {e}"));
        }
        // Invalid capacities surface the validation error, not a panic.
        let bad_args = sv(&["--in", path.s(), "--unit-capacity", "0"]);
        let err = cmd_build(&bad_args).expect_err("unit capacity 0 must fail");
        assert!(err.contains("unit_capacity"), "{err}");
    }

    #[test]
    fn parallel_flags_join_end_to_end() {
        let gen = |name, seed| {
            Temp::dataset(name, &["--count", "400", "--seed", seed, "--max-side", "8"])
        };
        let (pa, pb) = (gen("par_a.elems", "31"), gen("par_b.elems", "32"));
        // The adaptive parallel join and its "No TR" ablation must both
        // verify against the nested-loop oracle.
        for extra in [&[][..], &["--approach", "no-tr"][..]] {
            let base = [
                "--a",
                pa.s(),
                "--b",
                pb.s(),
                "--threads",
                "2",
                "--build-threads",
                "2",
                "--verify",
            ];
            let join_args = sv(&[&base[..], extra].concat());
            cmd_join(&join_args).unwrap_or_else(|e| panic!("{extra:?}: {e}"));
        }
    }

    #[test]
    fn serve_command_end_to_end() {
        let flags = ["--count", "800", "--seed", "21", "--max-side", "6"];
        let path = Temp::dataset("serve.elems", &flags);
        // The generated trace verifies against the full-scan oracle on 2
        // workers.
        let serve_args = sv(&[
            "--in",
            path.s(),
            "--queries",
            "60",
            "--threads",
            "2",
            "--batch",
            "16",
            "--verify",
        ]);
        cmd_serve(&serve_args).unwrap();
        // A bad flag fails fast with a clear message.
        let bad = sv(&["--in", path.s(), "--threads", "0"]);
        assert!(cmd_serve(&bad).unwrap_err().contains("--threads"));
    }

    #[test]
    fn sharded_serve_command_end_to_end() {
        let flags = ["--count", "700", "--seed", "61", "--max-side", "6"];
        let path = Temp::dataset("shard.elems", &flags);
        // Sharded serving verifies against the full-scan oracle for a few
        // cluster shapes.
        for (shards, threads) in [("1", "1"), ("3", "2"), ("4", "1")] {
            let serve_args = sv(&[
                "--in",
                path.s(),
                "--queries",
                "60",
                "--batch",
                "16",
                "--shards",
                shards,
                "--threads",
                threads,
                "--verify",
            ]);
            cmd_serve(&serve_args).unwrap_or_else(|e| panic!("shards={shards}: {e}"));
        }
        // A bad shard count fails fast.
        let bad = sv(&["--in", path.s(), "--shards", "0"]);
        assert!(cmd_serve(&bad).unwrap_err().contains("--shards"));
    }

    #[test]
    fn mutate_command_end_to_end() {
        let flags = ["--count", "600", "--seed", "51", "--max-side", "6"];
        let path = Temp::dataset("mutate.elems", &flags);
        let wal_dir = Temp::new("mutate_wal");

        // Logged and unlogged replays, single- and multi-worker reads,
        // all verified against the mutated full-scan oracle.
        for extra in [
            &[][..],
            // 512-byte pages: a 600-element overlay spans a chain of pages.
            &["--threads", "2", "--page-size", "512", "--wal-dir"][..], // dir appended below
        ] {
            let base = [
                "--in",
                path.s(),
                "--ops",
                "400",
                "--write-permille",
                "400",
                "--batch",
                "32",
                "--verify",
            ];
            let mut mutate_args = sv(&[&base[..], extra].concat());
            if extra.contains(&"--wal-dir") {
                mutate_args.push(wal_dir.s().to_string());
            }
            let summary = mutate_summary(&mutate_args).unwrap_or_else(|e| panic!("{extra:?}: {e}"));
            let numbers_of = |label: &str| -> Vec<f64> {
                let line = summary
                    .lines()
                    .find(|l| l.starts_with(label))
                    .unwrap_or_else(|| panic!("no `{label}` line in:\n{summary}"));
                line.split(|c: char| !c.is_ascii_digit() && c != '.')
                    .filter_map(|t| t.parse().ok())
                    .collect()
            };
            // write amp = (WAL bytes + flushed pages x page size) /
            // (write ops x 56 B), from the numbers the line itself shows.
            let [amp, wal_bytes, flushed, page_size, write_ops, record] =
                numbers_of("write amp:")[..]
            else {
                panic!("malformed write amp line in:\n{summary}")
            };
            let expected = (wal_bytes + flushed * page_size) / (write_ops * record);
            assert!((amp - expected).abs() <= 0.05, "{amp} vs {expected}");
            assert_eq!(record, 56.0);
            // The flushed pages are the write-backs' plus the checkpoints',
            // the run's last checkpoint among them: the tail is counted.
            let [write_back_pages, write_backs, checkpoint_pages, checkpoints, flushed_page_size] =
                numbers_of("flushed:")[..]
            else {
                panic!("malformed flushed line in:\n{summary}")
            };
            assert_eq!(write_back_pages + checkpoint_pages, flushed, "{summary}");
            assert_eq!(flushed_page_size, page_size);
            assert!(checkpoints >= 1.0 && checkpoint_pages > 0.0, "{summary}");
            assert_eq!(write_backs == 0.0, write_back_pages == 0.0, "{summary}");
            let [written, max_per_batch, chain] = numbers_of("overlay:")[..] else {
                panic!("malformed overlay line in:\n{summary}")
            };
            assert!(written > 0.0 && max_per_batch <= chain, "{summary}");
            let logged = extra.contains(&"--wal-dir");
            assert_eq!(wal_bytes > 0.0, logged);
            if logged {
                // Change-only overlay: no batch rewrote the whole chain.
                assert!(chain > 10.0 && max_per_batch < chain, "{summary}");
                // Every page record is a full image or a delta, and on
                // this fixture most are deltas.
                let [full, deltas, mean_delta] = numbers_of("log:")[..] else {
                    panic!("malformed log line in:\n{summary}")
                };
                let [records, _, commits, ..] = numbers_of("wal:")[..] else {
                    panic!("malformed wal line in:\n{summary}")
                };
                assert_eq!(full + deltas + commits, records, "{summary}");
                assert!(deltas > full && mean_delta < page_size, "{summary}");
                // Full-page records flushed after every commit put 50.9x
                // on this fixture (277 622 log bytes + 376 page writes for
                // 165 write ops); the tail included, it is under half that.
                assert!(amp < 50.9 / 2.0, "{summary}");
            }
        }
        // The logged run left real segment files behind.
        let segments = std::fs::read_dir(&wal_dir.0)
            .expect("wal dir exists")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
            .count();
        assert!(segments > 0, "no WAL segments written");

        // Bad flags fail fast.
        let bad = sv(&["--in", path.s(), "--write-permille", "1500"]);
        assert!(cmd_mutate(&bad).unwrap_err().contains("permille"));
        let bad = sv(&["--in", path.s(), "--batch", "0"]);
        assert!(cmd_mutate(&bad).unwrap_err().contains("--batch"));
        let bad = sv(&["--in", path.s(), "--threads", "0"]);
        assert!(cmd_mutate(&bad).unwrap_err().contains("--threads"));
    }

    #[test]
    fn metrics_export_end_to_end() {
        let flags = ["--count", "600", "--seed", "41", "--max-side", "6"];
        let path = Temp::dataset("metrics.elems", &flags);
        let jsonl = Temp::new("metrics.jsonl");

        // The serve export must parse and carry cache, queue-wait,
        // latency-histogram and per-stage build metrics.
        let serve_args = sv(&[
            "--in",
            path.s(),
            "--queries",
            "80",
            "--threads",
            "2",
            "--batch",
            "16",
            "--metrics",
            jsonl.s(),
        ]);
        cmd_serve(&serve_args).unwrap();
        let text = std::fs::read_to_string(&jsonl.0).unwrap();
        let snap = tfm_obs::MetricsSnapshot::parse_jsonl(&text).unwrap();
        for name in [
            tfm_obs::names::CACHE_HITS,
            tfm_obs::names::SERVE_QUERIES,
            tfm_obs::names::CACHE_LOCK_ACQUISITIONS,
        ] {
            assert!(snap.counter(name).is_some(), "missing counter {name}");
        }
        let build_stage = format!("{}_nanos", tfm_obs::names::BUILD_UNIT_STR);
        for name in [
            tfm_obs::names::SERVE_SERVICE_NANOS,
            tfm_obs::names::SERVE_QUEUE_WAIT_NANOS,
            build_stage.as_str(),
        ] {
            assert!(snap.histogram(name).is_some(), "missing histogram {name}");
        }
        // Per-query trace lines ride along in the same file.
        assert!(
            text.lines().any(|l| l.contains("\"trace_id\"")),
            "no trace lines in export"
        );

        // One serve path: the cluster takes --metrics and --build-threads
        // like a single engine does, prints the lines a
        // single engine prints plus the routing line, and exports one
        // trace record per query. (Here, not with the other sharded runs:
        // this is the one test that may arm the process-wide registry.)
        let metrics = Temp::new("shard.jsonl");
        let base = [
            "--in",
            path.s(),
            "--queries",
            "60",
            "--batch",
            "2",
            "--shards",
            "2",
            "--build-threads",
            "2",
            "--verify",
        ];
        let fixed = serve_summary(&sv(&base)).unwrap();
        let extra = ["--metrics", metrics.s()];
        let metered = serve_summary(&sv(&[&base[..], &extra[..]].concat())).unwrap();
        let line = |summary: &str, label: &str| {
            summary
                .lines()
                .find(|l| l.starts_with(label))
                .unwrap_or_else(|| panic!("no `{label}` line in:\n{summary}"))
                .to_string()
        };
        for label in [
            "throughput:",
            "queue wait:",
            "routing:",
            "serve I/O:",
            "cache:",
            "verify:          OK",
        ] {
            line(&fixed, label);
            line(&metered, label);
        }
        assert!(line(&metered, "throughput:").contains("sim I/O"));
        assert!(line(&metered, "serve I/O:").contains("sequential"));
        // Both runs passed --verify against the full scan, so they agree
        // with each other; the result-id totals say so too.
        assert_eq!(line(&metered, "result ids:"), line(&fixed, "result ids:"));
        assert!(line(&metered, "metrics:").contains("+ 60 query traces"));
        let exported = std::fs::read_to_string(&metrics.0).unwrap();
        let traces = exported
            .lines()
            .filter(|l| l.contains("\"trace_id\""))
            .count();
        assert_eq!(traces, 60, "one trace record per query");
        assert!(exported.contains("serve.queries") && exported.contains("shard.routed"));

        // The join export replaces the serve run's file and parses back.
        let join_args = sv(&[
            "--a",
            path.s(),
            "--b",
            path.s(),
            "--threads",
            "2",
            "--metrics",
            jsonl.s(),
        ]);
        cmd_join(&join_args).unwrap();
        let text = std::fs::read_to_string(&jsonl.0).unwrap();
        let snap = tfm_obs::MetricsSnapshot::parse_jsonl(&text).unwrap();
        assert!(snap.counter(tfm_obs::names::CACHE_HITS).is_some(), "{text}");
        assert!(
            snap.histogram(tfm_obs::names::JOIN_WALL_NANOS).is_some(),
            "{text}"
        );
        assert!(
            !text.contains("\"trace_id\""),
            "the serve run's traces remain"
        );
    }

    #[test]
    fn io_backend_flags_are_validated() {
        // The page-image directory is an orphan on the default mem backend.
        let serve_args = sv(&["--in", "x.elems", "--store", "/tmp/x"]);
        let err = cmd_serve(&serve_args).expect_err("mem-backend orphan must be rejected");
        assert!(err.contains("requires --backend file"), "{err}");
        let join_args = sv(&["--a", "x.a", "--b", "x.b", "--store", "/tmp/x"]);
        let err = cmd_join(&join_args).expect_err("mem-backend orphan must be rejected");
        assert!(err.contains("requires --backend file"), "{err}");

        // Every page is read by the query or join worker that needs it:
        // no command takes prefetch knobs, on any backend.
        for (flag, value) in [("--io-depth", "2"), ("--readahead", "8")] {
            for backend in ["mem", "file"] {
                let join_args = sv(&[
                    "--a",
                    "x.a",
                    "--b",
                    "x.b",
                    "--backend",
                    backend,
                    flag,
                    value,
                ]);
                let err = cmd_join(&join_args).expect_err("join must reject prefetch knobs");
                assert!(err.contains(&format!("`{flag}` for `tfm join`")), "{err}");
                let serve_args = sv(&["--in", "x.elems", "--backend", backend, flag, value]);
                let err = cmd_serve(&serve_args).expect_err("serve must reject prefetch knobs");
                assert!(err.contains(&format!("`{flag}` for `tfm serve`")), "{err}");
            }
        }

        // Unknown backend names fail with the candidate list.
        let err = cmd_serve(&sv(&["--in", "x.elems", "--backend", "nvme"])).unwrap_err();
        assert!(err.contains("unknown backend"), "{err}");

        // `tfm build` writes the image and takes no prefetch knobs either.
        let err = cmd_build(&sv(&[
            "--in",
            "x.elems",
            "--backend",
            "file",
            "--io-depth",
            "2",
        ]))
        .expect_err("build must reject prefetch knobs");
        assert!(err.contains("`--io-depth` for `tfm build`"), "{err}");
    }

    #[test]
    fn readme_flag_table_matches_the_synopses() {
        // README's "CLI flags" table has one row per flag:
        // | `--flag …` | command, command | meaning |
        let readme = include_str!("../../../README.md");
        let table = &readme[readme.find("## CLI flags").expect("a CLI flags section")..];
        let rows = table.lines().skip(4).take_while(|l| l.starts_with("| `--"));
        let mut documented = std::collections::BTreeSet::new();
        for row in rows {
            let cells: Vec<&str> = row.split(" | ").collect();
            let flag = cells[0][3..].split([' ', '`']).next().unwrap().to_string();
            for command in cells[1].split(", ") {
                assert!(documented.insert((command, flag.clone())), "{row}");
            }
        }
        let mut declared = std::collections::BTreeSet::new();
        for command in ["generate", "build", "join", "serve", "mutate", "info"] {
            let synopsis = synopsis(command);
            for flag in synopsis.split([' ', '[', ']', '\n']) {
                if flag.starts_with("--") {
                    declared.insert((command, flag.to_string()));
                }
            }
        }
        assert_eq!(documented, declared);
    }

    #[test]
    fn unknown_flags_are_rejected_before_any_file_is_read() {
        // None of the named files exists: an error that names the flag
        // (not the file) proves the check ran first.
        let commands: [(&str, Command, &[&str]); 6] = [
            (
                "generate",
                cmd_generate,
                &["--count", "5", "--out", "/nonexistent/x"],
            ),
            ("build", cmd_build, &["--in", "missing.elems"]),
            ("join", cmd_join, &["--a", "missing.a", "--b", "missing.b"]),
            ("serve", cmd_serve, &["--in", "missing.elems"]),
            ("mutate", cmd_mutate, &["--in", "missing.elems"]),
            ("info", cmd_info, &["--in", "missing.elems"]),
        ];
        for (command, cmd, base) in commands {
            let mut args = sv(base);
            args.push("--bogus".into());
            let err = cmd(&args).expect_err("unknown flag must be rejected");
            let usage = synopsis(command)
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(" ");
            assert_eq!(
                err,
                format!(
                    "unknown option `--bogus` for `tfm {command}` (usage: {usage}); try `tfm help`"
                )
            );
        }
        // The retired serve selections and metrics exports are unknown
        // options too, even beside the flags they used to need.
        let serve = [
            "--in",
            "missing.elems",
            "--shards",
            "2",
            "--metrics",
            "/nonexistent/m",
        ];
        let join = [
            "--a",
            "missing.a",
            "--b",
            "missing.b",
            "--metrics",
            "/nonexistent/m",
        ];
        let exports = ["--metrics-format prometheus", "--metrics-interval-ms 5"];
        let selections = [
            "--no-hilbert",
            "--shed",
            "--shard-partitioner str",
            "--engine rtree",
        ];
        for (command, cmd, base, retired) in [
            (
                "serve",
                cmd_serve as Command,
                &serve,
                [&selections[..], &exports].concat(),
            ),
            ("join", cmd_join, &join, exports.to_vec()),
        ] {
            for extra in retired {
                let args: Vec<&str> = base.iter().copied().chain(extra.split(' ')).collect();
                let err = cmd(&sv(&args)).expect_err("a retired flag must be rejected");
                let flag = extra.split(' ').next().unwrap();
                let unknown = format!("unknown option `{flag}` for `tfm {command}`");
                assert!(err.starts_with(&unknown), "{err}");
            }
        }
        // A near-miss of a real flag is not that flag.
        let err = cmd_join(&sv(&[
            "--a",
            "missing.a",
            "--b",
            "missing.b",
            "--thread",
            "4",
        ]))
        .expect_err("--thread is not --threads");
        assert!(err.contains("`--thread` for `tfm join`"), "{err}");
    }

    #[test]
    fn a_flag_missing_its_value_writes_no_file() {
        let out = Temp::new("no_value.elems");
        let args = sv(&["--count", "50", "--out", "--seed", "3"]);
        let err = cmd_generate(&args).expect_err("--out has no value");
        assert!(
            err.contains("option `--out` for `tfm generate` needs a value"),
            "{err}"
        );
        assert!(!std::path::Path::new("--seed").exists() && !out.0.exists());
        // A missing required flag shows the command's synopsis.
        let err = cmd_join(&sv(&["--b", "x.b"])).unwrap_err();
        assert!(
            err.contains("missing required option `--a` for `tfm join`"),
            "{err}"
        );
        assert!(
            err.contains("(usage: tfm join --a FILE --b FILE [--approach A]"),
            "{err}"
        );
    }

    #[test]
    fn file_backend_commands_end_to_end() {
        let flags = ["--count", "600", "--seed", "91", "--max-side", "6"];
        let elems = Temp::dataset("io.elems", &flags);
        let store = Temp::new("io_store");
        let store_s = store.s();

        // Build writes a real page image and reports it.
        cmd_build(&sv(&[
            "--in",
            elems.s(),
            "--backend",
            "file",
            "--store",
            store_s,
        ]))
        .unwrap();
        let image = store.0.join("build.pages");
        assert!(image.exists(), "build must write {}", image.display());
        assert!(image.metadata().unwrap().len() > 0, "empty page image");

        // Serve the file image demand-paged; results verify against the
        // full-scan oracle.
        cmd_serve(&sv(&[
            "--in",
            elems.s(),
            "--backend",
            "file",
            "--store",
            store_s,
            "--threads",
            "2",
            "--queries",
            "60",
            "--batch",
            "16",
            "--verify",
        ]))
        .unwrap();
        assert!(store.0.join("serve.pages").exists(), "serve page image");

        // Sharded cluster: one page image per shard.
        cmd_serve(&sv(&[
            "--in",
            elems.s(),
            "--backend",
            "file",
            "--store",
            store_s,
            "--shards",
            "2",
            "--threads",
            "2",
            "--queries",
            "60",
            "--batch",
            "16",
            "--verify",
        ]))
        .unwrap();
        for shard in 0..2 {
            assert!(
                store.0.join(format!("shard{shard}.pages")).exists(),
                "shard{shard} page image"
            );
        }

        // Parallel join over file-backed indexes verifies against the
        // nested-loop oracle.
        cmd_join(&sv(&[
            "--a",
            elems.s(),
            "--b",
            elems.s(),
            "--backend",
            "file",
            "--store",
            store_s,
            "--threads",
            "2",
            "--verify",
        ]))
        .unwrap();
        assert!(store.0.join("tfm_a.pages").exists(), "join page image");
    }

    #[test]
    fn generate_and_join_end_to_end() {
        let gen = |name, seed| {
            Temp::dataset(name, &["--count", "300", "--seed", seed, "--max-side", "8"])
        };
        let (pa, pb) = (gen("a.elems", "1"), gen("b.elems", "2"));
        let join_args = sv(&[
            "--a",
            pa.s(),
            "--b",
            pb.s(),
            "--approach",
            "transformers",
            "--verify",
        ]);
        cmd_join(&join_args).unwrap();
        cmd_info(&sv(&["--in", pa.s()])).unwrap();
    }
}
