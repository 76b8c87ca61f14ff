//! `tfm` — command-line front end for the TRANSFORMERS reproduction.
//!
//! ```text
//! tfm generate --count 100000 --distribution uniform --seed 1 --out a.elems
//! tfm generate --count 100000 --distribution dense-cluster --seed 2 --out b.elems
//! tfm join --a a.elems --b b.elems --approach transformers
//! tfm join --a a.elems --b b.elems --approach pbsm --verify
//! tfm info --in a.elems
//! ```

mod io;

use std::process::ExitCode;
use tfm_bench::{run_approach, Approach, RunConfig};
use tfm_datagen::{generate, neuro, DatasetSpec, Distribution};
use tfm_memjoin::{canonicalize, nested_loop_join, JoinStats};
use tfm_storage::StoreBackend;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("build") => cmd_build(&args[1..]),
        Some("join") => cmd_join(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("mutate") => cmd_mutate(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`; try `tfm help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// What `tfm help` prints. Each subcommand's block (from its `  tfm NAME`
/// line to the next) names exactly the flags in that subcommand's
/// [`COMMAND_FLAGS`] entry; a test holds the two equal.
const USAGE: &str = "tfm — TRANSFORMERS robust spatial joins (ICDE 2016 reproduction)

USAGE:
  tfm generate --count N --out FILE [--distribution D] [--seed S] [--max-side F]
      D: uniform | dense-cluster | uniform-cluster | massive-cluster | axons | dendrites
  tfm build --in FILE [--page-size N] [--build-threads N]
            [--unit-capacity N] [--node-capacity N]
            [--backend mem|file] [--store DIR]
      builds the TRANSFORMERS index once through the staged pipeline and
      reports hierarchy size, pages, build time and its split over the
      five build stages; the index is byte-identical at any
      --build-threads setting. With --backend file
      the pages are written to a real on-disk image DIR/build.pages
  tfm join --a FILE --b FILE [--approach A] [--page-size N] [--threads N]
           [--build-threads N] [--no-transform] [--no-prune]
           [--backend mem|file] [--store DIR] [--io-depth N] [--readahead N]
           [--verify] [--skew-file PATH]
           [--metrics PATH] [--metrics-format jsonl|prometheus]
           [--metrics-interval-ms N]
      A: transformers | no-tr | pbsm | rtree | gipsy | sssj | s3 (default: transformers)
      --threads N: run the transformers join on N parallel workers (tfm-exec)
      --build-threads N: build the indexes on N parallel workers
                  (transformers, gipsy and rtree builds; default 1)
      --no-transform: parallel path only — workers skip role transformations
      --no-prune: parallel path only — disable the shared cross-worker
                  to-do-list pruning board (workers prune only locally)
      --skew-file PATH: persist each workload's observed steal fraction in a
                  JSON sidecar and feed it back as the scheduler's recorded
                  skew signal on the next run (parallel path only)
      --io-depth N / --readahead N: on the file backend the parallel
                  transformers path prefetches each chunk's unit-page
                  schedule through N dedicated I/O threads, keeping up to
                  --readahead pages in flight (results stay byte-identical)
  tfm serve --in FILE [--engine E] [--queries N] [--threads N] [--batch N]
            [--no-hilbert] [--mix M] [--page-size N]
            [--build-threads N] [--trace-seed S] [--window F] [--eps F]
            [--shards N] [--shard-partitioner hilbert|str] [--shed]
            [--backend mem|file] [--store DIR] [--io-depth N] [--readahead N]
            [--auto-batch]
            [--verify] [--metrics PATH] [--metrics-format jsonl|prometheus]
            [--metrics-interval-ms N]
      builds the chosen index once, generates a deterministic query trace
      (window / point-enclosure / distance probes) and replays it on N
      serve workers with locality-aware (Hilbert-ordered) batching
      E: transformers | gipsy | rtree  (default: transformers)
      M: uniform | clustered | neuro   (default: uniform)
      --batch N: queries per batch (default 64); --no-hilbert replays each
                  batch in arrival order instead of Hilbert order
      --shards N: serve through a sharded scatter-gather cluster of N
                  self-contained index shards (each with its own page cache
                  and worker pool of --threads workers); probes are routed
                  only to the shards their probe box intersects, and merged
                  results stay byte-identical to the unsharded path.
                  --shard-partitioner picks the dataset split (default
                  hilbert); --shed swaps blocking admission for load
                  shedding on the per-shard bounded queues
      --auto-batch: let the serve loop retune its batch size from the
                  observed cache hit fraction and sequential-read fraction
                  (every queued run, with or without --shards; results stay
                  byte-identical)
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
                  (group commit, segment rotation); without it mutations
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
      data-page writes are detected on read (the write path's posture). On the file backend
      `tfm serve` and the parallel `tfm join` run a prefetch pipeline:
      --io-depth N puts N dedicated I/O threads behind the workers and
      --readahead N keeps up to N pages in flight — serve follows each
      batch's Hilbert-ordered page schedule, join follows each chunk's
      unit-page schedule from the claimed pivot run (results stay
      byte-identical).
      --store/--io-depth/--readahead require --backend file.

METRICS (join + serve):
  --metrics PATH: enable the tfm-obs registry for the run and export the
      cache/IO/latency/stage-timing metrics to PATH — JSON lines by default,
      Prometheus text with --metrics-format prometheus; serve additionally
      appends one trace line per query (queue-wait/service split and
      page-cache attribution). --metrics-interval-ms N makes a background
      thread append a registry snapshot every N ms (JSON lines only).";

fn print_usage() {
    println!("{USAGE}");
}

/// The `--flags` each subcommand reads, whitespace-separated.
const COMMAND_FLAGS: &[(&str, &str)] = &[
    ("generate", "--count --out --distribution --seed --max-side"),
    (
        "build",
        "--in --page-size --build-threads --unit-capacity --node-capacity --backend --store",
    ),
    (
        "join",
        "--a --b --approach --page-size --threads --build-threads --no-transform --no-prune \
         --backend --store --io-depth --readahead --verify --skew-file \
         --metrics --metrics-format --metrics-interval-ms",
    ),
    (
        "serve",
        "--in --engine --queries --threads --batch --no-hilbert --mix --page-size --build-threads \
         --trace-seed --window --eps --shards --shard-partitioner --shed \
         --backend --store --io-depth --readahead --auto-batch --verify \
         --metrics --metrics-format --metrics-interval-ms",
    ),
    (
        "mutate",
        "--in --ops --write-permille --insert-permille --wal-dir --threads --batch --seed \
         --page-size --build-threads --verify",
    ),
    ("info", "--in"),
];

/// Fails on the first `--token` of `args` that `command` does not read —
/// a misspelt or retired flag must not silently become a no-op. Every
/// subcommand calls this first, before it touches a file.
fn reject_unknown_flags(command: &str, args: &[String]) -> Result<(), String> {
    let known = COMMAND_FLAGS
        .iter()
        .find(|(name, _)| *name == command)
        .map_or("", |(_, flags)| flags);
    match args
        .iter()
        .find(|a| a.starts_with("--") && !known.split_whitespace().any(|f| f == *a))
    {
        Some(unknown) => Err(format!(
            "unknown option `{unknown}` for `tfm {command}`; try `tfm help`"
        )),
        None => Ok(()),
    }
}

/// Looks up the value following `--name`.
fn opt<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn required<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    opt(args, name).ok_or_else(|| format!("missing required option {name} VALUE"))
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what}: `{s}`"))
}

/// Parses a worker-count flag (default 1), rejecting 0 with a uniform
/// message.
fn parse_worker_count(args: &[String], name: &str) -> Result<usize, String> {
    let n: usize = parse(opt(args, name).unwrap_or("1"), name)?;
    if n == 0 {
        return Err(format!(
            "{name} must be at least 1 (0 workers cannot make progress)"
        ));
    }
    Ok(n)
}

/// Storage-backend options shared by `tfm build`, `tfm join` and
/// `tfm serve`.
struct StoreOpts {
    backend: StoreBackend,
    io_depth: usize,
    readahead: usize,
}

impl StoreOpts {
    /// The on-disk page-image directory, when the backend is a file.
    fn dir(&self) -> Option<&std::path::Path> {
        match &self.backend {
            StoreBackend::File(dir) | StoreBackend::FileChecksummed(dir) => Some(dir),
            StoreBackend::Mem => None,
        }
    }
}

/// Parses `--backend mem|file [--store DIR] [--io-depth N]
/// [--readahead N]`.
///
/// The page-image directory and the prefetch knobs only mean something
/// when pages live in a real file, so on the default mem backend every
/// flag of the group is rejected (same orphan-flag pattern as `--shed`
/// without `--shards`); `--io-depth 0` fails like `--threads 0` — the
/// depth is the number of dedicated I/O workers.
fn parse_store_opts(args: &[String]) -> Result<StoreOpts, String> {
    match opt(args, "--backend").unwrap_or("mem") {
        "mem" => {
            for name in ["--store", "--io-depth", "--readahead"] {
                if opt(args, name).is_some() {
                    return Err(format!("{name} requires --backend file"));
                }
            }
            Ok(StoreOpts {
                backend: StoreBackend::Mem,
                io_depth: 1,
                readahead: 0,
            })
        }
        kind @ ("file" | "file-checksummed") => {
            let dir = opt(args, "--store").map_or_else(
                || std::env::temp_dir().join(format!("tfm_store_{}", std::process::id())),
                std::path::PathBuf::from,
            );
            let io_depth = parse_worker_count(args, "--io-depth")?;
            let readahead: usize = parse(opt(args, "--readahead").unwrap_or("0"), "--readahead")?;
            let backend = if kind == "file" {
                StoreBackend::File(dir)
            } else {
                // Per-page checksum sidecar: torn data-page writes are
                // detected on read (the write path's default posture).
                StoreBackend::FileChecksummed(dir)
            };
            Ok(StoreOpts {
                backend,
                io_depth,
                readahead,
            })
        }
        other => Err(format!(
            "unknown backend `{other}` (mem | file | file-checksummed)"
        )),
    }
}

/// `--metrics` export options shared by `tfm join` and `tfm serve`.
struct MetricsOpts {
    path: String,
    prometheus: bool,
    interval: Option<std::time::Duration>,
}

/// Parses `--metrics PATH [--metrics-format jsonl|prometheus]
/// [--metrics-interval-ms N]`; `None` when `--metrics` is absent.
fn parse_metrics(args: &[String]) -> Result<Option<MetricsOpts>, String> {
    let Some(path) = opt(args, "--metrics") else {
        if opt(args, "--metrics-format").is_some() || opt(args, "--metrics-interval-ms").is_some() {
            return Err("--metrics-format/--metrics-interval-ms require --metrics PATH".into());
        }
        return Ok(None);
    };
    let prometheus = match opt(args, "--metrics-format").unwrap_or("jsonl") {
        "jsonl" => false,
        "prometheus" => true,
        other => {
            return Err(format!(
                "unknown metrics format `{other}` (jsonl | prometheus)"
            ))
        }
    };
    let interval = match opt(args, "--metrics-interval-ms") {
        None => None,
        Some(v) => {
            let ms: u64 = parse(v, "--metrics-interval-ms")?;
            if ms == 0 {
                return Err("--metrics-interval-ms must be at least 1".into());
            }
            Some(std::time::Duration::from_millis(ms))
        }
    };
    if prometheus && interval.is_some() {
        return Err(
            "periodic snapshots (--metrics-interval-ms) are JSON-lines only; \
             drop `--metrics-format prometheus`"
                .into(),
        );
    }
    Ok(Some(MetricsOpts {
        path: path.to_string(),
        prometheus,
        interval,
    }))
}

/// Arms the global registry (cleared, enabled) and starts the periodic
/// snapshot writer if an interval was requested. Runs before the index
/// build so the `build.*` stage timings land in this run's export.
fn start_metrics(m: &MetricsOpts) -> Result<Option<tfm_obs::SnapshotThread>, String> {
    tfm_obs::set_enabled(true);
    tfm_obs::global().reset();
    // Truncate any stale file from a previous run: both the snapshot
    // thread and the final export append.
    std::fs::write(&m.path, "").map_err(|e| format!("creating {}: {e}", m.path))?;
    match m.interval {
        Some(iv) => tfm_obs::SnapshotThread::start(tfm_obs::global(), m.path.clone().into(), iv)
            .map(Some)
            .map_err(|e| format!("starting snapshot thread: {e}")),
        None => Ok(None),
    }
}

/// Stops the snapshot writer, appends the final export (plus one trace
/// line per query in JSON-lines mode), parses the file back as a
/// self-check, and returns a one-line summary.
fn finish_metrics(
    m: &MetricsOpts,
    snap: Option<tfm_obs::SnapshotThread>,
    traces: &[tfm_obs::QueryTrace],
) -> Result<String, String> {
    use std::io::Write as _;
    if let Some(t) = snap {
        t.stop()
            .map_err(|e| format!("stopping snapshot thread: {e}"))?;
    }
    let snapshot = tfm_obs::global().snapshot();
    tfm_obs::set_enabled(false);
    let io_err = |e: std::io::Error| format!("writing {}: {e}", m.path);
    if m.prometheus {
        std::fs::write(&m.path, snapshot.to_prometheus()).map_err(io_err)?;
    } else {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&m.path)
            .map_err(io_err)?;
        f.write_all(snapshot.to_jsonl().as_bytes())
            .map_err(io_err)?;
        for t in traces {
            writeln!(f, "{}", t.to_json()).map_err(io_err)?;
        }
        f.flush().map_err(io_err)?;
        // Self-check: the export must round-trip through the parser even
        // with interleaved snapshot headers and trace lines.
        let text = std::fs::read_to_string(&m.path)
            .map_err(|e| format!("reading back {}: {e}", m.path))?;
        tfm_obs::MetricsSnapshot::parse_jsonl(&text)
            .map_err(|e| format!("{}: exported metrics failed to parse back: {e}", m.path))?;
    }
    let traces_note = if traces.is_empty() {
        String::new()
    } else {
        format!(" + {} query traces", traces.len())
    };
    Ok(format!(
        "metrics:         {} series{traces_note} -> {}",
        snapshot.entries.len(),
        m.path
    ))
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    reject_unknown_flags("generate", args)?;
    let count: usize = parse(required(args, "--count")?, "--count")?;
    let out = required(args, "--out")?;
    let seed: u64 = parse(opt(args, "--seed").unwrap_or("0"), "--seed")?;
    let max_side: f64 = parse(opt(args, "--max-side").unwrap_or("1.0"), "--max-side")?;
    let dist = opt(args, "--distribution").unwrap_or("uniform");

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

fn cmd_build(args: &[String]) -> Result<(), String> {
    use transformers::{IndexConfig, TransformersIndex};

    // `--io-depth`/`--readahead` drive the join/serve prefetch pipelines;
    // `tfm build` only writes the page image, so it does not read them.
    reject_unknown_flags("build", args)?;
    let path = required(args, "--in")?;
    let page_size: usize = parse(opt(args, "--page-size").unwrap_or("2048"), "--page-size")?;
    let build_threads = parse_worker_count(args, "--build-threads")?;
    let store = parse_store_opts(args)?;
    let mut cfg = IndexConfig::default().with_build_threads(build_threads);
    if let Some(v) = opt(args, "--unit-capacity") {
        cfg.unit_capacity = Some(parse(v, "--unit-capacity")?);
    }
    if let Some(v) = opt(args, "--node-capacity") {
        cfg.node_capacity = Some(parse(v, "--node-capacity")?);
    }

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
        BUILD_CONNECTIVITY, BUILD_FINALIZE, BUILD_NODE_STR, BUILD_PAGE_PACK, BUILD_UNIT_STR,
    };
    [
        ("unit STR", BUILD_UNIT_STR),
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
        "sssj" => Approach::Sssj,
        "s3" => Approach::S3,
        other => return Err(format!("unknown approach `{other}`")),
    })
}

fn cmd_join(args: &[String]) -> Result<(), String> {
    reject_unknown_flags("join", args)?;
    let path_a = required(args, "--a")?;
    let path_b = required(args, "--b")?;
    let approach = parse_approach(opt(args, "--approach").unwrap_or("transformers"))?;
    let page_size: usize = parse(opt(args, "--page-size").unwrap_or("2048"), "--page-size")?;
    let threads = parse_worker_count(args, "--threads")?;
    let build_threads = parse_worker_count(args, "--build-threads")?;
    let no_transform = flag(args, "--no-transform");
    let no_prune = flag(args, "--no-prune");
    let store = parse_store_opts(args)?;
    let parallel_transformers = threads > 1 && matches!(approach, Approach::Transformers(_));
    if (no_transform || no_prune) && !parallel_transformers {
        eprintln!(
            "note: --no-transform/--no-prune only affect the parallel transformers path \
             (--approach transformers --threads N > 1); ignored here"
        );
    }
    // Join prefetch runs where the unit-page schedule exists: the parallel
    // transformers path. Anywhere else a requested readahead would silently
    // demand-page, so say so.
    if store.readahead > 0 && !parallel_transformers {
        eprintln!(
            "note: join prefetch (--readahead/--io-depth) engages on the parallel \
             transformers path; this run demand-pages"
        );
    }

    // `--threads N` (N > 1) routes TRANSFORMERS through the parallel
    // execution subsystem (`tfm-exec`); other approaches are sequential.
    let approach = match (approach, threads) {
        (Approach::Transformers(mut join_cfg), t) => {
            if t > 1 {
                if no_transform {
                    join_cfg = join_cfg.without_worker_transforms();
                }
                if no_prune {
                    join_cfg = join_cfg.without_cross_worker_pruning();
                }
                // The exec layer turns these into the chunk-schedule
                // prefetch pipeline (no-ops with readahead 0).
                join_cfg = join_cfg
                    .with_readahead(store.readahead)
                    .with_io_depth(store.io_depth);
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

    let metrics = parse_metrics(args)?;
    let snap = match &metrics {
        Some(m) => start_metrics(m)?,
        None => None,
    };

    let a = io::read_elements(path_a).map_err(|e| format!("reading {path_a}: {e}"))?;
    let b = io::read_elements(path_b).map_err(|e| format!("reading {path_b}: {e}"))?;

    let cfg = RunConfig {
        page_size,
        build_threads,
        backend: store.backend.clone(),
        ..RunConfig::default()
    };
    // With --skew-file, the parallel path closes the steal-skew feedback
    // loop through the persistent sidecar: read the recorded signal before
    // the run, write the observed fraction after it. Keyed by the full
    // input paths — same-named files in different directories are
    // different workloads.
    let workload = format!("{path_a}|{path_b}");
    let (m, pairs) = match opt(args, "--skew-file") {
        Some(skew_path) => {
            let mut store = tfm_bench::SkewStore::load(skew_path);
            let recorded = store.recorded(&workload);
            let out =
                tfm_bench::run_approach_with_skew(&approach, &workload, &a, &b, &cfg, &mut store);
            store
                .save()
                .map_err(|e| format!("writing {skew_path}: {e}"))?;
            match (recorded, store.recorded(&workload)) {
                (Some(prev), _) => println!("skew:            recorded {prev:.3} fed back"),
                (None, Some(now)) => println!("skew:            {now:.3} recorded for next run"),
                _ => {}
            }
            out
        }
        None => run_approach(&approach, "cli", &a, &b, &cfg),
    };

    println!("approach:        {}", m.approach);
    if let Some(dir) = store.dir() {
        println!(
            "backend:         file ({}; io depth {}, readahead {} pages)",
            dir.display(),
            store.io_depth,
            store.readahead
        );
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
    } else if parallel_transformers {
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
            "windows:         {}, mean {:.1} pivots / {:.1} follower pages, {} read through",
            m.windows,
            m.window_pivots as f64 / m.windows as f64,
            m.swept_pages as f64 / m.windows as f64,
            m.read_through_pages
        );
    }
    println!(
        "join I/O:        {} pages ({} random, {} sequential)",
        m.pages_read, m.rand_reads, m.seq_reads
    );
    if m.prefetch_issued > 0 {
        println!(
            "join prefetch:   {} pages issued ({} hit, {} unused — {:.1}% unused)",
            m.prefetch_issued,
            m.prefetch_hits,
            m.prefetch_unused,
            m.prefetch_unused as f64 / m.prefetch_issued as f64 * 100.0
        );
    }
    println!("intersection tests: {}", m.tests);
    if m.transformations > 0 {
        println!("transformations: {}", m.transformations);
    }
    if let Some(mo) = &metrics {
        println!("{}", finish_metrics(mo, snap, &[])?);
    }

    if flag(args, "--verify") {
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
    use tfm_bench::{run_serve_sharded, run_serve_traced, ServeEngineKind};
    use tfm_datagen::{generate_trace, ProbeMix, QueryTraceSpec};
    use tfm_serve::{ServeConfig, ShardPartitioner, ShardSpec};
    use transformers::IndexConfig;

    reject_unknown_flags("serve", args)?;
    let path = required(args, "--in")?;
    let engine = match opt(args, "--engine").unwrap_or("transformers") {
        "transformers" => ServeEngineKind::Transformers,
        "gipsy" => ServeEngineKind::Gipsy,
        "rtree" => ServeEngineKind::Rtree,
        other => return Err(format!("unknown serve engine `{other}`")),
    };
    let mix = match opt(args, "--mix").unwrap_or("uniform") {
        "uniform" => ProbeMix::Uniform,
        "clustered" => ProbeMix::Clustered { clusters: 8 },
        "neuro" => ProbeMix::NeuroCorrelated,
        other => return Err(format!("unknown probe mix `{other}`")),
    };
    let queries: usize = parse(opt(args, "--queries").unwrap_or("1000"), "--queries")?;
    let threads = parse_worker_count(args, "--threads")?;
    let batch: usize = parse(opt(args, "--batch").unwrap_or("64"), "--batch")?;
    if batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    let page_size: usize = parse(opt(args, "--page-size").unwrap_or("2048"), "--page-size")?;
    let build_threads = parse_worker_count(args, "--build-threads")?;
    let trace_seed: u64 = parse(opt(args, "--trace-seed").unwrap_or("1"), "--trace-seed")?;
    let window: f64 = parse(opt(args, "--window").unwrap_or("20"), "--window")?;
    let eps: f64 = parse(opt(args, "--eps").unwrap_or("5"), "--eps")?;
    let store = parse_store_opts(args)?;
    // --shards N serves through the sharded scatter-gather cluster: the
    // dataset is split into N self-contained index shards, each with its
    // own cache and worker pool, behind the probe-box router.
    let spec = match opt(args, "--shards") {
        Some(shards_str) => {
            let shards: usize = parse(shards_str, "--shards")?;
            if shards == 0 {
                return Err("--shards must be at least 1".into());
            }
            let partitioner = match opt(args, "--shard-partitioner").unwrap_or("hilbert") {
                "hilbert" => ShardPartitioner::Hilbert,
                "str" => ShardPartitioner::Str,
                other => {
                    return Err(format!(
                        "unknown shard partitioner `{other}` (hilbert | str)"
                    ))
                }
            };
            Some(ShardSpec {
                shards,
                partitioner,
                page_size,
                backend: store.backend.clone(),
                ..ShardSpec::default()
            })
        }
        None if flag(args, "--shed") || opt(args, "--shard-partitioner").is_some() => {
            return Err("--shed/--shard-partitioner require --shards N".into());
        }
        None => None,
    };
    let auto_batch = flag(args, "--auto-batch");
    if auto_batch && threads == 1 && spec.is_none() {
        eprintln!(
            "note: --auto-batch tunes the queued batch loop; \
             the single-threaded inline path ignores it"
        );
    }
    let metrics = parse_metrics(args)?;

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
        hilbert_batching: !flag(args, "--no-hilbert"),
        io_depth: store.io_depth,
        readahead: store.readahead,
        auto_batch,
        shed: flag(args, "--shed"),
        // With --metrics the run also collects one per-query trace (queue
        // wait / service split, pool attribution) for the JSON-lines export.
        collect_traces: metrics.is_some(),
        ..ServeConfig::default()
    };

    let snap = match &metrics {
        Some(m) => start_metrics(m)?,
        None => None,
    };
    let (m, results, traces) = match &spec {
        Some(spec) => {
            let idx_cfg = IndexConfig::default().with_build_threads(build_threads);
            run_serve_sharded(engine, "cli", &elems, &trace, spec, &idx_cfg, &serve_cfg)
        }
        None => run_serve_traced(engine, "cli", &elems, &trace, &run_cfg, &serve_cfg),
    };

    let mut lines = vec![format!("engine:          {}", m.engine)];
    if let Some(dir) = store.dir() {
        lines.push(format!(
            "backend:         file ({}; io depth {}, readahead {} pages)",
            dir.display(),
            store.io_depth,
            store.readahead
        ));
    }
    lines.push(format!(
        "dataset:         {path} ({} elements)",
        m.n_elements
    ));
    lines.push(format!(
        "trace:           {} queries ({:?} probes, seed {trace_seed})",
        m.queries, mix
    ));
    let shape = match &spec {
        Some(spec) => format!(
            "{} shards ({:?} split) x {}",
            m.shards, spec.partitioner, m.threads
        ),
        None => m.threads.to_string(),
    };
    lines.push(format!(
        "serving:         {shape} worker{}, batch {}, hilbert batching {}",
        if m.threads == 1 { "" } else { "s" },
        m.batch,
        if m.hilbert_batching { "on" } else { "off" }
    ));
    let queued = spec.is_some() || m.threads > 1;
    if auto_batch && queued {
        lines.push(format!(
            "auto-batch:      {} retunes ({} grew, {} shrank), final batch {}",
            m.autobatch_retunes, m.autobatch_grows, m.autobatch_shrinks, m.autobatch_final_batch
        ));
    }
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
    if m.shed_partials > 0 {
        lines.push(format!(
            "shedding:        {} partials shed — results are incomplete",
            m.shed_partials
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
    if let Some(mo) = &metrics {
        lines.push(finish_metrics(mo, snap, &traces)?);
    }

    if flag(args, "--verify") {
        if m.shed_partials > 0 {
            return Err("cannot --verify a run that shed load".into());
        }
        for (i, q) in trace.iter().enumerate() {
            let mut expected: Vec<u64> = elems
                .iter()
                .filter(|e| q.matches(&e.mbb))
                .map(|e| e.id)
                .collect();
            expected.sort_unstable();
            if results[i] != expected {
                return Err(format!("query {i} diverges from the full-scan oracle"));
            }
        }
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

    reject_unknown_flags("mutate", args)?;
    let path = required(args, "--in")?;
    let ops: usize = parse(opt(args, "--ops").unwrap_or("1000"), "--ops")?;
    let write_permille: u32 = parse(
        opt(args, "--write-permille").unwrap_or("200"),
        "--write-permille",
    )?;
    let insert_permille: u32 = parse(
        opt(args, "--insert-permille").unwrap_or("700"),
        "--insert-permille",
    )?;
    for (name, v) in [
        ("--write-permille", write_permille),
        ("--insert-permille", insert_permille),
    ] {
        if v > 1000 {
            return Err(format!("{name} is a permille value (0..=1000), got {v}"));
        }
    }
    let threads = parse_worker_count(args, "--threads")?;
    let batch: usize = parse(opt(args, "--batch").unwrap_or("64"), "--batch")?;
    if batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    let seed: u64 = parse(opt(args, "--seed").unwrap_or("1"), "--seed")?;
    let page_size: usize = parse(opt(args, "--page-size").unwrap_or("2048"), "--page-size")?;
    let build_threads = parse_worker_count(args, "--build-threads")?;

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
    let wal = match opt(args, "--wal-dir") {
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
    // The dirty pages the last batches left are part of what the run
    // wrote: flush them, so that `write amp:` counts the tail.
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
        "overlay:         {overlay_pages} pages written, at most {overlay_pages_max} of the \
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

    if flag(args, "--verify") {
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
        for (i, q) in probes.iter().enumerate() {
            let mut expected: Vec<u64> = live
                .values()
                .filter(|e| q.matches(&e.mbb))
                .map(|e| e.id)
                .collect();
            expected.sort_unstable();
            if out.results[i] != expected {
                return Err(format!(
                    "probe {i} diverges from the full scan of the mutated dataset"
                ));
            }
        }
        lines.push(format!(
            "verify:          OK (all {} probes match the mutated full scan)",
            probes.len()
        ));
    }
    Ok(lines.join("\n"))
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    reject_unknown_flags("info", args)?;
    let path = required(args, "--in")?;
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

    #[test]
    fn opt_parsing() {
        let args: Vec<String> = ["--count", "5", "--flag"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(opt(&args, "--count"), Some("5"));
        assert_eq!(opt(&args, "--missing"), None);
        assert!(flag(&args, "--flag"));
        assert!(!flag(&args, "--other"));
    }

    #[test]
    fn approach_names() {
        for name in [
            "transformers",
            "no-tr",
            "pbsm",
            "rtree",
            "gipsy",
            "sssj",
            "s3",
        ] {
            assert!(parse_approach(name).is_ok(), "{name}");
        }
        assert!(parse_approach("bogus").is_err());
    }

    #[test]
    fn zero_threads_is_rejected() {
        // `--threads 0` must fail fast with a clear message, before any
        // file I/O or scheduler construction happens.
        let args: Vec<String> = [
            "--a",
            "nonexistent.a",
            "--b",
            "nonexistent.b",
            "--threads",
            "0",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let err = cmd_join(&args).expect_err("--threads 0 must be rejected");
        assert!(
            err.contains("--threads must be at least 1"),
            "unhelpful error: {err}"
        );
    }

    #[test]
    fn zero_build_threads_is_rejected() {
        let args: Vec<String> = ["--a", "x.a", "--b", "x.b", "--build-threads", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = cmd_join(&args).expect_err("--build-threads 0 must be rejected");
        assert!(err.contains("--build-threads must be at least 1"), "{err}");
        let args: Vec<String> = ["--in", "x.elems", "--build-threads", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = cmd_build(&args).expect_err("--build-threads 0 must be rejected");
        assert!(err.contains("--build-threads must be at least 1"), "{err}");
    }

    #[test]
    fn build_command_end_to_end() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tfm_cli_build_{}.elems", std::process::id()));
        let gen_args: Vec<String> = [
            "--count",
            "500",
            "--out",
            path.to_str().unwrap(),
            "--seed",
            "7",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        cmd_generate(&gen_args).unwrap();
        for threads in ["1", "4"] {
            let build_args: Vec<String> = [
                "--in",
                path.to_str().unwrap(),
                "--build-threads",
                threads,
                "--unit-capacity",
                "16",
                "--node-capacity",
                "8",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            cmd_build(&build_args).unwrap_or_else(|e| panic!("threads {threads}: {e}"));
        }
        // Invalid capacities surface the validation error, not a panic.
        let bad_args: Vec<String> = ["--in", path.to_str().unwrap(), "--unit-capacity", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = cmd_build(&bad_args).expect_err("unit capacity 0 must fail");
        assert!(err.contains("unit_capacity"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parallel_flags_join_end_to_end() {
        let dir = std::env::temp_dir();
        let pa = dir.join(format!("tfm_cli_par_a_{}.elems", std::process::id()));
        let pb = dir.join(format!("tfm_cli_par_b_{}.elems", std::process::id()));
        for (path, seed) in [(&pa, "31"), (&pb, "32")] {
            let gen_args: Vec<String> = [
                "--count",
                "400",
                "--out",
                path.to_str().unwrap(),
                "--seed",
                seed,
                "--max-side",
                "8",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            cmd_generate(&gen_args).unwrap();
        }
        // Every escape-hatch combination must still verify against the
        // nested-loop oracle.
        for extra in [&[][..], &["--no-transform"][..], &["--no-prune"][..]] {
            let mut join_args: Vec<String> = [
                "--a",
                pa.to_str().unwrap(),
                "--b",
                pb.to_str().unwrap(),
                "--threads",
                "2",
                "--build-threads",
                "2",
                "--verify",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            join_args.extend(extra.iter().map(|s| s.to_string()));
            cmd_join(&join_args).unwrap_or_else(|e| panic!("{extra:?}: {e}"));
        }
        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
    }

    #[test]
    fn serve_command_end_to_end() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tfm_cli_serve_{}.elems", std::process::id()));
        let gen_args: Vec<String> = [
            "--count",
            "800",
            "--out",
            path.to_str().unwrap(),
            "--seed",
            "21",
            "--max-side",
            "6",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        cmd_generate(&gen_args).unwrap();
        // Every engine serves the generated trace and verifies against the
        // full-scan oracle, batched and unbatched, 1 and 2 workers.
        for engine in ["transformers", "gipsy", "rtree"] {
            for extra in [&[][..], &["--no-hilbert", "--threads", "2"][..]] {
                let mut serve_args: Vec<String> = [
                    "--in",
                    path.to_str().unwrap(),
                    "--engine",
                    engine,
                    "--queries",
                    "60",
                    "--batch",
                    "16",
                    "--verify",
                ]
                .iter()
                .map(|s| s.to_string())
                .collect();
                serve_args.extend(extra.iter().map(|s| s.to_string()));
                cmd_serve(&serve_args).unwrap_or_else(|e| panic!("{engine} {extra:?}: {e}"));
            }
        }
        // Bad flags fail fast with clear messages.
        let bad: Vec<String> = ["--in", path.to_str().unwrap(), "--engine", "bogus"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(cmd_serve(&bad).unwrap_err().contains("serve engine"));
        let bad: Vec<String> = ["--in", path.to_str().unwrap(), "--threads", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(cmd_serve(&bad).unwrap_err().contains("--threads"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sharded_serve_command_end_to_end() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tfm_cli_shard_{}.elems", std::process::id()));
        let gen_args: Vec<String> = [
            "--count",
            "700",
            "--out",
            path.to_str().unwrap(),
            "--seed",
            "61",
            "--max-side",
            "6",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        cmd_generate(&gen_args).unwrap();
        // Sharded serving verifies against the full-scan oracle for both
        // partitioners and a couple of cluster shapes.
        for (shards, partitioner, threads) in [
            ("1", "hilbert", "1"),
            ("3", "hilbert", "2"),
            ("4", "str", "1"),
        ] {
            let serve_args: Vec<String> = [
                "--in",
                path.to_str().unwrap(),
                "--queries",
                "60",
                "--batch",
                "16",
                "--shards",
                shards,
                "--shard-partitioner",
                partitioner,
                "--threads",
                threads,
                "--verify",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            cmd_serve(&serve_args).unwrap_or_else(|e| panic!("shards={shards} {partitioner}: {e}"));
        }
        // Bad shard flags fail fast.
        let bad: Vec<String> = ["--in", path.to_str().unwrap(), "--shards", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(cmd_serve(&bad).unwrap_err().contains("--shards"));
        let bad: Vec<String> = [
            "--in",
            path.to_str().unwrap(),
            "--shards",
            "2",
            "--shard-partitioner",
            "bogus",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert!(cmd_serve(&bad).unwrap_err().contains("shard partitioner"));
        let bad: Vec<String> = ["--in", path.to_str().unwrap(), "--shed"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(cmd_serve(&bad).unwrap_err().contains("require --shards"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mutate_command_end_to_end() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let path = dir.join(format!("tfm_cli_mutate_{pid}.elems"));
        let wal_dir = dir.join(format!("tfm_cli_mutate_wal_{pid}"));
        std::fs::remove_dir_all(&wal_dir).ok();
        cmd_generate(&sv(&[
            "--count",
            "600",
            "--out",
            path.to_str().unwrap(),
            "--seed",
            "51",
            "--max-side",
            "6",
        ]))
        .unwrap();

        // Logged and unlogged replays, single- and multi-worker reads,
        // all verified against the mutated full-scan oracle.
        for extra in [
            &[][..],
            // 512-byte pages: a 600-element overlay spans a chain of pages.
            &["--threads", "2", "--page-size", "512", "--wal-dir"][..], // dir appended below
        ] {
            let mut mutate_args = sv(&[
                "--in",
                path.to_str().unwrap(),
                "--ops",
                "400",
                "--write-permille",
                "400",
                "--batch",
                "32",
                "--verify",
            ]);
            mutate_args.extend(extra.iter().map(|s| s.to_string()));
            if extra.contains(&"--wal-dir") {
                mutate_args.push(wal_dir.to_str().unwrap().to_string());
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
        let segments = std::fs::read_dir(&wal_dir)
            .expect("wal dir exists")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
            .count();
        assert!(segments > 0, "no WAL segments written");

        // Bad flags fail fast.
        let bad = sv(&["--in", path.to_str().unwrap(), "--write-permille", "1500"]);
        assert!(cmd_mutate(&bad).unwrap_err().contains("permille"));
        let bad = sv(&["--in", path.to_str().unwrap(), "--batch", "0"]);
        assert!(cmd_mutate(&bad).unwrap_err().contains("--batch"));
        let bad = sv(&["--in", path.to_str().unwrap(), "--threads", "0"]);
        assert!(cmd_mutate(&bad).unwrap_err().contains("--threads"));

        std::fs::remove_dir_all(&wal_dir).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn metrics_export_end_to_end() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let path = dir.join(format!("tfm_cli_metrics_{pid}.elems"));
        let jsonl = dir.join(format!("tfm_cli_metrics_{pid}.jsonl"));
        let prom = dir.join(format!("tfm_cli_metrics_{pid}.prom"));
        let gen_args: Vec<String> = [
            "--count",
            "600",
            "--out",
            path.to_str().unwrap(),
            "--seed",
            "41",
            "--max-side",
            "6",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        cmd_generate(&gen_args).unwrap();

        // Serve with a periodic snapshot thread: the accumulated file must
        // parse and carry cache, queue-wait, latency-histogram and
        // per-stage build metrics (the ISSUE's acceptance shape).
        let serve_args: Vec<String> = [
            "--in",
            path.to_str().unwrap(),
            "--queries",
            "80",
            "--threads",
            "2",
            "--batch",
            "16",
            "--metrics",
            jsonl.to_str().unwrap(),
            "--metrics-interval-ms",
            "5",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        cmd_serve(&serve_args).unwrap();
        let text = std::fs::read_to_string(&jsonl).unwrap();
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

        // One serve path: the cluster takes --auto-batch, --metrics and
        // --build-threads like a single engine does, prints the lines a
        // single engine prints plus the routing line, and exports one
        // trace record per query. (Here, not with the other sharded runs:
        // this is the one test that may arm the process-wide registry.)
        let metrics = dir.join(format!("tfm_cli_shard_{pid}.jsonl"));
        let base = [
            "--in",
            path.to_str().unwrap(),
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
        let extra = ["--auto-batch", "--metrics", metrics.to_str().unwrap()];
        let auto = serve_summary(&sv(&[&base[..], &extra[..]].concat())).unwrap();
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
            line(&auto, label);
        }
        assert!(line(&auto, "throughput:").contains("sim I/O"));
        assert!(line(&auto, "serve I/O:").contains("sequential"));
        assert!(line(&auto, "auto-batch:").contains("retunes"));
        assert!(!fixed.contains("auto-batch:"));
        // Both runs passed --verify against the full scan, so they agree
        // with each other; the result-id totals say so too.
        assert_eq!(line(&auto, "result ids:"), line(&fixed, "result ids:"));
        assert!(line(&auto, "metrics:").contains("+ 60 query traces"));
        let exported = std::fs::read_to_string(&metrics).unwrap();
        let traces = exported
            .lines()
            .filter(|l| l.contains("\"trace_id\""))
            .count();
        assert_eq!(traces, 60, "one trace record per query");
        assert!(exported.contains("serve.autobatch.retunes") && exported.contains("shard.routed"));
        std::fs::remove_file(&metrics).ok();

        // Join with a Prometheus export.
        let join_args: Vec<String> = [
            "--a",
            path.to_str().unwrap(),
            "--b",
            path.to_str().unwrap(),
            "--threads",
            "2",
            "--metrics",
            prom.to_str().unwrap(),
            "--metrics-format",
            "prometheus",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        cmd_join(&join_args).unwrap();
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(text.contains("# TYPE cache_hits counter"), "{text}");
        assert!(text.contains("join_wall_nanos_bucket"), "{text}");

        // Bad flag combinations fail fast.
        let bad: Vec<String> = [
            "--in",
            path.to_str().unwrap(),
            "--metrics",
            jsonl.to_str().unwrap(),
            "--metrics-format",
            "xml",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert!(cmd_serve(&bad).unwrap_err().contains("metrics format"));
        let bad: Vec<String> = ["--in", path.to_str().unwrap(), "--metrics-interval-ms", "5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(cmd_serve(&bad).unwrap_err().contains("require --metrics"));

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&jsonl).ok();
        std::fs::remove_file(&prom).ok();
    }

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn io_backend_flags_are_validated() {
        // `--io-depth 0` fails fast like `--threads 0`, before any file
        // I/O happens.
        let err = cmd_serve(&sv(&[
            "--in",
            "x.elems",
            "--backend",
            "file",
            "--io-depth",
            "0",
        ]))
        .expect_err("--io-depth 0 must be rejected");
        assert!(err.contains("--io-depth must be at least 1"), "{err}");

        // The page-image and prefetch flags are orphans on the default
        // mem backend — readahead over in-memory pages is meaningless.
        for orphan in [
            &["--io-depth", "4"][..],
            &["--readahead", "64"][..],
            &["--store", "/tmp/x"][..],
        ] {
            let mut serve_args = sv(&["--in", "x.elems"]);
            serve_args.extend(orphan.iter().map(|s| s.to_string()));
            let err = cmd_serve(&serve_args).expect_err("mem-backend orphan must be rejected");
            assert!(err.contains("requires --backend file"), "{err}");
            let mut join_args = sv(&["--a", "x.a", "--b", "x.b"]);
            join_args.extend(orphan.iter().map(|s| s.to_string()));
            let err = cmd_join(&join_args).expect_err("mem-backend orphan must be rejected");
            assert!(err.contains("requires --backend file"), "{err}");
        }

        // Unknown backend names fail with the candidate list.
        let err = cmd_serve(&sv(&["--in", "x.elems", "--backend", "nvme"])).unwrap_err();
        assert!(err.contains("unknown backend"), "{err}");

        // `tfm build` writes the image but has no prefetch pipeline, so
        // the prefetch knobs are not among its flags.
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

    /// The `--flags` named between `command`'s `  tfm NAME` line of
    /// [`USAGE`] and the next subcommand's (or the first section heading).
    fn flags_in_usage_block(command: &str) -> std::collections::BTreeSet<&'static str> {
        let start = USAGE
            .find(&format!("\n  tfm {command} "))
            .unwrap_or_else(|| panic!("no `tfm {command}` block in USAGE"));
        let block = &USAGE[start + 1..];
        let end = block[1..]
            .find("\n  tfm ")
            .or_else(|| block.find("\n\n"))
            .expect("block ends at the next subcommand or section");
        block[..end + 1]
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|w| w.starts_with("--") && w.len() > 2)
            .collect()
    }

    #[test]
    fn each_subcommand_reads_exactly_the_flags_its_usage_block_names() {
        for (command, flags) in COMMAND_FLAGS {
            let listed: std::collections::BTreeSet<&str> = flags.split_whitespace().collect();
            assert_eq!(
                listed.len(),
                flags.split_whitespace().count(),
                "`tfm {command}` lists a flag twice"
            );
            assert_eq!(
                listed,
                flags_in_usage_block(command),
                "`tfm {command}`: COMMAND_FLAGS and its USAGE block disagree"
            );
        }
    }

    #[test]
    fn unknown_flags_are_rejected_before_any_file_is_read() {
        // None of the named files exists: an error that names the flag
        // (not the file) proves the check ran first.
        type Command = fn(&[String]) -> Result<(), String>;
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
            assert_eq!(
                err,
                format!("unknown option `--bogus` for `tfm {command}`; try `tfm help`")
            );
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
    fn file_backend_commands_end_to_end() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let elems = dir.join(format!("tfm_cli_io_{pid}.elems"));
        let store = dir.join(format!("tfm_cli_io_store_{pid}"));
        let store_s = store.to_str().unwrap().to_string();
        cmd_generate(&sv(&[
            "--count",
            "600",
            "--out",
            elems.to_str().unwrap(),
            "--seed",
            "91",
            "--max-side",
            "6",
        ]))
        .unwrap();

        // Build writes a real page image and reports it.
        cmd_build(&sv(&[
            "--in",
            elems.to_str().unwrap(),
            "--backend",
            "file",
            "--store",
            &store_s,
        ]))
        .unwrap();
        let image = store.join("build.pages");
        assert!(image.exists(), "build must write {}", image.display());
        assert!(image.metadata().unwrap().len() > 0, "empty page image");

        // Serve through the file backend with the prefetch pipeline on;
        // results verify against the full-scan oracle.
        cmd_serve(&sv(&[
            "--in",
            elems.to_str().unwrap(),
            "--backend",
            "file",
            "--store",
            &store_s,
            "--threads",
            "2",
            "--io-depth",
            "2",
            "--readahead",
            "64",
            "--queries",
            "60",
            "--batch",
            "16",
            "--auto-batch",
            "--verify",
        ]))
        .unwrap();
        assert!(store.join("serve.pages").exists(), "serve page image");

        // Sharded cluster: one page image per shard.
        cmd_serve(&sv(&[
            "--in",
            elems.to_str().unwrap(),
            "--backend",
            "file",
            "--store",
            &store_s,
            "--shards",
            "2",
            "--threads",
            "2",
            "--io-depth",
            "2",
            "--readahead",
            "32",
            "--queries",
            "60",
            "--batch",
            "16",
            "--verify",
        ]))
        .unwrap();
        for shard in 0..2 {
            assert!(
                store.join(format!("shard{shard}.pages")).exists(),
                "shard{shard} page image"
            );
        }

        // Parallel join over file-backed indexes with the prefetch
        // pipeline on verifies against the nested-loop oracle — prefetch
        // must not change results.
        cmd_join(&sv(&[
            "--a",
            elems.to_str().unwrap(),
            "--b",
            elems.to_str().unwrap(),
            "--backend",
            "file",
            "--store",
            &store_s,
            "--threads",
            "2",
            "--io-depth",
            "2",
            "--readahead",
            "64",
            "--verify",
        ]))
        .unwrap();
        assert!(store.join("tfm_a.pages").exists(), "join page image");

        std::fs::remove_dir_all(&store).ok();
        std::fs::remove_file(&elems).ok();
    }

    #[test]
    fn skew_file_round_trips_through_join() {
        let dir = std::env::temp_dir();
        let pa = dir.join(format!("tfm_cli_skew_a_{}.elems", std::process::id()));
        let pb = dir.join(format!("tfm_cli_skew_b_{}.elems", std::process::id()));
        let skew = dir.join(format!("tfm_cli_skew_{}.json", std::process::id()));
        std::fs::remove_file(&skew).ok();
        for (path, seed) in [(&pa, "71"), (&pb, "72")] {
            let gen_args: Vec<String> = [
                "--count",
                "400",
                "--out",
                path.to_str().unwrap(),
                "--seed",
                seed,
                "--max-side",
                "8",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            cmd_generate(&gen_args).unwrap();
        }
        let join_args: Vec<String> = [
            "--a",
            pa.to_str().unwrap(),
            "--b",
            pb.to_str().unwrap(),
            "--threads",
            "2",
            "--skew-file",
            skew.to_str().unwrap(),
            "--verify",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        // First run records, second feeds back; both must verify.
        cmd_join(&join_args).unwrap();
        assert!(skew.exists(), "sidecar must be written");
        cmd_join(&join_args).unwrap();
        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
        std::fs::remove_file(&skew).ok();
    }

    #[test]
    fn generate_and_join_end_to_end() {
        let dir = std::env::temp_dir();
        let pa = dir.join(format!("tfm_cli_a_{}.elems", std::process::id()));
        let pb = dir.join(format!("tfm_cli_b_{}.elems", std::process::id()));
        let gen_args: Vec<String> = [
            "--count",
            "300",
            "--out",
            pa.to_str().unwrap(),
            "--seed",
            "1",
            "--max-side",
            "8",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        cmd_generate(&gen_args).unwrap();
        let gen_args: Vec<String> = [
            "--count",
            "300",
            "--out",
            pb.to_str().unwrap(),
            "--seed",
            "2",
            "--max-side",
            "8",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        cmd_generate(&gen_args).unwrap();

        let join_args: Vec<String> = [
            "--a",
            pa.to_str().unwrap(),
            "--b",
            pb.to_str().unwrap(),
            "--approach",
            "transformers",
            "--verify",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        cmd_join(&join_args).unwrap();

        let info_args: Vec<String> = ["--in", pa.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        cmd_info(&info_args).unwrap();

        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
    }
}
