//! WAL gate — group commit vs per-commit fsync, plus recovery checks.
//!
//! Two identical multi-threaded commit workloads against the segmented
//! WAL, differing only in [`SyncMode`]:
//!
//! 1. **each-commit** — one fsync per commit, unconditionally: the
//!    ablation baseline. With injected fsync latency every commit pays a
//!    full device flush on its own critical path.
//! 2. **group-commit** — a commit whose LSN another thread's fsync
//!    already covered returns without flushing; otherwise one fsync makes
//!    every record appended so far durable. Concurrent committers
//!    amortize the flush, so throughput must beat the baseline by
//!    ≥ 1.3× and total fsyncs must undercut it.
//!
//! fsync latency is injected ([`WalOptions::fsync_latency`]) so the
//! batching win is measurable on tmpfs CI runners whose real fsync is
//! nearly free — the same regime a commodity SSD's ~1 ms flush creates.
//!
//! The group run's log then feeds the recovery gates: a full replay onto
//! a fresh disk must land every committed page image, skip nothing, and
//! be idempotent (a second replay changes no page). Results go to
//! `BENCH_wal.json`; the process exits non-zero when a gate fails.

use std::time::{Duration, Instant};
use tfm_bench::gate::{self, Args, Gate, Json};
use tfm_storage::{Disk, PageId, RedoLog};
use tfm_wal::{recover, SyncMode, Wal, WalOptions, WalStats};

/// Committer threads — enough concurrent committers that fsyncs overlap
/// commit arrivals and batches form.
const THREADS: usize = 8;
/// Transactions per thread.
const TXNS: usize = 40;
/// Page images per transaction.
const PAGES_PER_TXN: usize = 3;
/// Logged page size in bytes.
const PAGE_SIZE: usize = 512;
/// Injected fsync latency — the device-flush stand-in.
const FSYNC_LATENCY: Duration = Duration::from_millis(2);

struct RunOut {
    wall: Duration,
    stats: WalStats,
    commits_per_s: f64,
    mean_batch: f64,
}

/// Runs the commit workload in a fresh log directory and returns its
/// counters; the directory is left in place for the recovery phase.
fn run(dir: &std::path::Path, mode: SyncMode) -> RunOut {
    std::fs::remove_dir_all(dir).ok();
    let wal = Wal::open(
        dir,
        WalOptions {
            fsync_latency: FSYNC_LATENCY,
            sync_mode: mode,
            ..WalOptions::default()
        },
    )
    .expect("open wal");
    let t = Instant::now();
    std::thread::scope(|s| {
        for w in 0..THREADS {
            let wal = &wal;
            s.spawn(move || {
                let mut image = vec![0u8; PAGE_SIZE];
                for txn_i in 0..TXNS {
                    let txn = wal.begin();
                    for p in 0..PAGES_PER_TXN {
                        // Distinct page per (worker, txn, slot) with
                        // recognizable content, so replay counts are exact
                        // and after-images are distinguishable.
                        let id = (w * TXNS * PAGES_PER_TXN + txn_i * PAGES_PER_TXN + p) as u64;
                        image.fill((id % 251) as u8);
                        wal.log_page(txn, PageId(id), &image);
                    }
                    wal.commit(txn);
                }
            });
        }
    });
    let wall = t.elapsed();
    let stats = wal.stats();
    let batches = wal.batch_sizes();
    let mean_batch = if batches.is_empty() {
        0.0
    } else {
        batches.iter().sum::<u64>() as f64 / batches.len() as f64
    };
    RunOut {
        wall,
        stats,
        commits_per_s: stats.commits as f64 / wall.as_secs_f64().max(1e-9),
        mean_batch,
    }
}

fn json_row(label: &str, r: &RunOut) -> Json {
    Json::Obj(vec![
        ("run", Json::Str(label.into())),
        ("wall_s", Json::fixed(r.wall.as_secs_f64(), 6)),
        ("commits", Json::num(r.stats.commits)),
        ("commits_per_s", Json::fixed(r.commits_per_s, 1)),
        ("fsyncs", Json::num(r.stats.fsyncs)),
        ("records", Json::num(r.stats.records)),
        ("bytes", Json::num(r.stats.bytes)),
        ("segments", Json::num(r.stats.segments)),
        ("mean_batch", Json::fixed(r.mean_batch, 2)),
    ])
}

fn main() {
    let args = Args::from_env(&["--out", "--dir"]);
    let out_path = args.get("--out").unwrap_or("BENCH_wal.json");
    let (base, own_dir) = args.dir_or_temp("tfm_bench_wal");

    let each = run(&base.join("each"), SyncMode::EachCommit);
    let group = run(&base.join("group"), SyncMode::GroupCommit);
    let speedup = group.commits_per_s / each.commits_per_s.max(1e-9);

    // Recovery over the group run's log: every committed image lands,
    // nothing is skipped, and a second replay is a no-op image-wise.
    let committed_pages = (THREADS * TXNS * PAGES_PER_TXN) as u64;
    let disk = Disk::in_memory(PAGE_SIZE);
    let t = Instant::now();
    let report = recover(&base.join("group"), &disk).expect("recovery");
    let recovery_wall = t.elapsed();
    let image_of = |d: &Disk| -> Vec<u8> {
        let mut all = Vec::new();
        for p in 0..d.allocated_pages() {
            all.extend_from_slice(&d.read_page_vec(PageId(p)));
        }
        all
    };
    let first_image = image_of(&disk);
    let report2 = recover(&base.join("group"), &disk).expect("second recovery");
    let idempotent = image_of(&disk) == first_image && report2.pages_replayed == committed_pages;

    let gates = [
        ("group_commit_speedup_1_3x", speedup >= 1.3),
        ("group_fewer_fsyncs", group.stats.fsyncs < each.stats.fsyncs),
        ("group_batches_multiple_commits", group.mean_batch > 1.0),
        (
            "recovery_replays_all_committed",
            report.pages_replayed == committed_pages && report.commits == group.stats.commits,
        ),
        (
            "recovery_skips_nothing_clean",
            report.skipped_uncommitted == 0 && !report.torn_tail,
        ),
        ("recovery_idempotent", idempotent),
    ]
    .map(|(name, ok)| (name, Gate::from(ok)));

    let workload = Json::Obj(vec![
        ("threads", Json::num(THREADS)),
        ("txns_per_thread", Json::num(TXNS)),
        ("pages_per_txn", Json::num(PAGES_PER_TXN)),
        ("page_size", Json::num(PAGE_SIZE)),
        ("fsync_latency_ms", Json::num(FSYNC_LATENCY.as_millis())),
    ]);
    let recovery = Json::Obj(vec![
        ("wall_s", Json::fixed(recovery_wall.as_secs_f64(), 6)),
        ("pages_replayed", Json::num(report.pages_replayed)),
        ("commits", Json::num(report.commits)),
        ("skipped_uncommitted", Json::num(report.skipped_uncommitted)),
        ("max_lsn", Json::num(report.max_lsn)),
    ]);
    let rows = Json::Arr(vec![
        json_row("each-commit", &each),
        json_row("group-commit", &group),
    ]);
    gate::write_report(
        out_path,
        None,
        vec![
            ("workload", workload),
            ("group_commit_speedup", Json::fixed(speedup, 3)),
            ("recovery", recovery),
            ("rows", rows),
        ],
        &gates,
    );

    println!("== WAL: group commit vs per-commit fsync ==");
    println!(
        "each-commit {:.3}s ({:.0} commits/s, {} fsyncs) | group-commit {:.3}s \
         ({:.0} commits/s, {} fsyncs, mean batch {:.1})",
        each.wall.as_secs_f64(),
        each.commits_per_s,
        each.stats.fsyncs,
        group.wall.as_secs_f64(),
        group.commits_per_s,
        group.stats.fsyncs,
        group.mean_batch,
    );
    println!(
        "group-commit speedup {speedup:.2}x (gate >= 1.3x); recovery {:.3}s, {} pages",
        recovery_wall.as_secs_f64(),
        report.pages_replayed
    );
    if own_dir {
        std::fs::remove_dir_all(&base).ok();
    }
    gate::finish(&gates, out_path);
}
