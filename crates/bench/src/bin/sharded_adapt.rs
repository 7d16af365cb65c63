//! Phased smoke bench for the adaptive sharded runtime.
//!
//! Drives a `ShardedZmsq` through alternating contention phases and
//! reports, per `(shards, adaptive)` configuration and phase, the
//! throughput and where the per-shard refill batch ended up:
//!
//! * `mixed50` — all threads, 50/50 insert/extract: the headline
//!   throughput row (4-shard adaptive vs 1-shard fixed is the ISSUE's
//!   acceptance comparison).
//! * `low1` / `low2` — a single thread, 50/50: zero root contention, so
//!   the adaptive controller must walk the batch down to `batch_min`
//!   (deterministic — `--assert` enforces it).
//! * `high` — all threads, extract-heavy (3 extracts per insert): pool
//!   refills race, and on parallel hardware the controller widens the
//!   batch (visible in `batch_end` / `widens`, and in the
//!   `zmsq.batch.current` series when `--metrics` is given).
//!
//! ```text
//! sharded_adapt [--shards 1,4] [--adaptive on|off|both]
//!               [--threads N] [--ops N] [--prefill N]
//!               [--quick] [--assert] [--metrics [path]]
//! ```
//!
//! With `--metrics`, the final configuration's queue snapshot (including
//! the `zmsq.shard.*` gauges) is written as JSON, with one
//! `batch.s<shards>.<on|off>` series per configuration sampling the mean
//! effective batch over time. The `summary` block carries the perf-gate
//! keys (`s<shards>.<on|off>.throughput_ops_per_s` for the mixed50
//! phase, `est_rank_p99` from the last configuration's quality fold)
//! that `scripts/compare_bench.py` tracks against
//! `results/BENCH_sharded_adapt.json`. `--trace [path]` exports a
//! Chrome trace on `obs-trace` builds.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::cli::Args;
use bench::metrics::MetricsOut;
use pq_traits::ConcurrentPriorityQueue;
use zmsq::{ShardedZmsq, ZmsqConfig};

/// One workload phase. `extracts_per_insert = 1` is the 50/50 mix; `3`
/// is the extract-heavy contention phase. Returns elapsed seconds.
fn run_phase(
    q: &ShardedZmsq<u64>,
    threads: usize,
    ops_per_thread: u64,
    extracts_per_insert: u64,
) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            s.spawn(move || {
                let mut x = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let mut out = Vec::with_capacity(8);
                for i in 0..ops_per_thread {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    if i % (extracts_per_insert + 1) == 0 {
                        q.insert(x % 1_000_000, i);
                    } else if i % 97 == 0 {
                        // Exercise the batched claim path too.
                        out.clear();
                        q.extract_batch(&mut out, 8);
                    } else {
                        std::hint::black_box(q.extract_max());
                    }
                }
            });
        }
    });
    t0.elapsed().as_secs_f64()
}

struct PhaseRow {
    phase: &'static str,
    threads: usize,
    ops: u64,
    secs: f64,
    batch_end: usize,
}

fn main() {
    let args = Args::parse(&[
        "quick", "shards", "adaptive", "threads", "ops", "prefill", "assert", "metrics", "trace",
    ]);
    let quick = args.get_bool("quick");
    let shards_list = args.get_list("shards", &[1, 4]);
    let adaptive_mode = args.get("adaptive", "both");
    let threads: usize = args.get_num("threads", 4);
    let ops: u64 = args.get_num("ops", if quick { 30_000 } else { 400_000 });
    let prefill: u64 = args.get_num("prefill", ops.max(20_000));
    let do_assert = args.get_bool("assert");
    let metrics = MetricsOut::from_args(&args, "sharded_adapt");

    let adaptive_arms: &[bool] = match adaptive_mode.as_str() {
        "on" | "true" | "1" => &[true],
        "off" | "false" | "0" => &[false],
        _ => &[false, true],
    };

    // Adaptive range: start mid-range so both directions are visible.
    const BATCH_MIN: usize = 4;
    const BATCH_START: usize = 16;
    const BATCH_MAX: usize = 64;

    bench::csv_header(&[
        "queue",
        "shards",
        "adaptive",
        "phase",
        "threads",
        "ops_total",
        "secs",
        "mops",
        "batch_end",
        "widens",
        "narrows",
    ]);

    let mut failures: Vec<String> = Vec::new();
    let mut all_series: Vec<obs::Series> = Vec::new();
    let mut last_snapshot: Option<obs::Snapshot> = None;
    let mut mixed_mops: Vec<(usize, bool, f64)> = Vec::new();

    for &shards in &shards_list {
        for &adaptive in adaptive_arms {
            let cfg = if adaptive {
                ZmsqConfig::default()
                    .batch(BATCH_START)
                    .adaptive_batch(BATCH_MIN, BATCH_MAX)
            } else {
                ZmsqConfig::default().batch(BATCH_START)
            };
            let q: Arc<ShardedZmsq<u64>> = Arc::new(ShardedZmsq::new(shards, cfg));
            let name = ConcurrentPriorityQueue::name(&*q);

            // Prefill through the scatter path so extraction phases
            // start against a populated queue on every shard.
            let mut seed: Vec<(u64, u64)> = (0..prefill).map(|i| (i % 1_000_000, i)).collect();
            q.insert_batch(&mut seed);

            // Sample the mean effective batch while the phases run.
            let sampler = metrics.is_some().then(|| {
                let probe_q = Arc::clone(&q);
                obs::Sampler::start(
                    &format!("batch.s{}.{}", shards, if adaptive { "on" } else { "off" }),
                    Duration::from_millis(2),
                    &["mean_batch"],
                    move || vec![probe_q.mean_batch() as f64],
                )
            });

            let phases = [
                ("mixed50", threads, ops, 1u64),
                ("low1", 1, ops / 2, 1),
                ("high", threads, ops, 3),
                ("low2", 1, ops / 2, 1),
            ];
            let mut rows = Vec::new();
            for (phase, t, per_thread, epi) in phases {
                let secs = run_phase(&q, t, per_thread, epi);
                rows.push(PhaseRow {
                    phase,
                    threads: t,
                    ops: per_thread * t as u64,
                    secs,
                    batch_end: q.mean_batch(),
                });
            }
            if let Some(s) = sampler {
                all_series.push(s.stop());
            }

            let snap = ConcurrentPriorityQueue::metrics(&*q).expect("sharded queue has metrics");
            let widens = snap.counter("zmsq.batch.widens").unwrap_or(0);
            let narrows = snap.counter("zmsq.batch.narrows").unwrap_or(0);
            for r in &rows {
                let mops = r.ops as f64 / r.secs / 1e6;
                println!(
                    "{name},{shards},{},{},{},{},{:.3},{mops:.3},{},{widens},{narrows}",
                    adaptive as u8, r.phase, r.threads, r.ops, r.secs, r.batch_end
                );
                if r.phase == "mixed50" {
                    mixed_mops.push((shards, adaptive, mops));
                }
            }

            if do_assert && adaptive {
                // Deterministic: a single-threaded phase has zero root
                // contention, so the controller must have narrowed to
                // batch_min by the end of each low phase.
                for r in rows.iter().filter(|r| r.phase.starts_with("low")) {
                    if r.batch_end != BATCH_MIN {
                        failures.push(format!(
                            "{name}: phase {} ended with batch {} (want batch_min {})",
                            r.phase, r.batch_end, BATCH_MIN
                        ));
                    }
                }
                if narrows == 0 {
                    failures.push(format!("{name}: controller never narrowed"));
                }
            }
            last_snapshot = Some(snap);
        }
    }

    // The ISSUE's throughput comparison, reported for the human reading
    // the CSV (not asserted: a single-core CI runner serializes threads
    // and the sharded arm's win margin vanishes into scheduling noise).
    if let (Some(base), Some(best)) = (
        mixed_mops
            .iter()
            .find(|&&(s, a, _)| s == 1 && !a)
            .or(mixed_mops.iter().find(|&&(s, _, _)| s == 1)),
        mixed_mops
            .iter()
            .filter(|&&(s, _, _)| s > 1)
            .max_by(|a, b| a.2.total_cmp(&b.2)),
    ) {
        eprintln!(
            "mixed50: best multi-shard {:.3} Mops ({} shards, adaptive={}) vs 1-shard {:.3} Mops",
            best.2, best.0, best.1, base.2
        );
    }

    if let Some(out) = metrics {
        let mut snap = last_snapshot.unwrap_or_default();
        for s in all_series {
            snap.push_series(s);
        }
        // Perf-gate summary: the headline mixed-phase throughput per
        // configuration, plus the estimated rank-error p99 of the last
        // configuration's quality fold.
        for (shards, adaptive, mops) in &mixed_mops {
            snap.push_summary(
                &format!(
                    "s{shards}.{}.throughput_ops_per_s",
                    if *adaptive { "on" } else { "off" }
                ),
                mops * 1e6,
            );
        }
        bench::metrics::push_rank_summary(&mut snap, "");
        out.write(snap, "sharded_adapt", &bench::metrics::argv_line())
            .expect("write metrics JSON");
    }
    bench::metrics::export_trace(&args, "sharded_adapt");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("ASSERTION FAILED: {f}");
        }
        std::process::exit(1);
    }
}
