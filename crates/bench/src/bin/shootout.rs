//! Rank-error-vs-throughput Pareto shootout (extension experiment).
//!
//! Sweeps the tunable relaxed queues (`zmsq-sharded`,
//! `zmsq-sharded-adaptive`, `multiqueue`) across stickiness run lengths
//! and operation-buffer depths — the two "Engineering MultiQueues"
//! optimizations — and reports, per configuration, throughput (from the
//! harness clock) and rank-error p99 (from the live `quality.est_rank`
//! estimator each queue carries). The cheap rank axis is cross-checked
//! once per run against the exact `RankOracle` on one mid-sweep
//! configuration, so the sweep itself never pays oracle costs.
//!
//! The final CSV marks each configuration on or off the Pareto front
//! (no other configuration has both higher throughput and lower rank
//! p99). With `--metrics [path]` the per-config summary keys
//! (`<base>.c<c>.b<k>/throughput_ops_per_s`, `…/est_rank_p99`) feed
//! `scripts/compare_bench.py` against `results/BENCH_shootout.json`.
//!
//! With `--assert` the run additionally enforces:
//! * conservation per configuration (prefill + inserts == extracted +
//!   drained, after a `flush()`),
//! * the estimator-vs-oracle bound on the cross-checked configuration:
//!   the *shard-scaled* `est_rank` p99 (per-shard estimate × shard
//!   count, see DESIGN.md "Stickiness & operation buffers") within 2x
//!   of the oracle's global p99, ± small-count slack — the same bound
//!   `workloads::quality::tuned_estimator_vs_oracle` validates in
//!   tests, at the same fixed reference scale.
//!
//! Usage: shootout [--ops N] [--prefill N] [--threads T]
//!                 [--bases a,b,c] [--stickiness 0,8,64]
//!                 [--buffers 0,16,64] [--quick] [--assert]
//!                 [--metrics \[path\]]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bench::cli::Args;
use bench::metrics::{argv_line, MetricsOut};
use bench::queues::{make_tuned_queue, SHOOTOUT_BASES};
use pq_traits::ConcurrentPriorityQueue;
use workloads::oracle::RankOracle;

/// One swept configuration's outcome.
struct Outcome {
    label: String,
    throughput: f64,
    rank_p99: Option<f64>,
}

fn parse_list(s: &str) -> Vec<usize> {
    s.split(',')
        .map(|t| t.trim().parse().expect("numeric sweep list"))
        .collect()
}

/// Mixed insert/extract workload over `threads`; returns (throughput,
/// inserted, extracted) — extraction successes only.
fn run_workload(
    q: &Arc<dyn ConcurrentPriorityQueue<u64> + Send + Sync>,
    ops: u64,
    threads: usize,
    oracle: Option<&RankOracle>,
) -> (f64, u64, u64) {
    let inserted = AtomicU64::new(0);
    let extracted = AtomicU64::new(0);
    let per_thread = ops / threads as u64;
    // Only this many operations actually execute (integer division
    // truncates); using the raw `ops` would inflate the reported
    // throughput whenever `ops % threads != 0`.
    let total_ops = per_thread * threads as u64;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            let (q, inserted, extracted) = (q, &inserted, &extracted);
            s.spawn(move || {
                let mut x = 0x9E37_79B9 + t;
                let (mut ins, mut ext) = (0u64, 0u64);
                for i in 0..per_thread {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    if i % 2 == 0 {
                        let key = x % (1 << 20);
                        if let Some(o) = oracle {
                            o.note_insert(key);
                        }
                        q.insert(key, x);
                        ins += 1;
                    } else {
                        let got = q.extract_max();
                        if let Some((k, _)) = got {
                            if let Some(o) = oracle {
                                o.note_extract(k);
                            }
                            ext += 1;
                        }
                    }
                }
                inserted.fetch_add(ins, Ordering::Relaxed);
                extracted.fetch_add(ext, Ordering::Relaxed);
            });
        }
    });
    let wall = t0.elapsed();
    (
        total_ops as f64 / wall.as_secs_f64(),
        inserted.into_inner(),
        extracted.into_inner(),
    )
}

/// Drain the queue to empty (after `flush()`), returning the count.
fn drain(q: &dyn ConcurrentPriorityQueue<u64>, oracle: Option<&RankOracle>) -> u64 {
    q.flush();
    let mut n = 0;
    while let Some((k, _)) = q.extract_max() {
        if let Some(o) = oracle {
            o.note_extract(k);
        }
        n += 1;
    }
    n
}

fn main() {
    let args = Args::parse(&[
        "quick",
        "ops",
        "prefill",
        "threads",
        "assert",
        "bases",
        "stickiness",
        "buffers",
        "metrics",
    ]);
    let quick = args.get_bool("quick");
    let ops: u64 = args.get_num("ops", if quick { 60_000 } else { 400_000 });
    let prefill: u64 = args.get_num("prefill", ops / 4);
    let threads: usize = args.get_num("threads", 4);
    let do_assert = args.get_bool("assert");
    let bases_arg = args.get("bases", &SHOOTOUT_BASES.join(","));
    let sticks = parse_list(&args.get("stickiness", "0,8,64"));
    let buffers = parse_list(&args.get("buffers", "0,16,64"));
    let metrics = MetricsOut::from_args(&args, "shootout");
    let mut all = obs::Snapshot::new();

    bench::csv_header(&[
        "base",
        "stickiness",
        "buffer",
        "throughput_ops_per_s",
        "est_rank_p99",
        "pareto",
    ]);

    let mut outcomes: Vec<Outcome> = Vec::new();
    for base in bases_arg.split(',').map(str::trim) {
        for &c in &sticks {
            for &k in &buffers {
                let label = format!("{base}.c{c}.b{k}");
                let q: Arc<dyn ConcurrentPriorityQueue<u64> + Send + Sync> =
                    Arc::from(make_tuned_queue::<u64>(base, threads, c, k, k));
                for i in 0..prefill {
                    q.insert((i * 2654435761) % (1 << 20), i);
                }
                let (tput, inserted, extracted) = run_workload(&q, ops, threads, None);
                let drained = drain(q.as_ref(), None);
                if do_assert {
                    assert_eq!(
                        prefill + inserted,
                        extracted + drained,
                        "{label}: conservation violated"
                    );
                }
                // Rank axis: p99 of the live estimator histogram,
                // accumulated over workload + drain.
                let rank_p99 = q.metrics().and_then(|m| {
                    m.hist("quality.est_rank")
                        .filter(|h| h.count > 0)
                        .map(|h| h.quantile(0.99) as f64)
                });
                if metrics.is_some() {
                    if let Some(qm) = q.metrics() {
                        all.merge_prefixed(&format!("{label}/"), qm);
                    }
                    all.push_summary(&format!("{label}/throughput_ops_per_s"), tput);
                    bench::metrics::push_rank_summary(&mut all, &format!("{label}/"));
                }
                eprintln!(
                    "ran {label}: {tput:.0} ops/s, rank p99 {}",
                    rank_p99.map_or_else(|| "-".into(), |r| format!("{r:.0}"))
                );
                outcomes.push(Outcome {
                    label,
                    throughput: tput,
                    rank_p99,
                });
            }
        }
    }

    // Pareto front: a configuration is dominated when some other one has
    // strictly better throughput AND no worse rank p99 (missing rank =
    // worst). Ties survive.
    let rank_of = |o: &Outcome| o.rank_p99.unwrap_or(f64::MAX);
    let on_front: Vec<bool> = outcomes
        .iter()
        .map(|o| {
            !outcomes.iter().any(|p| {
                p.throughput > o.throughput && rank_of(p) <= rank_of(o)
                    || p.throughput >= o.throughput && rank_of(p) < rank_of(o)
            })
        })
        .collect();
    for (o, &front) in outcomes.iter().zip(&on_front) {
        let (base, rest) = o.label.split_once(".c").expect("label shape");
        let (c, b) = rest.split_once(".b").expect("label shape");
        println!(
            "{base},{c},{b},{:.0},{},{}",
            o.throughput,
            o.rank_p99.map_or_else(|| "-".into(), |r| format!("{r:.0}")),
            if front { "yes" } else { "no" }
        );
    }
    eprintln!(
        "pareto front ({} of {} configs):",
        { on_front.iter().filter(|&&f| f).count() },
        outcomes.len()
    );
    for (o, &front) in outcomes.iter().zip(&on_front) {
        if front {
            eprintln!(
                "  {}  {:.0} ops/s @ rank p99 {}",
                o.label,
                o.throughput,
                o.rank_p99.map_or_else(|| "-".into(), |r| format!("{r:.0}"))
            );
        }
    }

    // Oracle cross-check: one mid-sweep tuned ShardedZmsq configuration,
    // single-pass, exact shadow-multiset ranks vs the live estimator.
    let (oc, ok) = (
        sticks.get(sticks.len() / 2).copied().unwrap_or(8),
        buffers.get(buffers.len() / 2).copied().unwrap_or(16),
    );
    let oracle = RankOracle::new();
    let q: Arc<dyn ConcurrentPriorityQueue<u64> + Send + Sync> =
        Arc::from(make_tuned_queue::<u64>("zmsq-sharded", threads, oc, ok, ok));
    // Fixed reference scale and a single worker, independent of the
    // sweep's `--ops`: the cross-check validates the *estimator*
    // against the exact oracle, and the 2x envelope is not
    // scale-invariant — per-shard sampling lags the global hand-out
    // rank further as the population (and with it the tuned
    // configuration's absolute relaxation) grows, and scheduler noise
    // on an oversubscribed box inflates the oracle side. The sweep
    // above measures the multithreaded behaviour at the requested
    // scale; this deterministic pass measures telemetry fidelity at a
    // calibrated point.
    let (xc_ops, xc_prefill) = (60_000u64, 15_000u64);
    for i in 0..xc_prefill {
        let key = (i * 2654435761) % (1 << 20);
        oracle.note_insert(key);
        q.insert(key, i);
    }
    let _ = run_workload(&q, xc_ops, 1, Some(&oracle));
    let _ = drain(q.as_ref(), Some(&oracle));
    let exact_p99 = oracle.rank_quantile(0.99).unwrap_or(0) as f64;
    let est_p99 = q.metrics().and_then(|m| {
        m.hist("quality.est_rank")
            .filter(|h| h.count > 0)
            .map(|h| h.quantile(0.99) as f64)
    });
    // `quality.est_rank` is a *per-shard* estimate taken where elements
    // cross the shard's publication boundary; the oracle measures the
    // *global* hand-out rank. With elements spread roughly evenly, the
    // global rank of a shard-rank-r element is ≈ r × shards, so the 2x
    // envelope (same shape as `workloads::quality`) applies to the
    // scaled estimate.
    let xc_shards = (threads.max(2) / 2) as f64; // mirrors make_tuned_queue
    eprintln!(
        "oracle cross-check (zmsq-sharded.c{oc}.b{ok}): exact p99 {exact_p99:.0}, estimator p99 {} (x{xc_shards:.0} shards)",
        est_p99.map_or_else(|| "-".into(), |e| format!("{e:.0}"))
    );
    if do_assert {
        let est = est_p99.expect("estimator produced no samples for the cross-check");
        let scaled = est * xc_shards;
        assert!(
            scaled <= exact_p99 * 2.0 + 64.0 && scaled >= exact_p99 / 2.0 - 64.0,
            "estimator p99 {est} x {xc_shards} shards = {scaled} outside 2x envelope of oracle p99 {exact_p99}"
        );
        eprintln!("assert: conservation and oracle envelope held");
    }

    if let Some(out) = metrics {
        all.push_meta("threads", &threads.to_string());
        all.push_meta("ops_per_config", &ops.to_string());
        all.push_meta("prefill", &prefill.to_string());
        all.push_meta("oracle.config", &format!("zmsq-sharded.c{oc}.b{ok}"));
        all.push_meta("oracle.exact_rank_p99", &format!("{exact_p99:.0}"));
        if let Some(est) = est_p99 {
            all.push_meta("oracle.est_rank_p99", &format!("{est:.0}"));
        }
        if let Err(e) = out.write(all, "shootout", &argv_line()) {
            eprintln!("metrics: write failed: {e}");
            std::process::exit(1);
        }
    }
}
