//! Per-operation latency distributions (extension experiment).
//!
//! The paper reports throughput and mean handoff latency; a production
//! release also needs tails. This harness records every `insert` and
//! `extract_max` latency into an `obs` log-linear histogram, per queue,
//! under a mixed workload with a prefilled queue, and prints
//! p50/p99/p99.9.
//!
//! With `--metrics [path]` it additionally samples each queue's
//! `len_hint` into a time series and writes one merged
//! `results/ops_latency.metrics.json` covering per-queue histograms,
//! queue-internal counters (`ConcurrentPriorityQueue::metrics`), and
//! the process-wide sync/SMR substrate counters. The document's
//! `summary` block carries the perf-gate keys
//! (`<kind>/throughput_ops_per_s`, `<kind>/insert_p50_ns`, …,
//! `<kind>/est_rank_p99`) that `scripts/compare_bench.py` tracks
//! against `results/BENCH_ops_latency.json`.
//!
//! With `--trace [path]` (and a build carrying `--features obs-trace`)
//! the flight-recorder rings are exported as Chrome `trace_event` JSON
//! for chrome://tracing / Perfetto.
//!
//! With `--serve [addr]` (default `127.0.0.1:9898`; `:0` for an
//! ephemeral port, printed to stderr) a zero-dep HTTP listener exposes
//! the live run at `/metrics` (Prometheus text), `/snapshot.json` and
//! `/healthz` — point `zmsq-top` or `curl` at it while the bench runs.
//! `--serve-hold-ms N` keeps the listener up N ms after the last queue
//! finishes so slow scrapers (CI) still see the final state.
//!
//! Usage: ops_latency [--ops N] [--prefill N] [--threads T]
//!                    [--queues a,b,c] [--quick]
//!                    [--metrics \[path\]] [--trace \[path\]]
//!                    [--serve \[addr\]] [--serve-hold-ms N]

use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::cli::Args;
use bench::metrics::{argv_line, MetricsOut};
use bench::queues::make_queue;
use pq_traits::ConcurrentPriorityQueue;

fn main() {
    let args = Args::parse(&[
        "quick",
        "ops",
        "prefill",
        "threads",
        "queues",
        "metrics",
        "serve",
        "serve-hold-ms",
        "trace",
    ]);
    let quick = args.get_bool("quick");
    let ops: u64 = args.get_num("ops", if quick { 200_000 } else { 1_000_000 });
    let prefill: u64 = args.get_num("prefill", ops / 4);
    let threads: usize = args.get_num("threads", 2);
    let queues_arg = args.get(
        "queues",
        "zmsq,zmsq-array,zmsq-strict,mound,spraylist,multiqueue,coarse-heap",
    );
    let metrics = MetricsOut::from_args(&args, "ops_latency");
    let server = bench::metrics::serve_from_args(&args, "ops_latency");
    let serving = server.is_some();
    let observing = metrics.is_some() || serving;
    let mut all = obs::Snapshot::new();

    bench::csv_header(&[
        "queue", "op", "count", "mean_ns", "p50_ns", "p99_ns", "p999_ns", "max_ns",
    ]);
    for kind in queues_arg.split(',') {
        let kind = kind.trim();
        let q: Arc<dyn ConcurrentPriorityQueue<u64> + Send + Sync> =
            Arc::from(make_queue::<u64>(kind, threads));
        let ins = Arc::new(obs::Histogram::new());
        let ext = Arc::new(obs::Histogram::new());

        for i in 0..prefill {
            q.insert((i * 2654435761) % (1 << 20), i);
        }
        let sampler = observing.then(|| {
            let qs = Arc::clone(&q);
            obs::Sampler::start(
                &format!("{kind}/depth"),
                Duration::from_millis(5),
                &["len_hint"],
                move || vec![qs.len_hint() as f64],
            )
        });
        // Retained relaxation-quality series: p99 of the queue's live
        // `quality.est_rank` histogram, held in the fixed-memory
        // 2s/1m/1h tiers so `/metrics` scrapes see recent history.
        let rank_sampler = observing.then(|| {
            let qs = Arc::clone(&q);
            obs::Sampler::start_retained(
                &format!("{kind}/quality.est_rank"),
                Duration::from_millis(20),
                &["p99"],
                move || {
                    vec![qs
                        .metrics()
                        .and_then(|m| {
                            m.hist("quality.est_rank")
                                .filter(|h| h.count > 0)
                                .map(|h| h.quantile(0.99) as f64)
                        })
                        .unwrap_or(0.0)]
                },
            )
        });
        if serving {
            // Live view of the queue currently under test: its internal
            // metrics (incl. `quality.est_rank` and `queue.sojourn_ns`)
            // plus the in-flight per-op latency histograms, namespaced
            // exactly like the final `--metrics` document.
            let (qs, ins_h, ext_h) = (Arc::clone(&q), Arc::clone(&ins), Arc::clone(&ext));
            let prefix = format!("{kind}/");
            bench::metrics::set_live_source(move || {
                let mut s = obs::Snapshot::new();
                if let Some(qm) = qs.metrics() {
                    s.merge_prefixed(&prefix, qm);
                }
                s.push_hist(&format!("{prefix}insert_ns"), &ins_h);
                s.push_hist(&format!("{prefix}extract_ns"), &ext_h);
                s
            });
        }
        let per_thread = ops / threads as u64;
        let t_wall = Instant::now();
        std::thread::scope(|s| {
            for t in 0..threads as u64 {
                let (q, ins, ext) = (&q, &ins, &ext);
                s.spawn(move || {
                    let mut x = 0x9E37 + t;
                    for i in 0..per_thread {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        if i % 2 == 0 {
                            let t0 = Instant::now();
                            q.insert(x % (1 << 20), x);
                            ins.record_duration(t0.elapsed());
                        } else {
                            let t0 = Instant::now();
                            let got = q.extract_max();
                            ext.record_duration(t0.elapsed());
                            std::hint::black_box(got);
                        }
                    }
                });
            }
        });
        let wall = t_wall.elapsed();

        let name = q.name();
        for (op, h) in [("insert", &ins), ("extract", &ext)] {
            println!(
                "{name},{op},{},{:.0},{},{},{},{}",
                h.count(),
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.99),
                h.quantile(0.999),
                h.max()
            );
        }
        // Stop the samplers even when only serving (no `--metrics`):
        // their threads capture the queue and must not outlive the kind.
        let depth_series = sampler.map(|s| s.stop());
        let rank_series = rank_sampler.map(|(s, _retain)| s.stop());
        if metrics.is_some() {
            all.push_hist(&format!("{kind}/insert_ns"), &ins);
            all.push_hist(&format!("{kind}/extract_ns"), &ext);
            if let Some(qm) = q.metrics() {
                all.merge_prefixed(&format!("{kind}/"), qm);
            }
            if let Some(s) = depth_series {
                all.push_series(s);
            }
            if let Some(s) = rank_series {
                all.push_series(s);
            }
            // Perf-gate summary: stable per-kind keys compare_bench.py
            // reads across runs.
            let tput = ops as f64 / wall.as_secs_f64();
            all.push_summary(&format!("{kind}/throughput_ops_per_s"), tput);
            for (op, h) in [("insert", &ins), ("extract", &ext)] {
                all.push_summary(&format!("{kind}/{op}_p50_ns"), h.quantile(0.50) as f64);
                all.push_summary(&format!("{kind}/{op}_p99_ns"), h.quantile(0.99) as f64);
            }
            bench::metrics::push_rank_summary(&mut all, &format!("{kind}/"));
        }
    }

    if let Some(out) = metrics {
        all.push_meta("threads", &threads.to_string());
        all.push_meta("ops_per_queue", &ops.to_string());
        if let Err(e) = out.write(all, "ops_latency", &argv_line()) {
            eprintln!("metrics: write failed: {e}");
            std::process::exit(1);
        }
    }
    bench::metrics::export_trace(&args, "ops_latency");

    if let Some(server) = server {
        let hold: u64 = args.get_num("serve-hold-ms", 0);
        if hold > 0 {
            eprintln!("serve: holding listener for {hold} ms after run");
            std::thread::sleep(Duration::from_millis(hold));
        }
        server.stop();
    }
}
