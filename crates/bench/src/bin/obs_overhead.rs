//! Single-threaded overhead microbench for the `obs` substrate.
//!
//! The observability layer's contract is that always-on recording is
//! nearly free. This harness measures a fixed single-threaded
//! insert/extract workload on a default ZMSQ in three arms —
//!
//! * `bare` — rank and sojourn telemetry detached
//!   (`no_rank_estimator()`), no extra recording: the baseline.
//! * `counter+hist` — bare plus one striped-counter `incr` and one
//!   log-linear histogram `record` per pair (the original ≤5% budget).
//! * `telemetry` — the default config: the `RankEstimator`'s one
//!   sampled table (shift 6: ~1/64 of keys stamped at insert; a sampled
//!   extract scans the table for the rank estimate and records the
//!   sojourn; every other op is one multiply+branch). Same ≤5% budget.
//!
//! — and reports each arm's marginal overhead over `bare`. Every trial
//! builds a fresh `bare` queue and a fresh `telemetry` queue and runs the
//! three arms in an order that rotates from trial to trial; `bare` and
//! `counter+hist` alternate on the same queue. Per-queue state (tree
//! shape, pool ring, heap placement) is thereby redrawn each trial
//! instead of biasing one arm for the whole run, and the per-arm medians
//! damp frequency drift.
//!
//! The span layer has a stronger contract: compiled out entirely
//! without `--features obs-trace`. On such builds this bench asserts
//! `obs::SpanGuard` is zero-sized and has no drop glue, so every
//! `span!` call site in the queue hot paths is provably free.
//!
//! Usage: obs_overhead [--ops N] [--trials T] [--budget PCT] [--assert]
//!                     [--quick]
//!
//! `--assert` exits nonzero when any arm's marginal overhead exceeds
//! the budget (default 5%); without it the run is report-only.

use std::time::Instant;

use bench::cli::Args;
use zmsq::{Zmsq, ZmsqConfig};

static COUNTER: obs::Counter = obs::Counter::new();
static HIST: obs::Histogram = obs::Histogram::new();

/// Run `ops` hold-model pairs (extract the best, insert it back minus a
/// pseudo-random 20-bit decrement), returning ns per pair. The queue's
/// key distribution is stationary under this stream, so a trial measures
/// the same queue state however many pairs ran before it.
fn run_trial(q: &Zmsq<u64>, ops: u64, instrumented: bool) -> f64 {
    let t = Instant::now();
    for i in 0..ops {
        let (k, v) = q.extract_max().expect("the queue stays prefilled");
        let k = k.saturating_sub(i.wrapping_mul(2654435761) % (1 << 20));
        q.insert(k, v);
        if instrumented {
            COUNTER.incr();
            HIST.record(k);
        }
    }
    t.elapsed().as_nanos() as f64 / ops as f64
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// A queue with `cfg`, prefilled with `ops / 4` keys and warmed with
/// `ops / 10` uninstrumented pairs.
fn fresh_queue(cfg: ZmsqConfig, ops: u64) -> Zmsq<u64> {
    let q = Zmsq::with_config(cfg);
    for i in 0..ops / 4 {
        q.insert((1 << 40) + (i * 2654435761) % (1 << 20), i);
    }
    run_trial(&q, ops / 10, false);
    q
}

fn main() {
    let args = Args::parse(&["quick", "ops", "trials", "budget", "assert"]);
    let quick = args.get_bool("quick");
    let ops: u64 = args.get_num("ops", if quick { 150_000 } else { 1_000_000 });
    let trials: usize = args.get_num("trials", if quick { 5 } else { 9 });
    let budget: f64 = args.get_num("budget", 5.0);

    // The span layer must be a provable no-op when compiled out: a
    // zero-sized guard with no drop glue means the optimizer erases
    // every `span!` scope in the queue hot paths.
    if !obs::TRACE_ENABLED {
        assert_eq!(
            std::mem::size_of::<obs::SpanGuard>(),
            0,
            "SpanGuard must be zero-sized without obs-trace"
        );
        assert!(
            !std::mem::needs_drop::<obs::SpanGuard>(),
            "SpanGuard must have no drop glue without obs-trace"
        );
    } else {
        eprintln!("note: obs-trace build — span recording is compiled in and counted in `bare`");
    }

    // Page in the recording statics before the first timed trial.
    run_trial(&fresh_queue(ZmsqConfig::default(), 1_000), 1_000, true);

    let (mut bare, mut inst, mut tel) = (Vec::new(), Vec::new(), Vec::new());
    for trial in 0..trials {
        let q_bare = fresh_queue(ZmsqConfig::default().no_rank_estimator(), ops);
        let q_tel = fresh_queue(ZmsqConfig::default(), ops);
        for arm in 0..3 {
            match (arm + trial) % 3 {
                0 => bare.push(run_trial(&q_bare, ops, false)),
                1 => inst.push(run_trial(&q_bare, ops, true)),
                _ => tel.push(run_trial(&q_tel, ops, false)),
            }
        }
        // The telemetry arm must actually have sampled and matched: at
        // shift 6 over a trial's inserts the expected sample count is in
        // the thousands, so zero means the hooks are disconnected, not
        // that the notes are fast.
        let est = q_tel
            .rank_estimator()
            .expect("default config must carry the telemetry table");
        let (sampled_inserts, stored, _, sampled_extracts, matched, ..) = est.counters();
        assert!(
            sampled_inserts > 0 && stored > 0 && sampled_extracts > 0 && matched > 0,
            "telemetry arm never sampled (inserts {sampled_inserts}, stored {stored}, \
             extracts {sampled_extracts}, matched {matched})"
        );
    }
    let (bare, inst, tel) = (median(&mut bare), median(&mut inst), median(&mut tel));
    let inst_pct = (inst - bare) / bare * 100.0;
    let tel_pct = (tel - bare) / bare * 100.0;

    bench::csv_header(&["variant", "ns_per_pair", "overhead_pct"]);
    println!("bare,{bare:.1},0.0");
    println!("counter+hist,{inst:.1},{inst_pct:.2}");
    println!("telemetry,{tel:.1},{tel_pct:.2}");
    std::hint::black_box((COUNTER.get(), HIST.snapshot().count));

    if args.get_bool("assert") {
        let mut failed = false;
        for (variant, pct, ns) in [
            ("counter+hist", inst_pct, inst),
            ("telemetry", tel_pct, tel),
        ] {
            if pct > budget {
                eprintln!(
                    "{variant} overhead {pct:.2}% exceeds the {budget:.1}% budget \
                     (bare {bare:.1} ns/pair, {variant} {ns:.1} ns/pair)"
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
