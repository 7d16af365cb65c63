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
//! — and reports each arm's marginal overhead over `bare`. Medians over
//! interleaved trials damp frequency drift.
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

/// Run `ops` insert/extract pairs, returning ns per pair.
fn run_trial(q: &Zmsq<u64>, ops: u64, instrumented: bool) -> f64 {
    let t = Instant::now();
    for i in 0..ops {
        let k = (i.wrapping_mul(2654435761)) % (1 << 20);
        q.insert(k, i);
        std::hint::black_box(q.extract_max());
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

fn prefill(q: &Zmsq<u64>, n: u64) {
    for i in 0..n {
        q.insert((i * 2654435761) % (1 << 20), i);
    }
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

    let q_bare: Zmsq<u64> = Zmsq::with_config(ZmsqConfig::default().no_rank_estimator());
    let q_tel: Zmsq<u64> = Zmsq::with_config(ZmsqConfig::default());
    assert!(
        q_tel.rank_estimator().is_some(),
        "default config must carry the telemetry table"
    );
    prefill(&q_bare, ops / 4);
    prefill(&q_tel, ops / 4);
    // Warm every path (page in the statics, settle the pools).
    run_trial(&q_bare, ops / 10, false);
    run_trial(&q_bare, ops / 10, true);
    run_trial(&q_tel, ops / 10, false);

    let (mut bare, mut inst, mut tel) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..trials {
        bare.push(run_trial(&q_bare, ops, false));
        inst.push(run_trial(&q_bare, ops, true));
        tel.push(run_trial(&q_tel, ops, false));
    }
    let (bare, inst, tel) = (median(&mut bare), median(&mut inst), median(&mut tel));
    let inst_pct = (inst - bare) / bare * 100.0;
    let tel_pct = (tel - bare) / bare * 100.0;

    // The telemetry arm must actually have sampled and matched: at
    // shift 6 over ~1M+ inserts the expected sample count is in the
    // tens of thousands, so zero means the hooks are disconnected, not
    // that the notes are fast.
    let (sampled_inserts, stored, _, sampled_extracts, matched, ..) =
        q_tel.rank_estimator().unwrap().counters();
    assert!(
        sampled_inserts > 0 && stored > 0 && sampled_extracts > 0 && matched > 0,
        "telemetry arm never sampled (inserts {sampled_inserts}, stored {stored}, \
         extracts {sampled_extracts}, matched {matched})"
    );

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
