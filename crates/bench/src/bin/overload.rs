//! Overload-resilience bench: open-loop arrival above service rate
//! against a capacity-bounded queue, one phase per [`ShedPolicy`].
//!
//! Producers insert as fast as they can; consumers are throttled with a
//! fixed per-extract service spin, so offered load sits well above the
//! service rate and the queue saturates at its capacity bound. Each
//! phase reports what the policy did with the excess — parked producers
//! (`Block`), refused arrivals (`Reject`), or evicted low-priority
//! elements (`ShedLowest`) — plus the insert-side latency distribution
//! (for `Block` this includes park time: the backpressure the producer
//! actually feels) and the conservation identity
//! `admitted == extracted + evicted` checked after a full drain.
//!
//! A [`obs::Watchdog`] runs across every phase with an extraction
//! progress probe and an occupancy gauge; its snapshot (the
//! `watchdog.*` gauges) is merged into the `--metrics` JSON alongside
//! the per-policy `queue.shed.*` counters, `queue.pressure.*` gauges
//! and an occupancy time [`obs::Series`].
//!
//! With `--serve [addr]` (default `127.0.0.1:9898`) a zero-dep HTTP
//! listener exposes the phase currently running at `/metrics`
//! (Prometheus text), `/snapshot.json` and `/healthz`; the occupancy
//! sampler is additionally retained in fixed-memory 2s/1m/1h tiers so
//! scrapes see recent history. `--serve-hold-ms N` keeps the listener
//! up N ms after the last phase.
//!
//! ```text
//! overload [--producers N] [--consumers N] [--capacity N] [--ops N]
//!          [--service-ns N] [--policies block,reject,shed]
//!          [--quick] [--assert] [--metrics [path]]
//!          [--serve [addr]] [--serve-hold-ms N]
//! ```
//!
//! CSV columns: policy, producers, consumers, capacity, secs, arrivals,
//! admitted, extracted, rejected, evicted, shed_ratio, p50_insert_ns,
//! p99_insert_ns, max_occupancy.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::cli::Args;
use bench::metrics::MetricsOut;
use pq_traits::ConcurrentPriorityQueue;
use zmsq::{ShedPolicy, Zmsq, ZmsqConfig};

/// Spin for roughly `ns` nanoseconds of useful-work stand-in. Busy
/// waiting (not sleeping) so the service rate stays meaningful on
/// machines where short sleeps round up to a timer tick.
fn service_spin(ns: u64) {
    let t0 = Instant::now();
    while (t0.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

struct PhaseResult {
    policy: &'static str,
    secs: f64,
    arrivals: u64,
    admitted: u64,
    extracted: u64,
    rejected: u64,
    evicted: u64,
    shed_ratio: f64,
    p50_ns: u64,
    p99_ns: u64,
    max_occupancy: i64,
    snapshot: obs::Snapshot,
    series: Option<obs::Series>,
    watchdog: obs::Snapshot,
}

#[allow(clippy::too_many_arguments)]
fn run_phase(
    policy: ShedPolicy,
    policy_name: &'static str,
    producers: usize,
    consumers: usize,
    capacity: usize,
    ops_per_producer: u64,
    service_ns: u64,
    with_series: bool,
    serving: bool,
) -> PhaseResult {
    let q: Arc<Zmsq<u64>> = Arc::new(Zmsq::with_config(
        ZmsqConfig::default().capacity(capacity).shed_policy(policy),
    ));
    let insert_lat = Arc::new(obs::Histogram::new());
    if serving {
        // Live view of the phase in flight, namespaced exactly like the
        // final `--metrics` document (`overload.<policy>.<metric>`).
        let (qs, lat) = (Arc::clone(&q), Arc::clone(&insert_lat));
        let prefix = format!("overload.{policy_name}.");
        bench::metrics::set_live_source(move || {
            let mut s = obs::Snapshot::new();
            if let Some(qm) = ConcurrentPriorityQueue::metrics(&*qs) {
                s.merge_prefixed(&prefix, qm);
            }
            s.push_hist(&format!("{prefix}insert_latency_ns"), &lat);
            s
        });
    }
    let extracted = Arc::new(AtomicU64::new(0));
    let producing = Arc::new(AtomicBool::new(true));
    let max_occupancy = Arc::new(AtomicU64::new(0));

    // Stall watchdog over the phase: extraction is the progress counter,
    // "busy" means there is work (occupancy) or a parked producer — an
    // idle queue is not a stall. The occupancy gauge doubles as the
    // pressure readout (last + peak in the snapshot).
    let wd = {
        let (q_p, q_b, q_g) = (Arc::clone(&q), Arc::clone(&q), Arc::clone(&q));
        // 2 ms ticks so even a fast Reject phase (which never parks and
        // drops most arrivals in tens of ms) records a few ticks before
        // the phase drains; 2500 busy ticks = 5 s of stagnation.
        obs::Watchdog::builder(Duration::from_millis(2))
            .stall_after(2500)
            .progress(
                &format!("{policy_name}.extracts"),
                move || q_p.stats().extracts,
                move || q_b.occupancy() > 0 || q_b.producer_waiters() > 0,
            )
            .gauge(&format!("{policy_name}.occupancy"), move || {
                q_g.occupancy() as i64
            })
            .start()
    };
    // Retained (2s/1m/1h tiers) so `--serve` scrapes see occupancy
    // history; the full-resolution series still lands in `--metrics`.
    let sampler = with_series.then(|| {
        let probe_q = Arc::clone(&q);
        obs::Sampler::start_retained(
            &format!("overload.{policy_name}.occupancy"),
            Duration::from_millis(2),
            &["occupancy", "producer_waiters"],
            move || {
                vec![
                    probe_q.occupancy() as f64,
                    probe_q.producer_waiters() as f64,
                ]
            },
        )
    });

    let t0 = Instant::now();
    std::thread::scope(|s| {
        for p in 0..producers as u64 {
            let (q, lat, max_occ) = (
                Arc::clone(&q),
                Arc::clone(&insert_lat),
                Arc::clone(&max_occupancy),
            );
            s.spawn(move || {
                let mut x = (p + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                for _ in 0..ops_per_producer {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let t = Instant::now();
                    q.insert(x % 1_000_000, x);
                    lat.record_duration(t.elapsed());
                    max_occ.fetch_max(q.occupancy() as u64, Ordering::Relaxed);
                }
            });
        }
        for _ in 0..consumers {
            let (q, extracted, producing) = (
                Arc::clone(&q),
                Arc::clone(&extracted),
                Arc::clone(&producing),
            );
            s.spawn(move || {
                loop {
                    match q.extract_max() {
                        Some(_) => {
                            extracted.fetch_add(1, Ordering::Relaxed);
                            service_spin(service_ns);
                        }
                        // Producers done and queue drained: phase over.
                        None if !producing.load(Ordering::Acquire) => break,
                        None => std::thread::yield_now(),
                    }
                }
            });
        }
        // Flip the flag once every producer thread has returned. A scoped
        // helper thread would deadlock the scope join, so watch the
        // producer count from the consumers' termination flag instead:
        // spawn a monitor that joins nothing but observes the counters.
        let (q, producing) = (Arc::clone(&q), Arc::clone(&producing));
        let arrivals_target = ops_per_producer * producers as u64;
        s.spawn(move || loop {
            let st = q.stats();
            if st.inserts + st.shed_rejected >= arrivals_target {
                producing.store(false, Ordering::Release);
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        });
    });
    let secs = t0.elapsed().as_secs_f64();

    // Consumers exit on (observed-empty && !producing), which can race
    // a just-admitted element becoming visible. Occupancy is the
    // authoritative residue count: drain until it reads zero so the
    // conservation identity below is checked against a truly empty
    // queue.
    let mut extracted_n = extracted.load(Ordering::Relaxed);
    loop {
        match q.extract_max() {
            Some(_) => extracted_n += 1,
            None if q.occupancy() == 0 => break,
            None => std::thread::yield_now(),
        }
    }
    let st = q.stats();
    let arrivals = st.inserts + st.shed_rejected;
    let shed_ratio = if arrivals > 0 {
        (st.shed_rejected + st.shed_evicted) as f64 / arrivals as f64
    } else {
        0.0
    };
    let hist = insert_lat.snapshot();
    let mut snapshot = ConcurrentPriorityQueue::metrics(&*q).expect("zmsq has metrics");
    snapshot.push_hist("insert_latency_ns", &insert_lat);

    PhaseResult {
        policy: policy_name,
        secs,
        arrivals,
        admitted: st.inserts,
        extracted: extracted_n,
        rejected: st.shed_rejected,
        evicted: st.shed_evicted,
        shed_ratio,
        p50_ns: hist.p50,
        p99_ns: hist.p99,
        max_occupancy: max_occupancy.load(Ordering::Relaxed) as i64,
        snapshot,
        series: sampler.map(|(s, _retain)| s.stop()),
        watchdog: wd.stop(),
    }
}

fn main() {
    let args = Args::parse(&[
        "quick",
        "producers",
        "consumers",
        "capacity",
        "ops",
        "service-ns",
        "assert",
        "policies",
        "metrics",
        "serve",
        "serve-hold-ms",
        "trace",
    ]);
    let quick = args.get_bool("quick");
    let producers: usize = args.get_num("producers", 4);
    let consumers: usize = args.get_num("consumers", 1);
    let capacity: usize = args.get_num("capacity", if quick { 256 } else { 1024 });
    let ops: u64 = args.get_num("ops", if quick { 20_000 } else { 200_000 });
    // Per-extract service time: the dial that puts arrival above service.
    // 2 µs of service against unthrottled producers is a >2x overload on
    // anything that can run two threads.
    let service_ns: u64 = args.get_num("service-ns", 2_000);
    let do_assert = args.get_bool("assert");
    let metrics = MetricsOut::from_args(&args, "overload");
    let server = bench::metrics::serve_from_args(&args, "overload");
    let serving = server.is_some();

    let policy_list = args.get("policies", "block,reject,shed");
    let mut phases: Vec<(ShedPolicy, &'static str)> = Vec::new();
    for p in policy_list.split(',') {
        match p.trim() {
            "block" => phases.push((ShedPolicy::Block, "block")),
            "reject" => phases.push((ShedPolicy::Reject, "reject")),
            "shed" | "shed_lowest" => phases.push((ShedPolicy::ShedLowest, "shed_lowest")),
            other => eprintln!("ignoring unknown policy {other:?}"),
        }
    }

    bench::csv_header(&[
        "policy",
        "producers",
        "consumers",
        "capacity",
        "secs",
        "arrivals",
        "admitted",
        "extracted",
        "rejected",
        "evicted",
        "shed_ratio",
        "p50_insert_ns",
        "p99_insert_ns",
        "max_occupancy",
    ]);

    let mut failures: Vec<String> = Vec::new();
    let mut merged = obs::Snapshot::new();
    let mut all_series: Vec<obs::Series> = Vec::new();

    for (policy, name) in phases {
        let r = run_phase(
            policy,
            name,
            producers,
            consumers,
            capacity,
            ops,
            service_ns,
            metrics.is_some() || serving,
            serving,
        );
        println!(
            "{},{producers},{consumers},{capacity},{:.3},{},{},{},{},{},{:.4},{},{},{}",
            r.policy,
            r.secs,
            r.arrivals,
            r.admitted,
            r.extracted,
            r.rejected,
            r.evicted,
            r.shed_ratio,
            r.p50_ns,
            r.p99_ns,
            r.max_occupancy
        );

        // Conservation: everything admitted either came out or was
        // evicted by ShedLowest; the drain ran to empty before exit.
        if r.admitted != r.extracted + r.evicted {
            failures.push(format!(
                "{}: conservation broken: admitted {} != extracted {} + evicted {}",
                r.policy, r.admitted, r.extracted, r.evicted
            ));
        }
        if r.arrivals != ops * producers as u64 {
            failures.push(format!(
                "{}: arrival accounting broken: {} != {}",
                r.policy,
                r.arrivals,
                ops * producers as u64
            ));
        }
        if do_assert {
            match r.policy {
                // Block never sheds; overload shows up as producer parks.
                "block" => {
                    if r.rejected + r.evicted != 0 {
                        failures.push("block: shed something".into());
                    }
                }
                // The other policies must actually have shed under a 2x
                // overload with a bounded queue.
                _ => {
                    if r.rejected + r.evicted == 0 {
                        failures.push(format!("{}: overload never shed", r.policy));
                    }
                }
            }
            if r.max_occupancy > capacity as i64 {
                // Blocked-insert force-admit on close is the only path
                // above capacity, and close is never called here.
                failures.push(format!(
                    "{}: occupancy {} exceeded capacity {}",
                    r.policy, r.max_occupancy, capacity
                ));
            }
            if r.watchdog.counter("watchdog.ticks").unwrap_or(0) == 0 {
                failures.push(format!("{}: watchdog never ticked", r.policy));
            }
            if r.watchdog.counter("watchdog.stalls").unwrap_or(1) != 0 {
                failures.push(format!("{}: watchdog reported a stall", r.policy));
            }
        }

        // Namespace the per-phase queue snapshot so three phases coexist
        // in one document: `overload.<policy>.<metric>`.
        let prefix = format!("overload.{}.", r.policy);
        merged.merge_prefixed(&prefix, r.snapshot);
        merged.merge_prefixed(&prefix, r.watchdog);
        if let Some(s) = r.series {
            all_series.push(s);
        }
        // Perf-gate summary: offered-load drain rate per policy (how
        // fast the phase pushed its arrivals through admission), the
        // insert-side tails (warn-only `_ns` class in compare_bench),
        // and the estimated rank-error p99.
        merged.push_summary(
            &format!("{prefix}throughput_ops_per_s"),
            r.arrivals as f64 / r.secs,
        );
        merged.push_summary(&format!("{prefix}insert_p50_ns"), r.p50_ns as f64);
        merged.push_summary(&format!("{prefix}insert_p99_ns"), r.p99_ns as f64);
        bench::metrics::push_rank_summary(&mut merged, &prefix);
    }

    if let Some(out) = metrics {
        for s in all_series {
            merged.push_series(s);
        }
        out.write(merged, "overload", &bench::metrics::argv_line())
            .expect("write metrics JSON");
    }
    bench::metrics::export_trace(&args, "overload");

    if let Some(server) = server {
        let hold: u64 = args.get_num("serve-hold-ms", 0);
        if hold > 0 {
            eprintln!("serve: holding listener for {hold} ms after run");
            std::thread::sleep(Duration::from_millis(hold));
        }
        server.stop();
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("ASSERTION FAILED: {f}");
        }
        std::process::exit(1);
    }
}
