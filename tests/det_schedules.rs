//! Deterministic schedule exploration of the real queue (`--features
//! det-sched`): ports of the core stress-matrix and blocking-liveness
//! interleavings under the `det` scheduler, with the relaxation-quality
//! oracles from `workloads::oracle`.
//!
//! Fast mode: every non-ignored test runs a fixed seed and a small
//! schedule budget so the whole file stays well under 30 s. Override
//! with `DET_SEED` / `DET_SCHEDULES`; replay one failing schedule with
//! `DET_SCHEDULE=<k>` (the failure report prints the exact recipe).

#![cfg(feature = "det-sched")]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use det::Config;
use workloads::oracle::{QcChecker, RankOracle};
use zmsq::{
    ArraySet, InsertError, ListSet, NodeSet, ShardedConfig, ShardedZmsq, ShedPolicy, TatasLock,
    Zmsq, ZmsqConfig,
};

/// Unique element token: producer id in the high bits, sequence in the low.
fn token(producer: u64, i: u64) -> u64 {
    (producer << 32) | i
}

/// Producers and consumers over a relaxed queue; every element must be
/// extracted exactly once with its key intact (quiescent consistency),
/// across every explored interleaving. Port of the stress-matrix
/// conservation check.
#[test]
fn det_conservation_under_interleaving() {
    for batch in [1usize, 8] {
        let cfg = Config::from_env(0xC07E5D + batch as u64).schedules(16);
        det::explore(&cfg, move || {
            const PRODUCERS: u64 = 2;
            const CONSUMERS: u64 = 2;
            const PER: u64 = 5;
            let q: Arc<Zmsq<u64>> = Arc::new(Zmsq::with_config(
                ZmsqConfig::default().batch(batch).target_len(8),
            ));
            let qc = Arc::new(QcChecker::new());
            let taken = Arc::new(AtomicU64::new(0));
            let mut handles = Vec::new();
            for p in 0..PRODUCERS {
                let (q, qc) = (Arc::clone(&q), Arc::clone(&qc));
                handles.push(det::spawn(move || {
                    let mut log = qc.handle();
                    for i in 0..PER {
                        // Duplicate keys across producers on purpose.
                        // Pre-op insert records, post-op extract records
                        // (see ThreadLog docs for why).
                        let t = token(p, i);
                        log.on_insert(i % 3, t);
                        q.insert(i % 3, t);
                    }
                    qc.absorb(log);
                }));
            }
            for _ in 0..CONSUMERS {
                let (q, qc, taken) = (Arc::clone(&q), Arc::clone(&qc), Arc::clone(&taken));
                handles.push(det::spawn(move || {
                    let mut log = qc.handle();
                    while taken.load(Ordering::SeqCst) < PRODUCERS * PER {
                        if let Some((k, t)) = q.extract_max() {
                            log.on_extract(k, t);
                            taken.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    qc.absorb(log);
                }));
            }
            for h in handles {
                h.join();
            }
            assert_eq!(q.extract_max(), None, "drained");
            if let Err(e) = qc.check(true) {
                panic!("quiescent-consistency violation (batch {batch}): {e}");
            }
        });
    }
}

/// Rank-error oracle under det: with a prefilled queue and an
/// extraction-only phase, each `extract_max` may skip at most O(batch)
/// strictly greater keys. Under the serialized scheduler the oracle's
/// shadow update is the linearization point, so the bound is tight up to
/// the claim-window overlap between the two consumers.
#[test]
fn det_rank_error_is_bounded_by_batch() {
    for batch in [1usize, 8, 64] {
        let cfg = Config::from_env(0x4A9C + batch as u64).schedules(8);
        det::explore(&cfg, move || {
            const KEYS: u64 = 96;
            let q: Arc<Zmsq<u64>> = Arc::new(Zmsq::with_config(
                ZmsqConfig::default().batch(batch).target_len(batch.max(4)),
            ));
            let oracle = Arc::new(RankOracle::new());
            for k in 0..KEYS {
                q.insert(k, k);
                oracle.note_insert(k);
            }
            let taken = Arc::new(AtomicU64::new(0));
            let mut handles = Vec::new();
            for _ in 0..2 {
                let (q, oracle, taken) = (Arc::clone(&q), Arc::clone(&oracle), Arc::clone(&taken));
                handles.push(det::spawn(move || {
                    let mut worst = 0usize;
                    while taken.load(Ordering::SeqCst) < KEYS {
                        if let Some((k, _)) = q.extract_max() {
                            worst = worst.max(oracle.note_extract(k));
                            taken.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    worst
                }));
            }
            for h in handles {
                h.join();
            }
            let stats = oracle.stats();
            assert_eq!(stats.extracts, KEYS);
            // O(batch) structural bound. Refills draw the root set's top
            // `batch`, and the root set's non-max elements are ordered
            // only against their own subtrees — so the constant carries
            // the root-set capacity (2 * target_len, which this test
            // scales with batch) on top of the batch itself; +4 covers
            // the two consumers' claim-window overlap. The bound must
            // NOT scale with thread count
            // (tests/strict_and_accuracy.rs sweeps that axis).
            let bound = batch + 2 * batch.max(4) + 4;
            assert!(
                stats.max_rank <= bound,
                "batch {batch}: max rank error {} exceeds O(batch) bound {bound}",
                stats.max_rank
            );
        });
    }
}

/// Strict mode (batch = 0) has rank error exactly zero on every schedule.
#[test]
fn det_strict_mode_rank_error_is_zero() {
    let cfg = Config::from_env(0x57A1C7).schedules(8);
    det::explore(&cfg, || {
        let q: Arc<Zmsq<u64>> = Arc::new(Zmsq::with_config(ZmsqConfig::strict()));
        let oracle = Arc::new(RankOracle::new());
        for k in 0..24u64 {
            q.insert(k, k);
            oracle.note_insert(k);
        }
        let taken = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (q, oracle, taken) = (Arc::clone(&q), Arc::clone(&oracle), Arc::clone(&taken));
                det::spawn(move || {
                    while taken.load(Ordering::SeqCst) < 24 {
                        if let Some((k, _)) = q.extract_max() {
                            assert_eq!(oracle.note_extract(k), 0, "strict mode");
                            taken.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
    });
}

/// The queue's built-in `obs::RankEstimator` at shift 0 (sample every
/// key) against the exact [`RankOracle`], across every explored
/// schedule and the same batch sweep as the rank-bound test.
///
/// With 96 distinct keys the 512-slot reservoir never overflows, so
/// the conservation counters are exact. The rank comparison rides on a
/// monotonicity argument: in an extraction-only phase the live
/// population only shrinks, the estimator's count is taken *inside*
/// `extract_max` and the oracle's just after it returns, so per
/// extraction the estimate dominates the oracle's exact rank — and
/// both obey the structural O(batch) bound.
#[test]
fn det_estimator_tracks_rank_oracle() {
    for batch in [1usize, 8, 64] {
        let cfg = Config::from_env(0xE57A + batch as u64).schedules(8);
        det::explore(&cfg, move || {
            const KEYS: u64 = 96;
            let q: Arc<Zmsq<u64>> = Arc::new(Zmsq::with_config(
                ZmsqConfig::default()
                    .batch(batch)
                    .target_len(batch.max(4))
                    .rank_estimator(0),
            ));
            let oracle = Arc::new(RankOracle::new());
            for k in 0..KEYS {
                q.insert(k, k);
                oracle.note_insert(k);
            }
            let taken = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let (q, oracle, taken) =
                        (Arc::clone(&q), Arc::clone(&oracle), Arc::clone(&taken));
                    det::spawn(move || {
                        while taken.load(Ordering::SeqCst) < KEYS {
                            if let Some((k, _)) = q.extract_max() {
                                oracle.note_extract(k);
                                taken.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            let est = q.rank_estimator().expect("estimator configured on");
            let (si, st, dr, se, ma, mi, ..) = est.counters();
            assert_eq!((si, st, dr), (KEYS, KEYS, 0), "96 keys fit the reservoir");
            assert_eq!(se, KEYS, "shift 0 samples every extraction");
            assert_eq!(ma + mi, se, "every sampled extract matched or missed");
            assert_eq!(mi, 0, "distinct keys always find their slot");
            assert_eq!(est.live(), 0, "drained run leaves no live samples");
            // p99 comparison. The estimator quantizes through its
            // log-linear histogram, so push the oracle's exact value
            // through the same bucketing (quantiles commute with the
            // monotone bucket-floor mapping) for the lower bound; the
            // upper bound is the rank-bound test's structural ceiling.
            let oracle_p99 = oracle.rank_quantile(0.99).unwrap() as u64;
            let est_p99 = est.rank_quantile(0.99);
            let quantized = obs::Histogram::new();
            quantized.record(oracle_p99);
            assert!(
                est_p99 >= quantized.quantile(1.0),
                "batch {batch}: estimator p99 {est_p99} undercounts oracle p99 {oracle_p99}"
            );
            let bound = (batch + 2 * batch.max(4) + 8) as u64;
            assert!(
                est_p99 <= bound,
                "batch {batch}: estimator p99 {est_p99} exceeds structural bound {bound}"
            );
        });
    }
}

/// Sharded conservation: producers scatter through `insert_batch`,
/// consumers mix `extract_max` and `extract_batch`, across every
/// explored interleaving of the per-shard pool windows. Exercises the
/// two-choice winner/loser steal and the full sweep under preemption.
#[test]
fn det_sharded_conservation_under_interleaving() {
    let cfg = Config::from_env(0x5A4DED).schedules(12);
    det::explore(&cfg, || {
        const PRODUCERS: u64 = 2;
        const CONSUMERS: u64 = 2;
        const PER: u64 = 6;
        let q: Arc<ShardedZmsq<u64>> = Arc::new(ShardedZmsq::new(
            2,
            ZmsqConfig::default().batch(2).target_len(6),
        ));
        let qc = Arc::new(QcChecker::new());
        let taken = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let (q, qc) = (Arc::clone(&q), Arc::clone(&qc));
            handles.push(det::spawn(move || {
                let mut log = qc.handle();
                let mut batch = Vec::new();
                for i in 0..PER {
                    let t = token(p, i);
                    log.on_insert(i % 3, t);
                    batch.push((i % 3, t));
                }
                // Scatter path: round-robin from this vthread's home shard.
                q.insert_batch(&mut batch);
                qc.absorb(log);
            }));
        }
        for c in 0..CONSUMERS {
            let (q, qc, taken) = (Arc::clone(&q), Arc::clone(&qc), Arc::clone(&taken));
            handles.push(det::spawn(move || {
                let mut log = qc.handle();
                let mut out = Vec::new();
                while taken.load(Ordering::SeqCst) < PRODUCERS * PER {
                    if c == 0 {
                        // Gather path: cross-shard batched extraction.
                        out.clear();
                        q.extract_batch(&mut out, 3);
                        for &(k, t) in &out {
                            log.on_extract(k, t);
                            taken.fetch_add(1, Ordering::SeqCst);
                        }
                    } else if let Some((k, t)) = q.extract_max() {
                        log.on_extract(k, t);
                        taken.fetch_add(1, Ordering::SeqCst);
                    }
                }
                qc.absorb(log);
            }));
        }
        for h in handles {
            h.join();
        }
        assert_eq!(q.extract_max(), None, "drained");
        if let Err(e) = qc.check(true) {
            panic!("sharded quiescent-consistency violation: {e}");
        }
    });
}

/// The sharded emptiness guarantee under det: one element lands in one
/// of four shards; no matter which shards two-choice sampling picks, the
/// sweep must find it on every schedule — for both the scalar and the
/// batched extraction paths.
#[test]
fn det_sharded_sweep_finds_lone_element() {
    let cfg = Config::from_env(0x10E1E7).schedules(24);
    det::explore(&cfg, || {
        let q: Arc<ShardedZmsq<u64>> = Arc::new(ShardedZmsq::new(
            4,
            ZmsqConfig::default().batch(2).target_len(4),
        ));
        let q2 = Arc::clone(&q);
        det::spawn(move || q2.insert(7, 77)).join();
        // The insert has completed: stale hints may point anywhere, but
        // extraction must not report empty.
        assert_eq!(q.extract_max(), Some((7, 77)), "sweep missed the element");

        let q3 = Arc::clone(&q);
        det::spawn(move || q3.insert(9, 99)).join();
        let mut out = Vec::new();
        assert_eq!(q.extract_batch(&mut out, 4), 1, "batched sweep missed");
        assert_eq!(out, vec![(9, 99)]);
    });
}

/// Port of `blocking_liveness::single_item_handoffs_wake_parked_consumer`:
/// tight one-element handoffs with the consumer parked in between. A lost
/// wakeup surfaces as a deterministic deadlock report, not a hung test.
/// Spurious wakeups are enabled to exercise the re-check loops.
#[test]
fn det_blocking_handoff_never_loses_wakeups() {
    let cfg = Config::from_env(0xB10C).schedules(24).spurious_wakes(true);
    det::explore(&cfg, || {
        const ITEMS: u64 = 4;
        let q: Arc<Zmsq<u64>> = Arc::new(Zmsq::with_config(
            ZmsqConfig::default().batch(2).target_len(4).blocking(true),
        ));
        let got = Arc::new(AtomicU64::new(0));
        let (q2, got2) = (Arc::clone(&q), Arc::clone(&got));
        let consumer = det::spawn(move || {
            let mut n = 0u64;
            while q2.extract_max_blocking().is_some() {
                n += 1;
                got2.fetch_add(1, Ordering::SeqCst);
            }
            n
        });
        for i in 0..ITEMS {
            q.insert(i, i);
        }
        while got.load(Ordering::SeqCst) < ITEMS {
            det::yield_point("test.wait-drain");
        }
        q.close();
        assert_eq!(consumer.join(), ITEMS);
    });
}

/// Port of `blocking_liveness::close_releases_parked_consumers`: close on
/// an empty queue must release every parked consumer on every schedule.
#[test]
fn det_close_releases_parked_consumers() {
    let cfg = Config::from_env(0xC105E).schedules(24).spurious_wakes(true);
    det::explore(&cfg, || {
        let q: Arc<Zmsq<u64>> = Arc::new(Zmsq::with_config(
            ZmsqConfig::default().batch(4).target_len(8).blocking(true),
        ));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                det::spawn(move || q.extract_max_blocking())
            })
            .collect();
        // No coordination on purpose: close races registration, spinning
        // and parked states — all must terminate with None.
        q.close();
        for h in handles {
            assert_eq!(h.join(), None, "woken by close with empty queue");
        }
    });
}

/// Timed extraction on an empty queue expires in *virtual* time: one
/// virtual hour per schedule, trivial real time for the whole batch.
#[test]
fn det_timed_extraction_uses_virtual_time() {
    let t0 = Instant::now();
    let cfg = Config::from_env(0x71ED).schedules(8);
    det::explore(&cfg, || {
        let q: Arc<Zmsq<u64>> = Arc::new(Zmsq::with_config(
            ZmsqConfig::default().batch(2).target_len(4).blocking(true),
        ));
        assert_eq!(q.extract_max_timeout(Duration::from_secs(3600)), None);
        // Delivered when an element exists: no park, no clock advance.
        q.insert(9, 9);
        assert_eq!(
            q.extract_max_timeout(Duration::from_secs(3600)),
            Some((9, 9))
        );
    });
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "8 virtual hours took {:?} real",
        t0.elapsed()
    );
}

/// Mini port of the stress matrix: set representation x batch, with
/// invariant validation after every schedule.
#[test]
fn det_mini_stress_matrix() {
    fn run<S: NodeSet<u64> + 'static>(batch: usize, seed: u64) {
        let cfg = Config::from_env(seed).schedules(12);
        det::explore(&cfg, move || {
            let q: Arc<Zmsq<u64, S, TatasLock>> = Arc::new(Zmsq::with_config(
                ZmsqConfig::default().batch(batch).target_len(6),
            ));
            let sum_in = Arc::new(AtomicU64::new(0));
            let sum_out = Arc::new(AtomicU64::new(0));
            let extracted = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..2u64)
                .map(|t| {
                    let (q, sum_in, sum_out, extracted) = (
                        Arc::clone(&q),
                        Arc::clone(&sum_in),
                        Arc::clone(&sum_out),
                        Arc::clone(&extracted),
                    );
                    det::spawn(move || {
                        for i in 0..4u64 {
                            let v = token(t, i) | 1;
                            q.insert((t * 31 + i * 7) % 16, v);
                            sum_in.fetch_add(v, Ordering::Relaxed);
                            if i % 2 == 1 {
                                if let Some((_, v)) = q.extract_max() {
                                    extracted.fetch_add(1, Ordering::Relaxed);
                                    sum_out.fetch_add(v, Ordering::Relaxed);
                                }
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            while let Some((_, v)) = q.extract_max() {
                extracted.fetch_add(1, Ordering::Relaxed);
                sum_out.fetch_add(v, Ordering::Relaxed);
            }
            assert_eq!(extracted.load(Ordering::Relaxed), 8, "element count");
            assert_eq!(
                sum_in.load(Ordering::Relaxed),
                sum_out.load(Ordering::Relaxed),
                "checksum"
            );
            let mut q =
                Arc::try_unwrap(q).unwrap_or_else(|_| panic!("all vthreads joined; sole owner"));
            q.validate_invariants().unwrap();
        });
    }
    run::<ListSet<u64>>(0, 0x11571);
    run::<ListSet<u64>>(8, 0x11572);
    run::<ArraySet<u64>>(0, 0xA5571);
    run::<ArraySet<u64>>(8, 0xA5572);
}

/// The acceptance property on a real-queue body: a failing schedule
/// replays byte-identically from its printed seed. The body plants a
/// classic lost update whose race window is opened by the queue's own
/// yield points (no synthetic `yield_point` between load and store).
#[test]
fn det_zmsq_failure_replays_byte_identically() {
    fn racy_body() {
        let q: Arc<Zmsq<u64>> = Arc::new(Zmsq::with_config(
            ZmsqConfig::default().batch(2).target_len(4),
        ));
        let c = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2u64)
            .map(|t| {
                let (q, c) = (Arc::clone(&q), Arc::clone(&c));
                det::spawn(move || {
                    let v = c.load(Ordering::SeqCst);
                    // The insert's internal decision points are the only
                    // preemption window for the read-modify-write race.
                    q.insert(t, t);
                    c.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(c.load(Ordering::SeqCst), 2, "lost update through queue ops");
    }
    let cfg = Config::new(0x2E91A).schedules(64).shrink_budget(16);
    let a = det::explore_result(&cfg, racy_body).unwrap_err();
    let b = det::explore_result(&cfg, racy_body).unwrap_err();
    assert_eq!(a.schedule, b.schedule);
    assert_eq!(a.trace, b.trace);
    assert_eq!(
        format!("{a}"),
        format!("{b}"),
        "byte-identical failure report"
    );
    // The DET_SCHEDULE replay workflow: just that schedule, same trace.
    let replay = cfg.clone().only(a.schedule).shrink_budget(0);
    let r = det::explore_result(&replay, racy_body).unwrap_err();
    assert_eq!(r.trace, a.trace);
}

/// Producer liveness under backpressure: producers blocked on a full
/// `ShedPolicy::Block` queue must make progress on every explored
/// schedule (including spurious wakes) once a consumer drains — a lost
/// producer wakeup surfaces as a deterministic deadlock report, not a
/// hung test. Conservation and the occupancy invariant close the loop.
#[test]
fn det_bounded_block_producers_never_deadlock() {
    let cfg = Config::from_env(0xB0DED).schedules(16).spurious_wakes(true);
    det::explore(&cfg, || {
        const PRODUCERS: u64 = 2;
        const PER: u64 = 4;
        let q: Arc<Zmsq<u64>> = Arc::new(Zmsq::with_config(
            ZmsqConfig::default()
                .batch(2)
                .target_len(4)
                .capacity(2)
                .shed_policy(ShedPolicy::Block),
        ));
        let sum_in = Arc::new(AtomicU64::new(0));
        let sum_out = Arc::new(AtomicU64::new(0));
        let taken = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let (q, sum_in) = (Arc::clone(&q), Arc::clone(&sum_in));
            handles.push(det::spawn(move || {
                for i in 0..PER {
                    let t = token(p, i);
                    // Infallible insert: parks whenever the 2-slot
                    // capacity is exhausted.
                    q.insert(i % 3, t);
                    sum_in.fetch_add(t, Ordering::SeqCst);
                }
            }));
        }
        {
            let (q, sum_out, taken) = (Arc::clone(&q), Arc::clone(&sum_out), Arc::clone(&taken));
            handles.push(det::spawn(move || {
                while taken.load(Ordering::SeqCst) < PRODUCERS * PER {
                    if let Some((_, t)) = q.extract_max() {
                        sum_out.fetch_add(t, Ordering::SeqCst);
                        taken.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }));
        }
        for h in handles {
            h.join();
        }
        assert_eq!(q.extract_max(), None, "drained");
        assert_eq!(q.occupancy(), 0, "occupancy must return to zero");
        assert_eq!(
            sum_in.load(Ordering::SeqCst),
            sum_out.load(Ordering::SeqCst),
            "conservation under backpressure"
        );
    });
}

/// Close racing blocked producers: on every schedule, `close()` must
/// release producers parked on a full Block-policy queue. The infallible
/// `insert` force-admits rather than dropping (it has no error channel),
/// so every element is still present after the close; fallible inserts
/// observe `InsertError::Closed` from then on.
#[test]
fn det_close_force_admits_blocked_producers() {
    let cfg = Config::from_env(0xC10B0).schedules(24).spurious_wakes(true);
    det::explore(&cfg, || {
        const PRODUCERS: u64 = 2;
        const PER: u64 = 2;
        let q: Arc<Zmsq<u64>> = Arc::new(Zmsq::with_config(
            ZmsqConfig::default()
                .batch(2)
                .target_len(4)
                .capacity(1)
                .shed_policy(ShedPolicy::Block),
        ));
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                det::spawn(move || {
                    for i in 0..PER {
                        q.insert(i, token(p, i));
                    }
                })
            })
            .collect();
        // No coordination on purpose: close races registration, spinning
        // and parked producers — all must terminate.
        q.close();
        for h in handles {
            h.join();
        }
        assert!(
            matches!(q.try_insert(9, 9), Err(InsertError::Closed(9))),
            "fallible insert after close"
        );
        let mut drained = 0u64;
        while q.extract_max().is_some() {
            drained += 1;
        }
        assert_eq!(
            drained,
            PRODUCERS * PER,
            "infallible inserts must never drop elements across close"
        );
    });
}

/// `insert_timeout` on a full Block-policy queue expires in *virtual*
/// time, and admits without parking once room exists.
#[test]
fn det_insert_timeout_uses_virtual_time() {
    let t0 = Instant::now();
    let cfg = Config::from_env(0x71EDB).schedules(8);
    det::explore(&cfg, || {
        let q: Arc<Zmsq<u64>> = Arc::new(Zmsq::with_config(
            ZmsqConfig::default()
                .batch(2)
                .target_len(4)
                .capacity(1)
                .shed_policy(ShedPolicy::Block),
        ));
        q.insert(1, 1);
        match q.insert_timeout(2, 2, Duration::from_secs(3600)) {
            Err(InsertError::Timeout(v)) => assert_eq!(v, 2, "element handed back"),
            other => panic!("expected Timeout on a full queue, got {other:?}"),
        }
        // Room appears: admitted immediately, no park, no clock advance.
        assert_eq!(q.extract_max(), Some((1, 1)));
        assert!(q.insert_timeout(3, 3, Duration::from_secs(3600)).is_ok());
    });
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "8 virtual hours took {:?} real",
        t0.elapsed()
    );
}

/// A two-shard tuned queue for the buffered-window det tests: small
/// pool windows so shard preemption points are dense, with the
/// stickiness / buffer depths chosen per test to isolate one flush
/// trigger.
fn tuned_det_q(stickiness: usize, insert_buffer: usize, delete_buffer: usize) -> ShardedZmsq<u64> {
    ShardedZmsq::with_tuning(
        2,
        ZmsqConfig::default().batch(2).target_len(6),
        ShardedConfig::new()
            .stickiness(stickiness)
            .insert_buffer(insert_buffer)
            .delete_buffer(delete_buffer),
    )
}

/// Buffered producers and consumers over a tuned queue; every element
/// must be extracted exactly once with its key intact, across every
/// explored interleaving. `PER` is odd on purpose: each producer exits
/// with an element still staged in its insert buffer, so conservation
/// additionally proves the consumers' flush-before-report reclaims
/// foreign buffers (and consumers' prefetched-but-unserved deletions
/// are likewise reclaimed via `unprefetch`).
fn run_det_buffered_conservation(q: Arc<ShardedZmsq<u64>>) {
    const PRODUCERS: u64 = 2;
    const CONSUMERS: u64 = 2;
    const PER: u64 = 5;
    let qc = Arc::new(QcChecker::new());
    let taken = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for p in 0..PRODUCERS {
        let (q, qc) = (Arc::clone(&q), Arc::clone(&qc));
        handles.push(det::spawn(move || {
            let mut log = qc.handle();
            for i in 0..PER {
                let t = token(p, i);
                log.on_insert(i % 3, t);
                q.insert(i % 3, t);
            }
            qc.absorb(log);
        }));
    }
    for _ in 0..CONSUMERS {
        let (q, qc, taken) = (Arc::clone(&q), Arc::clone(&qc), Arc::clone(&taken));
        handles.push(det::spawn(move || {
            let mut log = qc.handle();
            while taken.load(Ordering::SeqCst) < PRODUCERS * PER {
                if let Some((k, t)) = q.extract_max() {
                    log.on_extract(k, t);
                    taken.fetch_add(1, Ordering::SeqCst);
                }
            }
            qc.absorb(log);
        }));
    }
    for h in handles {
        h.join();
    }
    assert_eq!(q.extract_max(), None, "drained");
    assert_eq!(q.len_hint(), 0, "no element left staged or prefetched");
    if let Err(e) = qc.check(true) {
        panic!("buffered quiescent-consistency violation: {e}");
    }
}

/// Flush-on-overflow window: stickiness off and insert buffer depth 2,
/// so the *only* in-run publish trigger is the buffer reaching its
/// depth. Conservation across every explored interleaving of the
/// overflow flush with concurrent extraction.
#[test]
fn det_buffered_flush_on_overflow_conserves() {
    let cfg = Config::from_env(0xB0FF10).schedules(16);
    det::explore(&cfg, || {
        run_det_buffered_conservation(Arc::new(tuned_det_q(0, 2, 2)));
    });
}

/// Flush-on-resample window: stickiness 2 with an insert buffer deeper
/// than any producer's whole run, so the *only* in-run publish trigger
/// is the sticky run expiring (re-sample flushes the buffer before the
/// target shard moves).
#[test]
fn det_buffered_flush_on_resample_conserves() {
    let cfg = Config::from_env(0xF1054).schedules(16);
    det::explore(&cfg, || {
        run_det_buffered_conservation(Arc::new(tuned_det_q(2, 8, 1)));
    });
}

/// Flush-on-close window: producers stage everything (stickiness off,
/// buffer deeper than the run — no overflow, no resample), so `close()`
/// is the only publish trigger. Its contract: staged inserts reach the
/// shards *before* the shards close, observable as per-shard occupancy
/// and as a complete drain.
#[test]
fn det_close_flush_publishes_buffers() {
    let cfg = Config::from_env(0xC7055).schedules(16);
    det::explore(&cfg, || {
        const PRODUCERS: u64 = 2;
        const PER: u64 = 4;
        let q = Arc::new(tuned_det_q(0, 16, 1));
        let qc = Arc::new(QcChecker::new());
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let (q, qc) = (Arc::clone(&q), Arc::clone(&qc));
                det::spawn(move || {
                    let mut log = qc.handle();
                    for i in 0..PER {
                        let t = token(p, i);
                        log.on_insert(i % 3, t);
                        q.insert(i % 3, t);
                    }
                    qc.absorb(log);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        q.close();
        // The close-flush published every staged insert into the shards
        // themselves (not merely somewhere reachable): a blocking drain
        // loop woken by close must see them without further flushes.
        let in_shards: usize = (0..2).map(|i| q.shard(i).len_hint()).sum();
        assert_eq!(
            in_shards,
            (PRODUCERS * PER) as usize,
            "close() stranded staged inserts in thread-local buffers"
        );
        let mut log = qc.handle();
        while let Some((k, t)) = q.extract_max() {
            log.on_extract(k, t);
        }
        qc.absorb(log);
        if let Err(e) = qc.check(true) {
            panic!("close-flush quiescent-consistency violation: {e}");
        }
    });
}

/// Mutation check: with the close-flush deleted (the
/// `shard.skip-close-flush` failpoint armed `Always`), the close-window
/// det test's occupancy assertion must fail — staged inserts stay
/// stranded in thread-local buffers on every schedule, deterministically.
/// `#[ignore]` by default — CI runs it explicitly (`--ignored`) with
/// `--features "det-sched fault-inject"`.
#[cfg(feature = "fault-inject")]
#[test]
#[ignore = "mutation check; run explicitly in CI with --ignored"]
fn det_mutation_skipped_close_flush_is_caught() {
    let _x = fault::exclusive();
    fault::reset();
    fault::configure(
        "shard.skip-close-flush",
        fault::Policy::new(fault::Trigger::Always),
    );
    let cfg = Config::from_env(0xBADC705).schedules(16);
    let result = det::explore_result(&cfg, || {
        const PRODUCERS: u64 = 2;
        const PER: u64 = 4;
        let q = Arc::new(tuned_det_q(0, 16, 1));
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                det::spawn(move || {
                    for i in 0..PER {
                        q.insert(i % 3, token(p, i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        q.close();
        let in_shards: usize = (0..2).map(|i| q.shard(i).len_hint()).sum();
        assert_eq!(
            in_shards,
            (PRODUCERS * PER) as usize,
            "close() stranded staged inserts in thread-local buffers"
        );
    });
    fault::reset();
    let failure = result
        .expect_err("deleting the close-flush must strand every staged insert, deterministically");
    eprintln!("mutation caught:\n{failure}");
}

/// Mutation check: with the pool's lagging-consumer wait compiled out
/// (the `pool.skip-consumer-wait` failpoint armed `Always`), the det
/// harness must catch the reintroduced overwrite race within a bounded
/// number of schedules. `#[ignore]` by default — CI runs it explicitly
/// (`--ignored`) with `--features "det-sched fault-inject"`.
#[cfg(feature = "fault-inject")]
#[test]
#[ignore = "mutation check; run explicitly in CI with --ignored"]
fn det_mutation_skipped_consumer_wait_is_caught() {
    let _x = fault::exclusive();
    fault::reset();
    fault::configure(
        "pool.skip-consumer-wait",
        fault::Policy::new(fault::Trigger::Always),
    );
    let cfg = Config::from_env(0x5EEDBAD).schedules(10_000);
    let result = det::explore_result(&cfg, || {
        const ITEMS: u64 = 6;
        let q: Arc<Zmsq<u64>> = Arc::new(Zmsq::with_config(
            ZmsqConfig::default()
                .batch(2)
                .target_len(4)
                .reclamation(zmsq::Reclamation::ConsumerWait),
        ));
        let qc = Arc::new(QcChecker::new());
        let taken = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        {
            let (q, qc) = (Arc::clone(&q), Arc::clone(&qc));
            handles.push(det::spawn(move || {
                let mut log = qc.handle();
                for i in 0..ITEMS {
                    log.on_insert(i, i);
                    q.insert(i, i);
                }
                qc.absorb(log);
            }));
        }
        for _ in 0..2 {
            let (q, qc, taken) = (Arc::clone(&q), Arc::clone(&qc), Arc::clone(&taken));
            handles.push(det::spawn(move || {
                let mut log = qc.handle();
                while taken.load(Ordering::SeqCst) < ITEMS {
                    if let Some((k, t)) = q.extract_max() {
                        log.on_extract(k, t);
                        taken.fetch_add(1, Ordering::SeqCst);
                    }
                }
                qc.absorb(log);
            }));
        }
        for h in handles {
            h.join();
        }
        if let Err(e) = qc.check(true) {
            panic!("mutation surfaced as oracle violation: {e}");
        }
    });
    fault::reset();
    let failure =
        result.expect_err("the wait_for_consumers mutation must be caught within 10,000 schedules");
    // The shrunk failing schedule is what CI uploads on failure; here it
    // proves the report machinery works end to end.
    eprintln!("mutation caught:\n{failure}");
}
