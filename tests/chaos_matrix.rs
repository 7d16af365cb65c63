//! Chaos matrix: the repo's core invariants re-verified under seeded
//! fault schedules (`--features fault-inject`).
//!
//! Each test arms a set of failpoints (see DESIGN.md, "Fault model &
//! injection points"), then re-runs an invariant the plain test suite
//! already checks on clean executions:
//!
//! * **conservation** — every inserted element is extracted exactly
//!   once (XOR + sum checksums), under stretched pool windows, spurious
//!   trylock failures and forced SMR retries;
//! * **emptiness guarantee** — `extract_max` never returns `None` while
//!   the queue provably holds an element;
//! * **blocking liveness** — parked consumers always finish under
//!   spurious wakeups and pre-park delays;
//! * **panic recovery** — injected panics inside locked windows leave
//!   the tree usable (insert) or lose nothing (extract);
//! * **timeout regression** — `extract_max_timeout` charges spurious
//!   wakeups against the original deadline.
//!
//! The schedule seed defaults to a fixed matrix value and can be
//! overridden with `CHAOS_SEED=<decimal or 0xhex>` — CI sweeps a small
//! fixed set of seeds; a failure message always includes the seed so any
//! run is replayable.
//!
//! The conservation test doubles as the suite's mutation check: arm
//! `pool.skip-consumer-wait` (`Trigger::Always`) in
//! `conservation_consumer_wait_under_claim_delay`, which makes the pool
//! ring's drained check answer "drained" under a lagging claimant, and
//! the test fails (the stretched claim window races the next refill).

#![cfg(feature = "fault-inject")]

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

use baselines::{KLsm, Mound, MultiQueue, SprayList};
use fault::{Action, Policy, Trigger};
use pq_traits::ConcurrentPriorityQueue;
use zmsq::{Reclamation, ShardedConfig, ShardedZmsq, ShedPolicy, Zmsq, ZmsqConfig};

/// Base seed for every schedule; override with `CHAOS_SEED`.
fn chaos_seed() -> u64 {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => {
            let s = s.trim();
            let parsed = if let Some(hex) = s.strip_prefix("0x") {
                u64::from_str_radix(hex, 16)
            } else {
                s.parse()
            };
            parsed.unwrap_or_else(|_| panic!("unparseable CHAOS_SEED `{s}`"))
        }
        Err(_) => 0xC4A0_5EED,
    }
}

/// Failure hook: when the owning test panics, dump the obs flight
/// recorder to `target/obs-dump-<seed>.json` so the trace leading up to
/// the failure is preserved alongside the replayable `CHAOS_SEED`. On a
/// passing test the guard drops silently.
struct DumpOnFail(u64);

impl Drop for DumpOnFail {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let path = std::path::PathBuf::from(format!("target/obs-dump-{:#x}.json", self.0));
            if obs::recorder::dump_to_file(&path).is_ok() {
                eprintln!("chaos: flight recorder dumped to {}", path.display());
            }
        }
    }
}

/// XOR+sum conservation under concurrent producers/consumers: the
/// fundamental safety property, immune to reordering by construction.
fn run_conservation(q: &impl ConcurrentPriorityQueue<u64>, per_thread: u64) {
    const PRODUCERS: u64 = 2;
    const CONSUMERS: u64 = 2;
    let inserted_xor = AtomicU64::new(0);
    let inserted_sum = AtomicU64::new(0);
    let extracted_xor = AtomicU64::new(0);
    let extracted_sum = AtomicU64::new(0);
    let extracted_n = AtomicU64::new(0);
    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let (xor, sum) = (&inserted_xor, &inserted_sum);
            s.spawn(move || {
                let mut x = 0x1234_5678 + p;
                let mut lx = 0u64;
                let mut ls = 0u64;
                for _ in 0..per_thread {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    q.insert(x % 65_536, x);
                    lx ^= x;
                    ls = ls.wrapping_add(x);
                }
                xor.fetch_xor(lx, Ordering::Relaxed);
                sum.fetch_add(ls, Ordering::Relaxed);
            });
        }
        for _ in 0..CONSUMERS {
            let (xor, sum, n) = (&extracted_xor, &extracted_sum, &extracted_n);
            s.spawn(move || {
                let mut lx = 0u64;
                let mut ls = 0u64;
                let mut ln = 0u64;
                let budget = per_thread * PRODUCERS / CONSUMERS / 2;
                let mut misses = 0u64;
                while ln < budget && misses < 1_000_000 {
                    match q.extract_max() {
                        Some((_, v)) => {
                            lx ^= v;
                            ls = ls.wrapping_add(v);
                            ln += 1;
                        }
                        None => misses += 1,
                    }
                }
                xor.fetch_xor(lx, Ordering::Relaxed);
                sum.fetch_add(ls, Ordering::Relaxed);
                n.fetch_add(ln, Ordering::Relaxed);
            });
        }
    });
    // Drain the remainder single-threaded.
    while let Some((_, v)) = q.extract_max() {
        extracted_xor.fetch_xor(v, Ordering::Relaxed);
        extracted_sum.fetch_add(v, Ordering::Relaxed);
        extracted_n.fetch_add(1, Ordering::Relaxed);
    }
    assert_eq!(
        extracted_n.load(Ordering::Relaxed),
        per_thread * PRODUCERS,
        "element count not conserved"
    );
    assert_eq!(
        extracted_xor.load(Ordering::Relaxed),
        inserted_xor.load(Ordering::Relaxed),
        "XOR checksum mismatch: elements lost or duplicated"
    );
    assert_eq!(
        extracted_sum.load(Ordering::Relaxed),
        inserted_sum.load(Ordering::Relaxed),
        "sum checksum mismatch: elements lost or duplicated"
    );
}

/// The mutation-check test: ConsumerWait reclamation with the
/// claimed-but-unread window stretched by `pool.claim-delay`. Only the
/// ring's drained check makes this safe — skip it and the refill
/// overwrites slots a sleeping claimant has yet to read.
#[test]
fn conservation_consumer_wait_under_claim_delay() {
    let _x = fault::exclusive();
    fault::reset();
    let seed = chaos_seed();
    fault::set_seed(seed ^ 0x01);
    let _dump = DumpOnFail(seed ^ 0x01);
    fault::configure(
        "pool.claim-delay",
        Policy::new(Trigger::Prob(0.2)).with_action(Action::SleepMs(1)),
    );
    fault::configure(
        "pool.refill-delay",
        Policy::new(Trigger::Prob(0.3)).with_action(Action::Yield),
    );
    let q: Zmsq<u64> = Zmsq::with_config(
        ZmsqConfig::default()
            .batch(8)
            .target_len(12)
            .reclamation(Reclamation::ConsumerWait),
    );
    run_conservation(&q, 3_000);
    assert!(
        fault::hit_count("pool.claim-delay") > 0,
        "seed {seed:#x}: claim-delay failpoint never evaluated"
    );
    fault::reset();
}

/// The rank estimator's shadow reservoir under stretched pool windows:
/// the claim/refill races that `pool.claim-delay` provokes must not
/// leak or double-release reservoir slots. Shift 0 samples every key,
/// and the keyspace (`x % 65_536`) far exceeds the 512-slot reservoir,
/// so drops are expected — the exact conservation identities are what
/// must survive:
///
/// * `sampled_inserts == stored + dropped`
/// * `sampled_extracts == matched + missed`
/// * `live == stored - matched` (no removes in this workload)
#[test]
fn estimator_conserves_samples_under_claim_delay() {
    let _x = fault::exclusive();
    fault::reset();
    let seed = chaos_seed();
    fault::set_seed(seed ^ 0x0C);
    let _dump = DumpOnFail(seed ^ 0x0C);
    fault::configure(
        "pool.claim-delay",
        Policy::new(Trigger::Prob(0.2)).with_action(Action::SleepMs(1)),
    );
    fault::configure(
        "pool.refill-delay",
        Policy::new(Trigger::Prob(0.3)).with_action(Action::Yield),
    );
    let q: Zmsq<u64> = Zmsq::with_config(
        ZmsqConfig::default()
            .batch(8)
            .target_len(12)
            .rank_estimator(0),
    );
    run_conservation(&q, 1_500);
    // Drain the half the consumers left behind so the identities are
    // checked against a quiescent, empty queue.
    while q.extract_max().is_some() {}
    assert!(
        fault::hit_count("pool.claim-delay") > 0,
        "seed {seed:#x}: claim-delay failpoint never evaluated"
    );
    let est = q.rank_estimator().expect("estimator configured on");
    let (si, st, dr, se, ma, mi, sr, rm, rs) = est.counters();
    assert_eq!(si, 3_000, "shift 0 samples every insert");
    assert_eq!(se, 3_000, "shift 0 samples every extract (full drain)");
    assert_eq!(si, st + dr, "insert conservation broken (seed {seed:#x})");
    assert!(dr > 0, "3000 live keys must overflow 512 slots");
    assert_eq!(se, ma + mi, "extract conservation broken (seed {seed:#x})");
    assert_eq!((sr, rm, rs), (0, 0, 0), "nothing removes in this workload");
    assert_eq!(
        est.live() as u64,
        st - ma,
        "slots leaked or double-released (seed {seed:#x})"
    );
    fault::reset();
}

/// Conservation for the hazard-pointer (default) and leak reclamation
/// modes under spurious trylock failures, forced SMR protect retries and
/// stretched pool windows.
#[test]
fn conservation_hazard_and_leak_under_faults() {
    let _x = fault::exclusive();
    let seed = chaos_seed();
    for (tag, reclamation) in [(0x02u64, Reclamation::Hazard), (0x03, Reclamation::Leak)] {
        fault::reset();
        fault::set_seed(seed ^ tag);
        let _dump = DumpOnFail(seed ^ tag);
        fault::configure("trylock.spurious-fail", Policy::new(Trigger::Prob(0.05)));
        fault::configure("smr.protect-retry", Policy::new(Trigger::Prob(0.2)));
        fault::configure(
            "pool.claim-delay",
            Policy::new(Trigger::Prob(0.05)).with_action(Action::Yield),
        );
        let q: Zmsq<u64> = Zmsq::with_config(
            ZmsqConfig::default()
                .batch(8)
                .target_len(12)
                .reclamation(reclamation),
        );
        run_conservation(&q, 3_000);
        fault::reset();
    }
}

/// Sharded conservation under stretched pool windows: every shard's
/// claim and refill paths hit the same failpoints, so the two-choice
/// winner/loser steal and the cross-shard sweep run against delayed
/// claims and racing refills. Each shard's adaptive batch controller is
/// armed, so its mid-run resizes (made in root visits, between takes)
/// are also under fire, and the test checks that some happened.
#[test]
fn conservation_sharded_adaptive_under_pool_faults() {
    let _x = fault::exclusive();
    fault::reset();
    let seed = chaos_seed();
    fault::set_seed(seed ^ 0x09);
    let _dump = DumpOnFail(seed ^ 0x09);
    fault::configure(
        "pool.claim-delay",
        Policy::new(Trigger::Prob(0.1)).with_action(Action::SleepMs(1)),
    );
    fault::configure(
        "pool.refill-delay",
        Policy::new(Trigger::Prob(0.2)).with_action(Action::Yield),
    );
    fault::configure("trylock.spurious-fail", Policy::new(Trigger::Prob(0.05)));
    let q: ShardedZmsq<u64> = ShardedZmsq::new(
        4,
        ZmsqConfig::default()
            .batch(4)
            .target_len(8)
            .adaptive_batch(2, 16),
    );
    run_conservation(&q, 3_000);
    assert!(
        fault::hit_count("pool.claim-delay") > 0,
        "seed {seed:#x}: claim-delay failpoint never evaluated"
    );
    let m = q.metrics().unwrap();
    let moves = m.counter("zmsq.batch.widens").unwrap() + m.counter("zmsq.batch.narrows").unwrap();
    assert!(moves > 0, "seed {seed:#x}: the adaptive batch never moved");
    fault::reset();
}

/// The batched entry points under the same pool faults: `insert_batch`
/// scatters, `extract_batch` claims multi-slot windows (`try_claim_many`
/// sits directly on the `pool.claim-delay` failpoint), and XOR/sum
/// checksums must still balance.
#[test]
fn conservation_sharded_batched_ops_under_pool_faults() {
    let _x = fault::exclusive();
    fault::reset();
    let seed = chaos_seed();
    fault::set_seed(seed ^ 0x0A);
    let _dump = DumpOnFail(seed ^ 0x0A);
    fault::configure(
        "pool.claim-delay",
        Policy::new(Trigger::Prob(0.1)).with_action(Action::Yield),
    );
    fault::configure(
        "pool.refill-delay",
        Policy::new(Trigger::Prob(0.2)).with_action(Action::Yield),
    );
    let q: ShardedZmsq<u64> = ShardedZmsq::new(2, ZmsqConfig::default().batch(8).target_len(12));
    const PRODUCERS: u64 = 2;
    const CONSUMERS: u64 = 2;
    const PER: u64 = 3_000;
    let inserted_xor = AtomicU64::new(0);
    let extracted_xor = AtomicU64::new(0);
    let extracted_n = AtomicU64::new(0);
    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let (q, xor) = (&q, &inserted_xor);
            s.spawn(move || {
                let mut x = 0xBA7C_4ED0 + p;
                let mut lx = 0u64;
                let mut batch = Vec::with_capacity(16);
                for _ in 0..PER {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    batch.push((x % 65_536, x));
                    lx ^= x;
                    if batch.len() == 16 {
                        q.insert_batch(&mut batch);
                    }
                }
                q.insert_batch(&mut batch);
                xor.fetch_xor(lx, Ordering::Relaxed);
            });
        }
        for _ in 0..CONSUMERS {
            let (q, xor, n) = (&q, &extracted_xor, &extracted_n);
            s.spawn(move || {
                let mut lx = 0u64;
                let mut ln = 0u64;
                let mut out = Vec::with_capacity(8);
                let budget = PER * PRODUCERS / CONSUMERS / 2;
                let mut misses = 0u64;
                while ln < budget && misses < 1_000_000 {
                    out.clear();
                    let got = q.extract_batch(&mut out, 8);
                    if got == 0 {
                        misses += 1;
                        continue;
                    }
                    for &(_, v) in &out {
                        lx ^= v;
                    }
                    ln += got as u64;
                }
                xor.fetch_xor(lx, Ordering::Relaxed);
                n.fetch_add(ln, Ordering::Relaxed);
            });
        }
    });
    let mut out = Vec::new();
    while q.extract_batch(&mut out, 64) > 0 {}
    for &(_, v) in &out {
        extracted_xor.fetch_xor(v, Ordering::Relaxed);
        extracted_n.fetch_add(1, Ordering::Relaxed);
    }
    assert_eq!(
        extracted_n.load(Ordering::Relaxed),
        PER * PRODUCERS,
        "batched element count not conserved"
    );
    assert_eq!(
        extracted_xor.load(Ordering::Relaxed),
        inserted_xor.load(Ordering::Relaxed),
        "batched XOR checksum mismatch: elements lost or duplicated"
    );
    assert!(
        fault::hit_count("pool.claim-delay") > 0,
        "seed {seed:#x}: claim-delay failpoint never evaluated"
    );
    fault::reset();
}

/// Emptiness guarantee (§3.7) under faults: a credit claimed after a
/// completed insert proves the queue is nonempty, so `extract_max` must
/// return `Some` on the first call — even with trylock failures and
/// stretched pool windows injected.
#[test]
fn emptiness_guarantee_under_faults() {
    let _x = fault::exclusive();
    fault::reset();
    let seed = chaos_seed();
    fault::set_seed(seed ^ 0x04);
    let _dump = DumpOnFail(seed ^ 0x04);
    fault::configure("trylock.spurious-fail", Policy::new(Trigger::Prob(0.05)));
    fault::configure(
        "pool.claim-delay",
        Policy::new(Trigger::Prob(0.1)).with_action(Action::Yield),
    );
    fault::configure(
        "pool.refill-delay",
        Policy::new(Trigger::Prob(0.1)).with_action(Action::Yield),
    );

    const PRODUCERS: usize = 2;
    const CONSUMERS: usize = 4;
    const TOTAL: i64 = 20_000;
    let q: Zmsq<u64> = Zmsq::with_config(ZmsqConfig::default().batch(8).target_len(12));
    let credits = AtomicI64::new(0);
    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let q = &q;
            let credits = &credits;
            s.spawn(move || {
                let share = TOTAL / PRODUCERS as i64;
                let mut x = 0xACE0 + p as u64;
                for _ in 0..share {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    q.insert(x % 65_536, x);
                    // Credit only after the insert completed.
                    credits.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        for _ in 0..CONSUMERS {
            let q = &q;
            let credits = &credits;
            s.spawn(move || loop {
                let c = credits.fetch_sub(1, Ordering::SeqCst);
                if c <= 0 {
                    credits.fetch_add(1, Ordering::SeqCst);
                    if c <= -(TOTAL * 2) {
                        return; // producers done, queue drained
                    }
                    let done = credits.load(Ordering::SeqCst) <= 0;
                    std::thread::yield_now();
                    if done && q.len_hint() == 0 {
                        return;
                    }
                    continue;
                }
                assert!(
                    q.extract_max().is_some(),
                    "emptiness guarantee violated: None with a claimed credit"
                );
            });
        }
    });
    fault::reset();
}

/// Blocking liveness (§3.6) under spurious wakeups and pre-park delays:
/// every handoff completes and `close()` releases the consumer.
#[test]
fn blocking_liveness_under_faults() {
    let _x = fault::exclusive();
    fault::reset();
    let seed = chaos_seed();
    fault::set_seed(seed ^ 0x05);
    let _dump = DumpOnFail(seed ^ 0x05);
    fault::configure("futex.spurious-wake", Policy::new(Trigger::Prob(0.3)));
    fault::configure(
        "event.pre-park-delay",
        Policy::new(Trigger::Prob(0.05)).with_action(Action::SleepMs(1)),
    );

    const ROUNDS: u64 = 1_000;
    let q: Zmsq<u64> =
        Zmsq::with_config(ZmsqConfig::default().batch(4).target_len(8).blocking(true));
    let got = AtomicU64::new(0);
    std::thread::scope(|s| {
        let q2 = &q;
        let got = &got;
        let consumer = s.spawn(move || {
            let mut n = 0u64;
            while q2.extract_max_blocking().is_some() {
                n += 1;
                got.fetch_add(1, Ordering::SeqCst);
            }
            n
        });
        for i in 0..ROUNDS {
            q.insert(i % 128, i);
            if i % 64 == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        while got.load(Ordering::SeqCst) < ROUNDS {
            std::thread::yield_now();
        }
        q.close();
        assert_eq!(consumer.join().unwrap(), ROUNDS);
    });
    assert!(
        fault::hit_count("futex.spurious-wake") > 0,
        "spurious-wake off-path"
    );
    fault::reset();
}

/// Panic recovery: periodic injected panics inside insert's locked
/// window must only ever lose the in-flight element — the queue stays
/// operational and everything else drains out.
#[test]
fn insert_panic_recovery_under_faults() {
    let _x = fault::exclusive();
    fault::reset();
    let seed = chaos_seed();
    fault::set_seed(seed ^ 0x06);
    let _dump = DumpOnFail(seed ^ 0x06);
    fault::configure(
        "queue.insert.locked-panic",
        Policy::new(Trigger::EveryNth(97)).with_action(Action::Panic("chaos")),
    );
    let q: Zmsq<u64> = Zmsq::with_config(ZmsqConfig::default().batch(4).target_len(6));
    const N: u64 = 5_000;
    let mut lost = 0u64;
    for i in 0..N {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.insert(i % 512, i);
        }));
        if r.is_err() {
            lost += 1;
        }
    }
    assert!(lost > 0, "seed: panic failpoint never fired");
    fault::reset();
    let mut q = q;
    q.validate_invariants()
        .expect("tree invariants broken after unwinds");
    assert_eq!(
        q.drain_count() as u64,
        N - lost,
        "conservation modulo lost in-flight"
    );
}

/// Extraction panics fire before any mutation: nothing is lost across
/// repeated injected panics, and the drain completes.
#[test]
fn extract_panic_recovery_under_faults() {
    let _x = fault::exclusive();
    fault::reset();
    let seed = chaos_seed();
    fault::set_seed(seed ^ 0x07);
    let _dump = DumpOnFail(seed ^ 0x07);
    let q: Zmsq<u64> = Zmsq::with_config(ZmsqConfig::default().batch(4).target_len(6));
    const N: u64 = 2_000;
    for i in 0..N {
        q.insert(i % 512, i);
    }
    fault::configure(
        "queue.extract.locked-panic",
        Policy::new(Trigger::EveryNth(41)).with_action(Action::Panic("chaos")),
    );
    let mut drained = 0u64;
    let mut panics = 0u64;
    loop {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| q.extract_max())) {
            Ok(Some(_)) => drained += 1,
            Ok(None) => break,
            Err(_) => panics += 1,
        }
    }
    assert!(panics > 0, "panic failpoint never fired");
    assert_eq!(drained, N, "extraction panics must not lose elements");
    fault::reset();
}

/// `extract_max_timeout` must meet its deadline even when every park
/// returns spuriously (the satellite-2 regression, at matrix scale).
#[test]
fn timeout_holds_under_spurious_wake_storm() {
    let _x = fault::exclusive();
    fault::reset();
    let seed = chaos_seed();
    fault::set_seed(seed ^ 0x08);
    let _dump = DumpOnFail(seed ^ 0x08);
    fault::configure("futex.spurious-wake", Policy::new(Trigger::Always));
    let q: Zmsq<u64> = Zmsq::with_config(ZmsqConfig::default().blocking(true));
    let timeout = Duration::from_millis(40);
    let start = std::time::Instant::now();
    assert_eq!(q.extract_max_timeout(timeout), None);
    let elapsed = start.elapsed();
    fault::reset();
    assert!(elapsed >= timeout, "returned early: {elapsed:?}");
    assert!(elapsed < timeout * 25, "deadline restarted: {elapsed:?}");
}

/// Overload conservation under all three shed policies with the
/// `queue.capacity.race` failpoint stretching the window between a
/// successful occupancy CAS and the element actually landing in the
/// tree (and between extraction and the matching release). Each policy
/// has its own exact accounting identity:
///
/// * `Block` — nothing is ever shed, so the plain XOR/sum checksums
///   must balance and every element round-trips;
/// * `Reject` — `try_insert` hands rejected elements back, so the
///   admitted-side checksum (tracked by the producers) must balance;
/// * `ShedLowest` — evicted victims were admitted first, so the count
///   identity `inserts == extracted + shed_evicted` must hold.
///
/// All three end with `occupancy() == 0` after a full drain: the
/// occupancy counter is exactly admitted − extracted − evicted.
#[test]
fn overload_conservation_all_policies_under_capacity_race() {
    let _x = fault::exclusive();
    let seed = chaos_seed();
    const PRODUCERS: u64 = 2;
    const PER: u64 = 2_000;
    const CAP: usize = 64;

    let arm = |tag: u64| {
        fault::reset();
        fault::set_seed(seed ^ tag);
        fault::configure(
            "queue.capacity.race",
            Policy::new(Trigger::Prob(0.15)).with_action(Action::Yield),
        );
    };
    let bounded = |shed: ShedPolicy| -> Zmsq<u64> {
        Zmsq::with_config(
            ZmsqConfig::default()
                .batch(4)
                .target_len(8)
                .capacity(CAP)
                .shed_policy(shed),
        )
    };

    // Block: producers park when full, a consumer drains until every
    // produced element came back out. Exact XOR conservation.
    {
        arm(0x0B);
        let _dump = DumpOnFail(seed ^ 0x0B);
        let q = bounded(ShedPolicy::Block);
        let inserted_xor = AtomicU64::new(0);
        let extracted_xor = AtomicU64::new(0);
        let extracted_n = AtomicU64::new(0);
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let (q, xor) = (&q, &inserted_xor);
                s.spawn(move || {
                    let mut x = 0x0B10_C4ED + p;
                    let mut lx = 0u64;
                    for _ in 0..PER {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        q.insert(x % 65_536, x);
                        lx ^= x;
                    }
                    xor.fetch_xor(lx, Ordering::Relaxed);
                });
            }
            let (q, xor, n) = (&q, &extracted_xor, &extracted_n);
            s.spawn(move || {
                // Must drain everything: parked producers depend on it.
                while n.load(Ordering::Relaxed) < PER * PRODUCERS {
                    match q.extract_max() {
                        Some((_, v)) => {
                            xor.fetch_xor(v, Ordering::Relaxed);
                            n.fetch_add(1, Ordering::Relaxed);
                        }
                        None => std::thread::yield_now(),
                    }
                }
            });
        });
        assert_eq!(
            extracted_xor.load(Ordering::Relaxed),
            inserted_xor.load(Ordering::Relaxed),
            "seed {seed:#x}: Block policy lost or duplicated elements"
        );
        assert_eq!(q.occupancy(), 0, "seed {seed:#x}: Block occupancy leak");
        assert!(
            fault::hit_count("queue.capacity.race") > 0,
            "seed {seed:#x}: capacity.race failpoint never evaluated"
        );
    }

    // Reject: producers use `try_insert` and keep the exact admitted
    // checksum (a Full error hands the element back untouched).
    {
        arm(0x1B);
        let _dump = DumpOnFail(seed ^ 0x1B);
        let q = bounded(ShedPolicy::Reject);
        let admitted_xor = AtomicU64::new(0);
        let admitted_n = AtomicU64::new(0);
        let rejected_n = AtomicU64::new(0);
        let extracted_xor = AtomicU64::new(0);
        let extracted_n = AtomicU64::new(0);
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let (q, xor, an, rn) = (&q, &admitted_xor, &admitted_n, &rejected_n);
                s.spawn(move || {
                    let mut x = 0x4E1E_C7ED + p;
                    let (mut lx, mut la, mut lr) = (0u64, 0u64, 0u64);
                    for _ in 0..PER {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        match q.try_insert(x % 65_536, x) {
                            Ok(()) => {
                                lx ^= x;
                                la += 1;
                            }
                            Err(e) => {
                                let v = e.into_value();
                                assert_eq!(v, x, "rejected element mangled");
                                lr += 1;
                            }
                        }
                    }
                    xor.fetch_xor(lx, Ordering::Relaxed);
                    an.fetch_add(la, Ordering::Relaxed);
                    rn.fetch_add(lr, Ordering::Relaxed);
                });
            }
            for _ in 0..2 {
                let (q, xor, n) = (&q, &extracted_xor, &extracted_n);
                s.spawn(move || {
                    let mut misses = 0u64;
                    while misses < 200_000 {
                        match q.extract_max() {
                            Some((_, v)) => {
                                xor.fetch_xor(v, Ordering::Relaxed);
                                n.fetch_add(1, Ordering::Relaxed);
                                misses = 0;
                            }
                            None => misses += 1,
                        }
                    }
                });
            }
        });
        while let Some((_, v)) = q.extract_max() {
            extracted_xor.fetch_xor(v, Ordering::Relaxed);
            extracted_n.fetch_add(1, Ordering::Relaxed);
        }
        assert_eq!(
            extracted_n.load(Ordering::Relaxed),
            admitted_n.load(Ordering::Relaxed),
            "seed {seed:#x}: Reject admitted-count identity broken"
        );
        assert_eq!(
            extracted_xor.load(Ordering::Relaxed),
            admitted_xor.load(Ordering::Relaxed),
            "seed {seed:#x}: Reject admitted-XOR identity broken"
        );
        assert_eq!(q.occupancy(), 0, "seed {seed:#x}: Reject occupancy leak");
        assert!(
            fault::hit_count("queue.capacity.race") > 0,
            "seed {seed:#x}: capacity.race failpoint never evaluated"
        );
    }

    // ShedLowest: evictions silently drop admitted elements, so the
    // identity shifts to the stats counters.
    {
        arm(0x2B);
        let _dump = DumpOnFail(seed ^ 0x2B);
        let mut q = bounded(ShedPolicy::ShedLowest);
        let extracted_n = AtomicU64::new(0);
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = &q;
                s.spawn(move || {
                    let mut x = 0x53ED_10E5 + p;
                    for _ in 0..PER {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        q.insert(x % 65_536, x);
                    }
                });
            }
            for _ in 0..2 {
                let (q, n) = (&q, &extracted_n);
                s.spawn(move || {
                    let mut misses = 0u64;
                    while misses < 200_000 {
                        match q.extract_max() {
                            Some(_) => {
                                n.fetch_add(1, Ordering::Relaxed);
                                misses = 0;
                            }
                            None => misses += 1,
                        }
                    }
                });
            }
        });
        while q.extract_max().is_some() {
            extracted_n.fetch_add(1, Ordering::Relaxed);
        }
        let s = q.stats();
        assert_eq!(
            s.inserts,
            extracted_n.load(Ordering::Relaxed) + s.shed_evicted,
            "seed {seed:#x}: ShedLowest conservation identity broken \
             (inserts != extracted + evicted)"
        );
        assert_eq!(
            s.inserts + s.shed_rejected,
            PER * PRODUCERS,
            "seed {seed:#x}: ShedLowest arrival accounting broken"
        );
        assert_eq!(
            q.occupancy(),
            0,
            "seed {seed:#x}: ShedLowest occupancy leak"
        );
        assert!(
            fault::hit_count("queue.capacity.race") > 0,
            "seed {seed:#x}: capacity.race failpoint never evaluated"
        );
        q.validate_invariants()
            .expect("tree invariants broken after evictions under faults");
    }
    fault::reset();
}

/// Producer liveness under lost-wake pressure: `producer.wake-lost`
/// stalls every producer between its failed admission attempt and
/// sleeper registration, so concurrent release+signal pairs complete
/// entirely inside the gap. The `EventBuffer` predicate re-check after
/// registration is the only thing standing between this schedule and a
/// parked-forever producer — the test passing *is* the liveness proof.
#[test]
fn producer_liveness_under_wake_lost() {
    let _x = fault::exclusive();
    fault::reset();
    let seed = chaos_seed();
    fault::set_seed(seed ^ 0x0C);
    let _dump = DumpOnFail(seed ^ 0x0C);
    fault::configure(
        "producer.wake-lost",
        Policy::new(Trigger::Prob(0.25)).with_action(Action::SleepMs(1)),
    );
    let q: Zmsq<u64> = Zmsq::with_config(
        ZmsqConfig::default()
            .batch(2)
            .target_len(4)
            .capacity(4)
            .shed_policy(ShedPolicy::Block),
    );
    const PRODUCERS: u64 = 2;
    const PER: u64 = 400;
    let inserted_xor = AtomicU64::new(0);
    let extracted_xor = AtomicU64::new(0);
    let extracted_n = AtomicU64::new(0);
    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let (q, xor) = (&q, &inserted_xor);
            s.spawn(move || {
                let mut x = 0x3A4E_5EED + p;
                let mut lx = 0u64;
                for _ in 0..PER {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    q.insert(x % 65_536, x);
                    lx ^= x;
                }
                xor.fetch_xor(lx, Ordering::Relaxed);
            });
        }
        let (q, xor, n) = (&q, &extracted_xor, &extracted_n);
        s.spawn(move || {
            while n.load(Ordering::Relaxed) < PER * PRODUCERS {
                match q.extract_max() {
                    Some((_, v)) => {
                        xor.fetch_xor(v, Ordering::Relaxed);
                        n.fetch_add(1, Ordering::Relaxed);
                    }
                    None => std::thread::yield_now(),
                }
            }
        });
    });
    let stats = q.stats();
    assert_eq!(
        extracted_xor.load(Ordering::Relaxed),
        inserted_xor.load(Ordering::Relaxed),
        "seed {seed:#x}: elements lost or duplicated under wake-lost"
    );
    assert_eq!(q.occupancy(), 0, "seed {seed:#x}: occupancy leak");
    assert!(
        stats.producer_waits > 0,
        "seed {seed:#x}: capacity 4 never made a producer wait"
    );
    assert!(
        fault::hit_count("producer.wake-lost") > 0,
        "seed {seed:#x}: wake-lost failpoint never evaluated"
    );
    fault::reset();
}

/// Batched-op conservation for a baseline through the `pq_traits`
/// default `insert_batch`/`extract_batch` paths, with a seeded
/// harness-side failpoint (`baseline.op-delay`) perturbing the
/// interleaving between batch operations.
///
/// Returns `(inserted_xor, extracted_xor, extracted_n)` after a
/// best-effort drain rather than asserting: k-LSM legitimately strands
/// elements in exited threads' local buffers (the §2.1 deficiency this
/// repo reproduces on purpose), so the caller finishes reconciliation —
/// with [`KLsm::drain_all`] where needed — and asserts the identity.
fn run_conservation_batched(
    q: &impl ConcurrentPriorityQueue<u64>,
    per_thread: u64,
    salt: u64,
) -> (u64, u64, u64) {
    const PRODUCERS: u64 = 2;
    const CONSUMERS: u64 = 2;
    let inserted_xor = AtomicU64::new(0);
    let extracted_xor = AtomicU64::new(0);
    let extracted_n = AtomicU64::new(0);
    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let (q, xor) = (&q, &inserted_xor);
            s.spawn(move || {
                let mut x = salt + p;
                let mut lx = 0u64;
                let mut batch = Vec::with_capacity(16);
                for _ in 0..per_thread {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    batch.push((x % 65_536, x));
                    lx ^= x;
                    if batch.len() == 16 {
                        fault::fail_point!("baseline.op-delay");
                        q.insert_batch(&mut batch);
                    }
                }
                q.insert_batch(&mut batch);
                xor.fetch_xor(lx, Ordering::Relaxed);
            });
        }
        for _ in 0..CONSUMERS {
            let (q, xor, n) = (&q, &extracted_xor, &extracted_n);
            s.spawn(move || {
                let mut lx = 0u64;
                let mut ln = 0u64;
                let mut out = Vec::new();
                let budget = per_thread * PRODUCERS / CONSUMERS / 2;
                let mut misses = 0u64;
                while ln < budget && misses < 1_000_000 {
                    out.clear();
                    fault::fail_point!("baseline.op-delay");
                    let got = q.extract_batch(&mut out, 8);
                    if got == 0 {
                        misses += 1;
                        continue;
                    }
                    for &(_, v) in &out {
                        lx ^= v;
                    }
                    ln += got as u64;
                }
                xor.fetch_xor(lx, Ordering::Relaxed);
                n.fetch_add(ln, Ordering::Relaxed);
            });
        }
    });
    // Best-effort drain. SprayList extractions can spuriously observe
    // empty, so bound the retries by overall progress (the same idiom as
    // tests/conservation.rs) rather than stopping on the first empty
    // batch; give up after a long quiet streak and let the caller decide
    // whether the shortfall is stranded-by-design (k-LSM) or a real loss.
    let mut out = Vec::new();
    let mut stall = 0u64;
    loop {
        out.clear();
        let got = q.extract_batch(&mut out, 64);
        if got == 0 {
            if extracted_n.load(Ordering::Relaxed) >= per_thread * PRODUCERS {
                break;
            }
            stall += 1;
            if stall >= 100_000 {
                break;
            }
            std::hint::spin_loop();
            continue;
        }
        stall = 0;
        for &(_, v) in &out {
            extracted_xor.fetch_xor(v, Ordering::Relaxed);
        }
        extracted_n.fetch_add(got as u64, Ordering::Relaxed);
    }
    (
        inserted_xor.load(Ordering::Relaxed),
        extracted_xor.load(Ordering::Relaxed),
        extracted_n.load(Ordering::Relaxed),
    )
}

/// The baselines through the default batched entry points under a
/// seeded fault schedule. The baselines carry no internal failpoints,
/// so the injection lives in the harness: a seeded `baseline.op-delay`
/// yield between batch operations widens the producer/consumer
/// interleavings the same way the internal failpoints stretch ZMSQ's
/// windows. One test per baseline so a failure names the culprit.
fn run_baseline_batched_chaos(
    q: &impl ConcurrentPriorityQueue<u64>,
    tag: u64,
    salt: u64,
) -> (u64, u64, u64) {
    let _x = fault::exclusive();
    fault::reset();
    let seed = chaos_seed();
    fault::set_seed(seed ^ tag);
    let _dump = DumpOnFail(seed ^ tag);
    fault::configure(
        "baseline.op-delay",
        Policy::new(Trigger::Prob(0.15)).with_action(Action::Yield),
    );
    let sums = run_conservation_batched(q, BASELINE_PER, salt);
    assert!(
        fault::hit_count("baseline.op-delay") > 0,
        "seed {seed:#x}: op-delay failpoint never evaluated"
    );
    fault::reset();
    sums
}

/// Elements per producer thread in the baseline batched-chaos runs
/// (2 producers, so the conserved total is twice this).
const BASELINE_PER: u64 = 2_000;

/// Mound (strict baseline) batched conservation under seeded faults.
#[test]
fn conservation_mound_batched_under_faults() {
    let q: Mound<u64> = Mound::new();
    let (ins_xor, ext_xor, ext_n) = run_baseline_batched_chaos(&q, 0x0D, 0x40A1_D000);
    assert_eq!(
        ext_n,
        BASELINE_PER * 2,
        "mound: element count not conserved"
    );
    assert_eq!(ext_xor, ins_xor, "mound: elements lost or duplicated");
}

/// SprayList (relaxed baseline) batched conservation under seeded faults.
#[test]
fn conservation_spraylist_batched_under_faults() {
    let q: SprayList<u64> = SprayList::new(4);
    let (ins_xor, ext_xor, ext_n) = run_baseline_batched_chaos(&q, 0x1D, 0x51A4_D000);
    assert_eq!(
        ext_n,
        BASELINE_PER * 2,
        "spraylist: element count not conserved"
    );
    assert_eq!(ext_xor, ins_xor, "spraylist: elements lost or duplicated");
}

/// k-LSM (relaxed baseline) batched conservation under seeded faults.
/// Producers exit with up to `k` elements parked in their local
/// components — invisible to other threads' `extract_max` (the §2.1
/// deficiency this port reproduces on purpose) — so the reconciliation
/// finishes with the quiescent `drain_all` before asserting.
#[test]
fn conservation_klsm_batched_under_faults() {
    let mut q: KLsm<u64> = KLsm::new(64);
    let (ins_xor, mut ext_xor, mut ext_n) = run_baseline_batched_chaos(&q, 0x2D, 0x6C5A_D000);
    let stranded = q.drain_all();
    assert!(
        stranded.len() as u64 <= 2 * 64,
        "k-LSM stranded more than two locals' worth: {}",
        stranded.len()
    );
    for (_, v) in stranded {
        ext_xor ^= v;
        ext_n += 1;
    }
    assert_eq!(
        ext_n,
        BASELINE_PER * 2,
        "k-lsm: element count not conserved"
    );
    assert_eq!(ext_xor, ins_xor, "k-lsm: elements lost or duplicated");
}

/// Tuned (sticky + buffered) conservation under stretched flush
/// windows, once per queue over the one relaxation layer. Operation
/// buffers stage elements in shared per-thread slots, and every
/// overflow/re-sample flush crosses the `shard.flush-delay` failpoint;
/// the sharded row also delays the underlying pool claims and refills
/// and fails trylocks spuriously. Conservation must hold through the
/// flush-before-report path that publishes slot buffers when a consumer
/// would otherwise report empty — including the final single-threaded
/// drain of elements the worker threads left staged.
#[test]
fn conservation_tuned_under_flush_faults() {
    type MakeQ = fn(ShardedConfig) -> Box<dyn ConcurrentPriorityQueue<u64>>;
    let sharded: MakeQ = |t| {
        Box::new(ShardedZmsq::<u64>::with_tuning(
            4,
            ZmsqConfig::default().batch(4).target_len(8),
            t,
        ))
    };
    let multiqueue: MakeQ = |t| Box::new(MultiQueue::<u64>::with_tuning(4, 2, t));
    let rows: [(&str, u64, MakeQ, Vec<(&'static str, Policy)>); 2] = [
        (
            "sharded",
            0x0E,
            sharded,
            vec![
                (
                    "shard.flush-delay",
                    Policy::new(Trigger::Prob(0.05)).with_action(Action::SleepMs(1)),
                ),
                (
                    "pool.claim-delay",
                    Policy::new(Trigger::Prob(0.1)).with_action(Action::Yield),
                ),
                (
                    "pool.refill-delay",
                    Policy::new(Trigger::Prob(0.2)).with_action(Action::Yield),
                ),
                ("trylock.spurious-fail", Policy::new(Trigger::Prob(0.05))),
            ],
        ),
        (
            "multiqueue",
            0x0F,
            multiqueue,
            vec![(
                "shard.flush-delay",
                Policy::new(Trigger::Prob(0.1)).with_action(Action::Yield),
            )],
        ),
    ];
    let _x = fault::exclusive();
    let seed = chaos_seed();
    for (name, salt, make, points) in rows {
        fault::reset();
        fault::set_seed(seed ^ salt);
        let _dump = DumpOnFail(seed ^ salt);
        for (point, policy) in points {
            fault::configure(point, policy);
        }
        let q = make(
            ShardedConfig::new()
                .stickiness(8)
                .insert_buffer(8)
                .delete_buffer(8),
        );
        run_conservation(&q, 3_000);
        assert!(
            fault::hit_count("shard.flush-delay") > 0,
            "{name}, seed {seed:#x}: flush-delay failpoint never evaluated"
        );
    }
    fault::reset();
}
