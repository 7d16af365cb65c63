//! Crate-level tests for ZMSQ: deep tree growth, thread
//! oversubscription, configuration extremes, and bounded admission.

use std::sync::atomic::{AtomicU64, Ordering};

use zmsq::{ShedPolicy, Zmsq, ZmsqConfig};

/// Tiny target_len + many elements forces the tree through repeated
/// expansions (several levels past the initial depth) while concurrent
/// extractions shrink sets from the top.
#[test]
fn deep_tree_growth_under_concurrency() {
    let mut q: Zmsq<u64> = Zmsq::with_config(ZmsqConfig {
        initial_leaf_level: 1,
        ..ZmsqConfig::default().batch(2).target_len(2)
    });
    const THREADS: u64 = 4;
    const PER: u64 = 15_000;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let q = &q;
            s.spawn(move || {
                let mut x = t.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                for i in 0..PER {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    q.insert(x % 1_000_000, x);
                    if i % 4 == 3 {
                        q.extract_max();
                    }
                }
            });
        }
    });
    let stats = q.stats();
    assert!(stats.tree_grows > 0, "tiny sets must force tree growth");
    assert!(stats.splits > 0, "tiny sets must force splits");
    q.validate_invariants().unwrap();
    let remaining = q.drain_count() as u64;
    assert_eq!(stats.inserts - stats.extracts, remaining);
}

/// Way more threads than cores: correctness must hold under heavy
/// preemption (this container has 1 core, making this the harshest
/// interleaving generator available).
#[test]
fn oversubscribed_threads() {
    let q: Zmsq<u64> = Zmsq::with_config(ZmsqConfig::default().batch(16).target_len(24));
    const THREADS: u64 = 16;
    const PER: u64 = 2_000;
    let popped = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let q = &q;
            let popped = &popped;
            s.spawn(move || {
                for i in 0..PER {
                    q.insert((t * PER + i) % 31, i);
                    if i % 2 == 0 && q.extract_max().is_some() {
                        popped.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let rest = q.drain_count() as u64;
    assert_eq!(popped.into_inner() + rest, THREADS * PER);
}

/// One-slot event buffer: maximal contention on the single futex word.
#[test]
fn blocking_with_single_event_slot() {
    let q: Zmsq<u64> = Zmsq::with_config(ZmsqConfig {
        event_slots: 1,
        ..ZmsqConfig::default().batch(4).target_len(8).blocking(true)
    });
    const ITEMS: u64 = 5_000;
    let got = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..3 {
            let q = &q;
            let got = &got;
            s.spawn(move || {
                while q.extract_max_blocking().is_some() {
                    got.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        let q2 = &q;
        let got2 = &got;
        s.spawn(move || {
            for i in 0..ITEMS {
                q2.insert(i % 97, i);
            }
            while got2.load(Ordering::SeqCst) < ITEMS {
                std::thread::yield_now();
            }
            q2.close();
        });
    });
    assert_eq!(got.into_inner(), ITEMS);
}

/// Alternating full drains: the queue repeatedly transitions through
/// truly-empty states under concurrency, exercising the emptiness
/// machinery (swap-down of empty sets, pool exhaustion) end to end.
#[test]
fn repeated_drain_cycles() {
    let q: Zmsq<u64> = Zmsq::with_config(ZmsqConfig::default().batch(8).target_len(12));
    for round in 0..20u64 {
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let q = &q;
                s.spawn(move || {
                    for i in 0..500 {
                        q.insert(round * 1000 + (i + t) % 333, i);
                    }
                });
            }
        });
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..3 {
                let (q, counter) = (&q, &counter);
                s.spawn(move || {
                    while q.extract_max().is_some() {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        // Every round fully drains: 1500 in, 1500 out.
        assert_eq!(counter.into_inner(), 1500, "round {round}");
        assert_eq!(q.extract_max(), None, "round {round} left elements");
    }
    let s = q.stats();
    assert_eq!(s.inserts, 20 * 1500);
    assert_eq!(s.extracts, 20 * 1500);
}

/// Values with destructors and non-Copy payloads work through every path
/// (pool transfer, set swaps, splits), and a queue dropped while holding
/// elements in its sets and pool drops them.
#[test]
fn string_payloads() {
    let q: Zmsq<String> = Zmsq::with_config(ZmsqConfig::default().batch(4).target_len(6));
    std::thread::scope(|s| {
        for t in 0..3u64 {
            let q = &q;
            s.spawn(move || {
                for i in 0..2_000u64 {
                    q.insert((t * 2000 + i) % 500, format!("value-{t}-{i}"));
                    if i % 2 == 1 {
                        if let Some((_, v)) = q.extract_max() {
                            assert!(v.starts_with("value-"));
                        }
                    }
                }
            });
        }
    });
    while let Some((_, v)) = q.extract_max() {
        assert!(v.starts_with("value-"));
    }
    for i in 0..200u64 {
        q.insert(i, format!("payload-{i}"));
    }
    let (p, v) = q.extract_max().unwrap();
    assert_eq!(v, format!("payload-{p}"));
    drop(q);
}

/// A bounded queue under `Reject` admits exactly its capacity, drains to
/// exactly empty, and stays usable afterwards.
#[test]
fn bounded_drains_to_exactly_empty() {
    const CAP: usize = 256;
    let q: Zmsq<u64> = Zmsq::with_config(
        ZmsqConfig::default()
            .capacity(CAP)
            .shed_policy(ShedPolicy::Reject),
    );
    let admitted = (0..CAP as u64 * 2)
        .filter(|&i| q.try_insert(i, i).is_ok())
        .count();
    assert_eq!(admitted, CAP, "Reject admits exactly capacity");
    let mut drained = 0;
    while q.extract_max().is_some() {
        drained += 1;
    }
    assert_eq!(drained, admitted, "every admitted element extracts");
    assert!(q.extract_max().is_none());
    assert_eq!(q.len_hint(), 0);
    q.insert(7, 7);
    assert_eq!(q.extract_max(), Some((7, 7)));
}

/// `capacity()` surfaces through the trait for bounded queues and stays
/// `None` for unbounded ones.
#[test]
fn capacity_reported_through_trait() {
    use pq_traits::ConcurrentPriorityQueue;
    let bounded: Zmsq<u64> = Zmsq::bounded(128);
    assert_eq!(ConcurrentPriorityQueue::capacity(&bounded), Some(128));
    let unbounded: Zmsq<u64> = Zmsq::new();
    assert_eq!(ConcurrentPriorityQueue::capacity(&unbounded), None);
}
