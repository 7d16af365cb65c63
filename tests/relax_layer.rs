//! The relaxation layer (`zmsq_sync::relax`) once per queue that runs
//! on it: every scenario below is a table over `ShardedZmsq` and
//! `MultiQueue`, driven through the public queue API and the `buf.*`
//! metrics. The layer's own unit tests check the same mechanisms
//! against a minimal shard set; these check that each queue wires its
//! shards into the layer the same way.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use baselines::MultiQueue;
use pq_traits::ConcurrentPriorityQueue;
use zmsq::{ShardedConfig, ShardedZmsq, ZmsqConfig};

type Queue = Box<dyn ConcurrentPriorityQueue<u64>>;
type MakeQ = fn(ShardedConfig) -> Queue;

/// Every queue type with a relaxation layer, four shards each.
fn queues() -> [(&'static str, MakeQ); 2] {
    [
        ("sharded", |t| {
            let cfg = ZmsqConfig::default().batch(8).target_len(12);
            Box::new(ShardedZmsq::<u64>::with_tuning(4, cfg, t))
        }),
        ("multiqueue", |t| {
            Box::new(MultiQueue::<u64>::with_tuning(2, 2, t))
        }),
    ]
}

fn tuning(stickiness: usize, insert_buffer: usize, delete_buffer: usize) -> ShardedConfig {
    ShardedConfig::new()
        .stickiness(stickiness)
        .insert_buffer(insert_buffer)
        .delete_buffer(delete_buffer)
}

fn gauge(q: &Queue, name: &str) -> Option<i64> {
    q.metrics().and_then(|m| m.gauge(name))
}

fn counter(q: &Queue, name: &str) -> Option<u64> {
    q.metrics().and_then(|m| m.counter(name))
}

fn drain(q: &dyn ConcurrentPriorityQueue<u64>) -> u64 {
    let mut n = 0;
    while q.extract_max().is_some() {
        n += 1;
    }
    n
}

/// Untuned queues keep their direct paths: no operation registers a
/// buffer slot. The layer exports `buf.threads` as soon as any slot
/// exists, armed or not, so a registration would show here.
#[test]
fn untuned_queues_register_no_buffers() {
    for (name, make) in queues() {
        let q = make(ShardedConfig::new());
        q.insert(1, 1);
        assert_eq!(q.extract_max(), Some((1, 1)), "{name}");
        q.insert(2, 2);
        let mut out = Vec::new();
        assert_eq!(q.extract_batch(&mut out, 4), 1, "{name}");
        assert_eq!(q.extract_max(), None, "{name}");
        q.flush();
        assert_eq!(gauge(&q, "buf.threads"), None, "{name}: slot registered");
        assert!(!q.name().contains("-c"), "{name}: {}", q.name());
    }
}

/// The full `buf.*` set is exported whenever the layer is armed, with
/// or without a rank estimator; the overflow flush publishes the whole
/// insert buffer at once.
#[test]
fn tuned_queues_export_buf_metrics_and_flush_on_overflow() {
    for (name, make) in queues() {
        let q = make(tuning(0, 4, 0));
        for i in 0..3 {
            q.insert(i, i);
        }
        assert_eq!(gauge(&q, "buf.threads"), Some(1), "{name}");
        assert_eq!(gauge(&q, "buf.free_slots"), Some(0), "{name}");
        assert_eq!(gauge(&q, "buf.pending_inserts"), Some(3), "{name}");
        assert_eq!(gauge(&q, "buf.pending_deletes"), Some(0), "{name}");
        assert_eq!(counter(&q, "buf.insert_flushes"), Some(0), "{name}");
        assert_eq!(counter(&q, "buf.delete_refills"), Some(0), "{name}");
        assert_eq!(q.len_hint(), 3, "{name}: staged elements counted");
        q.insert(3, 3); // overflow
        assert_eq!(gauge(&q, "buf.pending_inserts"), Some(0), "{name}");
        assert_eq!(counter(&q, "buf.insert_flushes"), Some(1), "{name}");
        assert_eq!(drain(&*q), 4, "{name}");
    }
}

/// Insert-only buffering: a staged element is never invisible to the
/// thread that asks, through either extraction API.
#[test]
fn staged_inserts_keep_emptiness_honest() {
    for (name, make) in queues() {
        let q = make(tuning(0, 8, 0));
        q.insert(1, 1);
        assert_eq!(
            q.extract_max(),
            Some((1, 1)),
            "{name}: staged element invisible"
        );
        assert_eq!(q.extract_max(), None, "{name}");
        q.insert(2, 2);
        let mut out = Vec::new();
        assert_eq!(q.extract_batch(&mut out, 4), 1, "{name}");
        assert_eq!(out, vec![(2, 2)], "{name}");
    }
}

#[test]
fn flush_publishes_partial_buffers() {
    for (name, make) in queues() {
        let q = make(tuning(0, 64, 0));
        for i in 0..5 {
            q.insert(i, i);
        }
        assert_eq!(gauge(&q, "buf.pending_inserts"), Some(5), "{name}");
        q.flush();
        assert_eq!(gauge(&q, "buf.pending_inserts"), Some(0), "{name}");
        assert_eq!(q.len_hint(), 5, "{name}");
    }
}

#[test]
fn delete_buffer_serves_in_priority_order() {
    for (name, make) in queues() {
        let q = make(tuning(0, 0, 8));
        for i in 0..1_000 {
            q.insert(i, i);
        }
        let first = q.extract_max().unwrap().0;
        assert!(
            gauge(&q, "buf.pending_deletes").unwrap() > 0,
            "{name}: no prefetch"
        );
        let second = q.extract_max().unwrap().0;
        assert!(first >= second, "{name}: buffer served out of order");
        assert_eq!(counter(&q, "buf.delete_refills"), Some(1), "{name}");
    }
}

/// A thread that prefetched elements and staged an insert, then went
/// idle, must not make the queue report empty to another thread.
#[test]
fn empty_report_reclaims_foreign_buffers() {
    for (name, make) in queues() {
        let q: Arc<dyn ConcurrentPriorityQueue<u64>> = Arc::from(make(tuning(4, 4, 4)));
        for i in 0..10 {
            q.insert(i, i);
        }
        q.flush();
        let q2 = Arc::clone(&q);
        std::thread::spawn(move || {
            assert!(q2.extract_max().is_some()); // prefetches
            q2.insert(99, 99); // stays staged
        })
        .join()
        .unwrap();
        assert_eq!(
            drain(&*q),
            10,
            "{name}: elements stranded in a foreign buffer"
        );
        assert_eq!(q.len_hint(), 0, "{name}");
    }
}

#[test]
fn tuned_roundtrip_conserves_across_threads() {
    for (name, make) in queues() {
        let q = make(tuning(8, 8, 8));
        let got = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (q, got) = (&q, &got);
                s.spawn(move || {
                    for i in 0..4_000u64 {
                        q.insert((t * 4_000 + i) % 7_777, i);
                        if i % 2 == 0 && q.extract_max().is_some() {
                            got.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(got.into_inner() + drain(&*q), 16_000, "{name}");
        assert_eq!(q.len_hint(), 0, "{name}");
    }
}

#[test]
fn tuned_extract_batch_conserves() {
    for (name, make) in queues() {
        let q = make(tuning(4, 8, 8));
        for i in 0..1_000 {
            q.insert(i, i);
        }
        let mut out = Vec::new();
        while q.extract_batch(&mut out, 37) > 0 {}
        let mut keys: Vec<u64> = out.iter().map(|&(k, _)| k).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            (0..1_000).collect::<Vec<_>>(),
            "{name}: elements lost"
        );
        assert_eq!(q.len_hint(), 0, "{name}");
    }
}

#[test]
fn tuned_returns_highish_elements() {
    for (name, make) in queues() {
        let q = make(tuning(8, 8, 8));
        for i in 0..20_000 {
            q.insert(i, i);
        }
        q.flush();
        let sum: u64 = (0..200).map(|_| q.extract_max().unwrap().0).sum();
        assert!(sum / 200 > 15_000, "{name}: tuned extraction rank too low");
    }
}

/// A thread cycling through more live instances than its slot cache
/// holds gives each evicted instance's empty slot back, keeps a slot
/// with staged elements, and never registers more than one slot per
/// instance however often it comes back.
#[test]
fn eviction_frees_empty_slots_and_keeps_staged_ones() {
    for (name, make) in queues() {
        std::thread::spawn(move || {
            let first = make(tuning(0, 8, 0));
            first.insert(1, 1);
            assert_eq!(first.extract_max(), Some((1, 1)));
            let staged = make(tuning(0, 8, 0));
            staged.insert(2, 2);
            let others: Vec<Queue> = (0..64).map(|_| make(tuning(0, 8, 0))).collect();
            for round in 0..3 {
                for o in &others {
                    o.insert(3, 3);
                    assert_eq!(o.extract_max(), Some((3, 3)));
                }
                assert!(
                    gauge(&first, "buf.free_slots").unwrap() > 0,
                    "{name} round {round}: evicted empty slot not freed"
                );
                assert_eq!(gauge(&first, "buf.threads"), Some(1), "{name}");
                // Coming back re-registers into the freed slot.
                first.insert(4, 4);
                assert_eq!(first.extract_max(), Some((4, 4)));
                assert_eq!(gauge(&first, "buf.threads"), Some(1), "{name}");
            }
            assert_eq!(gauge(&staged, "buf.free_slots"), Some(0), "{name}");
            assert_eq!(staged.extract_max(), Some((2, 2)), "{name}");
            assert_eq!(gauge(&staged, "buf.threads"), Some(1), "{name}");
        })
        .join()
        .unwrap();
    }
}
