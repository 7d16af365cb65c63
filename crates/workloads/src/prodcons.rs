//! Producer / consumer drivers (Figs. 4 and 6).
//!
//! Dedicated producer threads push `total_items` stamped items; dedicated
//! consumers extract until everything is received. Each item's value is
//! its enqueue timestamp (nanoseconds since a shared epoch), so consumers
//! measure **handoff latency** exactly as §4.4 does. The run also reports
//! process CPU time (Fig. 4b's metric): spinning consumers burn CPU while
//! idle, blocking consumers don't.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use pq_traits::ConcurrentPriorityQueue;
use zmsq::{NodeSet, RawTryLock, Zmsq};

use crate::cpu::measure_cpu;
use crate::keys::{KeyDist, KeyStream};

/// Parameters for a producer/consumer run.
#[derive(Clone)]
pub struct ProdConsConfig {
    /// Producer thread count.
    pub producers: usize,
    /// Consumer thread count.
    pub consumers: usize,
    /// Total items transferred (split across producers).
    pub total_items: u64,
    /// Priority distribution.
    pub keys: KeyDist,
    /// Base seed.
    pub seed: u64,
}

impl Default for ProdConsConfig {
    fn default() -> Self {
        Self {
            producers: 1,
            consumers: 1,
            total_items: 100_000,
            keys: KeyDist::UniformBits { bits: 20 },
            seed: 0xFACE,
        }
    }
}

/// Outcome of a producer/consumer run.
#[derive(Debug, Clone, Copy)]
pub struct ProdConsResult {
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// CPU time (user+system) consumed during the run — the Fig. 4b metric.
    pub cpu_time: Duration,
    /// Items received (equals `total_items` on success).
    pub received: u64,
    /// Mean producer→consumer handoff latency in nanoseconds.
    pub mean_handoff_ns: f64,
    /// Median handoff latency (bucketed) in nanoseconds.
    pub p50_handoff_ns: u64,
    /// 99th-percentile handoff latency (bucketed) in nanoseconds.
    pub p99_handoff_ns: u64,
    /// Extract calls that returned `None` (spurious misses + idle polls).
    pub misses: u64,
}

fn run_inner(
    insert: impl Fn(u64, u64) + Sync,
    extract: impl Fn() -> Option<(u64, u64)> + Sync,
    on_producers_done: impl Fn() + Sync,
    cfg: &ProdConsConfig,
) -> ProdConsResult {
    let total = cfg.total_items;
    let producers = cfg.producers.max(1);
    let consumers = cfg.consumers.max(1);
    let received = AtomicU64::new(0);
    let latencies = obs::Histogram::new();
    let misses = AtomicU64::new(0);
    let epoch = Instant::now();

    let (_, cpu_time) = measure_cpu(|| {
        std::thread::scope(|scope| {
            for p in 0..producers {
                let insert = &insert;
                scope.spawn(move || {
                    let mut keys = KeyStream::new(cfg.keys.clone(), cfg.seed + p as u64);
                    let share =
                        total / producers as u64 + u64::from((p as u64) < total % producers as u64);
                    for _ in 0..share {
                        let stamp = epoch.elapsed().as_nanos() as u64;
                        insert(keys.next_key(), stamp);
                    }
                });
            }
            for _ in 0..consumers {
                let extract = &extract;
                let received = &received;
                let latencies = &latencies;
                let misses = &misses;
                scope.spawn(move || {
                    let mut local_miss = 0u64;
                    loop {
                        match extract() {
                            Some((_, stamp)) => {
                                let now = epoch.elapsed().as_nanos() as u64;
                                latencies.record(now.saturating_sub(stamp));
                                if received.fetch_add(1, Ordering::AcqRel) + 1 == total {
                                    break;
                                }
                            }
                            None => {
                                local_miss += 1;
                                if received.load(Ordering::Acquire) >= total {
                                    break;
                                }
                                std::hint::spin_loop();
                            }
                        }
                    }
                    misses.fetch_add(local_miss, Ordering::Relaxed);
                });
            }
            // A watcher closes blocking queues once everything is taken so
            // parked consumers wake up and exit.
            {
                let received = &received;
                let on_producers_done = &on_producers_done;
                scope.spawn(move || {
                    while received.load(Ordering::Acquire) < total {
                        std::thread::yield_now();
                    }
                    on_producers_done();
                });
            }
        });
    });
    let elapsed = epoch.elapsed();

    let got = received.into_inner();
    ProdConsResult {
        elapsed,
        cpu_time,
        received: got,
        mean_handoff_ns: latencies.mean(),
        p50_handoff_ns: latencies.quantile(0.50),
        p99_handoff_ns: latencies.quantile(0.99),
        misses: misses.into_inner(),
    }
}

/// Producer/consumer with **spinning** consumers, for any queue.
pub fn run_prodcons_spin<Q: ConcurrentPriorityQueue<u64> + Sync>(
    queue: &Q,
    cfg: &ProdConsConfig,
) -> ProdConsResult {
    run_inner(
        |k, v| queue.insert(k, v),
        || queue.extract_max(),
        || {},
        cfg,
    )
}

/// Producer/consumer with **blocking** consumers (ZMSQ's §3.6 mechanism).
/// The queue must have been built with `ZmsqConfig::blocking(true)`.
pub fn run_prodcons_blocking<S, L>(queue: &Zmsq<u64, S, L>, cfg: &ProdConsConfig) -> ProdConsResult
where
    S: NodeSet<u64> + 'static,
    L: RawTryLock + 'static,
{
    run_inner(
        |k, v| queue.insert(k, v),
        || queue.extract_max_blocking(),
        || queue.close(),
        cfg,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::CoarseHeap;
    use zmsq::ZmsqConfig;

    #[test]
    fn spin_transfers_everything() {
        let q: CoarseHeap<u64> = CoarseHeap::new();
        let cfg = ProdConsConfig {
            producers: 2,
            consumers: 2,
            total_items: 20_000,
            ..Default::default()
        };
        let r = run_prodcons_spin(&q, &cfg);
        assert_eq!(r.received, 20_000);
        assert!(r.mean_handoff_ns > 0.0);
        assert_eq!(q.len_hint(), 0);
    }

    #[test]
    fn blocking_transfers_everything_and_wakes_all() {
        let q: Zmsq<u64> = Zmsq::with_config(
            ZmsqConfig::default()
                .batch(32)
                .target_len(48)
                .blocking(true),
        );
        let cfg = ProdConsConfig {
            producers: 2,
            consumers: 4,
            total_items: 20_000,
            ..Default::default()
        };
        let r = run_prodcons_blocking(&q, &cfg);
        assert_eq!(r.received, 20_000, "no consumer may hang or lose items");
    }

    #[test]
    fn uneven_split_still_exact() {
        let q: CoarseHeap<u64> = CoarseHeap::new();
        let cfg = ProdConsConfig {
            producers: 3,
            consumers: 2,
            total_items: 10_001, // not divisible by producers
            ..Default::default()
        };
        let r = run_prodcons_spin(&q, &cfg);
        assert_eq!(r.received, 10_001);
    }

    #[test]
    fn spin_with_relaxed_queue() {
        let q: Zmsq<u64> = Zmsq::with_config(ZmsqConfig::default().batch(32).target_len(48));
        let cfg = ProdConsConfig {
            producers: 1,
            consumers: 3,
            total_items: 15_000,
            ..Default::default()
        };
        let r = run_prodcons_spin(&q, &cfg);
        assert_eq!(r.received, 15_000);
    }
}
