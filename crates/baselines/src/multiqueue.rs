//! MultiQueue (Rihani, Sanders, Dementiev 2015).
//!
//! `c · T` sequential binary heaps, each behind its own lock. `insert`
//! pushes into a random heap; `extract_max` peeks two random heaps and
//! pops from the one with the better top — the classic power-of-two-
//! choices argument bounds the rank error probabilistically. Like the
//! k-LSM it is cited in §1/§2.1 as a thread-local-flavored relaxed queue
//! whose accuracy depends on the configuration size.
//!
//! [`MultiQueue::with_tuning`] adds the two optimizations from
//! "Engineering MultiQueues" (Williams & Sanders): *stickiness* and
//! per-thread *insertion/deletion buffers*. Both come from the
//! workspace's one relaxation layer, [`zmsq_sync::relax`], the same
//! machinery the tuned `ShardedZmsq` runs on, so the shootout compares
//! shard structures and nothing else. The heaps supply the layer's
//! per-shard operations: a sticky insert run targets a random heap, a
//! sticky extract run the better of two random heaps by cached top, and
//! the fallback is the classic two-choice extraction plus sweep. The
//! untuned paths are the classic MultiQueue, untouched by the layer.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use pq_traits::ConcurrentPriorityQueue;
use zmsq_sync::relax::{Relax, ShardedConfig, Shards};
use zmsq_sync::CachePadded;

/// Sentinel top for an empty sub-heap (so comparisons need no lock).
const EMPTY_TOP: u64 = 0;

/// Heap entry ordered by `(priority, insertion sequence)`; `V` is never
/// compared so it needs no `Ord`.
struct Entry<V> {
    prio: u64,
    seq: u64,
    value: V,
}

impl<V> PartialEq for Entry<V> {
    fn eq(&self, other: &Self) -> bool {
        (self.prio, self.seq) == (other.prio, other.seq)
    }
}
impl<V> Eq for Entry<V> {}
impl<V> PartialOrd for Entry<V> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<V> Ord for Entry<V> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.prio, self.seq).cmp(&(other.prio, other.seq))
    }
}

struct SubQueue<V> {
    /// Cached top priority (+1 so 0 means "empty"), readable without the
    /// lock for the two-choices comparison.
    top: AtomicU64,
    heap: Mutex<BinaryHeap<Entry<V>>>,
}

impl<V> SubQueue<V> {
    fn new() -> Self {
        Self {
            top: AtomicU64::new(EMPTY_TOP),
            heap: Mutex::new(BinaryHeap::new()),
        }
    }
}

/// The sub-heaps and the classic (untuned) paths over them; supplies
/// the relaxation layer's per-shard operations ([`Shards`]).
struct Heaps<V> {
    queues: Box<[CachePadded<SubQueue<V>>]>,
    /// Bumped by every insert from every thread: padded so the
    /// read-mostly fields around it (the heap array, the estimator, the
    /// layer's routing flags) do not share its cache line.
    seq: CachePadded<AtomicU64>,
    /// Live rank-error estimator measured at the heap boundary
    /// (optional; armed for the shootout's cheap rank axis).
    est: Option<obs::RankEstimator>,
}

/// The MultiQueue relaxed priority queue.
pub struct MultiQueue<V> {
    heaps: Heaps<V>,
    /// Stickiness / operation buffers (disarmed = classic paths only).
    relax: Relax<V>,
}

impl<V: Send + 'static> MultiQueue<V> {
    /// Create with `c * threads` internal heaps (the usual setting is
    /// `c = 2`).
    pub fn new(threads: usize, c: usize) -> Self {
        Self::with_tuning(threads, c, ShardedConfig::default())
    }

    /// [`new`](Self::new) plus stickiness and per-thread operation
    /// buffers. An all-default tuning is exactly `new`.
    pub fn with_tuning(threads: usize, c: usize, tuning: ShardedConfig) -> Self {
        let n = (threads.max(1) * c.max(1)).next_power_of_two();
        Self {
            heaps: Heaps {
                queues: (0..n).map(|_| CachePadded::new(SubQueue::new())).collect(),
                seq: CachePadded::new(AtomicU64::new(0)),
                est: None,
            },
            relax: Relax::new(tuning, true),
        }
    }

    /// Arm the live rank-error estimator (`quality.est_rank` etc.) with
    /// the given sampling shift (`0` samples every key).
    pub fn rank_estimator(mut self, shift: u32) -> Self {
        self.heaps.est = Some(obs::RankEstimator::new(shift));
        self
    }
}

impl<V: Send> Heaps<V> {
    #[inline]
    fn random_index(&self) -> usize {
        use std::cell::Cell;
        thread_local! {
            static S: Cell<u64> = const { Cell::new(0x9E37_79B9_7F4A_7C15) };
        }
        S.with(|s| {
            let mut x = s.get() ^ (self as *const _ as u64);
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            s.set(x);
            (x as usize) & (self.queues.len() - 1)
        })
    }

    fn update_top(q: &SubQueue<V>, heap: &BinaryHeap<Entry<V>>) {
        let top = heap.peek().map_or(EMPTY_TOP, |e| e.prio.saturating_add(1));
        q.top.store(top, Ordering::Relaxed);
    }

    fn insert_direct(&self, prio: u64, value: V) {
        if let Some(est) = &self.est {
            est.note_insert(prio);
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        // Lock a random heap; on contention just try another (wait-free
        // against any single hot heap).
        loop {
            let q = &self.queues[self.random_index()];
            if let Ok(mut heap) = q.heap.try_lock() {
                heap.push(Entry { prio, seq, value });
                Self::update_top(q, &heap);
                return;
            }
        }
    }

    fn extract_direct(&self) -> Option<(u64, V)> {
        // Two random choices, pop the better; a few rounds before
        // concluding empty (misses are possible by design, the rounds
        // bound how often).
        for _ in 0..self.queues.len() * 2 {
            let (i, j) = (self.random_index(), self.random_index());
            let (qi, qj) = (&self.queues[i], &self.queues[j]);
            let (ti, tj) = (
                qi.top.load(Ordering::Relaxed),
                qj.top.load(Ordering::Relaxed),
            );
            let pick = if ti >= tj { qi } else { qj };
            if ti == EMPTY_TOP && tj == EMPTY_TOP {
                continue;
            }
            if let Ok(mut heap) = pick.heap.try_lock() {
                if let Some(e) = heap.pop() {
                    Self::update_top(pick, &heap);
                    if let Some(est) = &self.est {
                        est.note_extract(e.prio);
                    }
                    return Some((e.prio, e.value));
                }
            }
        }
        // Fall back to a linear sweep so emptiness reports are reliable
        // when the queue really is (close to) empty.
        for q in self.queues.iter() {
            let mut heap = q.heap.lock().unwrap();
            if let Some(e) = heap.pop() {
                Self::update_top(q, &heap);
                if let Some(est) = &self.est {
                    est.note_extract(e.prio);
                }
                return Some((e.prio, e.value));
            }
        }
        None
    }

    /// Push `items` into heap `at` under one lock acquisition, assigning
    /// sequence numbers at publish time.
    fn push_all(&self, at: usize, items: impl Iterator<Item = (u64, V)>) {
        let q = &self.queues[at];
        let mut heap = q.heap.lock().unwrap();
        for (prio, value) in items {
            if let Some(est) = &self.est {
                est.note_insert(prio);
            }
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            heap.push(Entry { prio, seq, value });
        }
        Self::update_top(q, &heap);
    }
}

impl<V: Send> Shards<V> for Heaps<V> {
    /// Blocking push into the sticky heap: stickiness trades the classic
    /// try-elsewhere loop for locality.
    fn insert(&self, i: usize, prio: u64, value: V) {
        self.push_all(i, std::iter::once((prio, value)));
    }

    fn insert_batch(&self, i: usize, items: &mut Vec<(u64, V)>) {
        self.push_all(i, items.drain(..));
    }

    /// Pops up to `want` entries; `0` when the heap is contended (the
    /// caller re-picks) or empty.
    fn extract_batch(&self, i: usize, out: &mut Vec<(u64, V)>, want: usize) -> usize {
        let q = &self.queues[i];
        let Ok(mut heap) = q.heap.try_lock() else {
            return 0;
        };
        let mut got = 0;
        while got < want {
            let Some(e) = heap.pop() else { break };
            if let Some(est) = &self.est {
                est.note_extract(e.prio);
            }
            out.push((e.prio, e.value));
            got += 1;
        }
        if got > 0 {
            Self::update_top(q, &heap);
        }
        got
    }

    fn pick_insert(&self, _sticky: bool) -> usize {
        self.random_index()
    }

    /// The better of two random heaps by cached top.
    fn pick_extract(&self) -> usize {
        let (i, j) = (self.random_index(), self.random_index());
        let (ti, tj) = (
            self.queues[i].top.load(Ordering::Relaxed),
            self.queues[j].top.load(Ordering::Relaxed),
        );
        if ti >= tj {
            i
        } else {
            j
        }
    }

    /// One classic two-choice extraction plus sweep: a sticky heap
    /// that ran dry or is contended costs one element, not a batch of
    /// slow-path extractions.
    fn extract_fallback(&self, out: &mut Vec<(u64, V)>, want: usize) -> usize {
        let start = out.len();
        out.extend(std::iter::from_fn(|| self.extract_direct()).take(want.min(1)));
        out.len() - start
    }
}

impl<V: Send + 'static> ConcurrentPriorityQueue<V> for MultiQueue<V> {
    fn insert(&self, prio: u64, value: V) {
        if self.relax.routes_inserts() {
            return self.relax.insert(&self.heaps, prio, value);
        }
        self.heaps.insert_direct(prio, value)
    }

    fn extract_max(&self) -> Option<(u64, V)> {
        if self.relax.routes_extracts() {
            return self.relax.extract_max(&self.heaps);
        }
        self.heaps.extract_direct()
    }

    fn name(&self) -> String {
        let mut n = format!("multiqueue-{}", self.heaps.queues.len());
        let t = self.relax.config();
        if t.is_tuned() {
            n.push_str(&format!("-{t}"));
        }
        n
    }

    fn len_hint(&self) -> usize {
        self.heaps
            .queues
            .iter()
            .map(|q| q.heap.lock().unwrap().len())
            .sum::<usize>()
            + self.relax.pending()
    }

    fn flush(&self) {
        self.relax.flush_all(&self.heaps);
    }

    /// The rank estimator's `quality.*` set when armed, and the
    /// layer's `buf.*` set ([`Relax::has_metrics`]); `None` with neither.
    fn metrics(&self) -> Option<obs::Snapshot> {
        if self.heaps.est.is_none() && !self.relax.has_metrics() {
            return None;
        }
        let mut snap = obs::Snapshot::default();
        obs::RankEstimator::export(&self.heaps.est, &mut snap);
        self.relax.export(&mut snap);
        Some(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn roundtrip_conserves() {
        let q = MultiQueue::new(4, 2);
        for i in 0..10_000u64 {
            q.insert(i, i);
        }
        let mut got = 0;
        while q.extract_max().is_some() {
            got += 1;
        }
        assert_eq!(got, 10_000);
    }

    #[test]
    fn returns_highish_elements() {
        let q = MultiQueue::new(2, 2);
        for i in 0..10_000u64 {
            q.insert(i, i);
        }
        // First 100 extractions should all be in the top few percent on
        // average; assert a loose bound.
        let mut sum = 0u64;
        for _ in 0..100 {
            sum += q.extract_max().unwrap().0;
        }
        assert!(
            sum / 100 > 8_000,
            "mean of first 100 extracts: {}",
            sum / 100
        );
    }

    #[test]
    fn concurrent_stress() {
        let q = Arc::new(MultiQueue::new(4, 2));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                let mut got = 0u64;
                for i in 0..4000u64 {
                    q.insert(t * 10_000 + i, i);
                    if i % 2 == 0 && q.extract_max().is_some() {
                        got += 1;
                    }
                }
                got
            }));
        }
        let extracted: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let mut rest = 0u64;
        while q.extract_max().is_some() {
            rest += 1;
        }
        assert_eq!(extracted + rest, 16_000);
    }

    #[test]
    fn empty_reports_none() {
        let q: MultiQueue<u64> = MultiQueue::new(8, 2);
        assert_eq!(q.extract_max(), None);
        q.insert(5, 5);
        assert_eq!(q.extract_max(), Some((5, 5)));
        assert_eq!(q.extract_max(), None);
    }

    #[test]
    fn name_reflects_tuning() {
        let q: MultiQueue<u64> = MultiQueue::new(4, 2);
        assert_eq!(q.name(), "multiqueue-8");
        let t = ShardedConfig::new()
            .stickiness(8)
            .insert_buffer(16)
            .delete_buffer(4);
        let tuned: MultiQueue<u64> = MultiQueue::with_tuning(4, 2, t);
        assert_eq!(tuned.name(), "multiqueue-8-c8-i16-d4");
    }

    #[test]
    fn estimator_exports_quality_metrics() {
        let t = ShardedConfig::new()
            .stickiness(4)
            .insert_buffer(4)
            .delete_buffer(4);
        let q: MultiQueue<u64> = MultiQueue::with_tuning(2, 2, t).rank_estimator(0);
        for i in 0..500u64 {
            q.insert(i, i);
        }
        q.flush();
        for _ in 0..200 {
            assert!(q.extract_max().is_some());
        }
        let snap = q.metrics().expect("estimator armed");
        assert!(snap.counter("quality.sampled_extracts").unwrap() >= 200);
        let h = snap.hist("quality.est_rank").expect("est_rank hist");
        assert!(h.count >= 200);
        assert!(snap.gauge("buf.threads").unwrap() >= 1);
    }
}
