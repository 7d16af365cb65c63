//! # ZMSQ — a practical, scalable, relaxed concurrent priority queue
//!
//! A from-scratch Rust implementation of the data structure introduced in
//! *"A Practical, Scalable, Relaxed Priority Queue"* (Zhou, Michael, Spear —
//! ICPP 2019), published in C++ as Folly's `RelaxedConcurrentPriorityQueue`.
//!
//! ZMSQ is a **relaxed** max-priority queue: [`Zmsq::extract_max`] returns a
//! *high*-priority element which may not be *the* highest. In exchange it
//! scales far better than strict queues under extraction contention. Its
//! distinguishing practical features (paper §1):
//!
//! 1. **Extraction from a nonempty queue never fails** — `extract_max`
//!    returns `None` only if the queue was truly empty at some instant
//!    during the call.
//! 2. **Idle consumers can block** — [`Zmsq::extract_max_blocking`] parks
//!    threads on a circular buffer of futexes (§3.6) instead of spinning.
//! 3. **Memory safety without GC** — by default pool buffers are reused in
//!    place once their lagging consumers have read them (the paper's
//!    Listing 2); hazard-pointer and leaking arms are selectable via
//!    [`Reclamation`].
//! 4. **Accuracy independent of thread count** — relaxation is bounded by
//!    the tunable `batch` parameter: in any window of `k * batch`
//!    consecutive extractions the top `k` elements are all returned
//!    (paper §3.7). With `batch = 0` the queue is strict.
//!
//! # Structure
//!
//! The queue is a binary tree of `TNode`s (a *mound* variant), each
//! holding a small **set** of elements plus cached atomic `max`/`min`/
//! `count`. The mound invariant — a parent's max is ≥ its children's
//! maxes — makes the root's set the home of the best elements. Extraction
//! with `batch > 0` moves a batch of the root's elements into a shared
//! **pool** that subsequent extractions claim with one `fetch_sub`
//! (§3.3), touching the root only once per `batch + 1` extractions.
//! Insertion (§3.2) keeps sets long and dense: random-leaf probing,
//! forced insertion into under-full deep nodes, a parent-min swap that
//! compacts the parent's range, and an overflow split.
//!
//! Each set is, by default, a sorted ring ([`DequeSet`]) with O(1)
//! access to both ends, which the parent-min swap needs. The paper's
//! linked-list and array sets remain as [`ZmsqList`] and [`ZmsqArray`]
//! for its figures.
//!
//! # Quick start
//!
//! ```
//! use zmsq::{Zmsq, ZmsqConfig};
//!
//! let q: Zmsq<&'static str> = Zmsq::with_config(ZmsqConfig::default());
//! q.insert(10, "low");
//! q.insert(99, "high");
//! q.insert(50, "mid");
//!
//! // Relaxed extraction: a high-priority element, guaranteed Some while
//! // the queue is nonempty.
//! let (prio, _val) = q.extract_max().unwrap();
//! assert!(prio >= 10);
//! assert_eq!(q.drain_count(), 2); // the rest
//! ```
//!
//! Strict mode (`batch = 0`) behaves exactly like the mound and always
//! returns the true maximum:
//!
//! ```
//! use zmsq::{Zmsq, ZmsqConfig};
//! let q: Zmsq<u64> = Zmsq::with_config(ZmsqConfig::strict());
//! for k in [3u64, 9, 1, 7] { q.insert(k, k); }
//! assert_eq!(q.extract_max(), Some((9, 9)));
//! assert_eq!(q.extract_max(), Some((7, 7)));
//! ```

#![warn(missing_docs)]

mod config;
mod pool;
mod queue;
mod rng;
mod set;
mod sharded;
mod stats;
mod tnode;
mod tree;

pub use config::{LockStrategy, QualityOpts, Reclamation, ShedPolicy, ZmsqConfig};
pub use queue::{SetSizeStats, Zmsq};
pub use set::{ArraySet, DequeSet, ListSet, NodeSet};
pub use sharded::ShardedZmsq;
pub use stats::StatsSnapshot;

// Re-exported so bounded-queue callers can match the fallible-insert
// error without depending on `pq-traits` directly.
pub use pq_traits::InsertError;

// The relaxation layer's tuning, shared with the MultiQueue baseline.
pub use zmsq_sync::relax::ShardedConfig;

// Re-exported so callers can name lock type parameters.
pub use zmsq_sync::{OsLock, RawTryLock, TasLock, TatasLock};

/// ZMSQ with linked-list sets ("ZMSQ" curves in the paper).
pub type ZmsqList<V> = Zmsq<V, ListSet<V>, TatasLock>;
/// ZMSQ with unsorted array sets ("ZMSQ (array)" curves in the paper).
pub type ZmsqArray<V> = Zmsq<V, ArraySet<V>, TatasLock>;
/// ZMSQ with sorted-ring sets, the same type as the default `Zmsq<V>`:
/// this reproduction's extension that makes the §3.2 parent-min swap
/// O(1) at both ends (see `DequeSet`).
pub type ZmsqDeque<V> = Zmsq<V, DequeSet<V>, TatasLock>;

impl<V: Send + 'static, S: NodeSet<V> + 'static, L: RawTryLock + 'static>
    pq_traits::ConcurrentPriorityQueue<V> for Zmsq<V, S, L>
{
    fn insert(&self, prio: u64, value: V) {
        Zmsq::insert(self, prio, value)
    }

    fn extract_max(&self) -> Option<(u64, V)> {
        Zmsq::extract_max(self)
    }

    fn insert_batch(&self, items: &mut Vec<(u64, V)>) {
        Zmsq::insert_batch(self, items)
    }

    fn extract_batch(&self, out: &mut Vec<(u64, V)>, n: usize) -> usize {
        Zmsq::extract_batch(self, out, n)
    }

    fn try_insert(&self, prio: u64, value: V) -> Result<(), InsertError<V>> {
        Zmsq::try_insert(self, prio, value)
    }

    fn insert_timeout(
        &self,
        prio: u64,
        value: V,
        timeout: std::time::Duration,
    ) -> Result<(), InsertError<V>> {
        Zmsq::insert_timeout(self, prio, value, timeout)
    }

    fn name(&self) -> String {
        let mut n = format!("zmsq-{}", S::KIND);
        if self.config().batch == 0 {
            // No pool, so the reclamation mode does not apply.
            n.push_str("-strict");
            return n;
        }
        match self.config().reclamation {
            Reclamation::Leak => n.push_str("-leak"),
            Reclamation::ConsumerWait => n.push_str("-wait"),
            Reclamation::Hazard => {}
        }
        n
    }

    fn is_relaxed(&self) -> bool {
        self.config().batch > 0
    }

    fn len_hint(&self) -> usize {
        self.len_hint()
    }

    fn capacity(&self) -> Option<usize> {
        self.capacity()
    }

    fn metrics(&self) -> Option<obs::Snapshot> {
        let mut s = self.stats().to_obs();
        s.push_gauge("zmsq.len_hint", self.len_hint() as i64);
        s.push_gauge("zmsq.batch.current", self.current_batch() as i64);
        s.push_counter("zmsq.leaked_buffers", self.leaked_buffers());
        if let Some(cap) = self.capacity() {
            s.push_gauge("queue.pressure.capacity", cap as i64);
            s.push_gauge("queue.pressure.occupancy", self.occupancy() as i64);
            s.push_gauge(
                "queue.pressure.producer_waiters",
                self.producer_waiters() as i64,
            );
        }
        obs::RankEstimator::export(self.rank_estimator(), &mut s);
        Some(s)
    }
}
