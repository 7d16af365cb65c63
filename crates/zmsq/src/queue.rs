//! The ZMSQ queue: insertion (Listing 1), extraction (Listing 2), the
//! concurrency protocol (§3.4) and blocking (§3.6).
//!
//! # Locking protocol (§3.4)
//!
//! Every `TNode` has a lock; a node is only mutated under its lock, while
//! the cached `max`/`min`/`count` may be read optimistically. **Parents
//! are always locked before children** — insertion locks `(parent, node)`,
//! extraction and splitting lock a node then its children — so every lock
//! acquisition sequence descends the tree and deadlock is impossible.
//! Optimistic decisions are re-validated after locking; failed validation
//! restarts the operation (usually on a different random path, §4.1).
//!
//! # The emptiness guarantee
//!
//! ZMSQ reports empty only when it *is* empty. The structural invariant
//! making the check O(1) is: **a nonempty node never has an empty
//! ancestor** (equivalently, the mound property with empty = −∞). Inserts
//! preserve it by validating `parent.max > prio` (so the parent is
//! nonempty) before inserting below the root; extraction's swap-down
//! keeps pulling a nonempty child's set upward into an emptied node until
//! the empty set rests above empty children. Hence, under the root lock,
//! `root.count == 0` plus an exhausted pool proves the queue empty.
//!
//! # Panic safety
//!
//! A panic while holding a `TNode` lock would classically wedge the tree:
//! every later operation touching that node spins forever. Two scope
//! guards harden the locked windows:
//!
//! * [`UnwindUnlock`] — for insertion windows, where partial mutations
//!   are always repairable per node (elements are only ever *added*,
//!   under a bound validated against the locked parent). On unwind it
//!   recomputes each held node's cached `max`/`min`/`count` from its set
//!   and releases the lock, so the tree stays fully usable. The
//!   in-flight element is dropped by the unwind — lost to the panic, as
//!   any panicking call loses its arguments — but nothing already in the
//!   queue is affected.
//! * [`AbortOnUnwind`] — for multi-node critical sections (swap-down,
//!   split, the root-extraction refill), whose mid-window states can
//!   violate cross-node invariants (mound property, emptiness chain)
//!   that no local cleanup can restore. A panic there escalates to
//!   `abort`: a loud crash beats a silently corrupt or wedged queue.
//!
//! # Fault injection (`--features fault-inject`)
//!
//! * `queue.insert.locked-panic` — fires inside the node-locked windows
//!   of `regular_insert`, `forced_insert` and `bulk_insert_at`, after
//!   validation and before mutation. With `Action::Panic` it proves
//!   [`UnwindUnlock`] releases the locks: the queue must remain fully
//!   operational afterwards.
//! * `queue.extract.locked-panic` — fires under the root lock, after
//!   the emptiness/threshold checks and before any mutation. A panic
//!   here must release the root and lose nothing.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

use pq_traits::InsertError;
use zmsq_sync::{
    Backoff, CachePadded, EventBuffer, ProducerWait, RawTryLock, TatasLock, WaitOutcome,
};

use crate::config::{LockStrategy, ShedPolicy, ZmsqConfig};
use crate::pool::Pool;
use crate::rng;
use crate::set::{DequeSet, NodeSet};
use crate::stats::{Stats, StatsSnapshot};
use crate::tnode::TNode;
use crate::tree::{Pos, Tree};

/// Forced (non-max) insertion is forbidden at levels `<=` this bound
/// (Listing 1 line 8: `level > 3`), because parking a low-priority element
/// high in the tree would let it reach the pool too early.
const FORCE_MIN_LEVEL: usize = 3;

/// Lock-wait attribution site for the root lock (see
/// [`zmsq_sync::site`]): the root is the queue's serialization point,
/// so `sync.wait_ns{site=zmsq.root}` is the headline contention signal.
fn root_site() -> zmsq_sync::SiteId {
    static S: std::sync::OnceLock<zmsq_sync::SiteId> = std::sync::OnceLock::new();
    *S.get_or_init(|| zmsq_sync::site::register("zmsq.root"))
}

/// Lock-wait attribution site for non-root tree-node locks (insertion
/// probing, splits).
fn node_site() -> zmsq_sync::SiteId {
    static S: std::sync::OnceLock<zmsq_sync::SiteId> = std::sync::OnceLock::new();
    *S.get_or_init(|| zmsq_sync::site::register("zmsq.node"))
}

/// A practical, scalable, relaxed concurrent priority queue.
///
/// See the [crate docs](crate) for the algorithm overview. Type
/// parameters select the per-node set representation (`S`, by default
/// the sorted ring [`DequeSet`]) and the node lock (`L`); the aliases
/// [`ZmsqList`](crate::ZmsqList) and [`ZmsqArray`](crate::ZmsqArray)
/// cover the paper's two variants.
pub struct Zmsq<V, S = DequeSet<V>, L = TatasLock>
where
    V: Send,
    S: NodeSet<V>,
    L: RawTryLock,
{
    tree: Tree<V, S, L>,
    pool: Pool<V>,
    cfg: ZmsqConfig,
    events: Option<EventBuffer>,
    /// Producer-side blocking, allocated iff `cfg.capacity` is set (all
    /// shed policies share it so `close()` and the waiter gauges are
    /// uniform; only `Block` actually parks on it).
    producer_wait: Option<ProducerWait>,
    /// Live-element count for capacity admission. Maintained as exactly
    /// `admitted inserts − extractions − evictions`, so at quiescence it
    /// equals the true queue length.
    occupancy: CachePadded<AtomicUsize>,
    stats: Stats,
    /// Online rank-error telemetry, allocated iff `cfg.rank_estimator`
    /// is set: a lock-free sampled shadow reservoir fed by every
    /// insert/extract path and exported as `quality.*` metrics.
    rank_est: Option<obs::RankEstimator>,
    /// Sampled sojourn-time telemetry, allocated iff `cfg.sojourn` is
    /// set: a lock-free stamp table recording enqueue→extract wall time
    /// into the `queue.sojourn_ns` histogram.
    sojourn: Option<obs::SojournTracker>,
    /// Effective refill batch, `cfg.batch_min ..= cfg.batch_max`. Equal
    /// to `cfg.batch` unless an adaptive controller (see `ShardedZmsq`)
    /// moves it at runtime.
    batch_cur: AtomicUsize,
    /// Scratch buffer for pool refills, guarded by the root lock.
    refill_scratch: UnsafeCell<Vec<(u64, V)>>,
}

// SAFETY: `refill_scratch` is only accessed while holding the root node's
// lock (see `extract_root`); all other shared state is internally
// synchronized (atomics, locks, the pool's own protocol).
unsafe impl<V: Send, S: NodeSet<V>, L: RawTryLock> Sync for Zmsq<V, S, L> {}
unsafe impl<V: Send, S: NodeSet<V>, L: RawTryLock> Send for Zmsq<V, S, L> {}

enum RootOutcome<V> {
    Got((u64, V)),
    Empty,
    /// Conditional extraction only: the global max is below the threshold.
    Below,
    Retry,
}

/// Unwind guard for insertion windows (see the module docs on panic
/// safety): while armed, a panic refreshes each held node's cache from
/// its set and releases its lock instead of wedging the tree.
///
/// Slots must be cleared (via [`UnwindUnlock::release`]) the moment a
/// lock is released normally or its ownership moves to a callee —
/// otherwise an unwind would unlock a lock this window no longer holds.
struct UnwindUnlock<'a, V: Send, S: NodeSet<V>, L: RawTryLock> {
    nodes: [Option<&'a TNode<V, S, L>>; 2],
}

impl<'a, V: Send, S: NodeSet<V>, L: RawTryLock> UnwindUnlock<'a, V, S, L> {
    fn one(node: &'a TNode<V, S, L>) -> Self {
        Self {
            nodes: [Some(node), None],
        }
    }

    fn two(node: &'a TNode<V, S, L>, parent: &'a TNode<V, S, L>) -> Self {
        Self {
            nodes: [Some(node), Some(parent)],
        }
    }

    /// Stop covering `node`: its lock was (or is about to be) released
    /// through the normal path, or a callee now owns it.
    fn release(&mut self, node: &TNode<V, S, L>) {
        for slot in &mut self.nodes {
            if slot.is_some_and(|n| std::ptr::eq(n, node)) {
                *slot = None;
            }
        }
    }
}

impl<V: Send, S: NodeSet<V>, L: RawTryLock> Drop for UnwindUnlock<'_, V, S, L> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        for node in self.nodes.into_iter().flatten() {
            // SAFETY: an armed slot means this thread still holds the
            // node's lock. The set itself is in a valid (if partially
            // mutated) state — std containers stay valid across a
            // panicking insert — so recomputing the cache restores every
            // per-node invariant before the lock is released.
            unsafe { node.refresh_cache() };
            node.unlock();
        }
        // The tree is usable again; preserve the flight recorder's view
        // of the moments leading up to the panic (no-op unless the
        // `obs-trace` feature compiled the recorder in).
        obs::recorder::dump_on_failure("zmsq-unwind-recovery");
    }
}

/// Escalates a panic inside a multi-node critical section to an abort.
/// Mid-window states there can violate cross-node invariants (mound
/// property, emptiness chain) that no local cleanup can restore.
struct AbortOnUnwind(&'static str);

impl Drop for AbortOnUnwind {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Under the det harness the panic is already recorded as the
            // schedule's failure; park this vthread forever (leak
            // policy) rather than abort the exploration process. The
            // guard's contract holds either way: the mid-window queue
            // state is never observed again.
            det::det_unwind_park!();
            eprintln!(
                "fatal: panic inside zmsq critical section `{}`; \
                 aborting rather than leaving a corrupt queue",
                self.0
            );
            // Last words: flush the flight recorder so the post-mortem
            // shows what led here (no-op without `obs-trace`).
            obs::recorder::dump_on_failure(self.0);
            std::process::abort();
        }
    }
}

/// Distribution of set sizes over nonempty non-leaf nodes (§3.2's
/// stability metric). Obtained from [`Zmsq::set_size_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetSizeStats {
    /// Number of nonempty non-leaf nodes sampled.
    pub nonempty_nodes: usize,
    /// Mean set size.
    pub mean: f64,
    /// Population standard deviation of set sizes.
    pub std_dev: f64,
    /// Smallest nonempty set.
    pub min: usize,
    /// Largest set.
    pub max: usize,
}

impl<V: Send, S: NodeSet<V>, L: RawTryLock> Zmsq<V, S, L> {
    /// Create a queue with the paper's recommended configuration
    /// (`batch = 48`, `target_len = 72`).
    pub fn new() -> Self {
        Self::with_config(ZmsqConfig::default())
    }

    /// Create a fixed-capacity queue: admission control keeps occupancy
    /// at or below `n`. Bounded means capacity admission only; it
    /// reserves no memory up front. The sets keep their storage once
    /// warm, so the steady state's remaining allocator calls are the
    /// pool's buffer per refill and a `Vec` per split (zbench's
    /// `alloc.calls_per_op` counts them).
    /// Admission defaults to [`ShedPolicy::Block`](crate::ShedPolicy::Block);
    /// compose with [`ZmsqConfig::shed_policy`] via `with_config` for
    /// other policies.
    pub fn bounded(n: usize) -> Self {
        Self::with_config(ZmsqConfig::default().capacity(n))
    }

    /// Create a queue with an explicit configuration.
    pub fn with_config(cfg: ZmsqConfig) -> Self {
        let cfg = cfg.normalized();
        Self {
            tree: Tree::new(cfg.initial_leaf_level),
            // The pool is allocated at the top of the adaptive range so a
            // widened batch never outgrows the (ConsumerWait) buffer;
            // batch_max == batch when adaptation is off.
            pool: Pool::new(cfg.batch_max, cfg.reclamation),
            events: cfg
                .blocking
                .then(|| EventBuffer::with_slots(cfg.event_slots)),
            producer_wait: cfg
                .capacity
                .is_some()
                .then(|| ProducerWait::with_slots(cfg.event_slots)),
            occupancy: CachePadded::new(AtomicUsize::new(0)),
            refill_scratch: UnsafeCell::new(Vec::with_capacity(cfg.batch_max)),
            batch_cur: AtomicUsize::new(cfg.batch),
            stats: Stats::default(),
            rank_est: cfg.rank_estimator.map(obs::RankEstimator::new),
            sojourn: cfg.sojourn.map(obs::SojournTracker::new),
            cfg,
        }
    }

    /// The attached rank-error estimator, if `cfg.rank_estimator` is set.
    pub fn rank_estimator(&self) -> Option<&obs::RankEstimator> {
        self.rank_est.as_ref()
    }

    /// The attached sojourn-time tracker, if `cfg.sojourn` is set.
    pub fn sojourn_tracker(&self) -> Option<&obs::SojournTracker> {
        self.sojourn.as_ref()
    }

    /// The queue's (normalized) configuration.
    pub fn config(&self) -> &ZmsqConfig {
        &self.cfg
    }

    /// Snapshot of the operation counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Best-effort size (inserts minus extractions; exact when quiescent).
    pub fn len_hint(&self) -> usize {
        let snap = &self.stats;
        snap.inserts.sum().saturating_sub(snap.extracts.sum()) as usize
    }

    /// Optimistic hint of the current maximum priority (the root's cached
    /// max). Exact on a quiescent queue; under concurrency it is a racy
    /// snapshot, and elements recently moved to the extraction pool are
    /// not reflected. `None` means the *tree* looked empty.
    pub fn peek_max_hint(&self) -> Option<u64> {
        self.tree.root().max_key()
    }

    /// Pool buffers leaked so far ([`Reclamation::Leak`](crate::Reclamation::Leak) mode only).
    pub fn leaked_buffers(&self) -> u64 {
        self.pool.leaked_count()
    }

    /// The effective pool-refill batch currently in force. Equals
    /// `config().batch` unless [`set_current_batch`](Self::set_current_batch)
    /// moved it (e.g. `ShardedZmsq`'s adaptive controller).
    pub fn current_batch(&self) -> usize {
        self.batch_cur.load(Ordering::Relaxed)
    }

    /// Set the effective pool-refill batch, clamped into the configured
    /// `batch_min ..= batch_max` range; returns the value actually
    /// applied. A no-op (returning 0) on a strict queue (`batch == 0`).
    ///
    /// Safe to call at any time from any thread: the value is read once
    /// per refill under the root lock, and the pool's buffer is allocated
    /// at `batch_max`, so any in-range value fits.
    pub fn set_current_batch(&self, n: usize) -> usize {
        if self.cfg.batch_max == 0 {
            return 0;
        }
        let applied = n.clamp(self.cfg.batch_min.max(1), self.cfg.batch_max);
        self.batch_cur.store(applied, Ordering::Relaxed);
        applied
    }

    // ------------------------------------------------------------------
    // Insertion (Listing 1)
    // ------------------------------------------------------------------

    /// Insert `value` with priority `prio`. Never fails; restarts
    /// internally on validation conflicts.
    ///
    /// On a capacity-bounded queue ([`ZmsqConfig::capacity`]) the call
    /// first passes admission control per the configured
    /// [`ShedPolicy`]: `Block` parks the producer until an extraction
    /// frees room (or the queue closes, which force-admits — an
    /// infallible insert never silently drops its element), `Reject`
    /// drops the incoming element, `ShedLowest` evicts a lower-priority
    /// element from deep in the tree to make room (shedding the incoming
    /// element instead when no victim is found). Use
    /// [`try_insert`](Self::try_insert) or
    /// [`insert_timeout`](Self::insert_timeout) to keep the rejected
    /// element.
    pub fn insert(&self, prio: u64, value: V) {
        let _op = obs::span!(obs::SpanPhase::Insert);
        let Some(cap) = self.cfg.capacity else {
            self.insert_admitted(prio, value);
            return;
        };
        loop {
            let admitted = {
                let _adm = obs::span!(obs::SpanPhase::Admission);
                self.try_admit(cap)
            };
            if admitted {
                self.insert_admitted(prio, value);
                return;
            }
            self.stats.capacity_hits.incr();
            match self.cfg.shed {
                ShedPolicy::Reject => {
                    self.stats.shed_rejected.incr();
                    obs::trace_event!(obs::EventKind::Insert, 2, prio);
                    return; // drops `value`
                }
                ShedPolicy::ShedLowest => {
                    if self.try_evict_lowest(prio) {
                        // The victim's reservation transfers to us:
                        // occupancy is net unchanged.
                        self.insert_admitted(prio, value);
                    } else {
                        self.stats.shed_rejected.incr();
                        obs::trace_event!(obs::EventKind::Insert, 2, prio);
                    }
                    return;
                }
                ShedPolicy::Block => {
                    let _adm = obs::span!(obs::SpanPhase::Admission);
                    let pw = self.producer_wait.as_ref().expect("capacity set");
                    self.stats.producer_waits.incr();
                    match pw.wait_for_room(|| self.has_room(cap)) {
                        WaitOutcome::Closed => {
                            // Closed queues stop enforcing capacity: the
                            // element is force-admitted so the infallible
                            // contract ("never fails") holds to the end.
                            self.occupancy.fetch_add(1, Ordering::SeqCst);
                            self.insert_admitted(prio, value);
                            return;
                        }
                        WaitOutcome::TimedOut => unreachable!("untimed wait"),
                        WaitOutcome::Ready | WaitOutcome::Woken => {}
                    }
                }
            }
        }
    }

    /// The insertion path proper, after (or without) capacity admission.
    fn insert_admitted(&self, prio: u64, value: V) {
        det::det_point!("zmsq.insert");
        // Every path below ends with the element inserted (the retry
        // loop is infallible), so the shadow sample is noted up front.
        if let Some(est) = &self.rank_est {
            est.note_insert(prio);
        }
        if let Some(soj) = &self.sojourn {
            soj.note_insert(prio);
        }
        // Experimental §5 fast path: high-priority elements go straight
        // into the extraction pool when it has headroom, skipping the
        // tree entirely. Falls through to the normal path on any
        // conflict (the element is handed back untouched).
        let mut value = value;
        if self.cfg.pool_fast_insert {
            match self.pool.try_fast_insert(prio, value) {
                Ok(()) => {
                    self.stats.fast_pool_inserts.incr();
                    self.stats.inserts.incr();
                    obs::trace_event!(obs::EventKind::Insert, 1, prio);
                    if let Some(ev) = &self.events {
                        ev.signal();
                    }
                    return;
                }
                Err((_, v)) => value = v,
            }
        }
        let _walk = obs::span!(obs::SpanPhase::TreeWalk);
        let mut consecutive_failures = 0u32;
        loop {
            match self.insert_attempt(prio, value) {
                Ok(()) => break,
                Err(v) => {
                    self.stats.insert_retries.incr();
                    value = v;
                    // §4.1's immediate-retry strategy assumes the lock
                    // holder runs on another core. When threads
                    // outnumber cores, spinning through restarts starves
                    // the holder, so yield after a sustained streak.
                    consecutive_failures += 1;
                    if consecutive_failures.is_multiple_of(32) {
                        std::thread::yield_now();
                    }
                }
            }
        }
        self.stats.inserts.incr();
        obs::trace_event!(obs::EventKind::Insert, 0, prio);
        if let Some(ev) = &self.events {
            ev.signal();
        }
    }

    /// Bulk insertion: drain `items` into the queue, inserting sorted
    /// chunks of up to `target_len` elements per node-lock acquisition.
    ///
    /// ```
    /// use zmsq::Zmsq;
    /// let q: Zmsq<u64> = Zmsq::new();
    /// let mut burst: Vec<(u64, u64)> = (0..100).map(|i| (i, i)).collect();
    /// q.insert_batch(&mut burst);
    /// assert!(burst.is_empty());
    /// assert_eq!(q.len_hint(), 100);
    /// ```
    ///
    /// Amortizes the traversal + locking cost of [`Zmsq::insert`] across
    /// a chunk — useful for producers that generate work in bursts. Each
    /// chunk is placed by its *maximum* priority exactly like a regular
    /// insertion (validated under the parent/node locks), so all tree
    /// invariants hold; chunk elements below the node's previous maximum
    /// simply join the set as non-max elements. Quality note: for
    /// adversarial distributions, chunking can park low elements slightly
    /// higher in the tree than element-wise insertion would.
    pub fn insert_batch(&self, items: &mut Vec<(u64, V)>) {
        if self.cfg.capacity.is_some() {
            // Bounded queues apply admission (and the shed policy)
            // per element; chunked placement would have to carve a
            // multi-slot reservation out of the budget mid-shed, for a
            // path whose point is amortizing *lock* traffic.
            for (prio, value) in items.drain(..) {
                self.insert(prio, value);
            }
            return;
        }
        items.sort_unstable_by_key(|&(k, _)| k);
        while !items.is_empty() {
            let take = items.len().min(self.cfg.target_len.max(1));
            let start = items.len() - take;
            let chunk_max = items.last().expect("nonempty").0;
            if let Some(est) = &self.rank_est {
                // The placement loop below is infallible: every chunk
                // element will be inserted exactly once.
                for &(k, _) in &items[start..] {
                    est.note_insert(k);
                }
            }
            if let Some(soj) = &self.sojourn {
                for &(k, _) in &items[start..] {
                    soj.note_insert(k);
                }
            }
            loop {
                // `allow_force = false`: a forced position only admits
                // *non-max* elements one at a time, which the chunked
                // placement below cannot honour — accepting one here
                // would spin forever re-validating an impossible fit.
                let (pos, _) = self.select_position(chunk_max, false);
                let target = self.search_root_path(pos, chunk_max);
                if self.bulk_insert_at(target, chunk_max, items, start) {
                    break;
                }
                self.stats.insert_retries.incr();
            }
            self.stats.inserts.add(take as u64);
            if let Some(ev) = &self.events {
                // One signal per element: up to `take` parked consumers
                // now have work.
                for _ in 0..take {
                    ev.signal();
                }
            }
        }
    }

    /// Place `items[start..]` (sorted ascending, maximum `chunk_max`)
    /// into the node at `pos`, under the same validation as
    /// `regular_insert`. Returns false to restart.
    fn bulk_insert_at(
        &self,
        pos: Pos,
        chunk_max: u64,
        items: &mut Vec<(u64, V)>,
        start: usize,
    ) -> bool {
        let node = self.tree.node(pos);
        if pos.0 == 0 {
            if !self.acquire(node) {
                return false;
            }
            if node.count() > 0 && node.max_key() > Some(chunk_max) {
                node.unlock();
                return false;
            }
        } else {
            let parent = self.tree.node(Tree::<V, S, L>::parent(pos));
            if !self.acquire(parent) {
                return false;
            }
            if !self.acquire(node) {
                parent.unlock();
                return false;
            }
            let fits = (node.count() == 0 || node.max_key() <= Some(chunk_max))
                && parent.max_key() > Some(chunk_max);
            if !fits {
                node.unlock();
                parent.unlock();
                return false;
            }
            parent.unlock();
        }
        let mut unwind = UnwindUnlock::one(node);
        fault::fail_point!("queue.insert.locked-panic");
        // SAFETY: node locked.
        unsafe {
            let set = node.set_mut();
            for (k, v) in items.drain(start..) {
                set.insert(k, v);
            }
            node.refresh_cache();
        }
        unwind.release(node); // finish_insert owns the lock now
        self.finish_insert(pos, node);
        true
    }

    /// One optimistic placement attempt; `Err` hands the element back
    /// for a restart (this is *not* the fallible capacity-aware
    /// [`try_insert`](Self::try_insert)).
    fn insert_attempt(&self, prio: u64, value: V) -> Result<(), V> {
        let (pos, force) = self.select_position(prio, true);
        if force {
            return self.forced_insert(pos, prio, value);
        }
        let target = self.search_root_path(pos, prio);
        self.regular_insert(target, prio, value)
    }

    /// `selectPosition`: probe random leaves for either (a) a leaf whose
    /// max is `<= prio` — then a binary search up the root path finds the
    /// insertion node — or (b) with `allow_force`, a deep, under-full
    /// leaf accepting `prio` as a non-max element. After `leaf_level`
    /// failed probes, expand. Callers that cannot perform a forced
    /// (non-max) placement — the chunked [`insert_batch`] path — pass
    /// `allow_force = false` so the probe loop keeps searching (and
    /// growing) instead of handing them a position they cannot use.
    ///
    /// [`insert_batch`]: Self::insert_batch
    fn select_position(&self, prio: u64, allow_force: bool) -> (Pos, bool) {
        loop {
            let leaf = self.tree.leaf_level();
            for _ in 0..leaf.max(1) * self.cfg.probe_factor {
                let slot = rng::next_index(1usize << leaf);
                let node = self.tree.node((leaf, slot));
                // Empty max is None (−∞): an empty leaf always qualifies.
                if node.max_key() <= Some(prio) || node.count() == 0 {
                    return ((leaf, slot), false);
                }
                if allow_force
                    && self.cfg.quality.forced_insert
                    && leaf > FORCE_MIN_LEVEL
                    && node.count() < self.cfg.target_len
                {
                    return ((leaf, slot), true);
                }
            }
            let grown = self.tree.grow(leaf);
            if grown > leaf {
                self.stats.tree_grows.incr();
                obs::trace_event!(obs::EventKind::TreeGrow, grown as u32);
            } else if grown == leaf && self.tree.is_saturated() {
                // Saturated and no good leaf found: fall back to a random
                // leaf on the regular path — the binary search will place
                // the element as some ancestor's new max (possibly making
                // an oversized set; quality loss only).
                return ((leaf, rng::next_index(1usize << leaf)), false);
            }
        }
    }

    /// Binary search the root path for the shallowest node whose max is
    /// `<= prio` — the candidate that makes `prio` a new maximum without
    /// violating its parent (§3.1: the level-array layout exists for
    /// exactly this search). Racy by design; the result is re-validated
    /// under locks.
    fn search_root_path(&self, pos: Pos, prio: u64) -> Pos {
        let (mut lo, mut hi) = (0usize, pos.0);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let node = self
                .tree
                .node((mid, Tree::<V, S, L>::ancestor_slot(pos, mid)));
            let fits = node.count() == 0 || node.max_key() <= Some(prio);
            if fits {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        (lo, Tree::<V, S, L>::ancestor_slot(pos, lo))
    }

    /// `forcedInsert`: add `prio` as a *non-max* element of a deep,
    /// under-full, nonempty node. Only the node's own lock is needed —
    /// its cached max (and thus all tree invariants) are untouched.
    fn forced_insert(&self, pos: Pos, prio: u64, value: V) -> Result<(), V> {
        let node = self.tree.node(pos);
        if !self.acquire(node) {
            return Err(value);
        }
        let mut unwind = UnwindUnlock::one(node);
        // Re-validate: still nonempty, still under-full, still not a max.
        // Listing 1 line 39 fails only when `count > targetLen`, so a
        // node at exactly targetLen still accepts (filling to target+1).
        let ok =
            node.count() > 0 && node.count() <= self.cfg.target_len && Some(prio) <= node.max_key();
        if !ok {
            node.unlock();
            return Err(value);
        }
        fault::fail_point!("queue.insert.locked-panic");
        // SAFETY: lock held.
        unsafe {
            node.set_mut().insert(prio, value);
            node.cache_after_insert(prio);
        }
        unwind.release(node);
        node.unlock();
        self.stats.forced_inserts.incr();
        Ok(())
    }

    /// `regularInsert`: make `prio` the new maximum of the target node,
    /// with the parent locked to pin `parent.max > prio` (§3.4 form 2),
    /// applying the parent-min quality swap (§3.2) when profitable.
    fn regular_insert(&self, pos: Pos, prio: u64, value: V) -> Result<(), V> {
        let node = self.tree.node(pos);

        if pos.0 == 0 {
            // Root: no parent constraint; `prio` must still be >= max.
            if !self.acquire(node) {
                return Err(value);
            }
            let mut unwind = UnwindUnlock::one(node);
            if node.count() > 0 && node.max_key() > Some(prio) {
                node.unlock();
                return Err(value);
            }
            fault::fail_point!("queue.insert.locked-panic");
            // SAFETY: lock held.
            unsafe {
                node.set_mut().insert(prio, value);
                node.cache_after_insert(prio);
            }
            unwind.release(node); // finish_insert owns the lock now
            self.finish_insert(pos, node);
            return Ok(());
        }

        let ppos = Tree::<V, S, L>::parent(pos);
        let parent = self.tree.node(ppos);
        // Lock order: parent before child, always.
        if !self.acquire(parent) {
            return Err(value);
        }
        if !self.acquire(node) {
            parent.unlock();
            return Err(value);
        }
        let mut unwind = UnwindUnlock::two(node, parent);
        // Validate the optimistic placement: prio becomes node's max and
        // stays below the parent's max (which also proves the parent is
        // nonempty, preserving the emptiness chain).
        let fits_node = node.count() == 0 || node.max_key() <= Some(prio);
        let below_parent = parent.max_key() > Some(prio);
        if !fits_node || !below_parent {
            node.unlock();
            parent.unlock();
            return Err(value);
        }

        fault::fail_point!("queue.insert.locked-panic");

        // Quality optimization (§3.2, Fig. 1): if the parent's min is
        // below prio, putting prio in the *parent* and demoting the
        // parent's min tightens the parent's range at no extra locking.
        let parent_min = parent.min_key();
        if self.cfg.quality.parent_min_swap && parent_min.is_some_and(|pm| pm < prio) {
            debug_assert!(parent.count() >= 2, "min < prio < max needs two elements");
            // SAFETY: both locks held.
            unsafe {
                let (demoted_prio, demoted_val) =
                    parent.set_mut().remove_min().expect("parent nonempty");
                parent.set_mut().insert(prio, value);
                parent.refresh_cache();
                node.set_mut().insert(demoted_prio, demoted_val);
                node.refresh_cache();
            }
            self.stats.min_swap_inserts.incr();
            unwind.release(parent);
            parent.unlock();
            unwind.release(node); // finish_insert owns the lock now
            self.finish_insert(pos, node);
            return Ok(());
        }

        // Plain form: insert as the node's new maximum.
        // SAFETY: lock held.
        unsafe {
            node.set_mut().insert(prio, value);
            node.cache_after_insert(prio);
        }
        unwind.release(parent);
        parent.unlock();
        unwind.release(node); // finish_insert owns the lock now
        self.finish_insert(pos, node);
        Ok(())
    }

    /// Post-insert bookkeeping with `node` (at `pos`) still locked:
    /// split oversized sets downward, then release.
    fn finish_insert(&self, pos: Pos, node: &TNode<V, S, L>) {
        if node.count() > 2 * self.cfg.target_len {
            self.split_down(pos);
        } else {
            node.unlock();
        }
    }

    /// Split an oversized set: keep the upper half in place, merge the
    /// lower half into the children (locked before the parent unlocks so
    /// no extraction can observe the pre-split child with the post-split
    /// parent — §3.4 form 3). Recurses if a child overflows in turn.
    ///
    /// Precondition: the node at `pos` is locked; this call unlocks it.
    fn split_down(&self, pos: Pos) {
        // A panic mid-split leaves demoted elements split across parent
        // and children with stale caches on several nodes — abort.
        let _critical = AbortOnUnwind("split_down");
        let node = self.tree.node(pos);
        if node.count() <= 2 * self.cfg.target_len {
            node.unlock();
            return;
        }
        // Make sure children exist. If the tree is saturated (degenerate
        // configs with tiny target_len can dig split cascades arbitrarily
        // deep), keep the oversized set instead — a quality concession,
        // never a correctness one.
        while self.tree.leaf_level() <= pos.0 {
            let before = self.tree.leaf_level();
            if self.tree.grow(before) == before {
                node.unlock();
                return;
            }
            self.stats.tree_grows.incr();
        }
        let (lp, rp) = Tree::<V, S, L>::children(pos);
        let (left, right) = (self.tree.node(lp), self.tree.node(rp));
        // Blocking acquisition is deadlock-free here: we hold the parent
        // and every lock sequence in the queue descends the tree.
        let _site = zmsq_sync::site::enter(node_site());
        left.lock();
        right.lock();

        // SAFETY: node locked.
        let lower = unsafe {
            let lower = node.set_mut().split_lower_half();
            node.refresh_cache();
            lower
        };
        node.unlock();
        self.stats.splits.incr();
        obs::trace_event!(obs::EventKind::Split, pos.0 as u32);

        // Distribute the demoted elements across both children. Their
        // maxes can only grow up to the parent's kept minimum, so the
        // mound invariant survives.
        // SAFETY: both child locks held.
        unsafe {
            let (ls, rs) = (left.set_mut(), right.set_mut());
            for (i, (k, v)) in lower.into_iter().enumerate() {
                if i % 2 == 0 {
                    ls.insert(k, v);
                } else {
                    rs.insert(k, v);
                }
            }
            left.refresh_cache();
            right.refresh_cache();
        }

        let cap = 2 * self.cfg.target_len;
        let l_over = left.count() > cap;
        let r_over = right.count() > cap;
        if !r_over {
            right.unlock();
        }
        if l_over {
            self.split_down(lp); // unlocks left
        } else {
            left.unlock();
        }
        if r_over {
            self.split_down(rp); // unlocks right
        }
    }

    // ------------------------------------------------------------------
    // Capacity, backpressure and shedding
    // ------------------------------------------------------------------

    /// Reserve one occupancy slot if the queue is below `cap`.
    fn try_admit(&self, cap: usize) -> bool {
        let admitted = self
            .occupancy
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |o| {
                (o < cap).then_some(o + 1)
            })
            .is_ok();
        if admitted {
            // Widen the window between reservation and tree insertion so
            // chaos tests can race extractions against half-admitted
            // elements.
            fault::fail_point!("queue.capacity.race");
        }
        admitted
    }

    #[inline]
    fn has_room(&self, cap: usize) -> bool {
        self.occupancy.load(Ordering::SeqCst) < cap
    }

    /// Return `n` occupancy slots after extraction and wake parked
    /// producers. The release happens *before* the signal so a woken
    /// producer's `has_room` re-check observes the freed slots.
    #[inline]
    fn release_capacity(&self, n: usize) {
        if self.cfg.capacity.is_none() || n == 0 {
            return;
        }
        fault::fail_point!("queue.capacity.race");
        self.occupancy.fetch_sub(n, Ordering::SeqCst);
        if let Some(pw) = &self.producer_wait {
            for _ in 0..n {
                pw.signal();
            }
        }
    }

    /// `ShedLowest` eviction: drop one element with priority `< below`
    /// from as deep in the tree as possible, freeing its occupancy slot
    /// for the caller (a reservation transfer — occupancy is *not*
    /// decremented). Best-effort: probes a bounded number of random
    /// nodes per level, deepest level first; returns `false` when no
    /// victim was validated, and the caller sheds the incoming element
    /// instead.
    fn try_evict_lowest(&self, below: u64) -> bool {
        let leaf = self.tree.leaf_level();
        for level in (0..=leaf).rev() {
            let width = 1usize << level;
            let probes = width.min(8 * self.cfg.probe_factor.max(1));
            for _ in 0..probes {
                let pos = (level, rng::next_index(width));
                // Racy pre-screen; re-validated under the node lock.
                if self.tree.node(pos).min_key().is_some_and(|m| m < below)
                    && self.try_evict_at(pos, below)
                {
                    return true;
                }
            }
        }
        false
    }

    /// Evict this node's minimum if, under the lock, it is still below
    /// the threshold *and* removal cannot empty a node that has nonempty
    /// children (which would break the emptiness chain). A node with one
    /// element is only a valid victim when both children are empty —
    /// and they stay empty while we hold this lock, because every path
    /// that fills an empty node locks its parent first (regular/bulk
    /// insert) or requires a nonempty target (forced insert).
    fn try_evict_at(&self, pos: Pos, below: u64) -> bool {
        let node = self.tree.node(pos);
        if !self.acquire(node) {
            return false;
        }
        let unwind = UnwindUnlock::one(node);
        let viable = node.min_key().is_some_and(|m| m < below)
            && (node.count() >= 2 || self.children_empty(pos));
        if !viable {
            drop(unwind);
            node.unlock();
            return false;
        }
        // SAFETY: node locked.
        let victim_key = unsafe {
            let victim = node.set_mut().remove_min().expect("count > 0");
            let key = victim.0;
            drop(victim);
            node.refresh_cache();
            key
        };
        drop(unwind);
        node.unlock();
        if let Some(est) = &self.rank_est {
            // Evicted, not handed out: release the shadow slot without
            // recording a rank sample.
            est.note_remove(victim_key);
        }
        if let Some(soj) = &self.sojourn {
            // Likewise: an eviction is not a service completion, so the
            // stamp is released without recording a sojourn.
            soj.note_remove(victim_key);
        }
        self.stats.shed_evicted.incr();
        obs::trace_event!(obs::EventKind::Extract, 2, below);
        true
    }

    /// Whether both children of `pos` are empty. Unallocated levels
    /// (`pos` at or below the current leaf level) count as empty: nodes
    /// there cannot be filled while the caller holds `pos`'s lock.
    fn children_empty(&self, pos: Pos) -> bool {
        if pos.0 >= self.tree.leaf_level() {
            return true;
        }
        let (lp, rp) = Tree::<V, S, L>::children(pos);
        self.tree.node(lp).count() == 0 && self.tree.node(rp).count() == 0
    }

    /// Fallible insert: apply capacity admission once and hand the
    /// element back instead of blocking or dropping it.
    ///
    /// * Unbounded queues always admit.
    /// * [`InsertError::Closed`] after [`Zmsq::close`] on a bounded queue.
    /// * Under `ShedLowest`, a successful eviction admits the element;
    ///   otherwise [`InsertError::Full`] returns it (nothing is shed —
    ///   the caller keeps the element, unlike [`Zmsq::insert`]).
    /// * Under `Block`/`Reject`, a full queue returns
    ///   [`InsertError::Full`] immediately (no parking).
    #[must_use = "the rejected element is inside the error; dropping it loses work"]
    pub fn try_insert(&self, prio: u64, value: V) -> Result<(), InsertError<V>> {
        let Some(cap) = self.cfg.capacity else {
            self.insert_admitted(prio, value);
            return Ok(());
        };
        if self.producer_wait.as_ref().is_some_and(|pw| pw.is_closed()) {
            return Err(InsertError::Closed(value));
        }
        if self.try_admit(cap) {
            self.insert_admitted(prio, value);
            return Ok(());
        }
        self.stats.capacity_hits.incr();
        if self.cfg.shed == ShedPolicy::ShedLowest && self.try_evict_lowest(prio) {
            self.insert_admitted(prio, value);
            return Ok(());
        }
        Err(InsertError::Full(value))
    }

    /// [`try_insert`](Self::try_insert) that, under
    /// [`ShedPolicy::Block`], parks the producer up to `timeout` waiting
    /// for room. Other policies never block, so `Full` is returned
    /// immediately as in `try_insert`.
    #[must_use = "the rejected element is inside the error; dropping it loses work"]
    pub fn insert_timeout(
        &self,
        prio: u64,
        value: V,
        timeout: std::time::Duration,
    ) -> Result<(), InsertError<V>> {
        let value = match self.try_insert(prio, value) {
            Ok(()) => return Ok(()),
            Err(InsertError::Full(v)) if self.cfg.shed == ShedPolicy::Block => v,
            Err(e) => return Err(e),
        };
        let cap = self.cfg.capacity.expect("Full implies bounded");
        let pw = self.producer_wait.as_ref().expect("capacity set");
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if self.try_admit(cap) {
                self.insert_admitted(prio, value);
                return Ok(());
            }
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Err(InsertError::Timeout(value));
            }
            self.stats.producer_waits.incr();
            match pw.wait_for_room_timeout(|| self.has_room(cap), remaining) {
                WaitOutcome::Closed => return Err(InsertError::Closed(value)),
                // The park consumed the whole remaining budget (timed
                // futex waits only time out at their deadline): one last
                // admission attempt so a last-instant release still wins,
                // then report the timeout. Returning here rather than
                // re-deriving from the wall clock keeps the loop finite
                // under virtual-time schedulers (`det`).
                WaitOutcome::TimedOut => {
                    if self.try_admit(cap) {
                        self.insert_admitted(prio, value);
                        return Ok(());
                    }
                    return Err(InsertError::Timeout(value));
                }
                WaitOutcome::Ready | WaitOutcome::Woken => {}
            }
        }
    }

    /// The configured capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.cfg.capacity
    }

    /// Current live-element count under capacity accounting (0 on
    /// unbounded queues — use [`len_hint`](Self::len_hint) there).
    pub fn occupancy(&self) -> usize {
        self.occupancy.load(Ordering::SeqCst)
    }

    /// Producers currently parked waiting for room.
    pub fn producer_waiters(&self) -> usize {
        self.producer_wait
            .as_ref()
            .map_or(0, |pw| pw.sleeper_count() as usize)
    }

    // ------------------------------------------------------------------
    // Extraction (Listing 2)
    // ------------------------------------------------------------------

    /// Extract a high-priority element.
    ///
    /// Returns `None` **only** when the queue was observed truly empty
    /// (root set empty under the root lock with the pool exhausted).
    /// With `batch = 0` the result is always the exact maximum.
    pub fn extract_max(&self) -> Option<(u64, V)> {
        det::det_point!("zmsq.extract");
        let _op = obs::span!(obs::SpanPhase::Extract);
        let mut backoff = Backoff::new();
        loop {
            // Fast path: claim from the shared pool.
            let claimed = {
                let _claim = obs::span!(obs::SpanPhase::PoolClaim);
                self.pool.try_claim()
            };
            if let Some(got) = claimed {
                self.stats.pool_hits.incr();
                self.stats.extracts.incr();
                obs::trace_event!(obs::EventKind::PoolHit, 0, got.0);
                self.note_extracted(got.0);
                self.release_capacity(1);
                return Some(got);
            }
            obs::trace_event!(obs::EventKind::PoolMiss);
            match self.extract_root() {
                RootOutcome::Got(got) => {
                    self.stats.extracts.incr();
                    obs::trace_event!(obs::EventKind::Extract, 0, got.0);
                    self.note_extracted(got.0);
                    self.release_capacity(1);
                    return Some(got);
                }
                RootOutcome::Empty => {
                    self.stats.empty_observed.incr();
                    return None;
                }
                RootOutcome::Below => unreachable!("no threshold was given"),
                RootOutcome::Retry => backoff.wait(),
            }
        }
    }

    /// Shadow-sample a handed-out element and close its sojourn stamp
    /// (no-ops when the respective telemetry is detached).
    #[inline]
    fn note_extracted(&self, key: u64) {
        if let Some(est) = &self.rank_est {
            est.note_extract(key);
        }
        if let Some(soj) = &self.sojourn {
            soj.note_extract(key);
        }
    }

    /// Batched extraction: append up to `n` high-priority elements to
    /// `out`, returning how many were extracted. Returns fewer than `n`
    /// **only** when the queue was observed truly empty mid-drain (the
    /// same guarantee as [`extract_max`](Self::extract_max)).
    ///
    /// ```
    /// use zmsq::Zmsq;
    /// let q: Zmsq<u64> = Zmsq::new();
    /// for i in 0..100 { q.insert(i, i); }
    /// let mut out = Vec::new();
    /// assert_eq!(q.extract_batch(&mut out, 30), 30);
    /// assert_eq!(q.extract_batch(&mut out, 100), 70);
    /// assert_eq!(q.extract_batch(&mut out, 1), 0);
    /// ```
    ///
    /// The fast path reserves up to `n` pool slots with a **single**
    /// `fetch_sub` — one contended RMW instead of `n` — so consumers that
    /// drain in bursts touch the shared pool index once per burst.
    /// Elements arrive in hand-out order (approximately descending, same
    /// relaxation as element-wise extraction).
    pub fn extract_batch(&self, out: &mut Vec<(u64, V)>, n: usize) -> usize {
        det::det_point!("zmsq.extract");
        let mut got = 0;
        let mut backoff = Backoff::new();
        while got < n {
            let claimed = self.pool.try_claim_many(out, n - got);
            if claimed > 0 {
                self.stats.pool_hits.add(claimed as u64);
                self.stats.extracts.add(claimed as u64);
                obs::trace_event!(obs::EventKind::PoolHit, claimed as u32);
                let start = out.len() - claimed;
                for key in out[start..].iter().map(|(k, _)| *k) {
                    self.note_extracted(key);
                }
                self.release_capacity(claimed);
                got += claimed;
                continue;
            }
            obs::trace_event!(obs::EventKind::PoolMiss);
            match self.extract_root() {
                RootOutcome::Got(item) => {
                    self.stats.extracts.incr();
                    obs::trace_event!(obs::EventKind::Extract, 0, item.0);
                    self.note_extracted(item.0);
                    self.release_capacity(1);
                    out.push(item);
                    got += 1;
                }
                RootOutcome::Empty => {
                    self.stats.empty_observed.incr();
                    break;
                }
                RootOutcome::Below => unreachable!("no threshold was given"),
                RootOutcome::Retry => backoff.wait(),
            }
        }
        got
    }

    /// Conditional extraction (§1: "non-blocking conditional
    /// extraction"): take a high-priority element only if its priority is
    /// at least `min_prio`.
    ///
    /// ```
    /// use zmsq::{Zmsq, ZmsqConfig};
    /// let q: Zmsq<&str> = Zmsq::with_config(ZmsqConfig::strict());
    /// q.insert(10, "routine");
    /// q.insert(90, "urgent");
    /// // Only take work that meets the urgency bar:
    /// assert_eq!(q.try_extract_if(50), Some((90, "urgent")));
    /// assert_eq!(q.try_extract_if(50), None); // 10 < 50 stays queued
    /// assert_eq!(q.len_hint(), 1);
    /// ```
    ///
    /// Semantics are relaxed, matching the queue: `Some` is always a
    /// qualifying element; `None` means *no qualifying element was
    /// readily available* — the pool's best remaining entry and (when the
    /// pool is empty) the root maximum were below the threshold. Deeper
    /// tree elements above the threshold cannot exist in quiescence
    /// (the mound invariant puts the global max at the root), but under
    /// concurrency a racing insert may be missed, exactly as a racing
    /// `extract_max` could have taken it.
    pub fn try_extract_if(&self, min_prio: u64) -> Option<(u64, V)> {
        use crate::pool::ClaimIf;
        let mut backoff = Backoff::new();
        loop {
            match self.pool.try_claim_if(min_prio) {
                ClaimIf::Got(got) => {
                    // An exhaust+refill ABA between peek and claim can
                    // hand us a below-threshold element; give it back.
                    // Straight to the admitted path: the element's
                    // occupancy reservation was never released, so
                    // re-running admission would double-count it (and
                    // could block or shed an element we must not lose).
                    if got.0 < min_prio {
                        // `insert_admitted` will note the key again, so
                        // release its existing shadow slot first (as a
                        // removal, not a hand-out: no rank sample) —
                        // otherwise one live element would occupy two
                        // reservoir slots.
                        if let Some(est) = &self.rank_est {
                            est.note_remove(got.0);
                        }
                        if let Some(soj) = &self.sojourn {
                            // The give-back re-inserts via
                            // `insert_admitted`, which will re-stamp;
                            // release the original stamp as a removal so
                            // the rollback never records a sojourn.
                            soj.note_remove(got.0);
                        }
                        self.insert_admitted(got.0, got.1);
                        return None;
                    }
                    self.stats.pool_hits.incr();
                    self.stats.extracts.incr();
                    self.note_extracted(got.0);
                    self.release_capacity(1);
                    return Some(got);
                }
                ClaimIf::Below => return None,
                ClaimIf::Exhausted => {}
            }
            match self.extract_root_cond(Some(min_prio)) {
                RootOutcome::Got(got) => {
                    self.stats.extracts.incr();
                    self.note_extracted(got.0);
                    self.release_capacity(1);
                    return Some(got);
                }
                RootOutcome::Empty => {
                    self.stats.empty_observed.incr();
                    return None;
                }
                RootOutcome::Below => return None,
                RootOutcome::Retry => backoff.wait(),
            }
        }
    }

    /// Slow path: take the maximum from the root, refill the pool with
    /// the next-best `batch` elements, and restore the mound invariant.
    fn extract_root(&self) -> RootOutcome<V> {
        self.extract_root_cond(None)
    }

    /// Root extraction with an optional priority threshold: with
    /// `Some(min)`, returns `Empty` (without extracting) when the root
    /// maximum — the global maximum, by the mound invariant — is below
    /// `min`.
    fn extract_root_cond(&self, min_prio: Option<u64>) -> RootOutcome<V> {
        let root = self.tree.root();
        // Attribute the whole root critical section (acquisition, refill,
        // swap-down and their nested lock waits) to the root site.
        let _site = zmsq_sync::site::enter(root_site());
        let acquired = match self.cfg.lock_strategy {
            LockStrategy::TryRestart => root.try_lock(),
            LockStrategy::Blocking => {
                root.lock();
                true
            }
        };
        if !acquired {
            // Likely a concurrent refiller; back off and retry the pool.
            self.stats.trylock_fails.incr();
            return RootOutcome::Retry;
        }
        let unwind = UnwindUnlock::one(root);
        // Someone may have refilled while we waited for the lock — we
        // raced another extractor to the same refill.
        if self.pool.has_items_locked() {
            self.stats.refill_races.incr();
            root.unlock();
            return RootOutcome::Retry;
        }
        if root.count() == 0 {
            // Empty root + exhausted pool == empty queue (see module docs).
            root.unlock();
            return RootOutcome::Empty;
        }
        if let Some(min) = min_prio {
            if root.max_key() < Some(min) {
                // Mound invariant: root.max is the global max, so nothing
                // qualifies.
                root.unlock();
                return RootOutcome::Below;
            }
        }
        // The last point where a panic is recoverable by unlocking: no
        // mutation has happened yet.
        fault::fail_point!("queue.extract.locked-panic");
        det::det_point!("zmsq.extract-root");
        drop(unwind);
        // From here to swap_down's return the window spans the root, the
        // pool and (transitively) children — unrecoverable mid-way.
        let _critical = AbortOnUnwind("root extraction");

        // SAFETY: root locked.
        let best = unsafe { root.set_mut().remove_max().expect("count > 0") };
        let remaining = root.count() - 1;
        if self.cfg.batch_max > 0 && remaining > 0 {
            let _refill = obs::span!(obs::SpanPhase::PoolRefill);
            // The *effective* batch: cfg.batch unless an adaptive
            // controller has moved it. Always within batch_min..=batch_max,
            // hence within the pool's allocated capacity.
            let n = remaining.min(self.batch_cur.load(Ordering::Relaxed).max(1));
            // SAFETY: `refill_scratch` is guarded by the root lock.
            let scratch = unsafe { &mut *self.refill_scratch.get() };
            scratch.clear();
            // SAFETY: root locked.
            unsafe { root.set_mut().drain_top(n, scratch) };
            self.pool.refill_locked(scratch);
            self.stats.pool_refills.incr();
            obs::trace_event!(obs::EventKind::PoolRefill, n as u32);
        }
        // SAFETY: root locked.
        unsafe { root.refresh_cache() };
        self.stats.root_extracts.incr();
        obs::trace_event!(obs::EventKind::RootAccess);
        {
            let _swap = obs::span!(obs::SpanPhase::SwapDown);
            self.swap_down((0, 0)); // consumes the root lock
        }
        RootOutcome::Got(best)
    }

    /// Restore `parent.max >= child.max` from `pos` downward by swapping
    /// sets with the larger child until the invariant holds (the mound's
    /// moundify, §2.2/§3.4). Precondition: node at `pos` locked; unlocks
    /// everything before returning.
    fn swap_down(&self, pos: Pos) {
        // A panic mid-swap can strand a nonempty child under an emptied
        // parent (breaking the emptiness chain) — abort.
        let _critical = AbortOnUnwind("swap_down");
        let mut pos = pos;
        loop {
            let node = self.tree.node(pos);
            if pos.0 >= self.tree.leaf_level() {
                node.unlock();
                return;
            }
            let (lp, rp) = Tree::<V, S, L>::children(pos);
            let (left, right) = (self.tree.node(lp), self.tree.node(rp));
            left.lock();
            right.lock();
            let (big_pos, big, small) = if left.max_key() >= right.max_key() {
                (lp, left, right)
            } else {
                (rp, right, left)
            };
            // Option ordering treats empty as −∞: an emptied parent keeps
            // sinking until its whole subtree below is empty, preserving
            // the emptiness chain.
            if big.max_key() <= node.max_key() {
                small.unlock();
                big.unlock();
                node.unlock();
                return;
            }
            // SAFETY: both locks held, distinct nodes.
            unsafe { node.swap_contents(big) };
            self.stats.swap_downs.incr();
            small.unlock();
            node.unlock();
            pos = big_pos; // `big` stays locked for the next round
        }
    }

    // ------------------------------------------------------------------
    // Blocking (§3.6)
    // ------------------------------------------------------------------

    /// Extract, parking the thread on the futex buffer while the queue is
    /// empty. Returns `None` only after [`Zmsq::close`] with the queue
    /// drained.
    ///
    /// # Panics
    ///
    /// If the queue was built without `blocking` enabled.
    pub fn extract_max_blocking(&self) -> Option<(u64, V)> {
        let events = self
            .events
            .as_ref()
            .expect("extract_max_blocking requires ZmsqConfig::blocking(true)");
        loop {
            if let Some(got) = self.extract_max() {
                return Some(got);
            }
            match events.wait_until(|| self.len_hint() > 0) {
                WaitOutcome::Closed => return self.extract_max(),
                WaitOutcome::TimedOut => unreachable!("untimed wait"),
                WaitOutcome::Ready | WaitOutcome::Woken => {}
            }
        }
    }

    /// Extract, parking up to `timeout` while the queue is empty.
    ///
    /// Returns `None` on timeout, on close-with-empty-queue, or if
    /// blocking is disabled and the queue is empty (degrades to a single
    /// non-blocking attempt).
    ///
    /// ```
    /// use zmsq::{Zmsq, ZmsqConfig};
    /// use std::time::Duration;
    /// let q: Zmsq<u64> = Zmsq::with_config(ZmsqConfig::default().blocking(true));
    /// assert_eq!(q.extract_max_timeout(Duration::from_millis(10)), None);
    /// q.insert(5, 5);
    /// assert_eq!(q.extract_max_timeout(Duration::from_millis(10)), Some((5, 5)));
    /// ```
    #[must_use = "a timed-out extraction returns None; ignoring it hides the stall"]
    pub fn extract_max_timeout(&self, timeout: std::time::Duration) -> Option<(u64, V)> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if let Some(got) = self.extract_max() {
                return Some(got);
            }
            let events = self.events.as_ref()?;
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return None;
            }
            match events.wait_until_timeout(|| self.len_hint() > 0, remaining) {
                WaitOutcome::Closed => return self.extract_max(),
                WaitOutcome::TimedOut => return self.extract_max(),
                WaitOutcome::Ready | WaitOutcome::Woken => {}
            }
        }
    }

    /// Extract, spin-waiting while the queue is empty (§1's third
    /// consumer discipline, between [`Zmsq::extract_max`] and
    /// [`Zmsq::extract_max_blocking`]). Backs off exponentially and
    /// yields to the scheduler once the spin budget is exhausted.
    ///
    /// Returns `None` only if the queue was [`Zmsq::close`]d (requires
    /// blocking to be enabled for close to exist; without it this spins
    /// until an element arrives).
    pub fn extract_max_spinning(&self) -> Option<(u64, V)> {
        let mut backoff = Backoff::new();
        loop {
            if let Some(got) = self.extract_max() {
                return Some(got);
            }
            if self.is_closed() {
                return self.extract_max();
            }
            backoff.wait();
        }
    }

    /// Wake all blocked consumers *and* blocked producers permanently
    /// (shutdown). Subsequent [`Zmsq::extract_max_blocking`] calls drain
    /// the queue and then return `None`; producers parked on a full
    /// [`ShedPolicy::Block`] queue wake and (for the fallible surface)
    /// see [`InsertError::Closed`].
    pub fn close(&self) {
        if let Some(ev) = &self.events {
            ev.close();
        }
        if let Some(pw) = &self.producer_wait {
            pw.close();
        }
    }

    /// Whether [`Zmsq::close`] has been called (always `false` when
    /// neither blocking nor a capacity bound is configured).
    pub fn is_closed(&self) -> bool {
        self.events.as_ref().is_some_and(|e| e.is_closed())
            || self.producer_wait.as_ref().is_some_and(|pw| pw.is_closed())
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    #[inline]
    fn acquire(&self, node: &TNode<V, S, L>) -> bool {
        let _site = zmsq_sync::site::enter(node_site());
        match self.cfg.lock_strategy {
            LockStrategy::TryRestart => {
                if node.try_lock() {
                    true
                } else {
                    self.stats.trylock_fails.incr();
                    false
                }
            }
            LockStrategy::Blocking => {
                node.lock();
                true
            }
        }
    }

    /// Extract everything, returning how many elements were drained.
    pub fn drain_count(&self) -> usize {
        let mut n = 0;
        while self.extract_max().is_some() {
            n += 1;
        }
        n
    }

    /// Per-node set-size statistics over nonempty non-leaf nodes —
    /// regenerates the §3.2 in-text experiment ("After initialization,
    /// count varied from 32 to 51 across all non-leaf nodes... the
    /// average count was 32 for all nodes (standard deviation 2.76)").
    /// Requires exclusive access (quiescence).
    pub fn set_size_stats(&mut self) -> SetSizeStats {
        let leaf = self.tree.leaf_level();
        let mut counts: Vec<usize> = Vec::new();
        self.tree.for_each_allocated(|pos, node| {
            if pos.0 < leaf && node.count() > 0 {
                counts.push(node.count());
            }
        });
        let n = counts.len();
        if n == 0 {
            return SetSizeStats::default();
        }
        let sum: usize = counts.iter().sum();
        let mean = sum as f64 / n as f64;
        let var = counts
            .iter()
            .map(|&c| (c as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        SetSizeStats {
            nonempty_nodes: n,
            mean,
            std_dev: var.sqrt(),
            min: counts.iter().copied().min().unwrap_or(0),
            max: counts.iter().copied().max().unwrap_or(0),
        }
    }

    /// Check every structural invariant. Requires exclusive access
    /// (hence `&mut self`), so it can read sets without locks.
    ///
    /// Verified invariants:
    /// 1. cached `max`/`min`/`count` match the set contents;
    /// 2. mound property: `parent.max >= child.max` (empty = −∞);
    /// 3. emptiness chain: a nonempty node has a nonempty parent;
    /// 4. no set exceeds `2 * target_len`.
    pub fn validate_invariants(&mut self) -> Result<(), String> {
        let cap = 2 * self.cfg.target_len;
        let mut problems = Vec::new();
        self.tree.for_each_allocated(|pos, node| {
            // SAFETY: exclusive &mut self access; no other threads.
            let set = unsafe { node.set_mut() };
            if set.len() != node.count() {
                problems.push(format!(
                    "{pos:?}: cached count {} != set len {}",
                    node.count(),
                    set.len()
                ));
            }
            if set.max_key() != node.max_key() && node.count() > 0 {
                problems.push(format!(
                    "{pos:?}: cached max {:?} != set max {:?}",
                    node.max_key(),
                    set.max_key()
                ));
            }
            if set.min_key() != node.min_key() && node.count() > 0 {
                problems.push(format!(
                    "{pos:?}: cached min {:?} != set min {:?}",
                    node.min_key(),
                    set.min_key()
                ));
            }
            if set.len() > cap && !self.tree.is_saturated() {
                problems.push(format!("{pos:?}: set len {} > cap {cap}", set.len()));
            }
            if pos.0 > 0 {
                let parent = self.tree.node(Tree::<V, S, L>::parent(pos));
                if node.max_key() > parent.max_key() {
                    problems.push(format!(
                        "{pos:?}: mound violation: node max {:?} > parent max {:?}",
                        node.max_key(),
                        parent.max_key()
                    ));
                }
                if node.count() > 0 && parent.count() == 0 {
                    problems.push(format!("{pos:?}: nonempty node under empty parent"));
                }
            }
        });
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }
}

impl<V: Send, S: NodeSet<V>, L: RawTryLock> Default for Zmsq<V, S, L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Send, S: NodeSet<V>, L: RawTryLock> std::fmt::Debug for Zmsq<V, S, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Zmsq")
            .field("batch", &self.cfg.batch)
            .field("target_len", &self.cfg.target_len)
            .field("leaf_level", &self.tree.leaf_level())
            .field("len_hint", &self.len_hint())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArraySet, ListSet, Reclamation};

    /// The default queue: sorted-ring sets.
    type Q = Zmsq<u64>;
    type ArrayQ = Zmsq<u64, ArraySet<u64>>;

    #[test]
    fn empty_queue_extracts_none() {
        let q = Q::new();
        assert_eq!(q.extract_max(), None);
        assert_eq!(q.len_hint(), 0);
        assert_eq!(q.stats().empty_observed, 1);
    }

    #[test]
    fn single_element_roundtrip() {
        let q = Q::new();
        q.insert(42, 420);
        assert_eq!(q.len_hint(), 1);
        assert_eq!(q.extract_max(), Some((42, 420)));
        assert_eq!(q.extract_max(), None);
    }

    #[test]
    fn strict_mode_is_exact() {
        let q: Q = Zmsq::with_config(ZmsqConfig::strict());
        let keys = [17u64, 3, 99, 45, 99, 2, 63, 0, 1000];
        for &k in &keys {
            q.insert(k, k);
        }
        let mut sorted: Vec<u64> = keys.to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        for expect in sorted {
            assert_eq!(q.extract_max().map(|p| p.0), Some(expect));
        }
        assert_eq!(q.extract_max(), None);
    }

    #[test]
    fn strict_mode_many_random() {
        let q: Q = Zmsq::with_config(ZmsqConfig::strict().target_len(8));
        let mut keys: Vec<u64> = (0..5000).map(|i| (i * 2654435761u64) % 100_000).collect();
        for &k in &keys {
            q.insert(k, k);
        }
        keys.sort_unstable_by(|a, b| b.cmp(a));
        for &expect in &keys {
            assert_eq!(q.extract_max().map(|p| p.0), Some(expect));
        }
        assert_eq!(q.extract_max(), None);
    }

    #[test]
    fn relaxed_mode_conserves_elements() {
        let q = Q::with_config(ZmsqConfig::default().batch(8).target_len(12));
        let n = 10_000u64;
        let mut expect_sum = 0u64;
        for i in 0..n {
            let k = (i * 48271) % 65536;
            expect_sum += k;
            q.insert(k, k);
        }
        let mut got_sum = 0u64;
        let mut got_n = 0u64;
        while let Some((k, v)) = q.extract_max() {
            assert_eq!(k, v);
            got_sum += k;
            got_n += 1;
        }
        assert_eq!(got_n, n);
        assert_eq!(got_sum, expect_sum);
    }

    #[test]
    fn insert_batch_of_low_keys_terminates() {
        // Regression: `select_position` may only hand out *forced*
        // positions (deep under-full leaves whose max exceeds the key —
        // valid solely for single non-max placements). The chunked bulk
        // path used to accept one and retry the impossible regular
        // placement forever. Build that state — a grown tree where every
        // leaf holds a few high keys — then bulk-insert keys below all
        // of them.
        let q = Q::with_config(ZmsqConfig::default().batch(4).target_len(6));
        for i in 0..600u64 {
            q.insert(10_000 + (i * 48271) % 50_000, i);
        }
        let mut low: Vec<(u64, u64)> = (0..32).map(|i| (i, i)).collect();
        q.insert_batch(&mut low);
        assert!(low.is_empty());
        assert_eq!(q.len_hint(), 632);
        let mut got = 0;
        while q.extract_max().is_some() {
            got += 1;
        }
        assert_eq!(got, 632);
    }

    #[test]
    fn relaxation_bound_holds_single_threaded() {
        // §3.7: k * batch consecutive extractions return the top k
        // elements. Single-threaded, quiescent: extract batch+1 and the
        // true max must be among them.
        for batch in [1usize, 4, 16] {
            let q = Q::with_config(ZmsqConfig::default().batch(batch).target_len(batch.max(8)));
            for i in 0..2000u64 {
                q.insert(i, i);
            }
            let mut window = Vec::new();
            for _ in 0..=batch {
                window.push(q.extract_max().unwrap().0);
            }
            assert!(
                window.contains(&1999),
                "batch={batch}: max not in first batch+1 extractions: {window:?}"
            );
        }
    }

    #[test]
    fn invariants_after_mixed_single_threaded() {
        let mut q = Q::with_config(ZmsqConfig::default().batch(16).target_len(16));
        let mut x = 7u64;
        for i in 0..30_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if i % 3 != 2 {
                q.insert(x % 1_000_000, x);
            } else {
                q.extract_max();
            }
        }
        q.validate_invariants().unwrap();
    }

    #[test]
    fn array_set_variant_works() {
        let q = ArrayQ::with_config(ZmsqConfig::default().batch(8).target_len(12));
        for i in 0..5000u64 {
            q.insert(i % 97, i);
        }
        assert_eq!(q.drain_count(), 5000);
        assert_eq!(q.extract_max(), None);
    }

    #[test]
    fn all_reclamation_modes_roundtrip() {
        for mode in [
            Reclamation::Hazard,
            Reclamation::ConsumerWait,
            Reclamation::Leak,
        ] {
            let q = Q::with_config(
                ZmsqConfig::default()
                    .batch(4)
                    .target_len(8)
                    .reclamation(mode),
            );
            for i in 0..1000u64 {
                q.insert(i, i);
            }
            assert_eq!(q.drain_count(), 1000, "mode {mode:?}");
            if mode == Reclamation::Leak {
                assert!(q.leaked_buffers() > 0, "leak mode should leak buffers");
            }
        }
    }

    #[test]
    fn zero_priority_elements_are_not_lost() {
        // Priority 0 exercises the empty-set sentinel edge cases.
        let q = Q::with_config(ZmsqConfig::default().batch(4).target_len(4));
        for _ in 0..100 {
            q.insert(0, 0);
        }
        q.insert(5, 5);
        assert_eq!(q.drain_count(), 101);
        assert_eq!(q.extract_max(), None);
    }

    #[test]
    fn duplicate_priorities() {
        let q = Q::with_config(ZmsqConfig::default().batch(8).target_len(8));
        for i in 0..1000u64 {
            q.insert(7, i);
        }
        let mut vals: Vec<u64> = std::iter::from_fn(|| q.extract_max().map(|p| p.1)).collect();
        vals.sort_unstable();
        assert_eq!(vals, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn stats_track_operations() {
        let q = Q::with_config(ZmsqConfig::default().batch(8).target_len(8));
        for i in 0..500u64 {
            q.insert(i, i);
        }
        let drained = q.drain_count();
        let s = q.stats();
        assert_eq!(s.inserts, 500);
        assert_eq!(s.extracts as usize, drained);
        assert!(s.pool_hits > 0, "relaxed mode must hit the pool");
        assert!(s.pool_refills > 0);
        assert!(
            s.root_access_ratio() < 0.5,
            "most extractions avoid the root"
        );
    }

    #[test]
    fn drop_with_elements_does_not_leak_values() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        struct D(Arc<AtomicU64>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let live = Arc::new(AtomicU64::new(0));
        {
            let q: Zmsq<D> = Zmsq::with_config(ZmsqConfig::default().batch(4).target_len(4));
            for i in 0..200u64 {
                live.fetch_add(1, Ordering::SeqCst);
                q.insert(i, D(Arc::clone(&live)));
            }
            // Pull a few so some values sit in the pool at drop time.
            for _ in 0..3 {
                q.extract_max();
            }
        }
        assert_eq!(
            live.load(Ordering::SeqCst),
            0,
            "tree + pool values all dropped"
        );
    }

    #[test]
    fn spinning_extraction_waits_for_producer() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let q = Q::with_config(ZmsqConfig::default().batch(4).target_len(8).blocking(true));
        let got = AtomicU64::new(0);
        std::thread::scope(|s| {
            let (q2, got2) = (&q, &got);
            s.spawn(move || {
                while q2.extract_max_spinning().is_some() {
                    got2.fetch_add(1, Ordering::Relaxed);
                }
            });
            for i in 0..500u64 {
                q.insert(i, i);
                if i % 100 == 0 {
                    std::thread::yield_now();
                }
            }
            while got.load(Ordering::Relaxed) < 500 {
                std::thread::yield_now();
            }
            q.close();
        });
        assert_eq!(got.into_inner(), 500);
    }

    #[test]
    fn blocking_misconfiguration_panics() {
        let q = Q::new();
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| q.extract_max_blocking()));
        assert!(err.is_err());
    }

    #[test]
    fn os_lock_and_blocking_strategy() {
        use zmsq_sync::OsLock;
        let q: Zmsq<u64, ListSet<u64>, OsLock> = Zmsq::with_config(
            ZmsqConfig::default()
                .batch(8)
                .target_len(8)
                .lock_strategy(LockStrategy::Blocking),
        );
        for i in 0..2000u64 {
            q.insert(i, i);
        }
        assert_eq!(q.drain_count(), 2000);
    }

    #[test]
    fn insert_batch_roundtrip_and_order() {
        let q: Q = Zmsq::with_config(ZmsqConfig::strict().target_len(8));
        let mut items: Vec<(u64, u64)> = (0..1000u64).map(|i| ((i * 7919) % 5000, i)).collect();
        let mut expect: Vec<u64> = items.iter().map(|&(k, _)| k).collect();
        q.insert_batch(&mut items);
        assert!(items.is_empty(), "batch must be drained");
        assert_eq!(q.len_hint(), 1000);
        expect.sort_unstable_by(|a, b| b.cmp(a));
        for &e in &expect {
            assert_eq!(q.extract_max().map(|p| p.0), Some(e), "strict order");
        }
    }

    #[test]
    fn insert_batch_mixed_with_single_inserts() {
        let mut q = Q::with_config(ZmsqConfig::default().batch(8).target_len(12));
        let mut total = 0u64;
        for round in 0..50u64 {
            let mut batch: Vec<(u64, u64)> =
                (0..37u64).map(|i| ((round * 37 + i) % 1000, i)).collect();
            total += batch.len() as u64;
            q.insert_batch(&mut batch);
            q.insert(round, round);
            total += 1;
            if round % 3 == 0 && q.extract_max().is_some() {
                total -= 1;
            }
        }
        q.validate_invariants().unwrap();
        assert_eq!(q.drain_count() as u64, total);
    }

    #[test]
    fn insert_batch_empty_is_noop() {
        let q = Q::new();
        let mut empty: Vec<(u64, u64)> = Vec::new();
        q.insert_batch(&mut empty);
        assert_eq!(q.extract_max(), None);
    }

    #[test]
    fn insert_batch_concurrent_conservation() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let q = Q::with_config(ZmsqConfig::default().batch(16).target_len(16));
        let got = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (q, got) = (&q, &got);
                s.spawn(move || {
                    for round in 0..50u64 {
                        let mut batch: Vec<(u64, u64)> = (0..40u64)
                            .map(|i| ((t * 1000 + round * 40 + i) % 7777, i))
                            .collect();
                        q.insert_batch(&mut batch);
                        for _ in 0..20 {
                            if q.extract_max().is_some() {
                                got.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        let rest = q.drain_count() as u64;
        assert_eq!(got.into_inner() + rest, 4 * 50 * 40);
    }

    #[test]
    fn extract_batch_drains_and_conserves() {
        let q = Q::with_config(ZmsqConfig::default().batch(8).target_len(12));
        for i in 0..500u64 {
            q.insert(i, i);
        }
        let mut out = Vec::new();
        assert_eq!(q.extract_batch(&mut out, 123), 123);
        assert_eq!(out.len(), 123);
        // Batched hand-out stays high-quality: the best elements come out
        // well before the worst (same relaxation window as extract_max).
        let mean: u64 = out.iter().map(|&(k, _)| k).sum::<u64>() / 123;
        assert!(mean > 350, "batched extraction rank too low: mean {mean}");
        assert_eq!(q.extract_batch(&mut out, 1_000), 377);
        assert_eq!(q.extract_batch(&mut out, 4), 0);
        let mut keys: Vec<u64> = out.iter().map(|&(k, _)| k).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..500).collect::<Vec<_>>(), "elements lost");
    }

    #[test]
    fn extract_batch_strict_is_exact() {
        let q: Q = Zmsq::with_config(ZmsqConfig::strict());
        for k in [3u64, 9, 1, 7] {
            q.insert(k, k);
        }
        let mut out = Vec::new();
        assert_eq!(q.extract_batch(&mut out, 10), 4);
        let keys: Vec<u64> = out.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![9, 7, 3, 1], "strict mode must be exact");
    }

    #[test]
    fn extract_batch_concurrent_conservation() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let q = Q::with_config(ZmsqConfig::default().batch(16).target_len(16));
        let got = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (q, got) = (&q, &got);
                s.spawn(move || {
                    let mut out = Vec::new();
                    for round in 0..100u64 {
                        for i in 0..20u64 {
                            q.insert((t * 2000 + round * 20 + i) % 7777, i);
                        }
                        out.clear();
                        got.fetch_add(q.extract_batch(&mut out, 10) as u64, Ordering::Relaxed);
                    }
                });
            }
        });
        let rest = q.drain_count() as u64;
        assert_eq!(got.into_inner() + rest, 4 * 100 * 20);
    }

    #[test]
    fn current_batch_moves_within_configured_range() {
        let q = Q::with_config(
            ZmsqConfig::default()
                .target_len(32)
                .batch(8)
                .adaptive_batch(2, 32),
        );
        assert_eq!(q.current_batch(), 8);
        assert_eq!(q.set_current_batch(64), 32, "clamped to batch_max");
        assert_eq!(q.set_current_batch(0), 2, "clamped to batch_min");
        assert_eq!(q.set_current_batch(16), 16);
        // The widened batch is honoured by the next refill, and the
        // ConsumerWait buffer (allocated at batch_max) can hold it.
        for i in 0..500u64 {
            q.insert(i, i);
        }
        q.extract_max().unwrap();
        let s = q.stats();
        assert!(s.pool_refills >= 1);
        // Non-adaptive queues refuse to move.
        let fixed = Q::with_config(ZmsqConfig::default().batch(8));
        assert_eq!(fixed.set_current_batch(100), 8);
        let strict: Q = Zmsq::with_config(ZmsqConfig::strict());
        assert_eq!(strict.set_current_batch(100), 0);
        assert_eq!(strict.current_batch(), 0);
    }

    #[test]
    fn adaptive_consumer_wait_buffer_fits_widened_batch() {
        // ConsumerWait reuses one fixed buffer: it must be allocated at
        // batch_max, not the starting batch, or a widened refill would
        // overflow it.
        let q = Q::with_config(
            ZmsqConfig::default()
                .target_len(32)
                .reclamation(Reclamation::ConsumerWait)
                .batch(2)
                .adaptive_batch(2, 48),
        );
        q.set_current_batch(48);
        for i in 0..500u64 {
            q.insert(i, i);
        }
        let mut out = Vec::new();
        assert_eq!(q.extract_batch(&mut out, 500), 500);
        assert!(q.stats().pool_hits > 0);
    }

    #[test]
    fn peek_max_hint_tracks_quiescent_max() {
        let q: Q = Zmsq::with_config(ZmsqConfig::strict());
        assert_eq!(q.peek_max_hint(), None);
        q.insert(5, 5);
        assert_eq!(q.peek_max_hint(), Some(5));
        q.insert(9, 9);
        assert_eq!(q.peek_max_hint(), Some(9));
        q.extract_max();
        assert_eq!(q.peek_max_hint(), Some(5));
    }

    #[test]
    fn fast_pool_insert_disabled_by_default() {
        let q = Q::with_config(ZmsqConfig::default().batch(8).target_len(8));
        for i in 0..500u64 {
            q.insert(i, i);
        }
        q.drain_count();
        assert_eq!(q.stats().fast_pool_inserts, 0);
    }

    #[test]
    fn fast_pool_insert_extracted_immediately() {
        let q = Q::with_config(
            ZmsqConfig::default()
                .batch(8)
                .target_len(8)
                .pool_fast_insert(true),
        );
        for i in 0..500u64 {
            q.insert(i, i);
        }
        // Prime the pool, then drain a little so there is headroom (a
        // fresh refill fills every slot; the fast path needs a free slot
        // above the current top).
        for _ in 0..3 {
            q.extract_max();
        }
        // A new global max should take the fast path and come straight
        // back out — the §5 "extracted immediately" property.
        q.insert(10_000, 10_000);
        let s = q.stats();
        assert!(s.fast_pool_inserts >= 1, "fast path should fire: {s:?}");
        assert_eq!(q.extract_max(), Some((10_000, 10_000)));
    }

    #[test]
    fn fast_pool_insert_conserves_under_concurrency() {
        use std::sync::atomic::{AtomicU64, Ordering};
        for mode in [
            Reclamation::Hazard,
            Reclamation::ConsumerWait,
            Reclamation::Leak,
        ] {
            let q = Q::with_config(
                ZmsqConfig::default()
                    .batch(8)
                    .target_len(12)
                    .reclamation(mode)
                    .pool_fast_insert(true),
            );
            let got = AtomicU64::new(0);
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let (q, got) = (&q, &got);
                    s.spawn(move || {
                        let mut x = 0xFA57_0000 + t;
                        for i in 0..5_000u64 {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            q.insert(x % 100_000, x);
                            if i % 2 == 0 && q.extract_max().is_some() {
                                got.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    });
                }
            });
            let rest = q.drain_count() as u64;
            assert_eq!(got.into_inner() + rest, 20_000, "{mode:?}");
            assert!(
                q.stats().fast_pool_inserts > 0,
                "{mode:?}: fast path should fire under churn"
            );
        }
    }

    #[test]
    fn fast_pool_insert_values_dropped() {
        use std::sync::atomic::{AtomicI64, Ordering};
        use std::sync::Arc;
        struct D(Arc<AtomicI64>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let live = Arc::new(AtomicI64::new(0));
        {
            let q: Zmsq<D> = Zmsq::with_config(
                ZmsqConfig::default()
                    .batch(4)
                    .target_len(6)
                    .pool_fast_insert(true),
            );
            for i in 0..500u64 {
                live.fetch_add(1, Ordering::SeqCst);
                q.insert(i, D(Arc::clone(&live)));
                if i % 3 == 0 {
                    drop(q.extract_max());
                }
            }
            // Queue drops with elements in tree + pool (some fast-inserted).
        }
        assert_eq!(
            live.load(Ordering::SeqCst),
            0,
            "no value leaked via fast path"
        );
    }

    #[test]
    fn conditional_extraction_respects_threshold() {
        let q = Q::with_config(ZmsqConfig::default().batch(8).target_len(12));
        for i in 0..1000u64 {
            q.insert(i, i);
        }
        // High threshold: everything returned must qualify.
        let mut got = 0;
        while let Some((k, _)) = q.try_extract_if(900) {
            assert!(k >= 900, "below-threshold element {k} returned");
            got += 1;
        }
        assert!(
            got >= 90,
            "most of the top 100 should be extractable: {got}"
        );
        // Impossible threshold: nothing comes out, nothing is lost.
        assert_eq!(q.try_extract_if(5000), None);
        assert_eq!(q.drain_count() as u64, 1000 - got);
    }

    #[test]
    fn conditional_extraction_strict_mode_is_exact() {
        let q: Q = Zmsq::with_config(ZmsqConfig::strict());
        for k in [10u64, 20, 30] {
            q.insert(k, k);
        }
        assert_eq!(q.try_extract_if(25), Some((30, 30)));
        assert_eq!(q.try_extract_if(25), None, "20 < 25");
        assert_eq!(q.try_extract_if(0), Some((20, 20)));
        assert_eq!(q.try_extract_if(10), Some((10, 10)));
        assert_eq!(q.try_extract_if(0), None, "empty");
    }

    #[test]
    fn conditional_extraction_on_empty_queue() {
        let q = Q::with_config(ZmsqConfig::default().batch(4).target_len(8));
        assert_eq!(q.try_extract_if(0), None);
        assert_eq!(q.try_extract_if(u64::MAX), None);
    }

    #[test]
    fn conditional_extraction_concurrent_conservation() {
        let q = Q::with_config(ZmsqConfig::default().batch(8).target_len(12));
        use std::sync::atomic::{AtomicU64, Ordering};
        let taken = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let q = &q;
                let taken = &taken;
                s.spawn(move || {
                    for i in 0..4000u64 {
                        q.insert((t * 4000 + i) % 10_000, i);
                        if i % 2 == 0 {
                            if let Some((k, _)) = q.try_extract_if(5_000) {
                                assert!(k >= 5_000);
                                taken.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        let rest = q.drain_count() as u64;
        assert_eq!(taken.into_inner() + rest, 16_000);
    }

    #[test]
    fn interleaved_refills_preserve_quality() {
        // After heavy mixing, extractions should still return elements
        // far above the median (quality smoke test, quantified properly
        // by the accuracy harness in `workloads`).
        let q = Q::with_config(ZmsqConfig::default().batch(32).target_len(48));
        for i in 0..100_000u64 {
            q.insert(i, i);
        }
        let mut below_median = 0;
        for _ in 0..1000 {
            if q.extract_max().unwrap().0 < 50_000 {
                below_median += 1;
            }
        }
        assert!(
            below_median < 50,
            "{below_median} / 1000 extractions below median"
        );
    }

    /// A panic injected while an insert holds TNode locks must release
    /// them (via [`UnwindUnlock`]) — the queue stays fully operational
    /// and only the in-flight element is lost.
    #[test]
    #[cfg(feature = "fault-inject")]
    fn injected_insert_panic_releases_locks() {
        let _x = fault::exclusive();
        fault::reset();
        fault::set_seed(0xBAD_1257);
        let q = Q::with_config(ZmsqConfig::default().batch(4).target_len(8));
        for i in 0..100u64 {
            q.insert(i, i);
        }
        fault::configure(
            "queue.insert.locked-panic",
            fault::Policy::new(fault::Trigger::Once).with_action(fault::Action::Panic("injected")),
        );
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.insert(1000, 1000);
        }));
        assert!(r.is_err(), "failpoint should have panicked the insert");
        assert_eq!(fault::hit_count("queue.insert.locked-panic"), 1);
        fault::reset();
        // The panicking insert lost its element but nothing else; locks
        // are free so both inserts and a full drain complete.
        for i in 0..100u64 {
            q.insert(i + 200, i);
        }
        let mut q = q;
        q.validate_invariants().unwrap();
        assert_eq!(q.drain_count(), 200);
    }

    /// A panic injected under the root lock during extraction fires
    /// *before* any mutation, so nothing is lost: the guard unlocks the
    /// root and every element remains extractable.
    #[test]
    #[cfg(feature = "fault-inject")]
    fn injected_extract_panic_loses_nothing() {
        let _x = fault::exclusive();
        fault::reset();
        fault::set_seed(0xBADEA7);
        let q = Q::with_config(ZmsqConfig::default().batch(4).target_len(8));
        let n = 500u64;
        for i in 0..n {
            q.insert(i, i);
        }
        fault::configure(
            "queue.extract.locked-panic",
            fault::Policy::new(fault::Trigger::Once).with_action(fault::Action::Panic("injected")),
        );
        let mut panicked = 0u32;
        let mut drained = 0u64;
        // Keep extracting through the injected panic; pool-served hits
        // don't touch the root, so retry until the failpoint fires.
        while drained < n {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| q.extract_max())) {
                Ok(Some(_)) => drained += 1,
                Ok(None) => break,
                Err(_) => panicked += 1,
            }
        }
        // hit_count counts evaluations (one per root refill); Once fires
        // exactly one of them as a panic.
        assert!(fault::hit_count("queue.extract.locked-panic") >= 1);
        assert_eq!(panicked, 1, "Once trigger fires exactly one panic");
        assert_eq!(drained, n, "extraction panic must not lose elements");
        fault::reset();
    }

    /// Regression: `extract_max_timeout` must charge spurious wakeups
    /// against the *original* deadline, not restart the full timeout on
    /// every `Woken`. With every futex wait returning spuriously, a
    /// restarting implementation would never time out.
    #[test]
    #[cfg(feature = "fault-inject")]
    fn timeout_deadline_survives_spurious_wakeups() {
        let _x = fault::exclusive();
        fault::reset();
        fault::set_seed(0x713E_0417);
        fault::configure(
            "futex.spurious-wake",
            fault::Policy::new(fault::Trigger::Always),
        );
        let q = Q::with_config(ZmsqConfig::default().blocking(true));
        let timeout = std::time::Duration::from_millis(50);
        let start = std::time::Instant::now();
        let got = q.extract_max_timeout(timeout);
        let elapsed = start.elapsed();
        assert!(
            fault::hit_count("futex.spurious-wake") > 0,
            "failpoint off-path"
        );
        fault::reset();
        assert_eq!(got, None);
        assert!(
            elapsed >= timeout,
            "returned before the deadline: {elapsed:?}"
        );
        assert!(
            elapsed < timeout * 20,
            "deadline restarted under spurious wakeups: {elapsed:?}"
        );
    }

    // ------------------------------------------------------------------
    // Capacity, backpressure and shedding
    // ------------------------------------------------------------------

    #[test]
    fn unbounded_queue_try_insert_always_admits() {
        let q = Q::new();
        for i in 0..100u64 {
            q.try_insert(i, i).unwrap();
        }
        assert_eq!(q.capacity(), None);
        assert_eq!(q.occupancy(), 0, "no accounting when unbounded");
        assert_eq!(q.drain_count(), 100);
    }

    #[test]
    fn reject_policy_sheds_overflow_and_conserves() {
        let q = Q::with_config(
            ZmsqConfig::default()
                .batch(4)
                .target_len(8)
                .capacity(10)
                .shed_policy(ShedPolicy::Reject),
        );
        for i in 0..50u64 {
            q.insert(i, i);
        }
        assert_eq!(q.occupancy(), 10);
        let s = q.stats();
        assert_eq!(s.inserts, 10, "only admitted elements count as inserts");
        assert_eq!(s.capacity_hits, 40);
        assert_eq!(s.shed_rejected, 40);
        assert_eq!(s.shed_evicted, 0);
        assert_eq!(s.shed_total(), 40);
        assert_eq!(q.drain_count(), 10);
        assert_eq!(q.occupancy(), 0);
        // Conservation identity: admitted − extracted − evicted == live.
        let s = q.stats();
        assert_eq!(s.inserts - s.extracts - s.shed_evicted, 0);
    }

    #[test]
    fn try_insert_full_hands_the_element_back() {
        let q: Zmsq<String> = Zmsq::with_config(
            ZmsqConfig::default()
                .capacity(2)
                .shed_policy(ShedPolicy::Block),
        );
        q.try_insert(1, "a".into()).unwrap();
        q.try_insert(2, "b".into()).unwrap();
        let err = q.try_insert(3, "c".into()).unwrap_err();
        match err {
            InsertError::Full(v) => assert_eq!(v, "c"),
            other => panic!("expected Full, got {other:?}"),
        }
        // Room frees after an extraction.
        q.extract_max().unwrap();
        q.try_insert(3, "c".into()).unwrap();
        assert_eq!(q.occupancy(), 2);
    }

    #[test]
    fn shed_lowest_evicts_low_priorities_for_high() {
        let q = Q::with_config(
            ZmsqConfig::default()
                .batch(4)
                .target_len(8)
                .capacity(64)
                .shed_policy(ShedPolicy::ShedLowest),
        );
        // Fill with low priorities, then offer strictly higher ones.
        for i in 0..64u64 {
            q.insert(i, i);
        }
        for i in 1000..1064u64 {
            q.insert(i, i);
        }
        let s = q.stats();
        assert!(
            s.shed_evicted > 0,
            "high-priority arrivals must displace low ones: {s:?}"
        );
        assert_eq!(
            s.inserts - s.extracts - s.shed_evicted,
            64,
            "reservation transfer keeps the live count at capacity"
        );
        assert_eq!(q.occupancy(), 64);
        let mut keys = Vec::new();
        while let Some((k, _)) = q.extract_max() {
            keys.push(k);
        }
        assert_eq!(keys.len(), 64);
        // Each of the 64 over-capacity arrivals either evicted a victim
        // (and was admitted) or was shed itself — never both.
        assert_eq!(s.shed_evicted + s.shed_rejected, 64);
        let high = keys.iter().filter(|&&k| k >= 1000).count();
        assert!(high > 0, "no high-priority element displaced a low one");
    }

    #[test]
    fn shed_lowest_never_admits_below_current_floor() {
        // try_insert under ShedLowest returns Full (keeping the element)
        // when nothing in the queue is lower than the incoming priority.
        let q = Q::with_config(
            ZmsqConfig::default()
                .capacity(4)
                .shed_policy(ShedPolicy::ShedLowest),
        );
        for i in 10..14u64 {
            q.insert(i, i);
        }
        let err = q.try_insert(5, 5).unwrap_err();
        assert!(matches!(err, InsertError::Full(5)));
        assert_eq!(q.stats().shed_evicted, 0);
        assert_eq!(q.drain_count(), 4);
    }

    #[test]
    fn shed_lowest_invariants_survive_churn() {
        let mut q = Q::with_config(
            ZmsqConfig::default()
                .batch(8)
                .target_len(8)
                .capacity(200)
                .shed_policy(ShedPolicy::ShedLowest),
        );
        let mut x = 0x5EED_u64;
        for i in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if i % 4 == 3 {
                q.extract_max();
            } else {
                q.insert(x % 100_000, x);
            }
        }
        q.validate_invariants().unwrap();
        let s = q.stats();
        assert!(s.shed_evicted > 0, "churn above capacity must evict");
        assert_eq!(
            q.drain_count() as u64,
            s.inserts - s.extracts - s.shed_evicted,
            "conservation: every admitted element is extractable or evicted"
        );
    }

    #[test]
    fn block_policy_parks_producers_until_extraction() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let q = Q::with_config(
            ZmsqConfig::default()
                .batch(2)
                .target_len(4)
                .capacity(4)
                .shed_policy(ShedPolicy::Block),
        );
        let produced = AtomicU64::new(0);
        let consumed = AtomicU64::new(0);
        const N: u64 = 2000;
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let (q, produced) = (&q, &produced);
                s.spawn(move || {
                    for i in 0..N / 2 {
                        q.insert(t * 1000 + i, i);
                        produced.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            let (q, consumed) = (&q, &consumed);
            s.spawn(move || {
                while consumed.load(Ordering::Relaxed) < N {
                    if q.extract_max().is_some() {
                        consumed.fetch_add(1, Ordering::Relaxed);
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
        });
        assert_eq!(produced.into_inner(), N, "no producer lost an element");
        assert_eq!(consumed.into_inner(), N);
        assert_eq!(q.occupancy(), 0);
        let s = q.stats();
        assert_eq!(s.inserts, N);
        assert_eq!(s.shed_rejected + s.shed_evicted, 0, "Block never sheds");
        assert!(
            s.producer_waits > 0,
            "capacity 4 vs 2000 elements must park producers: {s:?}"
        );
    }

    #[test]
    fn insert_timeout_times_out_on_full_block_queue() {
        let q = Q::with_config(
            ZmsqConfig::default()
                .capacity(1)
                .shed_policy(ShedPolicy::Block),
        );
        q.insert(1, 1);
        let start = std::time::Instant::now();
        let err = q
            .insert_timeout(2, 2, std::time::Duration::from_millis(40))
            .unwrap_err();
        assert!(matches!(err, InsertError::Timeout(2)), "{err:?}");
        assert!(start.elapsed() >= std::time::Duration::from_millis(40));
        // The failed insert must not leak an occupancy slot.
        assert_eq!(q.occupancy(), 1);
        assert_eq!(q.drain_count(), 1);
        assert_eq!(q.occupancy(), 0);
    }

    /// Satellite regression: a producer parked on a full `Block`-policy
    /// queue is woken by `close()` and reports `InsertError::Closed`.
    #[test]
    fn close_wakes_parked_producer_with_closed_error() {
        let q: Q = Zmsq::with_config(
            ZmsqConfig::default()
                .capacity(1)
                .shed_policy(ShedPolicy::Block),
        );
        q.insert(1, 1);
        std::thread::scope(|s| {
            let q2 = &q;
            let parked =
                s.spawn(move || q2.insert_timeout(2, 2, std::time::Duration::from_secs(60)));
            // Wait until the producer is actually parked, then close.
            while q.producer_waiters() == 0 {
                std::thread::yield_now();
            }
            q.close();
            let err = parked.join().unwrap().unwrap_err();
            assert!(matches!(err, InsertError::Closed(2)), "{err:?}");
        });
        assert!(q.is_closed());
        // Fallible inserts refuse outright after close.
        assert!(matches!(
            q.try_insert(9, 9).unwrap_err(),
            InsertError::Closed(9)
        ));
        // The infallible surface force-admits rather than losing work.
        q.insert(3, 3);
        assert_eq!(q.drain_count(), 2);
    }

    #[test]
    fn close_force_admits_infallible_blocked_insert() {
        let q: Q = Zmsq::with_config(
            ZmsqConfig::default()
                .capacity(1)
                .shed_policy(ShedPolicy::Block),
        );
        q.insert(1, 1);
        std::thread::scope(|s| {
            let q2 = &q;
            let blocked = s.spawn(move || q2.insert(2, 2));
            while q.producer_waiters() == 0 {
                std::thread::yield_now();
            }
            q.close();
            blocked.join().unwrap();
        });
        // Both elements are present: close never drops an infallible
        // insert's element.
        assert_eq!(q.drain_count(), 2);
    }

    #[test]
    fn bounded_batches_conserve() {
        let q = Q::with_config(
            ZmsqConfig::default()
                .batch(4)
                .target_len(8)
                .capacity(16)
                .shed_policy(ShedPolicy::Reject),
        );
        let mut items: Vec<(u64, u64)> = (0..64u64).map(|i| (i, i)).collect();
        q.insert_batch(&mut items);
        assert!(items.is_empty());
        assert_eq!(q.occupancy(), 16);
        let s = q.stats();
        assert_eq!(s.inserts, 16);
        assert_eq!(s.shed_rejected, 48);
        let mut out = Vec::new();
        assert_eq!(q.extract_batch(&mut out, 64), 16);
        assert_eq!(q.occupancy(), 0);
    }

    #[test]
    #[cfg(feature = "fault-inject")]
    fn injected_capacity_race_keeps_accounting_exact() {
        let _x = fault::exclusive();
        fault::reset();
        fault::set_seed(0xCAFE_CA9);
        // Stretch the admit→insert and release→signal windows while
        // producers and consumers race at a tiny capacity.
        fault::configure(
            "queue.capacity.race",
            fault::Policy::new(fault::Trigger::Prob(0.2)).with_action(fault::Action::SleepMs(1)),
        );
        let q = Q::with_config(
            ZmsqConfig::default()
                .batch(2)
                .target_len(4)
                .capacity(8)
                .shed_policy(ShedPolicy::Reject),
        );
        use std::sync::atomic::{AtomicU64, Ordering};
        let taken = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let q = &q;
                s.spawn(move || {
                    for i in 0..300u64 {
                        let _ = q.try_insert((t * 300 + i) % 97, i);
                    }
                });
            }
            let (q, taken) = (&q, &taken);
            s.spawn(move || {
                for _ in 0..400 {
                    if q.extract_max().is_some() {
                        taken.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        });
        assert!(fault::hit_count("queue.capacity.race") > 0, "off-path");
        fault::reset();
        let rest = q.drain_count() as u64;
        let s = q.stats();
        assert_eq!(s.inserts, taken.into_inner() + rest, "conservation");
        assert_eq!(q.occupancy(), 0, "every slot released exactly once");
    }
}
