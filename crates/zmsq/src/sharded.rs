//! Sharded ZMSQ — an adaptive, load-aware multi-queue runtime.
//!
//! The paper's evaluation pins to one socket because "our algorithms are
//! not NUMA-aware" (§4). The standard recipe for NUMA scaling is
//! sharding: one queue per socket/shard, producers insert into their own
//! shard, consumers extract from the better of two randomly chosen
//! *distinct* shards (the MultiQueue's power-of-two-choices argument,
//! §2.1), with a full sweep as the emptiness fallback.
//!
//! Beyond the basic wrapper, this runtime is load-aware in three ways:
//!
//! * **Per-instance thread registration.** Each queue instance assigns
//!   home shards from its own round-robin counter, cached per thread per
//!   instance — two queues of different sizes on the same thread get
//!   independent, evenly spread assignments (an earlier revision used one
//!   `static` counter inside the generic impl, which is shared per
//!   *monomorphization* across every instance and skews toward shard 0).
//! * **Stale-hint-aware extraction.** The two-choice pick compares racy
//!   `peek_max_hint`s that reflect the trees, not the pools. When the
//!   winner comes up empty the loser is tried next — one bounded
//!   work-steal — before paying for the full sweep. Ties between equal
//!   hints are broken randomly so equal shards wear evenly.
//! * **Per-shard adaptive batches.** With
//!   [`ZmsqConfig::adaptive_batch`], each shard's own controller (see
//!   [`Zmsq`]'s module docs, "The adaptive batch") moves its pool-refill
//!   batch within `batch_min..=batch_max` on that shard's
//!   `trylock_fails + refill_races`: failed node trylocks anywhere in the
//!   shard (root visits, insert placement, eviction) plus root visits
//!   that found the pool refilled by another extractor.
//!
//! Relaxation composes: each shard individually honours its top-`k`
//! window bound (at the *current* effective batch — `batch_max` is the
//! worst case); across shards the two-choice policy adds a MultiQueue-
//! style probabilistic rank tail. See DESIGN.md's sharded section for
//! the composed bound. Unlike the MultiQueue, the sweep fallback
//! preserves ZMSQ's headline guarantee in a slightly weakened form:
//! `extract_max` returns `None` only if every shard *individually*
//! reported empty during the sweep (no spurious failure due to
//! contention — but an element inserted into an already-swept shard
//! concurrently with the sweep can be missed, exactly as it could be
//! missed by a linearizable queue if the extract linearized first).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use pq_traits::InsertError;
use zmsq_sync::relax::{Relax, ShardedConfig, Shards};
use zmsq_sync::{RawTryLock, TatasLock};

use crate::config::ZmsqConfig;
use crate::queue::Zmsq;
use crate::set::{DequeSet, NodeSet};
use crate::StatsSnapshot;

/// Source of unique instance ids. A module-level (non-generic) static:
/// ids are process-unique across every monomorphization, which is what
/// makes the per-thread home cache collision-free.
static INSTANCE_IDS: AtomicU64 = AtomicU64::new(1);

/// Per-thread cache of `(instance id, home shard)` assignments. A small
/// linear-scan vec: threads touch a handful of queue instances in
/// practice. When it overflows, the oldest entries are evicted — a
/// re-registration just draws a fresh round-robin slot, which is
/// harmless (home shards are a locality hint, not a correctness
/// invariant).
const HOME_CACHE_CAP: usize = 64;
thread_local! {
    static HOMES: RefCell<Vec<(u64, usize)>> = const { RefCell::new(Vec::new()) };
}

/// The shards and everything the direct (unbuffered) paths need: home
/// assignments and the two-choice / steal / sweep extraction. Supplies
/// the relaxation layer's per-shard operations ([`Shards`]); a type of
/// its own so those per-shard `insert` / `extract_batch` methods never
/// sit beside the queue's public ones.
struct ZmsqShards<V, S, L>
where
    V: Send,
    S: NodeSet<V>,
    L: RawTryLock,
{
    shards: Box<[Zmsq<V, S, L>]>,
    /// Process-unique id keying the per-thread home-shard cache.
    instance_id: u64,
    /// This instance's round-robin registration counter.
    next_home: AtomicUsize,
}

/// A fixed set of ZMSQ shards with thread-affine insertion, two-distinct-
/// choice extraction, bounded work-stealing, and (optionally) an adaptive
/// refill batch in every shard. See the module docs.
pub struct ShardedZmsq<V, S = DequeSet<V>, L = TatasLock>
where
    V: Send,
    S: NodeSet<V>,
    L: RawTryLock,
{
    core: ZmsqShards<V, S, L>,
    /// Stickiness / operation buffers (disarmed = direct paths only).
    relax: Relax<V>,
}

impl<V: Send + 'static, S: NodeSet<V>, L: RawTryLock> ShardedZmsq<V, S, L> {
    /// Create `shards` queues (rounded up to a power of two), each with
    /// the given configuration. An adaptive configuration
    /// ([`ZmsqConfig::adaptive_batch`]) arms each shard's batch
    /// controller.
    pub fn new(shards: usize, cfg: ZmsqConfig) -> Self {
        Self::with_tuning(shards, cfg, ShardedConfig::default())
    }

    /// [`new`](Self::new) plus a [`ShardedConfig`] arming stickiness and
    /// per-thread operation buffers. With an all-default tuning this is
    /// exactly `new`.
    pub fn with_tuning(shards: usize, cfg: ZmsqConfig, tuning: ShardedConfig) -> Self {
        let n = shards.max(1).next_power_of_two();
        // A queue-level capacity bound is split evenly across shards
        // (rounded up, so the composed bound is `>=` the requested one
        // by at most `n - 1`). The fallible inserts spill across shards,
        // so skewed producers still reach the full budget.
        let mut cfg = cfg;
        if let Some(cap) = cfg.capacity {
            cfg = cfg.capacity(cap.div_ceil(n));
        }
        let shards: Box<[Zmsq<V, S, L>]> = (0..n).map(|_| Zmsq::with_config(cfg.clone())).collect();
        // Buffered elements are invisible to capacity/occupancy
        // accounting and to shed policies, so a bounded queue keeps the
        // legacy admission paths regardless of tuning.
        let unbounded = shards[0].capacity().is_none();
        Self {
            core: ZmsqShards {
                shards,
                instance_id: INSTANCE_IDS.fetch_add(1, Ordering::Relaxed),
                next_home: AtomicUsize::new(0),
            },
            relax: Relax::new(tuning, unbounded),
        }
    }

    /// The stickiness / buffer tuning this instance runs with.
    pub fn tuning(&self) -> ShardedConfig {
        self.relax.config()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.core.shards.len()
    }

    /// Whether the shards' adaptive batch controllers are armed (read
    /// off the normalized config the shards run with).
    pub fn is_adaptive(&self) -> bool {
        self.core.shards[0].config().is_adaptive()
    }

    /// The calling thread's home shard for **this instance**: stable per
    /// `(thread, instance)`, assigned round-robin from the instance's own
    /// counter, so each instance's first `k` registrants cover `k`
    /// distinct shards regardless of what other instances assigned.
    pub fn home_shard(&self) -> usize {
        self.core.home_shard()
    }

    /// Insert into the calling thread's home shard (locality; on a real
    /// NUMA machine, pin threads so the home shard's memory is local) —
    /// or, with a [`ShardedConfig`], into the sticky shard via the
    /// thread-local insert buffer.
    ///
    /// On a capacity-bounded queue the insert first tries every shard
    /// fallibly (home first — per-shard budgets are `capacity / shards`,
    /// and a skewed producer set must still reach the whole budget)
    /// before falling back to the home shard's infallible insert, which
    /// applies the configured [`ShedPolicy`](crate::ShedPolicy) there.
    pub fn insert(&self, prio: u64, value: V) {
        if self.relax.routes_inserts() {
            return self.relax.insert(&self.core, prio, value);
        }
        self.core.insert_direct(prio, value);
    }

    /// Fallible insert: home shard first, spilling to the other shards
    /// when the home budget is exhausted. Returns
    /// [`InsertError::Full`] only after *every* shard rejected.
    #[must_use = "the rejected element is inside the error; dropping it loses work"]
    pub fn try_insert(&self, prio: u64, value: V) -> Result<(), InsertError<V>> {
        self.core.try_insert_spill(self.home_shard(), prio, value)
    }

    /// [`try_insert`](Self::try_insert) that, after a full spill pass,
    /// parks on the *home* shard (under
    /// [`ShedPolicy::Block`](crate::ShedPolicy::Block)) up to `timeout`.
    #[must_use = "the rejected element is inside the error; dropping it loses work"]
    pub fn insert_timeout(
        &self,
        prio: u64,
        value: V,
        timeout: std::time::Duration,
    ) -> Result<(), InsertError<V>> {
        let home = self.home_shard();
        match self.core.try_insert_spill(home, prio, value) {
            Ok(()) => Ok(()),
            Err(InsertError::Full(v)) => self.core.shards[home].insert_timeout(prio, v, timeout),
            Err(e) => Err(e),
        }
    }

    /// Bulk insertion: scatter `items` round-robin across the shards,
    /// starting at the home shard, then bulk-insert each shard's share.
    /// Round-robin (rather than contiguous chunks of the sorted input)
    /// keeps every shard's priority distribution balanced, which is what
    /// the two-choice extraction side assumes.
    pub fn insert_batch(&self, items: &mut Vec<(u64, V)>) {
        let shards = &self.core.shards;
        let n = shards.len();
        if n == 1 || items.len() <= 1 {
            shards[self.home_shard()].insert_batch(items);
            return;
        }
        let mask = n - 1;
        let home = self.home_shard();
        let mut per: Vec<Vec<(u64, V)>> = (0..n)
            .map(|_| Vec::with_capacity(items.len() / n + 1))
            .collect();
        for (i, item) in items.drain(..).enumerate() {
            per[(home + i) & mask].push(item);
        }
        for (s, mut chunk) in per.into_iter().enumerate() {
            if !chunk.is_empty() {
                shards[s].insert_batch(&mut chunk);
            }
        }
    }

    /// Extract from the better of two distinct random shards (by
    /// optimistic root max), stealing once from the loser if the winner's
    /// hint was stale, and sweeping every shard before concluding empty —
    /// or, with a [`ShardedConfig`], from the thread-local delete buffer
    /// refilled from the sticky shard.
    ///
    /// The emptiness guarantee survives tuning: before returning `None`
    /// every thread's staged operations are flushed back to the shards
    /// and the sweep retried, so `None` still means every shard
    /// individually reported empty *with no element hiding in a buffer*.
    pub fn extract_max(&self) -> Option<(u64, V)> {
        if self.relax.routes_extracts() {
            return self.relax.extract_max(&self.core);
        }
        self.core.extract_direct()
    }

    /// Batched extraction: gather up to `n` elements, routing each round
    /// through the same two-choice / steal / sweep policy as
    /// [`extract_max`](Self::extract_max) and draining the chosen shard's
    /// pool with single-`fetch_sub` batched claims. With a
    /// [`ShardedConfig`], the calling thread's delete buffer is served
    /// first and buffers are flushed before an empty report, mirroring
    /// `extract_max`.
    pub fn extract_batch(&self, out: &mut Vec<(u64, V)>, n: usize) -> usize {
        if self.relax.routes_extracts() {
            return self.relax.extract_batch(&self.core, out, n);
        }
        self.core.extract_batch_direct(out, n)
    }

    /// Sum of shard size hints plus elements staged in operation
    /// buffers (staged inserts are not yet in any shard; prefetched
    /// deletions are already out of theirs but not yet handed to a
    /// caller — both are still *in the queue*).
    pub fn len_hint(&self) -> usize {
        self.core.shards.iter().map(|s| s.len_hint()).sum::<usize>() + self.relax.pending()
    }

    /// Publish every thread's staged operations (see
    /// [`ConcurrentPriorityQueue::flush`](pq_traits::ConcurrentPriorityQueue::flush)):
    /// staged inserts reach their sticky shards, prefetched deletions
    /// return to theirs. The escape hatch for checkpoints and for
    /// consumers that need cross-thread visibility *now* rather than at
    /// the next flush trigger.
    pub fn flush(&self) {
        self.relax.flush_all(&self.core);
    }

    /// Access a shard directly (diagnostics, per-shard stats).
    pub fn shard(&self, i: usize) -> &Zmsq<V, S, L> {
        &self.core.shards[i]
    }

    /// Mean effective refill batch across shards (equals the configured
    /// `batch` everywhere when the controller is off).
    pub fn mean_batch(&self) -> usize {
        let shards = &self.core.shards;
        shards.iter().map(|s| s.current_batch()).sum::<usize>() / shards.len()
    }

    /// Total capacity across shards, if bounded. May exceed the value
    /// passed to [`ZmsqConfig::capacity`] by up to `shards - 1`
    /// (per-shard budgets round up).
    pub fn capacity(&self) -> Option<usize> {
        let shards = &self.core.shards;
        shards[0].capacity().map(|c| c * shards.len())
    }

    /// Live elements under capacity accounting, summed over shards.
    pub fn occupancy(&self) -> usize {
        self.core.shards.iter().map(|s| s.occupancy()).sum()
    }

    /// Producers currently parked waiting for room, summed over shards.
    pub fn producer_waiters(&self) -> usize {
        self.core.shards.iter().map(|s| s.producer_waiters()).sum()
    }

    /// Close every shard: wakes all blocked consumers and producers
    /// permanently (see [`Zmsq::close`]). Staged operations are flushed
    /// first so no element is stranded in a thread-local buffer after
    /// close — drain loops observe everything that was inserted.
    ///
    /// An insert racing `close()` may still be staged after the flush;
    /// it is published at that thread's next flush trigger or by an
    /// explicit [`flush`](Self::flush), the same window a linearizable
    /// queue gives an insert that linearizes after close.
    pub fn close(&self) {
        self.relax.close(&self.core);
        for s in self.core.shards.iter() {
            s.close();
        }
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.core.shards.iter().any(|s| s.is_closed())
    }
}

impl<V: Send + 'static, S: NodeSet<V>, L: RawTryLock> ZmsqShards<V, S, L> {
    fn home_shard(&self) -> usize {
        let mask = self.shards.len() - 1;
        HOMES.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some(&(_, home)) = cache.iter().find(|&&(id, _)| id == self.instance_id) {
                // The cached value was masked at registration; re-mask in
                // case of (impossible today) shard-count drift.
                return home & mask;
            }
            let home = self.next_home.fetch_add(1, Ordering::Relaxed) & mask;
            if cache.len() >= HOME_CACHE_CAP {
                cache.remove(0); // evict oldest; re-registration is harmless
            }
            cache.push((self.instance_id, home));
            home
        })
    }

    fn random_shard(&self) -> usize {
        crate::rng::next_index(self.shards.len())
    }

    /// Two *distinct* random shards. Caller guarantees more than one shard.
    fn pick_two(&self) -> (usize, usize) {
        let n = self.shards.len();
        debug_assert!(n > 1);
        let a = crate::rng::next_index(n);
        // An offset in 1..n keeps the pair distinct by construction (no
        // redraw loop) and uniform over ordered distinct pairs.
        let b = (a + 1 + crate::rng::next_index(n - 1)) & (n - 1);
        (a, b)
    }

    /// Order a distinct pair into (winner, loser) by optimistic root max,
    /// breaking equal hints randomly so identical shards wear evenly.
    fn order_by_hint(&self, a: usize, b: usize) -> (usize, usize) {
        use std::cmp::Ordering::*;
        // `None < Some(_)`: a shard whose tree looks empty loses the
        // pick, but remains the steal target — its pool may still be full.
        match self.shards[a]
            .peek_max_hint()
            .cmp(&self.shards[b].peek_max_hint())
        {
            Greater => (a, b),
            Less => (b, a),
            Equal => {
                if crate::rng::next_u64() & 1 == 0 {
                    (a, b)
                } else {
                    (b, a)
                }
            }
        }
    }

    fn insert_direct(&self, prio: u64, value: V) {
        let home = self.home_shard();
        if self.shards[home].capacity().is_none() {
            self.shards[home].insert(prio, value);
            return;
        }
        match self.try_insert_spill(home, prio, value) {
            Ok(()) => {}
            Err(e) => {
                // Full everywhere (or closed): let the home shard's
                // policy decide — block, drop, or evict.
                self.shards[home].insert(prio, e.into_value());
            }
        }
    }

    fn try_insert_spill(&self, home: usize, prio: u64, value: V) -> Result<(), InsertError<V>> {
        let n = self.shards.len();
        let mask = n - 1;
        let mut value = value;
        for i in 0..n {
            value = match self.shards[(home + i) & mask].try_insert(prio, value) {
                Ok(()) => return Ok(()),
                Err(InsertError::Full(v)) => v,
                Err(e) => return Err(e),
            };
        }
        Err(InsertError::Full(value))
    }

    /// One pick / steal / sweep round: the two-choice winner, then one
    /// steal from the loser if the winner's hint was stale (a drained
    /// tree, or both hints `None` while a pool still holds elements),
    /// then every shard from a random start. `take(shard, capped)`
    /// extracts from one shard (`capped` is true for the winner and the
    /// loser, false in the sweep) and returns whether the round is done.
    /// Returns `false` only if the sweep ended without `take` saying so.
    fn pick_steal_sweep(&self, mut take: impl FnMut(&Zmsq<V, S, L>, bool) -> bool) -> bool {
        let n = self.shards.len();
        let mut start = 0;
        if n > 1 {
            let (winner, loser) = {
                let _pick = obs::span!(obs::SpanPhase::ShardPick);
                let (a, b) = self.pick_two();
                self.order_by_hint(a, b)
            };
            if take(&self.shards[winner], true) || take(&self.shards[loser], true) {
                return true;
            }
            start = self.random_shard();
        }
        // Sweep fallback: preserves no-spurious-failure per shard.
        (0..n).any(|i| take(&self.shards[(start + i) & (n - 1)], false))
    }

    fn extract_direct(&self) -> Option<(u64, V)> {
        let mut got = None;
        self.pick_steal_sweep(|shard, _| {
            got = shard.extract_max();
            got.is_some()
        });
        got
    }

    /// Rounds of [`pick_steal_sweep`](Self::pick_steal_sweep) until `n`
    /// elements are out. A sweep takes up to what is still wanted from
    /// each shard in turn; one that ends short saw every shard report
    /// empty.
    fn extract_batch_direct(&self, out: &mut Vec<(u64, V)>, n: usize) -> usize {
        let mut got = 0;
        while got < n {
            let done = self.pick_steal_sweep(|shard, capped| {
                // Cap the winner's and the loser's takes at the shard's
                // effective batch: draining a whole shard in one round
                // would hand out its *low* elements while a sibling shard
                // still holds high ones, inflating the composed rank
                // error far past the per-shard window.
                let cap = if capped {
                    shard.current_batch().max(1)
                } else {
                    n
                };
                let c = shard.extract_batch(out, (n - got).min(cap));
                got += c;
                c > 0 && (capped || got >= n)
            });
            if !done {
                break;
            }
        }
        got
    }
}

impl<V: Send + 'static, S: NodeSet<V>, L: RawTryLock> Shards<V> for ZmsqShards<V, S, L> {
    fn insert(&self, i: usize, prio: u64, value: V) {
        self.shards[i].insert(prio, value);
    }

    fn insert_batch(&self, i: usize, items: &mut Vec<(u64, V)>) {
        self.shards[i].insert_batch(items);
    }

    fn extract_batch(&self, i: usize, out: &mut Vec<(u64, V)>, want: usize) -> usize {
        self.shards[i].extract_batch(out, want)
    }

    /// Random under stickiness (the MultiQueue policy — spreads each
    /// thread's runs over all shards), home-affine when only buffering
    /// is armed.
    fn pick_insert(&self, sticky: bool) -> usize {
        if sticky && self.shards.len() > 1 {
            self.random_shard()
        } else {
            self.home_shard()
        }
    }

    /// The two-choice winner by root hint (shard 0 on a single shard).
    fn pick_extract(&self) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        let _pick = obs::span!(obs::SpanPhase::ShardPick);
        let (a, b) = self.pick_two();
        self.order_by_hint(a, b).0
    }

    /// Two-choice, steal and sweep.
    fn extract_fallback(&self, out: &mut Vec<(u64, V)>, want: usize) -> usize {
        self.extract_batch_direct(out, want)
    }
}

impl<V: Send + 'static, S: NodeSet<V> + 'static, L: RawTryLock + 'static>
    pq_traits::ConcurrentPriorityQueue<V> for ShardedZmsq<V, S, L>
{
    fn insert(&self, prio: u64, value: V) {
        ShardedZmsq::insert(self, prio, value)
    }
    fn extract_max(&self) -> Option<(u64, V)> {
        ShardedZmsq::extract_max(self)
    }
    fn insert_batch(&self, items: &mut Vec<(u64, V)>) {
        ShardedZmsq::insert_batch(self, items)
    }
    fn extract_batch(&self, out: &mut Vec<(u64, V)>, n: usize) -> usize {
        ShardedZmsq::extract_batch(self, out, n)
    }
    fn try_insert(&self, prio: u64, value: V) -> Result<(), InsertError<V>> {
        ShardedZmsq::try_insert(self, prio, value)
    }
    fn insert_timeout(
        &self,
        prio: u64,
        value: V,
        timeout: std::time::Duration,
    ) -> Result<(), InsertError<V>> {
        ShardedZmsq::insert_timeout(self, prio, value, timeout)
    }
    fn name(&self) -> String {
        let mut n = format!("zmsq-sharded-{}", self.shard_count());
        if self.is_adaptive() {
            n.push_str("-adaptive");
        }
        let t = self.tuning();
        if t.is_tuned() {
            n.push_str(&format!("-{t}"));
        }
        n
    }
    fn len_hint(&self) -> usize {
        self.len_hint()
    }
    fn flush(&self) {
        ShardedZmsq::flush(self)
    }
    fn metrics(&self) -> Option<obs::Snapshot> {
        // Fold the per-shard operation counters into one queue-level view,
        // then attach the per-shard gauges the CI smoke asserts on.
        let mut total = StatsSnapshot::default();
        for sh in &self.core.shards {
            total.absorb(&sh.stats());
        }
        let mut snap = total.to_obs();
        snap.push_gauge("zmsq.shards", self.core.shards.len() as i64);
        snap.push_gauge("zmsq.batch.current", self.mean_batch() as i64);
        self.relax.export(&mut snap);
        if let Some(cap) = self.capacity() {
            snap.push_gauge("queue.pressure.capacity", cap as i64);
            snap.push_gauge("queue.pressure.occupancy", self.occupancy() as i64);
            snap.push_gauge(
                "queue.pressure.producer_waiters",
                self.producer_waiters() as i64,
            );
        }
        for (i, sh) in self.core.shards.iter().enumerate() {
            let st = sh.stats();
            snap.push_gauge(&format!("zmsq.shard.{i}.batch"), sh.current_batch() as i64);
            snap.push_gauge(&format!("zmsq.shard.{i}.len_hint"), sh.len_hint() as i64);
            snap.push_counter(&format!("zmsq.shard.{i}.inserts"), st.inserts);
            snap.push_counter(&format!("zmsq.shard.{i}.extracts"), st.extracts);
        }
        // Fold per-shard quality and sojourn telemetry into one
        // queue-level view (same names as a single Zmsq, so dashboards
        // and the perf gate read both uniformly). Per-shard ranks are
        // measured against the shard's own population; the composed
        // cross-shard rank error additionally carries the two-choice
        // tail, so this fold is a *lower bound* on global rank error.
        // Per-shard sojourns are true end-to-end waits regardless of
        // which shard served the key.
        obs::RankEstimator::export(
            self.core.shards.iter().filter_map(|sh| sh.rank_estimator()),
            &mut snap,
        );
        Some(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn shard_count_rounds_up() {
        let q: ShardedZmsq<u64> = ShardedZmsq::new(3, ZmsqConfig::default());
        assert_eq!(q.shard_count(), 4);
        let q1: ShardedZmsq<u64> = ShardedZmsq::new(1, ZmsqConfig::default());
        assert_eq!(q1.shard_count(), 1);
    }

    /// Regression (cross-instance home-shard leakage): each instance must
    /// assign from its *own* counter. Two differently-sized queues on one
    /// thread each see this thread as their first registrant, so both
    /// must assign home shard 0 — under the old shared-`static` scheme
    /// the second queue inherited an arbitrary cached counter value.
    #[test]
    fn home_shard_is_per_instance_on_one_thread() {
        // An isolated thread: the test harness's other threads must not
        // have registered with these instances first.
        std::thread::spawn(|| {
            let big: ShardedZmsq<u64> = ShardedZmsq::new(8, ZmsqConfig::default());
            let small: ShardedZmsq<u64> = ShardedZmsq::new(2, ZmsqConfig::default());
            assert_eq!(big.home_shard(), 0, "first registrant of `big`");
            assert_eq!(small.home_shard(), 0, "first registrant of `small`");
            // Stable on re-query, still independent per instance.
            assert_eq!(big.home_shard(), 0);
            assert_eq!(small.home_shard(), 0);
            // A third instance created *after* traffic on the others
            // still starts its round-robin from zero.
            let late: ShardedZmsq<u64> = ShardedZmsq::new(4, ZmsqConfig::default());
            assert_eq!(late.home_shard(), 0);
        })
        .join()
        .unwrap();
    }

    /// Regression (shard-0 hot-spotting): an instance's first `k`
    /// registering threads must cover `k` distinct shards.
    #[test]
    fn home_shards_cover_all_shards_round_robin() {
        let q: Arc<ShardedZmsq<u64>> = Arc::new(ShardedZmsq::new(4, ZmsqConfig::default()));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || q.home_shard()));
        }
        let mut counts = [0usize; 4];
        for h in handles {
            counts[h.join().unwrap()] += 1;
        }
        assert_eq!(
            counts,
            [2, 2, 2, 2],
            "8 registrants over 4 shards must spread evenly"
        );
    }

    #[test]
    fn pick_two_always_distinct() {
        for shards in [2usize, 4, 8] {
            let q: ShardedZmsq<u64> = ShardedZmsq::new(shards, ZmsqConfig::default());
            for _ in 0..1_000 {
                let (a, b) = q.core.pick_two();
                assert_ne!(a, b, "two-choice degenerated to one choice");
                assert!(a < shards && b < shards);
            }
        }
    }

    #[test]
    fn equal_hints_tie_break_is_not_biased() {
        let q: ShardedZmsq<u64> = ShardedZmsq::new(2, ZmsqConfig::default());
        // Identical content => identical hints.
        q.shard(0).insert(7, 7);
        q.shard(1).insert(7, 7);
        let mut wins = [0usize; 2];
        for _ in 0..400 {
            let (w, _) = q.core.order_by_hint(0, 1);
            wins[w] += 1;
        }
        assert!(
            wins[0] > 50 && wins[1] > 50,
            "equal-hint tie always favours one side: {wins:?}"
        );
    }

    #[test]
    fn stale_hint_steals_from_loser() {
        // Shard 1 holds the only element, but shard 0's hint is higher
        // (stale or not — here: actually empty tree). Whichever shard the
        // two-choice nominates, the element must come out without a full
        // queue-level miss.
        let q: ShardedZmsq<u64> = ShardedZmsq::new(2, ZmsqConfig::default());
        for round in 0..100u64 {
            q.shard(round as usize & 1).insert(round, round);
            assert!(
                q.extract_max().is_some(),
                "steal/sweep missed the lone element"
            );
        }
        assert_eq!(q.extract_max(), None);
    }

    #[test]
    fn roundtrip_conserves_across_shards() {
        let q: ShardedZmsq<u64> =
            ShardedZmsq::new(4, ZmsqConfig::default().batch(8).target_len(12));
        let got = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (q, got) = (&q, &got);
                s.spawn(move || {
                    for i in 0..5_000u64 {
                        q.insert((t * 5000 + i) % 7777, i);
                        if i % 2 == 0 && q.extract_max().is_some() {
                            got.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let mut rest = 0u64;
        while q.extract_max().is_some() {
            rest += 1;
        }
        assert_eq!(got.into_inner() + rest, 20_000);
        assert_eq!(q.len_hint(), 0);
    }

    #[test]
    fn returns_high_elements() {
        let q: ShardedZmsq<u64> =
            ShardedZmsq::new(2, ZmsqConfig::default().batch(16).target_len(24));
        for i in 0..20_000u64 {
            q.insert(i, i);
        }
        let mut sum = 0u64;
        for _ in 0..200 {
            sum += q.extract_max().unwrap().0;
        }
        assert!(sum / 200 > 17_000, "two-choice extraction rank too low");
    }

    #[test]
    fn sweep_finds_lone_element() {
        // A single element in one shard must always be found by the sweep,
        // regardless of which shards the two choices pick.
        let q: ShardedZmsq<u64> = ShardedZmsq::new(8, ZmsqConfig::default());
        for round in 0..200u64 {
            q.insert(round, round);
            assert!(q.extract_max().is_some(), "sweep missed the lone element");
        }
        assert_eq!(q.extract_max(), None);
    }

    #[test]
    fn batched_ops_scatter_and_gather() {
        let q: ShardedZmsq<u64> =
            ShardedZmsq::new(4, ZmsqConfig::default().batch(8).target_len(12));
        let mut items: Vec<(u64, u64)> = (0..1_000u64).map(|i| (i, i)).collect();
        q.insert_batch(&mut items);
        assert!(items.is_empty());
        // Scatter spread the load: no shard holds everything.
        for s in 0..4 {
            let n = q.shard(s).len_hint();
            assert!(n > 0 && n < 1_000, "shard {s} holds {n} of 1000");
        }
        let mut out = Vec::new();
        assert_eq!(q.extract_batch(&mut out, 300), 300);
        let mean: u64 = out.iter().map(|&(k, _)| k).sum::<u64>() / 300;
        assert!(mean > 600, "gathered batch rank too low: mean {mean}");
        assert_eq!(q.extract_batch(&mut out, 10_000), 700);
        assert_eq!(q.extract_batch(&mut out, 1), 0);
        let mut keys: Vec<u64> = out.iter().map(|&(k, _)| k).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..1_000).collect::<Vec<_>>(), "elements lost");
    }

    #[test]
    fn bounded_sharded_spills_across_shard_budgets() {
        use crate::ShedPolicy;
        // Total capacity 16 over 4 shards = 4 per shard. A single thread
        // always targets its home shard, so reaching 16 admitted
        // elements requires the spill path.
        let q: ShardedZmsq<u64> = ShardedZmsq::new(
            4,
            ZmsqConfig::default()
                .capacity(16)
                .shed_policy(ShedPolicy::Reject),
        );
        assert_eq!(q.capacity(), Some(16));
        for i in 0..16u64 {
            q.try_insert(i, i).unwrap_or_else(|e| {
                panic!("spill must reach the full budget, rejected at {i}: {e:?}")
            });
        }
        assert_eq!(q.occupancy(), 16);
        let err = q.try_insert(99, 99).unwrap_err();
        assert!(matches!(err, InsertError::Full(99)));
        // The infallible insert applies Reject at the home shard: the
        // element is shed, never stranded half-admitted.
        q.insert(100, 100);
        assert_eq!(q.occupancy(), 16);
        let snap = pq_traits::ConcurrentPriorityQueue::metrics(&q).unwrap();
        assert_eq!(snap.gauge("queue.pressure.capacity"), Some(16));
        assert_eq!(snap.gauge("queue.pressure.occupancy"), Some(16));
        assert_eq!(snap.counter("queue.shed.rejected"), Some(1));
        let mut rest = 0;
        while q.extract_max().is_some() {
            rest += 1;
        }
        assert_eq!(rest, 16);
        assert_eq!(q.occupancy(), 0);
    }

    #[test]
    fn bounded_sharded_close_unblocks_producer() {
        use crate::ShedPolicy;
        let q: ShardedZmsq<u64> = ShardedZmsq::new(
            2,
            ZmsqConfig::default()
                .capacity(2)
                .shed_policy(ShedPolicy::Block),
        );
        // Fill both shard budgets (1 each after the split).
        for i in 0..2u64 {
            q.try_insert(i, i).unwrap();
        }
        assert!(matches!(
            q.try_insert(7, 7).unwrap_err(),
            InsertError::Full(7)
        ));
        std::thread::scope(|s| {
            let q2 = &q;
            let parked =
                s.spawn(move || q2.insert_timeout(8, 8, std::time::Duration::from_secs(60)));
            while q.producer_waiters() == 0 {
                std::thread::yield_now();
            }
            q.close();
            let err = parked.join().unwrap().unwrap_err();
            assert!(matches!(err, InsertError::Closed(8)), "{err:?}");
        });
        assert!(q.is_closed());
    }

    #[test]
    fn controller_narrows_under_low_contention() {
        // Single-threaded extraction generates zero trylock failures and
        // zero refill races, so the controller must walk the batch down
        // to batch_min (and the clamp must hold it there).
        let cfg = ZmsqConfig::default()
            .target_len(48)
            .batch(32)
            .adaptive_batch(4, 64);
        let q: ShardedZmsq<u64> = ShardedZmsq::new(1, cfg);
        assert!(q.is_adaptive());
        for i in 0..30_000u64 {
            q.insert(i, i);
        }
        for _ in 0..20_000 {
            q.extract_max().unwrap();
        }
        assert_eq!(
            q.shard(0).current_batch(),
            4,
            "zero-contention phase must narrow to batch_min"
        );
        assert!(q.mean_batch() == 4);
        let snap = pq_traits::ConcurrentPriorityQueue::metrics(&q).unwrap();
        assert_eq!(snap.gauge("zmsq.batch.current"), Some(4));
        assert!(snap.counter("zmsq.batch.narrows").unwrap() > 0);
        assert_eq!(snap.counter("zmsq.batch.widens"), Some(0));
    }

    #[test]
    fn controller_widens_on_contention_signal() {
        // Drive the decision path end-to-end by injecting the contention
        // counters' *observable effect*: run enough concurrent extractors
        // that at least some windows see trylock failures or refill
        // races; whenever they do, the batch must move up, and it must
        // never leave the configured range. (The deterministic widen
        // policy itself is covered by `adapt_decision_policy`; real
        // multi-core contention is exercised by the sharded_adapt bench.)
        let cfg = ZmsqConfig::default()
            .target_len(48)
            .batch(4)
            .adaptive_batch(4, 64);
        let q: ShardedZmsq<u64> = ShardedZmsq::new(1, cfg);
        for i in 0..60_000u64 {
            q.insert(i, i);
        }
        std::thread::scope(|s| {
            for _ in 0..4 {
                let q = &q;
                s.spawn(move || while q.extract_max().is_some() {});
            }
        });
        let cur = q.shard(0).current_batch();
        assert!((4..=64).contains(&cur), "batch left its range: {cur}");
        let snap = q.shard(0).stats();
        let contention = snap.trylock_fails + snap.refill_races;
        let widens = {
            let m = pq_traits::ConcurrentPriorityQueue::metrics(&q).unwrap();
            m.counter("zmsq.batch.widens").unwrap()
        };
        // On a multi-core box contention is near-certain and widens must
        // follow; on a single hardware thread the signal may legitimately
        // stay at zero — then no widen may be recorded either.
        if contention >= crate::queue::ADAPT_INTERVAL / 8 {
            assert!(widens > 0, "contention {contention} but no widen");
        }
    }

    #[test]
    fn metrics_expose_per_shard_gauges() {
        let q: ShardedZmsq<u64> =
            ShardedZmsq::new(4, ZmsqConfig::default().batch(8).target_len(12));
        for i in 0..100u64 {
            q.insert(i, i);
        }
        let snap = pq_traits::ConcurrentPriorityQueue::metrics(&q).unwrap();
        assert_eq!(snap.gauge("zmsq.shards"), Some(4));
        assert_eq!(snap.gauge("zmsq.batch.current"), Some(8));
        for i in 0..4 {
            assert_eq!(snap.gauge(&format!("zmsq.shard.{i}.batch")), Some(8));
            assert!(snap.gauge(&format!("zmsq.shard.{i}.len_hint")).is_some());
            assert!(snap.counter(&format!("zmsq.shard.{i}.inserts")).is_some());
        }
        assert_eq!(snap.counter("zmsq.inserts"), Some(100));
        // Each shard's pool owns one buffer so far; the gauge totals them.
        assert_eq!(snap.gauge("zmsq.pool.buffers"), Some(4));
    }

    #[test]
    fn metrics_fold_per_shard_quality() {
        // shift 0: every key is sampled, so the fold is exact.
        let q: ShardedZmsq<u64> =
            ShardedZmsq::new(4, ZmsqConfig::default().batch(4).rank_estimator(0));
        for i in 0..200u64 {
            q.insert(i, i);
        }
        for _ in 0..80 {
            assert!(q.extract_max().is_some());
        }
        let snap = pq_traits::ConcurrentPriorityQueue::metrics(&q).unwrap();
        assert_eq!(snap.counter("quality.sampled_inserts"), Some(200));
        assert_eq!(snap.counter("quality.sampled_extracts"), Some(80));
        assert_eq!(snap.gauge("quality.sample_shift"), Some(0));
        let h = snap.hist("quality.est_rank").expect("folded est_rank");
        assert_eq!(h.count, 80);
        assert!(snap.hist("quality.staleness_ns").is_some());
        assert!(snap.ratio("quality.wasted_ratio").is_some());
        // Conservation across the fold: stored − matched − removed ==
        // live (no drops possible: 200 ≤ 4 shards × default slots).
        let stored = snap.counter("quality.stored").unwrap();
        let matched = snap.counter("quality.matched").unwrap();
        let removed = snap.counter("quality.removed_matched").unwrap();
        let live = snap.gauge("quality.reservoir.live").unwrap() as u64;
        assert_eq!(stored - matched - removed, live);
    }

    #[test]
    fn metrics_fold_per_shard_sojourn() {
        // shift 0: every key is stamped, so the folded counters are exact.
        let q: ShardedZmsq<u64> =
            ShardedZmsq::new(4, ZmsqConfig::default().batch(4).rank_estimator(0));
        for i in 0..200u64 {
            q.insert(i, i);
        }
        for _ in 0..80 {
            assert!(q.extract_max().is_some());
        }
        let snap = pq_traits::ConcurrentPriorityQueue::metrics(&q).unwrap();
        assert_eq!(snap.counter("sojourn.stamped"), Some(200));
        assert_eq!(snap.counter("sojourn.matched"), Some(80));
        assert_eq!(snap.gauge("sojourn.sample_shift"), Some(0));
        let h = snap.hist("queue.sojourn_ns").expect("folded sojourn hist");
        assert_eq!(h.count, 80);
        // Conservation across the fold: stamped − matched − removed == live.
        let stamped = snap.counter("sojourn.stamped").unwrap();
        let matched = snap.counter("sojourn.matched").unwrap();
        let removed = snap.counter("sojourn.removed").unwrap();
        let live = snap.gauge("sojourn.table.live").unwrap() as u64;
        assert_eq!(stamped - matched - removed, live);
    }

    #[test]
    fn metrics_fold_exports_single_queue_names() {
        use pq_traits::ConcurrentPriorityQueue as Pq;
        fn telemetry_names(s: obs::Snapshot) -> Vec<String> {
            let mut names: Vec<String> = (s.counters.iter().map(|(n, _)| n))
                .chain(s.gauges.iter().map(|(n, _)| n))
                .chain(s.ratios.iter().map(|(n, _)| n))
                .chain(s.hists.iter().map(|(n, _)| n))
                .filter(|n| {
                    n.starts_with("quality.")
                        || n.starts_with("sojourn.")
                        || *n == "queue.sojourn_ns"
                })
                .cloned()
                .collect();
            names.sort();
            names
        }
        let cfg = ZmsqConfig::default().batch(4).rank_estimator(0);
        let sharded: ShardedZmsq<u64> = ShardedZmsq::new(2, cfg.clone());
        let single: Zmsq<u64> = Zmsq::with_config(cfg);
        for i in 0..50u64 {
            sharded.insert(i, i);
            single.insert(i, i);
        }
        for _ in 0..20 {
            assert!(sharded.extract_max().is_some());
            assert!(single.extract_max().is_some());
        }
        let single_names = telemetry_names(Pq::metrics(&single).unwrap());
        assert!(single_names.len() > 20, "{single_names:?}");
        assert_eq!(
            telemetry_names(Pq::metrics(&sharded).unwrap()),
            single_names
        );
    }

    #[test]
    fn metrics_omit_quality_when_estimator_off() {
        let q: ShardedZmsq<u64> = ShardedZmsq::new(2, ZmsqConfig::default().no_rank_estimator());
        q.insert(1, 1);
        let snap = pq_traits::ConcurrentPriorityQueue::metrics(&q).unwrap();
        assert!(snap.hist("quality.est_rank").is_none());
        assert!(snap.counter("quality.sampled_inserts").is_none());
    }

    #[test]
    fn trait_name_reflects_adaptivity() {
        use pq_traits::ConcurrentPriorityQueue as Pq;
        let plain: ShardedZmsq<u64> = ShardedZmsq::new(4, ZmsqConfig::default());
        assert_eq!(Pq::name(&plain), "zmsq-sharded-4");
        let adaptive: ShardedZmsq<u64> =
            ShardedZmsq::new(4, ZmsqConfig::default().adaptive_batch(4, 64));
        assert_eq!(Pq::name(&adaptive), "zmsq-sharded-4-adaptive");
        let tuned: ShardedZmsq<u64> = ShardedZmsq::with_tuning(
            4,
            ZmsqConfig::default(),
            ShardedConfig::new()
                .stickiness(8)
                .insert_buffer(16)
                .delete_buffer(4),
        );
        assert_eq!(Pq::name(&tuned), "zmsq-sharded-4-c8-i16-d4");
    }

    fn tuned_q(stick: usize, ins: usize, del: usize) -> ShardedZmsq<u64> {
        ShardedZmsq::with_tuning(
            4,
            ZmsqConfig::default().batch(8).target_len(12),
            ShardedConfig::new()
                .stickiness(stick)
                .insert_buffer(ins)
                .delete_buffer(del),
        )
    }

    #[test]
    fn capacity_disarms_fast_path() {
        let q: ShardedZmsq<u64> = ShardedZmsq::with_tuning(
            4,
            ZmsqConfig::default().capacity(16),
            ShardedConfig::new().stickiness(8).insert_buffer(8),
        );
        assert!(
            !q.relax.routes_inserts() && !q.relax.routes_extracts(),
            "bounded queue must stay legacy"
        );
    }

    #[test]
    fn close_flushes_and_reaps_buffers() {
        let q = tuned_q(4, 16, 0);
        for i in 0..7u64 {
            q.insert(i, i);
        }
        assert!(q.relax.pending() > 0);
        q.close();
        assert_eq!(q.relax.pending(), 0);
        let snap = pq_traits::ConcurrentPriorityQueue::metrics(&q).unwrap();
        assert_eq!(snap.gauge("buf.free_slots"), Some(1), "close reaps slots");
        let mut got = 0;
        while q.extract_max().is_some() {
            got += 1;
        }
        assert_eq!(got, 7, "close must not strand staged inserts");
    }

    #[test]
    fn sticky_insert_reuses_then_resamples() {
        // stickiness 16, no buffering: 16 consecutive inserts land on
        // one shard before the target can move.
        let q = tuned_q(16, 0, 0);
        std::thread::spawn(move || {
            for i in 0..16u64 {
                q.insert(i, i);
            }
            let populated = (0..4).filter(|&s| q.shard(s).len_hint() > 0).count();
            assert_eq!(populated, 1, "sticky run split across shards");
            // Across many runs the random re-sample spreads the load.
            for i in 0..16 * 64u64 {
                q.insert(i, i);
            }
            let populated = (0..4).filter(|&s| q.shard(s).len_hint() > 0).count();
            assert!(populated > 1, "re-sample never moved off one shard");
        })
        .join()
        .unwrap();
    }
}
