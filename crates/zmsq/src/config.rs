//! Queue configuration: the `batch` / `targetLen` tuning knobs of §4.2,
//! the lock acquisition strategy of §4.1, and the reclamation mode.

/// How pool buffers are reused or reclaimed (paper §3.5 and the
/// `ZMSQ (leak)` evaluation arm). All three are memory-safe; they differ
/// in what a claim and a refill cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reclamation {
    /// Swap in a fresh buffer on every refill and retire the old one into
    /// a hazard-pointer domain; consumers protect the buffer before
    /// claiming. The paper's "ZMSQ" arm: one allocation and one retire
    /// per refill, a hazard acquire and protect per claim.
    Hazard,
    /// Reuse buffers in place, as Listing 2 does: a ring of buffers that
    /// are never freed while the queue lives. A buffer is refilled once
    /// its lagging consumers have finished reading it (Listing 2 line 8),
    /// but the refiller checks that condition instead of waiting on it:
    /// when every buffer still has a reader, it adds one to the ring. A
    /// claim is one load plus the `fetch_sub`, a warm refill allocates
    /// nothing, and the root lock is never held across a spin. The ring
    /// holds at most one buffer per concurrent claimant plus one. The
    /// default ([`ZmsqConfig::recommended`]).
    ConsumerWait,
    /// Swap buffers and leak the old ones ("ZMSQ (leak)" curves): isolates
    /// the cost of memory safety in benchmarks. Never use in production.
    Leak,
}

/// Whether node locks are acquired with a bounded trylock (restarting the
/// operation on failure) or by waiting (§4.1, Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockStrategy {
    /// `try_lock`; on failure the operation restarts and (for inserts)
    /// picks a different random path. The paper's recommended strategy:
    /// a held lock predicts a failed validation.
    TryRestart,
    /// Blocking acquisition — the `std::mutex` discipline of Figure 2.
    Blocking,
}

/// What a bounded queue does when an insertion finds it at capacity
/// (see [`ZmsqConfig::capacity`]). Irrelevant while the queue is
/// unbounded (the default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Park the producer on a futex-based `ProducerWait` until an
    /// extraction frees capacity (the mirror image of the §3.6 consumer
    /// blocking). Infallible `insert` waits indefinitely; `try_insert`
    /// returns `Full` without waiting; `insert_timeout` waits up to its
    /// deadline. No element is ever dropped. The default.
    #[default]
    Block,
    /// Refuse the incoming element. `try_insert` returns `Full` with the
    /// value; the infallible `insert` *drops* the element and counts it
    /// in `zmsq.shed.rejected` (open-loop producers that cannot block
    /// must lose the newest work). Never touches admitted elements.
    Reject,
    /// Evict a lowest-priority element from the deepest qualifying tree
    /// node to admit higher-priority work; if the incoming element is
    /// itself the lowest on offer, it is the one shed. Degrades by
    /// dropping the *least urgent* work first, which preserves the
    /// queue's top-k window far better than rejecting fresh arrivals
    /// (evictions count in `zmsq.shed.evicted`).
    ShedLowest,
}

/// Ablation switches for the §3.2 insertion-quality mechanisms and the
/// pool refill's source.
///
/// All default to enabled — disabling the first two degrades ZMSQ toward
/// the plain mound (shorter sets, poorer pool quality); the `ablation`
/// bench quantifies each mechanism's contribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QualityOpts {
    /// Forced non-max insertion into deep under-full nodes (Listing 1
    /// lines 8–9 / 36–45): the primary density mechanism.
    pub forced_insert: bool,
    /// The parent-min swap (§3.2 / Fig. 1): tightens the parent's range
    /// when a new max is inserted below it.
    pub parent_min_swap: bool,
    /// Refill the pool with the merged top of the root and both children
    /// instead of the root set's top alone (Listing 2), so every pooled
    /// element is at or above everything left in those three sets. The
    /// single-element extractions use it; `extract_batch` keeps
    /// root-only takes. Off reproduces the paper's Listing 2, which the
    /// paper-figure arms of the bench registry pin.
    pub merge_refill: bool,
}

impl Default for QualityOpts {
    fn default() -> Self {
        Self {
            forced_insert: true,
            parent_min_swap: true,
            merge_refill: true,
        }
    }
}

/// Tuning and feature configuration for a [`Zmsq`](crate::Zmsq).
///
/// What is not here is fixed: the tree starts 4 levels deep (one below
/// the forced-insertion floor, so forced insertion is available at
/// once), and the consumer and producer futex buffers have 16 slots.
#[derive(Debug, Clone)]
pub struct ZmsqConfig {
    /// Upper bound on the number of elements moved to the shared pool per
    /// root extraction, and therefore on relaxation: in `k * batch`
    /// consecutive extractions the top `k` elements are returned.
    /// `0` makes the queue strict (identical to the mound).
    ///
    /// When an adaptive range is configured (see
    /// [`adaptive_batch`](Self::adaptive_batch)), this is only the
    /// *starting point*: the effective refill batch moves within
    /// `batch_min..=batch_max` at runtime.
    pub batch: usize,
    /// Lower bound for the adaptive refill batch. Equal to `batch` by
    /// default (adaptation disabled).
    pub batch_min: usize,
    /// Upper bound for the adaptive refill batch — also the capacity the
    /// extraction pool is allocated with. Equal to `batch` by default
    /// (adaptation disabled).
    pub batch_max: usize,
    /// Target number of elements per `TNode` set; a set holds at most
    /// `2 * target_len` before it is split.
    pub target_len: usize,
    /// Lock acquisition strategy (Figure 2).
    pub lock_strategy: LockStrategy,
    /// Pool reclamation mode (§3.5).
    pub reclamation: Reclamation,
    /// Enable the futex blocking layer (§3.6). `insert` then signals a
    /// circular buffer of 16 futexes and `extract_max_blocking` can park.
    pub blocking: bool,
    /// §3.2 quality-mechanism and refill ablation switches (all on by
    /// default).
    pub quality: QualityOpts,
    /// Multiplier on the number of random leaf probes per insertion
    /// before the tree is expanded (Listing 1 tries `leaf_level` probes;
    /// this scales that budget). Larger values resist premature tree
    /// growth under churn at the cost of longer worst-case probing.
    pub probe_factor: usize,
    /// Upper bound on the number of live elements. `None` (the default)
    /// is the paper's unbounded queue. `Some(n)` makes insertion subject
    /// to admission control: when `n` elements are live, the
    /// [`shed`](Self::shed) policy decides whether producers block, the
    /// incoming element is refused, or a lowest-priority element is
    /// evicted. Clamped to at least 1 during normalization.
    pub capacity: Option<usize>,
    /// What happens when an insertion finds the queue at
    /// [`capacity`](Self::capacity). Ignored while unbounded.
    pub shed: ShedPolicy,
    /// Rank-error and sojourn telemetry: `Some(shift)` attaches an
    /// `obs::RankEstimator`, one sampled `(key, stamp)` table of 512
    /// slots holding inserted keys sampled at rate `1/2^shift`. A
    /// sampled key takes the first free slot on a linear probe from its
    /// hashed home slot and is dropped only when every slot is live; a
    /// sampled extraction scans the table for the estimated rank and
    /// frees the key's slot, recording its enqueue→extract wall time.
    /// [`metrics`](pq_traits::ConcurrentPriorityQueue::metrics) exports
    /// per-extraction rank, staleness and wasted-work ratio under
    /// `quality.*`, and the same table's sojourn as `queue.sojourn_ns`
    /// and `sojourn.*`. `None` disables it (zero overhead). Defaults to
    /// `Some(6)` — 1/64 sampling, whose cost the `obs_overhead` bench
    /// bounds per op. The shift is clamped to `0..=32` during
    /// normalization (`0` samples every key: exact but O(table) per op
    /// — testing only).
    pub rank_estimator: Option<u32>,
}

impl ZmsqConfig {
    /// The paper's recommended default: `batch = 48`, `target_len = 72`
    /// (§4.2: "We recommend the static (batch=48, targetLen=72)
    /// configuration as the default setting"), with the pool's buffers
    /// reused in place ([`Reclamation::ConsumerWait`]).
    pub fn recommended() -> Self {
        Self {
            batch: 48,
            batch_min: 48,
            batch_max: 48,
            target_len: 72,
            lock_strategy: LockStrategy::TryRestart,
            reclamation: Reclamation::ConsumerWait,
            blocking: false,
            quality: QualityOpts::default(),
            probe_factor: 1,
            capacity: None,
            shed: ShedPolicy::Block,
            rank_estimator: Some(6),
        }
    }

    /// The configuration the paper tuned for the SSSP workloads (§4.6):
    /// `batch = 42`, `target_len = 64`.
    pub fn sssp_tuned() -> Self {
        Self {
            batch: 42,
            batch_min: 42,
            batch_max: 42,
            target_len: 64,
            ..Self::recommended()
        }
    }

    /// Strict (non-relaxed) mode: `batch = 0`. Behaves exactly like the
    /// mound; `extract_max` always returns the true maximum.
    pub fn strict() -> Self {
        Self {
            batch: 0,
            batch_min: 0,
            batch_max: 0,
            target_len: 32,
            ..Self::recommended()
        }
    }

    /// Set `batch` (builder style). Also collapses the adaptive range to
    /// exactly `batch` — call [`adaptive_batch`](Self::adaptive_batch)
    /// *after* this to re-enable adaptation around the new starting point.
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self.batch_min = batch;
        self.batch_max = batch;
        self
    }

    /// Enable adaptive batching (builder style): the effective refill
    /// batch moves within `min..=max` at runtime, driven by the queue's
    /// own contention signal (see [`Zmsq`](crate::Zmsq)'s batch
    /// controller, run in the root visit of every `Zmsq`, so of every
    /// `ShardedZmsq` shard too). The starting `batch` is clamped into the
    /// range; the pool is allocated at `max` capacity.
    ///
    /// Incoherent ranges are a caller bug: `min > max` trips a
    /// `debug_assert!` and is repaired by swapping; `min == 0` with
    /// `max > 0` would flip the queue in and out of strict mode and is
    /// clamped up to 1 during normalization.
    pub fn adaptive_batch(mut self, min: usize, max: usize) -> Self {
        debug_assert!(
            min <= max,
            "adaptive_batch: batch_min ({min}) > batch_max ({max})"
        );
        let (min, max) = if min <= max { (min, max) } else { (max, min) };
        self.batch_min = min;
        self.batch_max = max;
        self.batch = self.batch.clamp(min, max);
        self
    }

    /// Whether an adaptive batch range is configured (`batch_min <
    /// batch_max`).
    pub fn is_adaptive(&self) -> bool {
        self.batch_min < self.batch_max
    }

    /// Set `target_len` (builder style).
    pub fn target_len(mut self, target_len: usize) -> Self {
        self.target_len = target_len;
        self
    }

    /// Set the reclamation mode (builder style).
    pub fn reclamation(mut self, mode: Reclamation) -> Self {
        self.reclamation = mode;
        self
    }

    /// Set the lock strategy (builder style).
    pub fn lock_strategy(mut self, strategy: LockStrategy) -> Self {
        self.lock_strategy = strategy;
        self
    }

    /// Enable or disable the blocking layer (builder style).
    pub fn blocking(mut self, on: bool) -> Self {
        self.blocking = on;
        self
    }

    /// Set the quality-mechanism ablation switches (builder style).
    pub fn quality(mut self, quality: QualityOpts) -> Self {
        self.quality = quality;
        self
    }

    /// Bound the queue at `n` live elements (builder style). Insertions
    /// beyond the bound are governed by the [`shed`](Self::shed_policy)
    /// policy. `n` is clamped to at least 1 during normalization.
    pub fn capacity(mut self, n: usize) -> Self {
        self.capacity = Some(n);
        self
    }

    /// Remove a capacity bound (builder style) — back to the paper's
    /// unbounded queue.
    pub fn unbounded(mut self) -> Self {
        self.capacity = None;
        self
    }

    /// Select the at-capacity behaviour (builder style). Only meaningful
    /// together with [`capacity`](Self::capacity).
    pub fn shed_policy(mut self, policy: ShedPolicy) -> Self {
        self.shed = policy;
        self
    }

    /// Attach the online rank-error estimator sampling at rate
    /// `1/2^shift` (builder style). `shift = 0` samples everything
    /// (exact, slow — testing only).
    pub fn rank_estimator(mut self, shift: u32) -> Self {
        self.rank_estimator = Some(shift);
        self
    }

    /// Detach the rank-error estimator (builder style): no sampling, no
    /// `quality.*`, `queue.sojourn_ns` or `sojourn.*` metrics, zero
    /// per-op overhead.
    pub fn no_rank_estimator(mut self) -> Self {
        self.rank_estimator = None;
        self
    }

    /// Alias of [`no_rank_estimator`](Self::no_rank_estimator): sojourn
    /// is measured by the estimator's table. Kept only because the
    /// `zbench` benchmark calls it; it goes when that benchmark drops
    /// its separate sojourn measurement.
    pub fn no_sojourn(self) -> Self {
        self.no_rank_estimator()
    }

    /// Validate and normalize; called by the queue constructor.
    pub(crate) fn normalized(mut self) -> Self {
        self.target_len = self.target_len.max(1);
        // The pool cannot usefully exceed what one refill can supply: a
        // full root set holds at most 2 * target_len elements (§4.2 also
        // observes batch > targetLen leaves the pool under-filled).
        let cap = 2 * self.target_len;
        self.batch = self.batch.min(cap);
        // Repair incoherent adaptive ranges. A struct-literal user may
        // have set `batch` without touching the range (or vice versa), so
        // the range is widened around `batch` rather than moving it:
        // `batch` always keeps its (capped) requested value.
        if self.batch_min > self.batch_max {
            std::mem::swap(&mut self.batch_min, &mut self.batch_max);
        }
        self.batch_max = self.batch_max.min(cap).max(self.batch);
        self.batch_min = self.batch_min.min(self.batch);
        // batch == 0 selects strict mode (no pool at all); an adaptive
        // range reaching 0 would flip strictness at runtime. Strictness
        // wins: a zero starting batch collapses the range, and a live
        // range keeps its floor at 1.
        if self.batch == 0 {
            self.batch_min = 0;
            self.batch_max = 0;
        } else {
            self.batch_min = self.batch_min.max(1);
        }
        self.probe_factor = self.probe_factor.max(1);
        // A zero capacity would admit nothing — Block would deadlock the
        // first producer forever. One live element is the smallest bound
        // with a progress guarantee.
        if let Some(cap) = self.capacity {
            self.capacity = Some(cap.max(1));
        }
        // Shifts past 32 would sample (effectively) nothing while still
        // paying the hash on every op; the estimator clamps identically.
        if let Some(shift) = self.rank_estimator {
            self.rank_estimator = Some(shift.min(32));
        }
        self
    }
}

impl Default for ZmsqConfig {
    fn default() -> Self {
        Self::recommended()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommended_matches_paper() {
        let c = ZmsqConfig::recommended();
        assert_eq!((c.batch, c.target_len), (48, 72));
        assert_eq!(c.lock_strategy, LockStrategy::TryRestart);
        assert_eq!(c.reclamation, Reclamation::ConsumerWait);
        assert_eq!(
            ZmsqConfig::sssp_tuned().reclamation,
            Reclamation::ConsumerWait
        );
    }

    #[test]
    fn sssp_tuned_matches_paper() {
        let c = ZmsqConfig::sssp_tuned();
        assert_eq!((c.batch, c.target_len), (42, 64));
    }

    #[test]
    fn strict_means_zero_batch() {
        assert_eq!(ZmsqConfig::strict().batch, 0);
    }

    #[test]
    fn normalization_clamps() {
        let c = ZmsqConfig::recommended()
            .batch(10_000)
            .target_len(0)
            .normalized();
        assert_eq!(c.target_len, 1);
        assert_eq!(c.batch, 2, "batch clamped to 2 * target_len");
    }

    #[test]
    fn batch_builder_collapses_adaptive_range() {
        let c = ZmsqConfig::default().adaptive_batch(4, 64).batch(8);
        assert_eq!((c.batch_min, c.batch, c.batch_max), (8, 8, 8));
        assert!(!c.is_adaptive());
    }

    #[test]
    fn adaptive_batch_clamps_start_into_range() {
        let c = ZmsqConfig::default().batch(100).adaptive_batch(4, 16);
        assert_eq!((c.batch_min, c.batch, c.batch_max), (4, 16, 16));
        assert!(c.is_adaptive());
        let c = ZmsqConfig::default().batch(1).adaptive_batch(4, 16);
        assert_eq!(c.batch, 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "batch_min")]
    fn adaptive_batch_inverted_range_asserts() {
        let _ = ZmsqConfig::default().adaptive_batch(16, 4);
    }

    #[test]
    fn normalization_repairs_inverted_range() {
        // Struct-literal escape hatch around the builder's debug_assert.
        let c = ZmsqConfig {
            batch: 8,
            batch_min: 32,
            batch_max: 4,
            ..ZmsqConfig::recommended()
        }
        .normalized();
        assert!(c.batch_min <= c.batch && c.batch <= c.batch_max);
        assert_eq!((c.batch_min, c.batch, c.batch_max), (4, 8, 32));
    }

    #[test]
    fn normalization_caps_adaptive_range_at_refill_supply() {
        let c = ZmsqConfig::default()
            .target_len(8)
            .adaptive_batch(4, 10_000)
            .normalized();
        assert_eq!(c.batch_max, 16, "batch_max capped at 2 * target_len");
        assert!(c.batch <= c.batch_max);
    }

    #[test]
    fn normalization_widens_range_around_literal_batch() {
        // A struct-literal user setting only `batch` must keep it.
        let c = ZmsqConfig {
            batch: 8,
            ..ZmsqConfig::recommended()
        }
        .normalized();
        assert_eq!(c.batch, 8);
        assert!(c.batch_min <= 8 && c.batch_max >= 8);
    }

    #[test]
    fn normalization_strict_collapses_range() {
        let c = ZmsqConfig {
            batch: 0,
            batch_min: 4,
            batch_max: 16,
            ..ZmsqConfig::recommended()
        }
        .normalized();
        assert_eq!((c.batch_min, c.batch, c.batch_max), (0, 0, 0));
        // And a live range never adapts down into strict mode.
        let c = ZmsqConfig {
            batch: 8,
            batch_min: 0,
            batch_max: 16,
            ..ZmsqConfig::recommended()
        }
        .normalized();
        assert_eq!(c.batch_min, 1);
    }

    #[test]
    fn adaptive_after_strict_reenables_pool() {
        let c = ZmsqConfig::strict().adaptive_batch(4, 16).normalized();
        assert_eq!((c.batch_min, c.batch, c.batch_max), (4, 4, 16));
        assert!(c.is_adaptive());
    }

    #[test]
    fn capacity_defaults_off_and_clamps() {
        let c = ZmsqConfig::default();
        assert_eq!(c.capacity, None);
        assert_eq!(c.shed, ShedPolicy::Block);
        let c = ZmsqConfig::default().capacity(0).normalized();
        assert_eq!(c.capacity, Some(1), "zero capacity clamped to 1");
        let c = ZmsqConfig::default()
            .capacity(64)
            .shed_policy(ShedPolicy::ShedLowest)
            .normalized();
        assert_eq!(c.capacity, Some(64));
        assert_eq!(c.shed, ShedPolicy::ShedLowest);
        let c = ZmsqConfig::default().capacity(8).unbounded().normalized();
        assert_eq!(c.capacity, None, "unbounded() removes the bound");
    }

    #[test]
    fn rank_estimator_defaults_on_and_clamps() {
        assert_eq!(ZmsqConfig::default().rank_estimator, Some(6));
        let c = ZmsqConfig::default().no_rank_estimator();
        assert_eq!(c.rank_estimator, None);
        assert_eq!(c.normalized().rank_estimator, None);
        let c = ZmsqConfig::default().no_sojourn();
        assert_eq!(c.rank_estimator, None, "no_sojourn is an alias");
        let c = ZmsqConfig::default().rank_estimator(0).normalized();
        assert_eq!(c.rank_estimator, Some(0));
        let c = ZmsqConfig::default().rank_estimator(99).normalized();
        assert_eq!(c.rank_estimator, Some(32), "shift clamped to 32");
    }

    #[test]
    fn builder_chain() {
        let c = ZmsqConfig::default()
            .batch(8)
            .target_len(16)
            .reclamation(Reclamation::Leak)
            .lock_strategy(LockStrategy::Blocking)
            .blocking(true);
        assert_eq!(c.batch, 8);
        assert_eq!(c.target_len, 16);
        assert_eq!(c.reclamation, Reclamation::Leak);
        assert_eq!(c.lock_strategy, LockStrategy::Blocking);
        assert!(c.blocking);
    }
}
