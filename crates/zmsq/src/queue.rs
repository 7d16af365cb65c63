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
//! # The merge refill
//!
//! Listing 2 refills the pool with the root set's top `n`. The root's
//! non-max elements are ordered only against their own subtrees, so a
//! pooled element can sit below many elements still in the children.
//! With [`QualityOpts::merge_refill`](crate::QualityOpts::merge_refill)
//! (the default), the single-element extractions pool the top `n` of the
//! root set and both child sets instead, in merge order, with `n` capped
//! as before at `min(root count after its max, batch)`. Every pooled
//! element is then at or above every element left in those three sets at
//! the refill instant:
//!
//! * The root stays locked from before the refill to the end of the
//!   swap-downs, and the merge locks both children before it reads them.
//! * No one else changes a child's set while the merge holds it and the
//!   root. Making a key a child's new max locks the root first (§3.4
//!   form 2); forced inserts stay below [`FORCE_MIN_LEVEL`]; splits of
//!   the root and swap-downs through it need the root; a split of the
//!   child needs the child.
//! * The merge takes the child locks blocking (deadlock-free: every lock
//!   sequence descends). A trylock failure would leave the refill with a
//!   half-merged root. The holders it can wait on are a split of that
//!   child, started by an insert that has since released the root, an
//!   insert into a grandchild, and an eviction. `split_down` keeps the
//!   sending node locked until the receiving children's sets and caches
//!   are final, so a child lock won from a split comes with final
//!   grandchildren.
//! * Restoring the mound: a child that gave elements may now hold a max
//!   below its own children's, and the root's max may be below a
//!   child's. The refill swaps down each child that gave (unlocking one
//!   that gave nothing) and then the root, all before it releases the
//!   root. A child's swap-down can raise the child's max above the
//!   root's, and only the root's swap-down, which locks both children
//!   again, repairs that; released early, the root could sit below a
//!   child, breaking the mound and with it the emptiness argument above.
//!
//! The property covers those three sets only. A grandchild can still
//! hold elements above a pooled one;
//! [`StatsSnapshot::pool_refill_below`] counts such pooled elements. The
//! exact refill (take from a child only down to its children's largest
//! max) pools one or two elements per visit and was rejected for cutting
//! `mixed` throughput from 2.9M to 1.0–1.6M ops/s (EXPERIMENTS.md,
//! "Merge refill").
//! `extract_batch` keeps the root-only takes (`Take::MERGE_REFILL`);
//! see the next section.
//!
//! # Delete-buffer fills
//!
//! `extract_batch`, through which the relaxation layer fills its delete
//! buffers, claims what the pool holds and then visits the root once. A
//! *take* is Listing 2's unit: the root max plus the root set's next
//! `min(count, batch)`, the chunk a refill would pool. The visit hands
//! each take to the caller in descending order and, while the caller
//! wants more, swaps the root down without releasing it and takes again.
//! Only the last take's unconsumed remainder goes to the pool, below
//! everything handed out from that take; then the final swap-down
//! releases the root. A 64-element fill at batch 5 is thus one root
//! hold of about eleven takes instead of eleven lock, refill, swap-down
//! and re-claim rounds. The pool stays exhausted for the whole hold
//! (only a root holder refills it), so a root found empty after a
//! swap-down is an empty queue, as above. Per take the relaxation is
//! Listing 2's; merging the root with its children there was measured
//! and rejected (EXPERIMENTS.md, "Delete-buffer fills in one root
//! hold"). The hold delays inserts that need the root, which retry.
//!
//! # The adaptive batch
//!
//! With [`ZmsqConfig::adaptive_batch`] the refill batch moves within
//! `batch_min..=batch_max` (§4.2: root accesses ≈ `1/(batch + 1)`; k-LSM
//! argues the batch should track contention). The controller runs in the
//! root visit, where the batch is used, and counts extractions under the
//! root lock: a visit that finds the pool exhausted counts the previous
//! refill's pooled elements, all claimed by then, plus the takes it
//! keeps. Every [`ADAPT_INTERVAL`] of them, [`adapt_decision`] reads the
//! window's `trylock_fails` (every failed node trylock: root visits,
//! insert placement, eviction) plus `refill_races` (visits that found
//! the pool refilled by another extractor).
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
//! * `queue.extract.skip-pool-check` — skips the pool check under the
//!   root lock, so a root visit that raced a refill pools over unclaimed
//!   items. The det suite's mutation check arms it on a filling thread
//!   and must catch the loss.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use pq_traits::InsertError;
use zmsq_sync::{
    Backoff, CachePadded, EventBuffer, ProducerWait, RawTryLock, TatasLock, WaitOutcome,
};

use crate::config::{LockStrategy, ShedPolicy, ZmsqConfig};
use crate::pool::{ClaimIf, Pool};
use crate::rng;
use crate::set::{DequeSet, NodeSet};
use crate::stats::{Stats, StatsSnapshot};
use crate::tnode::TNode;
use crate::tree::{Pos, Tree};

/// Forced (non-max) insertion is forbidden at levels `<=` this bound
/// (Listing 1 line 8: `level > 3`), because parking a low-priority element
/// high in the tree would let it reach the pool too early.
const FORCE_MIN_LEVEL: usize = 3;

/// Depth of the initially allocated tree: one level below
/// [`FORCE_MIN_LEVEL`], so forced insertion is available immediately.
const INITIAL_LEAF_LEVEL: usize = 4;

/// How many extractions a queue serves between two runs of the batch
/// controller. Small enough to track phase changes within a few thousand
/// operations, large enough that summing the two striped contention
/// counters is noise.
pub(crate) const ADAPT_INTERVAL: u64 = 128;

/// Decide the next effective batch from one observation window.
///
/// `d_extracts` / `d_contention` are the deltas of successful
/// extractions and of contention events (`trylock_fails +
/// refill_races`) over the window. Returns `Some(new_batch)` to move,
/// `None` to hold.
///
/// Policy (multiplicative increase, 1/4 decrease):
/// * ≥ 1 contention event per 8 extractions → the root is a bottleneck;
///   double the batch (§4.2: root-access ratio ≈ `1/(batch+1)`, so
///   doubling roughly halves root traffic).
/// * zero contention events → nobody is waiting on the root; decay the
///   batch by a quarter to tighten the relaxation window.
/// * anything in between → hold (hysteresis band so the batch does not
///   oscillate on moderate load).
fn adapt_decision(cur: usize, d_extracts: u64, d_contention: u64) -> Option<usize> {
    if d_extracts == 0 {
        return None;
    }
    if d_contention * 8 >= d_extracts {
        Some(cur.saturating_mul(2).max(cur + 1))
    } else if d_contention == 0 {
        Some(cur - (cur / 4).max(1).min(cur))
    } else {
        None
    }
}

/// The adaptive batch and its controller (module docs, "The adaptive
/// batch"). Written only under the root lock, hence loads and stores, no
/// read-modify-writes; atomic because other threads read it.
#[derive(Default)]
struct BatchControl {
    /// The effective refill batch.
    cur: AtomicUsize,
    /// Extractions counted, and their count at the last decision.
    ops: AtomicU64,
    last_ops: AtomicU64,
    /// Elements the last refill pooled, counted by the next visit.
    pooled: AtomicU64,
    /// `trylock_fails + refill_races` at the last decision.
    last_contention: AtomicU64,
    /// Decisions taken, and those that widened or narrowed the batch.
    windows: AtomicU64,
    widens: AtomicU64,
    narrows: AtomicU64,
}

/// Add `n` to a counter with one writer at a time; returns the sum.
fn bump(counter: &AtomicU64, n: u64) -> u64 {
    let v = counter.load(Ordering::Relaxed) + n;
    counter.store(v, Ordering::Relaxed);
    v
}

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
    /// Rank-error and sojourn telemetry, allocated iff
    /// `cfg.rank_estimator` is set: one lock-free sampled `(key, stamp)`
    /// table fed by every insert/extract path and exported as
    /// `quality.*`, `queue.sojourn_ns` and `sojourn.*` metrics. Padded
    /// because every thread writes its counters and histograms on
    /// sampled ops: unpadded, they shared cache lines with the queue's
    /// hot fields and cost `ShardedZmsq` about a fifth of its zbench
    /// `sharded` throughput.
    rank_est: CachePadded<Option<obs::RankEstimator>>,
    /// The adaptive batch and its controller, allocated iff the config
    /// is adaptive; a fixed-batch queue refills `cfg.batch`.
    batch_ctl: Option<Box<BatchControl>>,
    /// Scratch buffer for pool refills, guarded by the root lock.
    refill_scratch: UnsafeCell<Vec<(u64, V)>>,
    /// [`StatsSnapshot::pool_refill_below`]. Written only under the root
    /// lock, so one plain atomic serves where the striped counters would
    /// add 2 KiB to the queue.
    refill_below: AtomicU64,
}

// SAFETY: `refill_scratch` is only accessed while holding the root node's
// lock (see `extract_root`); all other shared state is internally
// synchronized (atomics, locks, the pool's own protocol).
unsafe impl<V: Send, S: NodeSet<V>, L: RawTryLock> Sync for Zmsq<V, S, L> {}
unsafe impl<V: Send, S: NodeSet<V>, L: RawTryLock> Send for Zmsq<V, S, L> {}

enum RootOutcome {
    /// The root visit's takes kept this many elements.
    Got(usize),
    Empty,
    /// Conditional extraction only: the global max is below the threshold.
    Below,
    Retry,
}

/// How long an insert may park the producer on a full `Block` queue.
#[derive(Clone, Copy, PartialEq)]
enum Wait {
    Never,
    Until(Instant),
    Forever,
}

/// One extraction form of the shared claim-then-root loop
/// ([`Zmsq::extract_with`]). Each form is its own monomorphization, so
/// `extract_max` carries none of the other forms' checks.
trait Take<V> {
    /// Whether this form's root visits may pool the merged top of the
    /// root and both children (when `QualityOpts::merge_refill` is on)
    /// rather than the root set's top alone.
    const MERGE_REFILL: bool = true;
    /// Claim from the pool into `self`: the elements claimed, or why
    /// there are none.
    fn claim(&mut self, pool: &Pool<V>) -> ClaimIf<&[(u64, V)]>;
    /// Keep one root take: its max `best`, then from the top of `rest`
    /// (the take's other elements, ascending) as many as the call still
    /// wants. Returns how many it kept; what it leaves in `rest` goes to
    /// the pool.
    fn keep(&mut self, best: (u64, V), rest: &mut Vec<(u64, V)>) -> usize;
    /// The last `n` elements kept, in hand-out order.
    fn kept(&self, n: usize) -> &[(u64, V)];
    /// Whether the call still wants elements.
    fn wants_more(&self) -> bool;
    /// The root threshold; only conditional extraction sets one.
    fn min_prio(&self) -> Option<u64> {
        None
    }
}

/// [`Zmsq::extract_max`]: one element.
struct TakeOne<V>(Option<(u64, V)>);

impl<V: Send> Take<V> for TakeOne<V> {
    #[inline(always)]
    fn claim(&mut self, pool: &Pool<V>) -> ClaimIf<&[(u64, V)]> {
        match pool.try_claim() {
            Some(item) => ClaimIf::Got(std::slice::from_ref(self.0.insert(item))),
            None => ClaimIf::Exhausted,
        }
    }
    fn keep(&mut self, best: (u64, V), _rest: &mut Vec<(u64, V)>) -> usize {
        self.0 = Some(best);
        1
    }
    fn kept(&self, _n: usize) -> &[(u64, V)] {
        self.0.as_slice()
    }
    fn wants_more(&self) -> bool {
        self.0.is_none()
    }
}

/// [`Zmsq::extract_batch`]: up to `want` elements appended to `out`.
struct TakeMany<'a, V> {
    out: &'a mut Vec<(u64, V)>,
    want: usize,
    got: usize,
}

impl<V: Send> Take<V> for TakeMany<'_, V> {
    /// Root-only: the relaxation layer fills its delete buffers through
    /// `extract_batch`, and the merge's extra child swap-downs there cost
    /// more latency than they buy rank (EXPERIMENTS.md, "Merge refill").
    const MERGE_REFILL: bool = false;
    #[inline(always)]
    fn claim(&mut self, pool: &Pool<V>) -> ClaimIf<&[(u64, V)]> {
        match pool.try_claim_many(self.out, self.want - self.got) {
            0 => ClaimIf::Exhausted,
            n => {
                self.got += n;
                ClaimIf::Got(self.kept(n))
            }
        }
    }
    fn keep(&mut self, best: (u64, V), rest: &mut Vec<(u64, V)>) -> usize {
        let more = rest.len().min(self.want - self.got - 1);
        self.out.push(best);
        self.out.extend(rest.drain(rest.len() - more..).rev());
        self.got += 1 + more;
        1 + more
    }
    fn kept(&self, n: usize) -> &[(u64, V)] {
        &self.out[self.out.len() - n..]
    }
    fn wants_more(&self) -> bool {
        self.got < self.want
    }
}

/// [`Zmsq::try_extract_if`]: one element of priority at least `min`.
struct TakeIf<V> {
    min: u64,
    got: Option<(u64, V)>,
    /// A below-threshold element the pool handed out anyway, for the
    /// caller to give back.
    stale: Option<(u64, V)>,
}

impl<V: Send> Take<V> for TakeIf<V> {
    #[inline(always)]
    fn claim(&mut self, pool: &Pool<V>) -> ClaimIf<&[(u64, V)]> {
        match pool.try_claim_if(self.min) {
            ClaimIf::Got(item) if item.0 >= self.min => {
                ClaimIf::Got(std::slice::from_ref(self.got.insert(item)))
            }
            // An exhaust+refill ABA between peek and claim can hand us a
            // below-threshold element.
            ClaimIf::Got(item) => {
                self.stale = Some(item);
                ClaimIf::Below
            }
            ClaimIf::Below => ClaimIf::Below,
            ClaimIf::Exhausted => ClaimIf::Exhausted,
        }
    }
    fn keep(&mut self, best: (u64, V), _rest: &mut Vec<(u64, V)>) -> usize {
        self.got = Some(best);
        1
    }
    fn kept(&self, _n: usize) -> &[(u64, V)] {
        self.got.as_slice()
    }
    fn wants_more(&self) -> bool {
        self.got.is_none()
    }
    fn min_prio(&self) -> Option<u64> {
        Some(self.min)
    }
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
    /// warm, splits move elements set to set, and the default pool
    /// reuses its buffers, so the steady state makes almost no allocator
    /// calls (zbench's `alloc.calls_per_op` counts them;
    /// `tests/queue_alloc.rs` gates them).
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
            tree: Tree::new(INITIAL_LEAF_LEVEL),
            // The pool is allocated at the top of the adaptive range so a
            // widened batch never outgrows a reused (ConsumerWait) buffer;
            // batch_max == batch when adaptation is off.
            pool: Pool::new(cfg.batch_max, cfg.reclamation),
            events: cfg.blocking.then(EventBuffer::new),
            producer_wait: cfg.capacity.is_some().then(ProducerWait::new),
            occupancy: CachePadded::new(AtomicUsize::new(0)),
            refill_scratch: UnsafeCell::new(Vec::with_capacity(cfg.batch_max)),
            refill_below: AtomicU64::new(0),
            batch_ctl: cfg.is_adaptive().then(|| {
                Box::new(BatchControl {
                    cur: AtomicUsize::new(cfg.batch),
                    ..BatchControl::default()
                })
            }),
            stats: Stats::default(),
            rank_est: CachePadded::new(cfg.rank_estimator.map(obs::RankEstimator::new)),
            cfg,
        }
    }

    /// The attached rank-error estimator and its sampled sojourn table,
    /// if `cfg.rank_estimator` is set.
    pub fn rank_estimator(&self) -> Option<&obs::RankEstimator> {
        self.rank_est.as_ref()
    }

    /// The queue's (normalized) configuration.
    pub fn config(&self) -> &ZmsqConfig {
        &self.cfg
    }

    /// Snapshot of the operation counters and the pool-buffer gauge.
    pub fn stats(&self) -> StatsSnapshot {
        let moves = |f: fn(&BatchControl) -> &AtomicU64| {
            (self.batch_ctl.as_deref()).map_or(0, |ctl| f(ctl).load(Ordering::Relaxed))
        };
        StatsSnapshot {
            pool_buffers: self.pool.buffers() as u64,
            pool_refill_below: self.refill_below.load(Ordering::Relaxed),
            batch_widens: moves(|ctl| &ctl.widens),
            batch_narrows: moves(|ctl| &ctl.narrows),
            ..self.stats.snapshot()
        }
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
    /// `config().batch` unless the adaptive controller moved it (module
    /// docs, "The adaptive batch").
    pub fn current_batch(&self) -> usize {
        match &self.batch_ctl {
            Some(ctl) => ctl.cur.load(Ordering::Relaxed),
            None => self.cfg.batch,
        }
    }

    /// Set the effective pool-refill batch, clamped into the configured
    /// `batch_min ..= batch_max` range; returns the value actually
    /// applied. A no-op (returning `batch`) on a fixed-batch queue. The
    /// value is read once per take under the root lock, and the pool's
    /// buffer is allocated at `batch_max`, so any in-range value fits.
    fn set_current_batch(&self, n: usize) -> usize {
        let Some(ctl) = &self.batch_ctl else {
            return self.cfg.batch;
        };
        let applied = n.clamp(self.cfg.batch_min.max(1), self.cfg.batch_max);
        ctl.cur.store(applied, Ordering::Relaxed);
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
        if self.insert_with(prio, value, Wait::Forever).is_err() {
            // `Reject`, or `ShedLowest` without a victim: the infallible
            // insert sheds the incoming element.
            self.stats.shed_rejected.incr();
            obs::trace_event!(obs::EventKind::Insert, 2, prio);
        }
    }

    /// The insertion path proper, after (or without) capacity admission.
    fn insert_admitted(&self, prio: u64, value: V) {
        det::det_point!("zmsq.insert");
        // Every path below ends with the element inserted (the retry
        // loop is infallible), so the shadow sample is noted up front.
        if let Some(est) = &*self.rank_est {
            est.note_insert(prio);
        }
        let _walk = obs::span!(obs::SpanPhase::TreeWalk);
        let mut value = value;
        let mut consecutive_failures = 0u32;
        loop {
            // One optimistic placement attempt; `Err` hands the element
            // back for a restart.
            let (pos, force) = self.select_position(prio, true);
            let placed = if force {
                self.forced_insert(pos, prio, value)
            } else {
                self.regular_insert(self.search_root_path(pos, prio), prio, value)
            };
            match placed {
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
        let _op = obs::span!(obs::SpanPhase::Insert);
        let _walk = obs::span!(obs::SpanPhase::TreeWalk);
        items.sort_unstable_by_key(|&(k, _)| k);
        while !items.is_empty() {
            let take = items.len().min(self.cfg.target_len.max(1));
            let start = items.len() - take;
            let chunk_max = items.last().expect("nonempty").0;
            if let Some(est) = &*self.rank_est {
                // The placement loop below is infallible: every chunk
                // element will be inserted exactly once.
                for &(k, _) in &items[start..] {
                    est.note_insert(k);
                }
            }
            // Restarts back off as the extraction loop's do: a chunk
            // headed for the root can meet a fill holding it.
            let mut backoff = Backoff::new();
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
                backoff.wait();
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
        let Some((node, parent)) = self.lock_for_max(pos, chunk_max) else {
            return false;
        };
        if let Some(parent) = parent {
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
        unwind.release(node); // split_down owns the lock now
        self.split_down(pos);
        true
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
        if !self.acquire(node, node_site()) {
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
        let Some((node, parent)) = self.lock_for_max(pos, prio) else {
            return Err(value);
        };
        let mut unwind = UnwindUnlock {
            nodes: [Some(node), parent],
        };
        fault::fail_point!("queue.insert.locked-panic");
        match parent {
            // Quality optimization (§3.2, Fig. 1): if the parent's min is
            // below prio, putting prio in the *parent* and demoting the
            // parent's min tightens the parent's range at no extra
            // locking.
            Some(parent)
                if self.cfg.quality.parent_min_swap
                    && parent.min_key().is_some_and(|pm| pm < prio) =>
            {
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
            }
            // Plain form: insert as the node's new maximum.
            // SAFETY: lock held.
            _ => unsafe {
                node.set_mut().insert(prio, value);
                node.cache_after_insert(prio);
            },
        }
        if let Some(parent) = parent {
            unwind.release(parent);
            parent.unlock();
        }
        unwind.release(node); // split_down owns the lock now
        self.split_down(pos);
        Ok(())
    }

    /// Lock the node at `pos` for an insert that makes `key` its new
    /// maximum — below the root, its parent first (§3.4 form 2) — and
    /// validate the optimistic placement: `key` is at least the node's
    /// max and, below the root, under the parent's max (which also proves
    /// the parent nonempty, preserving the emptiness chain). Returns the
    /// node and its parent (`None` at the root) locked, or `None` with
    /// nothing locked.
    #[allow(clippy::type_complexity)]
    fn lock_for_max(
        &self,
        pos: Pos,
        key: u64,
    ) -> Option<(&TNode<V, S, L>, Option<&TNode<V, S, L>>)> {
        let node = self.tree.node(pos);
        let parent = (pos.0 > 0).then(|| self.tree.node(Tree::<V, S, L>::parent(pos)));
        // Lock order: parent before child, always.
        if parent.is_some_and(|p| !self.acquire(p, node_site())) {
            return None;
        }
        if self.acquire(node, node_site()) {
            let fits = (node.count() == 0 || node.max_key() <= Some(key))
                && parent.is_none_or(|p| p.max_key() > Some(key));
            if fits {
                return Some((node, parent));
            }
            node.unlock();
        }
        if let Some(parent) = parent {
            parent.unlock();
        }
        None
    }

    /// Split an oversized set: keep the upper half in place, move the
    /// lower half straight into the children (locked before the parent
    /// unlocks so no extraction can observe the pre-split child with the
    /// post-split parent — §3.4 form 3). The parent stays locked until
    /// the children's caches are refreshed, so a refill that holds the
    /// parent never reads a child mid-split. Recurses if a child
    /// overflows in turn. A set within `2 * target_len` is left as it
    /// is.
    ///
    /// Precondition: the node at `pos` is locked; this call unlocks it.
    fn split_down(&self, pos: Pos) {
        let node = self.tree.node(pos);
        if node.count() <= 2 * self.cfg.target_len {
            node.unlock();
            return;
        }
        // A panic mid-split leaves demoted elements split across parent
        // and children with stale caches on several nodes — abort.
        let _critical = AbortOnUnwind("split_down");
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

        // Distribute the demoted elements across both children. Their
        // maxes can only grow up to the parent's kept minimum, so the
        // mound invariant survives.
        // SAFETY: the node and both children are locked, three distinct
        // nodes.
        unsafe {
            node.set_mut()
                .split_lower_half_into(left.set_mut(), right.set_mut());
            node.refresh_cache();
            left.refresh_cache();
            right.refresh_cache();
        }
        node.unlock();
        self.stats.splits.incr();
        obs::trace_event!(obs::EventKind::Split, pos.0 as u32);

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
        if !self.acquire(node, node_site()) {
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
        self.note_removed(victim_key);
        self.stats.shed_evicted.incr();
        obs::trace_event!(obs::EventKind::Extract, 2, below);
        true
    }

    /// Release `key`'s telemetry slot without recording a sample: an
    /// eviction or a give-back is not a hand-out (no rank) nor a
    /// service completion (no sojourn).
    fn note_removed(&self, key: u64) {
        if let Some(est) = &*self.rank_est {
            est.note_remove(key);
        }
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
        self.insert_with(prio, value, Wait::Never)
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
        self.insert_with(prio, value, Wait::Until(Instant::now() + timeout))
    }

    /// The one admission path behind [`insert`](Self::insert),
    /// [`try_insert`](Self::try_insert) and
    /// [`insert_timeout`](Self::insert_timeout); `wait` bounds how long a
    /// full `Block` queue parks the producer. `Full` hands the element
    /// back when no room was won. A closed queue refuses with `Closed`,
    /// except under `Wait::Forever`: the infallible `insert` is admitted
    /// while there is room, and past capacity once a park sees the close.
    fn insert_with(&self, prio: u64, value: V, wait: Wait) -> Result<(), InsertError<V>> {
        let _op = obs::span!(obs::SpanPhase::Insert);
        let Some(cap) = self.cfg.capacity else {
            self.insert_admitted(prio, value);
            return Ok(());
        };
        let pw = self.producer_wait.as_ref().expect("capacity set");
        if wait != Wait::Forever && pw.is_closed() {
            return Err(InsertError::Closed(value));
        }
        loop {
            let admitted = {
                let _adm = obs::span!(obs::SpanPhase::Admission);
                self.try_admit(cap)
            };
            if admitted {
                self.insert_admitted(prio, value);
                return Ok(());
            }
            self.stats.capacity_hits.incr();
            if self.cfg.shed == ShedPolicy::ShedLowest && self.try_evict_lowest(prio) {
                // The victim's reservation transfers to us: occupancy is
                // net unchanged.
                self.insert_admitted(prio, value);
                return Ok(());
            }
            let left = match (self.cfg.shed, wait) {
                (ShedPolicy::Block, Wait::Forever) => None,
                (ShedPolicy::Block, Wait::Until(deadline)) => {
                    match deadline.saturating_duration_since(Instant::now()) {
                        left if left.is_zero() => return Err(InsertError::Timeout(value)),
                        left => Some(left),
                    }
                }
                _ => return Err(InsertError::Full(value)),
            };
            let _adm = obs::span!(obs::SpanPhase::Admission);
            self.stats.producer_waits.incr();
            let room = || self.has_room(cap);
            let outcome = match left {
                None => pw.wait_for_room(room),
                Some(left) => pw.wait_for_room_timeout(room, left),
            };
            match outcome {
                // Closed queues stop enforcing capacity for the infallible
                // insert: the element is force-admitted so its contract
                // ("never fails") holds to the end.
                WaitOutcome::Closed if wait == Wait::Forever => {
                    self.occupancy.fetch_add(1, Ordering::SeqCst);
                    self.insert_admitted(prio, value);
                    return Ok(());
                }
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
        let mut take = TakeOne(None);
        self.extract_with(&mut take);
        take.0
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
    /// The call first claims up to `n` pool slots with a **single**
    /// `fetch_sub`, one contended RMW instead of `n`. What the pool
    /// lacks comes from one root hold: consecutive Listing-2 takes (the
    /// root max plus the root's next `batch`) go straight to `out`, and
    /// only the last take's unconsumed remainder refills the pool (module
    /// docs, "Delete-buffer fills"). Elements arrive in hand-out order:
    /// descending within the pool's part and within each take, with the
    /// same per-take relaxation as element-wise extraction.
    pub fn extract_batch(&self, out: &mut Vec<(u64, V)>, n: usize) -> usize {
        let mut take = TakeMany {
            out,
            want: n,
            got: 0,
        };
        self.extract_with(&mut take);
        take.got
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
        let mut take = TakeIf {
            min: min_prio,
            got: None,
            stale: None,
        };
        self.extract_with(&mut take);
        if let Some((key, value)) = take.stale {
            // Give the below-threshold element back. Straight to the
            // admitted path: its occupancy reservation was never
            // released, so re-running admission would double-count it
            // (and could block or shed an element we must not lose).
            // `insert_admitted` notes the key again, so its telemetry
            // slot is released first.
            self.note_removed(key);
            self.insert_admitted(key, value);
        }
        take.got
    }

    /// The one claim-then-root loop (Listing 2) behind every extraction
    /// form: claim from the pool, and when it is exhausted visit the root
    /// (whose takes go to `take`, the remainder to the pool), until `take`
    /// has what it wants, the queue is observed empty, or the threshold
    /// stops it.
    #[inline(always)]
    fn extract_with<T: Take<V>>(&self, take: &mut T) {
        det::det_point!("zmsq.extract");
        let _op = obs::span!(obs::SpanPhase::Extract);
        let mut backoff = Backoff::new();
        while take.wants_more() {
            let claimed = {
                let _claim = obs::span!(obs::SpanPhase::PoolClaim);
                take.claim(&self.pool)
            };
            match claimed {
                ClaimIf::Got(items) => {
                    self.hand_out(items, true);
                    continue;
                }
                ClaimIf::Below => return,
                ClaimIf::Exhausted => {}
            }
            obs::trace_event!(obs::EventKind::PoolMiss);
            match self.extract_root(take) {
                RootOutcome::Got(n) => self.hand_out(take.kept(n), false),
                RootOutcome::Empty => {
                    self.stats.empty_observed.incr();
                    return;
                }
                RootOutcome::Below => return,
                RootOutcome::Retry => backoff.wait(),
            }
        }
    }

    /// Hand-out bookkeeping for the elements one pool claim or root
    /// visit handed out: counters, trace event, rank and sojourn
    /// telemetry (one table), and the capacity release.
    #[inline(always)]
    fn hand_out(&self, items: &[(u64, V)], from_pool: bool) {
        let n = items.len();
        self.stats.extracts.add(n as u64);
        if from_pool {
            self.stats.pool_hits.add(n as u64);
            obs::trace_event!(obs::EventKind::PoolHit, n as u32, items[0].0);
        } else {
            obs::trace_event!(obs::EventKind::Extract, 0, items[0].0);
        }
        if let Some(est) = &*self.rank_est {
            for &(key, _) in items {
                est.note_extract(key);
            }
        }
        self.release_capacity(n);
    }

    /// Slow path: Listing 2's root visit. A *take* removes the root max
    /// plus the root set's next `min(remaining, batch)` elements (with
    /// `merge`, the merged top of the root and both children instead; see
    /// the module docs) and offers them to `take` in descending order.
    /// While `take` consumes a whole take and wants more, the root is
    /// swapped down still held and the next take follows, so a delete
    /// buffer fills in one root hold. The last take's unconsumed
    /// remainder refills the pool; then the final swap-down releases the
    /// root. With a threshold, returns `Below` (without extracting) when
    /// the root maximum, the global maximum by the mound invariant, is
    /// below it.
    fn extract_root<T: Take<V>>(&self, take: &mut T) -> RootOutcome {
        let root = self.tree.root();
        // Attribute the whole root critical section (acquisition, takes,
        // refill, swap-downs and their nested lock waits) to the root site.
        let _site = zmsq_sync::site::enter(root_site());
        if !self.acquire(root, root_site()) {
            // Likely a concurrent refiller; back off and retry the pool.
            return RootOutcome::Retry;
        }
        let unwind = UnwindUnlock::one(root);
        // Someone may have refilled while we waited for the lock — we
        // raced another extractor to the same refill. Mutation target for
        // the det suite: skipping this check pools over unclaimed items.
        let skip_pool_check = || {
            fault::fail_point!("queue.extract.skip-pool-check", return true);
            false
        };
        if !skip_pool_check() && self.pool.has_items_locked() {
            self.stats.refill_races.incr();
            root.unlock();
            return RootOutcome::Retry;
        }
        if let Some(ctl) = &self.batch_ctl {
            // The pool is exhausted: the last refill's elements are claimed.
            let pooled = ctl.pooled.load(Ordering::Relaxed);
            ctl.pooled.store(0, Ordering::Relaxed);
            self.count_extracts(ctl, pooled);
        }
        if root.count() == 0 {
            // Empty root + exhausted pool == empty queue (see module docs).
            root.unlock();
            return RootOutcome::Empty;
        }
        if take
            .min_prio()
            .is_some_and(|min| root.max_key() < Some(min))
        {
            // Mound invariant: root.max is the global max, so nothing
            // qualifies.
            root.unlock();
            return RootOutcome::Below;
        }
        // The last point where a panic is recoverable by unlocking: no
        // mutation has happened yet.
        fault::fail_point!("queue.extract.locked-panic");
        det::det_point!("zmsq.extract-root");
        drop(unwind);
        // From here to the final swap-down's return the window spans the
        // root, the pool and (transitively) children — unrecoverable
        // mid-way.
        let _critical = AbortOnUnwind("root extraction");

        let merge = T::MERGE_REFILL && self.cfg.quality.merge_refill;
        // SAFETY: `refill_scratch` is guarded by the root lock.
        let scratch = unsafe { &mut *self.refill_scratch.get() };
        let mut kept = 0;
        loop {
            // SAFETY: root locked.
            let best = unsafe { root.set_mut().remove_max().expect("count > 0") };
            let remaining = root.count() - 1;
            scratch.clear();
            // Children that gave elements to a merge take, by position;
            // they stay locked until their swap-down.
            let mut gave: [Option<Pos>; 2] = [None, None];
            let more = {
                let _refill = obs::span!(obs::SpanPhase::PoolRefill);
                let mut beneath = 1;
                if self.cfg.batch_max > 0 && remaining > 0 {
                    // The *effective* batch: cfg.batch unless the adaptive
                    // controller has moved it. Always within
                    // batch_min..=batch_max, hence within the pool's
                    // allocated capacity.
                    let n = remaining.min(self.current_batch().max(1));
                    if merge {
                        gave = self.merge_top(n, scratch);
                        beneath = 2;
                    } else {
                        // SAFETY: root locked.
                        unsafe { root.set_mut().drain_top(n, scratch) };
                    }
                }
                let k = take.keep(best, scratch);
                kept += k;
                if let Some(ctl) = &self.batch_ctl {
                    ctl.pooled.store(scratch.len() as u64, Ordering::Relaxed);
                    self.count_extracts(ctl, k as u64);
                }
                // SAFETY: root locked.
                unsafe { root.refresh_cache() };
                if scratch.is_empty() {
                    take.wants_more()
                } else {
                    self.note_refill_below(scratch, beneath);
                    obs::trace_event!(obs::EventKind::PoolRefill, scratch.len() as u32);
                    self.pool.refill_locked(scratch);
                    self.stats.pool_refills.incr();
                    false
                }
            };
            {
                let _swap = obs::span!(obs::SpanPhase::SwapDown);
                // Depleted children first, while the root is still held: a
                // child's swap-down can raise its max, and only the root's
                // swap-down below compares the root against that new max.
                for pos in gave.into_iter().flatten() {
                    self.swap_down(pos, false); // consumes the child's lock
                }
                // Keeps the root while the caller wants another take.
                self.swap_down((0, 0), more);
            }
            if !more {
                break;
            }
            det::det_point!("zmsq.fill-take");
            if root.count() == 0 {
                // Both children were empty, hence the whole tree: the
                // caller's next visit reports the queue empty.
                root.unlock();
                break;
            }
        }
        self.stats.root_extracts.add(kept as u64);
        obs::trace_event!(obs::EventKind::RootAccess);
        RootOutcome::Got(kept)
    }

    /// The adaptive controller's window (module docs, "The adaptive
    /// batch"): count `n` extractions and, each time the count crosses a
    /// multiple of [`ADAPT_INTERVAL`], move the batch. Root lock held.
    fn count_extracts(&self, ctl: &BatchControl, n: u64) {
        let prev = ctl.ops.load(Ordering::Relaxed);
        let ops = bump(&ctl.ops, n);
        if prev / ADAPT_INTERVAL == ops / ADAPT_INTERVAL {
            return;
        }
        let contention = self.stats.trylock_fails.sum() + self.stats.refill_races.sum();
        let d_ex = ops - ctl.last_ops.load(Ordering::Relaxed);
        let d_c = contention.saturating_sub(ctl.last_contention.load(Ordering::Relaxed));
        ctl.last_ops.store(ops, Ordering::Relaxed);
        ctl.last_contention.store(contention, Ordering::Relaxed);
        bump(&ctl.windows, 1);
        let cur = ctl.cur.load(Ordering::Relaxed);
        if let Some(next) = adapt_decision(cur, d_ex, d_c) {
            let applied = self.set_current_batch(next);
            if applied > cur {
                bump(&ctl.widens, 1);
            } else if applied < cur {
                bump(&ctl.narrows, 1);
            }
        }
    }

    /// The merge refill: with the root locked, lock both children
    /// (blocking: the root is held and every lock sequence descends) and
    /// append the top `n` of the three sets to `out` in ascending order.
    /// Returns the positions of the children that gave elements, still
    /// locked with their caches refreshed; a child that gave nothing is
    /// unlocked here. `n` must not exceed the root's count.
    fn merge_top(&self, n: usize, out: &mut Vec<(u64, V)>) -> [Option<Pos>; 2] {
        let (lp, rp) = Tree::<V, S, L>::children((0, 0));
        let nodes = [self.tree.root(), self.tree.node(lp), self.tree.node(rp)];
        {
            let _site = zmsq_sync::site::enter(node_site());
            nodes[1].lock();
            nodes[2].lock();
        }
        det::det_point!("zmsq.merge-refill");
        let mut gave = [false; 3];
        {
            // SAFETY: all three nodes are locked, and distinct.
            let sets = nodes.map(|node| unsafe { node.set_mut() });
            for _ in 0..n {
                // Largest max first; ties go to the root, the set a
                // root-only refill would have drained.
                let mut from = 0;
                for i in 1..3 {
                    if sets[i].max_key() > sets[from].max_key() {
                        from = i;
                    }
                }
                out.push(sets[from].remove_max().expect("the root holds n"));
                gave[from] = true;
            }
        }
        out.reverse(); // merge order is descending; the pool wants ascending
        [(lp, 1), (rp, 2)].map(|(pos, i)| {
            if gave[i] {
                // SAFETY: locked above.
                unsafe { nodes[i].refresh_cache() };
                Some(pos)
            } else {
                nodes[i].unlock();
                None
            }
        })
    }

    /// Count the just-drained `pooled` elements (ascending) that sit below
    /// the largest cached max on `level`, the level just beneath the
    /// refill's locked nodes, into [`StatsSnapshot::pool_refill_below`].
    fn note_refill_below(&self, pooled: &[(u64, V)], level: usize) {
        let below = (0..1usize << level)
            .map(|slot| self.tree.node((level, slot)).max_key())
            .max()
            .flatten();
        let n = pooled.partition_point(|&(k, _)| Some(k) < below);
        if n > 0 {
            self.refill_below.fetch_add(n as u64, Ordering::Relaxed);
        }
    }

    /// Restore `parent.max >= child.max` from `top` downward by swapping
    /// sets with the larger child until the invariant holds (the mound's
    /// moundify, §2.2/§3.4). Precondition: node at `top` locked; unlocks
    /// every node below before returning, and `top` too unless `hold`.
    fn swap_down(&self, top: Pos, hold: bool) {
        // A panic mid-swap can strand a nonempty child under an emptied
        // parent (breaking the emptiness chain) — abort.
        let _critical = AbortOnUnwind("swap_down");
        let release = |pos: Pos| {
            if !(hold && pos == top) {
                self.tree.node(pos).unlock();
            }
        };
        let mut pos = top;
        loop {
            let node = self.tree.node(pos);
            if pos.0 >= self.tree.leaf_level() {
                release(pos);
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
                release(pos);
                return;
            }
            // SAFETY: both locks held, distinct nodes.
            unsafe { node.swap_contents(big) };
            self.stats.swap_downs.incr();
            small.unlock();
            release(pos);
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
        self.extract_parked(events, None)
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
        let deadline = Instant::now() + timeout;
        match &self.events {
            Some(events) => self.extract_parked(events, Some(deadline)),
            None => self.extract_max(),
        }
    }

    /// The one park loop behind [`extract_max_blocking`] and
    /// [`extract_max_timeout`]: extract, parking on `events` while the
    /// queue is empty, until an element arrives, the queue closes or the
    /// `deadline` (`None` = never) passes.
    ///
    /// [`extract_max_blocking`]: Self::extract_max_blocking
    /// [`extract_max_timeout`]: Self::extract_max_timeout
    fn extract_parked(&self, events: &EventBuffer, deadline: Option<Instant>) -> Option<(u64, V)> {
        loop {
            if let Some(got) = self.extract_max() {
                return Some(got);
            }
            let ready = || self.len_hint() > 0;
            let outcome = match deadline {
                None => events.wait_until(ready),
                Some(deadline) => match deadline.saturating_duration_since(Instant::now()) {
                    left if left.is_zero() => return None,
                    left => events.wait_until_timeout(ready, left),
                },
            };
            match outcome {
                WaitOutcome::Closed | WaitOutcome::TimedOut => return self.extract_max(),
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

    /// Lock `node` per the configured strategy, attributing any wait to
    /// `site`. A failed trylock counts in `trylock_fails` and returns
    /// false.
    #[inline]
    fn acquire(&self, node: &TNode<V, S, L>, site: zmsq_sync::SiteId) -> bool {
        let _site = zmsq_sync::site::enter(site);
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

    /// The keys in the set at `pos`, read by draining the set and
    /// putting the same pairs back (the caches stay valid).
    fn keys_at<S: NodeSet<u64>>(q: &mut Zmsq<u64, S>, pos: Pos) -> Vec<u64> {
        let mut pairs = Vec::new();
        // SAFETY: `&mut` access to the queue; no other thread.
        let set = unsafe { q.tree.node(pos).set_mut() };
        set.drain_all(&mut pairs);
        let keys = pairs.iter().map(|&(k, _)| k).collect();
        for (k, v) in pairs {
            set.insert(k, v);
        }
        keys
    }

    /// A seeded single-thread op stream over a small-set queue. After
    /// every merge refill, the pool holds exactly the top of the root and
    /// both children (less the extracted max): each pooled element is at
    /// or above every element left in those three sets. Every op is
    /// followed by `validate_invariants`.
    fn check_merge_refill_pools_top_of_three<S: NodeSet<u64>>(seed: u64) {
        let mut rng = fault::DetRng::seed_from_u64(seed);
        let mut q: Zmsq<u64, S> = Zmsq::with_config(ZmsqConfig::default().batch(6).target_len(6));
        let (lp, rp) = Tree::<u64, S, TatasLock>::children((0, 0));
        let (mut refills, mut from_children) = (0, 0);
        for op in 0..6_000 {
            if rng.random_range(0u32..10) < 6 {
                let k = rng.random_range(0u64..2_000);
                q.insert(k, k);
                q.validate_invariants().unwrap();
                continue;
            }
            let root = keys_at(&mut q, (0, 0));
            let mut three: Vec<u64> =
                [root.clone(), keys_at(&mut q, lp), keys_at(&mut q, rp)].concat();
            let before = q.stats().pool_refills;
            let got = q.extract_max().map(|(k, _)| k);
            q.validate_invariants().unwrap();
            if q.stats().pool_refills == before {
                continue;
            }
            // A refill: the extraction took the root max, the global max.
            three.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(
                got,
                three.first().copied(),
                "seed {seed:#x} op {op}: root max"
            );
            let mut pooled = Vec::new();
            while q.pool.has_items_locked() {
                pooled.push(q.extract_max().expect("pool holds items").0);
                q.validate_invariants().unwrap();
            }
            let top = &three[1..=pooled.len()];
            assert_eq!(
                pooled, top,
                "seed {seed:#x} op {op}: pool is not the top of three"
            );
            let mut root = root;
            root.sort_unstable_by(|a, b| b.cmp(a));
            if root.get(1..=pooled.len()) != Some(top) {
                from_children += 1;
            }
            refills += 1;
        }
        assert!(refills > 100, "seed {seed:#x}: only {refills} refills");
        assert!(
            from_children > refills / 20,
            "seed {seed:#x}: only {from_children} of {refills} refills differ from root-only"
        );
    }

    #[test]
    fn merge_refill_pools_top_of_root_and_children() {
        for seed in [0x3E76E, 0x3E76F, 0x3E770] {
            check_merge_refill_pools_top_of_three::<DequeSet<u64>>(seed);
            check_merge_refill_pools_top_of_three::<ListSet<u64>>(seed);
            check_merge_refill_pools_top_of_three::<ArraySet<u64>>(seed);
        }
    }

    /// Every node's keys, ascending, by heap index (`(level, slot)` at
    /// `2^level - 1 + slot`), down to the leaf level.
    fn all_keys<S: NodeSet<u64>>(q: &mut Zmsq<u64, S>) -> Vec<Vec<u64>> {
        let mut sets = Vec::new();
        for level in 0..=q.tree.leaf_level() {
            for slot in 0..1usize << level {
                let mut keys = keys_at(q, (level, slot));
                keys.sort_unstable();
                sets.push(keys);
            }
        }
        sets
    }

    /// Model of one root visit of `extract_batch` over `sets` (from
    /// [`all_keys`]) with the pool exhausted: the takes it hands out, each
    /// the root max plus the root's next `min(count, batch)`, and the
    /// descending remainder of the last take, which goes to the pool.
    /// Between takes the root sinks as `swap_down` sinks it.
    fn model_fill(
        sets: &mut [Vec<u64>],
        batch: usize,
        mut want: usize,
    ) -> (Vec<Vec<u64>>, Vec<u64>) {
        let swap_down = |sets: &mut [Vec<u64>]| {
            let mut i = 0;
            while 2 * i + 2 < sets.len() {
                let (l, r) = (2 * i + 1, 2 * i + 2);
                let big = if sets[l].last() >= sets[r].last() {
                    l
                } else {
                    r
                };
                if sets[big].last() <= sets[i].last() {
                    break;
                }
                sets.swap(i, big);
                i = big;
            }
        };
        let mut takes = Vec::new();
        while want > 0 {
            let Some(best) = sets[0].pop() else { break };
            let n = sets[0].len().min(batch);
            let mut take = vec![best];
            take.extend((0..n).map(|_| sets[0].pop().expect("n <= count")));
            let rest = take.split_off(take.len().min(want));
            want -= take.len();
            takes.push(take);
            swap_down(sets);
            if !rest.is_empty() {
                return (takes, rest);
            }
        }
        (takes, Vec::new())
    }

    /// A seeded single-thread stream of inserts and `extract_batch`
    /// calls. Each call hands out the pool's remainder first, then its
    /// root visit's takes, as [`model_fill`] predicts from the sets just
    /// before the call. On the queue's own output: every take is
    /// descending, and the remainder the next call claims from the pool
    /// sits below everything handed out from the take it came from.
    /// Every call is followed by `validate_invariants`.
    fn check_fill_keeps_takes<S: NodeSet<u64>>(seed: u64) {
        const BATCH: usize = 5;
        let mut rng = fault::DetRng::seed_from_u64(seed);
        let mut q: Zmsq<u64, S> =
            Zmsq::with_config(ZmsqConfig::default().batch(BATCH).target_len(6));
        // The pool's contents, descending (claim order), and the take
        // they were left from.
        let (mut pool, mut pooled_from): (Vec<u64>, Vec<u64>) = (Vec::new(), Vec::new());
        let (mut multi_take, mut remainders) = (0, 0);
        let mut live = 0usize;
        for op in 0..1_500 {
            if rng.random_range(0u32..10) < 7 {
                for _ in 0..rng.random_range(1u32..=8) {
                    let k = rng.random_range(0u64..2_000);
                    q.insert(k, k);
                    live += 1;
                }
                q.validate_invariants().unwrap();
                continue;
            }
            let want = rng.random_range(1usize..=12);
            let from_pool: Vec<u64> = pool.drain(..want.min(pool.len())).collect();
            let mut sets = all_keys(&mut q);
            let (takes, rest) = if from_pool.len() < want {
                model_fill(&mut sets, BATCH, want - from_pool.len())
            } else {
                (Vec::new(), Vec::new())
            };
            let before = q.stats();
            let mut out = Vec::new();
            let got = q.extract_batch(&mut out, want);
            q.validate_invariants().unwrap();
            let keys: Vec<u64> = out.iter().map(|&(k, _)| k).collect();
            let ctx = format!("seed {seed:#x} op {op} want {want}");
            assert_eq!(got, want.min(live), "{ctx}: short fill on a nonempty queue");
            live -= got;
            // The pool's part: last call's remainder, below its take.
            let (claimed, mut rooted) = keys.split_at(from_pool.len());
            assert_eq!(claimed, from_pool, "{ctx}: pool part");
            if let (Some(&top), Some(&low)) = (claimed.first(), pooled_from.last()) {
                assert!(top <= low, "{ctx}: pooled {top} above its take's {low}");
            }
            let after = q.stats();
            assert_eq!(
                after.pool_hits - before.pool_hits,
                claimed.len() as u64,
                "{ctx}"
            );
            assert_eq!(
                after.root_extracts - before.root_extracts,
                rooted.len() as u64,
                "{ctx}: every element a take hands out is a root extraction"
            );
            // The root's part, take by take.
            for take in &takes {
                let (mine, later) = rooted.split_at(take.len());
                assert_eq!(mine, take, "{ctx}: take");
                assert!(
                    mine.is_sorted_by(|a, b| a >= b),
                    "{ctx}: take not descending"
                );
                rooted = later;
            }
            assert!(
                rooted.is_empty(),
                "{ctx}: {} elements past the takes",
                rooted.len()
            );
            if from_pool.len() < want {
                pooled_from = takes.last().cloned().unwrap_or_default();
                remainders += !rest.is_empty() as usize;
                pool = rest;
            }
            multi_take += (takes.len() > 1) as usize;
        }
        assert!(
            multi_take > 100,
            "seed {seed:#x}: only {multi_take} multi-take fills"
        );
        assert!(
            remainders > 100,
            "seed {seed:#x}: only {remainders} pooled remainders"
        );
        let mut out = Vec::new();
        assert_eq!(
            q.extract_batch(&mut out, usize::MAX),
            live,
            "seed {seed:#x}: drain"
        );
    }

    #[test]
    fn extract_batch_keeps_takes_and_pools_remainder() {
        for seed in [0xF111, 0xF112, 0xF113] {
            check_fill_keeps_takes::<DequeSet<u64>>(seed);
            check_fill_keeps_takes::<ListSet<u64>>(seed);
            check_fill_keeps_takes::<ArraySet<u64>>(seed);
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
            // One thread never lags behind its own refill: one buffer.
            assert_eq!(q.stats().pool_buffers, 1, "mode {mode:?}");
        }
    }

    #[test]
    fn pool_buffers_gauge_is_exported() {
        let q = Q::new();
        assert_eq!(q.config().reclamation, Reclamation::ConsumerWait);
        for i in 0..500u64 {
            q.insert(i, i);
        }
        assert_eq!(q.drain_count(), 500);
        let snap = pq_traits::ConcurrentPriorityQueue::metrics(&q).unwrap();
        assert_eq!(snap.gauge("zmsq.pool.buffers"), Some(1));
        // Rank and sojourn come from one table: every matched sampled
        // extraction is one staleness and one sojourn sample.
        let matched = snap.counter("quality.matched").unwrap();
        assert!(
            matched > 0,
            "the default 1/64 sampling hits some of 500 keys"
        );
        assert_eq!(snap.hist("queue.sojourn_ns").unwrap().count, matched);
        assert_eq!(snap.hist("quality.staleness_ns").unwrap().count, matched);
        let strict = Q::with_config(ZmsqConfig::strict());
        assert_eq!(strict.stats().pool_buffers, 0, "strict mode has no pool");
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
        // ConsumerWait reuses its buffers: they must be allocated at
        // batch_max, not the starting batch, or a widened refill would
        // overflow one.
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
        // Single-element extractions: a batched one keeps its root takes
        // and pools only a remainder, which would not fill a buffer.
        for _ in 0..500 {
            assert!(q.extract_max().is_some());
        }
        assert_eq!(q.extract_max(), None);
        let s = q.stats();
        assert!(s.pool_hits > 0);
        assert!(s.pool_refills > 0);
    }

    #[test]
    fn adapt_decision_policy() {
        // Heavy contention (>= 1 event per 8 extracts): widen.
        assert_eq!(adapt_decision(8, 128, 16), Some(16));
        assert_eq!(adapt_decision(8, 128, 1_000), Some(16));
        // Zero contention: decay by a quarter.
        assert_eq!(adapt_decision(16, 128, 0), Some(12));
        assert_eq!(adapt_decision(2, 128, 0), Some(1));
        assert_eq!(adapt_decision(1, 128, 0), Some(0)); // clamped by set_current_batch
                                                        // Moderate contention: hold.
        assert_eq!(adapt_decision(8, 128, 5), None);
        // Empty window: hold.
        assert_eq!(adapt_decision(8, 0, 0), None);
    }

    /// A plain `Zmsq` runs its own controller: single-threaded
    /// extraction sees no contention, so the batch walks down to
    /// `batch_min` and the move shows in `metrics()`.
    #[test]
    fn plain_queue_adaptive_batch_narrows() {
        let q = Q::with_config(ZmsqConfig::default().batch(32).adaptive_batch(4, 64));
        for i in 0..30_000u64 {
            q.insert(i, i);
        }
        let mut extracted = 0;
        while q.current_batch() != 4 {
            assert!(
                q.extract_max().is_some(),
                "drained at batch {}",
                q.current_batch()
            );
            extracted += 1;
        }
        assert!(
            extracted <= 20 * ADAPT_INTERVAL,
            "took {extracted} extractions"
        );
        let snap = pq_traits::ConcurrentPriorityQueue::metrics(&q).unwrap();
        assert!(snap.counter("zmsq.batch.narrows").unwrap() > 0);
        assert_eq!(snap.counter("zmsq.batch.widens"), Some(0));
        assert_eq!(snap.gauge("zmsq.batch.current"), Some(4));
    }

    /// The controller's window counts every extraction once, under the
    /// root lock: pool claims when the next visit finds the pool
    /// exhausted, root takes when they are kept. Whatever the mix, N
    /// extractions close N/128 windows, give or take the last pool.
    #[test]
    fn controller_windows_count_every_extraction() {
        let q = Q::with_config(ZmsqConfig::default().batch(32).adaptive_batch(4, 64));
        for i in 0..40_000u64 {
            q.insert(i * 7 % 40_000, i);
        }
        let mut out = Vec::new();
        let mut n = 0u64;
        for round in 0..600u64 {
            if round % 3 == 0 {
                out.clear();
                n += q.extract_batch(&mut out, 1 + (round % 50) as usize) as u64;
            } else {
                q.extract_max().unwrap();
                n += 1;
            }
        }
        let s = q.stats();
        assert_eq!(s.extracts, n);
        assert!(s.pool_hits > 0 && s.root_extracts > 0, "{s:?}");
        let windows = q
            .batch_ctl
            .as_ref()
            .unwrap()
            .windows
            .load(Ordering::Relaxed);
        assert!(
            windows.abs_diff(n / ADAPT_INTERVAL) <= 1,
            "{n} extractions closed {windows} windows"
        );
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
        // Thread-scoped: concurrent unit tests insert too, and must
        // neither spend the `Once` nor count as hits.
        fault::configure(
            "queue.insert.locked-panic",
            fault::Policy::new(fault::Trigger::Once)
                .with_action(fault::Action::Panic("injected"))
                .on_this_thread(),
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
            fault::Policy::new(fault::Trigger::Once)
                .with_action(fault::Action::Panic("injected"))
                .on_this_thread(),
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
            fault::Policy::new(fault::Trigger::Always).on_this_thread(),
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

    // ------------------------------------------------------------------
    // One table over every admission and extraction entry point
    // ------------------------------------------------------------------

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum InsertCall {
        Insert,
        TryInsert,
        InsertTimeout,
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Fill {
        /// One slot free.
        Room,
        /// At capacity.
        Full,
        /// At capacity and closed.
        Closed,
    }

    /// `(call, policy, fill, result, occupancy, inserts, capacity_hits,
    /// shed_rejected, shed_evicted, producer_waits)`.
    type AdmissionRow = (
        InsertCall,
        ShedPolicy,
        Fill,
        &'static str,
        usize,
        u64,
        u64,
        u64,
        u64,
        u64,
    );

    /// `insert` returns nothing, so its result reads `"ok"` whether the
    /// element was admitted or dropped; `inserts` and `occupancy` tell
    /// the two apart. Capacity is 4; the incoming key outranks every
    /// queued one, so `ShedLowest` always finds a victim.
    #[rustfmt::skip]
    const ADMISSION: &[AdmissionRow] = {
        use Fill::*;
        use InsertCall::*;
        use ShedPolicy::*;
        &[
            (Insert,        Block,      Room,   "ok",      4, 4, 0, 0, 0, 0),
            (Insert,        Reject,     Room,   "ok",      4, 4, 0, 0, 0, 0),
            (Insert,        ShedLowest, Room,   "ok",      4, 4, 0, 0, 0, 0),
            (TryInsert,     Block,      Room,   "ok",      4, 4, 0, 0, 0, 0),
            (TryInsert,     Reject,     Room,   "ok",      4, 4, 0, 0, 0, 0),
            (TryInsert,     ShedLowest, Room,   "ok",      4, 4, 0, 0, 0, 0),
            (InsertTimeout, Block,      Room,   "ok",      4, 4, 0, 0, 0, 0),
            (InsertTimeout, Reject,     Room,   "ok",      4, 4, 0, 0, 0, 0),
            (InsertTimeout, ShedLowest, Room,   "ok",      4, 4, 0, 0, 0, 0),
            // A helper thread extracts one element once the producer parks.
            (Insert,        Block,      Full,   "ok",      4, 5, 1, 0, 0, 1),
            (Insert,        Reject,     Full,   "ok",      4, 4, 1, 1, 0, 0),
            (Insert,        ShedLowest, Full,   "ok",      4, 5, 1, 0, 1, 0),
            (TryInsert,     Block,      Full,   "full",    4, 4, 1, 0, 0, 0),
            (TryInsert,     Reject,     Full,   "full",    4, 4, 1, 0, 0, 0),
            (TryInsert,     ShedLowest, Full,   "ok",      4, 5, 1, 0, 1, 0),
            (InsertTimeout, Block,      Full,   "timeout", 4, 4, 1, 0, 0, 1),
            (InsertTimeout, Reject,     Full,   "full",    4, 4, 1, 0, 0, 0),
            (InsertTimeout, ShedLowest, Full,   "ok",      4, 5, 1, 0, 1, 0),
            // The infallible insert force-admits past capacity once closed.
            (Insert,        Block,      Closed, "ok",      5, 5, 1, 0, 0, 1),
            (Insert,        Reject,     Closed, "ok",      4, 4, 1, 1, 0, 0),
            (Insert,        ShedLowest, Closed, "ok",      4, 5, 1, 0, 1, 0),
            (TryInsert,     Block,      Closed, "closed",  4, 4, 0, 0, 0, 0),
            (TryInsert,     Reject,     Closed, "closed",  4, 4, 0, 0, 0, 0),
            (TryInsert,     ShedLowest, Closed, "closed",  4, 4, 0, 0, 0, 0),
            (InsertTimeout, Block,      Closed, "closed",  4, 4, 0, 0, 0, 0),
            (InsertTimeout, Reject,     Closed, "closed",  4, 4, 0, 0, 0, 0),
            (InsertTimeout, ShedLowest, Closed, "closed",  4, 4, 0, 0, 0, 0),
        ]
    };

    #[test]
    fn admission_table() {
        for &(call, policy, fill, result, occupancy, inserts, hits, rejected, evicted, waits) in
            ADMISSION
        {
            let q = Q::with_config(
                ZmsqConfig::default()
                    .batch(2)
                    .target_len(8)
                    .capacity(4)
                    .shed_policy(policy),
            );
            let prefill = if fill == Fill::Room { 3 } else { 4 };
            for k in 0..prefill {
                q.insert(10 + k, k);
            }
            if fill == Fill::Closed {
                q.close();
            }
            let got = std::thread::scope(|s| {
                if (call, policy, fill) == (InsertCall::Insert, ShedPolicy::Block, Fill::Full) {
                    s.spawn(|| {
                        while q.producer_waiters() == 0 {
                            std::thread::yield_now();
                        }
                        q.extract_max().expect("queue is full");
                    });
                }
                let r = match call {
                    InsertCall::Insert => {
                        q.insert(100, 100);
                        Ok(())
                    }
                    InsertCall::TryInsert => q.try_insert(100, 100),
                    InsertCall::InsertTimeout => {
                        q.insert_timeout(100, 100, std::time::Duration::from_millis(20))
                    }
                };
                match r {
                    Ok(()) => "ok",
                    Err(InsertError::Full(100)) => "full",
                    Err(InsertError::Closed(100)) => "closed",
                    Err(InsertError::Timeout(100)) => "timeout",
                    Err(e) => panic!("element not handed back: {e:?}"),
                }
            });
            let s = q.stats();
            let row = format!("{call:?}/{policy:?}/{fill:?}");
            assert_eq!(got, result, "{row}: result");
            assert_eq!(q.occupancy(), occupancy, "{row}: occupancy");
            assert_eq!(s.inserts, inserts, "{row}: inserts");
            assert_eq!(s.capacity_hits, hits, "{row}: capacity_hits");
            assert_eq!(s.shed_rejected, rejected, "{row}: shed_rejected");
            assert_eq!(s.shed_evicted, evicted, "{row}: shed_evicted");
            assert_eq!(s.producer_waits, waits, "{row}: producer_waits");
        }
    }

    #[test]
    fn extraction_table() {
        const N: u64 = 40;
        type Step = fn(&Q, &mut Vec<(u64, u64)>) -> usize;
        // `(entry point, one call, empty_observed after draining,
        // pool_hits)`: a short batch observes the empty queue once and the
        // call that returns nothing once more.
        //
        // Pool hits by extraction form. The ascending inserts below leave
        // 24..=39 in the root over children holding the evens and the
        // odds of 0..24 (three splits of 8 keys). A merge refill (the
        // single-element forms) pools four of the root's own keys on each
        // of the first three root visits; the fourth (key 24) has nothing
        // left to pool. Then the odds rise to the root, and the refills
        // pool 22, 21, 20, 19 and then the merged top of the two
        // interleaved sets, 4, 4, 4, 1; an eleventh visit takes the last
        // key: 29 hits in 11 visits. `extract_batch` keeps its root takes
        // (the max plus up to four more) and pools only what its call of
        // 3 leaves: 2, 4, 3 from the root's own keys; the visit that takes
        // 24 keeps the root for a second take, 23 and 21, and pools 3;
        // then 2, 4, 3 over the evens and odds, and a last visit takes 3
        // and 1, keeps the root for 2 and pools key 0: 22 hits in 8
        // visits.
        let rows: [(&str, Step, u64, u64); 3] = [
            (
                "extract_max",
                |q, out| q.extract_max().map(|e| out.push(e)).is_some() as usize,
                1,
                29,
            ),
            ("extract_batch", |q, out| q.extract_batch(out, 3), 2, 22),
            (
                "try_extract_if",
                |q, out| q.try_extract_if(0).map(|e| out.push(e)).is_some() as usize,
                1,
                29,
            ),
        ];
        for (name, step, empty_observed, pool_hits) in rows {
            let q = Q::with_config(
                ZmsqConfig::default()
                    .batch(4)
                    .target_len(8)
                    .capacity(64)
                    .rank_estimator(0),
            );
            // Ascending keys always land in the root (each is the new
            // maximum), so the tree, and with it the split between pool
            // hits and root extractions, is the same on every run.
            for k in 0..N {
                q.insert(k, k);
            }
            let mut out = Vec::new();
            let first = step(&q, &mut out);
            assert!(first > 0, "{name}: nothing extracted");
            assert_eq!(q.occupancy(), N as usize - first, "{name}: released");
            while step(&q, &mut out) > 0 {}
            let s = q.stats();
            let mut keys: Vec<u64> = out.iter().map(|&(k, _)| k).collect();
            keys.sort_unstable();
            assert_eq!(keys, (0..N).collect::<Vec<_>>(), "{name}: conservation");
            assert_eq!(s.extracts, N, "{name}: extracts");
            assert_eq!(s.pool_hits, pool_hits, "{name}: pool_hits");
            assert_eq!(s.pool_hits + s.root_extracts, N, "{name}: per element");
            assert_eq!(s.empty_observed, empty_observed, "{name}: empty_observed");
            assert_eq!(q.occupancy(), 0, "{name}: occupancy");
            let sampled = q.rank_estimator().expect("attached").counters().3;
            assert_eq!(sampled, N, "{name}: quality.sampled_extracts");
        }
    }

    /// Every public insert and extract entry point opens the same spans
    /// as a side effect. Checked when the flight recorder is compiled in
    /// (`--features obs-trace`); without it spans do not exist.
    #[test]
    fn entry_points_open_their_spans() {
        if !obs::TRACE_ENABLED {
            return;
        }
        const INSERT: &[&str] = &["insert", "admission", "tree_walk"];
        const EXTRACT: &[&str] = &["extract", "pool_claim"];
        type Call = fn(&Q);
        // `(entry point, bounded queue, call, spans it must open)`; the
        // chunked `insert_batch` runs only unbounded, without admission.
        let rows: [(&str, bool, Call, &[&str]); 8] = [
            ("insert", true, |q| q.insert(1, 1), INSERT),
            ("try_insert", true, |q| q.try_insert(1, 1).unwrap(), INSERT),
            (
                "insert_timeout",
                true,
                |q| {
                    q.insert_timeout(1, 1, std::time::Duration::from_secs(1))
                        .unwrap()
                },
                INSERT,
            ),
            (
                "insert_batch",
                true,
                |q| q.insert_batch(&mut vec![(1, 1)]),
                INSERT,
            ),
            (
                "insert_batch",
                false,
                |q| q.insert_batch(&mut vec![(1, 1)]),
                &["insert", "tree_walk"],
            ),
            (
                "extract_max",
                true,
                |q| assert!(q.extract_max().is_some()),
                EXTRACT,
            ),
            (
                "extract_batch",
                true,
                |q| assert_eq!(q.extract_batch(&mut Vec::new(), 2), 2),
                EXTRACT,
            ),
            (
                "try_extract_if",
                true,
                |q| assert!(q.try_extract_if(0).is_some()),
                EXTRACT,
            ),
        ];
        for (i, (name, bounded, call, spans)) in rows.into_iter().enumerate() {
            let cfg = ZmsqConfig::default().batch(4).target_len(8);
            let q = Q::with_config(if bounded { cfg.capacity(64) } else { cfg });
            for k in 0..20 {
                q.insert(k, k);
            }
            // A fresh thread records into a ring of its own: mark it,
            // make the call, and read back that thread's events only.
            let mark = 0x5BA4_0000 + i as u64;
            std::thread::scope(|s| {
                s.spawn(|| {
                    obs::recorder::record(obs::EventKind::Sample, 0, mark);
                    call(&q);
                });
            });
            let events = obs::recorder::dump();
            let thread = events
                .iter()
                .find(|e| e.kind == obs::EventKind::Sample && e.b == mark)
                .expect("marker recorded")
                .thread;
            let mine: Vec<_> = events.into_iter().filter(|e| e.thread == thread).collect();
            let opened: Vec<&str> = obs::trace::pair_spans(&mine)
                .iter()
                .filter(|e| e.ph == 'X')
                .map(|e| e.name)
                .collect();
            for span in spans {
                assert!(
                    opened.contains(span),
                    "{name}: no {span} span in {opened:?}"
                );
            }
        }
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
