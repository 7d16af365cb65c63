//! Stickiness and per-thread operation buffers ("Engineering
//! MultiQueues", Williams & Sanders): the one relaxation layer every
//! tunable sharded queue runs on.
//!
//! A queue keeps a [`Relax`] as a field and implements [`Shards`] on its
//! shard set; the layer owns the buffers, the slot registry and every
//! flush trigger — overflow, re-sample, explicit [`Relax::flush_all`],
//! [`Relax::close`], and flush-before-report: before a tuned extraction
//! returns `None`, every thread's buffers are published and the queue's
//! direct path retried. DESIGN.md "Stickiness & operation buffers" has
//! the composed accuracy bound and which queue supplies what.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError, Weak};

use crate::slotvec::{thread_tag, SlotVec};

/// Tuning knobs: *stickiness* (a thread reuses its sampled shard for
/// `c` consecutive operations) and per-thread *operation buffers*
/// (inserts and prefetched deletions are staged thread-locally and
/// moved in batches). All default to off, which keeps each queue's
/// direct paths byte-identical. Buffers are invisible to capacity and
/// shedding, so a bounded queue disarms the layer ([`Relax::new`]).
/// Displays as `c{stickiness}-i{insert_buffer}-d{delete_buffer}`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardedConfig {
    stickiness: usize,
    insert_buffer: usize,
    delete_buffer: usize,
}

impl ShardedConfig {
    /// All knobs off (legacy behaviour).
    pub fn new() -> Self {
        Self::default()
    }

    /// Reuse the sampled shard for `c` consecutive operations before
    /// re-sampling. `0` keeps the legacy policy (the queue's own insert
    /// target, fresh pick per extraction); `1` re-samples a random shard
    /// every operation (the classic MultiQueue), larger values amortize
    /// the pick and improve locality at a bounded rank cost.
    pub fn stickiness(mut self, c: usize) -> Self {
        self.stickiness = c;
        self
    }

    /// Stage up to `k` inserts thread-locally before publishing them to
    /// the sticky shard in one batch. `0`/`1` disable staging.
    pub fn insert_buffer(mut self, k: usize) -> Self {
        self.insert_buffer = k;
        self
    }

    /// Prefetch up to `k` elements from the sticky shard per refill and
    /// serve extractions from the thread-local buffer. `0`/`1` disable
    /// prefetching.
    pub fn delete_buffer(mut self, k: usize) -> Self {
        self.delete_buffer = k;
        self
    }

    /// Whether any knob departs from the legacy behaviour.
    pub fn is_tuned(&self) -> bool {
        self.stickiness >= 1 || self.insert_buffer > 1 || self.delete_buffer > 1
    }
}

impl fmt::Display for ShardedConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (c, i, d) = (self.stickiness, self.insert_buffer, self.delete_buffer);
        write!(f, "c{c}-i{i}-d{d}")
    }
}

/// The per-shard operations the layer needs from a queue. Shard indices
/// passed in always come from [`pick_insert`](Self::pick_insert) or
/// [`pick_extract`](Self::pick_extract).
pub trait Shards<V> {
    /// Insert one element into shard `i`.
    fn insert(&self, i: usize, prio: u64, value: V);

    /// Move every element of `items` into shard `i`, leaving it empty.
    fn insert_batch(&self, i: usize, items: &mut Vec<(u64, V)>);

    /// Append up to `want` elements of shard `i` to `out`, in any order;
    /// returns how many. `0` means the shard was empty or contended.
    fn extract_batch(&self, i: usize, out: &mut Vec<(u64, V)>, want: usize) -> usize;

    /// Target shard of a fresh insert run. `sticky` is whether
    /// stickiness is armed; without it only buffering is, and the
    /// target never expires.
    fn pick_insert(&self, sticky: bool) -> usize;

    /// Source shard of a fresh extract run.
    fn pick_extract(&self) -> usize;

    /// The queue's own direct extraction: append up to `want` elements
    /// to `out` and return how many. `0` only if every shard
    /// individually reported empty.
    fn extract_fallback(&self, out: &mut Vec<(u64, V)>, want: usize) -> usize;
}

/// Per-`(thread, instance)` operation buffer.
struct OpBuf<V> {
    /// Staged inserts bound for `ins_shard`.
    ins: Vec<(u64, V)>,
    /// Prefetched extractions, sorted ascending by priority (pop from
    /// the end yields the buffer's max).
    del: Vec<(u64, V)>,
    /// Sticky insert target and operations left in the current run.
    ins_shard: usize,
    ins_left: usize,
    /// Sticky extract source and operations left in the current run.
    del_shard: usize,
    del_left: usize,
}

/// One registered `(thread, instance)` buffer slot, queue-owned so
/// flushes reach it without the owning thread's help (the k-LSM
/// thread-local-spill model). `owner` is the owning thread's tag, or
/// [`FREE_SLOT`] while the slot sits on the registry's free list; it
/// becomes `FREE_SLOT` only under the `buf` mutex, so a user that
/// re-checks `owner` after locking ([`Relax::my_buf`]) cannot race a
/// reclaim.
struct BufSlot<V> {
    owner: AtomicU64,
    buf: Mutex<OpBuf<V>>,
}

/// `owner` value of an unowned slot ([`thread_tag`] starts at 1).
const FREE_SLOT: u64 = 0;

/// Type-erased handle through which the per-thread slot cache, shared
/// by every queue and element type, returns an evicted slot to its
/// registry.
trait SlotTryFree: Send + Sync {
    /// Free `slot` iff both its buffers are empty and `owner` still
    /// owns it; returns whether it was freed. A slot with staged
    /// elements stays owned: the owner finds it again by tag scan.
    fn try_free(&self, slot: usize, owner: u64) -> bool;
}

impl<V: Send + 'static> SlotTryFree for SlotVec<BufSlot<V>> {
    fn try_free(&self, slot: usize, owner: u64) -> bool {
        if slot >= self.len() {
            return false;
        }
        let s = self.get(slot);
        let b = lock_buf(&s.buf);
        if !b.ins.is_empty() || !b.del.is_empty() {
            return false;
        }
        if s.owner
            .compare_exchange(owner, FREE_SLOT, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        drop(b);
        self.release(slot);
        true
    }
}

/// Source of process-unique layer ids keying the per-thread slot cache.
static INSTANCE_IDS: AtomicU64 = AtomicU64::new(1);

/// Capacity of the per-thread slot cache; beyond it the oldest entry is
/// evicted.
const SLOT_CACHE_CAP: usize = 64;

/// One slot-cache entry: which slot of which layer this thread owns,
/// and the handle eviction frees it through (dead once the layer is
/// dropped, making eviction a no-op).
struct CachedBufSlot {
    instance: u64,
    slot: usize,
    registry: Weak<dyn SlotTryFree>,
}

thread_local! {
    static BUF_SLOTS: RefCell<Vec<CachedBufSlot>> = const { RefCell::new(Vec::new()) };
}

/// Lock a buffer slot without OS-blocking: the critical sections run
/// shard operations with det yield points, so a blocking `lock()` could
/// deadlock the det scheduler's token gate; outside det this is a short
/// spin (a thread meets a foreign slot only when flushing or reaping).
/// A poisoned slot (a panic mid-flush) is taken over: the buffer is
/// still valid, only the in-flight element was lost.
fn lock_buf<V>(m: &Mutex<OpBuf<V>>) -> MutexGuard<'_, OpBuf<V>> {
    loop {
        match m.try_lock() {
            Ok(g) => return g,
            Err(TryLockError::Poisoned(p)) => return p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                det::det_point!("shard.buf-wait");
                std::hint::spin_loop();
            }
        }
    }
}

/// The relaxation layer of one queue instance: its tuning, the
/// per-thread operation buffers and their counters.
pub struct Relax<V> {
    cfg: ShardedConfig,
    /// Whether inserts / extractions route through the layer.
    fast_ins: bool,
    fast_del: bool,
    /// Process-unique id keying the per-thread slot cache.
    instance: u64,
    /// One buffer slot per registered thread; `Arc` so cache entries can
    /// hold a [`Weak`] to it.
    bufs: Arc<SlotVec<BufSlot<V>>>,
    /// Elements staged in insert / delete buffers.
    pending_ins: AtomicUsize,
    pending_del: AtomicUsize,
    /// Insert-buffer publishes and delete-buffer refills
    /// (`buf.insert_flushes`, `buf.delete_refills`).
    insert_flushes: AtomicU64,
    delete_refills: AtomicU64,
}

impl<V: Send + 'static> Relax<V> {
    /// A layer running `cfg`. `unbounded` is false for a queue with an
    /// admission bound, which keeps both sides disarmed.
    pub fn new(cfg: ShardedConfig, unbounded: bool) -> Self {
        Self {
            cfg,
            fast_ins: unbounded && (cfg.stickiness >= 1 || cfg.insert_buffer > 1),
            // *Any* tuning arms the extract side: even insert-only
            // buffering stages elements the direct path cannot see, so
            // extractions must run the flush-before-report loop for
            // `None` to keep meaning "no element is hiding in a buffer".
            fast_del: unbounded && cfg.is_tuned(),
            instance: INSTANCE_IDS.fetch_add(1, Ordering::Relaxed),
            bufs: Arc::new(SlotVec::new()),
            pending_ins: AtomicUsize::new(0),
            pending_del: AtomicUsize::new(0),
            insert_flushes: AtomicU64::new(0),
            delete_refills: AtomicU64::new(0),
        }
    }

    /// The tuning this layer runs with.
    pub fn config(&self) -> ShardedConfig {
        self.cfg
    }

    /// Whether inserts go through [`insert`](Self::insert).
    pub fn routes_inserts(&self) -> bool {
        self.fast_ins
    }

    /// Whether extractions go through [`extract_max`](Self::extract_max)
    /// and [`extract_batch`](Self::extract_batch).
    pub fn routes_extracts(&self) -> bool {
        self.fast_del
    }

    /// Elements staged in buffers: staged inserts are not yet in any
    /// shard, prefetched deletions are out of theirs but not yet handed
    /// to a caller — both are still *in the queue*.
    pub fn pending(&self) -> usize {
        self.pending_ins.load(Ordering::Relaxed) + self.pending_del.load(Ordering::Relaxed)
    }

    /// The calling thread's slot index, registering on a cache miss: a
    /// slot this thread already owns (its cache entry was merely
    /// evicted) first, then a freed slot, and only then a new one. The
    /// evicted cache entry's slot is freed if empty, so a thread cycling
    /// through many live instances leaves no dead slots behind. The
    /// index is a hint — the close-time reaper may free it concurrently
    /// — so lock-holding users go through [`my_buf`](Self::my_buf).
    fn buf_slot(&self) -> usize {
        let me = thread_tag();
        BUF_SLOTS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some(pos) = cache.iter().position(|e| e.instance == self.instance) {
                let slot = cache[pos].slot;
                if self.bufs.get(slot).owner.load(Ordering::Acquire) == me {
                    return slot;
                }
                cache.remove(pos); // reaped at close: re-register
            }
            let slot = (0..self.bufs.len())
                .find(|&i| self.bufs.get(i).owner.load(Ordering::Acquire) == me)
                .or_else(|| {
                    // The free-list pop is an exclusive claim.
                    let i = self.bufs.try_acquire()?;
                    self.bufs.get(i).owner.store(me, Ordering::Release);
                    Some(i)
                })
                .unwrap_or_else(|| {
                    self.bufs.push(BufSlot {
                        owner: AtomicU64::new(me),
                        buf: Mutex::new(OpBuf {
                            ins: Vec::new(),
                            del: Vec::new(),
                            ins_shard: 0,
                            ins_left: 0,
                            del_shard: 0,
                            del_left: 0,
                        }),
                    })
                });
            if cache.len() >= SLOT_CACHE_CAP {
                let old = cache.remove(0);
                if let Some(reg) = old.registry.upgrade() {
                    reg.try_free(old.slot, me);
                }
            }
            cache.push(CachedBufSlot {
                instance: self.instance,
                slot,
                registry: Arc::downgrade(&self.bufs) as Weak<dyn SlotTryFree>,
            });
            slot
        })
    }

    /// Lock the calling thread's slot, re-validating ownership under the
    /// lock (slots are freed only under it); on a lost race with the
    /// reaper, drop the stale cache entry and register again.
    fn my_buf(&self) -> MutexGuard<'_, OpBuf<V>> {
        let me = thread_tag();
        loop {
            let slot = self.bufs.get(self.buf_slot());
            let b = lock_buf(&slot.buf);
            if slot.owner.load(Ordering::Acquire) == me {
                return b;
            }
            drop(b);
            BUF_SLOTS.with(|c| c.borrow_mut().retain(|e| e.instance != self.instance));
        }
    }

    /// Publish a buffer's staged inserts to its sticky shard. Called
    /// with the slot lock held.
    fn flush_ins<Q: Shards<V>>(&self, q: &Q, b: &mut OpBuf<V>) {
        if b.ins.is_empty() {
            return;
        }
        fault::fail_point!("shard.flush-delay");
        let n = b.ins.len();
        q.insert_batch(b.ins_shard, &mut b.ins);
        // Decrement only after the publish: a racing `pending` then
        // transiently overcounts instead of reporting 0 on a non-empty
        // queue.
        self.pending_ins.fetch_sub(n, Ordering::Relaxed);
        self.insert_flushes.fetch_add(1, Ordering::Relaxed);
    }

    /// Return a buffer's prefetched-but-unclaimed extractions to the
    /// shard they came from, making them claimable by other threads.
    fn unprefetch_del<Q: Shards<V>>(&self, q: &Q, b: &mut OpBuf<V>) {
        if b.del.is_empty() {
            return;
        }
        fault::fail_point!("shard.flush-delay");
        let n = b.del.len();
        q.insert_batch(b.del_shard, &mut b.del);
        self.pending_del.fetch_sub(n, Ordering::Relaxed); // after, as above
        b.del_left = 0; // the sticky run is stale once its prefetch left
    }

    /// Publish every thread's staged operations (staged inserts to their
    /// sticky shards, prefetched extractions back to theirs) and return
    /// how many elements moved. Locks one slot at a time, so concurrent
    /// flushers cannot deadlock; the caller must not hold a slot lock.
    pub fn flush_all<Q: Shards<V>>(&self, q: &Q) -> usize {
        let mut moved = 0;
        for slot in self.bufs.iter() {
            let mut b = lock_buf(&slot.buf);
            moved += b.ins.len() + b.del.len();
            self.flush_ins(q, &mut b);
            self.unprefetch_del(q, &mut b);
        }
        moved
    }

    /// Flush before the queue closes its shards, then reap every emptied
    /// slot onto the free list (owners re-validate and re-register). The
    /// `shard.skip-close-flush` failpoint deletes exactly this step — the
    /// det mutation check's target.
    pub fn close<Q: Shards<V>>(&self, q: &Q) {
        fault::fail_point!("shard.skip-close-flush", return);
        self.flush_all(q);
        for i in 0..self.bufs.len() {
            let owner = self.bufs.get(i).owner.load(Ordering::Acquire);
            if owner != FREE_SLOT {
                self.bufs.try_free(i, owner);
            }
        }
    }

    /// Tuned insert: stage in the thread's insert buffer (or insert
    /// straight into the sticky shard when unbuffered). Publishes on
    /// overflow and when the sticky run ends (before the target moves).
    pub fn insert<Q: Shards<V>>(&self, q: &Q, prio: u64, value: V) {
        let mut b = self.my_buf();
        if b.ins_left == 0 {
            self.flush_ins(q, &mut b); // flush-on-resample
            b.ins_shard = q.pick_insert(self.cfg.stickiness >= 1);
            // Stickiness off: the target never moves, so the run never
            // expires (overflow still bounds the buffer).
            b.ins_left = match self.cfg.stickiness {
                0 => usize::MAX,
                c => c,
            };
        }
        b.ins_left -= 1;
        if self.cfg.insert_buffer > 1 {
            b.ins.push((prio, value));
            self.pending_ins.fetch_add(1, Ordering::Relaxed);
            if b.ins.len() >= self.cfg.insert_buffer {
                self.flush_ins(q, &mut b); // flush-on-overflow
            }
        } else {
            let s = b.ins_shard;
            drop(b); // don't hold the slot lock across the shard insert
            q.insert(s, prio, value);
        }
    }

    /// Tuned extraction: serve the thread's delete buffer, refilling it
    /// from the sticky shard (re-picked every `stickiness` refills), or
    /// through the queue's direct path once that shard runs dry.
    pub fn extract_max<Q: Shards<V>>(&self, q: &Q) -> Option<(u64, V)> {
        let mut b = self.my_buf();
        if let Some(got) = b.del.pop() {
            self.pending_del.fetch_sub(1, Ordering::Relaxed);
            return Some(got);
        }
        if b.del_left == 0 {
            b.del_shard = q.pick_extract();
            b.del_left = self.cfg.stickiness.max(1);
        }
        b.del_left -= 1;
        let want = self.cfg.delete_buffer.max(1);
        let mut got = q.extract_batch(b.del_shard, &mut b.del, want);
        if got == 0 {
            b.del_left = 0; // sticky shard dry: drop the run
            got = q.extract_fallback(&mut b.del, want);
        }
        if got > 0 {
            self.delete_refills.fetch_add(1, Ordering::Relaxed);
            if got > 1 {
                b.del.sort_unstable_by_key(|&(p, _)| p);
                self.pending_del.fetch_add(got - 1, Ordering::Relaxed);
            }
            return b.del.pop();
        }
        drop(b);
        let mut one = Vec::new();
        self.flush_then_retry(q, &mut one, 1);
        one.pop()
    }

    /// Tuned batched extraction: the thread's delete buffer first, then
    /// the queue's direct path, flushing before an empty report.
    pub fn extract_batch<Q: Shards<V>>(&self, q: &Q, out: &mut Vec<(u64, V)>, n: usize) -> usize {
        let mut got = 0;
        {
            let mut b = self.my_buf();
            while got < n {
                let Some(e) = b.del.pop() else { break };
                out.push(e);
                got += 1;
            }
            if got > 0 {
                self.pending_del.fetch_sub(got, Ordering::Relaxed);
            }
        }
        if got < n {
            got += q.extract_fallback(out, n - got);
        }
        if got == 0 && n > 0 {
            got = self.flush_then_retry(q, out, n);
        }
        got
    }

    /// Flush-before-report: every shard reported empty, but elements may
    /// hide in (other threads') buffers. Publish them and retry the
    /// direct path until it finds something or a flush moves nothing.
    fn flush_then_retry<Q: Shards<V>>(&self, q: &Q, out: &mut Vec<(u64, V)>, n: usize) -> usize {
        loop {
            let moved = self.flush_all(q);
            let got = q.extract_fallback(out, n);
            if got > 0 || moved == 0 {
                return got;
            }
        }
    }

    /// Whether [`export`](Self::export) reports: either side is armed,
    /// or a slot exists anyway — which a disarmed queue's paths never
    /// register, so `buf.threads` reveals one that enters the layer.
    pub fn has_metrics(&self) -> bool {
        self.fast_ins || self.fast_del || !self.bufs.is_empty()
    }

    /// Append the `buf.*` gauges and counters to `snap` when
    /// [`has_metrics`](Self::has_metrics).
    pub fn export(&self, snap: &mut obs::Snapshot) {
        if !self.has_metrics() {
            return;
        }
        let load = |a: &AtomicUsize| a.load(Ordering::Relaxed) as i64;
        let count = |a: &AtomicU64| a.load(Ordering::Relaxed);
        snap.push_gauge("buf.threads", self.bufs.len() as i64);
        snap.push_gauge("buf.free_slots", self.bufs.free_count() as i64);
        snap.push_gauge("buf.pending_inserts", load(&self.pending_ins));
        snap.push_gauge("buf.pending_deletes", load(&self.pending_del));
        snap.push_counter("buf.insert_flushes", count(&self.insert_flushes));
        snap.push_counter("buf.delete_refills", count(&self.delete_refills));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    /// The smallest shard set the layer runs on: heaps behind mutexes,
    /// inserts picked round-robin, extractions from the highest top.
    struct Heaps {
        heaps: Vec<Mutex<BinaryHeap<(u64, u64)>>>,
        next: AtomicUsize,
    }

    impl Heaps {
        fn new(n: usize) -> Self {
            Self {
                heaps: (0..n).map(|_| Mutex::new(BinaryHeap::new())).collect(),
                next: AtomicUsize::new(0),
            }
        }

        fn len(&self, i: usize) -> usize {
            self.heaps[i].lock().unwrap().len()
        }

        fn total(&self) -> usize {
            (0..self.heaps.len()).map(|i| self.len(i)).sum()
        }
    }

    impl Shards<u64> for Heaps {
        fn insert(&self, i: usize, prio: u64, value: u64) {
            self.heaps[i].lock().unwrap().push((prio, value));
        }

        fn insert_batch(&self, i: usize, items: &mut Vec<(u64, u64)>) {
            self.heaps[i].lock().unwrap().extend(items.drain(..));
        }

        /// Hands the batch out rotated, so it arrives unsorted and the
        /// layer's own ordering is what the tests observe.
        fn extract_batch(&self, i: usize, out: &mut Vec<(u64, u64)>, want: usize) -> usize {
            let mut h = self.heaps[i].lock().unwrap();
            let start = out.len();
            while out.len() - start < want {
                match h.pop() {
                    Some(e) => out.push(e),
                    None => break,
                }
            }
            let got = out.len() - start;
            out[start..].rotate_left(1.min(got));
            got
        }

        fn pick_insert(&self, _sticky: bool) -> usize {
            self.next.fetch_add(1, Ordering::Relaxed) % self.heaps.len()
        }

        fn pick_extract(&self) -> usize {
            (0..self.heaps.len())
                .max_by_key(|&i| self.heaps[i].lock().unwrap().peek().copied())
                .unwrap()
        }

        fn extract_fallback(&self, out: &mut Vec<(u64, u64)>, want: usize) -> usize {
            let mut got = 0;
            for i in 0..self.heaps.len() {
                got += self.extract_batch(i, out, want - got);
                if got == want {
                    break;
                }
            }
            got
        }
    }

    fn layer(stickiness: usize, insert_buffer: usize, delete_buffer: usize) -> Relax<u64> {
        let cfg = ShardedConfig::new()
            .stickiness(stickiness)
            .insert_buffer(insert_buffer)
            .delete_buffer(delete_buffer);
        Relax::new(cfg, true)
    }

    fn exported(r: &Relax<u64>) -> obs::Snapshot {
        let mut snap = obs::Snapshot::default();
        r.export(&mut snap);
        snap
    }

    fn drain(r: &Relax<u64>, q: &Heaps) -> usize {
        let mut n = 0;
        while r.extract_max(q).is_some() {
            n += 1;
        }
        n
    }

    #[test]
    fn arming_follows_tuning_and_bound() {
        let off = layer(0, 0, 0);
        assert!(!off.routes_inserts() && !off.routes_extracts());
        assert!(exported(&off).gauge("buf.threads").is_none());
        // Insert-only buffering still arms the extract side: its
        // flush-before-report is what keeps `None` honest.
        let ins = layer(0, 4, 0);
        assert!(ins.routes_inserts() && ins.routes_extracts());
        let del = layer(0, 0, 4);
        assert!(!del.routes_inserts() && del.routes_extracts());
        let bounded = Relax::<u64>::new(ShardedConfig::new().stickiness(8), false);
        assert!(!bounded.routes_inserts() && !bounded.routes_extracts());
    }

    /// A disarmed layer exports nothing until a slot is registered, and
    /// then `buf.threads` shows it: queues' tests rely on this to prove
    /// their untuned paths never enter the layer.
    #[test]
    fn export_reveals_a_slot_registered_while_disarmed() {
        let (off, q) = (layer(0, 0, 0), Heaps::new(2));
        assert!(!off.has_metrics());
        off.insert(&q, 1, 1);
        assert!(off.has_metrics());
        assert_eq!(exported(&off).gauge("buf.threads"), Some(1));
        assert_eq!(q.total(), 1);
    }

    #[test]
    fn overflow_flush_publishes_the_whole_buffer() {
        let (q, r) = (Heaps::new(2), layer(0, 4, 0));
        for i in 0..3 {
            r.insert(&q, i, i);
        }
        assert_eq!((r.pending(), q.total()), (3, 0), "staged, not published");
        r.insert(&q, 3, 3);
        assert_eq!((r.pending(), q.len(0)), (0, 4), "one batch, one shard");
        let snap = exported(&r);
        assert_eq!(snap.counter("buf.insert_flushes"), Some(1));
        assert_eq!(snap.gauge("buf.pending_inserts"), Some(0));
    }

    #[test]
    fn resample_flush_publishes_to_the_old_target() {
        let (q, r) = (Heaps::new(2), layer(2, 8, 0));
        r.insert(&q, 1, 1);
        r.insert(&q, 2, 2);
        assert_eq!(q.total(), 0, "run of 2 still staged");
        r.insert(&q, 3, 3); // run over: flush to shard 0, re-pick
        assert_eq!((q.len(0), q.len(1), r.pending()), (2, 0, 1));
    }

    #[test]
    fn sticky_unbuffered_run_stays_on_one_shard() {
        let (q, r) = (Heaps::new(2), layer(4, 0, 0));
        for i in 0..4 {
            r.insert(&q, i, i);
        }
        assert_eq!((q.len(0), q.len(1)), (4, 0));
        for i in 0..4 {
            r.insert(&q, i, i);
        }
        assert_eq!((q.len(0), q.len(1)), (4, 4));
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn explicit_flush_returns_staged_and_prefetched() {
        let (q, r) = (Heaps::new(2), layer(0, 64, 8));
        for i in 0..20 {
            q.insert(1, 100 + i, i);
        }
        assert!(r.extract_max(&q).is_some()); // prefetches 8, serves 1
        for i in 0..5 {
            r.insert(&q, i, i);
        }
        assert_eq!(r.pending(), 7 + 5);
        assert_eq!(r.flush_all(&q), 12);
        assert_eq!((r.pending(), q.total()), (0, 24));
    }

    #[test]
    fn delete_buffer_serves_in_priority_order() {
        let (q, r) = (Heaps::new(2), layer(0, 0, 8));
        for i in 0..8 {
            q.insert(0, i, i);
        }
        let got: Vec<u64> = (0..8).map(|_| r.extract_max(&q).unwrap().0).collect();
        assert_eq!(got, [7, 6, 5, 4, 3, 2, 1, 0]);
        assert_eq!(exported(&r).counter("buf.delete_refills"), Some(1));
    }

    #[test]
    fn flush_before_report_reaches_foreign_buffers() {
        let q = Arc::new(Heaps::new(2));
        let r = Arc::new(layer(4, 4, 4));
        for i in 0..10 {
            q.insert(0, i, i);
        }
        let (q2, r2) = (Arc::clone(&q), Arc::clone(&r));
        std::thread::spawn(move || {
            assert!(r2.extract_max(&*q2).is_some()); // prefetches 4
            r2.insert(&*q2, 99, 99); // stays staged
        })
        .join()
        .unwrap();
        assert_eq!(r.pending(), 4, "3 prefetched + 1 staged, all foreign");
        assert_eq!(drain(&r, &q), 10, "elements stranded in a foreign buffer");
        assert_eq!(r.pending() + q.total(), 0);
        // The batch API reports the same way.
        let ins = layer(0, 8, 0);
        ins.insert(&*q, 1, 1);
        let mut out = Vec::new();
        assert_eq!(ins.extract_batch(&*q, &mut out, 4), 1);
        assert_eq!(ins.extract_batch(&*q, &mut out, 4), 0);
    }

    #[test]
    fn evicted_thread_reuses_its_slot() {
        let (q, r) = (Heaps::new(2), layer(0, 8, 0));
        r.insert(&q, 1, 1);
        BUF_SLOTS.with(|c| c.borrow_mut().clear());
        r.insert(&q, 2, 2);
        assert_eq!(r.bufs.len(), 1, "re-registration must reuse the slot");
        assert_eq!(drain(&r, &q), 2);
    }

    #[test]
    fn eviction_frees_only_empty_slots() {
        let q = Heaps::new(2);
        let (empty, staged) = (layer(0, 8, 0), layer(0, 8, 0));
        empty.insert(&q, 1, 1);
        assert_eq!(empty.extract_max(&q), Some((1, 1)));
        staged.insert(&q, 2, 2);
        // Touching SLOT_CACHE_CAP more layers evicts both entries.
        let others: Vec<_> = (0..SLOT_CACHE_CAP).map(|_| layer(0, 8, 0)).collect();
        for o in &others {
            o.insert(&q, 3, 3);
            assert_eq!(o.extract_max(&q), Some((3, 3)));
        }
        assert_eq!(empty.bufs.free_count(), 1, "empty slot not freed");
        assert_eq!(staged.bufs.free_count(), 0, "staged slot freed");
        // The staged element is still reachable, and its owner found
        // its old slot again instead of registering a new one.
        assert_eq!(staged.extract_max(&q), Some((2, 2)));
        assert_eq!(staged.bufs.len(), 1);
        // Another thread claims the freed slot instead of growing.
        std::thread::scope(|s| {
            s.spawn(|| empty.insert(&q, 4, 4));
        });
        assert_eq!((empty.bufs.len(), empty.bufs.free_count()), (1, 0));
    }

    #[test]
    fn close_publishes_reaps_and_reregisters() {
        let (q, r) = (Heaps::new(2), layer(0, 8, 0));
        r.insert(&q, 1, 1);
        r.close(&q);
        assert_eq!((r.pending(), q.total()), (0, 1), "close publishes");
        assert_eq!(r.bufs.free_count(), 1, "close reaps the emptied slot");
        // The cache entry is stale now; the lock-then-revalidate path
        // re-registers by reclaiming the freed slot.
        r.insert(&q, 2, 2);
        assert_eq!((r.bufs.len(), r.bufs.free_count()), (1, 0));
        assert_eq!(r.pending(), 1);
    }

    #[test]
    fn concurrent_roundtrip_conserves() {
        let (q, r) = (Heaps::new(4), layer(8, 8, 8));
        let got = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (q, r, got) = (&q, &r, &got);
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        r.insert(q, (t * 2_000 + i) % 777, i);
                        if i % 2 == 0 && r.extract_max(q).is_some() {
                            got.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(got.into_inner() + drain(&r, &q), 8_000);
        assert_eq!(r.pending() + q.total(), 0);
    }
}
