//! The shared extraction pool (§3.3, Listing 2).
//!
//! When `batch > 0`, a root extraction moves up to `batch` of the root
//! set's best elements into the pool; subsequent `extract_max` calls claim
//! one with a single `fetch_sub` on `poolNext` — no tree access, no lock.
//! Slots are filled in ascending priority order so the highest index
//! (claimed first) holds the best element.
//!
//! A slot is EMPTY or FULL. Only the refiller, serialized by the root
//! lock, turns slots FULL, and it publishes a fill with one store to
//! `next`. A claimant reserves indexes with a `fetch_sub` on `next`
//! (single and batched claims) or a CAS (the conditional claim), then
//! reads each value, marks its slot EMPTY and counts the read in
//! `consumed`. A buffer whose `consumed` has reached the size of its
//! last fill is *drained*: no claimant is still reading it, so it may be
//! refilled (Listing 2 line 8).
//!
//! Three reclamation disciplines cover the paper's design space:
//!
//! * **ConsumerWait** (the default) — a ring of reusable buffers, each
//!   sized `batch_max`, none freed before the pool drops. A claim is one
//!   Acquire load of the current-buffer pointer plus the `fetch_sub`: no
//!   hazard, no retire, no allocation. The refiller (root lock held)
//!   refills the current buffer in place if it is drained, else any
//!   other drained buffer, and only when every buffer still has a
//!   claimant mid-read does it allocate a spare and append it; then it
//!   publishes the chosen buffer as current. The paper's lagging-consumer
//!   wait is thus *checked* instead of awaited: the refiller never spins
//!   under the root lock, so a claimant preempted mid-read stalls nobody.
//! * **Hazard** — each refill publishes a fresh buffer and retires the old
//!   one into an [`smr::Domain`]; consumers protect the buffer pointer
//!   ("ZMSQ" in the paper's figures).
//! * **Leak** — fresh buffer per refill, old ones leaked ("ZMSQ (leak)").
//!
//! # Why the ring is safe
//!
//! * Every non-current buffer is exhausted (`next < 0`): the refiller only
//!   runs when the current buffer is exhausted, and it sets `next` only on
//!   the buffer it is about to make current. A stale claimant that loaded
//!   an old current pointer therefore fails its `fetch_sub` on it.
//! * Once such a buffer is refilled, its elements are pool elements, so a
//!   stale claimant that reaches it after the refill claims a legitimate
//!   element. Each index of a fill is still claimed exactly once, by the
//!   `fetch_sub` (or CAS) on `next`.
//! * A buffer is refilled only when drained, i.e. after every claimant of
//!   its last fill has read its slots; `consumed`'s Release increment and
//!   the refiller's Acquire load order those reads before the overwrite.
//! * A buffer that is not drained is pinned by a thread inside its claimed
//!   window, and a thread is inside at most one. The ring grows only when
//!   every buffer is pinned, so it holds at most 1 + (concurrent
//!   claimants) buffers.
//!
//! # Fault injection (`--features fault-inject`)
//!
//! * `pool.claim-delay` — fires between a claimant's unique `fetch_sub`
//!   on `next` and its read of the slot value, stretching exactly the
//!   window the drained check exists to cover (Listing 2 line 8). Under
//!   it the ring must grow past one buffer and stay within its bound.
//! * `pool.refill-delay` — fires between the refiller writing the slots
//!   and publishing them via the `next` store, widening the window in
//!   which consumers see an exhausted pool that is about to be refilled.
//! * `pool.skip-consumer-wait` — makes the drained check answer "drained"
//!   regardless, reintroducing the Listing 2 line 8 bug: the refiller
//!   overwrites the current buffer under a lagging claimant. Used by the
//!   deterministic and chaos suites' mutation checks to prove their
//!   oracles detect the resulting overwrite race.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicIsize, AtomicPtr, AtomicU64, AtomicU8, AtomicUsize, Ordering};

use zmsq_sync::CachePadded;

const SLOT_EMPTY: u8 = 0;
const SLOT_FULL: u8 = 1;

struct Slot<V> {
    state: AtomicU8,
    /// Copy of the slot's priority, readable without claiming — enables
    /// the conditional-extraction peek (§1's "non-blocking conditional
    /// extraction").
    prio: AtomicU64,
    value: UnsafeCell<MaybeUninit<(u64, V)>>,
}

// SAFETY: slot values are transferred with unique ownership — written only
// by the (serialized) refiller into consumed slots, read exactly once by
// the unique claimant of that index.
unsafe impl<V: Send> Sync for Slot<V> {}
unsafe impl<V: Send> Send for Slot<V> {}

/// One pool buffer, reusable across fills.
pub(crate) struct PoolBuf<V> {
    /// Index of the next slot to claim; negative = exhausted. Decremented
    /// by every claimant (`poolNext` in the paper).
    next: CachePadded<AtomicIsize>,
    /// Slots fully consumed (value read) this generation.
    consumed: CachePadded<AtomicUsize>,
    /// Size of the current fill. Written by the serialized refiller.
    published: AtomicUsize,
    slots: Box<[Slot<V>]>,
}

impl<V: Send> PoolBuf<V> {
    pub fn new(cap: usize) -> Self {
        Self {
            next: CachePadded::new(AtomicIsize::new(-1)),
            consumed: CachePadded::new(AtomicUsize::new(0)),
            published: AtomicUsize::new(0),
            slots: (0..cap)
                .map(|_| Slot {
                    state: AtomicU8::new(SLOT_EMPTY),
                    prio: AtomicU64::new(0),
                    value: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
        }
    }

    /// Whether unclaimed items remain.
    #[inline]
    pub fn has_items(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= 0
    }

    /// Whether every slot of the last fill has been read, so no claimant
    /// is still inside this buffer — the Listing 2 line 8 condition,
    /// checked instead of awaited. Meaningful to the refiller (root lock
    /// held) on an exhausted buffer, whose `consumed` can only grow.
    #[inline]
    fn is_drained(&self) -> bool {
        // Mutation target for the det and chaos suites: firing this point
        // answers "drained" under a lagging claimant, reintroducing the
        // overwrite race the check exists to prevent. The suites must
        // then catch torn reads — proof their oracles can fail.
        fault::fail_point!("pool.skip-consumer-wait", return true);
        // Acquire pairs with each consumer's release increment.
        self.consumed.load(Ordering::Acquire) >= self.published.load(Ordering::Relaxed)
    }

    /// Read the claimed slots `top`, `top - 1`, … (`n` of them, in
    /// hand-out order) into `take`, mark them EMPTY and account the reads
    /// in `consumed`.
    ///
    /// # Safety
    ///
    /// The caller uniquely claimed indexes `top + 1 - n ..= top` of the
    /// current generation (by `fetch_sub` or CAS on `next`), and the
    /// refiller filled them before publishing.
    #[inline(always)]
    unsafe fn read_claimed(&self, top: usize, n: usize, mut take: impl FnMut((u64, V))) {
        // Chaos: a lagging consumer — claimed its indexes but has not yet
        // read the values. Safe only because the refiller reuses a buffer
        // once drained, i.e. after `consumed` counts this read.
        fault::fail_point!("pool.claim-delay");
        det::det_point!("pool.claim-window");
        for slot in self.slots[top + 1 - n..=top].iter().rev() {
            debug_assert_eq!(slot.state.load(Ordering::Relaxed), SLOT_FULL);
            // SAFETY: claimed by this thread alone (caller contract), and
            // nobody refills it until `consumed` accounts for the read.
            let item = unsafe { (*slot.value.get()).assume_init_read() };
            // EMPTY first: if `take` unwinds, the slot must not own `item`.
            slot.state.store(SLOT_EMPTY, Ordering::Relaxed);
            take(item);
        }
        // Release: the value reads above must be ordered before the
        // refiller (which acquires `consumed`) reuses the slots.
        self.consumed.fetch_add(n, Ordering::Release);
    }

    /// Claim one element, if any remain.
    #[inline]
    pub fn try_claim(&self) -> Option<(u64, V)> {
        let mut got = None;
        self.try_claim_with(1, |item| got = Some(item));
        got
    }

    /// Claim up to `want` elements in **one** `fetch_sub`, appending them
    /// to `out` in hand-out (descending-priority) order. Returns how many
    /// were claimed — `0` when the pool is exhausted.
    ///
    /// This is the batched-extraction fast path: a claimant that wants
    /// `want` elements reserves the index range `[top - want + 1, top]`
    /// atomically instead of issuing `want` contended RMWs. Indexes below
    /// zero in the reserved range simply shrink the claim (exactly like a
    /// single claim losing the race to exhaustion).
    pub fn try_claim_many(&self, out: &mut Vec<(u64, V)>, want: usize) -> usize {
        debug_assert!(want > 0);
        // No claim gets more than a fill; capped, `want` also stays clear
        // of `isize` overflow in the `fetch_sub`.
        self.try_claim_with(want.min(self.slots.len()), |item| out.push(item))
    }

    /// The `fetch_sub` claim behind [`try_claim`](Self::try_claim) and
    /// [`try_claim_many`](Self::try_claim_many).
    #[inline(always)]
    fn try_claim_with(&self, want: usize, take: impl FnMut((u64, V))) -> usize {
        // Cheap pre-check avoids driving `next` deeply negative (and a
        // wasted RMW) when the pool is dry — the common case between
        // refills under extraction-heavy load.
        if self.next.load(Ordering::Relaxed) < 0 {
            return 0;
        }
        // AcqRel: acquire pairs with the refiller's release publish of
        // `next`, making the slot writes visible.
        let top = self.next.fetch_sub(want as isize, Ordering::AcqRel);
        if top < 0 {
            return 0;
        }
        let got = ((top + 1) as usize).min(want);
        // SAFETY: the fetch_sub reserved `top + 1 - want ..= top`
        // exclusively for this thread this generation; the part at or
        // above zero was filled before publish.
        unsafe { self.read_claimed(top as usize, got, take) };
        got
    }

    /// Conditional claim: take the pool's current best element only if
    /// its priority is at least `min_prio`.
    ///
    /// An ABA race on `next` (exhaust + refill landing on the same index
    /// between peek and claim) can hand us a below-threshold element; the
    /// caller must re-check the returned priority and compensate (the
    /// queue reinserts it — rare, and semantics stay relaxed).
    pub fn try_claim_if(&self, min_prio: u64) -> ClaimIf<(u64, V)> {
        loop {
            let idx = self.next.load(Ordering::Acquire);
            if idx < 0 {
                return ClaimIf::Exhausted;
            }
            let top = self.slots[idx as usize].prio.load(Ordering::Acquire);
            if top < min_prio {
                return ClaimIf::Below;
            }
            if self
                .next
                .compare_exchange_weak(idx, idx - 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                let mut got = None;
                // SAFETY: the successful CAS uniquely claimed index `idx`
                // of the current generation.
                unsafe { self.read_claimed(idx as usize, 1, |item| got = Some(item)) };
                return ClaimIf::Got(got.expect("one slot read"));
            }
        }
    }

    /// Fill slots `0..items.len()` (ascending priority order expected from
    /// the caller) and publish.
    ///
    /// Caller contract: serialized (root lock held), and the buffer is
    /// exhausted and [drained](Self::is_drained).
    pub fn fill(&self, items: &mut Vec<(u64, V)>) {
        let n = items.len();
        debug_assert!(n <= self.slots.len());
        debug_assert!(self.next.load(Ordering::Relaxed) < 0);
        self.consumed.store(0, Ordering::Relaxed);
        self.published.store(n, Ordering::Relaxed);
        for (slot, item) in self.slots.iter().zip(items.drain(..)) {
            debug_assert_eq!(slot.state.load(Ordering::Relaxed), SLOT_EMPTY);
            slot.prio.store(item.0, Ordering::Relaxed);
            // SAFETY: serialized refiller; the previous fill is fully
            // consumed (caller contract), so the slot is logically empty.
            unsafe { (*slot.value.get()).write(item) };
            slot.state.store(SLOT_FULL, Ordering::Relaxed);
        }
        // Chaos: hold the filled-but-unpublished state open.
        fault::fail_point!("pool.refill-delay");
        det::det_point!("pool.refill-window");
        // Release publish: claimants' acquire fetch_sub sees the slots.
        self.next.store(n as isize - 1, Ordering::Release);
    }
}

impl<V> Drop for PoolBuf<V> {
    fn drop(&mut self) {
        // Claimed-but-unread slots cannot exist at drop time (drop implies
        // no concurrent claimants); FULL slots still own their value.
        for slot in self.slots.iter_mut() {
            if *slot.state.get_mut() == SLOT_FULL {
                // SAFETY: FULL means the refiller wrote it and no claimant
                // consumed it.
                unsafe { slot.value.get_mut().assume_init_drop() };
            }
        }
    }
}

/// Result of a conditional pool claim.
pub(crate) enum ClaimIf<T> {
    /// Claimed an element that satisfied the threshold at peek time.
    Got(T),
    /// The pool's best remaining element is below the threshold.
    Below,
    /// No elements remain in the pool.
    Exhausted,
}

pub(crate) enum Reclaim {
    Hazard(smr::Domain),
    Leak(smr::LeakyDomain),
}

/// The ConsumerWait buffer ring (see the module docs).
pub(crate) struct Ring<V> {
    /// The buffer claimants read: always one of `bufs`.
    cur: AtomicPtr<PoolBuf<V>>,
    /// Every buffer the ring owns (from `Box::into_raw`), each with the
    /// pool's capacity, none freed before the ring drops. Guarded by the
    /// root lock.
    bufs: UnsafeCell<Vec<*mut PoolBuf<V>>>,
    /// `bufs.len()`, readable without the root lock.
    len: AtomicUsize,
}

// SAFETY: `bufs` is only touched by the refiller, serialized by the root
// lock (and by `&mut` in drop); the buffers themselves are shared through
// their own atomic protocol.
unsafe impl<V: Send> Sync for Ring<V> {}
unsafe impl<V: Send> Send for Ring<V> {}

impl<V: Send> Ring<V> {
    fn new(cap: usize) -> Self {
        let first = Box::into_raw(Box::new(PoolBuf::new(cap)));
        Self {
            cur: AtomicPtr::new(first),
            bufs: UnsafeCell::new(vec![first]),
            len: AtomicUsize::new(1),
        }
    }

    /// Refill a drained buffer — the current one if it is, else any
    /// other, else a fresh spare — and publish it as current. **Caller
    /// must hold the root lock** and have observed the pool exhausted.
    fn refill_locked(&self, items: &mut Vec<(u64, V)>) {
        // SAFETY: root lock held, which serializes every `bufs` access.
        let bufs = unsafe { &mut *self.bufs.get() };
        // SAFETY: ring buffers live until the ring drops.
        let drained = |p: *mut PoolBuf<V>| unsafe { &*p }.is_drained();
        let cur = self.cur.load(Ordering::Relaxed);
        let buf = if drained(cur) {
            cur
        } else if let Some(&p) = bufs.iter().find(|&&p| p != cur && drained(p)) {
            p
        } else {
            // Every buffer has a claimant mid-read: grow instead of
            // waiting for one of them.
            // SAFETY: as above.
            let cap = unsafe { &*cur }.slots.len();
            let p = Box::into_raw(Box::new(PoolBuf::new(cap)));
            bufs.push(p);
            self.len.store(bufs.len(), Ordering::Relaxed);
            p
        };
        // SAFETY: as above; `buf` is exhausted (every non-current buffer
        // is, and the caller saw the current one exhausted) and drained.
        unsafe { &*buf }.fill(items);
        // Release: a claimant that acquires `buf` here sees it allocated.
        self.cur.store(buf, Ordering::Release);
    }
}

impl<V> Drop for Ring<V> {
    fn drop(&mut self) {
        for &p in self.bufs.get_mut().iter() {
            // SAFETY: exclusive access at drop; each pointer came from
            // `Box::into_raw` and is owned by the ring alone.
            unsafe { drop(Box::from_raw(p)) };
        }
    }
}

/// The pool with its reclamation discipline.
pub(crate) enum Pool<V> {
    /// `batch == 0`: no pool at all (strict mode).
    Disabled,
    /// ConsumerWait: a ring of buffers reused in place.
    Ring(Ring<V>),
    /// Hazard / Leak: buffer pointer swapped on each refill.
    Swapped {
        cur: AtomicPtr<PoolBuf<V>>,
        reclaim: Reclaim,
    },
}

impl<V: Send> Pool<V> {
    pub fn new(batch: usize, mode: crate::Reclamation) -> Self {
        if batch == 0 {
            return Pool::Disabled;
        }
        match mode {
            crate::Reclamation::ConsumerWait => Pool::Ring(Ring::new(batch)),
            crate::Reclamation::Hazard => Pool::Swapped {
                cur: AtomicPtr::new(Box::into_raw(Box::new(PoolBuf::new(batch)))),
                reclaim: Reclaim::Hazard(smr::Domain::new()),
            },
            crate::Reclamation::Leak => Pool::Swapped {
                cur: AtomicPtr::new(Box::into_raw(Box::new(PoolBuf::new(batch)))),
                reclaim: Reclaim::Leak(smr::LeakyDomain::new()),
            },
        }
    }

    /// Run `f` on the current buffer, kept alive for the call by the
    /// reclamation discipline; `None` when the pool is disabled. Needs no
    /// root lock.
    #[inline(always)]
    fn with_buf<R>(&self, f: impl FnOnce(&PoolBuf<V>) -> R) -> Option<R> {
        match self {
            Pool::Disabled => None,
            // SAFETY: ring buffers live until the pool drops.
            Pool::Ring(ring) => Some(f(unsafe { &*ring.cur.load(Ordering::Acquire) })),
            Pool::Swapped {
                cur,
                reclaim: Reclaim::Hazard(domain),
            } => {
                let mut hp = domain.hazard();
                let p = hp.protect(cur);
                // SAFETY: protected — cannot be freed while we read.
                Some(f(unsafe { &*p }))
            }
            Pool::Swapped {
                cur,
                reclaim: Reclaim::Leak(_),
            } => {
                // Leaked buffers are never freed, so a plain load is
                // sufficient (this is exactly the unsoundness-in-C++
                // shortcut the leak arm measures; in Rust it is safe
                // *because* the leak makes buffers immortal).
                // SAFETY: immortal buffer.
                Some(f(unsafe { &*cur.load(Ordering::Acquire) }))
            }
        }
    }

    /// Fast-path claim (no root lock).
    #[inline]
    pub fn try_claim(&self) -> Option<(u64, V)> {
        self.with_buf(PoolBuf::try_claim).flatten()
    }

    /// Batched fast-path claim (no root lock): up to `want` elements in
    /// one `fetch_sub`. See [`PoolBuf::try_claim_many`].
    #[inline]
    pub fn try_claim_many(&self, out: &mut Vec<(u64, V)>, want: usize) -> usize {
        self.with_buf(|buf| buf.try_claim_many(out, want))
            .unwrap_or(0)
    }

    /// Conditional fast-path claim (no root lock). See
    /// [`PoolBuf::try_claim_if`].
    #[inline]
    pub fn try_claim_if(&self, min_prio: u64) -> ClaimIf<(u64, V)> {
        self.with_buf(|buf| buf.try_claim_if(min_prio))
            .unwrap_or(ClaimIf::Exhausted)
    }

    /// Whether unclaimed items remain. **Caller must hold the root lock**
    /// (which serializes refills, so the answer stays true until the
    /// caller's own claims or refill).
    #[inline]
    pub fn has_items_locked(&self) -> bool {
        let cur = match self {
            Pool::Disabled => return false,
            Pool::Ring(Ring { cur, .. }) | Pool::Swapped { cur, .. } => cur,
        };
        // SAFETY: only the refiller replaces or retires the current
        // buffer, and it holds the root lock, as the caller does — so a
        // plain load needs no hazard.
        unsafe { &*cur.load(Ordering::Acquire) }.has_items()
    }

    /// Refill with `items` (ascending priority order). **Caller must hold
    /// the root lock** and have observed the pool exhausted.
    pub fn refill_locked(&self, items: &mut Vec<(u64, V)>) {
        match self {
            Pool::Disabled => unreachable!("refill with batch == 0"),
            Pool::Ring(ring) => ring.refill_locked(items),
            Pool::Swapped { cur, reclaim } => {
                let fresh = Box::new(PoolBuf::new(items.len()));
                fresh.fill(items);
                let old = cur.swap(Box::into_raw(fresh), Ordering::AcqRel);
                match reclaim {
                    // SAFETY: `old` is unlinked (no new claimant can reach
                    // it); in-flight claimants hold hazards on it.
                    Reclaim::Hazard(domain) => unsafe { domain.retire(old) },
                    // SAFETY: intentionally leaked.
                    Reclaim::Leak(leaky) => unsafe { leaky.retire(old) },
                }
            }
        }
    }

    /// Buffers the pool owns now: the ring's size under ConsumerWait, one
    /// current buffer under Hazard and Leak, none when disabled.
    pub fn buffers(&self) -> usize {
        match self {
            Pool::Disabled => 0,
            Pool::Ring(ring) => ring.len.load(Ordering::Relaxed),
            Pool::Swapped { .. } => 1,
        }
    }

    /// Number of buffers leaked (Leak mode only).
    pub fn leaked_count(&self) -> u64 {
        match self {
            Pool::Swapped {
                reclaim: Reclaim::Leak(l),
                ..
            } => l.leaked_count(),
            _ => 0,
        }
    }
}

impl<V> Drop for Pool<V> {
    fn drop(&mut self) {
        if let Pool::Swapped { cur, .. } = self {
            let p = *cur.get_mut();
            if !p.is_null() {
                // SAFETY: exclusive access at drop; the current buffer was
                // never retired.
                unsafe { drop(Box::from_raw(p)) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reclamation;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn empty_buffer_claims_nothing() {
        let buf: PoolBuf<u64> = PoolBuf::new(8);
        assert!(!buf.has_items());
        assert_eq!(buf.try_claim(), None);
        // Repeated failed claims stay harmless.
        for _ in 0..100 {
            assert_eq!(buf.try_claim(), None);
        }
    }

    #[test]
    fn fill_then_drain_in_descending_order() {
        let buf: PoolBuf<u64> = PoolBuf::new(8);
        let mut items: Vec<(u64, u64)> = (1..=5).map(|k| (k, k * 10)).collect();
        buf.fill(&mut items);
        assert!(items.is_empty());
        // Highest index claimed first => best element first.
        for expect in (1..=5u64).rev() {
            assert_eq!(buf.try_claim(), Some((expect, expect * 10)));
        }
        assert_eq!(buf.try_claim(), None);
    }

    #[test]
    fn drained_buffer_refills_in_place() {
        let buf: PoolBuf<u64> = PoolBuf::new(4);
        assert!(buf.is_drained(), "a fresh buffer is drained");
        let mut items = vec![(1, 1), (2, 2)];
        buf.fill(&mut items);
        assert!(!buf.is_drained());
        assert_eq!(buf.try_claim(), Some((2, 2)));
        assert!(!buf.is_drained());
        assert_eq!(buf.try_claim(), Some((1, 1)));
        // All consumed: drained, so a refill may reuse it.
        assert!(buf.is_drained());
        let mut items2 = vec![(7, 7), (8, 8), (9, 9)];
        buf.fill(&mut items2);
        assert_eq!(buf.try_claim(), Some((9, 9)));
        assert_eq!(buf.try_claim(), Some((8, 8)));
        assert_eq!(buf.try_claim(), Some((7, 7)));
        assert_eq!(buf.try_claim(), None);
    }

    #[test]
    fn claim_many_descending_then_short_then_zero() {
        let buf: PoolBuf<u64> = PoolBuf::new(8);
        let mut items: Vec<(u64, u64)> = (1..=6).map(|k| (k, k * 10)).collect();
        buf.fill(&mut items);
        let mut out = Vec::new();
        assert_eq!(buf.try_claim_many(&mut out, 4), 4);
        assert_eq!(out, vec![(6, 60), (5, 50), (4, 40), (3, 30)]);
        // Fewer remain than requested: short claim, not a failure.
        assert_eq!(buf.try_claim_many(&mut out, 4), 2);
        assert_eq!(&out[4..], &[(2, 20), (1, 10)]);
        assert_eq!(buf.try_claim_many(&mut out, 4), 0);
        assert_eq!(buf.try_claim(), None);
        // Accounting closed out: the refiller may reuse the buffer.
        assert!(buf.is_drained());
    }

    #[test]
    fn claim_many_interleaves_with_single_claims() {
        let buf: PoolBuf<u64> = PoolBuf::new(8);
        let mut items: Vec<(u64, u64)> = (1..=8).map(|k| (k, k)).collect();
        buf.fill(&mut items);
        let mut out = Vec::new();
        assert_eq!(buf.try_claim(), Some((8, 8)));
        assert_eq!(buf.try_claim_many(&mut out, 3), 3);
        assert_eq!(buf.try_claim(), Some((4, 4)));
        assert_eq!(buf.try_claim_many(&mut out, 100), 3);
        let got: Vec<u64> = out.iter().map(|&(k, _)| k).collect();
        assert_eq!(got, vec![7, 6, 5, 3, 2, 1]);
        assert!(buf.is_drained());
    }

    #[test]
    fn claim_many_of_usize_max_takes_the_fill() {
        // `usize::MAX as isize` is -1: uncapped, the `fetch_sub` would
        // move `next` up past the fill.
        let buf: PoolBuf<u64> = PoolBuf::new(8);
        let mut items: Vec<(u64, u64)> = (1..=5).map(|k| (k, k)).collect();
        buf.fill(&mut items);
        let mut out = Vec::new();
        assert_eq!(buf.try_claim_many(&mut out, usize::MAX), 5);
        assert_eq!(buf.try_claim_many(&mut out, usize::MAX), 0);
        assert!(buf.is_drained());
    }

    #[test]
    fn claim_many_concurrent_conserves() {
        const BATCH: usize = 64;
        let pool = Arc::new(Pool::<u64>::new(BATCH, Reclamation::ConsumerWait));
        let mut items: Vec<(u64, u64)> = (0..BATCH as u64).map(|k| (k, k)).collect();
        pool.refill_locked(&mut items);
        let total = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for want in [1usize, 3, 7, 64] {
            let (pool, total) = (Arc::clone(&pool), Arc::clone(&total));
            handles.push(std::thread::spawn(move || {
                let mut out = Vec::new();
                loop {
                    let got = pool.try_claim_many(&mut out, want);
                    if got == 0 {
                        break;
                    }
                    total.fetch_add(got as u64, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), BATCH as u64);
    }

    #[test]
    fn dropping_partially_consumed_buffer_drops_values() {
        struct D(Arc<AtomicU64>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let live = Arc::new(AtomicU64::new(3));
        {
            let buf: PoolBuf<D> = PoolBuf::new(4);
            let mut items = vec![
                (1, D(Arc::clone(&live))),
                (2, D(Arc::clone(&live))),
                (3, D(Arc::clone(&live))),
            ];
            buf.fill(&mut items);
            let claimed = buf.try_claim().unwrap();
            assert_eq!(claimed.0, 3);
            drop(claimed);
        }
        assert_eq!(live.load(Ordering::SeqCst), 0, "unclaimed slots dropped");
    }

    const CONSUMERS: usize = 4;

    /// Conservation with `CONSUMERS` claimants against one refiller;
    /// returns how many buffers the pool ended up owning.
    fn exercise_concurrent(mode: Reclamation) -> usize {
        const GENERATIONS: usize = 200;
        const BATCH: usize = 16;
        let pool = Arc::new(Pool::<u64>::new(BATCH, mode));
        let taken = Arc::new(AtomicU64::new(0));
        let sum = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicU64::new(0));

        let mut handles = Vec::new();
        for _ in 0..CONSUMERS {
            let pool = Arc::clone(&pool);
            let taken = Arc::clone(&taken);
            let sum = Arc::clone(&sum);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                while stop.load(Ordering::Acquire) == 0 {
                    if let Some((k, v)) = pool.try_claim() {
                        assert_eq!(k, v);
                        taken.fetch_add(1, Ordering::Relaxed);
                        sum.fetch_add(k, Ordering::Relaxed);
                    }
                }
                // Final drain.
                while let Some((k, _)) = pool.try_claim() {
                    taken.fetch_add(1, Ordering::Relaxed);
                    sum.fetch_add(k, Ordering::Relaxed);
                }
            }));
        }

        // Single refiller (stands in for the root-lock holder).
        let mut expect_sum = 0u64;
        let mut produced = 0u64;
        for g in 0..GENERATIONS {
            // Wait until exhausted, as the real refiller does.
            while pool.has_items_locked() {
                std::hint::spin_loop();
            }
            let mut items: Vec<(u64, u64)> = (0..BATCH as u64)
                .map(|i| {
                    let k = g as u64 * 1000 + i;
                    expect_sum += k;
                    produced += 1;
                    (k, k)
                })
                .collect();
            pool.refill_locked(&mut items);
        }
        while pool.has_items_locked() {
            std::hint::spin_loop();
        }
        stop.store(1, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(taken.load(Ordering::Relaxed), produced);
        assert_eq!(sum.load(Ordering::Relaxed), expect_sum);
        if mode == Reclamation::Leak {
            assert_eq!(pool.leaked_count(), GENERATIONS as u64);
        }
        pool.buffers()
    }

    #[test]
    fn concurrent_consumer_wait() {
        let bufs = exercise_concurrent(Reclamation::ConsumerWait);
        assert!((1..=CONSUMERS + 1).contains(&bufs), "ring of {bufs}");
    }

    /// Simulate a claimant stuck between its `fetch_sub` and its read.
    fn claim_without_read(pool: &Pool<u64>) -> (*mut PoolBuf<u64>, usize) {
        let Pool::Ring(ring) = pool else {
            unreachable!()
        };
        let buf = ring.cur.load(Ordering::Acquire);
        // SAFETY: ring buffers live as long as the pool.
        let top = unsafe { &*buf }.next.fetch_sub(1, Ordering::AcqRel);
        assert!(top >= 0, "claim from an exhausted buffer");
        (buf, top as usize)
    }

    /// Finish the simulated claimant's read.
    fn finish_read(claim: (*mut PoolBuf<u64>, usize)) -> (u64, u64) {
        let mut got = None;
        // SAFETY: `claim_without_read` uniquely reserved index `top`.
        unsafe { (*claim.0).read_claimed(claim.1, 1, |item| got = Some(item)) };
        got.expect("one slot read")
    }

    fn drain(pool: &Pool<u64>) -> Vec<u64> {
        std::iter::from_fn(|| pool.try_claim())
            .map(|(k, _)| k)
            .collect()
    }

    #[test]
    fn ring_refills_in_place_reuses_drained_and_grows_past_lagging_claimants() {
        let pool = Pool::<u64>::new(4, Reclamation::ConsumerWait);
        let cur = |p: &Pool<u64>| match p {
            Pool::Ring(ring) => ring.cur.load(Ordering::Relaxed),
            _ => unreachable!(),
        };
        let first = cur(&pool);
        pool.refill_locked(&mut vec![(1, 1), (2, 2)]);
        assert_eq!(drain(&pool), [2, 1]);
        // Drained: refilled in place.
        pool.refill_locked(&mut vec![(3, 3), (4, 4)]);
        assert_eq!((cur(&pool), pool.buffers()), (first, 1));

        // A claimant lags on the current buffer: the refill must not
        // touch it, and with no other buffer the ring grows.
        let lagging = claim_without_read(&pool);
        assert_eq!(drain(&pool), [3]);
        pool.refill_locked(&mut vec![(5, 5), (6, 6)]);
        let second = cur(&pool);
        assert_ne!(second, first);
        assert_eq!(pool.buffers(), 2);
        assert_eq!(finish_read(lagging), (4, 4), "the lagging read is intact");
        assert_eq!(drain(&pool), [6, 5]);

        // Now the first buffer is drained again: a refill over a lagging
        // claimant on the second reuses it instead of growing.
        pool.refill_locked(&mut vec![(7, 7), (8, 8)]);
        assert_eq!(cur(&pool), second, "drained current refilled in place");
        let lagging = claim_without_read(&pool);
        assert_eq!(drain(&pool), [7]);
        pool.refill_locked(&mut vec![(9, 9)]);
        assert_eq!((cur(&pool), pool.buffers()), (first, 2));
        assert_eq!(finish_read(lagging), (8, 8));
        assert_eq!(drain(&pool), [9]);
    }

    #[test]
    fn concurrent_hazard() {
        exercise_concurrent(Reclamation::Hazard);
    }

    #[test]
    fn concurrent_leak() {
        exercise_concurrent(Reclamation::Leak);
    }

    #[test]
    fn disabled_pool_is_inert() {
        let pool: Pool<u64> = Pool::new(0, Reclamation::Hazard);
        assert!(matches!(pool, Pool::Disabled));
        assert_eq!(pool.try_claim(), None);
        assert!(!pool.has_items_locked());
    }

    /// With claim-delay injected, consumers linger inside the
    /// claimed-but-unread window when the refiller comes round. The ring
    /// must route around them — grow past one buffer rather than wait —
    /// while conservation holds and the ring stays within its bound of
    /// one buffer per concurrent claimant plus one.
    #[test]
    #[cfg(feature = "fault-inject")]
    fn injected_claim_delay_grows_the_ring_within_bound() {
        let _x = fault::exclusive();
        fault::reset();
        fault::set_seed(0xC1A1_4DE1);
        fault::configure(
            "pool.claim-delay",
            fault::Policy::new(fault::Trigger::Prob(0.25)).with_action(fault::Action::SleepMs(1)),
        );
        let bufs = exercise_concurrent(Reclamation::ConsumerWait);
        assert!(
            fault::hit_count("pool.claim-delay") > 0,
            "failpoint never fired"
        );
        assert!(
            (2..=CONSUMERS + 1).contains(&bufs),
            "ring of {bufs} buffers under lagging claimants"
        );
        fault::reset();
    }
}
