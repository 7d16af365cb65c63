//! Epoch-based reclamation (EBR), from scratch.
//!
//! The hazard-pointer [`crate::Domain`] protects a *bounded* number of
//! pointers per thread — the right shape for ZMSQ itself (§3.5). The
//! lock-free baselines (SprayList's skiplist, k-LSM's run stack) instead
//! traverse unbounded chains of nodes, where per-pointer protection is
//! impractical; they want the coarser epoch scheme: a reader *pins* the
//! current epoch for the duration of an operation, and an object retired
//! at epoch `e` is freed only once every pinned reader is past `e`.
//!
//! The design is the classic three-phase collector (Fraser 2004),
//! simplified for auditability rather than peak throughput:
//!
//! * a global epoch counter, advanced only when every pinned participant
//!   has caught up to it;
//! * an append-only participant list (records are recycled across
//!   threads, like the hazard domain's `HpRecord`s) holding each
//!   thread's pinned epoch, `u64::MAX` meaning "not pinned";
//! * one global garbage list of `(retire_epoch, deferred)` pairs; an
//!   entry is run once the *minimum* pinned epoch is strictly greater
//!   than its retire epoch — a reader pinned at the retire epoch may
//!   still hold the reference, a reader pinned later cannot (retired
//!   objects are unreachable to new readers by contract).
//!
//! Collection is attempted whenever the garbage list crosses a
//! threshold and — deliberately more eager than crossbeam — every time a
//! thread drops its outermost [`Guard`]: single-threaded teardown tests
//! can then observe full reclamation without explicit flush calls.

use std::cell::Cell;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Process-global EBR counters (the collector itself is process-global).
/// Exported by [`crate::obs::snapshot`].
pub(crate) static PINS: obs::Counter = obs::Counter::new();
pub(crate) static DEFERS: obs::Counter = obs::Counter::new();
pub(crate) static COLLECTS: obs::Counter = obs::Counter::new();
pub(crate) static EBR_FREED: obs::Counter = obs::Counter::new();

/// Pinned-epoch sentinel: the participant is not inside a critical section.
const NOT_PINNED: u64 = u64::MAX;

/// Start collecting once this many deferred objects are pending.
const COLLECT_THRESHOLD: usize = 64;

type Deferred = Box<dyn FnOnce() + Send>;

/// Per-thread participant record. Never freed (the global collector is
/// `'static`); recycled through the `active` flag when a thread exits.
#[repr(align(128))]
struct Participant {
    /// Epoch this thread is pinned at, or [`NOT_PINNED`].
    epoch: AtomicU64,
    /// Claimed by some live thread.
    active: AtomicBool,
    /// Next record in the append-only list. Immutable once published.
    next: *mut Participant,
    /// Reentrant-pin depth — owner-thread only.
    depth: Cell<usize>,
}

struct Global {
    epoch: AtomicU64,
    participants: AtomicPtr<Participant>,
    garbage: Mutex<Vec<(u64, Deferred)>>,
    /// Mirror of `garbage.len()` so the unpin fast path can skip the lock.
    pending: AtomicUsize,
}

// SAFETY: `Participant.depth` is owner-thread-only by protocol (claimed
// via the `active` CAS); everything else reachable from Global is atomic,
// immutable after publication, or behind the garbage mutex.
unsafe impl Send for Global {}
unsafe impl Sync for Global {}

fn global() -> &'static Global {
    static GLOBAL: OnceLock<Global> = OnceLock::new();
    GLOBAL.get_or_init(|| Global {
        epoch: AtomicU64::new(0),
        participants: AtomicPtr::new(std::ptr::null_mut()),
        garbage: Mutex::new(Vec::new()),
        pending: AtomicUsize::new(0),
    })
}

impl Global {
    /// Reuse an inactive participant record or allocate and publish one.
    fn claim_participant(&self) -> *mut Participant {
        let mut cur = self.participants.load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: participant records are never freed.
            let p = unsafe { &*cur };
            if !p.active.load(Ordering::Relaxed)
                && p.active
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                return cur;
            }
            cur = p.next;
        }
        let rec = Box::into_raw(Box::new(Participant {
            epoch: AtomicU64::new(NOT_PINNED),
            active: AtomicBool::new(true),
            next: std::ptr::null_mut(),
            depth: Cell::new(0),
        }));
        let mut head = self.participants.load(Ordering::Relaxed);
        loop {
            // SAFETY: `rec` is not yet shared.
            unsafe { (*rec).next = head };
            match self.participants.compare_exchange_weak(
                head,
                rec,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return rec,
                Err(h) => head = h,
            }
        }
    }

    /// Minimum epoch over currently pinned participants, or `None` if no
    /// thread is pinned at all.
    fn min_pinned(&self) -> Option<u64> {
        let mut min = None;
        let mut cur = self.participants.load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: never freed.
            let p = unsafe { &*cur };
            // SeqCst pairs with the pin-side publish: a thread pinned
            // before a retire is guaranteed visible to this scan.
            let e = p.epoch.load(Ordering::SeqCst);
            if e != NOT_PINNED {
                min = Some(min.map_or(e, |m: u64| m.min(e)));
            }
            cur = p.next;
        }
        min
    }

    /// Advance the global epoch iff every pinned participant has reached it.
    fn try_advance(&self) {
        let g = self.epoch.load(Ordering::SeqCst);
        let mut cur = self.participants.load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: never freed.
            let p = unsafe { &*cur };
            let e = p.epoch.load(Ordering::SeqCst);
            if e != NOT_PINNED && e != g {
                return; // a straggler is still in an older epoch
            }
            cur = p.next;
        }
        let _ = self
            .epoch
            .compare_exchange(g, g + 1, Ordering::SeqCst, Ordering::SeqCst);
    }
}

thread_local! {
    static TLS_PARTICIPANT: Cell<*mut Participant> = const { Cell::new(std::ptr::null_mut()) };
    /// Releases this thread's participant record on thread exit.
    static TLS_RELEASE: ReleaseOnExit = const { ReleaseOnExit };
}

struct ReleaseOnExit;

impl Drop for ReleaseOnExit {
    fn drop(&mut self) {
        let rec = TLS_PARTICIPANT.with(|c| c.replace(std::ptr::null_mut()));
        if !rec.is_null() {
            // SAFETY: never freed; we are the owner thread relinquishing.
            let p = unsafe { &*rec };
            p.epoch.store(NOT_PINNED, Ordering::SeqCst);
            p.active.store(false, Ordering::Release);
        }
    }
}

fn local_participant() -> *mut Participant {
    TLS_PARTICIPANT.with(|c| {
        let mut rec = c.get();
        if rec.is_null() {
            rec = global().claim_participant();
            c.set(rec);
            TLS_RELEASE.with(|_| {}); // force the release guard to exist
        }
        rec
    })
}

/// An active pin on the current epoch. Reentrant: nested [`pin`] calls on
/// the same thread share the outermost pin. Not `Send`.
pub struct Guard {
    part: *mut Participant,
    _not_send: std::marker::PhantomData<*mut ()>,
}

/// Pin the current epoch: objects retired from now on (anywhere) will not
/// be freed while this guard lives.
pub fn pin() -> Guard {
    let part = local_participant();
    // SAFETY: never freed; depth is owner-thread-only.
    let p = unsafe { &*part };
    let depth = p.depth.get();
    p.depth.set(depth + 1);
    if depth == 0 {
        PINS.incr();
        let e = global().epoch.load(Ordering::SeqCst);
        p.epoch.store(e, Ordering::SeqCst);
        // StoreLoad: the pin must be globally visible before this thread
        // reads any shared pointers, or a collector could miss it.
        fence(Ordering::SeqCst);
    }
    Guard {
        part,
        _not_send: std::marker::PhantomData,
    }
}

impl Guard {
    /// Defer `f` until every epoch pinned *now* has been unpinned.
    ///
    /// # Safety
    ///
    /// The caller guarantees that whatever `f` frees is already
    /// unreachable to readers that pin *after* this call, and that `f`
    /// is sound to run on whichever thread later collects.
    pub unsafe fn defer_unchecked<F: FnOnce() + Send + 'static>(&self, f: F) {
        DEFERS.incr();
        obs::trace_event!(obs::EventKind::Retire, u32::MAX);
        let g = global();
        let epoch = g.epoch.load(Ordering::SeqCst);
        let pending = {
            let mut garbage = g.garbage.lock().unwrap();
            garbage.push((epoch, Box::new(f)));
            g.pending.store(garbage.len(), Ordering::Relaxed);
            garbage.len()
        };
        if pending >= COLLECT_THRESHOLD {
            collect();
        }
    }

    /// Eagerly attempt epoch advancement and run ripe deferred work.
    pub fn flush(&self) {
        collect();
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        // SAFETY: never freed; depth is owner-thread-only.
        let p = unsafe { &*self.part };
        let depth = p.depth.get() - 1;
        p.depth.set(depth);
        if depth == 0 {
            p.epoch.store(NOT_PINNED, Ordering::SeqCst);
            // Eager collect on outermost unpin (see module docs). Skip the
            // mutex entirely when there is nothing to do.
            if global().pending.load(Ordering::Relaxed) > 0 {
                collect();
            }
        }
    }
}

impl std::fmt::Debug for Guard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Guard").finish_non_exhaustive()
    }
}

/// Try to advance the epoch, then run every deferred closure whose retire
/// epoch is strictly below the minimum currently-pinned epoch.
pub fn collect() {
    let g = global();
    g.try_advance();
    let bound = g.min_pinned().unwrap_or(u64::MAX);
    let mut ripe = Vec::new();
    {
        let mut garbage = match g.garbage.try_lock() {
            Ok(guard) => guard,
            // Another thread is already collecting; its pass covers us.
            Err(std::sync::TryLockError::WouldBlock) => return,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
        };
        let mut i = 0;
        while i < garbage.len() {
            if garbage[i].0 < bound {
                ripe.push(garbage.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
        g.pending.store(garbage.len(), Ordering::Relaxed);
    }
    COLLECTS.incr();
    EBR_FREED.add(ripe.len() as u64);
    obs::trace_event!(obs::EventKind::Reclaim, ripe.len() as u32, u64::MAX);
    // Run outside the lock: a destructor may legitimately defer more work.
    for f in ripe {
        f();
    }
}

/// Number of deferred objects not yet reclaimed (diagnostic).
pub fn pending_count() -> usize {
    global().pending.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as StdAtomicU64;
    use std::sync::{Arc, Mutex as StdMutex};
    use std::time::Duration;

    /// The collector is process-global, so tests that assert exact
    /// reclamation counts must not overlap.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: StdMutex<()> = StdMutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    struct SendPtr(*mut u8, unsafe fn(*mut u8));
    // SAFETY: the pointee is exclusively owned by the deferred closure.
    unsafe impl Send for SendPtr {}

    fn defer_box<T: Send + 'static>(guard: &Guard, b: Box<T>) {
        unsafe fn drop_it<T>(p: *mut u8) {
            // SAFETY: produced by Box::into_raw::<T> below.
            unsafe { drop(Box::from_raw(p.cast::<T>())) }
        }
        let p = SendPtr(Box::into_raw(b).cast(), drop_it::<T>);
        // SAFETY: `b` was owned, hence unreachable to all readers. The
        // whole-struct destructure keeps the capture as the Send wrapper.
        unsafe {
            guard.defer_unchecked(move || {
                let SendPtr(ptr, drop_fn) = { p };
                // SAFETY: sole owner of `ptr` (covered by the enclosing
                // unsafe block, which extends lexically into closures).
                drop_fn(ptr)
            })
        };
    }

    struct Tracked(Arc<StdAtomicU64>);
    impl Tracked {
        fn new(live: &Arc<StdAtomicU64>) -> Box<Self> {
            live.fetch_add(1, Ordering::SeqCst);
            Box::new(Self(Arc::clone(live)))
        }
    }
    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn unpin_of_sole_thread_collects_everything() {
        let _s = serial();
        let live = Arc::new(StdAtomicU64::new(0));
        let guard = pin();
        for _ in 0..10 {
            defer_box(&guard, Tracked::new(&live));
        }
        // Our own pin is at the retire epoch: nothing may be freed yet.
        collect();
        assert_eq!(live.load(Ordering::SeqCst), 10);
        drop(guard);
        assert_eq!(live.load(Ordering::SeqCst), 0, "eager unpin collect");
    }

    #[test]
    fn nested_pins_share_the_outer_epoch() {
        let _s = serial();
        let live = Arc::new(StdAtomicU64::new(0));
        let outer = pin();
        let inner = pin();
        defer_box(&inner, Tracked::new(&live));
        drop(inner);
        // Outer pin still holds the epoch.
        collect();
        assert_eq!(live.load(Ordering::SeqCst), 1);
        drop(outer);
        assert_eq!(live.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn remote_pin_blocks_reclamation() {
        let _s = serial();
        let live = Arc::new(StdAtomicU64::new(0));
        let hold = Arc::new(StdAtomicU64::new(0));
        let hold2 = Arc::clone(&hold);
        let pinned = Arc::new(StdAtomicU64::new(0));
        let pinned2 = Arc::clone(&pinned);
        let h = std::thread::spawn(move || {
            let _g = pin();
            pinned2.store(1, Ordering::SeqCst);
            while hold2.load(Ordering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        while pinned.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        {
            let guard = pin();
            defer_box(&guard, Tracked::new(&live));
        }
        collect();
        assert_eq!(
            live.load(Ordering::SeqCst),
            1,
            "remote pin must block frees"
        );
        hold.store(1, Ordering::SeqCst);
        h.join().unwrap();
        // The remote thread's unpin collected on its way out; make sure
        // regardless (its collect may have raced our assertion).
        collect();
        assert_eq!(live.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn threshold_triggers_collection_mid_stream() {
        let _s = serial();
        let live = Arc::new(StdAtomicU64::new(0));
        // No pin held between defers: each batch past the threshold frees.
        for _ in 0..(3 * COLLECT_THRESHOLD) {
            let guard = pin();
            defer_box(&guard, Tracked::new(&live));
            drop(guard);
        }
        collect();
        assert_eq!(live.load(Ordering::SeqCst), 0);
        assert_eq!(pending_count(), 0);
    }

    #[test]
    fn stress_swap_and_read() {
        let _s = serial();
        const READERS: usize = 4;
        const WRITES: u64 = 3_000;
        let live = Arc::new(StdAtomicU64::new(0));
        let shared = Arc::new(AtomicPtr::new(Box::into_raw(Tracked::new(&live))));
        let stop = Arc::new(StdAtomicU64::new(0));
        let mut readers = Vec::new();
        for _ in 0..READERS {
            let s = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                while stop.load(Ordering::Acquire) == 0 {
                    let _g = pin();
                    let p = s.load(Ordering::Acquire);
                    if !p.is_null() {
                        // SAFETY: pinned before the load; the writer defers
                        // frees through the same collector.
                        let _ = unsafe { &(*p).0 };
                    }
                }
            }));
        }
        for _ in 0..WRITES {
            let next = Box::into_raw(Tracked::new(&live));
            let guard = pin();
            let old = shared.swap(next, Ordering::AcqRel);
            defer_box(&guard, unsafe { Box::from_raw(old) });
            drop(guard);
        }
        stop.store(1, Ordering::Release);
        for r in readers {
            r.join().unwrap();
        }
        let last = shared.swap(std::ptr::null_mut(), Ordering::AcqRel);
        {
            let guard = pin();
            defer_box(&guard, unsafe { Box::from_raw(last) });
        }
        collect();
        assert_eq!(live.load(Ordering::SeqCst), 0, "all nodes reclaimed");
    }
}
