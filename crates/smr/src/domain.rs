//! The hazard-pointer domain.

use std::cell::{Cell, RefCell, UnsafeCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::SLOTS_PER_RECORD;

/// Process-global hazard-pointer counters, aggregated over every domain
/// (per-domain figures stay on [`Domain::retired_count`] /
/// [`Domain::freed_count`]). Exported by [`crate::obs::snapshot`].
pub(crate) static RETIRED: obs::Counter = obs::Counter::new();
pub(crate) static FREED: obs::Counter = obs::Counter::new();
pub(crate) static SCANS: obs::Counter = obs::Counter::new();
pub(crate) static HAZARDS_SCANNED: obs::Counter = obs::Counter::new();
pub(crate) static PROTECT_RETRIES: obs::Counter = obs::Counter::new();

/// A retired allocation awaiting reclamation.
struct Retired {
    ptr: *mut u8,
    drop_fn: unsafe fn(*mut u8),
}

// SAFETY: a Retired is only ever handled by the domain's scan machinery;
// the caller of `retire` guaranteed the pointee is Send.
unsafe impl Send for Retired {}

unsafe fn drop_box<T>(p: *mut u8) {
    // SAFETY: `p` was produced by Box::into_raw::<T> in Domain::retire.
    unsafe { drop(Box::from_raw(p.cast::<T>())) }
}

/// Per-thread record: hazard slots published to reclaimers, plus the
/// owner-private free-slot bitmap and retired list.
#[repr(align(128))]
struct HpRecord {
    /// Next record in the domain's append-only intrusive list. Immutable
    /// once the record is published.
    next: *mut HpRecord,
    /// Claimed by some thread. Records are reused, never unlinked.
    active: AtomicBool,
    /// The hazard slots scanned by reclaimers.
    slots: [AtomicPtr<u8>; SLOTS_PER_RECORD],
    /// Bitmap of slots handed out — owner-thread only.
    slot_bitmap: Cell<u32>,
    /// Retired-but-not-yet-freed allocations — owner-thread only.
    retired: UnsafeCell<Vec<Retired>>,
}

impl HpRecord {
    fn new() -> Self {
        Self {
            next: std::ptr::null_mut(),
            active: AtomicBool::new(true),
            slots: Default::default(),
            slot_bitmap: Cell::new(0),
            retired: UnsafeCell::new(Vec::new()),
        }
    }
}

struct DomainCore {
    id: u64,
    head: AtomicPtr<HpRecord>,
    record_count: AtomicUsize,
    /// Diagnostic counters (relaxed): total retires and total frees.
    retired_total: AtomicU64,
    freed_total: AtomicU64,
}

// SAFETY: HpRecord's Cell/UnsafeCell fields are owner-thread-only by
// protocol (a record is claimed by exactly one thread via the `active`
// CAS); the cross-thread-visible fields (`next`, `active`, `slots`) are
// immutable or atomic.
unsafe impl Send for DomainCore {}
unsafe impl Sync for DomainCore {}

impl Drop for DomainCore {
    fn drop(&mut self) {
        // No TLS cache entry or HazardPointer can exist (a TLS entry holds
        // an Arc to this core, a HazardPointer borrows a `Domain` that
        // does), so no hazard can be published: free everything.
        let mut rec = *self.head.get_mut();
        while !rec.is_null() {
            // SAFETY: records are only freed here, and `rec` came from
            // Box::into_raw in `claim_record`.
            let boxed = unsafe { Box::from_raw(rec) };
            let retired = boxed.retired.into_inner();
            for r in retired {
                // SAFETY: retire()'s contract — pointer is unreachable and
                // owned by the domain.
                unsafe { (r.drop_fn)(r.ptr) };
                self.freed_total.fetch_add(1, Ordering::Relaxed);
            }
            rec = boxed.next;
        }
    }
}

thread_local! {
    /// Per-thread cache of claimed records, keyed by domain id. The Arc
    /// keeps each domain core alive until this thread exits.
    static TLS_RECORDS: RefCell<Vec<TlsEntry>> = const { RefCell::new(Vec::new()) };
}

struct TlsEntry {
    id: u64,
    /// Never read, but load-bearing: keeps the domain core (and therefore
    /// `record`'s backing allocation) alive until this thread exits.
    #[allow(dead_code)]
    core: Arc<DomainCore>,
    record: *mut HpRecord,
}

impl Drop for TlsEntry {
    fn drop(&mut self) {
        // SAFETY: the record is kept alive by `self.core`; we are its
        // owner-thread relinquishing it. Pending retireds stay in the
        // record and are inherited by the next claimant (or freed when the
        // domain core drops).
        let rec = unsafe { &*self.record };
        for slot in &rec.slots {
            slot.store(std::ptr::null_mut(), Ordering::Release);
        }
        rec.slot_bitmap.set(0);
        rec.active.store(false, Ordering::Release);
    }
}

/// A hazard-pointer domain (cheaply clonable handle).
///
/// Objects retired into a domain are freed once no [`HazardPointer`] of
/// that domain protects them — amortized, during later `retire` calls, an
/// explicit [`Domain::try_reclaim`], or at domain teardown.
#[derive(Clone)]
pub struct Domain {
    core: Arc<DomainCore>,
}

static NEXT_DOMAIN_ID: AtomicU64 = AtomicU64::new(1);

impl Domain {
    /// Create a fresh, independent domain.
    pub fn new() -> Self {
        Self {
            core: Arc::new(DomainCore {
                id: NEXT_DOMAIN_ID.fetch_add(1, Ordering::Relaxed),
                head: AtomicPtr::new(std::ptr::null_mut()),
                record_count: AtomicUsize::new(0),
                retired_total: AtomicU64::new(0),
                freed_total: AtomicU64::new(0),
            }),
        }
    }

    /// The process-wide shared domain. Convenient when many short-lived
    /// structures share reclamation; never torn down.
    pub fn global() -> &'static Domain {
        static GLOBAL: std::sync::OnceLock<Domain> = std::sync::OnceLock::new();
        GLOBAL.get_or_init(Domain::new)
    }

    /// Get (or claim) this thread's record for this domain.
    fn thread_record(&self) -> *mut HpRecord {
        let id = self.core.id;
        TLS_RECORDS.with(|cell| {
            let mut entries = cell.borrow_mut();
            if let Some(e) = entries.iter().find(|e| e.id == id) {
                return e.record;
            }
            let record = self.claim_record();
            entries.push(TlsEntry {
                id,
                core: Arc::clone(&self.core),
                record,
            });
            record
        })
    }

    /// Reuse an inactive record or allocate and publish a new one.
    fn claim_record(&self) -> *mut HpRecord {
        let mut cur = self.core.head.load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: records live as long as the core, which we hold.
            let rec = unsafe { &*cur };
            if !rec.active.load(Ordering::Relaxed)
                && rec
                    .active
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                return cur;
            }
            cur = rec.next;
        }
        // Allocate and push at head.
        let rec = Box::into_raw(Box::new(HpRecord::new()));
        let mut head = self.core.head.load(Ordering::Relaxed);
        loop {
            // SAFETY: `rec` is not yet shared; we own it exclusively.
            unsafe { (*rec).next = head };
            match self.core.head.compare_exchange_weak(
                head,
                rec,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(h) => head = h,
            }
        }
        self.core.record_count.fetch_add(1, Ordering::Relaxed);
        rec
    }

    /// Acquire a hazard slot for the calling thread. The slot borrows
    /// the domain, so acquiring and releasing it touch only the thread's
    /// own record, not the domain's shared reference count.
    ///
    /// # Panics
    ///
    /// If the thread already holds [`SLOTS_PER_RECORD`] simultaneous
    /// hazard pointers in this domain.
    pub fn hazard(&self) -> HazardPointer<'_> {
        let record = self.thread_record();
        // SAFETY: we are the owner thread of `record`.
        let rec = unsafe { &*record };
        let bitmap = rec.slot_bitmap.get();
        let idx = (!bitmap).trailing_zeros() as usize;
        assert!(
            idx < SLOTS_PER_RECORD,
            "thread exhausted its {SLOTS_PER_RECORD} hazard slots"
        );
        rec.slot_bitmap.set(bitmap | (1 << idx));
        HazardPointer {
            _domain: PhantomData,
            record,
            idx,
        }
    }

    /// Hand ownership of `ptr` to the domain; it will be dropped (as a
    /// `Box<T>`) once no hazard pointer protects it.
    ///
    /// # Safety
    ///
    /// * `ptr` came from `Box::into_raw` and is not aliased by any owner.
    /// * `ptr` has been made unreachable to *new* readers (no shared
    ///   location still yields it); threads that already protected it are
    ///   exactly what hazard pointers handle.
    /// * `ptr` is not retired twice.
    pub unsafe fn retire<T: Send>(&self, ptr: *mut T) {
        det::det_point!("smr.retire");
        let record = self.thread_record();
        // SAFETY: owner-thread access to the retired list.
        let retired = unsafe { &mut *(*record).retired.get() };
        retired.push(Retired {
            ptr: ptr.cast(),
            drop_fn: drop_box::<T>,
        });
        self.core.retired_total.fetch_add(1, Ordering::Relaxed);
        RETIRED.incr();
        obs::trace_event!(obs::EventKind::Retire, self.core.id as u32);
        if retired.len() >= self.scan_threshold() {
            self.scan(record);
        }
    }

    fn scan_threshold(&self) -> usize {
        let capacity = self.core.record_count.load(Ordering::Relaxed) * SLOTS_PER_RECORD;
        (2 * capacity).max(64)
    }

    /// Collect all published hazards and free every retired object (of the
    /// calling thread's record) not protected by one.
    fn scan(&self, record: *mut HpRecord) {
        SCANS.incr();
        let mut hazards: Vec<usize> =
            Vec::with_capacity(self.core.record_count.load(Ordering::Relaxed) * SLOTS_PER_RECORD);
        let mut cur = self.core.head.load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: records live as long as the core.
            let rec = unsafe { &*cur };
            for slot in &rec.slots {
                // SeqCst pairs with the SeqCst publish in
                // HazardPointer::protect: any reader that validated its
                // pointer *after* our caller unlinked the object is
                // guaranteed visible here.
                let p = slot.load(Ordering::SeqCst);
                if !p.is_null() {
                    hazards.push(p as usize);
                }
            }
            cur = rec.next;
        }
        hazards.sort_unstable();
        HAZARDS_SCANNED.add(hazards.len() as u64);
        obs::trace_event!(obs::EventKind::HazardScan, hazards.len() as u32);

        // SAFETY: owner-thread access.
        let retired = unsafe { &mut *(*record).retired.get() };
        let before = retired.len();
        retired.retain(|r| {
            if hazards.binary_search(&(r.ptr as usize)).is_ok() {
                true
            } else {
                // SAFETY: not protected by any hazard, unreachable to new
                // readers per retire()'s contract — sole owner frees.
                unsafe { (r.drop_fn)(r.ptr) };
                false
            }
        });
        let freed = (before - retired.len()) as u64;
        self.core.freed_total.fetch_add(freed, Ordering::Relaxed);
        FREED.add(freed);
        obs::trace_event!(obs::EventKind::Reclaim, freed as u32, retired.len() as u64);
    }

    /// Eagerly run a reclamation scan over the calling thread's retired
    /// list. Returns how many objects remain deferred (on this thread).
    pub fn try_reclaim(&self) -> usize {
        let record = self.thread_record();
        self.scan(record);
        // SAFETY: owner-thread access.
        unsafe { (*(*record).retired.get()).len() }
    }

    /// Total objects ever retired into this domain (diagnostic).
    pub fn retired_count(&self) -> u64 {
        self.core.retired_total.load(Ordering::Relaxed)
    }

    /// Total objects freed so far (diagnostic; the remainder is freed by
    /// later scans or domain teardown).
    pub fn freed_count(&self) -> u64 {
        self.core.freed_total.load(Ordering::Relaxed)
    }
}

impl Default for Domain {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Domain")
            .field("id", &self.core.id)
            .field("records", &self.core.record_count.load(Ordering::Relaxed))
            .field("retired", &self.retired_count())
            .field("freed", &self.freed_count())
            .finish()
    }
}

/// An acquired hazard slot, borrowed from its [`Domain`]. Not `Send`: it
/// belongs to the acquiring thread's record.
pub struct HazardPointer<'d> {
    /// The borrow keeps the domain core, and with it `record`, alive.
    _domain: PhantomData<&'d Domain>,
    record: *mut HpRecord,
    idx: usize,
}

impl HazardPointer<'_> {
    #[inline]
    fn slot(&self) -> &AtomicPtr<u8> {
        // SAFETY: the record lives as long as the borrowed domain's core.
        unsafe { &(*self.record).slots[self.idx] }
    }

    /// Protect the pointer currently stored in `src`.
    ///
    /// Publishes a candidate, re-reads `src`, and retries until the two
    /// agree; on return the pointee (if non-null) cannot be freed until
    /// this hazard is cleared or dropped. The returned pointer is safe to
    /// dereference as long as the usual shared-reference rules hold.
    #[inline]
    pub fn protect<T>(&mut self, src: &AtomicPtr<T>) -> *mut T {
        let mut p = src.load(Ordering::Relaxed);
        loop {
            // SeqCst store + SeqCst re-load forms the StoreLoad barrier
            // hazard pointers need: our publish is globally visible before
            // we validate, so a reclaimer that unlinked `p` before our
            // validation must see our hazard in its scan.
            self.slot().store(p.cast(), Ordering::SeqCst);
            // The publish/validate window: a reclaimer that unlinked `p`
            // races our re-load — the decision point lets the scheduler
            // interleave a full retire+scan here.
            det::det_point!("smr.protect-validate");
            let q = src.load(Ordering::SeqCst);
            if q == p {
                // Chaos: treat this successful validation as failed and go
                // around again (republish + revalidate). Arm with
                // Prob/EveryNth/Once — Always livelocks by construction.
                fault::fail_point!("smr.protect-retry", {
                    PROTECT_RETRIES.incr();
                    obs::trace_event!(obs::EventKind::ProtectRetry);
                    continue;
                });
                return p;
            }
            PROTECT_RETRIES.incr();
            obs::trace_event!(obs::EventKind::ProtectRetry);
            p = q;
        }
    }

    /// Publish a known pointer without validation. The caller must
    /// re-validate reachability itself before dereferencing.
    #[inline]
    pub fn protect_raw<T>(&mut self, ptr: *mut T) {
        self.slot().store(ptr.cast(), Ordering::SeqCst);
    }

    /// Clear the slot, releasing whatever it protected.
    #[inline]
    pub fn clear(&mut self) {
        self.slot().store(std::ptr::null_mut(), Ordering::Release);
    }
}

impl Drop for HazardPointer<'_> {
    fn drop(&mut self) {
        // SAFETY: owner-thread; the record outlives the borrowed domain.
        let rec = unsafe { &*self.record };
        rec.slots[self.idx].store(std::ptr::null_mut(), Ordering::Release);
        rec.slot_bitmap
            .set(rec.slot_bitmap.get() & !(1 << self.idx));
    }
}

impl std::fmt::Debug for HazardPointer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HazardPointer")
            .field("slot", &self.idx)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
    use std::sync::Arc as StdArc;

    /// Counts live instances so tests can assert exact reclamation.
    struct Tracked {
        live: StdArc<AtomicU64>,
        value: u64,
    }
    impl Tracked {
        fn new(live: &StdArc<AtomicU64>, value: u64) -> Box<Self> {
            live.fetch_add(1, Ordering::SeqCst);
            Box::new(Self {
                live: StdArc::clone(live),
                value,
            })
        }
    }
    impl Drop for Tracked {
        fn drop(&mut self) {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn retire_without_hazard_frees_on_scan() {
        let live = StdArc::new(AtomicU64::new(0));
        let domain = Domain::new();
        for i in 0..10 {
            let b = Tracked::new(&live, i);
            // SAFETY: fresh box, unreachable to anyone.
            unsafe { domain.retire(Box::into_raw(b)) };
        }
        assert_eq!(domain.try_reclaim(), 0);
        assert_eq!(live.load(Ordering::SeqCst), 0);
        assert_eq!(domain.freed_count(), 10);
    }

    #[test]
    fn hazard_blocks_reclamation_until_cleared() {
        let live = StdArc::new(AtomicU64::new(0));
        let domain = Domain::new();
        let b = Tracked::new(&live, 42);
        let shared = AtomicPtr::new(Box::into_raw(b));

        let mut hp = domain.hazard();
        let p = hp.protect(&shared);
        // SAFETY: protected and still reachable.
        assert_eq!(unsafe { (*p).value }, 42);

        // Unlink and retire while protected.
        let old = shared.swap(std::ptr::null_mut(), Ordering::SeqCst);
        assert_eq!(old, p);
        // SAFETY: unlinked; we are the retiring owner.
        unsafe { domain.retire(old) };

        assert_eq!(
            domain.try_reclaim(),
            1,
            "protected object must survive scan"
        );
        assert_eq!(live.load(Ordering::SeqCst), 1);
        // SAFETY: hazard still held.
        assert_eq!(unsafe { (*p).value }, 42);

        hp.clear();
        assert_eq!(domain.try_reclaim(), 0);
        assert_eq!(live.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn hazard_drop_releases_protection() {
        let live = StdArc::new(AtomicU64::new(0));
        let domain = Domain::new();
        let shared = AtomicPtr::new(Box::into_raw(Tracked::new(&live, 1)));
        {
            let mut hp = domain.hazard();
            let p = hp.protect(&shared);
            let old = shared.swap(std::ptr::null_mut(), Ordering::SeqCst);
            assert_eq!(old, p);
            unsafe { domain.retire(old) };
            assert_eq!(domain.try_reclaim(), 1);
        }
        assert_eq!(domain.try_reclaim(), 0);
        assert_eq!(live.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn slots_are_reusable_and_bounded() {
        let domain = Domain::new();
        for _ in 0..100 {
            let hps: Vec<_> = (0..crate::SLOTS_PER_RECORD)
                .map(|_| domain.hazard())
                .collect();
            drop(hps);
        }
        // After drops, all slots are free again:
        let _all: Vec<_> = (0..crate::SLOTS_PER_RECORD)
            .map(|_| domain.hazard())
            .collect();
    }

    #[test]
    #[should_panic(expected = "hazard slots")]
    fn exhausting_slots_panics() {
        let domain = Domain::new();
        let _hps: Vec<_> = (0..=crate::SLOTS_PER_RECORD)
            .map(|_| domain.hazard())
            .collect();
    }

    #[test]
    fn domain_drop_frees_outstanding_retired() {
        let live = StdArc::new(AtomicU64::new(0));
        {
            let domain = Domain::new();
            for i in 0..5 {
                unsafe { domain.retire(Box::into_raw(Tracked::new(&live, i))) };
            }
            assert_eq!(live.load(Ordering::SeqCst), 5);
            // No scan ran (threshold not reached) — teardown must free.
        }
        // The TLS entry still holds the core until this thread exits, so
        // force teardown from another thread instead:
        let live2 = StdArc::new(AtomicU64::new(0));
        let l = StdArc::clone(&live2);
        std::thread::spawn(move || {
            let domain = Domain::new();
            for i in 0..5 {
                unsafe { domain.retire(Box::into_raw(Tracked::new(&l, i))) };
            }
        })
        .join()
        .unwrap();
        assert_eq!(
            live2.load(Ordering::SeqCst),
            0,
            "thread exit + domain drop must free all retired objects"
        );
    }

    #[test]
    fn records_are_reused_across_threads() {
        let domain = Domain::new();
        for _ in 0..8 {
            let d = domain.clone();
            std::thread::spawn(move || {
                let _hp = d.hazard();
            })
            .join()
            .unwrap();
        }
        assert!(
            domain.core.record_count.load(Ordering::Relaxed) <= 2,
            "sequential threads must reuse records, got {}",
            domain.core.record_count.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn concurrent_swap_and_read_stress() {
        const READERS: usize = 4;
        const WRITES: u64 = 5_000;
        let live = StdArc::new(AtomicU64::new(0));
        let domain = Domain::new();
        let shared = StdArc::new(AtomicPtr::new(Box::into_raw(Tracked::new(&live, 0))));
        let stop = StdArc::new(AtomicU64::new(0));

        let mut readers = Vec::new();
        for _ in 0..READERS {
            let d = domain.clone();
            let s = StdArc::clone(&shared);
            let stop = StdArc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut hp = d.hazard();
                let mut checksum = 0u64;
                while stop.load(Ordering::Acquire) == 0 {
                    let p = hp.protect(&s);
                    if !p.is_null() {
                        // SAFETY: protected by hp; writers retire through
                        // the same domain.
                        checksum ^= unsafe { (*p).value };
                    }
                    hp.clear();
                }
                checksum
            }));
        }

        for i in 1..=WRITES {
            let next = Box::into_raw(Tracked::new(&live, i));
            let old = shared.swap(next, Ordering::SeqCst);
            // SAFETY: unlinked by the swap; single writer owns retirement.
            unsafe { domain.retire(old) };
        }
        stop.store(1, Ordering::Release);
        for r in readers {
            r.join().unwrap();
        }

        // Free the final node too.
        let last = shared.swap(std::ptr::null_mut(), Ordering::SeqCst);
        unsafe { domain.retire(last) };
        while domain.try_reclaim() != 0 {}
        assert_eq!(live.load(Ordering::SeqCst), 0, "all nodes reclaimed");
        assert_eq!(domain.retired_count(), WRITES + 1);
    }

    /// A forced validation retry must be invisible to the caller: same
    /// pointer back, hazard still published, protection still effective.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_protect_retry_is_transparent() {
        let _x = fault::exclusive();
        fault::set_seed(21);
        fault::configure(
            "smr.protect-retry",
            fault::Policy::new(fault::Trigger::EveryNth(2)),
        );
        let live = StdArc::new(AtomicU64::new(0));
        let domain = Domain::new();
        let shared = AtomicPtr::new(Box::into_raw(Tracked::new(&live, 9)));
        let mut hp = domain.hazard();
        for _ in 0..8 {
            let p = hp.protect(&shared);
            // SAFETY: protected.
            assert_eq!(unsafe { (*p).value }, 9);
        }
        // Protection survives the retries: retire while protected defers.
        let old = shared.swap(std::ptr::null_mut(), Ordering::SeqCst);
        unsafe { domain.retire(old) };
        assert_eq!(domain.try_reclaim(), 1);
        hp.clear();
        assert_eq!(domain.try_reclaim(), 0);
        assert!(fault::hit_count("smr.protect-retry") >= 4);
        fault::reset();
    }

    #[test]
    fn protect_tracks_concurrent_updates() {
        // protect() must never return a pointer that differs from the
        // last-published value it validated against.
        let domain = Domain::new();
        let a = Box::into_raw(Box::new(7u64));
        let b = Box::into_raw(Box::new(9u64));
        let shared = AtomicPtr::new(a);
        let mut hp = domain.hazard();
        let p = hp.protect(&shared);
        assert_eq!(p, a);
        shared.store(b, Ordering::SeqCst);
        let p2 = hp.protect(&shared);
        assert_eq!(p2, b);
        // SAFETY: we own both allocations; no other threads.
        unsafe {
            drop(Box::from_raw(a));
            drop(Box::from_raw(b));
        }
    }
}
