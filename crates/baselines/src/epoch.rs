//! A minimal, crossbeam-epoch-compatible facade over [`smr::ebr`].
//!
//! The lock-free baselines (skiplist, SprayList, k-LSM run stack) were
//! written against the `crossbeam_epoch` API: typed [`Atomic`] links,
//! tagged [`Shared`] snapshots valid for the lifetime of a pinned
//! [`Guard`], heap-owned [`Owned`] nodes, and `defer_destroy` for
//! unlinked memory. This module reproduces exactly the slice of that API
//! the baselines use, backed by this repo's own epoch collector
//! ([`smr::ebr`]) so the crate has no external dependencies.
//!
//! Pointer tags live in the low bits freed by `T`'s alignment, as in
//! crossbeam; the baselines only ever use tag bit 0 (the deletion mark).

use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bit mask of the tag bits available for `T` (its alignment is a power
/// of two; the low `log2(align)` bits of any valid pointer are zero).
#[inline]
const fn low_bits<T>() -> usize {
    std::mem::align_of::<T>() - 1
}

#[inline]
fn decompose<T>(data: usize) -> (*mut T, usize) {
    ((data & !low_bits::<T>()) as *mut T, data & low_bits::<T>())
}

/// A pinned-epoch guard. While one is live, memory handed to
/// [`Guard::defer_destroy`] by any thread after this pin cannot be freed.
pub struct Guard {
    /// `None` only for the static [`unprotected`] guard, whose
    /// `defer_destroy` drops immediately (caller asserts exclusivity).
    inner: Option<smr::ebr::Guard>,
}

impl Guard {
    /// Defer destruction (`Box::from_raw`) of `ptr`'s untagged address
    /// until no guard pinned at or before now remains.
    ///
    /// # Safety
    ///
    /// The object must be unreachable to threads that pin after this
    /// call, must not be retired twice, and `ptr` must have come from
    /// `Owned::new`/`into_shared` (i.e. a `Box<T>` allocation).
    pub unsafe fn defer_destroy<T>(&self, ptr: Shared<'_, T>) {
        let (raw, _) = decompose::<T>(ptr.data);
        if raw.is_null() {
            return;
        }
        unsafe fn drop_box<T>(p: *mut u8) {
            unsafe { drop(Box::from_raw(p.cast::<T>())) }
        }
        match &self.inner {
            Some(g) => {
                // Erase `T` so the deferred closure is `'static` even when
                // `T` carries a lifetime: a fn pointer over `*mut u8` is.
                struct SendPtr(*mut u8, unsafe fn(*mut u8));
                unsafe impl Send for SendPtr {}
                let p = SendPtr(raw.cast(), drop_box::<T>);
                unsafe {
                    g.defer_unchecked(move || {
                        // Braced form: capture the whole struct (its Send
                        // impl), not its non-Send fields individually.
                        let SendPtr(q, f) = { p };
                        f(q)
                    });
                }
            }
            // Unprotected: the caller promises exclusivity; drop now.
            None => unsafe { drop_box::<T>(raw.cast()) },
        }
    }

    /// Eagerly run a collection cycle on the global collector.
    pub fn flush(&self) {
        smr::ebr::collect();
    }
}

/// Pin the current thread's epoch participant.
pub fn pin() -> Guard {
    Guard {
        inner: Some(smr::ebr::pin()),
    }
}

/// A guard usable without pinning, for contexts with exclusive access
/// (constructors, `Drop` with `&mut self`).
///
/// # Safety
///
/// The caller must guarantee no other thread can concurrently access the
/// data structures traversed through this guard: `defer_destroy` through
/// it frees immediately.
pub unsafe fn unprotected() -> &'static Guard {
    struct RacyGuard(Guard);
    // SAFETY: the inner guard is `None`, so the shared reference never
    // touches the (thread-bound) participant machinery.
    unsafe impl Sync for RacyGuard {}
    static UNPROTECTED: RacyGuard = RacyGuard(Guard { inner: None });
    &UNPROTECTED.0
}

/// Types convertible to/from a raw tagged-pointer word: [`Owned`] and
/// [`Shared`]. Lets `Atomic::store`/`compare_exchange` accept either.
pub trait Pointer<T> {
    /// Consume into the raw word (pointer | tag).
    fn into_usize(self) -> usize;
    /// Rebuild from a raw word.
    ///
    /// # Safety
    ///
    /// `data` must have come from `into_usize` of the same impl, exactly
    /// once (ownership transfers for `Owned`).
    unsafe fn from_usize(data: usize) -> Self;
}

/// An atomic tagged pointer to `T`, the link type of the lock-free
/// structures.
pub struct Atomic<T> {
    data: AtomicUsize,
    _marker: PhantomData<*mut T>,
}

unsafe impl<T: Send + Sync> Send for Atomic<T> {}
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

impl<T> Atomic<T> {
    /// A null link.
    pub const fn null() -> Self {
        Self {
            data: AtomicUsize::new(0),
            _marker: PhantomData,
        }
    }

    /// Allocate `value` on the heap and point at it.
    pub fn new(value: T) -> Self {
        let data = Owned::new(value).into_usize();
        Self {
            data: AtomicUsize::new(data),
            _marker: PhantomData,
        }
    }

    /// Load a snapshot valid for `_guard`'s pin.
    pub fn load<'g>(&self, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        Shared::from_data(self.data.load(ord))
    }

    /// Store a new pointer (an [`Owned`] transfers ownership into the
    /// link; a [`Shared`] just copies the word).
    pub fn store<P: Pointer<T>>(&self, new: P, ord: Ordering) {
        self.data.store(new.into_usize(), ord);
    }

    /// CAS `current` → `new`. On failure the actual value comes back as
    /// `current` and the (not consumed) `new` pointer is handed back so
    /// an `Owned` can be retried without reallocating.
    pub fn compare_exchange<'g, P: Pointer<T>>(
        &self,
        current: Shared<'_, T>,
        new: P,
        success: Ordering,
        failure: Ordering,
        _guard: &'g Guard,
    ) -> Result<Shared<'g, T>, CompareExchangeError<'g, T, P>> {
        let new_data = new.into_usize();
        match self
            .data
            .compare_exchange(current.data, new_data, success, failure)
        {
            Ok(_) => Ok(Shared::from_data(new_data)),
            Err(actual) => Err(CompareExchangeError {
                current: Shared::from_data(actual),
                new: unsafe { P::from_usize(new_data) },
            }),
        }
    }
}

impl<T> Default for Atomic<T> {
    fn default() -> Self {
        Self::null()
    }
}

/// The failure payload of [`Atomic::compare_exchange`].
pub struct CompareExchangeError<'g, T, P: Pointer<T>> {
    /// The value the link actually held.
    pub current: Shared<'g, T>,
    /// The proposed value, handed back un-consumed.
    pub new: P,
}

impl<T, P: Pointer<T>> std::fmt::Debug for CompareExchangeError<'_, T, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompareExchangeError")
            .field("current", &self.current)
            .finish_non_exhaustive()
    }
}

/// A tagged pointer snapshot tied to a [`Guard`]'s pin lifetime.
pub struct Shared<'g, T> {
    data: usize,
    _marker: PhantomData<(&'g (), *const T)>,
}

impl<T> Clone for Shared<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Shared<'_, T> {}

impl<T> PartialEq for Shared<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}
impl<T> Eq for Shared<'_, T> {}

impl<T> std::fmt::Debug for Shared<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (raw, tag) = decompose::<T>(self.data);
        f.debug_struct("Shared")
            .field("raw", &raw)
            .field("tag", &tag)
            .finish()
    }
}

impl<'g, T> Shared<'g, T> {
    fn from_data(data: usize) -> Self {
        Self {
            data,
            _marker: PhantomData,
        }
    }

    /// The null snapshot.
    pub fn null() -> Self {
        Self::from_data(0)
    }

    /// Whether the (untagged) pointer is null.
    pub fn is_null(&self) -> bool {
        decompose::<T>(self.data).0.is_null()
    }

    /// The untagged raw pointer.
    pub fn as_raw(&self) -> *const T {
        decompose::<T>(self.data).0
    }

    /// The tag in the low alignment bits.
    pub fn tag(&self) -> usize {
        self.data & low_bits::<T>()
    }

    /// The same pointer with the tag replaced by `tag` (masked to fit).
    pub fn with_tag(&self, tag: usize) -> Self {
        Self::from_data((self.data & !low_bits::<T>()) | (tag & low_bits::<T>()))
    }

    /// Dereference, `None` for null.
    ///
    /// # Safety
    ///
    /// Non-null pointers must still be protected by the guard's pin (not
    /// yet freed by the collector).
    pub unsafe fn as_ref(&self) -> Option<&'g T> {
        unsafe { decompose::<T>(self.data).0.as_ref() }
    }

    /// Dereference a known-non-null pointer.
    ///
    /// # Safety
    ///
    /// As [`Shared::as_ref`], plus the pointer must be non-null.
    pub unsafe fn deref(&self) -> &'g T {
        unsafe { &*decompose::<T>(self.data).0 }
    }

    /// Take back ownership of the allocation.
    ///
    /// # Safety
    ///
    /// The caller must have exclusive access (the pointer unreachable to
    /// every other thread) and must not have retired it.
    pub unsafe fn into_owned(self) -> Owned<T> {
        debug_assert!(!self.is_null());
        Owned {
            data: (self.data & !low_bits::<T>()),
            _marker: PhantomData,
        }
    }
}

/// An owned heap allocation not yet published; freed on drop unless
/// consumed by `into_shared`/`store`/a successful CAS.
pub struct Owned<T> {
    data: usize,
    _marker: PhantomData<Box<T>>,
}

impl<T> Owned<T> {
    /// Box `value`.
    pub fn new(value: T) -> Self {
        Self {
            data: Box::into_raw(Box::new(value)) as usize,
            _marker: PhantomData,
        }
    }

    /// Publish as a [`Shared`] under `_guard` (ownership moves to the
    /// data structure; reclaim later via `defer_destroy`/`into_owned`).
    pub fn into_shared<'g>(self, _guard: &'g Guard) -> Shared<'g, T> {
        Shared::from_data(self.into_usize())
    }
}

impl<T> Pointer<T> for Owned<T> {
    fn into_usize(self) -> usize {
        let data = self.data;
        std::mem::forget(self);
        data
    }
    unsafe fn from_usize(data: usize) -> Self {
        Self {
            data,
            _marker: PhantomData,
        }
    }
}

impl<T> Pointer<T> for Shared<'_, T> {
    fn into_usize(self) -> usize {
        self.data
    }
    unsafe fn from_usize(data: usize) -> Self {
        Self::from_data(data)
    }
}

impl<T> Deref for Owned<T> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { &*decompose::<T>(self.data).0 }
    }
}

impl<T> DerefMut for Owned<T> {
    fn deref_mut(&mut self) -> &mut T {
        unsafe { &mut *decompose::<T>(self.data).0 }
    }
}

impl<T> Drop for Owned<T> {
    fn drop(&mut self) {
        let (raw, _) = decompose::<T>(self.data);
        if !raw.is_null() {
            unsafe { drop(Box::from_raw(raw)) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize as Counter;
    use std::sync::Arc;

    struct Node {
        value: u64,
        drops: Arc<Counter>,
    }
    impl Drop for Node {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn tag_roundtrip_preserves_pointer() {
        let drops = Arc::new(Counter::new(0));
        let guard = &pin();
        let a = Atomic::new(Node {
            value: 7,
            drops: drops.clone(),
        });
        let s = a.load(Ordering::Acquire, guard);
        assert_eq!(s.tag(), 0);
        let marked = s.with_tag(1);
        assert_eq!(marked.tag(), 1);
        assert_eq!(marked.as_raw(), s.as_raw());
        assert_eq!(unsafe { marked.deref() }.value, 7);
        assert_eq!(unsafe { marked.with_tag(0).as_ref() }.unwrap().value, 7);
        drop(unsafe { s.into_owned() });
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn failed_cas_hands_the_owned_back() {
        let drops = Arc::new(Counter::new(0));
        let guard = &pin();
        let a = Atomic::new(Node {
            value: 1,
            drops: drops.clone(),
        });
        let actual = a.load(Ordering::Acquire, guard);
        let fresh = Owned::new(Node {
            value: 2,
            drops: drops.clone(),
        });
        // CAS against a stale expectation (null) must fail and return
        // both the live value and the un-consumed Owned.
        let err = a
            .compare_exchange(
                Shared::null(),
                fresh,
                Ordering::AcqRel,
                Ordering::Acquire,
                guard,
            )
            .unwrap_err();
        assert_eq!(err.current, actual);
        assert_eq!(err.new.value, 2);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(err.new);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        drop(unsafe { actual.into_owned() });
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn successful_cas_consumes_and_returns_new() {
        let drops = Arc::new(Counter::new(0));
        let guard = &pin();
        let a: Atomic<Node> = Atomic::null();
        let fresh = Owned::new(Node {
            value: 9,
            drops: drops.clone(),
        });
        let published = a
            .compare_exchange(
                Shared::null(),
                fresh,
                Ordering::AcqRel,
                Ordering::Acquire,
                guard,
            )
            .unwrap();
        assert_eq!(unsafe { published.deref() }.value, 9);
        assert_eq!(a.load(Ordering::Acquire, guard), published);
        drop(unsafe { published.into_owned() });
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn unprotected_defer_destroy_is_immediate() {
        let drops = Arc::new(Counter::new(0));
        let a = Atomic::new(Node {
            value: 4,
            drops: drops.clone(),
        });
        let guard = unsafe { unprotected() };
        let s = a.load(Ordering::Relaxed, guard);
        unsafe { guard.defer_destroy(s) };
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        // Null defer is a no-op.
        unsafe { guard.defer_destroy(Shared::<Node>::null()) };
    }
}
