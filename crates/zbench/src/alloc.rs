//! A counting `#[global_allocator]`: the real allocation counter behind
//! the `alloc.*` layer metrics and `alloc.bytes_per_elem`.
//!
//! Counting is off by default and switched on only around the phases it
//! measures (a prefill, the traced phase), so the untraced end-to-end run
//! pays one relaxed load per allocator call. Counts are kept per thread in
//! `const`-initialised thread-locals without destructors, which the
//! allocator may touch without allocating itself; a phase sums the deltas
//! its worker threads report.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Wraps the system allocator and counts calls and bytes while
/// [`set_counting`] is on.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static FREED: Cell<u64> = const { Cell::new(0) };
}

/// Cumulative allocator activity of one thread (or a sum over threads).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// `alloc`, `alloc_zeroed` and `realloc` calls.
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes handed back through `dealloc` and `realloc`.
    pub freed: u64,
}

impl Counts {
    /// Activity between `earlier` and `self`.
    pub fn since(self, earlier: Counts) -> Counts {
        Counts {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
            freed: self.freed - earlier.freed,
        }
    }

    /// Field-wise sum.
    pub fn plus(self, other: Counts) -> Counts {
        Counts {
            calls: self.calls + other.calls,
            bytes: self.bytes + other.bytes,
            freed: self.freed + other.freed,
        }
    }

    /// Bytes still allocated: requested minus freed. Only a sum over every
    /// thread that allocated or freed is meaningful, since one thread may
    /// free what another allocated.
    pub fn live(self) -> i64 {
        self.bytes as i64 - self.freed as i64
    }
}

/// Switch counting on or off for every thread.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// The calling thread's cumulative counts.
pub fn thread_counts() -> Counts {
    Counts {
        calls: CALLS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
        freed: FREED.with(Cell::get),
    }
}

/// Live bytes per element of what `build` leaves allocated on the calling
/// thread, where `build` returns a structure holding `n` elements.
pub fn live_bytes_per<T>(n: usize, build: impl FnOnce() -> T) -> f64 {
    set_counting(true);
    let start = thread_counts();
    let built = build();
    let live = thread_counts().since(start).live();
    set_counting(false);
    drop(built);
    live as f64 / n.max(1) as f64
}

#[inline]
fn note(allocated: usize, freed: usize, call: bool) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    // `try_with` rather than `with`: a thread may allocate while its
    // thread-locals are being torn down. Those calls go uncounted.
    let _ = CALLS.try_with(|c| c.set(c.get() + call as u64));
    let _ = BYTES.try_with(|c| c.set(c.get() + allocated as u64));
    let _ = FREED.try_with(|c| c.set(c.get() + freed as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping only
// touches destructor-free thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0, true);
        // SAFETY: forwarded contract of `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0, true);
        // SAFETY: forwarded contract of `GlobalAlloc::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, layout.size(), false);
        // SAFETY: forwarded contract of `GlobalAlloc::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, layout.size(), true);
        // SAFETY: forwarded contract of `GlobalAlloc::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_while_on_and_per_thread() {
        // Runs on its own thread so concurrent tests cannot touch the
        // thread-local counts it reads.
        std::thread::spawn(|| {
            let before = thread_counts();
            let v: Vec<u64> = Vec::with_capacity(16);
            drop(v);
            assert_eq!(thread_counts(), before, "off: nothing counted");

            set_counting(true);
            let start = thread_counts();
            let v: Vec<u64> = Vec::with_capacity(16);
            let mid = thread_counts().since(start);
            drop(v);
            let end = thread_counts().since(start);
            set_counting(false);

            assert_eq!(mid.calls, 1);
            assert_eq!(mid.bytes, 128);
            assert_eq!(mid.live(), 128);
            assert_eq!(end.live(), 0);
        })
        .join()
        .expect("alloc test thread");
    }
}
