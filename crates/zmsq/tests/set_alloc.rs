//! The production node set runs without the allocator once warm: after
//! one warm-up cycle, inserts, `remove_max`, `remove_min` and
//! `drain_top` into a reserved buffer make zero allocator calls at the
//! set lengths the queue keeps (`target_len` 72 up to the split cap 144).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use zmsq::{DequeSet, NodeSet, TatasLock, Zmsq};

/// Counts this thread's allocator calls, so tests running in parallel do
/// not see each other's.
struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump();
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const TARGET_LEN: usize = 72;
const BATCH: usize = 48;

fn next_key(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x >> 44
}

/// One cycle from 72 elements up to 144 and back: inserts, one pool-sized
/// `drain_top`, then removals from both ends.
fn cycle(set: &mut DequeSet<u64>, out: &mut Vec<(u64, u64)>, x: &mut u64) {
    for _ in 0..TARGET_LEN {
        let k = next_key(x);
        set.insert(k, k);
    }
    assert_eq!(set.len(), 2 * TARGET_LEN);
    out.clear();
    set.drain_top(BATCH, out);
    assert_eq!(out.len(), BATCH);
    for _ in 0..12 {
        assert!(set.remove_max().is_some());
        assert!(set.remove_min().is_some());
    }
    assert_eq!(set.len(), TARGET_LEN);
}

#[test]
fn warm_set_operations_make_no_allocator_calls() {
    // The set under test is the one `Zmsq<V>` uses by default.
    let _: Zmsq<u64> = Zmsq::<u64, DequeSet<u64>, TatasLock>::new();

    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut set = DequeSet::default();
    for _ in 0..TARGET_LEN {
        let k = next_key(&mut x);
        set.insert(k, k);
    }
    let mut out = Vec::with_capacity(BATCH);
    cycle(&mut set, &mut out, &mut x);

    let before = calls();
    for _ in 0..100 {
        cycle(&mut set, &mut out, &mut x);
    }
    assert_eq!(
        calls() - before,
        0,
        "warm set operations called the allocator"
    );
}
