//! Allocation gate: a warm queue runs its hold-model op stream with (almost)
//! no allocator calls. The sets keep their storage once warm
//! (`set_alloc.rs`), a split moves its lower half straight into the
//! children, and the default pool reuses its buffers in place. Both the
//! default `Zmsq` and the tuned `ShardedZmsq` must stay under a stated
//! ceiling of allocator calls per operation (an operation is one insert
//! or one extraction).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use zmsq::{ShardedConfig, ShardedZmsq, Zmsq, ZmsqConfig};

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

/// Elements held throughout, as in zbench's `mixed` and `sharded`.
const PREFILL: usize = 1 << 14;
/// Insert/extract pairs run before counting starts.
const WARM_PAIRS: usize = 100_000;
/// Insert/extract pairs counted.
const PAIRS: usize = 200_000;

struct Keys(u64);

impl Keys {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Allocator calls per operation over `PAIRS` hold-model pairs (extract
/// the best, insert it back minus a uniform 20-bit decrement) on a queue
/// prefilled with `PREFILL` keys and warmed for `WARM_PAIRS` pairs.
fn calls_per_op(insert: impl Fn(u64), extract: impl Fn() -> Option<u64>) -> f64 {
    let mut keys = Keys(0x9E37_79B9_7F4A_7C15);
    for _ in 0..PREFILL {
        insert((1 << 40) + (keys.next() >> 40));
    }
    let pair = |keys: &mut Keys| {
        let k = extract().expect("the queue holds PREFILL elements");
        insert(k.saturating_sub(keys.next() >> 44));
    };
    for _ in 0..WARM_PAIRS {
        pair(&mut keys);
    }
    let before = calls();
    for _ in 0..PAIRS {
        pair(&mut keys);
    }
    (calls() - before) as f64 / (2 * PAIRS) as f64
}

#[test]
fn warm_default_queue_stays_under_allocation_ceiling() {
    /// Ceiling: one allocator call per ten thousand operations, ten times
    /// the measured 0.00001 (4 calls in the 400,000 counted operations;
    /// before splits stopped allocating it was 0.0003). A `Vec` per split
    /// would make about 0.0003, a pool buffer per refill about 0.05.
    const CEILING: f64 = 0.0001;
    let q: Zmsq<u64> = Zmsq::new();
    let per_op = calls_per_op(|k| q.insert(k, k), || q.extract_max().map(|(k, _)| k));
    eprintln!("default Zmsq: {per_op:.5} allocator calls/op");
    assert!(
        per_op <= CEILING,
        "warm default Zmsq made {per_op:.5} allocator calls/op (ceiling {CEILING})"
    );
    assert_eq!(
        q.stats().pool_buffers,
        1,
        "one thread never lags its refill"
    );
}

#[test]
fn warm_tuned_sharded_queue_stays_under_allocation_ceiling() {
    /// Ceiling: four allocator calls per thousand operations, 2.5 times
    /// the measured 0.0016 (0.0045 when every split allocated a `Vec`).
    /// All of it is first use of a node: a split into a child whose set
    /// never held anything reserves the ring's first 64 slots and then
    /// doubles it twice, three calls per node (606 calls for about 200
    /// such nodes in the counted window, none freed). The tree is still
    /// reaching nodes it never used, so the rate falls to 0.0010 over
    /// four times as many operations. A pool that allocated a buffer per
    /// refill would make about 0.4.
    const CEILING: f64 = 0.004;
    let q: ShardedZmsq<u64> = ShardedZmsq::with_tuning(
        2,
        ZmsqConfig::recommended().batch(16).adaptive_batch(4, 64),
        ShardedConfig::new().insert_buffer(64).delete_buffer(64),
    );
    let per_op = calls_per_op(|k| q.insert(k, k), || q.extract_max().map(|(k, _)| k));
    eprintln!("tuned ShardedZmsq: {per_op:.5} allocator calls/op");
    assert!(
        per_op <= CEILING,
        "warm tuned ShardedZmsq made {per_op:.5} allocator calls/op (ceiling {CEILING})"
    );
}
