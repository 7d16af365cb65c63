//! `defer_destroy` progress bound, in its own test binary: the epoch
//! collector is process-global, and a test that pins concurrently (the
//! unit tests and the lock-free queues' tests do) can hold the epoch
//! back past the bound below. Alone in its process, the retired node
//! must be freed within three pin/collect cycles of the unpin.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use baselines::epoch::{pin, Atomic, Shared};

struct Node {
    drops: Arc<AtomicUsize>,
}

impl Drop for Node {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn defer_destroy_waits_for_the_pin() {
    let drops = Arc::new(AtomicUsize::new(0));
    let a = Atomic::new(Node {
        drops: drops.clone(),
    });
    {
        let guard = pin();
        let s = a.load(Ordering::Acquire, &guard);
        let null: Shared<'_, Node> = Shared::null();
        a.store(null, Ordering::Release);
        unsafe { guard.defer_destroy(s) };
        smr::ebr::collect();
        // Still pinned, and no other thread exists to unpin for us.
        assert_eq!(drops.load(Ordering::SeqCst), 0, "freed under a pin");
    }
    smr::ebr::collect();
    // A fresh pin-unpin cycle guarantees the deferred drop has run.
    for _ in 0..3 {
        pin().flush();
        smr::ebr::collect();
    }
    assert_eq!(drops.load(Ordering::SeqCst), 1);
}
