//! Tree nodes (§3.1).
//!
//! A `TNode` couples a lock-protected element set with lock-free-readable
//! cached metadata: "To reduce latency and synchronization, a TNode caches
//! its set's min and max values, as well as its count of elements, in
//! atomic variables that are only updated while holding lock."
//!
//! The cached fields use `Relaxed` ordering throughout: every decision
//! based on an optimistic read is re-validated under the node's lock, and
//! the lock's acquire/release fences order the set data itself. Torn
//! (mutually inconsistent) reads of `max`/`count` can only send an
//! operation down a path whose validation then fails and restarts.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use zmsq_sync::RawTryLock;

use crate::set::NodeSet;

/// Sentinel stored in the `max` cache when the set is empty.
const EMPTY_MAX: u64 = 0;
/// Sentinel stored in the `min` cache when the set is empty.
const EMPTY_MIN: u64 = u64::MAX;

/// A node of the ZMSQ tree: a lock, a set, and cached set metadata.
///
/// Alignment pads each node to its own cache line pair so that lock and
/// metadata traffic on one node never false-shares with a sibling in the
/// same level array.
#[repr(align(128))]
pub(crate) struct TNode<V, S, L> {
    lock: L,
    max: AtomicU64,
    min: AtomicU64,
    count: AtomicU32,
    set: UnsafeCell<S>,
    _values: PhantomData<V>,
}

// SAFETY: the `UnsafeCell<S>` is only accessed through `set_mut`, whose
// contract requires holding `lock`; everything else is atomic.
unsafe impl<V: Send, S: Send, L: Send + Sync> Sync for TNode<V, S, L> {}
unsafe impl<V: Send, S: Send, L: Send> Send for TNode<V, S, L> {}

impl<V, S: NodeSet<V>, L: RawTryLock> TNode<V, S, L> {
    pub fn new() -> Self {
        Self {
            lock: L::default(),
            max: AtomicU64::new(EMPTY_MAX),
            min: AtomicU64::new(EMPTY_MIN),
            count: AtomicU32::new(0),
            set: UnsafeCell::new(S::default()),
            _values: PhantomData,
        }
    }

    // ---- lock ----

    #[inline]
    pub fn lock(&self) {
        self.lock.lock();
    }

    #[inline]
    pub fn try_lock(&self) -> bool {
        self.lock.try_lock()
    }

    #[inline]
    pub fn unlock(&self) {
        self.lock.unlock();
    }

    // ---- optimistic metadata reads (no lock required) ----

    /// Cached max priority; `None` if the set is (cached as) empty.
    ///
    /// `Option` ordering gives empty nodes −∞ semantics: `None < Some(0)`,
    /// which the invariant machinery relies on (an empty node compares
    /// below every element, so empty parents are never left above
    /// nonempty children).
    #[inline]
    pub fn max_key(&self) -> Option<u64> {
        if self.count.load(Ordering::Relaxed) == 0 {
            None
        } else {
            Some(self.max.load(Ordering::Relaxed))
        }
    }

    /// Cached min priority; `None` if empty.
    #[inline]
    pub fn min_key(&self) -> Option<u64> {
        if self.count.load(Ordering::Relaxed) == 0 {
            None
        } else {
            Some(self.min.load(Ordering::Relaxed))
        }
    }

    /// Cached element count.
    #[inline]
    pub fn count(&self) -> usize {
        self.count.load(Ordering::Relaxed) as usize
    }

    // ---- set access (lock required) ----

    /// Access the set.
    ///
    /// # Safety
    ///
    /// The caller must hold this node's lock. The returned reference must
    /// not outlive the lock tenure, and [`TNode::refresh_cache`] must be
    /// called before unlocking if the set was mutated.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn set_mut(&self) -> &mut S {
        // SAFETY: exclusive access guaranteed by the lock (caller contract).
        unsafe { &mut *self.set.get() }
    }

    /// Recompute the cached `max`/`min`/`count` from the set.
    ///
    /// # Safety
    ///
    /// The caller must hold this node's lock.
    pub unsafe fn refresh_cache(&self) {
        // SAFETY: caller holds the lock.
        let set = unsafe { &*self.set.get() };
        self.count.store(set.len() as u32, Ordering::Relaxed);
        self.max
            .store(set.max_key().unwrap_or(EMPTY_MAX), Ordering::Relaxed);
        self.min
            .store(set.min_key().unwrap_or(EMPTY_MIN), Ordering::Relaxed);
    }

    /// Cheaper cache update for the common insert case: one element of
    /// priority `prio` was added and nothing removed.
    ///
    /// # Safety
    ///
    /// The caller must hold this node's lock and have just inserted
    /// exactly one element with priority `prio`.
    pub unsafe fn cache_after_insert(&self, prio: u64) {
        let n = self.count.load(Ordering::Relaxed);
        if n == 0 {
            self.max.store(prio, Ordering::Relaxed);
            self.min.store(prio, Ordering::Relaxed);
        } else {
            if prio > self.max.load(Ordering::Relaxed) {
                self.max.store(prio, Ordering::Relaxed);
            }
            if prio < self.min.load(Ordering::Relaxed) {
                self.min.store(prio, Ordering::Relaxed);
            }
        }
        self.count.store(n + 1, Ordering::Relaxed);
    }

    /// Swap this node's set and cached metadata with another node's.
    ///
    /// # Safety
    ///
    /// The caller must hold **both** locks.
    pub unsafe fn swap_contents(&self, other: &Self) {
        // SAFETY: both locks held (caller contract); the two cells are
        // distinct (`self` and `other` are different nodes — enforced by
        // the tree's parent/child call sites).
        unsafe {
            std::ptr::swap(self.set.get(), other.set.get());
        }
        let (am, bm) = (
            self.max.load(Ordering::Relaxed),
            other.max.load(Ordering::Relaxed),
        );
        self.max.store(bm, Ordering::Relaxed);
        other.max.store(am, Ordering::Relaxed);
        let (an, bn) = (
            self.min.load(Ordering::Relaxed),
            other.min.load(Ordering::Relaxed),
        );
        self.min.store(bn, Ordering::Relaxed);
        other.min.store(an, Ordering::Relaxed);
        let (ac, bc) = (
            self.count.load(Ordering::Relaxed),
            other.count.load(Ordering::Relaxed),
        );
        self.count.store(bc, Ordering::Relaxed);
        other.count.store(ac, Ordering::Relaxed);
    }
}

impl<V, S, L> std::fmt::Debug for TNode<V, S, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TNode")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("max", &self.max.load(Ordering::Relaxed))
            .field("min", &self.min.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::ListSet;
    use zmsq_sync::TatasLock;

    type Node = TNode<u64, ListSet<u64>, TatasLock>;

    #[test]
    fn empty_node_has_none_keys() {
        let n = Node::new();
        assert_eq!(n.max_key(), None);
        assert_eq!(n.min_key(), None);
        assert_eq!(n.count(), 0);
        // None sorts below every Some — the −∞ property.
        assert!(n.max_key() < Some(0));
    }

    #[test]
    fn cache_tracks_set() {
        let n = Node::new();
        n.lock();
        // SAFETY: lock held.
        unsafe {
            let set = n.set_mut();
            set.insert(5, 5);
            set.insert(9, 9);
            set.insert(2, 2);
            n.refresh_cache();
        }
        n.unlock();
        assert_eq!(n.max_key(), Some(9));
        assert_eq!(n.min_key(), Some(2));
        assert_eq!(n.count(), 3);
    }

    #[test]
    fn incremental_cache_after_insert() {
        let n = Node::new();
        n.lock();
        unsafe {
            n.set_mut().insert(5, 5);
            n.cache_after_insert(5);
            n.set_mut().insert(9, 9);
            n.cache_after_insert(9);
            n.set_mut().insert(2, 2);
            n.cache_after_insert(2);
        }
        n.unlock();
        assert_eq!(n.max_key(), Some(9));
        assert_eq!(n.min_key(), Some(2));
        assert_eq!(n.count(), 3);
    }

    #[test]
    fn swap_contents_exchanges_everything() {
        let a = Node::new();
        let b = Node::new();
        a.lock();
        b.lock();
        unsafe {
            a.set_mut().insert(10, 10);
            a.refresh_cache();
            b.set_mut().insert(7, 7);
            b.set_mut().insert(3, 3);
            b.refresh_cache();
            a.swap_contents(&b);
        }
        assert_eq!(a.count(), 2);
        assert_eq!(a.max_key(), Some(7));
        assert_eq!(a.min_key(), Some(3));
        assert_eq!(b.count(), 1);
        assert_eq!(b.max_key(), Some(10));
        unsafe {
            assert_eq!(a.set_mut().remove_max(), Some((7, 7)));
        }
        a.unlock();
        b.unlock();
    }

    #[test]
    fn node_is_cache_line_aligned() {
        assert_eq!(std::mem::align_of::<Node>() % 128, 0);
    }
}
