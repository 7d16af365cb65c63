//! Sorted-ring set — the production set, beyond the paper's two
//! representations.
//!
//! Reproduction finding (see EXPERIMENTS.md): with a plain singly-linked
//! list, the §3.2 parent-min swap costs an O(set_len) pointer walk to
//! remove the parent's minimum plus another to insert the demoted element
//! near the child's tail — and it fires on most inserts, dominating the
//! list variant's insert cost. The paper asserts the swap adds "no
//! measurable overhead", which implies a representation with cheap access
//! to *both* ends.
//!
//! This set provides exactly that: elements sorted **ascending** in a
//! `VecDeque` (a ring buffer), so the max (back) and min (front) are
//! O(1), inserts are a binary search plus a contiguous shift, and
//! `drain_top` drains the tail. It keeps the ordered-traversal property
//! the pool refill relies on while fixing the min-swap's complexity.
//!
//! Storage is bounded and reused. The ring reserves [`FIRST_RESERVE`]
//! slots on its first insert, not when its node is built, so empty
//! leaves cost no memory; it doubles when full and never shrinks. Sets
//! hold at most `2·target_len` elements between operations (the split
//! cap), so after warm-up every insert, removal, `drain_top` into a
//! reserved `out` and split into two children runs without calling the
//! allocator.

use std::collections::VecDeque;

use super::NodeSet;

/// Slots reserved on a set's first insert. At the recommended
/// `target_len = 72`, two doublings cover the split cap of 144 and the
/// transient peak of an overfull set.
const FIRST_RESERVE: usize = 64;

/// A multiset as an ascending sorted ring.
pub struct DequeSet<V> {
    items: VecDeque<(u64, V)>,
}

impl<V> Default for DequeSet<V> {
    fn default() -> Self {
        Self {
            items: VecDeque::new(),
        }
    }
}

impl<V> DequeSet<V> {
    /// First index whose priority is > `prio` (insertion point keeping
    /// ascending order, after any equal keys).
    fn upper_bound(&self, prio: u64) -> usize {
        self.items.partition_point(|&(k, _)| k <= prio)
    }
}

impl<V: Send> NodeSet<V> for DequeSet<V> {
    const KIND: &'static str = "deque";
    type Arena = ();

    #[inline]
    fn len(&self) -> usize {
        self.items.len()
    }

    #[inline]
    fn max_key(&self) -> Option<u64> {
        self.items.back().map(|&(k, _)| k)
    }

    #[inline]
    fn min_key(&self) -> Option<u64> {
        self.items.front().map(|&(k, _)| k)
    }

    fn insert(&mut self, prio: u64, value: V) {
        if self.items.capacity() == 0 {
            self.items.reserve_exact(FIRST_RESERVE);
        }
        // Fast paths for the two hot cases: new max (regular insertion)
        // and new min (the demoted element of a parent-min swap).
        if self.max_key().is_none_or(|m| prio >= m) {
            self.items.push_back((prio, value));
        } else if self.min_key().is_some_and(|m| prio <= m) {
            self.items.push_front((prio, value));
        } else {
            let at = self.upper_bound(prio);
            self.items.insert(at, (prio, value));
        }
    }

    #[inline]
    fn remove_max(&mut self) -> Option<(u64, V)> {
        self.items.pop_back()
    }

    #[inline]
    fn remove_min(&mut self) -> Option<(u64, V)> {
        self.items.pop_front()
    }

    fn drain_top(&mut self, n: usize, out: &mut Vec<(u64, V)>) {
        let take = n.min(self.items.len());
        let split = self.items.len() - take;
        out.extend(self.items.drain(split..)); // already ascending
    }

    fn split_lower_half(&mut self) -> Vec<(u64, V)> {
        let remove = self.items.len() / 2;
        self.items.drain(..remove).collect()
    }

    fn split_lower_half_into(&mut self, left: &mut Self, right: &mut Self) {
        let remove = self.items.len() / 2;
        for (i, (k, v)) in self.items.drain(..remove).enumerate() {
            if i % 2 == 0 {
                left.insert(k, v);
            } else {
                right.insert(k, v);
            }
        }
    }

    fn drain_all(&mut self, out: &mut Vec<(u64, V)>) {
        out.extend(self.items.drain(..));
    }
}

impl<V> std::fmt::Debug for DequeSet<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let keys: Vec<u64> = self.items.iter().map(|&(k, _)| k).collect();
        f.debug_struct("DequeSet").field("keys", &keys).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_sorted_through_mixed_inserts() {
        let mut s = DequeSet::default();
        for k in [50u64, 10, 90, 50, 30, 70, 10, 90] {
            s.insert(k, k);
        }
        let keys: Vec<u64> = s.items.iter().map(|&(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(s.min_key(), Some(10));
        assert_eq!(s.max_key(), Some(90));
    }

    #[test]
    fn min_swap_primitive_ops_are_end_ops() {
        // The pattern regular_insert uses: remove_min from the parent and
        // push the demoted element as the child's new low element.
        let mut parent = DequeSet::default();
        for k in [10u64, 40, 70] {
            parent.insert(k, k);
        }
        let demoted = parent.remove_min().unwrap();
        assert_eq!(demoted, (10, 10));
        parent.insert(55, 55);
        assert_eq!(parent.min_key(), Some(40));

        let mut child = DequeSet::default();
        for k in [20u64, 30] {
            child.insert(k, k);
        }
        child.insert(demoted.0, demoted.1); // <= min: push_front path
        assert_eq!(child.min_key(), Some(10));
        assert_eq!(child.max_key(), Some(30));
    }

    #[test]
    fn drain_top_is_ascending_tail() {
        let mut s = DequeSet::default();
        for k in [5u64, 1, 9, 3, 7] {
            s.insert(k, k);
        }
        let mut out = Vec::new();
        s.drain_top(2, &mut out);
        assert_eq!(out, vec![(7, 7), (9, 9)]);
        assert_eq!(s.max_key(), Some(5));
    }

    #[test]
    fn capacity_is_reserved_lazily_and_kept() {
        let mut s = DequeSet::default();
        assert_eq!(s.items.capacity(), 0, "an empty node reserves nothing");
        s.insert(1, 1);
        assert!(s.items.capacity() >= FIRST_RESERVE);
        for k in 0..200u64 {
            s.insert(k, k);
        }
        let grown = s.items.capacity();
        let mut out = Vec::new();
        s.drain_all(&mut out);
        assert_eq!(s.items.capacity(), grown, "draining never shrinks");
    }
}
