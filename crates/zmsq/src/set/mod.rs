//! Per-node element sets.
//!
//! Each `TNode` stores a multiset of `(priority, value)` pairs. The
//! production set is [`DequeSet`], a sorted ring that is O(1) at both
//! ends and the default type parameter of `Zmsq` and `ShardedZmsq`. The
//! paper evaluates two other representations (§4), kept as the paper's
//! figure arms: a **sorted singly linked list** ([`ListSet`], the "ZMSQ"
//! curves, mirroring the mound) and an **unsorted array** ([`ArraySet`],
//! the "(array)" curves).
//!
//! Sets are *not* thread-safe: the owning `TNode`'s lock serializes all
//! access. Duplicate priorities are allowed.

mod array;
mod deque;
mod list;

pub use array::ArraySet;
pub use deque::DequeSet;
pub use list::ListSet;

/// The multiset stored in each tree node.
///
/// Implementations must uphold, for all operations:
/// * `len` equals the number of stored pairs;
/// * `max_key`/`min_key` are `None` iff empty;
/// * `remove_max` returns a pair with the largest priority (ties broken
///   arbitrarily), `remove_min` the smallest;
/// * `drain_top(n, out)` removes the `min(n, len)` largest pairs and
///   appends them to `out` in **ascending** priority order (the pool is
///   consumed from the highest index down, so ascending slot order hands
///   out the best elements first);
/// * `split_lower_half` removes and returns the `len / 2` smallest pairs
///   (any order); `split_lower_half_into` moves the same pairs into two
///   other sets instead.
pub trait NodeSet<V>: Default + Send {
    /// Short tag used in queue names: `"deque"`, `"list"` or `"array"`.
    const KIND: &'static str;

    /// Always `()`. This item, [`new_arena`](Self::new_arena) and
    /// [`attach`](Self::attach) exist only for the `zbench` set
    /// micro-benchmark, which still calls them; the queue does not.
    type Arena: Send + Sync + Default;

    /// Returns `()`; see [`Arena`](Self::Arena).
    fn new_arena(prealloc: usize) -> Self::Arena {
        let _ = prealloc;
        Default::default()
    }

    /// Does nothing; see [`Arena`](Self::Arena).
    fn attach(&mut self, arena: &Self::Arena) {
        let _ = arena;
    }

    /// Number of stored pairs.
    fn len(&self) -> usize;

    /// Whether the set is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest stored priority, or `None` if empty.
    fn max_key(&self) -> Option<u64>;

    /// Smallest stored priority, or `None` if empty.
    fn min_key(&self) -> Option<u64>;

    /// Insert a pair.
    fn insert(&mut self, prio: u64, value: V);

    /// Remove and return a pair with the largest priority.
    fn remove_max(&mut self) -> Option<(u64, V)>;

    /// Remove and return a pair with the smallest priority.
    fn remove_min(&mut self) -> Option<(u64, V)>;

    /// Remove the `min(n, len)` largest pairs, appending them to `out` in
    /// ascending priority order.
    fn drain_top(&mut self, n: usize, out: &mut Vec<(u64, V)>);

    /// Remove and return the `len / 2` smallest pairs.
    fn split_lower_half(&mut self) -> Vec<(u64, V)>;

    /// Move the `len / 2` smallest pairs into `left` and `right`,
    /// alternating between them (the split's distribution). The default
    /// goes through [`split_lower_half`](Self::split_lower_half)'s `Vec`;
    /// [`DequeSet`] overrides it to drain its front with no allocation.
    fn split_lower_half_into(&mut self, left: &mut Self, right: &mut Self) {
        for (i, (k, v)) in self.split_lower_half().into_iter().enumerate() {
            if i % 2 == 0 {
                left.insert(k, v);
            } else {
                right.insert(k, v);
            }
        }
    }

    /// Remove everything, appending to `out` in arbitrary order.
    fn drain_all(&mut self, out: &mut Vec<(u64, V)>);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Exercise any NodeSet implementation against the invariants above.
    fn exercise_basic<S: NodeSet<u64>>() {
        let mut s = S::default();
        assert!(s.is_empty());
        assert_eq!(s.max_key(), None);
        assert_eq!(s.min_key(), None);
        assert_eq!(s.remove_max(), None);
        assert_eq!(s.remove_min(), None);

        for k in [5u64, 1, 9, 7, 3] {
            s.insert(k, k * 10);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.max_key(), Some(9));
        assert_eq!(s.min_key(), Some(1));

        assert_eq!(s.remove_max(), Some((9, 90)));
        assert_eq!(s.remove_min(), Some((1, 10)));
        assert_eq!(s.len(), 3);
        assert_eq!(s.max_key(), Some(7));
        assert_eq!(s.min_key(), Some(3));
    }

    fn exercise_duplicates<S: NodeSet<u64>>() {
        let mut s = S::default();
        for i in 0..4 {
            s.insert(42, i);
        }
        s.insert(10, 100);
        s.insert(50, 500);
        assert_eq!(s.len(), 6);
        assert_eq!(s.remove_max(), Some((50, 500)));
        // Four 42s in some order.
        let mut vals = Vec::new();
        for _ in 0..4 {
            let (k, v) = s.remove_max().unwrap();
            assert_eq!(k, 42);
            vals.push(v);
        }
        vals.sort_unstable();
        assert_eq!(vals, vec![0, 1, 2, 3]);
        assert_eq!(s.remove_max(), Some((10, 100)));
        assert!(s.is_empty());
    }

    fn exercise_drain_top<S: NodeSet<u64>>() {
        let mut s = S::default();
        for k in [4u64, 8, 2, 6, 10] {
            s.insert(k, k);
        }
        let mut out = Vec::new();
        s.drain_top(3, &mut out);
        assert_eq!(out, vec![(6, 6), (8, 8), (10, 10)], "ascending top-3");
        assert_eq!(s.len(), 2);
        assert_eq!(s.max_key(), Some(4));

        // n larger than len drains everything.
        let mut out2 = Vec::new();
        s.drain_top(99, &mut out2);
        assert_eq!(out2, vec![(2, 2), (4, 4)]);
        assert!(s.is_empty());

        // n == 0 is a no-op.
        s.insert(1, 1);
        let mut out3 = Vec::new();
        s.drain_top(0, &mut out3);
        assert!(out3.is_empty());
        assert_eq!(s.len(), 1);
    }

    fn exercise_split<S: NodeSet<u64>>() {
        let mut s = S::default();
        for k in 1..=7u64 {
            s.insert(k, k);
        }
        let lower = s.split_lower_half();
        assert_eq!(lower.len(), 3, "7 / 2 = 3 smallest removed");
        let mut keys: Vec<u64> = lower.iter().map(|&(k, _)| k).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 2, 3]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.min_key(), Some(4));
        assert_eq!(s.max_key(), Some(7));

        // Splitting a singleton removes nothing.
        let mut s1 = S::default();
        s1.insert(9, 9);
        assert!(s1.split_lower_half().is_empty());
        assert_eq!(s1.len(), 1);
    }

    fn exercise_split_into<S: NodeSet<u64>>() {
        let mut s = S::default();
        let (mut left, mut right) = (S::default(), S::default());
        left.insert(0, 0);
        for k in 1..=9u64 {
            s.insert(k, k);
        }
        s.split_lower_half_into(&mut left, &mut right);
        assert_eq!((s.len(), s.min_key(), s.max_key()), (5, Some(5), Some(9)));
        let mut got = Vec::new();
        left.drain_all(&mut got);
        right.drain_all(&mut got);
        got.sort_unstable();
        assert_eq!(got, vec![(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
    }

    fn exercise_drain_all<S: NodeSet<u64>>() {
        let mut s = S::default();
        for k in [3u64, 1, 2] {
            s.insert(k, k);
        }
        let mut out = Vec::new();
        s.drain_all(&mut out);
        assert!(s.is_empty());
        out.sort_unstable();
        assert_eq!(out, vec![(1, 1), (2, 2), (3, 3)]);
    }

    macro_rules! set_suite {
        ($name:ident, $ty:ty) => {
            mod $name {
                use super::*;
                #[test]
                fn basic() {
                    exercise_basic::<$ty>();
                }
                #[test]
                fn duplicates() {
                    exercise_duplicates::<$ty>();
                }
                #[test]
                fn drain_top() {
                    exercise_drain_top::<$ty>();
                }
                #[test]
                fn split() {
                    exercise_split::<$ty>();
                }
                #[test]
                fn split_into() {
                    exercise_split_into::<$ty>();
                }
                #[test]
                fn drain_all() {
                    exercise_drain_all::<$ty>();
                }
            }
        };
    }

    set_suite!(list_suite, ListSet<u64>);
    set_suite!(array_suite, ArraySet<u64>);
    set_suite!(deque_suite, DequeSet<u64>);

    /// Reference model: a sorted Vec with identical semantics.
    #[derive(Default)]
    struct Model(Vec<u64>); // ascending

    impl Model {
        fn insert(&mut self, k: u64) {
            let pos = self.0.partition_point(|&x| x <= k);
            self.0.insert(pos, k);
        }
        fn remove_max(&mut self) -> Option<u64> {
            self.0.pop()
        }
        fn remove_min(&mut self) -> Option<u64> {
            if self.0.is_empty() {
                None
            } else {
                Some(self.0.remove(0))
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64),
        RemoveMax,
        RemoveMin,
        DrainTop(u8),
        Split,
    }

    /// Weighted op distribution: 3 insert : 2 remove-max : 1 remove-min
    /// : 1 drain-top : 1 split.
    fn random_op(rng: &mut fault::DetRng) -> Op {
        match rng.random_range(0u32..8) {
            0..=2 => Op::Insert(rng.random_range(0u64..100)),
            3..=4 => Op::RemoveMax,
            5 => Op::RemoveMin,
            6 => Op::DrainTop(rng.random_range(0u32..10) as u8),
            _ => Op::Split,
        }
    }

    fn random_ops(rng: &mut fault::DetRng) -> Vec<Op> {
        let len = rng.random_range(1usize..120);
        (0..len).map(|_| random_op(rng)).collect()
    }

    fn run_model<S: NodeSet<u64>>(ops: &[Op]) {
        let mut s = S::default();
        let mut m = Model::default();
        for op in ops {
            match op {
                Op::Insert(k) => {
                    s.insert(*k, *k);
                    m.insert(*k);
                }
                Op::RemoveMax => {
                    assert_eq!(s.remove_max().map(|p| p.0), m.remove_max());
                }
                Op::RemoveMin => {
                    assert_eq!(s.remove_min().map(|p| p.0), m.remove_min());
                }
                Op::DrainTop(n) => {
                    let mut out = Vec::new();
                    s.drain_top(*n as usize, &mut out);
                    let take = (*n as usize).min(m.0.len());
                    let expect: Vec<u64> = m.0.split_off(m.0.len() - take);
                    assert_eq!(
                        out.iter().map(|p| p.0).collect::<Vec<_>>(),
                        expect,
                        "drain_top mismatch"
                    );
                }
                Op::Split => {
                    let lower = s.split_lower_half();
                    let keep = m.0.len() - m.0.len() / 2;
                    let expect: Vec<u64> = m.0.drain(..m.0.len() - keep).collect();
                    let mut got: Vec<u64> = lower.iter().map(|p| p.0).collect();
                    got.sort_unstable();
                    assert_eq!(got, expect, "split_lower_half mismatch");
                }
            }
            assert_eq!(s.len(), m.0.len());
            assert_eq!(s.max_key(), m.0.last().copied());
            assert_eq!(s.min_key(), m.0.first().copied());
        }
    }

    /// Seeded randomized model check: 256 cases of 1..120 ops each.
    /// Failures print the seed and op sequence for exact replay.
    fn check_against_model<S: NodeSet<u64>>(seed: u64) {
        let mut rng = fault::DetRng::seed_from_u64(seed);
        for case in 0..256 {
            let ops = random_ops(&mut rng);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_model::<S>(&ops);
            }));
            if let Err(e) = result {
                panic!("seed {seed:#x} case {case} ops {ops:?}: {e:?}");
            }
        }
    }

    #[test]
    fn list_matches_model() {
        check_against_model::<ListSet<u64>>(0x5E7_11D5);
    }

    #[test]
    fn array_matches_model() {
        check_against_model::<ArraySet<u64>>(0x5E7_22D5);
    }

    #[test]
    fn deque_matches_model() {
        check_against_model::<DequeSet<u64>>(0x5E7_33D5);
    }
}
