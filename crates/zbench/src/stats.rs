//! Order statistics and the exact rank shadow.

use std::sync::atomic::{AtomicI32, AtomicI64, Ordering};

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `sorted` ascending data, linearly
/// interpolated between the two closest ranks. `NaN` for empty input.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The `q`-quantile of unsorted data (see [`quantile_sorted`]).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, q)
}

/// Median of unsorted data.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method),
/// so the spreads this benchmark reports match the ones a reader
/// recomputes from the raw runs.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    match ld {
        0 => (f64::NAN, f64::NAN),
        1 => (d[0], d[0]),
        _ => {
            let (m, n) = (ld + 1, 4);
            let q = |i: usize| {
                let j = (i * m / n).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * n) as f64;
                (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64
            };
            (q(1), q(3))
        }
    }
}

/// Distance between the quartiles as a share of the median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Median over `chunks` consecutive equal chunks of the mean of each, so
/// one stalled stretch of a round cannot move the result. `NaN` if empty.
pub fn median_of_chunk_means(values: &[u32], chunks: usize) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let size = values.len().div_ceil(chunks.max(1));
    let means: Vec<f64> = values
        .chunks(size)
        .map(|c| c.iter().map(|&v| v as f64).sum::<f64>() / c.len() as f64)
        .collect();
    median(&means)
}

/// Sort `u32` samples in place and return the `q`-quantile.
pub fn quantile_u32(values: &mut [u32], q: f64) -> f64 {
    values.sort_unstable();
    let v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
    quantile_sorted(&v, q)
}

/// An exact, concurrently updated multiset of keys that answers "how many
/// stored keys are greater than `k`" in `O(bits)`.
///
/// It is the shadow the quality rounds keep beside the queue: a key is
/// added before it is inserted and removed after it is extracted, so the
/// count of greater keys at extraction is the extracted element's rank
/// error (0 for the true maximum). Concurrent insertions still in flight
/// can inflate a rank by at most one per other thread.
///
/// Keys are stored modulo `2^bits` in a Fenwick tree and compared within
/// a window of half that size: "greater than `k`" means in
/// `(k, k + 2^(bits-1)]`. That is exact as long as every stored key lies
/// within `2^(bits-1)` of every other, which lets the shadow follow key
/// streams that drift (the hold model of the closed-loop workloads) as
/// well as fixed key ranges below `2^(bits-1)`.
pub struct RankShadow {
    /// Fenwick tree over position counts, 1-based.
    tree: Box<[AtomicI32]>,
    total: AtomicI64,
    mask: u64,
    /// Width of the "greater than" window.
    half: u64,
}

impl RankShadow {
    /// An empty shadow over a window of `2^(bits-1)` keys.
    pub fn new(bits: u32) -> Self {
        assert!(
            (2..=26).contains(&bits),
            "shadow of 2^{bits} positions out of range"
        );
        RankShadow {
            tree: (0..(1usize << bits) + 1)
                .map(|_| AtomicI32::new(0))
                .collect(),
            total: AtomicI64::new(0),
            mask: (1 << bits) - 1,
            half: 1 << (bits - 1),
        }
    }

    fn update(&self, key: u64, delta: i32) {
        let mut i = (key & self.mask) as usize + 1;
        while i < self.tree.len() {
            self.tree[i].fetch_add(delta, Ordering::Relaxed);
            i += i & i.wrapping_neg();
        }
        self.total.fetch_add(delta as i64, Ordering::Relaxed);
    }

    /// Add one copy of `key`.
    pub fn add(&self, key: u64) {
        self.update(key, 1);
    }

    /// Remove one copy of `key`.
    pub fn remove(&self, key: u64) {
        self.update(key, -1);
    }

    /// Stored keys at positions `≤ pos`.
    fn prefix(&self, pos: u64) -> i64 {
        let mut i = pos as usize + 1;
        let mut sum = 0i64;
        while i > 0 {
            sum += self.tree[i].load(Ordering::Relaxed) as i64;
            i &= i - 1;
        }
        sum
    }

    /// Stored keys greater than `key`: the rank error of extracting `key` now.
    pub fn count_greater(&self, key: u64) -> i64 {
        let p = key & self.mask;
        let hi = p + self.half;
        if hi <= self.mask {
            self.prefix(hi) - self.prefix(p)
        } else {
            self.len() - self.prefix(p) + self.prefix(hi - self.mask - 1)
        }
    }

    /// Number of stored keys.
    fn len(&self) -> i64 {
        self.total.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault::DetRng;
    use std::collections::BTreeMap;

    #[test]
    fn rank_shadow_matches_brute_force_multiset_on_a_drifting_window() {
        let mut rng = DetRng::seed_from_u64(7);
        let shadow = RankShadow::new(10); // window of 512 keys
        let mut model: BTreeMap<u64, i64> = BTreeMap::new();
        // Keys drift downward from near 2^40, crossing many multiples of
        // the shadow's size, and always lie within 400 of each other.
        let mut front = 1u64 << 40;
        let remove = |model: &mut BTreeMap<u64, i64>, key: u64| {
            shadow.remove(key);
            let c = model.get_mut(&key).expect("present");
            *c -= 1;
            if *c == 0 {
                model.remove(&key);
            }
        };
        for step in 0..40_000 {
            front -= rng.random_range(0..3u64);
            while let Some(&top) = model.keys().next_back() {
                if top <= front + 390 {
                    break;
                }
                remove(&mut model, top);
            }
            if !model.is_empty() && rng.random_bool(0.5) {
                let key = if rng.random_bool(0.7) {
                    *model.keys().next_back().expect("nonempty")
                } else {
                    *model.keys().next().expect("nonempty")
                };
                remove(&mut model, key);
            } else {
                let key = front - rng.random_range(0..8u64);
                shadow.add(key);
                *model.entry(key).or_default() += 1;
            }
            if step % 31 == 0 && !model.is_empty() {
                let (lo, hi) = (
                    *model.keys().next().unwrap(),
                    *model.keys().next_back().unwrap(),
                );
                let probe = rng.random_range(lo..=hi);
                let greater: i64 = model.range(probe + 1..).map(|(_, c)| c).sum();
                assert_eq!(shadow.count_greater(probe), greater, "step {step}");
                assert_eq!(shadow.len(), model.values().sum::<i64>());
            }
        }
    }

    #[test]
    fn rank_shadow_counts_a_fixed_range_below_half_its_size() {
        let shadow = RankShadow::new(4); // keys 0..8
        for k in [0u64, 3, 3, 7] {
            shadow.add(k);
        }
        assert_eq!(shadow.count_greater(0), 3);
        assert_eq!(shadow.count_greater(3), 1);
        assert_eq!(shadow.count_greater(7), 0);
    }

    #[test]
    fn rank_shadow_is_exact_under_concurrent_updates() {
        let shadow = RankShadow::new(13);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let shadow = &shadow;
                s.spawn(move || {
                    for i in 0..5_000u64 {
                        shadow.add((i * 7 + t) % 4096);
                    }
                    for i in 0..2_500u64 {
                        shadow.remove((i * 7 + t) % 4096);
                    }
                });
            }
        });
        assert_eq!(shadow.len(), 4 * 2_500);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
        let mut u = [5u32, 1, 4, 2, 3];
        assert_eq!(quantile_u32(&mut u, 0.25), 2.0);
        // Chunk means 1.5, 3.5, 5 (the last chunk is short); a stall
        // inflating one chunk does not move the median.
        assert_eq!(median_of_chunk_means(&u, 3), 3.5);
        assert_eq!(median_of_chunk_means(&[1, 1, 1, 1, 900, 1], 3), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from `statistics.quantiles(data, n=4)`.
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 3.75));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // Two points: Python's exclusive method extrapolates.
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        let (q1, q3) = quartiles(&[10.0, 10.0, 10.0]);
        assert_eq!((q1, q3), (10.0, 10.0));
        assert_eq!(relative_iqr(&ten), 5.5 / 5.5);
    }
}
