//! Online rank-error estimation over the sampled telemetry table.
//!
//! The exact rank-error oracle (`workloads::oracle::RankOracle`) keeps a
//! mutex-guarded shadow multiset of every live key — O(n) memory, a
//! global lock on every operation. Fine for tests, unusable as live
//! telemetry. [`RankEstimator`] answers the same question — *when an
//! element is handed out, how many strictly greater elements were still
//! queued?* — from the queue's one sampled `(key, stamp)` table, a
//! [`SojournTracker`] (its module docs cover sampling, placement and
//! the conservation identities):
//!
//! * A sampled extraction scans the whole table, counts live entries
//!   with a strictly greater key, and reports `count × 2^shift` as the
//!   rank estimate. The sampled sub-multiset is a uniform subsample of
//!   the live multiset, so the scaled count is an unbiased estimate up
//!   to hash uniformity (DESIGN.md has the bias analysis).
//! * The table then frees the key's slot and records its sojourn, which
//!   is the estimator's *staleness*: one table, one note per hook,
//!   every sampled op paid for once.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::hist::{HistSnapshot, Histogram};
use crate::snapshot::Snapshot;
use crate::sojourn::{SojournTracker, DEFAULT_SLOTS};

/// Sampled per-extraction rank error, staleness age and wasted-work
/// ratio (see module docs).
///
/// ```
/// use obs::quality::RankEstimator;
/// // shift 0 samples every key: the estimate is the exact rank among
/// // live keys (table permitting).
/// let est = RankEstimator::with_slots(0, 64);
/// est.note_insert(10);
/// est.note_insert(30);
/// est.note_insert(20);
/// // Extracting 10 with {20, 30} still live: rank 2.
/// assert_eq!(est.note_extract(10), Some(2));
/// assert_eq!(est.note_extract(30), Some(0));
/// assert_eq!(est.live(), 1);
/// ```
pub struct RankEstimator {
    table: SojournTracker,
    wasted: AtomicU64,
    est_rank: Histogram,
}

impl RankEstimator {
    /// Estimator sampling keys at rate `1/2^shift` in a table of
    /// [`DEFAULT_SLOTS`] slots.
    pub fn new(shift: u32) -> Self {
        Self::with_slots(shift, DEFAULT_SLOTS)
    }

    /// Estimator with an explicit table size (see
    /// [`SojournTracker::with_slots`]).
    pub fn with_slots(shift: u32, slots: usize) -> Self {
        Self {
            table: SojournTracker::with_slots(shift, slots),
            wasted: AtomicU64::new(0),
            est_rank: Histogram::new(),
        }
    }

    /// The sampled table: sampling test, sojourn histogram, counters.
    pub fn table(&self) -> &SojournTracker {
        &self.table
    }

    /// Record an insertion. The unsampled path is one multiply + branch.
    #[inline]
    pub fn note_insert(&self, key: u64) {
        self.table.note_insert(key);
    }

    /// Record an extraction. Returns `Some(estimated rank)` when the key
    /// was sampled (the estimate is also recorded into the `est_rank`
    /// histogram), `None` otherwise.
    #[inline]
    pub fn note_extract(&self, key: u64) -> Option<u64> {
        self.table.sampled(key).then(|| self.extract_sampled(key))
    }

    #[cold]
    fn extract_sampled(&self, key: u64) -> u64 {
        let greater = self.table.live_keys().filter(|&k| k > key).count() as u64;
        self.table.extract_sampled(key);
        let est = greater << self.table.sample_shift();
        self.est_rank.record(est);
        if est > 0 {
            self.wasted.fetch_add(1, Ordering::Relaxed);
        }
        est
    }

    /// Record a removal that is *not* a hand-out (eviction under
    /// `ShedPolicy::ShedLowest`, an element returned to the queue by a
    /// conditional extract's give-back path): frees the key's slot
    /// without recording a rank or sojourn sample.
    #[inline]
    pub fn note_remove(&self, key: u64) {
        self.table.note_remove(key);
    }

    /// Live table slots (see [`SojournTracker::live`]).
    pub fn live(&self) -> usize {
        self.table.live()
    }

    /// The table's conservation counters (see
    /// [`SojournTracker::counters`]).
    #[allow(clippy::type_complexity)]
    pub fn counters(&self) -> (u64, u64, u64, u64, u64, u64, u64, u64, u64) {
        self.table.counters()
    }

    /// Sampled extractions whose rank estimate was nonzero (a strictly
    /// better element was still queued — "wasted" priority work).
    pub fn wasted(&self) -> u64 {
        self.wasted.load(Ordering::Relaxed)
    }

    /// Estimated rank quantile (`p ∈ [0, 1]`) over all sampled
    /// extractions so far.
    pub fn rank_quantile(&self, p: f64) -> u64 {
        self.est_rank.quantile(p)
    }

    /// The estimated-rank histogram (values pre-scaled by `2^shift`).
    pub fn est_rank_hist(&self) -> &Histogram {
        &self.est_rank
    }

    /// Export `quality.*`, `queue.sojourn_ns` and `sojourn.*` into
    /// `snap`, folded over `ests`: one queue's estimator, or one per
    /// shard of a sharded queue. Counters, table gauges and histograms
    /// are summed; the sample shift is the first estimator's (shards
    /// share one configuration). Exports nothing when `ests` is empty.
    pub fn export<'a>(ests: impl IntoIterator<Item = &'a RankEstimator>, snap: &mut Snapshot) {
        let mut ests = ests.into_iter().peekable();
        let Some(shift) = ests.peek().map(|est| i64::from(est.table.sample_shift())) else {
            return;
        };
        let mut c = [0u64; 9];
        let (mut wasted, mut live, mut slots) = (0u64, 0usize, 0usize);
        let (mut est_rank, mut sojourn) = (HistSnapshot::default(), HistSnapshot::default());
        for est in ests {
            let (si, st, dr, se, ma, mi, sr, rm, rs) = est.counters();
            for (dst, v) in c.iter_mut().zip([si, st, dr, se, ma, mi, sr, rm, rs]) {
                *dst += v;
            }
            wasted += est.wasted();
            live += est.live();
            slots += est.table.slots();
            est_rank.absorb(&est.est_rank.snapshot());
            sojourn.absorb(&est.table.hist().snapshot());
        }
        let [si, st, dr, se, ma, mi, sr, rm, rs] = c;
        snap.push_counter("quality.sampled_inserts", si);
        snap.push_counter("quality.sampled_extracts", se);
        snap.push_counter("quality.matched", ma);
        snap.push_counter("quality.missed", mi);
        snap.push_counter("quality.dropped", dr);
        snap.push_counter("quality.stored", st);
        snap.push_counter("quality.removed", sr);
        snap.push_counter("quality.removed_matched", rm);
        snap.push_counter("quality.removed_missed", rs);
        snap.push_gauge("quality.reservoir.live", live as i64);
        snap.push_gauge("quality.reservoir.slots", slots as i64);
        snap.push_gauge("quality.sample_shift", shift);
        snap.push_ratio(
            "quality.wasted_ratio",
            if se == 0 {
                0.0
            } else {
                wasted as f64 / se as f64
            },
        );
        snap.push_hist_snapshot("quality.est_rank", est_rank);
        snap.push_hist_snapshot("quality.staleness_ns", sojourn.clone());
        // The same table under the sojourn view's names.
        snap.push_hist_snapshot("queue.sojourn_ns", sojourn);
        snap.push_counter("sojourn.stamped", st);
        snap.push_counter("sojourn.matched", ma);
        snap.push_counter("sojourn.missed", mi);
        snap.push_counter("sojourn.dropped", dr);
        snap.push_counter("sojourn.removed", rm);
        snap.push_gauge("sojourn.sample_shift", shift);
        snap.push_gauge("sojourn.table.live", live as i64);
        snap.push_gauge("sojourn.table.slots", slots as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_zero_is_exact_within_reservoir() {
        let est = RankEstimator::with_slots(0, 128);
        for k in [5u64, 1, 9, 7, 3] {
            est.note_insert(k);
        }
        // Extract 1 with {3, 5, 7, 9} live: rank 4.
        assert_eq!(est.note_extract(1), Some(4));
        // Extract 9 (the max): rank 0.
        assert_eq!(est.note_extract(9), Some(0));
        assert_eq!(est.note_extract(5), Some(1));
        assert_eq!(est.live(), 2);
        let (si, st, dr, se, ma, mi, ..) = est.counters();
        assert_eq!((si, st, dr), (5, 5, 0));
        assert_eq!((se, ma, mi), (3, 3, 0));
        // Every matched extraction is one staleness (sojourn) sample.
        assert_eq!(est.table().hist().count(), 3);
    }

    #[test]
    fn equal_keys_are_multiset_not_greater() {
        let est = RankEstimator::with_slots(0, 16);
        est.note_insert(10);
        est.note_insert(10);
        est.note_insert(20);
        // Equal key still live is not "strictly greater".
        assert_eq!(est.note_extract(10), Some(1));
        assert_eq!(est.note_extract(10), Some(1));
        assert_eq!(est.note_extract(20), Some(0));
        assert_eq!(est.live(), 0);
    }

    #[test]
    fn reservoir_overflow_drops_and_counts() {
        let est = RankEstimator::with_slots(0, 4);
        for k in 0..10u64 {
            est.note_insert(k);
        }
        let (si, st, dr, ..) = est.counters();
        assert_eq!(si, 10);
        assert_eq!(st, 4);
        assert_eq!(dr, 6);
        assert_eq!(est.live(), 4);
        // A stored key still matches; a dropped key misses.
        assert!(est.note_extract(0).is_some());
        let (_, _, _, se, ma, mi, ..) = est.counters();
        assert_eq!(se, 1);
        assert_eq!(ma + mi, 1);
    }

    #[test]
    fn note_remove_releases_without_rank_sample() {
        let est = RankEstimator::with_slots(0, 16);
        est.note_insert(1);
        est.note_insert(2);
        est.note_remove(1);
        assert_eq!(est.live(), 1);
        assert_eq!(est.est_rank_hist().count(), 0);
        assert_eq!(est.table().hist().count(), 0);
        let (.., sr, rm, rs) = est.counters();
        assert_eq!((sr, rm, rs), (1, 1, 0));
        // Removing an untracked key misses.
        est.note_remove(99);
        let (.., rm, rs) = est.counters();
        assert_eq!((rm, rs), (1, 1));
    }

    #[test]
    fn estimate_scales_by_sampling_rate() {
        // shift 2: rate 1/4, estimates are multiples of 4.
        let est = RankEstimator::with_slots(2, 4096);
        let mut tracked: Vec<u64> = (0..4096u64).filter(|&k| est.table().sampled(k)).collect();
        assert!(tracked.len() > 16, "need enough sampled keys");
        for &k in &tracked {
            est.note_insert(k);
        }
        tracked.sort_unstable();
        let lowest = tracked[0];
        let greater = (tracked.len() - 1) as u64;
        assert_eq!(est.note_extract(lowest), Some(greater << 2));
    }

    #[test]
    fn concurrent_hammer_conserves_counters() {
        let est = std::sync::Arc::new(RankEstimator::with_slots(0, 4096));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let est = std::sync::Arc::clone(&est);
                s.spawn(move || {
                    for i in 0..1000u64 {
                        let k = t * 1000 + i;
                        est.note_insert(k);
                        est.note_extract(k);
                    }
                });
            }
        });
        let (si, st, dr, se, ma, mi, ..) = est.counters();
        assert_eq!(si, 4000);
        assert_eq!(se, 4000);
        assert_eq!(si, st + dr);
        assert_eq!(se, ma + mi);
        assert_eq!(est.live() as u64, st - ma);
    }

    #[test]
    fn export_emits_quality_and_sojourn_names_from_one_table() {
        let est = RankEstimator::with_slots(0, 64);
        est.note_insert(7);
        est.note_extract(7);
        let mut s = Snapshot::new();
        RankEstimator::export([&est], &mut s);
        assert_eq!(s.counter("quality.sampled_inserts"), Some(1));
        assert_eq!(s.counter("quality.matched"), Some(1));
        assert_eq!(s.gauge("quality.reservoir.live"), Some(0));
        assert_eq!(s.ratio("quality.wasted_ratio"), Some(0.0));
        assert!(s.hist("quality.est_rank").is_some());
        assert!(s.hist("quality.staleness_ns").is_some());
        assert!(s.hist("queue.sojourn_ns").is_some());
        assert_eq!(s.counter("sojourn.stamped"), Some(1));
        assert_eq!(s.counter("sojourn.matched"), Some(1));
        assert_eq!(s.gauge("sojourn.table.slots"), Some(64));
    }
}
