//! Online rank-error estimation: a lock-free sampled shadow reservoir.
//!
//! The exact rank-error oracle (`workloads::oracle::RankOracle`) keeps a
//! mutex-guarded shadow multiset of every live key — O(n) memory, a
//! global lock on every operation. Fine for tests, unusable as live
//! telemetry. [`RankEstimator`] answers the same question — *when an
//! element is handed out, how many strictly greater elements were still
//! queued?* — from a fixed-size reservoir of **sampled** keys:
//!
//! * The sampling decision is a pure function of the key (a Fibonacci
//!   hash, top `shift` bits all zero → sampled at rate `1/2^shift`), so
//!   the insert and extract sides agree on which keys are tracked
//!   without any shared coin flip.
//! * A sampled insert claims one reservoir slot (key + insert
//!   timestamp); a sampled extract scans the reservoir, counts live
//!   entries with a strictly greater key, and reports
//!   `count × 2^shift` as the rank estimate (the sampled sub-multiset
//!   is a uniform subsample of the live multiset, so the scaled count
//!   is an unbiased estimate up to hash uniformity — see DESIGN.md for
//!   the bias analysis). The matching slot is then released, and its
//!   age is reported as the element's *staleness*.
//! * Everything is `Relaxed`/CAS atomics on fixed storage: no locks, no
//!   allocation after construction. Per-op cost is one multiply + one
//!   branch for unsampled keys (the common case: 63/64 of ops at the
//!   default rate) and one reservoir scan for sampled ones.
//!
//! Conservation identities (exact, asserted by the chaos suite):
//! `sampled_inserts == stored + dropped`,
//! `sampled_extracts == matched + missed`,
//! `sampled_removes == removed_matched + removed_missed`, and
//! `live() == stored − matched − removed_matched`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::hist::{HistSnapshot, Histogram};
use crate::recorder::now_ns;
use crate::snapshot::Snapshot;

/// Slot stamp value marking a slot mid-claim (key not yet published).
const CLAIMING: u64 = u64::MAX;

/// Default reservoir capacity (slots).
pub const DEFAULT_SLOTS: usize = 512;

/// Default sampling shift: rate `1/2^6 = 1/64`.
pub const DEFAULT_SHIFT: u32 = 6;

/// Lock-free sampled shadow reservoir estimating per-extraction rank
/// error, staleness age and wasted-work ratio (see module docs).
///
/// ```
/// use obs::quality::RankEstimator;
/// // shift 0 samples every key: the estimate is the exact rank among
/// // live keys (reservoir permitting).
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
    shift: u32,
    keys: Box<[AtomicU64]>,
    /// `0` = empty, [`CLAIMING`] = being filled, else the insert
    /// timestamp in ns (forced odd so it is never 0 or `CLAIMING`).
    stamps: Box<[AtomicU64]>,
    /// Round-robin placement hint for inserts.
    cursor: AtomicUsize,

    sampled_inserts: AtomicU64,
    stored: AtomicU64,
    dropped: AtomicU64,
    sampled_extracts: AtomicU64,
    matched: AtomicU64,
    missed: AtomicU64,
    sampled_removes: AtomicU64,
    removed_matched: AtomicU64,
    removed_missed: AtomicU64,
    wasted: AtomicU64,

    est_rank: Histogram,
    staleness_ns: Histogram,
}

impl RankEstimator {
    /// Estimator sampling keys at rate `1/2^shift` with the default
    /// reservoir capacity ([`DEFAULT_SLOTS`]).
    pub fn new(shift: u32) -> Self {
        Self::with_slots(shift, DEFAULT_SLOTS)
    }

    /// Estimator with an explicit reservoir capacity. Size the reservoir
    /// at roughly `expected live elements / 2^shift` plus headroom;
    /// overflow is counted (`dropped`), never silently evicted.
    pub fn with_slots(shift: u32, slots: usize) -> Self {
        let slots = slots.max(1);
        let mk = || (0..slots).map(|_| AtomicU64::new(0)).collect::<Box<[_]>>();
        Self {
            shift: shift.min(32),
            keys: mk(),
            stamps: mk(),
            cursor: AtomicUsize::new(0),
            sampled_inserts: AtomicU64::new(0),
            stored: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            sampled_extracts: AtomicU64::new(0),
            matched: AtomicU64::new(0),
            missed: AtomicU64::new(0),
            sampled_removes: AtomicU64::new(0),
            removed_matched: AtomicU64::new(0),
            removed_missed: AtomicU64::new(0),
            wasted: AtomicU64::new(0),
            est_rank: Histogram::new(),
            staleness_ns: Histogram::new(),
        }
    }

    /// The sampling shift (rate is `1/2^shift`).
    pub fn sample_shift(&self) -> u32 {
        self.shift
    }

    /// Reservoir capacity in slots.
    pub fn slots(&self) -> usize {
        self.keys.len()
    }

    /// Whether `key` is tracked. Pure function of the key, identical on
    /// the insert and extract sides; equal keys always agree.
    #[inline]
    pub fn sampled(&self, key: u64) -> bool {
        // Fibonacci hash; the top `shift` bits gate at rate 1/2^shift.
        self.shift == 0 || key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - self.shift) == 0
    }

    /// Record an insertion. The unsampled path is one multiply + branch.
    #[inline]
    pub fn note_insert(&self, key: u64) {
        if self.sampled(key) {
            self.insert_sampled(key);
        }
    }

    #[cold]
    fn insert_sampled(&self, key: u64) {
        self.sampled_inserts.fetch_add(1, Ordering::Relaxed);
        let n = self.keys.len();
        let start = self.cursor.fetch_add(1, Ordering::Relaxed);
        for off in 0..n {
            let i = (start + off) % n;
            if self.stamps[i]
                .compare_exchange(0, CLAIMING, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                self.keys[i].store(key, Ordering::Relaxed);
                // Odd, nonzero, never CLAIMING: a valid live stamp.
                self.stamps[i].store(now_ns() | 1, Ordering::Release);
                self.stored.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        // Reservoir full: counted, not evicted — eviction would bias the
        // estimate toward recently inserted keys.
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an extraction. Returns `Some(estimated rank)` when the key
    /// was sampled (the estimate is also recorded into the `est_rank`
    /// histogram), `None` otherwise.
    #[inline]
    pub fn note_extract(&self, key: u64) -> Option<u64> {
        if self.sampled(key) {
            Some(self.extract_sampled(key))
        } else {
            None
        }
    }

    #[cold]
    fn extract_sampled(&self, key: u64) -> u64 {
        self.sampled_extracts.fetch_add(1, Ordering::Relaxed);
        let (greater, slot) = self.scan(key);
        let est = greater << self.shift;
        self.est_rank.record(est);
        if est > 0 {
            self.wasted.fetch_add(1, Ordering::Relaxed);
        }
        if let Some((i, stamp)) = slot {
            // Release the slot only if it still holds the stamp we saw;
            // a concurrent extract of an equal key may have beaten us to
            // it (then rescanning is not worth the noise — count a miss).
            if self.stamps[i]
                .compare_exchange(stamp, 0, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                self.matched.fetch_add(1, Ordering::Relaxed);
                self.staleness_ns.record(now_ns().saturating_sub(stamp));
                return est;
            }
        }
        self.missed.fetch_add(1, Ordering::Relaxed);
        est
    }

    /// Record a removal that is *not* a hand-out (eviction under
    /// `ShedPolicy::ShedLowest`, an element returned to the queue by a
    /// conditional extract's give-back path): releases the key's slot
    /// without recording a rank sample.
    #[inline]
    pub fn note_remove(&self, key: u64) {
        if self.sampled(key) {
            self.remove_sampled(key);
        }
    }

    #[cold]
    fn remove_sampled(&self, key: u64) {
        self.sampled_removes.fetch_add(1, Ordering::Relaxed);
        if let (_, Some((i, stamp))) = self.scan(key) {
            if self.stamps[i]
                .compare_exchange(stamp, 0, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                self.removed_matched.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        self.removed_missed.fetch_add(1, Ordering::Relaxed);
    }

    /// One pass over the reservoir: count live entries with a strictly
    /// greater key and find a slot holding `key` (lowest-index match).
    fn scan(&self, key: u64) -> (u64, Option<(usize, u64)>) {
        let mut greater = 0u64;
        let mut slot = None;
        for i in 0..self.keys.len() {
            let stamp = self.stamps[i].load(Ordering::Acquire);
            if stamp == 0 || stamp == CLAIMING {
                continue;
            }
            let k = self.keys[i].load(Ordering::Relaxed);
            if k > key {
                greater += 1;
            } else if k == key && slot.is_none() {
                slot = Some((i, stamp));
            }
        }
        (greater, slot)
    }

    /// Live (occupied) reservoir slots — the sampled view of the queue's
    /// current population.
    pub fn live(&self) -> usize {
        self.stamps
            .iter()
            .filter(|s| !matches!(s.load(Ordering::Acquire), 0 | CLAIMING))
            .count()
    }

    /// Raw conservation counters, in declaration order:
    /// `(sampled_inserts, stored, dropped, sampled_extracts, matched,
    /// missed, sampled_removes, removed_matched, removed_missed)`.
    #[allow(clippy::type_complexity)]
    pub fn counters(&self) -> (u64, u64, u64, u64, u64, u64, u64, u64, u64) {
        (
            self.sampled_inserts.load(Ordering::Relaxed),
            self.stored.load(Ordering::Relaxed),
            self.dropped.load(Ordering::Relaxed),
            self.sampled_extracts.load(Ordering::Relaxed),
            self.matched.load(Ordering::Relaxed),
            self.missed.load(Ordering::Relaxed),
            self.sampled_removes.load(Ordering::Relaxed),
            self.removed_matched.load(Ordering::Relaxed),
            self.removed_missed.load(Ordering::Relaxed),
        )
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

    /// The staleness-age histogram (ns between a sampled key's insert
    /// and its extraction).
    pub fn staleness_hist(&self) -> &Histogram {
        &self.staleness_ns
    }

    /// Export `quality.*` metrics into `snap`, folded over `ests`: one
    /// queue's estimator, or one per shard of a sharded queue. Counters,
    /// reservoir gauges and histograms are summed; the sample shift is
    /// the first estimator's (shards share one configuration). Exports
    /// nothing when `ests` is empty.
    pub fn export<'a>(ests: impl IntoIterator<Item = &'a RankEstimator>, snap: &mut Snapshot) {
        let mut ests = ests.into_iter().peekable();
        let Some(shift) = ests.peek().map(|est| est.shift) else {
            return;
        };
        let mut c = [0u64; 9];
        let (mut wasted, mut live, mut slots) = (0u64, 0usize, 0usize);
        let mut est_rank = HistSnapshot::default();
        let mut staleness = HistSnapshot::default();
        for est in ests {
            let (si, st, dr, se, ma, mi, sr, rm, rs) = est.counters();
            for (dst, v) in c.iter_mut().zip([si, st, dr, se, ma, mi, sr, rm, rs]) {
                *dst += v;
            }
            wasted += est.wasted();
            live += est.live();
            slots += est.slots();
            est_rank.absorb(&est.est_rank.snapshot());
            staleness.absorb(&est.staleness_ns.snapshot());
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
        snap.push_gauge("quality.sample_shift", u64::from(shift) as i64);
        snap.push_ratio(
            "quality.wasted_ratio",
            if se == 0 {
                0.0
            } else {
                wasted as f64 / se as f64
            },
        );
        snap.push_hist_snapshot("quality.est_rank", est_rank);
        snap.push_hist_snapshot("quality.staleness_ns", staleness);
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
    fn sampling_decision_is_consistent_and_near_rate() {
        let est = RankEstimator::new(6);
        let mut sampled = 0u64;
        for k in 0..100_000u64 {
            if est.sampled(k) {
                sampled += 1;
                assert!(est.sampled(k), "decision must be stable");
            }
        }
        // 1/64 of 100k ≈ 1562; allow generous tolerance for hash shape.
        assert!(
            (800..2600).contains(&sampled),
            "sample rate off: {sampled}/100000"
        );
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
        let mut tracked: Vec<u64> = (0..4096u64).filter(|&k| est.sampled(k)).collect();
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
    fn snapshot_exports_quality_names() {
        let est = RankEstimator::new(0);
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
    }
}
