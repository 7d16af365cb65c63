//! The sampled `(key, stamp)` table behind a queue's telemetry, and the
//! per-element *sojourn time* it measures: the wall-clock interval
//! between an element's insertion and its extraction.
//!
//! Tracking every element would mean a timestamp in every set and pool
//! slot. Instead [`SojournTracker`] samples keys at rate `1/2^shift`
//! with a Fibonacci hash that is a pure function of the key, so the
//! insert and extract sides agree on which keys are sampled without
//! coordination. A sampled insert claims a slot and stamps it; the
//! matching extraction frees the slot and records `now − stamp` into a
//! log-linear [`Histogram`]. [`RankEstimator`](crate::RankEstimator)
//! is this table plus a rank count over its live keys.
//!
//! Placement: a sampled key probes linearly from its hashed home slot,
//! once around the whole table, and takes the first free slot. There is
//! no shared cursor, and an arrival is dropped (counted, never evicted)
//! only when every slot is live: eviction would bias both the sojourn
//! histogram and the rank estimate toward recently inserted keys.
//! Lookups probe from the home slot too. Equal keys occupy distinct
//! slots; an extraction frees *a* copy's stamp.
//!
//! Everything is `Relaxed`/CAS atomics on fixed storage: no locks, no
//! allocation after construction. An unsampled key costs one multiply
//! and one branch. Conservation identities (exact at quiescence,
//! asserted by the chaos suite): `sampled_inserts == stored + dropped`,
//! `sampled_extracts == matched + missed`,
//! `sampled_removes == removed_matched + removed_missed`, and
//! `live() == stored − matched − removed_matched`.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::hist::Histogram;
use crate::recorder::now_ns;

/// Slot stamp marking "a writer is mid-claim"; readers skip it.
const CLAIMING: u64 = u64::MAX;

/// Default slot count (a key and a stamp each: 8 KiB).
pub const DEFAULT_SLOTS: usize = 512;

// Indices into `SojournTracker::counts`, in `counters()` order.
const SAMPLED_INSERTS: usize = 0;
const STORED: usize = 1;
const DROPPED: usize = 2;
const SAMPLED_EXTRACTS: usize = 3;
const MATCHED: usize = 4;
const MISSED: usize = 5;
const SAMPLED_REMOVES: usize = 6;
const REMOVED_MATCHED: usize = 7;
const REMOVED_MISSED: usize = 8;

#[inline]
fn fib(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Lock-free sampled sojourn-time table (see module docs).
///
/// ```
/// use obs::SojournTracker;
/// // shift 0 samples every key.
/// let t = SojournTracker::with_slots(0, 64);
/// t.note_insert(7);
/// t.note_extract(7);
/// assert_eq!(t.hist().count(), 1);
/// assert_eq!(t.live(), 0);
/// ```
pub struct SojournTracker {
    shift: u32,
    keys: Box<[AtomicU64]>,
    /// `0` = free, [`CLAIMING`] = being filled, else the insert time in
    /// ns (forced odd, so never `0` or `CLAIMING`). Kept apart from
    /// `keys` so a scan reads only the stamp of a free slot.
    stamps: Box<[AtomicU64]>,
    sojourn_ns: Histogram,
    counts: [AtomicU64; 9],
}

impl SojournTracker {
    /// Sample keys at rate `1/2^shift` (`0` samples every key — exact
    /// but hot; testing only) in [`DEFAULT_SLOTS`] slots. `shift` is
    /// clamped to 32.
    pub fn new(shift: u32) -> Self {
        Self::with_slots(shift, DEFAULT_SLOTS)
    }

    /// As [`new`](Self::new) with an explicit slot count, rounded up to
    /// a power of two. Size it at roughly `expected live elements /
    /// 2^shift` plus headroom; overflow is counted (`dropped`).
    pub fn with_slots(shift: u32, slots: usize) -> Self {
        let n = slots.max(1).next_power_of_two();
        Self {
            shift: shift.min(32),
            keys: (0..n).map(|_| AtomicU64::new(0)).collect(),
            stamps: (0..n).map(|_| AtomicU64::new(0)).collect(),
            sojourn_ns: Histogram::new(),
            counts: Default::default(),
        }
    }

    /// Whether `key` is in the sample — a pure function of the key, so
    /// both sides of the queue agree without coordination.
    #[inline]
    pub fn sampled(&self, key: u64) -> bool {
        self.shift == 0 || fib(key) >> (64 - self.shift) == 0
    }

    /// Slot indices in probe order: from `key`'s home slot once around
    /// the table. The home uses other bits than the sampling test, so
    /// sampled keys (top bits zero) still spread over the table.
    fn probe(&self, key: u64) -> impl Iterator<Item = usize> {
        let mask = self.stamps.len() - 1;
        let home = (fib(key) >> 16) as usize;
        (0..=mask).map(move |off| (home + off) & mask)
    }

    fn bump(&self, counter: usize) {
        self.counts[counter].fetch_add(1, Ordering::Relaxed);
    }

    /// Note an admitted insertion.
    #[inline]
    pub fn note_insert(&self, key: u64) {
        if self.sampled(key) {
            self.insert_sampled(key);
        }
    }

    #[cold]
    fn insert_sampled(&self, key: u64) {
        self.bump(SAMPLED_INSERTS);
        for i in self.probe(key) {
            if self.stamps[i]
                .compare_exchange(0, CLAIMING, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                self.keys[i].store(key, Ordering::Relaxed);
                // Release pairs with the Acquire stamp loads in `take` and
                // `live_keys`: a reader that sees this stamp sees the key.
                self.stamps[i].store(now_ns() | 1, Ordering::Release);
                self.bump(STORED);
                return;
            }
        }
        self.bump(DROPPED);
    }

    /// Note an extraction: on a match records the element's sojourn
    /// and frees its slot.
    #[inline]
    pub fn note_extract(&self, key: u64) {
        if self.sampled(key) {
            self.extract_sampled(key);
        }
    }

    #[cold]
    pub(crate) fn extract_sampled(&self, key: u64) {
        self.bump(SAMPLED_EXTRACTS);
        match self.take(key) {
            Some(stamp) => {
                self.sojourn_ns.record(now_ns().saturating_sub(stamp));
                self.bump(MATCHED);
            }
            None => self.bump(MISSED),
        }
    }

    /// Note a removal that is *not* a service completion (eviction
    /// shedding, give-back rollback): frees the slot without recording
    /// a sojourn.
    #[inline]
    pub fn note_remove(&self, key: u64) {
        if self.sampled(key) {
            self.remove_sampled(key);
        }
    }

    #[cold]
    fn remove_sampled(&self, key: u64) {
        self.bump(SAMPLED_REMOVES);
        let hit = self.take(key).is_some();
        self.bump(if hit { REMOVED_MATCHED } else { REMOVED_MISSED });
    }

    /// Free the first live slot holding `key` in probe order, returning
    /// its stamp.
    fn take(&self, key: u64) -> Option<u64> {
        for i in self.probe(key) {
            let stamp = self.stamps[i].load(Ordering::Acquire);
            if matches!(stamp, 0 | CLAIMING) || self.keys[i].load(Ordering::Relaxed) != key {
                continue;
            }
            // Free the slot only if it still holds the stamp we saw: a
            // concurrent extraction of an equal key may have beaten us to
            // it (then probing on is not worth the noise — a miss).
            return self.stamps[i]
                .compare_exchange(stamp, 0, Ordering::AcqRel, Ordering::Relaxed)
                .ok();
        }
        None
    }

    /// The keys in live slots, in slot order.
    pub(crate) fn live_keys(&self) -> impl Iterator<Item = u64> + '_ {
        (self.stamps.iter().zip(self.keys.iter()))
            .filter(|(s, _)| !matches!(s.load(Ordering::Acquire), 0 | CLAIMING))
            .map(|(_, k)| k.load(Ordering::Relaxed))
    }

    /// The sampling shift (rate is `1/2^shift`).
    pub fn sample_shift(&self) -> u32 {
        self.shift
    }

    /// Table slot count.
    pub fn slots(&self) -> usize {
        self.stamps.len()
    }

    /// Slots holding a live stamp — the sampled view of the queue's
    /// current population.
    pub fn live(&self) -> usize {
        self.live_keys().count()
    }

    /// The sojourn histogram (ns between a sampled key's insert and its
    /// extraction).
    pub fn hist(&self) -> &Histogram {
        &self.sojourn_ns
    }

    /// The conservation counters: `(sampled_inserts, stored, dropped,
    /// sampled_extracts, matched, missed, sampled_removes,
    /// removed_matched, removed_missed)`.
    #[allow(clippy::type_complexity)]
    pub fn counters(&self) -> (u64, u64, u64, u64, u64, u64, u64, u64, u64) {
        let [si, st, dr, se, ma, mi, sr, rm, rs] =
            self.counts.each_ref().map(|c| c.load(Ordering::Relaxed));
        (si, st, dr, se, ma, mi, sr, rm, rs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_zero_samples_everything() {
        let t = SojournTracker::with_slots(0, 64);
        for k in 0..50u64 {
            assert!(t.sampled(k));
        }
    }

    #[test]
    fn sampling_rate_tracks_shift() {
        let t = SojournTracker::new(3); // 1/8
        let hits = (0..80_000u64).filter(|&k| t.sampled(k)).count();
        let expect = 80_000 / 8;
        assert!(
            (hits as i64 - expect as i64).unsigned_abs() < expect as u64 / 2,
            "{hits} sampled, expected ≈{expect}"
        );
    }

    #[test]
    fn sampling_decision_is_consistent_and_near_rate() {
        let t = SojournTracker::new(6);
        let mut sampled = 0u64;
        for k in 0..100_000u64 {
            if t.sampled(k) {
                sampled += 1;
                assert!(t.sampled(k), "decision must be stable");
            }
        }
        // 1/64 of 100k ≈ 1562; allow generous tolerance for hash shape.
        assert!(
            (800..2600).contains(&sampled),
            "sample rate off: {sampled}/100000"
        );
    }

    #[test]
    fn insert_extract_records_sojourn() {
        let t = SojournTracker::with_slots(0, 64);
        t.note_insert(42);
        assert_eq!(t.live(), 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.note_extract(42);
        assert_eq!(t.live(), 0);
        let (si, stamped, dropped, se, matched, missed, ..) = t.counters();
        assert_eq!((stamped, matched, missed, dropped), (1, 1, 0, 0));
        assert_eq!((si, se), (1, 1));
        assert_eq!(t.hist().count(), 1);
        assert!(
            t.hist().quantile(0.5) >= 1_000_000,
            "slept 2ms, sojourn must be ≥1ms, got {}ns",
            t.hist().quantile(0.5)
        );
    }

    #[test]
    fn extract_without_insert_misses() {
        let t = SojournTracker::with_slots(0, 64);
        t.note_extract(7);
        assert_eq!(t.counters().5, 1, "missed");
        assert_eq!(t.hist().count(), 0);
    }

    #[test]
    fn remove_frees_without_recording() {
        let t = SojournTracker::with_slots(0, 64);
        t.note_insert(5);
        t.note_remove(5);
        assert_eq!(t.live(), 0);
        assert_eq!(t.hist().count(), 0);
        let (.., sr, rm, rs) = t.counters();
        assert_eq!((sr, rm, rs), (1, 1, 0), "removed");
        // The freed slot is reusable.
        t.note_insert(5);
        assert_eq!(t.live(), 1);
        // Removing an untracked key misses.
        t.note_remove(99);
        let (.., rm, rs) = t.counters();
        assert_eq!((rm, rs), (1, 1));
    }

    #[test]
    fn table_overflow_drops_and_counts() {
        let t = SojournTracker::with_slots(0, 8);
        for k in 0..20u64 {
            t.note_insert(k);
        }
        let (si, stamped, dropped, ..) = t.counters();
        assert_eq!(si, 20);
        assert_eq!(stamped, 8, "table full at slot count");
        assert_eq!(dropped, 12);
        assert_eq!(t.live(), 8);
    }

    #[test]
    fn shared_home_slot_fills_the_whole_table_before_dropping() {
        let t = SojournTracker::with_slots(0, 64);
        let home = |k: u64| (fib(k) >> 16) as usize & 63;
        let keys: Vec<u64> = (1..).filter(|&k| home(k) == home(0)).take(65).collect();
        for (n, &k) in keys.iter().enumerate() {
            t.note_insert(k);
            let (_, stored, dropped, ..) = t.counters();
            if n < 64 {
                assert_eq!((stored, dropped), (n as u64 + 1, 0), "key {n} stored");
            } else {
                assert_eq!((stored, dropped), (64, 1), "only the 65th dropped");
            }
        }
        for &k in &keys {
            t.note_extract(k);
        }
        let (.., se, matched, missed, _, _, _) = t.counters();
        assert_eq!((se, matched, missed), (65, 64, 1));
        assert_eq!(t.live(), 0);
    }

    #[test]
    fn duplicate_keys_occupy_distinct_slots() {
        let t = SojournTracker::with_slots(0, 64);
        t.note_insert(9);
        t.note_insert(9);
        assert_eq!(t.live(), 2);
        t.note_extract(9);
        t.note_extract(9);
        assert_eq!(t.live(), 0);
        assert_eq!(t.counters().4, 2, "both copies matched");
    }

    #[test]
    fn concurrent_insert_extract_conserves_slots() {
        use std::sync::Arc;
        let t = Arc::new(SojournTracker::with_slots(0, 256));
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..5_000u64 {
                        let k = tid * 5_000 + i;
                        t.note_insert(k);
                        t.note_extract(k);
                    }
                });
            }
        });
        let (si, stamped, dropped, se, matched, missed, sr, removed, _) = t.counters();
        // Every stamp is consumed by exactly one match (keys are
        // disjoint per thread and extracted by the stamping thread).
        assert_eq!(stamped, matched);
        assert_eq!((sr, removed), (0, 0));
        assert_eq!((si, se), (20_000, 20_000));
        assert_eq!(stamped + dropped, 20_000);
        assert_eq!(matched + missed, 20_000);
        assert_eq!(t.live(), 0, "no leaked slots");
    }
}
