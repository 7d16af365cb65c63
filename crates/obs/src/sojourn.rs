//! Sampled per-element *sojourn time*: the wall-clock interval between
//! an element's insertion and its extraction — the queueing-delay
//! number scheduling operators reason in.
//!
//! Tracking every element would mean a timestamp in every set/pool
//! slot; instead the tracker mirrors the
//! [`RankEstimator`](crate::RankEstimator)'s shadow-reservoir design: a
//! fixed lock-free table of `(key, stamp)` slots, sampling inserted
//! keys at rate `1/2^shift` with a Fibonacci hash that is a pure
//! function of the key — so the insert and extract sides agree on
//! which keys are sampled without coordination. A sampled insert
//! stamps a slot; the matching extract records `now - stamp` into a
//! log-linear [`Histogram`] and frees the slot.
//!
//! # Sojourn vs. rank
//!
//! `quality.est_rank` measures *how wrong* an extraction is (position
//! error against the shadow population); `queue.sojourn_ns` measures
//! *how long* elements wait. A strict queue under overload has perfect
//! rank and terrible sojourn; a deeply relaxed idle queue the reverse.
//! The estimator's `staleness_ns` is close to sojourn but only covers
//! keys that were still resident in its (evicting) reservoir —
//! the sojourn table never overwrites a live slot, so its histogram is
//! an unbiased sample of matched elements' true waits.
//!
//! Duplicate priorities: keys are priorities, and a sampled key that
//! is inserted twice while the first copy is still queued finds its
//! slot range occupied and lands in a neighbouring slot (bounded
//! probing); the extract side matches *a* copy's stamp, which under
//! FIFO-ish service is an approximation the histogram tolerates.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::hist::{HistSnapshot, Histogram};
use crate::metrics::Counter;
use crate::recorder::now_ns;
use crate::snapshot::Snapshot;

/// Slot stamp marking "a writer is mid-claim"; readers skip it.
const CLAIMING: u64 = u64::MAX;
/// Bounded linear-probe window around a key's home slot.
const PROBE: usize = 8;
/// Default slot count (two `u64` arrays: 16 KiB total).
const DEFAULT_SLOTS: usize = 1024;

#[inline]
fn fib(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Lock-free sampled sojourn-time tracker (see module docs).
pub struct SojournTracker {
    shift: u32,
    mask: usize,
    keys: Box<[AtomicU64]>,
    stamps: Box<[AtomicU64]>,
    hist: Histogram,
    stamped: Counter,
    matched: Counter,
    missed: Counter,
    dropped: Counter,
    removed: Counter,
}

impl SojournTracker {
    /// Sample inserted keys at rate `1/2^shift` (`0` samples every
    /// key — exact but hot; testing only). `shift` is clamped to 32.
    pub fn new(shift: u32) -> Self {
        Self::with_slots(shift, DEFAULT_SLOTS)
    }

    /// As [`new`](Self::new) with an explicit slot count (rounded up
    /// to a power of two, minimum the probe window of 8).
    pub fn with_slots(shift: u32, slots: usize) -> Self {
        let slots = slots.max(PROBE).next_power_of_two();
        let mk = || {
            (0..slots)
                .map(|_| AtomicU64::new(0))
                .collect::<Box<[AtomicU64]>>()
        };
        Self {
            shift: shift.min(32),
            mask: slots - 1,
            keys: mk(),
            stamps: mk(),
            hist: Histogram::new(),
            stamped: Counter::new(),
            matched: Counter::new(),
            missed: Counter::new(),
            dropped: Counter::new(),
            removed: Counter::new(),
        }
    }

    /// Whether `key` is in the sample — a pure function of the key, so
    /// both sides of the queue agree without coordination.
    #[inline]
    pub fn sampled(&self, key: u64) -> bool {
        self.shift == 0 || fib(key) >> (64 - self.shift) == 0
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        // Use a different bit range than the sampling decision so the
        // surviving keys (top bits zero) still spread over the table.
        (fib(key) >> 16) as usize & self.mask
    }

    /// Note an admitted insertion. Cost for unsampled keys: one
    /// multiply and shift.
    #[inline]
    pub fn note_insert(&self, key: u64) {
        if !self.sampled(key) {
            return;
        }
        self.stamp(key);
    }

    #[cold]
    fn stamp(&self, key: u64) {
        let home = self.home(key);
        for i in 0..PROBE {
            let slot = (home + i) & self.mask;
            if self.stamps[slot]
                .compare_exchange(0, CLAIMING, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                self.keys[slot].store(key, Ordering::Relaxed);
                // `| 1` keeps a stamp taken at t=0 distinguishable from
                // the empty marker; the ≤1ns skew is below bucket width.
                self.stamps[slot].store(now_ns() | 1, Ordering::Release);
                self.stamped.incr();
                return;
            }
        }
        self.dropped.incr();
    }

    /// Note an extraction: on a match records the element's sojourn
    /// and frees the slot.
    #[inline]
    pub fn note_extract(&self, key: u64) {
        if !self.sampled(key) {
            return;
        }
        match self.take(key) {
            Some(stamp) => {
                self.hist.record(now_ns().saturating_sub(stamp));
                self.matched.incr();
            }
            None => self.missed.incr(),
        }
    }

    /// Note a removal that is *not* a service completion (eviction
    /// shedding, give-back rollback): frees the slot without recording
    /// a sojourn.
    #[inline]
    pub fn note_remove(&self, key: u64) {
        if !self.sampled(key) {
            return;
        }
        if self.take(key).is_some() {
            self.removed.incr();
        }
    }

    #[cold]
    fn take(&self, key: u64) -> Option<u64> {
        let home = self.home(key);
        for i in 0..PROBE {
            let slot = (home + i) & self.mask;
            let stamp = self.stamps[slot].load(Ordering::Acquire);
            if stamp == 0 || stamp == CLAIMING {
                continue;
            }
            if self.keys[slot].load(Ordering::Relaxed) != key {
                continue;
            }
            if self.stamps[slot]
                .compare_exchange(stamp, CLAIMING, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                self.stamps[slot].store(0, Ordering::Release);
                return Some(stamp);
            }
        }
        None
    }

    /// The sampling shift.
    pub fn sample_shift(&self) -> u32 {
        self.shift
    }

    /// Table slot count.
    pub fn slots(&self) -> usize {
        self.mask + 1
    }

    /// Slots currently holding a live stamp.
    pub fn live(&self) -> usize {
        self.stamps
            .iter()
            .filter(|s| {
                let v = s.load(Ordering::Relaxed);
                v != 0 && v != CLAIMING
            })
            .count()
    }

    /// The sojourn histogram (ns).
    pub fn hist(&self) -> &Histogram {
        &self.hist
    }

    /// `(stamped, matched, missed, dropped, removed)` counter values.
    pub fn counters(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.stamped.get(),
            self.matched.get(),
            self.missed.get(),
            self.dropped.get(),
            self.removed.get(),
        )
    }

    /// Export `queue.sojourn_ns` plus the `sojourn.*` accounting into
    /// `s`, folded over `trackers`: one queue's tracker, or one per shard
    /// of a sharded queue. Counters, table gauges and the histogram are
    /// summed; the sample shift is the first tracker's. Exports nothing
    /// when `trackers` is empty.
    pub fn export<'a>(trackers: impl IntoIterator<Item = &'a SojournTracker>, s: &mut Snapshot) {
        let mut trackers = trackers.into_iter().peekable();
        let Some(shift) = trackers.peek().map(|t| t.shift) else {
            return;
        };
        let mut c = [0u64; 5];
        let (mut live, mut slots) = (0usize, 0usize);
        let mut hist = HistSnapshot::default();
        for t in trackers {
            let (stamped, matched, missed, dropped, removed) = t.counters();
            for (dst, v) in c
                .iter_mut()
                .zip([stamped, matched, missed, dropped, removed])
            {
                *dst += v;
            }
            live += t.live();
            slots += t.slots();
            hist.absorb(&t.hist.snapshot());
        }
        let [stamped, matched, missed, dropped, removed] = c;
        s.push_hist_snapshot("queue.sojourn_ns", hist);
        s.push_counter("sojourn.stamped", stamped);
        s.push_counter("sojourn.matched", matched);
        s.push_counter("sojourn.missed", missed);
        s.push_counter("sojourn.dropped", dropped);
        s.push_counter("sojourn.removed", removed);
        s.push_gauge("sojourn.sample_shift", i64::from(shift));
        s.push_gauge("sojourn.table.live", live as i64);
        s.push_gauge("sojourn.table.slots", slots as i64);
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
    fn insert_extract_records_sojourn() {
        let t = SojournTracker::with_slots(0, 64);
        t.note_insert(42);
        assert_eq!(t.live(), 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.note_extract(42);
        assert_eq!(t.live(), 0);
        let (stamped, matched, missed, dropped, _) = t.counters();
        assert_eq!((stamped, matched, missed, dropped), (1, 1, 0, 0));
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
        assert_eq!(t.counters().2, 1, "missed");
        assert_eq!(t.hist().count(), 0);
    }

    #[test]
    fn remove_frees_without_recording() {
        let t = SojournTracker::with_slots(0, 64);
        t.note_insert(5);
        t.note_remove(5);
        assert_eq!(t.live(), 0);
        assert_eq!(t.hist().count(), 0);
        assert_eq!(t.counters().4, 1, "removed");
        // The freed slot is reusable.
        t.note_insert(5);
        assert_eq!(t.live(), 1);
    }

    #[test]
    fn probe_window_overflow_drops() {
        let t = SojournTracker::with_slots(0, 8); // mask covers one probe window
        for k in 0..20u64 {
            t.note_insert(k);
        }
        let (stamped, _, _, dropped, _) = t.counters();
        assert_eq!(stamped, 8, "table full at slot count");
        assert_eq!(dropped, 12);
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
        assert_eq!(t.counters().1, 2, "both copies matched");
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
        let (stamped, matched, missed, dropped, removed) = t.counters();
        // Every stamp is consumed by exactly one match (keys are
        // disjoint per thread and extracted by the stamping thread).
        assert_eq!(stamped, matched);
        assert_eq!(removed, 0);
        assert_eq!(stamped + dropped, 20_000);
        assert_eq!(matched + missed, 20_000);
        assert_eq!(t.live(), 0, "no leaked slots");
    }

    #[test]
    fn snapshot_exports_expected_names() {
        let t = SojournTracker::with_slots(0, 64);
        t.note_insert(1);
        t.note_extract(1);
        let mut s = Snapshot::new();
        SojournTracker::export([&t], &mut s);
        assert!(s.hist("queue.sojourn_ns").is_some());
        assert_eq!(s.counter("sojourn.stamped"), Some(1));
        assert_eq!(s.counter("sojourn.matched"), Some(1));
        assert_eq!(s.gauge("sojourn.table.slots"), Some(64));
    }
}
