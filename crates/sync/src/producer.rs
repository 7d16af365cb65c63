//! Producer-side backpressure: blocking producers of a *bounded* queue.
//!
//! The paper's blocking layer (§3.6, Listing 3) only protects the
//! consumer side — producers can always insert, so under open-loop
//! overload the queue grows without bound. [`ProducerWait`] is the
//! mirror image for a capacity-bounded queue: producers that find the
//! queue full park here; every extraction that frees a slot (and every
//! [`ProducerWait::close`]) signals it.
//!
//! The machinery is the same circular buffer of cache-padded futex
//! words as [`EventBuffer`] — ticket dispersal, sleeper-count Dekker
//! handshake, epoch-encoded futex words — reused wholesale rather than
//! re-proved. Only the *counters* differ: producer-side waits report
//! under `producer.*` (see [`crate::obs::snapshot`]) so a saturated
//! queue's producer pressure is never mistaken for consumer idleness.
//!
//! # Protocol
//!
//! The caller (the queue's admission path) runs:
//!
//! 1. try to reserve capacity; on success, insert;
//! 2. on failure, `wait_for_room(|| occupancy < capacity)`;
//! 3. on any wake, go to 1.
//!
//! Symmetrically, the extraction path *first* releases its capacity
//! reservation, *then* calls [`ProducerWait::signal`] — the same
//! publish-then-signal order `EventBuffer` demands of element inserts.
//!
//! # Fault injection
//!
//! `producer.wake-lost` — fires at the top of
//! [`ProducerWait::wait_for_room`], between the caller's failed
//! admission attempt and sleeper registration. With `Action::SleepMs`
//! it stretches the classic producer lost-wake window: a concurrent
//! extract can release capacity *and* signal entirely inside the gap,
//! and only the registration/re-check handshake keeps the delayed
//! producer from parking forever on a queue with room.

use crate::event::{EventBuffer, WaitOutcome, PRODUCER_COUNTERS};

/// A futex-based waiting area for producers blocked on a full bounded
/// queue. Mirrors the consumer-side [`EventBuffer`]; see the module
/// docs for the protocol.
///
/// ```
/// use zmsq_sync::{ProducerWait, WaitOutcome};
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pw = ProducerWait::new();
/// let occupancy = AtomicUsize::new(1); // capacity 1, full
///
/// std::thread::scope(|s| {
///     let (pw, occupancy) = (&pw, &occupancy);
///     let producer = s.spawn(move || {
///         loop {
///             // Try to reserve a slot...
///             if occupancy.fetch_update(Ordering::SeqCst, Ordering::SeqCst,
///                                       |o| (o < 1).then_some(o + 1)).is_ok() {
///                 return "admitted";
///             }
///             // ...and park until an extraction frees one.
///             pw.wait_for_room(|| occupancy.load(Ordering::SeqCst) < 1);
///         }
///     });
///     occupancy.fetch_sub(1, Ordering::SeqCst); // extraction frees a slot...
///     pw.signal();                              // ...then signals (always this order)
///     assert_eq!(producer.join().unwrap(), "admitted");
/// });
/// ```
pub struct ProducerWait {
    ev: EventBuffer,
}

impl ProducerWait {
    /// Create a waiting area with the default slot count
    /// ([`EventBuffer::DEFAULT_SLOTS`]).
    pub fn new() -> Self {
        Self::with_slots(EventBuffer::DEFAULT_SLOTS)
    }

    /// Create a waiting area with `slots` futexes (rounded up to a power
    /// of two).
    pub fn with_slots(slots: usize) -> Self {
        Self {
            ev: EventBuffer::with_slots_and_counters(slots, &PRODUCER_COUNTERS),
        }
    }

    /// Number of futex slots (always a power of two).
    pub fn slot_count(&self) -> usize {
        self.ev.slot_count()
    }

    /// Best-effort count of producers currently parked (or registering).
    pub fn sleeper_count(&self) -> u64 {
        self.ev.sleeper_count()
    }

    /// Park until `has_room()` is (probably) true, a signal arrives, or
    /// the queue is closed. The caller re-attempts admission on *any*
    /// outcome except [`WaitOutcome::Closed`] — a wake is a hint, not a
    /// reservation.
    pub fn wait_for_room<F: FnMut() -> bool>(&self, has_room: F) -> WaitOutcome {
        // Chaos: stall between the caller's failed admission attempt and
        // sleeper registration, so a concurrent release+signal completes
        // entirely inside the gap (the producer lost-wake window).
        fault::fail_point!("producer.wake-lost");
        det::det_point!("producer.wait");
        self.ev.wait_until(has_room)
    }

    /// [`ProducerWait::wait_for_room`] with a bound on the park time.
    /// Returns [`WaitOutcome::TimedOut`] if the timeout elapsed with no
    /// signal.
    pub fn wait_for_room_timeout<F: FnMut() -> bool>(
        &self,
        has_room: F,
        timeout: std::time::Duration,
    ) -> WaitOutcome {
        fault::fail_point!("producer.wake-lost");
        det::det_point!("producer.wait");
        self.ev.wait_until_timeout(has_room, timeout)
    }

    /// Signal after an extraction released capacity. Call *after* the
    /// occupancy decrement is visible.
    #[inline]
    pub fn signal(&self) {
        self.ev.signal();
    }

    /// Close the waiting area: wake every parked producer, now and
    /// forever. Part of queue shutdown — parked producers observe
    /// [`WaitOutcome::Closed`] and surface `InsertError::Closed` instead
    /// of hanging.
    pub fn close(&self) {
        self.ev.close();
    }

    /// Whether [`ProducerWait::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.ev.is_closed()
    }

    /// Re-open after a close. Only sound when no producer can be inside
    /// `wait_for_room` (e.g. between benchmark phases).
    pub fn reopen(&self) {
        self.ev.reopen();
    }
}

impl Default for ProducerWait {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ProducerWait {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProducerWait")
            .field("slots", &self.slot_count())
            .field("sleepers", &self.sleeper_count())
            .field("closed", &self.is_closed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// A minimal bounded cell: capacity `cap`, admission via CAS.
    struct Bounded {
        occupancy: AtomicUsize,
        cap: usize,
    }

    impl Bounded {
        fn new(cap: usize) -> Self {
            Self {
                occupancy: AtomicUsize::new(0),
                cap,
            }
        }
        fn try_admit(&self) -> bool {
            self.occupancy
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |o| {
                    (o < self.cap).then_some(o + 1)
                })
                .is_ok()
        }
        fn release(&self, pw: &ProducerWait) {
            self.occupancy.fetch_sub(1, Ordering::SeqCst);
            pw.signal();
        }
        fn has_room(&self) -> bool {
            self.occupancy.load(Ordering::SeqCst) < self.cap
        }
    }

    #[test]
    fn ready_when_room_exists() {
        let pw = ProducerWait::new();
        assert_eq!(pw.wait_for_room(|| true), WaitOutcome::Ready);
        assert_eq!(pw.sleeper_count(), 0);
    }

    #[test]
    fn closed_returns_closed() {
        let pw = ProducerWait::with_slots(3);
        assert_eq!(pw.slot_count(), 4, "rounded to power of two");
        pw.close();
        assert!(pw.is_closed());
        assert_eq!(pw.wait_for_room(|| false), WaitOutcome::Closed);
        pw.reopen();
        assert!(!pw.is_closed());
        assert_eq!(pw.wait_for_room(|| true), WaitOutcome::Ready);
    }

    #[test]
    fn timed_wait_reports_timeout() {
        let pw = ProducerWait::new();
        let t0 = std::time::Instant::now();
        let out = pw.wait_for_room_timeout(|| false, Duration::from_millis(30));
        assert_eq!(out, WaitOutcome::TimedOut);
        assert!(t0.elapsed() >= Duration::from_millis(25));
        assert_eq!(pw.sleeper_count(), 0, "deregistered after timeout");
    }

    /// The fundamental producer handoff: a producer blocked on a full
    /// cell is admitted after an extraction releases capacity.
    #[test]
    fn blocked_producer_admitted_after_release() {
        let pw = Arc::new(ProducerWait::with_slots(2));
        let cell = Arc::new(Bounded::new(1));
        assert!(cell.try_admit(), "first admission fills the cell");
        let (pw2, cell2) = (Arc::clone(&pw), Arc::clone(&cell));
        let producer = std::thread::spawn(move || loop {
            if cell2.try_admit() {
                return;
            }
            pw2.wait_for_room(|| cell2.has_room());
        });
        std::thread::sleep(Duration::from_millis(10));
        cell.release(&pw);
        producer.join().unwrap();
        assert_eq!(cell.occupancy.load(Ordering::SeqCst), 1);
    }

    /// Many producers contending for few slots: every producer finishes
    /// its quota, no wake is lost, nothing deadlocks.
    #[test]
    fn many_producers_drain_through_small_capacity() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 2_000;
        let pw = Arc::new(ProducerWait::with_slots(2));
        let cell = Arc::new(Bounded::new(3));
        let mut handles = Vec::new();
        for _ in 0..PRODUCERS {
            let (pw, cell) = (Arc::clone(&pw), Arc::clone(&cell));
            handles.push(std::thread::spawn(move || {
                for _ in 0..PER_PRODUCER {
                    loop {
                        if cell.try_admit() {
                            break;
                        }
                        pw.wait_for_room(|| cell.has_room());
                    }
                }
            }));
        }
        // The consumer: keep releasing until every admission happened.
        let total = PRODUCERS * PER_PRODUCER;
        let mut released = 0;
        while released < total {
            if cell.occupancy.load(Ordering::SeqCst) > 0 {
                cell.release(&pw);
                released += 1;
            } else {
                std::thread::yield_now();
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cell.occupancy.load(Ordering::SeqCst), 0);
        assert_eq!(pw.sleeper_count(), 0);
    }

    /// close() must wake producers parked on a full cell — the shutdown
    /// half of the satellite regression (the queue-level test asserts
    /// the `InsertError::Closed` surface).
    #[test]
    fn close_wakes_parked_producers() {
        // A `futex.spurious-wake` armed concurrently by another test lets
        // the producers return before it is ever seen parked.
        #[cfg(feature = "fault-inject")]
        let _x = fault::exclusive();
        let pw = Arc::new(ProducerWait::with_slots(1));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let pw = Arc::clone(&pw);
            handles.push(std::thread::spawn(move || {
                loop {
                    match pw.wait_for_room(|| false) {
                        WaitOutcome::Closed => return true,
                        // Spurious wakes loop back to parking.
                        _ => continue,
                    }
                }
            }));
        }
        while pw.sleeper_count() < 3 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(5));
        pw.close();
        for h in handles {
            assert!(h.join().unwrap(), "producer saw Closed");
        }
        assert_eq!(pw.sleeper_count(), 0);
    }

    /// The producer lost-wake window: the release+signal lands entirely
    /// inside the injected delay between the failed admission and
    /// registration. The registration/re-check handshake must still
    /// admit the producer (never a permanent park on a queue with room).
    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_wake_lost_window_cannot_strand_producer() {
        let _x = fault::exclusive();
        fault::set_seed(0x9A5C_0FFE);
        fault::configure(
            "producer.wake-lost",
            fault::Policy::new(fault::Trigger::Always).with_action(fault::Action::SleepMs(30)),
        );
        let pw = Arc::new(ProducerWait::with_slots(1));
        let cell = Arc::new(Bounded::new(1));
        assert!(cell.try_admit());
        let (pw2, cell2) = (Arc::clone(&pw), Arc::clone(&cell));
        let producer = std::thread::spawn(move || loop {
            if cell2.try_admit() {
                return;
            }
            pw2.wait_for_room(|| cell2.has_room());
        });
        // Land the release+signal inside the 30ms pre-registration delay.
        std::thread::sleep(Duration::from_millis(10));
        cell.release(&pw);
        producer.join().unwrap();
        assert!(fault::hit_count("producer.wake-lost") >= 1);
        fault::reset();
    }
}
