//! Scalable low-latency consumer blocking (paper §3.6, Listing 3).
//!
//! The mechanism is a circular buffer of cache-padded futex words plus two
//! monotonically increasing operation counters. Every `insert()` takes a
//! ticket from the wake counter and signals the futex that ticket maps to;
//! every `extract_max()` that finds the queue empty takes a ticket from the
//! sleep counter and parks on the futex *its* ticket maps to. The counters
//! disperse threads across the buffer so that (i) there is low contention
//! on any single futex word, and (ii) a signal wakes few threads.
//!
//! Each futex word encodes `(epoch << 8) | waiter_count`: reading the low
//! byte from userspace tells a producer whether anyone sleeps there, so the
//! common-case signal is one `fetch_add` plus two uncontended loads and no
//! syscall.
//!
//! The low byte is a *count*, not a bit, and that is load-bearing for
//! liveness. Every thread that registers on a slot increments the count
//! and — on **every** exit path (ready, woken, closed, timed out) —
//! decrements it again. A nonzero count therefore always means a live
//! thread that either holds an element already or will re-check the
//! predicate before parking again. With a single shared bit (the original
//! design), an early-exiting waiter left the bit set with nobody behind
//! it; a later signal would spend its one wake clearing that *ghost* bit
//! (waking nobody) while a genuinely parked thread on a later slot
//! starved. Consumers survived ghosts because insert-side signals are
//! plentiful; the producer-backpressure mirror ([`crate::ProducerWait`])
//! emits exactly one signal per freed capacity slot, so one eaten signal
//! became a permanent hang (the `producer_liveness_under_wake_lost`
//! chaos test).
//!
//! One deviation from the paper's sketch, for liveness: a signal whose own
//! slot has no sleepers sweeps forward to the next slot that does (bounded
//! by the buffer size, and only entered when the global sleeper count is
//! nonzero). Without this, a lone producer whose tickets happen to miss a
//! lone sleeper's slot would strand an element in the queue while the
//! consumer sleeps forever. The sweep costs nothing in the common case and
//! preserves the paper's "do not wake too many threads at once" property:
//! each signal wakes at most one slot.
//!
//! # Fault injection
//!
//! `event.pre-park-delay` — fires between the final closed/predicate
//! checks and the `futex_wait`, stretching the classic lost-wakeup window
//! so a concurrent `signal()`/`close()` completes entirely inside it.
//! Combined with `futex.spurious-wake` (which makes the park itself
//! return immediately), chaos schedules exercise both halves of the
//! sleep/wake handshake.
//!
//! # Observability
//!
//! Always-on counters (exported through [`crate::obs::snapshot`]):
//! `event.waits` (wait_until entries), `event.parks` (actual futex
//! sleeps), `event.spurious_wakeups` (parks that returned with the
//! predicate still false), `event.signals`, and
//! `event.signals_no_sleeper` (signals resolved by the sleeper-count
//! fast path with no futex work).

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use crate::futex::{futex_wait, futex_wait_timeout, futex_wake_all};
use crate::pad::CachePadded;

/// The always-on counters one [`EventBuffer`] population reports into.
/// Two static sets exist: the consumer-side buffer inside the queues
/// (`event.*`) and the producer-side [`crate::ProducerWait`]
/// (`producer.*`) — the same machinery, observed separately so pressure
/// on one side is not mistaken for pressure on the other.
pub(crate) struct WaitCounters {
    /// `wait_until`/`wait_until_timeout` calls that registered as sleepers.
    pub waits: obs::Counter,
    /// Waits that reached the actual `futex_wait` (syscall parks).
    pub parks: obs::Counter,
    /// Parks that returned "woken" while the predicate was still false and
    /// the buffer open — the caller will loop and wait again.
    pub spurious_wakeups: obs::Counter,
    /// `signal` calls.
    pub signals: obs::Counter,
    /// Signals that saw no sleepers and skipped all futex work.
    pub signals_no_sleeper: obs::Counter,
}

impl WaitCounters {
    const fn new() -> Self {
        Self {
            waits: obs::Counter::new(),
            parks: obs::Counter::new(),
            spurious_wakeups: obs::Counter::new(),
            signals: obs::Counter::new(),
            signals_no_sleeper: obs::Counter::new(),
        }
    }
}

/// Counters for the consumer-blocking buffers (`event.*`).
pub(crate) static CONSUMER_COUNTERS: WaitCounters = WaitCounters::new();
/// Counters for the producer-backpressure buffers (`producer.*`).
pub(crate) static PRODUCER_COUNTERS: WaitCounters = WaitCounters::new();

/// Low byte of each futex word: the number of threads currently
/// registered on the slot (inside `wait_until`, between increment and
/// their exit-path decrement).
const WAITER_MASK: u32 = 0xFF;
/// One epoch step. The epoch lives in the high 24 bits so a signal can
/// bump it without disturbing the waiter count. 24 bits of epoch wrap
/// after ~16M signals to one slot; a wrap is only observable if a waiter
/// stalls between its slot load and `futex_wait` across the entire wrap,
/// and even then the failure mode is one extra spurious park-and-retry.
const EPOCH_ONE: u32 = 0x100;

/// Result of [`EventBuffer::wait_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// The caller's predicate became true before sleeping; retry the
    /// extraction immediately.
    Ready,
    /// The thread slept and was woken by a signal (or spuriously); retry
    /// the extraction and wait again if it still finds nothing.
    Woken,
    /// The buffer was closed; no more signals will ever arrive.
    Closed,
    /// A timed wait elapsed without a signal (timed variant only).
    TimedOut,
}

/// A circular buffer of futexes used to block idle consumers.
///
/// ```
/// use zmsq_sync::{EventBuffer, WaitOutcome};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let ev = EventBuffer::new();
/// let items = AtomicU64::new(0);
///
/// std::thread::scope(|s| {
///     let (ev, items) = (&ev, &items);
///     let consumer = s.spawn(move || {
///         loop {
///             if items.fetch_update(Ordering::SeqCst, Ordering::SeqCst,
///                                   |v| v.checked_sub(1)).is_ok() {
///                 return "got an item";
///             }
///             ev.wait_until(|| items.load(Ordering::SeqCst) > 0);
///         }
///     });
///     items.fetch_add(1, Ordering::SeqCst); // publish the item...
///     ev.signal();                          // ...then signal (always this order)
///     assert_eq!(consumer.join().unwrap(), "got an item");
/// });
/// ```
pub struct EventBuffer {
    slots: Box<[CachePadded<AtomicU32>]>,
    /// Next-position-to-wake ticket counter (total inserts).
    wake_tickets: CachePadded<AtomicU64>,
    /// Next-position-to-sleep ticket counter (total empty extracts).
    sleep_tickets: CachePadded<AtomicU64>,
    /// Number of threads currently registered as (about to be) sleeping.
    /// Lets the signal fast path skip all futex work with a single load.
    sleepers: CachePadded<AtomicU64>,
    closed: AtomicBool,
    mask: u64,
    spin_before_block: u32,
    /// Which global counter set this buffer reports into (consumer-side
    /// `event.*` by default; `producer.*` for [`crate::ProducerWait`]).
    counters: &'static WaitCounters,
}

impl EventBuffer {
    /// Default number of futex slots; enough to disperse a socket's worth
    /// of consumers.
    pub const DEFAULT_SLOTS: usize = 16;
    /// Default bound on the optimistic spin before parking (paper's
    /// `trySpinBeforeBlock`).
    pub const DEFAULT_SPIN: u32 = 64;

    /// Create a buffer with the default slot count.
    pub fn new() -> Self {
        Self::with_slots(Self::DEFAULT_SLOTS)
    }

    /// Create a buffer with `slots` futexes (rounded up to a power of two).
    pub fn with_slots(slots: usize) -> Self {
        Self::with_slots_and_counters(slots, &CONSUMER_COUNTERS)
    }

    /// Create a buffer reporting into an explicit counter set (the
    /// producer-side wrapper uses `PRODUCER_COUNTERS`).
    pub(crate) fn with_slots_and_counters(slots: usize, counters: &'static WaitCounters) -> Self {
        let n = slots.max(1).next_power_of_two();
        Self {
            slots: (0..n)
                .map(|_| CachePadded::new(AtomicU32::new(0)))
                .collect(),
            wake_tickets: CachePadded::new(AtomicU64::new(0)),
            sleep_tickets: CachePadded::new(AtomicU64::new(0)),
            sleepers: CachePadded::new(AtomicU64::new(0)),
            closed: AtomicBool::new(false),
            mask: (n - 1) as u64,
            spin_before_block: Self::DEFAULT_SPIN,
            counters,
        }
    }

    /// Number of futex slots (always a power of two).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Best-effort count of currently sleeping (or registering) threads.
    pub fn sleeper_count(&self) -> u64 {
        self.sleepers.load(Ordering::Relaxed)
    }

    /// Signal after a producer made an element available
    /// (`signalAfterInsert`). Call *after* the element is visible.
    #[inline]
    pub fn signal(&self) {
        det::det_point!("event.signal");
        self.counters.signals.incr();
        let ticket = self.wake_tickets.fetch_add(1, Ordering::Relaxed);
        // Dekker handshake with `wait_until`: the producer publishes its
        // element, fences, then reads the sleeper count; the waiter bumps
        // the sleeper count, fences, then re-reads the predicate. The
        // SeqCst fences forbid the store-buffering outcome where the
        // producer misses the sleeper AND the sleeper misses the element.
        std::sync::atomic::fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) == 0 {
            self.counters.signals_no_sleeper.incr();
            return;
        }
        self.wake_one_from((ticket & self.mask) as usize);
    }

    /// Wake at most one slot's worth of sleepers, starting at `start` and
    /// sweeping forward until a slot with a nonzero waiter count is found.
    fn wake_one_from(&self, start: usize) {
        let n = self.slots.len();
        for i in 0..n {
            let slot = &self.slots[(start + i) & self.mask as usize];
            let mut w = slot.load(Ordering::Relaxed);
            while w & WAITER_MASK != 0 {
                // Bump the epoch, leaving the waiter count untouched — the
                // registered threads deregister themselves on exit. Parked
                // threads (and threads between registration and
                // futex_wait) observe a changed word and retry their
                // admission; because the count only ever reflects live
                // registrants, this wake can never be spent on a slot
                // nobody is behind.
                let next = w.wrapping_add(EPOCH_ONE);
                match slot.compare_exchange_weak(w, next, Ordering::AcqRel, Ordering::Relaxed) {
                    Ok(_) => {
                        futex_wake_all(slot);
                        return;
                    }
                    Err(cur) => w = cur,
                }
            }
        }
    }

    /// Block until `nonempty()` is (probably) true, a signal arrives, or
    /// the buffer is closed (`waitBeforeExtractMax`).
    ///
    /// The protocol: take a sleep ticket, register on that slot, then
    /// re-check the predicate *after* registration — this is the race-free
    /// handoff with [`EventBuffer::signal`]. A bounded spin runs before
    /// parking to absorb short producer gaps without a syscall.
    pub fn wait_until<F: FnMut() -> bool>(&self, nonempty: F) -> WaitOutcome {
        self.wait_until_impl(nonempty, None)
    }

    /// [`EventBuffer::wait_until`] with a bound on the park time. Returns
    /// [`WaitOutcome::TimedOut`] if the timeout elapsed with no signal.
    pub fn wait_until_timeout<F: FnMut() -> bool>(
        &self,
        nonempty: F,
        timeout: std::time::Duration,
    ) -> WaitOutcome {
        self.wait_until_impl(nonempty, Some(timeout))
    }

    fn wait_until_impl<F: FnMut() -> bool>(
        &self,
        mut nonempty: F,
        timeout: Option<std::time::Duration>,
    ) -> WaitOutcome {
        if self.closed.load(Ordering::Acquire) {
            return WaitOutcome::Closed;
        }
        self.counters.waits.incr();
        let ticket = self.sleep_tickets.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket & self.mask) as usize];

        // Register as a sleeper before the predicate re-check (see signal).
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        std::sync::atomic::fence(Ordering::SeqCst);
        // Drop-guard so every early return deregisters.
        struct Dereg<'a>(&'a AtomicU64);
        impl Drop for Dereg<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let _dereg = Dereg(&self.sleepers);

        // Register on the slot: bump the waiter count and remember the word
        // we will park on. The count (unlike the original shared bit) is
        // per-registrant state, so every exit path below must undo it —
        // that is the whole liveness fix: a signal sweeping for a nonzero
        // count can never land on a slot whose waiters have all left.
        let mut w = slot.load(Ordering::Relaxed);
        let (parked_word, registered) = loop {
            if w & WAITER_MASK == WAITER_MASK {
                // Count saturated (>255 registrants on one slot): share the
                // word without incrementing. Degrades to the old shared-bit
                // semantics for the excess threads only; the 255 counted
                // registrants still keep the slot live.
                break (w, false);
            }
            match slot.compare_exchange_weak(
                w,
                w.wrapping_add(1),
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break (w.wrapping_add(1), true),
                Err(cur) => w = cur,
            }
        };
        // Slot-level drop-guard: every return below deregisters from the
        // slot word (the counterpart of `_dereg` for the global count).
        struct SlotDereg<'a>(&'a AtomicU32, bool);
        impl Drop for SlotDereg<'_> {
            fn drop(&mut self) {
                if self.1 {
                    // Our registration incremented the count, so it is
                    // nonzero until this decrement; the subtraction cannot
                    // borrow into the epoch bits.
                    self.0.fetch_sub(1, Ordering::AcqRel);
                }
            }
        }
        let _slot_dereg = SlotDereg(slot, registered);

        // Predicate re-check after registration: a concurrent signal either
        // sees our sleeper count or we see its element here.
        if nonempty() {
            return WaitOutcome::Ready;
        }

        // trySpinBeforeBlock: absorb short gaps without a syscall. Compare
        // epoch bits only — other waiters registering/deregistering churn
        // the count byte, and treating that as a wake would turn
        // contention into spurious retries.
        for _ in 0..self.spin_before_block {
            std::hint::spin_loop();
            if (slot.load(Ordering::Acquire) ^ parked_word) & !WAITER_MASK != 0 {
                return WaitOutcome::Woken;
            }
            if nonempty() {
                return WaitOutcome::Ready;
            }
        }

        if self.closed.load(Ordering::Acquire) {
            return WaitOutcome::Closed;
        }

        // Chaos: stall in the window between the closed/predicate checks
        // and parking. A concurrent close() or signal() lands entirely
        // inside the gap; only the epoch-in-the-futex-word protocol makes
        // the delayed futex_wait below return instead of sleeping forever.
        fault::fail_point!("event.pre-park-delay");
        det::det_point!("event.pre-park");

        self.counters.parks.incr();
        // The kernel compares the full word, so count churn from other
        // registrants can make the park return immediately — that surfaces
        // as a spurious wake (caller loops), never a missed one.
        let woken = match timeout {
            None => {
                futex_wait(slot, parked_word);
                true
            }
            Some(t) => futex_wait_timeout(slot, parked_word, t),
        };

        if self.closed.load(Ordering::Acquire) {
            WaitOutcome::Closed
        } else if woken {
            // A wake with the predicate still false sends the caller
            // straight back to sleep — the spurious-wakeup rate the
            // paper's dispersal scheme is designed to keep low.
            if !nonempty() {
                self.counters.spurious_wakeups.incr();
                obs::trace_event!(obs::EventKind::SpuriousWake);
            }
            WaitOutcome::Woken
        } else {
            WaitOutcome::TimedOut
        }
    }

    /// Close the buffer: wake every sleeper, now and forever. Used for
    /// shutdown of consumer pools.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        for slot in self.slots.iter() {
            // Unconditionally bump the epoch (leaving the waiter count to
            // the registrants themselves) so even threads that registered
            // concurrently with close observe a changed word.
            slot.fetch_add(EPOCH_ONE, Ordering::AcqRel);
            futex_wake_all(slot);
        }
    }

    /// Whether [`EventBuffer::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Re-open after a close. Only sound when no waiters can be inside
    /// `wait_until` (e.g. between benchmark phases).
    pub fn reopen(&self) {
        self.closed.store(false, Ordering::Release);
    }
}

impl Default for EventBuffer {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for EventBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventBuffer")
            .field("slots", &self.slots.len())
            .field("sleepers", &self.sleeper_count())
            .field("closed", &self.is_closed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn slot_count_rounds_to_power_of_two() {
        assert_eq!(EventBuffer::with_slots(1).slot_count(), 1);
        assert_eq!(EventBuffer::with_slots(3).slot_count(), 4);
        assert_eq!(EventBuffer::with_slots(16).slot_count(), 16);
        assert_eq!(EventBuffer::with_slots(17).slot_count(), 32);
    }

    #[test]
    fn ready_when_predicate_true() {
        let ev = EventBuffer::new();
        assert_eq!(ev.wait_until(|| true), WaitOutcome::Ready);
        assert_eq!(ev.sleeper_count(), 0);
    }

    #[test]
    fn closed_buffer_returns_closed() {
        let ev = EventBuffer::new();
        ev.close();
        assert_eq!(ev.wait_until(|| false), WaitOutcome::Closed);
        ev.reopen();
        assert_eq!(ev.wait_until(|| true), WaitOutcome::Ready);
    }

    #[test]
    fn timed_wait_reports_timeout() {
        let ev = EventBuffer::new();
        let t0 = std::time::Instant::now();
        let out = ev.wait_until_timeout(|| false, Duration::from_millis(30));
        assert_eq!(out, WaitOutcome::TimedOut);
        assert!(t0.elapsed() >= Duration::from_millis(25));
        assert_eq!(ev.sleeper_count(), 0, "deregistered after timeout");
    }

    #[test]
    fn timed_wait_wakes_on_signal() {
        let ev = Arc::new(EventBuffer::new());
        let flag = Arc::new(AtomicU64::new(0));
        let (ev2, flag2) = (Arc::clone(&ev), Arc::clone(&flag));
        let h = std::thread::spawn(move || {
            ev2.wait_until_timeout(|| flag2.load(Ordering::SeqCst) > 0, Duration::from_secs(10))
        });
        std::thread::sleep(Duration::from_millis(20));
        flag.store(1, Ordering::SeqCst);
        ev.signal();
        let out = h.join().unwrap();
        assert_ne!(out, WaitOutcome::TimedOut);
    }

    #[test]
    fn signal_with_no_sleepers_is_cheap_and_harmless() {
        let ev = EventBuffer::new();
        for _ in 0..1000 {
            ev.signal();
        }
        assert_eq!(ev.sleeper_count(), 0);
    }

    /// The fundamental handoff: one producer item, one sleeping consumer,
    /// arbitrary ticket alignment. Exercises the forward-sweep liveness fix.
    #[test]
    fn single_producer_single_consumer_handoff() {
        for skew in 0..5u64 {
            let ev = Arc::new(EventBuffer::with_slots(8));
            // Skew the wake counter so the producer's ticket lands on a
            // different slot than the consumer's.
            for _ in 0..skew {
                ev.signal();
            }
            let items = Arc::new(AtomicU64::new(0));
            let ev2 = Arc::clone(&ev);
            let items2 = Arc::clone(&items);
            let consumer = std::thread::spawn(move || loop {
                if items2
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                    .is_ok()
                {
                    return;
                }
                ev2.wait_until(|| items2.load(Ordering::SeqCst) > 0);
            });
            std::thread::sleep(Duration::from_millis(10));
            items.fetch_add(1, Ordering::SeqCst);
            ev.signal();
            consumer.join().unwrap();
        }
    }

    /// Also run with one slot: maximal contention on the single futex
    /// word.
    #[test]
    fn many_consumers_all_drain_and_exit_on_close() {
        for slots in [4, 1] {
            many_consumers_drain_and_exit(slots);
        }
    }

    fn many_consumers_drain_and_exit(slots: usize) {
        const CONSUMERS: usize = 8;
        const ITEMS: u64 = 10_000;
        let ev = Arc::new(EventBuffer::with_slots(slots));
        let items = Arc::new(AtomicU64::new(0));
        let taken = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..CONSUMERS {
            let ev = Arc::clone(&ev);
            let items = Arc::clone(&items);
            let taken = Arc::clone(&taken);
            handles.push(std::thread::spawn(move || loop {
                if items
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                    .is_ok()
                {
                    taken.fetch_add(1, Ordering::SeqCst);
                    continue;
                }
                match ev.wait_until(|| items.load(Ordering::SeqCst) > 0) {
                    WaitOutcome::Closed => return,
                    WaitOutcome::Ready | WaitOutcome::Woken | WaitOutcome::TimedOut => {}
                }
            }));
        }
        for _ in 0..ITEMS {
            items.fetch_add(1, Ordering::SeqCst);
            ev.signal();
        }
        // Wait until everything is consumed, then close.
        while taken.load(Ordering::SeqCst) < ITEMS {
            std::thread::yield_now();
        }
        ev.close();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(taken.load(Ordering::SeqCst), ITEMS);
        assert_eq!(ev.sleeper_count(), 0);
    }

    /// Producers and consumers racing: no element may be stranded while a
    /// consumer sleeps forever (the lost-wakeup test).
    #[test]
    fn no_lost_wakeups_under_race() {
        const ROUNDS: u64 = 2_000;
        let ev = Arc::new(EventBuffer::with_slots(2));
        let items = Arc::new(AtomicU64::new(0));
        let ev_c = Arc::clone(&ev);
        let items_c = Arc::clone(&items);
        let consumer = std::thread::spawn(move || {
            let mut got = 0u64;
            while got < ROUNDS {
                if items_c
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                    .is_ok()
                {
                    got += 1;
                    continue;
                }
                ev_c.wait_until(|| items_c.load(Ordering::SeqCst) > 0);
            }
            got
        });
        for _ in 0..ROUNDS {
            items.fetch_add(1, Ordering::SeqCst);
            ev.signal();
            if fastrand_bit() {
                std::thread::yield_now();
            }
        }
        assert_eq!(consumer.join().unwrap(), ROUNDS);
    }

    fn fastrand_bit() -> bool {
        use std::cell::Cell;
        thread_local! {
            static S: Cell<u64> = const { Cell::new(0x243F_6A88_85A3_08D3) };
        }
        S.with(|s| {
            let mut x = s.get();
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            s.set(x);
            x & 1 == 0
        })
    }

    #[test]
    fn sweep_finds_waiter_on_distant_slot() {
        // A `futex.spurious-wake` armed concurrently by another test lets
        // the waiter return before it is ever seen parked.
        #[cfg(feature = "fault-inject")]
        let _x = fault::exclusive();
        // Directly exercise wake_one_from: a waiter parks on some slot; a
        // signal starting from every other slot must still find it.
        let ev = Arc::new(EventBuffer::with_slots(8));
        let woken = Arc::new(AtomicUsize::new(0));
        let ev2 = Arc::clone(&ev);
        let woken2 = Arc::clone(&woken);
        let h = std::thread::spawn(move || {
            let out = ev2.wait_until(|| false);
            assert_ne!(out, WaitOutcome::Ready);
            woken2.store(1, Ordering::SeqCst);
        });
        while ev.sleeper_count() == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(10));
        ev.signal();
        h.join().unwrap();
        assert_eq!(woken.load(Ordering::SeqCst), 1);
    }

    /// Regression for the `producer_liveness_under_wake_lost` hang: a
    /// deterministic replay of the captured bad state. Early-exiting
    /// waiters (Ready and TimedOut returns) pass through slots 0–2; a real
    /// waiter then parks on slot 3; exactly ONE signal is sent with a wake
    /// ticket landing on slot 0, so the sweep crosses the residue slots
    /// first. Under the original shared-waiter-bit protocol the early
    /// exits left ghost bits behind and the signal was spent clearing the
    /// slot-0 ghost (waking nobody) — the memory dump of the hung chaos
    /// run showed exactly that shape: residue slots one epoch ahead, the
    /// parked slot's bit still set. With per-registrant waiter counts the
    /// residue slots read zero and the sweep must reach the parked waiter.
    #[test]
    fn early_exit_residue_cannot_eat_a_scarce_signal() {
        // A `futex.spurious-wake` armed concurrently by another test lets
        // the waiter return before it is ever seen parked.
        #[cfg(feature = "fault-inject")]
        let _x = fault::exclusive();
        let ev = Arc::new(EventBuffer::with_slots(8));
        // Sleep tickets 0 and 1 → slots 0 and 1: Ready exits (predicate
        // true at the post-registration re-check).
        assert_eq!(ev.wait_until(|| true), WaitOutcome::Ready);
        assert_eq!(ev.wait_until(|| true), WaitOutcome::Ready);
        // Sleep ticket 2 → slot 2: a timed-out park.
        assert_eq!(
            ev.wait_until_timeout(|| false, Duration::from_millis(1)),
            WaitOutcome::TimedOut
        );
        // Sleep ticket 3 → slot 3: a genuine waiter, parked for real.
        let flag = Arc::new(AtomicU64::new(0));
        let (ev2, flag2) = (Arc::clone(&ev), Arc::clone(&flag));
        let h = std::thread::spawn(move || ev2.wait_until(|| flag2.load(Ordering::SeqCst) > 0));
        while ev.sleeper_count() == 0 {
            std::thread::yield_now();
        }
        // Get it past the bounded spin and into the futex.
        std::thread::sleep(Duration::from_millis(20));
        // Publish, then exactly one signal. Wake ticket 0 starts the sweep
        // at slot 0, crossing every residue slot before the parked one —
        // the scarce-signal shape of the producer-backpressure path.
        flag.store(1, Ordering::SeqCst);
        ev.signal();
        // Join with a deadline: on a lost wake, unstick the thread so the
        // test fails instead of hanging the suite.
        let t0 = std::time::Instant::now();
        while !h.is_finished() {
            if t0.elapsed() > Duration::from_secs(10) {
                ev.close();
                let _ = h.join();
                panic!("single signal never reached the parked waiter (ghost residue ate it)");
            }
            std::thread::yield_now();
        }
        let out = h.join().unwrap();
        assert!(
            matches!(out, WaitOutcome::Woken | WaitOutcome::Ready),
            "unexpected outcome {out:?}"
        );
        assert_eq!(ev.sleeper_count(), 0);
    }

    /// close() must wake threads at *every* stage of wait_until —
    /// registering, spinning, or parked — and reopen() must leave the
    /// buffer fully usable by the same threads. Cycles the close/reopen
    /// race against a pack of sleepers that re-enter as fast as they can.
    #[test]
    fn close_reopen_races_with_sleepers() {
        const SLEEPERS: usize = 4;
        const CYCLES: usize = 100;
        let ev = Arc::new(EventBuffer::with_slots(2));
        let stop = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..SLEEPERS {
            let ev = Arc::clone(&ev);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                while stop.load(Ordering::SeqCst) == 0 {
                    // Any outcome is legal (a fast close/reopen pair can
                    // surface as Woken, or as Ready via the predicate);
                    // what close() owes us is a prompt return — re-enter
                    // immediately to race the reopen.
                    ev.wait_until(|| stop.load(Ordering::SeqCst) > 0);
                }
            }));
        }
        for _ in 0..CYCLES {
            // Let at least one thread get past registration sometimes, but
            // deliberately do not wait every cycle — close() must also be
            // correct against threads mid-registration.
            if ev.sleeper_count() == 0 {
                std::thread::yield_now();
            }
            ev.close();
            ev.reopen();
        }
        stop.store(1, Ordering::SeqCst);
        ev.close();
        for h in handles {
            // If a sleeper missed a close-wake it hangs here and the test
            // times out — that IS the failure mode under test.
            h.join().unwrap();
        }
        assert_eq!(ev.sleeper_count(), 0);
        ev.reopen();
        assert_eq!(
            ev.wait_until(|| true),
            WaitOutcome::Ready,
            "usable after final reopen"
        );
    }

    /// Injected spurious wakeups must never be mistaken for timeouts, and
    /// a producer/consumer handoff must still complete when *every* park
    /// returns immediately (wait_until degrades to polling, not to hanging
    /// or to dropping items).
    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_spurious_wakeups_do_not_break_handoff() {
        let _x = fault::exclusive();
        fault::set_seed(7);
        fault::configure(
            "futex.spurious-wake",
            fault::Policy::new(fault::Trigger::Always),
        );

        // 1. A spuriously-woken timed wait reports Woken, not TimedOut.
        let ev = EventBuffer::with_slots(2);
        let out = ev.wait_until_timeout(|| false, Duration::from_secs(10));
        assert_eq!(out, WaitOutcome::Woken);
        assert_eq!(ev.sleeper_count(), 0);

        // 2. Handoff completes even though no real futex sleep ever happens.
        let ev = Arc::new(EventBuffer::with_slots(2));
        let items = Arc::new(AtomicU64::new(0));
        let (ev2, items2) = (Arc::clone(&ev), Arc::clone(&items));
        let consumer = std::thread::spawn(move || {
            let mut got = 0u64;
            while got < 200 {
                if items2
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                    .is_ok()
                {
                    got += 1;
                    continue;
                }
                ev2.wait_until(|| items2.load(Ordering::SeqCst) > 0);
            }
            got
        });
        for _ in 0..200 {
            items.fetch_add(1, Ordering::SeqCst);
            ev.signal();
        }
        assert_eq!(consumer.join().unwrap(), 200);
        assert!(fault::hit_count("futex.spurious-wake") > 0);
        fault::reset();
    }

    /// The pre-park delay window: close() fires entirely between a
    /// sleeper's last checks and its park. The epoch bump in the futex
    /// word is what keeps the delayed park from sleeping forever.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_pre_park_delay_cannot_lose_close() {
        let _x = fault::exclusive();
        fault::set_seed(13);
        fault::configure(
            "event.pre-park-delay",
            fault::Policy::new(fault::Trigger::Always).with_action(fault::Action::SleepMs(40)),
        );
        let ev = Arc::new(EventBuffer::with_slots(1));
        let ev2 = Arc::clone(&ev);
        let h = std::thread::spawn(move || ev2.wait_until(|| false));
        // Land the close inside the 40ms delay window.
        std::thread::sleep(Duration::from_millis(15));
        ev.close();
        let out = h.join().unwrap();
        assert_eq!(out, WaitOutcome::Closed);
        fault::reset();
    }
}
