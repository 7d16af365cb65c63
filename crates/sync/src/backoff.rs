//! Bounded exponential backoff for optimistic retry loops.
//!
//! The ZMSQ insertion path is built around an optimistic
//! read-before-lock pattern (§4.1): when a validation fails the operation
//! restarts, usually choosing a different random path through the tree.
//! Restarting immediately under contention wastes cache-coherence
//! bandwidth; this backoff spins briefly and doubles the spin budget up to
//! a cap, then optionally yields to the OS scheduler.

use std::hint;

/// Exponential backoff with a spin cap, after which it yields the thread.
///
/// Unlike `crossbeam_utils::Backoff` this exposes the step counter, which
/// the queue's statistics use to record contention, and its parameters are
/// tunable for the lock benchmarks.
#[derive(Debug)]
pub struct Backoff {
    step: u32,
    spin_limit: u32,
    yield_limit: u32,
}

impl Backoff {
    /// Default cap: spin up to `2^6` iterations per step, yield after 10 steps.
    pub const DEFAULT_SPIN_LIMIT: u32 = 6;
    /// Default number of steps before each wait starts yielding to the OS.
    pub const DEFAULT_YIELD_LIMIT: u32 = 10;

    /// A backoff with the default limits.
    #[inline]
    pub fn new() -> Self {
        Self::with_limits(Self::DEFAULT_SPIN_LIMIT, Self::DEFAULT_YIELD_LIMIT)
    }

    /// A backoff with custom spin/yield limits (used by the lock benches).
    #[inline]
    pub fn with_limits(spin_limit: u32, yield_limit: u32) -> Self {
        Self {
            step: 0,
            spin_limit,
            yield_limit,
        }
    }

    /// Number of times [`Backoff::wait`] has been called since creation or
    /// the last [`Backoff::reset`].
    #[inline]
    pub fn steps(&self) -> u32 {
        self.step
    }

    /// Reset to the initial (shortest) wait.
    #[inline]
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// True once the spin budget is exhausted and waits have started
    /// yielding to the scheduler — the caller may prefer to block instead.
    #[inline]
    pub fn is_yielding(&self) -> bool {
        self.step > self.yield_limit
    }

    /// Wait once: spin `2^min(step, spin_limit)` times, yielding to the OS
    /// once the yield limit is passed, then increment the step.
    #[inline]
    pub fn wait(&mut self) {
        det::det_point!("sync.backoff");
        if self.step <= self.yield_limit {
            let spins = 1u32 << self.step.min(self.spin_limit);
            for _ in 0..spins {
                hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
        self.step = self.step.saturating_add(1);
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_advance_and_reset() {
        let mut b = Backoff::new();
        assert_eq!(b.steps(), 0);
        assert!(!b.is_yielding());
        for _ in 0..5 {
            b.wait();
        }
        assert_eq!(b.steps(), 5);
        b.reset();
        assert_eq!(b.steps(), 0);
    }

    #[test]
    fn yields_after_limit() {
        let mut b = Backoff::with_limits(2, 3);
        for _ in 0..4 {
            b.wait();
        }
        assert!(b.is_yielding());
        // Must still be callable (OS yield path).
        b.wait();
        assert_eq!(b.steps(), 5);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let mut b = Backoff::with_limits(1, 1);
        b.step = u32::MAX - 1;
        b.wait();
        b.wait();
        assert_eq!(b.steps(), u32::MAX);
    }
}
