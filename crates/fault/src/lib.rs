//! Deterministic fault injection ("chaos substrate") for the ZMSQ
//! reproduction, plus the workspace's seeded PRNG.
//!
//! # Failpoints
//!
//! Concurrency code threads **named failpoints** through its race
//! windows with [`fail_point!`]:
//!
//! ```
//! fn try_acquire(flag: &std::sync::atomic::AtomicBool) -> bool {
//!     // Chaos builds can force the spurious-failure path:
//!     fault::fail_point!("example.spurious-fail", return false);
//!     !flag.swap(true, std::sync::atomic::Ordering::Acquire)
//! }
//! # assert!(try_acquire(&std::sync::atomic::AtomicBool::new(false)));
//! ```
//!
//! Without `--features fault-inject` the macro expands to **nothing**:
//! no branch, no atomic load, no registry — production builds carry
//! zero overhead and the chaos schedule cannot perturb benchmarks.
//!
//! With the feature, tests arm points by name:
//!
//! ```ignore
//! let _x = fault::exclusive();            // serialize vs other chaos tests
//! fault::set_seed(42);                    // deterministic schedules
//! fault::configure("pool.refill-delay",
//!     fault::Policy::new(fault::Trigger::Prob(0.2))
//!         .with_action(fault::Action::SleepMs(1)));
//! // ... run the workload ...
//! fault::reset();
//! ```
//!
//! The registry is process-global. A test that cannot hold
//! `exclusive()` against every other test in its process — unit tests
//! that insert into a queue while a neighbour has armed a panic there —
//! scopes its arming with `Policy::on_this_thread()`, so evaluations on
//! other threads neither fire the point nor count as hits.
//!
//! The two macro forms:
//!
//! * `fail_point!("name")` — the effect is the armed `Action` alone
//!   (yield / sleep / panic at this program point).
//! * `fail_point!("name", expr)` — when the point fires, additionally
//!   evaluate `expr` in the caller's scope; `expr` may `return`,
//!   `continue` or `break` to force the surrounding control flow down
//!   the rare path (spurious failure, forced retry, simulated EINTR).
//!
//! # Determinism model
//!
//! One global seed (`set_seed`) is expanded into independent
//! per-thread xoshiro streams keyed by thread first-use order. Given
//! the same seed, policies, and thread schedule, every probabilistic
//! trigger fires identically run over run; `EveryNth`/`Once` triggers
//! are schedule-independent (global counters). Tests that want exact
//! replay therefore pin thread counts and use `EveryNth`/`Once`, or
//! accept per-thread (not cross-thread) determinism with `Prob`.

#![warn(missing_docs)]

pub mod rng;

pub use rng::{DetRng, Sample, SampleRange};

#[cfg(feature = "fault-inject")]
mod registry;

#[cfg(feature = "fault-inject")]
pub use registry::{
    configure, exclusive, fire, hit_count, remove, reset, set_seed, Action, Policy, Trigger,
};

/// Evaluate a named failpoint. See the crate docs for the two forms.
///
/// Compiles to nothing without the `fault-inject` feature.
#[cfg(feature = "fault-inject")]
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {
        let _ = $crate::fire($name);
    };
    ($name:expr, $body:expr) => {
        if $crate::fire($name) {
            $body
        }
    };
}

/// Evaluate a named failpoint. See the crate docs for the two forms.
///
/// Compiles to nothing without the `fault-inject` feature.
#[cfg(not(feature = "fault-inject"))]
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {};
    ($name:expr, $body:expr) => {};
}

#[cfg(test)]
mod tests {
    // The macro must be usable in both expression-statement positions.
    fn body_form_controls_flow(spurious: bool) -> u32 {
        if spurious {
            // Disabled builds: the macro vanishes and this is dead code
            // driven by the plain bool instead.
            #[cfg(feature = "fault-inject")]
            {
                crate::fail_point!("fault-test.flow", return 1);
            }
            #[cfg(not(feature = "fault-inject"))]
            {
                return 2;
            }
        }
        crate::fail_point!("fault-test.noop");
        0
    }

    #[test]
    fn macro_compiles_in_both_modes() {
        #[cfg(feature = "fault-inject")]
        {
            let _x = crate::exclusive();
            crate::set_seed(5);
            crate::configure(
                "fault-test.flow",
                crate::Policy::new(crate::Trigger::Always),
            );
            assert_eq!(body_form_controls_flow(true), 1);
            crate::reset();
            assert_eq!(body_form_controls_flow(true), 0);
        }
        #[cfg(not(feature = "fault-inject"))]
        {
            assert_eq!(body_form_controls_flow(true), 2);
        }
        assert_eq!(body_form_controls_flow(false), 0);
    }
}
