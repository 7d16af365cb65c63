//! Concurrency substrate for the ZMSQ reproduction.
//!
//! This crate packages the low-level synchronization building blocks the
//! paper relies on, independent of the queue itself, so they can be tested
//! and benchmarked in isolation:
//!
//! * [`trylock`] — the three lock implementations compared in Figure 2
//!   (an OS-parking mutex, a test-and-set trylock and a
//!   test-and-test-and-set trylock) behind a single [`RawTryLock`] trait.
//! * [`futex`] — a thin wrapper over the Linux `futex(2)` syscall with a
//!   portable mutex/condvar fallback for other platforms.
//! * [`event`] — the circular buffer of cache-padded futexes from
//!   Listing 3, used to block idle consumers (§3.6).
//! * [`producer`] — the mirror image for bounded queues: producers that
//!   find the queue full park on a [`ProducerWait`], woken by
//!   extractions and by close.
//! * [`backoff`] — bounded exponential backoff for optimistic retry loops.
//! * [`pad`] — cache-line padding to stop false sharing between hot atomics.
//! * [`site`] — per-site lock-wait attribution: named [`site::SiteId`]
//!   scopes charge contended-acquisition and futex-park time to the
//!   subsystem that paid it (`sync.wait_ns{site=…}`).
//! * [`slotvec`] — an append-only concurrent slot vector with stable
//!   references, the registry behind every thread-local-component queue
//!   (k-LSM locals, sticky/buffered operation buffers).
//! * [`relax`] — stickiness and per-thread operation buffers, the
//!   relaxation layer shared by `ShardedZmsq` and the MultiQueue
//!   baseline, generic over a queue's [`relax::Shards`].
//!
//! With `--features fault-inject` the substrate compiles in named
//! failpoints (`trylock.spurious-fail`, `futex.spurious-wake`,
//! `event.pre-park-delay`, `producer.wake-lost`) that chaos tests arm
//! through the `fault` crate; without the feature they expand to nothing.
//!
//! Always-on counters (futex waits/wakes, event parks and spurious
//! wakeups, trylock contention) are exported by [`obs::snapshot`]; with
//! `obs/obs-trace` the same sites also emit flight-recorder events.
//!
//! [`RawTryLock`]: trylock::RawTryLock

#![warn(missing_docs)]

pub mod backoff;
pub mod event;
pub mod futex;
pub mod obs;
pub mod pad;
pub mod producer;
pub mod relax;
pub mod site;
pub mod slotvec;
pub mod trylock;

pub use backoff::Backoff;
pub use event::{EventBuffer, WaitOutcome};
pub use futex::{futex_wait, futex_wait_timeout, futex_wake, futex_wake_all};
pub use pad::CachePadded;
pub use producer::ProducerWait;
pub use site::{SiteId, SiteScope};
pub use slotvec::{thread_tag, SlotVec};
pub use trylock::{LockGuard, OsLock, RawTryLock, TasLock, TatasLock};
