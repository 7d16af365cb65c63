//! Low-overhead observability substrate for the ZMSQ reproduction.
//!
//! The paper's key claims are quantitative internals — "only 3% of
//! extractMax() calls access the root", the dynamic-set full-ratio
//! profiling of §4.2 — and tuning relaxation parameters requires
//! measuring quality and throughput *together, over time*. This crate
//! is the shared measurement layer, with zero external dependencies so
//! every other crate in the workspace can depend on it:
//!
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — always-on metrics with
//!   `Relaxed` hot-path recording. Counters are striped across cache
//!   lines (a global round-robin stripe is assigned per thread on first
//!   use); histograms are log-linear (HDR-style) with constant memory.
//! * [`Registry`] — named dynamic metrics for harnesses, plus a
//!   process-global instance ([`global`]).
//! * [`Snapshot`] — a point-in-time copy of any set of metrics that
//!   serializes to JSON ([`Snapshot::to_json`]) and pretty text
//!   ([`Snapshot::pretty`]); this is what benches write to
//!   `results/*.metrics.json` and what
//!   `ConcurrentPriorityQueue::metrics` returns.
//! * [`recorder`] — the flight recorder: per-thread lock-free ring
//!   buffers of fixed-size trace events, merged time-ordered by
//!   [`recorder::dump`]. Call sites use [`trace_event!`], which expands
//!   to **nothing** unless the `obs-trace` feature is enabled
//!   (mirroring `fault::fail_point!`); counters stay always-on.
//! * [`sampler`] — a background thread that periodically probes
//!   caller-supplied gauges (queue depth, pool fill, rank error) into a
//!   time [`Series`].
//! * [`watchdog`] — a background thread that watches progress counters
//!   paired with busy predicates, flags subsystems that stop moving
//!   while claiming to be busy (stalled shard, wedged producer, stuck
//!   reclamation), and dumps the flight recorder on a sustained stall.
//! * [`export`] — live introspection: a Prometheus text renderer for
//!   [`Snapshot`] and a tiny zero-dependency HTTP/1.0 endpoint
//!   ([`serve`]) exposing `/metrics`, `/snapshot.json` and `/healthz`
//!   while a process is running.
//! * [`retain`] — fixed-memory multi-tier time-series retention rings
//!   (2s/1m/1h by default) fed by [`Sampler::start_retained`], so a
//!   scrape sees downsampled history rather than a single point.
//! * [`sojourn`] — the one sampled `(key, stamp)` table per queue
//!   ([`SojournTracker`]): keys placed by a linear probe from a hashed
//!   home slot, dropped only when the table is full, and the
//!   enqueue→extract sojourn-time histogram.
//! * [`quality`] — [`RankEstimator`], that table plus a rank count
//!   over it on sampled extractions: the rank-error complement to
//!   sojourn, exported with it under `quality.*`, `queue.sojourn_ns`
//!   and `sojourn.*`.
//!
//! Overhead budget: with default features a counter increment is one
//! relaxed `fetch_add` on a thread-private cache line and a histogram
//! record is two; trace call sites compile out entirely. See the
//! `obs_overhead` bench binary for the measured numbers.

#![warn(missing_docs)]

pub mod export;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod quality;
pub mod recorder;
pub mod retain;
pub mod sampler;
pub mod snapshot;
pub mod sojourn;
pub mod span;
pub mod trace;
pub mod watchdog;

pub use export::{render_prometheus, serve, MetricsServer};
pub use hist::{HistSnapshot, Histogram};
pub use metrics::{global, Counter, Gauge, Registry, STRIPES};
pub use quality::RankEstimator;
pub use recorder::EventKind;
pub use retain::Retention;
pub use sampler::{Sampler, Series};
pub use snapshot::Snapshot;
pub use sojourn::SojournTracker;
pub use span::{SpanGuard, SpanPhase};
pub use watchdog::{Watchdog, WatchdogBuilder};

/// Whether flight-recorder call sites are compiled in.
///
/// Lets integration points guard non-macro work (e.g. dumping the
/// recorder from a panic-recovery path) with a const the optimizer
/// folds away:
///
/// ```
/// if obs::TRACE_ENABLED {
///     let _ = obs::recorder::dump();
/// }
/// ```
#[cfg(feature = "obs-trace")]
pub const TRACE_ENABLED: bool = true;
/// Whether flight-recorder call sites are compiled in.
#[cfg(not(feature = "obs-trace"))]
pub const TRACE_ENABLED: bool = false;

/// Record a flight-recorder event. Compiles to nothing (arguments
/// unevaluated) without the `obs-trace` feature.
///
/// Forms: `trace_event!(kind)`, `trace_event!(kind, a)`,
/// `trace_event!(kind, a, b)` where `a: u32` carries a small payload
/// (node level, woken count, …) and `b: u64` a large one (priority,
/// scanned hazards, …).
#[cfg(feature = "obs-trace")]
#[macro_export]
macro_rules! trace_event {
    ($kind:expr) => {
        $crate::recorder::record($kind, 0, 0)
    };
    ($kind:expr, $a:expr) => {
        $crate::recorder::record($kind, $a, 0)
    };
    ($kind:expr, $a:expr, $b:expr) => {
        $crate::recorder::record($kind, $a, $b)
    };
}

/// Record a flight-recorder event. Compiles to nothing (arguments
/// unevaluated) without the `obs-trace` feature.
#[cfg(not(feature = "obs-trace"))]
#[macro_export]
macro_rules! trace_event {
    ($kind:expr) => {};
    ($kind:expr, $a:expr) => {};
    ($kind:expr, $a:expr, $b:expr) => {};
}

/// Open a phase span scope: evaluates to a [`span::SpanGuard`] that
/// records a begin event now and an end event when dropped. Bind it to
/// a named local (`let _span = obs::span!(...)`) so it lives to the end
/// of the scope — a bare `_` drops immediately.
///
/// Without the `obs-trace` feature this evaluates to a zero-sized
/// no-op guard and the phase argument is never evaluated.
#[cfg(feature = "obs-trace")]
#[macro_export]
macro_rules! span {
    ($phase:expr) => {
        $crate::span::SpanGuard::enter($phase)
    };
}

/// Open a phase span scope (compiled out: zero-sized no-op guard, phase
/// argument unevaluated).
#[cfg(not(feature = "obs-trace"))]
#[macro_export]
macro_rules! span {
    ($phase:expr) => {
        $crate::span::SpanGuard::noop()
    };
}
