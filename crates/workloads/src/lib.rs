//! Workload drivers and measurement harnesses for the evaluation (§4).
//!
//! Each submodule corresponds to a family of experiments:
//!
//! * [`keys`] — the key distributions the paper draws from: uniform
//!   n-bit keys (7-bit / 20-bit in §4.5.1) and the normal distribution
//!   used for the lock study (§4.1).
//! * [`mixed`] — mixed insert / extract throughput runs (Figs. 2, 3, 5).
//! * [`prodcons`] — dedicated producer / consumer threads with handoff
//!   latency and CPU-time measurement (Figs. 4, 6).
//! * [`accuracy`] — rank-quality measurement (Table 1).
//! * [`cpu`] — process CPU-time sampling via `getrusage` (Fig. 4b).
//! * [`oracle`] — quiescent-consistency and rank-error oracles shared by
//!   the deterministic schedule suite and the stress tests.
//! * [`quality`] — seeded estimator-vs-oracle harness validating the
//!   queue's sampled `obs::RankEstimator` against the exact
//!   [`oracle::RankOracle`].

#![warn(missing_docs)]

pub mod accuracy;
pub mod cpu;
pub mod keys;
pub mod mixed;
pub mod oracle;
pub mod prodcons;
pub mod quality;
