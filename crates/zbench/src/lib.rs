//! `zbench`: the repository's one benchmark.
//!
//! One seeded command measures ZMSQ end to end on five workloads, and a
//! separate traced run splits each workload's cost by layer. See
//! `README.md` beside this crate for the workloads, the metrics and how
//! each bound in `BENCHMARK.json` was derived.
//!
//! Everything here is measured from outside the queue: spans are taken
//! around zbench's own calls into each layer's public functions, and
//! layer counters are read as deltas of the public `metrics()`,
//! `zmsq_sync::obs` and `smr::obs` snapshots.

pub mod alloc;
pub mod bench;
pub mod closed;
pub mod compare;
pub mod cpu;
pub mod jobs;
pub mod metrics;
pub mod micro;
pub mod run;
pub mod sssp;
pub mod stats;
pub mod trace;

/// Every allocation of a program linking zbench goes through the counter.
#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;
