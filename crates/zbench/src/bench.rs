//! What every workload provides, and what one measured phase returns.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::alloc;
use crate::trace::Tracer;

/// Sizes of one run. [`Scale::full`] is the benchmark; [`Scale::smoke`]
/// runs every code path at toy sizes for the tests.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Elements prefilled into the closed-loop queues (and used by the
    /// bytes-per-element probe of every workload).
    pub prefill: usize,
    /// SSSP graph size and Barabási–Albert attachment.
    pub graph_nodes: usize,
    pub graph_attach: usize,
    /// Distinct SSSP sources; solves cycle through them.
    pub sources: usize,
    /// Pairs per thread in a closed-loop quality round.
    pub quality_pairs: u64,
    /// Solves in an SSSP quality round.
    pub quality_solves: usize,
    /// Length of a jobs quality round.
    pub quality_time: Duration,
    /// Discarded warm-up before the measured phase.
    pub warmup: Duration,
    /// Set-ups per run, at least; `setup_s` is their median.
    pub setup_reps: usize,
    /// Set-ups continue until they have taken this long (or 15 were
    /// made), so quick set-ups get a median of many.
    pub setup_time: Duration,
    /// Length of each telemetry-on / telemetry-off phase of the traced run.
    pub obs_phase: Duration,
    /// Repetitions of each set micro-benchmark.
    pub micro_reps: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Scale {
            prefill: 1 << 14,
            graph_nodes: 10_000,
            graph_attach: 12,
            sources: 16,
            quality_pairs: 200_000,
            quality_solves: 8,
            quality_time: Duration::from_millis(1000),
            warmup: Duration::from_millis(500),
            setup_reps: 3,
            setup_time: Duration::from_secs(1),
            obs_phase: Duration::from_millis(500),
            micro_reps: 2_000,
        }
    }

    /// Toy sizes that exercise every path in well under a second.
    pub fn smoke() -> Self {
        Scale {
            prefill: 1 << 10,
            graph_nodes: 1_500,
            graph_attach: 4,
            sources: 2,
            quality_pairs: 500,
            quality_solves: 1,
            quality_time: Duration::from_millis(20),
            warmup: Duration::from_millis(10),
            setup_reps: 1,
            setup_time: Duration::ZERO,
            obs_phase: Duration::from_millis(10),
            micro_reps: 20,
        }
    }
}

/// Outcome of the output checks of a phase or a drain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Check {
    /// Operations and results checked.
    pub attempted: u64,
    /// Of those, how many were wrong.
    pub failed: u64,
}

impl Check {
    /// Both counts summed.
    pub fn plus(self, o: Check) -> Check {
        Check {
            attempted: self.attempted + o.attempted,
            failed: self.failed + o.failed,
        }
    }
}

/// One measured phase.
#[derive(Default)]
pub struct Phase {
    /// Requests completed: closed-loop pairs, SSSP solves, or jobs.
    pub requests: u64,
    /// Queue calls made (inserts plus extraction attempts).
    pub queue_ops: u64,
    /// Requests per second in each round of the phase.
    pub round_rates: Vec<f64>,
    /// Request latencies in ns (sampled for closed loops).
    pub latency_ns: Vec<u64>,
    /// CPU time of the threads that serve requests.
    pub cpu_ns: u64,
    /// Output checks made during the phase.
    pub check: Check,
    /// Allocator activity of the worker threads (counted only when on).
    pub alloc: alloc::Counts,
    /// Layer counter deltas over the phase.
    pub counters: Counters,
    /// One tracer per worker thread (recording only in a traced phase).
    pub tracers: Vec<Tracer>,
    /// Rank errors, filled only by quality rounds.
    pub ranks: Vec<u32>,
    /// SSSP: pops that found their node already improved, and all pops.
    pub wasted: u64,
    pub pops: u64,
    /// Jobs: premium-class latencies and generator lateness, in ns.
    pub premium_ns: Vec<u64>,
    pub lag_ns: Vec<u64>,
}

impl Phase {
    /// Worker CPU per request, in ns.
    pub fn cpu_per_request(&self) -> f64 {
        self.cpu_ns as f64 / self.requests.max(1) as f64
    }

    /// Fold a later phase of the same kind into this one.
    pub fn absorb(&mut self, o: Phase) {
        self.requests += o.requests;
        self.queue_ops += o.queue_ops;
        self.round_rates.extend(o.round_rates);
        self.latency_ns.extend(o.latency_ns);
        self.cpu_ns += o.cpu_ns;
        self.check = self.check.plus(o.check);
        self.alloc = self.alloc.plus(o.alloc);
        self.counters.absorb(&o.counters);
        self.tracers.extend(o.tracers);
        self.ranks.extend(o.ranks);
        self.wasted += o.wasted;
        self.pops += o.pops;
        self.premium_ns.extend(o.premium_ns);
        self.lag_ns.extend(o.lag_ns);
    }
}

/// A workload: its inputs, its queue and its measured loop.
pub trait Bench {
    /// Build the inputs from the seed and a fresh queue. This is the work
    /// `setup_s` times.
    fn setup(&mut self);
    /// Counts and hashes that identify the generated inputs.
    fn fingerprint(&self) -> Vec<(&'static str, u64)>;
    /// Rank-error round with the exact shadow on. Must directly follow
    /// [`setup`](Self::setup) or [`rebuild`](Self::rebuild), so the shadow
    /// can be built from the known queue contents.
    fn quality(&mut self) -> Phase;
    /// Run the workload for about `dur`, tracing if `trace`.
    fn measure(&mut self, dur: Duration, trace: bool) -> Phase;
    /// Check the current queue's contents against everything put in and
    /// taken out (draining it where that is the check).
    fn verify(&mut self) -> Check;
    /// Replace the queue with a fresh one, with or without the queue's own
    /// rank and sojourn telemetry.
    fn rebuild(&mut self, telemetry: bool);
    /// Live bytes per element of a fresh queue of this workload's kind
    /// filled with `n` of its keys, counted by the allocator.
    fn bytes_per_elem(&self, n: usize) -> f64;
}

/// A point-in-time copy of every counter the layers export: the queue's
/// `metrics()`, `zmsq_sync::obs` and `smr::obs`.
#[derive(Clone, Debug, Default)]
pub struct Counters(BTreeMap<String, u64>);

impl Counters {
    /// Snapshot now, including `queue` if given.
    pub fn take(queue: Option<obs::Snapshot>) -> Self {
        let mut m = BTreeMap::new();
        let snaps = [
            queue,
            Some(zmsq_sync::obs::snapshot()),
            Some(smr::obs::snapshot()),
        ];
        for s in snaps.into_iter().flatten() {
            for (name, v) in s.counters {
                *m.entry(name).or_default() += v;
            }
        }
        Counters(m)
    }

    /// Counter deltas from `before` to `self`.
    pub fn since(&self, before: &Counters) -> Counters {
        let m = self
            .0
            .iter()
            .map(|(k, &v)| {
                let b = before.0.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(b))
            })
            .collect();
        Counters(m)
    }

    /// Add another set of deltas.
    pub fn absorb(&mut self, o: &Counters) {
        for (k, &v) in &o.0 {
            *self.0.entry(k.clone()).or_default() += v;
        }
    }

    /// A counter's value (0 if no layer exports it).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0) as f64
    }
}

/// Running count, sum and hash of values, for conservation checks: what
/// went into a queue must come out, each value once.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    count: u64,
    sum: u64,
    hash: u64,
}

impl Tally {
    /// Record one value.
    #[inline]
    pub fn add(&mut self, v: u64) {
        let mut s = v;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.hash = self.hash.wrapping_add(fault::rng::splitmix64(&mut s));
    }

    /// Fold another tally in.
    pub fn merge(&mut self, o: Tally) {
        self.count += o.count;
        self.sum = self.sum.wrapping_add(o.sum);
        self.hash = self.hash.wrapping_add(o.hash);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// One number standing for the whole tally (for input fingerprints).
    pub fn digest(&self) -> u64 {
        let mut s = self.hash ^ self.sum.rotate_left(21) ^ self.count.rotate_left(42);
        fault::rng::splitmix64(&mut s)
    }
}

/// `a / b * scale`, or 0 when nothing happened.
pub fn per(a: f64, b: f64, scale: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b * scale
    }
}

/// Spin until `deadline`.
#[inline]
pub fn spin_until(deadline: std::time::Instant) {
    while std::time::Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_detects_loss_and_duplication() {
        let mut ins = Tally::default();
        for v in 0..100 {
            ins.add(v);
        }
        let mut out = Tally::default();
        for v in (0..100).rev() {
            out.add(v);
        }
        assert_eq!(ins, out, "order does not matter");
        let mut dup = Tally::default();
        for v in (0..99).chain([98]) {
            dup.add(v);
        }
        assert_ne!(ins, dup, "a lost value replaced by a duplicate is caught");
    }
}
