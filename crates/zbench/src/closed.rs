//! The closed-loop workloads, `mixed` and `sharded`: two threads, each
//! inserting and then extracting, against a queue prefilled far beyond
//! its root set.
//!
//! Keys follow the hold model: a thread's new key is the key it last
//! extracted minus a uniform 20-bit decrement, and the prefill is uniform
//! over one decrement range below the start. Fresh uniform keys would
//! not do: extract-max drains the top of the key range, so an ever larger
//! share of uniform inserts lands above everything left and throughput
//! drifts for the whole run (it fell from 461K to 297K pairs/s over one
//! 10 s run). Under the hold model the queue's contents keep their shape
//! relative to the front, so every round measures the same thing.
//!
//! One request is one insert followed by one extract by the same
//! thread. Each thread inserts before it extracts, so the queue never
//! holds fewer than the prefill: any `None` is an extraction that failed
//! on a nonempty queue.

use std::time::{Duration, Instant};

use fault::DetRng;
use pq_traits::ConcurrentPriorityQueue;

use crate::alloc;
use crate::bench::{Bench, Check, Counters, Phase, Scale, Tally};
use crate::cpu::thread_cpu_ns;
use crate::stats::RankShadow;
use crate::trace::{Tracer, APP, EXTRACT, INSERT, WORKER};

/// Worker threads (the benchmark host has two cores).
pub const THREADS: usize = 2;
/// A new key lies `1 ..= 2^DECREMENT_BITS` below the last extracted one.
pub const DECREMENT_BITS: u32 = 20;
const DECREMENT_MASK: u64 = (1 << DECREMENT_BITS) - 1;
/// Where keys start; the front descends a few units per request, so this
/// lasts for longer than any run.
const START: u64 = 1 << 62;
/// The rank shadow's window (`2^(SHADOW_BITS-1)`) must cover every live
/// key: one decrement range plus the relaxation lag.
const SHADOW_BITS: u32 = 22;
/// Every this-many-th request is timed.
const LATENCY_SAMPLE: u64 = 8;
/// Measured phases are cut into rounds of this length; throughput is the
/// median round.
const ROUND: Duration = Duration::from_millis(1000);

/// A closed-loop workload over queues built by `make(telemetry)`.
pub struct Closed<Q> {
    make: fn(bool) -> Q,
    seed: u64,
    scale: Scale,
    prefill: Vec<u64>,
    q: Option<Q>,
    /// Values inserted into and taken out of the current queue.
    ins: Tally,
    ext: Tally,
    /// Phases run so far; seeds each phase's key streams and tags values.
    phases: u64,
    /// Each thread's last extracted key, carried from phase to phase.
    fronts: [u64; THREADS],
}

impl<Q: ConcurrentPriorityQueue<u64>> Closed<Q> {
    /// A workload over queues from `make`, with inputs from `seed`.
    pub fn new(make: fn(bool) -> Q, seed: u64, scale: Scale) -> Self {
        Closed {
            make,
            seed,
            scale,
            prefill: Vec::new(),
            q: None,
            ins: Tally::default(),
            ext: Tally::default(),
            phases: 0,
            fronts: [START; THREADS],
        }
    }

    fn queue(&self) -> &Q {
        self.q.as_ref().expect("setup() builds the queue")
    }

    /// Key stream 0 is the prefill; phase `p` gives thread `t` stream
    /// `p << 8 | t + 1`.
    fn key_stream(&self, stream: u64) -> DetRng {
        let mut s = self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        DetRng::seed_from_u64(fault::rng::splitmix64(&mut s))
    }

    /// Run both threads until `dur` passes (if given) or each has done
    /// `max_pairs`.
    fn run(
        &mut self,
        dur: Option<Duration>,
        max_pairs: u64,
        shadow: Option<&RankShadow>,
        trace: bool,
    ) -> Phase {
        self.phases += 1;
        let (rounds, round_ns) = match dur {
            Some(d) => {
                let rounds = (d.as_secs_f64() / ROUND.as_secs_f64()).round().max(1.0) as usize;
                (rounds, d.as_nanos() as u64 / rounds as u64)
            }
            None => (1, u64::MAX / 2),
        };
        let epoch = Instant::now();
        let mut tracers: Vec<Tracer> = (0..THREADS).map(|_| Tracer::new(trace, epoch)).collect();
        let streams: Vec<DetRng> = (0..THREADS)
            .map(|t| self.key_stream(self.phases << 8 | (t as u64 + 1)))
            .collect();
        let base = self.phases << 44;
        let before = Counters::take(self.queue().metrics());
        let q = self.queue();
        let outs: Vec<WorkerOut> = std::thread::scope(|s| {
            let handles: Vec<_> = tracers
                .iter_mut()
                .zip(streams)
                .enumerate()
                .map(|(t, (tracer, keys))| {
                    let job = Loop {
                        q,
                        shadow,
                        keys,
                        front: self.fronts[t],
                        value_base: base | (t as u64) << 40,
                        start: epoch,
                        round_ns,
                        rounds,
                        max_pairs,
                    };
                    s.spawn(move || job.run(tracer))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("closed-loop worker panicked"))
                .collect()
        });
        let counters = Counters::take(self.queue().metrics()).since(&before);
        let mut p = Phase {
            round_rates: vec![0.0; rounds],
            counters,
            ..Phase::default()
        };
        for (t, o) in outs.into_iter().enumerate() {
            self.fronts[t] = o.front;
            self.ins.merge(o.ins);
            self.ext.merge(o.ext);
            p.requests += o.pairs;
            for (r, n) in p.round_rates.iter_mut().zip(&o.per_round) {
                *r += *n as f64 / (round_ns as f64 / 1e9);
            }
            p.latency_ns.extend(o.latency_ns);
            p.ranks.extend(o.ranks);
            p.cpu_ns += o.cpu_ns;
            p.alloc = p.alloc.plus(o.alloc);
            p.check.attempted += o.pairs;
            p.check.failed += o.failed;
        }
        p.queue_ops = 2 * p.requests;
        p.tracers = tracers;
        p
    }
}

impl<Q: ConcurrentPriorityQueue<u64>> Bench for Closed<Q> {
    fn setup(&mut self) {
        let mut rng = self.key_stream(0);
        self.prefill = (0..self.scale.prefill)
            .map(|_| START - 1 - (rng.next_u64() & DECREMENT_MASK))
            .collect();
        self.rebuild(true);
    }

    fn fingerprint(&self) -> Vec<(&'static str, u64)> {
        let mut h = Tally::default();
        for &k in &self.prefill {
            h.add(k);
        }
        for t in 0..THREADS {
            let mut keys = self.key_stream(1 << 8 | (t as u64 + 1));
            for _ in 0..4096 {
                h.add(keys.next_u64() & DECREMENT_MASK);
            }
        }
        vec![
            ("prefill", self.prefill.len() as u64),
            ("key_hash", h.digest()),
        ]
    }

    fn quality(&mut self) -> Phase {
        let shadow = RankShadow::new(SHADOW_BITS);
        for &k in &self.prefill {
            shadow.add(k);
        }
        self.run(None, self.scale.quality_pairs, Some(&shadow), false)
    }

    fn measure(&mut self, dur: Duration, trace: bool) -> Phase {
        self.run(Some(dur), u64::MAX, None, trace)
    }

    fn verify(&mut self) -> Check {
        let q = self.q.as_ref().expect("setup() builds the queue");
        q.flush();
        while let Some((_, v)) = q.extract_max() {
            self.ext.add(v);
        }
        let failed = (self.ins != self.ext) as u64;
        if failed > 0 {
            eprintln!(
                "conservation: {} values inserted, {} extracted, or different values",
                self.ins.count(),
                self.ext.count()
            );
        }
        Check {
            attempted: 1,
            failed,
        }
    }

    fn rebuild(&mut self, telemetry: bool) {
        self.q = None; // drop the old queue before building the next
        let q = (self.make)(telemetry);
        self.ins = Tally::default();
        self.ext = Tally::default();
        self.fronts = [START; THREADS];
        for (i, &k) in self.prefill.iter().enumerate() {
            q.insert(k, i as u64);
            self.ins.add(i as u64);
        }
        self.q = Some(q);
    }

    fn bytes_per_elem(&self, n: usize) -> f64 {
        let keys = &self.prefill[..n.min(self.prefill.len())];
        alloc::live_bytes_per(keys.len(), || {
            let q = (self.make)(true);
            for (i, &k) in keys.iter().enumerate() {
                q.insert(k, i as u64);
            }
            q
        })
    }
}

struct Loop<'a, Q> {
    q: &'a Q,
    shadow: Option<&'a RankShadow>,
    keys: DetRng,
    front: u64,
    value_base: u64,
    start: Instant,
    round_ns: u64,
    rounds: usize,
    max_pairs: u64,
}

#[derive(Default)]
struct WorkerOut {
    front: u64,
    pairs: u64,
    per_round: Vec<u64>,
    latency_ns: Vec<u64>,
    ranks: Vec<u32>,
    failed: u64,
    ins: Tally,
    ext: Tally,
    cpu_ns: u64,
    alloc: alloc::Counts,
}

impl<Q: ConcurrentPriorityQueue<u64>> Loop<'_, Q> {
    fn run(mut self, tr: &mut Tracer) -> WorkerOut {
        let end_ns = self.round_ns * self.rounds as u64;
        // Room for up to one request per microsecond, so the traced phase
        // does not count the sample buffers' growth as queue allocations.
        let expected = (end_ns / 1000 / LATENCY_SAMPLE).min(self.max_pairs / LATENCY_SAMPLE + 1);
        let mut o = WorkerOut {
            per_round: vec![0; self.rounds],
            latency_ns: Vec::with_capacity(expected.min(1 << 21) as usize),
            ranks: Vec::with_capacity(if self.shadow.is_some() {
                self.max_pairs as usize
            } else {
                0
            }),
            ..WorkerOut::default()
        };
        let (cpu0, alloc0) = (thread_cpu_ns(), alloc::thread_counts());
        let mut counted = 0u64;
        tr.enter(WORKER);
        tr.enter(APP);
        while o.pairs < self.max_pairs {
            let key = self.front - 1 - (self.keys.next_u64() & DECREMENT_MASK);
            let value = self.value_base | o.pairs;
            let timed = o.pairs.is_multiple_of(LATENCY_SAMPLE);
            tr.next_request();
            let t0 = timed.then(Instant::now);
            if let Some(s) = self.shadow {
                s.add(key);
            }
            tr.switch(INSERT);
            self.q.insert(key, value);
            tr.switch(EXTRACT);
            let got = self.q.extract_max();
            tr.switch(APP);
            o.ins.add(value);
            match got {
                Some((k, v)) => {
                    self.front = k;
                    o.ext.add(v);
                    if let Some(s) = self.shadow {
                        o.ranks
                            .push(s.count_greater(k).clamp(0, u32::MAX as i64) as u32);
                        s.remove(k);
                    }
                }
                None => o.failed += 1,
            }
            o.pairs += 1;
            if let Some(t0) = t0 {
                let t1 = Instant::now();
                o.latency_ns.push((t1 - t0).as_nanos() as u64);
                let elapsed = (t1 - self.start).as_nanos() as u64;
                let round = ((elapsed / self.round_ns) as usize).min(self.rounds - 1);
                o.per_round[round] += o.pairs - counted;
                counted = o.pairs;
                if elapsed >= end_ns {
                    break;
                }
            }
        }
        tr.finish();
        o.per_round[self.rounds - 1] += o.pairs - counted;
        o.front = self.front;
        o.cpu_ns = thread_cpu_ns() - cpu0;
        o.alloc = alloc::thread_counts().since(alloc0);
        o
    }
}
