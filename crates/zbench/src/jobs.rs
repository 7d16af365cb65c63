//! The `jobs-lo` and `jobs-hi` workloads: an open-loop job service on a
//! blocking queue (§3.6), at a fixed arrival rate each.
//!
//! A generator thread inserts jobs at seeded Poisson arrival times; 10%
//! are premium jobs whose keys lie above every standard key. One consumer
//! takes jobs with a non-blocking extraction, falling back to
//! `extract_max_blocking` (which parks on the queue's futexes) when the
//! queue is empty, and serves each for a fixed spin. Latency runs from a
//! job's due time, not its actual insertion, so a stalled generator shows
//! in it, and the generator's own lateness is reported beside it.

use std::time::{Duration, Instant};

use fault::DetRng;
use pq_traits::ConcurrentPriorityQueue;
use zmsq::{NodeSet, RawTryLock, Zmsq};

use crate::alloc;
use crate::bench::{spin_until, Bench, Check, Counters, Phase, Scale, Tally};
use crate::cpu::thread_cpu_ns;
use crate::stats::RankShadow;
use crate::trace::{Tracer, APP, EXTRACT, IDLE, INSERT, PARK, WORKER};

/// Service time of one job.
pub const SERVICE: Duration = Duration::from_micros(2);
/// Standard keys lie in `0 .. PREMIUM`, premium keys in `PREMIUM .. 2·PREMIUM`.
const PREMIUM: u64 = 1 << 19;
const PREMIUM_SHARE: f64 = 0.1;
/// Keys lie below `2 · PREMIUM = 2^20`, inside the shadow's window.
const SHADOW_BITS: u32 = 21;

/// A queue a consumer can block on.
pub trait JobQueue: ConcurrentPriorityQueue<u64> {
    /// Extract, parking while the queue is empty; `None` once closed and
    /// drained.
    fn extract_blocking(&self) -> Option<(u64, u64)>;
    /// Wake every parked consumer for good.
    fn close(&self);
}

impl<S: NodeSet<u64> + 'static, L: RawTryLock + 'static> JobQueue for Zmsq<u64, S, L> {
    fn extract_blocking(&self) -> Option<(u64, u64)> {
        self.extract_max_blocking()
    }

    fn close(&self) {
        Zmsq::close(self)
    }
}

#[derive(Clone, Copy)]
struct Arrival {
    due_ns: u64,
    key: u64,
}

/// The job service at `rate` jobs per second over queues from `make`.
/// `close` is permanent, so every phase runs on a fresh queue.
pub struct Jobs<Q> {
    make: fn(bool) -> Q,
    seed: u64,
    scale: Scale,
    rate: f64,
    /// Longest phase the schedule must cover.
    span: Duration,
    schedule: Vec<Arrival>,
    telemetry: bool,
    /// The fresh queue the next phase runs on.
    next: Option<Q>,
    /// The closed queue of the last phase, kept for `verify`.
    last: Option<Q>,
}

impl<Q: JobQueue> Jobs<Q> {
    /// Jobs at `rate` per second; the schedule covers phases up to `span`.
    pub fn new(make: fn(bool) -> Q, seed: u64, scale: Scale, rate: f64, span: Duration) -> Self {
        Jobs {
            make,
            seed,
            scale,
            rate,
            span,
            schedule: Vec::new(),
            telemetry: true,
            next: None,
            last: None,
        }
    }

    /// Run the schedule's first `dur` on a fresh queue.
    fn run(&mut self, dur: Duration, shadow: Option<&RankShadow>, trace: bool) -> Phase {
        let n = self
            .schedule
            .partition_point(|a| a.due_ns < dur.as_nanos() as u64)
            .max(1);
        let jobs = &self.schedule[..n];
        self.last = None;
        let q = self
            .next
            .take()
            .unwrap_or_else(|| (self.make)(self.telemetry));
        let before = Counters::take(q.metrics());
        let epoch = Instant::now();
        let mut tracers: Vec<Tracer> = (0..2).map(|_| Tracer::new(trace, epoch)).collect();
        let start = epoch + Duration::from_micros(500);
        let (gen_tr, con_tr) = tracers.split_at_mut(1);
        let ((lag_ns, gen_alloc), con) = std::thread::scope(|s| {
            let q = &q;
            let generator = s.spawn(|| generate(q, jobs, start, shadow, &mut gen_tr[0]));
            let consumer = s.spawn(|| consume(q, jobs, start, shadow, &mut con_tr[0]));
            let lag = generator.join().expect("generator panicked");
            (lag, consumer.join().expect("consumer panicked"))
        });
        let missing = con.latency_ns.iter().filter(|&&l| l == u64::MAX).count() as u64;
        if missing + con.duplicates > 0 {
            eprintln!(
                "jobs: {missing} jobs never delivered, {} delivered twice",
                con.duplicates
            );
        }
        let mut p = Phase {
            requests: n as u64 - missing,
            queue_ops: n as u64 + con.extract_calls,
            round_rates: vec![(n as u64 - missing) as f64 / (con.last_done_ns.max(1) as f64 / 1e9)],
            cpu_ns: con.cpu_ns,
            check: Check {
                attempted: n as u64,
                failed: missing + con.duplicates,
            },
            alloc: con.alloc.plus(gen_alloc),
            counters: Counters::take(q.metrics()).since(&before),
            tracers,
            ranks: con.ranks,
            lag_ns,
            ..Phase::default()
        };
        for (a, &l) in jobs.iter().zip(&con.latency_ns) {
            if l != u64::MAX {
                p.latency_ns.push(l);
                if a.key >= PREMIUM {
                    p.premium_ns.push(l);
                }
            }
        }
        self.last = Some(q);
        p
    }
}

/// Insert every job at its due time, then close the queue. Returns each
/// insertion's lateness and the generator's allocator activity.
fn generate<Q: JobQueue>(
    q: &Q,
    jobs: &[Arrival],
    start: Instant,
    shadow: Option<&RankShadow>,
    tr: &mut Tracer,
) -> (Vec<u64>, alloc::Counts) {
    let mut lag = Vec::with_capacity(jobs.len());
    let alloc0 = alloc::thread_counts();
    tr.enter(WORKER);
    tr.enter(APP);
    for (id, a) in jobs.iter().enumerate() {
        let due = start + Duration::from_nanos(a.due_ns);
        tr.switch(IDLE);
        spin_until(due);
        tr.next_request();
        tr.switch(APP);
        lag.push(due.elapsed().as_nanos() as u64);
        if let Some(s) = shadow {
            s.add(a.key);
        }
        tr.switch(INSERT);
        q.insert(a.key, id as u64);
    }
    tr.finish();
    q.close();
    (lag, alloc::thread_counts().since(alloc0))
}

struct Consumed {
    /// Per job id; `u64::MAX` if never delivered.
    latency_ns: Vec<u64>,
    duplicates: u64,
    extract_calls: u64,
    last_done_ns: u64,
    ranks: Vec<u32>,
    cpu_ns: u64,
    alloc: alloc::Counts,
}

fn consume<Q: JobQueue>(
    q: &Q,
    jobs: &[Arrival],
    start: Instant,
    shadow: Option<&RankShadow>,
    tr: &mut Tracer,
) -> Consumed {
    let mut c = Consumed {
        latency_ns: vec![u64::MAX; jobs.len()],
        duplicates: 0,
        extract_calls: 0,
        last_done_ns: 0,
        ranks: Vec::with_capacity(if shadow.is_some() { jobs.len() } else { 0 }),
        cpu_ns: 0,
        alloc: alloc::Counts::default(),
    };
    let (cpu0, alloc0) = (thread_cpu_ns(), alloc::thread_counts());
    tr.enter(WORKER);
    tr.enter(APP);
    loop {
        tr.switch(EXTRACT);
        let mut got = q.extract_max();
        c.extract_calls += 1;
        if got.is_none() {
            tr.switch(PARK);
            got = q.extract_blocking();
            c.extract_calls += 1;
        }
        let Some((key, id)) = got else { break };
        tr.next_request();
        tr.switch(APP);
        if let Some(s) = shadow {
            c.ranks
                .push(s.count_greater(key).clamp(0, u32::MAX as i64) as u32);
            s.remove(key);
        }
        let served = Instant::now();
        spin_until(served + SERVICE);
        let done = Instant::now();
        let Some(a) = jobs.get(id as usize) else {
            c.duplicates += 1; // not a job of this phase
            continue;
        };
        let slot = &mut c.latency_ns[id as usize];
        if *slot != u64::MAX {
            c.duplicates += 1;
            continue;
        }
        *slot = done
            .saturating_duration_since(start + Duration::from_nanos(a.due_ns))
            .as_nanos() as u64;
        c.last_done_ns = (done - start).as_nanos() as u64;
    }
    tr.finish();
    c.cpu_ns = thread_cpu_ns() - cpu0;
    c.alloc = alloc::thread_counts().since(alloc0);
    c
}

impl<Q: JobQueue> Bench for Jobs<Q> {
    fn setup(&mut self) {
        let mut rng = DetRng::seed_from_u64(self.seed ^ 0x0B5_5EED);
        let end = self.span.as_nanos() as f64;
        let mean_gap = 1e9 / self.rate;
        let mut t = 0.0f64;
        let mut schedule = Vec::with_capacity((end / mean_gap * 1.1) as usize + 16);
        loop {
            t += -(1.0 - rng.random::<f64>()).ln() * mean_gap;
            if t >= end {
                break;
            }
            let class = if rng.random_bool(PREMIUM_SHARE) {
                PREMIUM
            } else {
                0
            };
            schedule.push(Arrival {
                due_ns: t as u64,
                key: class + rng.random_range(0..PREMIUM),
            });
        }
        self.schedule = schedule;
        self.rebuild(true);
    }

    fn fingerprint(&self) -> Vec<(&'static str, u64)> {
        let mut h = Tally::default();
        for a in &self.schedule {
            h.add(a.due_ns ^ a.key << 40);
        }
        vec![
            ("jobs", self.schedule.len() as u64),
            ("rate", self.rate as u64),
            ("schedule_hash", h.digest()),
        ]
    }

    fn quality(&mut self) -> Phase {
        let shadow = RankShadow::new(SHADOW_BITS);
        self.run(self.scale.quality_time, Some(&shadow), false)
    }

    fn measure(&mut self, dur: Duration, trace: bool) -> Phase {
        self.run(dur, None, trace)
    }

    /// Every phase checks its own deliveries; the closed queue must also be
    /// empty.
    fn verify(&mut self) -> Check {
        let left = self.last.as_ref().map_or(0, |q| {
            let mut n = 0;
            while q.extract_max().is_some() {
                n += 1;
            }
            n
        });
        Check {
            attempted: 1,
            failed: (left > 0) as u64,
        }
    }

    fn rebuild(&mut self, telemetry: bool) {
        self.telemetry = telemetry;
        self.next = Some((self.make)(telemetry));
    }

    fn bytes_per_elem(&self, n: usize) -> f64 {
        alloc::live_bytes_per(n, || {
            let q = (self.make)(true);
            for (i, a) in self.schedule.iter().cycle().take(n).enumerate() {
                q.insert(a.key, i as u64);
            }
            q
        })
    }
}
