//! The `sssp` workload: the paper's application (§4.6), concurrent
//! single-source shortest paths on a seeded Barabási–Albert graph.
//!
//! The two-worker solver loop runs the same algorithm as
//! `zmsq_graph::parallel_sssp` (pop the closest frontier node, relax its
//! edges with CAS-min, push improvements with priority `MAX − dist`,
//! finish when no work is pending), owned here so each queue call can be
//! spanned. Every solve is checked against sequential Dijkstra.
//!
//! The workers live for a whole phase and meet the main thread at a
//! barrier before and after each solve. With two threads spawned per
//! solve instead, the timings spread 0.10–0.13 over twelve seeds against
//! 0.08–0.09 for these workers, in alternating runs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use fault::DetRng;
use pq_traits::ConcurrentPriorityQueue;
use zmsq_graph::{gen, sequential_sssp, CsrGraph, INFINITY};

use crate::alloc;
use crate::bench::{Bench, Check, Counters, Phase, Scale, Tally};
use crate::cpu::thread_cpu_ns;
use crate::stats::RankShadow;
use crate::trace::{Tracer, APP, EXTRACT, IDLE, INSERT, WORKER};

/// Worker threads per solve.
pub const THREADS: usize = 2;
/// Edge weights are uniform in `1 ..= MAX_WEIGHT`.
const MAX_WEIGHT: u32 = 100;
/// Distances are shadowed below `2^(SHADOW_BITS-1)` (larger ones clamp).
const SHADOW_BITS: u32 = 21;
const SHADOW_TOP: u64 = (1 << (SHADOW_BITS - 1)) - 1;

fn prio_of(dist: u64) -> u64 {
    u64::MAX - dist
}

fn dist_of(prio: u64) -> u64 {
    u64::MAX - prio
}

/// The SSSP workload over queues built by `make(telemetry)`.
pub struct Sssp<Q> {
    make: fn(bool) -> Q,
    seed: u64,
    scale: Scale,
    graph: Option<CsrGraph>,
    sources: Vec<u32>,
    reference: Vec<Vec<u64>>,
    q: Option<Q>,
    solves: usize,
}

/// What one worker did over a phase.
#[derive(Default)]
struct WorkerOut {
    processed: u64,
    wasted: u64,
    queue_ops: u64,
    ranks: Vec<u32>,
    cpu_ns: u64,
    alloc: alloc::Counts,
}

/// State the main thread and the workers share during a phase.
struct Shared<'a, Q> {
    graph: &'a CsrGraph,
    q: &'a Q,
    dist: Vec<AtomicU64>,
    /// Entries inserted and not yet fully processed; 0 ends a solve.
    pending: AtomicU64,
    /// Set before the last barrier to send the workers home.
    stop: AtomicBool,
    barrier: Barrier,
    shadow: Option<&'a RankShadow>,
}

/// Shadow keys order closer nodes higher, like the queue's priorities.
fn shadow_key(d: u64) -> u64 {
    SHADOW_TOP - d.min(SHADOW_TOP)
}

impl<Q: ConcurrentPriorityQueue<u32>> Sssp<Q> {
    /// A workload over queues from `make`, with a graph from `seed`.
    pub fn new(make: fn(bool) -> Q, seed: u64, scale: Scale) -> Self {
        Sssp {
            make,
            seed,
            scale,
            graph: None,
            sources: Vec::new(),
            reference: Vec::new(),
            q: None,
            solves: 0,
        }
    }

    fn graph(&self) -> &CsrGraph {
        self.graph.as_ref().expect("setup() builds the graph")
    }

    /// Solve from the sources in turn, checking every result, until `dur`
    /// has passed (at least one solve) or `max_solves` are done.
    fn run(
        &mut self,
        dur: Option<Duration>,
        max_solves: usize,
        shadow: Option<&RankShadow>,
        trace: bool,
    ) -> Phase {
        let Sssp {
            graph,
            q,
            sources,
            reference,
            solves,
            ..
        } = self;
        let graph = graph.as_ref().expect("setup() builds the graph");
        let q = q.as_ref().expect("setup() builds the queue");
        let shared = Shared {
            graph,
            q,
            dist: (0..graph.num_nodes())
                .map(|_| AtomicU64::new(INFINITY))
                .collect(),
            pending: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            barrier: Barrier::new(THREADS + 1),
            shadow,
        };
        let epoch = Instant::now();
        let mut tracers: Vec<Tracer> = (0..THREADS).map(|_| Tracer::new(trace, epoch)).collect();
        let before = Counters::take(q.metrics());
        let mut p = Phase::default();
        let outs: Vec<WorkerOut> = std::thread::scope(|s| {
            let handles: Vec<_> = tracers
                .iter_mut()
                .map(|tr| {
                    let shared = &shared;
                    s.spawn(move || worker(shared, tr))
                })
                .collect();
            let more = |p: &Phase| {
                p.requests < max_solves as u64
                    && dur.is_none_or(|d| p.requests == 0 || epoch.elapsed() < d)
            };
            while more(&p) {
                let i = *solves % sources.len();
                *solves += 1;
                let src = sources[i];
                for d in &shared.dist {
                    d.store(INFINITY, Ordering::Relaxed);
                }
                shared.dist[src as usize].store(0, Ordering::Relaxed);
                shared.pending.store(1, Ordering::SeqCst);
                if let Some(s) = shadow {
                    s.add(shadow_key(0));
                }
                q.insert(prio_of(0), src);
                let t0 = Instant::now();
                shared.barrier.wait(); // the workers start
                shared.barrier.wait(); // and are done
                let ns = t0.elapsed().as_nanos() as u64;
                let wrong = shared
                    .dist
                    .iter()
                    .zip(&reference[i])
                    .any(|(d, &r)| d.load(Ordering::Relaxed) != r);
                if wrong {
                    eprintln!("sssp: solve from node {src} gave wrong distances");
                }
                p.requests += 1;
                p.queue_ops += 1;
                p.check.attempted += 1;
                p.check.failed += wrong as u64;
                p.latency_ns.push(ns);
                p.round_rates.push(1e9 / ns as f64);
            }
            shared.stop.store(true, Ordering::SeqCst);
            shared.barrier.wait();
            handles
                .into_iter()
                .map(|h| h.join().expect("sssp worker panicked"))
                .collect()
        });
        for o in outs {
            p.queue_ops += o.queue_ops;
            p.cpu_ns += o.cpu_ns;
            p.alloc = p.alloc.plus(o.alloc);
            p.wasted += o.wasted;
            p.pops += o.processed + o.wasted;
            p.ranks.extend(o.ranks);
        }
        p.counters = Counters::take(q.metrics()).since(&before);
        p.tracers = tracers;
        p
    }
}

impl<Q: ConcurrentPriorityQueue<u32>> Bench for Sssp<Q> {
    fn setup(&mut self) {
        let s = &self.scale;
        let g = gen::barabasi_albert(s.graph_nodes, s.graph_attach, MAX_WEIGHT, self.seed);
        let mut rng = DetRng::seed_from_u64(self.seed ^ 0x5EED_50C5);
        self.sources = (0..s.sources)
            .map(|_| rng.random_range(0..g.num_nodes() as u32))
            .collect();
        self.reference = self
            .sources
            .iter()
            .map(|&src| sequential_sssp(&g, src))
            .collect();
        self.graph = Some(g);
        self.rebuild(true);
    }

    fn fingerprint(&self) -> Vec<(&'static str, u64)> {
        let g = self.graph();
        let mut weights = 0u64;
        for v in 0..g.num_nodes() as u32 {
            weights += g.neighbors(v).map(|(_, w)| w as u64).sum::<u64>();
        }
        let mut src = Tally::default();
        for &s in &self.sources {
            src.add(s as u64);
        }
        vec![
            ("graph_nodes", g.num_nodes() as u64),
            ("graph_edges", g.num_edges() as u64),
            ("weight_sum", weights),
            ("source_hash", src.digest()),
        ]
    }

    fn quality(&mut self) -> Phase {
        let shadow = RankShadow::new(SHADOW_BITS);
        self.run(None, self.scale.quality_solves, Some(&shadow), false)
    }

    fn measure(&mut self, dur: Duration, trace: bool) -> Phase {
        self.run(Some(dur), usize::MAX, None, trace)
    }

    fn verify(&mut self) -> Check {
        let q = self.q.as_ref().expect("setup() builds the queue");
        let mut left = 0;
        while q.extract_max().is_some() {
            left += 1;
        }
        if left > 0 {
            eprintln!("sssp: {left} entries left in the queue after the last solve");
        }
        Check {
            attempted: 1,
            failed: (left > 0) as u64,
        }
    }

    fn rebuild(&mut self, telemetry: bool) {
        self.q = None;
        self.q = Some((self.make)(telemetry));
    }

    fn bytes_per_elem(&self, n: usize) -> f64 {
        let dist = &self.reference[0];
        alloc::live_bytes_per(n, || {
            let q = (self.make)(true);
            for node in (0..dist.len()).cycle().take(n) {
                q.insert(prio_of(dist[node]), node as u32);
            }
            q
        })
    }
}

/// A worker: solve whenever the main thread releases the barrier, until
/// told to stop. Time at the barrier counts as idle.
fn worker<Q: ConcurrentPriorityQueue<u32>>(sh: &Shared<'_, Q>, tr: &mut Tracer) -> WorkerOut {
    let (cpu0, alloc0) = (thread_cpu_ns(), alloc::thread_counts());
    let mut o = WorkerOut::default();
    tr.enter(WORKER);
    tr.enter(IDLE);
    loop {
        sh.barrier.wait();
        if sh.stop.load(Ordering::SeqCst) {
            break;
        }
        solve(sh, tr, &mut o);
        sh.barrier.wait();
    }
    tr.finish();
    o.cpu_ns = thread_cpu_ns() - cpu0;
    o.alloc = alloc::thread_counts().since(alloc0);
    o
}

/// One worker's share of a solve; returns when no work is pending.
fn solve<Q: ConcurrentPriorityQueue<u32>>(sh: &Shared<'_, Q>, tr: &mut Tracer, o: &mut WorkerOut) {
    let mut idle_spins = 0u32;
    loop {
        tr.switch(EXTRACT);
        let got = sh.q.extract_max();
        o.queue_ops += 1;
        let Some((prio, node)) = got else {
            // Momentary emptiness: only pending == 0 proves the solve is
            // complete.
            tr.switch(IDLE);
            if sh.pending.load(Ordering::SeqCst) == 0 {
                return;
            }
            idle_spins += 1;
            if idle_spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
            continue;
        };
        idle_spins = 0;
        tr.next_request();
        tr.switch(APP);
        let d = dist_of(prio);
        if let Some(s) = sh.shadow {
            let k = shadow_key(d);
            o.ranks
                .push(s.count_greater(k).clamp(0, u32::MAX as i64) as u32);
            s.remove(k);
        }
        if d > sh.dist[node as usize].load(Ordering::Acquire) {
            o.wasted += 1;
            sh.pending.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        for (t, w) in sh.graph.neighbors(node) {
            let nd = d + w as u64;
            let cell = &sh.dist[t as usize];
            let mut cur = cell.load(Ordering::Relaxed);
            while nd < cur {
                match cell.compare_exchange_weak(cur, nd, Ordering::AcqRel, Ordering::Relaxed) {
                    Ok(_) => {
                        sh.pending.fetch_add(1, Ordering::SeqCst);
                        if let Some(s) = sh.shadow {
                            s.add(shadow_key(nd));
                        }
                        tr.switch(INSERT);
                        sh.q.insert(prio_of(nd), t);
                        o.queue_ops += 1;
                        tr.switch(APP);
                        break;
                    }
                    Err(c) => cur = c,
                }
            }
        }
        o.processed += 1;
        sh.pending.fetch_sub(1, Ordering::SeqCst);
    }
}
