//! In-process `--smoke` runs: every workload completes with its outputs
//! checked, and each output check fires when its input is corrupted.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use pq_traits::ConcurrentPriorityQueue;
use zbench::bench::{Bench, Scale};
use zbench::closed::Closed;
use zbench::jobs::{JobQueue, Jobs};
use zbench::run::{self, run_bench, Opts, Workload};
use zbench::sssp::Sssp;
use zmsq::{Zmsq, ZmsqConfig};

fn opts(workload: Workload, trace: bool) -> Opts {
    Opts {
        workload,
        seed: 7,
        seconds: Duration::from_millis(60),
        trace,
        scale: Scale::smoke(),
    }
}

#[test]
fn every_workload_passes_its_checks_untraced_and_traced() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let report = run::run(&opts(w, trace));
            assert!(
                report.correct(),
                "{} trace={trace}: {:?}",
                w.name(),
                report.check
            );
            assert!(report.check.attempted > 0);
        }
    }
}

#[test]
fn same_seed_same_inputs() {
    let a = run::run(&opts(Workload::Sssp, false));
    let b = run::run(&opts(Workload::Sssp, false));
    assert_eq!(a.fingerprint, b.fingerprint);
    let mut other = opts(Workload::Sssp, false);
    other.seed = 8;
    assert_ne!(run::run(&other).fingerprint, a.fingerprint);
}

/// A queue that misbehaves once, on its `nth` call of one kind.
struct Faulty<V: Send> {
    inner: Zmsq<V>,
    calls: AtomicU64,
    nth: u64,
    fault: Fault,
}

#[derive(Clone, Copy, PartialEq)]
enum Fault {
    /// `extract_max` returns `None` although the queue holds elements.
    NoneWhenNonempty,
    /// `insert` drops its element.
    DropInsert,
    /// `insert` files the element one distance unit closer than it is.
    ShiftPriority,
}

impl<V: Send + 'static> Faulty<V> {
    fn new(cfg: ZmsqConfig, fault: Fault, nth: u64) -> Self {
        Faulty {
            inner: Zmsq::with_config(cfg),
            calls: AtomicU64::new(0),
            nth,
            fault,
        }
    }

    fn fires(&self, kind: Fault) -> bool {
        self.fault == kind && self.calls.fetch_add(1, Ordering::Relaxed) + 1 == self.nth
    }
}

impl<V: Send + 'static> ConcurrentPriorityQueue<V> for Faulty<V> {
    fn insert(&self, prio: u64, value: V) {
        if self.fires(Fault::DropInsert) {
            return;
        }
        let prio = if self.fault == Fault::ShiftPriority && prio < u64::MAX {
            prio + 1
        } else {
            prio
        };
        self.inner.insert(prio, value)
    }

    fn extract_max(&self) -> Option<(u64, V)> {
        if self.fires(Fault::NoneWhenNonempty) {
            return None;
        }
        self.inner.extract_max()
    }

    fn name(&self) -> String {
        "faulty".into()
    }

    fn metrics(&self) -> Option<obs::Snapshot> {
        ConcurrentPriorityQueue::metrics(&self.inner)
    }
}

impl JobQueue for Faulty<u64> {
    fn extract_blocking(&self) -> Option<(u64, u64)> {
        self.inner.extract_max_blocking()
    }

    fn close(&self) {
        self.inner.close()
    }
}

/// Failed checks of an untraced smoke run of `b`.
fn failed(b: &mut dyn Bench) -> u64 {
    let report = run_bench(b, &opts(Workload::Mixed, false));
    assert_eq!(report.correct(), report.check.failed == 0);
    report.check.failed
}

#[test]
fn none_on_a_nonempty_queue_is_caught() {
    let clean = |_: bool| Faulty::new(ZmsqConfig::recommended(), Fault::NoneWhenNonempty, 0);
    assert_eq!(failed(&mut Closed::new(clean, 1, Scale::smoke())), 0);
    let faulty = |_: bool| Faulty::new(ZmsqConfig::recommended(), Fault::NoneWhenNonempty, 100);
    assert!(failed(&mut Closed::new(faulty, 1, Scale::smoke())) > 0);
}

#[test]
fn a_wrong_distance_is_caught() {
    let clean = |_: bool| Faulty::<u32>::new(ZmsqConfig::sssp_tuned(), Fault::DropInsert, 0);
    assert_eq!(failed(&mut Sssp::new(clean, 1, Scale::smoke())), 0);
    let faulty = |_: bool| Faulty::<u32>::new(ZmsqConfig::sssp_tuned(), Fault::ShiftPriority, 0);
    assert!(failed(&mut Sssp::new(faulty, 1, Scale::smoke())) > 0);
}

#[test]
fn a_dropped_job_is_caught() {
    let span = Duration::from_millis(60);
    let clean = |_: bool| {
        Faulty::new(
            ZmsqConfig::recommended().blocking(true),
            Fault::DropInsert,
            0,
        )
    };
    assert_eq!(
        failed(&mut Jobs::new(clean, 1, Scale::smoke(), 50_000.0, span)),
        0
    );
    let faulty = |_: bool| {
        Faulty::new(
            ZmsqConfig::recommended().blocking(true),
            Fault::DropInsert,
            10,
        )
    };
    assert!(failed(&mut Jobs::new(faulty, 1, Scale::smoke(), 50_000.0, span)) > 0);
}
