//! Single-threaded timings of layer calls no workload can span from the
//! outside: set operations, hazard-pointer protect and retire, the node
//! trylock, and the telemetry notes.

use std::hint::black_box;
use std::sync::atomic::AtomicPtr;
use std::time::Instant;

use fault::DetRng;
use zmsq::{NodeSet, RawTryLock, TatasLock, Zmsq};

use crate::stats::median;

/// Names the set type a queue type stores its nodes in.
pub trait SetOf {
    /// The queue's `NodeSet`.
    type Set: NodeSet<u64>;
}

impl<S: NodeSet<u64>, L: RawTryLock> SetOf for Zmsq<u64, S, L> {
    type Set = S;
}

/// The set behind `Zmsq<u64>`'s default type parameter, so these timings
/// follow the default if it changes.
pub type DefaultSet = <Zmsq<u64> as SetOf>::Set;

/// Set lengths timed: the default `target_len` and the split threshold.
pub const SET_LENS: [usize; 2] = [72, 144];

/// Median ns per call of `op` over `reps` repetitions, each on a set of
/// `len` random keys built outside the timed region. `op` returns how
/// many calls it made.
fn time_set<S: NodeSet<u64>>(
    rng: &mut DetRng,
    len: usize,
    reps: usize,
    mut op: impl FnMut(&mut S, &mut DetRng) -> usize,
) -> f64 {
    let arena = S::new_arena(0);
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let mut set = S::default();
            set.attach(&arena);
            for _ in 0..len {
                let k = rng.next_u64() >> 44;
                set.insert(k, k);
            }
            let t = Instant::now();
            let calls = op(&mut set, rng);
            let ns = t.elapsed().as_nanos() as f64;
            black_box(&set);
            ns / calls as f64
        })
        .collect();
    median(&samples)
}

/// `(metric, ns per call)` for the default set's operations at each of
/// [`SET_LENS`].
pub fn sets(reps: usize) -> Vec<(String, f64)> {
    let mut rng = DetRng::seed_from_u64(0x5E7);
    let mut out = Vec::new();
    for len in SET_LENS {
        let k = len / 8;
        let mut m = |name: &str, v: f64| out.push((format!("set.{name}_ns_{len}"), v));
        m(
            "insert",
            time_set::<DefaultSet>(&mut rng, len, reps, |s, r| {
                for _ in 0..k {
                    let key = r.next_u64() >> 44;
                    s.insert(key, key);
                }
                k
            }),
        );
        m(
            "remove_max",
            time_set::<DefaultSet>(&mut rng, len, reps, |s, _| {
                for _ in 0..k {
                    black_box(s.remove_max());
                }
                k
            }),
        );
        m(
            "remove_min",
            time_set::<DefaultSet>(&mut rng, len, reps, |s, _| {
                for _ in 0..k {
                    black_box(s.remove_min());
                }
                k
            }),
        );
        let mut out_buf = Vec::with_capacity(64);
        m(
            "drain_top48",
            time_set::<DefaultSet>(&mut rng, len, reps, |s, _| {
                out_buf.clear();
                s.drain_top(48, &mut out_buf);
                1
            }),
        );
        m(
            "split_lower_half",
            time_set::<DefaultSet>(&mut rng, len, reps, |s, _| {
                black_box(s.split_lower_half());
                1
            }),
        );
    }
    out
}

fn per_call(n: u64, f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64 / n as f64
}

/// `(metric, ns per call)` for hazard-pointer protect and retire, the
/// TATAS trylock, and the rank and sojourn telemetry notes.
pub fn substrate(calls: u64) -> Vec<(String, f64)> {
    let domain = smr::Domain::new();
    let target = AtomicPtr::new(Box::into_raw(Box::new(7u64)));
    let mut hp = domain.hazard();
    let protect = per_call(calls, || {
        for _ in 0..calls {
            black_box(hp.protect(&target));
        }
    });
    hp.clear();
    let boxes: Vec<*mut u64> = (0..calls / 4).map(|i| Box::into_raw(Box::new(i))).collect();
    let retire = per_call(calls / 4, || {
        for &b in &boxes {
            // SAFETY: each box is fresh from `Box::into_raw`, retired once
            // and never shared.
            unsafe { domain.retire(b) };
        }
    });
    // SAFETY: the target box is unreachable to readers from here on.
    unsafe { domain.retire(target.into_inner()) };
    domain.try_reclaim();

    let lock = TatasLock::default();
    let tatas = per_call(calls, || {
        for _ in 0..calls {
            assert!(black_box(&lock).try_lock());
            lock.unlock();
        }
    });

    let mut rng = DetRng::seed_from_u64(0x0B5);
    let keys: Vec<u64> = (0..calls).map(|_| rng.next_u64() >> 44).collect();
    let est = obs::RankEstimator::new(6);
    let rank = per_call(calls, || {
        for &k in &keys {
            est.note_insert(k);
            black_box(est.note_extract(k));
        }
    });
    let soj = obs::SojournTracker::new(6);
    let sojourn = per_call(calls, || {
        for &k in &keys {
            soj.note_insert(k);
            soj.note_extract(k);
        }
    });
    vec![
        ("smr.protect_ns".into(), protect),
        ("smr.retire_ns".into(), retire),
        ("sync.tatas_ns".into(), tatas),
        ("obs.rank_note_ns".into(), rank),
        ("obs.sojourn_note_ns".into(), sojourn),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_benchmarks_name_every_metric_and_measure_time() {
        let sets = sets(3);
        assert_eq!(sets.len(), 5 * SET_LENS.len());
        let sub = substrate(2_000);
        for (name, v) in sets.iter().chain(&sub) {
            assert!(v.is_finite() && *v >= 0.0, "{name} = {v}");
        }
    }
}
