//! Property-based conservation across *every* queue implementation:
//! arbitrary single-threaded op sequences must preserve the multiset of
//! elements, for strict and relaxed queues alike.

use fault::DetRng;
use pq_traits::ConcurrentPriorityQueue;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    Extract,
}

/// Seeded op sequence: 3 insert : 2 extract, 1..200 ops.
fn random_ops(rng: &mut DetRng) -> Vec<Op> {
    let len = rng.random_range(1usize..200);
    (0..len)
        .map(|_| {
            if rng.random_range(0u32..5) < 3 {
                Op::Insert(rng.random_range(0u64..500))
            } else {
                Op::Extract
            }
        })
        .collect()
}

fn run_conservation<Q: ConcurrentPriorityQueue<u64>>(q: &Q, ops: &[Op], strict: bool) {
    let mut model: Vec<u64> = Vec::new(); // sorted ascending
    for op in ops {
        match op {
            Op::Insert(k) => {
                q.insert(*k, *k);
                let pos = model.partition_point(|&x| x <= *k);
                model.insert(pos, *k);
            }
            Op::Extract => match q.extract_max() {
                Some((k, v)) => {
                    assert_eq!(k, v, "{}: value corrupted", q.name());
                    let pos = model
                        .iter()
                        .rposition(|&x| x == k)
                        .unwrap_or_else(|| panic!("{}: phantom key {k}", q.name()));
                    if strict {
                        assert_eq!(
                            k,
                            *model.last().unwrap(),
                            "{}: strict queue returned non-max",
                            q.name()
                        );
                    }
                    model.remove(pos);
                }
                None => {
                    // Relaxed queues may fail spuriously; retry a bounded
                    // number of times to distinguish from loss.
                    if !model.is_empty() {
                        let mut recovered = false;
                        for _ in 0..100_000 {
                            if let Some((k, _)) = q.extract_max() {
                                let pos = model
                                    .iter()
                                    .rposition(|&x| x == k)
                                    .expect("phantom key on retry");
                                model.remove(pos);
                                recovered = true;
                                break;
                            }
                        }
                        assert!(
                            recovered || !strict,
                            "{}: lost elements ({} modeled)",
                            q.name(),
                            model.len()
                        );
                    }
                }
            },
        }
    }
    // Final drain: every modeled element must come back out.
    let mut stall = 0;
    while !model.is_empty() {
        match q.extract_max() {
            Some((k, _)) => {
                stall = 0;
                let pos = model
                    .iter()
                    .rposition(|&x| x == k)
                    .unwrap_or_else(|| panic!("{}: phantom key {k} in drain", q.name()));
                model.remove(pos);
            }
            None => {
                stall += 1;
                assert!(stall < 1_000_000, "{}: drain stalled", q.name());
            }
        }
    }
}

/// Run 32 seeded cases against a queue factory, reporting the case
/// index (and therefore the replayable subsequence) on failure.
fn check<Q: ConcurrentPriorityQueue<u64>>(seed: u64, strict: bool, make: impl Fn() -> Q) {
    let mut rng = DetRng::seed_from_u64(seed);
    for case in 0..32 {
        let ops = random_ops(&mut rng);
        let q = make();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_conservation(&q, &ops, strict);
        }));
        if let Err(e) = r {
            panic!("seed {seed:#x} case {case} ops {ops:?}: {e:?}");
        }
    }
}

/// Longer seeded sequences for the tuned (sticky + buffered)
/// differential: deep buffers (k = 64) need enough operations to cycle
/// through staging, overflow flushes and delete-buffer refills several
/// times, and a wide keyspace keeps rank measurements crisp.
fn random_ops_long(rng: &mut DetRng) -> Vec<Op> {
    // 4:1 insert bias: the live population grows to several hundred, so
    // the composed rank bounds stay well below the population size (a
    // bound past the population is trivially true and tests nothing).
    let len = rng.random_range(900usize..1400);
    (0..len)
        .map(|_| {
            if rng.random_range(0u32..5) < 4 {
                Op::Insert(rng.random_range(0u64..100_000))
            } else {
                Op::Extract
            }
        })
        .collect()
}

/// Differential run of a tuned queue against the multiset reference:
/// every extraction must return a modeled element (no phantoms, values
/// intact), `None` is allowed only when the model is empty (the
/// flush-before-report guarantee — single-threaded, staged elements are
/// the only place something could hide), and after `flush()` the drain
/// must return exactly the modeled multiset. Appends every extraction's
/// rank error (how many modeled elements were strictly greater than the
/// one returned) to `ranks` for the caller to check against the
/// composed bound documented in DESIGN.md ("Stickiness & operation
/// buffers").
fn run_tuned_differential<Q: ConcurrentPriorityQueue<u64>>(
    q: &Q,
    ops: &[Op],
    ranks: &mut Vec<usize>,
) {
    let mut model: Vec<u64> = Vec::new(); // sorted ascending
    let note_extract = |model: &mut Vec<u64>, k: u64, ranks: &mut Vec<usize>| {
        let pos = model
            .iter()
            .rposition(|&x| x == k)
            .unwrap_or_else(|| panic!("{}: phantom key {k}", q.name()));
        ranks.push(model.len() - model.partition_point(|&x| x <= k));
        model.remove(pos);
    };
    for op in ops {
        match op {
            Op::Insert(k) => {
                q.insert(*k, *k);
                let pos = model.partition_point(|&x| x <= *k);
                model.insert(pos, *k);
            }
            Op::Extract => match q.extract_max() {
                Some((k, v)) => {
                    assert_eq!(k, v, "{}: value corrupted", q.name());
                    note_extract(&mut model, k, ranks);
                }
                None => assert!(
                    model.is_empty(),
                    "{}: empty report with {} live elements (flush-before-report broken)",
                    q.name(),
                    model.len()
                ),
            },
        }
    }
    // Publish whatever is still staged, then the multisets must match
    // exactly: every modeled element comes out, then the queue is empty.
    q.flush();
    while !model.is_empty() {
        match q.extract_max() {
            Some((k, _)) => note_extract(&mut model, k, &mut *ranks),
            None => panic!("{}: lost {} elements in drain", q.name(), model.len()),
        }
    }
    assert_eq!(
        q.extract_max().map(|(k, _)| k),
        None,
        "{}: surplus element after the model drained",
        q.name()
    );
}

/// Sweep stickiness c ∈ {1,4,16} × buffer depth k ∈ {1,8,64}, running
/// `cases` seeded sequences per combination, and assert the p99 of the
/// per-extraction rank errors stays within the caller's composed bound
/// for that (c, k). The p99 — not the max — is the gated statistic: the
/// worst single extraction is a heavy-tailed order statistic (a sticky
/// insert run can skew one sub-queue arbitrarily relative to the
/// others), while the p99 over a few thousand extractions is stable and
/// matches how the repo measures quality everywhere else
/// (`quality.est_rank` p99, `RankOracle` p99).
fn check_tuned<Q: ConcurrentPriorityQueue<u64>>(
    seed: u64,
    cases: u32,
    make: impl Fn(usize, usize) -> Q,
    bound: impl Fn(usize, usize) -> usize,
) {
    for &c in &[1usize, 4, 16] {
        for &k in &[1usize, 8, 64] {
            let mut rng = DetRng::seed_from_u64(seed ^ ((c as u64) << 32) ^ (k as u64) << 16);
            let mut ranks: Vec<usize> = Vec::new();
            for case in 0..cases {
                let ops = random_ops_long(&mut rng);
                let q = make(c, k);
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut case_ranks = Vec::new();
                    run_tuned_differential(&q, &ops, &mut case_ranks);
                    case_ranks
                }));
                match r {
                    Ok(rs) => ranks.extend(rs),
                    Err(e) => panic!("seed {seed:#x} c{c} k{k} case {case}: {e:?}"),
                }
            }
            ranks.sort_unstable();
            let q_at = |f: f64| ranks[((ranks.len() - 1) as f64 * f) as usize];
            let (p50, p99, max) = (q_at(0.5), q_at(0.99), *ranks.last().unwrap());
            let b = bound(c, k);
            eprintln!(
                "tuned differential c{c} k{k}: {} extracts, rank p50 {p50} p99 {p99} max {max} (bound {b})",
                ranks.len()
            );
            assert!(
                p99 <= b,
                "seed {seed:#x} c{c} k{k}: rank-error p99 {p99} exceeds composed bound {b}"
            );
        }
    }
}

/// Tuned `ShardedZmsq` vs the reference multiset: Q = 4 shards with the
/// per-shard window W = batch + 2·target_len = 4 + 12 = 16. Composed
/// bound (DESIGN.md, "Stickiness & operation buffers"):
/// `Q·(W + α·(c + k)) + slack` — every shard can be simultaneously
/// ahead by its window, a sticky run digs up to `c` refills of `k`
/// deep into one shard while the insert-biased workload (4 arrivals
/// per extraction here) piles fresh elements into the others, and
/// staged insert buffers hide up to `k` elements per thread. α = 12
/// absorbs the arrival rate; slack = 128 covers the two-choice tail at
/// this sample count. Constants are calibrated to ≥ 1.4x over the
/// measured p99 of every (c, k) cell on this workload shape.
#[test]
fn tuned_sharded_differential() {
    check_tuned(
        0xA11_0009,
        6,
        |c, k| {
            zmsq::ShardedZmsq::<u64>::with_tuning(
                4,
                zmsq::ZmsqConfig::default().batch(4).target_len(6),
                zmsq::ShardedConfig::new()
                    .stickiness(c)
                    .insert_buffer(k)
                    .delete_buffer(k),
            )
        },
        |c, k| 4 * (16 + 12 * (c + k)) + 128,
    )
}

/// Tuned `MultiQueue` vs the reference multiset: Q = 8 strict sub-heaps
/// (threads = 4 × factor 2) with per-heap window W = 1, same composed
/// bound shape as the sharded test. Its shard picks come from an
/// address-seeded thread-local RNG (deliberately not deterministic
/// across runs), so α = 8 keeps ≥ 2x headroom over every measured
/// (c, k) cell's p99 rather than hugging one seed's numbers.
#[test]
fn tuned_multiqueue_differential() {
    check_tuned(
        0xA11_000A,
        6,
        |c, k| {
            baselines::MultiQueue::<u64>::with_tuning(
                4,
                2,
                zmsq::ShardedConfig::new()
                    .stickiness(c)
                    .insert_buffer(k)
                    .delete_buffer(k),
            )
        },
        |c, k| 8 * (1 + 8 * (c + k)) + 64,
    )
}

#[test]
fn coarse_heap() {
    check(0xA11_0001, true, baselines::CoarseHeap::new);
}

#[test]
fn mound() {
    check(0xA11_0002, true, baselines::Mound::new);
}

#[test]
fn skiplist_strict() {
    check(0xA11_0003, true, baselines::StrictSkiplistPq::new);
}

#[test]
fn spraylist() {
    check(0xA11_0004, false, || baselines::SprayList::new(8));
}

#[test]
fn multiqueue() {
    check(0xA11_0005, false, || baselines::MultiQueue::new(4, 2));
}

#[test]
fn klsm_single_thread() {
    // Single-threaded, the k-LSM sees its own local + global: no
    // invisible elements, so conservation holds.
    check(0xA11_0006, false, || baselines::KLsm::new(16));
}

#[test]
fn zmsq_relaxed() {
    check(0xA11_0007, false, || {
        zmsq::Zmsq::<u64>::with_config(zmsq::ZmsqConfig::default().batch(4).target_len(6))
    });
}

#[test]
fn zmsq_strict() {
    check(0xA11_0008, true, || {
        zmsq::Zmsq::<u64>::with_config(zmsq::ZmsqConfig::strict())
    });
}
