//! Queue factory shared by the harness binaries.

use baselines::{CoarseHeap, FifoQueue, KLsm, Mound, MultiQueue, SprayList, StrictSkiplistPq};
use pq_traits::ConcurrentPriorityQueue;
use zmsq::{ArraySet, DequeSet, QualityOpts, Reclamation, TatasLock, Zmsq, ZmsqConfig, ZmsqList};

/// A boxed queue usable by every generic driver.
pub type BoxedQueue<V> = Box<dyn ConcurrentPriorityQueue<V> + Sync + Send>;

/// `cfg` with the pool refilled from the root set alone, as in the
/// paper's Listing 2. The paper-figure arms pin it, so their CSVs do not
/// follow `Zmsq`'s default merge refill.
pub fn listing2(cfg: ZmsqConfig) -> ZmsqConfig {
    let quality = QualityOpts {
        merge_refill: false,
        ..cfg.quality
    };
    cfg.quality(quality)
}

/// Construct a ZMSQ with explicit tuning (the Fig. 3 / Fig. 8 sweeps).
pub fn make_zmsq<V: Send + 'static>(
    batch: usize,
    target_len: usize,
    array_set: bool,
    reclamation: Reclamation,
) -> BoxedQueue<V> {
    make_zmsq_set(
        batch,
        target_len,
        if array_set { "array" } else { "list" },
        reclamation,
    )
}

/// Construct a tuned ZMSQ with an explicit set representation
/// (`"list"`, `"array"` or `"deque"`; anything else builds the list).
pub fn make_zmsq_set<V: Send + 'static>(
    batch: usize,
    target_len: usize,
    set: &str,
    reclamation: Reclamation,
) -> BoxedQueue<V> {
    let cfg = listing2(
        ZmsqConfig::default()
            .batch(batch)
            .target_len(target_len)
            .reclamation(reclamation),
    );
    match set {
        "array" => Box::new(Zmsq::<V, ArraySet<V>, TatasLock>::with_config(cfg)),
        "deque" => Box::new(Zmsq::<V, DequeSet<V>, TatasLock>::with_config(cfg)),
        _ => Box::new(ZmsqList::<V>::with_config(cfg)),
    }
}

/// Construct a queue by name. `threads` parameterizes the thread-count-
/// sensitive queues (SprayList spray width, MultiQueue heap count).
///
/// Known names: `zmsq`, `zmsq-array`, `zmsq-deque`, `zmsq-leak`,
/// `zmsq-wait`, `zmsq-strict`, `zmsq-sharded`, `zmsq-sharded-adaptive`,
/// `mound`, `spraylist`, `multiqueue`, `klsm`, `coarse-heap`,
/// `skiplist-strict`, `fifo`.
///
/// `zmsq` and its `-leak`/`-wait`/`-strict` variants are the paper's
/// list-set queue, pinned explicitly so the paper figures do not follow
/// `Zmsq`'s default set (the sorted ring, `zmsq-deque`). `zmsq`,
/// `zmsq-array` and `zmsq-deque` are likewise pinned to the paper's
/// hazard-pointer pool ("ZMSQ"), not the default buffer ring (`-wait`).
/// All five refill the pool as Listing 2 does ([`listing2`]). The
/// sharded kinds use the defaults.
pub fn make_queue<V: Send + 'static>(kind: &str, threads: usize) -> BoxedQueue<V> {
    let default = ZmsqConfig::default(); // batch=48, targetLen=72 (§4.2)
    let paper = |reclamation| listing2(ZmsqConfig::default().reclamation(reclamation));
    match kind {
        "zmsq" => Box::new(ZmsqList::<V>::with_config(paper(Reclamation::Hazard))),
        "zmsq-array" => Box::new(Zmsq::<V, ArraySet<V>, TatasLock>::with_config(paper(
            Reclamation::Hazard,
        ))),
        "zmsq-deque" => Box::new(Zmsq::<V, DequeSet<V>, TatasLock>::with_config(paper(
            Reclamation::Hazard,
        ))),
        "zmsq-leak" => Box::new(ZmsqList::<V>::with_config(paper(Reclamation::Leak))),
        "zmsq-wait" => Box::new(ZmsqList::<V>::with_config(paper(Reclamation::ConsumerWait))),
        "zmsq-strict" => Box::new(ZmsqList::<V>::with_config(ZmsqConfig::strict())),
        "zmsq-sharded" => Box::new(zmsq::ShardedZmsq::<V>::new(threads.max(2) / 2, default)),
        "zmsq-sharded-adaptive" => Box::new(zmsq::ShardedZmsq::<V>::new(
            threads.max(2) / 2,
            default.batch(16).adaptive_batch(4, 64),
        )),
        "mound" => Box::new(Mound::<V>::new()),
        "spraylist" => Box::new(SprayList::<V>::new(threads)),
        "multiqueue" => Box::new(MultiQueue::<V>::new(threads, 2)),
        "klsm" => Box::new(KLsm::<V>::new(256)),
        "coarse-heap" => Box::new(CoarseHeap::<V>::new()),
        "skiplist-strict" => Box::new(StrictSkiplistPq::<V>::new()),
        "fifo" => Box::new(FifoQueue::<V>::new()),
        other => panic!("unknown queue kind {other:?}"),
    }
}

/// Construct one of the shootout's tunable bases with explicit
/// stickiness / buffer depths (0 = knob off). Known bases:
/// `zmsq-sharded`, `zmsq-sharded-adaptive`, `multiqueue`. Every queue
/// comes with its live rank estimator armed (sampling shift 6, the
/// `ZmsqConfig` default) so the sweep can read `quality.est_rank`
/// without an oracle in the hot path.
pub fn make_tuned_queue<V: Send + 'static>(
    base: &str,
    threads: usize,
    stickiness: usize,
    insert_buffer: usize,
    delete_buffer: usize,
) -> BoxedQueue<V> {
    let tuning = zmsq::ShardedConfig::new()
        .stickiness(stickiness)
        .insert_buffer(insert_buffer)
        .delete_buffer(delete_buffer);
    let default = ZmsqConfig::default();
    match base {
        "zmsq-sharded" => Box::new(zmsq::ShardedZmsq::<V>::with_tuning(
            threads.max(2) / 2,
            default,
            tuning,
        )),
        "zmsq-sharded-adaptive" => Box::new(zmsq::ShardedZmsq::<V>::with_tuning(
            threads.max(2) / 2,
            default.batch(16).adaptive_batch(4, 64),
            tuning,
        )),
        "multiqueue" => {
            Box::new(MultiQueue::<V>::with_tuning(threads, 2, tuning).rank_estimator(6))
        }
        other => panic!("unknown tunable base {other:?}"),
    }
}

/// The shootout's tunable bases (each accepts stickiness and buffer
/// depths through [`make_tuned_queue`]).
pub const SHOOTOUT_BASES: &[&str] = &["zmsq-sharded", "zmsq-sharded-adaptive", "multiqueue"];

/// The paper's Fig. 5 lineup.
pub const FIG5_QUEUES: &[&str] = &[
    "zmsq",
    "zmsq-array",
    "zmsq-deque",
    "zmsq-leak",
    "mound",
    "spraylist",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_constructs_and_roundtrips() {
        for kind in [
            "zmsq",
            "zmsq-array",
            "zmsq-deque",
            "zmsq-leak",
            "zmsq-wait",
            "zmsq-strict",
            "zmsq-sharded",
            "zmsq-sharded-adaptive",
            "mound",
            "spraylist",
            "multiqueue",
            "klsm",
            "coarse-heap",
            "skiplist-strict",
            "fifo",
        ] {
            let q: BoxedQueue<u64> = make_queue(kind, 4);
            q.insert(5, 50);
            q.insert(9, 90);
            let mut got = Vec::new();
            while let Some((k, _)) = q.extract_max() {
                got.push(k);
            }
            got.sort_unstable();
            assert_eq!(got, vec![5, 9], "{kind} lost elements");
            assert!(!q.name().is_empty());
        }
        // The paper arms measure the list set and hazard pointers,
        // whatever `Zmsq`'s defaults are.
        assert_eq!(make_queue::<u64>("zmsq", 2).name(), "zmsq-list");
        assert_eq!(make_queue::<u64>("zmsq-array", 2).name(), "zmsq-array");
        assert_eq!(make_queue::<u64>("zmsq-deque", 2).name(), "zmsq-deque");
        assert_eq!(make_queue::<u64>("zmsq-leak", 2).name(), "zmsq-list-leak");
        assert_eq!(make_queue::<u64>("zmsq-wait", 2).name(), "zmsq-list-wait");
        assert_eq!(
            make_queue::<u64>("zmsq-strict", 2).name(),
            "zmsq-list-strict"
        );
    }

    #[test]
    #[should_panic(expected = "unknown queue kind")]
    fn unknown_kind_panics() {
        let _ = make_queue::<u64>("nope", 1);
    }

    #[test]
    fn tuned_bases_construct_and_roundtrip() {
        for base in SHOOTOUT_BASES {
            for (c, ins, del) in [(0, 0, 0), (1, 8, 8), (16, 64, 64)] {
                let q: BoxedQueue<u64> = make_tuned_queue(base, 4, c, ins, del);
                for i in 0..200u64 {
                    q.insert(i, i);
                }
                q.flush();
                let mut got = 0;
                while q.extract_max().is_some() {
                    got += 1;
                }
                assert_eq!(got, 200, "{base} c{c} i{ins} d{del} lost elements");
                assert!(
                    q.metrics().is_some(),
                    "{base} must expose metrics for the rank axis"
                );
            }
        }
    }

    /// Pool hits after ascending inserts and a full drain: ascending keys
    /// always land in the root, so the tree, and with it the count, is
    /// fixed by the set type and the refill form.
    fn drained_pool_hits(q: &BoxedQueue<u64>) -> u64 {
        for k in 0..3000 {
            q.insert(k, k);
        }
        while q.extract_max().is_some() {}
        let snap = q.metrics().expect("zmsq exports metrics");
        snap.counter("zmsq.pool_hits").expect("pool_hits exported")
    }

    fn reference<S: zmsq::NodeSet<u64> + 'static>(merge_refill: bool) -> u64 {
        let cfg = ZmsqConfig::default();
        let cfg = if merge_refill { cfg } else { listing2(cfg) };
        drained_pool_hits(
            &(Box::new(Zmsq::<u64, S, TatasLock>::with_config(cfg)) as BoxedQueue<u64>),
        )
    }

    #[test]
    fn paper_kinds_refill_as_listing_2() {
        let [list, array, deque] = [
            (
                reference::<zmsq::ListSet<u64>>(false),
                reference::<zmsq::ListSet<u64>>(true),
            ),
            (
                reference::<ArraySet<u64>>(false),
                reference::<ArraySet<u64>>(true),
            ),
            (
                reference::<DequeSet<u64>>(false),
                reference::<DequeSet<u64>>(true),
            ),
        ]
        .map(|(root_only, merge)| {
            assert_ne!(
                root_only, merge,
                "the drain must tell the refill forms apart"
            );
            root_only
        });
        let paper = [
            ("zmsq", list),
            ("zmsq-array", array),
            ("zmsq-deque", deque),
            ("zmsq-leak", list),
            ("zmsq-wait", list),
        ];
        for (kind, want) in paper {
            assert_eq!(drained_pool_hits(&make_queue(kind, 2)), want, "{kind}");
        }
        for (set, want) in [("list", list), ("array", array), ("deque", deque)] {
            let q = make_zmsq_set(48, 72, set, Reclamation::Hazard);
            assert_eq!(drained_pool_hits(&q), want, "make_zmsq_set {set}");
        }
        let q = make_zmsq(48, 72, false, Reclamation::Hazard);
        assert_eq!(drained_pool_hits(&q), list, "make_zmsq");
    }

    #[test]
    fn tuned_zmsq_applies_config() {
        let q = make_zmsq::<u64>(8, 16, false, Reclamation::Leak);
        for i in 0..100 {
            q.insert(i, i);
        }
        assert_eq!(q.name(), "zmsq-list-leak");
        let mut n = 0;
        while q.extract_max().is_some() {
            n += 1;
        }
        assert_eq!(n, 100);
    }
}
