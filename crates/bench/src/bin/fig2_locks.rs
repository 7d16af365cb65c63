//! Figure 2 — lock implementations (§4.1).
//!
//! "In Figure 2, we run 1M operations on a ZMSQ configured with
//! batch = 32 and targetLen = 32. In Figure 2a, all operations are
//! inserts, the queue is initially empty, and keys are chosen from a
//! normal distribution. In Figure 2b, there is an even mix of insert()
//! and extractMax() operations, and the queue is initialized with 1M
//! keys. We compare three locks: the C++ std::mutex, a test-and-set
//! (TAS) trylock, and a test-and-test-and-set (TATAS) trylock."
//!
//! Usage:
//!   fig2_locks [--mix insert|half] [--threads 1,2,4,...] [--ops N]
//!              [--quick] [--stats]

use bench::cli::Args;
use workloads::keys::KeyDist;
use workloads::mixed::{run_mixed, MixedConfig};
use zmsq::{LockStrategy, OsLock, RawTryLock, Reclamation, TasLock, TatasLock, Zmsq, ZmsqConfig};

fn run_one<L: RawTryLock + 'static>(
    strategy: LockStrategy,
    mix: &str,
    threads: usize,
    ops: u64,
    stats: bool,
) -> (f64, String) {
    // The paper's ZMSQ arm: hazard-pointer pool, not the default ring,
    // and Listing 2's root-only refill.
    let cfg = bench::queues::listing2(
        ZmsqConfig::default()
            .reclamation(Reclamation::Hazard)
            .batch(32)
            .target_len(32)
            .lock_strategy(strategy),
    );
    let q: Zmsq<u64, zmsq::ListSet<u64>, L> = Zmsq::with_config(cfg);
    let (insert_pct, prefill, keys) = match mix {
        "insert" => (
            100,
            0,
            KeyDist::Normal {
                mean: (1u64 << 19) as f64,
                std_dev: (1u64 << 16) as f64,
            },
        ),
        "half" => (
            50,
            ops,
            KeyDist::Normal {
                mean: (1u64 << 19) as f64,
                std_dev: (1u64 << 16) as f64,
            },
        ),
        other => panic!("unknown mix {other:?} (use insert|half)"),
    };
    let wcfg = MixedConfig {
        total_ops: ops,
        threads,
        insert_pct,
        prefill,
        keys,
        seed: 0xF162,
    };
    let r = run_mixed(&q, &wcfg);
    let extra = if stats {
        let s = q.stats();
        format!(
            "{:.4},{},{}",
            s.trylock_fails as f64 / (s.inserts + s.extracts).max(1) as f64,
            s.insert_retries,
            s.splits
        )
    } else {
        String::new()
    };
    (r.ops_per_sec() / 1e6, extra)
}

fn main() {
    let args = Args::parse(&["quick", "ops", "threads", "mix", "stats"]);
    let quick = args.get_bool("quick");
    let ops: u64 = args.get_num("ops", if quick { 100_000 } else { 1_000_000 });
    let threads = args.get_list(
        "threads",
        if quick {
            &[1, 2, 4]
        } else {
            &[1, 2, 4, 8, 16, 24]
        },
    );
    let mix = args.get("mix", "half");
    let stats = args.get_bool("stats");

    if stats {
        bench::csv_header(&[
            "mix",
            "lock",
            "threads",
            "mops_per_sec",
            "trylock_fail_ratio",
            "insert_retries",
            "splits",
        ]);
    } else {
        bench::csv_header(&["mix", "lock", "threads", "mops_per_sec"]);
    }
    for &t in &threads {
        for lock in ["mutex", "tas", "tatas"] {
            let (mops, extra) = match lock {
                // The std::mutex arm uses blocking acquisition — queuing
                // on the lock is its discipline.
                "mutex" => run_one::<OsLock>(LockStrategy::Blocking, &mix, t, ops, stats),
                "tas" => run_one::<TasLock>(LockStrategy::TryRestart, &mix, t, ops, stats),
                "tatas" => run_one::<TatasLock>(LockStrategy::TryRestart, &mix, t, ops, stats),
                _ => unreachable!(),
            };
            if stats {
                println!("{mix},{lock},{t},{mops:.3},{extra}");
            } else {
                println!("{mix},{lock},{t},{mops:.3}");
            }
        }
    }
}
