//! Figure 5 — micro-benchmarks: ZMSQ (+array/+leak) vs Mound vs
//! SprayList (§4.5.1).
//!
//! 2M operations on an initially empty queue:
//!   * Fig. 5a: 100% inserts (`--mix insert`)
//!   * Fig. 5b: 66% inserts (`--mix two-thirds`)
//!   * Fig. 5c: 50/50 with 20-bit keys (`--mix half`); the in-text 7-bit
//!     variant via `--key-bits 7`.
//!
//! ZMSQ runs the recommended static (48, 72) configuration; pass
//! `--queues` to change the lineup (extras: multiqueue, klsm,
//! coarse-heap, skiplist-strict).
//!
//! Usage: fig5_micro [--mix insert|two-thirds|half] [--threads ...]
//!                   [--ops N] [--key-bits 20] [--queues a,b,c] [--quick]

use bench::cli::Args;
use bench::queues::{make_queue, FIG5_QUEUES};
use workloads::keys::KeyDist;
use workloads::mixed::{run_mixed, MixedConfig};

fn main() {
    let args = Args::parse(&["quick", "ops", "threads", "mix", "key-bits", "queues"]);
    let quick = args.get_bool("quick");
    let ops: u64 = args.get_num("ops", if quick { 100_000 } else { 2_000_000 });
    let threads = args.get_list(
        "threads",
        if quick {
            &[1, 2, 4]
        } else {
            &[1, 2, 4, 8, 16, 24]
        },
    );
    let mix = args.get("mix", "half");
    let key_bits: u32 = args.get_num("key-bits", 20);
    let queues_arg = args.get("queues", "");
    let queues: Vec<String> = if queues_arg.is_empty() {
        FIG5_QUEUES.iter().map(|s| s.to_string()).collect()
    } else {
        queues_arg
            .split(',')
            .map(|s| s.trim().to_string())
            .collect()
    };

    let insert_pct = match mix.as_str() {
        "insert" => 100,
        "two-thirds" => 66,
        "half" => 50,
        other => panic!("unknown mix {other:?}"),
    };

    bench::csv_header(&[
        "mix",
        "queue",
        "threads",
        "key_bits",
        "mops_per_sec",
        "extract_misses",
    ]);
    for &t in &threads {
        for kind in &queues {
            let q = make_queue::<u64>(kind, t);
            let wcfg = MixedConfig {
                total_ops: ops,
                threads: t,
                insert_pct,
                prefill: 0,
                keys: KeyDist::UniformBits { bits: key_bits },
                seed: 0xF165,
            };
            let r = run_mixed(&q, &wcfg);
            println!(
                "{mix},{},{t},{key_bits},{:.3},{}",
                q.name(),
                r.ops_per_sec() / 1e6,
                r.extract_misses
            );
        }
    }
}
