//! Ablation of ZMSQ's §3.2 insertion-quality mechanisms.
//!
//! DESIGN.md calls out two quality mechanisms layered on the mound:
//! forced non-max insertion and the parent-min swap. This harness
//! disables each in turn, and separately the merge refill (`no-merge`:
//! Listing 2's root-only refill), and reports what they buy, on three
//! metrics:
//!
//! * **set density** — mean/σ of non-leaf set sizes after a mixed
//!   workload (§3.2's stability metric; the mound degenerates to ~1);
//! * **accuracy** — Table-1-style top-rank hit rate;
//! * **throughput** — 50/50 mixed ops/sec.
//!
//! Usage: ablation [--ops N] [--threads T] [--quick]

use bench::cli::Args;
use workloads::accuracy::measure_accuracy;
use workloads::keys::{distinct_keys, KeyDist};
use workloads::mixed::{run_mixed, MixedConfig};
use zmsq::{QualityOpts, Zmsq, ZmsqConfig};

fn variant(name: &str) -> (String, ZmsqConfig) {
    let base = ZmsqConfig::default().batch(32).target_len(32);
    let q = match name {
        "full" => QualityOpts::default(),
        "no-forced" => QualityOpts {
            forced_insert: false,
            ..Default::default()
        },
        "no-minswap" => QualityOpts {
            parent_min_swap: false,
            ..Default::default()
        },
        "neither" => QualityOpts {
            forced_insert: false,
            parent_min_swap: false,
            ..Default::default()
        },
        "no-merge" => QualityOpts {
            merge_refill: false,
            ..Default::default()
        },
        _ => unreachable!(),
    };
    (name.to_string(), base.quality(q))
}

fn main() {
    let args = Args::parse(&["quick", "ops", "threads"]);
    let quick = args.get_bool("quick");
    let ops: u64 = args.get_num("ops", if quick { 200_000 } else { 2_000_000 });
    let threads: usize = args.get_num("threads", 2);

    bench::csv_header(&[
        "variant",
        "set_mean",
        "set_std",
        "nonempty_nodes",
        "accuracy_10pct",
        "mixed_mops",
        "forced_inserts",
        "min_swaps",
    ]);
    for name in ["full", "no-forced", "no-minswap", "neither", "no-merge"] {
        let (label, cfg) = variant(name);

        // Density after a mixed workload (the §3.2 protocol, scaled).
        let mut q: Zmsq<u64> = Zmsq::with_config(cfg.clone());
        let mut keys = workloads::keys::KeyStream::new(
            KeyDist::Normal {
                mean: 5e8,
                std_dev: 5e7,
            },
            7,
        );
        let prefill = ops / 8;
        for _ in 0..prefill {
            let k = keys.next_key();
            q.insert(k, k);
        }
        for _ in 0..ops / 4 {
            let k = keys.next_key();
            q.insert(k, k);
            q.extract_max();
        }
        let density = q.set_size_stats();
        let stats = q.stats();

        // Accuracy (Table 1 protocol, 10% of 8K).
        let qa: Zmsq<u64> = Zmsq::with_config(cfg.clone());
        let acc_keys = distinct_keys(8192, 99);
        let acc = measure_accuracy(&qa, &acc_keys, 819, 1);

        // Mixed throughput.
        let qt: Zmsq<u64> = Zmsq::with_config(cfg);
        let r = run_mixed(
            &qt,
            &MixedConfig {
                total_ops: ops,
                threads,
                insert_pct: 50,
                prefill,
                keys: KeyDist::UniformBits { bits: 20 },
                seed: 3,
            },
        );

        println!(
            "{label},{:.2},{:.2},{},{:.4},{:.3},{},{}",
            density.mean,
            density.std_dev,
            density.nonempty_nodes,
            acc.hit_rate(),
            r.ops_per_sec() / 1e6,
            stats.forced_inserts,
            stats.min_swap_inserts,
        );
    }
}
