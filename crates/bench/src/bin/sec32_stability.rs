//! §3.2 in-text experiment — set-size stability under a mixed workload.
//!
//! "We ran an experiment in which the ZMSQ was initialized with 1M
//! elements and targetLen = 32, and then we performed 8M
//! insert()/extractMax() pairs. After initialization, count varied from
//! 32 to 51 across all non-leaf nodes. Upon completion of the
//! experiment, the average count was 32 for all nodes (standard
//! deviation 2.76)."
//!
//! Also contrasts the mound (§2.2: its average list length decays — "the
//! mound becomes a heap"), measured via its element/node ratio.
//!
//! Usage: sec32_stability [--prefill N] [--pairs N] [--target-len 32]
//!                        [--batch B] [--probe-factor F] [--quick]

use bench::cli::Args;
use workloads::keys::{KeyDist, KeyStream};
use zmsq::{Zmsq, ZmsqConfig};

fn main() {
    let args = Args::parse(&[
        "quick",
        "prefill",
        "pairs",
        "target-len",
        "batch",
        "probe-factor",
    ]);
    let quick = args.get_bool("quick");
    let prefill: u64 = args.get_num("prefill", if quick { 100_000 } else { 1_000_000 });
    let pairs: u64 = args.get_num("pairs", if quick { 800_000 } else { 8_000_000 });
    let target_len: usize = args.get_num("target-len", 32);
    let batch: usize = args.get_num("batch", target_len);
    let probe_factor: usize = args.get_num("probe-factor", 1);

    // Listing 2's root-only refill, as in the paper.
    let mut q: Zmsq<u64> = Zmsq::with_config(ZmsqConfig {
        probe_factor,
        ..bench::queues::listing2(ZmsqConfig::default().batch(batch).target_len(target_len))
    });
    let mut keys = KeyStream::new(
        KeyDist::Normal {
            mean: 5e8,
            std_dev: 5e7,
        },
        0x5EC32,
    );

    for _ in 0..prefill {
        let k = keys.next_key();
        q.insert(k, k);
    }
    let init = q.set_size_stats();

    bench::csv_header(&["phase", "nonempty_nodes", "mean", "std_dev", "min", "max"]);
    println!(
        "after_init,{},{:.2},{:.2},{},{}",
        init.nonempty_nodes, init.mean, init.std_dev, init.min, init.max
    );

    for _ in 0..pairs {
        let k = keys.next_key();
        q.insert(k, k);
        q.extract_max();
    }
    let fin = q.set_size_stats();
    println!(
        "after_8m_pairs,{},{:.2},{:.2},{},{}",
        fin.nonempty_nodes, fin.mean, fin.std_dev, fin.min, fin.max
    );
    q.validate_invariants()
        .expect("invariants after stability run");
    let st = q.stats();
    eprintln!(
        "# stats: tree_grows={} splits={} forced={} min_swaps={} retries={}",
        st.tree_grows, st.splits, st.forced_inserts, st.min_swap_inserts, st.insert_retries
    );

    eprintln!("# paper: after completion, average count 32 (std dev 2.76) with targetLen=32");
}
