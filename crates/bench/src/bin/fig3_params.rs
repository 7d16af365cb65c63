//! Figure 3 — how `batch` and `targetLen` interact (§4.2).
//!
//! Two families:
//! * **dynamic (b:t)** — both scale with the thread count; the smaller of
//!   the two equals the thread count and the ratio is fixed (e.g. at 8
//!   threads, dynamic 1:1.5 is batch=8, targetLen=12).
//! * **static (n)** — batch = targetLen = n at every thread count.
//!
//! Plus the mound as the unrelaxed reference. Fig. 3a is 100% inserts,
//! Fig. 3b the 50/50 mix.
//!
//! Usage: fig3_params [--mix insert|half] [--threads ...] [--ops N] [--quick]

use bench::cli::Args;
use bench::queues::{make_queue, make_zmsq};
use workloads::keys::KeyDist;
use workloads::mixed::{run_mixed, MixedConfig};
use zmsq::Reclamation;

/// (label, batch, target_len) for one dynamic ratio at `t` threads: the
/// smaller of the two equals `t`, floored at 8 — below that the split
/// cascade degenerates into unbounded tree digging (the paper itself
/// observes tiny targetLen makes the structure "resemble a heap"; our
/// floor keeps the degenerate region runnable while preserving the
/// dynamic-vs-static comparison).
fn dynamic_cfg(ratio: (usize, usize), t: usize) -> (usize, usize) {
    let (rb, rt) = ratio;
    let base = t.max(8);
    if rb <= rt {
        (base, base * rt / rb)
    } else {
        (base * rb / rt, base)
    }
}

fn main() {
    let args = Args::parse(&["quick", "ops", "threads", "mix"]);
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
    let (insert_pct, prefill) = match mix.as_str() {
        "insert" => (100u32, 0u64),
        "half" => (50, ops),
        other => panic!("unknown mix {other:?}"),
    };

    // The paper's seven ZMSQ configurations plus the mound.
    let dynamic_ratios: &[(&str, (usize, usize))] = &[
        ("dynamic-1:1.5", (2, 3)),
        ("dynamic-1:1", (1, 1)),
        ("dynamic-1:2", (1, 2)),
        ("dynamic-2:1", (2, 1)),
    ];
    let statics: &[usize] = &[32, 64, 96];

    bench::csv_header(&[
        "mix",
        "config",
        "threads",
        "batch",
        "target_len",
        "mops_per_sec",
    ]);
    for &t in &threads {
        let wcfg = MixedConfig {
            total_ops: ops,
            threads: t,
            insert_pct,
            prefill,
            keys: KeyDist::UniformBits { bits: 20 },
            seed: 0xF163,
        };
        for &(label, ratio) in dynamic_ratios {
            let (b, tl) = dynamic_cfg(ratio, t);
            let q = make_zmsq::<u64>(b, tl, false, Reclamation::Hazard);
            let r = run_mixed(&q, &wcfg);
            println!("{mix},{label},{t},{b},{tl},{:.3}", r.ops_per_sec() / 1e6);
        }
        for &n in statics {
            let q = make_zmsq::<u64>(n, n, false, Reclamation::Hazard);
            let r = run_mixed(&q, &wcfg);
            println!("{mix},static-{n},{t},{n},{n},{:.3}", r.ops_per_sec() / 1e6);
        }
        let mound = make_queue::<u64>("mound", t);
        let r = run_mixed(&mound, &wcfg);
        println!("{mix},mound,{t},0,0,{:.3}", r.ops_per_sec() / 1e6);
    }
}
