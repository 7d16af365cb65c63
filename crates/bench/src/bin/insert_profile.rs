//! Insert-path cost attribution (diagnostic used in EXPERIMENTS.md):
//! throughput of 500K list-set inserts with each §3.2 mechanism toggled,
//! plus the default sorted-ring set (`DequeSet`) that makes the min-swap
//! cheap.

fn main() {
    use zmsq::{QualityOpts, ZmsqConfig, ZmsqDeque, ZmsqList};
    for (label, cfg) in [
        ("48-72 full", ZmsqConfig::default().batch(48).target_len(72)),
        ("16-24 full", ZmsqConfig::default().batch(16).target_len(24)),
        (
            "48-72 no-minswap",
            ZmsqConfig::default()
                .batch(48)
                .target_len(72)
                .quality(QualityOpts {
                    parent_min_swap: false,
                    ..Default::default()
                }),
        ),
        (
            "48-72 neither",
            ZmsqConfig::default()
                .batch(48)
                .target_len(72)
                .quality(QualityOpts {
                    parent_min_swap: false,
                    forced_insert: false,
                }),
        ),
    ] {
        let q: ZmsqList<u64> = ZmsqList::with_config(cfg);
        run(label, &q);
    }
    let q: ZmsqDeque<u64> = ZmsqDeque::with_config(ZmsqConfig::default().batch(48).target_len(72));
    run("48-72 deque full", &q);
}

fn run<S, L>(label: &str, q: &zmsq::Zmsq<u64, S, L>)
where
    S: zmsq::NodeSet<u64> + 'static,
    L: zmsq::RawTryLock + 'static,
{
    use std::time::Instant;
    {
        let mut x = 0xABCDEFu64;
        let t0 = Instant::now();
        for _ in 0..500_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.insert(x & 0xFFFFF, x);
        }
        let el = t0.elapsed();
        let s = q.stats();
        println!(
            "{label}: {:.3} Mops | min_swaps={} forced={} splits={} retries={}",
            0.5 / el.as_secs_f64(),
            s.min_swap_inserts,
            s.forced_inserts,
            s.splits,
            s.insert_retries
        );
    }
}
