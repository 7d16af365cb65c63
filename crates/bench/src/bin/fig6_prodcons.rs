//! Figure 6 — producer/consumer ratios (§4.5.2).
//!
//! Dedicated producers and consumers transfer 1M items through an
//! initially empty queue; the ratio varies. Blocking is disabled
//! (SprayList has none), so all consumers spin — what Fig. 6 measures is
//! how reliably `extract_max` hands out elements: SprayList consumers
//! "make multiple extractMax() calls just to get one element", visible
//! here in the `misses` column.
//!
//! Usage: fig6_prodcons [--items N] [--ratios 1:1,1:2,2:1,1:4,4:1,1:8]
//!                      [--queues zmsq,mound,spraylist] [--quick]

use bench::cli::Args;
use bench::queues::make_queue;
use workloads::keys::KeyDist;
use workloads::prodcons::{run_prodcons_spin, ProdConsConfig};

fn main() {
    let args = Args::parse(&["quick", "items", "ratios", "queues"]);
    let quick = args.get_bool("quick");
    let items: u64 = args.get_num("items", if quick { 50_000 } else { 1_000_000 });
    let ratios_arg = args.get("ratios", "1:1,2:1,1:2,4:1,1:4,8:1,1:8");
    let queues_arg = args.get("queues", "zmsq,mound,spraylist");

    let ratios: Vec<(usize, usize)> = ratios_arg
        .split(',')
        .map(|r| {
            let (p, c) = r.trim().split_once(':').expect("ratio like 2:1");
            (p.parse().unwrap(), c.parse().unwrap())
        })
        .collect();

    bench::csv_header(&[
        "queue",
        "producers",
        "consumers",
        "items",
        "wall_ms",
        "throughput_mops",
        "mean_handoff_ns",
        "extract_misses",
    ]);
    for &(p, c) in &ratios {
        for kind in queues_arg.split(',') {
            let kind = kind.trim();
            let q = make_queue::<u64>(kind, p + c);
            let cfg = ProdConsConfig {
                producers: p,
                consumers: c,
                total_items: items,
                keys: KeyDist::UniformBits { bits: 20 },
                seed: 0xF166,
            };
            let r = run_prodcons_spin(&q, &cfg);
            assert_eq!(r.received, items, "{kind} lost items");
            println!(
                "{},{p},{c},{items},{:.1},{:.3},{:.0},{}",
                q.name(),
                r.elapsed.as_secs_f64() * 1e3,
                items as f64 / r.elapsed.as_secs_f64() / 1e6,
                r.mean_handoff_ns,
                r.misses
            );
        }
    }
}
