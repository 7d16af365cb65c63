//! Figure 4 — blocking vs. spinning consumers (§4.4).
//!
//! Producer/consumer handoffs on an initially empty ZMSQ (batch = 32),
//! with a fixed producer count and a consumer sweep. Reports the handoff
//! latency (Fig. 4a) and the process CPU time for the full transfer
//! (Fig. 4b) for both consumer disciplines. The paper's headline: spin
//! wins below core saturation, blocking wins (both metrics) beyond it.
//!
//! Usage: fig4_blocking [--producers 4] [--consumers 2,4,...] [--items N] [--quick]

use bench::cli::Args;
use workloads::keys::KeyDist;
use workloads::prodcons::{run_prodcons_blocking, run_prodcons_spin, ProdConsConfig};
use zmsq::{Reclamation, Zmsq, ZmsqConfig};

/// The paper's ZMSQ arm: hazard-pointer pool, not the default ring, and
/// Listing 2's root-only refill.
fn paper_zmsq() -> ZmsqConfig {
    bench::queues::listing2(ZmsqConfig::default().reclamation(Reclamation::Hazard))
}

fn main() {
    let args = Args::parse(&["quick", "producers", "consumers", "items"]);
    let quick = args.get_bool("quick");
    let producers: usize = args.get_num("producers", 4);
    let consumers = args.get_list(
        "consumers",
        if quick {
            &[2, 8]
        } else {
            &[2, 4, 8, 16, 32, 64, 128, 256]
        },
    );
    let items: u64 = args.get_num("items", if quick { 50_000 } else { 1_000_000 });

    bench::csv_header(&[
        "mode",
        "producers",
        "consumers",
        "items",
        "mean_handoff_ns",
        "p50_handoff_ns",
        "p99_handoff_ns",
        "cpu_time_ms",
        "wall_ms",
    ]);
    for &c in &consumers {
        let cfg = ProdConsConfig {
            producers,
            consumers: c,
            total_items: items,
            keys: KeyDist::UniformBits { bits: 20 },
            seed: 0xF164,
        };
        // Spinning consumers.
        {
            let q: Zmsq<u64> = Zmsq::with_config(paper_zmsq().batch(32).target_len(48));
            let r = run_prodcons_spin(&q, &cfg);
            assert_eq!(r.received, items);
            println!(
                "spin,{producers},{c},{items},{:.0},{},{},{:.1},{:.1}",
                r.mean_handoff_ns,
                r.p50_handoff_ns,
                r.p99_handoff_ns,
                r.cpu_time.as_secs_f64() * 1e3,
                r.elapsed.as_secs_f64() * 1e3
            );
        }
        // Blocking consumers (futex buffer of §3.6).
        {
            let q: Zmsq<u64> =
                Zmsq::with_config(paper_zmsq().batch(32).target_len(48).blocking(true));
            let r = run_prodcons_blocking(&q, &cfg);
            assert_eq!(r.received, items);
            println!(
                "block,{producers},{c},{items},{:.0},{},{},{:.1},{:.1}",
                r.mean_handoff_ns,
                r.p50_handoff_ns,
                r.p99_handoff_ns,
                r.cpu_time.as_secs_f64() * 1e3,
                r.elapsed.as_secs_f64() * 1e3
            );
        }
    }
}
