//! Figure 8 — tuning ZMSQ on a LiveJournal-scale SSSP (§4.7).
//!
//! Seven (batch, targetLen) configurations, plus the leaky and array
//! variants of the best one (42, 64), plus the SprayList, on a power-law
//! stand-in for the 3.8M-node LiveJournal graph. `--scale` shrinks the
//! graph proportionally (default 0.05 ≈ 190K nodes; use `--scale 1` for
//! the full paper-size run).
//!
//! Usage: fig8_tuning [--scale 0.05] [--threads ...] [--runs N] [--quick]

use bench::cli::Args;
use bench::queues::{make_queue, make_zmsq};
use zmsq::Reclamation;
use zmsq_graph::{gen, parallel_sssp, sequential_sssp};

fn main() {
    let args = Args::parse(&["quick", "scale", "threads", "runs"]);
    let quick = args.get_bool("quick");
    let scale: f64 = args.get_num("scale", if quick { 0.005 } else { 0.05 });
    let threads = args.get_list(
        "threads",
        if quick {
            &[1, 2, 4]
        } else {
            &[1, 2, 4, 8, 12, 16, 24]
        },
    );
    let runs: usize = args.get_num("runs", 1);

    eprintln!("# generating LiveJournal-like graph at scale {scale}...");
    let graph = gen::paper::livejournal_like(scale, 11);
    eprintln!(
        "# graph: {} nodes, {} edges (avg degree {:.1})",
        graph.num_nodes(),
        graph.num_edges(),
        graph.avg_degree()
    );
    let source = graph.max_degree_node();
    let reference = sequential_sssp(&graph, source);

    // The seven curves of Fig. 8 (a programmer's refinement search around
    // batch≈targetLen ratios), as described in §4.7.
    let configs: &[(usize, usize)] = &[
        (16, 24),
        (24, 36),
        (32, 48),
        (42, 64),
        (48, 72),
        (64, 96),
        (84, 128),
    ];

    bench::csv_header(&["config", "threads", "time_ms", "waste_ratio"]);
    for &t in &threads {
        for &(b, tl) in configs {
            let mut ms = 0.0;
            let mut waste = 0.0;
            for _ in 0..runs {
                let q = make_zmsq::<u32>(b, tl, false, Reclamation::Hazard);
                let r = parallel_sssp(&graph, source, &q, t);
                assert_eq!(r.dist, reference, "zmsq({b},{tl}) wrong distances");
                ms += r.elapsed.as_secs_f64() * 1e3;
                waste += r.waste_ratio();
            }
            println!(
                "zmsq-{b}-{tl},{t},{:.1},{:.4}",
                ms / runs as f64,
                waste / runs as f64
            );
        }
        // The best config's leak and array variants, plus the SprayList.
        for (label, array, reclaim) in [
            ("zmsq-42-64-leak", false, Reclamation::Leak),
            ("zmsq-42-64-array", true, Reclamation::Hazard),
        ] {
            let q = make_zmsq::<u32>(42, 64, array, reclaim);
            let r = parallel_sssp(&graph, source, &q, t);
            assert_eq!(r.dist, reference);
            println!(
                "{label},{t},{:.1},{:.4}",
                r.elapsed.as_secs_f64() * 1e3,
                r.waste_ratio()
            );
        }
        let q = make_queue::<u32>("spraylist", t);
        let r = parallel_sssp(&graph, source, &q, t);
        assert_eq!(r.dist, reference, "spraylist wrong distances");
        println!(
            "spraylist,{t},{:.1},{:.4}",
            r.elapsed.as_secs_f64() * 1e3,
            r.waste_ratio()
        );
    }
}
