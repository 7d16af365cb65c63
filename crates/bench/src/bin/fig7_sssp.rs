//! Figure 7 — single-source shortest paths (§4.6).
//!
//! Concurrent SSSP over power-law stand-ins for the paper's Facebook
//! graphs: "Artist" (50K nodes) and "Politician" (6K nodes) — see
//! DESIGN.md substitution #1. ZMSQ uses the SSSP-tuned (batch=42,
//! targetLen=64) configuration from §4.7. Results are validated against
//! sequential Dijkstra on every run.
//!
//! Usage: fig7_sssp [--graph artist|politician|both] [--threads ...]
//!                  [--queues zmsq,zmsq-array,zmsq-leak,mound,spraylist]
//!                  [--runs N] [--quick]

use bench::cli::Args;
use bench::queues::{make_queue, make_zmsq_set};
use zmsq_graph::{gen, parallel_sssp, sequential_sssp, CsrGraph};

fn queue_for(kind: &str, threads: usize) -> bench::queues::BoxedQueue<u32> {
    match kind {
        // §4.6: "ZMSQ used batch = 42 and targetLen = 64".
        "zmsq" => make_zmsq_set(42, 64, "list", zmsq::Reclamation::Hazard),
        "zmsq-array" => make_zmsq_set(42, 64, "array", zmsq::Reclamation::Hazard),
        "zmsq-deque" => make_zmsq_set(42, 64, "deque", zmsq::Reclamation::Hazard),
        "zmsq-leak" => make_zmsq_set(42, 64, "list", zmsq::Reclamation::Leak),
        other => make_queue(other, threads),
    }
}

fn run_graph(name: &str, graph: &CsrGraph, args: &Args) {
    let quick = args.get_bool("quick");
    let threads = args.get_list(
        "threads",
        if quick {
            &[1, 2, 4]
        } else {
            &[1, 2, 4, 8, 16, 24]
        },
    );
    let queues_arg = args.get("queues", "zmsq,zmsq-array,zmsq-leak,mound,spraylist");
    let runs: usize = args.get_num("runs", if quick { 1 } else { 3 });

    let source = graph.max_degree_node();
    let reference = sequential_sssp(graph, source);

    for &t in &threads {
        for kind in queues_arg.split(',') {
            let kind = kind.trim();
            let mut total_ms = 0.0;
            let mut waste = 0.0;
            for _ in 0..runs {
                let q = queue_for(kind, t);
                let r = parallel_sssp(graph, source, &q, t);
                assert_eq!(r.dist, reference, "{kind} produced wrong distances");
                total_ms += r.elapsed.as_secs_f64() * 1e3;
                waste += r.waste_ratio();
            }
            println!(
                "{name},{kind},{t},{:.1},{:.4}",
                total_ms / runs as f64,
                waste / runs as f64
            );
        }
    }
}

fn main() {
    let args = Args::parse(&["quick", "graph", "threads", "queues", "runs"]);
    let which = args.get("graph", "both");
    bench::csv_header(&["graph", "queue", "threads", "time_ms", "waste_ratio"]);
    if which == "artist" || which == "both" {
        let g = if args.get_bool("quick") {
            gen::barabasi_albert(10_000, 12, 100, 7)
        } else {
            gen::paper::artist_like(7)
        };
        run_graph("artist", &g, &args);
    }
    if which == "politician" || which == "both" {
        let g = gen::paper::politician_like(7);
        run_graph("politician", &g, &args);
    }
}
