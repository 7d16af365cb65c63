//! Table 1 — accuracy of ZMSQ vs the SprayList and a FIFO (§4.3).
//!
//! Protocol: initialize with N distinct random keys, execute E
//! extractMax() operations, report how many returned keys rank in the
//! true top E. Table 1a: N = 1K, E ∈ {10%, 50%}. Table 1b: N = 64K,
//! E ∈ {0.1%, 1%, 10%}. ZMSQ sweeps `batch` (targetLen = 64 — accuracy
//! depends only on batch when batch <= targetLen); SprayList sweeps its
//! thread parameter, since that is what its spray width depends on.
//!
//! Usage: table1_accuracy [--size 1024|65536|both] [--runs N] [--quick]

use bench::cli::Args;
use bench::queues::{make_queue, make_zmsq};
use workloads::accuracy::measure_accuracy;
use workloads::keys::distinct_keys;
use zmsq::Reclamation;

fn main() {
    let args = Args::parse(&["quick", "runs", "size"]);
    let quick = args.get_bool("quick");
    let runs: usize = args.get_num("runs", if quick { 3 } else { 15 });
    let size_arg = args.get("size", "both");
    let sizes: Vec<usize> = match size_arg.as_str() {
        "both" => vec![1024, 65_536],
        s => vec![s.parse().expect("numeric --size")],
    };

    let zmsq_batches = [1usize, 4, 8, 16, 32, 64];
    let spray_threads = [1usize, 2, 4, 8, 16, 32, 64];

    bench::csv_header(&[
        "table",
        "queue",
        "param",
        "queue_size",
        "extracts",
        "hit_rate",
        "spurious_fails",
    ]);
    for &n in &sizes {
        let table = if n <= 1024 { "1a" } else { "1b" };
        let extract_counts: Vec<usize> = if n <= 1024 {
            vec![n / 10, n / 2] // 10%, 50%
        } else {
            vec![n / 1000, n / 100, n / 10] // 0.1%, 1%, 10%
        };
        for &e in &extract_counts {
            // ZMSQ batch sweep.
            for &batch in &zmsq_batches {
                let mut hits = 0.0;
                let mut spurious = 0u64;
                for run in 0..runs {
                    let keys = distinct_keys(n, 1000 + run as u64);
                    let q = make_zmsq::<u64>(batch, 64, false, Reclamation::Hazard);
                    let r = measure_accuracy(&q, &keys, e, 1);
                    hits += r.hit_rate();
                    spurious += r.spurious_failures;
                }
                println!(
                    "{table},zmsq,batch={batch},{n},{e},{:.4},{spurious}",
                    hits / runs as f64
                );
            }
            // SprayList thread sweep (accuracy depends on T, not on the
            // actual extractor parallelism — §4.3 varies T the same way).
            for &t in &spray_threads {
                let mut hits = 0.0;
                let mut spurious = 0u64;
                for run in 0..runs {
                    let keys = distinct_keys(n, 2000 + run as u64);
                    let q = make_queue::<u64>("spraylist", t);
                    let r = measure_accuracy(&q, &keys, e, 1);
                    hits += r.hit_rate();
                    spurious += r.spurious_failures;
                }
                println!(
                    "{table},spraylist,threads={t},{n},{e},{:.4},{spurious}",
                    hits / runs as f64
                );
            }
            // Extension columns: the relaxed queues the paper only
            // discusses (MultiQueue accuracy depends on its heap count,
            // k-LSM's on k), plus the FIFO floor.
            for &t in &[4usize, 16, 64] {
                let mut hits = 0.0;
                let mut spurious = 0u64;
                for run in 0..runs {
                    let keys = distinct_keys(n, 4000 + run as u64);
                    let q = make_queue::<u64>("multiqueue", t);
                    let r = measure_accuracy(&q, &keys, e, 1);
                    hits += r.hit_rate();
                    spurious += r.spurious_failures;
                }
                println!(
                    "{table},multiqueue,threads={t},{n},{e},{:.4},{spurious}",
                    hits / runs as f64
                );
            }
            {
                let mut hits = 0.0;
                let mut spurious = 0u64;
                for run in 0..runs {
                    let keys = distinct_keys(n, 5000 + run as u64);
                    let q = make_queue::<u64>("klsm", 1);
                    let r = measure_accuracy(&q, &keys, e, 1);
                    hits += r.hit_rate();
                    spurious += r.spurious_failures;
                }
                println!(
                    "{table},klsm,k=256,{n},{e},{:.4},{spurious}",
                    hits / runs as f64
                );
            }
            // FIFO floor.
            let mut hits = 0.0;
            for run in 0..runs {
                let keys = distinct_keys(n, 3000 + run as u64);
                let q = make_queue::<u64>("fifo", 1);
                hits += measure_accuracy(&q, &keys, e, 1).hit_rate();
            }
            println!("{table},fifo,-,{n},{e},{:.4},0", hits / runs as f64);
        }
    }
}
