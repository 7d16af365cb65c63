//! §4.3's transient-accuracy observation, measured directly.
//!
//! "This is because of a brief dip... The first few additions to the ZMSQ
//! are at shallow depths, for which we do not apply our accuracy-
//! improving techniques... This is a transient state during
//! initialization, and it passes quickly, so that by the time 10% of the
//! elements have been extracted, elements are usually of high quality."
//!
//! Protocol: fill with N distinct keys, then drain completely in windows
//! of `window` extractions, reporting each window's hit rate against the
//! true top-`window` of the *remaining* multiset. A transient dip shows
//! up as low hit rates in the first windows, recovering later.
//!
//! Usage: accuracy_transient [--size 65536] [--window 655] [--batch 16] [--quick]

use std::collections::BTreeMap;

use bench::cli::Args;
use bench::queues::make_zmsq;
use workloads::keys::distinct_keys;
use zmsq::Reclamation;

fn main() {
    let args = Args::parse(&["quick", "size", "window", "batch"]);
    let quick = args.get_bool("quick");
    let size: usize = args.get_num("size", if quick { 16_384 } else { 65_536 });
    let window: usize = args.get_num("window", size / 100);
    let batch: usize = args.get_num("batch", 16);

    let keys = distinct_keys(size, 0xACC);
    let q = make_zmsq::<u64>(batch, 64, false, Reclamation::Hazard);
    for &k in &keys {
        q.insert(k, k);
    }

    // Multiset of remaining keys, ordered.
    let mut remaining: BTreeMap<u64, usize> = BTreeMap::new();
    for &k in &keys {
        *remaining.entry(k).or_insert(0) += 1;
    }

    bench::csv_header(&["window_start_pct", "extractions", "hit_rate"]);
    let mut extracted_total = 0usize;
    while extracted_total < size {
        let take = window.min(size - extracted_total);
        // The true top-`take` threshold of what's left.
        let mut cnt = 0usize;
        let mut threshold = 0u64;
        for (&k, &c) in remaining.iter().rev() {
            cnt += c;
            if cnt >= take {
                threshold = k;
                break;
            }
        }
        let mut hits = 0usize;
        for _ in 0..take {
            let (k, _) = q.extract_max().expect("queue has elements");
            if k >= threshold {
                hits += 1;
            }
            match remaining.get_mut(&k) {
                Some(c) if *c > 1 => *c -= 1,
                Some(_) => {
                    remaining.remove(&k);
                }
                None => panic!("phantom key {k}"),
            }
        }
        println!(
            "{:.1},{take},{:.4}",
            100.0 * extracted_total as f64 / size as f64,
            hits as f64 / take as f64
        );
        extracted_total += take;
    }
    eprintln!(
        "# paper §4.3: expect lower hit rates in the earliest windows (the\n\
         # shallow-tree transient), recovering after ~10% of elements drain"
    );
}
