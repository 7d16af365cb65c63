//! Quickstart: the ZMSQ public API in two minutes.
//!
//! Run with: `cargo run --release --example quickstart`

use zmsq::{Reclamation, Zmsq, ZmsqConfig};

fn main() {
    // The paper's recommended default configuration: batch = 48,
    // targetLen = 72 (§4.2), hazard-pointer reclamation.
    let queue: Zmsq<&'static str> = Zmsq::new();

    queue.insert(10, "backup job");
    queue.insert(95, "page on-call");
    queue.insert(60, "rebuild index");

    // Relaxed extraction: a high-priority element, never None while the
    // queue is nonempty. Within any batch+1 consecutive extractions the
    // true maximum is guaranteed to appear (§3.7).
    let (prio, task) = queue.extract_max().expect("nonempty");
    println!("first task out: {task} (priority {prio})");

    // Strict mode (batch = 0) behaves exactly like the mound: always the
    // true maximum, at the cost of root contention under load.
    let strict: Zmsq<&'static str> = Zmsq::with_config(ZmsqConfig::strict());
    strict.insert(1, "low");
    strict.insert(2, "mid");
    strict.insert(3, "high");
    assert_eq!(strict.extract_max(), Some((3, "high")));
    println!("strict mode returns the exact max, always");

    // Tuning: smaller batch = tighter relaxation; Hazard swaps in a fresh
    // pool buffer per refill and reclaims the old one through hazard
    // pointers (the paper's "ZMSQ" arm) instead of the default reuse.
    let tuned: Zmsq<u64> = Zmsq::with_config(
        ZmsqConfig::default()
            .batch(8)
            .target_len(16)
            .reclamation(Reclamation::Hazard),
    );
    for i in 0..1000 {
        tuned.insert(i, i);
    }
    let (top, _) = tuned.extract_max().unwrap();
    println!("tuned queue: extracted priority {top} of 0..1000");

    // Concurrent use: share by reference across scoped threads (or via Arc).
    let shared: Zmsq<u64> = Zmsq::new();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let q = &shared;
            s.spawn(move || {
                for i in 0..10_000 {
                    q.insert(t * 10_000 + i, i);
                }
            });
        }
    });
    println!("4 threads inserted {} elements", shared.len_hint());

    let popped = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let (q, popped) = (&shared, &popped);
            s.spawn(move || {
                while q.extract_max().is_some() {
                    popped.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            });
        }
    });
    println!(
        "4 threads extracted {} elements; queue reports empty: {}",
        popped.into_inner(),
        shared.extract_max().is_none()
    );

    // Operation statistics show the relaxation at work: most extractions
    // hit the pool, few touch the root.
    let stats = shared.stats();
    println!(
        "stats: {} inserts, {} extracts, root access ratio {:.1}%",
        stats.inserts,
        stats.extracts,
        100.0 * stats.root_access_ratio()
    );
}
