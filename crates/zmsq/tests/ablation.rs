//! Ablation correctness: disabling the §3.2 quality mechanisms must not
//! affect safety (conservation, invariants) — only quality — and the
//! mechanisms must demonstrably fire when enabled.

use zmsq::{QualityOpts, Zmsq, ZmsqConfig};

fn mixed_run(cfg: ZmsqConfig) -> Zmsq<u64> {
    let q: Zmsq<u64> = Zmsq::with_config(cfg);
    let mut x = 0x1234_5678u64;
    // Prefill so the tree is deep enough for the mechanisms to apply
    // (forced insertion needs populated leaves below level 3).
    for _ in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        q.insert(x % 1_000_000, x);
    }
    for _ in 0..50_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        q.insert(x % 1_000_000, x);
        q.extract_max();
    }
    q
}

#[test]
fn mechanisms_fire_when_enabled() {
    let q = mixed_run(ZmsqConfig::default().batch(16).target_len(16));
    let s = q.stats();
    assert!(s.forced_inserts > 0, "forced insertion should occur");
    assert!(s.min_swap_inserts > 0, "parent-min swaps should occur");
}

#[test]
fn disabled_mechanisms_never_fire() {
    let q = mixed_run(
        ZmsqConfig::default()
            .batch(16)
            .target_len(16)
            .quality(QualityOpts {
                forced_insert: false,
                parent_min_swap: false,
                ..Default::default()
            }),
    );
    let s = q.stats();
    assert_eq!(s.forced_inserts, 0);
    assert_eq!(s.min_swap_inserts, 0);
}

#[test]
fn ablated_queue_is_still_correct() {
    for quality in [
        QualityOpts {
            forced_insert: false,
            parent_min_swap: true,
            ..Default::default()
        },
        QualityOpts {
            forced_insert: true,
            parent_min_swap: false,
            ..Default::default()
        },
        QualityOpts {
            forced_insert: false,
            parent_min_swap: false,
            ..Default::default()
        },
        QualityOpts {
            merge_refill: false,
            ..Default::default()
        },
    ] {
        let mut q: Zmsq<u64> = Zmsq::with_config(
            ZmsqConfig::default()
                .batch(8)
                .target_len(12)
                .quality(quality),
        );
        use std::sync::atomic::{AtomicU64, Ordering};
        let got = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (q, got) = (&q, &got);
                s.spawn(move || {
                    for i in 0..4_000u64 {
                        q.insert((t * 4000 + i) % 9999, i);
                        if i % 2 == 0 && q.extract_max().is_some() {
                            got.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let rest = q.drain_count() as u64;
        assert_eq!(got.into_inner() + rest, 16_000, "{quality:?}");
        q.validate_invariants().unwrap();
    }
}

#[test]
fn quality_mechanisms_improve_set_density() {
    // The load-bearing claim of §3.2: the mechanisms keep sets long. With
    // them off, the structure trends toward the mound's short lists.
    let density = |quality: QualityOpts| {
        let mut q: Zmsq<u64> = Zmsq::with_config(
            ZmsqConfig::default()
                .batch(32)
                .target_len(32)
                .quality(quality),
        );
        let mut x = 42u64;
        for _ in 0..50_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.insert(x % 1_000_000, x);
        }
        for _ in 0..100_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.insert(x % 1_000_000, x);
            q.extract_max();
        }
        q.set_size_stats().mean
    };
    let with = density(QualityOpts::default());
    let without = density(QualityOpts {
        forced_insert: false,
        parent_min_swap: false,
        ..Default::default()
    });
    assert!(
        with > without * 1.5,
        "quality mechanisms should lengthen sets: with={with:.1} without={without:.1}"
    );
}

#[test]
fn min_swap_drives_accuracy() {
    // Measured decomposition (EXPERIMENTS.md F1/ablation): the parent-min
    // swap is the *accuracy* mechanism — without it, elements inserted as
    // new maxima trap low keys high in the tree and the top-rank hit rate
    // collapses. Pin the direction (not the exact magnitude).
    let hit_rate = |quality: QualityOpts| {
        let q: Zmsq<u64> = Zmsq::with_config(
            ZmsqConfig::default()
                .batch(32)
                .target_len(32)
                .quality(quality),
        );
        // Distinct shuffled keys.
        let n = 8192u64;
        for i in 0..n {
            q.insert((i * 48271) % 65536, i);
        }
        let extract = (n / 10) as usize;
        let mut keys: Vec<u64> = (0..n).map(|i| (i * 48271) % 65536).collect();
        keys.sort_unstable_by(|a, b| b.cmp(a));
        let threshold = keys[extract - 1];
        let mut hits = 0usize;
        for _ in 0..extract {
            if q.extract_max().unwrap().0 >= threshold {
                hits += 1;
            }
        }
        hits as f64 / extract as f64
    };
    let with = hit_rate(QualityOpts::default());
    let without = hit_rate(QualityOpts {
        parent_min_swap: false,
        ..Default::default()
    });
    assert!(
        with > without + 0.15,
        "min-swap should lift accuracy decisively: with={with:.3} without={without:.3}"
    );
}

#[test]
fn strict_mode_unaffected_by_ablation() {
    // In strict mode extraction order is exact regardless of quality
    // settings — they only affect performance/shape.
    for quality in [
        QualityOpts::default(),
        QualityOpts {
            forced_insert: false,
            parent_min_swap: false,
            ..Default::default()
        },
    ] {
        let q: Zmsq<u64> = Zmsq::with_config(ZmsqConfig::strict().quality(quality));
        let mut keys: Vec<u64> = (0..3000u64).map(|i| (i * 48271) % 100_000).collect();
        for &k in &keys {
            q.insert(k, k);
        }
        keys.sort_unstable_by(|a, b| b.cmp(a));
        for &expect in &keys {
            assert_eq!(q.extract_max().map(|p| p.0), Some(expect));
        }
    }
}
