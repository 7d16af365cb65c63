//! Estimator-vs-oracle validation harness.
//!
//! The `obs::RankEstimator` inside a ZMSQ reports *estimated* rank
//! errors from its sampled `(key, stamp)` table; the [`RankOracle`]
//! computes *exact* rank errors from a full shadow multiset. This
//! module drives both from the same seeded, single-threaded workload so
//! tests can bound how far the cheap estimate drifts from the ground
//! truth.
//!
//! Determinism: the workload keys come from a seeded [`DetRng`], the
//! estimator's sampling decision and each key's home slot are pure
//! hashes of the key, placement is a linear probe from that home slot
//! (no shared cursor; a key is dropped only when every slot is live),
//! and a single thread removes all scheduling nondeterminism — a given
//! `(config, seed)` pair always produces the same [`QualityReport`], so
//! tests can assert tight windows without flaking.

use fault::DetRng;
use pq_traits::ConcurrentPriorityQueue;
use zmsq::{ShardedConfig, ShardedZmsq, Zmsq, ZmsqConfig};

use crate::oracle::RankOracle;

/// What one [`estimator_vs_oracle`] run measured.
#[derive(Debug, Clone, Copy)]
pub struct QualityReport {
    /// Successful extractions performed.
    pub extracts: u64,
    /// Exact rank p99 across all extractions (the oracle's truth).
    pub oracle_p99: usize,
    /// The estimator's rank p99 over its sampled extractions, `None`
    /// when nothing was sampled (e.g. tiny run at a coarse shift).
    pub estimator_p99: Option<u64>,
    /// How many extractions the estimator sampled.
    pub sampled_extracts: u64,
}

/// Drive `rounds` bursts of `burst` inserts then `burst` extractions
/// (after `prefill` seeded insertions) against a fresh `Zmsq<u64>`
/// built from `cfg`, mirroring every operation into a [`RankOracle`].
/// Keys are uniform over `key_bits` bits.
///
/// `cfg` must carry a rank estimator
/// ([`ZmsqConfig::rank_estimator`] — on by default); panics otherwise,
/// since a report without an estimate is meaningless.
pub fn estimator_vs_oracle(
    cfg: ZmsqConfig,
    seed: u64,
    prefill: u64,
    rounds: u64,
    burst: u64,
    key_bits: u32,
) -> QualityReport {
    let q: Zmsq<u64> = Zmsq::with_config(cfg);
    assert!(
        q.rank_estimator().is_some(),
        "estimator_vs_oracle needs cfg.rank_estimator set"
    );
    let oracle = RankOracle::new();
    let mut rng = DetRng::seed_from_u64(seed);
    let mask = (1u64 << key_bits.min(63)) - 1;

    for _ in 0..prefill {
        let k = rng.next_u64() & mask;
        oracle.note_insert(k);
        q.insert(k, k);
    }
    let mut extracts = 0u64;
    for _ in 0..rounds {
        for _ in 0..burst {
            let k = rng.next_u64() & mask;
            oracle.note_insert(k);
            q.insert(k, k);
        }
        for _ in 0..burst {
            if let Some((k, _)) = q.extract_max() {
                oracle.note_extract(k);
                extracts += 1;
            }
        }
    }

    let est = q.rank_estimator().expect("checked above");
    let sampled_extracts = est.counters().3;
    QualityReport {
        extracts,
        oracle_p99: oracle.rank_quantile(0.99).unwrap_or(0),
        estimator_p99: (sampled_extracts > 0).then(|| est.rank_quantile(0.99)),
        sampled_extracts,
    }
}

/// Tuned-sharded variant of [`estimator_vs_oracle`]: drives a
/// [`ShardedZmsq`] built with `tuning` (stickiness + operation
/// buffers) through the same seeded burst workload, mirroring every
/// operation into a [`RankOracle`], and reads the estimate from the
/// merged per-shard `quality.est_rank` histogram.
///
/// The returned `estimator_p99` is a *per-shard* estimate taken where
/// elements cross the shard's publication boundary; the oracle
/// measures the *global* hand-out rank. With elements spread roughly
/// evenly across shards, the global rank of a shard-rank-`r` element
/// is ≈ `r × shards`, so callers comparing the two must scale the
/// estimate by `shards` first (the shootout's oracle cross-check does
/// the same — see DESIGN.md, "Stickiness & operation buffers").
/// `sampled_extracts` reports the merged histogram's sample count.
#[allow(clippy::too_many_arguments)] // mirrors estimator_vs_oracle + the sharded knobs
pub fn tuned_estimator_vs_oracle(
    shards: usize,
    cfg: ZmsqConfig,
    tuning: ShardedConfig,
    seed: u64,
    prefill: u64,
    rounds: u64,
    burst: u64,
    key_bits: u32,
) -> QualityReport {
    let q: ShardedZmsq<u64> = ShardedZmsq::with_tuning(shards, cfg, tuning);
    let oracle = RankOracle::new();
    let mut rng = DetRng::seed_from_u64(seed);
    let mask = (1u64 << key_bits.min(63)) - 1;

    for _ in 0..prefill {
        let k = rng.next_u64() & mask;
        oracle.note_insert(k);
        q.insert(k, k);
    }
    let mut extracts = 0u64;
    for _ in 0..rounds {
        for _ in 0..burst {
            let k = rng.next_u64() & mask;
            oracle.note_insert(k);
            q.insert(k, k);
        }
        for _ in 0..burst {
            if let Some((k, _)) = q.extract_max() {
                oracle.note_extract(k);
                extracts += 1;
            }
        }
    }

    let hist = q.metrics().and_then(|m| {
        m.hist("quality.est_rank")
            .filter(|h| h.count > 0)
            .map(|h| (h.count, h.quantile(0.99)))
    });
    QualityReport {
        extracts,
        oracle_p99: oracle.rank_quantile(0.99).unwrap_or(0),
        estimator_p99: hist.map(|(_, p99)| p99),
        sampled_extracts: hist.map_or(0, |(count, _)| count),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shift 0 samples every key, so inside an un-overflowed reservoir
    /// the "estimate" is an exact count of strictly greater live keys —
    /// it must agree with the oracle's p99 exactly.
    #[test]
    fn shift_zero_matches_oracle_exactly() {
        // Live population stays ≤ prefill + burst = 320, well under the
        // estimator's 512-slot reservoir: nothing is ever dropped.
        let cfg = ZmsqConfig::default().batch(16).rank_estimator(0);
        let r = estimator_vs_oracle(cfg, 0xC0FFEE, 256, 40, 64, 16);
        assert_eq!(r.sampled_extracts, r.extracts, "shift 0 samples all");
        // The estimator reports quantiles through a log-linear
        // histogram, so its p99 is the *bucket floor* of the exact p99
        // (quantiles commute with the monotone bucket mapping). Push
        // the oracle's exact value through the same bucketing.
        let quantized = obs::Histogram::new();
        quantized.record(r.oracle_p99 as u64);
        assert_eq!(
            r.estimator_p99,
            Some(quantized.quantile(1.0)),
            "exact sampling must reproduce the oracle up to bucketing: {r:?}"
        );
    }

    /// The ISSUE's acceptance bound: at the default 1/64 sampling the
    /// estimated rank p99 stays within 2x of the exact oracle p99 (one
    /// 64-wide sampling quantum of slack on each side). Deterministic
    /// for a fixed seed — see the module docs.
    #[test]
    fn default_shift_within_2x_of_oracle() {
        // batch 64 against bursty interleaving keeps the true rank p99
        // comfortably above the 64-wide sampling quantum, so the 2x
        // window is a real statement and not `0 <= 0`.
        let cfg = ZmsqConfig::default().batch(64).rank_estimator(6);
        let r = estimator_vs_oracle(cfg, 0x5EED, 20_000, 400, 256, 20);
        assert!(
            r.sampled_extracts >= 500,
            "too few samples to quote a p99: {r:?}"
        );
        assert!(r.oracle_p99 >= 64, "workload too strict to test: {r:?}");
        let est = r.estimator_p99.expect("sampled_extracts > 0") as f64;
        let exact = r.oracle_p99 as f64;
        assert!(
            est <= exact * 2.0 + 64.0 && est >= exact / 2.0 - 64.0,
            "estimated p99 {est} outside the 2x window of exact {exact}: {r:?}"
        );
    }

    /// The tuned fast path must not blind the telemetry: with
    /// stickiness and operation buffers on, the shard-scaled
    /// `quality.est_rank` p99 stays within the same 2x window of the
    /// exact oracle p99. The configuration mirrors the shootout's
    /// oracle cross-check (2 shards, stickiness 8, 16-deep buffers);
    /// sticky insert runs inflate the true rank error, and the
    /// per-shard estimator — sampling at the publication boundary,
    /// after buffered elements flush — must track that inflation
    /// rather than report the untuned baseline's figure.
    #[test]
    fn tuned_sharded_shift_within_2x_of_oracle() {
        let shards = 2;
        let cfg = ZmsqConfig::default().batch(64).rank_estimator(6);
        let tuning = ShardedConfig::new()
            .stickiness(8)
            .insert_buffer(16)
            .delete_buffer(16);
        let r = tuned_estimator_vs_oracle(shards, cfg, tuning, 0x5EED, 20_000, 400, 256, 20);
        assert!(
            r.sampled_extracts >= 500,
            "too few samples to quote a p99: {r:?}"
        );
        assert!(r.oracle_p99 >= 64, "workload too strict to test: {r:?}");
        // Per-shard estimate × shard count ≈ global rank (see
        // `tuned_estimator_vs_oracle`'s docs).
        let est = (r.estimator_p99.expect("sampled_extracts > 0") * shards as u64) as f64;
        let exact = r.oracle_p99 as f64;
        assert!(
            est <= exact * 2.0 + 64.0 && est >= exact / 2.0 - 64.0,
            "shard-scaled estimated p99 {est} outside the 2x window of exact {exact}: {r:?}"
        );
    }
}
