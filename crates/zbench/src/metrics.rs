//! The metrics a run reports, computed from its phases.
//!
//! Names here are the names in `BENCHMARK.json`; a test checks the two
//! lists agree.

use crate::bench::{per, Phase};
use crate::stats::{median, median_of_chunk_means, quantile, quantile_u32};
use crate::trace::layer_totals;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("cpu_us_per_req", "us"),
    ("rank_mean", "rank"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("queue.insert_ns_p50", "ns"),
    ("queue.insert_ns_p99", "ns"),
    ("queue.extract_ns_p50", "ns"),
    ("queue.extract_ns_p99", "ns"),
    ("queue.share", "ratio"),
    ("queue.rank_p99", "rank"),
    ("tree.retries_per_insert", "1/insert"),
    ("tree.forced_per_insert", "1/insert"),
    ("tree.min_swaps_per_insert", "1/insert"),
    ("tree.splits_per_kinsert", "1/kinsert"),
    ("tree.swap_downs_per_refill", "1/refill"),
    ("tree.grows", "count"),
    ("tree.trylock_fails_per_kop", "1/kop"),
    ("set.insert_ns_72", "ns"),
    ("set.remove_max_ns_72", "ns"),
    ("set.remove_min_ns_72", "ns"),
    ("set.drain_top48_ns_72", "ns"),
    ("set.split_lower_half_ns_72", "ns"),
    ("set.insert_ns_144", "ns"),
    ("set.remove_max_ns_144", "ns"),
    ("set.remove_min_ns_144", "ns"),
    ("set.drain_top48_ns_144", "ns"),
    ("set.split_lower_half_ns_144", "ns"),
    ("pool.hit_ratio", "ratio"),
    ("pool.refills_per_kextract", "1/kextract"),
    ("pool.races_per_refill", "1/refill"),
    ("pool.empty_per_kextract", "1/kextract"),
    ("smr.hp_retired_per_kextract", "1/kextract"),
    ("smr.hp_scans_per_kextract", "1/kextract"),
    ("smr.protect_retries_per_kextract", "1/kextract"),
    ("smr.protect_ns", "ns"),
    ("smr.retire_ns", "ns"),
    ("alloc.calls_per_op", "calls/op"),
    ("alloc.bytes_per_op", "B/op"),
    ("alloc.bytes_per_elem", "B/elem"),
    ("sync.trylock_fail_ratio", "ratio"),
    ("sync.futex_waits_per_kreq", "1/kreq"),
    ("sync.futex_wakes_per_kreq", "1/kreq"),
    ("sync.event_parks_per_kreq", "1/kreq"),
    ("sync.spurious_wakeups_per_kreq", "1/kreq"),
    ("sync.park_share", "ratio"),
    ("sync.tatas_ns", "ns"),
    ("sharded.buf_insert_flushes_per_kop", "1/kop"),
    ("sharded.buf_delete_refills_per_kop", "1/kop"),
    ("obs.rank_note_ns", "ns"),
    ("obs.sojourn_note_ns", "ns"),
    ("obs.overhead_pct", "%"),
    ("app.share", "ratio"),
    ("app.waste_ratio", "ratio"),
    ("app.premium_p90_us", "us"),
    ("app.gen_lag_p99_us", "us"),
    ("app.latency_p99_us", "us"),
    ("idle.share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// `(name, value, unit)` in the order of the definition list `defs`,
/// taking values from `values` by name. Panics if a value is missing or
/// named twice: the emitted set must be exactly the defined set.
fn ordered(defs: &[(&'static str, &'static str)], values: Vec<(String, f64)>) -> Vec<Metric> {
    assert_eq!(values.len(), defs.len(), "every metric is computed once");
    defs.iter()
        .map(|&(name, unit)| {
            let mut it = values.iter().filter(|(n, _)| n == name);
            let (_, v) = it
                .next()
                .unwrap_or_else(|| panic!("metric {name} not computed"));
            assert!(it.next().is_none(), "metric {name} computed twice");
            Metric {
                name,
                value: *v,
                unit,
            }
        })
        .collect()
}

/// One reported number.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn us(ns: f64) -> f64 {
    ns / 1000.0
}

fn latency_quantile(ns: &[u64], q: f64) -> f64 {
    let v: Vec<f64> = ns.iter().map(|&x| x as f64).collect();
    quantile(&v, q)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(setup_s: &[f64], main: &Phase, quality: &Phase) -> Vec<Metric> {
    let v = vec![
        ("setup_s".to_string(), median(setup_s)),
        ("throughput".into(), median(&main.round_rates)),
        (
            "latency_p50_us".into(),
            us(latency_quantile(&main.latency_ns, 0.5)),
        ),
        (
            "latency_p90_us".into(),
            us(latency_quantile(&main.latency_ns, 0.9)),
        ),
        ("cpu_us_per_req".into(), us(main.cpu_per_request())),
        (
            "rank_mean".into(),
            1.0 + median_of_chunk_means(&quality.ranks, 10),
        ),
    ];
    ordered(&END_TO_END, v)
}

/// Inputs of the per-layer metrics besides the traced phase.
pub struct LayerInputs<'a> {
    /// The traced phase.
    pub traced: &'a Phase,
    /// An untraced phase of the same length, run just before it.
    pub plain: &'a Phase,
    /// The quality round.
    pub quality: &'a Phase,
    /// Worker CPU per request with the queue's telemetry on and off.
    pub telemetry_on: &'a [f64],
    pub telemetry_off: &'a [f64],
    /// Live bytes per element of a filled queue.
    pub bytes_per_elem: f64,
    /// Micro-benchmark results, already named.
    pub micro: Vec<(String, f64)>,
}

/// 0 for a statistic of no samples (the layer was not on this workload's
/// path).
fn nz(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else {
        v
    }
}

/// The per-layer metrics of a traced run.
pub fn per_layer(inp: LayerInputs<'_>) -> Vec<Metric> {
    let t = inp.traced;
    let d = &t.counters;
    let layers = layer_totals(&t.tracers);
    let mut ins_ns: Vec<u32> = t
        .tracers
        .iter()
        .flat_map(|tr| tr.insert_ns.iter().copied())
        .collect();
    let mut ext_ns: Vec<u32> = t
        .tracers
        .iter()
        .flat_map(|tr| tr.extract_ns.iter().copied())
        .collect();
    let mut ranks = inp.quality.ranks.clone();
    let inserts = d.get("zmsq.inserts");
    let extracts = d.get("zmsq.extracts");
    let refills = d.get("zmsq.pool_refills");
    let reqs = t.requests as f64;
    let ops = t.queue_ops as f64;
    let mut v: Vec<(String, f64)> = vec![
        (
            "queue.insert_ns_p50".into(),
            nz(quantile_u32(&mut ins_ns, 0.5)),
        ),
        (
            "queue.insert_ns_p99".into(),
            nz(quantile_u32(&mut ins_ns, 0.99)),
        ),
        (
            "queue.extract_ns_p50".into(),
            nz(quantile_u32(&mut ext_ns, 0.5)),
        ),
        (
            "queue.extract_ns_p99".into(),
            nz(quantile_u32(&mut ext_ns, 0.99)),
        ),
        ("queue.share".into(), layers.share(layers.queue)),
        ("queue.rank_p99".into(), nz(quantile_u32(&mut ranks, 0.99))),
        (
            "tree.retries_per_insert".into(),
            per(d.get("zmsq.insert_retries"), inserts, 1.0),
        ),
        (
            "tree.forced_per_insert".into(),
            per(d.get("zmsq.forced_inserts"), inserts, 1.0),
        ),
        (
            "tree.min_swaps_per_insert".into(),
            per(d.get("zmsq.min_swap_inserts"), inserts, 1.0),
        ),
        (
            "tree.splits_per_kinsert".into(),
            per(d.get("zmsq.splits"), inserts, 1e3),
        ),
        (
            "tree.swap_downs_per_refill".into(),
            per(d.get("zmsq.swap_downs"), refills, 1.0),
        ),
        ("tree.grows".into(), d.get("zmsq.tree_grows")),
        (
            "pool.hit_ratio".into(),
            per(d.get("zmsq.pool_hits"), extracts, 1.0),
        ),
        (
            "pool.refills_per_kextract".into(),
            per(refills, extracts, 1e3),
        ),
        (
            "pool.races_per_refill".into(),
            per(d.get("zmsq.refill_races"), refills, 1.0),
        ),
        (
            "pool.empty_per_kextract".into(),
            per(d.get("zmsq.empty_observed"), extracts, 1e3),
        ),
        (
            "smr.hp_retired_per_kextract".into(),
            per(d.get("hp.retired"), extracts, 1e3),
        ),
        (
            "smr.hp_scans_per_kextract".into(),
            per(d.get("hp.scans"), extracts, 1e3),
        ),
        (
            "smr.protect_retries_per_kextract".into(),
            per(d.get("hp.protect_retries"), extracts, 1e3),
        ),
        (
            "alloc.calls_per_op".into(),
            per(t.alloc.calls as f64, ops, 1.0),
        ),
        (
            "alloc.bytes_per_op".into(),
            per(t.alloc.bytes as f64, ops, 1.0),
        ),
        ("alloc.bytes_per_elem".into(), inp.bytes_per_elem),
        (
            "sync.trylock_fail_ratio".into(),
            per(d.get("trylock.failures"), d.get("trylock.attempts"), 1.0),
        ),
        (
            "sync.futex_waits_per_kreq".into(),
            per(d.get("futex.waits"), reqs, 1e3),
        ),
        (
            "sync.futex_wakes_per_kreq".into(),
            per(d.get("futex.wakes"), reqs, 1e3),
        ),
        (
            "sync.event_parks_per_kreq".into(),
            per(d.get("event.parks"), reqs, 1e3),
        ),
        (
            "sync.spurious_wakeups_per_kreq".into(),
            per(d.get("event.spurious_wakeups"), reqs, 1e3),
        ),
        ("sync.park_share".into(), layers.share(layers.park)),
        (
            "sharded.buf_insert_flushes_per_kop".into(),
            per(d.get("buf.insert_flushes"), ops, 1e3),
        ),
        (
            "sharded.buf_delete_refills_per_kop".into(),
            per(d.get("buf.delete_refills"), ops, 1e3),
        ),
        (
            "tree.trylock_fails_per_kop".into(),
            per(d.get("zmsq.trylock_fails"), ops, 1e3),
        ),
        (
            "obs.overhead_pct".into(),
            (median(inp.telemetry_on) / median(inp.telemetry_off) - 1.0) * 100.0,
        ),
        ("app.share".into(), layers.share(layers.app)),
        (
            "app.waste_ratio".into(),
            per(t.wasted as f64, t.pops as f64, 1.0),
        ),
        (
            "app.premium_p90_us".into(),
            us(nz(latency_quantile(&t.premium_ns, 0.9))),
        ),
        (
            "app.gen_lag_p99_us".into(),
            us(nz(latency_quantile(&t.lag_ns, 0.99))),
        ),
        (
            "app.latency_p99_us".into(),
            us(nz(latency_quantile(&t.latency_ns, 0.99))),
        ),
        ("idle.share".into(), layers.share(layers.idle + layers.park)),
        (
            "trace.overhead_pct".into(),
            (t.cpu_per_request() / inp.plain.cpu_per_request() - 1.0) * 100.0,
        ),
        (
            "trace.unattributed_pct".into(),
            layers.share(layers.unattributed) * 100.0,
        ),
    ];
    v.extend(inp.micro);
    ordered(&PER_LAYER, v)
}
