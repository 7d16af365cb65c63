//! `zbench compare <parent_dir> <change_dir>`: the rule for judging a
//! change against its parent from repeated runs of each.
//!
//! Each directory holds run records written with `--out`, ideally ten or
//! more per workload, taken alternating parent and change runs. Runs are
//! paired by workload and seed; a pair whose input fingerprints differ is
//! refused, since then the two sides did not measure the same inputs.
//! For every (workload, end-to-end metric) the comparison reports each
//! side's quartiles, the share of pairs the change won, and a verdict:
//!
//! * **unresolved** — either side's quartile spread is wider than the
//!   metric's bound, unless every change run beats every parent run;
//! * **improved** — the change wins at least nine tenths of at least ten
//!   pairs and the medians differ, in its favour, by more than the
//!   parent's quartile spread;
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the bound;
//! * **unchanged** — otherwise.

use std::collections::BTreeMap;
use std::path::Path;

use obs::json::{self, Value};

use crate::stats::{median, quartiles, relative_iqr};

/// One run record.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Input fingerprint.
    pub fingerprint: BTreeMap<String, f64>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Whether the run's output checks passed.
    pub correct: bool,
}

/// How a metric is judged, from `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rule {
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The four outcomes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One (workload, metric) comparison.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    /// `(q1, median, q3)` of each side.
    pub parent: (f64, f64, f64),
    pub change: (f64, f64, f64),
    /// Pairs compared and the share the change won (ties count for neither).
    pub pairs: usize,
    pub won: f64,
    pub verdict: Verdict,
}

fn parse_record(v: &Value) -> Option<RunRecord> {
    let nums = |key: &str, inner: Option<&str>| -> Option<BTreeMap<String, f64>> {
        let obj = v.get(key)?.as_obj()?;
        obj.iter()
            .map(|(k, x)| {
                let x = match inner {
                    Some(field) => x.get(field)?.as_f64()?,
                    None => x.as_f64()?,
                };
                Some((k.clone(), x))
            })
            .collect()
    };
    Some(RunRecord {
        workload: v.get("workload")?.as_str()?.to_string(),
        seed: v.get("seed")?.as_f64()? as u64,
        fingerprint: nums("fingerprint", None)?,
        metrics: nums("metrics", Some("value"))?,
        correct: matches!(v.get("correct"), Some(Value::Bool(true))),
    })
}

/// Every run record (`*.json` written by `--out`) in `dir`.
pub fn load_dir(dir: &Path) -> Result<Vec<RunRecord>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for e in entries {
        let path = e.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "json") {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            out.push(
                parse_record(&v)
                    .ok_or_else(|| format!("{}: not a zbench run record", path.display()))?,
            );
        }
    }
    if out.is_empty() {
        return Err(format!("{}: no run records", dir.display()));
    }
    Ok(out)
}

/// The end-to-end rules of a `BENCHMARK.json` document.
pub fn rules(benchmark_json: &str) -> Result<BTreeMap<String, Rule>, String> {
    let v = json::parse(benchmark_json)?;
    let list = v
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Value::as_str)
                .ok_or("metric without `better`")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without a bound")?;
            Ok((
                name.to_string(),
                Rule {
                    lower_is_better: better == "lower",
                    bound,
                },
            ))
        })
        .collect()
}

/// Judge one metric from both sides' values and the paired outcomes.
pub fn verdict(parent: &[f64], change: &[f64], wins: usize, pairs: usize, rule: Rule) -> Verdict {
    let better = |c: f64, p: f64| if rule.lower_is_better { c < p } else { c > p };
    let (mp, mc) = (median(parent), median(change));
    let best_parent = if rule.lower_is_better {
        parent.iter().copied().fold(f64::INFINITY, f64::min)
    } else {
        parent.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    };
    let all_better = change.iter().all(|&c| better(c, best_parent));
    let spread = relative_iqr(parent).max(relative_iqr(change));
    if spread > rule.bound && !all_better {
        return Verdict::Unresolved;
    }
    let (q1, q3) = quartiles(parent);
    let won = wins as f64 / pairs.max(1) as f64;
    if pairs >= 10 && won >= 0.9 && better(mc, mp) && (mc - mp).abs() > q3 - q1 {
        return Verdict::Improved;
    }
    let worse = if rule.lower_is_better {
        mc - mp
    } else {
        mp - mc
    } / mp.abs();
    if worse > rule.bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// Compare every workload present on both sides.
pub fn compare(
    parent: &[RunRecord],
    change: &[RunRecord],
    rules: &BTreeMap<String, Rule>,
) -> Result<Vec<Row>, String> {
    let mut workloads: Vec<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut rows = Vec::new();
    for w in workloads {
        let p: Vec<&RunRecord> = parent.iter().filter(|r| r.workload == w).collect();
        let c: Vec<&RunRecord> = change.iter().filter(|r| r.workload == w).collect();
        if c.is_empty() {
            continue;
        }
        let mut pairs = Vec::new();
        for pr in &p {
            if let Some(cr) = c.iter().find(|cr| cr.seed == pr.seed) {
                if pr.fingerprint != cr.fingerprint {
                    return Err(format!(
                        "{w} seed {}: input fingerprints differ, so the sides measured different inputs",
                        pr.seed
                    ));
                }
                pairs.push((*pr, *cr));
            }
        }
        for (name, &rule) in rules {
            let vals = |rs: &[&RunRecord]| -> Vec<f64> {
                rs.iter()
                    .filter_map(|r| r.metrics.get(name).copied())
                    .collect()
            };
            let (pv, cv) = (vals(&p), vals(&c));
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let better = |x: f64, y: f64| if rule.lower_is_better { x < y } else { x > y };
            let wins = pairs
                .iter()
                .filter(
                    |(pr, cr)| match (pr.metrics.get(name), cr.metrics.get(name)) {
                        (Some(&a), Some(&b)) => better(b, a),
                        _ => false,
                    },
                )
                .count();
            let q = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                (q1, median(v), q3)
            };
            rows.push(Row {
                workload: w.to_string(),
                metric: name.clone(),
                parent: q(&pv),
                change: q(&cv),
                pairs: pairs.len(),
                won: wins as f64 / pairs.len().max(1) as f64,
                verdict: verdict(&pv, &cv, wins, pairs.len(), rule),
            });
        }
    }
    Ok(rows)
}

/// Rows as an aligned table, one row per (workload, metric).
pub fn table(rows: &[Row]) -> String {
    let mut s = format!(
        "{:<10} {:<16} {:>36} {:>36} {:>6} {:>5}  verdict\n",
        "workload", "metric", "parent q1 / median / q3", "change q1 / median / q3", "pairs", "won"
    );
    let fmt = |(a, b, c): (f64, f64, f64)| format!("{a:.4} / {b:.4} / {c:.4}");
    for r in rows {
        s += &format!(
            "{:<10} {:<16} {:>36} {:>36} {:>6} {:>5.2}  {}\n",
            r.workload,
            r.metric,
            fmt(r.parent),
            fmt(r.change),
            r.pairs,
            r.won,
            r.verdict.as_str()
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Rule = Rule {
        lower_is_better: true,
        bound: 0.1,
    };

    #[test]
    fn verdicts_follow_the_rule() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.5).collect();
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.9).collect();
        assert_eq!(verdict(&parent, &faster, 10, 10, LOWER), Verdict::Improved);
        assert_eq!(verdict(&parent, &parent, 0, 10, LOWER), Verdict::Unchanged);
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&parent, &slower, 0, 10, LOWER), Verdict::Regressed);
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 50.0 } else { 150.0 })
            .collect();
        assert_eq!(verdict(&parent, &noisy, 5, 10, LOWER), Verdict::Unresolved);
        // Too few pairs to claim a gain.
        assert_eq!(
            verdict(&parent[..5], &faster[..5], 5, 5, LOWER),
            Verdict::Unchanged
        );
    }

    fn record(seed: u64, v: f64, fp: f64) -> RunRecord {
        RunRecord {
            workload: "mixed".into(),
            seed,
            fingerprint: [("key_hash".to_string(), fp)].into(),
            metrics: [("throughput".to_string(), v)].into(),
            correct: true,
        }
    }

    #[test]
    fn compare_pairs_by_seed_and_refuses_different_inputs() {
        let rules: BTreeMap<String, Rule> = [(
            "throughput".to_string(),
            Rule {
                lower_is_better: false,
                bound: 0.1,
            },
        )]
        .into();
        let parent: Vec<RunRecord> = (0..10).map(|s| record(s, 100.0 + s as f64, 1.0)).collect();
        let change: Vec<RunRecord> = (0..10).map(|s| record(s, 130.0 + s as f64, 1.0)).collect();
        let rows = compare(&parent, &change, &rules).expect("same inputs");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].pairs, 10);
        assert_eq!(rows[0].won, 1.0);
        assert_eq!(rows[0].verdict, Verdict::Improved);
        assert!(table(&rows).contains("improved"));

        let mut other = change.clone();
        other[3].fingerprint.insert("key_hash".into(), 2.0);
        assert!(compare(&parent, &other, &rules).is_err());
    }

    #[test]
    fn run_records_round_trip_through_json() {
        let text = r#"{"workload": "sssp", "seed": 3, "trace": false, "fingerprint": {"graph_nodes": 50000},
            "correct": true, "attempted": 9, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#;
        let r = parse_record(&json::parse(text).expect("json")).expect("record");
        assert_eq!(r.workload, "sssp");
        assert_eq!(r.metrics["setup_s"], 0.5);
        assert!(r.correct);
    }
}
