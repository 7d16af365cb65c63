//! `BENCHMARK.json` describes exactly what the benchmark emits.

use obs::json::{self, Value};
use zbench::metrics::{END_TO_END, PER_LAYER};
use zbench::run::Workload;

const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("no `{key}` list"))
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("entry without `{key}`"))
}

/// Every metric of `list` appears once in `defs`, in the same order and
/// with the same unit, and each has a valid name and direction.
fn check_metrics(list: &[Value], defs: &[(&str, &str)]) {
    let named: Vec<(&str, &str)> = list
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect();
    assert_eq!(named, defs, "BENCHMARK.json and the emitted metrics differ");
    for m in list {
        assert!(
            valid_name(field(m, "name")),
            "bad name {}",
            field(m, "name")
        );
        assert!(matches!(field(m, "better"), "lower" | "higher"));
    }
}

#[test]
fn benchmark_json_names_exactly_the_emitted_metrics() {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    check_metrics(entries(&doc, "end_to_end"), &END_TO_END);
    check_metrics(entries(&doc, "per_layer"), &PER_LAYER);
    let setup = &entries(&doc, "end_to_end")[0];
    assert_eq!(field(setup, "name"), "setup_s");
    let bounds: Vec<f64> = entries(&doc, "end_to_end")
        .iter()
        .map(|m| m.get("bound").and_then(Value::as_f64).expect("bound"))
        .collect();
    assert!(bounds.iter().all(|&b| b > 0.0 && b <= 0.25));
    assert!(
        bounds.iter().all(|&b| b <= bounds[0]),
        "setup_s has the largest bound"
    );

    let workloads: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    for name in PER_LAYER
        .iter()
        .chain(&END_TO_END)
        .map(|(n, _)| *n)
        .chain(workloads)
    {
        assert!(valid_name(name), "bad name {name}");
    }
}
