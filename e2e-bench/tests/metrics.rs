//! Metric names, units and the result line: what the benchmark prints
//! must match `BENCHMARK.json` and its naming rules.

use fare_e2e_bench::runner::{measure_end_to_end, measure_traced, parse_args};
use fare_e2e_bench::workload::{Workload, WORKLOADS};
use fare_e2e_bench::{END_TO_END, PER_LAYER};
use fare_graph::datasets::ModelKind;
use fare_rt::json::{self, Json};

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let all: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
    for (name, unit) in &all {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
    }
    let mut names: Vec<&str> = all.iter().map(|m| m.0).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all.len(), "metric names repeat");
    assert!(END_TO_END.contains(&("setup_s", "s")));
}

fn str_of(v: &Json) -> &str {
    match v {
        Json::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn names_units(spec: &Json, key: &str) -> Vec<(String, String)> {
    match spec.get(key) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|m| {
                let name = str_of(m.get("name").expect("name"));
                let unit = str_of(m.get("unit").expect("unit"));
                (name.to_string(), unit.to_string())
            })
            .collect(),
        other => panic!("BENCHMARK.json {key}: {other:?}"),
    }
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names_units(&spec, "end_to_end"), owned(&END_TO_END));
    assert_eq!(names_units(&spec, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<String> = match spec.get("workloads") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|w| str_of(w.get("name").expect("name")).to_string())
            .collect(),
        other => panic!("workloads: {other:?}"),
    };
    let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn both_modes_emit_every_metric_of_their_table() {
    let w = Workload {
        name: "tiny",
        model: ModelKind::Gcn,
        epochs: 1,
        scale: 1,
        post_density: 0.0,
        inputs: 1,
    };
    for (measured, table) in [
        (measure_end_to_end(&w, 5, 0.0), &END_TO_END[..]),
        (measure_traced(&w, 5, 0.0), &PER_LAYER[..]),
    ] {
        let r = &measured.report;
        assert!(r.correct, "{:?}", r.problems);
        assert_eq!(r.failed, 0);
        assert!(r.attempted >= 5);
        let emitted: Vec<(&str, &str)> = r.metrics.iter().map(|m| (m.0, m.1)).collect();
        assert_eq!(emitted, table);
        assert!(r.metrics.iter().all(|m| m.2.is_finite()));

        let line = json::parse(&r.to_json()).expect("result line is JSON");
        let keys: Vec<&str> = match &line {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("{other:?}"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        for (name, unit, _) in &r.metrics {
            let m = line
                .get("metrics")
                .and_then(|ms| ms.get(name))
                .expect("metric");
            assert_eq!(str_of(m.get("unit").expect("unit")), *unit);
            assert!(matches!(m.get("value"), Some(Json::Num(_))));
        }
    }
}

#[test]
fn arguments_parse_and_reject() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let a = parse_args(args(
        "--workload ppi_x10_map --seed 3 --seconds 10 --trace 1",
    ))
    .unwrap();
    assert_eq!(
        (a.workload.as_str(), a.seed, a.seconds, a.trace),
        ("ppi_x10_map", 3, 10.0, true)
    );
    for bad in [
        "--workload ppi_x10_map --seed 3 --seconds 10",
        "--workload ppi_x10_map --seed x --seconds 10 --trace 0",
        "--workload ppi_x10_map --seed 3 --seconds -1 --trace 0",
        "--workload ppi_x10_map --seed 3 --seconds 10 --trace 2",
        "--workload ppi_x10_map --seed 3 --seconds 10 --trace 0 --extra 1",
        "--workload",
    ] {
        assert!(parse_args(args(bad)).is_err(), "{bad}");
    }
}
