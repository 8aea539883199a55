//! Runs every workload at toy size, untraced and traced, and checks that
//! every operation's verdict passes and that the reported metric names and
//! units are exactly the ones `BENCHMARK.json` declares.

use perfbench::{result_line, run, Workload};
use serde::json::Value;

fn field(value: &Value, key: &str) -> Value {
    match value {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("missing key {key}")),
        _ => panic!("expected an object holding {key}"),
    }
}

fn text(value: Value) -> String {
    match value {
        Value::String(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

/// The entries of one list in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<Value> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let source = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let doc = serde_json::from_str(&source).expect("BENCHMARK.json parses");
    match field(&doc, section) {
        Value::Array(entries) => entries,
        _ => panic!("{section} is not an array"),
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared_metrics(section: &str) -> Vec<(String, String)> {
    declared(section)
        .iter()
        .map(|entry| (text(field(entry, "name")), text(field(entry, "unit"))))
        .collect()
}

fn check(workload: Workload, traced: bool) {
    let report = run(workload, &workload.toy_profile(), 7, 0.05, traced)
        .unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()));
    assert!(report.attempted >= 1);
    assert_eq!(
        report.failed,
        0,
        "{}: a verdict failed\n{}",
        workload.name(),
        report.notes.join("\n")
    );
    let reported: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    let section = if traced { "per_layer" } else { "end_to_end" };
    assert_eq!(
        reported,
        declared_metrics(section),
        "{} {section}",
        workload.name()
    );
    assert!(report.metrics.iter().all(|m| m.value.is_finite()));
    let line = result_line(&report);
    assert!(line.starts_with("{\"correct\": true, "), "{line}");
    assert!(serde_json::from_str(&line).is_ok(), "{line}");
    if traced {
        assert!(!report.spans.is_empty());
    }
}

#[test]
fn workload_names_match_the_benchmark_declaration() {
    let names: Vec<String> = declared("workloads")
        .iter()
        .map(|entry| text(field(entry, "name")))
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, ours);
}

#[test]
fn paper_dumbbell_at_toy_size() {
    check(Workload::PaperDumbbell, false);
    check(Workload::PaperDumbbell, true);
}

#[test]
fn hostile_resume_at_toy_size() {
    check(Workload::HostileResume, false);
    check(Workload::HostileResume, true);
}
