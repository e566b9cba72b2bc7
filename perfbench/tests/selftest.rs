//! Self-tests of the benchmark: a tiny pass of every workload prints every
//! metric `BENCHMARK.json` names, and corrupted answers count as failed.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use mfu_core::artifact::BoundArtifact;
use mfu_core::json::{self, Json};
use perfbench::cells;
use perfbench::check::{self, HotExpectation};
use perfbench::client::{Connection, Served};
use perfbench::{Config, Report, Workload, END_TO_END, PER_LAYER};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the crate");
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_array)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

/// A run over the cheapest scenario: every workload's machinery, in
/// seconds.
fn tiny(workload: Workload, trace: bool) -> Config {
    Config {
        only: Some(vec!["sis".to_string()]),
        ..Config::new(workload, 7, 0.2, trace)
    }
}

fn assert_prints_every_metric(report: &Report, table: &[(String, String)]) {
    let line = json::parse(&report.result_line()).expect("the result line is JSON");
    for key in ["correct", "attempted", "failed", "metrics"] {
        assert!(line.get(key).is_some(), "result line lacks `{key}`");
    }
    let metrics = line.get("metrics").and_then(Json::as_object).unwrap();
    assert_eq!(metrics.len(), table.len());
    for (name, unit) in table {
        let metric = metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric `{name}` is not printed"));
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            Some(unit.as_str())
        );
        assert!(metric.get("value").and_then(Json::as_f64).is_some());
    }
}

#[test]
fn metric_tables_match_benchmark_json() {
    assert_eq!(owned(&END_TO_END), declared("end_to_end"));
    assert_eq!(owned(&PER_LAYER), declared("per_layer"));
    let workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn tiny_passes_print_every_metric_and_fail_nothing() {
    let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = perfbench::run(&tiny(workload, trace))
                .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name()));
            assert!(report.correct, "{} trace={trace}", workload.name());
            assert_eq!(report.failed, 0);
            assert!(report.attempted >= 1);
            assert_prints_every_metric(&report, if trace { &per_layer } else { &end_to_end });
        }
    }
}

#[test]
fn corrupted_served_answers_count_as_failed() {
    let registry = mfu_lang::scenarios::ScenarioRegistry::with_builtins();
    let config = tiny(Workload::QueryHot, false);
    let cell = cells::for_method(&registry, mfu_core::artifact::BoundMethod::Hull, &config)
        .unwrap()
        .remove(0);
    let served = Served::start(mfu_serve::ServiceOptions::default(), None).unwrap();
    let mut conn = Connection::open(served.addr()).unwrap();
    let cold = check::bound_response(conn.round_trip(&cell.by_name()).unwrap(), &cell).unwrap();
    assert!(!cold.cache_hit);
    let hit_line = conn.round_trip(&cell.by_source()).unwrap().to_string();
    let hit = check::bound_response(&hit_line, &cell).unwrap();
    assert!(hit.cache_hit);
    let expect = HotExpectation::new(&hit);
    assert!(expect.matches(&hit_line));

    // Flip the lowest bit of one upper bound of the real hit.
    let mut flipped: BoundArtifact = hit.artifact.clone();
    let i = cell.objective;
    flipped.upper[i] = f64::from_bits(flipped.upper[i].to_bits() ^ 1);
    let corrupted = mfu_serve::protocol::bound_response(&flipped, true, hit.elapsed_ns);
    assert!(!expect.matches(&corrupted), "a flipped bound bit must fail");

    // A non-finite or inverted bound fails the full check.
    let mut broken = hit.artifact.clone();
    broken.lower[i] = broken.upper[i] + 1.0;
    let inverted = mfu_serve::protocol::bound_response(&broken, true, 1);
    assert!(check::bound_response(&inverted, &cell).is_err());
    broken.lower[i] = f64::INFINITY;
    let infinite = mfu_serve::protocol::bound_response(&broken, true, 1);
    assert!(check::bound_response(&infinite, &cell).is_err());

    drop(conn);
    served.stop().unwrap();
}
