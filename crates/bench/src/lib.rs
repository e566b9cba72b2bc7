//! Shared helpers for the figure-regeneration binaries and Criterion benches.
//!
//! Every figure of the paper's evaluation section has a dedicated binary in
//! `src/bin/` that prints the corresponding data series as aligned
//! tab-separated columns (one row per plotted abscissa). The *Figures*
//! section of `docs/ARCHITECTURE.md` records the qualitative comparison
//! between these series and the published figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Prints a table header: a `#`-prefixed tab-separated row of column names.
pub fn print_header(columns: &[&str]) {
    println!("# {}", columns.join("\t"));
}

/// Prints one tab-separated data row with six-decimal formatting.
pub fn print_row(values: &[f64]) {
    let formatted: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
    println!("{}", formatted.join("\t"));
}

/// Prints a section banner so that multi-part figure outputs stay readable.
pub fn print_section(title: &str) {
    println!();
    println!("## {title}");
}

/// Bench-regression guard: parse `BENCH_*.json` reports and compare their
/// timing metrics against a committed baseline.
///
/// The JSON value type, reader and `numeric_leaves` flattener are
/// re-exported from [`mfu_core::json`] — the workspace-wide JSON layer
/// with the escaping-correct writer shared by `BoundArtifact` and the
/// `mfu-serve` line framing — so the guard reads exactly what the report
/// binaries emit. This module adds only the comparison rule CI enforces:
/// every gated metric present in *both* reports may grow by at most the
/// given relative tolerance.
pub mod regression {
    pub use mfu_core::json::{numeric_leaves, parse, Json};

    /// One metric that regressed beyond the tolerance.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Regression {
        /// Dotted path of the metric inside the report.
        pub path: String,
        /// Baseline value (nanoseconds).
        pub baseline: f64,
        /// Current value (nanoseconds).
        pub current: f64,
    }

    /// Outcome of a baseline comparison.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Comparison {
        /// Metrics present in both reports and within tolerance.
        pub passed: usize,
        /// Metrics that regressed beyond the tolerance, worst first.
        pub regressions: Vec<Regression>,
        /// Metric paths present in only one of the two reports (new or
        /// retired sections — informational, never a failure).
        pub unmatched: Vec<String>,
    }

    /// Compares the gated metrics of `current` against `baseline`: a metric
    /// fails when it exceeds `baseline · (1 + tolerance)`. Gated leaves are
    /// the timing keys (ending `_ns` — per-event and per-eval costs) and
    /// the derived engine-counter keys (ending `_per_event`, `_rate` or
    /// `_ratio` — e.g. propensity re-evaluations per event, the τ-halving
    /// rate, the metrics-on/off overhead ratio). Metrics present in only one report are listed as unmatched
    /// so a report gaining a section cannot fail the guard retroactively.
    ///
    /// # Errors
    ///
    /// Returns a parse error if either document is malformed.
    pub fn compare(baseline: &str, current: &str, tolerance: f64) -> Result<Comparison, String> {
        let base = numeric_leaves(&parse(baseline)?);
        let cur = numeric_leaves(&parse(current)?);
        let is_timing = |path: &str| {
            path.rsplit('.').next().is_some_and(|leaf| {
                leaf.ends_with("_ns")
                    || leaf.ends_with("_per_event")
                    || leaf.ends_with("_rate")
                    || leaf.ends_with("_ratio")
            })
        };
        let mut comparison = Comparison {
            passed: 0,
            regressions: Vec::new(),
            unmatched: Vec::new(),
        };
        for (path, &base_value) in base.iter().filter(|(p, _)| is_timing(p)) {
            match cur.get(path) {
                Some(&cur_value) => {
                    if cur_value > base_value * (1.0 + tolerance) {
                        comparison.regressions.push(Regression {
                            path: path.clone(),
                            baseline: base_value,
                            current: cur_value,
                        });
                    } else {
                        comparison.passed += 1;
                    }
                }
                None => comparison.unmatched.push(path.clone()),
            }
        }
        for path in cur.keys().filter(|p| is_timing(p)) {
            if !base.contains_key(path) {
                comparison.unmatched.push(path.clone());
            }
        }
        comparison
            .regressions
            .sort_by(|a, b| (b.current / b.baseline).total_cmp(&(a.current / a.baseline)));
        Ok(comparison)
    }

    /// Reads the reports at `baseline_path` and `current_path`, runs
    /// [`compare`] on them and prints the verdict table under `label`.
    /// Returns whether no metric regressed.
    ///
    /// # Errors
    ///
    /// Returns a message if either report cannot be read or parsed.
    pub fn check_reports(
        label: &str,
        baseline_path: &str,
        current_path: &str,
        tolerance: f64,
    ) -> Result<bool, String> {
        let baseline = std::fs::read_to_string(baseline_path)
            .map_err(|e| format!("cannot read baseline `{baseline_path}`: {e}"))?;
        let current = std::fs::read_to_string(current_path)
            .map_err(|e| format!("cannot read current report `{current_path}`: {e}"))?;
        let comparison = compare(&baseline, &current, tolerance)?;
        println!(
            "{label}: {} shared timing metrics within {:.0}% of `{baseline_path}`",
            comparison.passed,
            tolerance * 100.0
        );
        for path in &comparison.unmatched {
            println!("  (unmatched, ignored) {path}");
        }
        for regression in &comparison.regressions {
            println!(
                "  REGRESSION {}: {:.2} ns -> {:.2} ns ({:+.0}%)",
                regression.path,
                regression.baseline,
                regression.current,
                (regression.current / regression.baseline - 1.0) * 100.0
            );
        }
        Ok(comparison.regressions.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_do_not_panic() {
        print_header(&["t", "lower", "upper"]);
        print_row(&[0.0, 1.0, 2.0]);
        print_section("part (a)");
    }

    #[test]
    fn json_round_trip_and_leaf_flattening() {
        use super::regression::{numeric_leaves, parse, Json};
        let doc = r#"{
          "benchmark": "rate_engine",
          "units": {"eval_ns": "ns/eval"},
          "ssa": {"ring": {"scale": 4800, "linear": {"step_ns": 1.5e2, "events": 22543}}},
          "list": [1, 2.5, {"x_ns": -3e-1}],
          "flags": {"ok": true, "nothing": null}
        }"#;
        let parsed = parse(doc).unwrap();
        assert!(matches!(parsed, Json::Object(_)));
        let leaves = numeric_leaves(&parsed);
        assert_eq!(leaves["ssa.ring.scale"], 4800.0);
        assert_eq!(leaves["ssa.ring.linear.step_ns"], 150.0);
        assert_eq!(leaves["ssa.ring.linear.events"], 22543.0);
        assert_eq!(leaves["list.0"], 1.0);
        assert_eq!(leaves["list.2.x_ns"], -0.3);
        assert!(!leaves.contains_key("benchmark"));
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn regression_guard_compares_only_shared_timing_keys() {
        use super::regression::compare;
        let baseline = r#"{"ssa": {"a": {"step_ns": 100.0, "events": 10},
                                    "gone": {"step_ns": 50.0}},
                           "rate_eval": {"vm_eval_ns": 4.0, "speedup": 3.0}}"#;
        // step_ns +20% (within 25%), vm_eval_ns +50% (regressed);
        // `events` and `speedup` are not timing keys and never compared;
        // a section may disappear or appear without failing the guard
        let current = r#"{"ssa": {"a": {"step_ns": 120.0, "events": 99},
                                   "new": {"step_ns": 1000.0}},
                          "rate_eval": {"vm_eval_ns": 6.0, "speedup": 0.1}}"#;
        let report = compare(baseline, current, 0.25).unwrap();
        assert_eq!(report.passed, 1);
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].path, "rate_eval.vm_eval_ns");
        assert_eq!(report.unmatched.len(), 2, "{:?}", report.unmatched);
        // a faster current run passes trivially
        let report = compare(baseline, baseline, 0.0).unwrap();
        assert!(report.regressions.is_empty());
        assert_eq!(report.passed, 3);
    }

    #[test]
    fn regression_guard_gates_derived_counter_ratios() {
        use super::regression::compare;
        let baseline = r#"{"counters": {"ring": {
            "propensity_evals_per_event": 3.0,
            "fallback_rate": 0.10,
            "overhead_ratio": 1.00,
            "tau_halvings_rate": 0.0,
            "events": 1000}}}"#;
        // evals/event +10% passes at 25%, fallback rate +100% fails, a
        // zero baseline fails on ANY increase (the τ-halvings invariant),
        // and plain counts (`events`) are never gated
        let current = r#"{"counters": {"ring": {
            "propensity_evals_per_event": 3.3,
            "fallback_rate": 0.20,
            "overhead_ratio": 1.02,
            "tau_halvings_rate": 0.001,
            "events": 999999}}}"#;
        let report = compare(baseline, current, 0.25).unwrap();
        assert_eq!(report.passed, 2);
        let failed: Vec<&str> = report.regressions.iter().map(|r| r.path.as_str()).collect();
        assert!(
            failed.contains(&"counters.ring.fallback_rate"),
            "{failed:?}"
        );
        assert!(
            failed.contains(&"counters.ring.tau_halvings_rate"),
            "{failed:?}"
        );
        assert_eq!(report.regressions.len(), 2);
    }

    #[test]
    fn the_committed_baseline_parses_and_carries_timing_metrics() {
        // the CI guard is only as good as the committed baseline: it must
        // stay parseable by this reader and keep its `_ns` leaves
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_rate_engine.json");
        let text = std::fs::read_to_string(path).expect("baseline readable");
        let leaves = super::regression::numeric_leaves(&super::regression::parse(&text).unwrap());
        let timing = leaves.keys().filter(|k| k.ends_with("_ns")).count();
        assert!(timing >= 10, "only {timing} timing metrics in the baseline");
        let gated = leaves
            .keys()
            .filter(|k| {
                k.ends_with("_ns")
                    || k.ends_with("_per_event")
                    || k.ends_with("_rate")
                    || k.ends_with("_ratio")
            })
            .count();
        assert!(
            gated > timing,
            "the counters section must contribute gated ratio metrics"
        );
        let report = super::regression::compare(&text, &text, 0.25).unwrap();
        assert!(report.regressions.is_empty());
        assert_eq!(report.passed, gated);
    }

    #[test]
    fn generated_ring_has_sparse_dependencies() {
        // the generator itself lives in `mfu_lang::scenarios` (it is a
        // registry citizen now); what matters to the benches is that the
        // simulator sees a genuinely sparse dependency graph
        let model = mfu_lang::compile(&mfu_lang::scenarios::ring_source(12)).unwrap();
        let simulator =
            mfu_sim::gillespie::Simulator::new(model.population_model().unwrap(), 1200).unwrap();
        assert!(simulator.has_sparse_dependencies());
        // firing one hop perturbs exactly two propensities
        assert_eq!(simulator.dependency_graph()[3], vec![3, 4]);
    }
}
