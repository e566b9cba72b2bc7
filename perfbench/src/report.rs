//! Metric names, units and the result line.

use std::collections::BTreeMap;

use mfu_core::json::Json;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
///
/// The width metrics and `sim_mean_err` each describe one kind of answer;
/// a workload that produces no answer of that kind reports
/// [`NOT_APPLICABLE`] for it.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("outer_width_gmean", "density"),
    ("inner_width_gmean", "density"),
    ("sim_mean_err", "density"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. A layer
/// that does not run on a workload reports 0 for its metrics.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("lang.parse_us", "us"),
    ("lang.validate_us", "us"),
    ("lang.hash_us", "us"),
    ("lang.intern_hit_us", "us"),
    ("lang.compile_us", "us"),
    ("lang.drift_batch_ns_per_lane", "ns"),
    ("core.hull.bounds_ms", "ms"),
    ("core.hull.vertex_evals", "count"),
    ("core.hull.vertex_evals_per_s", "1/s"),
    ("core.pontryagin.extremes_ms", "ms"),
    ("core.pontryagin.sweeps", "count"),
    ("core.pontryagin.rk4_steps", "count"),
    ("core.pontryagin.jacobian_evals", "count"),
    ("core.pontryagin.restarts", "count"),
    ("core.pontryagin.escalations", "count"),
    ("core.pontryagin.unconverged_extremes", "count"),
    ("core.pontryagin.iterations_max", "count"),
    ("core.json.render_us", "us"),
    ("serve.protocol_parse_us", "us"),
    ("serve.handle_line_us", "us"),
    ("serve.socket_us", "us"),
    ("serve.connect_us", "us"),
    ("serve.artifact_hit_ratio", "ratio"),
    ("serve.model_hit_ratio", "ratio"),
    ("serve.artifact_evictions", "count"),
    ("sim.replications_per_s", "1/s"),
    ("sim.events_fired", "count"),
    ("sim.leap_steps", "count"),
    ("sim.fallback_steps", "count"),
    ("sim.tau_halvings", "count"),
    ("sim.tau_demotions", "count"),
    ("sim.poisson_draws", "count"),
    ("sim.propensity_evals_per_event", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unexplained_frac", "ratio"),
];

/// Value reported for a quality metric on a workload that produces no
/// answer of its kind. The result line must carry every metric, and a
/// metric must never read 0, so the placeholder is 1 on every run.
pub const NOT_APPLICABLE: f64 = 1.0;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// The outcome of one run: answer accounting plus the metrics.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// `false` when any check failed: a wrong answer, or work counters that
    /// differ between passes of the same run.
    pub correct: bool,
    /// Operations attempted (bound queries, or simulation replications).
    pub attempted: u64,
    /// Operations whose answer failed a check.
    pub failed: u64,
    /// Metrics in table order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Builds a report from named values, in the order of `table`.
    ///
    /// # Errors
    ///
    /// Returns a message naming a metric of `table` missing from `values`,
    /// or a value that is not finite.
    pub fn from_values(
        table: &[(&'static str, &'static str)],
        values: &BTreeMap<&'static str, f64>,
        attempted: u64,
        failed: u64,
        consistent: bool,
    ) -> Result<Report, String> {
        let metrics = table
            .iter()
            .map(|&(name, unit)| match values.get(name) {
                Some(&value) if value.is_finite() => Ok(Metric { name, unit, value }),
                Some(value) => Err(format!("metric `{name}` is not finite ({value})")),
                None => Err(format!("metric `{name}` was not measured")),
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Report {
            correct: consistent && failed == 0,
            attempted,
            failed,
            metrics,
        })
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    #[must_use]
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                Json::object([
                    ("value", Json::Number(m.value)),
                    ("unit", Json::string(m.unit)),
                ]),
            )
        });
        Json::object([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Number(self.attempted as f64)),
            ("failed", Json::Number(self.failed as f64)),
            ("metrics", Json::object(metrics)),
        ])
        .render()
    }

    /// One human-readable line per metric.
    #[must_use]
    pub fn metric_lines(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|m| format!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit))
            .collect()
    }
}
