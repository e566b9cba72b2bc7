//! Emits `BENCH_scenario_matrix.json`: the cross-scenario accuracy/cost
//! matrix of the bounding methods. Every registry scenario whose analysed
//! drift fits the hull's corner enumeration is swept through the three
//! bound pipelines —
//!
//! * the **differential hull** (coordinate-wise interval ODE),
//! * the **Pontryagin** costate sweep (transient extremal trajectories),
//! * a **seeded τ-leap ensemble** envelope over the parameter-box
//!   vertices (mean ± 2σ of the objective coordinate at the horizon) —
//!
//! and each cell records the resulting bound **width** at the scenario's
//! objective coordinate and horizon plus the **wall-clock** cost of
//! producing it. The width column is the accuracy axis (tighter is
//! better), the wall column the cost axis; together they are the
//! accuracy/cost trade-off the paper's method comparison is about.
//!
//! Run from the repository root (ideally `--release`):
//!
//! ```text
//! cargo run --release -p mfu-bench --bin scenario_matrix
//! ```
//!
//! # Bench-regression guard
//!
//! ```text
//! scenario_matrix --check <baseline.json> [--tolerance 0.5] [--current <report.json>]
//! ```
//!
//! compares the `wall_ns` leaves of a freshly written report against a
//! committed baseline via [`mfu_bench::regression`] and exits non-zero on
//! a regression. Cells are second-scale end-to-end pipelines (not
//! nanosecond micro-loops), so CI gates them at a looser tolerance than
//! the rate-engine report. Widths are *not* wall-clock gated — they are
//! deterministic, and any drift surfaces through the markdown staleness
//! gate below instead.
//!
//! # Markdown rendering and the docs staleness gate
//!
//! ```text
//! scenario_matrix --markdown [--current <report.json>]
//! scenario_matrix --markdown --check docs/SCENARIOS.md
//! ```
//!
//! renders the matrix of the **committed** report as a markdown table
//! (machine-independent: the table is a pure function of the JSON). With
//! `--check <doc>` it instead extracts the block between
//! `<!-- scenario-matrix:begin -->` and `<!-- scenario-matrix:end -->`
//! in the given document and exits non-zero unless it is byte-identical
//! to the rendering — so `docs/SCENARIOS.md` cannot drift from
//! `BENCH_scenario_matrix.json`.

use std::time::Instant;

use mfu_bench::regression;
use mfu_core::hull::{DifferentialHull, HullOptions};
use mfu_core::pontryagin::{PontryaginOptions, PontryaginSolver};
use mfu_lang::scenarios::ScenarioRegistry;
use mfu_lang::{CompiledModel, DslDrift};
use mfu_num::StateVec;
use mfu_sim::ensemble::{run_ensemble, EnsembleOptions};
use mfu_sim::gillespie::{SimulationAlgorithm, SimulationOptions, Simulator};
use mfu_sim::policy::ConstantPolicy;
use mfu_sim::tauleap::TauLeapOptions;

/// Largest analysed-drift dimension the hull sweep accepts: the rectangle
/// enumeration is exponential in the dimension, so the two synthetic
/// stress-test scenarios (`ring_48`, `grid_6x6`) sit out and are listed in
/// the report's `skipped` section instead of silently vanishing.
const MAX_MATRIX_DIM: usize = 8;

/// Replications per parameter vertex of the τ-leap ensemble envelope.
const REPLICATIONS: usize = 8;

/// Fixed base seed of every ensemble cell — the envelope is a
/// deterministic function of the report code, never of the run.
const BASE_SEED: u64 = 11;

/// τ-leap error-control parameter of the ensemble cells.
const EPSILON: f64 = 0.03;

/// One scenario × method cell: bound width at the objective coordinate
/// and the wall-clock cost of computing it.
struct Cell {
    width: f64,
    wall_ns: f64,
}

/// One row of the matrix: the scenario's shape plus its three cells.
struct Row {
    family: String,
    name: String,
    species: usize,
    transitions: usize,
    scale: usize,
    hull: Cell,
    pontryagin: Cell,
    ensemble: Cell,
    vertices: usize,
}

/// Median wall-clock of `samples` runs of `f`, in nanoseconds, alongside
/// the last run's result (the computations are deterministic, so every
/// run returns the same value).
fn median_wall_ns<T, F: FnMut() -> T>(samples: usize, mut f: F) -> (f64, T) {
    let mut timings = Vec::with_capacity(samples);
    let mut result = None;
    for _ in 0..samples {
        let start = Instant::now();
        result = Some(f());
        timings.push(start.elapsed().as_nanos() as f64);
    }
    timings.sort_by(f64::total_cmp);
    (timings[timings.len() / 2], result.expect("samples >= 1"))
}

/// Sweeps one scenario through the three methods, bounding its objective
/// on `drift` from `x0`.
fn measure_row(
    scenario: &mfu_lang::scenarios::Scenario,
    model: &CompiledModel,
    drift: &DslDrift,
    x0: &StateVec,
) -> Result<Row, String> {
    let horizon = scenario.horizon();
    let objective = scenario.objective_coordinate();

    // Clamped to [0, 1] as the density interpretation demands (the same
    // choice as the steady-state figure): for wide parameter boxes the raw
    // hull ODE can exit the simplex and blow up (botnet's scan ∈ [0.5, 4]
    // does exactly that), and a bound outside [0, 1] carries no
    // information about an occupancy measure anyway.
    let (hull_wall, hull_bounds) = median_wall_ns(3, || {
        DifferentialHull::new(
            drift,
            HullOptions {
                step: 1e-2,
                clamp: Some((0.0, 1.0)),
                ..HullOptions::default()
            },
        )
        .bounds(x0, horizon)
    });
    let bounds = hull_bounds.map_err(|e| format!("`{}` hull failed: {e}", scenario.name()))?;
    let (hull_lo, hull_hi) = bounds.final_bounds();
    let hull = Cell {
        width: hull_hi[objective] - hull_lo[objective],
        wall_ns: hull_wall,
    };

    let (pmp_wall, pmp_extremes) = median_wall_ns(3, || {
        PontryaginSolver::new(PontryaginOptions::default())
            .coordinate_extremes(drift, x0, horizon, objective)
    });
    let (pmp_lo, pmp_hi) =
        pmp_extremes.map_err(|e| format!("`{}` Pontryagin failed: {e}", scenario.name()))?;
    let pontryagin = Cell {
        width: pmp_hi - pmp_lo,
        wall_ns: pmp_wall,
    };

    // Ensemble envelope: at every vertex of the parameter box run a seeded
    // τ-leap ensemble and take mean ± 2σ of the objective density at the
    // horizon; the envelope is the union over the vertices. This is the
    // simulation-side answer to "how uncertain is the model really" — the
    // extremes of a differential inclusion live on the parameter vertices
    // for monotone drifts, and the ± 2σ band adds the finite-N noise the
    // deterministic bounds ignore.
    let scale = scenario.default_scale().unwrap_or(1000);
    let population = model
        .population_model()
        .map_err(|e| format!("`{}` population model failed: {e}", scenario.name()))?;
    let simulator = Simulator::new(population, scale)
        .map_err(|e| format!("`{}` simulator failed: {e}", scenario.name()))?;
    let counts = model.initial_counts(scale);
    let sim_options = SimulationOptions::new(horizon)
        .record_stride(64)
        .algorithm(SimulationAlgorithm::TauLeap(TauLeapOptions::new(EPSILON)));
    let ensemble_options = EnsembleOptions {
        replications: REPLICATIONS,
        base_seed: BASE_SEED,
        grid_intervals: 10,
        ..EnsembleOptions::default()
    };
    let thetas = model.params().vertices();
    let vertices = thetas.len();
    let start = Instant::now();
    let mut env_lo = f64::INFINITY;
    let mut env_hi = f64::NEG_INFINITY;
    for theta in &thetas {
        let summary = run_ensemble(
            &simulator,
            &counts,
            || ConstantPolicy::new(theta.clone()),
            &sim_options,
            &ensemble_options,
        )
        .map_err(|e| format!("`{}` ensemble failed: {e}", scenario.name()))?;
        let last = summary.times().len() - 1;
        let mean = summary.mean_at(last)[objective];
        let sd = summary.std_dev_at(last)[objective];
        env_lo = env_lo.min(mean - 2.0 * sd);
        env_hi = env_hi.max(mean + 2.0 * sd);
    }
    let ensemble = Cell {
        width: env_hi - env_lo,
        wall_ns: start.elapsed().as_nanos() as f64,
    };

    Ok(Row {
        family: scenario.family().to_string(),
        name: scenario.name().to_string(),
        species: model.dim(),
        transitions: model.rules().len(),
        scale,
        hull,
        pontryagin,
        ensemble,
        vertices,
    })
}

/// Renders the report rows as the JSON document.
fn render_json(rows: &[Row], skipped: &[(String, usize)]) -> String {
    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"scenario_matrix\",\n");
    json.push_str(
        "  \"units\": {\"wall_ns\": \"ns per cell (median of 3 for hull/pontryagin, \
         single pass for the ensemble)\", \"width\": \"upper - lower of the objective \
         density at the horizon\"},\n",
    );
    json.push_str(&format!(
        "  \"ensemble_config\": {{\"replications\": {REPLICATIONS}, \"base_seed\": {BASE_SEED}, \
         \"epsilon\": {EPSILON}, \"band\": \"mean +/- 2 sigma over the theta vertices\"}},\n"
    ));
    let skipped_lines: Vec<String> = skipped
        .iter()
        .map(|(name, dim)| {
            format!("    {{\"scenario\": \"{name}\", \"analysed_dim\": {dim}, \"reason\": \"hull corner enumeration is exponential in the dimension (> {MAX_MATRIX_DIM})\"}}")
        })
        .collect();
    json.push_str(&format!(
        "  \"skipped\": [\n{}\n  ],\n",
        skipped_lines.join(",\n")
    ));
    let row_blocks: Vec<String> = rows
        .iter()
        .map(|row| {
            format!(
                "    \"{}\": {{\n      \"family\": \"{}\",\n      \"species\": {},\n      \
                 \"transitions\": {},\n      \"scale\": {},\n      \"vertices\": {},\n      \
                 \"hull\": {{\"width\": {:.6}, \"wall_ns\": {:.0}}},\n      \
                 \"pontryagin\": {{\"width\": {:.6}, \"wall_ns\": {:.0}}},\n      \
                 \"ensemble\": {{\"width\": {:.6}, \"wall_ns\": {:.0}}}\n    }}",
                row.name,
                row.family,
                row.species,
                row.transitions,
                row.scale,
                row.vertices,
                row.hull.width,
                row.hull.wall_ns,
                row.pontryagin.width,
                row.pontryagin.wall_ns,
                row.ensemble.width,
                row.ensemble.wall_ns,
            )
        })
        .collect();
    json.push_str(&format!(
        "  \"matrix\": {{\n{}\n  }}\n}}\n",
        row_blocks.join(",\n")
    ));
    json
}

/// Formats a `wall_ns` leaf as milliseconds for the markdown table.
fn fmt_ms(wall_ns: f64) -> String {
    format!("{:.1}", wall_ns / 1e6)
}

/// Renders the matrix of an already-written report as a markdown table —
/// a pure function of the JSON text, so the same committed report renders
/// byte-identically on every machine.
fn render_markdown(report: &str) -> Result<String, String> {
    let doc = regression::parse(report)?;
    let matrix = doc
        .get("matrix")
        .and_then(|m| m.as_object())
        .ok_or("report has no `matrix` object")?;
    let mut rows: Vec<(String, String, &mfu_core::json::Json)> = matrix
        .iter()
        .map(|(name, entry)| {
            let family = entry
                .get("family")
                .and_then(|f| f.as_str())
                .unwrap_or("custom")
                .to_string();
            (family, name.clone(), entry)
        })
        .collect();
    rows.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    let mut out = String::new();
    out.push_str(
        "| Family | Scenario | Species | Hull width | Hull ms | Pontryagin width | \
         Pontryagin ms | Ensemble width | Ensemble ms |\n",
    );
    out.push_str("|---|---|---:|---:|---:|---:|---:|---:|---:|\n");
    for (family, name, entry) in &rows {
        let cell = |method: &str, leaf: &str| {
            entry
                .get(method)
                .and_then(|m| m.get(leaf))
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("`{name}` is missing `{method}.{leaf}`"))
        };
        let species = entry
            .get("species")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("`{name}` is missing `species`"))?;
        out.push_str(&format!(
            "| {family} | {name} | {species:.0} | {:.4} | {} | {:.4} | {} | {:.4} | {} |\n",
            cell("hull", "width")?,
            fmt_ms(cell("hull", "wall_ns")?),
            cell("pontryagin", "width")?,
            fmt_ms(cell("pontryagin", "wall_ns")?),
            cell("ensemble", "width")?,
            fmt_ms(cell("ensemble", "wall_ns")?),
        ));
    }
    if let Some(skipped) = doc.get("skipped").and_then(|s| s.as_array()) {
        let notes: Vec<String> = skipped
            .iter()
            .filter_map(|entry| {
                let name = entry.get("scenario")?.as_str()?;
                let dim = entry.get("analysed_dim")?.as_f64()?;
                Some(format!("`{name}` ({dim:.0}-dimensional)"))
            })
            .collect();
        if !notes.is_empty() {
            out.push_str(&format!(
                "\nSkipped (hull corner enumeration is exponential in the dimension, \
                 cap {MAX_MATRIX_DIM}): {}.\n",
                notes.join(", ")
            ));
        }
    }
    Ok(out)
}

/// Markers delimiting the generated block inside `docs/SCENARIOS.md`.
const BLOCK_BEGIN: &str = "<!-- scenario-matrix:begin -->";
const BLOCK_END: &str = "<!-- scenario-matrix:end -->";

/// Extracts the marker-delimited generated block of a documentation page.
fn extract_block(doc: &str) -> Result<&str, String> {
    let start = doc
        .find(BLOCK_BEGIN)
        .ok_or_else(|| format!("document has no `{BLOCK_BEGIN}` marker"))?
        + BLOCK_BEGIN.len();
    let end = doc[start..]
        .find(BLOCK_END)
        .ok_or_else(|| format!("document has no `{BLOCK_END}` marker"))?;
    Ok(doc[start..start + end].trim_matches('\n'))
}

/// Parsed command line.
enum Mode {
    /// Sweep the registry and (over)write the report.
    Measure,
    /// Regression-gate a fresh report against a committed baseline.
    Check {
        baseline: String,
        current: String,
        tolerance: f64,
    },
    /// Render the committed report as markdown; with `check`, verify the
    /// marker-delimited block of the given document instead of printing.
    Markdown {
        current: String,
        check: Option<String>,
    },
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut markdown = false;
    let mut check = None;
    let mut current = "BENCH_scenario_matrix.json".to_string();
    let mut tolerance: f64 = 0.5;
    let mut saw_tuning = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("`{flag}` needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--markdown" => markdown = true,
            "--check" => check = Some(value("a baseline or document path")?),
            "--current" => {
                current = value("a report path")?;
                saw_tuning = true;
            }
            "--tolerance" => {
                tolerance = value("a relative tolerance")?
                    .parse()
                    .map_err(|e| format!("`--tolerance`: {e}"))?;
                if !(tolerance >= 0.0 && tolerance.is_finite()) {
                    return Err("`--tolerance` must be a non-negative number".into());
                }
                saw_tuning = true;
            }
            other => {
                return Err(format!(
                    "unknown option `{other}` (expected --check <baseline.json> \
                     [--tolerance <rel>] [--current <report.json>] or \
                     --markdown [--check <doc.md>] [--current <report.json>])"
                ))
            }
        }
    }
    match (markdown, check) {
        (true, check) => {
            if tolerance != 0.5 {
                return Err("`--tolerance` does not apply to --markdown mode".into());
            }
            Ok(Mode::Markdown { current, check })
        }
        (false, Some(baseline)) => Ok(Mode::Check {
            baseline,
            current,
            tolerance,
        }),
        // without --check/--markdown the binary measures and OVERWRITES the
        // report, so stray check-only flags must not be silently ignored
        (false, None) if saw_tuning => Err("`--tolerance`/`--current` only apply to \
             --check/--markdown mode; add one of those or drop them"
            .into()),
        (false, None) => Ok(Mode::Measure),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args)? {
        Mode::Check {
            baseline,
            current,
            tolerance,
        } => {
            if regression::check_reports("scenario-matrix guard", &baseline, &current, tolerance)? {
                return Ok(());
            }
            eprintln!("scenario-matrix regression guard failed");
            std::process::exit(1);
        }
        Mode::Markdown { current, check } => {
            let report = std::fs::read_to_string(&current)
                .map_err(|e| format!("cannot read report `{current}`: {e}"))?;
            let table = render_markdown(&report)?;
            match check {
                None => print!("{table}"),
                Some(doc_path) => {
                    let doc = std::fs::read_to_string(&doc_path)
                        .map_err(|e| format!("cannot read document `{doc_path}`: {e}"))?;
                    let block = extract_block(&doc)?;
                    if block != table.trim_matches('\n') {
                        eprintln!(
                            "`{doc_path}` is stale: its scenario-matrix block does not \
                             match the rendering of `{current}`.\nRegenerate with:\n  \
                             cargo run --release -p mfu-bench --bin scenario_matrix -- \
                             --markdown\nand paste the output between the \
                             `scenario-matrix` markers."
                        );
                        std::process::exit(1);
                    }
                    println!("`{doc_path}` scenario-matrix block matches `{current}`");
                }
            }
            return Ok(());
        }
        Mode::Measure => {}
    }

    let registry = ScenarioRegistry::with_builtins();
    let mut scenarios: Vec<_> = registry.iter().collect();
    scenarios.sort_by_key(|s| (s.family().to_string(), s.name().to_string()));
    let mut rows = Vec::new();
    let mut skipped = Vec::new();
    for scenario in scenarios {
        let model = scenario.compile()?;
        // Conservative models analyse in reduced coordinates (the last
        // species is eliminated); bounding that species needs the full
        // drift. Same selection rule as the CLI's `run --bound`.
        let (drift, x0) = model.bounding_drift(scenario.objective_coordinate());
        let analysed_dim = x0.dim();
        if analysed_dim > MAX_MATRIX_DIM {
            eprintln!(
                "skipping `{}`: analysed drift is {analysed_dim}-dimensional \
                 (cap {MAX_MATRIX_DIM})",
                scenario.name()
            );
            skipped.push((scenario.name().to_string(), analysed_dim));
            continue;
        }
        eprintln!("measuring `{}` ...", scenario.name());
        rows.push(measure_row(scenario, &model, &drift, &x0)?);
    }

    let json = render_json(&rows, &skipped);
    println!("{json}");
    std::fs::write("BENCH_scenario_matrix.json", &json)?;
    eprintln!(
        "wrote BENCH_scenario_matrix.json ({} scenarios)",
        rows.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal two-row report for the rendering tests.
    fn sample_report() -> String {
        let rows = vec![
            Row {
                family: "queueing".into(),
                name: "pod_choices_d2".into(),
                species: 5,
                transitions: 8,
                scale: 1000,
                hull: Cell {
                    width: 0.25,
                    wall_ns: 2.0e6,
                },
                pontryagin: Cell {
                    width: 0.125,
                    wall_ns: 40.0e6,
                },
                ensemble: Cell {
                    width: 0.1,
                    wall_ns: 300.0e6,
                },
                vertices: 2,
            },
            Row {
                family: "epidemic".into(),
                name: "sir".into(),
                species: 3,
                transitions: 2,
                scale: 1000,
                hull: Cell {
                    width: 0.5,
                    wall_ns: 1.0e6,
                },
                pontryagin: Cell {
                    width: 0.25,
                    wall_ns: 30.0e6,
                },
                ensemble: Cell {
                    width: 0.2,
                    wall_ns: 200.0e6,
                },
                vertices: 2,
            },
        ];
        render_json(&rows, &[("grid_6x6".into(), 35)])
    }

    #[test]
    fn report_json_parses_and_gates_only_wall_leaves() {
        let json = sample_report();
        let leaves = regression::numeric_leaves(&regression::parse(&json).unwrap());
        assert_eq!(leaves["matrix.sir.hull.width"], 0.5);
        assert_eq!(leaves["matrix.sir.hull.wall_ns"], 1.0e6);
        // the guard compares a report against itself cleanly, and the only
        // gated leaves are the wall clocks (widths are checked by the
        // markdown staleness gate, not by a timing tolerance)
        let comparison = regression::compare(&json, &json, 0.5).unwrap();
        assert!(comparison.regressions.is_empty());
        assert_eq!(comparison.passed, 6);
    }

    #[test]
    fn markdown_rendering_is_family_sorted_and_deterministic() {
        let table = render_markdown(&sample_report()).unwrap();
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[0].starts_with("| Family | Scenario | Species |"));
        // epidemic sorts before queueing regardless of JSON insertion order
        assert!(lines[2].starts_with("| epidemic | sir | 3 | 0.5000 | 1.0 |"));
        assert!(lines[3].starts_with("| queueing | pod_choices_d2 | 5 | 0.2500 | 2.0 |"));
        assert!(table.contains("Skipped"));
        assert!(table.contains("`grid_6x6` (35-dimensional)"));
        assert_eq!(table, render_markdown(&sample_report()).unwrap());
    }

    #[test]
    fn staleness_block_round_trips_through_a_document() {
        let table = render_markdown(&sample_report()).unwrap();
        let doc = format!("# Scenarios\n\nprose\n\n{BLOCK_BEGIN}\n{table}\n{BLOCK_END}\n\nmore\n");
        assert_eq!(extract_block(&doc).unwrap(), table.trim_matches('\n'));
        assert!(extract_block("no markers here").is_err());
    }

    #[test]
    fn arg_parsing_covers_the_three_modes() {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(matches!(parse_args(&[]).unwrap(), Mode::Measure));
        match parse_args(&s(&["--check", "b.json", "--tolerance", "0.4"])).unwrap() {
            Mode::Check {
                baseline,
                current,
                tolerance,
            } => {
                assert_eq!(baseline, "b.json");
                assert_eq!(current, "BENCH_scenario_matrix.json");
                assert!((tolerance - 0.4).abs() < 1e-12);
            }
            _ => panic!("expected check mode"),
        }
        match parse_args(&s(&["--markdown", "--check", "docs/SCENARIOS.md"])).unwrap() {
            Mode::Markdown { current, check } => {
                assert_eq!(current, "BENCH_scenario_matrix.json");
                assert_eq!(check.as_deref(), Some("docs/SCENARIOS.md"));
            }
            _ => panic!("expected markdown mode"),
        }
        // stray tuning flags without a mode must not silently measure
        assert!(parse_args(&s(&["--tolerance", "0.1"])).is_err());
        assert!(parse_args(&s(&["--markdown", "--tolerance", "0.1"])).is_err());
        assert!(parse_args(&s(&["--bogus"])).is_err());
    }
}
