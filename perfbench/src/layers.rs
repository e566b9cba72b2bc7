//! In-process replays of single layer calls for the traced run, and the
//! per-layer metrics they add up to.

use std::collections::BTreeMap;
use std::time::Instant;

use mfu_core::artifact::BoundMethod;
use mfu_core::drift::ImpreciseDrift;
use mfu_core::hull::DifferentialHull;
use mfu_core::pontryagin::PontryaginSolver;
use mfu_lang::{CompiledModel, ModelInterner};
use mfu_num::batch::{BatchTheta, SoaBatch};
use mfu_obs::{Counter, Metrics, Obs, Tracer};
use mfu_serve::ServiceOptions;

use crate::cells::Cell;
use crate::report::PER_LAYER;
use crate::stats::mean;
use crate::trace::Spans;

/// Repetitions of each µs-scale call; its median is the sample.
pub const REPS: usize = 15;

/// Lane width of the drift-kernel measurement: the lockstep group width,
/// and of the order of a hull corner × Θ-vertex batch.
pub const LANES: usize = 64;

/// Per-layer samples gathered over one traced run.
#[derive(Debug, Default)]
pub struct LayerSamples {
    /// `metric name → samples` for metrics reported as a mean of samples.
    pub means: BTreeMap<&'static str, Vec<f64>>,
    /// `metric name → value` for metrics reported directly (totals, ratios).
    pub values: BTreeMap<&'static str, f64>,
}

impl LayerSamples {
    /// Adds one sample of a mean-reported metric.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.means.entry(name).or_default().push(value);
    }

    /// Adds `delta` to a directly reported metric.
    pub fn add(&mut self, name: &'static str, delta: f64) {
        *self.values.entry(name).or_insert(0.0) += delta;
    }

    /// Every per-layer metric: the mean of its samples, its direct value,
    /// or 0 where the layer did not run.
    #[must_use]
    pub fn finish(&self) -> BTreeMap<&'static str, f64> {
        PER_LAYER
            .iter()
            .map(|&(name, _)| {
                let value = match (self.values.get(name), self.means.get(name)) {
                    (Some(&v), _) => v,
                    (None, Some(samples)) if !samples.is_empty() => mean(samples),
                    _ => 0.0,
                };
                (name, value)
            })
            .collect()
    }
}

/// Replays the front end of the language on one source: parse, validate,
/// hash, a warm interner hit and a full observed compile, each in its own
/// span under `parent`.
///
/// # Errors
///
/// Returns the language error of a source that does not compile.
pub fn replay_lang(
    source: &str,
    interner: &mut ModelInterner,
    spans: &mut Spans,
    parent: Option<u64>,
    request: u64,
    samples: &mut LayerSamples,
) -> Result<(), String> {
    let lang_err = |e: mfu_lang::LangError| e.to_string();
    interner.intern_source(source).map_err(lang_err)?;
    let (interned, ns, intern_id) = spans.time_median("lang.intern", parent, request, REPS, || {
        interner.intern_source(source)
    });
    interned.map_err(lang_err)?;
    samples.push("lang.intern_hit_us", ns as f64 / 1e3);

    let intern = Some(intern_id);
    let (ast, ns, _) = spans.time_median("lang.parse", intern, request, REPS, || {
        mfu_lang::parse(source)
    });
    let ast = ast.map_err(lang_err)?;
    samples.push("lang.parse_us", ns as f64 / 1e3);
    let (resolved, ns, _) = spans.time_median("lang.validate", intern, request, REPS, || {
        mfu_lang::validate::validate(&ast, source)
    });
    let resolved = resolved.map_err(lang_err)?;
    samples.push("lang.validate_us", ns as f64 / 1e3);
    let (_, ns, _) = spans.time_median("lang.hash", intern, request, REPS, || {
        mfu_lang::model_hash(&resolved)
    });
    samples.push("lang.hash_us", ns as f64 / 1e3);

    let obs = Obs::with_metrics();
    let (compiled, ns, _) = spans.time_median("lang.compile", parent, request, REPS, || {
        mfu_lang::compile_observed(source, &obs)
    });
    compiled.map_err(lang_err)?;
    samples.push("lang.compile_us", ns as f64 / 1e3);
    Ok(())
}

/// Nanoseconds per lane of one `drift_batch_into` call on the model's drift
/// over [`LANES`] lanes (perturbed start states, Θ vertices cycled per
/// lane), median of several timed batches.
#[must_use]
pub fn drift_batch_ns_per_lane(model: &CompiledModel) -> f64 {
    const CALLS: usize = 200;
    const BATCHES: usize = 5;
    let drift = model.drift();
    let x0 = model.initial_state();
    let lanes: Vec<Vec<f64>> = (0..LANES)
        .map(|l| {
            let scale = 1.0 + 0.01 * l as f64 / LANES as f64;
            x0.as_slice().iter().map(|v| v * scale).collect()
        })
        .collect();
    let x = SoaBatch::from_lanes(&lanes);
    let vertices = model.params().vertices();
    let thetas: Vec<&Vec<f64>> = (0..LANES).map(|l| &vertices[l % vertices.len()]).collect();
    let thetas = SoaBatch::from_lanes(&thetas);
    let theta = BatchTheta::PerLane(&thetas);
    let mut out = SoaBatch::default();
    let mut per_lane = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..CALLS {
            drift.drift_batch_into(std::hint::black_box(&x), &theta, &mut out);
            std::hint::black_box(&out);
        }
        per_lane.push(start.elapsed().as_nanos() as f64 / (CALLS * LANES) as f64);
    }
    crate::stats::median(&mut per_lane)
}

/// What an engine replay computed and counted.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReplay {
    /// Lower bounds, one per species.
    pub lower: Vec<f64>,
    /// Upper bounds, one per species.
    pub upper: Vec<f64>,
    /// `[rk4_steps, jacobian_evals, sweeps, hull_vertex_evals]`, the
    /// counters a response's `cost` block carries.
    pub cost: [u64; 4],
    /// Wall time of the engine calls.
    pub elapsed_ns: u64,
}

/// Replays the cold computation of a cell exactly as the service runs it,
/// each engine call in its own span, with a metrics recorder attached
/// through the engines' `with_obs` hooks.
///
/// # Errors
///
/// Returns the engine failure.
pub fn replay_engine(
    cell: &Cell,
    options: &ServiceOptions,
    spans: &mut Spans,
    parent: Option<u64>,
    request: u64,
    samples: &mut LayerSamples,
) -> Result<EngineReplay, String> {
    let metrics = Metrics::enabled();
    let obs = Obs {
        metrics: metrics.clone(),
        tracer: Tracer::disabled(),
    };
    let model = &cell.model;
    let start = Instant::now();
    let (lower, upper) = match cell.method {
        BoundMethod::Hull => {
            let (bounds, ns, _) = spans.time_median("core.hull.bounds", parent, request, 1, || {
                DifferentialHull::new(model.drift(), options.hull)
                    .with_obs(obs.clone())
                    .bounds(&model.initial_state(), cell.horizon)
            });
            let bounds = bounds.map_err(|e| e.to_string())?;
            samples.push("core.hull.bounds_ms", ns as f64 / 1e6);
            samples.add("core.hull.seconds", ns as f64 / 1e9);
            let (lo, hi) = bounds.final_bounds();
            (lo.as_slice().to_vec(), hi.as_slice().to_vec())
        }
        BoundMethod::Pontryagin => {
            // The service's selection: reduced coordinates where they
            // exist, the full drift for the eliminated species.
            let solver = PontryaginSolver::new(options.pontryagin).with_obs(obs.clone());
            let reduced = model.reduced_drift();
            let full = model.drift();
            let reduced_x0 = model.reduced_initial_state();
            let full_x0 = model.initial_state();
            let mut lower = Vec::with_capacity(model.dim());
            let mut upper = Vec::with_capacity(model.dim());
            let cell_start = Instant::now();
            for coordinate in 0..model.dim() {
                let (drift, x0) = if coordinate < reduced_x0.dim() {
                    (&reduced, &reduced_x0)
                } else {
                    (&full, &full_x0)
                };
                for maximize in [false, true] {
                    let (solution, _, _) =
                        spans.time_median("core.pontryagin.extreme", parent, request, 1, || {
                            if maximize {
                                solver.maximize_coordinate(drift, x0, cell.horizon, coordinate)
                            } else {
                                solver.minimize_coordinate(drift, x0, cell.horizon, coordinate)
                            }
                        });
                    let solution = solution.map_err(|e| e.to_string())?;
                    if !solution.converged() {
                        samples.add("core.pontryagin.unconverged_extremes", 1.0);
                    }
                    let max_iterations = samples
                        .values
                        .entry("core.pontryagin.iterations_max")
                        .or_insert(0.0);
                    *max_iterations = max_iterations.max(solution.iterations() as f64);
                    if maximize {
                        upper.push(solution.objective_value());
                    } else {
                        lower.push(solution.objective_value());
                    }
                }
            }
            samples.push(
                "core.pontryagin.extremes_ms",
                cell_start.elapsed().as_nanos() as f64 / 1e6,
            );
            (lower, upper)
        }
    };
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    let snap = metrics.snapshot().expect("metrics are enabled");
    let cost = [
        snap.counter(Counter::CoreRk4Steps),
        snap.counter(Counter::CoreJacobianEvals),
        snap.counter(Counter::CorePontryaginSweeps),
        snap.counter(Counter::CoreHullVertexEvals),
    ];
    match cell.method {
        BoundMethod::Hull => samples.add("core.hull.vertex_evals", cost[3] as f64),
        BoundMethod::Pontryagin => {
            samples.add("core.pontryagin.rk4_steps", cost[0] as f64);
            samples.add("core.pontryagin.jacobian_evals", cost[1] as f64);
            samples.add("core.pontryagin.sweeps", cost[2] as f64);
            samples.add(
                "core.pontryagin.restarts",
                snap.counter(Counter::CorePontryaginRestarts) as f64,
            );
            samples.add(
                "core.pontryagin.escalations",
                snap.counter(Counter::CorePontryaginEscalations) as f64,
            );
        }
    }
    Ok(EngineReplay {
        lower,
        upper,
        cost,
        elapsed_ns,
    })
}
