//! The `ensemble` workload: seeded τ-leap ensembles and single simulations,
//! called in-process through `mfu_sim`.
//!
//! A cell is one registry scenario at its default scale (1000 where it
//! declares none) at one vertex of its parameter box, run as a lockstep
//! τ-leap `run_ensemble`. The mix also holds single `Simulator::simulate`
//! runs at the parameter midpoint: τ-leap at every declared scale (the
//! `mfu run sir_1e6` path) and exact SSA at every scale up to 1000. Every
//! pass repeats the same seeds, so its work counters repeat exactly.

use std::collections::BTreeMap;
use std::time::Instant;

use mfu_core::drift::ImpreciseDrift;
use mfu_lang::scenarios::ScenarioRegistry;
use mfu_lang::{DslDrift, ModelInterner};
use mfu_num::ode::{Integrator, OdeSystem, Rk4};
use mfu_num::StateVec;
use mfu_obs::{Counter, Metrics, MetricsSnapshot, Obs, Tracer};
use mfu_sim::ensemble::{run_ensemble, EnsembleOptions};
use mfu_sim::gillespie::{SimulationAlgorithm, SimulationOptions, Simulator};
use mfu_sim::policy::ConstantPolicy;
use mfu_sim::tauleap::TauLeapOptions;

use crate::calib;
use crate::layers::{self, LayerSamples};
use crate::report::{Report, END_TO_END, NOT_APPLICABLE, PER_LAYER};
use crate::stats::{item_medians, percentile, SplitMix};
use crate::trace::Spans;
use crate::Config;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Every run makes at least this many passes.
const MIN_PASSES: usize = 2;
/// Replications per ensemble cell.
const REPLICATIONS: usize = 64;
/// Ensemble worker threads: one, as the run is pinned to one CPU (see
/// [`calib`]).
const THREADS: usize = 1;
/// Scale of scenarios that declare none (as in the scenario matrix).
const DEFAULT_SCALE: usize = 1000;
/// Largest scale simulated with exact SSA.
const EXACT_MAX_SCALE: usize = 1000;
/// τ-leap error control, as in the scenario matrix.
const EPSILON: f64 = 0.03;
/// Step of the RK4 reference solution.
const ODE_STEP: f64 = 1e-3;

/// The deterministic simulation counters of a pass.
const SIM_COUNTERS: [Counter; 8] = [
    Counter::SimEventsFired,
    Counter::SimTauLeapSteps,
    Counter::SimTauFallbackSteps,
    Counter::SimTauHalvings,
    Counter::SimTauDemotions,
    Counter::SimPoissonDraws,
    Counter::SimPropensityEvals,
    Counter::SimRuns,
];

/// The drift at a fixed parameter, as an ODE.
struct FixedTheta<'a> {
    drift: &'a DslDrift,
    theta: &'a [f64],
}

impl OdeSystem for FixedTheta<'_> {
    fn dim(&self) -> usize {
        self.drift.dim()
    }

    fn rhs(&self, _t: f64, x: &StateVec, dx: &mut StateVec) {
        self.drift.drift_into(x, self.theta, dx);
    }
}

/// What one simulation call runs.
enum Job {
    /// A τ-leap ensemble at one Θ vertex, with its mean-field reference.
    Ensemble {
        theta: Vec<f64>,
        reference: StateVec,
        base_seed: u64,
    },
    /// One run at the parameter midpoint.
    Single {
        theta: Vec<f64>,
        exact: bool,
        seed: u64,
    },
}

struct Scenario {
    name: String,
    source: String,
    model: mfu_lang::CompiledModel,
    simulator: Simulator,
    counts: Vec<i64>,
    horizon: f64,
    jobs: Vec<Job>,
}

struct Setup {
    scenarios: Vec<Scenario>,
    metrics: Metrics,
}

fn setup(config: &Config) -> Result<Setup, String> {
    let registry = ScenarioRegistry::with_builtins();
    let metrics = Metrics::enabled();
    let mut rng = SplitMix::new(config.seed);
    let mut scenarios = Vec::new();
    for scenario in registry.iter().filter(|s| config.includes(s.name())) {
        let name = scenario.name().to_string();
        let fail = |what: &str, e: String| format!("`{name}`: {what}: {e}");
        let model = scenario
            .compile()
            .map_err(|e| fail("compile", e.to_string()))?;
        let scale = scenario.default_scale().unwrap_or(DEFAULT_SCALE);
        let population = model
            .population_model()
            .map_err(|e| fail("population model", e.to_string()))?;
        let simulator = Simulator::new(population, scale)
            .map_err(|e| fail("simulator", e.to_string()))?
            .with_obs(Obs {
                metrics: metrics.clone(),
                tracer: Tracer::disabled(),
            });
        let horizon = scenario.horizon();
        let drift = model.drift();
        let mut jobs = Vec::new();
        for theta in model.params().vertices() {
            let system = FixedTheta {
                drift: &drift,
                theta: &theta,
            };
            let reference = Rk4::with_step(ODE_STEP)
                .final_state(&system, 0.0, model.initial_state(), horizon)
                .map_err(|e| fail("reference ODE", e.to_string()))?;
            jobs.push(Job::Ensemble {
                theta,
                reference,
                base_seed: rng.next_u64(),
            });
        }
        let midpoint = model.params().midpoint();
        if scenario.default_scale().is_some() {
            jobs.push(Job::Single {
                theta: midpoint.clone(),
                exact: false,
                seed: rng.next_u64(),
            });
        }
        if scale <= EXACT_MAX_SCALE {
            jobs.push(Job::Single {
                theta: midpoint,
                exact: true,
                seed: rng.next_u64(),
            });
        }
        scenarios.push(Scenario {
            name,
            source: scenario.source().to_string(),
            counts: model.initial_counts(scale),
            model,
            simulator,
            horizon,
            jobs,
        });
    }
    if scenarios.is_empty() {
        return Err("no scenario selected".to_string());
    }
    Ok(Setup { scenarios, metrics })
}

/// One pass over every job.
#[derive(Debug, Default)]
struct Pass {
    replications: u64,
    failed: u64,
    /// Time of each simulation call, ms, scaled by the calibrations on
    /// either side of it (see [`calib`]).
    latencies_ms: Vec<f64>,
    /// Deterministic totals: the sup-norm gap of every cell's ensemble mean
    /// at the horizon, by bits, and the simulation counters.
    tally: (Vec<u64>, Vec<u64>),
    elapsed_s: f64,
    /// Every calibration run, ns.
    calibrations: Vec<f64>,
    /// Start and duration of every call (traced runs).
    calls: Vec<(Instant, u64)>,
}

/// Per-coordinate mean of the replications' horizon states, summed in
/// sorted order. `run_ensemble` merges its workers' statistics in the order
/// the workers finish, so the last bits of `EnsembleSummary::mean_at` vary
/// from call to call; this mean depends only on the replications.
fn canonical_mean(finals: &[StateVec]) -> Vec<f64> {
    let dim = finals.first().map_or(0, StateVec::dim);
    (0..dim)
        .map(|i| {
            let mut column: Vec<f64> = finals.iter().map(|x| x[i]).collect();
            column.sort_by(f64::total_cmp);
            column.iter().sum::<f64>() / column.len() as f64
        })
        .collect()
}

fn counters(snapshot: &Option<MetricsSnapshot>) -> Vec<u64> {
    let snap = snapshot.as_ref().expect("metrics are enabled");
    SIM_COUNTERS.iter().map(|&c| snap.counter(c)).collect()
}

fn pass(setup: &Setup) -> Pass {
    let mut out = Pass::default();
    let before = counters(&setup.metrics.snapshot());
    let started = Instant::now();
    let mut calibration = calib::measure();
    out.calibrations.push(calibration);
    for scenario in &setup.scenarios {
        let base = SimulationOptions::new(scenario.horizon).record_stride(64);
        let leap = base.algorithm(SimulationAlgorithm::TauLeap(TauLeapOptions::new(EPSILON)));
        for job in &scenario.jobs {
            let call = Instant::now();
            let outcome: Result<(u64, Option<f64>), String> = match job {
                Job::Ensemble {
                    theta,
                    reference,
                    base_seed,
                } => run_ensemble(
                    &scenario.simulator,
                    &scenario.counts,
                    || ConstantPolicy::new(theta.clone()),
                    &leap,
                    &EnsembleOptions {
                        replications: REPLICATIONS,
                        base_seed: *base_seed,
                        threads: THREADS,
                        grid_intervals: 10,
                        ..EnsembleOptions::default()
                    },
                )
                .map_err(|e| e.to_string())
                .and_then(|summary| {
                    let mean = summary.mean_at(summary.times().len() - 1);
                    let canonical = canonical_mean(summary.final_states());
                    if mean.as_slice().iter().all(|v| v.is_finite())
                        && canonical.iter().all(|v| v.is_finite())
                    {
                        let gap = canonical
                            .iter()
                            .zip(reference.as_slice())
                            .map(|(m, r)| (m - r).abs())
                            .fold(0.0, f64::max);
                        Ok((REPLICATIONS as u64, Some(gap)))
                    } else {
                        Err("ensemble mean is not finite".to_string())
                    }
                }),
                Job::Single { theta, exact, seed } => {
                    let options = if *exact { base } else { leap };
                    let mut policy = ConstantPolicy::new(theta.clone());
                    scenario
                        .simulator
                        .simulate(&scenario.counts, &mut policy, &options, *seed)
                        .map_err(|e| e.to_string())
                        .and_then(|run| {
                            let last = run.trajectory().at(scenario.horizon);
                            match last {
                                Ok(x)
                                    if !run.is_truncated()
                                        && x.as_slice().iter().all(|v| v.is_finite()) =>
                                {
                                    Ok((1, None))
                                }
                                _ => Err("single run is truncated or not finite".to_string()),
                            }
                        })
                }
            };
            let ns = call.elapsed().as_nanos() as u64;
            let next = calib::measure();
            out.latencies_ms
                .push(ns as f64 / 1e6 * calib::scale((calibration + next) / 2.0));
            calibration = next;
            out.calibrations.push(next);
            out.calls.push((call, ns));
            match outcome {
                Ok((replications, gap)) => {
                    out.replications += replications;
                    if let Some(gap) = gap {
                        out.tally.0.push(gap.to_bits());
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: failed {}: {e}", scenario.name);
                    let replications = match job {
                        Job::Ensemble { .. } => REPLICATIONS as u64,
                        Job::Single { .. } => 1,
                    };
                    out.replications += replications;
                    out.failed += replications;
                    out.tally.0.push(f64::NAN.to_bits());
                }
            }
        }
    }
    out.elapsed_s = started.elapsed().as_secs_f64();
    let after = counters(&setup.metrics.snapshot());
    out.tally.1 = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    out
}

/// Complete passes until `seconds` have elapsed.
fn phase(setup: &Setup, seconds: f64) -> Vec<Pass> {
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        passes.push(pass(setup));
    }
    passes
}

fn consistent(passes: &[Pass]) -> bool {
    let same = passes.windows(2).all(|w| w[0].tally == w[1].tally);
    if !same {
        eprintln!(
            "perfbench: failed determinism: ensemble counters or means differ between passes"
        );
    }
    same
}

/// `(ops_per_s, latency_p50_ms, latency_p99_ms)`: every pass repeats the
/// same calls, so each call is timed by its median over the passes.
fn timing(passes: &[Pass]) -> (f64, f64, f64) {
    let calls = passes[0].latencies_ms.len();
    let samples: Vec<f64> = passes.iter().flat_map(|p| p.latencies_ms.clone()).collect();
    let mut medians = item_medians(&samples, calls);
    let pass_s = medians.iter().sum::<f64>() / 1e3;
    (
        passes[0].replications as f64 / pass_s,
        percentile(&mut medians, 0.50),
        percentile(&mut medians, 0.99),
    )
}

/// `ensemble`.
///
/// # Errors
///
/// Returns a message when the benchmark cannot run.
pub fn run(config: &Config) -> Result<Report, String> {
    calib::pin_to_one_cpu();
    if config.trace {
        return trace(config);
    }
    let (setup, setup_s) = calib::setups(SETUPS, || setup(config), |_| Ok(()))?;
    let passes = phase(&setup, config.seconds);
    calib::print_summary(
        &passes
            .iter()
            .flat_map(|p| p.calibrations.clone())
            .collect::<Vec<_>>(),
    );
    let (ops_per_s, p50, p99) = timing(&passes);
    let gaps: Vec<f64> = passes[0]
        .tally
        .0
        .iter()
        .map(|&b| f64::from_bits(b))
        .collect();
    // Geometric, not arithmetic: the gaps are mostly finite-N noise, and an
    // arithmetic mean is dominated by the few small-N cells (`bike` at
    // N = 40), which makes it spread ~20% from seed to seed.
    let sim_mean_err = crate::stats::quality(&gaps);
    let values = BTreeMap::from([
        ("setup_s", setup_s),
        ("ops_per_s", ops_per_s),
        ("latency_p50_ms", p50),
        ("latency_p99_ms", p99),
        ("outer_width_gmean", NOT_APPLICABLE),
        ("inner_width_gmean", NOT_APPLICABLE),
        ("sim_mean_err", sim_mean_err),
        ("peak_rss_mib", crate::stats::peak_rss_mib()),
    ]);
    Report::from_values(
        &END_TO_END,
        &values,
        passes.iter().map(|p| p.replications).sum(),
        passes.iter().map(|p| p.failed).sum(),
        consistent(&passes),
    )
}

fn trace(config: &Config) -> Result<Report, String> {
    let setup = setup(config)?;
    let half = config.seconds / 2.0;
    let plain = phase(&setup, half);
    let traced = phase(&setup, half);

    let mut spans = Spans::new();
    let mut samples = LayerSamples::default();
    let mut sim_ns = 0.0;
    let mut pass_ns = 0.0;
    for (p, pass) in traced.iter().enumerate() {
        let start = pass.calls.first().map_or_else(Instant::now, |c| c.0);
        let pass_id = spans.record(
            "workload.pass",
            None,
            p as u64,
            start,
            (pass.elapsed_s * 1e9) as u64,
        );
        for &(call, ns) in &pass.calls {
            spans.record("sim.call", Some(pass_id), p as u64, call, ns);
            sim_ns += ns as f64;
        }
        // Calibration is the benchmark's own work, not the program's.
        pass_ns += pass.elapsed_s * 1e9 - pass.calibrations.iter().sum::<f64>();
    }
    let replications: u64 = traced.iter().map(|p| p.replications).sum();
    samples.add(
        "sim.replications_per_s",
        replications as f64 / (sim_ns / 1e9),
    );
    let totals = &traced[0].tally.1;
    let count = |c: Counter| {
        let i = SIM_COUNTERS
            .iter()
            .position(|&k| k == c)
            .expect("tracked counter");
        totals[i] as f64
    };
    samples.add("sim.events_fired", count(Counter::SimEventsFired));
    samples.add("sim.leap_steps", count(Counter::SimTauLeapSteps));
    samples.add("sim.fallback_steps", count(Counter::SimTauFallbackSteps));
    samples.add("sim.tau_halvings", count(Counter::SimTauHalvings));
    samples.add("sim.tau_demotions", count(Counter::SimTauDemotions));
    samples.add("sim.poisson_draws", count(Counter::SimPoissonDraws));
    samples.add(
        "sim.propensity_evals_per_event",
        count(Counter::SimPropensityEvals) / count(Counter::SimEventsFired).max(1.0),
    );
    samples.add("trace.overhead_ratio", timing(&plain).0 / timing(&traced).0);
    samples.add(
        "trace.unexplained_frac",
        (pass_ns - sim_ns).max(0.0) / pass_ns,
    );

    let mut interner = ModelInterner::new();
    for (i, scenario) in setup.scenarios.iter().enumerate() {
        layers::replay_lang(
            &scenario.source,
            &mut interner,
            &mut spans,
            None,
            (traced.len() + i) as u64,
            &mut samples,
        )?;
        samples.push(
            "lang.drift_batch_ns_per_lane",
            layers::drift_batch_ns_per_lane(&scenario.model),
        );
    }
    if let Some(path) = &config.trace_out {
        spans.write_jsonl(path)?;
    }
    let passes: Vec<Pass> = plain.into_iter().chain(traced).collect();
    Report::from_values(
        &PER_LAYER,
        &samples.finish(),
        passes.iter().map(|p| p.replications).sum(),
        passes.iter().map(|p| p.failed).sum(),
        consistent(&passes),
    )
}
