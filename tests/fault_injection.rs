//! Deterministic fault-injection harness for every engine (mfu-guard).
//!
//! The contract under test: whatever a [`FaultPlan`] throws at an engine —
//! NaN rates, rate spikes, out-of-box policy jumps — every registry scenario
//! either completes, returns a gracefully truncated run, or fails with a
//! *typed* error. Never a panic, never a hang: each simulation carries a
//! wall-clock budget, so a misbehaving engine truncates instead of spinning.
//!
//! The harness also pins two guard guarantees that are easiest to check from
//! outside the crates:
//!
//! * an armed-but-untripped budget is invisible — trajectories are
//!   bit-identical with the guard on or off;
//! * a single-start Pontryagin solve matches the multi-start bound on its
//!   own: on the reduced botnet drift the midpoint sweep reaches it, and
//!   where the midpoint sweep settles on a local extremal the escalation
//!   ladder recovers it;
//! * one wall-clock deadline bounds a whole Pontryagin solve, escalated
//!   vertex starts included, and cuts a pass between two intervals rather
//!   than at its end.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mean_field_uncertain::core::drift::{FnDrift, ImpreciseDrift};
use mean_field_uncertain::core::pontryagin::{PontryaginOptions, PontryaginSolver};
use mean_field_uncertain::ctmc::params::ParamSpace;
use mean_field_uncertain::guard::{FaultKind, FaultPlan, Outcome, RunBudget};
use mean_field_uncertain::lang::{CompiledModel, ScenarioRegistry};
use mean_field_uncertain::num::batch::{BatchTheta, SoaBatch};
use mean_field_uncertain::num::StateVec;
use mean_field_uncertain::obs::{Counter, Obs};
use mean_field_uncertain::sim::ensemble::{run_ensemble, EnsembleOptions};
use mean_field_uncertain::sim::gillespie::{
    SimulationAlgorithm, SimulationOptions, SimulationRun, Simulator,
};
use mean_field_uncertain::sim::policy::ConstantPolicy;
use mean_field_uncertain::sim::steady::{sample_steady_state, SteadyStateOptions};
use mean_field_uncertain::sim::tauleap::TauLeapOptions;
use mean_field_uncertain::sim::SimError;

const SCALE: usize = 200;

/// Per-simulation budget: generous enough that healthy runs never trip it,
/// tight enough that a spiked-rate run truncates in bounded time.
fn harness_budget() -> RunBudget {
    RunBudget::unlimited()
        .wall_clock(Duration::from_secs(5))
        .max_events(50_000)
}

fn scenarios() -> Vec<(String, CompiledModel)> {
    let registry = ScenarioRegistry::with_builtins();
    registry
        .iter()
        .map(|scenario| {
            let model = scenario
                .compile()
                .unwrap_or_else(|e| panic!("scenario `{}` fails to compile: {e}", scenario.name()));
            (scenario.name().to_string(), model)
        })
        .collect()
}

/// The fault registry: one plan per failure family, sized to the model.
fn fault_plans(model: &CompiledModel) -> Vec<(&'static str, FaultPlan)> {
    let last_rule = model.rules().len() - 1;
    vec![
        (
            "nan_rate",
            FaultPlan::new().inject(25, FaultKind::NanRate { rule: 0 }),
        ),
        (
            "rate_spike",
            FaultPlan::new().inject(
                10,
                FaultKind::RateSpike {
                    rule: last_rule,
                    factor: 1e12,
                },
            ),
        ),
        (
            "policy_jump",
            FaultPlan::new().inject(
                30,
                FaultKind::PolicyJump {
                    param: 0,
                    value: 1e9,
                },
            ),
        ),
    ]
}

/// Asserts the engine contract on one outcome: a graceful result or a typed
/// error — anything else (a panic unwinds the test on its own) fails here.
fn assert_contract(context: &str, elapsed: Duration, result: Result<SimulationRun, SimError>) {
    assert!(
        elapsed < Duration::from_secs(30),
        "{context}: took {elapsed:?} despite a 5 s wall-clock budget"
    );
    match result {
        Ok(run) => {
            // completed or truncated — either way the prefix must be sane
            let last = run.trajectory().last_time();
            assert!(
                last.is_finite() && last >= 0.0,
                "{context}: bad end time {last}"
            );
            if let Outcome::Truncated { reached_t, .. } = run.outcome() {
                assert!(reached_t.is_finite(), "{context}: bad truncation time");
            }
        }
        Err(
            SimError::InvalidRate { .. }
            | SimError::PolicyOutOfRange { .. }
            | SimError::Truncated { .. }
            | SimError::InvalidInput { .. }
            | SimError::Model(_)
            | SimError::Numerical(_),
        ) => {}
        Err(other) => panic!("{context}: unexpected error variant {other:?}"),
    }
}

#[test]
fn every_engine_survives_every_fault_on_every_scenario() {
    for (name, model) in scenarios() {
        let population = model.population_model().unwrap();
        let counts = model.initial_counts(SCALE);
        let midpoint = model.params().midpoint();
        let horizon = model_horizon(&name);
        for (fault, plan) in fault_plans(&model) {
            for (engine, algorithm) in [
                ("exact", SimulationAlgorithm::Exact),
                (
                    "tau-leap",
                    SimulationAlgorithm::TauLeap(TauLeapOptions::default()),
                ),
            ] {
                let context = format!("{name} × {engine} × {fault}");
                let simulator = Simulator::new(population.clone(), SCALE)
                    .unwrap()
                    .with_fault_plan(plan.clone());
                let options = SimulationOptions::new(horizon)
                    .algorithm(algorithm)
                    .budget(harness_budget());
                let mut policy = ConstantPolicy::new(midpoint.clone());
                let started = Instant::now();
                let result = simulator.simulate(&counts, &mut policy, &options, 7);
                assert_contract(&context, started.elapsed(), result);
            }
        }
    }
}

#[test]
fn aggregating_engines_convert_faults_into_typed_errors() {
    // Ensemble grids and steady-state samples need full-horizon runs, so a
    // fault mid-run must surface as a typed error — never a panic and never
    // a silently poisoned aggregate.
    for (name, model) in scenarios() {
        let population = model.population_model().unwrap();
        let counts = model.initial_counts(SCALE);
        let midpoint = model.params().midpoint();
        let horizon = model_horizon(&name);
        for (fault, plan) in fault_plans(&model) {
            let simulator = Simulator::new(population.clone(), SCALE)
                .unwrap()
                .with_fault_plan(plan.clone());
            let sim_options = SimulationOptions::new(horizon).budget(harness_budget());

            let context = format!("{name} × ensemble × {fault}");
            let started = Instant::now();
            let ensemble = run_ensemble(
                &simulator,
                &counts,
                || ConstantPolicy::new(midpoint.clone()),
                &sim_options,
                &EnsembleOptions {
                    replications: 3,
                    base_seed: 11,
                    threads: 2,
                    grid_intervals: 8,
                },
            );
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "{context}: hang"
            );
            if let Err(err) = ensemble {
                assert!(
                    matches!(
                        err,
                        SimError::InvalidRate { .. }
                            | SimError::PolicyOutOfRange { .. }
                            | SimError::Truncated { .. }
                    ),
                    "{context}: unexpected error {err:?}"
                );
            }

            let context = format!("{name} × steady × {fault}");
            let started = Instant::now();
            let steady = sample_steady_state(
                &simulator,
                &counts,
                &mut ConstantPolicy::new(midpoint.clone()),
                &SteadyStateOptions::new(0.5, 0.1, 5).budget(harness_budget()),
                13,
            );
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "{context}: hang"
            );
            if let Err(err) = steady {
                assert!(
                    matches!(
                        err,
                        SimError::InvalidRate { .. }
                            | SimError::PolicyOutOfRange { .. }
                            | SimError::Truncated { .. }
                    ),
                    "{context}: unexpected error {err:?}"
                );
            }
        }
    }
}

#[test]
fn seeded_fault_plans_never_panic_any_engine() {
    // Sweep pseudo-random fault schedules over one cheap scenario per
    // engine: the registry faults above are hand-aimed, this catches the
    // combinations nobody thought of.
    let registry = ScenarioRegistry::with_builtins();
    let model = registry.get("sir").unwrap().compile().unwrap();
    let population = model.population_model().unwrap();
    let counts = model.initial_counts(SCALE);
    let rules = model.rules().len();
    let params = model.params().dim();
    for seed in 0..24u64 {
        let plan = FaultPlan::seeded(seed, rules, params, 4, 500);
        for algorithm in [
            SimulationAlgorithm::Exact,
            SimulationAlgorithm::TauLeap(TauLeapOptions::default()),
        ] {
            let simulator = Simulator::new(population.clone(), SCALE)
                .unwrap()
                .with_fault_plan(plan.clone());
            let options = SimulationOptions::new(2.0)
                .algorithm(algorithm)
                .budget(harness_budget());
            let mut policy = ConstantPolicy::new(model.params().midpoint());
            let started = Instant::now();
            let result = simulator.simulate(&counts, &mut policy, &options, seed);
            assert_contract(
                &format!("sir × seeded plan {seed}"),
                started.elapsed(),
                result,
            );
        }
    }
}

#[test]
fn armed_untripped_budgets_are_bit_identical_to_no_budget() {
    let generous = RunBudget::unlimited()
        .wall_clock(Duration::from_secs(3600))
        .max_events(u64::MAX);
    for (name, model) in scenarios() {
        let population = model.population_model().unwrap();
        let counts = model.initial_counts(SCALE);
        let horizon = model_horizon(&name);
        for (engine, algorithm) in [
            ("exact", SimulationAlgorithm::Exact),
            (
                "tau-leap",
                SimulationAlgorithm::TauLeap(TauLeapOptions::default()),
            ),
        ] {
            let simulator = Simulator::new(population.clone(), SCALE).unwrap();
            let base_options = SimulationOptions::new(horizon).algorithm(algorithm);
            let mut policy = ConstantPolicy::new(model.params().midpoint());
            let plain = simulator
                .simulate(&counts, &mut policy, &base_options, 42)
                .unwrap();
            let mut policy = ConstantPolicy::new(model.params().midpoint());
            let guarded = simulator
                .simulate(&counts, &mut policy, &base_options.budget(generous), 42)
                .unwrap();
            assert_eq!(
                plain.trajectory(),
                guarded.trajectory(),
                "{name} × {engine}: guard-on trajectory differs"
            );
            assert_eq!(plain.events(), guarded.events(), "{name} × {engine}");
            assert_eq!(
                plain.final_counts(),
                guarded.final_counts(),
                "{name} × {engine}"
            );
            assert_eq!(guarded.outcome(), Outcome::Completed, "{name} × {engine}");
        }
    }
}

#[test]
fn botnet_single_start_matches_the_multi_start_bound() {
    // The carried robustness issue: the single-start sweep used to settle
    // on a local extremal for the 3-dimensional reduced botnet drift, which
    // forced every caller to know to pass multi_start. The monotone sweep
    // reaches the multi-start bound from the midpoint start alone.
    let registry = ScenarioRegistry::with_builtins();
    let scenario = registry.get("botnet").unwrap();
    let model = scenario.compile().unwrap();
    let drift = model.reduced_drift();
    let x0 = model.reduced_initial_state();
    let horizon = scenario.horizon();
    let coordinate = scenario.objective_coordinate();

    let multi = PontryaginSolver::new(PontryaginOptions {
        grid_intervals: 120,
        multi_start: true,
        ..Default::default()
    });
    let (multi_lo, multi_hi) = multi
        .coordinate_extremes(&drift, &x0, horizon, coordinate)
        .unwrap();

    let single = PontryaginSolver::new(PontryaginOptions {
        grid_intervals: 120,
        multi_start: false,
        ..Default::default()
    });
    let (lo, hi) = single
        .coordinate_extremes(&drift, &x0, horizon, coordinate)
        .unwrap();
    assert!(
        (lo - multi_lo).abs() < 1e-6,
        "lower bound {lo} vs multi-start {multi_lo}"
    );
    assert!(
        (hi - multi_hi).abs() < 1e-6,
        "upper bound {hi} vs multi-start {multi_hi}"
    );
}

/// `pod_choices_d2`'s reduced drift, start state and horizon: its
/// coordinate-1 minimum at grid 120 is an input whose midpoint sweep
/// settles on a local extremal that a vertex probe beats.
fn pod_choices_d2() -> (CompiledModel, f64) {
    let registry = ScenarioRegistry::with_builtins();
    let scenario = registry.get("pod_choices_d2").unwrap();
    (scenario.compile().unwrap(), scenario.horizon())
}

#[test]
fn single_start_escalates_on_a_local_extremal_and_matches_the_multi_start_bound() {
    let (model, horizon) = pod_choices_d2();
    let drift = model.reduced_drift();
    let x0 = model.reduced_initial_state();
    let multi = PontryaginSolver::new(PontryaginOptions {
        grid_intervals: 120,
        multi_start: true,
        ..Default::default()
    })
    .minimize_coordinate(&drift, &x0, horizon, 1)
    .unwrap();

    let obs = Obs::with_metrics();
    let single = PontryaginSolver::new(PontryaginOptions {
        grid_intervals: 120,
        multi_start: false,
        ..Default::default()
    })
    .with_obs(obs.clone())
    .minimize_coordinate(&drift, &x0, horizon, 1)
    .unwrap();
    // the escalated solve keeps the best of the same starts, picked in the
    // same order, as the multi-start solve
    assert_eq!(
        single.objective_value().to_bits(),
        multi.objective_value().to_bits(),
        "single-start {} vs multi-start {}",
        single.objective_value(),
        multi.objective_value()
    );
    assert!(single.converged());
    let snapshot = obs.metrics.snapshot().unwrap();
    assert_eq!(
        snapshot.counter(Counter::CorePontryaginEscalations),
        1,
        "the ladder never escalated"
    );
}

/// How a [`SlowBatches`] drift slows the backward pass's finite-difference
/// Jacobian stencils. A backward pass evaluates them in per-lane-Θ chunks
/// of up to 16 stencils, one drift batch per chunk; a batch sleeps for the
/// stencils it carries.
enum Slowdown {
    /// A chunk holding any stencil after the first `n` sleeps until the
    /// instant.
    StencilsAfter(usize, Instant),
    /// Each stencil of a chunk sleeps for the duration.
    StencilsFor(Duration),
}

/// A drift that sleeps before the stencil chunks its [`Slowdown`] names.
/// Every evaluation is the wrapped drift's.
struct SlowBatches<D> {
    inner: D,
    slowdown: Slowdown,
    /// Stencils evaluated so far, counted atomically because escalated
    /// vertex starts may run on worker threads.
    stencils: AtomicUsize,
}

impl<D> SlowBatches<D> {
    fn new(inner: D, slowdown: Slowdown) -> Self {
        SlowBatches {
            inner,
            slowdown,
            stencils: AtomicUsize::new(0),
        }
    }
}

/// The number of central-difference stencils a per-lane-Θ batch carries:
/// its lanes come in groups of `2·dim`, lanes `2j` and `2j + 1` of a group
/// differing in coordinate `j` alone and sharing one Θ. Any other batch —
/// a switch scan's interval states — carries none.
fn stencils_in(x: &SoaBatch, theta: &BatchTheta<'_>) -> usize {
    let BatchTheta::PerLane(controls) = theta else {
        return 0;
    };
    let group = 2 * x.rows();
    if group == 0 || !x.width().is_multiple_of(group) {
        return 0;
    }
    let pairs_straddle = (0..x.width()).step_by(2).all(|lane| {
        let j = (lane % group) / 2;
        let moved = |i: usize| x.get(i, lane) != x.get(i, lane + 1);
        let same_control = |p: usize| controls.get(p, lane) == controls.get(p, lane + 1);
        (0..x.rows()).all(|i| moved(i) == (i == j)) && (0..controls.rows()).all(same_control)
    });
    if pairs_straddle {
        x.width() / group
    } else {
        0
    }
}

impl<D: ImpreciseDrift> ImpreciseDrift for SlowBatches<D> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn params(&self) -> &ParamSpace {
        self.inner.params()
    }

    fn drift_into(&self, x: &StateVec, theta: &[f64], out: &mut StateVec) {
        self.inner.drift_into(x, theta, out);
    }

    fn drift_batch_into(&self, x: &SoaBatch, theta: &BatchTheta<'_>, out: &mut SoaBatch) {
        let count = stencils_in(x, theta);
        if count > 0 {
            let seen = self.stencils.fetch_add(count, Ordering::SeqCst);
            match self.slowdown {
                Slowdown::StencilsAfter(n, until) if seen + count > n => {
                    std::thread::sleep(until.saturating_duration_since(Instant::now()));
                }
                Slowdown::StencilsFor(pause) => std::thread::sleep(pause * count as u32),
                Slowdown::StencilsAfter(..) => {}
            }
        }
        self.inner.drift_batch_into(x, theta, out);
    }
}

#[test]
fn one_deadline_bounds_the_whole_solve_escalated_starts_included() {
    // ẋ = (ϑ, ϑ·x₀) from the origin with ϑ ∈ [−1, 1], maximising x₁(1):
    // at ϑ ≡ 0 every Hamiltonian gain is 0, so the midpoint sweep stops at
    // 0 after one backward pass of exactly `n` stencils, well inside the
    // budget, and the first vertex probe ϑ ≡ −1 reaches 1/2 and escalates.
    // From stencil n + 1 on — the first chunk of an escalated start — every
    // stencil chunk sleeps past the deadline. The escalated starts must
    // find the solve's deadline spent and stop before their first sweep
    // completes, rather than each starting a fresh budget of their own.
    let n = 50;
    let theta = ParamSpace::single("u", -1.0, 1.0).unwrap();
    let local_extremal = FnDrift::new(2, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
        dx[0] = th[0];
        dx[1] = th[0] * x[0];
    });
    let budget = Duration::from_secs(1);
    let obs = Obs::with_metrics();
    let solver = PontryaginSolver::new(PontryaginOptions {
        grid_intervals: n,
        multi_start: false,
        budget: RunBudget::unlimited().wall_clock(budget),
    })
    .with_obs(obs.clone());
    let drift = SlowBatches::new(
        local_extremal,
        Slowdown::StencilsAfter(n, Instant::now() + budget + Duration::from_millis(100)),
    );
    let solution = solver
        .maximize_coordinate(&drift, &StateVec::zeros(2), 1.0, 1)
        .unwrap();
    let snapshot = obs.metrics.snapshot().unwrap();
    assert_eq!(snapshot.counter(Counter::CorePontryaginEscalations), 1);
    assert!(
        solution.truncated(),
        "the escalated starts outlived the solve's deadline"
    );
    assert!(!solution.converged());
    assert_eq!(solution.iterations(), 0, "an escalated start swept");
    // the probe that escalated, kept as its vertex start's bound
    assert!((solution.objective_value() - 0.5).abs() < 1e-9);
}

#[test]
fn the_deadline_cuts_a_backward_pass_between_intervals() {
    // Each of the 200 backward intervals' stencils sleeps 1 ms, so the
    // first backward pass alone takes over 200 ms. The 20 ms deadline must
    // stop it between two intervals instead of letting it run to its end:
    // it is checked before each 16-stencil chunk and each interval.
    let registry = ScenarioRegistry::with_builtins();
    let scenario = registry.get("sir").unwrap();
    let model = scenario.compile().unwrap();
    let obs = Obs::with_metrics();
    let solver = PontryaginSolver::new(PontryaginOptions {
        grid_intervals: 200,
        multi_start: false,
        budget: RunBudget::unlimited().wall_clock(Duration::from_millis(20)),
    })
    .with_obs(obs.clone());
    let drift = SlowBatches::new(
        model.reduced_drift(),
        Slowdown::StencilsFor(Duration::from_millis(1)),
    );
    let solution = solver
        .maximize_coordinate(
            &drift,
            &model.reduced_initial_state(),
            scenario.horizon(),
            1,
        )
        .unwrap();
    assert!(solution.truncated());
    assert!(!solution.converged());
    assert_eq!(solution.iterations(), 0, "a backward pass completed");
    // every backward interval the recursion reaches counts one Jacobian;
    // sleeps never end early, so at most 21 intervals fit the budget (in
    // chunks of 16: the second chunk's batch sleeps past the deadline)
    let jacobians = obs
        .metrics
        .snapshot()
        .unwrap()
        .counter(Counter::CoreJacobianEvals);
    assert!(
        jacobians <= 21,
        "{jacobians} of 200 backward intervals ran on a 20 ms budget"
    );
}

/// Scenario horizons, clamped so that debug-mode suites stay quick: the
/// contract under test is fault behaviour, not long-horizon accuracy.
fn model_horizon(name: &str) -> f64 {
    let registry = ScenarioRegistry::with_builtins();
    registry
        .get(name)
        .map(|s| s.horizon())
        .unwrap_or(2.0)
        .min(2.0)
}
