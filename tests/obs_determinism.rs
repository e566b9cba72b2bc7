//! Observability must be free: attaching the metrics/trace bundle to a
//! simulation cannot change a single bit of its output. These tests sweep
//! the scenario registry across both engines (the exact sweep runs both
//! selectors: `grid_6x6`'s 120 rules take the sum tree, every other
//! scenario the linear scan), comparing runs with observability off and on,
//! and then sanity-check the counters the bundle reports against ground
//! truth from the runs.

use mean_field_uncertain::lang::scenarios::ScenarioRegistry;
use mean_field_uncertain::lang::CompiledModel;
use mean_field_uncertain::obs::{Counter, Obs, Tracer};
use mean_field_uncertain::sim::gillespie::{
    SimulationAlgorithm, SimulationOptions, SimulationRun, Simulator,
};
use mean_field_uncertain::sim::policy::ConstantPolicy;
use mean_field_uncertain::sim::selection::SelectorKind;
use mean_field_uncertain::sim::tauleap::TauLeapOptions;

/// Runs one simulation of `model`, optionally with a full observability
/// bundle (metrics + buffered tracer) attached.
fn run(
    model: &CompiledModel,
    scale: usize,
    options: &SimulationOptions,
    seed: u64,
    obs: Option<&Obs>,
) -> SimulationRun {
    let population = model.population_model().unwrap();
    let mut simulator = Simulator::new(population, scale).unwrap();
    if let Some(obs) = obs {
        simulator = simulator.with_obs(obs.clone());
    }
    let mut policy = ConstantPolicy::new(model.params().midpoint());
    simulator
        .simulate(&model.initial_counts(scale), &mut policy, options, seed)
        .unwrap()
}

/// A fully-enabled bundle: metrics plus a tracer writing to memory.
fn enabled_obs() -> Obs {
    let (tracer, _sink) = Tracer::to_buffer();
    Obs {
        tracer,
        ..Obs::with_metrics()
    }
}

/// The observed run must equal the unobserved run exactly: same trajectory
/// (times and states compared bit-for-bit through `PartialEq` on `f64`),
/// same event count, same engine counters. Returns the selector both ran.
fn assert_bit_identical(
    model: &CompiledModel,
    scale: usize,
    options: &SimulationOptions,
) -> SelectorKind {
    let baseline = run(model, scale, options, 42, None);
    let observed = run(model, scale, options, 42, Some(&enabled_obs()));
    assert_eq!(
        baseline.trajectory(),
        observed.trajectory(),
        "model `{}`: observability changed the trajectory",
        model.name()
    );
    assert_eq!(baseline.events(), observed.events());
    assert_eq!(baseline.counters(), observed.counters());
    assert_eq!(baseline.selector(), observed.selector());
    baseline.selector()
}

#[test]
fn every_scenario_is_bit_identical_with_observability_on_exact() {
    let registry = ScenarioRegistry::with_builtins();
    for scenario in registry.iter() {
        let model = scenario.compile().unwrap();
        let horizon = scenario.horizon().min(1.0);
        let options = SimulationOptions::new(horizon);
        let expected = if scenario.name() == "grid_6x6" {
            SelectorKind::Tree
        } else {
            SelectorKind::Linear
        };
        assert_eq!(
            assert_bit_identical(&model, 200, &options),
            expected,
            "`{}`",
            scenario.name()
        );
    }
}

#[test]
fn every_scenario_is_bit_identical_with_observability_on_tau_leap() {
    let registry = ScenarioRegistry::with_builtins();
    for scenario in registry.iter() {
        let model = scenario.compile().unwrap();
        let horizon = scenario.horizon().min(1.0);
        let options = SimulationOptions::new(horizon)
            .algorithm(SimulationAlgorithm::TauLeap(TauLeapOptions::default()));
        assert_bit_identical(&model, 1000, &options);
    }
}

#[test]
fn counters_match_ground_truth_from_the_run() {
    let registry = ScenarioRegistry::with_builtins();
    let model = registry.compile("sir").unwrap();

    // Exact engine, default stride: every jump is recorded, so the
    // trajectory holds initial state + one node per event + the final state.
    let obs = Obs::with_metrics();
    let population = model.population_model().unwrap();
    let simulator = Simulator::new(population, 500)
        .unwrap()
        .with_obs(obs.clone());
    let mut policy = ConstantPolicy::new(model.params().midpoint());
    let run = simulator
        .simulate(
            &model.initial_counts(500),
            &mut policy,
            &SimulationOptions::new(2.0),
            7,
        )
        .unwrap();
    assert!(run.events() > 0);
    assert_eq!(run.counters().events_fired, run.events() as u64);
    assert_eq!(run.trajectory().len(), run.events() + 2);

    // The flushed metrics agree with the per-run counters.
    let snapshot = obs.metrics.snapshot().unwrap();
    assert_eq!(
        snapshot.counter(Counter::SimEventsFired),
        run.counters().events_fired
    );
    assert_eq!(
        snapshot.counter(Counter::SimPropensityEvals),
        run.counters().propensity_evals
    );
    assert_eq!(snapshot.counter(Counter::SimRuns), 1);
}

#[test]
fn tau_leaping_never_halves_on_the_well_conditioned_sir() {
    // At N = 10⁵ the SIR rates are smooth on the leap scale; the adaptive
    // step selection must never trip the negative-population guard.
    let registry = ScenarioRegistry::with_builtins();
    let model = registry.compile("sir").unwrap();
    let obs = Obs::with_metrics();
    let population = model.population_model().unwrap();
    let simulator = Simulator::new(population, 100_000)
        .unwrap()
        .with_obs(obs.clone());
    let mut policy = ConstantPolicy::new(model.params().midpoint());
    let options = SimulationOptions::new(2.0)
        .algorithm(SimulationAlgorithm::TauLeap(TauLeapOptions::default()));
    let run = simulator
        .simulate(&model.initial_counts(100_000), &mut policy, &options, 4)
        .unwrap();

    let counters = run.counters();
    assert_eq!(counters.tau_halvings, 0, "guard tripped: {counters:?}");
    assert_eq!(
        counters.tau_leap_steps + counters.tau_fallback_steps,
        counters.events_fired
    );
    assert!(counters.poisson_draws > 0);
    let snapshot = obs.metrics.snapshot().unwrap();
    assert_eq!(snapshot.counter(Counter::SimTauHalvings), 0);
}
