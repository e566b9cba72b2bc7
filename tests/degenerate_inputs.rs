//! Degenerate-input property tests (mfu-guard satellite).
//!
//! The engines must treat pathological-but-legal inputs as ordinary work:
//! all-zero initial populations, absorbing starts, horizons spanning six
//! hundred orders of magnitude, and parameter boxes collapsed to a single
//! point all either complete, truncate gracefully, or fail with a typed
//! error. Panics and hangs are the only forbidden outcomes, and `proptest`
//! sweeps the input space so nobody has to hand-pick the nasty values.
//! Illegal integration steps (zero, negative, NaN, infinite) get a typed
//! error from every analysis that takes one.

use std::time::Duration;

use proptest::prelude::*;

use mean_field_uncertain::core::birkhoff::{birkhoff_centre_2d, BirkhoffOptions};
use mean_field_uncertain::core::drift::ImpreciseDrift;
use mean_field_uncertain::core::hull::{DifferentialHull, HullOptions};
use mean_field_uncertain::core::pontryagin::{PontryaginOptions, PontryaginSolver};
use mean_field_uncertain::core::uncertain::UncertainAnalysis;
use mean_field_uncertain::core::CoreError;
use mean_field_uncertain::guard::{Outcome, RunBudget, TruncationReason};
use mean_field_uncertain::lang::{compile, CompiledModel};
use mean_field_uncertain::num::ode::{equilibrium, EquilibriumOptions, FnSystem};
use mean_field_uncertain::num::{NumError, StateVec};
use mean_field_uncertain::sim::gillespie::{SimulationAlgorithm, SimulationOptions, Simulator};
use mean_field_uncertain::sim::policy::ConstantPolicy;
use mean_field_uncertain::sim::steady::SteadyStateOptions;
use mean_field_uncertain::sim::tauleap::TauLeapOptions;
use mean_field_uncertain::sim::SimError;

/// SIR with a configurable contact interval; `[v, v]` gives the degenerate
/// single-point parameter box.
fn sir(lo: f64, hi: f64) -> CompiledModel {
    compile(&format!(
        "model sir;\n\
         species S, I, R;\n\
         param contact in [{lo}, {hi}];\n\
         const a = 0.1;\n\
         const b = 5;\n\
         const c = 1;\n\
         rule infect:  S -> I @ (a + contact * I) * S;\n\
         rule recover: I -> R @ b * I;\n\
         rule wane:    R -> S @ c * R;\n\
         init S = 0.7, I = 0.3, R = 0;\n"
    ))
    .expect("sir dsl compiles")
}

/// Pure decay whose initial state has no infected agents: every rate is
/// exactly zero from the first evaluation, i.e. the start is absorbing.
fn absorbing() -> CompiledModel {
    compile(
        "model decay;\n\
         species I, R;\n\
         param rho in [1, 2];\n\
         rule fade: I -> R @ rho * I;\n\
         init I = 0, R = 1;\n",
    )
    .expect("decay dsl compiles")
}

fn engines() -> [SimulationAlgorithm; 2] {
    [
        SimulationAlgorithm::Exact,
        SimulationAlgorithm::TauLeap(TauLeapOptions::default()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A population of zero agents is absorbing by construction: every
    /// engine completes with zero events and a flat trajectory.
    #[test]
    fn all_zero_initial_state_completes_with_zero_events(
        seed in 0u64..1_000,
        scale in 1usize..500,
    ) {
        let model = sir(1.0, 10.0);
        let population = model.population_model().unwrap();
        let zeros = vec![0i64; population.dim()];
        for algorithm in engines() {
            let simulator = Simulator::new(population.clone(), scale).unwrap();
            let options = SimulationOptions::new(2.0).algorithm(algorithm);
            let mut policy = ConstantPolicy::new(model.params().midpoint());
            let run = simulator.simulate(&zeros, &mut policy, &options, seed).unwrap();
            prop_assert_eq!(run.outcome(), Outcome::Completed);
            prop_assert_eq!(run.events(), 0);
            prop_assert_eq!(run.final_counts(), &zeros[..]);
        }
    }

    /// An absorbing initial state (all rates exactly zero) completes
    /// instantly rather than spinning or erroring.
    #[test]
    fn absorbing_start_completes_instantly(seed in 0u64..1_000, scale in 1usize..500) {
        let model = absorbing();
        let population = model.population_model().unwrap();
        let counts = model.initial_counts(scale);
        for algorithm in engines() {
            let simulator = Simulator::new(population.clone(), scale).unwrap();
            let options = SimulationOptions::new(5.0).algorithm(algorithm);
            let mut policy = ConstantPolicy::new(model.params().midpoint());
            let run = simulator.simulate(&counts, &mut policy, &options, seed).unwrap();
            prop_assert_eq!(run.outcome(), Outcome::Completed);
            prop_assert_eq!(run.events(), 0);
            prop_assert_eq!(run.final_counts(), &counts[..]);
        }
    }

    /// Horizons down to 1e-300 are legal: the run completes (usually with
    /// zero events — the first waiting time overshoots the horizon) and the
    /// trajectory still ends exactly at `t_end`.
    #[test]
    fn tiny_horizons_are_exact_not_special_cased(
        exponent in -300i64..-10,
        seed in 0u64..1_000,
    ) {
        let t_end = 10f64.powi(exponent as i32);
        let model = sir(1.0, 10.0);
        let population = model.population_model().unwrap();
        let counts = model.initial_counts(200);
        for algorithm in engines() {
            let simulator = Simulator::new(population.clone(), 200).unwrap();
            let options = SimulationOptions::new(t_end).algorithm(algorithm);
            let mut policy = ConstantPolicy::new(model.params().midpoint());
            let run = simulator.simulate(&counts, &mut policy, &options, seed).unwrap();
            prop_assert_eq!(run.outcome(), Outcome::Completed);
            prop_assert_eq!(run.trajectory().last_time(), t_end);
        }
    }

    /// A huge horizon with a small event budget truncates gracefully at the
    /// budget instead of hanging for the age of the universe: the partial
    /// run is returned, carries exactly `max_events` events and names the
    /// cap that tripped.
    #[test]
    fn huge_horizons_truncate_at_the_event_budget(
        max_events in 10u64..200,
        seed in 0u64..1_000,
    ) {
        let model = sir(1.0, 10.0);
        let population = model.population_model().unwrap();
        let counts = model.initial_counts(200);
        let simulator = Simulator::new(population, 200).unwrap();
        let options = SimulationOptions::new(1e12).budget(
            RunBudget::unlimited()
                .max_events(max_events)
                .wall_clock(Duration::from_secs(10)),
        );
        let mut policy = ConstantPolicy::new(model.params().midpoint());
        let run = simulator.simulate(&counts, &mut policy, &options, seed).unwrap();
        match run.outcome() {
            Outcome::Truncated { reason, reached_t } => {
                prop_assert_eq!(reason, TruncationReason::MaxEvents);
                prop_assert!(reached_t.is_finite() && reached_t < 1e12);
                prop_assert_eq!(run.events() as u64, max_events);
                prop_assert_eq!(run.trajectory().last_time(), reached_t);
            }
            Outcome::Completed => prop_assert!(false, "1e12 horizon cannot complete"),
        }
    }

    /// A parameter box collapsed to a single point (a precisely known
    /// parameter) degrades every analysis to its classical counterpart:
    /// simulation runs, the hull has zero parameter-induced width at t = 0,
    /// and Pontryagin's lower and upper extremals coincide.
    #[test]
    fn single_point_parameter_boxes_collapse_cleanly(contact in 0.5f64..5.0) {
        let model = sir(contact, contact);
        let population = model.population_model().unwrap();
        let counts = model.initial_counts(150);
        let simulator = Simulator::new(population, 150).unwrap();
        let options = SimulationOptions::new(1.0);
        let mut policy = ConstantPolicy::new(model.params().midpoint());
        let run = simulator.simulate(&counts, &mut policy, &options, 3).unwrap();
        prop_assert_eq!(run.outcome(), Outcome::Completed);

        let drift = model.reduced_drift();
        let x0 = model.reduced_initial_state();
        let hull = DifferentialHull::new(
            &drift,
            HullOptions { step: 5e-3, time_intervals: 10, ..Default::default() },
        );
        let bounds = hull.bounds(&x0, 1.0).unwrap();
        let (lo, hi) = bounds.final_bounds();
        for i in 0..lo.dim() {
            prop_assert!(lo[i].is_finite() && hi[i].is_finite() && lo[i] <= hi[i]);
        }

        let solver = PontryaginSolver::new(PontryaginOptions {
            grid_intervals: 40,
            ..Default::default()
        });
        let (p_lo, p_hi) = solver.coordinate_extremes(&drift, &x0, 1.0, 1).unwrap();
        prop_assert!(
            (p_hi - p_lo).abs() < 1e-6,
            "point box must give coinciding extremes, got [{}, {}]",
            p_lo,
            p_hi
        );
    }
}

/// The checked steady-state constructor rejects every malformed input with
/// a typed error naming the offending field — no asserts, no NaN laundering.
#[test]
fn steady_state_try_new_rejects_bad_inputs_with_typed_errors() {
    let cases: [(f64, f64, usize, &str); 5] = [
        (f64::NAN, 0.1, 5, "burn-in"),
        (-1.0, 0.1, 5, "burn-in"),
        (0.5, 0.0, 5, "sample interval"),
        (0.5, f64::INFINITY, 5, "sample interval"),
        (0.5, 0.1, 0, "sample"),
    ];
    for (burn_in, interval, samples, needle) in cases {
        match SteadyStateOptions::try_new(burn_in, interval, samples) {
            Err(SimError::InvalidInput { message }) => assert!(
                message.contains(needle),
                "error {message:?} does not name {needle:?}"
            ),
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }
}

/// A coordinate objective past the drift's dimension is a typed error from
/// every coordinate entry point of the Pontryagin solver, not an
/// out-of-bounds panic while building the objective's weights.
#[test]
fn out_of_range_pontryagin_coordinates_are_typed_errors() {
    let model = sir(1.0, 5.0);
    let drift = model.reduced_drift();
    let x0 = model.reduced_initial_state();
    let coordinate = drift.dim();
    let solver = PontryaginSolver::new(PontryaginOptions {
        grid_intervals: 10,
        ..Default::default()
    });
    fn is_invalid<T>(result: Result<T, CoreError>) -> bool {
        matches!(result, Err(CoreError::InvalidInput { message }) if message.contains("out of range"))
    }
    assert!(is_invalid(
        solver.maximize_coordinate(&drift, &x0, 1.0, coordinate)
    ));
    assert!(is_invalid(
        solver.minimize_coordinate(&drift, &x0, 1.0, coordinate)
    ));
    assert!(is_invalid(
        solver.coordinate_extremes(&drift, &x0, 1.0, coordinate)
    ));
}

/// Every analysis that takes a fixed RK4 step from its caller rejects a
/// zero, negative, NaN or infinite step with a typed error, instead of
/// panicking inside the integrator or silently stepping at another size.
#[test]
fn bad_integration_steps_are_typed_errors_in_every_analysis() {
    let model = sir(1.0, 5.0);
    let drift = model.reduced_drift();
    let x0 = model.reduced_initial_state();
    let theta = model.params().midpoint();
    let system = FnSystem::new(drift.dim(), |_t, x: &StateVec, dx: &mut StateVec| {
        drift.drift_into(x, &theta, dx)
    });
    for step in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let hull = DifferentialHull::new(
            &drift,
            HullOptions {
                step,
                ..Default::default()
            },
        );
        assert!(
            matches!(hull.bounds(&x0, 1.0), Err(CoreError::InvalidInput { .. })),
            "hull at step {step}"
        );
        let birkhoff = birkhoff_centre_2d(
            &drift,
            &x0,
            &BirkhoffOptions {
                step,
                ..Default::default()
            },
        );
        assert!(
            matches!(birkhoff, Err(CoreError::InvalidInput { .. })),
            "Birkhoff centre at step {step}"
        );
        let envelope = UncertainAnalysis {
            step,
            ..Default::default()
        }
        .envelope(&drift, &x0, 1.0);
        assert!(
            matches!(envelope, Err(CoreError::InvalidInput { .. })),
            "uncertain envelope at step {step}"
        );
        let fixed_points = UncertainAnalysis {
            step,
            grid_per_axis: 2,
            ..Default::default()
        }
        .fixed_points(&drift, &x0);
        assert!(
            matches!(fixed_points, Err(CoreError::InvalidInput { .. })),
            "uncertain fixed points at step {step}"
        );
        let fixed_point = equilibrium(
            &system,
            x0.clone(),
            &EquilibriumOptions {
                step,
                ..Default::default()
            },
        );
        assert!(
            matches!(fixed_point, Err(NumError::InvalidArgument { .. })),
            "equilibrium at step {step}"
        );
    }
}
