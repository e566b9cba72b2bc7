//! Every Pontryagin extreme the query service computes converges, and the
//! extremes that an undamped sweep left short of their extremal reach it.
//!
//! The sweep runs at the service's default options (grid 120, single start
//! with the Θ-vertex escalation ladder) over every analysable registry
//! scenario — the 15 Pontryagin cells of the `pontryagin_cold` benchmark
//! workload — with the service's drift rule, `CompiledModel::bounding_drift`:
//! the reduced drift for every coordinate except a conservative model's
//! last species, which needs the full drift. Both extremes of every
//! coordinate are checked.
//!
//! A second test pins how often the costate gate zeroes a backward-pass
//! Jacobian (`core_costate_gate_trips`): never on the smooth `sir`, and a
//! fixed count on `bike_city_4`, whose `when` guards make finite-difference
//! stencils straddle rate discontinuities.

use mean_field_uncertain::core::pontryagin::{PontryaginOptions, PontryaginSolver};
use mean_field_uncertain::lang::ScenarioRegistry;
use mean_field_uncertain::obs::{Counter, Obs};
use mean_field_uncertain::serve::ServiceOptions;

/// Scenarios past this dimension are left out: `ring_48` (96 extremes)
/// and `grid_6x6` are too slow for a test sweep.
const MAX_DIM: usize = 8;

/// Sweeps within which every reported extreme must converge. The largest
/// count is 12 (`botnet`'s objective maximum).
const SWEEP_BUDGET: usize = 20;

#[test]
fn every_served_extreme_converges_and_reaches_its_accuracy_floor() {
    let solver = PontryaginSolver::new(ServiceOptions::default().pontryagin);
    let registry = ScenarioRegistry::with_builtins();
    let mut failures = Vec::new();
    let mut extremes = 0usize;
    let mut sir_max = None;
    let mut botnet_max = None;
    for scenario in registry.iter() {
        let name = scenario.name();
        let model = scenario
            .compile()
            .unwrap_or_else(|e| panic!("`{name}` fails to compile: {e}"));
        if model.dim() > MAX_DIM {
            continue;
        }
        let horizon = scenario.horizon();
        for coordinate in 0..model.dim() {
            let (drift, x0) = model.bounding_drift(coordinate);
            let lo = solver
                .minimize_coordinate(&drift, &x0, horizon, coordinate)
                .unwrap_or_else(|e| panic!("`{name}` x{coordinate} min: {e}"));
            let hi = solver
                .maximize_coordinate(&drift, &x0, horizon, coordinate)
                .unwrap_or_else(|e| panic!("`{name}` x{coordinate} max: {e}"));
            for (which, solution) in [("min", &lo), ("max", &hi)] {
                extremes += 1;
                if !solution.converged() || solution.iterations() > SWEEP_BUDGET {
                    failures.push(format!(
                        "`{name}` x{coordinate} {which}: converged {} after {} sweeps",
                        solution.converged(),
                        solution.iterations()
                    ));
                }
            }
            if coordinate == scenario.objective_coordinate() {
                match name {
                    "sir" => sir_max = Some(hi.objective_value()),
                    "botnet" => botnet_max = Some(hi.objective_value()),
                    _ => {}
                }
            }
        }
    }
    assert!(extremes > 0, "no analysable scenario in the registry");
    assert!(
        failures.is_empty(),
        "extremes not converged within {SWEEP_BUDGET} sweeps:\n{}",
        failures.join("\n")
    );
    // The undamped sweep reported 0.153050 and 0.171969 here; feasible
    // controls reach 0.170477 and 0.186500.
    let sir_max = sir_max.expect("`sir` is in the registry");
    assert!(sir_max >= 0.1704, "`sir` I(3) maximum {sir_max}");
    let botnet_max = botnet_max.expect("`botnet` is in the registry");
    assert!(
        botnet_max >= 0.186,
        "`botnet` objective maximum {botnet_max}"
    );
}

/// `core_costate_gate_trips` summed over both extremes of every coordinate
/// of `name` (single start, declared horizon, the service's drift rule) on
/// a grid of `grid` intervals.
fn costate_gate_trips(name: &str, grid: usize) -> u64 {
    let registry = ScenarioRegistry::with_builtins();
    let scenario = registry.get(name).unwrap();
    let model = scenario.compile().unwrap();
    let obs = Obs::with_metrics();
    let solver = PontryaginSolver::new(PontryaginOptions {
        grid_intervals: grid,
        ..Default::default()
    })
    .with_obs(obs.clone());
    for coordinate in 0..model.dim() {
        let (drift, x0) = model.bounding_drift(coordinate);
        let horizon = scenario.horizon();
        solver
            .minimize_coordinate(&drift, &x0, horizon, coordinate)
            .unwrap();
        solver
            .maximize_coordinate(&drift, &x0, horizon, coordinate)
            .unwrap();
    }
    obs.metrics
        .snapshot()
        .unwrap()
        .counter(Counter::CoreCostateGateTrips)
}

#[test]
fn costate_gate_trips_are_counted_on_guarded_drifts_only() {
    assert_eq!(costate_gate_trips("sir", 400), 0);
    // 1 to 5 zeroed intervals in each of the 16 extremes
    assert_eq!(costate_gate_trips("bike_city_4", 400), 28);
}
