//! Batched evaluation is the only path, and it must answer exactly what
//! scalar evaluation would. These tests sweep the scenario registry and
//! compare, bit for bit,
//!
//! * τ-leap runs: lane `k` of a 4-wide lockstep group (batched VM
//!   rescans) against `simulate` with seed `base + k` — a group of one,
//!   whose rescans call each rate's scalar `eval`;
//! * seeded τ-leap ensemble summaries: `run_ensemble`'s lockstep groups
//!   against the in-order fold of groups of one;
//! * differential-hull bounds and Pontryagin coordinate extremes: the
//!   compiled drift's batched VM `drift_batch_into` against the same drift
//!   with that override hidden, so every lane is one scalar `drift_into`;
//! * the backward pass's batched Jacobian stencils against the scalar
//!   finite-difference reference of `mfu-num`.
//!
//! Together with the property suite in `crates/lang/tests/vm_equivalence.rs`
//! (random expressions × widths × lane-varying inputs) this is the
//! end-to-end half of the batched-VM equivalence harness: the VM proves each
//! instruction pass is lane-exact, these tests prove no call site reorders
//! the arithmetic around it.

use mean_field_uncertain::core::drift::ImpreciseDrift;
use mean_field_uncertain::core::hull::{DifferentialHull, HullOptions};
use mean_field_uncertain::core::pontryagin::{
    JacobianStencils, PontryaginOptions, PontryaginSolver,
};
use mean_field_uncertain::ctmc::params::ParamSpace;
use mean_field_uncertain::lang::scenarios::ScenarioRegistry;
use mean_field_uncertain::num::jacobian::{
    finite_difference_jacobian_into, Jacobian, JacobianScratch,
};
use mean_field_uncertain::num::StateVec;
use mean_field_uncertain::sim::ensemble::{run_ensemble, EnsembleOptions};
use mean_field_uncertain::sim::gillespie::{SimulationOptions, SimulationRun, Simulator};
use mean_field_uncertain::sim::lockstep::simulate_tau_leap_lockstep;
use mean_field_uncertain::sim::policy::ConstantPolicy;
use mean_field_uncertain::sim::stats::RunningStats;
use mean_field_uncertain::sim::tauleap::TauLeapOptions;

fn assert_states_bit_identical(a: &[StateVec], b: &[StateVec], what: &str, name: &str) {
    assert_eq!(a.len(), b.len(), "{name}: {what} length");
    for (k, (sa, sb)) in a.iter().zip(b).enumerate() {
        assert_eq!(sa.dim(), sb.dim(), "{name}: {what} dim at node {k}");
        for i in 0..sa.dim() {
            assert_eq!(
                sa[i].to_bits(),
                sb[i].to_bits(),
                "{name}: {what} differs at node {k}, coordinate {i}: {} vs {}",
                sa[i],
                sb[i]
            );
        }
    }
}

fn assert_runs_bit_identical(a: &SimulationRun, b: &SimulationRun, what: &str) {
    assert_eq!(a.events(), b.events(), "{what}: events");
    assert_eq!(a.final_counts(), b.final_counts(), "{what}: final counts");
    assert_eq!(a.counters(), b.counters(), "{what}: counters");
    assert_eq!(a.outcome(), b.outcome(), "{what}: outcome");
    let times = |run: &SimulationRun| -> Vec<u64> {
        run.trajectory().iter().map(|(t, _)| t.to_bits()).collect()
    };
    assert_eq!(times(a), times(b), "{what}: trajectory times");
    let states = |run: &SimulationRun| -> Vec<StateVec> {
        run.trajectory().iter().map(|(_, x)| x.clone()).collect()
    };
    assert_states_bit_identical(&states(a), &states(b), "trajectory", what);
}

/// Population scale of the simulation sweeps: large enough to leap, small
/// enough to keep fallback bursts in play on the boundary-heavy models.
const SCALE: usize = 300;

#[test]
fn lockstep_lanes_equal_groups_of_one_across_the_registry() {
    let registry = ScenarioRegistry::with_builtins();
    for scenario in registry.iter() {
        let model = scenario.compile().unwrap();
        let simulator = Simulator::new(model.population_model().unwrap(), SCALE).unwrap();
        let counts = model.initial_counts(SCALE);
        let options =
            SimulationOptions::new(scenario.horizon().min(1.0)).tau_leap(TauLeapOptions::default());
        // lanes run at different parameter vectors, so the batched rescan
        // sees per-lane ϑ as well as per-lane states
        let mut thetas = vec![model.params().midpoint()];
        thetas.extend(model.params().vertices());
        let lane_theta = |k: usize| thetas[k % thetas.len()].clone();
        let seeds: Vec<u64> = (0..4).map(|k| 40 + k).collect();
        let policies = (0..seeds.len())
            .map(|k| ConstantPolicy::new(lane_theta(k)))
            .collect();
        let lanes =
            simulate_tau_leap_lockstep(&simulator, &counts, policies, &options, &seeds).unwrap();
        for (k, (lane, &seed)) in lanes.iter().zip(&seeds).enumerate() {
            let mut policy = ConstantPolicy::new(lane_theta(k));
            let solo = simulator
                .simulate(&counts, &mut policy, &options, seed)
                .unwrap();
            let what = format!("{}: lane {k}", model.name());
            assert_runs_bit_identical(lane.as_ref().unwrap(), &solo, &what);
        }
    }
}

#[test]
fn tau_leap_ensemble_summaries_are_bit_identical_with_batching_on_and_off() {
    // On: `run_ensemble` advances its replications as one lockstep group.
    // Off: groups of one, folded in replication order. One worker pins the
    // Welford update order, so the grouping is the only difference.
    let registry = ScenarioRegistry::with_builtins();
    for scenario in registry.iter() {
        let model = scenario.compile().unwrap();
        let simulator = Simulator::new(model.population_model().unwrap(), SCALE).unwrap();
        let counts = model.initial_counts(SCALE);
        let horizon = scenario.horizon().min(1.0);
        let sim_options = SimulationOptions::new(horizon).tau_leap(TauLeapOptions::default());
        let (replications, base_seed, grid) = (4, 17, 8);
        let summary = run_ensemble(
            &simulator,
            &counts,
            || ConstantPolicy::new(model.params().midpoint()),
            &sim_options,
            &EnsembleOptions {
                replications,
                base_seed,
                threads: 1,
                grid_intervals: grid,
            },
        )
        .unwrap();

        let times: Vec<f64> = (0..=grid)
            .map(|k| horizon * k as f64 / grid as f64)
            .collect();
        let mut stats = vec![vec![RunningStats::new(); model.dim()]; times.len()];
        let mut finals = Vec::new();
        for r in 0..replications {
            let mut policy = ConstantPolicy::new(model.params().midpoint());
            let run = simulator
                .simulate(&counts, &mut policy, &sim_options, base_seed + r as u64)
                .unwrap();
            for (k, &t) in times.iter().enumerate() {
                let state = run.trajectory().at(t).unwrap();
                for (i, &v) in state.as_slice().iter().enumerate() {
                    stats[k][i].push(v);
                }
            }
            finals.push(run.trajectory().at(horizon).unwrap());
        }

        let name = model.name();
        assert_eq!(summary.times(), &times[..], "{name}: summary grid");
        let means: Vec<StateVec> = (0..times.len()).map(|k| summary.mean_at(k)).collect();
        let folded_means: Vec<StateVec> = stats
            .iter()
            .map(|row| row.iter().map(RunningStats::mean).collect())
            .collect();
        assert_states_bit_identical(&means, &folded_means, "mean", name);
        let deviations: Vec<StateVec> = (0..times.len()).map(|k| summary.std_dev_at(k)).collect();
        let folded_deviations: Vec<StateVec> = stats
            .iter()
            .map(|row| row.iter().map(RunningStats::std_dev).collect())
            .collect();
        assert_states_bit_identical(&deviations, &folded_deviations, "std dev", name);
        assert_states_bit_identical(summary.final_states(), &finals, "final states", name);
    }
}

/// A drift with its batched override hidden: `drift_batch_into` falls back
/// to the trait default, one scalar `drift_into` per lane.
struct ScalarLanes<D>(D);

impl<D: ImpreciseDrift> ImpreciseDrift for ScalarLanes<D> {
    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn params(&self) -> &ParamSpace {
        self.0.params()
    }

    fn drift_into(&self, x: &StateVec, theta: &[f64], out: &mut StateVec) {
        self.0.drift_into(x, theta, out);
    }
}

/// The hull's rectangle-point enumeration is exponential in the dimension,
/// so the registry sweep keeps to the models a scalar-lane hull can
/// integrate in test time.
const MAX_HULL_DIM: usize = 6;

#[test]
fn hull_bounds_are_bit_identical_with_batching_on_and_off() {
    let registry = ScenarioRegistry::with_builtins();
    let mut checked = 0usize;
    for scenario in registry.iter() {
        let model = scenario.compile().unwrap();
        if model.dim() > MAX_HULL_DIM {
            continue;
        }
        let drift = model.drift();
        let horizon = scenario.horizon().min(1.0);
        let options = HullOptions {
            step: 1e-2,
            time_intervals: 10,
            ..Default::default()
        };
        let on = DifferentialHull::new(&drift, options)
            .bounds(&model.initial_state(), horizon)
            .unwrap();
        let off = DifferentialHull::new(ScalarLanes(&drift), options)
            .bounds(&model.initial_state(), horizon)
            .unwrap();
        assert_eq!(on.times(), off.times(), "{}: time grid", model.name());
        assert_states_bit_identical(on.lower(), off.lower(), "hull lower bound", model.name());
        assert_states_bit_identical(on.upper(), off.upper(), "hull upper bound", model.name());
        checked += 1;
    }
    assert!(checked >= 3, "only {checked} scenarios fit the hull sweep");
}

#[test]
fn pontryagin_extremes_are_bit_identical_with_batching_on_and_off() {
    let registry = ScenarioRegistry::with_builtins();
    let mut checked = 0usize;
    let solver = PontryaginSolver::new(PontryaginOptions {
        grid_intervals: 40,
        ..Default::default()
    });
    for scenario in registry.iter() {
        let model = scenario.compile().unwrap();
        if model.dim() > MAX_HULL_DIM {
            continue;
        }
        let drift = model.drift();
        let horizon = scenario.horizon().min(1.0);
        let x0 = model.initial_state();
        let (lo_on, hi_on) = solver.coordinate_extremes(&drift, &x0, horizon, 0).unwrap();
        let (lo_off, hi_off) = solver
            .coordinate_extremes(&ScalarLanes(&drift), &x0, horizon, 0)
            .unwrap();
        assert_eq!(
            lo_on.to_bits(),
            lo_off.to_bits(),
            "{}: lower extreme {lo_on} vs {lo_off}",
            model.name()
        );
        assert_eq!(
            hi_on.to_bits(),
            hi_off.to_bits(),
            "{}: upper extreme {hi_on} vs {hi_off}",
            model.name()
        );
        checked += 1;
    }
    assert!(
        checked >= 3,
        "only {checked} scenarios fit the Pontryagin sweep"
    );
}

#[test]
fn batched_jacobian_matches_the_finite_difference_reference_on_registry_drifts() {
    // The sweep's Jacobian step.
    const STEP: f64 = 1e-6;
    let registry = ScenarioRegistry::with_builtins();
    let mut stencils = JacobianStencils::default();
    for scenario in registry.iter() {
        let model = scenario.compile().unwrap();
        let drift = model.drift();
        let dim = drift.dim();
        let mut batched = Jacobian::zeros(dim, dim);
        let mut reference = Jacobian::zeros(dim, dim);
        let mut reference_scratch = JacobianScratch::new(dim, dim);
        // the initial state plus an interior point, at the box's midpoint
        // and first vertex: four stencils with per-lane controls in one
        // batch, as a backward pass's chunk evaluates them
        let x0 = model.initial_state();
        let interior: StateVec = x0.iter().map(|&v| 0.75 * v + 0.05).collect();
        let thetas = [
            model.params().midpoint(),
            model.params().vertices().swap_remove(0),
        ];
        let points: Vec<(&StateVec, &Vec<f64>)> = [&x0, &interior]
            .into_iter()
            .flat_map(|x| thetas.iter().map(move |theta| (x, theta)))
            .collect();
        stencils.reset(dim, model.params().dim(), points.len());
        for (s, (x, theta)) in points.iter().enumerate() {
            stencils.set(s, x.as_slice(), theta);
        }
        stencils.evaluate(&drift);
        for (s, (x, theta)) in points.iter().enumerate() {
            let ok = stencils.jacobian_into(s, &mut batched);
            let reference_ok = finite_difference_jacobian_into(
                &mut |x: &StateVec, dx: &mut StateVec| drift.drift_into(x, theta, dx),
                x,
                STEP,
                &mut reference,
                &mut reference_scratch,
            )
            .is_ok();
            assert_eq!(ok, reference_ok, "{}: verdict at {x}", model.name());
            if !ok {
                continue;
            }
            for i in 0..dim {
                for j in 0..dim {
                    assert_eq!(
                        batched.entry(i, j).to_bits(),
                        reference.entry(i, j).to_bits(),
                        "{}: entry ({i}, {j}) at {x}",
                        model.name()
                    );
                }
            }
        }
    }
}
