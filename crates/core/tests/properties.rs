//! Property-based tests for the mean-field analyses: the fundamental
//! soundness invariants (hull bounds contain solutions, Pontryagin maxima
//! dominate every admissible constant parameter, extremal-θ optimisation
//! dominates random samples).

use mfu_core::drift::{extremal_theta, FnDrift, ImpreciseDrift};
use mfu_core::hull::{DifferentialHull, HullOptions};
use mfu_core::inclusion::DifferentialInclusion;
use mfu_core::pontryagin::{PontryaginOptions, PontryaginSolver};
use mfu_core::signal::PiecewiseSignal;
use mfu_ctmc::params::{Interval, ParamSpace};
use mfu_num::StateVec;
use proptest::prelude::*;

/// A random two-dimensional drift, affine in the parameter and globally
/// contractive in the state (so trajectories stay bounded):
/// `ẋ0 = θ (x1 - x0) + c0 - x0`, `ẋ1 = c1 - x1 + 0.5 θ x0`.
fn coupled_drift(
    c0: f64,
    c1: f64,
    lo: f64,
    hi: f64,
) -> FnDrift<impl Fn(&StateVec, &[f64], &mut StateVec)> {
    let params = ParamSpace::new(vec![("theta", Interval::new(lo, hi).unwrap())]).unwrap();
    FnDrift::new(
        2,
        params,
        move |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = th[0] * (x[1] - x[0]) + c0 - x[0];
            dx[1] = c1 - x[1] + 0.5 * th[0] * x[0];
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The differential hull contains the constant-parameter solutions for
    /// every admissible parameter value.
    #[test]
    fn hull_contains_constant_parameter_solutions(
        c0 in -1.0..1.0f64,
        c1 in -1.0..1.0f64,
        lo in 0.1..0.5f64,
        width in 0.1..0.6f64,
        pick in 0.0..1.0f64,
    ) {
        let drift = coupled_drift(c0, c1, lo, lo + width);
        let x0 = StateVec::from([0.2, -0.1]);
        let hull = DifferentialHull::new(
            &drift,
            HullOptions { step: 5e-3, time_intervals: 10, ..Default::default() },
        );
        let bounds = hull.bounds(&x0, 2.0).unwrap();
        let theta = lo + pick * width;
        let inclusion = DifferentialInclusion::new(&drift);
        let traj = inclusion.solve_constant(&[theta], x0, 2.0).unwrap();
        for (k, &t) in bounds.times().iter().enumerate() {
            let state = traj.at(t).unwrap();
            prop_assert!(bounds.contains_at(k, &state, 2e-3), "violated at t = {t}");
        }
    }

    /// The Pontryagin maximum dominates the terminal value of every constant
    /// parameter, and the minimum is dominated by it.
    #[test]
    fn pontryagin_extremes_dominate_constant_parameters(
        c0 in -1.0..1.0f64,
        c1 in -1.0..1.0f64,
        lo in 0.1..0.5f64,
        width in 0.1..0.6f64,
        pick in 0.0..1.0f64,
    ) {
        let drift = coupled_drift(c0, c1, lo, lo + width);
        let x0 = StateVec::from([0.2, -0.1]);
        let solver = PontryaginSolver::new(PontryaginOptions { grid_intervals: 80, ..Default::default() });
        let (min_v, max_v) = solver.coordinate_extremes(&drift, &x0, 1.5, 1).unwrap();
        let theta = lo + pick * width;
        let inclusion = DifferentialInclusion::new(&drift);
        let value = inclusion.solve_constant(&[theta], x0, 1.5).unwrap().last_state()[1];
        prop_assert!(value <= max_v + 1e-3, "constant θ = {theta} beats the max: {value} > {max_v}");
        prop_assert!(value >= min_v - 1e-3, "constant θ = {theta} undercuts the min: {value} < {min_v}");
    }

    /// The Pontryagin maximum also dominates random piecewise-constant
    /// (switching) selections of the inclusion.
    #[test]
    fn pontryagin_maximum_dominates_random_switching_signals(
        c0 in -1.0..1.0f64,
        lo in 0.1..0.5f64,
        width in 0.2..0.6f64,
        switch in 0.2..1.2f64,
        first_high in proptest::bool::ANY,
    ) {
        let drift = coupled_drift(c0, 0.3, lo, lo + width);
        let x0 = StateVec::from([0.2, -0.1]);
        let horizon = 1.5;
        let solver = PontryaginSolver::new(PontryaginOptions { grid_intervals: 80, ..Default::default() });
        let max_v = solver.maximize_coordinate(&drift, &x0, horizon, 1).unwrap().objective_value();

        let (a, b) = if first_high { (lo + width, lo) } else { (lo, lo + width) };
        let signal = PiecewiseSignal::new(vec![switch], vec![vec![a], vec![b]]);
        let inclusion = DifferentialInclusion::new(&drift);
        let value = inclusion
            .solve_fixed_step(&signal, x0, horizon, 1e-3)
            .unwrap()
            .last_state()[1];
        prop_assert!(value <= max_v + 1e-3, "switching signal beats the sweep: {value} > {max_v}");
    }

    /// `extremal_theta` dominates the value of the linear functional at any
    /// sampled parameter of the box.
    #[test]
    fn extremal_theta_dominates_sampled_parameters(
        x0 in -2.0..2.0f64,
        x1 in -2.0..2.0f64,
        d0 in -1.0..1.0f64,
        d1 in -1.0..1.0f64,
        pick in 0.0..1.0f64,
    ) {
        let drift = coupled_drift(0.3, -0.2, 0.2, 1.0);
        let x = StateVec::from([x0, x1]);
        let direction = StateVec::from([d0, d1]);
        let (_, best) = extremal_theta(&drift, &x, &direction);
        let theta = 0.2 + pick * 0.8;
        let value = drift.drift(&x, &[theta]).dot(&direction);
        prop_assert!(value <= best + 1e-9);
    }

    /// Hull lower bounds never exceed upper bounds, at any reported time.
    #[test]
    fn hull_bounds_are_ordered(c0 in -1.0..1.0f64, c1 in -1.0..1.0f64, width in 0.1..1.0f64) {
        let drift = coupled_drift(c0, c1, 0.2, 0.2 + width);
        let hull = DifferentialHull::new(
            &drift,
            HullOptions { step: 5e-3, time_intervals: 10, ..Default::default() },
        );
        let bounds = hull.bounds(&StateVec::from([0.0, 0.0]), 2.0).unwrap();
        for (lo, hi) in bounds.lower().iter().zip(bounds.upper().iter()) {
            prop_assert!(lo.le(hi));
        }
    }
}
