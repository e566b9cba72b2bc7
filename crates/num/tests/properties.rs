//! Property-based tests for the numerical substrate.

use mfu_num::geometry::{convex_hull, Point2};
use mfu_num::ode::{Dopri45, FnSystem, Integrator, Rk4, Trajectory};
use mfu_num::rootfind::{golden_section_min, SolverOptions};
use mfu_num::StateVec;
use proptest::prelude::*;

fn finite_vec(dim: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3..1e3f64, dim)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Vector addition and subtraction are inverses and norms satisfy the
    /// triangle inequality.
    #[test]
    fn statevec_arithmetic_is_consistent(a in finite_vec(4), b in finite_vec(4)) {
        let x = StateVec::from(a);
        let y = StateVec::from(b);
        let sum = &x + &y;
        let back = &sum - &y;
        prop_assert!(back.distance_inf(&x) < 1e-9);
        prop_assert!(sum.norm2() <= x.norm2() + y.norm2() + 1e-9);
        prop_assert!(x.norm_inf() <= x.norm1() + 1e-12);
        prop_assert!((x.dot(&y) - y.dot(&x)).abs() < 1e-9);
    }

    /// add_scaled is exactly addition of a scalar multiple.
    #[test]
    fn statevec_add_scaled_matches_operators(a in finite_vec(3), b in finite_vec(3), s in -10.0..10.0f64) {
        let mut x = StateVec::from(a.clone());
        x.add_scaled(s, &StateVec::from(b.clone()));
        let expected = StateVec::from(a) + StateVec::from(b) * s;
        prop_assert!(x.distance_inf(&expected) < 1e-9);
    }

    /// Component-wise min/max bracket both operands.
    #[test]
    fn component_extremes_bracket_operands(a in finite_vec(5), b in finite_vec(5)) {
        let x = StateVec::from(a);
        let y = StateVec::from(b);
        let lo = x.component_min(&y);
        let hi = x.component_max(&y);
        prop_assert!(lo.le(&x) && lo.le(&y));
        prop_assert!(x.le(&hi) && y.le(&hi));
    }

    /// Trajectory linear interpolation stays within the per-coordinate range
    /// of the two bracketing nodes.
    #[test]
    fn trajectory_interpolation_is_bounded(values in prop::collection::vec(finite_vec(2), 2..10), query in 0.0..1.0f64) {
        let mut traj = Trajectory::new(2);
        for (k, v) in values.iter().enumerate() {
            traj.push(k as f64, StateVec::from(v.clone())).unwrap();
        }
        let t = query * traj.last_time();
        let state = traj.at(t).unwrap();
        for i in 0..2 {
            prop_assert!(state[i] >= traj.min_coordinate(i) - 1e-9);
            prop_assert!(state[i] <= traj.max_coordinate(i) + 1e-9);
        }
    }

    /// RK4 and Dormand–Prince agree on linear systems ẋ = a x + b.
    #[test]
    fn integrators_agree_on_linear_dynamics(a in -2.0..0.5f64, b in -1.0..1.0f64, x0 in -5.0..5.0f64) {
        let system = FnSystem::new(1, move |_t, x: &StateVec, dx: &mut StateVec| dx[0] = a * x[0] + b);
        let fine = Rk4::with_step(1e-3)
            .final_state(&system, 0.0, StateVec::from([x0]), 2.0)
            .unwrap();
        let adaptive = Dopri45::default()
            .final_state(&system, 0.0, StateVec::from([x0]), 2.0)
            .unwrap();
        prop_assert!((fine[0] - adaptive[0]).abs() < 1e-5);
    }

    /// Golden-section search locates the vertex of a random parabola.
    #[test]
    fn golden_section_finds_parabola_vertex(center in -3.0..3.0f64, scale in 0.1..5.0f64) {
        let (x, _) = golden_section_min(
            |x| scale * (x - center).powi(2),
            -10.0,
            10.0,
            &SolverOptions { x_tolerance: 1e-8, ..Default::default() },
        )
        .unwrap();
        prop_assert!((x - center).abs() < 1e-5);
    }

    /// The convex hull contains every input point.
    #[test]
    fn convex_hull_contains_inputs(points in prop::collection::vec((-10.0..10.0f64, -10.0..10.0f64), 4..30)) {
        let pts: Vec<Point2> = points.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        match convex_hull(&pts) {
            Ok(hull) => {
                for p in &pts {
                    prop_assert!(hull.contains(*p) || hull.distance_to_boundary(*p) < 1e-7);
                }
                prop_assert!(hull.area() >= 0.0);
            }
            Err(_) => {
                // degenerate (collinear / duplicate) input is allowed to fail
            }
        }
    }
}
