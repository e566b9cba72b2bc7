use crate::{NumError, Result, StateVec};

use super::{Integrator, OdeSystem, Rk4};

/// Length of each integration burst between two convergence checks of
/// [`equilibrium`].
const BURST: f64 = 5.0;

/// Options controlling [`equilibrium`] search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EquilibriumOptions {
    /// Integration step used inside each burst.
    pub step: f64,
    /// Convergence threshold on the sup norm of the vector field.
    pub drift_tolerance: f64,
    /// Maximum total integration time before giving up.
    pub max_time: f64,
}

impl Default for EquilibriumOptions {
    fn default() -> Self {
        EquilibriumOptions {
            step: 1e-2,
            drift_tolerance: 1e-9,
            max_time: 10_000.0,
        }
    }
}

/// Integrates an autonomous system until it settles at an equilibrium.
///
/// The system is integrated with [`Rk4`] in bursts of 5 time units; after
/// each burst the vector field at the current state is evaluated, and the
/// search stops once its sup norm drops below
/// [`EquilibriumOptions::drift_tolerance`].
///
/// This is how per-parameter fixed points of the uncertain mean field are
/// computed (they seed the Birkhoff-centre construction of Section V-C of the
/// paper). The function assumes the trajectory converges to a stable fixed
/// point; limit cycles or divergence surface as a
/// [`NumError::NoConvergence`] error when `max_time` is exhausted.
///
/// # Errors
///
/// Returns [`NumError::InvalidArgument`] unless the step and the tolerance
/// are positive and finite and `max_time` is non-negative (not NaN), an
/// error if integration fails, and
/// [`NumError::NoConvergence`] if the drift has not fallen below the
/// tolerance after `max_time` time units.
///
/// # Example
///
/// ```
/// use mfu_num::ode::{equilibrium, EquilibriumOptions, FnSystem};
/// use mfu_num::StateVec;
///
/// // logistic growth settles at x = 1
/// let sys = FnSystem::new(1, |_t, x: &StateVec, dx: &mut StateVec| dx[0] = x[0] * (1.0 - x[0]));
/// let fp = equilibrium(&sys, StateVec::from(vec![0.2]), &EquilibriumOptions::default())?;
/// assert!((fp[0] - 1.0).abs() < 1e-6);
/// # Ok::<(), mfu_num::NumError>(())
/// ```
pub fn equilibrium(
    system: &dyn OdeSystem,
    x0: StateVec,
    options: &EquilibriumOptions,
) -> Result<StateVec> {
    let positive_finite = |v: f64| v > 0.0 && v.is_finite();
    // a NaN `max_time` is never reached, so the search would not end
    if !positive_finite(options.step)
        || !positive_finite(options.drift_tolerance)
        || options.max_time.is_nan()
        || options.max_time < 0.0
    {
        return Err(NumError::invalid_argument(
            "equilibrium options must have a positive finite step and tolerance \
             and a non-negative max_time",
        ));
    }
    let solver = Rk4::with_step(options.step);
    let mut x = x0;
    let mut elapsed = 0.0;
    let mut drift = StateVec::zeros(system.dim());
    loop {
        system.rhs(0.0, &x, &mut drift);
        if drift.norm_inf() < options.drift_tolerance {
            return Ok(x);
        }
        if elapsed >= options.max_time {
            return Err(NumError::NoConvergence {
                method: "equilibrium",
                iterations: (elapsed / BURST) as usize,
                residual: drift.norm_inf(),
            });
        }
        x = solver.final_state(system, 0.0, x, BURST)?;
        elapsed += BURST;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ode::FnSystem;

    #[test]
    fn finds_logistic_fixed_point() {
        let sys = FnSystem::new(1, |_t, x: &StateVec, dx: &mut StateVec| {
            dx[0] = x[0] * (1.0 - x[0])
        });
        let fp = equilibrium(&sys, StateVec::from([0.1]), &EquilibriumOptions::default()).unwrap();
        assert!((fp[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn finds_linear_system_origin() {
        let sys = FnSystem::new(2, |_t, x: &StateVec, dx: &mut StateVec| {
            dx[0] = -x[0] + 0.5 * x[1];
            dx[1] = -2.0 * x[1];
        });
        let fp = equilibrium(
            &sys,
            StateVec::from([3.0, -2.0]),
            &EquilibriumOptions::default(),
        )
        .unwrap();
        assert!(fp.norm_inf() < 1e-6);
    }

    #[test]
    fn reports_non_convergence_for_rotation() {
        // Pure rotation never settles: the drift magnitude stays at 1.
        let sys = FnSystem::new(2, |_t, x: &StateVec, dx: &mut StateVec| {
            dx[0] = x[1];
            dx[1] = -x[0];
        });
        let options = EquilibriumOptions {
            max_time: 20.0,
            ..EquilibriumOptions::default()
        };
        let res = equilibrium(&sys, StateVec::from([1.0, 0.0]), &options);
        assert!(matches!(res, Err(NumError::NoConvergence { .. })));
    }

    #[test]
    fn rejects_invalid_options() {
        // a system that settles, so a missed check answers rather than hangs
        let sys = FnSystem::new(1, |_t, x: &StateVec, dx: &mut StateVec| dx[0] = -x[0]);
        let defaults = EquilibriumOptions::default();
        let mut invalid = vec![EquilibriumOptions {
            step: -1.0,
            ..defaults
        }];
        for max_time in [f64::NAN, -1.0] {
            invalid.push(EquilibriumOptions {
                max_time,
                ..defaults
            });
        }
        for drift_tolerance in [f64::NAN, 0.0, -1e-9, f64::INFINITY] {
            invalid.push(EquilibriumOptions {
                drift_tolerance,
                ..defaults
            });
        }
        for options in invalid {
            assert!(
                matches!(
                    equilibrium(&sys, StateVec::from([1.0]), &options),
                    Err(NumError::InvalidArgument { .. })
                ),
                "{options:?}"
            );
        }
    }

    #[test]
    fn starting_at_the_fixed_point_returns_immediately() {
        let sys = FnSystem::new(1, |_t, x: &StateVec, dx: &mut StateVec| dx[0] = -x[0]);
        let fp = equilibrium(&sys, StateVec::from([0.0]), &EquilibriumOptions::default()).unwrap();
        assert_eq!(fp[0], 0.0);
    }
}
