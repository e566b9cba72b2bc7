//! Explicit ODE integrators and dense trajectory output.
//!
//! The mean-field limits of population processes are ordinary differential
//! equations (for the uncertain case) or selections of differential
//! inclusions driven by a parameter signal (for the imprecise case). This
//! module provides the integrators used throughout the workspace:
//!
//! * [`Rk4`] — the classic fourth-order Runge–Kutta scheme with a fixed
//!   step. Its allocation-free [`Rk4::step_into`] is the workspace's one
//!   scalar RK4 step: [`Rk4`]'s own [`Integrator::integrate`] and the
//!   Pontryagin sweep's forward and costate passes both call it;
//! * [`Dopri45`] — the adaptive Dormand–Prince 4(5) embedded pair with PI
//!   step-size control, which integrates the parameter selections of the
//!   differential inclusion adaptively;
//! * [`Trajectory`] — dense output with linear interpolation between accepted
//!   steps;
//! * [`equilibrium`] — integration until the vector field becomes negligibly
//!   small, used to find fixed points of the uncertain mean field.
//!
//! All integrators implement the [`Integrator`] trait so that higher layers
//! can be written against the abstraction and tested with a cheap solver.

mod dopri;
mod rk4;
mod steady;
mod trajectory;

pub use dopri::Dopri45;
pub use rk4::{Rk4, Rk4Scratch};
pub use steady::{equilibrium, EquilibriumOptions};
pub use trajectory::Trajectory;

use crate::{Result, StateVec};

/// A (possibly time-dependent) vector field `ẋ = f(t, x)`.
///
/// Implementors only need to provide the dimension and the right-hand side;
/// the integrators take care of the rest. The right-hand side writes its
/// result into `dx` to avoid allocating on every evaluation.
///
/// # Example
///
/// ```
/// use mfu_num::ode::OdeSystem;
/// use mfu_num::StateVec;
///
/// /// Harmonic oscillator `ẍ = -x` as a first-order system.
/// struct Oscillator;
///
/// impl OdeSystem for Oscillator {
///     fn dim(&self) -> usize { 2 }
///     fn rhs(&self, _t: f64, x: &StateVec, dx: &mut StateVec) {
///         dx[0] = x[1];
///         dx[1] = -x[0];
///     }
/// }
/// ```
pub trait OdeSystem {
    /// Dimension of the state space.
    fn dim(&self) -> usize;

    /// Evaluates the vector field at time `t` and state `x`, writing into `dx`.
    fn rhs(&self, t: f64, x: &StateVec, dx: &mut StateVec);

    /// Evaluates the vector field and returns a freshly allocated vector.
    ///
    /// This is a convenience for call sites where allocation is not a
    /// concern; hot loops should use [`OdeSystem::rhs`] directly.
    fn rhs_owned(&self, t: f64, x: &StateVec) -> StateVec {
        let mut dx = StateVec::zeros(self.dim());
        self.rhs(t, x, &mut dx);
        dx
    }
}

/// Adapter turning a closure `f(t, x, dx)` into an [`OdeSystem`].
///
/// # Example
///
/// ```
/// use mfu_num::ode::{FnSystem, Integrator, Rk4};
/// use mfu_num::StateVec;
///
/// let decay = FnSystem::new(1, |_t, x: &StateVec, dx: &mut StateVec| dx[0] = -x[0]);
/// let traj = Rk4::with_step(1e-3).integrate(&decay, 0.0, StateVec::from(vec![1.0]), 1.0)?;
/// assert!((traj.last_state()[0] - (-1.0f64).exp()).abs() < 1e-6);
/// # Ok::<(), mfu_num::NumError>(())
/// ```
pub struct FnSystem<F> {
    dim: usize,
    f: F,
}

impl<F> FnSystem<F>
where
    F: Fn(f64, &StateVec, &mut StateVec),
{
    /// Creates a new closure-backed system of dimension `dim`.
    pub fn new(dim: usize, f: F) -> Self {
        FnSystem { dim, f }
    }
}

impl<F> OdeSystem for FnSystem<F>
where
    F: Fn(f64, &StateVec, &mut StateVec),
{
    fn dim(&self) -> usize {
        self.dim
    }

    fn rhs(&self, t: f64, x: &StateVec, dx: &mut StateVec) {
        (self.f)(t, x, dx);
    }
}

impl<S: OdeSystem + ?Sized> OdeSystem for &S {
    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn rhs(&self, t: f64, x: &StateVec, dx: &mut StateVec) {
        (**self).rhs(t, x, dx)
    }
}

/// A numerical scheme that integrates an [`OdeSystem`] over a time interval.
///
/// Integration always proceeds forward in time (`t_end >= t0`); callers that
/// need a backward pass (for example the costate equation in the Pontryagin
/// sweep) should reparametrise time as `s = T - t`.
pub trait Integrator {
    /// Integrates `system` from `(t0, x0)` to `t_end`, returning the dense trajectory.
    ///
    /// # Errors
    ///
    /// Returns an error if the inputs are inconsistent (e.g. `t_end < t0`,
    /// dimension mismatch), if a non-finite value is produced, or — for
    /// adaptive schemes — if the step size underflows.
    fn integrate(
        &self,
        system: &dyn OdeSystem,
        t0: f64,
        x0: StateVec,
        t_end: f64,
    ) -> Result<Trajectory>;

    /// Integrates and returns only the final state.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Integrator::integrate`].
    fn final_state(
        &self,
        system: &dyn OdeSystem,
        t0: f64,
        x0: StateVec,
        t_end: f64,
    ) -> Result<StateVec> {
        Ok(self.integrate(system, t0, x0, t_end)?.last_state().clone())
    }
}

pub(crate) fn check_inputs(
    system: &dyn OdeSystem,
    t0: f64,
    x0: &StateVec,
    t_end: f64,
) -> Result<()> {
    if x0.dim() != system.dim() {
        return Err(crate::NumError::DimensionMismatch {
            expected: system.dim(),
            found: x0.dim(),
        });
    }
    if !t0.is_finite() || !t_end.is_finite() {
        return Err(crate::NumError::invalid_argument(
            "integration bounds must be finite",
        ));
    }
    if t_end < t0 {
        return Err(crate::NumError::invalid_argument(format!(
            "t_end ({t_end}) must not precede t0 ({t0})"
        )));
    }
    if !x0.is_finite() {
        return Err(crate::NumError::non_finite("initial condition"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_system_evaluates_closure() {
        let sys = FnSystem::new(2, |_t, x: &StateVec, dx: &mut StateVec| {
            dx[0] = x[1];
            dx[1] = -x[0];
        });
        assert_eq!(sys.dim(), 2);
        let dx = sys.rhs_owned(0.0, &StateVec::from([1.0, 0.0]));
        assert_eq!(dx.as_slice(), &[0.0, -1.0]);
    }

    #[test]
    fn reference_impl_delegates() {
        let sys = FnSystem::new(1, |_t, x: &StateVec, dx: &mut StateVec| dx[0] = 2.0 * x[0]);
        let r = &sys;
        assert_eq!(OdeSystem::dim(&r), 1);
        assert_eq!(r.rhs_owned(0.0, &StateVec::from([3.0]))[0], 6.0);
    }

    #[test]
    fn check_inputs_rejects_bad_bounds() {
        let sys = FnSystem::new(1, |_t, _x: &StateVec, dx: &mut StateVec| dx[0] = 0.0);
        let x0 = StateVec::from([0.0]);
        assert!(check_inputs(&sys, 0.0, &x0, -1.0).is_err());
        assert!(check_inputs(&sys, 0.0, &x0, f64::NAN).is_err());
        assert!(check_inputs(&sys, 0.0, &StateVec::from([0.0, 0.0]), 1.0).is_err());
        assert!(check_inputs(&sys, 0.0, &StateVec::from([f64::INFINITY]), 1.0).is_err());
        assert!(check_inputs(&sys, 0.0, &x0, 1.0).is_ok());
    }
}
