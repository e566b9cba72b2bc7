use crate::{NumError, Result, StateVec};

use super::{check_inputs, Integrator, OdeSystem, Trajectory};

/// Classic fourth-order Runge–Kutta integrator with a fixed step size.
///
/// Fourth-order accurate, with one allocation-free step,
/// [`Rk4::step_into`], shared by every fixed-step integration of the
/// workspace: [`Integrator::integrate`] here, and the forward and costate
/// passes of the Pontryagin sweep, which need a fixed time grid shared by
/// the state and the costate.
///
/// # Example
///
/// ```
/// use mfu_num::ode::{FnSystem, Integrator, Rk4};
/// use mfu_num::StateVec;
///
/// let decay = FnSystem::new(1, |_t, x: &StateVec, dx: &mut StateVec| dx[0] = -x[0]);
/// let end = Rk4::with_step(1e-2).final_state(&decay, 0.0, StateVec::from(vec![1.0]), 1.0)?;
/// assert!((end[0] - (-1.0f64).exp()).abs() < 1e-8);
/// # Ok::<(), mfu_num::NumError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rk4 {
    step: f64,
}

/// Preallocated stage buffers of [`Rk4::step_into`]: the four slopes plus
/// the perturbed stage state. One instance serves every step of an
/// integration.
#[derive(Debug, Clone)]
pub struct Rk4Scratch {
    k1: StateVec,
    k2: StateVec,
    k3: StateVec,
    k4: StateVec,
    stage: StateVec,
}

impl Rk4Scratch {
    /// Buffers for steps of a `dim`-dimensional vector field.
    pub fn new(dim: usize) -> Self {
        Rk4Scratch {
            k1: StateVec::zeros(dim),
            k2: StateVec::zeros(dim),
            k3: StateVec::zeros(dim),
            k4: StateVec::zeros(dim),
            stage: StateVec::zeros(dim),
        }
    }
}

impl Rk4 {
    /// Creates an RK4 integrator with the given step size.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not strictly positive and finite; analyses that
    /// take a step from their caller validate it first and return a typed
    /// error.
    pub fn with_step(step: f64) -> Self {
        assert!(
            step > 0.0 && step.is_finite(),
            "RK4 step must be positive and finite"
        );
        Rk4 { step }
    }

    /// The configured step size.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// One RK4 step of size `h` of the vector field `f(t, x, dx)` from
    /// `(t, x)`, writing the new state into `out`.
    ///
    /// All temporaries live in `scratch`, so the step allocates nothing. The
    /// arithmetic is fixed: stage states `x + c·h·k`, then `out = x` and the
    /// four updates `out += (h/6)·k1`, `(h/3)·k2`, `(h/3)·k3`, `(h/6)·k4` in
    /// that order. The step does not check its result; callers test
    /// `out.is_finite()` and report their own error.
    ///
    /// # Panics
    ///
    /// Panics if `x`, `out` and `scratch` do not share one dimension.
    pub fn step_into<F>(
        f: &mut F,
        t: f64,
        x: &StateVec,
        h: f64,
        out: &mut StateVec,
        scratch: &mut Rk4Scratch,
    ) where
        F: FnMut(f64, &StateVec, &mut StateVec),
    {
        f(t, x, &mut scratch.k1);
        scratch.stage.copy_from(x);
        scratch.stage.add_scaled(0.5 * h, &scratch.k1);
        f(t + 0.5 * h, &scratch.stage, &mut scratch.k2);
        scratch.stage.copy_from(x);
        scratch.stage.add_scaled(0.5 * h, &scratch.k2);
        f(t + 0.5 * h, &scratch.stage, &mut scratch.k3);
        scratch.stage.copy_from(x);
        scratch.stage.add_scaled(h, &scratch.k3);
        f(t + h, &scratch.stage, &mut scratch.k4);
        out.copy_from(x);
        out.add_scaled(h / 6.0, &scratch.k1);
        out.add_scaled(h / 3.0, &scratch.k2);
        out.add_scaled(h / 3.0, &scratch.k3);
        out.add_scaled(h / 6.0, &scratch.k4);
    }
}

impl Default for Rk4 {
    fn default() -> Self {
        Rk4::with_step(1e-3)
    }
}

impl Integrator for Rk4 {
    fn integrate(
        &self,
        system: &dyn OdeSystem,
        t0: f64,
        x0: StateVec,
        t_end: f64,
    ) -> Result<Trajectory> {
        check_inputs(system, t0, &x0, t_end)?;
        let dim = system.dim();
        let span = t_end - t0;
        let n_steps = (span / self.step).ceil().max(1.0) as usize;
        let h = span / n_steps as f64;

        let mut traj = Trajectory::with_capacity(dim, n_steps + 1);
        let mut x = x0;
        traj.push(t0, x.clone())?;
        if span == 0.0 {
            return Ok(traj);
        }
        let mut next = StateVec::zeros(dim);
        let mut scratch = Rk4Scratch::new(dim);
        let mut rhs = |t: f64, x: &StateVec, dx: &mut StateVec| system.rhs(t, x, dx);
        for k in 0..n_steps {
            let t = t0 + h * k as f64;
            Rk4::step_into(&mut rhs, t, &x, h, &mut next, &mut scratch);
            std::mem::swap(&mut x, &mut next);
            if !x.is_finite() {
                return Err(NumError::non_finite(format!("RK4 step at t = {t}")));
            }
            let t_next = if k + 1 == n_steps {
                t_end
            } else {
                t0 + h * (k + 1) as f64
            };
            traj.push(t_next, x.clone())?;
        }
        Ok(traj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ode::FnSystem;

    #[test]
    fn fourth_order_accuracy_on_exponential() {
        let sys = FnSystem::new(1, |_t, x: &StateVec, dx: &mut StateVec| dx[0] = -x[0]);
        let exact = (-1.0f64).exp();
        let end = Rk4::with_step(1e-2)
            .final_state(&sys, 0.0, StateVec::from([1.0]), 1.0)
            .unwrap();
        assert!((end[0] - exact).abs() < 1e-9);
    }

    #[test]
    fn order_of_convergence_is_about_four() {
        let sys = FnSystem::new(1, |t, _x: &StateVec, dx: &mut StateVec| {
            dx[0] = (t).cos() * (t).sin()
        });
        let exact = 0.5 * (1.0f64.sin()).powi(2);
        let err = |h: f64| {
            let end = Rk4::with_step(h)
                .final_state(&sys, 0.0, StateVec::from([0.0]), 1.0)
                .unwrap();
            (end[0] - exact).abs()
        };
        let e1 = err(0.1);
        let e2 = err(0.05);
        // halving the step should reduce the error roughly by 2^4 = 16
        let order = (e1 / e2).log2();
        assert!(order > 3.0, "observed order {order} too low");
    }

    #[test]
    fn oscillator_conserves_energy_approximately() {
        let sys = FnSystem::new(2, |_t, x: &StateVec, dx: &mut StateVec| {
            dx[0] = x[1];
            dx[1] = -x[0];
        });
        let traj = Rk4::with_step(1e-3)
            .integrate(
                &sys,
                0.0,
                StateVec::from([1.0, 0.0]),
                2.0 * std::f64::consts::PI,
            )
            .unwrap();
        let end = traj.last_state();
        assert!((end[0] - 1.0).abs() < 1e-6);
        assert!(end[1].abs() < 1e-6);
    }

    #[test]
    fn trajectory_times_cover_the_whole_interval() {
        let sys = FnSystem::new(1, |_t, _x: &StateVec, dx: &mut StateVec| dx[0] = 1.0);
        let traj = Rk4::with_step(0.3)
            .integrate(&sys, 0.0, StateVec::from([0.0]), 1.0)
            .unwrap();
        assert!((traj.first_time() - 0.0).abs() < 1e-15);
        assert!((traj.last_time() - 1.0).abs() < 1e-15);
        // end state equals elapsed time for ẋ = 1
        assert!((traj.last_state()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_backwards_integration() {
        let sys = FnSystem::new(1, |_t, _x: &StateVec, dx: &mut StateVec| dx[0] = 1.0);
        assert!(Rk4::default()
            .integrate(&sys, 1.0, StateVec::from([0.0]), 0.0)
            .is_err());
    }

    #[test]
    fn reports_a_non_finite_step() {
        let sys = FnSystem::new(1, |_t, x: &StateVec, dx: &mut StateVec| dx[0] = x[0] * x[0]);
        let err = Rk4::with_step(0.5)
            .integrate(&sys, 0.0, StateVec::from([1e200]), 10.0)
            .unwrap_err();
        assert!(matches!(err, NumError::NonFinite { .. }), "{err:?}");
    }
}
