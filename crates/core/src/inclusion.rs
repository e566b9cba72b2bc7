//! The mean-field differential inclusion `ẋ ∈ F(x)` (Theorem 1).
//!
//! The inclusion is represented in parametrised form: its right-hand side set
//! is `F(x) = {f(x, ϑ) : ϑ ∈ Θ}` for an [`ImpreciseDrift`]. Individual
//! solutions are obtained by fixing a measurable parameter signal `ϑ(t)` and
//! integrating the resulting non-autonomous ODE; the analyses in the sibling
//! modules ([`hull`](crate::hull), [`pontryagin`](crate::pontryagin),
//! [`birkhoff`](crate::birkhoff)) characterise the whole solution set without
//! enumerating signals.

use mfu_num::ode::{Dopri45, Integrator, OdeSystem, Rk4, Trajectory};
use mfu_num::StateVec;

use crate::drift::ImpreciseDrift;
use crate::signal::{ConstantSignal, ParamSignal};
use crate::{CoreError, Result};

/// The mean-field differential inclusion of an imprecise model.
///
/// # Example
///
/// ```
/// use mfu_core::drift::FnDrift;
/// use mfu_core::inclusion::DifferentialInclusion;
/// use mfu_core::signal::PiecewiseSignal;
/// use mfu_ctmc::params::ParamSpace;
/// use mfu_num::StateVec;
///
/// let theta = ParamSpace::single("rate", 1.0, 2.0)?;
/// let drift = FnDrift::new(1, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
///     dx[0] = -th[0] * x[0];
/// });
/// let inclusion = DifferentialInclusion::new(&drift);
///
/// // a bang-bang selection: slow decay until t = 0.5, fast decay afterwards
/// let signal = PiecewiseSignal::new(vec![0.5], vec![vec![1.0], vec![2.0]]);
/// let traj = inclusion.solve(&signal, StateVec::from(vec![1.0]), 1.0)?;
/// let expected = (-0.5f64).exp() * (-1.0f64).exp();
/// assert!((traj.last_state()[0] - expected).abs() < 1e-6);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct DifferentialInclusion<D> {
    drift: D,
}

impl<D: ImpreciseDrift> DifferentialInclusion<D> {
    /// Wraps an imprecise drift.
    pub fn new(drift: D) -> Self {
        DifferentialInclusion { drift }
    }

    /// The underlying drift.
    pub fn drift(&self) -> &D {
        &self.drift
    }

    /// State dimension.
    pub fn dim(&self) -> usize {
        self.drift.dim()
    }

    /// Integrates the selection of the inclusion induced by `signal` from
    /// `x0` over `[0, t_end]` with the adaptive default solver.
    ///
    /// # Errors
    ///
    /// Returns an error if the initial condition has the wrong dimension, the
    /// signal leaves `Θ`, or integration fails.
    pub fn solve<S: ParamSignal>(
        &self,
        signal: &S,
        x0: StateVec,
        t_end: f64,
    ) -> Result<Trajectory> {
        self.check_x0(&x0)?;
        let system = SelectionOde {
            drift: &self.drift,
            signal,
        };
        self.validate_signal(signal, t_end)?;
        Dopri45::default()
            .max_step((t_end / 200.0).max(1e-3))
            .integrate(&system, 0.0, x0, t_end)
            .map_err(CoreError::from)
    }

    /// Integrates the selection with a fixed-step RK4 solver.
    ///
    /// Piecewise-constant signals make the right-hand side discontinuous in
    /// time; the fixed-step solver avoids the step-rejection chatter an
    /// adaptive scheme can exhibit near switching instants.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DifferentialInclusion::solve`].
    pub fn solve_fixed_step<S: ParamSignal>(
        &self,
        signal: &S,
        x0: StateVec,
        t_end: f64,
        step: f64,
    ) -> Result<Trajectory> {
        self.check_x0(&x0)?;
        CoreError::check_step(step)?;
        self.validate_signal(signal, t_end)?;
        let system = SelectionOde {
            drift: &self.drift,
            signal,
        };
        Rk4::with_step(step)
            .integrate(&system, 0.0, x0, t_end)
            .map_err(CoreError::from)
    }

    /// Integrates the constant selection `ϑ(t) ≡ theta` (the uncertain scenario).
    ///
    /// # Errors
    ///
    /// Same conditions as [`DifferentialInclusion::solve`], plus an error when
    /// `theta` lies outside `Θ`.
    pub fn solve_constant(&self, theta: &[f64], x0: StateVec, t_end: f64) -> Result<Trajectory> {
        if !self.drift.params().contains(theta) {
            return Err(CoreError::invalid_input(format!(
                "constant parameter {theta:?} lies outside the uncertainty set"
            )));
        }
        self.solve(&ConstantSignal::new(theta.to_vec()), x0, t_end)
    }

    fn check_x0(&self, x0: &StateVec) -> Result<()> {
        if x0.dim() != self.drift.dim() {
            return Err(CoreError::invalid_input(format!(
                "initial condition has dimension {}, drift has dimension {}",
                x0.dim(),
                self.drift.dim()
            )));
        }
        Ok(())
    }

    fn validate_signal<S: ParamSignal>(&self, signal: &S, t_end: f64) -> Result<()> {
        // Spot-check the signal at a few times; a full check is impossible for
        // arbitrary closures.
        for k in 0..=8 {
            let t = t_end * k as f64 / 8.0;
            let theta = signal.theta_at(t);
            if !self.drift.params().contains(&theta) {
                return Err(CoreError::invalid_input(format!(
                    "parameter signal leaves the uncertainty set at t = {t} (value {theta:?})"
                )));
            }
        }
        Ok(())
    }
}

/// The non-autonomous ODE obtained by fixing a parameter signal.
struct SelectionOde<'a, D, S> {
    drift: &'a D,
    signal: &'a S,
}

impl<D: ImpreciseDrift, S: ParamSignal> OdeSystem for SelectionOde<'_, D, S> {
    fn dim(&self) -> usize {
        self.drift.dim()
    }

    fn rhs(&self, t: f64, x: &StateVec, dx: &mut StateVec) {
        let theta = self.signal.theta_at(t);
        self.drift.drift_into(x, &theta, dx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::FnDrift;
    use crate::signal::{FnSignal, PiecewiseSignal};
    use mfu_ctmc::params::ParamSpace;

    fn decay_drift() -> FnDrift<impl Fn(&StateVec, &[f64], &mut StateVec)> {
        let theta = ParamSpace::single("rate", 1.0, 2.0).unwrap();
        FnDrift::new(1, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = -th[0] * x[0]
        })
    }

    #[test]
    fn constant_selection_matches_exponential() {
        let inclusion = DifferentialInclusion::new(decay_drift());
        let traj = inclusion
            .solve_constant(&[1.5], StateVec::from([2.0]), 1.0)
            .unwrap();
        assert!((traj.last_state()[0] - 2.0 * (-1.5f64).exp()).abs() < 1e-6);
    }

    #[test]
    fn constant_selection_outside_theta_is_rejected() {
        let inclusion = DifferentialInclusion::new(decay_drift());
        assert!(inclusion
            .solve_constant(&[5.0], StateVec::from([1.0]), 1.0)
            .is_err());
    }

    #[test]
    fn piecewise_selection_composes_exponentials() {
        let inclusion = DifferentialInclusion::new(decay_drift());
        let signal = PiecewiseSignal::new(vec![0.5], vec![vec![2.0], vec![1.0]]);
        let traj = inclusion
            .solve(&signal, StateVec::from([1.0]), 1.0)
            .unwrap();
        let expected = (-1.0f64).exp() * (-0.5f64).exp();
        assert!((traj.last_state()[0] - expected).abs() < 1e-5);
        // fixed-step integration agrees (the switching instant falls inside a
        // step, so accuracy is limited by the step size there)
        let traj2 = inclusion
            .solve_fixed_step(&signal, StateVec::from([1.0]), 1.0, 1e-4)
            .unwrap();
        assert!((traj2.last_state()[0] - expected).abs() < 1e-4);
    }

    #[test]
    fn signals_leaving_theta_are_rejected() {
        let inclusion = DifferentialInclusion::new(decay_drift());
        let signal = FnSignal::new(|t: f64| vec![1.0 + 5.0 * t]);
        assert!(inclusion
            .solve(&signal, StateVec::from([1.0]), 1.0)
            .is_err());
    }

    #[test]
    fn initial_condition_dimension_is_checked() {
        let inclusion = DifferentialInclusion::new(decay_drift());
        assert!(inclusion
            .solve_constant(&[1.0], StateVec::from([1.0, 2.0]), 1.0)
            .is_err());
        assert!(inclusion
            .solve_fixed_step(
                &ConstantSignal::new(vec![1.0]),
                StateVec::from([1.0]),
                1.0,
                0.0
            )
            .is_err());
    }

    #[test]
    fn accessors() {
        let inclusion = DifferentialInclusion::new(decay_drift());
        assert_eq!(inclusion.dim(), 1);
        assert_eq!(inclusion.drift().params().dim(), 1);
    }
}
