//! The uncertain scenario (Corollary 1): constant-but-unknown parameters.
//!
//! When `ϑ` is an unknown constant of `Θ`, the mean-field limit is the family
//! of ODE solutions `{x^ϑ : ϑ ∈ Θ}`. Its envelope (per-coordinate minimum and
//! maximum over `ϑ` at each time) is computed here by a parameter sweep on a
//! grid of `Θ` — the "numerical exploration of all the parameters ϑ" the
//! paper uses for the solid curves of Figure 1 — together with the per-`ϑ`
//! fixed points that trace the uncertain steady-state curve of Figures 3
//! and 5.

use mfu_num::ode::{equilibrium, EquilibriumOptions, FnSystem, Integrator, Rk4};
use mfu_num::StateVec;

use crate::drift::ImpreciseDrift;
use crate::{CoreError, Result};

/// Per-coordinate envelope of a family of trajectories on a common time grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    times: Vec<f64>,
    lower: Vec<StateVec>,
    upper: Vec<StateVec>,
}

impl Envelope {
    /// The common time grid.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Lower bounds, aligned with [`Envelope::times`].
    pub fn lower(&self) -> &[StateVec] {
        &self.lower
    }

    /// Upper bounds, aligned with [`Envelope::times`].
    pub fn upper(&self) -> &[StateVec] {
        &self.upper
    }

    /// Lower bound of coordinate `i` as a time series.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn lower_series(&self, i: usize) -> Vec<f64> {
        self.lower.iter().map(|s| s[i]).collect()
    }

    /// Upper bound of coordinate `i` as a time series.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn upper_series(&self, i: usize) -> Vec<f64> {
        self.upper.iter().map(|s| s[i]).collect()
    }

    /// Width (upper minus lower) of coordinate `i` at grid index `k`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn width(&self, k: usize, i: usize) -> f64 {
        self.upper[k][i] - self.lower[k][i]
    }

    /// Returns `true` when `state` lies inside the envelope at grid index `k`
    /// (up to `tolerance` per coordinate).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range or dimensions disagree.
    pub fn contains_at(&self, k: usize, state: &StateVec, tolerance: f64) -> bool {
        (0..state.dim()).all(|i| {
            state[i] >= self.lower[k][i] - tolerance && state[i] <= self.upper[k][i] + tolerance
        })
    }
}

/// A fixed point of the mean-field ODE for one candidate parameter value.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedPoint {
    /// The parameter value.
    pub theta: Vec<f64>,
    /// The equilibrium state reached from the seed initial condition.
    pub state: StateVec,
}

/// Parameter-sweep analysis of the uncertain scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UncertainAnalysis {
    /// Grid resolution per parameter axis (number of intervals).
    pub grid_per_axis: usize,
    /// Number of time intervals of the envelope grid.
    pub time_intervals: usize,
    /// Fixed integration step used for each candidate parameter.
    pub step: f64,
}

impl Default for UncertainAnalysis {
    fn default() -> Self {
        UncertainAnalysis {
            grid_per_axis: 20,
            time_intervals: 100,
            step: 1e-3,
        }
    }
}

impl UncertainAnalysis {
    /// Computes the envelope of the constant-`ϑ` trajectories from `x0` over
    /// `[0, t_end]`.
    ///
    /// # Errors
    ///
    /// Returns an error if inputs are inconsistent (including a step that is
    /// not positive and finite) or integration fails for some candidate
    /// parameter.
    pub fn envelope<D: ImpreciseDrift>(
        &self,
        drift: &D,
        x0: &StateVec,
        t_end: f64,
    ) -> Result<Envelope> {
        if x0.dim() != drift.dim() {
            return Err(CoreError::invalid_input(
                "initial condition dimension mismatch",
            ));
        }
        if t_end <= 0.0 || !t_end.is_finite() {
            return Err(CoreError::invalid_input(
                "time horizon must be positive and finite",
            ));
        }
        CoreError::check_step(self.step)?;
        let times: Vec<f64> = (0..=self.time_intervals)
            .map(|k| t_end * k as f64 / self.time_intervals as f64)
            .collect();
        let dim = drift.dim();
        let mut lower = vec![StateVec::filled(dim, f64::INFINITY); times.len()];
        let mut upper = vec![StateVec::filled(dim, f64::NEG_INFINITY); times.len()];

        let solver = Rk4::with_step(self.step);
        for theta in drift.params().grid(self.grid_per_axis) {
            let system = FnSystem::new(dim, |_t, x: &StateVec, dx: &mut StateVec| {
                drift.drift_into(x, &theta, dx);
            });
            let traj = solver.integrate(&system, 0.0, x0.clone(), t_end)?;
            for (k, &t) in times.iter().enumerate() {
                let state = traj.at(t)?;
                for i in 0..dim {
                    lower[k][i] = lower[k][i].min(state[i]);
                    upper[k][i] = upper[k][i].max(state[i]);
                }
            }
        }
        Ok(Envelope {
            times,
            lower,
            upper,
        })
    }

    /// Computes the fixed point of the mean-field ODE for every parameter on
    /// the sweep grid, starting each equilibrium search from `seed`.
    ///
    /// Parameters whose trajectory does not settle (limit cycles, divergence)
    /// are skipped; the paper's SIR and GPS models always settle.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] for a step that is not positive
    /// and finite or a seed of the wrong dimension, and an error if *no*
    /// parameter produced a fixed point.
    pub fn fixed_points<D: ImpreciseDrift>(
        &self,
        drift: &D,
        seed: &StateVec,
    ) -> Result<Vec<FixedPoint>> {
        CoreError::check_step(self.step)?;
        if seed.dim() != drift.dim() {
            return Err(CoreError::invalid_input("seed dimension mismatch"));
        }
        let dim = drift.dim();
        let options = EquilibriumOptions {
            step: self.step.max(1e-3),
            drift_tolerance: 1e-8,
            ..EquilibriumOptions::default()
        };
        let mut out = Vec::new();
        for theta in drift.params().grid(self.grid_per_axis) {
            let system = FnSystem::new(dim, |_t, x: &StateVec, dx: &mut StateVec| {
                drift.drift_into(x, &theta, dx);
            });
            if let Ok(state) = equilibrium(&system, seed.clone(), &options) {
                out.push(FixedPoint { theta, state });
            }
        }
        if out.is_empty() {
            return Err(CoreError::NoConvergence {
                analysis: "uncertain fixed points",
                iterations: self.grid_per_axis + 1,
                residual: f64::NAN,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::FnDrift;
    use mfu_ctmc::params::ParamSpace;

    fn decay_drift() -> FnDrift<impl Fn(&StateVec, &[f64], &mut StateVec)> {
        let theta = ParamSpace::single("rate", 1.0, 2.0).unwrap();
        FnDrift::new(1, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = -th[0] * x[0]
        })
    }

    /// Logistic-style drift whose fixed point depends on ϑ: ẋ = ϑ - x.
    fn affine_drift() -> FnDrift<impl Fn(&StateVec, &[f64], &mut StateVec)> {
        let theta = ParamSpace::single("target", 0.25, 0.75).unwrap();
        FnDrift::new(1, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = th[0] - x[0]
        })
    }

    #[test]
    fn envelope_brackets_the_extreme_exponentials() {
        let drift = decay_drift();
        let analysis = UncertainAnalysis {
            grid_per_axis: 8,
            time_intervals: 20,
            step: 1e-3,
        };
        let envelope = analysis
            .envelope(&drift, &StateVec::from([1.0]), 1.0)
            .unwrap();
        assert_eq!(envelope.times().len(), 21);
        let k = 20; // t = 1
        assert!((envelope.lower()[k][0] - (-2.0f64).exp()).abs() < 1e-4);
        assert!((envelope.upper()[k][0] - (-1.0f64).exp()).abs() < 1e-4);
        assert!(envelope.width(k, 0) > 0.0);
        // interior constant parameters stay within the envelope
        assert!(envelope.contains_at(k, &StateVec::from([(-1.5f64).exp()]), 1e-9));
        assert!(!envelope.contains_at(k, &StateVec::from([0.9]), 1e-9));
        // series accessors agree with state accessors
        assert_eq!(envelope.lower_series(0)[k], envelope.lower()[k][0]);
        assert_eq!(envelope.upper_series(0)[k], envelope.upper()[k][0]);
    }

    #[test]
    fn envelope_is_degenerate_for_precise_parameters() {
        let theta = ParamSpace::single("rate", 1.5, 1.5).unwrap();
        let drift = FnDrift::new(1, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = -th[0] * x[0];
        });
        let analysis = UncertainAnalysis {
            grid_per_axis: 4,
            time_intervals: 10,
            step: 1e-3,
        };
        let envelope = analysis
            .envelope(&drift, &StateVec::from([1.0]), 1.0)
            .unwrap();
        for k in 0..envelope.times().len() {
            assert!(envelope.width(k, 0) < 1e-12);
        }
    }

    #[test]
    fn envelope_validates_inputs() {
        let drift = decay_drift();
        let analysis = UncertainAnalysis::default();
        assert!(analysis
            .envelope(&drift, &StateVec::from([1.0, 2.0]), 1.0)
            .is_err());
        assert!(analysis
            .envelope(&drift, &StateVec::from([1.0]), -1.0)
            .is_err());
    }

    #[test]
    fn fixed_points_trace_the_parameter_dependence() {
        let drift = affine_drift();
        let analysis = UncertainAnalysis {
            grid_per_axis: 4,
            time_intervals: 10,
            step: 1e-2,
        };
        let fps = analysis
            .fixed_points(&drift, &StateVec::from([0.0]))
            .unwrap();
        assert_eq!(fps.len(), 5);
        for fp in &fps {
            assert!((fp.state[0] - fp.theta[0]).abs() < 1e-5, "{fp:?}");
        }
    }

    #[test]
    fn fixed_points_validate_seed() {
        let drift = affine_drift();
        let analysis = UncertainAnalysis::default();
        assert!(analysis
            .fixed_points(&drift, &StateVec::from([0.0, 0.0]))
            .is_err());
    }
}
