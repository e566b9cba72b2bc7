//! The asymptotic reachable set `A_F` (Section III-C, Theorem 2).
//!
//! Theorem 2 states that, in the long run, the imprecise population process
//! stays close to the asymptotic reachable set `A_F` — the set of points that
//! solutions of the mean-field inclusion keep visiting at arbitrarily late
//! times. The paper suggests computing a convex over-approximation of `A_F`
//! by letting the horizon of the (Pontryagin) reachable-set computation grow.
//! This module implements that procedure per coordinate: the per-coordinate
//! reachable interval is computed at a sequence of growing horizons and the
//! iteration stops once it stabilises, giving a box containing `A_F` as seen
//! from the given initial condition.
//!
//! The procedure's settings are constants: the first horizon is 5, each
//! round doubles it, at most 6 rounds run, the bounds have stabilised when
//! none moves by `1e-3` or more between two rounds, and every horizon is
//! solved on a 200-interval Pontryagin grid.

use mfu_num::StateVec;

use crate::drift::ImpreciseDrift;
use crate::pontryagin::{PontryaginOptions, PontryaginSolver};
use crate::Result;

/// First horizon probed.
const INITIAL_HORIZON: f64 = 5.0;

/// Multiplicative factor between successive horizons.
const GROWTH_FACTOR: f64 = 2.0;

/// Maximum number of horizons probed.
const MAX_ROUNDS: usize = 6;

/// The iteration stops when no bound moves by this amount or more between
/// two successive horizons.
const TOLERANCE: f64 = 1e-3;

/// Intervals of the per-horizon Pontryagin grid.
const GRID_INTERVALS: usize = 200;

/// A per-coordinate box containing the asymptotic reachable set `A_F`.
#[derive(Debug, Clone, PartialEq)]
pub struct AsymptoticBox {
    lower: StateVec,
    upper: StateVec,
    horizon: f64,
    converged: bool,
}

impl AsymptoticBox {
    /// Per-coordinate lower bounds.
    pub fn lower(&self) -> &StateVec {
        &self.lower
    }

    /// Per-coordinate upper bounds.
    pub fn upper(&self) -> &StateVec {
        &self.upper
    }

    /// The largest horizon that was probed.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Whether the bounds stabilised before the round budget ran out.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Returns `true` when `state` lies inside the box (up to `tolerance`).
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn contains(&self, state: &StateVec, tolerance: f64) -> bool {
        (0..state.dim())
            .all(|i| state[i] >= self.lower[i] - tolerance && state[i] <= self.upper[i] + tolerance)
    }

    /// Per-coordinate widths of the box.
    pub fn widths(&self) -> StateVec {
        &self.upper - &self.lower
    }
}

/// Computes a box containing the asymptotic reachable set of the inclusion
/// started from `x0`, by growing the reachability horizon until the
/// per-coordinate bounds stabilise.
///
/// # Errors
///
/// Returns an error if a Pontryagin sweep fails (for instance on a
/// dimension mismatch). A failure to stabilise within the round budget is
/// *not* an error; the returned box reports `converged() == false`.
pub fn asymptotic_box<D: ImpreciseDrift + Sync>(drift: &D, x0: &StateVec) -> Result<AsymptoticBox> {
    let dim = drift.dim();
    let solver = PontryaginSolver::new(PontryaginOptions {
        grid_intervals: GRID_INTERVALS,
        ..Default::default()
    });

    let mut horizon = INITIAL_HORIZON;
    let mut lower = StateVec::zeros(dim);
    let mut upper = StateVec::zeros(dim);
    let mut converged = false;

    for round in 0..MAX_ROUNDS {
        let mut new_lower = StateVec::zeros(dim);
        let mut new_upper = StateVec::zeros(dim);
        let bounds = solver.coordinate_bounds(drift, x0, horizon, 0..dim)?;
        for (coordinate, (lo, hi)) in bounds.into_iter().enumerate() {
            new_lower[coordinate] = lo.objective_value();
            new_upper[coordinate] = hi.objective_value();
        }
        if round > 0 {
            let movement = new_lower
                .distance_inf(&lower)
                .max(new_upper.distance_inf(&upper));
            if movement < TOLERANCE {
                lower = new_lower;
                upper = new_upper;
                converged = true;
                break;
            }
        }
        lower = new_lower;
        upper = new_upper;
        horizon *= GROWTH_FACTOR;
    }
    Ok(AsymptoticBox {
        lower,
        upper,
        horizon,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::FnDrift;
    use mfu_ctmc::params::ParamSpace;

    /// ẋ = ϑ - x with ϑ ∈ [0.3, 0.7]: every solution ends up oscillating in
    /// [0.3, 0.7], which is exactly the asymptotic reachable set.
    fn relaxation_drift() -> FnDrift<impl Fn(&StateVec, &[f64], &mut StateVec)> {
        let params = ParamSpace::single("target", 0.3, 0.7).unwrap();
        FnDrift::new(1, params, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = th[0] - x[0]
        })
    }

    #[test]
    fn relaxation_box_converges_to_the_parameter_interval() {
        let drift = relaxation_drift();
        let result = asymptotic_box(&drift, &StateVec::from([0.0])).unwrap();
        assert!(result.converged());
        assert!(
            (result.lower()[0] - 0.3).abs() < 0.02,
            "lower {:?}",
            result.lower()
        );
        assert!(
            (result.upper()[0] - 0.7).abs() < 0.02,
            "upper {:?}",
            result.upper()
        );
        assert!(result.contains(&StateVec::from([0.5]), 1e-9));
        assert!(!result.contains(&StateVec::from([0.9]), 1e-3));
        assert!(result.widths()[0] > 0.3);
    }

    #[test]
    fn starting_inside_the_set_gives_the_same_box() {
        let drift = relaxation_drift();
        let from_below = asymptotic_box(&drift, &StateVec::from([0.0])).unwrap();
        let from_inside = asymptotic_box(&drift, &StateVec::from([0.5])).unwrap();
        assert!((from_below.lower()[0] - from_inside.lower()[0]).abs() < 0.02);
        assert!((from_below.upper()[0] - from_inside.upper()[0]).abs() < 0.02);
    }
}
