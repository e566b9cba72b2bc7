//! Robust tuning of design parameters against worst-case imprecision.
//!
//! Section VI-C of the paper tunes the GPS weights `φ_1/φ_2` so that the
//! *worst-case* total queue length — the maximum over all admissible
//! parameter signals, computed with the Pontryagin sweep — is minimised.
//! This module provides that outer minimisation: the caller supplies a
//! *worst-case objective* as a function of the scalar design parameter
//! (typically wrapping
//! [`PontryaginSolver`](crate::pontryagin::PontryaginSolver) on a model
//! rebuilt for each candidate design), and the optimiser brackets the
//! optimum on a coarse grid, then refines it assuming local unimodality.

use mfu_num::rootfind::{golden_section_min, grid_min, SolverOptions};

use crate::{CoreError, Result};

/// Maximum number of golden-section iterations of the refinement.
const MAX_ITERATIONS: usize = 200;

/// Options of the robust-design search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustOptions {
    /// Number of coarse grid evaluations used to bracket the optimum.
    pub coarse_grid: usize,
    /// Tolerance on the design parameter for the golden-section refinement
    /// (at most 200 iterations).
    pub design_tolerance: f64,
}

impl Default for RobustOptions {
    fn default() -> Self {
        RobustOptions {
            coarse_grid: 12,
            design_tolerance: 1e-3,
        }
    }
}

/// The outcome of a robust-design search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustDesign {
    /// The minimising design value.
    pub design: f64,
    /// The worst-case objective at the minimiser.
    pub worst_case: f64,
    /// Number of objective evaluations performed.
    pub evaluations: usize,
}

/// Minimises a worst-case objective over a scalar design range.
///
/// The objective is evaluated on a coarse grid to bracket the optimum, then
/// refined by golden-section search around the best grid point (assuming
/// local unimodality, which holds for the convex objective of the paper's
/// GPS example).
///
/// # Errors
///
/// Returns an error if the range is invalid, an objective evaluation fails,
/// or the refinement fails to converge.
///
/// # Example
///
/// ```
/// use mfu_core::robust::{minimize_worst_case, RobustOptions};
///
/// let result = minimize_worst_case(1.0, 5.0, &RobustOptions::default(), |phi| Ok((phi - 3.0) * (phi - 3.0)))?;
/// assert!((result.design - 3.0).abs() < 1e-2);
/// # Ok::<(), mfu_core::CoreError>(())
/// ```
pub fn minimize_worst_case<F>(
    lo: f64,
    hi: f64,
    options: &RobustOptions,
    mut objective: F,
) -> Result<RobustDesign>
where
    F: FnMut(f64) -> Result<f64>,
{
    if !(lo.is_finite() && hi.is_finite()) || lo >= hi {
        return Err(CoreError::invalid_input(format!(
            "invalid design range [{lo}, {hi}]"
        )));
    }
    if options.coarse_grid == 0 {
        return Err(CoreError::invalid_input(
            "coarse grid needs at least one interval",
        ));
    }

    let mut evaluations = 0usize;
    let mut failure: Option<CoreError> = None;
    // Coarse scan. Failed evaluations are recorded and reported afterwards.
    let coarse = grid_min(
        |x| {
            evaluations += 1;
            match objective(x) {
                Ok(v) => v,
                Err(err) => {
                    if failure.is_none() {
                        failure = Some(err);
                    }
                    f64::INFINITY
                }
            }
        },
        lo,
        hi,
        options.coarse_grid,
    )?;
    if let Some(err) = failure {
        return Err(err);
    }

    // Refine around the best grid point (one grid cell on each side).
    let cell = (hi - lo) / options.coarse_grid as f64;
    let refine_lo = (coarse.0 - cell).max(lo);
    let refine_hi = (coarse.0 + cell).min(hi);
    let solver_options = SolverOptions {
        x_tolerance: options.design_tolerance,
        max_iterations: MAX_ITERATIONS,
    };
    let mut failure: Option<CoreError> = None;
    let refined = golden_section_min(
        |x| {
            evaluations += 1;
            match objective(x) {
                Ok(v) => v,
                Err(err) => {
                    if failure.is_none() {
                        failure = Some(err);
                    }
                    f64::INFINITY
                }
            }
        },
        refine_lo,
        refine_hi,
        &solver_options,
    )
    .map_err(CoreError::from)?;
    if let Some(err) = failure {
        return Err(err);
    }
    let (design, worst_case) = if refined.1 <= coarse.1 {
        refined
    } else {
        coarse
    };
    Ok(RobustDesign {
        design,
        worst_case,
        evaluations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::FnDrift;
    use crate::pontryagin::{LinearObjective, PontryaginOptions, PontryaginSolver};
    use mfu_ctmc::params::ParamSpace;
    use mfu_num::StateVec;

    #[test]
    fn minimizes_a_convex_objective() {
        let result = minimize_worst_case(0.0, 10.0, &RobustOptions::default(), |x| {
            Ok((x - 7.0).powi(2) + 1.0)
        })
        .unwrap();
        assert!((result.design - 7.0).abs() < 1e-2);
        assert!((result.worst_case - 1.0).abs() < 1e-3);
        assert!(result.evaluations > 10);
    }

    #[test]
    fn propagates_objective_errors() {
        let res = minimize_worst_case(0.0, 1.0, &RobustOptions::default(), |_x| {
            Err(CoreError::invalid_input("inner failure"))
        });
        assert!(res.is_err());
    }

    #[test]
    fn validates_range() {
        assert!(minimize_worst_case(1.0, 1.0, &RobustOptions::default(), Ok).is_err());
        assert!(minimize_worst_case(f64::NAN, 1.0, &RobustOptions::default(), Ok).is_err());
        let bad = RobustOptions {
            coarse_grid: 0,
            ..Default::default()
        };
        assert!(minimize_worst_case(0.0, 1.0, &bad, Ok).is_err());
    }

    #[test]
    fn robust_sweep_balances_two_decay_rates() {
        // Design parameter w ∈ [0.1, 0.9] splits a fixed service capacity
        // between two queues: queue 0 drains at rate w, queue 1 at rate 1 - w.
        // Arrivals are imprecise in [0.5, 1]. The worst-case total backlog at
        // T is minimised near w = 0.5 by symmetry.
        let solver = PontryaginSolver::new(PontryaginOptions {
            grid_intervals: 60,
            ..Default::default()
        });
        let robust = RobustOptions {
            coarse_grid: 8,
            design_tolerance: 1e-2,
        };
        let x0 = StateVec::from([0.5, 0.5]);
        let objective = LinearObjective::maximize(StateVec::from([1.0, 1.0]));
        let result = minimize_worst_case(0.1, 0.9, &robust, |w| {
            let theta = ParamSpace::single("arrival", 0.5, 1.0)?;
            let drift = FnDrift::new(
                2,
                theta,
                move |x: &StateVec, th: &[f64], dx: &mut StateVec| {
                    dx[0] = th[0] - w * x[0];
                    dx[1] = th[0] - (1.0 - w) * x[1];
                },
            );
            let solution = solver.solve(&drift, &x0, 2.0, objective.clone())?;
            Ok(solution.objective_value())
        })
        .unwrap();
        assert!(
            (result.design - 0.5).abs() < 0.1,
            "design {}",
            result.design
        );
    }
}
