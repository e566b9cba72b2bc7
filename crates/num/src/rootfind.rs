//! One-dimensional minimisation.
//!
//! These routines back the robust tuning of design parameters (Section VI-C
//! of the paper), where a worst-case objective computed by the Pontryagin
//! sweep is minimised over a scalar design parameter: a coarse [`grid_min`]
//! scan brackets the optimum, and [`golden_section_min`], which only
//! requires unimodality, not derivatives, refines it.

use crate::{NumError, Result};

/// Options of [`golden_section_min`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverOptions {
    /// Absolute tolerance on the argument.
    pub x_tolerance: f64,
    /// Maximum number of iterations.
    pub max_iterations: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            x_tolerance: 1e-10,
            max_iterations: 200,
        }
    }
}

fn validate_bracket(a: f64, b: f64) -> Result<()> {
    if !a.is_finite() || !b.is_finite() || a >= b {
        return Err(NumError::invalid_argument(format!(
            "invalid bracket [{a}, {b}]"
        )));
    }
    Ok(())
}

/// Minimises a unimodal function on `[a, b]` by golden-section search.
///
/// Returns the pair `(x_min, f(x_min))`. Used by the robust-tuning routine of
/// the paper's Section VI-C, where the worst-case queue length is (observed
/// to be) convex in the GPS weight.
///
/// # Errors
///
/// Returns an error if the bracket is invalid or the iteration budget is
/// exhausted before the bracket shrinks below `x_tolerance`.
///
/// # Example
///
/// ```
/// use mfu_num::rootfind::{golden_section_min, SolverOptions};
///
/// let (x, fx) = golden_section_min(|x| (x - 3.0) * (x - 3.0) + 1.0, 0.0, 10.0,
///                                  &SolverOptions::default())?;
/// assert!((x - 3.0).abs() < 1e-6);
/// assert!((fx - 1.0).abs() < 1e-9);
/// # Ok::<(), mfu_num::NumError>(())
/// ```
pub fn golden_section_min<F: FnMut(f64) -> f64>(
    mut f: F,
    a: f64,
    b: f64,
    options: &SolverOptions,
) -> Result<(f64, f64)> {
    validate_bracket(a, b)?;
    let inv_phi = (5.0_f64.sqrt() - 1.0) / 2.0;
    let (mut lo, mut hi) = (a, b);
    let mut x1 = hi - inv_phi * (hi - lo);
    let mut x2 = lo + inv_phi * (hi - lo);
    let mut f1 = f(x1);
    let mut f2 = f(x2);
    for _ in 0..options.max_iterations {
        if (hi - lo).abs() < options.x_tolerance {
            let x = 0.5 * (lo + hi);
            return Ok((x, f(x)));
        }
        if f1 < f2 {
            hi = x2;
            x2 = x1;
            f2 = f1;
            x1 = hi - inv_phi * (hi - lo);
            f1 = f(x1);
        } else {
            lo = x1;
            x1 = x2;
            f1 = f2;
            x2 = lo + inv_phi * (hi - lo);
            f2 = f(x2);
        }
    }
    // Golden-section contraction is slow but monotone; after exhausting the
    // budget the midpoint is still a sensible answer, but we surface the lack
    // of convergence so callers can widen the budget when it matters.
    Err(NumError::NoConvergence {
        method: "golden_section_min",
        iterations: options.max_iterations,
        residual: hi - lo,
    })
}

/// Minimises `f` over `[a, b]` by evaluating it on a uniform grid of
/// `n + 1` points and returning the best `(x, f(x))` pair.
///
/// This is the derivative-free fallback used when the objective is not known
/// to be unimodal (for instance a coarse pre-scan before golden-section
/// refinement).
///
/// # Errors
///
/// Returns an error if the bracket is invalid or `n == 0`.
pub fn grid_min<F: FnMut(f64) -> f64>(mut f: F, a: f64, b: f64, n: usize) -> Result<(f64, f64)> {
    validate_bracket(a, b)?;
    if n == 0 {
        return Err(NumError::invalid_argument(
            "grid_min requires at least one interval",
        ));
    }
    let mut best = (a, f(a));
    for k in 1..=n {
        let x = a + (b - a) * (k as f64) / (n as f64);
        let fx = f(x);
        if fx < best.1 {
            best = (x, fx);
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_section_finds_parabola_minimum() {
        let (x, fx) = golden_section_min(
            |x| (x - 3.0).powi(2) + 1.0,
            -10.0,
            10.0,
            &SolverOptions::default(),
        )
        .unwrap();
        assert!((x - 3.0).abs() < 1e-6);
        assert!((fx - 1.0).abs() < 1e-10);
    }

    #[test]
    fn golden_section_on_asymmetric_function() {
        let (x, _) = golden_section_min(
            |x| (x - 0.25).abs() + 0.1 * x,
            0.0,
            1.0,
            &SolverOptions::default(),
        )
        .unwrap();
        assert!((x - 0.25).abs() < 1e-6);
    }

    #[test]
    fn golden_section_reports_budget_exhaustion() {
        let options = SolverOptions {
            max_iterations: 2,
            x_tolerance: 1e-12,
        };
        let res = golden_section_min(|x| x * x, -1.0, 1.0, &options);
        assert!(matches!(res, Err(NumError::NoConvergence { .. })));
    }

    #[test]
    fn grid_min_picks_best_point() {
        let (x, fx) = grid_min(|x| (x - 0.3).powi(2), 0.0, 1.0, 10).unwrap();
        assert!((x - 0.3).abs() <= 0.05 + 1e-12);
        assert!(fx <= 0.01 + 1e-12);
    }

    #[test]
    fn grid_min_rejects_degenerate_input() {
        assert!(grid_min(|x| x, 0.0, 1.0, 0).is_err());
        assert!(grid_min(|x| x, 1.0, 0.0, 5).is_err());
    }
}
