//! Finite-difference Jacobians of vector fields.
//!
//! The Pontryagin costate equation `-ṗ = (∂f/∂x)ᵀ p` requires the Jacobian of
//! the drift with respect to the state. Models in this workspace only expose
//! the drift itself, so the Jacobian is approximated with central finite
//! differences — accurate to second order in the perturbation size, which is
//! ample given the smooth polynomial drifts of population models.

use crate::{NumError, Result, StateVec};

/// A dense row-major matrix of drift partial derivatives.
///
/// `entry(i, j)` is `∂f_i / ∂x_j`.
#[derive(Debug, Clone, PartialEq)]
pub struct Jacobian {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Jacobian {
    /// Creates a zero matrix with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Jacobian {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Number of rows (output dimension of the vector field).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (input dimension of the vector field).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns entry `(i, j) = ∂f_i/∂x_j`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn entry(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.rows && j < self.cols,
            "Jacobian index out of range"
        );
        self.data[i * self.cols + j]
    }

    /// Sets entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn set_entry(&mut self, i: usize, j: usize, value: f64) {
        assert!(
            i < self.rows && j < self.cols,
            "Jacobian index out of range"
        );
        self.data[i * self.cols + j] = value;
    }

    /// Sets every entry to zero (reuse a matrix across evaluations).
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// The induced `∞`-norm `max_i Σ_j |J_ij|` (maximum absolute row sum).
    ///
    /// `‖J‖∞ · h` bounds the per-step growth factor a frozen-Jacobian
    /// integrator can impose, which makes this the natural gauge for "is
    /// this matrix resolvable at step `h`". Non-finite entries propagate
    /// (the result is non-finite), so callers can fold the finiteness check
    /// into the same comparison.
    pub fn inf_norm(&self) -> f64 {
        let mut norm = 0.0_f64;
        for row in self.data.chunks_exact(self.cols.max(1)) {
            let sum = row.iter().fold(0.0_f64, |s, v| s + v.abs());
            if sum.is_nan() {
                return f64::NAN;
            }
            norm = norm.max(sum);
        }
        norm
    }

    /// Computes `Jᵀ p` into a preallocated vector: the contraction of the
    /// costate equation `-ṗ = (∂f/∂x)ᵀ p`.
    ///
    /// # Errors
    ///
    /// Returns an error if `p` does not have `rows` components or `out` does
    /// not have `cols` components.
    pub fn transpose_mul_into(&self, p: &StateVec, out: &mut StateVec) -> Result<()> {
        if p.dim() != self.rows {
            return Err(NumError::DimensionMismatch {
                expected: self.rows,
                found: p.dim(),
            });
        }
        if out.dim() != self.cols {
            return Err(NumError::DimensionMismatch {
                expected: self.cols,
                found: out.dim(),
            });
        }
        out.fill_zero();
        for i in 0..self.rows {
            let pi = p[i];
            if pi == 0.0 {
                continue;
            }
            for j in 0..self.cols {
                out[j] += self.data[i * self.cols + j] * pi;
            }
        }
        Ok(())
    }
}

/// Preallocated work buffers for
/// [`finite_difference_jacobian_into`]: two perturbed states and two drift
/// evaluations. Create once, reuse across every Jacobian of the same shape.
#[derive(Debug, Clone)]
pub struct JacobianScratch {
    x_plus: StateVec,
    x_minus: StateVec,
    f_plus: StateVec,
    f_minus: StateVec,
}

impl JacobianScratch {
    /// Buffers for a vector field from dimension `input_dim` to
    /// `output_dim`.
    pub fn new(input_dim: usize, output_dim: usize) -> Self {
        JacobianScratch {
            x_plus: StateVec::zeros(input_dim),
            x_minus: StateVec::zeros(input_dim),
            f_plus: StateVec::zeros(output_dim),
            f_minus: StateVec::zeros(output_dim),
        }
    }
}

/// Approximates the Jacobian of `f` at `x` by central finite differences
/// `(f(x + h·e_j) − f(x − h·e_j)) / (2h)`, with `h` the perturbation size
/// (a good default is `1e-6`).
///
/// Allocation-free: the vector field writes into a caller buffer and the
/// matrix plus all temporaries are preallocated. This is the scalar
/// reference of the Pontryagin backward pass's batched Jacobian stencils
/// (`mfu_core::pontryagin::JacobianStencils`), which must match it bit for
/// bit.
///
/// # Errors
///
/// Returns an error if `h` is not strictly positive, if `jac`/`scratch`
/// shapes do not match `x`, or if any evaluation is non-finite. On error the
/// contents of `jac` are unspecified.
///
/// # Example
///
/// ```
/// use mfu_num::jacobian::{finite_difference_jacobian_into, Jacobian, JacobianScratch};
/// use mfu_num::StateVec;
///
/// // f(x, y) = (x*y, x + 2y)
/// let mut f = |v: &StateVec, out: &mut StateVec| {
///     out[0] = v[0] * v[1];
///     out[1] = v[0] + 2.0 * v[1];
/// };
/// let mut jac = Jacobian::zeros(2, 2);
/// let mut scratch = JacobianScratch::new(2, 2);
/// let x = StateVec::from(vec![2.0, 3.0]);
/// finite_difference_jacobian_into(&mut f, &x, 1e-6, &mut jac, &mut scratch)?;
/// assert!((jac.entry(0, 0) - 3.0).abs() < 1e-6);
/// assert!((jac.entry(0, 1) - 2.0).abs() < 1e-6);
/// assert!((jac.entry(1, 0) - 1.0).abs() < 1e-6);
/// assert!((jac.entry(1, 1) - 2.0).abs() < 1e-6);
/// # Ok::<(), mfu_num::NumError>(())
/// ```
pub fn finite_difference_jacobian_into<F>(
    f: &mut F,
    x: &StateVec,
    h: f64,
    jac: &mut Jacobian,
    scratch: &mut JacobianScratch,
) -> Result<()>
where
    F: FnMut(&StateVec, &mut StateVec),
{
    if h <= 0.0 || !h.is_finite() {
        return Err(NumError::invalid_argument(
            "finite-difference step must be positive",
        ));
    }
    let n = x.dim();
    let output_dim = jac.rows();
    if jac.cols() != n {
        return Err(NumError::DimensionMismatch {
            expected: n,
            found: jac.cols(),
        });
    }
    if scratch.x_plus.dim() != n || scratch.x_minus.dim() != n {
        return Err(NumError::DimensionMismatch {
            expected: n,
            found: scratch.x_plus.dim(),
        });
    }
    if scratch.f_plus.dim() != output_dim || scratch.f_minus.dim() != output_dim {
        return Err(NumError::DimensionMismatch {
            expected: output_dim,
            found: scratch.f_plus.dim(),
        });
    }
    for j in 0..n {
        scratch.x_plus.copy_from(x);
        scratch.x_minus.copy_from(x);
        scratch.x_plus[j] += h;
        scratch.x_minus[j] -= h;
        f(&scratch.x_plus, &mut scratch.f_plus);
        f(&scratch.x_minus, &mut scratch.f_minus);
        for i in 0..output_dim {
            let d = (scratch.f_plus[i] - scratch.f_minus[i]) / (2.0 * h);
            if !d.is_finite() {
                return Err(NumError::non_finite(format!("jacobian entry ({i}, {j})")));
            }
            jac.set_entry(i, j, d);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic(v: &StateVec, out: &mut StateVec) {
        out[0] = v[0] * v[0] + v[1];
        out[1] = 3.0 * v[0] * v[1];
    }

    fn jacobian_of_quadratic(x: &StateVec) -> Jacobian {
        let mut jac = Jacobian::zeros(2, 2);
        let mut scratch = JacobianScratch::new(2, 2);
        finite_difference_jacobian_into(&mut quadratic, x, 1e-6, &mut jac, &mut scratch).unwrap();
        jac
    }

    #[test]
    fn central_differences_match_analytic_jacobian() {
        let jac = jacobian_of_quadratic(&StateVec::from([1.5, -2.0]));
        assert!((jac.entry(0, 0) - 3.0).abs() < 1e-6); // 2*x0
        assert!((jac.entry(0, 1) - 1.0).abs() < 1e-6);
        assert!((jac.entry(1, 0) + 6.0).abs() < 1e-6); // 3*x1
        assert!((jac.entry(1, 1) - 4.5).abs() < 1e-6); // 3*x0
    }

    #[test]
    fn transpose_mul_matches_manual_computation() {
        let jac = jacobian_of_quadratic(&StateVec::from([1.0, 2.0]));
        let p = StateVec::from([1.0, -1.0]);
        let mut jt_p = StateVec::zeros(2);
        jac.transpose_mul_into(&p, &mut jt_p).unwrap();
        // J = [[2, 1], [6, 3]]; Jᵀ p = [2*1 + 6*(-1), 1*1 + 3*(-1)] = [-4, -2]
        assert!((jt_p[0] + 4.0).abs() < 1e-5);
        assert!((jt_p[1] + 2.0).abs() < 1e-5);
    }

    #[test]
    fn dimension_mismatches_are_reported() {
        let jac = Jacobian::zeros(2, 3);
        let mut out = StateVec::zeros(3);
        assert!(jac
            .transpose_mul_into(&StateVec::zeros(3), &mut out)
            .is_err());
        assert!(jac
            .transpose_mul_into(&StateVec::zeros(2), &mut StateVec::zeros(2))
            .is_err());
        assert!(jac
            .transpose_mul_into(&StateVec::zeros(2), &mut out)
            .is_ok());
    }

    #[test]
    fn rejects_invalid_step() {
        let x = StateVec::from([0.0]);
        let mut f = |v: &StateVec, out: &mut StateVec| out.copy_from(v);
        let mut jac = Jacobian::zeros(1, 1);
        let mut scratch = JacobianScratch::new(1, 1);
        assert!(finite_difference_jacobian_into(&mut f, &x, 0.0, &mut jac, &mut scratch).is_err());
        assert!(
            finite_difference_jacobian_into(&mut f, &x, f64::NAN, &mut jac, &mut scratch).is_err()
        );
    }

    #[test]
    fn into_variant_validates_shapes_and_step() {
        let x = StateVec::from([1.0, 2.0]);
        let mut scratch = JacobianScratch::new(2, 2);
        let mut wrong_cols = Jacobian::zeros(2, 3);
        assert!(finite_difference_jacobian_into(
            &mut quadratic,
            &x,
            1e-6,
            &mut wrong_cols,
            &mut scratch
        )
        .is_err());
        let mut jac = Jacobian::zeros(2, 2);
        assert!(
            finite_difference_jacobian_into(&mut quadratic, &x, 0.0, &mut jac, &mut scratch)
                .is_err()
        );
        let mut wrong_scratch = JacobianScratch::new(3, 2);
        assert!(finite_difference_jacobian_into(
            &mut quadratic,
            &x,
            1e-6,
            &mut jac,
            &mut wrong_scratch
        )
        .is_err());
    }

    #[test]
    fn transpose_mul_into_reuses_buffer_and_validates() {
        let mut jac = Jacobian::zeros(2, 2);
        jac.set_entry(0, 0, 2.0);
        jac.set_entry(0, 1, 1.0);
        jac.set_entry(1, 0, 6.0);
        jac.set_entry(1, 1, 3.0);
        let p = StateVec::from([1.0, -1.0]);
        let mut out = StateVec::from([9.0, 9.0]); // stale contents must be overwritten
        jac.transpose_mul_into(&p, &mut out).unwrap();
        assert_eq!(out.as_slice(), &[-4.0, -2.0]);
        let mut wrong = StateVec::zeros(3);
        assert!(jac.transpose_mul_into(&p, &mut wrong).is_err());
        jac.fill_zero();
        assert_eq!(jac.entry(1, 0), 0.0);
    }

    #[test]
    fn inf_norm_is_the_max_absolute_row_sum() {
        let mut jac = Jacobian::zeros(2, 3);
        jac.set_entry(0, 0, 1.0);
        jac.set_entry(0, 1, -2.0);
        jac.set_entry(0, 2, 0.5);
        jac.set_entry(1, 0, -1.0);
        jac.set_entry(1, 1, 1.0);
        assert_eq!(jac.inf_norm(), 3.5);
        assert_eq!(Jacobian::zeros(0, 0).inf_norm(), 0.0);
        jac.set_entry(1, 2, f64::NAN);
        assert!(jac.inf_norm().is_nan());
    }
}
