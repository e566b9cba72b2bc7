use std::fmt;

use mfu_ctmc::CtmcError;
use mfu_num::NumError;

/// Error type for the mean-field analysis layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// Inconsistent inputs (wrong dimensions, empty grids, invalid horizons, …).
    InvalidInput {
        /// Description of the offending input.
        message: String,
    },
    /// An iterative analysis did not converge within its budget.
    NoConvergence {
        /// Name of the analysis.
        analysis: &'static str,
        /// Iterations performed.
        iterations: usize,
        /// Residual at the last iterate.
        residual: f64,
    },
    /// An ODE sweep left the numerically meaningful range (NaN, infinity,
    /// or magnitudes beyond [`mfu_guard::DIVERGENCE_CAP`]).
    ///
    /// Reported with the analysis name and the integration time at which
    /// divergence was detected, so the caller can diagnose the sweep
    /// instead of receiving poisoned bounds.
    Diverged {
        /// Name of the analysis whose sweep diverged.
        analysis: &'static str,
        /// Integration time at which divergence was detected.
        time: f64,
    },
    /// The analysis is only available for a specific state dimension
    /// (e.g. the Birkhoff-centre construction is two-dimensional).
    UnsupportedDimension {
        /// Dimension required by the analysis.
        required: usize,
        /// Dimension of the supplied model.
        found: usize,
    },
    /// The differential hull's drift batch per right-hand side would
    /// exceed [`MAX_HULL_LANES`](crate::hull::MAX_HULL_LANES): its
    /// rectangle grid has up to `3^dim` points, each paired with every
    /// Θ candidate.
    HullTooLarge {
        /// State dimension of the drift.
        dim: usize,
        /// Worst-case lanes per right-hand side, `3^dim · |Θ candidates|`;
        /// `None` when the count overflows `usize`.
        lanes: Option<usize>,
    },
    /// An error bubbled up from the modelling layer.
    Model(CtmcError),
    /// An error bubbled up from the numerical layer.
    Numerical(NumError),
}

impl CoreError {
    /// Creates an [`CoreError::InvalidInput`] from anything printable.
    pub fn invalid_input(message: impl Into<String>) -> Self {
        CoreError::InvalidInput {
            message: message.into(),
        }
    }

    /// Checks a caller's fixed RK4 step, which must be positive and finite
    /// (`Rk4::with_step` panics on any other).
    pub(crate) fn check_step(step: f64) -> crate::Result<()> {
        if step > 0.0 && step.is_finite() {
            Ok(())
        } else {
            Err(CoreError::invalid_input("step must be positive and finite"))
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidInput { message } => write!(f, "invalid input: {message}"),
            CoreError::NoConvergence { analysis, iterations, residual } => write!(
                f,
                "{analysis} did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
            CoreError::Diverged { analysis, time } => {
                write!(f, "{analysis} diverged at t = {time}")
            }
            CoreError::UnsupportedDimension { required, found } => {
                write!(f, "analysis requires dimension {required}, model has dimension {found}")
            }
            CoreError::HullTooLarge { dim, lanes } => {
                let cap = crate::hull::MAX_HULL_LANES;
                match lanes {
                    Some(lanes) => write!(
                        f,
                        "differential hull refused: a {dim}-dimensional drift needs {lanes} \
                         drift lanes per stage (3^{dim} grid points × Θ candidates), over \
                         the cap of {cap}"
                    ),
                    None => write!(
                        f,
                        "differential hull refused: a {dim}-dimensional drift needs more than \
                         {} drift lanes per stage (3^{dim} grid points × Θ candidates), over \
                         the cap of {cap}",
                        usize::MAX
                    ),
                }
            }
            CoreError::Model(err) => write!(f, "model error: {err}"),
            CoreError::Numerical(err) => write!(f, "numerical error: {err}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Model(err) => Some(err),
            CoreError::Numerical(err) => Some(err),
            _ => None,
        }
    }
}

impl From<CtmcError> for CoreError {
    fn from(err: CtmcError) -> Self {
        CoreError::Model(err)
    }
}

impl From<NumError> for CoreError {
    fn from(err: NumError) -> Self {
        CoreError::Numerical(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(CoreError::invalid_input("bad grid")
            .to_string()
            .contains("bad grid"));
        let err = CoreError::NoConvergence {
            analysis: "pontryagin",
            iterations: 7,
            residual: 0.1,
        };
        assert!(err.to_string().contains("pontryagin"));
        let err = CoreError::Diverged {
            analysis: "differential hull",
            time: 0.25,
        };
        assert!(err.to_string().contains("differential hull") && err.to_string().contains("0.25"));
        let err = CoreError::UnsupportedDimension {
            required: 2,
            found: 4,
        };
        assert!(err.to_string().contains("dimension 2"));
        let err = CoreError::HullTooLarge {
            dim: 10,
            lanes: Some(118_098),
        };
        assert!(err.to_string().contains("10-dimensional") && err.to_string().contains("118098"));
        let err = CoreError::HullTooLarge {
            dim: 41,
            lanes: None,
        };
        assert!(err.to_string().contains("more than"));
    }

    #[test]
    fn conversions_preserve_sources() {
        let err: CoreError = CtmcError::invalid_model("oops").into();
        assert!(std::error::Error::source(&err).is_some());
        let err: CoreError = NumError::invalid_argument("oops").into();
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<CoreError>();
    }
}
