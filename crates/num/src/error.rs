use std::fmt;

/// Error type for numerical routines in `mfu-num`.
///
/// All fallible public functions in this crate return [`NumError`] inside a
/// [`Result`](crate::Result). The variants carry enough context to diagnose
/// the failure without inspecting internal state.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NumError {
    /// Two operands had incompatible dimensions.
    DimensionMismatch {
        /// Dimension expected by the operation.
        expected: usize,
        /// Dimension actually supplied.
        found: usize,
    },
    /// A scalar argument was outside its admissible range.
    InvalidArgument {
        /// Human readable description of the offending argument.
        message: String,
    },
    /// An iterative method did not converge within its iteration budget.
    NoConvergence {
        /// Name of the method that failed to converge.
        method: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
        /// Residual or error estimate at the last iterate.
        residual: f64,
    },
    /// The adaptive step-size controller reduced the step below its minimum.
    StepSizeUnderflow {
        /// Time at which the underflow occurred.
        time: f64,
        /// Step size at which integration was abandoned.
        step: f64,
    },
    /// A computation produced a non-finite (NaN or infinite) value.
    NonFinite {
        /// Description of where the non-finite value appeared.
        context: String,
    },
}

impl NumError {
    /// Creates an [`NumError::InvalidArgument`] from anything printable.
    pub fn invalid_argument(message: impl Into<String>) -> Self {
        NumError::InvalidArgument {
            message: message.into(),
        }
    }

    /// Creates a [`NumError::NonFinite`] from anything printable.
    pub fn non_finite(context: impl Into<String>) -> Self {
        NumError::NonFinite {
            context: context.into(),
        }
    }
}

impl fmt::Display for NumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            NumError::InvalidArgument { message } => write!(f, "invalid argument: {message}"),
            NumError::NoConvergence {
                method,
                iterations,
                residual,
            } => write!(
                f,
                "{method} did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
            NumError::StepSizeUnderflow { time, step } => {
                write!(f, "step size underflow at t = {time} (h = {step:.3e})")
            }
            NumError::NonFinite { context } => {
                write!(f, "non-finite value encountered in {context}")
            }
        }
    }
}

impl std::error::Error for NumError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let err = NumError::DimensionMismatch {
            expected: 3,
            found: 2,
        };
        assert_eq!(err.to_string(), "dimension mismatch: expected 3, found 2");
    }

    #[test]
    fn display_invalid_argument() {
        let err = NumError::invalid_argument("negative tolerance");
        assert_eq!(err.to_string(), "invalid argument: negative tolerance");
    }

    #[test]
    fn display_no_convergence_mentions_method() {
        let err = NumError::NoConvergence {
            method: "golden_section_min",
            iterations: 40,
            residual: 1e-3,
        };
        let text = err.to_string();
        assert!(text.contains("golden_section_min"));
        assert!(text.contains("40"));
    }

    #[test]
    fn display_step_underflow_and_non_finite() {
        let err = NumError::StepSizeUnderflow {
            time: 1.5,
            step: 1e-16,
        };
        assert!(err.to_string().contains("underflow"));
        let err = NumError::non_finite("drift evaluation");
        assert!(err.to_string().contains("drift evaluation"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<NumError>();
    }
}
