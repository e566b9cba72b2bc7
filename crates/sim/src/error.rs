use std::fmt;

use mfu_ctmc::CtmcError;
use mfu_guard::TruncationReason;
use mfu_num::NumError;

/// Error type for the stochastic-simulation layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// Simulation options or initial conditions were invalid.
    InvalidInput {
        /// Description of the offending input.
        message: String,
    },
    /// A parameter policy produced a value outside the model's parameter space.
    PolicyOutOfRange {
        /// Time at which the violation occurred.
        time: f64,
    },
    /// A run was truncated by a [`RunBudget`](mfu_guard::RunBudget) cap in a
    /// context where a prefix is not a meaningful result (ensemble grids,
    /// steady-state sampling).
    ///
    /// Single runs never produce this: a tripped budget returns `Ok` with a
    /// truncated [`Outcome`](mfu_guard::Outcome) and the trajectory-so-far.
    /// Aggregating engines that need the full horizon convert that
    /// truncation into this error.
    Truncated {
        /// Which budget cap tripped.
        reason: TruncationReason,
        /// Number of events simulated before truncation.
        events: usize,
        /// Simulated time reached when the budget tripped.
        reached: f64,
    },
    /// A transition rate evaluated to NaN, an infinity, or a negative value.
    ///
    /// Detected at the rate-program boundary and attributed to the offending
    /// rule and simulated time instead of poisoning downstream arithmetic.
    InvalidRate {
        /// Name of the transition whose rate was invalid.
        rule: String,
        /// Simulated time at which the rate was evaluated.
        time: f64,
        /// The offending rate value.
        value: f64,
    },
    /// An error bubbled up from the modelling layer.
    Model(CtmcError),
    /// An error bubbled up from the numerical layer.
    Numerical(NumError),
}

impl SimError {
    /// Creates an [`SimError::InvalidInput`] from anything printable.
    pub fn invalid_input(message: impl Into<String>) -> Self {
        SimError::InvalidInput {
            message: message.into(),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidInput { message } => write!(f, "invalid input: {message}"),
            SimError::PolicyOutOfRange { time } => {
                write!(f, "parameter policy left the parameter space at t = {time}")
            }
            SimError::Truncated {
                reason,
                events,
                reached,
            } => {
                write!(
                    f,
                    "run truncated ({reason}) after {events} events at t = {reached}"
                )
            }
            SimError::InvalidRate { rule, time, value } => {
                write!(
                    f,
                    "transition `{rule}` produced invalid rate {value} at t = {time}"
                )
            }
            SimError::Model(err) => write!(f, "model error: {err}"),
            SimError::Numerical(err) => write!(f, "numerical error: {err}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Model(err) => Some(err),
            SimError::Numerical(err) => Some(err),
            _ => None,
        }
    }
}

impl From<CtmcError> for SimError {
    fn from(err: CtmcError) -> Self {
        SimError::Model(err)
    }
}

impl From<NumError> for SimError {
    fn from(err: NumError) -> Self {
        SimError::Numerical(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(SimError::invalid_input("bad scale")
            .to_string()
            .contains("bad scale"));
        assert!(SimError::PolicyOutOfRange { time: 1.5 }
            .to_string()
            .contains("1.5"));
        let err = SimError::Truncated {
            reason: TruncationReason::MaxEvents,
            events: 10,
            reached: 0.7,
        };
        assert!(err.to_string().contains("event budget") && err.to_string().contains("10"));
        let err = SimError::Truncated {
            reason: TruncationReason::WallClock,
            events: 10,
            reached: 0.7,
        };
        assert!(err.to_string().contains("wall-clock"));
        let err = SimError::InvalidRate {
            rule: "infect".to_string(),
            time: 2.25,
            value: f64::NAN,
        };
        let text = err.to_string();
        assert!(text.contains("infect") && text.contains("2.25") && text.contains("NaN"));
    }

    #[test]
    fn conversions_preserve_sources() {
        let err: SimError = CtmcError::invalid_model("oops").into();
        assert!(std::error::Error::source(&err).is_some());
        let err: SimError = NumError::invalid_argument("oops").into();
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<SimError>();
    }
}
