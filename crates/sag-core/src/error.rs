//! The crate's error taxonomy: [`SagError`] and the structured
//! [`ConfigError`] it carries for configuration problems.
//!
//! Every validation failure in the workspace — a malformed game, an
//! out-of-range engine knob — is reported as a typed [`ConfigError`] variant rather than a
//! formatted string, so front doors (the `sag-service` crate, the `sag`
//! facade) can route on the cause programmatically. Both enums are
//! `#[non_exhaustive]`: downstream matches must carry a wildcard arm, which
//! lets later PRs grow the taxonomy without a breaking release.

use crate::model::Payoffs;
use std::fmt;

/// A structured description of why a configuration was rejected.
///
/// Construction-time validation ([`crate::engine::AuditCycleEngine::new`],
/// [`crate::engine::EngineBuilder::build`], the per-solve
/// [`crate::sse::SseInput`] checks) reports one of these variants instead of
/// a formatted string, so callers can react to the *cause* — retry with a
/// clamped knob, surface the offending type index — not parse a message.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The payoff table has no rows: a game needs at least one alert type.
    EmptyPayoffTable,
    /// A payoff row violates the model's sign assumptions
    /// (`U_{d,c} >= 0 > U_{d,u}` and `U_{a,c} < 0 < U_{a,u}`).
    PayoffSigns {
        /// The offending payoff row.
        payoffs: Payoffs,
    },
    /// Two parallel per-type collections disagree on length.
    LengthMismatch {
        /// Which collection disagreed (e.g. `"audit costs"`).
        what: &'static str,
        /// The expected length (the payoff table's type count).
        expected: usize,
        /// The length actually supplied.
        got: usize,
    },
    /// An audit cost is non-finite or non-positive.
    InvalidAuditCost {
        /// Index of the offending type.
        index: usize,
        /// The rejected value.
        value: f64,
    },
    /// A budget (game, cycle override, or per-solve remaining budget) is
    /// non-finite or negative.
    InvalidBudget {
        /// The rejected value.
        value: f64,
    },
    /// A future-alert estimate is non-finite or negative.
    InvalidEstimate {
        /// Index of the offending type.
        index: usize,
        /// The rejected value.
        value: f64,
    },
    /// `forecast_decay` lies outside `(0, 1]`.
    ForecastDecayOutOfRange {
        /// The rejected value.
        value: f64,
    },
    /// `signal_noise` lies outside `[0, 1]`.
    SignalNoiseOutOfRange {
        /// The rejected value.
        value: f64,
    },
    /// The Bayesian solver was given no attacker profiles.
    NoAttackerProfiles,
    /// An attacker profile's prior is non-finite or negative.
    InvalidPrior {
        /// The rejected value.
        value: f64,
    },
    /// The attacker priors sum to zero (or less): no posterior exists.
    DegeneratePriors {
        /// The offending total mass.
        total: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyPayoffTable => write!(f, "payoff table is empty"),
            ConfigError::PayoffSigns { payoffs } => write!(
                f,
                "payoffs violate sign assumptions (need Ud,c >= 0 > Ud,u and \
                 Ua,c < 0 < Ua,u): {payoffs:?}"
            ),
            ConfigError::LengthMismatch {
                what,
                expected,
                got,
            } => write!(
                f,
                "{what}: expected {expected} entries to match the payoff table, got {got}"
            ),
            ConfigError::InvalidAuditCost { index, value } => write!(
                f,
                "audit cost for type {index} must be positive and finite, got {value}"
            ),
            ConfigError::InvalidBudget { value } => {
                write!(f, "budget must be finite and nonnegative, got {value}")
            }
            ConfigError::InvalidEstimate { index, value } => write!(
                f,
                "future-alert estimate for type {index} must be finite and \
                 nonnegative, got {value}"
            ),
            ConfigError::ForecastDecayOutOfRange { value } => {
                write!(f, "forecast_decay must be in (0, 1], got {value}")
            }
            ConfigError::SignalNoiseOutOfRange { value } => {
                write!(f, "signal_noise must be in [0, 1], got {value}")
            }
            ConfigError::NoAttackerProfiles => write!(f, "no attacker profiles"),
            ConfigError::InvalidPrior { value } => write!(
                f,
                "attacker profile prior must be finite and nonnegative, got {value}"
            ),
            ConfigError::DegeneratePriors { total } => write!(
                f,
                "attacker priors must sum to a positive mass, got {total}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Crate-wide error type.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SagError {
    /// The underlying LP solver failed.
    Lp(sag_lp::LpError),
    /// A configuration is inconsistent; the payload says exactly how.
    InvalidConfig(ConfigError),
    /// No alert type admits a feasible Stackelberg best-response LP. This
    /// cannot happen for well-formed inputs and indicates a bug or NaN input.
    NoFeasibleType,
}

impl fmt::Display for SagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SagError::Lp(e) => write!(f, "LP solver error: {e}"),
            SagError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
            SagError::NoFeasibleType => write!(f, "no feasible best-response type"),
        }
    }
}

impl std::error::Error for SagError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SagError::Lp(e) => Some(e),
            SagError::InvalidConfig(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sag_lp::LpError> for SagError {
    fn from(e: sag_lp::LpError) -> Self {
        SagError::Lp(e)
    }
}

impl From<ConfigError> for SagError {
    fn from(e: ConfigError) -> Self {
        SagError::InvalidConfig(e)
    }
}

/// Result alias for fallible SAG operations.
pub type Result<T> = std::result::Result<T, SagError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_cause() {
        let err = SagError::InvalidConfig(ConfigError::InvalidBudget { value: -1.0 });
        let msg = err.to_string();
        assert!(msg.contains("invalid configuration"), "{msg}");
        assert!(msg.contains("-1"), "{msg}");

        let err = SagError::InvalidConfig(ConfigError::LengthMismatch {
            what: "audit costs",
            expected: 7,
            got: 6,
        });
        assert!(err.to_string().contains("audit costs"), "{err}");
    }

    #[test]
    fn config_errors_are_sources() {
        use std::error::Error as _;
        let err = SagError::InvalidConfig(ConfigError::EmptyPayoffTable);
        let source = err.source().expect("config cause is chained");
        assert_eq!(source.to_string(), "payoff table is empty");
    }

    #[test]
    fn from_config_error_wraps() {
        let err: SagError = ConfigError::NoAttackerProfiles.into();
        assert!(matches!(
            err,
            SagError::InvalidConfig(ConfigError::NoAttackerProfiles)
        ));
    }
}
