//! # sag-forecast — future-alert estimation for online audit games
//!
//! The online SSE of the SAG (LP (2) in the paper) needs, at the moment each
//! alert arrives, an estimate of how many *more* alerts of each type will
//! arrive before the audit cycle ends. The paper models these counts as
//! Poisson random variables whose means are estimated from historical alert
//! logs ("the vast majority of alerts are false positives; consequently, we
//! can estimate `d^t_τ` from alert log data").
//!
//! This crate provides:
//!
//! * [`poisson`] — Poisson distribution utilities, in particular the
//!   truncated expectation `E[1/max(d,1)]` that linearises the coverage
//!   expression of LP (2);
//! * [`arrival`] — the [`arrival::ArrivalModel`] fitted from
//!   historical [`DayLog`](sag_sim::DayLog)s: expected remaining alerts per
//!   type as a function of time-of-day, plus expected daily totals for the
//!   offline baseline;
//! * [`rollback`] — the *knowledge rollback* heuristic of the paper: when the
//!   estimated number of future alerts falls below a threshold (4 in the
//!   paper's experiments), the estimate is rolled back to the one computed at
//!   the previous alert's arrival time, so that an attacker striking at the
//!   very end of the day cannot exploit an exhausted forecast;
//! * [`estimator`] — the [`estimator::FutureAlertEstimator`]
//!   combining the two, which is what the audit-cycle engine consumes.

#![forbid(unsafe_code)]

pub mod arrival;
pub mod estimator;
pub mod poisson;
pub mod rollback;

pub use arrival::ArrivalModel;
pub use estimator::FutureAlertEstimator;
pub use poisson::{expected_inverse_positive, poisson_pmf};
pub use rollback::RollbackPolicy;
