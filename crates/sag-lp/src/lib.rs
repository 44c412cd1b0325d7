//! # sag-lp — a small, self-contained linear-programming solver
//!
//! The Signaling Audit Game (SAG) solves two families of linear programs on
//! every incoming alert:
//!
//! * **LP (2)** — the online Strong Stackelberg Equilibrium (SSE): one LP per
//!   candidate attacker best-response type, each with `|T|` budget-allocation
//!   variables and `|T| + 2` constraints.
//! * **LP (3)** — the Online Stackelberg Signaling Policy (OSSP): four joint
//!   signaling/auditing probabilities and three constraints.
//!
//! These programs are tiny. The served path answers LP (2) without a
//! simplex — `sag-core`'s exact breakpoint sweep solves every candidate at
//! once — so this crate serves as the oracle the sweep is tested against,
//! as the solver of LP (3) when the OSSP closed form does not apply, and as
//! the solver of the Bayesian extension. Rather than pulling in a
//! heavyweight external solver, it implements a dense **two-phase primal
//! simplex** with Bland's anti-cycling rule, which is exact and fast at this
//! problem size. A reusable [`SimplexWorkspace`] holds the tableau between
//! solves; every solve is cold and deterministic.
//!
//! ## Quick start
//!
//! ```
//! use sag_lp::{LpProblem, Objective, Relation};
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4,  x + 3y <= 6,  x, y >= 0
//! let mut lp = LpProblem::new(Objective::Maximize);
//! let x = lp.add_var("x", 0.0, f64::INFINITY);
//! let y = lp.add_var("y", 0.0, f64::INFINITY);
//! lp.set_objective(x, 3.0);
//! lp.set_objective(y, 2.0);
//! lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
//! lp.add_constraint(&[(x, 1.0), (y, 3.0)], Relation::Le, 6.0);
//! let sol = lp.solve().unwrap();
//! assert!((sol.objective() - 12.0).abs() < 1e-9);
//! assert!((sol.value(x) - 4.0).abs() < 1e-9);
//! ```
//!
//! ## Scope and guarantees
//!
//! * Dense representation; intended for problems with at most a few hundred
//!   variables/constraints (the paper's games use ≤ 10 of each).
//! * Finite or infinite variable bounds, `≤ / ≥ / =` constraints,
//!   maximization or minimization.
//! * Detects infeasibility and unboundedness and reports them as typed errors.
//! * Deterministic: no randomness, no iteration-order dependence.

#![forbid(unsafe_code)]

mod error;
mod problem;
mod simplex;
mod solution;
mod standard;

pub use error::LpError;
pub use problem::{Constraint, LpProblem, Objective, Relation, VarId};
pub use simplex::SimplexWorkspace;
pub use solution::{LpSolution, SolveStats};
pub use standard::StandardForm;

/// Numerical tolerance used throughout the solver for feasibility and
/// optimality tests.
pub const EPS: f64 = 1e-9;

/// Result alias for fallible solver operations.
pub type Result<T> = std::result::Result<T, LpError>;
