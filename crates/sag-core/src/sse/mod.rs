//! Online Strong Stackelberg Equilibrium — the paper's LP (2).
//!
//! Given the remaining budget `B_τ` and, for every alert type, a Poisson
//! estimate of the number of future alerts, the auditor plans a long-term
//! split of the budget across types. Allocating `B^t` to type `t` yields a
//! marginal coverage probability
//!
//! ```text
//! θ^t = E_{d ~ Poisson(λ^t)} [ B^t / (V^t · max(d, 1)) ]  =  B^t · ρ^t,
//! ρ^t = E[1 / max(d, 1)] / V^t,
//! ```
//!
//! which is linear in `B^t`, so the Stackelberg commitment can be computed
//! with the standard *multiple-LP* method: for each candidate attacker
//! best-response type `t`, solve an LP that maximises the auditor's utility
//! against an attack on `t` subject to `t` actually being a best response and
//! to the budget constraints; then keep the best feasible solution. Each of
//! those LPs has a single budget row, so the default backend solves all of
//! them at once with an exact breakpoint sweep ([`sweep`]) and keeps the
//! simplex method as the oracle.
//!
//! ## Module layout
//!
//! * [`input`] — [`SseInput`], the borrowed per-solve problem data;
//! * [`solution`] — [`SseSolution`], the per-solve [`SseSolveStats`] and the
//!   per-day [`SseTotals`];
//! * [`sweep`] — the exact breakpoint sweep and its [`SweepBackend`];
//! * [`certificate`] — [`certify`], an independent SSE checker;
//! * [`solver`] — [`SseSolver`], the multiple-LP method itself, solved cold;
//! * [`backend`] — the [`SolverBackend`] trait the engine's
//!   [`crate::engine::DaySession`] solves through, with the sweep and
//!   simplex-LP implementations.
//!
//! ## The per-alert hot path
//!
//! This is the latency-critical computation of the whole system: it runs once
//! per incoming alert, before the warning dialog can be shown. The default
//! backend ([`SolverBackendKind::Auto`], [`SweepBackend`]) answers it without
//! a simplex:
//!
//! * **One sweep for every candidate** — each candidate LP is a security
//!   game with one budget row, so all of them share one optimal attacker
//!   utility level `u*`, the lowest level whose minimal spend fits the
//!   budget (floored at `maxₜ Ua,c(t)`). One pass over the types sorted by
//!   uncovered attacker payoff finds it; candidate `c` is feasible iff
//!   `Ua,u(c) ≥ u*`, and the winner is picked by the LP path's rule (highest
//!   auditor utility, exact ties to the lowest index). `O(n log n)` per
//!   solve, exact, stateless. See [`sweep`].
//! * **The canonical minimal-spend rule** — the LP optimum fixes the
//!   winner's coverage but, when the budget has slack, not the others'. The
//!   sweep gives every type the least coverage that holds the level,
//!   `clamp((Ua,u(t) − u*)/D_t, 0, 1)`, so a non-winning alert's coverage
//!   (and hence its budget charge) never depends on a simplex vertex.
//! * **A single-type closed form** — one-type games take
//!   [`SseSolver`]'s closed form, bit for bit.
//!
//! Most of what remains per solve is the `E[1/max(d,1)]` series behind the
//! coverage rates `ρ_t`. In debug builds every sweep solution is checked
//! by [`certify`].
//!
//! ## The simplex oracle
//!
//! [`SolverBackendKind::SimplexLp`] runs the paper's multiple-LP method:
//! one cold LP per candidate type through [`SseSolver::solve`], no state
//! kept between solves. It is never on the served path. The differential
//! suite (`sag-scenarios`, `tests/sweep_oracle.rs`) tests the sweep against
//! it — objective, winner, and coverage wherever the LP optimum is unique —
//! and certifies both answers.

pub mod backend;
pub mod certificate;
pub mod input;
pub mod solution;
pub mod solver;
pub mod sweep;

pub use backend::{BackendOptions, SimplexLpBackend, SolverBackend, SolverBackendKind};
pub use certificate::{certify, Check, Violation};
pub use input::SseInput;
pub use solution::{SseSolution, SseSolveStats, SseTotals};
pub use solver::SseSolver;
pub use sweep::SweepBackend;

/// Feasibility/optimality tolerance shared with the LP layer.
pub(crate) const EPS: f64 = sag_lp::EPS;
