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
//! * [`solution`] — [`SseSolution`] and the per-solve [`SseSolveStats`];
//! * [`sweep`] — the exact breakpoint sweep and its [`SweepBackend`];
//! * [`certificate`] — [`certify`], an independent SSE checker;
//! * [`cache`] — [`SseCache`] warm-start state and the cumulative
//!   [`SseCacheTotals`] counters;
//! * [`solver`] — [`SseSolver`], the multiple-LP method itself;
//! * [`backend`] — the [`SolverBackend`] trait the engine's [`crate::engine::DaySession`]
//!   solves through, with the sweep, simplex-LP and closed-form
//!   implementations.
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
//!   solve, exact, no warm-start state. See [`sweep`].
//! * **The canonical minimal-spend rule** — the LP optimum fixes the
//!   winner's coverage but, when the budget has slack, not the others'. The
//!   sweep gives every type the least coverage that holds the level,
//!   `clamp((Ua,u(t) − u*)/D_t, 0, 1)`, so a non-winning alert's coverage
//!   (and hence its budget charge) never depends on a simplex vertex.
//! * **A single-type closed form** — one-type games take
//!   [`SseSolver`]'s closed form, bit for bit (also standalone as
//!   [`ClosedFormBackend`]).
//!
//! Most of what remains per solve is the `E[1/max(d,1)]` series behind the
//! coverage rates `ρ_t`. In debug builds every sweep solution is checked
//! by [`certify`].
//!
//! ## The simplex oracle
//!
//! [`SolverBackendKind::SimplexLp`] keeps the paper's warm-started
//! multiple-LP method unchanged, and the differential suites test the sweep
//! against it (objective, winner, and coverage wherever the LP optimum is
//! unique). Its options apply to it alone; on `Auto` they are no-ops:
//!
//! * **Warm starts** — consecutive alerts differ only by a slightly smaller
//!   budget and drifted Poisson estimates, so the optimal basis of each
//!   candidate LP rarely changes. [`SseCache`] remembers the last optimal
//!   basis per candidate and seeds the next solve from it
//!   ([`sag_lp::LpProblem::solve_from_basis`]), falling back to a cold solve
//!   automatically when the basis no longer applies.
//! * **Incremental candidate pruning** — the cached path solves the
//!   previous winner (the *incumbent*) first, then re-prices every other
//!   candidate's last dual solution against the updated coefficients
//!   ([`sag_lp::LpProblem::lagrangian_bound`]) and skips the candidate's LP
//!   when the bound certifies it cannot beat the incumbent.
//! * **The ε mode** — with ε > 0 the pruned path may also skip candidates
//!   whose bound beats the incumbent by at most ε, certifying the loss. The
//!   sweep is exact, so it already meets any ε bound.
//! * **Candidate-level parallelism** — with the `parallel` crate feature the
//!   engine hands the simplex-LP backend a persistent
//!   [`sag_pool::WorkerPool`] (spawned once, never per call), and exhaustive
//!   solves of games with many types fan their candidate LPs out over it
//!   (the selection semantics are preserved by reducing results in
//!   candidate order).
//!
//! ## The pruning invariant
//!
//! Pruned and exhaustive simplex solves are **result-identical**: same
//! winner, same coverage and budget split, same utilities — bitwise. Three
//! ingredients make this hold:
//!
//! 1. the skip certificate is one-sided — a candidate is skipped only when
//!    the re-priced dual bound (a valid upper bound on its objective for
//!    *any* multipliers, by Lagrangian relaxation) sits below the incumbent
//!    by more than a float-safety margin, so no candidate that could win or
//!    tie is ever skipped;
//! 2. the selection rule is the order-independent lexicographic argmax
//!    (highest auditor utility, exact ties to the lowest type index), so
//!    solving the incumbent out of order cannot change the winner;
//! 3. warm-start state is per candidate and day boundaries reset it
//!    ([`SolverBackend::reset_warm_state`]), so replays stay pure functions
//!    of their own inputs, sharding-independent, with or without pruning.
//!
//! The scenario-registry equivalence tests (`sag-scenarios`,
//! `tests/pruning.rs`) enforce the invariant end to end across every
//! registered workload, both general-purpose backends and multiple seeds;
//! an `sag-lp` property test pins the bound's one-sidedness itself.
//!
//! One caveat on *bitwise* (as opposed to winner/utility) identity: when a
//! candidate has been pruned for several consecutive solves and then wins,
//! the pruned arm warm-starts it from an older basis than the exhaustive
//! arm does. Both terminate at an optimum of the same LP — the winner and
//! its objective cannot differ — but a *degenerate* LP with multiple
//! optimal vertices could in principle report a different (equally
//! optimal) budget split along the two pivot paths. The registry tests
//! assert full bitwise equality, i.e. they double as evidence that no
//! registered workload sits on such a knife edge; a new workload that
//! trips them should relax the comparison to winner + objective, not
//! weaken the bound.

pub mod backend;
pub mod cache;
pub mod certificate;
pub mod input;
pub mod solution;
pub mod solver;
pub mod sweep;

pub use backend::{
    BackendOptions, ClosedFormBackend, SimplexLpBackend, SolverBackend, SolverBackendKind,
};
pub use cache::{SseCache, SseCacheTotals};
pub use certificate::{certify, Check, Violation};
pub use input::SseInput;
pub use solution::{SseSolution, SseSolveStats};
pub use solver::SseSolver;
pub use sweep::SweepBackend;

/// Feasibility/optimality tolerance shared with the LP layer.
pub(crate) const EPS: f64 = sag_lp::EPS;
