//! The solver seam between the streaming engine and the SSE machinery.
//!
//! A [`crate::engine::DaySession`] never calls a solver directly: it solves
//! every per-alert equilibrium through a [`SolverBackend`], an owned object
//! holding whatever scratch its strategy reuses between solves. The seam
//! exists so alternative solver strategies (robust variants, leaky-deception
//! evidence models, learned solvers) can be slotted in without touching the
//! per-day loop.
//!
//! Two backends ship today, both exact and stateless between solves:
//!
//! * [`SweepBackend`] ([`SolverBackendKind::Auto`], the default) — the exact
//!   breakpoint sweep of [`super::sweep`]: every candidate LP solved at once
//!   in `O(n log n)`, no simplex, minimal-spend coverage for every type.
//!   Single-type games take the closed form.
//! * [`SimplexLpBackend`] ([`SolverBackendKind::SimplexLp`]) — the paper's
//!   multiple-LP method, one cold simplex per candidate through
//!   [`SseSolver::solve`] (the closed form for single-type games). It is
//!   the oracle the sweep is tested against.
//!
//! Which backend a session instantiates is chosen by
//! [`SolverBackendKind`] on [`crate::engine::EngineConfig`].

use super::input::SseInput;
use super::solution::SseSolution;
use super::solver::SseSolver;
use super::sweep::SweepBackend;
use crate::Result;
use sag_pool::WorkerPool;
use std::sync::Arc;

/// An online-SSE solver strategy.
///
/// Backends must be deterministic: the same input must produce a bitwise
/// identical solution whatever was solved before, which is what keeps
/// sharded replays shard-count-independent.
pub trait SolverBackend: std::fmt::Debug + Send {
    /// Stable name of the backend (for reports and diagnostics).
    fn name(&self) -> &'static str;

    /// Solve the online SSE for one alert.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SagError::InvalidConfig`] for malformed inputs and
    /// propagates LP-layer errors.
    fn solve(&mut self, input: &SseInput<'_>) -> Result<SseSolution>;

    /// Hand a finished solution back so the backend can reuse its buffers
    /// for a later solve. Optional: the default drops the solution.
    fn recycle(&mut self, solution: SseSolution) {
        drop(solution);
    }
}

/// Options of [`SolverBackendKind::instantiate_with`].
///
/// No backend reads them: both are exact and stateless, with no candidate
/// pruning, no approximation tolerance and no candidate fan-out. The type
/// keeps its fields so existing callers compile.
#[derive(Debug, Clone)]
pub struct BackendOptions {
    /// Ignored.
    pub pruning: bool,
    /// Ignored.
    pub epsilon: f64,
    /// Ignored.
    pub pool: Option<Arc<WorkerPool>>,
}

impl Default for BackendOptions {
    fn default() -> Self {
        BackendOptions {
            pruning: true,
            epsilon: 0.0,
            pool: None,
        }
    }
}

/// Which [`SolverBackend`] the engine instantiates per day session, selected
/// on [`crate::engine::EngineConfig::backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverBackendKind {
    /// The exact breakpoint sweep ([`SweepBackend`]): the closed form for
    /// single-type games, one sweep over the types sorted by uncovered
    /// attacker payoff otherwise. Same equilibrium as the multiple-LP method
    /// (objective and winner), with the canonical minimal-spend coverage on
    /// every type. The default.
    #[default]
    Auto,
    /// The paper's multiple-LP method ([`SimplexLpBackend`]), cold on every
    /// solve: the oracle the sweep is tested against.
    SimplexLp,
}

impl SolverBackendKind {
    /// Stable name of the backend this kind instantiates.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SolverBackendKind::Auto => "auto",
            SolverBackendKind::SimplexLp => "simplex-lp",
        }
    }

    /// Instantiate a fresh backend of this kind.
    #[must_use]
    pub fn instantiate(self) -> Box<dyn SolverBackend> {
        match self {
            SolverBackendKind::Auto => Box::new(SweepBackend::new()),
            SolverBackendKind::SimplexLp => Box::new(SimplexLpBackend::new()),
        }
    }

    /// [`instantiate`](Self::instantiate); the options are ignored (see
    /// [`BackendOptions`]).
    #[must_use]
    pub fn instantiate_with(self, _options: &BackendOptions) -> Box<dyn SolverBackend> {
        self.instantiate()
    }
}

/// The multiple-LP backend: a stateless wrapper over the cold
/// [`SseSolver::solve`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SimplexLpBackend;

impl SimplexLpBackend {
    /// Create the backend.
    #[must_use]
    pub fn new() -> Self {
        SimplexLpBackend
    }
}

impl SolverBackend for SimplexLpBackend {
    fn name(&self) -> &'static str {
        "simplex-lp"
    }

    fn solve(&mut self, input: &SseInput<'_>) -> Result<SseSolution> {
        SseSolver::new().solve(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PayoffTable;

    #[test]
    fn kinds_report_names_and_support() {
        assert_eq!(SolverBackendKind::default(), SolverBackendKind::Auto);
        for kind in [SolverBackendKind::Auto, SolverBackendKind::SimplexLp] {
            assert_eq!(kind.instantiate().name(), kind.name());
        }
    }

    #[test]
    fn lp_only_backend_agrees_with_the_closed_form_on_single_type_games() {
        let payoffs = PayoffTable::paper_single_type();
        let costs = [1.0];
        let mut lp_backend = SolverBackendKind::SimplexLp.instantiate();
        let mut closed_form = SolverBackendKind::Auto.instantiate();
        for budget in [0.0, 3.0, 17.5, 40.0, 500.0] {
            for estimate in [0.0, 1.0, 20.0, 150.0] {
                let estimates = [estimate];
                let input = SseInput {
                    payoffs: &payoffs,
                    audit_costs: &costs,
                    future_estimates: &estimates,
                    budget,
                };
                let lp = lp_backend.solve(&input).unwrap();
                let cf = closed_form.solve(&input).unwrap();
                // One type is one candidate LP, which the multiple-LP method
                // answers with the closed form (held to an explicit LP by
                // `solver::tests::single_type_closed_form_matches_explicit_lp`).
                assert_eq!(lp, cf, "budget {budget} estimate {estimate}");
                assert!(lp.stats.fast_path);
                assert_eq!(lp.stats.lp_solves, 0);
            }
        }
    }

    #[test]
    fn simplex_lp_backend_matches_the_cold_solver_exactly() {
        let payoffs = PayoffTable::paper_table2();
        let costs = vec![1.0; 7];
        let mut backend = SolverBackendKind::SimplexLp.instantiate();
        let mut budget = 50.0;
        let mut estimates = vec![196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27];
        for _ in 0..30 {
            let input = SseInput {
                payoffs: &payoffs,
                audit_costs: &costs,
                future_estimates: &estimates,
                budget,
            };
            let via_backend = backend.solve(&input).unwrap();
            // The backend keeps no state: every solve is the cold solver's.
            assert_eq!(via_backend, SseSolver::new().solve(&input).unwrap());
            assert_eq!(via_backend.stats.lp_solves, 7);
            budget = (budget - 0.35).max(0.0);
            for e in &mut estimates {
                *e = (*e - 0.9).max(0.0);
            }
        }
    }
}
