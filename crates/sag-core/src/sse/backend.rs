//! The solver seam between the streaming engine and the SSE machinery.
//!
//! A [`crate::engine::DaySession`] never calls a solver directly: it solves
//! every per-alert equilibrium through a [`SolverBackend`], an owned object
//! that carries whatever state its strategy needs. The seam exists so
//! alternative solver strategies (robust variants, leaky-deception evidence
//! models, learned solvers) can be slotted in without touching the per-day
//! loop.
//!
//! Three backends ship today:
//!
//! * [`SweepBackend`] ([`SolverBackendKind::Auto`], the default) — the exact
//!   breakpoint sweep of [`super::sweep`]: every candidate LP solved at once
//!   in `O(n log n)`, no simplex, no warm-start state, minimal-spend coverage
//!   for every type. Single-type games take the closed form.
//! * [`SimplexLpBackend`] ([`SolverBackendKind::SimplexLp`]) — the paper's
//!   multiple-LP method over [`SseSolver`] with an [`SseCache`] of
//!   per-candidate warm-start bases, incremental pruning, the ε mode and the
//!   pooled candidate fan-out. Every game runs through the simplex, single-type
//!   games included. It is the oracle the sweep is tested against.
//! * [`ClosedFormBackend`] ([`SolverBackendKind::ClosedForm`]) — the
//!   single-type closed form alone: O(1) per solve; rejects multi-type
//!   inputs.
//!
//! Which backend a session instantiates is chosen by
//! [`SolverBackendKind`] on [`crate::engine::EngineConfig`].

use super::cache::{SseCache, SseCacheTotals};
use super::input::SseInput;
use super::solution::SseSolution;
use super::solver::SseSolver;
use super::sweep::SweepBackend;
use crate::{ConfigError, Result};
use sag_pool::WorkerPool;
use std::sync::Arc;

/// A stateful online-SSE solver strategy, owning its warm-start caches.
///
/// Backends must be deterministic: the same sequence of `solve` calls after a
/// `reset_warm_state` must produce bitwise-identical solutions, which is what
/// keeps sharded replays shard-count-independent.
pub trait SolverBackend: std::fmt::Debug + Send {
    /// Stable name of the backend (for reports and diagnostics).
    fn name(&self) -> &'static str;

    /// Solve the online SSE for one alert.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SagError::InvalidConfig`] for malformed inputs or inputs the
    /// backend does not support (e.g. a multi-type game on the closed-form
    /// backend), and propagates LP-layer errors.
    fn solve(&mut self, input: &SseInput<'_>) -> Result<SseSolution>;

    /// Forget warm-start state so the next solve runs cold. Called at every
    /// day boundary to keep each day a pure function of its own inputs.
    fn reset_warm_state(&mut self);

    /// Cumulative solver-work counters across every solve of this backend.
    fn totals(&self) -> SseCacheTotals;

    /// Cumulative certified utility-loss bound of the ε-approximate mode
    /// across every solve of this backend. Exact backends (and ε = 0
    /// configurations) report 0.0; a backend running with ε > 0 reports the
    /// sum over solves of its per-solve certified loss, each term ≤ ε.
    fn certified_eps_loss(&self) -> f64 {
        0.0
    }

    /// Hand a finished solution back so the backend can reuse its buffers
    /// for a later solve. Optional: the default drops the solution.
    fn recycle(&mut self, solution: SseSolution) {
        drop(solution);
    }
}

/// Construction-time options, carried from [`crate::engine::EngineConfig`]
/// / [`crate::engine::AuditCycleEngine`] into
/// [`SolverBackendKind::instantiate_with`]. All three tune the multiple-LP
/// method and only [`SolverBackendKind::SimplexLp`] reads them: the sweep is
/// exact without pruning, already meets any ε bound, and has no candidate
/// LPs to fan out; the closed form has one candidate.
#[derive(Debug, Clone)]
pub struct BackendOptions {
    /// Whether cached solves use incremental candidate pruning (results are
    /// identical either way; see [`SseSolver::exhaustive`]).
    pub pruning: bool,
    /// ε-approximate mode tolerance (auditor-utility units): cached pruned
    /// solves may also skip candidates whose certified bound exceeds the
    /// incumbent by at most ε, with the accumulated loss reported through
    /// [`SolverBackend::certified_eps_loss`]. `0.0` (the default) is the
    /// exact mode — bitwise identical results and counters.
    pub epsilon: f64,
    /// Worker pool for the exhaustive candidate fan-out of games with many
    /// types. `None` solves candidates sequentially.
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
    /// every type. Ignores the pruning, ε and pool options. The default.
    #[default]
    Auto,
    /// The paper's warm-started multiple-LP method ([`SimplexLpBackend`]),
    /// even for single-type games: the oracle the sweep is tested against,
    /// and the only backend the pruning, ε and pool options apply to.
    SimplexLp,
    /// Only the single-type closed form. Engine validation rejects this
    /// backend for multi-type games.
    ClosedForm,
}

impl SolverBackendKind {
    /// Stable name of the backend this kind instantiates.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SolverBackendKind::Auto => "auto",
            SolverBackendKind::SimplexLp => "simplex-lp",
            SolverBackendKind::ClosedForm => "closed-form",
        }
    }

    /// Whether the backend can solve games with `num_types` alert types.
    #[must_use]
    pub fn supports(self, num_types: usize) -> bool {
        match self {
            SolverBackendKind::Auto | SolverBackendKind::SimplexLp => num_types >= 1,
            SolverBackendKind::ClosedForm => num_types == 1,
        }
    }

    /// Instantiate a fresh backend of this kind with empty caches and the
    /// default options (pruning on, no worker pool).
    #[must_use]
    pub fn instantiate(self) -> Box<dyn SolverBackend> {
        self.instantiate_with(&BackendOptions::default())
    }

    /// Instantiate a fresh backend of this kind with explicit
    /// [`BackendOptions`] (the engine threads its configured pruning mode
    /// and its worker pool through here).
    #[must_use]
    pub fn instantiate_with(self, options: &BackendOptions) -> Box<dyn SolverBackend> {
        match self {
            SolverBackendKind::Auto => Box::new(SweepBackend::new()),
            SolverBackendKind::SimplexLp => Box::new(SimplexLpBackend::new().with_options(options)),
            SolverBackendKind::ClosedForm => Box::new(ClosedFormBackend::new()),
        }
    }
}

/// The warm-started multiple-LP backend: an [`SseSolver`] plus its
/// [`SseCache`] of per-candidate bases, workspaces, cached LPs and pruning
/// state, and optionally a shared [`WorkerPool`] for candidate fan-out.
#[derive(Debug, Clone, Default)]
pub struct SimplexLpBackend {
    solver: SseSolver,
    cache: SseCache,
    pool: Option<Arc<WorkerPool>>,
}

impl SimplexLpBackend {
    /// The multiple-LP method with the default options (pruning on, exact,
    /// no pool). Every game runs through the simplex, single-type included.
    #[must_use]
    pub fn new() -> Self {
        SimplexLpBackend::default()
    }

    /// Apply shared [`BackendOptions`]: pruning mode, ε tolerance and
    /// worker pool.
    #[must_use]
    pub fn with_options(mut self, options: &BackendOptions) -> Self {
        self.solver = SseSolver::with_options(options.pruning, options.epsilon);
        self.pool = options.pool.clone();
        self
    }
}

impl SolverBackend for SimplexLpBackend {
    fn name(&self) -> &'static str {
        "simplex-lp"
    }

    fn solve(&mut self, input: &SseInput<'_>) -> Result<SseSolution> {
        self.solver
            .solve_cached_with(input, &mut self.cache, false, self.pool.as_deref())
    }

    fn reset_warm_state(&mut self) {
        self.cache.reset_warm_state();
    }

    fn totals(&self) -> SseCacheTotals {
        self.cache.totals
    }

    fn certified_eps_loss(&self) -> f64 {
        self.cache.certified_eps_loss()
    }

    fn recycle(&mut self, solution: SseSolution) {
        self.cache.recycle(solution);
    }
}

/// The single-type closed form as a standalone backend: no LP, no warm-start
/// state, O(1) per solve ([`SolverBackendKind::ClosedForm`]). It is the
/// sweep backend restricted to single-type games, where the sweep takes the
/// closed form.
#[derive(Debug, Clone, Default)]
pub struct ClosedFormBackend {
    sweep: SweepBackend,
}

impl ClosedFormBackend {
    /// Create the backend.
    #[must_use]
    pub fn new() -> Self {
        ClosedFormBackend::default()
    }
}

impl SolverBackend for ClosedFormBackend {
    fn name(&self) -> &'static str {
        "closed-form"
    }

    fn solve(&mut self, input: &SseInput<'_>) -> Result<SseSolution> {
        input.validate()?;
        if input.payoffs.len() != 1 {
            return Err(ConfigError::UnsupportedBackend {
                backend: SolverBackendKind::ClosedForm,
                num_types: input.payoffs.len(),
            }
            .into());
        }
        self.sweep.solve(input)
    }

    fn reset_warm_state(&mut self) {
        self.sweep.reset_warm_state();
    }

    fn totals(&self) -> SseCacheTotals {
        self.sweep.totals()
    }

    fn recycle(&mut self, solution: SseSolution) {
        self.sweep.recycle(solution);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PayoffTable;

    fn input<'a>(
        payoffs: &'a PayoffTable,
        costs: &'a [f64],
        estimates: &'a [f64],
        budget: f64,
    ) -> SseInput<'a> {
        SseInput {
            payoffs,
            audit_costs: costs,
            future_estimates: estimates,
            budget,
        }
    }

    #[test]
    fn kinds_report_names_and_support() {
        assert_eq!(SolverBackendKind::default(), SolverBackendKind::Auto);
        for kind in [
            SolverBackendKind::Auto,
            SolverBackendKind::SimplexLp,
            SolverBackendKind::ClosedForm,
        ] {
            assert_eq!(kind.instantiate().name(), kind.name());
            assert!(kind.supports(1));
        }
        assert!(SolverBackendKind::Auto.supports(7));
        assert!(SolverBackendKind::SimplexLp.supports(7));
        assert!(!SolverBackendKind::ClosedForm.supports(7));
        assert!(!SolverBackendKind::ClosedForm.supports(0));
    }

    #[test]
    fn simplex_lp_backend_matches_the_cached_solver_exactly() {
        let payoffs = PayoffTable::paper_table2();
        let costs = vec![1.0; 7];
        let mut backend = SolverBackendKind::SimplexLp.instantiate();
        let solver = SseSolver::new();
        let mut cache = SseCache::new();
        let mut budget = 50.0;
        let mut estimates = vec![196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27];
        for _ in 0..30 {
            let input = input(&payoffs, &costs, &estimates, budget);
            let via_backend = backend.solve(&input).unwrap();
            let via_solver = solver.solve_cached(&input, &mut cache).unwrap();
            // On a multi-type game the simplex-LP backend *is* the cached
            // solver: bitwise agreement.
            assert_eq!(via_backend, via_solver);
            budget = (budget - 0.35).max(0.0);
            for e in &mut estimates {
                *e = (*e - 0.9).max(0.0);
            }
        }
        assert_eq!(backend.totals(), cache.totals);
    }

    #[test]
    fn lp_only_backend_agrees_with_the_closed_form_on_single_type_games() {
        let payoffs = PayoffTable::paper_single_type();
        let costs = [1.0];
        let mut lp_backend = SolverBackendKind::SimplexLp.instantiate();
        let mut cf_backend = SolverBackendKind::ClosedForm.instantiate();
        for budget in [0.0, 3.0, 17.5, 40.0, 500.0] {
            for estimate in [0.0, 1.0, 20.0, 150.0] {
                let estimates = [estimate];
                let input = input(&payoffs, &costs, &estimates, budget);
                let lp = lp_backend.solve(&input).unwrap();
                let cf = cf_backend.solve(&input).unwrap();
                assert!(
                    (lp.coverage[0] - cf.coverage[0]).abs() < 1e-9,
                    "budget {budget} estimate {estimate}: lp {} vs cf {}",
                    lp.coverage[0],
                    cf.coverage[0]
                );
                assert!((lp.auditor_utility - cf.auditor_utility).abs() < 1e-9);
                // The backends disagree only on how they got there.
                assert!(!lp.stats.fast_path);
                assert!(cf.stats.fast_path);
            }
        }
        assert!(lp_backend.totals().lp_solves > 0);
        assert_eq!(cf_backend.totals().lp_solves, 0);
        assert_eq!(cf_backend.totals().fast_path_solves, 20);
    }

    #[test]
    fn closed_form_backend_rejects_multi_type_games() {
        let payoffs = PayoffTable::paper_table2();
        let costs = vec![1.0; 7];
        let estimates = vec![50.0; 7];
        let mut backend = SolverBackendKind::ClosedForm.instantiate();
        let err = backend
            .solve(&input(&payoffs, &costs, &estimates, 20.0))
            .unwrap_err();
        assert!(matches!(
            err,
            crate::SagError::InvalidConfig(ConfigError::UnsupportedBackend { .. })
        ));
        assert_eq!(backend.totals().solves, 0, "failed solves are not counted");
    }

    #[test]
    fn reset_warm_state_forces_a_cold_resolve_on_the_lp_backend() {
        let payoffs = PayoffTable::paper_table2();
        let costs = vec![1.0; 7];
        let estimates = vec![50.0; 7];
        let mut backend = SimplexLpBackend::new();
        let probe = input(&payoffs, &costs, &estimates, 25.0);
        backend.solve(&probe).unwrap();
        backend.solve(&probe).unwrap();
        assert!(backend.totals().warm_attempts > 0);
        let before = backend.totals();
        backend.reset_warm_state();
        backend.solve(&probe).unwrap();
        let delta = backend.totals().since(&before);
        assert_eq!(delta.warm_attempts, 0, "post-reset solve must run cold");
    }
}
