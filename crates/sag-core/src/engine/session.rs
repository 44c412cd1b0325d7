//! The streaming per-day core: [`AuditCycleEngine`] and the generic
//! [`Session`] with its borrowed ([`DaySession`]) and owned
//! ([`OwnedDaySession`]) forms.
//!
//! A session is the online heart of the system: the auditor opens one per
//! audit cycle ([`AuditCycleEngine::open_day`]), feeds it alerts *as they
//! arrive* ([`Session::push_alert`]) — each push commits the warning
//! decision for that alert before the next one is seen, exactly as the
//! paper's online model demands — and closes it at end of cycle
//! ([`Session::finish`]) to obtain the day's [`CycleResult`]. The batch
//! replay drivers in [`super::replay`] are thin wrappers that stream a
//! recorded [`sag_sim::DayLog`] through a session.
//!
//! ## Borrowed vs. owned sessions
//!
//! [`Session<E>`] is generic over *how it holds its engine*: any
//! `E: Borrow<AuditCycleEngine>` works, and the two forms that matter have
//! aliases. [`DaySession<'e>`] borrows the engine (`E = &AuditCycleEngine`) —
//! the zero-overhead form every replay wrapper streams through, unchanged
//! from earlier revisions. [`OwnedDaySession`] holds the engine through an
//! [`Arc`] (`E = Arc<AuditCycleEngine>`), freeing the session from the
//! engine's lifetime: it can be stored in a map, returned from a
//! constructor, and moved across threads — the shape the `sag-service`
//! front door hands out to multi-tenant drivers. Both forms run the exact
//! same code paths, so a day streamed through either is bitwise identical.

use super::config::{BudgetAccounting, EngineConfig};
use super::outcome::{AlertOutcome, CycleResult};
use crate::offline::OfflineSse;
use crate::scheme::SignalingScheme;
use crate::signaling::{evaluate_scheme_under_noise, ossp_closed_form};
use crate::sse::{SolverBackend, SseInput, SseTotals};
use crate::Result;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sag_forecast::{ArrivalModel, FutureAlertEstimator};
use sag_pool::WorkerPool;
use sag_sim::{Alert, AlertTypeId, DayLog};
use std::borrow::Borrow;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The audit-cycle engine: a validated configuration and (with the
/// `parallel` feature, on multi-core hosts) a persistent worker pool
/// spawned **once** — lazily, the first time a sharded replay asks for it —
/// and shared by the engine and all its clones. Day-scoped state lives on
/// the [`DaySession`]s the engine opens.
#[derive(Debug, Clone)]
pub struct AuditCycleEngine {
    pub(super) config: EngineConfig,
    /// Lazily spawned worker pool, shared across engine clones. Engines
    /// that never run a sharded replay never spawn a thread.
    pool: Arc<OnceLock<Option<Arc<WorkerPool>>>>,
}

/// The two solver backends of one day session, one per world (the OSSP
/// world and the online-SSE world consume budget differently). Backends
/// keep only scratch buffers; the pair is reused across the days of a
/// replay shard so the steady state stays allocation-free.
#[derive(Debug)]
pub(super) struct SessionBackends {
    pub(super) ossp: Box<dyn SolverBackend>,
    pub(super) online: Box<dyn SolverBackend>,
}

impl SessionBackends {
    /// Instantiate both worlds' backends of the engine's configured kind.
    pub(super) fn for_engine(engine: &AuditCycleEngine) -> Self {
        SessionBackends {
            ossp: engine.config.backend.instantiate(),
            online: engine.config.backend.instantiate(),
        }
    }
}

/// One audit cycle in progress: per-day forecaster state, both worlds'
/// remaining budgets and solver backends, and the outcomes recorded so far.
///
/// Generic over how the engine is held: `E` is any
/// [`Borrow<AuditCycleEngine>`] — a plain reference ([`DaySession`]), an
/// [`Arc`] ([`OwnedDaySession`]), a [`Box`], or the engine by value.
/// Obtained from [`AuditCycleEngine::open_day`] /
/// [`AuditCycleEngine::open_day_owned`] or directly from
/// [`Session::open`]; alerts are fed with
/// [`push_alert`](Self::push_alert) and the day is closed with
/// [`finish`](Self::finish). Feeding the alerts of a [`DayLog`] one at a
/// time produces a [`CycleResult`] bitwise identical to the batch
/// [`run_day`](AuditCycleEngine::run_day) wrapper, whichever form holds the
/// engine.
#[derive(Debug)]
pub struct Session<E: Borrow<AuditCycleEngine>> {
    engine: E,
    estimator: FutureAlertEstimator,
    offline: OfflineSse,
    rng: Option<StdRng>,
    budget_ossp: f64,
    budget_online: f64,
    outcomes: Vec<AlertOutcome>,
    backends: SessionBackends,
    /// Solver work of this day's OSSP-world solves.
    totals: SseTotals,
    /// Reusable per-alert estimate buffer (one forecast vector per push).
    estimates: Vec<f64>,
    /// Day index reported on the [`CycleResult`]; pinned by
    /// [`set_day`](Self::set_day) or inferred from the first pushed alert.
    day: Option<u32>,
}

/// A [`Session`] borrowing its engine — the form the replay wrappers
/// stream through. Tied to the engine's lifetime but allocation-free to
/// hand out.
pub type DaySession<'e> = Session<&'e AuditCycleEngine>;

/// A [`Session`] that owns its engine through an [`Arc`] — no lifetime
/// parameter, so it can live in a `HashMap`, move across threads, and
/// outlive the binding that created it. The `sag-service` front door hands
/// these out as `SessionHandle`s.
pub type OwnedDaySession = Session<Arc<AuditCycleEngine>>;

impl AuditCycleEngine {
    /// Create an engine after validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SagError::InvalidConfig`] for inconsistent
    /// configurations.
    pub fn new(config: EngineConfig) -> Result<Self> {
        config.validate()?;
        Ok(AuditCycleEngine {
            config,
            pool: Arc::new(OnceLock::new()),
        })
    }

    /// Spawn the engine's worker pool: one thread per available core.
    /// `None` without the `parallel` feature or on a single-core host,
    /// where every fan-out degrades to the sequential path anyway.
    #[cfg(feature = "parallel")]
    fn spawn_pool() -> Option<Arc<WorkerPool>> {
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        (threads > 1).then(|| Arc::new(WorkerPool::new(threads)))
    }

    /// Without the `parallel` feature the engine never spawns threads.
    #[cfg(not(feature = "parallel"))]
    fn spawn_pool() -> Option<Arc<WorkerPool>> {
        None
    }

    /// The shared worker pool, spawning it on first use (engine clones
    /// share one pool through the `Arc<OnceLock>`).
    pub(super) fn pool(&self) -> Option<&Arc<WorkerPool>> {
        self.pool.get_or_init(Self::spawn_pool).as_ref()
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Open a streaming session for one audit cycle: fit the forecaster on
    /// `history`, solve the offline whole-day baseline, and initialise both
    /// worlds' budgets to `budget` (or the game's configured budget for
    /// `None`). Alerts are then fed with [`DaySession::push_alert`] as they
    /// arrive.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SagError::InvalidConfig`] for a non-finite or
    /// negative budget override, and propagates offline-solver errors (which
    /// do not occur for valid configurations).
    pub fn open_day(&self, history: &[DayLog], budget: Option<f64>) -> Result<DaySession<'_>> {
        self.open_day_with(history, budget, SessionBackends::for_engine(self))
    }

    /// [`open_day`](Self::open_day) for an engine shared behind an [`Arc`]:
    /// returns an [`OwnedDaySession`], free of the engine's lifetime. The
    /// session bumps the `Arc`'s reference count, so the engine stays alive
    /// for exactly as long as any of its open sessions; dropping the last
    /// handle drops the engine (and its worker pool).
    ///
    /// # Errors
    ///
    /// Same contract as [`open_day`](Self::open_day).
    pub fn open_day_owned(
        self: &Arc<Self>,
        history: &[DayLog],
        budget: Option<f64>,
    ) -> Result<OwnedDaySession> {
        Session::open(Arc::clone(self), history, budget)
    }

    /// [`open_day`](Self::open_day) over caller-provided backends, so replay
    /// drivers can reuse one pair of backends (and their scratch buffers)
    /// across the days of a shard.
    pub(super) fn open_day_with(
        &self,
        history: &[DayLog],
        budget: Option<f64>,
        backends: SessionBackends,
    ) -> Result<DaySession<'_>> {
        Session::open_with(self, history, budget, backends)
    }

    /// Borrow the game data as an [`SseInput`] for the given forecast and
    /// remaining budget.
    fn sse_input<'a>(&'a self, estimates: &'a [f64], budget: f64) -> SseInput<'a> {
        let game = &self.config.game;
        SseInput {
            payoffs: &game.payoffs,
            audit_costs: &game.audit_costs,
            future_estimates: estimates,
            budget,
        }
    }
}

impl<E: Borrow<AuditCycleEngine>> Session<E> {
    /// Open one audit cycle on `engine`, whatever form holds it: fit the
    /// forecaster on `history`, solve the offline whole-day baseline, and
    /// initialise both worlds' budgets to `budget` (or the game's configured
    /// budget for `None`). This is the generic constructor behind
    /// [`AuditCycleEngine::open_day`] (pass `&engine`) and
    /// [`AuditCycleEngine::open_day_owned`] (pass an `Arc`).
    ///
    /// # Errors
    ///
    /// Returns [`crate::SagError::InvalidConfig`] for a non-finite or
    /// negative budget override, and propagates offline-solver errors (which
    /// do not occur for valid configurations).
    pub fn open(engine: E, history: &[DayLog], budget: Option<f64>) -> Result<Self> {
        let backends = SessionBackends::for_engine(engine.borrow());
        Self::open_with(engine, history, budget, backends)
    }

    /// [`open`](Self::open) over caller-provided backends (replay drivers
    /// reuse one pair across the days of a shard). Backends are stateless
    /// between solves, so every session stays a pure function of its own
    /// inputs.
    pub(super) fn open_with(
        engine: E,
        history: &[DayLog],
        budget: Option<f64>,
        backends: SessionBackends,
    ) -> Result<Self> {
        if let Some(budget) = budget {
            super::replay::validate_budget(budget)?;
        }
        let config = &engine.borrow().config;
        let game = &config.game;
        let cycle_budget = budget.unwrap_or(game.budget);
        let model = ArrivalModel::fit_weighted(history, game.num_types(), config.forecast_decay);
        let estimator = FutureAlertEstimator::new(model, config.rollback);

        let offline = OfflineSse::solve(
            &game.payoffs,
            &game.audit_costs,
            &estimator.expected_daily_totals(),
            cycle_budget,
        )?;

        let rng = match config.accounting {
            BudgetAccounting::Sampled { seed } => Some(StdRng::seed_from_u64(seed)),
            BudgetAccounting::Expected => None,
        };

        Ok(Session {
            engine,
            estimator,
            offline,
            rng,
            budget_ossp: cycle_budget,
            budget_online: cycle_budget,
            outcomes: Vec::new(),
            backends,
            totals: SseTotals::default(),
            estimates: Vec::new(),
            day: None,
        })
    }

    /// The engine this session solves through.
    #[must_use]
    pub fn engine(&self) -> &AuditCycleEngine {
        self.engine.borrow()
    }

    /// Pin the day index reported on the final [`CycleResult`]. Without a
    /// pin the session uses the first pushed alert's day (or 0 for a day
    /// that saw no alerts at all).
    pub fn set_day(&mut self, day: u32) {
        self.day = Some(day);
    }

    /// Number of alerts processed so far.
    #[must_use]
    pub fn alerts_processed(&self) -> usize {
        self.outcomes.len()
    }

    /// The outcomes committed so far, in arrival order. This is the
    /// observable mid-day state a durability layer must reproduce: a
    /// recovered session is correct exactly when its outcome log (and
    /// remaining budgets) match the original's bitwise.
    #[must_use]
    pub fn outcomes(&self) -> &[AlertOutcome] {
        &self.outcomes
    }

    /// Remaining budget in the OSSP (signaling) world.
    #[must_use]
    pub fn remaining_budget_ossp(&self) -> f64 {
        self.budget_ossp
    }

    /// Remaining budget in the online-SSE world.
    #[must_use]
    pub fn remaining_budget_online(&self) -> f64 {
        self.budget_online
    }

    /// Process one arriving alert: compute the OSSP warning decision and the
    /// two baselines for it, charge both worlds' budgets, update the
    /// forecaster, and record the outcome. Returns the committed outcome —
    /// its [`ossp_scheme`](AlertOutcome::ossp_scheme) is the signaling
    /// scheme the auditor plays for this alert.
    ///
    /// # Errors
    ///
    /// Propagates solver errors (which do not occur for valid
    /// configurations).
    pub fn push_alert(&mut self, alert: &Alert) -> Result<AlertOutcome> {
        if self.day.is_none() {
            self.day = Some(alert.day);
        }
        let engine = self.engine.borrow();
        let game = &engine.config.game;
        self.estimator
            .estimate_all_into(alert.time, &mut self.estimates);

        // ---- OSSP world -------------------------------------------------
        let started = Instant::now();
        let sse_ossp = self
            .backends
            .ossp
            .solve(&engine.sse_input(&self.estimates, self.budget_ossp))?;
        self.totals.record(&sse_ossp.stats);
        let type_payoffs = game.payoffs.get(alert.type_id);
        let coverage_ossp = sse_ossp.coverage_of(alert.type_id);
        let ossp_applied = alert.type_id == sse_ossp.best_response;
        let (ossp_scheme, ossp_utility, ossp_attacker_utility, ossp_deterred) = if ossp_applied {
            let mut ossp = ossp_closed_form(type_payoffs, coverage_ossp);
            if engine.config.signal_noise > 0.0 {
                // Leaky channel: keep the committed scheme but score it
                // under the attacker's noisy Bayesian posterior.
                ossp = evaluate_scheme_under_noise(
                    type_payoffs,
                    &ossp.scheme,
                    engine.config.signal_noise,
                );
            }
            (
                ossp.scheme,
                ossp.auditor_utility,
                ossp.attacker_utility,
                ossp.deterred,
            )
        } else {
            // Alerts whose type is not the best response are handled
            // with the plain online SSE, as in the paper's evaluation.
            (
                SignalingScheme::no_signaling(coverage_ossp),
                sse_ossp.auditor_utility,
                sse_ossp.attacker_utility,
                false,
            )
        };
        let solve_micros = started.elapsed().as_micros() as u64;

        // ---- online-SSE world -------------------------------------------
        // While the two worlds' budgets agree (the start of a day) the OSSP
        // solve answers both; once they diverge the online world solves on
        // its own backend. Either way no solution is cloned — the online
        // outcome fields are scalars read through a borrow.
        let sse_online_owned = if (self.budget_online - self.budget_ossp).abs() < 1e-12 {
            None
        } else {
            Some(
                self.backends
                    .online
                    .solve(&engine.sse_input(&self.estimates, self.budget_online))?,
            )
        };
        let sse_online = sse_online_owned.as_ref().unwrap_or(&sse_ossp);
        let coverage_online = sse_online.coverage_of(alert.type_id);
        let online_sse_utility = sse_online.auditor_utility;
        let online_attacker_utility = sse_online.attacker_utility;

        // ---- budget updates ---------------------------------------------
        let cost = game.audit_costs[alert.type_id.index()];
        let ossp_charge = match self.rng.as_mut() {
            Some(rng) => {
                let signal = ossp_scheme.sample_signal(rng);
                ossp_scheme.conditional_audit_cost(signal) * cost
            }
            None => ossp_scheme.expected_audit_cost() * cost,
        };
        let online_charge = coverage_online * cost;
        self.budget_ossp = (self.budget_ossp - ossp_charge).max(0.0);
        self.budget_online = (self.budget_online - online_charge).max(0.0);

        self.estimator.observe_alert(alert.time);

        let outcome = AlertOutcome {
            index: self.outcomes.len(),
            day: alert.day,
            time: alert.time,
            type_id: alert.type_id,
            ossp_utility,
            online_sse_utility,
            offline_sse_utility: self.offline.auditor_utility(),
            ossp_attacker_utility,
            online_attacker_utility,
            ossp_scheme,
            ossp_deterred,
            ossp_applied,
            coverage_ossp,
            coverage_online,
            best_response: sse_ossp.best_response,
            budget_after_ossp: self.budget_ossp,
            budget_after_online: self.budget_online,
            solve_micros,
            sse_stats: sse_ossp.stats,
        };
        // Hand the solution buffers back to their backends for reuse — the
        // last steady-state allocations of the per-alert path.
        if let Some(online) = sse_online_owned {
            self.backends.online.recycle(online);
        }
        self.backends.ossp.recycle(sse_ossp);
        self.outcomes.push(outcome.clone());
        Ok(outcome)
    }

    /// Close the cycle and return its [`CycleResult`].
    #[must_use]
    pub fn finish(self) -> CycleResult {
        self.finish_with_backends().0
    }

    /// [`finish`](Self::finish) that also hands the solver backends back so
    /// replay drivers can reuse them for the next day of the shard.
    pub(super) fn finish_with_backends(self) -> (CycleResult, SessionBackends) {
        let n = self.engine.borrow().config.game.num_types();
        let result = CycleResult {
            day: self.day.unwrap_or(0),
            outcomes: self.outcomes,
            offline_auditor_utility: self.offline.auditor_utility(),
            offline_attacker_utility: self.offline.attacker_utility(),
            offline_coverage: (0..n)
                .map(|t| self.offline.coverage_of(AlertTypeId(t as u16)))
                .collect(),
            sse_totals: self.totals,
            certified_eps_loss: 0.0,
        };
        (result, self.backends)
    }
}
