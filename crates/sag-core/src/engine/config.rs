//! Engine configuration: the game, the forecaster knobs, budget accounting
//! and the solver-backend selection.

use crate::model::GameConfig;
use crate::sse::SolverBackendKind;
use crate::{ConfigError, Result};
use sag_forecast::RollbackPolicy;

/// How budget consumption is charged per alert.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BudgetAccounting {
    /// Charge the expected audit cost (the marginal audit probability times
    /// the per-alert audit cost). Deterministic; the default.
    #[default]
    Expected,
    /// Sample the signal from the scheme and charge the signal-conditional
    /// audit probability, as in the paper's description of the budget update.
    Sampled {
        /// RNG seed for reproducibility.
        seed: u64,
    },
}

/// Configuration of the audit-cycle engine.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Game definition: catalogue, payoffs, audit costs, budget.
    pub game: GameConfig,
    /// Knowledge-rollback policy for the future-alert estimates.
    pub rollback: RollbackPolicy,
    /// Budget accounting mode.
    pub accounting: BudgetAccounting,
    /// Exponential day weighting of the arrival fit: a history day aged `a`
    /// days contributes weight `forecast_decay^a`. `1.0` (the paper's
    /// estimator) pools all days uniformly; values below 1 track drifting
    /// workloads. Must lie in `(0, 1]`.
    pub forecast_decay: f64,
    /// Probability that the attacker misperceives the delivered signal (a
    /// leaky warning channel). `0.0` (the paper's model) means a perfect
    /// channel; positive values re-evaluate every committed scheme under
    /// the attacker's noisy Bayesian posterior. Must lie in `[0, 1]`.
    pub signal_noise: f64,
    /// Which [`crate::sse::SolverBackend`] every [`crate::engine::DaySession`]
    /// solves through. The default, [`SolverBackendKind::Auto`], is the
    /// exact breakpoint sweep (the closed form for single-type games);
    /// [`SolverBackendKind::SimplexLp`] is the paper's multiple-LP method,
    /// kept as the oracle.
    pub backend: SolverBackendKind,
    /// Ignored: both backends solve every candidate exactly, so there is
    /// nothing to prune. Kept so existing configurations still compile.
    pub pruning: bool,
    /// Ignored: both backends are exact, so
    /// [`crate::engine::CycleResult::certified_eps_loss`] always reads 0.0.
    /// Kept so existing configurations still compile.
    pub epsilon: f64,
}

impl EngineConfig {
    /// The paper's configuration knobs on top of an explicit game: uniform
    /// forecast pooling, default rollback, expected-cost accounting, perfect
    /// signal channel, the exact sweep backend.
    #[must_use]
    pub fn paper_defaults(game: GameConfig) -> Self {
        EngineConfig {
            game,
            rollback: RollbackPolicy::paper_default(),
            accounting: BudgetAccounting::Expected,
            forecast_decay: 1.0,
            signal_noise: 0.0,
            backend: SolverBackendKind::Auto,
            pruning: true,
            epsilon: 0.0,
        }
    }

    /// The paper's single-type setup (Figure 2).
    #[must_use]
    pub fn paper_single_type() -> Self {
        Self::paper_defaults(GameConfig::paper_single_type())
    }

    /// The paper's multi-type setup (Figure 3).
    #[must_use]
    pub fn paper_multi_type() -> Self {
        Self::paper_defaults(GameConfig::paper_multi_type())
    }

    /// Validate the engine-level knobs on top of the game's own validation.
    pub(super) fn validate(&self) -> Result<()> {
        self.game.validate()?;
        if !(self.forecast_decay > 0.0 && self.forecast_decay <= 1.0) {
            return Err(ConfigError::ForecastDecayOutOfRange {
                value: self.forecast_decay,
            }
            .into());
        }
        if !(self.signal_noise >= 0.0 && self.signal_noise <= 1.0) {
            return Err(ConfigError::SignalNoiseOutOfRange {
                value: self.signal_noise,
            }
            .into());
        }
        Ok(())
    }
}
