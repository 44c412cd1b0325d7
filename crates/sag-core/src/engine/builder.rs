//! [`EngineBuilder`]: validated, fluent construction of
//! [`AuditCycleEngine`]s.
//!
//! The builder is the front-door way to configure an engine: start from a
//! game ([`EngineBuilder::new`]) or one of the paper's presets
//! ([`paper_single_type`](EngineBuilder::paper_single_type),
//! [`paper_multi_type`](EngineBuilder::paper_multi_type)), chain the knobs
//! you want to move, and [`build`](EngineBuilder::build). Every knob is
//! checked at build time — a typo'd decay or an out-of-range noise level
//! fails here, as a structured [`crate::ConfigError`], not deep inside a
//! replay.

use super::config::{BudgetAccounting, EngineConfig};
use super::session::AuditCycleEngine;
use crate::model::GameConfig;
use crate::sse::SolverBackendKind;
use crate::Result;
use sag_forecast::RollbackPolicy;
use std::sync::Arc;

/// Fluent, validated construction of an [`AuditCycleEngine`].
///
/// ```
/// use sag_core::engine::EngineBuilder;
/// use sag_core::sse::SolverBackendKind;
///
/// let engine = EngineBuilder::paper_multi_type()
///     .forecast_decay(0.9)
///     .backend(SolverBackendKind::SimplexLp)
///     .build()?;
/// assert_eq!(engine.config().forecast_decay, 0.9);
/// # Ok::<(), sag_core::SagError>(())
/// ```
///
/// Invalid knobs are rejected at [`build`](Self::build) with a structured
/// [`crate::ConfigError`]:
///
/// ```
/// use sag_core::engine::EngineBuilder;
/// use sag_core::{ConfigError, SagError};
///
/// let err = EngineBuilder::paper_multi_type()
///     .forecast_decay(0.0)
///     .build()
///     .unwrap_err();
/// assert!(matches!(
///     err,
///     SagError::InvalidConfig(ConfigError::ForecastDecayOutOfRange { .. })
/// ));
/// ```
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    config: EngineConfig,
}

impl EngineBuilder {
    /// Start from an explicit game with the paper's default knobs (uniform
    /// forecast pooling, expected-cost accounting, perfect signal channel,
    /// the sweep backend).
    #[must_use]
    pub fn new(game: GameConfig) -> Self {
        EngineBuilder {
            config: EngineConfig::paper_defaults(game),
        }
    }

    /// The paper's single-type setup (Figure 2).
    #[must_use]
    pub fn paper_single_type() -> Self {
        Self::new(GameConfig::paper_single_type())
    }

    /// The paper's multi-type setup (Figure 3).
    #[must_use]
    pub fn paper_multi_type() -> Self {
        Self::new(GameConfig::paper_multi_type())
    }

    /// Start from an already assembled [`EngineConfig`] (e.g. a scenario's),
    /// to tweak a knob or two before building.
    #[must_use]
    pub fn from_config(config: EngineConfig) -> Self {
        EngineBuilder { config }
    }

    /// Override the game's per-cycle audit budget.
    #[must_use]
    pub fn budget(mut self, budget: f64) -> Self {
        self.config.game.budget = budget;
        self
    }

    /// Knowledge-rollback policy for the future-alert estimates.
    #[must_use]
    pub fn rollback(mut self, rollback: RollbackPolicy) -> Self {
        self.config.rollback = rollback;
        self
    }

    /// Budget accounting mode (expected-cost or sampled-signal).
    #[must_use]
    pub fn accounting(mut self, accounting: BudgetAccounting) -> Self {
        self.config.accounting = accounting;
        self
    }

    /// Exponential day weighting of the arrival fit; must lie in `(0, 1]`.
    #[must_use]
    pub fn forecast_decay(mut self, decay: f64) -> Self {
        self.config.forecast_decay = decay;
        self
    }

    /// Probability that the attacker misperceives the delivered signal;
    /// must lie in `[0, 1]`.
    #[must_use]
    pub fn signal_noise(mut self, noise: f64) -> Self {
        self.config.signal_noise = noise;
        self
    }

    /// Which [`crate::sse::SolverBackend`] sessions solve through.
    #[must_use]
    pub fn backend(mut self, backend: SolverBackendKind) -> Self {
        self.config.backend = backend;
        self
    }

    /// Validate the accumulated configuration and return it without
    /// constructing an engine (scenario definitions and tests use this).
    ///
    /// # Errors
    ///
    /// Returns [`crate::SagError::InvalidConfig`] with the structured cause
    /// for any inconsistent knob or game.
    pub fn build_config(self) -> Result<EngineConfig> {
        self.config.validate()?;
        Ok(self.config)
    }

    /// Validate and construct the engine.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SagError::InvalidConfig`] with the structured cause
    /// for any inconsistent knob or game.
    pub fn build(self) -> Result<AuditCycleEngine> {
        AuditCycleEngine::new(self.config)
    }

    /// Validate and construct the engine behind an [`Arc`], ready for
    /// [`AuditCycleEngine::open_day_owned`] and the `sag-service` front
    /// door.
    ///
    /// # Errors
    ///
    /// Same contract as [`build`](Self::build).
    pub fn build_shared(self) -> Result<Arc<AuditCycleEngine>> {
        self.build().map(Arc::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConfigError, SagError};

    #[test]
    fn builder_presets_match_the_config_presets() {
        let built = EngineBuilder::paper_multi_type().build_config().unwrap();
        assert_eq!(built, EngineConfig::paper_multi_type());
        let built = EngineBuilder::paper_single_type().build_config().unwrap();
        assert_eq!(built, EngineConfig::paper_single_type());
    }

    #[test]
    fn every_knob_lands_on_the_config() {
        let config = EngineBuilder::paper_multi_type()
            .budget(75.0)
            .forecast_decay(0.85)
            .signal_noise(0.1)
            .backend(SolverBackendKind::SimplexLp)
            .accounting(BudgetAccounting::Sampled { seed: 3 })
            .build_config()
            .unwrap();
        assert_eq!(config.game.budget, 75.0);
        assert_eq!(config.forecast_decay, 0.85);
        assert_eq!(config.signal_noise, 0.1);
        assert_eq!(config.backend, SolverBackendKind::SimplexLp);
        assert_eq!(config.accounting, BudgetAccounting::Sampled { seed: 3 });
    }

    #[test]
    fn invalid_knobs_fail_at_build_with_the_structured_cause() {
        assert!(matches!(
            EngineBuilder::paper_multi_type()
                .signal_noise(1.5)
                .build()
                .unwrap_err(),
            SagError::InvalidConfig(ConfigError::SignalNoiseOutOfRange { .. })
        ));
        assert!(matches!(
            EngineBuilder::paper_multi_type().budget(-1.0).build(),
            Err(SagError::InvalidConfig(ConfigError::InvalidBudget { .. }))
        ));
    }

    #[test]
    fn build_shared_supports_owned_sessions() {
        let engine = EngineBuilder::paper_single_type().build_shared().unwrap();
        let session = engine.open_day_owned(&[], None).unwrap();
        assert_eq!(session.alerts_processed(), 0);
    }
}
