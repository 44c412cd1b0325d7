//! Shared by the registry suites' `SimplexLp` arms: a registered scenario
//! replayed on the cold multiple-LP oracle over thinned test days.

use sag_core::engine::EngineConfig;
use sag_core::sse::SolverBackendKind;
use sag_scenarios::Scenario;
use sag_sim::DayLog;

/// About how many alerts each thinned test day keeps. A cold `SimplexLp`
/// solve runs one simplex per candidate type, so full days of the 28-type
/// `metro-grid` game would take minutes per registry pass.
pub const LP_ALERTS_PER_TEST_DAY: usize = 12;

/// `scenario` with its engine switched to [`SolverBackendKind::SimplexLp`]
/// and every day from index `history_days` on thinned to every k-th alert,
/// about [`LP_ALERTS_PER_TEST_DAY`] of them. The kept alerts span the whole
/// day, and history days stay whole, so forecasts and budgets stay those of
/// the scenario.
pub struct OnTheLpBackend<'a> {
    scenario: &'a dyn Scenario,
    history_days: u32,
}

impl<'a> OnTheLpBackend<'a> {
    pub fn new(scenario: &'a dyn Scenario, history_days: u32) -> Self {
        OnTheLpBackend {
            scenario,
            history_days,
        }
    }
}

impl Scenario for OnTheLpBackend<'_> {
    fn name(&self) -> &'static str {
        self.scenario.name()
    }

    fn description(&self) -> &'static str {
        self.scenario.description()
    }

    fn engine_config(&self) -> EngineConfig {
        let mut config = self.scenario.engine_config();
        config.backend = SolverBackendKind::SimplexLp;
        config
    }

    fn history_days(&self) -> u32 {
        self.scenario.history_days()
    }

    fn test_days(&self) -> u32 {
        self.scenario.test_days()
    }

    fn generate_days(&self, seed: u64, num_days: u32) -> Vec<DayLog> {
        self.scenario
            .generate_days(seed, num_days)
            .into_iter()
            .map(|day| {
                if day.day() < self.history_days {
                    return day;
                }
                let stride = day.len().div_ceil(LP_ALERTS_PER_TEST_DAY).max(1);
                let kept = day.alerts().iter().step_by(stride).copied().collect();
                DayLog::new(day.day(), kept)
            })
            .collect()
    }

    fn budget_for_day(&self, day: u32) -> Option<f64> {
        self.scenario.budget_for_day(day)
    }
}
