//! `EngineConfig::epsilon` is a kept configuration field that no solver
//! reads: both backends are exact. A replay configured with ε = 0 (or any
//! other ε) equals one with the untouched default config, bitwise, down to
//! the per-alert stats and per-day totals, for every registered scenario
//! and both solver backends, and certifies no loss.

mod common;

use common::OnTheLpBackend;
use sag_core::engine::{AuditCycleEngine, ReplayJob};
use sag_core::CycleResult;
use sag_scenarios::{registry, Scenario};
use sag_sim::AlertLog;

const HISTORY_DAYS: u32 = 4;
const DAYS: u32 = 6;

fn replay(scenario: &dyn Scenario, epsilon: Option<f64>) -> Vec<CycleResult> {
    let mut config = scenario.engine_config();
    if let Some(epsilon) = epsilon {
        config.epsilon = epsilon;
    }
    let engine = AuditCycleEngine::new(config).expect("scenario engine");
    let log = AlertLog::new(scenario.generate_days(2019, DAYS));
    let jobs: Vec<ReplayJob<'_>> = log
        .rolling_groups(HISTORY_DAYS as usize)
        .iter()
        .map(|&(history, test_day)| ReplayJob {
            history,
            test_day,
            budget: scenario.budget_for_day(test_day.day()),
        })
        .collect();
    engine.replay_sharded(&jobs, 1).expect("scenario replays")
}

#[test]
fn zero_epsilon_replays_equal_exact_across_the_whole_registry() {
    for scenario in registry() {
        let on_lp = OnTheLpBackend::new(scenario.as_ref(), HISTORY_DAYS);
        let arms: [&dyn Scenario; 2] = [scenario.as_ref(), &on_lp];
        for arm in arms {
            let backend = arm.engine_config().backend;
            let exact = replay(arm, None);
            assert_eq!(exact.len(), (DAYS - HISTORY_DAYS) as usize);
            for epsilon in [0.0, 25.0] {
                assert_eq!(
                    replay(arm, Some(epsilon)),
                    exact,
                    "{} backend {backend:?}: ε = {epsilon} diverged from the default config",
                    scenario.name()
                );
            }
            assert!(exact
                .iter()
                .all(|c| c.sse_totals.eps_skipped_lps == 0 && c.certified_eps_loss == 0.0));
        }
    }
}
