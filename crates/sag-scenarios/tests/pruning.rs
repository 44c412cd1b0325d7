//! `EngineConfig::pruning` is a kept configuration field that no solver
//! reads: both backends are exact and solve every candidate. Replaying any
//! registered workload with it on or off gives bitwise-identical results,
//! solver-work counters included, for every scenario, two seeds and both
//! solver backends.

mod common;

use common::OnTheLpBackend;
use sag_core::engine::{AuditCycleEngine, ReplayJob};
use sag_core::CycleResult;
use sag_scenarios::{registry, Scenario};
use sag_sim::AlertLog;

const HISTORY_DAYS: u32 = 4;
const DAYS: u32 = 6;

fn replay(scenario: &dyn Scenario, pruning: bool, seed: u64) -> Vec<CycleResult> {
    let mut config = scenario.engine_config();
    config.pruning = pruning;
    let engine = AuditCycleEngine::new(config).expect("scenario engine");
    let log = AlertLog::new(scenario.generate_days(seed, DAYS));
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
fn pruning_is_result_identical_across_the_whole_registry() {
    for scenario in registry() {
        let on_lp = OnTheLpBackend::new(scenario.as_ref(), HISTORY_DAYS);
        let arms: [&dyn Scenario; 2] = [scenario.as_ref(), &on_lp];
        for arm in arms {
            let backend = arm.engine_config().backend;
            for seed in [2019, 7] {
                let pruned = replay(arm, true, seed);
                let exhaustive = replay(arm, false, seed);
                assert_eq!(pruned.len(), (DAYS - HISTORY_DAYS) as usize);
                assert_eq!(
                    pruned,
                    exhaustive,
                    "{} seed {seed} backend {backend:?}: the pruning flag changed results",
                    scenario.name()
                );
                assert!(pruned.iter().all(|c| c.sse_totals.pruned_lps == 0));
            }
        }
    }
}
