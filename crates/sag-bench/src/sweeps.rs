//! Larger experiment sweeps: the paper's 15-group rolling evaluation and an
//! ablation sweep over the audit budget.
//!
//! These are the workloads that benefit from parallelism: every
//! (history, test-day) group is independent, so the runner replays them
//! through [`AuditCycleEngine::run_groups`], which shards the groups over the
//! engine's worker pool when the `parallel` feature is on.

use crate::experiments::FigureExperimentConfig;
use sag_core::engine::{AuditCycleEngine, CycleResult, EngineConfig};
use sag_core::metrics::ExperimentSummary;
use sag_sim::{AlertLog, StreamGenerator};

/// Summary of one rolling evaluation group (one test day).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupResult {
    /// Index of the group (0-based; group `i` tests day `history_len + i`).
    pub group: usize,
    /// Day index of the test day.
    pub test_day: u32,
    /// Aggregate summary of that day.
    pub summary: ExperimentSummary,
}

/// Run the paper's rolling-group evaluation (56 days, 41-day history ⇒ 15
/// groups), processing groups in parallel through
/// [`AuditCycleEngine::run_groups`]. Results do not depend on the shard
/// count.
///
/// # Panics
///
/// Panics if the engine rejects the paper configuration (a workspace bug, not
/// a user error).
#[must_use]
pub fn rolling_groups_parallel(
    config: &FigureExperimentConfig,
    total_days: u32,
) -> Vec<GroupResult> {
    let mut generator = StreamGenerator::new(config_stream(config));
    let log = AlertLog::new(generator.generate_days(total_days));
    let engine = AuditCycleEngine::new(config_engine(config)).expect("paper configuration");
    engine
        .run_groups(&log, config.history_days as usize)
        .expect("cycles replay")
        .into_iter()
        .enumerate()
        .map(|(group, cycle)| GroupResult {
            group,
            test_day: cycle.day,
            summary: ExperimentSummary::from_cycles(std::slice::from_ref(&cycle)),
        })
        .collect()
}

/// One point of the budget-sweep ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetSweepPoint {
    /// The cycle budget used.
    pub budget: f64,
    /// Mean per-alert auditor utility under the OSSP.
    pub mean_ossp: f64,
    /// Mean per-alert auditor utility under the online SSE.
    pub mean_online: f64,
    /// Mean per-alert auditor utility under the offline SSE.
    pub mean_offline: f64,
    /// Fraction of alerts where the OSSP fully deterred an attack.
    pub fraction_deterred: f64,
}

/// Ablation: sweep the cycle budget and report how the three strategies'
/// mean utilities respond (the design-choice knob called out in `DESIGN.md`).
///
/// # Panics
///
/// Panics if the engine rejects the configuration (a workspace bug).
#[must_use]
pub fn budget_sweep(config: &FigureExperimentConfig, budgets: &[f64]) -> Vec<BudgetSweepPoint> {
    let mut generator = StreamGenerator::new(config_stream(config));
    let (history, test_days) = generator.generate_split(config.history_days, config.test_days);

    budgets
        .iter()
        .map(|&budget| {
            let mut engine_config = config_engine(config);
            engine_config.game.budget = budget;
            let engine = AuditCycleEngine::new(engine_config).expect("valid configuration");
            let cycles: Vec<CycleResult> = test_days
                .iter()
                .map(|day| engine.run_day(&history, day).expect("cycle replays"))
                .collect();
            let summary = ExperimentSummary::from_cycles(&cycles);
            BudgetSweepPoint {
                budget,
                mean_ossp: summary.mean_ossp,
                mean_online: summary.mean_online,
                mean_offline: summary.mean_offline,
                fraction_deterred: summary.fraction_deterred,
            }
        })
        .collect()
}

fn config_stream(config: &FigureExperimentConfig) -> sag_sim::StreamConfig {
    if config.single_type {
        sag_sim::StreamConfig::paper_single_type(config.seed)
    } else {
        sag_sim::StreamConfig::paper_multi_type(config.seed)
    }
}

fn config_engine(config: &FigureExperimentConfig) -> EngineConfig {
    if config.single_type {
        EngineConfig::paper_single_type()
    } else {
        EngineConfig::paper_multi_type()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_groups_produce_one_result_per_group() {
        // 14 days with a 12-day history => 2 groups.
        let config = FigureExperimentConfig {
            seed: 21,
            history_days: 12,
            test_days: 1,
            single_type: true,
        };
        let results = rolling_groups_parallel(&config, 14);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].group, 0);
        assert_eq!(results[0].test_day, 12);
        assert_eq!(results[1].test_day, 13);
        for r in &results {
            assert!(r.summary.num_alerts > 50);
            assert!((r.summary.fraction_ossp_not_worse - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_and_sequential_groups_agree() {
        let config = FigureExperimentConfig {
            seed: 33,
            history_days: 10,
            test_days: 1,
            single_type: true,
        };
        let parallel = rolling_groups_parallel(&config, 12);

        // Sequential reference using the same primitives.
        let mut generator = StreamGenerator::new(config_stream(&config));
        let log = AlertLog::new(generator.generate_days(12));
        let engine = AuditCycleEngine::new(config_engine(&config)).unwrap();
        let sequential: Vec<ExperimentSummary> = log
            .rolling_groups(10)
            .into_iter()
            .map(|(h, t)| {
                ExperimentSummary::from_cycles(std::slice::from_ref(&engine.run_day(h, t).unwrap()))
            })
            .collect();

        let parallel: Vec<ExperimentSummary> = parallel.into_iter().map(|g| g.summary).collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn budget_sweep_is_monotone_in_the_right_direction() {
        let config = FigureExperimentConfig::quick(44, true);
        let budgets = [0.0, 10.0, 20.0, 60.0, 150.0];
        let points = budget_sweep(&config, &budgets);
        assert_eq!(points.len(), budgets.len());
        // More budget never hurts the online SSE baseline or the OSSP, and
        // deterrence can only grow.
        for pair in points.windows(2) {
            assert!(pair[1].mean_online >= pair[0].mean_online - 5.0);
            assert!(pair[1].mean_ossp >= pair[0].mean_ossp - 5.0);
            assert!(pair[1].fraction_deterred >= pair[0].fraction_deterred - 1e-9);
        }
        // With zero budget all three strategies collapse to the uncovered
        // payoff of the single type (-400).
        assert!((points[0].mean_online - (-400.0)).abs() < 1e-6);
        assert!((points[0].mean_offline - (-400.0)).abs() < 1e-6);
    }
}
