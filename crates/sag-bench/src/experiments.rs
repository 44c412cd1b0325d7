//! Experiment drivers for every table and figure of the paper.
//!
//! Each driver is deterministic given its seed, returns plain data structures
//! (so the binaries, benches and tests can all consume them) and uses the
//! public APIs of the workspace crates exactly as a downstream user would.

use sag_core::engine::{AuditCycleEngine, CycleResult, EngineConfig};
use sag_core::metrics::{ExperimentSummary, UtilitySeries};
use sag_forecast::RollbackPolicy;
use sag_sim::stream::daily_count_stats;
use sag_sim::{AlertCatalog, DayLog, StreamConfig, StreamGenerator};
use std::time::Instant;

/// Default number of historical days per evaluation group (as in the paper).
pub const PAPER_HISTORY_DAYS: u32 = 41;
/// Default number of test days reported in the figures.
pub const PAPER_TEST_DAYS: u32 = 4;

/// One row of the reproduced Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// 1-based type id as in the paper.
    pub id: usize,
    /// Alert type description.
    pub description: String,
    /// Daily mean reported by the paper.
    pub paper_mean: f64,
    /// Daily std reported by the paper.
    pub paper_std: f64,
    /// Daily mean measured on the synthetic log.
    pub measured_mean: f64,
    /// Daily std measured on the synthetic log.
    pub measured_std: f64,
}

/// Experiment E1: regenerate Table 1 from a 56-day synthetic log.
#[must_use]
pub fn table1_experiment(seed: u64, num_days: u32) -> Vec<Table1Row> {
    let catalog = AlertCatalog::paper_table1();
    let mut gen = StreamGenerator::new(StreamConfig::paper_multi_type(seed));
    let days = gen.generate_days(num_days);
    let (means, stds) = daily_count_stats(&days, catalog.len());
    catalog
        .types()
        .iter()
        .enumerate()
        .map(|(i, info)| Table1Row {
            id: i + 1,
            description: info.description.clone(),
            paper_mean: info.daily_mean,
            paper_std: info.daily_std,
            measured_mean: means[i],
            measured_std: stds[i],
        })
        .collect()
}

/// Configuration of a figure experiment (E3 = Figure 2, E4 = Figure 3).
#[derive(Debug, Clone, PartialEq)]
pub struct FigureExperimentConfig {
    /// RNG seed for the synthetic alert streams.
    pub seed: u64,
    /// Number of historical days fitted before each test day.
    pub history_days: u32,
    /// Number of consecutive test days to replay.
    pub test_days: u32,
    /// Whether to use the single-type (Figure 2) or 7-type (Figure 3) setup.
    pub single_type: bool,
}

impl FigureExperimentConfig {
    /// The paper's Figure 2 layout: single type, 41 historical days, 4 test
    /// days, budget 20.
    #[must_use]
    pub fn figure2(seed: u64) -> Self {
        FigureExperimentConfig {
            seed,
            history_days: PAPER_HISTORY_DAYS,
            test_days: PAPER_TEST_DAYS,
            single_type: true,
        }
    }

    /// The paper's Figure 3 layout: 7 types, 41 historical days, 4 test days,
    /// budget 50.
    #[must_use]
    pub fn figure3(seed: u64) -> Self {
        FigureExperimentConfig {
            seed,
            history_days: PAPER_HISTORY_DAYS,
            test_days: PAPER_TEST_DAYS,
            single_type: false,
        }
    }

    /// A scaled-down layout for fast tests and benches.
    #[must_use]
    pub fn quick(seed: u64, single_type: bool) -> Self {
        FigureExperimentConfig {
            seed,
            history_days: 10,
            test_days: 1,
            single_type,
        }
    }

    fn stream_config(&self) -> StreamConfig {
        if self.single_type {
            StreamConfig::paper_single_type(self.seed)
        } else {
            StreamConfig::paper_multi_type(self.seed)
        }
    }

    fn engine_config(&self) -> EngineConfig {
        if self.single_type {
            EngineConfig::paper_single_type()
        } else {
            EngineConfig::paper_multi_type()
        }
    }
}

/// The output of a figure experiment: one utility series per test day plus an
/// aggregate summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOutput {
    /// Per-day utility series (what the paper plots).
    pub series: Vec<UtilitySeries>,
    /// Aggregate summary across the test days.
    pub summary: ExperimentSummary,
}

/// Run a figure experiment and return the per-day series and summary.
///
/// # Panics
///
/// Panics if the engine rejects the paper configuration, which would indicate
/// a bug in this workspace rather than a user error.
#[must_use]
pub fn run_figure_experiment(config: &FigureExperimentConfig) -> ExperimentOutput {
    let mut gen = StreamGenerator::new(config.stream_config());
    let (history, test_days) = gen.generate_split(config.history_days, config.test_days);
    let engine =
        AuditCycleEngine::new(config.engine_config()).expect("paper configuration is valid");

    let mut cycles: Vec<CycleResult> = Vec::with_capacity(test_days.len());
    for (offset, test_day) in test_days.iter().enumerate() {
        // Roll the history window forward as the paper's 15 groups do: the
        // first test day uses days [0, H), the second [1, H+1), etc. Here the
        // extra historical days are the earlier test days themselves.
        let mut window: Vec<DayLog> = history.iter().skip(offset).cloned().collect();
        window.extend(test_days.iter().take(offset).cloned());
        cycles.push(engine.run_day(&window, test_day).expect("cycle replays"));
    }

    let series = cycles.iter().map(UtilitySeries::from_cycle).collect();
    let summary = ExperimentSummary::from_cycles(&cycles);
    ExperimentOutput { series, summary }
}

/// Experiment E3: the single-type Figure 2 reproduction.
#[must_use]
pub fn figure2_experiment(seed: u64) -> ExperimentOutput {
    run_figure_experiment(&FigureExperimentConfig::figure2(seed))
}

/// Experiment E4: the 7-type Figure 3 reproduction.
#[must_use]
pub fn figure3_experiment(seed: u64) -> ExperimentOutput {
    run_figure_experiment(&FigureExperimentConfig::figure3(seed))
}

/// Runtime statistics of the per-alert optimization (Experiment E5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeStats {
    /// Number of alerts timed.
    pub alerts: usize,
    /// Mean per-alert decision time in microseconds.
    pub mean_micros: f64,
    /// Maximum per-alert decision time in microseconds.
    pub max_micros: f64,
    /// Total wall-clock time of the replay in milliseconds.
    pub total_millis: f64,
}

/// Experiment E5: measure the per-alert SAG optimization time on the 7-type
/// workload (the paper reports ≈ 0.02 s per alert on a 2017 laptop). The
/// test day streams through a session and each
/// [`push_alert`](sag_core::engine::Session::push_alert) is timed: the
/// forecast update, both worlds' SSE solves, the signaling scheme and the
/// budget charge.
#[must_use]
pub fn runtime_experiment(seed: u64, history_days: u32) -> RuntimeStats {
    let mut gen = StreamGenerator::new(StreamConfig::paper_multi_type(seed));
    let (history, mut test_days) = gen.generate_split(history_days, 1);
    let test_day = test_days.remove(0);
    let engine =
        AuditCycleEngine::new(EngineConfig::paper_multi_type()).expect("valid configuration");
    let started = Instant::now();
    let mut session = engine.open_day(&history, None).expect("day opens");
    let (mut sum_micros, mut max_micros) = (0.0, 0.0f64);
    for alert in test_day.alerts() {
        let pushed = Instant::now();
        session.push_alert(alert).expect("alert processes");
        let micros = pushed.elapsed().as_secs_f64() * 1e6;
        sum_micros += micros;
        max_micros = max_micros.max(micros);
    }
    let alerts = session.finish().len();
    RuntimeStats {
        alerts,
        mean_micros: sum_micros / alerts.max(1) as f64,
        max_micros,
        total_millis: started.elapsed().as_secs_f64() * 1e3,
    }
}

/// Result of the knowledge-rollback ablation (Experiment E6).
#[derive(Debug, Clone, PartialEq)]
pub struct RollbackAblation {
    /// Summary with rollback enabled (the paper's configuration).
    pub with_rollback: ExperimentSummary,
    /// Summary with rollback disabled.
    pub without_rollback: ExperimentSummary,
    /// Coverage of the final alert of each test day with rollback enabled —
    /// the quantity a late attacker cares about.
    pub final_coverage_with: Vec<f64>,
    /// Coverage of the final alert of each test day with rollback disabled.
    pub final_coverage_without: Vec<f64>,
}

/// Experiment E6: the knowledge-rollback ablation on the multi-type workload.
#[must_use]
pub fn rollback_ablation(seed: u64, history_days: u32, test_days: u32) -> RollbackAblation {
    let run = |rollback: RollbackPolicy| {
        let mut gen = StreamGenerator::new(StreamConfig::paper_multi_type(seed));
        let (history, tests) = gen.generate_split(history_days, test_days);
        let config = EngineConfig {
            rollback,
            ..EngineConfig::paper_multi_type()
        };
        let engine = AuditCycleEngine::new(config).expect("valid configuration");
        let cycles: Vec<CycleResult> = tests
            .iter()
            .map(|day| engine.run_day(&history, day).expect("cycle replays"))
            .collect();
        let finals: Vec<f64> = cycles
            .iter()
            .filter_map(|c| c.outcomes.last().map(|o| o.coverage_ossp))
            .collect();
        (ExperimentSummary::from_cycles(&cycles), finals)
    };
    let (with_rollback, final_coverage_with) = run(RollbackPolicy::paper_default());
    let (without_rollback, final_coverage_without) = run(RollbackPolicy::disabled());
    RollbackAblation {
        with_rollback,
        without_rollback,
        final_coverage_with,
        final_coverage_without,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reproduction_tracks_paper_statistics() {
        let rows = table1_experiment(7, 56);
        assert_eq!(rows.len(), 7);
        for row in &rows {
            let tolerance = 4.0 * row.paper_std / (56.0f64).sqrt() + 1.0;
            assert!(
                (row.measured_mean - row.paper_mean).abs() < tolerance,
                "type {}: measured {} vs paper {}",
                row.id,
                row.measured_mean,
                row.paper_mean
            );
        }
    }

    #[test]
    fn quick_single_type_experiment_shows_ossp_advantage() {
        let output = run_figure_experiment(&FigureExperimentConfig::quick(3, true));
        assert_eq!(output.series.len(), 1);
        assert!(!output.series[0].is_empty());
        assert!(output.summary.mean_ossp > output.summary.mean_online);
        assert!((output.summary.fraction_ossp_not_worse - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quick_multi_type_experiment_shows_ossp_advantage() {
        let output = run_figure_experiment(&FigureExperimentConfig::quick(5, false));
        assert!(output.summary.mean_ossp >= output.summary.mean_online - 1e-9);
        assert!(output.summary.num_alerts > 100);
    }

    #[test]
    fn runtime_experiment_is_far_below_paper_latency() {
        let stats = runtime_experiment(11, 10);
        assert!(stats.alerts > 100);
        // The paper reports ~0.02 s = 20_000 µs per alert; anything below that
        // keeps the warning imperceptible. Our simplex typically needs well
        // under a millisecond.
        assert!(
            stats.mean_micros < 20_000.0,
            "mean {} µs",
            stats.mean_micros
        );
        assert!(stats.total_millis > 0.0);
    }

    #[test]
    fn rollback_ablation_props_up_late_coverage() {
        let ablation = rollback_ablation(13, 10, 2);
        // With rollback the final alerts of the day retain nonzero coverage at
        // least as large as without it.
        for (with, without) in ablation
            .final_coverage_with
            .iter()
            .zip(&ablation.final_coverage_without)
        {
            assert!(
                with >= &(without - 1e-9),
                "rollback reduced final coverage: {with} < {without}"
            );
        }
    }
}
