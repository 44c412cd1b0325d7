//! Plain-text and CSV rendering of experiment results.

use crate::experiments::{ExperimentOutput, RollbackAblation, RuntimeStats, Table1Row};
use sag_core::metrics::ExperimentSummary;
use sag_core::model::PayoffTable;
use sag_sim::AlertTypeId;
use std::fmt::Write as _;

/// Render the reproduced Table 1 (paper vs. measured daily statistics).
#[must_use]
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<3} {:<52} {:>11} {:>10} {:>14} {:>13}",
        "ID", "Alert Type Description", "Paper Mean", "Paper Std", "Measured Mean", "Measured Std"
    );
    let _ = writeln!(out, "{}", "-".repeat(108));
    for row in rows {
        let _ = writeln!(
            out,
            "{:<3} {:<52} {:>11.2} {:>10.2} {:>14.2} {:>13.2}",
            row.id,
            row.description,
            row.paper_mean,
            row.paper_std,
            row.measured_mean,
            row.measured_std
        );
    }
    out
}

/// Render the payoff structures of Table 2.
#[must_use]
pub fn render_table2(payoffs: &PayoffTable) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>8} {:>8} {:>8} {:>8}",
        "Type ID", "Ud,c", "Ud,u", "Ua,c", "Ua,u"
    );
    let _ = writeln!(out, "{}", "-".repeat(46));
    for t in 0..payoffs.len() {
        let p = payoffs.get(AlertTypeId(t as u16));
        let _ = writeln!(
            out,
            "{:<8} {:>8.0} {:>8.0} {:>8.0} {:>8.0}",
            t + 1,
            p.auditor_covered,
            p.auditor_uncovered,
            p.attacker_covered,
            p.attacker_uncovered
        );
    }
    out
}

/// Render an experiment summary as a small table.
#[must_use]
pub fn render_summary(label: &str, summary: &ExperimentSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {label} ==");
    let _ = writeln!(out, "test days             : {}", summary.num_days);
    let _ = writeln!(out, "alerts processed      : {}", summary.num_alerts);
    let _ = writeln!(out, "mean utility  OSSP    : {:>10.2}", summary.mean_ossp);
    let _ = writeln!(out, "mean utility  online  : {:>10.2}", summary.mean_online);
    let _ = writeln!(
        out,
        "mean utility  offline : {:>10.2}",
        summary.mean_offline
    );
    let _ = writeln!(
        out,
        "OSSP >= online SSE    : {:>9.1}%",
        summary.fraction_ossp_not_worse * 100.0
    );
    let _ = writeln!(
        out,
        "attacks deterred      : {:>9.1}%",
        summary.fraction_deterred * 100.0
    );
    out
}

/// Render a figure experiment: per-day down-sampled series plus the summary.
#[must_use]
pub fn render_figure(label: &str, output: &ExperimentOutput, points_per_day: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "### {label}");
    for series in &output.series {
        let small = series.downsample(points_per_day);
        let _ = writeln!(out, "-- day {} ({} alerts) --", series.day, series.len());
        let _ = writeln!(
            out,
            "{:<10} {:>12} {:>12} {:>12}",
            "time", "OSSP", "online SSE", "offline SSE"
        );
        for i in 0..small.len() {
            let _ = writeln!(
                out,
                "{:<10} {:>12.2} {:>12.2} {:>12.2}",
                small.times[i].to_string(),
                small.ossp[i],
                small.online_sse[i],
                small.offline_sse[i]
            );
        }
    }
    out.push('\n');
    out.push_str(&render_summary(
        &format!("{label} summary"),
        &output.summary,
    ));
    out
}

/// Render the runtime experiment result.
#[must_use]
pub fn render_runtime(stats: &RuntimeStats) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "alerts timed          : {}", stats.alerts);
    let _ = writeln!(
        out,
        "mean per-alert solve  : {:>10.1} us",
        stats.mean_micros
    );
    let _ = writeln!(out, "max  per-alert solve  : {:>10.1} us", stats.max_micros);
    let _ = writeln!(
        out,
        "whole-day replay      : {:>10.1} ms",
        stats.total_millis
    );
    let _ = writeln!(
        out,
        "paper reference       : ~20000.0 us per alert (Mac laptop, 2017 hardware)"
    );
    out
}

/// Render the rollback ablation.
#[must_use]
pub fn render_rollback(ablation: &RollbackAblation) -> String {
    let mut out = String::new();
    out.push_str(&render_summary(
        "with knowledge rollback",
        &ablation.with_rollback,
    ));
    out.push('\n');
    out.push_str(&render_summary(
        "without knowledge rollback",
        &ablation.without_rollback,
    ));
    let _ = writeln!(out);
    let _ = writeln!(out, "coverage of the last alert of each test day:");
    let _ = writeln!(
        out,
        "{:<8} {:>16} {:>18}",
        "day", "with rollback", "without rollback"
    );
    for (i, (w, wo)) in ablation
        .final_coverage_with
        .iter()
        .zip(&ablation.final_coverage_without)
        .enumerate()
    {
        let _ = writeln!(out, "{:<8} {:>16.4} {:>18.4}", i, w, wo);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{table1_experiment, FigureExperimentConfig};

    #[test]
    fn table1_rendering_contains_every_type() {
        let rows = table1_experiment(1, 8);
        let text = render_table1(&rows);
        assert_eq!(text.lines().count(), 2 + rows.len());
        assert!(text.contains("Same Last Name"));
        assert!(text.contains("196.57"));
    }

    #[test]
    fn table2_rendering_matches_paper_constants() {
        let text = render_table2(&PayoffTable::paper_table2());
        assert!(text.contains("-2000"));
        assert!(text.contains("800"));
        assert_eq!(text.lines().count(), 2 + 7);
    }

    #[test]
    fn figure_rendering_is_nonempty_and_downsampled() {
        let output = crate::run_figure_experiment(&FigureExperimentConfig::quick(2, true));
        let text = render_figure("Figure 2 (quick)", &output, 10);
        assert!(text.contains("OSSP"));
        assert!(text.contains("summary"));
        // Down-sampling keeps the report bounded.
        assert!(text.lines().count() < 60);
    }

    #[test]
    fn runtime_and_rollback_renderings_work() {
        let stats = crate::runtime_experiment(3, 5);
        let text = render_runtime(&stats);
        assert!(text.contains("per-alert solve"));
        let ablation = crate::rollback_ablation(3, 5, 1);
        let text = render_rollback(&ablation);
        assert!(text.contains("with knowledge rollback"));
        assert!(text.contains("without knowledge rollback"));
    }
}
