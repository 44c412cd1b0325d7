//! End-to-end throughput measurement of the per-alert solve chain.
//!
//! Two modes over the same registered scenario workload:
//!
//! * **bulk** — replays the workload through the engine's sharded batch
//!   driver on the scenario's own backend (the exact sweep by default) and
//!   reports alerts per second and per-alert solve-latency percentiles;
//! * **streaming** — feeds the same alerts one at a time through
//!   [`sag_core::DaySession::push_alert`] (the production ingest shape) and
//!   reports p50/p99 *decision* latency: the full per-alert cost of forecast
//!   update, both worlds' SSE solves, the signaling scheme and the budget
//!   charge.
//!
//! The workload comes from the `sag-scenarios` registry (default:
//! `paper-baseline`), so this bench and `repro_scenarios` can never drift
//! apart on what they replay.
//!
//! The [`render_json`] output is written to `BENCH_1.json` by the
//! `repro_throughput` binary.

use sag_core::CycleResult;
use sag_scenarios::{find_scenario, run_scenario_sized, stream_scenario_sized};
use std::fmt::Write as _;

/// Configuration of a throughput run.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputConfig {
    /// RNG seed of the synthetic alert stream.
    pub seed: u64,
    /// Registry name of the scenario supplying the replayed workload.
    pub scenario: &'static str,
    /// Override of the scenario's history-day count (`None` = its default).
    pub history_days: Option<u32>,
    /// Override of the scenario's test-day count (`None` = its default).
    pub test_days: Option<u32>,
}

impl ThroughputConfig {
    /// The default workload: the `paper-baseline` scenario (the paper's
    /// 7-type game over a 15-day log) exactly as registered.
    #[must_use]
    pub fn default_workload(seed: u64) -> Self {
        ThroughputConfig {
            seed,
            scenario: "paper-baseline",
            history_days: None,
            test_days: None,
        }
    }
}

/// Per-alert decision-latency percentiles of the streaming ingest mode.
#[derive(Debug, Clone, Copy)]
pub struct StreamingLatencyReport {
    /// Alerts pushed through [`sag_core::DaySession::push_alert`].
    pub alerts: usize,
    /// Wall-clock time of the whole streamed replay, in seconds.
    pub wall_seconds: f64,
    /// Streamed alerts per second (single session at a time).
    pub alerts_per_sec: f64,
    /// Median per-alert decision latency, microseconds.
    pub p50_micros: f64,
    /// 99th-percentile per-alert decision latency, microseconds.
    pub p99_micros: f64,
    /// Mean per-alert decision latency, microseconds.
    pub mean_micros: f64,
}

/// Everything a throughput run measures.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputReport {
    /// Total alerts replayed across the test days.
    pub alerts: usize,
    /// Wall-clock time of the whole batched replay, in seconds.
    pub wall_seconds: f64,
    /// End-to-end alerts per second (replay work divided by wall time).
    pub alerts_per_sec: f64,
    /// Median per-alert solve latency (SSE + OSSP), microseconds.
    pub p50_micros: f64,
    /// 99th-percentile per-alert solve latency, microseconds.
    pub p99_micros: f64,
    /// Mean per-alert solve latency, microseconds.
    pub mean_micros: f64,
    /// Per-alert decision latency of the same workload streamed through
    /// [`sag_core::DaySession::push_alert`].
    pub streaming: StreamingLatencyReport,
}

/// Run the full throughput experiment.
///
/// # Panics
///
/// Panics if the configured scenario is not registered, its engine
/// configuration is rejected, or a replay fails — all workspace bugs rather
/// than user errors.
#[must_use]
pub fn throughput_experiment(config: &ThroughputConfig) -> ThroughputReport {
    let scenario = find_scenario(config.scenario)
        .unwrap_or_else(|| panic!("scenario {:?} is not registered", config.scenario));
    let history_days = config
        .history_days
        .unwrap_or_else(|| scenario.history_days());
    let test_days = config.test_days.unwrap_or_else(|| scenario.test_days());
    // Always a single shard: BENCH_1 tracks the *solve chain* (per-alert
    // latency) and must stay comparable across machines
    // with different core counts; multi-core scaling is BENCH_2's sharding
    // section.
    let run = run_scenario_sized(scenario.as_ref(), config.seed, 1, history_days, test_days)
        .expect("scenario replay succeeds");

    let streaming = streaming_experiment(config);
    summarize(&run.cycles, run.wall_seconds, streaming)
}

/// Stream the configured workload alert-at-a-time through
/// [`sag_core::DaySession`]s and summarize the per-alert decision latency.
///
/// # Panics
///
/// Panics if the configured scenario is not registered or the replay fails
/// (workspace bugs rather than user errors).
#[must_use]
pub fn streaming_experiment(config: &ThroughputConfig) -> StreamingLatencyReport {
    let scenario = find_scenario(config.scenario)
        .unwrap_or_else(|| panic!("scenario {:?} is not registered", config.scenario));
    let history_days = config
        .history_days
        .unwrap_or_else(|| scenario.history_days());
    let test_days = config.test_days.unwrap_or_else(|| scenario.test_days());
    let streamed = stream_scenario_sized(scenario.as_ref(), config.seed, history_days, test_days)
        .expect("streamed scenario replay succeeds");

    let mut micros: Vec<f64> = streamed
        .push_nanos
        .iter()
        .map(|&n| n as f64 / 1e3)
        .collect();
    micros.sort_unstable_by(f64::total_cmp);
    let alerts = micros.len();
    let percentile = |q: f64| -> f64 {
        if micros.is_empty() {
            return 0.0;
        }
        let rank = ((alerts - 1) as f64 * q).round() as usize;
        micros[rank]
    };
    let wall_seconds = streamed.run.wall_seconds;
    StreamingLatencyReport {
        alerts,
        wall_seconds,
        alerts_per_sec: if wall_seconds > 0.0 {
            alerts as f64 / wall_seconds
        } else {
            0.0
        },
        p50_micros: percentile(0.50),
        p99_micros: percentile(0.99),
        mean_micros: if alerts == 0 {
            0.0
        } else {
            micros.iter().sum::<f64>() / alerts as f64
        },
    }
}

/// Aggregate replayed cycles into a report.
fn summarize(
    cycles: &[CycleResult],
    wall_seconds: f64,
    streaming: StreamingLatencyReport,
) -> ThroughputReport {
    let mut latencies: Vec<u64> = cycles
        .iter()
        .flat_map(|c| c.outcomes.iter().map(|o| o.solve_micros))
        .collect();
    latencies.sort_unstable();
    let alerts = latencies.len();

    let percentile = |q: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let rank = ((alerts - 1) as f64 * q).round() as usize;
        latencies[rank] as f64
    };
    let mean_micros = if alerts == 0 {
        0.0
    } else {
        latencies.iter().map(|&v| v as f64).sum::<f64>() / alerts as f64
    };

    ThroughputReport {
        alerts,
        wall_seconds,
        alerts_per_sec: if wall_seconds > 0.0 {
            alerts as f64 / wall_seconds
        } else {
            0.0
        },
        p50_micros: percentile(0.50),
        p99_micros: percentile(0.99),
        mean_micros,
        streaming,
    }
}

/// Render the report as the machine-readable `BENCH_1.json` document.
#[must_use]
pub fn render_json(report: &ThroughputReport) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"per_alert_solve_chain_throughput\",");
    let _ = writeln!(out, "  \"alerts\": {},", report.alerts);
    let _ = writeln!(out, "  \"wall_seconds\": {:.6},", report.wall_seconds);
    let _ = writeln!(out, "  \"alerts_per_sec\": {:.2},", report.alerts_per_sec);
    let _ = writeln!(out, "  \"latency_micros\": {{");
    let _ = writeln!(out, "    \"p50\": {:.1},", report.p50_micros);
    let _ = writeln!(out, "    \"p99\": {:.1},", report.p99_micros);
    let _ = writeln!(out, "    \"mean\": {:.1}", report.mean_micros);
    let _ = writeln!(out, "  }},");
    let s = &report.streaming;
    let _ = writeln!(out, "  \"streaming\": {{");
    let _ = writeln!(out, "    \"alerts\": {},", s.alerts);
    let _ = writeln!(out, "    \"wall_seconds\": {:.6},", s.wall_seconds);
    let _ = writeln!(out, "    \"alerts_per_sec\": {:.2},", s.alerts_per_sec);
    let _ = writeln!(out, "    \"latency_micros\": {{");
    let _ = writeln!(out, "      \"p50\": {:.1},", s.p50_micros);
    let _ = writeln!(out, "      \"p99\": {:.1},", s.p99_micros);
    let _ = writeln!(out, "      \"mean\": {:.1}", s.mean_micros);
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "  }}");
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_throughput_run_produces_consistent_metrics() {
        let config = ThroughputConfig {
            seed: 5,
            scenario: "paper-baseline",
            history_days: Some(6),
            test_days: Some(2),
        };
        let report = throughput_experiment(&config);
        assert!(report.alerts > 100);
        assert!(report.alerts_per_sec > 0.0);
        assert!(report.p50_micros <= report.p99_micros);
        // The streaming leg replays the same workload alert-by-alert.
        assert_eq!(report.streaming.alerts, report.alerts);
        assert!(report.streaming.alerts_per_sec > 0.0);
        assert!(report.streaming.p50_micros > 0.0);
        assert!(report.streaming.p50_micros <= report.streaming.p99_micros);
        // A push includes the solve, so the decision latency cannot sit far
        // below the solve latency. The two medians come from independent
        // replays on a possibly noisy runner, so allow a generous relative
        // margin rather than a tight absolute one.
        assert!(
            report.streaming.p50_micros * 1.5 + 2.0 >= report.p50_micros,
            "streaming p50 {} implausibly below bulk solve p50 {}",
            report.streaming.p50_micros,
            report.p50_micros
        );
    }

    #[test]
    fn json_rendering_contains_every_metric() {
        let report = ThroughputReport {
            alerts: 1000,
            wall_seconds: 0.5,
            alerts_per_sec: 2000.0,
            p50_micros: 11.0,
            p99_micros: 42.0,
            mean_micros: 13.5,
            streaming: StreamingLatencyReport {
                alerts: 1000,
                wall_seconds: 0.6,
                alerts_per_sec: 1666.0,
                p50_micros: 15.5,
                p99_micros: 58.0,
                mean_micros: 18.0,
            },
        };
        let json = render_json(&report);
        for needle in [
            "\"alerts\": 1000",
            "\"alerts_per_sec\": 2000.00",
            "\"p50\": 11.0",
            "\"p99\": 42.0",
            "\"mean\": 13.5",
            "\"streaming\"",
            "\"alerts_per_sec\": 1666.00",
            "\"p50\": 15.5",
            "\"p99\": 58.0",
        ] {
            assert!(json.contains(needle), "missing `{needle}` in:\n{json}");
        }
        assert!(json.starts_with('{') && json.ends_with('}'));
        // The document must parse as JSON for scripts/check_perf.py; a
        // cheap structural proxy: balanced braces and no trailing commas.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert!(!json.contains(",\n}"), "trailing comma before a close");
    }
}
