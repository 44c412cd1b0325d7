//! # sag-bench — experiment harness for the SAG reproduction
//!
//! One module per concern:
//!
//! * [`experiments`] — the workload generators and experiment drivers that
//!   regenerate every table and figure of the paper (`DESIGN.md`'s
//!   "Experiment index" maps each `repro_*` binary to what it reproduces);
//! * [`report`] — plain-text/CSV rendering of the results, used by the
//!   `repro_*` binaries.
//!
//! The Criterion benches under `benches/` measure the computational cost of
//! the same code paths (per-alert optimization time, LP solves, stream
//! generation), which is the paper's runtime claim (`repro_runtime`).

#![forbid(unsafe_code)]

pub mod cluster;
pub mod experiments;
pub mod netload;
pub mod report;
pub mod scenario_suite;
pub mod setup;
pub mod sweeps;
pub mod throughput;

pub use cluster::{cluster_scaling_report, ClusterScalePoint, ClusterScalingReport};
pub use experiments::{
    figure2_experiment, figure3_experiment, rollback_ablation, run_figure_experiment,
    runtime_experiment, table1_experiment, ExperimentOutput, FigureExperimentConfig,
    RollbackAblation, RuntimeStats, Table1Row,
};
pub use netload::{
    merge_service_chaos, merge_service_network, render_chaos_json, render_network_json,
    run_chaos_load, run_kill_recover, run_network_load, ChaosLoadConfig, ChaosLoadReport,
    KillRecoverReport, LatencyMicros, NetLoadConfig, NetLoadReport, ShardLoadReport,
    ShedProbeReport,
};
pub use scenario_suite::{
    render_suite_json, scenario_suite, ScenarioReport, ScenarioSuiteReport, ShardingReport,
    SuiteConfig,
};
pub use sweeps::{budget_sweep, rolling_groups_parallel, BudgetSweepPoint, GroupResult};
pub use throughput::{
    streaming_experiment, throughput_experiment, StreamingLatencyReport, ThroughputConfig,
    ThroughputReport,
};
