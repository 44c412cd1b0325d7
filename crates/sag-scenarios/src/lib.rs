//! # sag-scenarios — named workloads for the Signaling Audit Game
//!
//! The paper evaluates on a single hospital access-log workload: stationary
//! Poisson-like arrivals, one attacker payoff structure, a flat per-cycle
//! budget, and a perfect warning channel. Production deployments face much
//! messier regimes — bursty alert cascades, populations whose alert mix
//! drifts week over week, budget cuts, warnings that leak, and federations
//! of heterogeneous sites. This crate opens that workload dimension:
//!
//! * [`Scenario`] — the trait a workload implements: a name, a log/arrival
//!   generator, the game (payoffs, costs, attacker structure), a per-day
//!   budget schedule, and the engine knobs (forecast weighting, signal
//!   noise) it should be replayed with;
//! * [`library`] — six concrete scenarios, from the paper's baseline to a
//!   two-hospital federation (see the module docs for the full list);
//! * [`registry`](mod@registry) — the canonical list of registered
//!   scenarios, which the `repro_scenarios` benchmark replays end to end;
//! * [`driver`] — runs a scenario through the engine's sharded replay
//!   ([`sag_core::engine::AuditCycleEngine::replay_sharded`]) or streams it
//!   alert-at-a-time through [`sag_core::DaySession`]s (recording per-alert
//!   decision latency), and aggregates throughput, solver-work and utility
//!   metrics.
//!
//! Results are deterministic: a scenario replayed with any shard count, with
//! or without the `parallel` feature, produces bitwise-identical
//! [`sag_core::CycleResult`]s (only wall-clock time changes).

#![forbid(unsafe_code)]

pub mod driver;
pub mod library;
pub mod registry;
pub mod scenario;

pub use driver::{
    run_scenario, run_scenario_service, run_scenario_sized, stream_scenario_sized, tenant_fleet,
    tenant_fleet_cluster_parts, tenant_fleet_parts, FleetTenant, ScenarioRun, ServiceRun,
    StreamingRun, TenantFleet,
};
pub use registry::{find_scenario, registry};
pub use scenario::Scenario;
