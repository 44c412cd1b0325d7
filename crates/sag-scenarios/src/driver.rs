//! Replays scenarios through the engine and aggregates the metrics
//! `BENCH_2.json` tracks.
//!
//! Three replay modes:
//!
//! * [`run_scenario_sized`] — the sharded batch driver
//!   ([`AuditCycleEngine::replay_sharded`]), which streams each recorded day
//!   through a [`sag_core::DaySession`] internally; the throughput path.
//! * [`stream_scenario_sized`] — the explicit alert-at-a-time path: one
//!   [`sag_core::DaySession`] per day, one
//!   [`push_alert`](sag_core::engine::Session::push_alert) per alert, with
//!   the wall-clock decision latency of every push recorded. This is what a
//!   production deployment's ingest loop looks like, and what the streaming
//!   section of `BENCH_1.json` measures.
//! * [`run_scenario_service`] — the multi-tenant front-door path: the
//!   scenario instantiated as N tenants of one
//!   [`sag_service::AuditService`] (each tenant its own engine and alert
//!   stream), replayed concurrently over the service's worker pool. This is
//!   the `service_concurrent` section of `BENCH_2.json`, and — because
//!   every tenant's cycles are pure functions of its own stream — its
//!   results are bitwise identical to replaying each tenant serially.

use crate::scenario::Scenario;
use sag_cluster::ClusterBuilder;
use sag_core::engine::{AuditCycleEngine, EngineBuilder, ReplayJob};
use sag_core::{CycleResult, Result};
use sag_service::{AuditService, ServiceBuilder, ServiceError, ServiceJob, TenantId};
use std::time::Instant;

/// The outcome of replaying one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Registry name of the scenario.
    pub name: &'static str,
    /// Shard count the replay ran with.
    pub shards: usize,
    /// Wall-clock time of the sharded replay (excluding log generation).
    pub wall_seconds: f64,
    /// Per-day cycle results, in day order.
    pub cycles: Vec<CycleResult>,
}

impl ScenarioRun {
    /// Total alerts replayed.
    #[must_use]
    pub fn alerts(&self) -> usize {
        self.cycles.iter().map(CycleResult::len).sum()
    }

    /// End-to-end replay throughput in alerts per second.
    #[must_use]
    pub fn alerts_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.alerts() as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Alert-weighted mean of a per-outcome quantity. Weighting by alert
    /// count means zero-alert days contribute nothing — empty days can never
    /// skew a scenario average (they would under a day-weighted mean).
    fn mean_outcome(&self, value: impl Fn(&sag_core::AlertOutcome) -> f64) -> f64 {
        let alerts = self.alerts();
        if alerts == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .cycles
            .iter()
            .flat_map(|c| c.outcomes.iter())
            .map(value)
            .sum();
        sum / alerts as f64
    }

    /// Mean per-alert auditor utility under the OSSP.
    #[must_use]
    pub fn mean_ossp(&self) -> f64 {
        self.mean_outcome(|o| o.ossp_utility)
    }

    /// Mean per-alert auditor utility under the online SSE.
    #[must_use]
    pub fn mean_online(&self) -> f64 {
        self.mean_outcome(|o| o.online_sse_utility)
    }

    /// Mean per-alert auditor utility under the offline SSE baseline.
    #[must_use]
    pub fn mean_offline(&self) -> f64 {
        self.mean_outcome(|o| o.offline_sse_utility)
    }

    /// Fraction of alerts where the OSSP is no worse than the online SSE.
    #[must_use]
    pub fn fraction_ossp_not_worse(&self) -> f64 {
        self.mean_outcome(|o| f64::from(u8::from(o.ossp_utility >= o.online_sse_utility - 1e-9)))
    }

    /// Fraction of alerts on which the OSSP fully deterred the attack.
    #[must_use]
    pub fn fraction_deterred(&self) -> f64 {
        self.mean_outcome(|o| f64::from(u8::from(o.ossp_deterred)))
    }
}

/// Replay `scenario` with its own evaluation layout.
///
/// # Errors
///
/// Propagates engine construction and solver errors.
pub fn run_scenario(scenario: &dyn Scenario, seed: u64, shards: usize) -> Result<ScenarioRun> {
    run_scenario_sized(
        scenario,
        seed,
        shards,
        scenario.history_days(),
        scenario.test_days(),
    )
}

/// Replay `scenario` with an explicit evaluation layout: `history_days` of
/// fitted history ahead of each of `test_days` rolling test days.
///
/// # Errors
///
/// Propagates engine construction and solver errors.
pub fn run_scenario_sized(
    scenario: &dyn Scenario,
    seed: u64,
    shards: usize,
    history_days: u32,
    test_days: u32,
) -> Result<ScenarioRun> {
    let engine = AuditCycleEngine::new(scenario.engine_config())?;
    let days = scenario.generate_days(seed, history_days + test_days);
    let log = sag_sim::AlertLog::new(days);
    let groups = log.rolling_groups(history_days as usize);
    let jobs: Vec<ReplayJob<'_>> = groups
        .iter()
        .map(|&(history, test_day)| ReplayJob {
            history,
            test_day,
            budget: scenario.budget_for_day(test_day.day()),
        })
        .collect();

    let started = Instant::now();
    let cycles = engine.replay_sharded(&jobs, shards)?;
    let wall_seconds = started.elapsed().as_secs_f64();

    Ok(ScenarioRun {
        name: scenario.name(),
        shards,
        wall_seconds,
        cycles,
    })
}

/// A scenario streamed alert-by-alert through [`sag_core::DaySession`]s,
/// with the per-alert decision latency of every push recorded.
#[derive(Debug, Clone)]
pub struct StreamingRun {
    /// The batch-shaped view of the streamed replay (always 1 shard).
    pub run: ScenarioRun,
    /// Wall-clock latency of each [`push_alert`](sag_core::DaySession::push_alert)
    /// call, in nanoseconds, in arrival order across all replayed days. This
    /// is the full decision latency: forecast update, both worlds' SSE
    /// solves, signaling scheme and budget charge.
    pub push_nanos: Vec<u64>,
}

/// Stream `scenario` alert-at-a-time with an explicit evaluation layout:
/// open a [`sag_core::DaySession`] per test day, push every alert of the
/// recorded day individually, and time each push.
///
/// The resulting [`CycleResult`]s are bitwise identical to
/// [`run_scenario_sized`] at any shard count — the batch driver is a wrapper
/// over the same sessions — so this mode only adds the latency telemetry.
///
/// # Errors
///
/// Propagates engine construction and solver errors.
pub fn stream_scenario_sized(
    scenario: &dyn Scenario,
    seed: u64,
    history_days: u32,
    test_days: u32,
) -> Result<StreamingRun> {
    let engine = AuditCycleEngine::new(scenario.engine_config())?;
    let days = scenario.generate_days(seed, history_days + test_days);
    let log = sag_sim::AlertLog::new(days);
    let groups = log.rolling_groups(history_days as usize);

    let mut cycles = Vec::with_capacity(groups.len());
    let mut push_nanos = Vec::with_capacity(log.total_alerts());
    let started = Instant::now();
    for (history, test_day) in groups {
        let mut session = engine.open_day(history, scenario.budget_for_day(test_day.day()))?;
        session.set_day(test_day.day());
        for alert in test_day.alerts() {
            let arrived = Instant::now();
            session.push_alert(alert)?;
            push_nanos.push(arrived.elapsed().as_nanos() as u64);
        }
        cycles.push(session.finish());
    }
    let wall_seconds = started.elapsed().as_secs_f64();

    Ok(StreamingRun {
        run: ScenarioRun {
            name: scenario.name(),
            shards: 1,
            wall_seconds,
            cycles,
        },
        push_nanos,
    })
}

/// A scenario replayed as N concurrent tenants of one
/// [`sag_service::AuditService`]: each tenant gets its own engine and its
/// own seeded alert stream, and every tenant-day replays as one
/// [`ServiceJob`] over the service's worker pool.
#[derive(Debug, Clone)]
pub struct ServiceRun {
    /// Registry name of the scenario.
    pub name: &'static str,
    /// Number of tenants the service multiplexed.
    pub tenants: usize,
    /// Worker threads of the service pool (0 = inline serial replay).
    pub workers: usize,
    /// Wall-clock time of the concurrent replay (excluding log generation
    /// and service construction).
    pub wall_seconds: f64,
    /// Per-tenant, per-day cycle results: `cycles[t]` holds tenant `t`'s
    /// days in day order.
    pub cycles: Vec<Vec<CycleResult>>,
}

impl ServiceRun {
    /// Total alerts replayed across all tenants.
    #[must_use]
    pub fn alerts(&self) -> usize {
        self.cycles.iter().flatten().map(CycleResult::len).sum()
    }

    /// End-to-end service throughput in alerts per second.
    #[must_use]
    pub fn alerts_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.alerts() as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

/// Replay `scenario` as `tenants` concurrent tenants of one service, each
/// on its own stream seeded `seed + tenant_index`.
///
/// # Errors
///
/// Propagates service construction and engine errors.
pub fn run_scenario_service(
    scenario: &dyn Scenario,
    seed: u64,
    tenants: usize,
    workers: usize,
    history_days: u32,
    test_days: u32,
) -> std::result::Result<ServiceRun, ServiceError> {
    let config = scenario.engine_config();

    let tenant_ids: Vec<TenantId> = (0..tenants)
        .map(|t| TenantId::new(format!("{}-t{t}", scenario.name())))
        .collect();
    let mut builder = AuditService::builder().workers(workers);
    for id in &tenant_ids {
        // History rides on the jobs (it varies per rolling group), so the
        // tenants register with empty stored history.
        builder = builder.tenant(id.clone(), EngineBuilder::from_config(config.clone()));
    }
    let service = builder.build()?;

    // Each tenant audits its own alert stream: same regime, distinct seed.
    let logs: Vec<sag_sim::AlertLog> = (0..tenants)
        .map(|t| {
            sag_sim::AlertLog::new(
                scenario.generate_days(seed + t as u64, history_days + test_days),
            )
        })
        .collect();
    let groups: Vec<Vec<(&[sag_sim::DayLog], &sag_sim::DayLog)>> = logs
        .iter()
        .map(|log| log.rolling_groups(history_days as usize))
        .collect();
    let jobs: Vec<ServiceJob<'_>> = tenant_ids
        .iter()
        .zip(&groups)
        .flat_map(|(id, tenant_groups)| {
            tenant_groups
                .iter()
                .map(move |&(history, test_day)| ServiceJob {
                    tenant: id,
                    test_day,
                    budget: scenario.budget_for_day(test_day.day()),
                    history: Some(history),
                })
        })
        .collect();

    let started = Instant::now();
    let mut flat = service.replay_concurrent(&jobs)?;
    let wall_seconds = started.elapsed().as_secs_f64();

    // Un-flatten the job-ordered results back into per-tenant day vectors
    // (jobs were emitted tenant-major).
    let mut cycles = Vec::with_capacity(tenants);
    for tenant_groups in &groups {
        let rest = flat.split_off(tenant_groups.len());
        cycles.push(flat);
        flat = rest;
    }

    Ok(ServiceRun {
        name: scenario.name(),
        tenants,
        workers: service.workers(),
        wall_seconds,
        cycles,
    })
}

/// One tenant of a [`TenantFleet`]: its id and the recorded test days a
/// client should stream at the service.
#[derive(Debug, Clone)]
pub struct FleetTenant {
    /// The tenant's service id (`"{scenario}-t{index}"`).
    pub id: TenantId,
    /// The tenant's test days, in day order (history is already registered
    /// on the service).
    pub test_days: Vec<sag_sim::DayLog>,
}

/// A scenario instantiated as a multi-tenant [`AuditService`] plus the
/// per-tenant alert streams to drive at it — the shared setup of the
/// `sag-net` server binary, the network load generator, and the loopback
/// equivalence tests.
///
/// Tenant `t` is named `"{scenario}-t{t}"` and streams days seeded
/// `seed + t`, the same convention as [`run_scenario_service`], so results
/// line up across replay modes. Unlike the batch driver (where rolling
/// history rides on each [`ServiceJob`]), every tenant registers its
/// `history_days` of history up front and all test days replay against
/// that fixed window — the convention a wire client can actually follow,
/// since [`sag_service::Request::OpenDay`] sources history from the
/// service, not the request.
#[derive(Debug)]
pub struct TenantFleet {
    /// The built service, one registered tenant per fleet entry.
    pub service: AuditService,
    /// The fleet, in tenant-index order.
    pub tenants: Vec<FleetTenant>,
}

/// Build a [`TenantFleet`]: `tenants` instances of `scenario`, each with
/// `history_days` of registered history and `test_days` recorded days to
/// stream.
///
/// # Errors
///
/// Propagates service construction and engine-configuration errors.
pub fn tenant_fleet(
    scenario: &dyn Scenario,
    seed: u64,
    tenants: usize,
    history_days: u32,
    test_days: u32,
) -> std::result::Result<TenantFleet, ServiceError> {
    let (builder, fleet) = tenant_fleet_parts(scenario, seed, tenants, history_days, test_days);
    Ok(TenantFleet {
        service: builder.build()?,
        tenants: fleet,
    })
}

/// The unbuilt half of [`tenant_fleet`]: the populated [`ServiceBuilder`]
/// plus the per-tenant streams. Callers that need to decorate the service
/// before building — a WAL directory, a worker count, a recovery
/// (`recover_from`) instead of a fresh build — finish it themselves; the
/// tenant naming and seeding convention stays identical to
/// [`tenant_fleet`], so results remain comparable across entry points.
#[must_use]
pub fn tenant_fleet_parts(
    scenario: &dyn Scenario,
    seed: u64,
    tenants: usize,
    history_days: u32,
    test_days: u32,
) -> (ServiceBuilder, Vec<FleetTenant>) {
    let config = scenario.engine_config();
    let mut builder = AuditService::builder();
    let mut fleet = Vec::with_capacity(tenants);
    for t in 0..tenants {
        let id = TenantId::new(format!("{}-t{t}", scenario.name()));
        let mut days = scenario.generate_days(seed + t as u64, history_days + test_days);
        let test = days.split_off(history_days as usize);
        builder = builder.tenant_with_history(
            id.clone(),
            EngineBuilder::from_config(config.clone()),
            days,
        );
        fleet.push(FleetTenant {
            id,
            test_days: test,
        });
    }
    (builder, fleet)
}

/// The sharded counterpart of [`tenant_fleet_parts`]: the same fleet —
/// identical tenant names, seeds, histories, and test-day streams — loaded
/// into a [`ClusterBuilder`] over `shards` consistent-hashed shards instead
/// of one [`ServiceBuilder`]. Because the naming and seeding convention is
/// shared, a cluster built from these parts must produce per-tenant results
/// bitwise identical to the unsharded fleet's at any shard count; the
/// registry-wide suites in this crate's tests hold it to that.
///
/// Callers finish the builder themselves (`workers`,
/// `durable`/`recover_from`, or per-shard `recover_shard`), exactly like
/// the unsharded parts function.
#[must_use]
pub fn tenant_fleet_cluster_parts(
    scenario: &dyn Scenario,
    seed: u64,
    tenants: usize,
    history_days: u32,
    test_days: u32,
    shards: usize,
) -> (ClusterBuilder, Vec<FleetTenant>) {
    let config = scenario.engine_config();
    let mut builder = ClusterBuilder::new(shards);
    let mut fleet = Vec::with_capacity(tenants);
    for t in 0..tenants {
        let id = TenantId::new(format!("{}-t{t}", scenario.name()));
        let mut days = scenario.generate_days(seed + t as u64, history_days + test_days);
        let test = days.split_off(history_days as usize);
        builder = builder.tenant_with_history(
            id.clone(),
            EngineBuilder::from_config(config.clone()),
            days,
        );
        fleet.push(FleetTenant {
            id,
            test_days: test,
        });
    }
    (builder, fleet)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::{BudgetShocks, PaperBaseline};

    #[test]
    fn baseline_run_produces_one_cycle_per_test_day() {
        let run = run_scenario_sized(&PaperBaseline, 11, 1, 6, 3).unwrap();
        assert_eq!(run.cycles.len(), 3);
        assert!(run.alerts() > 300);
        assert!(run.alerts_per_sec() > 0.0);
        assert!((run.fraction_ossp_not_worse() - 1.0).abs() < 1e-12);
        assert!(run.mean_ossp() >= run.mean_online());
        let solves: u64 = run.cycles.iter().map(|c| c.sse_totals.solves).sum();
        assert_eq!(solves as usize, run.alerts());
    }

    #[test]
    fn streaming_run_matches_the_batch_driver_bitwise() {
        let batch = run_scenario_sized(&PaperBaseline, 19, 1, 5, 2).unwrap();
        let streamed = stream_scenario_sized(&PaperBaseline, 19, 5, 2).unwrap();
        assert_eq!(streamed.push_nanos.len(), batch.alerts());
        assert_eq!(streamed.run.cycles, batch.cycles);
    }

    #[test]
    fn service_mode_multiplexes_tenants_and_matches_the_batch_driver() {
        // Three tenants on the baseline regime, concurrent over a 2-worker
        // pool, against three serial single-tenant replays on the same
        // seeds: bitwise identical.
        let service = run_scenario_service(&PaperBaseline, 23, 3, 2, 5, 2).unwrap();
        assert_eq!(service.cycles.len(), 3);
        assert!(service.alerts() > 500);
        assert!(service.alerts_per_sec() > 0.0);
        assert_eq!(service.workers, 2);
        for (t, tenant_cycles) in service.cycles.iter().enumerate() {
            let serial = run_scenario_sized(&PaperBaseline, 23 + t as u64, 1, 5, 2).unwrap();
            assert_eq!(*tenant_cycles, serial.cycles, "tenant {t}");
        }
    }

    #[test]
    fn budget_shocks_apply_the_schedule() {
        let run = run_scenario_sized(&BudgetShocks, 7, 1, 6, 4).unwrap();
        // Test days are 6..10: 6 % 4 == 2 -> surge (x1.5), 8 % 4 == 0 ->
        // shock (x0.3), 7 and 9 run at the base budget.
        let by_day: Vec<(u32, f64)> = run
            .cycles
            .iter()
            .map(|c| {
                (
                    c.day,
                    c.outcomes.first().map_or(0.0, |o| o.budget_after_ossp),
                )
            })
            .collect();
        for (day, budget_after_first) in by_day {
            let cap = 50.0 * BudgetShocks::budget_multiplier(day);
            assert!(
                budget_after_first <= cap + 1e-9,
                "day {day}: remaining {budget_after_first} exceeds scheduled cap {cap}"
            );
        }
    }
}
