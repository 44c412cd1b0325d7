//! Multi-tenant concurrency equivalence: N tenants' owned sessions, driven
//! interleaved — round-robin through one driver loop and fanned out over
//! `sag-pool` worker threads — produce `CycleResult`s bitwise identical to
//! serial per-tenant replay, across the full scenario registry and both
//! solver backends. This is the contract that makes the `AuditService`
//! front door safe to scale: concurrency and multiplexing change wall-clock
//! time, never results.

mod common;

use common::OnTheLpBackend;
use sag_core::engine::EngineBuilder;
use sag_core::CycleResult;
use sag_scenarios::{registry, run_scenario_service, run_scenario_sized, Scenario};
use sag_service::{AuditService, SessionHandle, TenantId};
use std::collections::HashMap;

const SEED: u64 = 2027;
const TENANTS: usize = 3;
const HISTORY_DAYS: u32 = 4;
const TEST_DAYS: u32 = 2;

/// Serial per-tenant reference: each tenant replayed alone, one shard, on
/// its own seed — the ground truth the concurrent paths must reproduce.
fn serial_reference(scenario: &dyn Scenario) -> Vec<Vec<CycleResult>> {
    (0..TENANTS)
        .map(|t| {
            run_scenario_sized(scenario, SEED + t as u64, 1, HISTORY_DAYS, TEST_DAYS)
                .expect("serial replay")
                .cycles
        })
        .collect()
}

/// The pool-threaded leg: tenants fanned out over the service's `sag-pool`
/// workers via `replay_concurrent`.
fn assert_pool_equivalence(scenario: &dyn Scenario) {
    let reference = serial_reference(scenario);
    let service = run_scenario_service(scenario, SEED, TENANTS, 4, HISTORY_DAYS, TEST_DAYS)
        .expect("service replay");
    assert_eq!(service.tenants, TENANTS);
    assert_eq!(service.workers, 4);
    let concurrent: Vec<Vec<CycleResult>> = service.cycles;
    assert_eq!(
        concurrent,
        reference,
        "{}: pool-threaded service replay diverged from serial",
        scenario.name()
    );
}

/// The single-loop leg: owned handles for all tenants held in one map and
/// fed strictly round-robin, one alert per tenant per turn — the maximally
/// interleaved schedule a multiplexing driver loop can produce.
fn assert_interleaved_equivalence(scenario: &dyn Scenario) {
    let reference = serial_reference(scenario);

    let config = scenario.engine_config();
    let tenant_ids: Vec<TenantId> = (0..TENANTS)
        .map(|t| TenantId::new(format!("{}-t{t}", scenario.name())))
        .collect();
    let mut builder = AuditService::builder().workers(0);
    for id in &tenant_ids {
        builder = builder.tenant(id.clone(), EngineBuilder::from_config(config.clone()));
    }
    let service = builder.build().expect("tenant configs are valid");

    let logs: Vec<sag_sim::AlertLog> = (0..TENANTS)
        .map(|t| {
            sag_sim::AlertLog::new(
                scenario.generate_days(SEED + t as u64, HISTORY_DAYS + TEST_DAYS),
            )
        })
        .collect();
    let groups: Vec<Vec<(&[sag_sim::DayLog], &sag_sim::DayLog)>> = logs
        .iter()
        .map(|log| log.rolling_groups(HISTORY_DAYS as usize))
        .collect();
    let days_per_tenant = groups[0].len();

    let mut results: Vec<Vec<CycleResult>> = vec![Vec::new(); TENANTS];
    // `day_index` picks the same rolling group out of every tenant's log,
    // so the range loop is the honest shape here.
    #[allow(clippy::needless_range_loop)]
    for day_index in 0..days_per_tenant {
        // Open every tenant's cycle for this day, park the owned handles in
        // a map, and round-robin one alert at a time across all of them.
        let mut open: HashMap<usize, SessionHandle> = HashMap::new();
        let mut feeds: Vec<std::slice::Iter<'_, sag_sim::Alert>> = Vec::new();
        for (t, id) in tenant_ids.iter().enumerate() {
            let (history, test_day) = groups[t][day_index];
            let mut handle = service
                .open_day_with_history(id, history, scenario.budget_for_day(test_day.day()))
                .expect("session opens");
            handle.set_day(test_day.day());
            open.insert(t, handle);
            feeds.push(test_day.alerts().iter());
        }
        loop {
            let mut progressed = false;
            for (t, feed) in feeds.iter_mut().enumerate() {
                if let Some(alert) = feed.next() {
                    open.get_mut(&t)
                        .expect("handle parked")
                        .push_alert(alert)
                        .expect("alert processes");
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        for (t, tenant_results) in results.iter_mut().enumerate() {
            let handle = open.remove(&t).expect("handle parked");
            tenant_results.push(handle.finish());
        }
    }

    assert_eq!(
        results,
        reference,
        "{}: interleaved driver loop diverged from serial",
        scenario.name()
    );
}

#[test]
fn pool_threaded_service_replay_matches_serial_on_the_auto_backend() {
    for scenario in registry() {
        assert_pool_equivalence(scenario.as_ref());
    }
}

#[test]
fn pool_threaded_service_replay_matches_serial_on_the_lp_backend() {
    for scenario in registry() {
        assert_pool_equivalence(&OnTheLpBackend::new(scenario.as_ref(), HISTORY_DAYS));
    }
}

#[test]
fn interleaved_owned_sessions_match_serial_on_the_auto_backend() {
    for scenario in registry() {
        assert_interleaved_equivalence(scenario.as_ref());
    }
}

#[test]
fn interleaved_owned_sessions_match_serial_on_the_lp_backend() {
    for scenario in registry() {
        assert_interleaved_equivalence(&OnTheLpBackend::new(scenario.as_ref(), HISTORY_DAYS));
    }
}
