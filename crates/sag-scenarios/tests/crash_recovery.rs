//! Crash-recovery equivalence across the registry: kill a durable
//! `AuditService` at deterministic alert indices — with clean cuts and
//! torn final records — recover from the surviving WAL bytes, finish the
//! day, and require the result bitwise identical to the uninterrupted run.
//! Runs every registry scenario on both solver backends, so durability
//! inherits the same equivalence contract concurrency has.

mod common;

use common::OnTheLpBackend;
use sag_core::engine::EngineBuilder;
use sag_core::CycleResult;
use sag_scenarios::{registry, Scenario};
use sag_service::{
    AuditService, DurabilityOptions, FailpointFs, MemFs, Request, Response, ServiceError, TenantId,
};
use sag_sim::DayLog;

const SEED: u64 = 2027;
const HISTORY_DAYS: u32 = 4;

/// How the process dies at the chosen alert.
#[derive(Debug, Clone, Copy)]
enum Crash {
    /// The process is killed between appends: the WAL ends on a complete
    /// record boundary.
    Clean,
    /// The kill lands mid-append, `offset` bytes into the alert's frame —
    /// the torn final record recovery must discard.
    Torn { offset: usize },
}

fn builder_for(
    scenario: &dyn Scenario,
    history: Vec<DayLog>,
) -> (sag_service::ServiceBuilder, TenantId) {
    let tenant = TenantId::new(format!("{}-t0", scenario.name()));
    let builder = AuditService::builder().workers(0).tenant_with_history(
        tenant.clone(),
        EngineBuilder::from_config(scenario.engine_config()),
        history,
    );
    (builder, tenant)
}

fn drive_day(
    service: &mut AuditService,
    tenant: &TenantId,
    test_day: &DayLog,
    budget: Option<f64>,
) -> CycleResult {
    let Response::DayOpened { session, .. } = service
        .handle(Request::OpenDay {
            tenant: tenant.clone(),
            budget,
            day: Some(test_day.day()),
        })
        .expect("day opens")
    else {
        panic!("unexpected response");
    };
    for alert in test_day.alerts() {
        service
            .handle(Request::PushAlert {
                session,
                alert: *alert,
            })
            .expect("alert processes");
    }
    let Response::DayClosed { result, .. } = service
        .handle(Request::FinishDay { session })
        .expect("day closes")
    else {
        panic!("unexpected response");
    };
    result
}

/// Kill a durable run of `test_day` at alert `kill_alert`, recover from the
/// surviving bytes, resume where the recovered session says it stopped,
/// and return the finished result.
fn crashed_and_recovered(
    scenario: &dyn Scenario,
    history: &[DayLog],
    test_day: &DayLog,
    budget: Option<f64>,
    kill_alert: usize,
    crash: Crash,
) -> CycleResult {
    let store = MemFs::new();
    let options = DurabilityOptions::no_fsync();

    {
        let (builder, tenant) = builder_for(scenario, history.to_vec());
        // WAL appends: #0 header, #1 OpenDay, #2 + i for alert i.
        let fs: Box<dyn sag_service::WalFs> = match crash {
            Crash::Clean => Box::new(store.clone()),
            Crash::Torn { offset } => Box::new(
                FailpointFs::new(store.clone()).kill_at_append(2 + kill_alert as u64, offset),
            ),
        };
        let mut service = builder
            .durable_on(fs, options)
            .build()
            .expect("durable build");
        let Response::DayOpened { session, .. } = service
            .handle(Request::OpenDay {
                tenant,
                budget,
                day: Some(test_day.day()),
            })
            .expect("day opens")
        else {
            panic!("unexpected response");
        };
        for alert in test_day.alerts().iter().take(match crash {
            // A clean kill stops before the chosen alert's append.
            Crash::Clean => kill_alert,
            // A torn kill dies inside it; push until the injected error.
            Crash::Torn { .. } => test_day.len(),
        }) {
            match service.handle(Request::PushAlert {
                session,
                alert: *alert,
            }) {
                Ok(_) => {}
                Err(ServiceError::Wal(_)) => break,
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        // The process dies here; only `store`'s bytes survive.
    }

    let (builder, _tenant) = builder_for(scenario, history.to_vec());
    let mut recovered = builder
        .recover_on(Box::new(store), options)
        .expect("recovers");
    let session = recovered
        .open_session_ids()
        .next()
        .expect("mid-day session recovered");
    let done = recovered
        .session(session)
        .expect("session visible")
        .alerts_processed();
    assert!(
        done == kill_alert || matches!(crash, Crash::Torn { .. }) && done == kill_alert + 1,
        "{}: recovered {done} alerts after a kill at {kill_alert} ({crash:?})",
        scenario.name()
    );
    for alert in &test_day.alerts()[done..] {
        recovered
            .handle(Request::PushAlert {
                session,
                alert: *alert,
            })
            .expect("resumed alert processes");
    }
    let Response::DayClosed { result, .. } = recovered
        .handle(Request::FinishDay { session })
        .expect("day closes")
    else {
        panic!("unexpected response");
    };
    result
}

fn assert_crash_recovery_equivalence(scenario: &dyn Scenario) {
    let days = scenario.generate_days(SEED, HISTORY_DAYS + 1);
    let (history, test_day) = days.split_at(HISTORY_DAYS as usize);
    let test_day = &test_day[0];
    let budget = scenario.budget_for_day(test_day.day());

    let (builder, tenant) = builder_for(scenario, history.to_vec());
    let mut control_service = builder.build().expect("control build");
    let control = drive_day(&mut control_service, &tenant, test_day, budget);

    let n = test_day.len();
    assert!(n >= 2, "{}: day too small to crash inside", scenario.name());
    // Deterministic "random" kill points: first, an interior index derived
    // from the scenario name, and last — with a clean cut, a mid-frame
    // tear, and a tear past the frame (record lands, acknowledgement dies).
    let interior = 1 + (scenario.name().bytes().map(u64::from).sum::<u64>() as usize) % (n - 1);
    let cases = [
        (0, Crash::Clean),
        (interior, Crash::Torn { offset: 9 }),
        (
            n - 1,
            Crash::Torn {
                offset: usize::MAX / 2,
            },
        ),
    ];
    for (kill_alert, crash) in cases {
        let recovered =
            crashed_and_recovered(scenario, history, test_day, budget, kill_alert, crash);
        assert_eq!(
            recovered,
            control,
            "{}: recovery after kill at alert {kill_alert} ({crash:?}) diverged",
            scenario.name()
        );
    }
}

#[test]
fn crash_recovery_matches_uninterrupted_on_the_auto_backend() {
    for scenario in registry() {
        assert_crash_recovery_equivalence(scenario.as_ref());
    }
}

#[test]
fn crash_recovery_matches_uninterrupted_on_the_lp_backend() {
    for scenario in registry() {
        assert_crash_recovery_equivalence(&OnTheLpBackend::new(scenario.as_ref(), HISTORY_DAYS));
    }
}
