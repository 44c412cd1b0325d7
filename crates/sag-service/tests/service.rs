//! Front-door integration tests: owned handles across threads, the command
//! loop multiplexing tenants, and concurrent batch replay — all bitwise
//! against the engine's own `run_day`.

use sag_core::{AuditCycleEngine, ConfigError, CycleResult, EngineBuilder, SagError};
use sag_service::{
    AuditService, CountersSnapshot, DurabilityOptions, Handled, MemFs, Request, Response,
    ServiceBuilder, ServiceError, ServiceJob, SessionId, TenantId,
};
use sag_sim::{DayLog, StreamConfig, StreamGenerator};
use std::collections::HashMap;

fn multi_type_logs(seed: u64) -> (Vec<DayLog>, DayLog) {
    let mut gen = StreamGenerator::new(StreamConfig::paper_multi_type(seed));
    let (history, mut tests) = gen.generate_split(8, 1);
    (history, tests.remove(0))
}

fn single_type_logs(seed: u64) -> (Vec<DayLog>, DayLog) {
    let mut gen = StreamGenerator::new(StreamConfig::paper_single_type(seed));
    let (history, mut tests) = gen.generate_split(8, 1);
    (history, tests.remove(0))
}

/// The engine's batch answer for the same logs, for bitwise comparison.
fn reference(engine: &AuditCycleEngine, history: &[DayLog], day: &DayLog) -> CycleResult {
    engine.run_day(history, day).unwrap()
}

#[test]
fn session_handles_live_in_maps_move_across_threads_and_match_run_day() {
    let tenants: Vec<(TenantId, Vec<DayLog>, DayLog)> = (0..4)
        .map(|t| {
            let (history, day) = multi_type_logs(100 + t);
            (TenantId::new(format!("site-{t}")), history, day)
        })
        .collect();

    let mut builder = AuditService::builder().workers(0);
    for (id, history, _) in &tenants {
        builder = builder.tenant_with_history(
            id.clone(),
            EngineBuilder::paper_multi_type(),
            history.clone(),
        );
    }
    let service = builder.build().unwrap();

    // Owned handles: opened into a map, then moved wholesale onto threads.
    let mut open: HashMap<TenantId, sag_service::SessionHandle> = HashMap::new();
    for (id, _, _) in &tenants {
        open.insert(id.clone(), service.open_day(id, None).unwrap());
    }
    let results: Vec<(TenantId, CycleResult)> = std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter()
            .map(|(id, _, day)| {
                let handle = open.remove(id).unwrap();
                scope.spawn(move || (id.clone(), handle.drive(day).unwrap()))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for ((id, result), (_, history, day)) in results.into_iter().zip(&tenants) {
        let engine = service.engine(&id).unwrap();
        assert_eq!(result, reference(engine, history, day), "tenant {id}");
    }
}

#[test]
fn command_loop_multiplexes_heterogeneous_tenants_bitwise() {
    let (hospital_history, hospital_day) = multi_type_logs(7);
    let (clinic_history, clinic_day) = single_type_logs(7);
    let mut service = AuditService::builder()
        .workers(0)
        .tenant_with_history(
            "hospital",
            EngineBuilder::paper_multi_type(),
            hospital_history.clone(),
        )
        .tenant_with_history(
            "clinic",
            EngineBuilder::paper_single_type().budget(12.0),
            clinic_history.clone(),
        )
        .build()
        .unwrap();

    let open = |service: &mut AuditService, tenant: &str, day: u32| match service
        .handle(Request::OpenDay {
            tenant: TenantId::from(tenant),
            budget: None,
            day: Some(day),
        })
        .unwrap()
    {
        Response::DayOpened { session, .. } => session,
        other => panic!("unexpected response {other:?}"),
    };
    let hospital = open(&mut service, "hospital", hospital_day.day());
    let clinic = open(&mut service, "clinic", clinic_day.day());
    assert_eq!(service.open_sessions(), 2);

    // Interleave the two tenants' feeds through one driver loop, strictly
    // alternating while both have alerts left.
    let mut hospital_alerts = hospital_day.alerts().iter();
    let mut clinic_alerts = clinic_day.alerts().iter();
    loop {
        let mut progressed = false;
        for (session, alerts) in [
            (hospital, &mut hospital_alerts),
            (clinic, &mut clinic_alerts),
        ] {
            if let Some(alert) = alerts.next() {
                let response = service
                    .handle(Request::PushAlert {
                        session,
                        alert: *alert,
                    })
                    .unwrap();
                match response {
                    Response::Decision { outcome, .. } => {
                        assert!(outcome.ossp_scheme.is_valid());
                    }
                    other => panic!("unexpected response {other:?}"),
                }
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    let mut close = |session| match service.handle(Request::FinishDay { session }).unwrap() {
        Response::DayClosed { result, tenant, .. } => (tenant, result),
        other => panic!("unexpected response {other:?}"),
    };
    let (hospital_tenant, hospital_result) = close(hospital);
    let (clinic_tenant, clinic_result) = close(clinic);
    assert_eq!(service.open_sessions(), 0);
    assert_eq!(hospital_tenant.as_str(), "hospital");
    assert_eq!(clinic_tenant.as_str(), "clinic");

    // Interleaving tenants through the shared loop changes nothing: each
    // cycle is bitwise what the tenant's engine computes on its own.
    let hospital_engine = service.engine(&hospital_tenant).unwrap();
    assert_eq!(
        hospital_result,
        reference(hospital_engine, &hospital_history, &hospital_day)
    );
    let clinic_engine = service.engine(&clinic_tenant).unwrap();
    assert_eq!(
        clinic_result,
        reference(clinic_engine, &clinic_history, &clinic_day)
    );
}

#[test]
fn replay_concurrent_is_bitwise_identical_to_inline_replay() {
    let tenants: Vec<(TenantId, Vec<DayLog>, DayLog)> = (0..6)
        .map(|t| {
            let (history, day) = multi_type_logs(300 + t);
            (TenantId::new(format!("tenant-{t}")), history, day)
        })
        .collect();
    let build = |workers: usize| {
        let mut builder = AuditService::builder().workers(workers);
        for (id, history, _) in &tenants {
            builder = builder.tenant_with_history(
                id.clone(),
                EngineBuilder::paper_multi_type(),
                history.clone(),
            );
        }
        builder.build().unwrap()
    };

    let pooled = build(4);
    assert_eq!(pooled.workers(), 4);
    let inline = build(0);
    assert_eq!(inline.workers(), 0);

    let jobs: Vec<ServiceJob<'_>> = tenants
        .iter()
        .map(|(id, _, day)| ServiceJob::new(id, day))
        .collect();
    let concurrent = pooled.replay_concurrent(&jobs).unwrap();
    assert_eq!(concurrent, inline.replay_concurrent(&jobs).unwrap());

    // And both match the engines' own batch path.
    for (result, (id, history, day)) in concurrent.iter().zip(&tenants) {
        let engine = pooled.engine(id).unwrap();
        assert_eq!(*result, reference(engine, history, day), "tenant {id}");
    }
}

#[test]
fn structured_errors_name_the_cause() {
    let (history, day) = single_type_logs(3);
    let mut service = AuditService::builder()
        .workers(0)
        .tenant_with_history("clinic", EngineBuilder::paper_single_type(), history)
        .build()
        .unwrap();

    let ghost = TenantId::from("ghost");
    assert_eq!(
        service.open_day(&ghost, None).unwrap_err(),
        ServiceError::UnknownTenant(ghost.clone())
    );
    assert!(matches!(
        service.replay_concurrent(&[ServiceJob::new(&ghost, &day)]),
        Err(ServiceError::UnknownTenant(_))
    ));

    // Malformed budget overrides carry the engine's structured cause.
    assert!(matches!(
        service.open_day(&TenantId::from("clinic"), Some(f64::NAN)),
        Err(ServiceError::Engine(SagError::InvalidConfig(
            ConfigError::InvalidBudget { .. }
        )))
    ));

    // Finishing a session twice: the second command names a retired id.
    let session = match service
        .handle(Request::OpenDay {
            tenant: TenantId::from("clinic"),
            budget: None,
            day: None,
        })
        .unwrap()
    {
        Response::DayOpened { session, .. } => session,
        other => panic!("unexpected response {other:?}"),
    };
    service.handle(Request::FinishDay { session }).unwrap();
    assert_eq!(
        service.handle(Request::FinishDay { session }).unwrap_err(),
        ServiceError::UnknownSession(session)
    );

    // Duplicate registration fails the build.
    assert!(matches!(
        AuditService::builder()
            .tenant("a", EngineBuilder::paper_single_type())
            .tenant("a", EngineBuilder::paper_multi_type())
            .build(),
        Err(ServiceError::DuplicateTenant(_))
    ));

    // An invalid tenant configuration fails the build with its cause.
    assert!(matches!(
        AuditService::builder()
            .tenant("bad", EngineBuilder::paper_multi_type().forecast_decay(2.0))
            .build(),
        Err(ServiceError::Engine(SagError::InvalidConfig(
            ConfigError::ForecastDecayOutOfRange { .. }
        )))
    ));
}

#[test]
fn recorded_history_rolls_forward_and_stays_windowed() {
    let (history, day) = single_type_logs(5);
    let clinic = TenantId::from("clinic");
    let mut service = AuditService::builder()
        .workers(0)
        .history_window(4)
        .tenant_with_history(
            "clinic",
            EngineBuilder::paper_single_type(),
            history.clone(),
        )
        .build()
        .unwrap();

    // The starting history is trimmed to the window (newest days kept).
    let kept = service.history(&clinic).unwrap();
    assert_eq!(kept.len(), 4);
    assert_eq!(kept[0].day(), history[history.len() - 4].day());

    // Recording more days keeps the window sliding.
    service.record_history(&clinic, day.clone()).unwrap();
    let kept = service.history(&clinic).unwrap();
    assert_eq!(kept.len(), 4);
    assert_eq!(kept.last().unwrap().day(), day.day());

    // Sessions opened after the roll fit on the updated window.
    let handle = service.open_day(&clinic, None).unwrap();
    assert_eq!(handle.tenant(), &clinic);
    assert_eq!(handle.alerts_processed(), 0);

    // `Default` is `new`: the default window, not a zero-day one.
    let service = ServiceBuilder::default()
        .tenant_with_history(
            "clinic",
            EngineBuilder::paper_single_type(),
            history.clone(),
        )
        .build()
        .unwrap();
    assert_eq!(service.history(&clinic).unwrap(), history.as_slice());
}

fn open(tenant: &TenantId, day: &DayLog) -> Request {
    Request::OpenDay {
        tenant: tenant.clone(),
        budget: None,
        day: Some(day.day()),
    }
}

fn push(session: SessionId, day: &DayLog, index: usize) -> Request {
    Request::PushAlert {
        session,
        alert: day.alerts()[index],
    }
}

/// The response of a tagged request that must apply.
fn applied(service: &mut AuditService, tenant: &TenantId, id: u64, request: Request) -> Response {
    match service.handle_tagged(tenant, id, request) {
        Handled::Applied(Ok(response)) => response,
        other => panic!("request {id} should apply: {other:?}"),
    }
}

fn opened(response: Response) -> SessionId {
    match response {
        Response::DayOpened { session, .. } => session,
        other => panic!("expected DayOpened, got {other:?}"),
    }
}

#[test]
fn a_service_counts_its_own_handle_and_handle_tagged_traffic() {
    let (history, day) = single_type_logs(9);
    let clinic = TenantId::from("clinic");
    let mut service = AuditService::builder()
        .workers(0)
        .tenant_with_history("clinic", EngineBuilder::paper_single_type(), history)
        .build()
        .unwrap();
    assert_eq!(service.counters().snapshot(), CountersSnapshot::default());

    // One untagged day through `handle`, plus one rejected command.
    let session = opened(service.handle(open(&clinic, &day)).unwrap());
    for index in 0..day.len() {
        service.handle(push(session, &day, index)).unwrap();
    }
    service.handle(Request::FinishDay { session }).unwrap();
    let ghost = SessionId::from_raw(999);
    assert!(service
        .handle(Request::FinishDay { session: ghost })
        .is_err());
    let untagged = service.counters().snapshot();
    assert_eq!(untagged.requests, day.len() as u64 + 3);
    assert_eq!(untagged.errors, 1);
    assert!(untagged.quiescent_identity_holds(), "{untagged:?}");

    // A tagged day through `handle_tagged` with its push redelivered: the
    // redelivery replays, a suppressed duplicate and not a request.
    let session = opened(applied(&mut service, &clinic, 1, open(&clinic, &day)));
    let first = applied(&mut service, &clinic, 2, push(session, &day, 0));
    match service.handle_tagged(&clinic, 2, push(session, &day, 0)) {
        Handled::Replayed(response) => assert_eq!(response, first),
        other => panic!("redelivery should replay: {other:?}"),
    }
    applied(&mut service, &clinic, 3, Request::FinishDay { session });
    let tagged = service.counters().snapshot();
    assert_eq!(tagged.requests, untagged.requests + 3);
    assert_eq!(tagged.alerts, untagged.alerts + 1);
    assert_eq!((tagged.days_opened, tagged.days_closed), (2, 2));
    assert_eq!((tagged.dup_replayed, tagged.dup_suppressed), (1, 1));
    assert!(tagged.quiescent_identity_holds(), "{tagged:?}");
}

#[test]
fn a_recovered_service_starts_with_every_counter_at_zero() {
    let (history, day) = multi_type_logs(21);
    let icu = TenantId::from("icu");
    let builder = || {
        AuditService::builder().workers(0).tenant_with_history(
            "icu",
            EngineBuilder::paper_multi_type(),
            history.clone(),
        )
    };
    let store = MemFs::new();

    // Serve half a tagged day durably (push `i` under id `i + 2`), then
    // "crash" by dropping the service.
    let half = day.len() / 2;
    let session = {
        let mut service = builder()
            .durable_on(Box::new(store.clone()), DurabilityOptions::no_fsync())
            .build()
            .unwrap();
        let session = opened(applied(&mut service, &icu, 1, open(&icu, &day)));
        for index in 0..half {
            applied(
                &mut service,
                &icu,
                index as u64 + 2,
                push(session, &day, index),
            );
        }
        assert_eq!(service.counters().snapshot().requests, half as u64 + 1);
        session
    };

    // Replay rebuilt the session and the dedup window but served no
    // request: counting it would break `requests == frames in` after every
    // restart. From here on the service counts as usual.
    let mut service = builder()
        .recover_on(Box::new(store), DurabilityOptions::no_fsync())
        .unwrap();
    assert_eq!(service.open_sessions(), 1);
    assert_eq!(service.counters().snapshot(), CountersSnapshot::default());
    let last = half as u64 + 1;
    assert!(matches!(
        service.handle_tagged(&icu, last, push(session, &day, half - 1)),
        Handled::Replayed(Response::Decision { .. })
    ));
    applied(&mut service, &icu, last + 1, push(session, &day, half));
    let snapshot = service.counters().snapshot();
    assert_eq!((snapshot.requests, snapshot.alerts), (1, 1));
    assert_eq!(snapshot.dup_replayed, 1);
    assert!(snapshot.quiescent_identity_holds(), "{snapshot:?}");
}
