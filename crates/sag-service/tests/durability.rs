//! Crash safety of the durable `AuditService`: log-before-acknowledge,
//! snapshot/truncate, and recovery to bitwise-identical state — exercised
//! with the deterministic fault-injection harness (`FailpointFs`) so every
//! crash point is reproducible.

#![cfg(feature = "wal")]

use sag_core::engine::EngineBuilder;
use sag_core::CycleResult;
use sag_service::{
    AuditService, DurabilityOptions, FailpointFs, MemFs, Request, Response, ServiceBuilder,
    ServiceError, SessionId, TenantId, WalError, WalFs,
};
use sag_sim::{DayLog, StreamConfig, StreamGenerator};

const SEED: u64 = 2028;
const HISTORY_DAYS: u32 = 4;

/// One tenant's worth of generated data: history plus one test day.
fn generate(seed: u64, test_alerts: usize) -> (Vec<DayLog>, DayLog) {
    let mut gen = StreamGenerator::new(StreamConfig::paper_multi_type(seed));
    let history = gen.generate_days(HISTORY_DAYS);
    let full = gen.generate_day(HISTORY_DAYS);
    let alerts: Vec<_> = full.alerts().iter().take(test_alerts).cloned().collect();
    (history, DayLog::new(full.day(), alerts))
}

fn builder_for(history: Vec<DayLog>) -> ServiceBuilder {
    AuditService::builder().workers(0).tenant_with_history(
        "icu",
        EngineBuilder::paper_multi_type(),
        history,
    )
}

fn open_session(service: &mut AuditService, tenant: &TenantId, day: u32) -> SessionId {
    match service
        .handle(Request::OpenDay {
            tenant: tenant.clone(),
            budget: None,
            day: Some(day),
        })
        .expect("day opens")
    {
        Response::DayOpened { session, .. } => session,
        other => panic!("unexpected response {other:?}"),
    }
}

/// The uninterrupted reference run: same data, no durability at all.
fn control_result(history: &[DayLog], test_day: &DayLog) -> CycleResult {
    let service = builder_for(history.to_vec()).build().expect("builds");
    let handle = service
        .open_day(&TenantId::from("icu"), None)
        .expect("opens");
    handle.drive(test_day).expect("drives")
}

#[test]
fn command_api_recovery_rebuilds_history_sessions_and_counter() {
    let (history, test_day) = generate(SEED, 12);
    let control = control_result(&history, &test_day);
    let store = MemFs::new();
    let icu = TenantId::from("icu");

    // Run half the day through a durable service, then "crash" (drop it).
    let half = test_day.len() / 2;
    let old_session;
    {
        let mut service = builder_for(history.clone())
            .durable_on(Box::new(store.clone()), DurabilityOptions::default())
            .build()
            .expect("durable build");
        assert!(service.is_durable());
        old_session = open_session(&mut service, &icu, test_day.day());
        for alert in &test_day.alerts()[..half] {
            service
                .handle(Request::PushAlert {
                    session: old_session,
                    alert: *alert,
                })
                .expect("push acknowledged");
        }
        // Dropped here mid-day: the open session only survives in the WAL.
    }

    let mut recovered = builder_for(history.clone())
        .recover_on(Box::new(store.clone()), DurabilityOptions::default())
        .expect("recovers");
    assert_eq!(recovered.open_sessions(), 1);
    let session = recovered.open_session_ids().next().expect("session back");
    assert_eq!(session, old_session);
    let handle = recovered.session(session).expect("session visible");
    assert_eq!(handle.tenant(), &icu);
    assert_eq!(handle.alerts_processed(), half);

    // Finish the day through the recovered service; splice must be exact.
    for alert in &test_day.alerts()[half..] {
        recovered
            .handle(Request::PushAlert {
                session,
                alert: *alert,
            })
            .expect("push acknowledged");
    }
    let Response::DayClosed { result, .. } = recovered
        .handle(Request::FinishDay { session })
        .expect("finishes")
    else {
        panic!("unexpected response");
    };
    assert_eq!(result, control);

    // Ids are never reused, even across the crash.
    let next = open_session(&mut recovered, &icu, test_day.day() + 1);
    assert!(next > old_session, "{next} vs {old_session}");
}

/// Kill the process at EVERY append index, at several tear offsets inside
/// the doomed record, and prove recovery + resume always lands bitwise on
/// the uninterrupted run. Offset 0 loses the whole record (clean cut);
/// small offsets leave a torn frame to discard; a huge offset writes the
/// record fully but loses the acknowledgement (the classic ambiguous ack,
/// resolved by asking the recovered session how far it got).
#[test]
fn crash_at_every_alert_index_recovers_bitwise() {
    let (history, test_day) = generate(SEED + 1, 9);
    let control = control_result(&history, &test_day);
    let icu = TenantId::from("icu");

    // Appends: #0 header, #1 OpenDay, #2..2+N PushAlerts, #2+N FinishDay.
    let total_appends = 2 + test_day.len() as u64 + 1;
    for kill_index in 1..total_appends {
        for tear_offset in [0usize, 1, 9, usize::MAX / 2] {
            let store = MemFs::new();
            let fs = FailpointFs::new(store.clone()).kill_at_append(kill_index, tear_offset);
            let mut service = builder_for(history.clone())
                .durable_on(Box::new(fs), DurabilityOptions::default())
                .build()
                .expect("durable build");
            let mut crashed = false;
            let session = match service.handle(Request::OpenDay {
                tenant: icu.clone(),
                budget: None,
                day: Some(test_day.day()),
            }) {
                Ok(Response::DayOpened { session, .. }) => Some(session),
                Ok(other) => panic!("unexpected response {other:?}"),
                Err(ServiceError::Wal(_)) => {
                    crashed = true;
                    None
                }
                Err(other) => panic!("unexpected error {other:?}"),
            };
            if let Some(session) = session {
                for alert in test_day.alerts() {
                    match service.handle(Request::PushAlert {
                        session,
                        alert: *alert,
                    }) {
                        Ok(_) => {}
                        Err(ServiceError::Wal(_)) => {
                            crashed = true;
                            break;
                        }
                        Err(other) => panic!("unexpected error {other:?}"),
                    }
                }
                if !crashed {
                    match service.handle(Request::FinishDay { session }) {
                        Ok(_) => {}
                        Err(ServiceError::Wal(_)) => crashed = true,
                        Err(other) => panic!("unexpected error {other:?}"),
                    }
                }
            }
            assert!(crashed, "kill_index={kill_index} never fired");
            drop(service);

            let mut recovered = builder_for(history.clone())
                .recover_on(Box::new(store.clone()), DurabilityOptions::default())
                .expect("recovers");
            let recovered_session = recovered.open_session_ids().next();
            let result = match recovered_session {
                Some(session) => {
                    // Resume where the recovered session says it stopped —
                    // covers the ambiguous-ack tear, where the record
                    // survived but the crash ate the acknowledgement.
                    let done = recovered
                        .session(session)
                        .expect("session visible")
                        .alerts_processed();
                    for alert in &test_day.alerts()[done..] {
                        recovered
                            .handle(Request::PushAlert {
                                session,
                                alert: *alert,
                            })
                            .expect("resumed push");
                    }
                    let Response::DayClosed { result, .. } = recovered
                        .handle(Request::FinishDay { session })
                        .expect("finishes")
                    else {
                        panic!("unexpected response");
                    };
                    result
                }
                None => {
                    // The OpenDay record was lost (or FinishDay survived):
                    // the whole day replays fresh on the recovered service.
                    let session = open_session(&mut recovered, &icu, test_day.day());
                    for alert in test_day.alerts() {
                        recovered
                            .handle(Request::PushAlert {
                                session,
                                alert: *alert,
                            })
                            .expect("fresh push");
                    }
                    let Response::DayClosed { result, .. } = recovered
                        .handle(Request::FinishDay { session })
                        .expect("finishes")
                    else {
                        panic!("unexpected response");
                    };
                    result
                }
            };
            assert_eq!(
                result, control,
                "kill_index={kill_index} tear_offset={tear_offset}"
            );
        }
    }
}

/// Mid-day recovery must also match the *in-progress* state bitwise, not
/// just the final result: outcomes so far and remaining budgets.
#[test]
fn recovered_open_session_state_is_bitwise_identical_mid_day() {
    let (history, test_day) = generate(SEED + 2, 10);
    let store = MemFs::new();
    let icu = TenantId::from("icu");

    let mut service = builder_for(history.clone())
        .durable_on(Box::new(store.clone()), DurabilityOptions::default())
        .build()
        .expect("durable build");
    let session = open_session(&mut service, &icu, test_day.day());
    for alert in &test_day.alerts()[..7] {
        service
            .handle(Request::PushAlert {
                session,
                alert: *alert,
            })
            .expect("push");
    }
    let live = service.session(session).expect("open");
    let live_outcomes = live.outcomes().to_vec();
    let live_budgets = (live.remaining_budget_ossp(), live.remaining_budget_online());
    drop(service);

    let recovered = builder_for(history)
        .recover_on(Box::new(store), DurabilityOptions::default())
        .expect("recovers");
    let handle = recovered.session(session).expect("recovered");
    assert_eq!(handle.outcomes(), live_outcomes.as_slice());
    assert_eq!(
        (
            handle.remaining_budget_ossp(),
            handle.remaining_budget_online()
        ),
        live_budgets
    );
}

#[test]
fn snapshot_truncates_the_wal_and_preserves_history_and_ids() {
    let (history, test_day) = generate(SEED + 3, 6);
    let store = MemFs::new();
    let icu = TenantId::from("icu");
    let options = DurabilityOptions {
        fsync: false,
        snapshot_every: 2,
    };

    let mut service = builder_for(history.clone())
        .durable_on(Box::new(store.clone()), options)
        .build()
        .expect("durable build");
    // Two full days through the command API, recording history after each:
    // the second record_history crosses the snapshot cadence.
    let mut last_session = None;
    for day_offset in 0..2u32 {
        let session = open_session(&mut service, &icu, test_day.day() + day_offset);
        last_session = Some(session);
        for alert in test_day.alerts() {
            service
                .handle(Request::PushAlert {
                    session,
                    alert: *alert,
                })
                .expect("push");
        }
        service
            .handle(Request::FinishDay { session })
            .expect("finish");
        service
            .record_history(&icu, test_day.clone())
            .expect("history records");
    }
    let expected_history_len = service.history(&icu).expect("tenant").len();
    drop(service);

    // The snapshot fired: WAL is back to a bare header, snapshot exists.
    let wal = store.read("icu.wal").expect("read").expect("exists");
    assert_eq!(wal, sag_wal::encode_wal_header("icu"));
    assert!(store.read("icu.snap").expect("read").is_some());

    let mut recovered = builder_for(history)
        .recover_on(Box::new(store), options)
        .expect("recovers");
    assert_eq!(
        recovered.history(&icu).expect("tenant").len(),
        expected_history_len
    );
    // The id counter survived the snapshot: fresh ids continue past it.
    let next = open_session(&mut recovered, &icu, 99);
    assert_eq!(next, recovered.open_session_ids().next().expect("open"));
    let last = last_session.expect("two days ran");
    assert!(next > last, "{next} reused an id (last pre-crash: {last})");
}

/// A crash *between* writing the snapshot and truncating the WAL leaves
/// both on disk; recovery must not replay the WAL days a second time.
#[test]
fn crash_between_snapshot_and_truncation_does_not_duplicate_history() {
    let (history, test_day) = generate(SEED + 4, 5);
    let mut store = MemFs::new();
    let icu = TenantId::from("icu");
    let options = DurabilityOptions {
        fsync: false,
        snapshot_every: 64,
    };

    let mut service = builder_for(history.clone())
        .durable_on(Box::new(store.clone()), options)
        .build()
        .expect("durable build");
    for _ in 0..3 {
        service
            .record_history(&icu, test_day.clone())
            .expect("history records");
    }
    let expected_history: Vec<u32> = service
        .history(&icu)
        .expect("tenant")
        .iter()
        .map(DayLog::day)
        .collect();
    let expected_len = expected_history.len();
    drop(service);

    // Hand-write the snapshot the service would have produced, WITHOUT
    // truncating the WAL — the exact state a crash between the two leaves.
    let wal = store.read("icu.wal").expect("read").expect("exists");
    let snap = sag_wal::Snapshot {
        tenant: "icu".to_string(),
        next_session: 0,
        wal_len: wal.len() as u64,
        wal_crc: sag_wal::crc32(&wal),
        history: {
            let mut h = history.clone();
            h.extend(std::iter::repeat_n(test_day.clone(), 3));
            h
        },
    };
    store.put("icu.snap", snap.encode());

    let recovered = builder_for(history)
        .recover_on(Box::new(store.clone()), options)
        .expect("recovers");
    let got: Vec<u32> = recovered
        .history(&icu)
        .expect("tenant")
        .iter()
        .map(DayLog::day)
        .collect();
    assert_eq!(got.len(), expected_len, "history days were duplicated");
    assert_eq!(got, expected_history);
    // Recovery finished the interrupted truncation.
    assert_eq!(
        store.read("icu.wal").expect("read").expect("exists"),
        sag_wal::encode_wal_header("icu")
    );
}

#[test]
fn wal_failure_rejects_the_request_without_applying_it() {
    let (history, test_day) = generate(SEED + 5, 4);
    let store = MemFs::new();
    let icu = TenantId::from("icu");
    // Kill at the PushAlert append (header=0, OpenDay=1, PushAlert=2).
    let fs = FailpointFs::new(store.clone()).kill_at_append(2, 0);
    let mut service = builder_for(history)
        .durable_on(Box::new(fs), DurabilityOptions::default())
        .build()
        .expect("durable build");
    let session = open_session(&mut service, &icu, test_day.day());
    let err = service
        .handle(Request::PushAlert {
            session,
            alert: test_day.alerts()[0],
        })
        .expect_err("wal failure surfaces");
    assert!(
        matches!(err, ServiceError::Wal(WalError::Io { .. })),
        "{err:?}"
    );
    // Log-before-acknowledge: the session did NOT advance.
    assert_eq!(
        service.session(session).expect("open").alerts_processed(),
        0
    );
}

#[test]
fn recovery_errors_are_structured_per_failure() {
    let (history, test_day) = generate(SEED + 6, 6);
    let icu = TenantId::from("icu");
    let options = DurabilityOptions::no_fsync();

    // Build a healthy log to mutate per case.
    let pristine = MemFs::new();
    {
        let mut service = builder_for(history.clone())
            .durable_on(Box::new(pristine.clone()), options)
            .build()
            .expect("durable build");
        let session = open_session(&mut service, &icu, test_day.day());
        for alert in test_day.alerts() {
            service
                .handle(Request::PushAlert {
                    session,
                    alert: *alert,
                })
                .expect("push");
        }
    }
    let healthy = pristine.read("icu.wal").expect("read").expect("exists");

    // Corrupt checksum before the tail → hard error.
    let mut store = MemFs::new();
    let mut corrupt = healthy.clone();
    let header_len = sag_wal::encode_wal_header("icu").len();
    corrupt[header_len + 8] ^= 0xFF;
    store.put("icu.wal", corrupt);
    let err = builder_for(history.clone())
        .recover_on(Box::new(store), options)
        .expect_err("corruption detected");
    assert!(
        matches!(err, ServiceError::Wal(WalError::CorruptChecksum { .. })),
        "{err:?}"
    );

    // Version mismatch in the header.
    let mut store = MemFs::new();
    let mut wrong_version = healthy.clone();
    wrong_version[4] = 0x7E;
    store.put("icu.wal", wrong_version);
    let err = builder_for(history.clone())
        .recover_on(Box::new(store), options)
        .expect_err("version mismatch detected");
    assert!(
        matches!(
            err,
            ServiceError::Wal(WalError::VersionMismatch { found: 0x7E, .. })
        ),
        "{err:?}"
    );

    // Durable state for a tenant the service does not register.
    let mut store = MemFs::new();
    store.put("icu.wal", healthy.clone());
    store.put("ghost.wal", sag_wal::encode_wal_header("ghost"));
    let err = builder_for(history.clone())
        .recover_on(Box::new(store), options)
        .expect_err("orphan state detected");
    assert!(
        matches!(
            err,
            ServiceError::Wal(WalError::UnknownTenant { ref tenant }) if tenant == "ghost"
        ),
        "{err:?}"
    );

    // A log copied under another tenant's file name.
    let mut store = MemFs::new();
    store.put("icu.wal", healthy.clone());
    let err = AuditService::builder()
        .workers(0)
        .tenant_with_history("other", EngineBuilder::paper_multi_type(), history.clone())
        .recover_on(Box::new(store.clone()), options)
        .expect_err("foreign file detected");
    assert!(
        matches!(err, ServiceError::Wal(WalError::UnknownTenant { .. })),
        "{err:?}"
    );
    let mut store = MemFs::new();
    store.put("other.wal", healthy.clone());
    let err = AuditService::builder()
        .workers(0)
        .tenant_with_history("other", EngineBuilder::paper_multi_type(), history.clone())
        .recover_on(Box::new(store), options)
        .expect_err("tenant mismatch detected");
    assert!(
        matches!(err, ServiceError::Wal(WalError::TenantMismatch { .. })),
        "{err:?}"
    );

    // A truncated snapshot (snapshots are atomic; truncation is corruption).
    let mut store = MemFs::new();
    store.put("icu.wal", healthy.clone());
    let snap = sag_wal::Snapshot {
        tenant: "icu".to_string(),
        next_session: 1,
        wal_len: 0,
        wal_crc: 0,
        history: history.clone(),
    };
    let encoded = snap.encode();
    store.put("icu.snap", encoded[..encoded.len() / 2].to_vec());
    let err = builder_for(history.clone())
        .recover_on(Box::new(store), options)
        .expect_err("snapshot truncation detected");
    assert!(
        matches!(
            err,
            ServiceError::Wal(WalError::Truncated { .. } | WalError::CorruptChecksum { .. })
        ),
        "{err:?}"
    );

    // Building FRESH over existing state is refused.
    let err = builder_for(history.clone())
        .durable_on(Box::new(pristine.clone()), options)
        .build()
        .expect_err("existing state detected");
    assert!(
        matches!(err, ServiceError::Wal(WalError::ExistingState { .. })),
        "{err:?}"
    );

    // recover() without a target is a structured error too.
    let err = builder_for(history).recover().expect_err("no target");
    assert!(
        matches!(err, ServiceError::Wal(WalError::Io { .. })),
        "{err:?}"
    );
}

#[test]
fn recovery_on_an_empty_store_is_a_clean_first_boot() {
    let (history, test_day) = generate(SEED + 7, 5);
    let control = control_result(&history, &test_day);
    let mut service = builder_for(history)
        .recover_on(Box::new(MemFs::new()), DurabilityOptions::no_fsync())
        .expect("first boot");
    assert!(service.is_durable());
    assert_eq!(service.open_sessions(), 0);
    let icu = TenantId::from("icu");
    let session = open_session(&mut service, &icu, test_day.day());
    for alert in test_day.alerts() {
        service
            .handle(Request::PushAlert {
                session,
                alert: *alert,
            })
            .expect("push");
    }
    let Response::DayClosed { result, .. } = service
        .handle(Request::FinishDay { session })
        .expect("finish")
    else {
        panic!("unexpected response");
    };
    assert_eq!(result, control);
}
