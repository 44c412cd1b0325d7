//! Warnings that survive a crash: kill the audit service mid-day, recover
//! from its write-ahead log, and finish with bitwise-identical results.
//!
//! A warning is a *commitment* — the paper's signaling schemes only deter
//! because the attacker believes the auditor will follow through. A service
//! that forgets its half-finished day on a crash breaks that commitment:
//! budget already spent on warnings evaporates, and the replacement process
//! re-decides alerts it already answered. The durable `AuditService` closes
//! the gap by logging every mutation to a per-tenant, checksummed WAL
//! *before* acknowledging it, so a restart replays the day back to the
//! exact committed state.
//!
//! This example stages the full lifecycle against a real directory:
//!
//! 1. run an uninterrupted day as the ground truth;
//! 2. run the same day durably and kill the process mid-day;
//! 3. hand-tear the WAL tail, as a power loss mid-write would;
//! 4. recover with `ServiceBuilder::recover_from`, resume, finish — and
//!    assert the utilities match the uninterrupted run exactly.
//!
//! Run with: `cargo run --release --example robust_warnings`

use sag::prelude::*;

fn builder(history: Vec<sag::sim::DayLog>) -> ServiceBuilder {
    AuditService::builder().workers(0).tenant_with_history(
        "county-hospital",
        EngineBuilder::paper_multi_type(),
        history,
    )
}

fn main() -> sag::Result<()> {
    // The WAL lives in a real directory under target/ so a rerun starts
    // clean but the bytes are inspectable after a run.
    let wal_dir = std::path::Path::new("target").join("robust_warnings_wal");
    let _ = std::fs::remove_dir_all(&wal_dir);

    let mut generator = StreamGenerator::new(StreamConfig::paper_multi_type(41));
    let (history, mut test_days) = generator.generate_split(8, 1);
    let day = test_days.remove(0);
    let hospital = TenantId::from("county-hospital");

    // 1. Ground truth: the same day with no crash and no WAL.
    let control_service = builder(history.clone()).build()?;
    let control = control_service.open_day(&hospital, None)?.drive(&day)?;
    println!(
        "uninterrupted day: {} alerts, mean OSSP utility {:.2}",
        control.len(),
        control.mean_ossp_utility().unwrap_or(0.0)
    );

    // 2. The durable run: every OpenDay/PushAlert is on disk before it is
    //    acknowledged. We push just over half the day, then the "process"
    //    dies — here, the service is dropped on the floor.
    let kill_at = day.len() / 2 + 1;
    let session;
    {
        let mut service = builder(history.clone()).durable(&wal_dir).build()?;
        let Response::DayOpened { session: id, .. } = service.handle(Request::OpenDay {
            tenant: hospital.clone(),
            budget: None,
            day: Some(day.day()),
        })?
        else {
            unreachable!()
        };
        session = id;
        for alert in &day.alerts()[..kill_at] {
            service.handle(Request::PushAlert {
                session,
                alert: *alert,
            })?;
        }
        println!(
            "durable run killed after alert {kill_at}/{} on {session}",
            day.len()
        );
        // <-- power loss. Everything in memory is gone.
    }

    // 3. Worse: the crash landed mid-write, leaving half a frame at the
    //    tail of the log. Recovery discards a torn final record — it was
    //    never acknowledged, so nobody is owed it.
    let wal_file = wal_dir.join("county-hospital.wal");
    let mut bytes = std::fs::read(&wal_file).expect("wal file exists");
    let intact = bytes.len();
    bytes.extend_from_slice(&[0x2a; 11]);
    std::fs::write(&wal_file, &bytes).expect("wal file writable");
    println!("tore the WAL tail: {intact} intact bytes + 11 garbage bytes appended");

    // 4. The restarted deployment makes one call. The torn tail is
    //    dropped, the day is rebuilt to the exact committed state, and the
    //    session id survives.
    let mut recovered = builder(history).recover_from(&wal_dir)?;
    let handle = recovered
        .session(session)
        .expect("mid-day session recovered");
    let done = handle.alerts_processed();
    println!(
        "recovered {session}: {done} alerts already committed, budgets ({:.2}, {:.2})",
        handle.remaining_budget_ossp(),
        handle.remaining_budget_online()
    );
    assert_eq!(done, kill_at, "recovery must land on the committed state");

    // Resume the feed where the recovered session says it stopped.
    for alert in &day.alerts()[done..] {
        recovered.handle(Request::PushAlert {
            session,
            alert: *alert,
        })?;
    }
    let Response::DayClosed { result, .. } = recovered.handle(Request::FinishDay { session })?
    else {
        unreachable!()
    };
    println!(
        "finished after recovery: {} alerts, mean OSSP utility {:.2}",
        result.len(),
        result.mean_ossp_utility().unwrap_or(0.0)
    );

    // The whole point: the crash is invisible in the results.
    assert_eq!(
        result, control,
        "recovered day must be bitwise identical to the uninterrupted day"
    );
    println!("crash + torn tail + recovery = bitwise-identical day ✓");
    Ok(())
}
