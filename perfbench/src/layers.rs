//! In-process replays that time each layer below the socket.
//!
//! The traced run replays the pool's requests in process, once per layer,
//! calling each layer's public entry point inside a span:
//!
//! * `service.*` — `AuditService::handle_tagged` on a fresh service built
//!   like the served one; on a durable workload its WAL goes through a
//!   [`TimingFs`], so `wal.append` / `wal.sync` spans nest under it.
//! * `untagged.*` — the same through `AuditService::handle` (no dedup).
//! * `session.*` — `open_day_owned`, `Session::push_alert`, `finish` on
//!   the tenant's engine.
//! * `shadow.push` — the session's per-alert work rebuilt from public
//!   parts on reconstructed inputs: the forecast, the two worlds'
//!   `SolverBackend::solve` calls and the OSSP closed form, with the
//!   forecast fit and offline solve timed once per day.
//! * `codec.*` — both ends of the codec on the real request and reply
//!   frames, against in-memory buffers.
//!
//! Each replay also checks its answers against the reference, so a layer
//! is never timed on a computation other than the one served.

use crate::check::{same_outcome, same_result};
use crate::trace::{span, TimingFs, WalCounters};
use crate::workload::{generate, PoolEntry, WorkloadSpec};
use sag_core::sse::{BackendOptions, SseInput};
use sag_core::{ossp_closed_form, AuditCycleEngine, EngineConfig, OfflineSse};
use sag_forecast::{ArrivalModel, FutureAlertEstimator};
use sag_net::codec::{
    decode_reply, decode_request, encode_reply, encode_request, read_frame, write_frame,
};
use sag_service::{
    AuditService, DurabilityOptions, Handled, Request, Response, ServiceError, SessionId,
};
use sag_wal::DirFs;
use std::path::Path;
use std::sync::Arc;

/// What the layer replays counted (the times are in the spans).
#[derive(Debug, Default)]
pub struct LayerCounts {
    /// Alerts replayed per layer.
    pub alerts: u64,
    /// Requests replayed through the tagged service.
    pub requests: u64,
    /// WAL traffic of the tagged service: `(appends, bytes, syncs)`.
    pub wal: (u64, u64, u64),
    /// Mean frame size of a `Decision` reply, header included.
    pub decision_reply_bytes: f64,
    /// Mean frame size of a `DayClosed` reply, header included.
    pub day_closed_reply_bytes: f64,
    /// Answers that disagreed with the reference replay.
    pub mismatches: u64,
}

/// Run every layer replay over `pool` under the installed tracer.
///
/// # Errors
///
/// Service, engine, WAL and codec failures, rendered.
pub fn replay_layers(
    spec: &WorkloadSpec,
    seed: u64,
    config: &EngineConfig,
    pool: &[PoolEntry],
    work_dir: &Path,
) -> Result<LayerCounts, String> {
    let mut counts = LayerCounts::default();
    let wal = Arc::new(WalCounters::default());
    let mut tagged = build_service(spec, seed, pool.len(), &work_dir.join("wal-tagged"), &wal)?;
    let wal_at_build = wal.snapshot();
    let mut untagged = build_service(
        spec,
        seed,
        pool.len(),
        &work_dir.join("wal-untagged"),
        &Arc::new(WalCounters::default()),
    )?;
    for entry in pool {
        counts.mismatches +=
            replay_service(&mut tagged, entry, Mode::Tagged, &mut counts.requests)?;
        counts.mismatches += replay_service(&mut untagged, entry, Mode::Untagged, &mut 0)?;
        let engine = tagged
            .engine(&entry.tenant)
            .map_err(|e| e.to_string())?
            .clone();
        counts.mismatches += replay_session(&engine, entry)?;
        counts.mismatches += replay_shadow(config, entry)?;
        replay_codec(entry, &mut counts)?;
        counts.alerts += entry.day.len() as u64;
    }
    let (appends, bytes, syncs) = wal.snapshot();
    counts.wal = (
        appends - wal_at_build.0,
        bytes - wal_at_build.1,
        syncs - wal_at_build.2,
    );
    let days = pool.len().max(1) as f64;
    counts.day_closed_reply_bytes /= days;
    counts.decision_reply_bytes /= counts.alerts.max(1) as f64;
    Ok(counts)
}

/// A fresh service over the workload's fleet, logging through a
/// [`TimingFs`] over a real directory when the workload is durable.
fn build_service(
    spec: &WorkloadSpec,
    seed: u64,
    tenants: usize,
    wal_dir: &Path,
    wal: &Arc<WalCounters>,
) -> Result<AuditService, String> {
    let builder = generate(spec, seed, tenants)?.builder;
    let builder = if spec.durable {
        let dir = DirFs::new(wal_dir).map_err(|e| e.to_string())?;
        let fs = TimingFs::new(Box::new(dir), wal.clone());
        builder.durable_on(Box::new(fs), DurabilityOptions::default())
    } else {
        builder
    };
    builder
        .build()
        .map_err(|e| format!("layer service build failed: {e}"))
}

#[derive(Clone, Copy)]
enum Mode {
    Tagged,
    Untagged,
}

/// Serve one tenant-day through the service; returns the mismatch count.
fn replay_service(
    service: &mut AuditService,
    entry: &PoolEntry,
    mode: Mode,
    requests: &mut u64,
) -> Result<u64, String> {
    let [open_name, push_name, close_name] = match mode {
        Mode::Tagged => ["service.open", "service.push", "service.close"],
        Mode::Untagged => ["untagged.open", "untagged.push", "untagged.close"],
    };
    // A tenant serves one day per replay, so its request ids start at 1.
    let mut next_id = 0u64;
    let mut call = |service: &mut AuditService, name: &'static str, request: Request| {
        next_id += 1;
        *requests += 1;
        let _span = span(name);
        let result = match mode {
            Mode::Tagged => match service.handle_tagged(&entry.tenant, next_id, request) {
                Handled::Applied(result) => result,
                other => {
                    return Err(format!(
                        "{}: fresh request id {next_id} answered as {other:?}",
                        entry.tenant
                    ))
                }
            },
            Mode::Untagged => service.handle(request),
        };
        result.map_err(|e: ServiceError| format!("{}: layer replay: {e}", entry.tenant))
    };
    let Response::DayOpened { session, .. } = call(service, open_name, entry.open_request())?
    else {
        return Err(format!("{}: OpenDay answered out of kind", entry.tenant));
    };
    let mut mismatches = 0;
    for (alert, expected) in entry.day.alerts().iter().zip(&entry.expected.outcomes) {
        let push = Request::PushAlert {
            session,
            alert: *alert,
        };
        match call(service, push_name, push)? {
            Response::Decision { outcome, .. } if same_outcome(&outcome, expected) => {}
            _ => mismatches += 1,
        }
    }
    match call(service, close_name, Request::FinishDay { session })? {
        Response::DayClosed { result, .. } if same_result(&result, &entry.expected) => {}
        _ => mismatches += 1,
    }
    Ok(mismatches)
}

/// Drive one tenant-day straight through the engine's session API.
fn replay_session(engine: &Arc<AuditCycleEngine>, entry: &PoolEntry) -> Result<u64, String> {
    let mut session = {
        let _span = span("session.open");
        engine
            .open_day_owned(&entry.history, entry.budget)
            .map_err(|e| format!("{}: session open: {e}", entry.tenant))?
    };
    session.set_day(entry.day.day());
    let mut mismatches = 0;
    for (alert, expected) in entry.day.alerts().iter().zip(&entry.expected.outcomes) {
        let outcome = {
            let _span = span("session.push");
            session
                .push_alert(alert)
                .map_err(|e| format!("{}: session push: {e}", entry.tenant))?
        };
        mismatches += u64::from(!same_outcome(&outcome, expected));
    }
    let result = {
        let _span = span("session.finish");
        session.finish()
    };
    mismatches += u64::from(!same_result(&result, &entry.expected));
    Ok(mismatches)
}

/// Rebuild the session's per-alert work from public parts. The inputs are
/// reconstructed from the reference outcomes: each alert's budgets are the
/// previous alert's `budget_after_*`.
fn replay_shadow(config: &EngineConfig, entry: &PoolEntry) -> Result<u64, String> {
    let game = &config.game;
    let fail = |e: sag_core::SagError| format!("{}: shadow solve: {e}", entry.tenant);
    let model = {
        let _span = span("forecast.fit");
        ArrivalModel::fit_weighted(&entry.history, game.num_types(), config.forecast_decay)
    };
    let mut estimator = FutureAlertEstimator::new(model, config.rollback);
    let cycle_budget = entry.budget.unwrap_or(game.budget);
    {
        let _span = span("offline.solve");
        OfflineSse::solve(
            &game.payoffs,
            &game.audit_costs,
            &estimator.expected_daily_totals(),
            cycle_budget,
        )
        .map_err(fail)?;
    }
    let options = BackendOptions {
        pruning: config.pruning,
        epsilon: config.epsilon,
        pool: None,
    };
    let mut ossp = config.backend.instantiate_with(&options);
    let mut online = config.backend.instantiate_with(&options);
    let mut estimates = Vec::new();
    let (mut budget_ossp, mut budget_online) = (cycle_budget, cycle_budget);
    let mut mismatches = 0;
    for (alert, expected) in entry.day.alerts().iter().zip(&entry.expected.outcomes) {
        let _push = span("shadow.push");
        {
            let _span = span("forecast.estimate");
            estimator.estimate_all_into(alert.time, &mut estimates);
        }
        let input = |budget| SseInput {
            payoffs: &game.payoffs,
            audit_costs: &game.audit_costs,
            future_estimates: &estimates,
            budget,
        };
        let solution = {
            let _span = span("sse.ossp_solve");
            ossp.solve(&input(budget_ossp)).map_err(fail)?
        };
        let coverage = solution.coverage_of(alert.type_id);
        if solution.best_response != expected.best_response
            || coverage.to_bits() != expected.coverage_ossp.to_bits()
        {
            mismatches += 1;
        }
        if (budget_online - budget_ossp).abs() >= 1e-12 {
            let _span = span("sse.online_solve");
            let solution = online.solve(&input(budget_online)).map_err(fail)?;
            online.recycle(solution);
        }
        if alert.type_id == solution.best_response {
            let _span = span("ossp.closed_form");
            std::hint::black_box(ossp_closed_form(game.payoffs.get(alert.type_id), coverage));
        }
        ossp.recycle(solution);
        estimator.observe_alert(alert.time);
        budget_ossp = expected.budget_after_ossp;
        budget_online = expected.budget_after_online;
    }
    Ok(mismatches)
}

/// One request's codec work at both ends: client encode, server decode,
/// server encode of the reply, client decode.
fn codec_round(
    request_id: u64,
    entry: &PoolEntry,
    request: &Request,
    reply: &Result<Response, sag_net::WireError>,
) -> Result<u64, String> {
    let codec = |e: &dyn std::fmt::Display| format!("{}: codec: {e}", entry.tenant);
    let mut wire = Vec::new();
    {
        let _span = span("codec.client_encode");
        let payload = encode_request(request_id, &entry.tenant, request);
        write_frame(&mut wire, &payload).map_err(|e| codec(&e))?;
    }
    {
        let _span = span("codec.server_decode");
        let payload = read_frame(&mut wire.as_slice())
            .map_err(|e| codec(&e))?
            .ok_or("empty request frame")?;
        std::hint::black_box(decode_request(&payload).map_err(|e| codec(&e))?);
    }
    wire.clear();
    {
        let _span = span("codec.server_encode");
        let payload = encode_reply(request_id, reply);
        write_frame(&mut wire, &payload).map_err(|e| codec(&e))?;
    }
    {
        let _span = span("codec.client_decode");
        let payload = read_frame(&mut wire.as_slice())
            .map_err(|e| codec(&e))?
            .ok_or("empty reply frame")?;
        let decoded = decode_reply(&payload).map_err(|e| codec(&e))?;
        std::hint::black_box(&decoded);
    }
    Ok(wire.len() as u64)
}

fn replay_codec(entry: &PoolEntry, counts: &mut LayerCounts) -> Result<(), String> {
    let session = SessionId::from_raw(0);
    for (i, (alert, outcome)) in entry
        .day
        .alerts()
        .iter()
        .zip(&entry.expected.outcomes)
        .enumerate()
    {
        let request = Request::PushAlert {
            session,
            alert: *alert,
        };
        let reply = Ok(Response::Decision {
            session,
            outcome: outcome.clone(),
        });
        let _span = span("codec.push");
        counts.decision_reply_bytes += codec_round(i as u64 + 2, entry, &request, &reply)? as f64;
    }
    let reply = Ok(Response::DayClosed {
        session,
        tenant: entry.tenant.clone(),
        result: entry.expected.clone(),
    });
    let _span = span("codec.close");
    counts.day_closed_reply_bytes +=
        codec_round(1, entry, &Request::FinishDay { session }, &reply)? as f64;
    Ok(())
}
