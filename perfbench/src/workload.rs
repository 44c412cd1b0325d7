//! The workloads, their set-up, and the in-process reference replay.
//!
//! A workload is a fleet of one-day tenants of one scenario: tenant `t`
//! streams the day generated from `seed + t` after the scenario's history
//! days, registered on the service (the `sag_scenarios::tenant_fleet_parts`
//! convention). The closed loop serves the pool of tenant-days over and
//! over; closing a day leaves the tenant's history unchanged, so every
//! serving of a tenant-day must return the same decisions.

use crate::check::same_result;
use sag_core::{CycleResult, EngineConfig};
use sag_net::codec::write_handshake;
use sag_net::{Server, ServerConfig};
use sag_scenarios::{find_scenario, tenant_fleet_parts, FleetTenant, Scenario};
use sag_service::{
    AuditService, DurabilityOptions, Request, Response, ServiceBuilder, ServiceError, TenantId,
};
use sag_sim::DayLog;
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Registered scenario the fleet is built from.
    pub scenario: &'static str,
    /// One-day tenants in the pool.
    pub tenants: usize,
    /// Serve with a write-ahead log in a real directory, fsync per record.
    pub durable: bool,
}

/// Every workload, in report order.
pub const WORKLOADS: [WorkloadSpec; 3] = [
    WorkloadSpec {
        name: "paper-fleet",
        scenario: "paper-baseline",
        tenants: 64,
        durable: false,
    },
    WorkloadSpec {
        name: "metro-fleet",
        scenario: "metro-grid",
        tenants: 16,
        durable: false,
    },
    WorkloadSpec {
        name: "paper-durable",
        scenario: "paper-baseline",
        tenants: 64,
        durable: true,
    },
];

/// The workload named `name`.
#[must_use]
pub fn find_workload(name: &str) -> Option<WorkloadSpec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// One tenant-day of the pool with its in-process reference result.
#[derive(Debug)]
pub struct PoolEntry {
    /// The tenant serving this day.
    pub tenant: TenantId,
    /// The day's alerts.
    pub day: DayLog,
    /// The day's budget override (`None`: the game's budget).
    pub budget: Option<f64>,
    /// The tenant's registered history.
    pub history: Vec<DayLog>,
    /// What an in-process replay of the day's requests returned.
    pub expected: CycleResult,
}

impl PoolEntry {
    /// The `OpenDay` request for this tenant-day.
    #[must_use]
    pub fn open_request(&self) -> Request {
        Request::OpenDay {
            tenant: self.tenant.clone(),
            budget: self.budget,
            day: Some(self.day.day()),
        }
    }
}

/// The generated inputs of one workload at one seed: the populated,
/// unbuilt service and the tenants' test days.
pub struct Inputs {
    /// The scenario the fleet was built from.
    pub scenario: Box<dyn Scenario>,
    /// The service builder with every tenant and its history registered.
    pub builder: ServiceBuilder,
    /// The fleet, in tenant order.
    pub fleet: Vec<FleetTenant>,
}

/// Generate a workload's inputs from `seed`.
///
/// # Errors
///
/// An unknown scenario name.
pub fn generate(spec: &WorkloadSpec, seed: u64, tenants: usize) -> Result<Inputs, String> {
    let scenario = find_scenario(spec.scenario)
        .ok_or_else(|| format!("unknown scenario {:?}", spec.scenario))?;
    let (builder, fleet) =
        tenant_fleet_parts(scenario.as_ref(), seed, tenants, scenario.history_days(), 1);
    Ok(Inputs {
        scenario,
        builder,
        fleet,
    })
}

/// A served fleet: the server on a loopback port and one client connection
/// that has sent its handshake.
pub struct Served {
    /// The running server.
    pub server: Server,
    /// The generator's connection.
    pub stream: TcpStream,
    /// Wall time of stream generation, fleet build, server start and
    /// connect.
    pub setup: Duration,
}

/// Set up a workload from scratch: generate its inputs, build the service
/// (durable under `wal_dir` when the workload asks for it), start the
/// server on a loopback port and connect to it.
///
/// # Errors
///
/// Build, bind and connect failures, rendered.
pub fn serve(
    spec: &WorkloadSpec,
    seed: u64,
    tenants: usize,
    wal_dir: &Path,
) -> Result<Served, String> {
    let started = Instant::now();
    let builder = generate(spec, seed, tenants)?.builder;
    let builder = if spec.durable {
        builder.durable_with(wal_dir, DurabilityOptions::default())
    } else {
        builder
    };
    let service = builder
        .build()
        .map_err(|e| format!("fleet build failed: {e}"))?;
    let server = Server::start(service, "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("server start failed: {e}"))?;
    let mut stream =
        TcpStream::connect(server.local_addr()).map_err(|e| format!("connect failed: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("set_nodelay failed: {e}"))?;
    write_handshake(&mut stream).map_err(|e| format!("handshake failed: {e}"))?;
    Ok(Served {
        server,
        stream,
        setup: started.elapsed(),
    })
}

/// Replay every tenant-day of `inputs` in process through
/// [`AuditService::handle`], recording each day's reference result.
///
/// # Errors
///
/// Any service error, or a day whose decisions disagree with its own
/// closed result (the in-process path must be self-consistent).
pub fn reference_pool(inputs: Inputs) -> Result<(EngineConfig, Vec<PoolEntry>), String> {
    let Inputs {
        scenario,
        builder,
        fleet,
    } = inputs;
    let mut service = builder
        .build()
        .map_err(|e| format!("reference build failed: {e}"))?;
    let mut pool = Vec::with_capacity(fleet.len());
    for tenant in fleet {
        let day = tenant
            .test_days
            .into_iter()
            .next()
            .ok_or("a fleet tenant has no test day")?;
        let history = service
            .history(&tenant.id)
            .map_err(|e| e.to_string())?
            .to_vec();
        let budget = scenario.budget_for_day(day.day());
        let expected = replay_day(&mut service, &tenant.id, &day, budget)?;
        pool.push(PoolEntry {
            tenant: tenant.id,
            day,
            budget,
            history,
            expected,
        });
    }
    Ok((scenario.engine_config(), pool))
}

/// Drive one tenant-day through `service.handle` and return its closed
/// result, checking each streamed decision against the closed result.
fn replay_day(
    service: &mut AuditService,
    tenant: &TenantId,
    day: &DayLog,
    budget: Option<f64>,
) -> Result<CycleResult, String> {
    let fail = |e: ServiceError| format!("{tenant}: reference replay: {e}");
    let open = Request::OpenDay {
        tenant: tenant.clone(),
        budget,
        day: Some(day.day()),
    };
    let Response::DayOpened { session, .. } = service.handle(open).map_err(fail)? else {
        return Err(format!("{tenant}: OpenDay answered out of kind"));
    };
    let mut decisions = Vec::with_capacity(day.len());
    for alert in day.alerts() {
        let push = Request::PushAlert {
            session,
            alert: *alert,
        };
        match service.handle(push).map_err(fail)? {
            Response::Decision { outcome, .. } => decisions.push(outcome),
            _ => return Err(format!("{tenant}: PushAlert answered out of kind")),
        }
    }
    let Response::DayClosed { result, .. } = service
        .handle(Request::FinishDay { session })
        .map_err(fail)?
    else {
        return Err(format!("{tenant}: FinishDay answered out of kind"));
    };
    let mut streamed = result.clone();
    streamed.outcomes = decisions;
    if !same_result(&streamed, &result) {
        return Err(format!(
            "{tenant}: in-process decisions disagree with the closed day"
        ));
    }
    Ok(result)
}
