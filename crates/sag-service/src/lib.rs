//! # sag-service — the multi-tenant front door of the SAG workspace
//!
//! The engine crate gives one deployment its per-day machinery: an
//! [`sag_core::AuditCycleEngine`] and the streaming sessions it opens. A
//! real audit deployment is not one engine, though — it is a *service*:
//! always on, fronting many tenants (hospitals, sites, business units),
//! each with its own game, budget and alert history, with thousands of
//! audit cycles open at once and warning decisions served per access
//! request. This crate is that front door.
//!
//! ## The pieces
//!
//! * [`AuditService`] — owns one [`sag_core::AuditCycleEngine`] (behind an
//!   [`std::sync::Arc`]) and a rolling alert history per registered tenant,
//!   and hands out **owned** [`SessionHandle`]s: sessions freed from the
//!   engine's lifetime, storable in maps and movable across threads.
//! * [`ServiceBuilder`] / [`sag_core::EngineBuilder`] — validated
//!   construction. Every tenant's configuration is checked at
//!   [`ServiceBuilder::build`] with a structured [`sag_core::ConfigError`],
//!   so a bad game or knob fails at the front door, not deep inside a
//!   replay.
//! * [`Request`] / [`Response`] — the typed command API
//!   ([`Request::OpenDay`], [`Request::PushAlert`],
//!   [`Request::FinishDay`]): a single driver loop can multiplex any number
//!   of tenants' concurrent audit cycles through
//!   [`AuditService::handle`], with the open sessions stored inside the
//!   service.
//! * [`ServiceError`] — structured, `#[non_exhaustive]` errors: unknown
//!   tenant/session, duplicate registration, or a wrapped engine error.
//! * [`AuditService::replay_concurrent`] — the batch path: one recorded day
//!   per job, fanned out over the service's [`sag_pool::WorkerPool`]. Each
//!   tenant's engine and each day's session are independent and start cold,
//!   so the results are **bitwise identical** to replaying every tenant
//!   serially — concurrency only buys wall-clock time.
//! * Durability, chosen at build time — [`ServiceBuilder::durable`] logs
//!   every mutation to a per-tenant, CRC-framed write-ahead log *before*
//!   acknowledging it, snapshots periodically, and
//!   [`ServiceBuilder::recover_from`] rebuilds the exact pre-crash state
//!   (open mid-day sessions included, bitwise identical) from the snapshot
//!   plus the WAL tail, discarding torn final records. The storage seam is
//!   [`WalFs`] ([`DirFs`] on disk, [`MemFs`] in memory, [`FailpointFs`] for
//!   deterministic crash injection in tests).
//! * [`ServiceCounters`] — every service counts what it serves, lock-free:
//!   requests, opens, decisions, closes, errors, dedup replays and the
//!   auditor-utility sums. [`AuditService::counters`] shares the sink; the
//!   `sag-net` metrics page renders it. A recovered service starts from
//!   zero, since WAL replay serves no request.
//!
//! ## A complete tour
//!
//! ```
//! use sag_core::EngineBuilder;
//! use sag_service::{AuditService, Request, Response, TenantId};
//! use sag_sim::{StreamConfig, StreamGenerator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two tenants: a hospital on the paper's 7-type game and a satellite
//! // clinic on the single-type game with a tighter budget.
//! let mut gen = StreamGenerator::new(StreamConfig::paper_multi_type(7));
//! let (hospital_history, mut hospital_days) = gen.generate_split(5, 1);
//! let mut gen = StreamGenerator::new(StreamConfig::paper_single_type(7));
//! let (clinic_history, mut clinic_days) = gen.generate_split(5, 1);
//!
//! let mut service = AuditService::builder()
//!     .tenant_with_history("hospital", EngineBuilder::paper_multi_type(), hospital_history)
//!     .tenant_with_history(
//!         "clinic",
//!         EngineBuilder::paper_single_type().budget(10.0),
//!         clinic_history,
//!     )
//!     .build()?;
//!
//! // Drive both tenants' days through the command API, interleaved.
//! let hospital = TenantId::from("hospital");
//! let clinic = TenantId::from("clinic");
//! let Response::DayOpened { session: h, .. } = service.handle(Request::OpenDay {
//!     tenant: hospital,
//!     budget: None,
//!     day: None,
//! })?
//! else {
//!     unreachable!()
//! };
//! let Response::DayOpened { session: c, .. } = service.handle(Request::OpenDay {
//!     tenant: clinic,
//!     budget: None,
//!     day: None,
//! })?
//! else {
//!     unreachable!()
//! };
//! for (hospital_alert, clinic_alert) in
//!     hospital_days[0].alerts().iter().zip(clinic_days[0].alerts())
//! {
//!     service.handle(Request::PushAlert { session: h, alert: hospital_alert.clone() })?;
//!     service.handle(Request::PushAlert { session: c, alert: clinic_alert.clone() })?;
//! }
//! let Response::DayClosed { result, .. } = service.handle(Request::FinishDay { session: c })?
//! else {
//!     unreachable!()
//! };
//! assert!(result.len() > 0);
//! # let _ = service.handle(Request::FinishDay { session: h })?;
//! # Ok(())
//! # }
//! ```
//!
//! The typed methods ([`AuditService::open_day`]) skip the command enum and
//! hand the [`SessionHandle`] straight to the caller — the shape to use
//! when each tenant's feed runs on its own thread.

#![forbid(unsafe_code)]

pub mod dedup;
pub mod durability;
pub mod error;
pub mod metrics;
pub mod request;
pub mod service;
pub mod session;

pub use dedup::{Handled, DEFAULT_DEDUP_WINDOW};
pub use durability::DurabilityOptions;
pub use error::ServiceError;
pub use metrics::{CountersSnapshot, ServiceCounters};
pub use request::{Request, Response};
pub use service::{AuditService, ServiceBuilder, ServiceJob, TenantId};
pub use session::{SessionHandle, SessionId};

// Re-exported so durable deployments need only this crate in scope.
pub use sag_wal::{DirFs, FailpointFs, MemFs, WalError, WalFs, WalRecord};

/// Result alias for fallible service operations.
pub type Result<T> = std::result::Result<T, ServiceError>;
