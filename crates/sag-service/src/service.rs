//! The [`AuditService`] front door and its [`ServiceBuilder`].

use crate::dedup::{DedupWindow, Handled, Lookup, DEFAULT_DEDUP_WINDOW};
use crate::error::ServiceError;
use crate::metrics::ServiceCounters;
use crate::request::{Request, Response};
use crate::session::{SessionHandle, SessionId};
use sag_core::engine::EngineBuilder;
use sag_core::{AuditCycleEngine, CycleResult};
use sag_pool::WorkerPool;
use sag_sim::DayLog;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

#[cfg(feature = "wal")]
use crate::durability::{Durability, DurabilityOptions, WalTarget};
#[cfg(feature = "wal")]
use sag_wal::{read_wal, DirFs, WalError, WalFs, WalRecord};
#[cfg(feature = "wal")]
use std::path::Path;

/// Identifier of a registered tenant (a hospital, site, or business unit
/// with its own game, budget and alert history). Cheap to clone and hash.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(Arc<str>);

impl TenantId {
    /// Wrap a tenant name.
    #[must_use]
    pub fn new(id: impl Into<Arc<str>>) -> Self {
        TenantId(id.into())
    }

    /// The tenant name as a string slice.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for TenantId {
    fn from(id: &str) -> Self {
        TenantId::new(id)
    }
}

impl From<String> for TenantId {
    fn from(id: String) -> Self {
        TenantId::new(id)
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `pad` honours callers' width/alignment (report tables).
        f.pad(&self.0)
    }
}

/// One registered tenant: its engine (shared with every session it opens)
/// and the rolling history window its forecasters fit on.
#[derive(Debug)]
struct Tenant {
    engine: Arc<AuditCycleEngine>,
    history: Vec<DayLog>,
}

/// One unit of batch work for [`AuditService::replay_concurrent`]: replay a
/// recorded day as one of `tenant`'s audit cycles.
#[derive(Debug, Clone, Copy)]
pub struct ServiceJob<'a> {
    /// The tenant whose engine replays the day.
    pub tenant: &'a TenantId,
    /// The recorded day to stream through a session.
    pub test_day: &'a DayLog,
    /// Per-cycle budget override; `None` uses the tenant game's budget.
    pub budget: Option<f64>,
    /// History override for the forecaster fit; `None` uses the tenant's
    /// recorded history.
    pub history: Option<&'a [DayLog]>,
}

impl<'a> ServiceJob<'a> {
    /// A job on the tenant's recorded history and configured budget.
    #[must_use]
    pub fn new(tenant: &'a TenantId, test_day: &'a DayLog) -> Self {
        ServiceJob {
            tenant,
            test_day,
            budget: None,
            history: None,
        }
    }
}

/// The always-on front door: owns an engine and a rolling alert history per
/// tenant, hands out owned [`SessionHandle`]s, and answers the typed
/// [`Request`] command API. See the crate docs for a full tour.
#[derive(Debug)]
pub struct AuditService {
    tenants: HashMap<TenantId, Tenant>,
    /// Sessions opened through [`handle`](Self::handle), keyed by id.
    open: HashMap<SessionId, SessionHandle>,
    next_session: AtomicU64,
    /// Configured worker count for
    /// [`replay_concurrent`](Self::replay_concurrent); 0 replays inline.
    workers: usize,
    /// The pool itself, spawned lazily on the first concurrent replay so a
    /// command-API-only deployment never starts a thread (same discipline
    /// as the engine's own lazy fan-out pool).
    pool: OnceLock<Option<WorkerPool>>,
    history_window: usize,
    /// Live counters updated lock-free on every [`handle`](Self::handle)
    /// call, when the builder installed a sink (see
    /// [`ServiceBuilder::counters`]).
    counters: Option<Arc<ServiceCounters>>,
    /// Per-tenant duplicate-suppression state for the tagged command API
    /// ([`handle_tagged`](Self::handle_tagged)).
    dedup: HashMap<TenantId, DedupWindow>,
    /// Bound on each tenant's dedup window, in cached responses.
    dedup_window: usize,
    /// The write-ahead log, when the service was built durable. Every
    /// [`handle`](Self::handle) mutation and
    /// [`record_history`](Self::record_history) call is logged here
    /// *before* it is applied and acknowledged.
    #[cfg(feature = "wal")]
    durability: Option<Durability>,
}

impl AuditService {
    /// Start building a service.
    #[must_use]
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::new()
    }

    /// Number of registered tenants.
    #[must_use]
    pub fn num_tenants(&self) -> usize {
        self.tenants.len()
    }

    /// Iterate over the registered tenant ids (arbitrary order).
    pub fn tenants(&self) -> impl Iterator<Item = &TenantId> {
        self.tenants.keys()
    }

    /// Worker threads backing [`replay_concurrent`](Self::replay_concurrent)
    /// (0 means jobs replay inline on the calling thread). The pool itself
    /// is spawned lazily on the first concurrent replay.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The worker pool, spawning it on first use. `None` when the service
    /// was built with zero workers.
    fn pool(&self) -> Option<&WorkerPool> {
        self.pool
            .get_or_init(|| (self.workers > 0).then(|| WorkerPool::new(self.workers)))
            .as_ref()
    }

    /// Number of sessions currently open inside the service (opened through
    /// [`handle`](Self::handle) and not yet finished). Handles checked out
    /// through [`open_day`](Self::open_day) are owned by their callers and
    /// not counted.
    #[must_use]
    pub fn open_sessions(&self) -> usize {
        self.open.len()
    }

    /// A read-only view of one session held inside the service — what a
    /// reconnecting driver uses after recovery to see how far a day got
    /// (`alerts_processed`, remaining budgets) before resuming its feed.
    #[must_use]
    pub fn session(&self, session: SessionId) -> Option<&SessionHandle> {
        self.open.get(&session)
    }

    /// Ids of the sessions currently open inside the service (arbitrary
    /// order).
    pub fn open_session_ids(&self) -> impl Iterator<Item = SessionId> + '_ {
        self.open.keys().copied()
    }

    fn tenant(&self, tenant: &TenantId) -> Result<&Tenant, ServiceError> {
        self.tenants
            .get(tenant)
            .ok_or_else(|| ServiceError::UnknownTenant(tenant.clone()))
    }

    /// A tenant's engine, shared with every session it opens.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownTenant`] for an unregistered id.
    pub fn engine(&self, tenant: &TenantId) -> Result<&Arc<AuditCycleEngine>, ServiceError> {
        Ok(&self.tenant(tenant)?.engine)
    }

    /// A tenant's recorded history window, oldest day first.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownTenant`] for an unregistered id.
    pub fn history(&self, tenant: &TenantId) -> Result<&[DayLog], ServiceError> {
        Ok(&self.tenant(tenant)?.history)
    }

    /// Append a finished day to a tenant's history, trimming the window to
    /// the builder's [`history_window`](ServiceBuilder::history_window) so
    /// long-running services do not grow without bound.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownTenant`] for an unregistered id.
    pub fn record_history(&mut self, tenant: &TenantId, day: DayLog) -> Result<(), ServiceError> {
        if !self.tenants.contains_key(tenant) {
            return Err(ServiceError::UnknownTenant(tenant.clone()));
        }
        #[cfg(feature = "wal")]
        if let Some(durability) = self.durability.as_mut() {
            durability.append(tenant, &WalRecord::HistoryDay(day.clone()))?;
        }
        self.record_history_unlogged(tenant, day);
        #[cfg(feature = "wal")]
        self.maybe_snapshot(tenant)?;
        Ok(())
    }

    /// The in-memory half of [`record_history`](Self::record_history):
    /// push and trim to the rolling window. Shared with WAL replay, which
    /// must not re-log what it reads.
    fn record_history_unlogged(&mut self, tenant: &TenantId, day: DayLog) {
        let window = self.history_window;
        let entry = self
            .tenants
            .get_mut(tenant)
            .expect("caller verified the tenant is registered");
        entry.history.push(day);
        if entry.history.len() > window {
            let excess = entry.history.len() - window;
            entry.history.drain(..excess);
        }
    }

    /// Advance the tenant's snapshot clock and, when due and the tenant
    /// has no open sessions (their records live in the WAL tail), write
    /// the snapshot and truncate the WAL.
    #[cfg(feature = "wal")]
    fn maybe_snapshot(&mut self, tenant: &TenantId) -> Result<(), ServiceError> {
        let has_open = self.open.values().any(|handle| handle.tenant() == tenant);
        let Some(durability) = self.durability.as_mut() else {
            return Ok(());
        };
        let every = durability.options.snapshot_every;
        let Some(td) = durability.tenants.get_mut(tenant) else {
            return Ok(());
        };
        td.days_since_snapshot += 1;
        if td.days_since_snapshot < every.max(1) || has_open {
            return Ok(());
        }
        td.days_since_snapshot = 0;
        let next_session = self.next_session.load(Ordering::Relaxed);
        let history = self
            .tenants
            .get(tenant)
            .map(|entry| entry.history.clone())
            .unwrap_or_default();
        durability.write_snapshot(tenant, next_session, history)?;
        Ok(())
    }

    /// Whether this service logs its mutations to a write-ahead log.
    #[cfg(feature = "wal")]
    #[must_use]
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The live counter sink installed at build time, if any. Shared: the
    /// same `Arc` the builder was given, so observability surfaces can hold
    /// their own handle and read snapshots without borrowing the service.
    #[must_use]
    pub fn counters(&self) -> Option<&Arc<ServiceCounters>> {
        self.counters.as_ref()
    }

    /// Install (or replace) the live counter sink after construction — the
    /// post-build twin of [`ServiceBuilder::counters`], for callers handed
    /// an already-built service (the `sag-net` server front door).
    pub fn set_counters(&mut self, counters: Arc<ServiceCounters>) {
        self.counters = Some(counters);
    }

    fn next_session_id(&self) -> SessionId {
        SessionId(self.next_session.fetch_add(1, Ordering::Relaxed))
    }

    /// Open an audit cycle for a tenant and hand the **owned**
    /// [`SessionHandle`] to the caller: the session holds its engine
    /// through an `Arc`, so the handle can be stored, queued, or moved to
    /// another thread, independent of this service borrow.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownTenant`] for an unregistered id;
    /// [`ServiceError::Engine`] for a malformed budget override.
    pub fn open_day(
        &self,
        tenant: &TenantId,
        budget: Option<f64>,
    ) -> Result<SessionHandle, ServiceError> {
        let entry = self.tenant(tenant)?;
        self.open_handle(entry, tenant, &entry.history, budget)
    }

    /// [`open_day`](Self::open_day) on an explicit history window instead
    /// of the tenant's recorded one — for replaying archived days or
    /// what-if forecasts without touching the service's rolling state.
    ///
    /// # Errors
    ///
    /// Same contract as [`open_day`](Self::open_day).
    pub fn open_day_with_history(
        &self,
        tenant: &TenantId,
        history: &[DayLog],
        budget: Option<f64>,
    ) -> Result<SessionHandle, ServiceError> {
        let entry = self.tenant(tenant)?;
        self.open_handle(entry, tenant, history, budget)
    }

    fn open_handle(
        &self,
        entry: &Tenant,
        tenant: &TenantId,
        history: &[DayLog],
        budget: Option<f64>,
    ) -> Result<SessionHandle, ServiceError> {
        let session = entry.engine.open_day_owned(history, budget)?;
        Ok(SessionHandle::new(
            self.next_session_id(),
            tenant.clone(),
            session,
        ))
    }

    /// Serve one command of the typed API, storing open sessions inside the
    /// service so a single driver loop can multiplex any number of tenants.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownTenant`] / [`ServiceError::UnknownSession`]
    /// for requests naming something the service does not hold,
    /// [`ServiceError::Engine`] for engine-level failures, and (on a
    /// durable service) [`ServiceError::Wal`] when the mutation could not
    /// be logged — in which case it was **not** applied: log-before-
    /// acknowledge never acknowledges what a restart would forget.
    pub fn handle(&mut self, request: Request) -> Result<Response, ServiceError> {
        self.handle_counted(request, 0)
    }

    /// Serve one command of the typed API under an idempotency contract:
    /// `request_id` is the tenant's monotonically increasing client-side
    /// id, and a redelivery of an id the service already applied is
    /// answered from the per-tenant dedup window (see [`Handled`]) instead
    /// of re-applied. Id 0 is the untagged sentinel and behaves exactly
    /// like [`handle`](Self::handle).
    ///
    /// Only successful responses enter the window: an errored request
    /// applied nothing, so re-sending it re-executes it (transient
    /// failures stay retryable; deterministic rejections re-reject).
    ///
    /// `tenant` is the envelope tenant the id is scoped to. For
    /// session-scoped commands it must match the session's owning tenant —
    /// a mismatch answers [`ServiceError::UnknownSession`], revealing
    /// nothing about other tenants' session ids.
    pub fn handle_tagged(
        &mut self,
        tenant: &TenantId,
        request_id: u64,
        request: Request,
    ) -> Handled {
        if request_id == 0 {
            return Handled::Applied(self.handle_counted(request, 0));
        }
        if let Some(window) = self.dedup.get(tenant) {
            match window.lookup(request_id) {
                Lookup::New => {}
                Lookup::Replayed(response) => {
                    if let Some(counters) = &self.counters {
                        counters.record_dup_replayed();
                    }
                    return Handled::Replayed(response);
                }
                Lookup::Stale { last_applied } => {
                    if let Some(counters) = &self.counters {
                        counters.record_dup_stale();
                    }
                    return Handled::Stale {
                        request_id,
                        last_applied,
                    };
                }
            }
        }
        // The envelope tenant owns the id; it must also own the session it
        // is driving, or a misrouted (or probing) command could read
        // another tenant's cycle.
        let named_session = match &request {
            Request::PushAlert { session, .. } | Request::FinishDay { session } => Some(*session),
            Request::OpenDay { .. } => None,
        };
        if let Some(session) = named_session {
            if let Some(handle) = self.open.get(&session) {
                if handle.tenant() != tenant {
                    return Handled::Applied(
                        self.count_rejection(ServiceError::UnknownSession(session)),
                    );
                }
            }
        }
        let result = self.handle_counted(request, request_id);
        if let Ok(response) = &result {
            let capacity = self.dedup_window;
            self.dedup.entry(tenant.clone()).or_default().record(
                request_id,
                response.clone(),
                capacity,
            );
        }
        Handled::Applied(result)
    }

    /// Reject a request before it reaches [`handle_uncounted`], keeping the
    /// counter identity (`requests == … + errors`) intact.
    fn count_rejection(&self, error: ServiceError) -> Result<Response, ServiceError> {
        if let Some(counters) = &self.counters {
            counters.record_request();
            counters.record_error();
        }
        Err(error)
    }

    /// [`handle`](Self::handle) with the counters updated and the request
    /// id threaded through to the WAL records it appends.
    fn handle_counted(
        &mut self,
        request: Request,
        request_id: u64,
    ) -> Result<Response, ServiceError> {
        let counters = self.counters.clone();
        if let Some(counters) = &counters {
            counters.record_request();
        }
        let result = self.handle_uncounted(request, request_id);
        if let Some(counters) = &counters {
            match &result {
                Ok(Response::DayOpened { .. }) => counters.record_open(),
                Ok(Response::Decision { outcome, .. }) => counters.record_outcome(outcome),
                Ok(Response::DayClosed { .. }) => counters.record_close(),
                Err(_) => counters.record_error(),
            }
        }
        result
    }

    /// [`handle`](Self::handle) without the per-request accounting of
    /// [`handle_counted`](Self::handle_counted); only the `PushAlert` arm
    /// adds its session's solve time to the installed counters.
    fn handle_uncounted(
        &mut self,
        request: Request,
        _request_id: u64,
    ) -> Result<Response, ServiceError> {
        match request {
            Request::OpenDay {
                tenant,
                budget,
                day,
            } => {
                let mut handle = self.open_day(&tenant, budget)?;
                if let Some(day) = day {
                    handle.set_day(day);
                }
                let session = handle.id();
                #[cfg(feature = "wal")]
                if let Some(durability) = self.durability.as_mut() {
                    durability.append(
                        &tenant,
                        &WalRecord::OpenDay {
                            session: session.0,
                            day,
                            budget,
                            request_id: _request_id,
                        },
                    )?;
                }
                self.open.insert(session, handle);
                Ok(Response::DayOpened { session, tenant })
            }
            Request::PushAlert { session, alert } => {
                let handle = self
                    .open
                    .get_mut(&session)
                    .ok_or(ServiceError::UnknownSession(session))?;
                #[cfg(feature = "wal")]
                if let Some(durability) = self.durability.as_mut() {
                    durability.append(
                        handle.tenant(),
                        &WalRecord::PushAlert {
                            session: session.0,
                            alert,
                            request_id: _request_id,
                        },
                    )?;
                }
                // The solve is timed here, after the WAL append, so the
                // outcome itself stays a pure value.
                let timer = self.counters.as_deref().map(|c| (c, Instant::now()));
                let outcome = handle.push_alert(&alert)?;
                if let Some((counters, started)) = timer {
                    counters.record_solve(started.elapsed());
                }
                Ok(Response::Decision { session, outcome })
            }
            Request::FinishDay { session } => {
                #[cfg(feature = "wal")]
                if self.durability.is_some() {
                    let tenant = self
                        .open
                        .get(&session)
                        .ok_or(ServiceError::UnknownSession(session))?
                        .tenant()
                        .clone();
                    if let Some(durability) = self.durability.as_mut() {
                        durability.append(
                            &tenant,
                            &WalRecord::FinishDay {
                                session: session.0,
                                request_id: _request_id,
                            },
                        )?;
                    }
                }
                let handle = self
                    .open
                    .remove(&session)
                    .ok_or(ServiceError::UnknownSession(session))?;
                let tenant = handle.tenant().clone();
                let result = handle.finish();
                Ok(Response::DayClosed {
                    session,
                    tenant,
                    result,
                })
            }
        }
    }

    /// Replay one recorded day per job, fanning the jobs out over the
    /// service's worker pool (tenants multiplex across threads; results come
    /// back in job order). Every job opens a fresh session that starts cold,
    /// and every tenant's engine is independent, so each [`CycleResult`] is
    /// a pure function of its job: the output is **bitwise identical** to
    /// driving the same jobs serially, with any worker count — concurrency
    /// only changes wall-clock time.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownTenant`] if any job names an unregistered
    /// tenant (checked up front, before any worker starts), and
    /// [`ServiceError::Engine`] for malformed budget overrides or solver
    /// failures.
    pub fn replay_concurrent(
        &self,
        jobs: &[ServiceJob<'_>],
    ) -> Result<Vec<CycleResult>, ServiceError> {
        // Resolve every tenant up front: fail fast, and let the worker
        // tasks capture only the (Sync) tenant table, not the whole service.
        let resolved: Vec<(&Tenant, &ServiceJob<'_>)> = jobs
            .iter()
            .map(|job| Ok((self.tenant(job.tenant)?, job)))
            .collect::<Result<_, ServiceError>>()?;

        let mut slots: Vec<Option<Result<CycleResult, ServiceError>>> =
            (0..jobs.len()).map(|_| None).collect();
        match self.pool() {
            Some(pool) if jobs.len() > 1 => {
                let tasks: Vec<sag_pool::Task<'_>> = resolved
                    .iter()
                    .zip(slots.iter_mut())
                    .map(|(&(tenant, job), slot)| {
                        Box::new(move || *slot = Some(replay_job(tenant, job)))
                            as sag_pool::Task<'_>
                    })
                    .collect();
                pool.run(tasks);
            }
            _ => {
                for (&(tenant, job), slot) in resolved.iter().zip(slots.iter_mut()) {
                    *slot = Some(replay_job(tenant, job));
                }
            }
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every job replayed"))
            .collect()
    }

    /// Stash a response rebuilt during WAL replay in the tenant's dedup
    /// window, so redeliveries that raced the crash still replay instead
    /// of re-applying. Untagged records (id 0) carry no contract.
    #[cfg(feature = "wal")]
    fn record_replayed_dedup(&mut self, tenant: &TenantId, request_id: u64, response: Response) {
        if request_id == 0 {
            return;
        }
        let capacity = self.dedup_window;
        self.dedup
            .entry(tenant.clone())
            .or_default()
            .record(request_id, response, capacity);
    }

    /// Rebuild in-memory state from `durability`'s storage: per tenant,
    /// load the snapshot (if any), then replay the WAL tail record by
    /// record. Because snapshots are deferred until a tenant has no open
    /// sessions, every open session's `OpenDay` is in the WAL it is
    /// replayed from, with the history records that preceded it — so the
    /// engine's deterministic-replay guarantee rebuilds it bitwise.
    #[cfg(feature = "wal")]
    fn replay_wal(&mut self, durability: &mut Durability) -> Result<(), ServiceError> {
        use std::collections::HashSet;

        // Refuse to silently ignore durable state nobody owns. Leftover
        // `.tmp` files are the harmless residue of an interrupted atomic
        // replace; sweep them.
        let known: HashSet<&str> = durability
            .tenants
            .values()
            .flat_map(|td| [td.wal_file.as_str(), td.snap_file.as_str()])
            .collect();
        let files = durability.fs.list()?;
        for file in &files {
            if file.ends_with(".tmp") {
                durability.fs.remove(file)?;
                continue;
            }
            if !known.contains(file.as_str()) {
                let stem = file
                    .strip_suffix(".wal")
                    .or_else(|| file.strip_suffix(".snap"))
                    .unwrap_or(file);
                return Err(ServiceError::Wal(WalError::UnknownTenant {
                    tenant: sag_wal::unsanitize_tenant(stem),
                }));
            }
        }

        let mut next_session = self.next_session.load(Ordering::Relaxed);
        let tenant_ids: Vec<TenantId> = durability.tenants.keys().cloned().collect();
        for tenant in &tenant_ids {
            let (wal_file, snap_file) = {
                let td = &durability.tenants[tenant];
                (td.wal_file.clone(), td.snap_file.clone())
            };

            let snapshot = match durability.fs.read(&snap_file)? {
                None => None,
                Some(bytes) => {
                    let snap = sag_wal::Snapshot::decode(&bytes, &snap_file)?;
                    if snap.tenant != tenant.as_str() {
                        return Err(ServiceError::Wal(WalError::TenantMismatch {
                            file: snap_file.clone(),
                            expected: tenant.as_str().to_string(),
                            found: snap.tenant,
                        }));
                    }
                    next_session = next_session.max(snap.next_session);
                    let window = self.history_window;
                    let entry = self
                        .tenants
                        .get_mut(tenant)
                        .expect("durability tracks only registered tenants");
                    entry.history = snap.history.clone();
                    if entry.history.len() > window {
                        let excess = entry.history.len() - window;
                        entry.history.drain(..excess);
                    }
                    Some(snap)
                }
            };

            let Some(wal_bytes) = durability.fs.read(&wal_file)? else {
                continue;
            };
            if let Some(snap) = &snapshot {
                if snap.wal_len == wal_bytes.len() as u64
                    && snap.wal_crc == sag_wal::crc32(&wal_bytes)
                {
                    // The crash landed between writing this snapshot and
                    // truncating the WAL: everything in the log is already
                    // inside the snapshot. Finish the truncation.
                    durability
                        .fs
                        .replace(&wal_file, &sag_wal::encode_wal_header(tenant.as_str()))?;
                    continue;
                }
            }

            let scan = read_wal(&wal_bytes, &wal_file)?;
            if let Some(name) = &scan.tenant {
                if name != tenant.as_str() {
                    return Err(ServiceError::Wal(WalError::TenantMismatch {
                        file: wal_file.clone(),
                        expected: tenant.as_str().to_string(),
                        found: name.clone(),
                    }));
                }
            }
            let mut replayed_days = 0usize;
            for record in scan.records {
                match record {
                    WalRecord::HistoryDay(day) => {
                        self.record_history_unlogged(tenant, day);
                        replayed_days += 1;
                    }
                    WalRecord::OpenDay {
                        session,
                        day,
                        budget,
                        request_id,
                    } => {
                        next_session = next_session.max(session + 1);
                        let mut handle = {
                            let entry = self
                                .tenants
                                .get(tenant)
                                .expect("durability tracks only registered tenants");
                            let inner = entry.engine.open_day_owned(&entry.history, budget)?;
                            SessionHandle::new(SessionId(session), tenant.clone(), inner)
                        };
                        if let Some(day) = day {
                            handle.set_day(day);
                        }
                        self.open.insert(SessionId(session), handle);
                        self.record_replayed_dedup(
                            tenant,
                            request_id,
                            Response::DayOpened {
                                session: SessionId(session),
                                tenant: tenant.clone(),
                            },
                        );
                    }
                    WalRecord::PushAlert {
                        session,
                        alert,
                        request_id,
                    } => {
                        let handle = self.open.get_mut(&SessionId(session)).ok_or_else(|| {
                            ServiceError::Wal(WalError::InvalidRecord {
                                file: wal_file.clone(),
                                offset: 0,
                                reason: format!("PushAlert for session {session} that is not open"),
                            })
                        })?;
                        // Deterministic replay makes this outcome the very
                        // bytes the pre-crash decision carried, so the
                        // rebuilt dedup entry replays bitwise too.
                        let outcome = handle.push_alert(&alert)?;
                        self.record_replayed_dedup(
                            tenant,
                            request_id,
                            Response::Decision {
                                session: SessionId(session),
                                outcome,
                            },
                        );
                    }
                    WalRecord::FinishDay {
                        session,
                        request_id,
                    } => {
                        let handle = self.open.remove(&SessionId(session)).ok_or_else(|| {
                            ServiceError::Wal(WalError::InvalidRecord {
                                file: wal_file.clone(),
                                offset: 0,
                                reason: format!("FinishDay for session {session} that is not open"),
                            })
                        })?;
                        // The result may already have reached the original
                        // caller — or the ack was lost and a redelivery is
                        // coming, so cache it under its id either way.
                        let result = handle.finish();
                        self.record_replayed_dedup(
                            tenant,
                            request_id,
                            Response::DayClosed {
                                session: SessionId(session),
                                tenant: tenant.clone(),
                                result,
                            },
                        );
                    }
                }
            }
            durability
                .tenants
                .get_mut(tenant)
                .expect("durability tracks only registered tenants")
                .days_since_snapshot = replayed_days;
        }
        self.next_session.store(next_session, Ordering::Relaxed);
        Ok(())
    }
}

/// Stream one job's day through a fresh **owned** session of `tenant`'s
/// engine — the same session form [`AuditService::open_day`] hands out, so
/// the batch path exercises exactly what a live driver loop runs.
fn replay_job(tenant: &Tenant, job: &ServiceJob<'_>) -> Result<CycleResult, ServiceError> {
    let history = job.history.unwrap_or(&tenant.history);
    let mut session = tenant.engine.open_day_owned(history, job.budget)?;
    session.set_day(job.test_day.day());
    for alert in job.test_day.alerts() {
        session.push_alert(alert)?;
    }
    Ok(session.finish())
}

/// Validated construction of an [`AuditService`]: register tenants (each an
/// [`EngineBuilder`] plus optional starting history), size the worker pool,
/// and [`build`](Self::build). Every tenant's configuration is validated at
/// build time; the first invalid one fails the build with its structured
/// cause.
#[derive(Debug, Default)]
pub struct ServiceBuilder {
    tenants: Vec<(TenantId, EngineBuilder, Vec<DayLog>)>,
    workers: Option<usize>,
    history_window: usize,
    dedup_window: usize,
    counters: Option<Arc<ServiceCounters>>,
    #[cfg(feature = "wal")]
    durability: Option<(WalTarget, DurabilityOptions)>,
}

/// Default bound on each tenant's rolling history window, in days. Large
/// enough for every fit the paper considers (41 days), small enough that a
/// years-running service does not accumulate unbounded logs.
pub const DEFAULT_HISTORY_WINDOW: usize = 64;

impl ServiceBuilder {
    /// An empty builder: no tenants, automatic worker count, default
    /// history window.
    #[must_use]
    pub fn new() -> Self {
        ServiceBuilder {
            tenants: Vec::new(),
            workers: None,
            history_window: DEFAULT_HISTORY_WINDOW,
            dedup_window: DEFAULT_DEDUP_WINDOW,
            counters: None,
            #[cfg(feature = "wal")]
            durability: None,
        }
    }

    /// Install a live counter sink: every [`AuditService::handle`] call
    /// updates it lock-free (see [`ServiceCounters`]). Pass a clone of an
    /// `Arc` you keep, and read [`ServiceCounters::snapshot`] from any
    /// thread — this is how the `sag-net` metrics endpoint watches the hot
    /// path.
    #[must_use]
    pub fn counters(mut self, counters: Arc<ServiceCounters>) -> Self {
        self.counters = Some(counters);
        self
    }

    /// Worker threads for [`AuditService::replay_concurrent`]. `0` disables
    /// the pool (jobs replay inline); the default is one worker per
    /// available core.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Bound on each tenant's rolling history window, in days (at least 1).
    #[must_use]
    pub fn history_window(mut self, days: usize) -> Self {
        self.history_window = days.max(1);
        self
    }

    /// Bound on each tenant's duplicate-suppression window, in cached
    /// responses (at least 1) — how far back a redelivered request id can
    /// still be answered with its original response by
    /// [`AuditService::handle_tagged`]. Default
    /// [`DEFAULT_DEDUP_WINDOW`] responses.
    #[must_use]
    pub fn dedup_window(mut self, responses: usize) -> Self {
        self.dedup_window = responses.max(1);
        self
    }

    /// Register a tenant with an empty starting history.
    #[must_use]
    pub fn tenant(self, id: impl Into<TenantId>, engine: EngineBuilder) -> Self {
        self.tenant_with_history(id, engine, Vec::new())
    }

    /// Register a tenant with recorded history for its forecasters to fit
    /// on (oldest day first; trimmed to the history window at build).
    #[must_use]
    pub fn tenant_with_history(
        mut self,
        id: impl Into<TenantId>,
        engine: EngineBuilder,
        history: Vec<DayLog>,
    ) -> Self {
        self.tenants.push((id.into(), engine, history));
        self
    }

    /// Log every service mutation to a write-ahead log directory, with
    /// default [`DurabilityOptions`] (fsync on). The directory is created
    /// at build time; building *fresh* over a directory that already holds
    /// records fails with [`sag_wal::WalError::ExistingState`] — use
    /// [`recover_from`](Self::recover_from) for that.
    #[cfg(feature = "wal")]
    #[must_use]
    pub fn durable(self, dir: impl AsRef<Path>) -> Self {
        self.durable_with(dir, DurabilityOptions::default())
    }

    /// [`durable`](Self::durable) with explicit [`DurabilityOptions`].
    #[cfg(feature = "wal")]
    #[must_use]
    pub fn durable_with(mut self, dir: impl AsRef<Path>, options: DurabilityOptions) -> Self {
        self.durability = Some((WalTarget::Dir(dir.as_ref().to_path_buf()), options));
        self
    }

    /// Log to caller-supplied storage instead of a directory — an
    /// [`sag_wal::MemFs`] for fast tests, or an [`sag_wal::FailpointFs`]
    /// to inject a scripted crash.
    #[cfg(feature = "wal")]
    #[must_use]
    pub fn durable_on(mut self, fs: Box<dyn WalFs>, options: DurabilityOptions) -> Self {
        self.durability = Some((WalTarget::Fs(fs), options));
        self
    }

    /// Validate every tenant's configuration and assemble the service.
    ///
    /// # Errors
    ///
    /// [`ServiceError::DuplicateTenant`] for a repeated id,
    /// [`ServiceError::Engine`] (carrying the structured
    /// [`sag_core::ConfigError`]) for the first invalid tenant
    /// configuration, and [`ServiceError::Wal`] when a configured WAL
    /// target cannot be initialised or already holds state.
    pub fn build(self) -> Result<AuditService, ServiceError> {
        self.build_inner(true)
    }

    /// Build and, when a WAL target is configured, replay its snapshot +
    /// WAL tail: rebuilds every tenant's recorded history and reopens
    /// every session that was open at the crash, to **bitwise-identical**
    /// state — session outputs are a pure function of (engine config,
    /// history, budget, alerts pushed), all of which the log captures. A
    /// torn or truncated final record is discarded; an empty or missing
    /// directory is a clean first boot.
    ///
    /// # Errors
    ///
    /// Everything [`build`](Self::build) can raise, plus
    /// [`ServiceError::Wal`] for logs that cannot be trusted (corruption
    /// before the tail, version mismatch, state for unregistered tenants)
    /// and [`ServiceError::Engine`] if a logged alert no longer replays.
    #[cfg(feature = "wal")]
    pub fn recover(self) -> Result<AuditService, ServiceError> {
        if self.durability.is_none() {
            return Err(ServiceError::Wal(WalError::Io {
                file: String::new(),
                message: "no durability target configured; call durable()/durable_on() first"
                    .to_string(),
            }));
        }
        let mut service = self.build_inner(false)?;
        let mut durability = service
            .durability
            .take()
            .expect("durable build keeps its durability state");
        service.replay_wal(&mut durability)?;
        service.durability = Some(durability);
        Ok(service)
    }

    /// [`durable`](Self::durable) + [`recover`](Self::recover): the one
    /// call a restarting deployment makes.
    ///
    /// # Errors
    ///
    /// See [`recover`](Self::recover).
    #[cfg(feature = "wal")]
    pub fn recover_from(self, dir: impl AsRef<Path>) -> Result<AuditService, ServiceError> {
        self.durable(dir).recover()
    }

    /// [`durable_on`](Self::durable_on) + [`recover`](Self::recover), for
    /// recovering off in-memory or fault-injecting storage in tests.
    ///
    /// # Errors
    ///
    /// See [`recover`](Self::recover).
    #[cfg(feature = "wal")]
    pub fn recover_on(
        self,
        fs: Box<dyn WalFs>,
        options: DurabilityOptions,
    ) -> Result<AuditService, ServiceError> {
        self.durable_on(fs, options).recover()
    }

    fn build_inner(self, _fresh: bool) -> Result<AuditService, ServiceError> {
        #[cfg(feature = "wal")]
        let durability_target = self.durability;
        let mut tenants = HashMap::with_capacity(self.tenants.len());
        for (id, engine, mut history) in self.tenants {
            if tenants.contains_key(&id) {
                return Err(ServiceError::DuplicateTenant(id));
            }
            let engine = engine.build_shared()?;
            if history.len() > self.history_window {
                let excess = history.len() - self.history_window;
                history.drain(..excess);
            }
            tenants.insert(id, Tenant { engine, history });
        }
        let workers = self
            .workers
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from));
        #[cfg(feature = "wal")]
        let durability = match durability_target {
            None => None,
            Some((target, options)) => {
                let fs: Box<dyn WalFs> = match target {
                    WalTarget::Dir(dir) => Box::new(DirFs::new(dir)?),
                    WalTarget::Fs(fs) => fs,
                };
                let mut durability = Durability::new(fs, options, tenants.keys());
                durability.ensure_headers(_fresh)?;
                Some(durability)
            }
        };
        Ok(AuditService {
            tenants,
            open: HashMap::new(),
            next_session: AtomicU64::new(0),
            workers,
            pool: OnceLock::new(),
            history_window: self.history_window,
            dedup: HashMap::new(),
            dedup_window: self.dedup_window.max(1),
            counters: self.counters,
            #[cfg(feature = "wal")]
            durability,
        })
    }
}
