//! The in-process cluster: N independent [`AuditService`] shards behind one
//! typed [`Request`]/[`Response`] front door.
//!
//! Each shard owns its own engines, worker pool, counters, and — when
//! durable — its own WAL directory (`<dir>/shard-<i>`), so a crashed shard
//! recovers from its own bytes while every other shard keeps serving
//! untouched. Because the paper's scheme is per-tenant-independent,
//! per-tenant results are bitwise-identical regardless of the shard count;
//! the registry-wide suites in `sag-scenarios` assert exactly that against
//! the unsharded service.

use crate::router::ShardRouter;
use sag_core::EngineBuilder;
use sag_service::{
    AuditService, CountersSnapshot, DurabilityOptions, Handled, Request, Response, ServiceBuilder,
    ServiceError, TenantId, WalError,
};
use sag_sim::DayLog;
use std::path::{Path, PathBuf};

/// The WAL directory a shard logs under: `<dir>/shard-<index>`.
///
/// Exposed so operators and tests can point a single-shard recovery (or a
/// disk-usage probe) at the right subtree without re-deriving the layout.
#[must_use]
pub fn shard_wal_dir(dir: impl AsRef<Path>, shard: usize) -> PathBuf {
    dir.as_ref().join(format!("shard-{shard}"))
}

/// Refuse a durable cluster directory that holds `.wal` or `.snap` files
/// itself: that is an unsharded service's log, which no shard reads, so a
/// recovery would boot empty past it. A 1-shard cluster keeps the
/// unsharded session ids, so moving the files into `<dir>/shard-0`
/// migrates the log.
fn refuse_unsharded_log(dir: &Path) -> Result<(), ServiceError> {
    let io = |e: std::io::Error| ServiceError::Wal(WalError::io(dir.display().to_string(), &e));
    let entries = match std::fs::read_dir(dir) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        entries => entries.map_err(io)?,
    };
    for entry in entries {
        let path = entry.map_err(io)?.path();
        let extension = path.extension().and_then(|ext| ext.to_str());
        if path.is_file() && matches!(extension, Some("wal" | "snap")) {
            return Err(ServiceError::Wal(WalError::Io {
                file: path.display().to_string(),
                message: format!(
                    "an unsharded service's log, which no cluster shard reads; move every \
                     .wal and .snap file in {} into {} and start one shard",
                    dir.display(),
                    shard_wal_dir(dir, 0).display()
                ),
            }));
        }
    }
    Ok(())
}

/// Builder for a [`ClusterService`]: tenant specs plus per-shard knobs.
///
/// Tenants are placed by the [`ShardRouter`]'s consistent hash at
/// [`build`](Self::build) time; each shard gets its own
/// [`ServiceBuilder`] carrying only the tenants it owns, so duplicate
/// registrations are still caught (the same id always hashes to the same
/// shard) and every shard validates independently.
#[derive(Debug)]
pub struct ClusterBuilder {
    router: ShardRouter,
    tenants: Vec<(TenantId, EngineBuilder, Vec<DayLog>)>,
    workers: Option<usize>,
    history_window: Option<usize>,
    durability: Option<(PathBuf, DurabilityOptions)>,
}

impl ClusterBuilder {
    /// Start a cluster over `shards` shards (clamped to at least 1).
    #[must_use]
    pub fn new(shards: usize) -> ClusterBuilder {
        ClusterBuilder {
            router: ShardRouter::new(shards),
            tenants: Vec::new(),
            workers: None,
            history_window: None,
            durability: None,
        }
    }

    /// The router this cluster will place tenants with.
    #[must_use]
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// Register a tenant with no prior history.
    #[must_use]
    pub fn tenant(self, id: impl Into<TenantId>, engine: EngineBuilder) -> Self {
        self.tenant_with_history(id, engine, Vec::new())
    }

    /// Register a tenant seeded with recorded history days.
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

    /// Worker-pool size for **each** shard (shards never share a pool).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Rolling history window per tenant (see
    /// [`ServiceBuilder::history_window`]).
    #[must_use]
    pub fn history_window(mut self, days: usize) -> Self {
        self.history_window = Some(days);
        self
    }

    /// Log every shard under `<dir>/shard-<i>` with default
    /// [`DurabilityOptions`]. Recovery stays shard-local: one shard's crash
    /// is recovered from its own subtree (see
    /// [`recover_shard`](Self::recover_shard)).
    #[must_use]
    pub fn durable(self, dir: impl AsRef<Path>) -> Self {
        self.durable_with(dir, DurabilityOptions::default())
    }

    /// [`durable`](Self::durable) with explicit options (applied to every
    /// shard).
    #[must_use]
    pub fn durable_with(mut self, dir: impl AsRef<Path>, options: DurabilityOptions) -> Self {
        self.durability = Some((dir.as_ref().to_path_buf(), options));
        self
    }

    /// Place every tenant and build one [`ServiceBuilder`] per shard,
    /// after checking that a durable directory holds no unsharded log.
    fn into_shard_builders(self) -> Result<(ShardRouter, Vec<ServiceBuilder>), ServiceError> {
        if let Some((dir, _)) = &self.durability {
            refuse_unsharded_log(dir)?;
        }
        let router = self.router;
        let shards = router.num_shards();
        let mut per_shard: Vec<Vec<(TenantId, EngineBuilder, Vec<DayLog>)>> =
            (0..shards).map(|_| Vec::new()).collect();
        for (id, engine, history) in self.tenants {
            let shard = router.shard_for(&id);
            per_shard[shard].push((id, engine, history));
        }
        let builders = per_shard
            .into_iter()
            .enumerate()
            .map(|(shard, tenants)| {
                let mut builder = AuditService::builder();
                if let Some(workers) = self.workers {
                    builder = builder.workers(workers);
                }
                if let Some(days) = self.history_window {
                    builder = builder.history_window(days);
                }
                if let Some((dir, options)) = &self.durability {
                    builder = builder.durable_with(shard_wal_dir(dir, shard), *options);
                }
                for (id, engine, history) in tenants {
                    builder = builder.tenant_with_history(id, engine, history);
                }
                builder
            })
            .collect();
        Ok((router, builders))
    }

    /// Build every shard fresh.
    ///
    /// # Errors
    ///
    /// Any shard's [`ServiceBuilder::build`] failure (duplicate tenant,
    /// invalid engine config, or — when durable — pre-existing WAL state),
    /// and [`ServiceError::Wal`] when the durable directory itself holds an
    /// unsharded service's `.wal` or `.snap` files.
    pub fn build(self) -> Result<ClusterService, ServiceError> {
        let (router, builders) = self.into_shard_builders()?;
        let shards = builders
            .into_iter()
            .map(ServiceBuilder::build)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ClusterService { router, shards })
    }

    /// Recover every shard from its own WAL subtree under the configured
    /// durable directory (requires [`durable`](Self::durable)).
    ///
    /// # Errors
    ///
    /// Any shard's [`ServiceBuilder::recover`] failure, and
    /// [`ServiceError::Wal`] when the durable directory itself holds an
    /// unsharded service's `.wal` or `.snap` files: recovering past them
    /// would boot empty.
    pub fn recover(self) -> Result<ClusterService, ServiceError> {
        let (router, builders) = self.into_shard_builders()?;
        let shards = builders
            .into_iter()
            .map(ServiceBuilder::recover)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ClusterService { router, shards })
    }

    /// [`recover`](Self::recover) from an explicit directory.
    ///
    /// # Errors
    ///
    /// Any shard's recovery failure.
    pub fn recover_from(self, dir: impl AsRef<Path>) -> Result<ClusterService, ServiceError> {
        self.durable(dir).recover()
    }

    /// Recover **one** shard from its WAL subtree, leaving every other
    /// shard's state on disk untouched — the shard-local recovery path.
    ///
    /// The builder must describe the same fleet (same tenants, same shard
    /// count, same durable directory) as the cluster that crashed; only the
    /// tenants the router places on `shard` are rebuilt. Swap the result in
    /// with [`ClusterService::replace_shard`].
    ///
    /// # Errors
    ///
    /// The shard's [`ServiceBuilder::recover`] failure, an out-of-range
    /// `shard`, or an unsharded log in the durable directory (see
    /// [`recover`](Self::recover)).
    pub fn recover_shard(self, shard: usize) -> Result<AuditService, ServiceError> {
        let num_shards = self.router.num_shards();
        if shard >= num_shards {
            return Err(ServiceError::Wal(WalError::Io {
                file: format!("shard-{shard}"),
                message: format!(
                    "shard index {shard} out of range for a {num_shards}-shard cluster"
                ),
            }));
        }
        let (_, mut builders) = self.into_shard_builders()?;
        builders.swap_remove(shard).recover()
    }
}

/// N independent [`AuditService`] shards behind one typed command API.
///
/// `handle`/`handle_tagged` route by the [`ShardRouter`], rewrite session
/// ids between the cluster form clients hold and each shard's local form
/// (the bijection documented on [`ShardRouter`]), and otherwise behave
/// exactly like the
/// unsharded service — including the per-tenant dedup window, which lives
/// on the tenant's shard and survives that shard's recovery.
#[derive(Debug)]
pub struct ClusterService {
    router: ShardRouter,
    shards: Vec<AuditService>,
}

impl ClusterService {
    /// Start building a cluster over `shards` shards.
    #[must_use]
    pub fn builder(shards: usize) -> ClusterBuilder {
        ClusterBuilder::new(shards)
    }

    /// The placement/translation router (stateless and `Copy`).
    #[must_use]
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// How many shards this cluster runs.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Read access to one shard's service.
    ///
    /// # Panics
    ///
    /// When `shard` is out of range.
    #[must_use]
    pub fn shard(&self, shard: usize) -> &AuditService {
        &self.shards[shard]
    }

    /// Read access to every shard, in shard order.
    #[must_use]
    pub fn shards(&self) -> &[AuditService] {
        &self.shards
    }

    /// Swap in a replacement service for `shard` (the tail of the
    /// shard-local recovery flow: recover with
    /// [`ClusterBuilder::recover_shard`], then swap). Returns the displaced
    /// service. No other shard is touched — they keep serving throughout.
    ///
    /// # Panics
    ///
    /// When `shard` is out of range.
    pub fn replace_shard(&mut self, shard: usize, service: AuditService) -> AuditService {
        std::mem::replace(&mut self.shards[shard], service)
    }

    /// Total registered tenants across every shard.
    #[must_use]
    pub fn num_tenants(&self) -> usize {
        self.shards.iter().map(AuditService::num_tenants).sum()
    }

    /// Every registered tenant, grouped by shard.
    pub fn tenants(&self) -> impl Iterator<Item = &TenantId> {
        self.shards.iter().flat_map(AuditService::tenants)
    }

    /// Open sessions across every shard.
    #[must_use]
    pub fn open_sessions(&self) -> usize {
        self.shards.iter().map(AuditService::open_sessions).sum()
    }

    /// Whether every shard logs through a WAL.
    #[must_use]
    pub fn is_durable(&self) -> bool {
        self.shards.iter().all(AuditService::is_durable)
    }

    /// The shard that owns `tenant`.
    #[must_use]
    pub fn shard_for(&self, tenant: &TenantId) -> usize {
        self.router.shard_for(tenant)
    }

    /// Sum every shard's counters into one cluster-wide snapshot (see
    /// [`CountersSnapshot::sum`]). The quiescent identity (`requests ==
    /// days_opened + alerts + days_closed + errors`) holds on the sum
    /// because it holds on every shard's.
    #[must_use]
    pub fn counters_snapshot(&self) -> CountersSnapshot {
        CountersSnapshot::sum(self.shards.iter().map(|shard| shard.counters().snapshot()))
    }

    /// Serve one command, routed to the owning shard with session ids
    /// translated both ways.
    ///
    /// # Errors
    ///
    /// The owning shard's [`ServiceError`], with any session id rewritten
    /// back to cluster form.
    pub fn handle(&mut self, request: Request) -> Result<Response, ServiceError> {
        let shard = self.router.shard_for_request(&request);
        let local = self.router.to_local(request);
        self.shards[shard]
            .handle(local)
            .map(|response| self.router.to_cluster(response, shard))
            .map_err(|error| self.router.to_cluster_error(error, shard))
    }

    /// Serve one command under the idempotency contract (see
    /// [`AuditService::handle_tagged`]). The dedup window is the owning
    /// shard's: redeliveries route to the same shard by construction, so
    /// exactly-once holds per shard and therefore cluster-wide.
    pub fn handle_tagged(
        &mut self,
        tenant: &TenantId,
        request_id: u64,
        request: Request,
    ) -> Handled {
        let shard = self.router.shard_for_request(&request);
        self.router
            .handle_tagged(&mut self.shards[shard], shard, tenant, request_id, request)
    }

    /// Tear the cluster apart into its router and shard services, in shard
    /// order — how the network front door takes ownership to put every
    /// shard behind its own lock.
    #[must_use]
    pub fn into_shards(self) -> (ShardRouter, Vec<AuditService>) {
        (self.router, self.shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sag_service::{Response, SessionId};

    fn two_tenant_cluster(shards: usize) -> ClusterService {
        ClusterService::builder(shards)
            .workers(0)
            .tenant("alpha", EngineBuilder::paper_single_type())
            .tenant("beta", EngineBuilder::paper_multi_type())
            .build()
            .expect("cluster builds")
    }

    #[test]
    fn tenants_land_on_their_hashed_shard() {
        let cluster = two_tenant_cluster(4);
        assert_eq!(cluster.num_tenants(), 2);
        for tenant in [TenantId::from("alpha"), TenantId::from("beta")] {
            let shard = cluster.shard_for(&tenant);
            assert!(
                cluster.shard(shard).tenants().any(|t| *t == tenant),
                "{tenant} not on its hashed shard {shard}"
            );
        }
    }

    /// What `sag_server --wal-dir DIR [--recover]` meets over a directory
    /// an unsharded service logged to: a refusal naming the move, never an
    /// empty boot; after the move one shard resumes the open day.
    #[test]
    fn an_unsharded_log_is_refused_until_moved_into_shard_0() {
        let dir = std::env::temp_dir().join(format!("sag_unsharded_log_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut service = AuditService::builder()
            .workers(0)
            .tenant("alpha", EngineBuilder::paper_single_type())
            .durable_with(&dir, DurabilityOptions::no_fsync())
            .build()
            .unwrap();
        let open = Request::OpenDay {
            tenant: "alpha".into(),
            budget: None,
            day: None,
        };
        let Ok(Response::DayOpened { session, .. }) = service.handle(open) else {
            panic!("the unsharded day did not open");
        };
        drop(service);

        let shard0 = shard_wal_dir(&dir, 0);
        let cluster = || {
            ClusterService::builder(1)
                .workers(0)
                .tenant("alpha", EngineBuilder::paper_single_type())
        };
        for booted in [
            cluster().recover_from(&dir),
            cluster().durable(&dir).build(),
        ] {
            let Err(error) = booted else {
                panic!("booted past an unsharded log");
            };
            let error = error.to_string();
            assert!(error.contains(&*shard0.to_string_lossy()), "{error}");
        }
        std::fs::create_dir_all(&shard0).unwrap();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_file() {
                std::fs::rename(&path, shard0.join(path.file_name().unwrap())).unwrap();
            }
        }
        let recovered = cluster().recover_from(&dir).expect("one shard recovers");
        let open: Vec<SessionId> = recovered.shard(0).open_session_ids().collect();
        assert_eq!(open, [session]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_tenants_are_rejected_at_build() {
        let err = ClusterService::builder(4)
            .workers(0)
            .tenant("dup", EngineBuilder::paper_single_type())
            .tenant("dup", EngineBuilder::paper_single_type())
            .build()
            .unwrap_err();
        assert!(matches!(err, ServiceError::DuplicateTenant(_)));
    }

    #[test]
    fn cluster_session_ids_encode_their_shard_and_route_back() {
        let mut cluster = two_tenant_cluster(4);
        let alpha = TenantId::from("alpha");
        let shard = cluster.shard_for(&alpha);
        let opened = cluster
            .handle(Request::OpenDay {
                tenant: alpha.clone(),
                budget: None,
                day: Some(0),
            })
            .expect("day opens");
        let session = match opened {
            Response::DayOpened { session, tenant } => {
                assert_eq!(tenant, alpha);
                session
            }
            other => panic!("unexpected response {other:?}"),
        };
        assert_eq!(cluster.router().shard_for_session(session), shard);
        assert_eq!(cluster.open_sessions(), 1);
        match cluster
            .handle(Request::FinishDay { session })
            .expect("day closes")
        {
            Response::DayClosed {
                session: closed, ..
            } => assert_eq!(closed, session),
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(cluster.open_sessions(), 0);
    }

    #[test]
    fn unknown_cluster_session_errors_echo_the_cluster_id() {
        let mut cluster = two_tenant_cluster(4);
        let bogus = SessionId::from_raw(4 * 9 + 2);
        let err = cluster
            .handle(Request::FinishDay { session: bogus })
            .unwrap_err();
        assert_eq!(err, ServiceError::UnknownSession(bogus));
    }

    #[test]
    fn tagged_duplicates_replay_from_the_owning_shard() {
        let mut cluster = two_tenant_cluster(2);
        let alpha = TenantId::from("alpha");
        let open = Request::OpenDay {
            tenant: alpha.clone(),
            budget: None,
            day: Some(0),
        };
        let first = match cluster.handle_tagged(&alpha, 1, open.clone()) {
            Handled::Applied(Ok(response)) => response,
            other => panic!("first delivery should apply: {other:?}"),
        };
        match cluster.handle_tagged(&alpha, 1, open) {
            Handled::Replayed(replayed) => assert_eq!(replayed, first),
            other => panic!("duplicate should replay: {other:?}"),
        }
        assert_eq!(cluster.open_sessions(), 1);
    }

    #[test]
    fn counters_aggregate_and_hold_the_quiescent_identity() {
        let mut cluster = two_tenant_cluster(4);
        for tenant in [TenantId::from("alpha"), TenantId::from("beta")] {
            let session = match cluster
                .handle(Request::OpenDay {
                    tenant: tenant.clone(),
                    budget: None,
                    day: Some(0),
                })
                .expect("day opens")
            {
                Response::DayOpened { session, .. } => session,
                other => panic!("unexpected response {other:?}"),
            };
            cluster
                .handle(Request::FinishDay { session })
                .expect("day closes");
        }
        // One deliberate rejection so `errors` participates too.
        let _ = cluster
            .handle(Request::FinishDay {
                session: SessionId::from_raw(999),
            })
            .unwrap_err();
        let snapshot = cluster.counters_snapshot();
        assert_eq!(snapshot.requests, 5);
        assert_eq!(snapshot.days_opened, 2);
        assert_eq!(snapshot.days_closed, 2);
        assert_eq!(snapshot.errors, 1);
        assert!(
            snapshot.quiescent_identity_holds(),
            "cluster-wide identity violated: {snapshot:?}"
        );
    }
}
