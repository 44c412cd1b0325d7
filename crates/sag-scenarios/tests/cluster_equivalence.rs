//! The cluster's core invariant, proven registry-wide: a tenant fleet
//! consistent-hashed across 1/2/4/8 `AuditService` shards produces
//! per-tenant `CycleResult`s bitwise identical to the unsharded service —
//! with the WAL off and on — and a single shard's crash + shard-local
//! `recover_shard` leaves every result intact while the untouched shards
//! keep serving throughout. Shard placement itself is property-tested:
//! deterministic, total, and stable across router instances, because the
//! WAL directory layout (`shard-<i>`) bakes placement into recovery.

use proptest::prelude::*;
use sag_cluster::{shard_wal_dir, ClusterService, ShardRouter};
use sag_core::CycleResult;
use sag_scenarios::{
    registry, tenant_fleet_cluster_parts, tenant_fleet_parts, FleetTenant, Scenario,
};
use sag_service::{DurabilityOptions, Request, Response, SessionId, TenantId};

const SEED: u64 = 2028;
const TENANTS: usize = 5;
const HISTORY_DAYS: u32 = 3;
const TEST_DAYS: u32 = 2;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Open one tenant-day on the cluster and return its cluster session id.
fn open_day(
    cluster: &mut ClusterService,
    scenario: &dyn Scenario,
    tenant: &TenantId,
    day: u32,
) -> SessionId {
    match cluster
        .handle(Request::OpenDay {
            tenant: tenant.clone(),
            budget: scenario.budget_for_day(day),
            day: Some(day),
        })
        .expect("day opens")
    {
        Response::DayOpened { session, .. } => session,
        other => panic!("unexpected response {other:?}"),
    }
}

fn finish_day(cluster: &mut ClusterService, session: SessionId) -> CycleResult {
    match cluster
        .handle(Request::FinishDay { session })
        .expect("day closes")
    {
        Response::DayClosed { result, .. } => result,
        other => panic!("unexpected response {other:?}"),
    }
}

/// The unsharded ground truth: the same fleet on one `AuditService`,
/// each tenant's test days driven straight through `handle`.
fn unsharded_reference(scenario: &dyn Scenario) -> Vec<Vec<CycleResult>> {
    let (builder, fleet) = tenant_fleet_parts(scenario, SEED, TENANTS, HISTORY_DAYS, TEST_DAYS);
    let mut service = builder.workers(0).build().expect("control build");
    fleet
        .iter()
        .map(|tenant| {
            tenant
                .test_days
                .iter()
                .map(|day| {
                    let Ok(Response::DayOpened { session, .. }) =
                        service.handle(Request::OpenDay {
                            tenant: tenant.id.clone(),
                            budget: scenario.budget_for_day(day.day()),
                            day: Some(day.day()),
                        })
                    else {
                        panic!("control OpenDay failed")
                    };
                    for alert in day.alerts() {
                        service
                            .handle(Request::PushAlert {
                                session,
                                alert: *alert,
                            })
                            .expect("control alert processes");
                    }
                    match service.handle(Request::FinishDay { session }) {
                        Ok(Response::DayClosed { result, .. }) => result,
                        other => panic!("control FinishDay answered {other:?}"),
                    }
                })
                .collect()
        })
        .collect()
}

/// Drive the whole fleet through the cluster *interleaved* — all tenants'
/// sessions for a day open at once, one alert per tenant per turn — the
/// maximally multiplexed schedule, crossing shard boundaries every turn.
fn drive_cluster_interleaved(
    cluster: &mut ClusterService,
    scenario: &dyn Scenario,
    fleet: &[FleetTenant],
) -> Vec<Vec<CycleResult>> {
    let mut results: Vec<Vec<CycleResult>> = vec![Vec::new(); fleet.len()];
    for day_index in 0..TEST_DAYS as usize {
        let mut sessions = Vec::with_capacity(fleet.len());
        let mut feeds = Vec::with_capacity(fleet.len());
        for tenant in fleet {
            let day = &tenant.test_days[day_index];
            sessions.push(open_day(cluster, scenario, &tenant.id, day.day()));
            feeds.push(day.alerts().iter());
        }
        loop {
            let mut progressed = false;
            for (t, feed) in feeds.iter_mut().enumerate() {
                if let Some(alert) = feed.next() {
                    cluster
                        .handle(Request::PushAlert {
                            session: sessions[t],
                            alert: *alert,
                        })
                        .expect("alert processes");
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        for (t, tenant_results) in results.iter_mut().enumerate() {
            tenant_results.push(finish_day(cluster, sessions[t]));
        }
    }
    results
}

fn assert_cluster_equivalence(scenario: &dyn Scenario, wal_dir: Option<&std::path::Path>) {
    let reference = unsharded_reference(scenario);
    for shards in SHARD_COUNTS {
        let (builder, fleet) =
            tenant_fleet_cluster_parts(scenario, SEED, TENANTS, HISTORY_DAYS, TEST_DAYS, shards);
        let builder = builder.workers(0).counters();
        let builder = match wal_dir {
            Some(dir) => {
                let dir = dir.join(format!("{}-s{shards}", scenario.name()));
                let _ = std::fs::remove_dir_all(&dir);
                builder.durable_with(dir, DurabilityOptions::no_fsync())
            }
            None => builder,
        };
        let mut cluster = builder.build().expect("cluster builds");
        assert_eq!(cluster.num_shards(), shards);
        assert_eq!(cluster.num_tenants(), TENANTS);
        // Every tenant sits on exactly one shard, and it is the hashed one.
        for tenant in &fleet {
            let owner = cluster.shard_for(&tenant.id);
            let hosts = (0..shards)
                .filter(|&s| cluster.shard(s).tenants().any(|t| *t == tenant.id))
                .collect::<Vec<_>>();
            assert_eq!(hosts, vec![owner], "{} misplaced", tenant.id);
        }

        let results = drive_cluster_interleaved(&mut cluster, scenario, &fleet);
        assert_eq!(
            results,
            reference,
            "{} [wal={}]: {shards}-shard cluster diverged from the unsharded service",
            scenario.name(),
            wal_dir.is_some(),
        );
        // Satellite invariant: the quiescent counter identity must hold on
        // the *aggregated* snapshot, not just per shard.
        let snapshot = cluster.counters_snapshot().expect("counters installed");
        assert!(
            snapshot.quiescent_identity_holds(),
            "{}: cluster-wide identity violated at {shards} shards: {snapshot:?}",
            scenario.name()
        );
        let driven: u64 = fleet
            .iter()
            .flat_map(|t| t.test_days.iter())
            .map(|d| d.len() as u64 + 2)
            .sum();
        assert_eq!(snapshot.requests, driven);
    }
}

#[test]
fn sharded_results_match_the_unsharded_service_registry_wide() {
    for scenario in registry() {
        assert_cluster_equivalence(scenario.as_ref(), None);
    }
}

#[test]
fn sharded_results_match_the_unsharded_service_with_the_wal_on() {
    let root = std::env::temp_dir().join(format!(
        "sag_cluster_equivalence_{}_{SEED}",
        std::process::id()
    ));
    for scenario in registry() {
        assert_cluster_equivalence(scenario.as_ref(), Some(&root));
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Crash one shard mid-day, recover it shard-locally, and require (a) the
/// untouched shards served throughout without a hiccup and (b) every
/// tenant's results — victims included — bitwise match the unsharded
/// control.
fn assert_single_shard_crash_recovery(scenario: &dyn Scenario, root: &std::path::Path) {
    const SHARDS: usize = 4;
    let reference = unsharded_reference(scenario);
    let dir = root.join(scenario.name());
    let _ = std::fs::remove_dir_all(&dir);
    let options = DurabilityOptions::no_fsync();

    let parts = || {
        let (builder, fleet) =
            tenant_fleet_cluster_parts(scenario, SEED, TENANTS, HISTORY_DAYS, TEST_DAYS, SHARDS);
        (
            builder.workers(0).counters().durable_with(&dir, options),
            fleet,
        )
    };
    let (builder, fleet) = parts();
    let mut cluster = builder.build().expect("durable cluster builds");
    let victim_shard = cluster.shard_for(&fleet[0].id);

    // Day 0 runs to completion everywhere.
    let mut results: Vec<Vec<CycleResult>> = vec![Vec::new(); fleet.len()];
    let mut sessions = Vec::with_capacity(fleet.len());
    for tenant in &fleet {
        let day = &tenant.test_days[0];
        let session = open_day(&mut cluster, scenario, &tenant.id, day.day());
        for alert in day.alerts() {
            cluster
                .handle(Request::PushAlert {
                    session,
                    alert: *alert,
                })
                .expect("day-0 alert processes");
        }
        sessions.push(session);
    }
    for (t, tenant_results) in results.iter_mut().enumerate() {
        tenant_results.push(finish_day(&mut cluster, sessions[t]));
    }

    // Day 1: everyone opens, everyone gets half their alerts in…
    let mut sessions = Vec::with_capacity(fleet.len());
    let mut resumed_at = Vec::with_capacity(fleet.len());
    for tenant in &fleet {
        let day = &tenant.test_days[1];
        let session = open_day(&mut cluster, scenario, &tenant.id, day.day());
        let half = day.len() / 2;
        for alert in &day.alerts()[..half] {
            cluster
                .handle(Request::PushAlert {
                    session,
                    alert: *alert,
                })
                .expect("pre-crash alert processes");
        }
        sessions.push(session);
        resumed_at.push(half);
    }

    // …then the victim shard's process dies. Only its WAL subtree — which
    // must exist and sit exactly where the layout says — survives; every
    // other shard's in-memory state is never touched.
    assert!(
        shard_wal_dir(&dir, victim_shard).is_dir(),
        "{}: shard {victim_shard} has no WAL subtree",
        scenario.name()
    );
    let (recovery_builder, _) = parts();
    let recovered = recovery_builder
        .recover_shard(victim_shard)
        .expect("shard-local recovery");
    let dead = cluster.replace_shard(victim_shard, recovered);
    drop(dead);

    // The recovered shard holds exactly its own mid-day sessions, with
    // every acknowledged alert replayed.
    for (t, tenant) in fleet.iter().enumerate() {
        if cluster.shard_for(&tenant.id) != victim_shard {
            continue;
        }
        let local = cluster.router().to_local_session(sessions[t]);
        let session = cluster
            .shard(victim_shard)
            .session(local)
            .expect("victim session recovered");
        assert_eq!(
            session.alerts_processed(),
            resumed_at[t],
            "{}: {} lost acknowledged alerts in recovery",
            scenario.name(),
            tenant.id
        );
    }

    // Untouched shards never stall: finish every tenant's day through the
    // same cluster session ids, victims resuming where the WAL left them.
    for (t, tenant) in fleet.iter().enumerate() {
        let day = &tenant.test_days[1];
        for alert in &day.alerts()[resumed_at[t]..] {
            cluster
                .handle(Request::PushAlert {
                    session: sessions[t],
                    alert: *alert,
                })
                .expect("post-recovery alert processes");
        }
    }
    for (t, tenant_results) in results.iter_mut().enumerate() {
        tenant_results.push(finish_day(&mut cluster, sessions[t]));
    }

    assert_eq!(
        results,
        reference,
        "{}: results diverged after crashing shard {victim_shard} of {SHARDS}",
        scenario.name()
    );
    let snapshot = cluster.counters_snapshot().expect("counters installed");
    assert!(
        snapshot.quiescent_identity_holds(),
        "{}: post-recovery cluster identity violated: {snapshot:?}",
        scenario.name()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_shard_crash_recovers_locally_while_others_keep_serving() {
    let root =
        std::env::temp_dir().join(format!("sag_cluster_crash_{}_{SEED}", std::process::id()));
    for scenario in registry() {
        assert_single_shard_crash_recovery(scenario.as_ref(), &root);
    }
    let _ = std::fs::remove_dir_all(&root);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Shard assignment is deterministic (same tenant, same shard — across
    /// router instances, because placement is baked into the WAL layout),
    /// total (every tenant lands in range, for any shard count), and the
    /// session-id bijection round-trips on every shard.
    #[test]
    fn shard_assignment_is_deterministic_and_total(seed in 0u64..1_000_000, shards in 1u64..17) {
        let shards = shards as usize;
        let router = ShardRouter::new(shards);
        // Synthetic ids plus every registry fleet's real tenant names.
        let mut names: Vec<String> = (0..8).map(|i| format!("tenant-{seed}-{i}")).collect();
        for scenario in registry() {
            for t in 0..TENANTS {
                names.push(format!("{}-t{t}", scenario.name()));
            }
        }
        for name in names {
            let tenant = TenantId::new(name.clone());
            let shard = router.shard_for(&tenant);
            prop_assert!(shard < shards, "{name} out of range: {shard} >= {shards}");
            prop_assert_eq!(shard, router.shard_for(&tenant));
            prop_assert_eq!(shard, ShardRouter::new(shards).shard_for(&tenant));
            // The id bijection round-trips for an arbitrary local id on the
            // owning shard, and the encoded shard is what routes it back.
            let local = SessionId::from_raw(seed % 10_000);
            let cluster = router.to_cluster_session(local, shard);
            prop_assert_eq!(router.to_local_session(cluster), local);
            prop_assert_eq!(router.shard_for_session(cluster), shard);
        }
    }

    /// Placement is balanced enough to be useful: over many synthetic
    /// tenants no shard is empty and none hoards more than three quarters
    /// of the fleet (for shard counts a deployment would actually run).
    #[test]
    fn shard_assignment_spreads_tenants(seed in 0u64..1_000_000) {
        for shards in [2usize, 4, 8] {
            let router = ShardRouter::new(shards);
            let mut per_shard = vec![0usize; shards];
            for i in 0..128u64 {
                let tenant = TenantId::new(format!("t-{seed}-{i}"));
                per_shard[router.shard_for(&tenant)] += 1;
            }
            for (shard, &count) in per_shard.iter().enumerate() {
                prop_assert!(count > 0, "shard {shard}/{shards} got no tenants");
                prop_assert!(count <= 96, "shard {shard}/{shards} hoards {count}/128");
            }
        }
    }
}
