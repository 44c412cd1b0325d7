//! The multi-core cluster scaling rig behind the `cluster` section of
//! `BENCH_2.json`.
//!
//! Records two scaling curves over shard counts 1/2/4/8 on the same
//! tenant fleet:
//!
//! * **Sharded replay** — `run_scenario_sized` at N shards: the engine's
//!   batch driver, whose fan-out needs the `parallel` feature to use more
//!   than one core.
//! * **Cluster throughput** — the fleet consistent-hashed across N
//!   independent `AuditService` shards (via `sag-cluster`), each shard
//!   driven by its own OS thread. This is the deployment shape of the
//!   sharded front door, and it threads regardless of the `parallel`
//!   feature because the shards themselves are the units of parallelism.
//!
//! Both curves ride the same guarantee the rest of the workspace proves:
//! results are bitwise identical at every point, so the curves are pure
//! wall-clock. The rig checks that here too ([`ClusterScalingReport::results_identical`])
//! and `check_perf.py` hard-fails when it does not hold; the speedup floors
//! themselves are only gated where the measuring host has the cores to
//! show them (an honest ~1.0x on a 1-core box is a pass).

use sag_cluster::ShardRouter;
use sag_core::CycleResult;
use sag_scenarios::{run_scenario_sized, tenant_fleet_cluster_parts, FleetTenant, Scenario};
use sag_service::{AuditService, Request, Response};
use std::time::Instant;

/// One shard-count point on the scaling curves.
#[derive(Debug, Clone)]
pub struct ClusterScalePoint {
    /// Shard count of this point — one worker thread per shard on the
    /// cluster curve, N-way batch fan-out on the replay curve.
    pub workers: usize,
    /// Wall-clock seconds of the sharded batch replay at this count.
    pub replay_wall_seconds: f64,
    /// Replay wall-clock at 1 shard divided by this point's (1.0 at N=1).
    pub replay_speedup: f64,
    /// Wall-clock seconds of the thread-per-shard cluster drive.
    pub cluster_wall_seconds: f64,
    /// Cluster drive throughput in alerts per second.
    pub cluster_alerts_per_sec: f64,
    /// Cluster wall-clock at 1 shard divided by this point's (1.0 at N=1).
    pub cluster_speedup: f64,
}

/// The `cluster` section of `BENCH_2.json`: per-core-count scaling curves
/// plus the bitwise-identity check that makes them pure wall-clock.
#[derive(Debug, Clone)]
pub struct ClusterScalingReport {
    /// Scenario every tenant runs.
    pub scenario: String,
    /// Tenants consistent-hashed across the shards.
    pub tenants: usize,
    /// Replayed test days per tenant.
    pub days_per_tenant: usize,
    /// Total alerts driven through the cluster at every point.
    pub alerts: usize,
    /// `std::thread::available_parallelism()` on the measuring host.
    pub threads_available: usize,
    /// Whether this binary was built with the `parallel` feature. The
    /// *replay* curve is sequential without it; the *cluster* curve
    /// threads either way.
    pub parallel_feature: bool,
    /// The curves, in ascending shard count (always starting at 1).
    pub points: Vec<ClusterScalePoint>,
    /// Whether every point's results — per-tenant cluster cycles and batch
    /// replay cycles — were bitwise identical to the 1-shard point's. Anything but `true` is a correctness bug and
    /// `check_perf.py` fails on it.
    pub results_identical: bool,
    /// Honest caveat when the host cannot show a real speedup.
    pub note: Option<String>,
}

/// Drive `fleet` through its shards, one OS thread per shard, each thread
/// replaying only the tenants the router placed on its shard. Returns
/// (wall seconds, per-tenant results in fleet order).
fn drive_cluster_threaded(
    scenario: &dyn Scenario,
    router: ShardRouter,
    mut shards: Vec<AuditService>,
    fleet: &[FleetTenant],
) -> (f64, Vec<Vec<CycleResult>>) {
    // Partition the fleet by owning shard, remembering fleet positions so
    // the results come back in a shard-count-independent order.
    let mut per_shard: Vec<Vec<(usize, &FleetTenant)>> =
        (0..router.num_shards()).map(|_| Vec::new()).collect();
    for (position, tenant) in fleet.iter().enumerate() {
        per_shard[router.shard_for(&tenant.id)].push((position, tenant));
    }

    let mut results: Vec<Vec<CycleResult>> = vec![Vec::new(); fleet.len()];
    let start = Instant::now();
    let collected: Vec<Vec<(usize, Vec<CycleResult>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter_mut()
            .zip(&per_shard)
            .map(|(service, tenants)| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(tenants.len());
                    for (position, tenant) in tenants {
                        let mut cycles = Vec::with_capacity(tenant.test_days.len());
                        for day in &tenant.test_days {
                            let Ok(Response::DayOpened { session, .. }) =
                                service.handle(Request::OpenDay {
                                    tenant: tenant.id.clone(),
                                    budget: scenario.budget_for_day(day.day()),
                                    day: Some(day.day()),
                                })
                            else {
                                panic!("cluster bench OpenDay failed")
                            };
                            for alert in day.alerts() {
                                service
                                    .handle(Request::PushAlert {
                                        session,
                                        alert: *alert,
                                    })
                                    .expect("cluster bench push");
                            }
                            match service.handle(Request::FinishDay { session }) {
                                Ok(Response::DayClosed { result, .. }) => cycles.push(result),
                                other => panic!("cluster bench FinishDay answered {other:?}"),
                            }
                        }
                        out.push((*position, cycles));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("cluster bench shard thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    for (position, cycles) in collected.into_iter().flatten() {
        results[position] = cycles;
    }
    (wall, results)
}

/// Measure the two scaling curves for `scenario` over shard counts
/// 1/2/4/8 (capped at the tenant count — an empty shard adds a thread but
/// no work). Each leg is best-of-2 to absorb scheduler noise.
///
/// Panics on engine or service failures, which indicate workspace bugs
/// here (registered scenarios carry validated configs).
#[must_use]
pub fn cluster_scaling_report(
    scenario: &dyn Scenario,
    seed: u64,
    tenants: usize,
    history_days: u32,
    test_days: u32,
) -> ClusterScalingReport {
    let tenants = tenants.max(1);
    let shard_counts: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&n| n == 1 || n <= tenants)
        .collect();

    let mut points = Vec::with_capacity(shard_counts.len());
    let mut results_identical = true;
    let mut baseline_cluster: Option<Vec<Vec<CycleResult>>> = None;
    let mut baseline_replay: Option<Vec<CycleResult>> = None;
    let mut alerts = 0usize;
    let mut days_per_tenant = 0usize;
    let (mut replay_wall_1, mut cluster_wall_1) = (0.0f64, 0.0f64);

    for &shards in &shard_counts {
        let mut replay_wall = f64::INFINITY;
        let mut cluster_wall = f64::INFINITY;
        let mut replay_cycles: Vec<CycleResult> = Vec::new();
        let mut cluster_results: Vec<Vec<CycleResult>> = Vec::new();
        for _ in 0..2 {
            let run = run_scenario_sized(scenario, seed, shards, history_days, test_days)
                .expect("cluster bench replay");
            replay_wall = replay_wall.min(run.wall_seconds);
            replay_cycles = run.cycles;

            let (builder, fleet) = tenant_fleet_cluster_parts(
                scenario,
                seed,
                tenants,
                history_days,
                test_days,
                shards,
            );
            let cluster = builder.workers(0).build().expect("cluster bench build");
            let (router, shard_services) = cluster.into_shards();
            let (wall, results) = drive_cluster_threaded(scenario, router, shard_services, &fleet);
            cluster_wall = cluster_wall.min(wall);
            cluster_results = results;
        }
        alerts = cluster_results
            .iter()
            .flat_map(|t| t.iter())
            .map(CycleResult::len)
            .sum();
        days_per_tenant = cluster_results.first().map_or(0, Vec::len);

        match &baseline_cluster {
            None => baseline_cluster = Some(cluster_results),
            Some(baseline) => results_identical &= *baseline == cluster_results,
        }
        match &baseline_replay {
            None => baseline_replay = Some(replay_cycles),
            Some(baseline) => results_identical &= *baseline == replay_cycles,
        }

        if shards == 1 {
            replay_wall_1 = replay_wall;
            cluster_wall_1 = cluster_wall;
        }
        points.push(ClusterScalePoint {
            workers: shards,
            replay_wall_seconds: replay_wall,
            replay_speedup: if replay_wall > 0.0 {
                replay_wall_1 / replay_wall
            } else {
                0.0
            },
            cluster_wall_seconds: cluster_wall,
            cluster_alerts_per_sec: if cluster_wall > 0.0 {
                alerts as f64 / cluster_wall
            } else {
                0.0
            },
            cluster_speedup: if cluster_wall > 0.0 {
                cluster_wall_1 / cluster_wall
            } else {
                0.0
            },
        });
    }

    let threads_available = std::thread::available_parallelism().map_or(1, usize::from);
    let parallel_feature = cfg!(feature = "parallel");
    let note = if threads_available == 1 {
        Some(
            "only 1 core available: neither curve can beat its 1-shard leg on this \
             host, expect speedup ~1.0 at every point"
                .to_string(),
        )
    } else if !parallel_feature {
        Some(format!(
            "built without the `parallel` feature: the replay curve runs sequentially \
             (expect ~1.0); the cluster curve still threads across \
             {threads_available} core(s)"
        ))
    } else if threads_available < 4 {
        Some(format!(
            "only {threads_available} core(s) available: expect modest speedups; the CI \
             floors apply only to points with workers <= cores"
        ))
    } else {
        None
    };

    ClusterScalingReport {
        scenario: scenario.name().to_string(),
        tenants,
        days_per_tenant,
        alerts,
        threads_available,
        parallel_feature,
        points,
        results_identical,
        note,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sag_scenarios::find_scenario;

    #[test]
    fn scaling_points_are_identical_and_cover_the_requested_counts() {
        let scenario = find_scenario("paper-baseline").expect("baseline registered");
        let report = cluster_scaling_report(scenario.as_ref(), 7, 4, 3, 1);
        assert_eq!(report.scenario, "paper-baseline");
        assert_eq!(report.tenants, 4);
        assert_eq!(report.days_per_tenant, 1);
        assert!(report.alerts > 0, "no alerts driven");
        // 8 > 4 tenants, so the curve stops at 4.
        let counts: Vec<usize> = report.points.iter().map(|p| p.workers).collect();
        assert_eq!(counts, vec![1, 2, 4]);
        assert!(
            report.results_identical,
            "shard count changed results bitwise"
        );
        for point in &report.points {
            assert!(point.replay_wall_seconds > 0.0);
            assert!(point.cluster_wall_seconds > 0.0);
            assert!(point.cluster_alerts_per_sec > 0.0);
        }
        let first = &report.points[0];
        assert!((first.replay_speedup - 1.0).abs() < 1e-9);
        assert!((first.cluster_speedup - 1.0).abs() < 1e-9);
    }
}
