//! The scenario-registry benchmark behind `repro_scenarios` / `BENCH_2.json`.
//!
//! Replays every scenario registered in `sag-scenarios` through the engine's
//! sharded batch driver on the scenario's own backend (the exact sweep) and
//! reports, per scenario: throughput and the utility profile of the three
//! strategies.
//! A sharding section times an identical multi-day batch at one shard
//! vs. many, quantifying the multi-core scaling of `replay_sharded` (whose
//! results are bitwise shard-count-independent, so the comparison is pure
//! wall-clock), and a `service_concurrent` section times a multi-tenant
//! `AuditService` fleet concurrently vs. serially under the same
//! results-identical guarantee. A `durability` section prices the
//! write-ahead log: logged decision throughput with the fsync barrier on
//! and off, and the wall-clock cost of recovering a large mid-flight day
//! from its WAL — with the recovered result checked bitwise against the
//! uninterrupted run. A `cluster` section (see [`crate::cluster`]) records
//! per-core-count scaling curves for the sharded replay and the
//! consistent-hash `sag-cluster` deployment shape.

use crate::cluster::{cluster_scaling_report, ClusterScalingReport};
use sag_core::engine::EngineBuilder;
use sag_core::sse::SolverBackendKind;
use sag_core::{CycleResult, Result};
use sag_scenarios::{
    find_scenario, registry, run_scenario_service, run_scenario_sized, Scenario, ScenarioRun,
};
use sag_service::{AuditService, DurabilityOptions, Request, Response, TenantId};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Per-scenario metrics of one registry replay.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Registry name.
    pub name: String,
    /// One-line scenario description.
    pub description: String,
    /// Shard count of the replay.
    pub shards: usize,
    /// Total alerts replayed.
    pub alerts: usize,
    /// Wall-clock seconds of the replay.
    pub wall_seconds: f64,
    /// Replay throughput.
    pub alerts_per_sec: f64,
    /// Mean per-alert auditor utility under the OSSP.
    pub mean_ossp: f64,
    /// Mean per-alert auditor utility under the online SSE.
    pub mean_online: f64,
    /// Mean per-alert auditor utility under the offline SSE.
    pub mean_offline: f64,
    /// Fraction of alerts where the OSSP is no worse than the online SSE.
    pub fraction_ossp_not_worse: f64,
    /// Fraction of alerts fully deterred by the OSSP.
    pub fraction_deterred: f64,
}

impl ScenarioReport {
    fn from_run(run: &ScenarioRun, description: &str) -> Self {
        ScenarioReport {
            name: run.name.to_string(),
            description: description.to_string(),
            shards: run.shards,
            alerts: run.alerts(),
            wall_seconds: run.wall_seconds,
            alerts_per_sec: run.alerts_per_sec(),
            mean_ossp: run.mean_ossp(),
            mean_online: run.mean_online(),
            mean_offline: run.mean_offline(),
            fraction_ossp_not_worse: run.fraction_ossp_not_worse(),
            fraction_deterred: run.fraction_deterred(),
        }
    }
}

/// Wall-clock comparison of the same batch at one shard vs. many.
#[derive(Debug, Clone)]
pub struct ShardingReport {
    /// Scenario replayed for the comparison.
    pub scenario: String,
    /// Number of day jobs in the batch.
    pub jobs: usize,
    /// Shard count of the sharded leg.
    pub shards: usize,
    /// `std::thread::available_parallelism()` on the measuring host.
    pub threads_available: usize,
    /// Whether this binary was built with the `parallel` feature — without
    /// it `replay_sharded` is sequential and the "speedup" is pure noise.
    pub parallel_feature: bool,
    /// Wall-clock seconds of the single-shard leg.
    pub seq_wall_seconds: f64,
    /// Wall-clock seconds of the sharded leg.
    pub sharded_wall_seconds: f64,
    /// `seq / sharded` — above 1 means sharding won wall-clock time.
    pub speedup: f64,
    /// Honest caveat when the measurement cannot show a real speedup (no
    /// `parallel` feature, or too few cores); `None` when the number is a
    /// genuine multi-core comparison.
    pub note: Option<String>,
}

/// Wall-clock profile of the multi-tenant `AuditService` front door: the
/// same tenant fleet replayed concurrently (over the service's worker pool)
/// and serially (inline, zero workers).
#[derive(Debug, Clone)]
pub struct ServiceConcurrentReport {
    /// Scenario every tenant runs.
    pub scenario: String,
    /// Number of tenants multiplexed through one service.
    pub tenants: usize,
    /// Worker threads of the concurrent leg's service pool.
    pub workers: usize,
    /// Replayed days per tenant.
    pub days_per_tenant: usize,
    /// Total alerts served across all tenants.
    pub alerts: usize,
    /// Wall-clock seconds of the concurrent leg.
    pub wall_seconds: f64,
    /// Concurrent service throughput in alerts per second — the headline
    /// number `check_perf.py` floors.
    pub alerts_per_sec: f64,
    /// Wall-clock seconds of the serial (inline) leg.
    pub serial_wall_seconds: f64,
    /// `serial / concurrent` — above 1 means the pool won wall-clock time.
    /// Results are bitwise identical between the legs by construction.
    pub speedup_vs_serial: f64,
    /// `std::thread::available_parallelism()` on the measuring host.
    pub threads_available: usize,
    /// Honest caveat when the host cannot show a real speedup.
    pub note: Option<String>,
}

/// Cost and fidelity of the durable `AuditService`: WAL write throughput
/// with the fsync barrier on/off, and recovery of a large mid-flight day.
#[derive(Debug, Clone)]
pub struct DurabilityReport {
    /// Scenario whose stream and game the durable day runs.
    pub scenario: String,
    /// Alerts logged and recovered — the "10k-alert day".
    pub alerts: usize,
    /// Logged decisions per second with a durability barrier after every
    /// record (an acknowledged decision survives power loss).
    pub fsync_on_alerts_per_sec: f64,
    /// Logged decisions per second without the barrier (survives process
    /// crashes; the OS page cache holds the tail).
    pub fsync_off_alerts_per_sec: f64,
    /// Bytes of the WAL holding the whole day.
    pub wal_bytes: u64,
    /// Wall-clock seconds `ServiceBuilder::recover_from` took to rebuild
    /// the mid-flight day from snapshot + WAL.
    pub recovery_wall_seconds: f64,
    /// Replayed alerts per second during recovery.
    pub recovery_alerts_per_sec: f64,
    /// Whether the recovered day, driven to completion, matched the
    /// uninterrupted run bitwise (timing fields zeroed). Anything but
    /// `true` is a correctness bug, and `check_perf.py` fails on it.
    pub recovered_bitwise_equal: bool,
}

/// The full `BENCH_2.json` payload.
#[derive(Debug, Clone)]
pub struct ScenarioSuiteReport {
    /// Seed every scenario was generated with.
    pub seed: u64,
    /// Per-scenario metrics, in registry order.
    pub scenarios: Vec<ScenarioReport>,
    /// The sharded-vs-sequential wall-clock comparison.
    pub sharding: ShardingReport,
    /// The multi-tenant service-throughput comparison.
    pub service_concurrent: ServiceConcurrentReport,
    /// The WAL cost/recovery profile.
    pub durability: DurabilityReport,
    /// The multi-core cluster scaling curves.
    pub cluster: ClusterScalingReport,
}

/// Configuration of a suite run.
#[derive(Debug, Clone, Copy)]
pub struct SuiteConfig {
    /// RNG seed of every scenario's synthetic stream.
    pub seed: u64,
    /// Shard count for the per-scenario replays.
    pub shards: usize,
    /// Override of each scenario's history-day count (`None` = its default).
    pub history_days: Option<u32>,
    /// Override of each scenario's test-day count (`None` = its default).
    pub test_days: Option<u32>,
    /// Day jobs in the sharding comparison batch.
    pub sharding_jobs: u32,
    /// Tenants multiplexed in the `service_concurrent` comparison.
    pub service_tenants: usize,
    /// Alerts in the durability section's logged-and-recovered day.
    pub durability_alerts: usize,
    /// Tenants consistent-hashed across the shards in the `cluster`
    /// scaling curves.
    pub cluster_tenants: usize,
}

impl SuiteConfig {
    /// The full benchmark layout written to `BENCH_2.json`.
    #[must_use]
    pub fn full(seed: u64, shards: usize) -> Self {
        SuiteConfig {
            seed,
            shards,
            history_days: None,
            test_days: None,
            sharding_jobs: 12,
            service_tenants: 8,
            durability_alerts: 10_000,
            cluster_tenants: 8,
        }
    }
}

/// Replay the whole registry, then time the sharding comparison on an
/// enlarged `paper-baseline` batch.
///
/// # Errors
///
/// Propagates engine and solver errors (which indicate workspace bugs for
/// registered scenarios).
pub fn scenario_suite(config: &SuiteConfig) -> Result<ScenarioSuiteReport> {
    let mut scenarios = Vec::new();
    for scenario in registry() {
        let run = run_scenario_sized(
            scenario.as_ref(),
            config.seed,
            config.shards,
            config
                .history_days
                .unwrap_or_else(|| scenario.history_days()),
            config.test_days.unwrap_or_else(|| scenario.test_days()),
        )?;
        scenarios.push(ScenarioReport::from_run(&run, scenario.description()));
    }

    let baseline = find_scenario("paper-baseline").expect("baseline is registered");
    let history_days = config
        .history_days
        .unwrap_or_else(|| baseline.history_days());
    let sharded_shards = config
        .shards
        .max(4)
        .min(config.sharding_jobs.max(1) as usize);
    // Replay results are bitwise shard-count-independent, so each leg is
    // pure wall-clock; take the best of three runs to keep a single
    // scheduler hiccup from skewing the speedup (CI gates on it).
    let mut seq_wall = f64::INFINITY;
    let mut sharded_wall = f64::INFINITY;
    for _ in 0..3 {
        let seq = run_scenario_sized(
            baseline.as_ref(),
            config.seed,
            1,
            history_days,
            config.sharding_jobs,
        )?;
        seq_wall = seq_wall.min(seq.wall_seconds);
        let sharded = run_scenario_sized(
            baseline.as_ref(),
            config.seed,
            sharded_shards,
            history_days,
            config.sharding_jobs,
        )?;
        sharded_wall = sharded_wall.min(sharded.wall_seconds);
    }
    let threads_available = std::thread::available_parallelism().map_or(1, usize::from);
    let parallel_feature = cfg!(feature = "parallel");
    let note = if !parallel_feature {
        Some(
            "built without the `parallel` feature: replay_sharded runs sequentially, \
             expect speedup ~1.0"
                .to_string(),
        )
    } else if threads_available == 1 {
        Some(
            "only 1 core available: sharding cannot beat the sequential replay \
             on this host, expect speedup ~1.0"
                .to_string(),
        )
    } else if threads_available < 4 {
        // 2-3 cores can show a real (if modest) speedup; the CI gate still
        // only enforces its floor on >= 4 cores.
        Some(format!(
            "only {threads_available} core(s) available: expect a modest speedup at \
             best; the CI floor applies from 4 cores up"
        ))
    } else {
        None
    };

    // ---- Multi-tenant service throughput ----------------------------------
    // The same baseline fleet through the `AuditService` front door: N
    // tenants, each on its own seeded stream, replayed concurrently over
    // the service's worker pool vs. serially inline. Results are bitwise
    // identical between the legs (each tenant-day is a pure function of its
    // job), so this is a pure wall-clock comparison like the sharding one;
    // best-of-3 per leg for the same noise reasons.
    let tenants = config.service_tenants.max(1);
    let service_test_days = config.test_days.unwrap_or(4);
    let workers = threads_available;
    let mut concurrent_wall = f64::INFINITY;
    let mut serial_wall = f64::INFINITY;
    let mut alerts = 0usize;
    let mut days_per_tenant = 0usize;
    for _ in 0..3 {
        let concurrent = run_scenario_service(
            baseline.as_ref(),
            config.seed,
            tenants,
            workers,
            history_days,
            service_test_days,
        )
        .map_err(service_error_to_sag)?;
        alerts = concurrent.alerts();
        days_per_tenant = concurrent.cycles.first().map_or(0, Vec::len);
        concurrent_wall = concurrent_wall.min(concurrent.wall_seconds);
        let serial = run_scenario_service(
            baseline.as_ref(),
            config.seed,
            tenants,
            0,
            history_days,
            service_test_days,
        )
        .map_err(service_error_to_sag)?;
        serial_wall = serial_wall.min(serial.wall_seconds);
    }
    let service_note = if threads_available == 1 {
        Some(
            "only 1 core available: the pool cannot beat the inline replay on \
             this host, expect speedup ~1.0"
                .to_string(),
        )
    } else if threads_available < 4 {
        Some(format!(
            "only {threads_available} core(s) available: expect a modest speedup at best"
        ))
    } else {
        None
    };
    let service_concurrent = ServiceConcurrentReport {
        scenario: "paper-baseline".to_string(),
        tenants,
        workers,
        days_per_tenant,
        alerts,
        wall_seconds: concurrent_wall,
        alerts_per_sec: if concurrent_wall > 0.0 {
            alerts as f64 / concurrent_wall
        } else {
            0.0
        },
        serial_wall_seconds: serial_wall,
        speedup_vs_serial: if concurrent_wall > 0.0 {
            serial_wall / concurrent_wall
        } else {
            0.0
        },
        threads_available,
        note: service_note,
    };

    let durability = durability_report(baseline.as_ref(), config);
    let cluster = cluster_scaling_report(
        baseline.as_ref(),
        config.seed,
        config.cluster_tenants,
        history_days,
        config.test_days.unwrap_or(2),
    );

    Ok(ScenarioSuiteReport {
        seed: config.seed,
        scenarios,
        durability,
        cluster,
        sharding: ShardingReport {
            scenario: "paper-baseline".to_string(),
            jobs: config.sharding_jobs as usize,
            shards: sharded_shards,
            threads_available,
            parallel_feature,
            seq_wall_seconds: seq_wall,
            sharded_wall_seconds: sharded_wall,
            speedup: if sharded_wall > 0.0 {
                seq_wall / sharded_wall
            } else {
                0.0
            },
            note,
        },
        service_concurrent,
    })
}

/// A scratch WAL directory next to the running binary (inside `target/`),
/// so the bench never depends on the caller's working directory.
fn durability_wal_dir(leg: &str) -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("target"))
        .join(format!("sag-durability-bench-{leg}"))
}

/// Zero the wall-clock timing field so results can be compared exactly.
fn untimed(mut cycle: CycleResult) -> CycleResult {
    for o in &mut cycle.outcomes {
        o.solve_micros = 0;
    }
    cycle
}

/// Measure the durability layer on `scenario`'s game: one oversized day of
/// `config.durability_alerts` alerts logged with fsync on and off, then
/// recovered from the WAL and driven to completion.
///
/// Panics on service or WAL failures — both indicate workspace bugs here
/// (validated config, scratch directories the bench itself creates).
fn durability_report(scenario: &dyn Scenario, config: &SuiteConfig) -> DurabilityReport {
    let target = config.durability_alerts.max(1);
    let history_days = config
        .history_days
        .unwrap_or_else(|| scenario.history_days());
    // Enough generated days to flatten into one oversized in-flight day.
    let mut days = scenario.generate_days(config.seed, history_days + 4);
    loop {
        let available: usize = days[history_days as usize..]
            .iter()
            .map(sag_sim::DayLog::len)
            .sum();
        if available >= target {
            break;
        }
        let grown = days.len() as u32 + 16;
        days = scenario.generate_days(config.seed, grown);
    }
    let history = days[..history_days as usize].to_vec();
    let day_index = days[history_days as usize].day();
    let alerts: Vec<sag_sim::Alert> = days[history_days as usize..]
        .iter()
        .flat_map(|d| d.alerts().iter().cloned())
        .take(target)
        .collect();

    let builder = |history: Vec<sag_sim::DayLog>| {
        let mut engine_config = scenario.engine_config();
        engine_config.backend = SolverBackendKind::Auto;
        AuditService::builder().workers(0).tenant_with_history(
            "durability-bench",
            EngineBuilder::from_config(engine_config),
            history,
        )
    };
    let tenant = TenantId::from("durability-bench");
    let open = |service: &mut AuditService| match service
        .handle(Request::OpenDay {
            tenant: tenant.clone(),
            budget: scenario.budget_for_day(day_index),
            day: Some(day_index),
        })
        .expect("bench day opens")
    {
        Response::DayOpened { session, .. } => session,
        other => panic!("unexpected response {other:?}"),
    };

    // Ground truth: the same day with no WAL at all.
    let mut control_service = builder(history.clone()).build().expect("control build");
    let control_session = open(&mut control_service);
    for alert in &alerts {
        control_service
            .handle(Request::PushAlert {
                session: control_session,
                alert: *alert,
            })
            .expect("control push");
    }
    let Response::DayClosed {
        result: control, ..
    } = control_service
        .handle(Request::FinishDay {
            session: control_session,
        })
        .expect("control finish")
    else {
        panic!("unexpected response");
    };
    let control = untimed(control);
    drop(control_service);

    // Timed legs: the identical day through a durable service, fsync on
    // and off. Each leg ends mid-flight (no FinishDay), leaving the WAL
    // holding the whole day for the recovery leg.
    let leg = |fsync: bool| -> (f64, u64, PathBuf) {
        let dir = durability_wal_dir(if fsync { "fsync-on" } else { "fsync-off" });
        let _ = std::fs::remove_dir_all(&dir);
        let options = DurabilityOptions {
            fsync,
            ..DurabilityOptions::default()
        };
        let mut service = builder(history.clone())
            .durable_with(&dir, options)
            .build()
            .expect("durable build");
        let session = open(&mut service);
        let start = Instant::now();
        for alert in &alerts {
            service
                .handle(Request::PushAlert {
                    session,
                    alert: *alert,
                })
                .expect("durable push");
        }
        let wall = start.elapsed().as_secs_f64();
        drop(service); // the "crash": only the directory survives
        let wal_bytes = std::fs::metadata(dir.join("durability-bench.wal"))
            .map(|m| m.len())
            .unwrap_or(0);
        (target as f64 / wall.max(f64::MIN_POSITIVE), wal_bytes, dir)
    };
    let (fsync_on_aps, _, _) = leg(true);
    let (fsync_off_aps, wal_bytes, recovery_dir) = leg(false);

    // Recovery: rebuild the mid-flight day from the fsync-off leg's WAL
    // (the bytes are identical between legs), then finish it and check the
    // result against the uninterrupted run.
    let start = Instant::now();
    let mut recovered = builder(history)
        .recover_from(&recovery_dir)
        .expect("recovery succeeds");
    let recovery_wall = start.elapsed().as_secs_f64();
    let session = recovered
        .open_session_ids()
        .next()
        .expect("mid-flight session recovered");
    let replayed = recovered
        .session(session)
        .expect("session visible")
        .alerts_processed();
    let Response::DayClosed { result, .. } = recovered
        .handle(Request::FinishDay { session })
        .expect("recovered finish")
    else {
        panic!("unexpected response");
    };
    let recovered_bitwise_equal = replayed == target && untimed(result) == control;

    DurabilityReport {
        scenario: scenario.name().to_string(),
        alerts: target,
        fsync_on_alerts_per_sec: fsync_on_aps,
        fsync_off_alerts_per_sec: fsync_off_aps,
        wal_bytes,
        recovery_wall_seconds: recovery_wall,
        recovery_alerts_per_sec: target as f64 / recovery_wall.max(f64::MIN_POSITIVE),
        recovered_bitwise_equal,
    }
}

/// The suite reports through `sag_core::Result`; service-level failures
/// (which indicate workspace bugs here — every tenant uses a registered
/// scenario's validated config) surface as their engine cause or, for
/// purely service-side causes, as a poisoned config error.
fn service_error_to_sag(e: sag_service::ServiceError) -> sag_core::SagError {
    match e {
        sag_service::ServiceError::Engine(e) => e,
        other => {
            unreachable!("service replay failed without an engine cause: {other}")
        }
    }
}

/// Escape a string for embedding in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render the suite report as the machine-readable `BENCH_2.json` document.
#[must_use]
pub fn render_suite_json(report: &ScenarioSuiteReport) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"scenario_registry_replay\",");
    let _ = writeln!(out, "  \"seed\": {},", report.seed);
    let _ = writeln!(out, "  \"scenarios\": [");
    let last = report.scenarios.len().saturating_sub(1);
    for (i, s) in report.scenarios.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", json_escape(&s.name));
        let _ = writeln!(
            out,
            "      \"description\": \"{}\",",
            json_escape(&s.description)
        );
        let _ = writeln!(out, "      \"shards\": {},", s.shards);
        let _ = writeln!(out, "      \"alerts\": {},", s.alerts);
        let _ = writeln!(out, "      \"wall_seconds\": {:.6},", s.wall_seconds);
        let _ = writeln!(out, "      \"alerts_per_sec\": {:.2},", s.alerts_per_sec);
        let _ = writeln!(out, "      \"mean_ossp\": {:.3},", s.mean_ossp);
        let _ = writeln!(out, "      \"mean_online\": {:.3},", s.mean_online);
        let _ = writeln!(out, "      \"mean_offline\": {:.3},", s.mean_offline);
        let _ = writeln!(
            out,
            "      \"fraction_ossp_not_worse\": {:.4},",
            s.fraction_ossp_not_worse
        );
        let _ = writeln!(
            out,
            "      \"fraction_deterred\": {:.4}",
            s.fraction_deterred
        );
        let _ = writeln!(out, "    }}{}", if i == last { "" } else { "," });
    }
    let _ = writeln!(out, "  ],");
    let sh = &report.sharding;
    let _ = writeln!(out, "  \"sharding\": {{");
    let _ = writeln!(out, "    \"scenario\": \"{}\",", json_escape(&sh.scenario));
    let _ = writeln!(out, "    \"jobs\": {},", sh.jobs);
    let _ = writeln!(out, "    \"shards\": {},", sh.shards);
    let _ = writeln!(out, "    \"threads_available\": {},", sh.threads_available);
    let _ = writeln!(out, "    \"parallel_feature\": {},", sh.parallel_feature);
    let _ = writeln!(out, "    \"seq_wall_seconds\": {:.6},", sh.seq_wall_seconds);
    let _ = writeln!(
        out,
        "    \"sharded_wall_seconds\": {:.6},",
        sh.sharded_wall_seconds
    );
    let _ = writeln!(out, "    \"speedup\": {:.2}", sh.speedup);
    if let Some(note) = &sh.note {
        // Re-open the object's last line to append the optional note while
        // keeping the hand-rendered JSON free of trailing commas.
        out.truncate(out.len() - 1);
        let _ = writeln!(out, ",\n    \"note\": \"{}\"", json_escape(note));
    }
    let _ = writeln!(out, "  }},");
    let sc = &report.service_concurrent;
    let _ = writeln!(out, "  \"service_concurrent\": {{");
    let _ = writeln!(out, "    \"scenario\": \"{}\",", json_escape(&sc.scenario));
    let _ = writeln!(out, "    \"tenants\": {},", sc.tenants);
    let _ = writeln!(out, "    \"workers\": {},", sc.workers);
    let _ = writeln!(out, "    \"days_per_tenant\": {},", sc.days_per_tenant);
    let _ = writeln!(out, "    \"alerts\": {},", sc.alerts);
    let _ = writeln!(out, "    \"wall_seconds\": {:.6},", sc.wall_seconds);
    let _ = writeln!(out, "    \"alerts_per_sec\": {:.2},", sc.alerts_per_sec);
    let _ = writeln!(
        out,
        "    \"serial_wall_seconds\": {:.6},",
        sc.serial_wall_seconds
    );
    let _ = writeln!(out, "    \"threads_available\": {},", sc.threads_available);
    let _ = writeln!(
        out,
        "    \"speedup_vs_serial\": {:.2}",
        sc.speedup_vs_serial
    );
    if let Some(note) = &sc.note {
        out.truncate(out.len() - 1);
        let _ = writeln!(out, ",\n    \"note\": \"{}\"", json_escape(note));
    }
    let _ = writeln!(out, "  }},");
    let d = &report.durability;
    let _ = writeln!(out, "  \"durability\": {{");
    let _ = writeln!(out, "    \"scenario\": \"{}\",", json_escape(&d.scenario));
    let _ = writeln!(out, "    \"alerts\": {},", d.alerts);
    let _ = writeln!(
        out,
        "    \"fsync_on_alerts_per_sec\": {:.2},",
        d.fsync_on_alerts_per_sec
    );
    let _ = writeln!(
        out,
        "    \"fsync_off_alerts_per_sec\": {:.2},",
        d.fsync_off_alerts_per_sec
    );
    let _ = writeln!(out, "    \"wal_bytes\": {},", d.wal_bytes);
    let _ = writeln!(
        out,
        "    \"recovery_wall_seconds\": {:.6},",
        d.recovery_wall_seconds
    );
    let _ = writeln!(
        out,
        "    \"recovery_alerts_per_sec\": {:.2},",
        d.recovery_alerts_per_sec
    );
    let _ = writeln!(
        out,
        "    \"recovered_bitwise_equal\": {}",
        d.recovered_bitwise_equal
    );
    let _ = writeln!(out, "  }},");
    let cl = &report.cluster;
    let _ = writeln!(out, "  \"cluster\": {{");
    let _ = writeln!(out, "    \"scenario\": \"{}\",", json_escape(&cl.scenario));
    let _ = writeln!(out, "    \"tenants\": {},", cl.tenants);
    let _ = writeln!(out, "    \"days_per_tenant\": {},", cl.days_per_tenant);
    let _ = writeln!(out, "    \"alerts\": {},", cl.alerts);
    let _ = writeln!(out, "    \"threads_available\": {},", cl.threads_available);
    let _ = writeln!(out, "    \"parallel_feature\": {},", cl.parallel_feature);
    let _ = writeln!(out, "    \"points\": [");
    let last_point = cl.points.len().saturating_sub(1);
    for (i, p) in cl.points.iter().enumerate() {
        let _ = writeln!(out, "      {{");
        let _ = writeln!(out, "        \"workers\": {},", p.workers);
        let _ = writeln!(
            out,
            "        \"replay_wall_seconds\": {:.6},",
            p.replay_wall_seconds
        );
        let _ = writeln!(out, "        \"replay_speedup\": {:.2},", p.replay_speedup);
        let _ = writeln!(
            out,
            "        \"cluster_wall_seconds\": {:.6},",
            p.cluster_wall_seconds
        );
        let _ = writeln!(
            out,
            "        \"cluster_alerts_per_sec\": {:.2},",
            p.cluster_alerts_per_sec
        );
        let _ = writeln!(out, "        \"cluster_speedup\": {:.2}", p.cluster_speedup);
        let _ = writeln!(out, "      }}{}", if i == last_point { "" } else { "," });
    }
    let _ = writeln!(out, "    ],");
    let _ = writeln!(out, "    \"results_identical\": {}", cl.results_identical);
    if let Some(note) = &cl.note {
        out.truncate(out.len() - 1);
        let _ = writeln!(out, ",\n    \"note\": \"{}\"", json_escape(note));
    }
    let _ = writeln!(out, "  }}");
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_metacharacters() {
        assert_eq!(json_escape("plain text, 0.35"), "plain text, 0.35");
        assert_eq!(json_escape(r#"a "quoted" \path"#), r#"a \"quoted\" \\path"#);
        assert_eq!(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(json_escape("ctrl\u{1}"), "ctrl\\u0001");
    }

    #[test]
    fn suite_covers_the_whole_registry_and_renders_json() {
        // Scaled-down layout so the debug-mode test stays fast; the release
        // binary (`repro_scenarios`) runs `SuiteConfig::full`.
        let config = SuiteConfig {
            seed: 3,
            shards: 1,
            history_days: Some(5),
            test_days: Some(1),
            sharding_jobs: 4,
            service_tenants: 2,
            durability_alerts: 250,
            cluster_tenants: 2,
        };
        let report = scenario_suite(&config).unwrap();
        assert!(report.scenarios.len() >= 7);
        for s in &report.scenarios {
            assert!(s.alerts > 100, "{}: only {} alerts", s.name, s.alerts);
            assert!(s.alerts_per_sec > 0.0, "{}", s.name);
            // Theorem 2 survives every regime except a leaky channel, where
            // the OSSP can only fall back to the SSE value; either way the
            // replay must stay sane.
            assert!(
                s.fraction_ossp_not_worse > 0.9,
                "{}: {}",
                s.name,
                s.fraction_ossp_not_worse
            );
        }
        assert_eq!(report.sharding.jobs, 4);
        assert!(report.sharding.seq_wall_seconds > 0.0);
        assert!(report.sharding.sharded_wall_seconds > 0.0);
        assert_eq!(report.sharding.parallel_feature, cfg!(feature = "parallel"));
        let sc = &report.service_concurrent;
        assert_eq!(sc.scenario, "paper-baseline");
        assert_eq!(sc.tenants, 2);
        assert_eq!(sc.days_per_tenant, 1);
        assert!(
            sc.alerts > 200,
            "two baseline tenants: {} alerts",
            sc.alerts
        );
        assert!(sc.alerts_per_sec > 0.0);
        assert!(sc.wall_seconds > 0.0 && sc.serial_wall_seconds > 0.0);
        let d = &report.durability;
        assert_eq!(d.scenario, "paper-baseline");
        assert_eq!(d.alerts, 250);
        assert!(d.fsync_on_alerts_per_sec > 0.0);
        assert!(d.fsync_off_alerts_per_sec > 0.0);
        assert!(d.wal_bytes > 0);
        assert!(d.recovery_wall_seconds > 0.0);
        assert!(
            d.recovered_bitwise_equal,
            "recovered day diverged from the uninterrupted run"
        );
        let cl = &report.cluster;
        assert_eq!(cl.scenario, "paper-baseline");
        assert_eq!(cl.tenants, 2);
        // 2 tenants cap the curve at 2 shards.
        let counts: Vec<usize> = cl.points.iter().map(|p| p.workers).collect();
        assert_eq!(counts, vec![1, 2]);
        assert!(
            cl.results_identical,
            "shard count changed cluster results bitwise"
        );
        for p in &cl.points {
            assert!(p.replay_wall_seconds > 0.0 && p.cluster_wall_seconds > 0.0);
            assert!(p.cluster_alerts_per_sec > 0.0);
        }

        let json = render_suite_json(&report);
        for needle in [
            "\"bench\": \"scenario_registry_replay\"",
            "\"name\": \"paper-baseline\"",
            "\"name\": \"bursty-arrivals\"",
            "\"name\": \"attacker-drift\"",
            "\"name\": \"budget-shocks\"",
            "\"name\": \"noisy-evidence\"",
            "\"name\": \"multi-site\"",
            "\"name\": \"metro-grid\"",
            "\"mean_ossp\"",
            "\"fraction_deterred\"",
            "\"sharding\"",
            "\"parallel_feature\"",
            "\"speedup\"",
            "\"service_concurrent\"",
            "\"tenants\"",
            "\"speedup_vs_serial\"",
            "\"durability\"",
            "\"fsync_on_alerts_per_sec\"",
            "\"fsync_off_alerts_per_sec\"",
            "\"recovery_alerts_per_sec\"",
            "\"recovered_bitwise_equal\": true",
            "\"cluster\"",
            "\"cluster_alerts_per_sec\"",
            "\"cluster_speedup\"",
            "\"replay_speedup\"",
            "\"results_identical\": true",
        ] {
            assert!(json.contains(needle), "missing `{needle}`");
        }
        if report.sharding.note.is_some() {
            assert!(json.contains("\"note\""));
        }
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(!json.contains(",\n}"), "trailing comma before a close");
    }
}
