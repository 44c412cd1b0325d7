//! End-to-end and per-layer benchmark of the SAG audit service.
//!
//! [`run`] starts the real `sag_net::Server` on a loopback port over a
//! scenario fleet and drives it from one generator thread over one
//! connection: a closed loop of tenant-days in flight (see [`wire`]).
//! Every served decision is checked against an in-process replay of the
//! same requests ([`check`]). The untraced run reports the end-to-end
//! metrics; the traced run reports per-layer numbers from spans recorded
//! around calls into each layer ([`trace`], [`layers`]). `README.md` in
//! this directory lists the workloads and metrics.

#![forbid(unsafe_code)]

pub mod check;
pub mod layers;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod wire;
pub mod workload;

use crate::metrics::{json_number, json_string, Metric, ATTRIBUTION};
use crate::stats::{median_f64, median_ns, ratio, sliced_quantile};
use crate::trace::{SpanSummary, Tracer};
use crate::wire::{Generator, PassConfig, PassStats, CONCURRENCY};
use crate::workload::{reference_pool, serve, WorkloadSpec};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Times the set-up is made in a run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// How one benchmark run is made.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: WorkloadSpec,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Length of the measured window (split in two halves when traced).
    pub seconds: f64,
    /// Make the traced run instead of the untraced one.
    pub trace: bool,
    /// Tenants in the pool (the workload's own count unless overridden).
    pub tenants: usize,
    /// Directory for WAL directories and trace files; created if missing.
    /// The run's WAL directories are removed when it ends.
    pub work_dir: PathBuf,
    /// Fault injection: corrupt the n-th decision received.
    pub corrupt_decision: Option<u64>,
}

impl RunConfig {
    /// The benchmark's settings for `workload` at `seed`.
    #[must_use]
    pub fn new(workload: WorkloadSpec, seed: u64, seconds: f64, trace: bool) -> Self {
        RunConfig {
            workload,
            seed,
            seconds,
            trace,
            tenants: workload.tenants,
            work_dir: PathBuf::from("perfbench/work"),
            corrupt_decision: None,
        }
    }
}

/// What one run measured.
#[derive(Debug)]
pub struct RunResult {
    /// No request failed and every answer matched the reference replay.
    pub correct: bool,
    /// Requests answered over the wire.
    pub attempted: u64,
    /// Of those, failed, refused or wrong.
    pub failed: u64,
    /// The end-to-end metrics (untraced run) or per-layer ones (traced).
    pub metrics: Vec<Metric>,
    /// A one-line JSON report: host facts, sample counts, first failure.
    pub report: String,
}

impl RunResult {
    /// The value of the metric called `name`.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// End-to-end figures of one pass, in catalogue units.
struct EndToEndFigures {
    alerts_per_s: f64,
    decision_p50_us: f64,
    decision_p95_us: f64,
    open_p50_us: f64,
    close_p50_us: f64,
}

impl EndToEndFigures {
    fn of(pass: &PassStats) -> Self {
        EndToEndFigures {
            alerts_per_s: pass.alerts_per_s(),
            decision_p50_us: us(sliced_quantile(&pass.decision_ns, 0.5)),
            decision_p95_us: us(sliced_quantile(&pass.decision_ns, 0.95)),
            open_p50_us: us(sliced_quantile(&pass.open_ns, 0.5)),
            close_p50_us: us(sliced_quantile(&pass.close_ns, 0.5)),
        }
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// `(steal, total)` CPU ticks of the machine so far, from `/proc/stat`;
/// `None` where that is not readable. Steal is time the hypervisor gave
/// to other guests while this one had work to run.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .take(8)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Make one benchmark run.
///
/// # Errors
///
/// Set-up, transport and protocol failures that stop the run; a refused
/// request or a wrong answer is counted in the result instead.
pub fn run(config: &RunConfig) -> Result<RunResult, String> {
    let run_dir = config.work_dir.join(format!(
        "run-{}-{}",
        config.workload.name,
        std::process::id()
    ));
    std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("cannot create {}: {e}", run_dir.display()))?;
    let result = run_in(config, &run_dir);
    let cleaned = std::fs::remove_dir_all(&run_dir)
        .map_err(|e| format!("cannot remove {}: {e}", run_dir.display()));
    let result = result?;
    cleaned?;
    Ok(result)
}

fn run_in(config: &RunConfig, run_dir: &Path) -> Result<RunResult, String> {
    let spec = &config.workload;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut served = None;
    for k in 0..SETUPS {
        // Tear the previous set-up down before timing the next one.
        drop(served.take());
        let wal_dir = run_dir.join(format!("wal-{k}"));
        let next = serve(spec, config.seed, config.tenants, &wal_dir)?;
        setups.push(next.setup.as_secs_f64());
        served = Some(next);
    }
    let served = served.expect("at least one set-up is made");
    let (engine_config, pool) =
        reference_pool(workload::generate(spec, config.seed, config.tenants)?)?;
    let pool_alerts: usize = pool.iter().map(|e| e.day.len()).sum();
    let ossp_loss = -pool
        .iter()
        .flat_map(|e| &e.expected.outcomes)
        .map(|o| o.ossp_utility)
        .sum::<f64>()
        / pool_alerts.max(1) as f64;

    let mut generator = Generator::new(served.stream, &pool)?;
    let ticks_before = cpu_ticks();
    let pass = |seconds: f64, traced: bool| PassConfig {
        window: Duration::from_secs_f64(seconds),
        traced,
        corrupt_decision: config.corrupt_decision,
    };

    let (metrics, passes, layer_alerts) = if config.trace {
        let half = config.seconds / 2.0;
        let untraced = generator.run_pass(&served.server, &pass(half, false))?;
        // The wire pass and the layer replays each get a tracer of their
        // own, so a long wire pass cannot fill the layers' span budget.
        let (traced, wire_spans) =
            trace::with_tracer(|| generator.run_pass(&served.server, &pass(half, true)));
        let traced = traced?;
        let (counts, layer_spans) = trace::with_tracer(|| {
            layers::replay_layers(spec, config.seed, &engine_config, &pool, run_dir)
        });
        let counts = counts?;
        if counts.mismatches > 0 {
            return Err(format!(
                "{} in-process layer answers differ from the reference replay",
                counts.mismatches
            ));
        }
        for (tracer, part) in [(&wire_spans, "wire"), (&layer_spans, "layers")] {
            let path = config
                .work_dir
                .join(format!("trace-{}-{part}.tsv", spec.name));
            tracer
                .write_tsv(
                    &path,
                    &format!("workload {} seed {} {part}", spec.name, config.seed),
                )
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        let summary = layer_summary(&layer_spans, spec)?;
        let metrics = layer_metrics(&summary, &untraced, &traced, &counts, &pool)?;
        (metrics, vec![untraced, traced], counts.alerts)
    } else {
        let measured = generator.run_pass(&served.server, &pass(config.seconds, false))?;
        let figures = EndToEndFigures::of(&measured);
        let metrics = vec![
            metric("alerts_per_s", figures.alerts_per_s),
            metric("decision_p50_us", figures.decision_p50_us),
            metric("decision_p95_us", figures.decision_p95_us),
            metric("open_p50_us", figures.open_p50_us),
            metric("close_p50_us", figures.close_p50_us),
            metric("setup_s", median_f64(&setups)),
            metric("peak_rss_mb", peak_rss_mb()?),
            metric("ossp_loss", ossp_loss),
        ];
        (metrics, vec![measured], 0)
    };
    drop(generator);
    // A share of CPU stolen by other guests during the passes slows every
    // figure of the run; it is reported so such a run can be recognised.
    let steal_share = match (ticks_before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            json_number((s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "null".to_owned(),
    };
    let host = format!(
        "{{\"nproc\": {}, \"transport\": \"loopback-tcp\", \"shards\": {}, \"parallel_feature\": {}, \"cpu_steal_share\": {steal_share}}}",
        std::thread::available_parallelism().map_or(1, usize::from),
        served.server.num_shards(),
        cfg!(feature = "parallel")
    );
    drop(served.server);

    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let first_failure = passes.iter().find_map(|p| p.first_failure.clone());
    let count = |f: fn(&PassStats) -> &[Vec<u64>]| {
        passes
            .iter()
            .flat_map(|p| f(p).iter().map(Vec::len))
            .sum::<usize>()
    };
    let report = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"host\": {host}, \"samples\": {{\"decisions\": {}, \"opens\": {}, \"closes\": {}, \"setups\": {}, \"layer_alerts\": {layer_alerts}}}, \"pool\": {{\"tenant_days\": {}, \"alerts\": {pool_alerts}}}, \"concurrency\": {}, \"window_s\": {}, \"first_failure\": {}}}",
        json_string(spec.name),
        config.seed,
        config.trace,
        count(|p| &p.decision_ns),
        count(|p| &p.open_ns),
        count(|p| &p.close_ns),
        setups.len(),
        pool.len(),
        CONCURRENCY,
        json_number(config.seconds),
        first_failure.as_deref().map_or("null".to_owned(), json_string),
    );
    Ok(RunResult {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics,
        report,
    })
}

fn metric(name: &'static str, value: f64) -> Metric {
    Metric {
        name,
        value,
        unit: metrics::unit_of(name).expect("every emitted metric is in the catalogue"),
    }
}

/// Span names every layer replay records; a durable workload adds
/// `wal.append` and `wal.sync`. (`sse.online_solve` is recorded only when
/// the two worlds' budgets differ, so it is not required.)
const LAYER_SPANS: [&str; 15] = [
    "codec.push",
    "codec.close",
    "service.open",
    "service.push",
    "service.close",
    "untagged.push",
    "session.open",
    "session.push",
    "session.finish",
    "shadow.push",
    "forecast.fit",
    "forecast.estimate",
    "offline.solve",
    "sse.ossp_solve",
    "ossp.closed_form",
];

/// Summarise the layer replays' spans, failing when any was dropped or a
/// layer recorded none: its metrics would read 0 instead of its time.
fn layer_summary(spans: &Tracer, spec: &WorkloadSpec) -> Result<SpanSummary, String> {
    if spans.dropped() > 0 {
        return Err(format!(
            "the layer replays dropped {} spans past the tracer's cap of {}",
            spans.dropped(),
            trace::MAX_SPANS
        ));
    }
    let summary = spans.summarize();
    let wal: &[&str] = if spec.durable {
        &["wal.append", "wal.sync"]
    } else {
        &[]
    };
    if let Some(missing) = LAYER_SPANS
        .iter()
        .chain(wal)
        .find(|name| !summary.durations.contains_key(*name))
    {
        return Err(format!("the layer replays recorded no {missing} span"));
    }
    Ok(summary)
}

/// Per-span child time of spans named `name`: for each, the summed
/// duration of its children named `kids`, ns.
fn child_times(summary: &SpanSummary, name: &str, kids: &[&str]) -> Vec<u64> {
    summary
        .child_times
        .get(name)
        .map(|spans| {
            spans
                .iter()
                .map(|children| kids.iter().filter_map(|k| children.get(k)).sum())
                .collect()
        })
        .unwrap_or_default()
}

/// Median over spans named `name` of their summed children named `kids`.
fn child_median(summary: &SpanSummary, name: &str, kids: &[&str]) -> f64 {
    median_ns(&child_times(summary, name, kids))
}

/// Mean over spans named `name` of their summed children named `kids`.
fn child_mean(summary: &SpanSummary, name: &str, kids: &[&str]) -> f64 {
    let per_span = child_times(summary, name, kids);
    ratio(per_span.iter().sum::<u64>() as f64, per_span.len() as f64)
}

/// The dedup window's cost per push: the median over alerts of the tagged
/// push's self time minus the untagged push's for the same alert (both
/// replays serve the pool in the same order, one span per alert). Pairing
/// by alert keeps the alerts' own spread of solve times out of the
/// difference; a cost is never negative, so noise stops at 0.
fn dedup_ns(summary: &SpanSummary) -> f64 {
    let times = |name| summary.self_times.get(name).map_or(&[][..], Vec::as_slice);
    let paired: Vec<f64> = times("service.push")
        .iter()
        .zip(times("untagged.push"))
        .map(|(&tagged, &untagged)| tagged as f64 - untagged as f64)
        .collect();
    median_f64(&paired).max(0.0)
}

fn layer_metrics(
    summary: &SpanSummary,
    untraced: &PassStats,
    traced: &PassStats,
    counts: &layers::LayerCounts,
    pool: &[workload::PoolEntry],
) -> Result<Vec<Metric>, String> {
    let dur = |name: &str| summary.durations.get(name).map_or(0.0, |d| median_ns(d));
    let total = |name: &str| {
        summary
            .durations
            .get(name)
            .map_or(0, |d| d.iter().sum::<u64>()) as f64
    };
    let self_time = |name: &str| summary.self_times.get(name).map_or(0.0, |d| median_ns(d));

    let base = EndToEndFigures::of(untraced);
    let with = EndToEndFigures::of(traced);
    let shadow_kids = [
        "forecast.estimate",
        "sse.ossp_solve",
        "sse.online_solve",
        "ossp.closed_form",
    ];
    // In ATTRIBUTION order. The two differences are medians of separate
    // replays that may cross by a few ns of noise; a self time is never
    // negative, so they stop at 0. The closed form runs only on pushes
    // where the attack is the best response — under half of them — so its
    // median per push is 0 and its mean per push is taken instead.
    let attribution = [
        us(dur("codec.push")),
        us((self_time("service.push") - dur("session.push")).max(0.0)),
        us(child_median(
            summary,
            "service.push",
            &["wal.append", "wal.sync"],
        )),
        us((dur("session.push") - child_median(summary, "shadow.push", &shadow_kids)).max(0.0)),
        us(child_median(
            summary,
            "shadow.push",
            &["sse.ossp_solve", "sse.online_solve"],
        )),
        us(child_median(summary, "shadow.push", &["forecast.estimate"])),
        us(child_mean(summary, "shadow.push", &["ossp.closed_form"])),
    ];
    let unattributed = with.decision_p50_us - attribution.iter().sum::<f64>();

    let (mut solves, mut lp_solves, mut pruned, mut pivots, mut warm_attempts, mut warm_hits) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for t in pool.iter().map(|e| &e.expected.sse_totals) {
        solves += t.solves;
        lp_solves += t.lp_solves;
        pruned += t.pruned_lps;
        pivots += t.pivots;
        warm_attempts += t.warm_attempts;
        warm_hits += t.warm_hits;
    }
    let (_, wal_bytes, wal_syncs) = counts.wal;
    let attempted = (untraced.attempted + traced.attempted) as f64;
    let failed = (untraced.failed + traced.failed) as f64;
    let depth: usize = traced.queue_depth.iter().sum();

    let mut out = vec![
        metric("codec.push_ns", dur("codec.push")),
        metric("codec.day_closed_ns", dur("codec.close")),
        metric("codec.decision_reply_bytes", counts.decision_reply_bytes),
        metric(
            "codec.day_closed_reply_bytes",
            counts.day_closed_reply_bytes,
        ),
        metric(
            "server.queue_depth_mean",
            ratio(depth as f64, traced.queue_depth.len() as f64),
        ),
        metric("wire.unattributed_us", unattributed),
        metric("service.push_ns", dur("service.push")),
        metric("service.open_ns", dur("service.open")),
        metric("service.close_ns", dur("service.close")),
        metric("service.dedup_ns", dedup_ns(summary)),
        metric("wal.append_ns", dur("wal.append")),
        metric("wal.sync_ns", dur("wal.sync")),
        metric(
            "wal.bytes_per_alert",
            ratio(wal_bytes as f64, counts.alerts as f64),
        ),
        metric(
            "wal.syncs_per_request",
            ratio(wal_syncs as f64, counts.requests as f64),
        ),
        metric("session.push_ns", dur("session.push")),
        metric("session.open_ns", dur("session.open")),
        metric("session.finish_ns", dur("session.finish")),
        metric("sse.ossp_solve_ns", dur("sse.ossp_solve")),
        metric("sse.online_solve_ns", dur("sse.online_solve")),
        metric(
            "sse.online_solve_share",
            ratio(
                total("sse.online_solve"),
                total("sse.online_solve") + total("sse.ossp_solve"),
            ),
        ),
        metric("offline.solve_ns", dur("offline.solve")),
        metric("ossp.closed_form_ns", dur("ossp.closed_form")),
        metric("lp.pivots_per_lp", ratio(pivots as f64, lp_solves as f64)),
        metric(
            "sse.lp_solves_per_alert",
            ratio(lp_solves as f64, solves as f64),
        ),
        metric(
            "sse.pruned_lp_fraction",
            ratio(pruned as f64, (lp_solves + pruned) as f64),
        ),
        metric(
            "sse.warm_hit_rate",
            ratio(warm_hits as f64, warm_attempts as f64),
        ),
        metric("forecast.fit_ns", dur("forecast.fit")),
        metric("forecast.estimate_ns", dur("forecast.estimate")),
    ];
    out.extend(
        ATTRIBUTION
            .iter()
            .zip(attribution)
            .map(|(name, value)| metric(name, value)),
    );
    out.extend([
        metric("trace.decision_p50_us", with.decision_p50_us),
        metric(
            "trace.overhead_alerts_per_s",
            with.alerts_per_s - base.alerts_per_s,
        ),
        metric(
            "trace.overhead_decision_p50_us",
            with.decision_p50_us - base.decision_p50_us,
        ),
        metric(
            "trace.overhead_decision_p95_us",
            with.decision_p95_us - base.decision_p95_us,
        ),
        metric(
            "trace.overhead_open_p50_us",
            with.open_p50_us - base.open_p50_us,
        ),
        metric(
            "trace.overhead_close_p50_us",
            with.close_p50_us - base.close_p50_us,
        ),
        metric("error_rate", ratio(failed, attempted)),
    ]);
    if let Some(bad) = out.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("per-layer metric {} is not finite", bad.name));
    }
    Ok(out)
}
