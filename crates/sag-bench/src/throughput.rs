//! End-to-end throughput measurement of the per-alert solve chain.
//!
//! Two modes over the same registered scenario workload:
//!
//! * **bulk** — replays the workload through the engine's sharded batch
//!   driver on the scenario's own backend (the exact sweep by default) and
//!   reports alerts per second and per-alert solve-latency percentiles;
//! * **simplex oracle** — the solver-work counters need candidate LPs, so
//!   the simplex pivots per LP and the warm-start hit rate come from the
//!   pruned arm of the pruning comparison below, which replays the same
//!   workload on [`SolverBackendKind::SimplexLp`] — plus a direct
//!   warm-vs-cold comparison of the SSE solver on a 5-type game, the
//!   headline speedup of the warm-start machinery;
//! * **streaming** — feeds the same alerts one at a time through
//!   [`sag_core::DaySession::push_alert`] (the production ingest shape) and
//!   reports p50/p99 *decision* latency: the full per-alert cost of forecast
//!   update, both worlds' SSE solves, the signaling scheme and the budget
//!   charge.
//!
//! Two further legs ride along in the same report, both on the simplex
//! oracle: the **LP kernel** comparison (cold candidate-LP solves through
//! the blocked production kernel vs the frozen scalar reference at
//! 28/64/128 types, objectives asserted bitwise equal) and the
//! **ε-approximate mode** replay of the unregistered 128-type `global-mesh`
//! game, which records how many candidate LPs the ε-widened Lagrangian
//! bound retired and the certified utility-loss bound the engine surfaced
//! for it.
//!
//! The workload comes from the `sag-scenarios` registry (default:
//! `paper-baseline`), so this bench and `repro_scenarios` can never drift
//! apart on what they replay.
//!
//! The [`render_json`] output is written to `BENCH_1.json` by the
//! `repro_throughput` binary.

use crate::setup;
use sag_core::sse::{SolverBackendKind, SseCache, SseSolver};
use sag_core::CycleResult;
use sag_lp::{LpProblem, ReferenceWorkspace, SimplexWorkspace};
use sag_scenarios::library::GlobalMesh;
use sag_scenarios::{
    find_scenario, run_scenario_sized, run_scenario_sized_with, stream_scenario_sized,
};
use std::fmt::Write as _;
use std::time::Instant;

/// Configuration of a throughput run.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputConfig {
    /// RNG seed of the synthetic alert stream.
    pub seed: u64,
    /// Registry name of the scenario supplying the replayed workload.
    pub scenario: &'static str,
    /// Override of the scenario's history-day count (`None` = its default).
    pub history_days: Option<u32>,
    /// Override of the scenario's test-day count (`None` = its default).
    pub test_days: Option<u32>,
    /// Solves per arm of the warm-vs-cold 5-type comparison.
    pub comparison_solves: usize,
    /// Cold candidate-LP solves per size and per arm of the blocked-kernel
    /// vs frozen-reference comparison.
    pub kernel_solves: usize,
    /// Utility-loss tolerance of the ε-approximate mode leg (0 would make
    /// the leg measure the exact mode and skip nothing).
    pub epsilon: f64,
    /// History days of the ε-mode `global-mesh` replay.
    pub epsilon_history_days: u32,
    /// Test days of the ε-mode `global-mesh` replay.
    pub epsilon_test_days: u32,
}

impl ThroughputConfig {
    /// The default workload: the `paper-baseline` scenario (the paper's
    /// 7-type game over a 15-day log) exactly as registered.
    #[must_use]
    pub fn default_workload(seed: u64) -> Self {
        ThroughputConfig {
            seed,
            scenario: "paper-baseline",
            history_days: None,
            test_days: None,
            comparison_solves: 2_000,
            kernel_solves: 160,
            epsilon: 50.0,
            epsilon_history_days: 2,
            epsilon_test_days: 2,
        }
    }
}

/// Type counts of the kernel comparison: the largest registered federation
/// (metro-grid) and the two unregistered XL synthesized games
/// (`continental-sprawl`, `global-mesh`).
pub const KERNEL_SIZES: [usize; 3] = [28, 64, 128];

/// Per-alert decision-latency percentiles of the streaming ingest mode.
#[derive(Debug, Clone, Copy)]
pub struct StreamingLatencyReport {
    /// Alerts pushed through [`sag_core::DaySession::push_alert`].
    pub alerts: usize,
    /// Wall-clock time of the whole streamed replay, in seconds.
    pub wall_seconds: f64,
    /// Streamed alerts per second (single session at a time).
    pub alerts_per_sec: f64,
    /// Median per-alert decision latency, microseconds.
    pub p50_micros: f64,
    /// 99th-percentile per-alert decision latency, microseconds.
    pub p99_micros: f64,
    /// Mean per-alert decision latency, microseconds.
    pub mean_micros: f64,
}

/// The incremental-pruning comparison: the same workload replayed on the
/// simplex-LP backend with the pruning layer on (the default) and off
/// (every candidate LP solved). Results are bitwise identical between the
/// arms; only the work differs.
#[derive(Debug, Clone, Copy)]
pub struct PruningReport {
    /// Replay throughput with incremental pruning (the default engine).
    pub pruned_alerts_per_sec: f64,
    /// Replay throughput with the exhaustive multiple-LP reference.
    pub exhaustive_alerts_per_sec: f64,
    /// `pruned / exhaustive` — above 1 means pruning won wall-clock time.
    pub speedup: f64,
    /// Fraction of candidate LPs the bound skipped in the pruned arm.
    pub pruned_lp_fraction: f64,
    /// Candidate LPs actually solved per SSE solve, pruned arm.
    pub lp_solves_per_solve_pruned: f64,
    /// Candidate LPs solved per SSE solve, exhaustive arm (≈ the type count).
    pub lp_solves_per_solve_exhaustive: f64,
    /// Mean simplex pivots per candidate LP, pruned arm.
    pub pivots_per_lp: f64,
    /// Fraction of warm-start attempts that avoided a cold solve, pruned arm.
    pub warm_hit_rate: f64,
}

/// One size point of the blocked-kernel vs frozen-reference comparison:
/// cold solves of identical candidate-shaped LPs through both kernels, with
/// the objectives asserted bitwise equal (both run Bland pricing, so the
/// pivot sequences match by construction).
#[derive(Debug, Clone, Copy)]
pub struct LpKernelSizeReport {
    /// Alert-type count (= variable count of each candidate LP).
    pub types: usize,
    /// Cold solves timed per arm.
    pub solves: usize,
    /// Mean cold solve through the frozen scalar reference, microseconds.
    pub reference_micros: f64,
    /// Mean cold solve through the blocked production kernel, microseconds.
    pub kernel_micros: f64,
    /// `reference / kernel` — above 1 means the blocked kernel won.
    pub speedup: f64,
    /// Mean simplex pivots per candidate LP (identical across the arms).
    pub pivots_per_lp: f64,
    /// Mean blocked-kernel time per pivot, nanoseconds.
    pub kernel_nanos_per_pivot: f64,
}

/// The ε-approximate mode measured on a `global-mesh` (128-type) replay:
/// how many candidate LPs the Lagrangian bound retired under the ε slack,
/// and the certified utility-loss bound the engine surfaced for it.
#[derive(Debug, Clone, Copy)]
pub struct EpsilonModeReport {
    /// Utility-loss tolerance the replay ran with.
    pub epsilon: f64,
    /// Alert-type count of the replayed game.
    pub types: usize,
    /// Test days replayed.
    pub days: u32,
    /// SSE solves across the replay.
    pub solves: u64,
    /// Candidate LPs skipped by the ε-widened bound.
    pub skipped_lps: u64,
    /// `skipped / (skipped + pruned + solved)` — the fraction of candidate
    /// decisions the ε certificate retired.
    pub skip_fraction: f64,
    /// Largest per-day `CycleResult::certified_eps_loss` seen.
    pub worst_day_certified_loss: f64,
    /// Summed certified loss across all replayed days.
    pub total_certified_loss: f64,
}

/// The LP-kernel section of the report: the per-size kernel comparison plus
/// the ε-approximate mode leg.
#[derive(Debug, Clone, Copy)]
pub struct LpKernelReport {
    /// One entry per [`KERNEL_SIZES`] type count.
    pub sizes: [LpKernelSizeReport; 3],
    /// The ε-approximate mode leg on the 128-type game.
    pub epsilon_mode: EpsilonModeReport,
}

/// Everything a throughput run measures.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputReport {
    /// Total alerts replayed across the test days.
    pub alerts: usize,
    /// Wall-clock time of the whole batched replay, in seconds.
    pub wall_seconds: f64,
    /// End-to-end alerts per second (replay work divided by wall time).
    pub alerts_per_sec: f64,
    /// Median per-alert solve latency (SSE + OSSP), microseconds.
    pub p50_micros: f64,
    /// 99th-percentile per-alert solve latency, microseconds.
    pub p99_micros: f64,
    /// Mean per-alert solve latency, microseconds.
    pub mean_micros: f64,
    /// Mean simplex pivots per candidate LP, from the simplex-LP replay of
    /// the pruning comparison's pruned arm.
    pub pivots_per_lp: f64,
    /// Fraction of warm-start attempts that avoided a cold solve, from the
    /// same simplex-LP replay.
    pub warm_hit_rate: f64,
    /// Per-alert decision latency of the same workload streamed through
    /// [`sag_core::DaySession::push_alert`].
    pub streaming: StreamingLatencyReport,
    /// Mean time of one warm-started 5-type SSE solve, microseconds.
    pub warm_micros_5type: f64,
    /// Mean time of one cold 5-type SSE solve, microseconds.
    pub cold_micros_5type: f64,
    /// Cold time divided by warm time on the 5-type game.
    pub warm_speedup_5type: f64,
    /// Pruned-vs-exhaustive comparison on the same workload.
    pub pruning: PruningReport,
    /// Blocked-kernel vs reference comparison and the ε-mode leg.
    pub lp_kernel: LpKernelReport,
}

/// Run the full throughput experiment.
///
/// # Panics
///
/// Panics if the configured scenario is not registered, its engine
/// configuration is rejected, or a replay fails — all workspace bugs rather
/// than user errors.
#[must_use]
pub fn throughput_experiment(config: &ThroughputConfig) -> ThroughputReport {
    let scenario = find_scenario(config.scenario)
        .unwrap_or_else(|| panic!("scenario {:?} is not registered", config.scenario));
    let history_days = config
        .history_days
        .unwrap_or_else(|| scenario.history_days());
    let test_days = config.test_days.unwrap_or_else(|| scenario.test_days());
    // Always a single shard: BENCH_1 tracks the *solve chain* (per-alert
    // latency, pivots, warm hits) and must stay comparable across machines
    // with different core counts; multi-core scaling is BENCH_2's sharding
    // section.
    let run = run_scenario_sized(scenario.as_ref(), config.seed, 1, history_days, test_days)
        .expect("scenario replay succeeds");

    let streaming = streaming_experiment(config);
    let (warm_micros_5type, cold_micros_5type) = warm_vs_cold_5type(config.comparison_solves);
    let pruning = pruning_experiment(config);
    let lp_kernel = lp_kernel_experiment(config);
    summarize(
        &run.cycles,
        run.wall_seconds,
        streaming,
        warm_micros_5type,
        cold_micros_5type,
        pruning,
        lp_kernel,
    )
}

/// Compare the blocked production kernel against the frozen scalar
/// reference on cold candidate-shaped LPs at every [`KERNEL_SIZES`] type
/// count, then measure the ε-approximate mode on a `global-mesh` replay.
///
/// # Panics
///
/// Panics if any LP fails to solve, if the two kernels disagree on an
/// objective bitwise, or if the `global-mesh` replay fails — all workspace
/// bugs rather than user errors.
#[must_use]
pub fn lp_kernel_experiment(config: &ThroughputConfig) -> LpKernelReport {
    let sizes = KERNEL_SIZES.map(|types| kernel_size_comparison(types, config.kernel_solves));
    let epsilon_mode = epsilon_mode_experiment(
        config.seed,
        config.epsilon,
        config.epsilon_history_days,
        config.epsilon_test_days,
    );
    LpKernelReport {
        sizes,
        epsilon_mode,
    }
}

/// One timed cold solve through the frozen reference kernel.
fn timed_reference(workspace: &mut ReferenceWorkspace, lp: &LpProblem, nanos: &mut u128) -> f64 {
    let started = Instant::now();
    let solution = workspace.solve(lp).expect("reference kernel solves");
    *nanos += started.elapsed().as_nanos();
    let objective = solution.objective();
    workspace.recycle(solution);
    objective
}

/// One timed cold solve through the blocked production kernel.
fn timed_kernel(
    workspace: &mut SimplexWorkspace,
    lp: &LpProblem,
    nanos: &mut u128,
    pivots: &mut u64,
) -> f64 {
    let started = Instant::now();
    let solution = lp.solve_with(workspace).expect("blocked kernel solves");
    *nanos += started.elapsed().as_nanos();
    *pivots += workspace.last_pivots() as u64;
    let objective = solution.objective();
    workspace.recycle(solution);
    objective
}

/// Time `solves` cold candidate-LP solves at one type count through both
/// kernels, asserting the objectives bitwise equal per program. The arm
/// order alternates per step so problem-construction cache warmth cannot
/// systematically favour one side.
fn kernel_size_comparison(types: usize, solves: usize) -> LpKernelSizeReport {
    let solves = solves.max(2);
    let mut reference = ReferenceWorkspace::new();
    let mut kernel = SimplexWorkspace::new();
    let mut reference_nanos = 0u128;
    let mut kernel_nanos = 0u128;
    let mut pivots = 0u64;

    // Unmeasured warmup so neither arm pays its workspace's buffer growth.
    let warmup = setup::candidate_lp(types, 0);
    let mut scratch = 0u128;
    let mut scratch_pivots = 0u64;
    timed_reference(&mut reference, &warmup, &mut scratch);
    timed_kernel(&mut kernel, &warmup, &mut scratch, &mut scratch_pivots);

    for step in 0..solves {
        let lp = setup::candidate_lp(types, step);
        let (reference_objective, kernel_objective) = if step % 2 == 0 {
            let r = timed_reference(&mut reference, &lp, &mut reference_nanos);
            let k = timed_kernel(&mut kernel, &lp, &mut kernel_nanos, &mut pivots);
            (r, k)
        } else {
            let k = timed_kernel(&mut kernel, &lp, &mut kernel_nanos, &mut pivots);
            let r = timed_reference(&mut reference, &lp, &mut reference_nanos);
            (r, k)
        };
        assert_eq!(
            reference_objective.to_bits(),
            kernel_objective.to_bits(),
            "blocked kernel diverged from the frozen reference at {types} types (step {step}): \
             {reference_objective} vs {kernel_objective}"
        );
    }

    let reference_micros = reference_nanos as f64 / 1e3 / solves as f64;
    let kernel_micros = kernel_nanos as f64 / 1e3 / solves as f64;
    LpKernelSizeReport {
        types,
        solves,
        reference_micros,
        kernel_micros,
        speedup: if kernel_micros > 0.0 {
            reference_micros / kernel_micros
        } else {
            0.0
        },
        pivots_per_lp: pivots as f64 / solves as f64,
        kernel_nanos_per_pivot: if pivots > 0 {
            kernel_nanos as f64 / pivots as f64
        } else {
            0.0
        },
    }
}

/// Replay the unregistered 128-type `global-mesh` scenario with the
/// ε-approximate mode on and report what the certificate retired and what
/// it cost. The loss bound comes straight from the per-day
/// [`CycleResult::certified_eps_loss`] the engine surfaces.
///
/// # Panics
///
/// Panics if the replay fails (a workspace bug rather than a user error).
#[must_use]
pub fn epsilon_mode_experiment(
    seed: u64,
    epsilon: f64,
    history_days: u32,
    test_days: u32,
) -> EpsilonModeReport {
    let run = run_scenario_sized_with(&GlobalMesh, seed, 1, history_days, test_days, |engine| {
        engine.backend = SolverBackendKind::SimplexLp;
        engine.epsilon = epsilon;
    })
    .expect("global-mesh replay succeeds");
    let totals = run.sse_totals();
    let decisions = totals.eps_skipped_lps + totals.pruned_lps + totals.lp_solves;
    EpsilonModeReport {
        epsilon,
        types: GlobalMesh::TYPES,
        days: test_days,
        solves: totals.solves,
        skipped_lps: totals.eps_skipped_lps,
        skip_fraction: if decisions > 0 {
            totals.eps_skipped_lps as f64 / decisions as f64
        } else {
            0.0
        },
        worst_day_certified_loss: run
            .cycles
            .iter()
            .map(|c| c.certified_eps_loss)
            .fold(0.0, f64::max),
        total_certified_loss: run.certified_eps_loss(),
    }
}

/// Replay the configured workload twice on the simplex-LP backend —
/// incremental pruning on, then off — and compare throughput and solver
/// work. Results of the two arms are bitwise identical (enforced by the
/// `sag-scenarios` equivalence tests); this measures only the work saved.
///
/// # Panics
///
/// Panics if the configured scenario is not registered or a replay fails.
#[must_use]
pub fn pruning_experiment(config: &ThroughputConfig) -> PruningReport {
    let scenario = find_scenario(config.scenario)
        .unwrap_or_else(|| panic!("scenario {:?} is not registered", config.scenario));
    let history_days = config
        .history_days
        .unwrap_or_else(|| scenario.history_days());
    let test_days = config.test_days.unwrap_or_else(|| scenario.test_days());
    // Best of three per arm: each leg is tens of milliseconds, so one
    // scheduler hiccup would otherwise dominate the reported ratio.
    let mut best: [Option<sag_scenarios::ScenarioRun>; 2] = [None, None];
    for _ in 0..3 {
        for (slot, pruning) in best.iter_mut().zip([true, false]) {
            let run = run_scenario_sized_with(
                scenario.as_ref(),
                config.seed,
                1,
                history_days,
                test_days,
                |engine| {
                    engine.backend = SolverBackendKind::SimplexLp;
                    engine.pruning = pruning;
                },
            )
            .expect("scenario replay succeeds");
            let faster = slot
                .as_ref()
                .is_none_or(|prev| run.wall_seconds < prev.wall_seconds);
            if faster {
                *slot = Some(run);
            }
        }
    }
    let [pruned, exhaustive] = best.map(|run| run.expect("three rounds ran"));
    let pruned_totals = pruned.sse_totals();
    let exhaustive_totals = exhaustive.sse_totals();
    let per_solve = |lp_solves: u64, solves: u64| {
        if solves == 0 {
            0.0
        } else {
            lp_solves as f64 / solves as f64
        }
    };
    PruningReport {
        pruned_alerts_per_sec: pruned.alerts_per_sec(),
        exhaustive_alerts_per_sec: exhaustive.alerts_per_sec(),
        speedup: if exhaustive.alerts_per_sec() > 0.0 {
            pruned.alerts_per_sec() / exhaustive.alerts_per_sec()
        } else {
            0.0
        },
        pruned_lp_fraction: pruned_totals.pruned_lp_fraction(),
        lp_solves_per_solve_pruned: per_solve(pruned_totals.lp_solves, pruned_totals.solves),
        lp_solves_per_solve_exhaustive: per_solve(
            exhaustive_totals.lp_solves,
            exhaustive_totals.solves,
        ),
        pivots_per_lp: pruned_totals.pivots_per_lp(),
        warm_hit_rate: pruned_totals.warm_hit_rate(),
    }
}

/// Stream the configured workload alert-at-a-time through
/// [`sag_core::DaySession`]s and summarize the per-alert decision latency.
///
/// # Panics
///
/// Panics if the configured scenario is not registered or the replay fails
/// (workspace bugs rather than user errors).
#[must_use]
pub fn streaming_experiment(config: &ThroughputConfig) -> StreamingLatencyReport {
    let scenario = find_scenario(config.scenario)
        .unwrap_or_else(|| panic!("scenario {:?} is not registered", config.scenario));
    let history_days = config
        .history_days
        .unwrap_or_else(|| scenario.history_days());
    let test_days = config.test_days.unwrap_or_else(|| scenario.test_days());
    let streamed = stream_scenario_sized(scenario.as_ref(), config.seed, history_days, test_days)
        .expect("streamed scenario replay succeeds");

    let mut micros: Vec<f64> = streamed
        .push_nanos
        .iter()
        .map(|&n| n as f64 / 1e3)
        .collect();
    micros.sort_unstable_by(f64::total_cmp);
    let alerts = micros.len();
    let percentile = |q: f64| -> f64 {
        if micros.is_empty() {
            return 0.0;
        }
        let rank = ((alerts - 1) as f64 * q).round() as usize;
        micros[rank]
    };
    let wall_seconds = streamed.run.wall_seconds;
    StreamingLatencyReport {
        alerts,
        wall_seconds,
        alerts_per_sec: if wall_seconds > 0.0 {
            alerts as f64 / wall_seconds
        } else {
            0.0
        },
        p50_micros: percentile(0.50),
        p99_micros: percentile(0.99),
        mean_micros: if alerts == 0 {
            0.0
        } else {
            micros.iter().sum::<f64>() / alerts as f64
        },
    }
}

/// Aggregate replayed cycles into a report.
fn summarize(
    cycles: &[CycleResult],
    wall_seconds: f64,
    streaming: StreamingLatencyReport,
    warm_micros_5type: f64,
    cold_micros_5type: f64,
    pruning: PruningReport,
    lp_kernel: LpKernelReport,
) -> ThroughputReport {
    let mut latencies: Vec<u64> = cycles
        .iter()
        .flat_map(|c| c.outcomes.iter().map(|o| o.solve_micros))
        .collect();
    latencies.sort_unstable();
    let alerts = latencies.len();

    let percentile = |q: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let rank = ((alerts - 1) as f64 * q).round() as usize;
        latencies[rank] as f64
    };
    let mean_micros = if alerts == 0 {
        0.0
    } else {
        latencies.iter().map(|&v| v as f64).sum::<f64>() / alerts as f64
    };

    ThroughputReport {
        alerts,
        wall_seconds,
        alerts_per_sec: if wall_seconds > 0.0 {
            alerts as f64 / wall_seconds
        } else {
            0.0
        },
        p50_micros: percentile(0.50),
        p99_micros: percentile(0.99),
        mean_micros,
        pivots_per_lp: pruning.pivots_per_lp,
        warm_hit_rate: pruning.warm_hit_rate,
        streaming,
        warm_micros_5type,
        cold_micros_5type,
        warm_speedup_5type: if warm_micros_5type > 0.0 {
            cold_micros_5type / warm_micros_5type
        } else {
            0.0
        },
        pruning,
        lp_kernel,
    }
}

/// Time `solves` SSE solves of the 5-type scaling game twice — once
/// warm-started through an [`SseCache`], once cold — over an identical
/// drifting budget/estimate trajectory (the shape of consecutive alerts in a
/// replay). Returns `(warm_micros_per_solve, cold_micros_per_solve)`.
#[must_use]
pub fn warm_vs_cold_5type(solves: usize) -> (f64, f64) {
    let (payoffs, costs, base_estimates) = setup::synthetic_game(5);
    let solver = SseSolver::new();
    let budget_at = |i: usize| 30.0 - 25.0 * (i as f64 / solves.max(1) as f64);
    let estimates_at = |i: usize, out: &mut Vec<f64>| {
        out.clear();
        let drift = 1.0 - 0.6 * (i as f64 / solves.max(1) as f64);
        out.extend(base_estimates.iter().map(|e| e * drift));
    };

    let mut estimates = Vec::new();

    // Warm arm.
    let mut cache = SseCache::new();
    let started = Instant::now();
    for i in 0..solves {
        estimates_at(i, &mut estimates);
        let input = setup::sse_input(&payoffs, &costs, &estimates, budget_at(i));
        let solution = solver
            .solve_cached(&input, &mut cache)
            .expect("5-type game solves");
        std::hint::black_box(solution.auditor_utility);
    }
    let warm_micros = started.elapsed().as_secs_f64() * 1e6 / solves.max(1) as f64;

    // Cold arm, same trajectory.
    let started = Instant::now();
    for i in 0..solves {
        estimates_at(i, &mut estimates);
        let input = setup::sse_input(&payoffs, &costs, &estimates, budget_at(i));
        let solution = solver.solve(&input).expect("5-type game solves");
        std::hint::black_box(solution.auditor_utility);
    }
    let cold_micros = started.elapsed().as_secs_f64() * 1e6 / solves.max(1) as f64;

    (warm_micros, cold_micros)
}

/// Render the report as the machine-readable `BENCH_1.json` document.
#[must_use]
pub fn render_json(report: &ThroughputReport) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"per_alert_solve_chain_throughput\",");
    let _ = writeln!(out, "  \"alerts\": {},", report.alerts);
    let _ = writeln!(out, "  \"wall_seconds\": {:.6},", report.wall_seconds);
    let _ = writeln!(out, "  \"alerts_per_sec\": {:.2},", report.alerts_per_sec);
    let _ = writeln!(out, "  \"latency_micros\": {{");
    let _ = writeln!(out, "    \"p50\": {:.1},", report.p50_micros);
    let _ = writeln!(out, "    \"p99\": {:.1},", report.p99_micros);
    let _ = writeln!(out, "    \"mean\": {:.1}", report.mean_micros);
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"pivots_per_lp\": {:.3},", report.pivots_per_lp);
    let _ = writeln!(
        out,
        "  \"warm_start_hit_rate\": {:.4},",
        report.warm_hit_rate
    );
    let s = &report.streaming;
    let _ = writeln!(out, "  \"streaming\": {{");
    let _ = writeln!(out, "    \"alerts\": {},", s.alerts);
    let _ = writeln!(out, "    \"wall_seconds\": {:.6},", s.wall_seconds);
    let _ = writeln!(out, "    \"alerts_per_sec\": {:.2},", s.alerts_per_sec);
    let _ = writeln!(out, "    \"latency_micros\": {{");
    let _ = writeln!(out, "      \"p50\": {:.1},", s.p50_micros);
    let _ = writeln!(out, "      \"p99\": {:.1},", s.p99_micros);
    let _ = writeln!(out, "      \"mean\": {:.1}", s.mean_micros);
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"warm_vs_cold_5type\": {{");
    let _ = writeln!(
        out,
        "    \"warm_micros_per_solve\": {:.2},",
        report.warm_micros_5type
    );
    let _ = writeln!(
        out,
        "    \"cold_micros_per_solve\": {:.2},",
        report.cold_micros_5type
    );
    let _ = writeln!(out, "    \"speedup\": {:.2}", report.warm_speedup_5type);
    let _ = writeln!(out, "  }},");
    let p = &report.pruning;
    let _ = writeln!(out, "  \"pruning\": {{");
    let _ = writeln!(
        out,
        "    \"pruned_alerts_per_sec\": {:.2},",
        p.pruned_alerts_per_sec
    );
    let _ = writeln!(
        out,
        "    \"exhaustive_alerts_per_sec\": {:.2},",
        p.exhaustive_alerts_per_sec
    );
    let _ = writeln!(out, "    \"speedup\": {:.2},", p.speedup);
    let _ = writeln!(
        out,
        "    \"pruned_lp_fraction\": {:.4},",
        p.pruned_lp_fraction
    );
    let _ = writeln!(
        out,
        "    \"lp_solves_per_solve_pruned\": {:.3},",
        p.lp_solves_per_solve_pruned
    );
    let _ = writeln!(
        out,
        "    \"lp_solves_per_solve_exhaustive\": {:.3}",
        p.lp_solves_per_solve_exhaustive
    );
    let _ = writeln!(out, "  }},");
    let k = &report.lp_kernel;
    let _ = writeln!(out, "  \"lp_kernel\": {{");
    let _ = writeln!(out, "    \"sizes\": [");
    for (i, size) in k.sizes.iter().enumerate() {
        let _ = writeln!(out, "      {{");
        let _ = writeln!(out, "        \"types\": {},", size.types);
        let _ = writeln!(out, "        \"solves\": {},", size.solves);
        let _ = writeln!(
            out,
            "        \"reference_micros\": {:.3},",
            size.reference_micros
        );
        let _ = writeln!(out, "        \"kernel_micros\": {:.3},", size.kernel_micros);
        let _ = writeln!(out, "        \"speedup\": {:.3},", size.speedup);
        let _ = writeln!(out, "        \"pivots_per_lp\": {:.3},", size.pivots_per_lp);
        let _ = writeln!(
            out,
            "        \"kernel_nanos_per_pivot\": {:.1}",
            size.kernel_nanos_per_pivot
        );
        let close = if i + 1 == k.sizes.len() { "}" } else { "}," };
        let _ = writeln!(out, "      {close}");
    }
    let _ = writeln!(out, "    ],");
    let e = &k.epsilon_mode;
    let _ = writeln!(out, "    \"epsilon_mode\": {{");
    let _ = writeln!(out, "      \"scenario\": \"global-mesh\",");
    let _ = writeln!(out, "      \"types\": {},", e.types);
    let _ = writeln!(out, "      \"epsilon\": {:.3},", e.epsilon);
    let _ = writeln!(out, "      \"test_days\": {},", e.days);
    let _ = writeln!(out, "      \"solves\": {},", e.solves);
    let _ = writeln!(out, "      \"skipped_candidate_lps\": {},", e.skipped_lps);
    let _ = writeln!(out, "      \"skip_fraction\": {:.4},", e.skip_fraction);
    let _ = writeln!(
        out,
        "      \"worst_day_certified_loss\": {:.4},",
        e.worst_day_certified_loss
    );
    let _ = writeln!(
        out,
        "      \"total_certified_loss\": {:.4}",
        e.total_certified_loss
    );
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "  }}");
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_throughput_run_produces_consistent_metrics() {
        let config = ThroughputConfig {
            seed: 5,
            scenario: "paper-baseline",
            history_days: Some(6),
            test_days: Some(2),
            comparison_solves: 50,
            kernel_solves: 6,
            epsilon: 50.0,
            epsilon_history_days: 1,
            epsilon_test_days: 1,
        };
        let report = throughput_experiment(&config);
        assert!(report.alerts > 100);
        assert!(report.alerts_per_sec > 0.0);
        assert!(report.p50_micros <= report.p99_micros);
        assert!(
            report.warm_hit_rate > 0.5,
            "hit rate {}",
            report.warm_hit_rate
        );
        assert!(report.pivots_per_lp < 20.0);
        assert!(report.warm_micros_5type > 0.0);
        assert!(report.cold_micros_5type > 0.0);
        // The streaming leg replays the same workload alert-by-alert.
        assert_eq!(report.streaming.alerts, report.alerts);
        assert!(report.streaming.alerts_per_sec > 0.0);
        assert!(report.streaming.p50_micros > 0.0);
        assert!(report.streaming.p50_micros <= report.streaming.p99_micros);
        // A push includes the solve, so the decision latency cannot sit far
        // below the solve latency. The two medians come from independent
        // replays on a possibly noisy runner, so allow a generous relative
        // margin rather than a tight absolute one.
        assert!(
            report.streaming.p50_micros * 1.5 + 2.0 >= report.p50_micros,
            "streaming p50 {} implausibly below bulk solve p50 {}",
            report.streaming.p50_micros,
            report.p50_micros
        );
        // The pruning comparison replays both arms on the 7-type game: the
        // exhaustive arm solves ~7 LPs per solve; the pruned arm must skip
        // most of them. Wall-clock speedup is left ungated here (this is a
        // debug-mode smoke run); the skip counters are deterministic.
        let p = &report.pruning;
        assert!(p.pruned_alerts_per_sec > 0.0);
        assert!(p.exhaustive_alerts_per_sec > 0.0);
        assert!(
            p.lp_solves_per_solve_exhaustive > 6.0,
            "exhaustive arm solves every candidate: {}",
            p.lp_solves_per_solve_exhaustive
        );
        assert!(
            p.pruned_lp_fraction > 0.5,
            "pruned fraction {:.3}",
            p.pruned_lp_fraction
        );
        assert!(p.lp_solves_per_solve_pruned < p.lp_solves_per_solve_exhaustive);
        // The kernel comparison itself asserts bitwise-equal objectives; the
        // report must carry real work at every size. Wall-clock speedup is
        // left ungated — this is a debug-mode smoke run.
        let k = &report.lp_kernel;
        for (expected, size) in KERNEL_SIZES.iter().zip(&k.sizes) {
            assert_eq!(size.types, *expected);
            assert!(size.reference_micros > 0.0);
            assert!(size.kernel_micros > 0.0);
            assert!(
                size.pivots_per_lp >= 1.0,
                "{} types: {} pivots/LP",
                size.types,
                size.pivots_per_lp
            );
            assert!(size.kernel_nanos_per_pivot > 0.0);
        }
        // Pivot work must grow with the type count, or the candidate-shaped
        // programs have degenerated into trivial LPs.
        assert!(k.sizes[0].pivots_per_lp < k.sizes[2].pivots_per_lp);
        // The ε leg replays a real day of global-mesh; its certificate obeys
        // the per-day ε × solves bound the engine guarantees.
        let e = &k.epsilon_mode;
        assert_eq!(e.types, 128);
        assert!(e.solves > 0);
        assert!((0.0..=1.0).contains(&e.skip_fraction));
        assert!(e.worst_day_certified_loss >= 0.0);
        assert!(e.worst_day_certified_loss <= e.total_certified_loss + 1e-12);
        assert!(
            e.total_certified_loss <= e.epsilon * e.solves as f64 + 1e-9,
            "certified loss {} above ε × solves",
            e.total_certified_loss
        );
        assert!(
            e.skipped_lps > 0,
            "ε = {} skipped no candidate LPs on global-mesh",
            e.epsilon
        );
    }

    #[test]
    fn json_rendering_contains_every_metric() {
        let report = ThroughputReport {
            alerts: 1000,
            wall_seconds: 0.5,
            alerts_per_sec: 2000.0,
            p50_micros: 11.0,
            p99_micros: 42.0,
            mean_micros: 13.5,
            pivots_per_lp: 1.25,
            warm_hit_rate: 0.97,
            streaming: StreamingLatencyReport {
                alerts: 1000,
                wall_seconds: 0.6,
                alerts_per_sec: 1666.0,
                p50_micros: 15.5,
                p99_micros: 58.0,
                mean_micros: 18.0,
            },
            warm_micros_5type: 4.0,
            cold_micros_5type: 12.0,
            warm_speedup_5type: 3.0,
            pruning: PruningReport {
                pruned_alerts_per_sec: 60000.0,
                exhaustive_alerts_per_sec: 20000.0,
                speedup: 3.0,
                pruned_lp_fraction: 0.84,
                lp_solves_per_solve_pruned: 1.1,
                lp_solves_per_solve_exhaustive: 7.0,
                pivots_per_lp: 1.25,
                warm_hit_rate: 0.97,
            },
            lp_kernel: LpKernelReport {
                sizes: [
                    LpKernelSizeReport {
                        types: 28,
                        solves: 160,
                        reference_micros: 9.0,
                        kernel_micros: 6.0,
                        speedup: 1.5,
                        pivots_per_lp: 24.0,
                        kernel_nanos_per_pivot: 250.0,
                    },
                    LpKernelSizeReport {
                        types: 64,
                        solves: 160,
                        reference_micros: 60.0,
                        kernel_micros: 30.0,
                        speedup: 2.0,
                        pivots_per_lp: 55.0,
                        kernel_nanos_per_pivot: 545.5,
                    },
                    LpKernelSizeReport {
                        types: 128,
                        solves: 160,
                        reference_micros: 400.0,
                        kernel_micros: 160.0,
                        speedup: 2.5,
                        pivots_per_lp: 110.0,
                        kernel_nanos_per_pivot: 1454.5,
                    },
                ],
                epsilon_mode: EpsilonModeReport {
                    epsilon: 50.0,
                    types: 128,
                    days: 2,
                    solves: 7000,
                    skipped_lps: 900,
                    skip_fraction: 0.1234,
                    worst_day_certified_loss: 31.5,
                    total_certified_loss: 44.25,
                },
            },
        };
        let json = render_json(&report);
        for needle in [
            "\"alerts\": 1000",
            "\"alerts_per_sec\": 2000.00",
            "\"p50\": 11.0",
            "\"p99\": 42.0",
            "\"pivots_per_lp\": 1.250",
            "\"warm_start_hit_rate\": 0.9700",
            "\"streaming\"",
            "\"p50\": 15.5",
            "\"p99\": 58.0",
            "\"speedup\": 3.00",
            "\"pruning\"",
            "\"pruned_lp_fraction\": 0.8400",
            "\"lp_solves_per_solve_pruned\": 1.100",
            "\"lp_solves_per_solve_exhaustive\": 7.000",
            "\"lp_kernel\"",
            "\"types\": 28",
            "\"types\": 128",
            "\"reference_micros\": 400.000",
            "\"kernel_micros\": 160.000",
            "\"speedup\": 2.500",
            "\"pivots_per_lp\": 110.000",
            "\"kernel_nanos_per_pivot\": 1454.5",
            "\"epsilon_mode\"",
            "\"scenario\": \"global-mesh\"",
            "\"epsilon\": 50.000",
            "\"skipped_candidate_lps\": 900",
            "\"skip_fraction\": 0.1234",
            "\"worst_day_certified_loss\": 31.5000",
            "\"total_certified_loss\": 44.2500",
        ] {
            assert!(json.contains(needle), "missing `{needle}` in:\n{json}");
        }
        assert!(json.starts_with('{') && json.ends_with('}'));
        // The document must parse as JSON for scripts/check_perf.py; a
        // cheap structural proxy: balanced braces and no trailing commas.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert!(!json.contains(",\n}"), "trailing comma before a close");
    }
}
