//! Criterion bench for Experiment E5: the per-alert SAG optimization cost
//! (online SSE + OSSP closed form), which is the latency a user would
//! experience before the warning dialog can be shown. The paper reports
//! ≈ 0.02 s per alert on 2017 laptop hardware.
//!
//! Multi-type games are measured on both backends: the served sweep
//! (`SolverBackendKind::Auto`) and the paper's multiple-LP method
//! (`SseSolver::solve`, the oracle). Game setups are shared with
//! `bench_throughput.rs` through `sag_bench::setup`.
//!
//! The `forecast` group times the two forecast costs a tenant pays on the
//! serving path: the arrival-model fit when a day opens, and the coverage
//! rate ρ of every type on every alert.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sag_bench::setup;
use sag_core::signaling::ossp_closed_form;
use sag_core::sse::{SolverBackendKind, SseSolver};
use sag_forecast::{expected_inverse_positive, ArrivalModel, FutureAlertEstimator};
use sag_scenarios::find_scenario;
use sag_sim::AlertTypeId;
use std::hint::black_box;

fn per_alert_optimization(c: &mut Criterion) {
    let mut group = c.benchmark_group("per_alert_optimization");

    // Single-type game (Figure 2 setting) — answered by the closed form.
    let single = setup::single_type_game();
    let single_estimates = setup::single_type_estimates();
    group.bench_function("sse_plus_ossp/1_type", |b| {
        let solver = SseSolver::new();
        b.iter(|| {
            let input = setup::sse_input(
                &single.payoffs,
                &single.audit_costs,
                black_box(&single_estimates),
                black_box(setup::SINGLE_TYPE_BUDGET),
            );
            let sse = solver.solve(&input).unwrap();
            let ossp = ossp_closed_form(
                single.payoffs.get(AlertTypeId(0)),
                sse.coverage_of(AlertTypeId(0)),
            );
            black_box((sse.auditor_utility, ossp.auditor_utility))
        });
    });

    // Multi-type game (Figure 3 setting), LP oracle and served sweep.
    let multi = setup::multi_type_game();
    let multi_estimates = setup::multi_type_estimates();
    group.bench_function("sse_plus_ossp/7_types_lp", |b| {
        let solver = SseSolver::new();
        b.iter(|| {
            let input = setup::sse_input(
                &multi.payoffs,
                &multi.audit_costs,
                black_box(&multi_estimates),
                black_box(setup::MULTI_TYPE_BUDGET),
            );
            let sse = solver.solve(&input).unwrap();
            let t = sse.best_response;
            let ossp = ossp_closed_form(multi.payoffs.get(t), sse.coverage_of(t));
            black_box((sse.auditor_utility, ossp.auditor_utility))
        });
    });
    group.bench_function("sse_plus_ossp/7_types_sweep", |b| {
        let mut backend = SolverBackendKind::Auto.instantiate();
        b.iter(|| {
            let input = setup::sse_input(
                &multi.payoffs,
                &multi.audit_costs,
                black_box(&multi_estimates),
                black_box(setup::MULTI_TYPE_BUDGET),
            );
            let sse = backend.solve(&input).unwrap();
            let t = sse.best_response;
            let ossp = ossp_closed_form(multi.payoffs.get(t), sse.coverage_of(t));
            let utilities = (sse.auditor_utility, ossp.auditor_utility);
            backend.recycle(sse);
            black_box(utilities)
        });
    });

    // Scaling with the number of types (synthetic payoff tables).
    for &n in &[2usize, 4, 8, 16] {
        let (payoffs, costs, estimates) = setup::synthetic_game(n);
        group.bench_with_input(BenchmarkId::new("sse_scaling_types/lp", n), &n, |b, _| {
            let solver = SseSolver::new();
            b.iter(|| {
                let input =
                    setup::sse_input(&payoffs, &costs, black_box(&estimates), black_box(30.0));
                black_box(solver.solve(&input).unwrap().auditor_utility)
            });
        });
        group.bench_with_input(
            BenchmarkId::new("sse_scaling_types/sweep", n),
            &n,
            |b, _| {
                let mut backend = SolverBackendKind::Auto.instantiate();
                b.iter(|| {
                    let input =
                        setup::sse_input(&payoffs, &costs, black_box(&estimates), black_box(30.0));
                    let sse = backend.solve(&input).unwrap();
                    let utility = sse.auditor_utility;
                    backend.recycle(sse);
                    black_box(utility)
                });
            },
        );
    }

    group.finish();
}

fn forecast(c: &mut Criterion) {
    let mut group = c.benchmark_group("forecast");
    let scenario = find_scenario("paper-baseline").expect("paper-baseline is registered");
    let config = scenario.engine_config();
    let num_types = config.game.num_types();
    let history_days = scenario.history_days();
    let mut days = scenario.generate_days(7, history_days + 1);
    let day = days.pop().expect("one test day");

    group.bench_function(format!("fit_{history_days}_days"), |b| {
        b.iter(|| ArrivalModel::fit_weighted(black_box(&days), num_types, config.forecast_decay));
    });

    // The λ every served solve turns into a rate: each type's estimate at
    // each alert of the test day.
    let model = ArrivalModel::fit_weighted(&days, num_types, config.forecast_decay);
    let mut estimator = FutureAlertEstimator::new(model, config.rollback);
    let mut trace = Vec::with_capacity(day.len() * num_types);
    let mut estimates = Vec::new();
    for alert in day.alerts() {
        estimator.estimate_all_into(alert.time, &mut estimates);
        trace.extend_from_slice(&estimates);
        estimator.observe_alert(alert.time);
    }
    group.bench_function("coverage_rates", |b| {
        b.iter(|| {
            black_box(&trace)
                .iter()
                .map(|&lambda| expected_inverse_positive(lambda))
                .sum::<f64>()
        });
    });

    group.finish();
}

criterion_group!(benches, per_alert_optimization, forecast);
criterion_main!(benches);
