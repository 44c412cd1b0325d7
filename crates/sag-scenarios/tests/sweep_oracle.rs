//! The exact breakpoint sweep (`SolverBackendKind::Auto`) against the
//! multiple-LP oracle (`SseSolver::solve`), on single inputs and on whole
//! registry replays.
//!
//! Per input, both solutions must pass `sse::certify`, and then:
//!
//! * the objective (auditor utility) agrees within `TOL` relative to the
//!   largest payoff magnitude;
//! * the winner is the same, unless the two best candidates sit within that
//!   tolerance of each other;
//! * the winner's coverage agrees, and wherever the budget binds so does
//!   every type's (the LP optimum is unique there; with slack budget a
//!   simplex vertex may park the slack on any non-winner);
//! * the sweep never spends more than the LP — it returns the minimal-spend
//!   coverage.
//!
//! Inputs: every registered multi-type game, a few solves of the 64- and
//! 128-type XL games, random 2–28-type games, zero budgets, zero forecasts,
//! budgets big enough to leave slack, payoffs scaled from 1e-6 to 1e9, and
//! a sample of the inputs served days actually pose, across the registry.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sag_core::engine::{AuditCycleEngine, ReplayJob};
use sag_core::model::{GameConfig, PayoffTable, Payoffs};
use sag_core::sse::{certify, SolverBackend, SolverBackendKind, SseInput, SseSolution, SseSolver};
use sag_forecast::{expected_inverse_positive, ArrivalModel, FutureAlertEstimator};
use sag_scenarios::library::{ContinentalSprawl, GlobalMesh};
use sag_scenarios::registry;
use sag_sim::AlertLog;

/// Relative tolerance of every comparison.
const TOL: f64 = 1e-9;

/// How many inputs a batch compared, and how many of them left budget
/// slack (so the slack branch is known to have run).
#[derive(Debug, Default)]
struct Tally {
    inputs: usize,
    slack: usize,
}

fn spent(solution: &SseSolution) -> f64 {
    solution.budget_split.iter().sum()
}

/// Compare the sweep and the LP oracle on one input under the contract in
/// the module docs.
fn compare(input: &SseInput<'_>, sweep: &mut dyn SolverBackend, tally: &mut Tally, what: &str) {
    let fast = sweep
        .solve(input)
        .expect("the sweep solves every valid input");
    let lp = SseSolver::new()
        .solve(input)
        .expect("the LP oracle solves every valid input");
    certify(input, &fast).unwrap_or_else(|v| panic!("{what}: sweep: {v}"));
    certify(input, &lp).unwrap_or_else(|v| panic!("{what}: LP: {v}"));

    let payoffs = input.payoffs.all();
    let scale = input.payoffs.magnitude();
    let gap = (fast.auditor_utility - lp.auditor_utility).abs() / scale;
    assert!(
        gap <= TOL,
        "{what}: objective sweep {} vs LP {} (relative gap {gap:e})",
        fast.auditor_utility,
        lp.auditor_utility
    );

    let level = fast.attacker_utility;
    if fast.best_response != lp.best_response {
        // The LP's winner must be a candidate at the sweep's level whose
        // value ties the sweep's winner within the tolerance.
        let other = lp.best_response.index();
        let p = &payoffs[other];
        let value = p.auditor_expected(fast.coverage[other]);
        assert!(
            p.attacker_uncovered >= level - TOL * scale
                && (value - fast.auditor_utility).abs() <= TOL * scale,
            "{what}: winners differ (sweep {:?}, LP {:?}) without a near tie",
            fast.best_response,
            lp.best_response
        );
    } else {
        let w = fast.best_response.index();
        let gap = (fast.coverage[w] - lp.coverage[w]).abs();
        assert!(gap <= TOL, "{what}: winner coverage gap {gap:e}");
    }

    let floor = payoffs
        .iter()
        .map(|p| p.attacker_covered)
        .fold(f64::NEG_INFINITY, f64::max);
    if level > floor + TOL * scale {
        for (t, (a, b)) in fast.coverage.iter().zip(&lp.coverage).enumerate() {
            let gap = (a - b).abs();
            assert!(
                gap <= TOL,
                "{what}: binding budget, type {t} coverage sweep {a} vs LP {b}"
            );
        }
    } else {
        tally.slack += 1;
    }

    let full_cover: f64 = input
        .future_estimates
        .iter()
        .zip(input.audit_costs)
        .map(|(&lambda, &cost)| cost / expected_inverse_positive(lambda))
        .sum();
    assert!(
        spent(&fast) <= spent(&lp) + TOL * (input.budget + full_cover),
        "{what}: the sweep spent {} > the LP's {}",
        spent(&fast),
        spent(&lp)
    );
    tally.inputs += 1;
    sweep.recycle(fast);
}

fn input<'a>(game: &'a GameConfig, estimates: &'a [f64], budget: f64) -> SseInput<'a> {
    SseInput {
        payoffs: &game.payoffs,
        audit_costs: &game.audit_costs,
        future_estimates: estimates,
        budget,
    }
}

/// Forecasts drawn around the catalogue's daily means, with some zeros.
fn forecasts(game: &GameConfig, rng: &mut StdRng) -> Vec<f64> {
    game.catalog
        .types()
        .iter()
        .map(|t| {
            if rng.gen_range(0.0..1.0) < 0.1 {
                0.0
            } else {
                t.daily_mean * rng.gen_range(0.0..1.2)
            }
        })
        .collect()
}

/// A random game in the model's sign conventions.
fn random_game(n: usize, rng: &mut StdRng) -> (PayoffTable, Vec<f64>, Vec<f64>) {
    let payoffs = PayoffTable::new(
        (0..n)
            .map(|_| {
                Payoffs::new(
                    rng.gen_range(0.0..500.0),
                    -rng.gen_range(50.0..5000.0),
                    -rng.gen_range(50.0..5000.0),
                    rng.gen_range(50.0..1500.0),
                )
            })
            .collect(),
    );
    let costs = (0..n).map(|_| rng.gen_range(0.5..3.0)).collect();
    let estimates = (0..n)
        .map(|_| {
            if rng.gen_range(0.0..1.0) < 0.15 {
                0.0
            } else {
                rng.gen_range(0.0..300.0)
            }
        })
        .collect();
    (payoffs, costs, estimates)
}

fn scaled(payoffs: &PayoffTable, factor: f64) -> PayoffTable {
    PayoffTable::new(
        payoffs
            .all()
            .iter()
            .map(|p| {
                Payoffs::new(
                    p.auditor_covered * factor,
                    p.auditor_uncovered * factor,
                    p.attacker_covered * factor,
                    p.attacker_uncovered * factor,
                )
            })
            .collect(),
    )
}

#[test]
fn sweep_matches_the_lp_on_every_registered_game() {
    let mut rng = StdRng::seed_from_u64(1905);
    let mut sweep = SolverBackendKind::Auto.instantiate();
    let mut tally = Tally::default();
    for scenario in registry() {
        let game = scenario.engine_config().game;
        if game.num_types() < 2 {
            continue;
        }
        for i in 0..40 {
            let estimates = forecasts(&game, &mut rng);
            let budget = match i {
                0 => 0.0,
                1 => 1e6,
                _ => game.budget * rng.gen_range(0.0..1.5),
            };
            let what = format!("{} input {i}", scenario.name());
            compare(
                &input(&game, &estimates, budget),
                sweep.as_mut(),
                &mut tally,
                &what,
            );
        }
    }
    assert!(tally.inputs >= 200, "{tally:?}");
    assert!(tally.slack > 0, "no slack-budget input was exercised");
}

#[test]
fn sweep_matches_the_lp_on_the_xl_games() {
    let mut rng = StdRng::seed_from_u64(64128);
    let mut sweep = SolverBackendKind::Auto.instantiate();
    let mut tally = Tally::default();
    for (name, game) in [
        ("continental-sprawl", ContinentalSprawl::game()),
        ("global-mesh", GlobalMesh::game()),
    ] {
        for i in 0..2 {
            let estimates = forecasts(&game, &mut rng);
            let budget = game.budget * rng.gen_range(0.3..1.2);
            compare(
                &input(&game, &estimates, budget),
                sweep.as_mut(),
                &mut tally,
                &format!("{name} input {i}"),
            );
        }
    }
    assert_eq!(tally.inputs, 4);
}

#[test]
fn sweep_matches_the_lp_on_random_and_adversarial_games() {
    let mut rng = StdRng::seed_from_u64(2009);
    let mut sweep = SolverBackendKind::Auto.instantiate();
    let mut tally = Tally::default();
    for game in 0..400 {
        let n = rng.gen_range(2..29);
        let (payoffs, costs, mut estimates) = random_game(n, &mut rng);
        let demand: f64 = estimates.iter().zip(&costs).map(|(e, c)| e * c).sum();
        let budget = match game % 10 {
            0 => 0.0,
            1 => 1e7,
            2 => {
                estimates.iter_mut().for_each(|e| *e = 0.0);
                rng.gen_range(0.0..(n as f64 * 3.0))
            }
            _ => rng.gen_range(0.0..(0.3 * demand + 1.0)),
        };
        // Every fifth game is replayed at payoff scales 1e-6 … 1e9: the
        // contract is scale-free, so its tolerances must be too.
        let factors: &[f64] = if game % 5 == 3 {
            &[1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9]
        } else {
            &[1.0]
        };
        for &factor in factors {
            let payoffs = scaled(&payoffs, factor);
            let input = SseInput {
                payoffs: &payoffs,
                audit_costs: &costs,
                future_estimates: &estimates,
                budget,
            };
            let what = format!("random game {game} ({n} types, payoffs ×{factor:e})");
            compare(&input, sweep.as_mut(), &mut tally, &what);
        }
    }
    assert!(tally.inputs > 400, "{tally:?}");
    assert!(tally.slack > 0, "no slack-budget input was exercised");
}

/// Alerts per test day whose inputs the registry-wide comparison rebuilds
/// and solves on both backends.
const SAMPLED_ALERTS_PER_DAY: usize = 12;

/// The sweep and the simplex oracle agree on the inputs the served days
/// actually pose: every registered scenario is replayed on `Auto` over a
/// few rolling days, and at a sample of alerts per day the session's SSE
/// input (forecast and remaining OSSP budget) is rebuilt, checked against
/// the served decision, and solved on both backends under the contract in
/// the module docs, both answers certified.
#[test]
fn auto_and_simplex_lp_agree_alert_by_alert_across_the_registry() {
    let mut sweep = SolverBackendKind::Auto.instantiate();
    for scenario in registry() {
        let name = scenario.name();
        let config = scenario.engine_config();
        let game = &config.game;
        let engine = AuditCycleEngine::new(config.clone()).expect("scenario engine");
        let log = AlertLog::new(scenario.generate_days(2019, 7));
        let mut tally = Tally::default();
        for (history, test_day) in log.rolling_groups(4) {
            let budget = scenario.budget_for_day(test_day.day());
            let job = ReplayJob {
                history,
                test_day,
                budget,
            };
            let served = engine
                .replay_sharded(&[job], 1)
                .expect("day replays")
                .remove(0);
            let model =
                ArrivalModel::fit_weighted(history, game.num_types(), config.forecast_decay);
            let mut estimator = FutureAlertEstimator::new(model, config.rollback);
            let mut estimates = Vec::new();
            let mut remaining = budget.unwrap_or(game.budget);
            let stride = (test_day.len() / SAMPLED_ALERTS_PER_DAY).max(1);
            for (alert, outcome) in test_day.alerts().iter().zip(&served.outcomes) {
                if outcome.index % stride == 0 {
                    estimator.estimate_all_into(alert.time, &mut estimates);
                    let input = input(game, &estimates, remaining);
                    let at = format!("{name} day {} alert {}", test_day.day(), outcome.index);
                    // The rebuilt input is the one the session solved.
                    let rebuilt = sweep.solve(&input).expect("the sweep solves");
                    assert_eq!(rebuilt.best_response, outcome.best_response, "{at}");
                    assert_eq!(
                        rebuilt.coverage_of(alert.type_id).to_bits(),
                        outcome.coverage_ossp.to_bits(),
                        "{at}"
                    );
                    sweep.recycle(rebuilt);
                    compare(&input, sweep.as_mut(), &mut tally, &at);
                }
                estimator.observe_alert(alert.time);
                remaining = outcome.budget_after_ossp;
            }
        }
        assert!(
            tally.inputs >= 3 * SAMPLED_ALERTS_PER_DAY,
            "{name}: {tally:?}"
        );
    }
}
