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
//! budgets big enough to leave slack, and payoffs scaled from 1e-6 to 1e9.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sag_core::engine::{AuditCycleEngine, ReplayJob};
use sag_core::model::{GameConfig, PayoffTable, Payoffs};
use sag_core::sse::{certify, SolverBackend, SolverBackendKind, SseInput, SseSolution, SseSolver};
use sag_core::CycleResult;
use sag_forecast::expected_inverse_positive;
use sag_scenarios::library::{ContinentalSprawl, GlobalMesh};
use sag_scenarios::{registry, Scenario};
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

/// Replay `scenario` on `backend`: a few rolling days, scenario budgets.
fn replay(scenario: &dyn Scenario, backend: SolverBackendKind) -> Vec<CycleResult> {
    let mut config = scenario.engine_config();
    config.backend = backend;
    let engine = AuditCycleEngine::new(config).expect("scenario engine");
    let many_types = engine.config().game.num_types() >= 14;
    let (history_days, days) = if many_types { (3, 5) } else { (4, 7) };
    let log = AlertLog::new(scenario.generate_days(2019, days));
    let jobs: Vec<ReplayJob<'_>> = log
        .rolling_groups(history_days)
        .into_iter()
        .map(|(history, test_day)| ReplayJob {
            history,
            test_day,
            budget: scenario.budget_for_day(test_day.day()),
        })
        .collect();
    engine.replay_sharded(&jobs, 1).expect("scenario replays")
}

/// The sweep and the simplex oracle serve the same days: alert by alert,
/// the same best response, and utilities, coverage and remaining budgets
/// within the tolerance — across the whole registry.
#[test]
fn auto_and_simplex_lp_agree_alert_by_alert_across_the_registry() {
    for scenario in registry() {
        let name = scenario.name();
        let scale = scenario.engine_config().game.payoffs.magnitude();
        let auto = replay(scenario.as_ref(), SolverBackendKind::Auto);
        let lp = replay(scenario.as_ref(), SolverBackendKind::SimplexLp);
        assert_eq!(auto.len(), lp.len(), "{name}");
        for (a, b) in auto.iter().zip(&lp) {
            assert_eq!(a.outcomes.len(), b.outcomes.len(), "{name} day {}", a.day);
            let close = |x: f64, y: f64, tol: f64| (x - y).abs() <= tol;
            assert!(close(
                a.offline_auditor_utility,
                b.offline_auditor_utility,
                TOL * scale
            ));
            for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
                let at = format!("{name} day {} alert {}", a.day, x.index);
                assert_eq!(x.best_response, y.best_response, "{at}");
                for (u, v) in [
                    (x.ossp_utility, y.ossp_utility),
                    (x.online_sse_utility, y.online_sse_utility),
                    (x.ossp_attacker_utility, y.ossp_attacker_utility),
                ] {
                    assert!(close(u, v, TOL * scale), "{at}: utility {u} vs {v}");
                }
                assert!(
                    close(x.coverage_ossp, y.coverage_ossp, TOL),
                    "{at}: coverage"
                );
                let budget = x.budget_after_ossp.max(1.0);
                assert!(
                    close(x.budget_after_ossp, y.budget_after_ossp, TOL * budget),
                    "{at}: budget {} vs {}",
                    x.budget_after_ossp,
                    y.budget_after_ossp
                );
            }
            // The sweep never builds an LP; the oracle always does.
            assert_eq!(a.sse_totals.lp_solves, 0, "{name}");
            assert_eq!(a.sse_totals.fast_path_solves as usize, a.len(), "{name}");
            assert!(b.sse_totals.lp_solves > 0 || b.is_empty(), "{name}");
        }
    }
}
