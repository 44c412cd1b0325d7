//! ε-approximate mode equivalence and certificate checks.
//!
//! The contract of `EngineConfig::epsilon`:
//!
//! * **ε = 0 is the exact mode, bitwise** — results *and* solver-work
//!   counters are identical to a replay that never heard of ε, for every
//!   registered scenario, multiple seeds and both general-purpose backends
//!   (the ε guard in the pruned path must not fire at all).
//! * **ε > 0 certifies its loss** — the per-day
//!   `CycleResult::certified_eps_loss` is nonnegative and bounded by
//!   ε × solves, and the mode actually skips candidate LPs on workloads
//!   with closely separated candidates.
//!
//! The XL (64/128-type) games are exercised at the solver level: replaying
//! their full alert streams in a debug test would dominate the suite's
//! runtime, and the ε branch lives entirely inside `SseSolver`.

use sag_core::engine::{AuditCycleEngine, EngineConfig, ReplayJob};
use sag_core::model::GameConfig;
use sag_core::sse::{SolverBackendKind, SseCache, SseInput, SseSolver};
use sag_core::CycleResult;
use sag_scenarios::library::{ContinentalSprawl, GlobalMesh};
use sag_scenarios::{registry, Scenario};
use sag_sim::AlertLog;

/// Strip wall-clock timing, the only field ε = 0 may legitimately change.
/// Everything else — outcomes, schemes, budgets, *and* the solver-work
/// counters — must stay bitwise identical.
fn untimed(mut cycle: CycleResult) -> CycleResult {
    for o in &mut cycle.outcomes {
        o.solve_micros = 0;
    }
    cycle
}

fn replay(
    scenario: &dyn Scenario,
    backend: SolverBackendKind,
    epsilon: Option<f64>,
    seed: u64,
    history_days: u32,
    days: u32,
) -> Vec<CycleResult> {
    let mut config: EngineConfig = scenario.engine_config();
    config.backend = backend;
    if let Some(epsilon) = epsilon {
        config.epsilon = epsilon;
    }
    let engine = AuditCycleEngine::new(config).expect("scenario engine");
    let log = AlertLog::new(scenario.generate_days(seed, days));
    let groups = log.rolling_groups(history_days as usize);
    let jobs: Vec<ReplayJob<'_>> = groups
        .iter()
        .map(|&(history, test_day)| ReplayJob {
            history,
            test_day,
            budget: scenario.budget_for_day(test_day.day()),
        })
        .collect();
    engine
        .replay_sharded(&jobs, 1)
        .expect("scenario replays")
        .into_iter()
        .map(untimed)
        .collect()
}

/// Every registered scenario, both backends: a replay explicitly
/// configured with ε = 0 equals one with the untouched default config,
/// bitwise, down to the per-alert stats and per-day totals.
#[test]
fn zero_epsilon_replays_equal_exact_across_the_whole_registry() {
    for scenario in registry() {
        let many_types = scenario.engine_config().game.num_types() >= 14;
        let (history_days, days) = if many_types { (3, 4) } else { (4, 6) };
        for backend in [SolverBackendKind::Auto, SolverBackendKind::SimplexLp] {
            let exact = replay(scenario.as_ref(), backend, None, 2019, history_days, days);
            let approx = replay(
                scenario.as_ref(),
                backend,
                Some(0.0),
                2019,
                history_days,
                days,
            );
            assert_eq!(
                exact,
                approx,
                "{} backend {backend:?}: ε = 0 diverged from the exact mode",
                scenario.name()
            );
            assert!(exact
                .iter()
                .all(|c| c.sse_totals.eps_skipped_lps == 0 && c.certified_eps_loss == 0.0));
        }
    }
}

/// ε > 0 on a registered federated workload: the mode really skips LPs and
/// its per-day certificate respects the ε × solves bound.
#[test]
fn positive_epsilon_skips_lps_and_certifies_the_loss_per_day() {
    let scenario = sag_scenarios::find_scenario("metro-grid").expect("registered");
    let epsilon = 25.0;
    // The ε mode is a simplex-LP option; the exact sweep skips nothing.
    let cycles = replay(
        scenario.as_ref(),
        SolverBackendKind::SimplexLp,
        Some(epsilon),
        2019,
        3,
        4,
    );
    let mut skipped = 0u64;
    for c in &cycles {
        assert!(
            c.certified_eps_loss >= 0.0,
            "day {}: negative certified loss {}",
            c.day,
            c.certified_eps_loss
        );
        assert!(
            c.certified_eps_loss <= epsilon * c.sse_totals.solves as f64 + 1e-9,
            "day {}: certified loss {} exceeds ε × solves",
            c.day,
            c.certified_eps_loss
        );
        skipped += c.sse_totals.eps_skipped_lps;
    }
    assert!(
        skipped > 0,
        "ε = {epsilon} skipped no candidate LPs on metro-grid"
    );
}

/// Drive an SseSolver trajectory over a game, mimicking a drifting day:
/// budget and estimates shrink step over step.
fn solver_trajectory(game: &GameConfig, solver: &SseSolver, steps: usize) -> (Vec<u64>, SseCache) {
    let mut estimates: Vec<f64> = game.catalog.types().iter().map(|t| t.daily_mean).collect();
    let mut budget = game.budget;
    let mut cache = SseCache::new();
    let mut winner_bits = Vec::new();
    for _ in 0..steps {
        let input = SseInput {
            payoffs: &game.payoffs,
            audit_costs: &game.audit_costs,
            future_estimates: &estimates,
            budget,
        };
        let solution = solver.solve_cached(&input, &mut cache).unwrap();
        winner_bits.push(u64::from(solution.best_response.0));
        winner_bits.push(solution.auditor_utility.to_bits());
        winner_bits.push(solution.attacker_utility.to_bits());
        for v in solution.coverage.iter().chain(&solution.budget_split) {
            winner_bits.push(v.to_bits());
        }
        budget = (budget - 0.6).max(0.0);
        for e in &mut estimates {
            *e = (*e - 0.8).max(0.0);
        }
    }
    (winner_bits, cache)
}

/// The XL 64- and 128-type games: ε = 0 stays bitwise equal to the exact
/// solver on a drifting trajectory, and a generous ε > 0 both skips LPs and
/// keeps its accumulated certificate within ε × solves.
#[test]
fn xl_games_honour_the_epsilon_contract_at_solver_level() {
    for (name, game) in [
        ("continental-sprawl", ContinentalSprawl::game()),
        ("global-mesh", GlobalMesh::game()),
    ] {
        game.validate().expect("XL game validates");
        let steps = 6;
        let (exact_bits, exact_cache) = solver_trajectory(&game, &SseSolver::new(), steps);
        let (zero_bits, zero_cache) =
            solver_trajectory(&game, &SseSolver::with_options(true, 0.0), steps);
        assert_eq!(exact_bits, zero_bits, "{name}: ε = 0 diverged");
        assert_eq!(exact_cache.totals, zero_cache.totals, "{name}: counters");
        assert_eq!(zero_cache.certified_eps_loss(), 0.0);

        let epsilon = 50.0;
        let (_, approx_cache) =
            solver_trajectory(&game, &SseSolver::with_options(true, epsilon), steps);
        assert!(
            approx_cache.totals.eps_skipped_lps > 0,
            "{name}: ε = {epsilon} skipped nothing on a {}-type game",
            game.num_types()
        );
        let loss = approx_cache.certified_eps_loss();
        assert!(
            loss >= 0.0 && loss <= epsilon * approx_cache.totals.solves as f64,
            "{name}: certified loss {loss} outside [0, ε × solves]"
        );
    }
}
