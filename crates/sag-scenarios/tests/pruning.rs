//! Pruned-vs-exhaustive equivalence across the whole scenario registry:
//! replaying any registered workload with incremental candidate pruning
//! enabled produces **bitwise-identical** winners, coverage, budget splits
//! and utilities to the exhaustive multiple-LP reference — for every
//! scenario, multiple seeds and both general-purpose solver backends. Only
//! the solver-work counters (LP counts, pivots, pruning skips) may differ.
//!
//! This is the contract that lets the engine default to pruning: it is a
//! pure work optimization, never a behaviour change.

use sag_core::engine::{AuditCycleEngine, EngineConfig, ReplayJob};
use sag_core::sse::SolverBackendKind;
use sag_core::CycleResult;
use sag_scenarios::{registry, Scenario};
use sag_sim::AlertLog;

/// Strip the fields equivalence deliberately excludes: wall-clock timing
/// and the solver-work counters (pruning exists precisely to change those).
fn comparable(mut cycle: CycleResult) -> CycleResult {
    cycle.sse_totals = Default::default();
    for o in &mut cycle.outcomes {
        o.solve_micros = 0;
        o.sse_stats = Default::default();
    }
    cycle
}

fn replay(
    scenario: &dyn Scenario,
    backend: SolverBackendKind,
    pruning: bool,
    seed: u64,
    history_days: u32,
    days: u32,
) -> Vec<CycleResult> {
    let mut config: EngineConfig = scenario.engine_config();
    config.backend = backend;
    config.pruning = pruning;
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
        .map(comparable)
        .collect()
}

fn assert_pruning_equivalence(scenario: &dyn Scenario, seed: u64, history_days: u32, days: u32) {
    for backend in [SolverBackendKind::Auto, SolverBackendKind::SimplexLp] {
        let pruned = replay(scenario, backend, true, seed, history_days, days);
        let exhaustive = replay(scenario, backend, false, seed, history_days, days);
        assert_eq!(
            pruned.len(),
            exhaustive.len(),
            "{} seed {seed} backend {backend:?}",
            scenario.name()
        );
        // PartialEq over every f64 field of every outcome (winner type,
        // coverage, utilities, budgets, schemes): bitwise-identical or bust.
        assert_eq!(
            pruned,
            exhaustive,
            "{} seed {seed} backend {backend:?}: pruning changed results",
            scenario.name()
        );
    }
}

/// Every registered scenario, two seeds, both backends. Federated
/// scenarios (≥ 14 types, the expensive exhaustive arm) run a slightly
/// smaller layout so the debug-mode suite stays quick; they still cover
/// several hundred alerts over multiple days each.
#[test]
fn pruning_is_result_identical_across_the_whole_registry() {
    for scenario in registry() {
        let many_types = scenario.engine_config().game.num_types() >= 14;
        let (history_days, days) = if many_types { (3, 5) } else { (4, 7) };
        for seed in [2019, 7] {
            assert_pruning_equivalence(scenario.as_ref(), seed, history_days, days);
        }
    }
}

/// The pruned replay must actually prune on multi-type workloads — an
/// accidental "always fall back to the exhaustive path" would pass the
/// equivalence test while silently losing the speedup.
#[test]
fn pruning_actually_skips_most_candidate_lps() {
    for name in ["paper-baseline", "multi-site", "metro-grid"] {
        let scenario = sag_scenarios::find_scenario(name).expect("registered");
        // Pruning is a simplex-LP option; the default sweep solves no LPs.
        let mut config = scenario.engine_config();
        config.backend = SolverBackendKind::SimplexLp;
        let engine = AuditCycleEngine::new(config).expect("engine");
        let log = AlertLog::new(scenario.generate_days(11, 4));
        let groups = log.rolling_groups(3);
        let jobs: Vec<ReplayJob<'_>> = groups.iter().map(|&(h, t)| ReplayJob::new(h, t)).collect();
        let cycles = engine.replay_sharded(&jobs, 1).expect("replays");
        let mut lp_solves = 0u64;
        let mut pruned = 0u64;
        for c in &cycles {
            lp_solves += c.sse_totals.lp_solves;
            pruned += c.sse_totals.pruned_lps;
        }
        let fraction = pruned as f64 / (pruned + lp_solves) as f64;
        assert!(
            fraction > 0.5,
            "{name}: only {:.1}% of candidate LPs pruned",
            fraction * 100.0
        );
    }
}
