//! Sharded-replay determinism: for every shard count, `replay_sharded`
//! produces bitwise-identical `CycleResult`s to the sequential
//! `replay_batch` — only wall-clock time may differ. This is the contract
//! that lets the perf-smoke CI job scale shard counts freely without ever
//! changing results.

use sag_core::engine::{AuditCycleEngine, ReplayJob};
use sag_core::CycleResult;
use sag_scenarios::library::{MultiSite, PaperBaseline};
use sag_scenarios::Scenario;
use sag_sim::AlertLog;

fn assert_sharding_invariant(scenario: &dyn Scenario, seed: u64, history_days: u32, days: u32) {
    let engine = AuditCycleEngine::new(scenario.engine_config()).expect("scenario engine");
    let log = AlertLog::new(scenario.generate_days(seed, days));
    let groups = log.rolling_groups(history_days as usize);
    assert!(groups.len() >= 4, "need several jobs to shard");
    let jobs: Vec<ReplayJob<'_>> = groups
        .iter()
        .map(|&(history, test_day)| ReplayJob {
            history,
            test_day,
            budget: scenario.budget_for_day(test_day.day()),
        })
        .collect();

    // The sequential reference: replay_batch on the same jobs. With the
    // default feature set replay_batch is single-sharded; with `parallel` it
    // shards by core count — the invariant under test says that must not
    // matter.
    let tuples: Vec<(&[sag_sim::DayLog], &sag_sim::DayLog)> = groups.clone();
    let reference: Vec<CycleResult> = if jobs.iter().all(|j| j.budget.is_none()) {
        engine.replay_batch(&tuples).expect("batch replays")
    } else {
        engine.replay_sharded(&jobs, 1).expect("sharded replays")
    };

    for shards in [2, 3, jobs.len() * 2] {
        let sharded: Vec<CycleResult> = engine
            .replay_sharded(&jobs, shards)
            .expect("sharded replays");
        assert_eq!(
            reference.len(),
            sharded.len(),
            "{}: shards = {shards}",
            scenario.name()
        );
        // PartialEq over every f64 field: bitwise-identical or bust.
        assert_eq!(
            reference,
            sharded,
            "{}: shard count {shards} changed results",
            scenario.name()
        );
    }
}

#[test]
fn paper_baseline_sharding_is_bitwise_deterministic() {
    assert_sharding_invariant(&PaperBaseline, 2019, 6, 11);
}

#[test]
fn multi_site_sharding_is_bitwise_deterministic() {
    // 14 candidate types: with the `parallel` feature this also pushes the
    // per-alert candidate fan-out through its threaded path.
    assert_sharding_invariant(&MultiSite, 7, 4, 8);
}

#[test]
fn budget_scheduled_sharding_is_bitwise_deterministic() {
    assert_sharding_invariant(&sag_scenarios::library::BudgetShocks, 3, 4, 9);
}
