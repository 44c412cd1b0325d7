//! Streaming equivalence: a `DaySession` fed alert-by-alert produces
//! bitwise-identical `CycleResult`s to the batch `run_day` wrapper and to
//! `replay_sharded` at every shard count — across the full scenario
//! registry and for both solver backends. This is the contract that lets
//! ingest loops, batch replays and sharded benchmarks share one engine
//! without ever diverging on results.

mod common;

use common::OnTheLpBackend;
use sag_core::engine::{AuditCycleEngine, ReplayJob};
use sag_core::CycleResult;
use sag_scenarios::{registry, Scenario};
use sag_sim::AlertLog;

/// Zero the wall-clock timing field so results can be compared exactly.
fn untimed(mut cycle: CycleResult) -> CycleResult {
    for o in &mut cycle.outcomes {
        o.solve_micros = 0;
    }
    cycle
}

/// Stream every rolling group of `scenario` through a session, check the
/// results against the batch wrappers, bitwise, and return them.
fn assert_streaming_equivalence(
    scenario: &dyn Scenario,
    seed: u64,
    history_days: u32,
    days: u32,
) -> Vec<CycleResult> {
    let config = scenario.engine_config();
    let backend = config.backend;
    let engine = AuditCycleEngine::new(config).expect("scenario engine");
    let log = AlertLog::new(scenario.generate_days(seed, days));
    let groups = log.rolling_groups(history_days as usize);
    assert!(
        groups.len() >= 2,
        "need several days to make the test count"
    );

    // The streaming reference: one session per day, one push per alert.
    let mut streamed: Vec<CycleResult> = Vec::new();
    for &(history, test_day) in &groups {
        let mut session = engine
            .open_day(history, scenario.budget_for_day(test_day.day()))
            .expect("session opens");
        session.set_day(test_day.day());
        for alert in test_day.alerts() {
            session.push_alert(alert).expect("alert processes");
        }
        streamed.push(untimed(session.finish()));
    }

    // Batch leg 1: run_day per group (flat-budget scenarios only — run_day
    // has no budget override).
    let name = scenario.name();
    if groups
        .iter()
        .all(|&(_, t)| scenario.budget_for_day(t.day()).is_none())
    {
        for (&(history, test_day), reference) in groups.iter().zip(&streamed) {
            let batch = untimed(engine.run_day(history, test_day).expect("day replays"));
            assert_eq!(
                &batch,
                reference,
                "{name} [{backend:?}]: run_day disagrees with streaming on day {}",
                test_day.day()
            );
        }
    }

    // Batch leg 2: replay_sharded at several shard counts.
    let jobs: Vec<ReplayJob<'_>> = groups
        .iter()
        .map(|&(history, test_day)| ReplayJob {
            history,
            test_day,
            budget: scenario.budget_for_day(test_day.day()),
        })
        .collect();
    for shards in [1, 2, jobs.len() * 2] {
        let sharded: Vec<CycleResult> = engine
            .replay_sharded(&jobs, shards)
            .expect("sharded replays")
            .into_iter()
            .map(untimed)
            .collect();
        assert_eq!(
            streamed, sharded,
            "{name} [{backend:?}]: {shards} shard(s) disagree with streaming"
        );
    }
    streamed
}

#[test]
fn every_registered_scenario_streams_identically_on_the_auto_backend() {
    for scenario in registry() {
        let streamed = assert_streaming_equivalence(scenario.as_ref(), 2026, 4, 7);
        assert!(streamed.iter().all(|c| c.sse_totals.lp_solves == 0));
    }
}

#[test]
fn every_registered_scenario_streams_identically_on_the_lp_backend() {
    for scenario in registry() {
        let on_lp = OnTheLpBackend::new(scenario.as_ref(), 4);
        let streamed = assert_streaming_equivalence(&on_lp, 2026, 4, 7);
        assert!(
            streamed.iter().all(|c| c.sse_totals.lp_solves > 0),
            "{}: a day solved no LP",
            scenario.name()
        );
    }
}
