//! The online audit-cycle engine, layered as a streaming core plus batch
//! replay wrappers.
//!
//! The paper's contribution is *online* signaling: the auditor commits to a
//! warning decision the moment each alert arrives. The engine mirrors that
//! shape. Its core is the stateful [`DaySession`] — open one per audit cycle
//! ([`AuditCycleEngine::open_day`]), push alerts as they arrive
//! ([`DaySession::push_alert`]), close it at end of cycle
//! ([`DaySession::finish`]). For every pushed alert the session computes in
//! real time what each of the three strategies of the paper's evaluation
//! would do and earn:
//!
//! * **OSSP** — the Signaling Audit Game: online SSE for the remaining budget,
//!   then the optimal signaling scheme for the triggered alert's type
//!   (applied when the alert's type is the attacker's best-response type;
//!   other alerts fall back to the online SSE, exactly as in the paper's
//!   multi-type experiment);
//! * **online SSE** — the same online budget-aware equilibrium but without
//!   signaling;
//! * **offline SSE** — a single whole-day equilibrium computed up front from
//!   historical daily totals (flat utility).
//!
//! Each strategy consumes its own budget as the day unfolds; by default the
//! engine charges the expected audit cost per alert (deterministic,
//! reproducible), with an option to sample the signal and charge the
//! signal-conditional cost as the paper describes.
//!
//! Equilibria are solved through the [`crate::sse::SolverBackend`] seam —
//! the exact breakpoint sweep by default, the cold simplex-LP oracle on
//! request, selectable on [`EngineConfig::backend`] — so alternative solver
//! strategies slot in without touching the per-day loop.
//!
//! ## Module layout
//!
//! * [`config`] — [`EngineConfig`] and [`BudgetAccounting`];
//! * [`builder`] — [`EngineBuilder`], validated fluent construction;
//! * [`session`] — [`AuditCycleEngine`] and the streaming [`Session`],
//!   with its borrowed ([`DaySession`]) and owned ([`OwnedDaySession`])
//!   forms;
//! * [`replay`] — [`ReplayJob`] and the batch drivers
//!   ([`run_day`](AuditCycleEngine::run_day),
//!   [`replay_batch`](AuditCycleEngine::replay_batch),
//!   [`replay_sharded`](AuditCycleEngine::replay_sharded),
//!   [`run_groups`](AuditCycleEngine::run_groups)), all thin wrappers that
//!   stream recorded days through sessions;
//! * [`outcome`] — the per-alert [`AlertOutcome`] and per-day
//!   [`CycleResult`].

pub mod builder;
pub mod config;
pub mod outcome;
pub mod replay;
pub mod session;

pub use builder::EngineBuilder;
pub use config::{BudgetAccounting, EngineConfig};
pub use outcome::{AlertOutcome, CycleResult};
pub use replay::{recommended_shards, ReplayJob};
pub use session::{AuditCycleEngine, DaySession, OwnedDaySession, Session};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sse::SolverBackendKind;
    use sag_sim::{AlertLog, DayLog, StreamConfig, StreamGenerator};

    fn single_type_setup(seed: u64) -> (Vec<DayLog>, DayLog) {
        let mut gen = StreamGenerator::new(StreamConfig::paper_single_type(seed));
        let (history, mut tests) = gen.generate_split(20, 1);
        (history, tests.remove(0))
    }

    fn multi_type_setup(seed: u64) -> (Vec<DayLog>, DayLog) {
        let mut gen = StreamGenerator::new(StreamConfig::paper_multi_type(seed));
        let (history, mut tests) = gen.generate_split(20, 1);
        (history, tests.remove(0))
    }

    #[test]
    fn single_type_day_ossp_dominates_baselines() {
        let (history, test_day) = single_type_setup(42);
        let engine = AuditCycleEngine::new(EngineConfig::paper_single_type()).unwrap();
        let result = engine.run_day(&history, &test_day).unwrap();
        assert_eq!(result.len(), test_day.len());
        assert!(!result.is_empty());
        // Theorem 2 per alert: OSSP never worse than online SSE.
        assert!((result.fraction_ossp_not_worse() - 1.0).abs() < 1e-12);
        // On average the OSSP should also beat the flat offline baseline.
        assert!(result.mean_ossp_utility().unwrap() >= result.mean_offline_utility());
        // With budget 20 against ~197 alerts the SSE baselines lose heavily
        // (utilities around -300 to -350) while the OSSP loses far less.
        assert!(result.mean_online_utility().unwrap() < -250.0);
        assert!(
            result.mean_ossp_utility().unwrap() > result.mean_online_utility().unwrap() + 100.0,
            "OSSP {:?} should clearly beat online SSE {:?}",
            result.mean_ossp_utility(),
            result.mean_online_utility()
        );
    }

    #[test]
    fn budgets_only_decrease_and_stay_nonnegative() {
        let (history, test_day) = single_type_setup(7);
        let engine = AuditCycleEngine::new(EngineConfig::paper_single_type()).unwrap();
        let result = engine.run_day(&history, &test_day).unwrap();
        let budget = engine.config().game.budget;
        let mut last_ossp = budget;
        let mut last_online = budget;
        for o in &result.outcomes {
            assert!(o.budget_after_ossp <= last_ossp + 1e-9);
            assert!(o.budget_after_online <= last_online + 1e-9);
            assert!(o.budget_after_ossp >= -1e-12);
            assert!(o.budget_after_online >= -1e-12);
            last_ossp = o.budget_after_ossp;
            last_online = o.budget_after_online;
        }
    }

    #[test]
    fn offline_series_is_flat() {
        let (history, test_day) = single_type_setup(9);
        let engine = AuditCycleEngine::new(EngineConfig::paper_single_type()).unwrap();
        let result = engine.run_day(&history, &test_day).unwrap();
        let first = result.outcomes[0].offline_sse_utility;
        for o in &result.outcomes {
            assert_eq!(o.offline_sse_utility, first);
        }
        assert_eq!(result.offline_auditor_utility, first);
    }

    #[test]
    fn multi_type_day_respects_theorem2_and_applies_sag_to_best_type() {
        let (history, test_day) = multi_type_setup(11);
        let engine = AuditCycleEngine::new(EngineConfig::paper_multi_type()).unwrap();
        let result = engine.run_day(&history, &test_day).unwrap();
        assert!((result.fraction_ossp_not_worse() - 1.0).abs() < 1e-12);
        // The SAG is applied to at least some alerts (those of the best type)
        // and skipped for others.
        let applied = result.outcomes.iter().filter(|o| o.ossp_applied).count();
        assert!(applied > 0, "OSSP never applied");
        for o in &result.outcomes {
            if o.ossp_applied {
                assert_eq!(o.type_id, o.best_response);
            } else {
                assert_eq!(o.ossp_utility, o.online_sse_utility);
            }
            assert!(o.ossp_scheme.is_valid());
            assert!((0.0..=1.0 + 1e-9).contains(&o.coverage_ossp));
        }
    }

    #[test]
    fn sampled_accounting_is_reproducible_and_bounded() {
        let (history, test_day) = single_type_setup(13);
        let mut config = EngineConfig::paper_single_type();
        config.accounting = BudgetAccounting::Sampled { seed: 5 };
        let engine = AuditCycleEngine::new(config.clone()).unwrap();
        let a = engine.run_day(&history, &test_day).unwrap();
        let b = AuditCycleEngine::new(config)
            .unwrap()
            .run_day(&history, &test_day)
            .unwrap();
        // Everything except the wall-clock solve time must be identical
        // between the two runs (the RNG seed pins the sampled signals).
        assert_eq!(a.len(), b.len());
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.ossp_utility, y.ossp_utility);
            assert_eq!(x.online_sse_utility, y.online_sse_utility);
            assert_eq!(x.budget_after_ossp, y.budget_after_ossp);
            assert_eq!(x.budget_after_online, y.budget_after_online);
            assert_eq!(x.ossp_scheme, y.ossp_scheme);
        }
        assert!(a.outcomes.iter().all(|o| o.budget_after_ossp >= 0.0));
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let mut config = EngineConfig::paper_multi_type();
        config.game.audit_costs.pop();
        assert!(matches!(
            AuditCycleEngine::new(config),
            Err(crate::SagError::InvalidConfig(_))
        ));
    }

    #[test]
    fn run_groups_matches_paper_group_count() {
        let mut gen = StreamGenerator::new(StreamConfig::paper_single_type(3));
        let days = gen.generate_days(25);
        let log = AlertLog::new(days);
        let engine = AuditCycleEngine::new(EngineConfig::paper_single_type()).unwrap();
        let results = engine.run_groups(&log, 22).unwrap();
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(!r.is_empty());
        }
    }

    #[test]
    fn replay_batch_matches_per_day_replays() {
        let mut gen = StreamGenerator::new(StreamConfig::paper_multi_type(17));
        let days = gen.generate_days(14);
        let log = AlertLog::new(days);
        let engine = AuditCycleEngine::new(EngineConfig::paper_multi_type()).unwrap();
        let groups = log.rolling_groups(11);
        assert_eq!(groups.len(), 3);

        let batch = engine.replay_batch(&groups).unwrap();
        assert_eq!(batch.len(), groups.len());
        for ((history, test), cycle) in groups.iter().zip(&batch) {
            let reference = engine.run_day(history, test).unwrap();
            assert_eq!(cycle.len(), reference.len());
            assert_eq!(cycle.day, reference.day);
            for (a, b) in cycle.outcomes.iter().zip(&reference.outcomes) {
                assert!((a.ossp_utility - b.ossp_utility).abs() < 1e-9);
                assert!((a.online_sse_utility - b.online_sse_utility).abs() < 1e-9);
                assert!((a.budget_after_ossp - b.budget_after_ossp).abs() < 1e-9);
            }
        }
    }

    /// A cycle result with the wall-clock timing field zeroed, so replays of
    /// the same job can be compared for exact (bitwise) equality.
    fn untimed(mut cycle: CycleResult) -> CycleResult {
        for o in &mut cycle.outcomes {
            o.solve_micros = 0;
        }
        cycle
    }

    #[test]
    fn streaming_session_is_bitwise_identical_to_batch_run_day() {
        let (history, test_day) = multi_type_setup(19);
        for backend in [SolverBackendKind::Auto, SolverBackendKind::SimplexLp] {
            let mut config = EngineConfig::paper_multi_type();
            config.backend = backend;
            let engine = AuditCycleEngine::new(config).unwrap();
            let batch = untimed(engine.run_day(&history, &test_day).unwrap());

            let mut session = engine.open_day(&history, None).unwrap();
            for alert in test_day.alerts() {
                let outcome = session.push_alert(alert).unwrap();
                assert_eq!(outcome.index, session.alerts_processed() - 1);
                assert_eq!(outcome.budget_after_ossp, session.remaining_budget_ossp());
            }
            let streamed = untimed(session.finish());
            // The day index is inferred from the pushed alerts.
            assert_eq!(streamed.day, test_day.day());
            assert_eq!(batch, streamed, "backend {backend:?}");
        }
    }

    #[test]
    fn owned_session_is_storable_movable_and_bitwise_identical() {
        let (history, test_day) = multi_type_setup(67);
        let engine =
            std::sync::Arc::new(AuditCycleEngine::new(EngineConfig::paper_multi_type()).unwrap());
        let reference = untimed(engine.run_day(&history, &test_day).unwrap());

        // An owned session has no lifetime: it can sit in a map keyed by
        // tenant and be moved wholesale across a thread boundary.
        let mut sessions: std::collections::HashMap<&str, OwnedDaySession> =
            std::collections::HashMap::new();
        sessions.insert("tenant-a", engine.open_day_owned(&history, None).unwrap());
        let mut session = sessions.remove("tenant-a").unwrap();
        session.set_day(test_day.day());
        let streamed = std::thread::spawn(move || {
            for alert in test_day.alerts() {
                session.push_alert(alert).unwrap();
            }
            session.finish()
        })
        .join()
        .unwrap();
        assert_eq!(reference, untimed(streamed));

        // The generic constructor also accepts the engine by value and by
        // plain reference; the borrowed alias is the same type `open_day`
        // returns.
        let by_ref: DaySession<'_> = Session::open(&*engine, &history, None).unwrap();
        assert_eq!(by_ref.alerts_processed(), 0);
        assert_eq!(by_ref.engine().config().game.num_types(), 7);
    }

    #[test]
    fn empty_day_session_yields_no_outcomes_and_none_means() {
        let (history, _) = multi_type_setup(43);
        let engine = AuditCycleEngine::new(EngineConfig::paper_multi_type()).unwrap();
        let empty_day = DayLog::new(20, Vec::new());
        let result = engine.run_day(&history, &empty_day).unwrap();
        assert!(result.is_empty());
        assert_eq!(result.day, 20);
        // Zero-alert days surface `None` instead of a silent 0.0 mean.
        assert_eq!(result.mean_ossp_utility(), None);
        assert_eq!(result.mean_online_utility(), None);
        assert_eq!(result.mean_solve_micros(), None);
        // The offline baseline is a whole-day solve and stays defined.
        assert!(result.mean_offline_utility() < 0.0);
        assert_eq!(result.fraction_ossp_not_worse(), 1.0);
        assert_eq!(result.sse_totals.solves, 0);
    }

    #[test]
    fn sharded_replay_is_bitwise_identical_for_every_shard_count() {
        let mut gen = StreamGenerator::new(StreamConfig::paper_multi_type(29));
        let days = gen.generate_days(16);
        let log = AlertLog::new(days);
        let engine = AuditCycleEngine::new(EngineConfig::paper_multi_type()).unwrap();
        let groups = log.rolling_groups(10);
        assert_eq!(groups.len(), 6);
        let jobs: Vec<ReplayJob<'_>> = groups.iter().map(|&(h, t)| ReplayJob::new(h, t)).collect();

        let reference: Vec<CycleResult> = engine
            .replay_sharded(&jobs, 1)
            .unwrap()
            .into_iter()
            .map(untimed)
            .collect();
        for shards in [2, 3, 4, 6, 99] {
            let sharded: Vec<CycleResult> = engine
                .replay_sharded(&jobs, shards)
                .unwrap()
                .into_iter()
                .map(untimed)
                .collect();
            assert_eq!(reference, sharded, "shards = {shards}");
        }
        // replay_batch is the same computation at the default shard count.
        let batch: Vec<CycleResult> = engine
            .replay_batch(&groups)
            .unwrap()
            .into_iter()
            .map(untimed)
            .collect();
        assert_eq!(reference, batch);
    }

    #[test]
    fn budget_override_drives_the_whole_cycle() {
        let (history, test_day) = multi_type_setup(41);
        let engine = AuditCycleEngine::new(EngineConfig::paper_multi_type()).unwrap();
        let starved = engine
            .replay_sharded(
                &[ReplayJob::with_budget(&history, &test_day, 0.0).unwrap()],
                1,
            )
            .unwrap()
            .remove(0);
        // Zero budget: no coverage anywhere, in either world.
        for o in &starved.outcomes {
            assert_eq!(o.budget_after_ossp, 0.0);
            assert!(o.coverage_ossp.abs() < 1e-9);
            assert!(o.coverage_online.abs() < 1e-9);
        }
        let default = engine
            .replay_sharded(&[ReplayJob::new(&history, &test_day)], 1)
            .unwrap()
            .remove(0);
        let explicit = engine
            .replay_sharded(
                &[
                    ReplayJob::with_budget(&history, &test_day, engine.config().game.budget)
                        .unwrap(),
                ],
                1,
            )
            .unwrap()
            .remove(0);
        assert_eq!(untimed(default), untimed(explicit));
    }

    #[test]
    fn malformed_job_budgets_are_rejected() {
        let (history, test_day) = multi_type_setup(61);
        let engine = AuditCycleEngine::new(EngineConfig::paper_multi_type()).unwrap();
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            // Rejected at construction...
            assert!(
                matches!(
                    ReplayJob::with_budget(&history, &test_day, bad),
                    Err(crate::SagError::InvalidConfig(_))
                ),
                "budget {bad} passed with_budget"
            );
            // ... and a literal-built job is still caught before sharding.
            let smuggled = ReplayJob {
                history: &history,
                test_day: &test_day,
                budget: Some(bad),
            };
            assert!(
                matches!(
                    engine.replay_sharded(&[smuggled], 1),
                    Err(crate::SagError::InvalidConfig(_))
                ),
                "budget {bad} was accepted by replay_sharded"
            );
            // ... and by a directly opened session.
            assert!(matches!(
                engine.open_day(&history, Some(bad)),
                Err(crate::SagError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn signal_noise_degrades_ossp_towards_the_online_sse() {
        let (history, test_day) = multi_type_setup(47);
        let clean = AuditCycleEngine::new(EngineConfig::paper_multi_type())
            .unwrap()
            .run_day(&history, &test_day)
            .unwrap();
        let mut noisy_config = EngineConfig::paper_multi_type();
        noisy_config.signal_noise = 0.2;
        let noisy = AuditCycleEngine::new(noisy_config)
            .unwrap()
            .run_day(&history, &test_day)
            .unwrap();
        assert_eq!(clean.len(), noisy.len());
        assert!(
            noisy.mean_ossp_utility().unwrap() < clean.mean_ossp_utility().unwrap(),
            "leaky channel should cost the auditor: {:?} vs {:?}",
            noisy.mean_ossp_utility(),
            clean.mean_ossp_utility()
        );
        // The committed schemes themselves are unchanged; only their scoring
        // (and hence nothing about budget consumption) moves.
        for (a, b) in clean.outcomes.iter().zip(&noisy.outcomes) {
            assert_eq!(a.ossp_scheme, b.ossp_scheme);
            assert_eq!(a.budget_after_ossp, b.budget_after_ossp);
        }
    }

    #[test]
    fn forecast_decay_changes_estimates_only_under_drift() {
        // A strongly decayed fit on a stationary stream stays close to the
        // uniform fit; both replay without error and produce valid results.
        let (history, test_day) = multi_type_setup(53);
        let mut config = EngineConfig::paper_multi_type();
        config.forecast_decay = 0.7;
        let decayed = AuditCycleEngine::new(config)
            .unwrap()
            .run_day(&history, &test_day)
            .unwrap();
        assert_eq!(decayed.len(), test_day.len());
        assert!((decayed.fraction_ossp_not_worse() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn engine_knobs_are_validated() {
        let mut bad = EngineConfig::paper_multi_type();
        bad.forecast_decay = 0.0;
        assert!(AuditCycleEngine::new(bad).is_err());
        let mut bad = EngineConfig::paper_multi_type();
        bad.forecast_decay = 1.5;
        assert!(AuditCycleEngine::new(bad).is_err());
        let mut bad = EngineConfig::paper_multi_type();
        bad.signal_noise = -0.1;
        assert!(AuditCycleEngine::new(bad).is_err());
        let mut bad = EngineConfig::paper_multi_type();
        bad.signal_noise = 1.1;
        assert!(AuditCycleEngine::new(bad).is_err());
    }

    #[test]
    fn replay_records_warm_start_and_pivot_statistics() {
        let (history, test_day) = multi_type_setup(23);
        let auto = AuditCycleEngine::new(EngineConfig::paper_multi_type())
            .unwrap()
            .run_day(&history, &test_day)
            .unwrap();
        // The sweep solves every alert without an LP.
        assert_eq!(auto.sse_totals.solves as usize, auto.len());
        assert_eq!(auto.sse_totals.fast_path_solves, auto.sse_totals.solves);
        assert_eq!(auto.sse_totals.lp_solves, 0);

        let mut config = EngineConfig::paper_multi_type();
        config.backend = SolverBackendKind::SimplexLp;
        let lp = AuditCycleEngine::new(config)
            .unwrap()
            .run_day(&history, &test_day)
            .unwrap();
        let totals = lp.sse_totals;
        assert_eq!(totals.solves as usize, lp.len());
        // The cold oracle solves one LP per candidate type on every alert.
        assert_eq!(totals.lp_solves, 7 * totals.solves);
        assert!(totals.pivots > 0);
        assert_eq!(totals.fast_path_solves, 0);
        // Every solve is cold: the warm-start counters stay at zero.
        assert_eq!((totals.warm_attempts, totals.warm_hits), (0, 0));
        // Per-alert stats add up to the day's totals.
        let pivots: u64 = lp
            .outcomes
            .iter()
            .map(|o| u64::from(o.sse_stats.pivots))
            .sum();
        assert_eq!(pivots, totals.pivots);
    }

    #[test]
    fn pruning_and_epsilon_are_ignored_shims() {
        let (history, test_day) = multi_type_setup(31);
        for backend in [SolverBackendKind::Auto, SolverBackendKind::SimplexLp] {
            let mut config = EngineConfig::paper_multi_type();
            config.backend = backend;
            let reference = untimed(
                AuditCycleEngine::new(config.clone())
                    .unwrap()
                    .run_day(&history, &test_day)
                    .unwrap(),
            );
            config.pruning = false;
            config.epsilon = 5.0;
            let shimmed = untimed(
                AuditCycleEngine::new(config)
                    .unwrap()
                    .run_day(&history, &test_day)
                    .unwrap(),
            );
            assert_eq!(shimmed, reference, "backend {backend:?}");
            assert_eq!(shimmed.certified_eps_loss, 0.0);
            let t = shimmed.sse_totals;
            assert_eq!(
                (
                    t.warm_attempts,
                    t.warm_hits,
                    t.pruned_lps,
                    t.eps_skipped_lps
                ),
                (0, 0, 0, 0)
            );
            assert!(shimmed.outcomes.iter().all(|o| {
                let s = o.sse_stats;
                (
                    s.warm_attempts,
                    s.warm_hits,
                    s.pruned_lps,
                    s.eps_skipped_lps,
                ) == (0, 0, 0, 0)
            }));
        }

        // Whatever options a backend is instantiated with, it solves alike.
        let game = crate::model::GameConfig::paper_multi_type();
        let estimates = [196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27];
        let input = crate::sse::SseInput {
            payoffs: &game.payoffs,
            audit_costs: &game.audit_costs,
            future_estimates: &estimates,
            budget: 30.0,
        };
        let options = crate::sse::BackendOptions {
            pruning: false,
            epsilon: 5.0,
            pool: Some(std::sync::Arc::new(sag_pool::WorkerPool::new(2))),
        };
        for kind in [SolverBackendKind::Auto, SolverBackendKind::SimplexLp] {
            let plain = kind.instantiate().solve(&input).unwrap();
            let shimmed = kind.instantiate_with(&options).solve(&input).unwrap();
            assert_eq!(plain, shimmed, "backend {kind:?}");
        }
    }
}
