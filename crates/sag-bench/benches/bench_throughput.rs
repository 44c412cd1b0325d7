//! Criterion bench for the batched end-to-end replay path: whole test days
//! replayed through `AuditCycleEngine::replay_batch`, plus one SSE solve of
//! the 5-type game on the LP oracle and on the served sweep.
//! This is the throughput counterpart of `bench_runtime.rs` (which measures
//! one alert at a time).

use criterion::{criterion_group, criterion_main, Criterion};
use sag_bench::setup;
use sag_core::engine::{AuditCycleEngine, EngineConfig};
use sag_core::sse::{SolverBackendKind, SseSolver};
use sag_sim::{AlertLog, StreamConfig, StreamGenerator};
use std::hint::black_box;

fn replay_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay_throughput");

    // Batched multi-day replay of the paper's 7-type game.
    let mut generator = StreamGenerator::new(StreamConfig::paper_multi_type(7));
    let log = AlertLog::new(generator.generate_days(9));
    let engine = AuditCycleEngine::new(EngineConfig::paper_multi_type()).unwrap();
    group.bench_function("replay_batch/7_types_3_days", |b| {
        let groups = log.rolling_groups(6);
        b.iter(|| black_box(engine.replay_batch(black_box(&groups)).unwrap().len()));
    });

    // One SSE solve of the 5-type scaling game: LP oracle vs served sweep.
    let (payoffs, costs, estimates) = setup::synthetic_game(5);
    group.bench_function("sse_5type/lp", |b| {
        let solver = SseSolver::new();
        b.iter(|| {
            let input = setup::sse_input(&payoffs, &costs, &estimates, black_box(30.0));
            black_box(solver.solve(&input).unwrap().auditor_utility)
        });
    });
    group.bench_function("sse_5type/sweep", |b| {
        let mut backend = SolverBackendKind::Auto.instantiate();
        b.iter(|| {
            let input = setup::sse_input(&payoffs, &costs, &estimates, black_box(30.0));
            let sse = backend.solve(&input).unwrap();
            let utility = sse.auditor_utility;
            backend.recycle(sse);
            black_box(utility)
        });
    });

    group.finish();
}

criterion_group!(benches, replay_throughput);
criterion_main!(benches);
