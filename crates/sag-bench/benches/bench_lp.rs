//! Criterion bench for the LP substrate: raw simplex solves of the two LP
//! shapes the SAG issues (LP (2) best-response programs and LP (3) signaling
//! programs) and a scaling sweep over problem size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sag_lp::{LpProblem, Objective, Relation};
use std::hint::black_box;

/// Build an LP (3)-shaped program (4 variables, 4 constraints).
fn lp3_program(theta: f64) -> LpProblem {
    let (udc, udu, uac, uau) = (100.0, -400.0, -2000.0, 400.0);
    let mut lp = LpProblem::new(Objective::Maximize);
    let p1 = lp.add_prob_var("p1");
    let q1 = lp.add_prob_var("q1");
    let p0 = lp.add_prob_var("p0");
    let q0 = lp.add_prob_var("q0");
    lp.set_objective(p0, udc);
    lp.set_objective(q0, udu);
    lp.add_constraint(&[(p1, uac), (q1, uau)], Relation::Le, 0.0);
    lp.add_constraint(&[(p0, uac), (q0, uau)], Relation::Ge, 0.0);
    lp.add_constraint(&[(p1, 1.0), (p0, 1.0)], Relation::Eq, theta);
    lp.add_constraint(&[(q1, 1.0), (q0, 1.0)], Relation::Eq, 1.0 - theta);
    lp
}

/// Build an LP (2)-shaped program with `n` types.
fn lp2_program(n: usize, budget: f64) -> LpProblem {
    let mut lp = LpProblem::new(Objective::Maximize);
    let vars: Vec<_> = (0..n)
        .map(|t| lp.add_var(format!("B{t}"), 0.0, budget))
        .collect();
    lp.set_objective(vars[0], 0.01 * 500.0);
    for t in 1..n {
        lp.add_constraint(
            &[(vars[t], -0.02 * 2400.0), (vars[0], 0.01 * 2400.0)],
            Relation::Le,
            10.0 * t as f64,
        );
    }
    let all: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
    lp.add_constraint(&all, Relation::Le, budget);
    lp
}

fn lp_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_substrate");

    group.bench_function("lp3_signaling_4x4", |b| {
        b.iter(|| black_box(lp3_program(black_box(0.12)).solve().unwrap().objective()));
    });

    for &n in &[2usize, 7, 16, 32] {
        group.bench_with_input(BenchmarkId::new("lp2_best_response", n), &n, |b, &n| {
            b.iter(|| black_box(lp2_program(n, 50.0).solve().unwrap().objective()));
        });
    }

    group.finish();
}

criterion_group!(benches, lp_benches);
criterion_main!(benches);
