//! Property-based tests for the simplex solver.
//!
//! Strategy: generate small random LPs of a shape similar to the SAG programs
//! (bounded nonnegative variables, `≤`/`≥`/`=` constraints with bounded
//! coefficients) and check solver invariants that hold regardless of the
//! particular instance:
//!
//! 1. any reported optimum is primal feasible;
//! 2. the reported objective matches the objective evaluated at the reported
//!    point;
//! 3. the optimum is at least as good as a brute-force sample of random
//!    feasible points;
//! 4. adding a redundant constraint never changes the optimal objective;
//! 5. scaling the objective scales the optimum.

use proptest::prelude::*;
use sag_lp::{LpError, LpProblem, Objective, Relation, SimplexWorkspace, VarId};

/// A compact, generatable description of a random LP instance.
#[derive(Debug, Clone)]
struct RandomLp {
    maximize: bool,
    // per-variable: (upper_bound, objective_coeff)
    vars: Vec<(f64, f64)>,
    // per-constraint: (coeffs aligned with vars, relation index 0/1, rhs)
    cons: Vec<(Vec<f64>, u8, f64)>,
}

impl RandomLp {
    fn build(&self) -> (LpProblem, Vec<VarId>) {
        let mut lp = LpProblem::new(if self.maximize {
            Objective::Maximize
        } else {
            Objective::Minimize
        });
        let ids: Vec<VarId> = self
            .vars
            .iter()
            .enumerate()
            .map(|(j, &(ub, _))| lp.add_var(format!("x{j}"), 0.0, ub))
            .collect();
        for (j, &(_, c)) in self.vars.iter().enumerate() {
            lp.set_objective(ids[j], c);
        }
        for (coeffs, rel, rhs) in &self.cons {
            let terms: Vec<(VarId, f64)> =
                ids.iter().copied().zip(coeffs.iter().copied()).collect();
            let relation = if *rel == 0 {
                Relation::Le
            } else {
                Relation::Ge
            };
            lp.add_constraint(&terms, relation, *rhs);
        }
        (lp, ids)
    }
}

fn random_lp_strategy() -> impl Strategy<Value = RandomLp> {
    let nvars = 1usize..5;
    let ncons = 0usize..4;
    (nvars, ncons, any::<bool>()).prop_flat_map(|(nv, nc, maximize)| {
        let vars = proptest::collection::vec((0.5f64..20.0, -10.0f64..10.0), nv);
        let cons = proptest::collection::vec(
            (
                proptest::collection::vec(-3.0f64..3.0, nv),
                0u8..2,
                0.0f64..15.0,
            ),
            nc,
        );
        (vars, cons).prop_map(move |(vars, cons)| RandomLp {
            maximize,
            vars,
            cons,
        })
    })
}

/// Deterministic pseudo-random feasible-point sampler: grid corners plus a few
/// interior points, filtered by feasibility.
fn sample_feasible_points(lp: &LpProblem, vars: &[VarId]) -> Vec<Vec<f64>> {
    let mut points = Vec::new();
    let n = vars.len();
    // Corners of the box (bounded to 2^n for small n) and midpoints.
    let corners = 1usize << n.min(4);
    for mask in 0..corners {
        let mut p = vec![0.0; n];
        for (j, value) in p.iter_mut().enumerate() {
            let (lo, hi) = lp.bounds(vars[j]);
            *value = if mask >> j & 1 == 1 {
                hi.min(lo + 1e6)
            } else {
                lo
            };
        }
        points.push(p);
    }
    let mid: Vec<f64> = vars
        .iter()
        .map(|&v| {
            let (lo, hi) = lp.bounds(v);
            lo + 0.5 * (hi.min(lo + 1e6) - lo)
        })
        .collect();
    points.push(mid);
    points.push(vec![0.0; n]);
    points.retain(|p| lp.is_feasible(p, 1e-9));
    points
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn optimum_is_feasible_and_consistent(instance in random_lp_strategy()) {
        let (lp, _ids) = instance.build();
        match lp.solve() {
            Ok(sol) => {
                prop_assert!(lp.is_feasible(sol.values(), 1e-6),
                    "reported optimum is not feasible: {:?}", sol.values());
                let recomputed = lp.objective_at(sol.values());
                prop_assert!((recomputed - sol.objective()).abs() < 1e-6,
                    "objective mismatch: reported {}, recomputed {}", sol.objective(), recomputed);
            }
            Err(LpError::Infeasible) => {
                // The all-lower-bounds point must then violate some constraint
                // (sanity: the zero point is in the box, so infeasibility must
                // come from the linear constraints).
                let zeros = vec![0.0; lp.num_vars()];
                prop_assert!(!lp.is_feasible(&zeros, 1e-9)
                    || lp.num_constraints() > 0);
            }
            Err(LpError::Unbounded) => {
                // Unboundedness requires at least one variable with an
                // infinite bound; our generator only produces finite bounds,
                // so this must never happen.
                prop_assert!(false, "finite-box LP reported unbounded");
            }
            Err(other) => prop_assert!(false, "unexpected solver error: {other}"),
        }
    }

    #[test]
    fn optimum_dominates_sampled_feasible_points(instance in random_lp_strategy()) {
        let (lp, ids) = instance.build();
        if let Ok(sol) = lp.solve() {
            let maximize = instance.maximize;
            for p in sample_feasible_points(&lp, &ids) {
                let val = lp.objective_at(&p);
                if maximize {
                    prop_assert!(sol.objective() >= val - 1e-6,
                        "sampled point {:?} with objective {} beats reported optimum {}",
                        p, val, sol.objective());
                } else {
                    prop_assert!(sol.objective() <= val + 1e-6,
                        "sampled point {:?} with objective {} beats reported optimum {}",
                        p, val, sol.objective());
                }
            }
        }
    }

    #[test]
    fn redundant_constraint_preserves_optimum(instance in random_lp_strategy()) {
        let (lp, ids) = instance.build();
        if let Ok(sol) = lp.solve() {
            let mut relaxed = lp.clone();
            // sum of x_j <= sum of upper bounds is always redundant.
            let total_ub: f64 = ids.iter().map(|&v| lp.bounds(v).1).sum();
            let terms: Vec<(VarId, f64)> = ids.iter().map(|&v| (v, 1.0)).collect();
            relaxed.add_constraint(&terms, Relation::Le, total_ub + 1.0);
            let sol2 = relaxed.solve().expect("redundant constraint made LP unsolvable");
            prop_assert!((sol.objective() - sol2.objective()).abs() < 1e-6);
        }
    }

    #[test]
    fn objective_scaling_scales_optimum(instance in random_lp_strategy(), scale in 0.1f64..10.0) {
        let (lp, ids) = instance.build();
        if let Ok(sol) = lp.solve() {
            let mut scaled = lp.clone();
            for &v in &ids {
                scaled.set_objective(v, lp.objective_coeff(v) * scale);
            }
            let sol2 = scaled.solve().expect("scaled LP unsolvable");
            prop_assert!((sol2.objective() - sol.objective() * scale).abs() < 1e-5 * (1.0 + sol.objective().abs()),
                "scaling by {} changed optimum {} -> {}", scale, sol.objective(), sol2.objective());
        }
    }
}

/// Golden vectors: fixed instances whose exact solution components are
/// representable f64 literals. The kernel must reproduce every component
/// bit-for-bit — a drift in the kernel (or in the standard-form rewrite)
/// fails loudly with the offending component named.
#[test]
fn golden_vectors_pin_the_kernel_bitwise() {
    struct Golden {
        name: &'static str,
        lp: LpProblem,
        objective: f64,
        values: Vec<f64>,
    }

    let mut goldens = Vec::new();

    // Dantzig's textbook example: all components exactly representable.
    let mut lp = LpProblem::new(Objective::Maximize);
    let x = lp.add_var("x", 0.0, f64::INFINITY);
    let y = lp.add_var("y", 0.0, f64::INFINITY);
    lp.set_objective(x, 3.0);
    lp.set_objective(y, 5.0);
    lp.add_constraint(&[(x, 1.0)], Relation::Le, 4.0);
    lp.add_constraint(&[(y, 2.0)], Relation::Le, 12.0);
    lp.add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
    goldens.push(Golden {
        name: "dantzig_textbook",
        lp,
        objective: 36.0,
        values: vec![2.0, 6.0],
    });

    // Minimization with a flipped (>=) row and shifted lower bounds.
    let mut lp = LpProblem::new(Objective::Minimize);
    let x = lp.add_var("x", 2.0, f64::INFINITY);
    let y = lp.add_var("y", 3.0, f64::INFINITY);
    lp.set_objective(x, 2.0);
    lp.set_objective(y, 3.0);
    lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 10.0);
    goldens.push(Golden {
        name: "min_with_ge_and_shifts",
        lp,
        objective: 23.0,
        values: vec![7.0, 3.0],
    });

    // Equality-constrained program with an upper-bounded variable.
    let mut lp = LpProblem::new(Objective::Maximize);
    let x = lp.add_var("x", 0.0, 3.0);
    let y = lp.add_var("y", 0.0, f64::INFINITY);
    lp.set_objective(x, 1.0);
    lp.set_objective(y, 1.0);
    lp.add_constraint(&[(x, 1.0), (y, 2.0)], Relation::Eq, 4.0);
    goldens.push(Golden {
        name: "equality_with_box",
        lp,
        objective: 3.5,
        values: vec![3.0, 0.5],
    });

    let mut ws = SimplexWorkspace::new();
    for golden in &goldens {
        let solution = golden
            .lp
            .solve_with(&mut ws)
            .unwrap_or_else(|e| panic!("{}: kernel failed: {e}", golden.name));
        assert_eq!(
            solution.objective().to_bits(),
            golden.objective.to_bits(),
            "{}: objective {} != golden {}",
            golden.name,
            solution.objective(),
            golden.objective
        );
        assert_eq!(
            solution.values().len(),
            golden.values.len(),
            "{}",
            golden.name
        );
        for (j, (got, want)) in solution.values().iter().zip(&golden.values).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{}: value {j} is {got}, golden says {want}",
                golden.name
            );
        }
        ws.recycle(solution);
    }
}
