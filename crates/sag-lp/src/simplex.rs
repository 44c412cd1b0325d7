//! Dense two-phase primal simplex with Bland's rule.
//!
//! The tableau is a single flat row-major `Vec<f64>` owned by a reusable
//! [`SimplexWorkspace`]; once a workspace has grown to the steady-state
//! problem size, repeated solves only allocate the returned
//! [`LpSolution`]'s values (and not even those when solutions are handed
//! back through [`SimplexWorkspace::recycle`]).
//!
//! Entering-variable pricing is Bland's rule (smallest index with a
//! negative reduced cost), which guarantees termination on degenerate
//! instances and makes every solve a deterministic function of its input:
//! the golden vectors in `tests/property.rs` pin objectives and values
//! bitwise.
//!
//! The pivot budget scales with the instance dimensions (see
//! [`SimplexWorkspace::pivot_limit`]), so a 128-type game cannot be starved
//! by a budget tuned for ≤10-row programs, and a genuinely pathological
//! instance still fails fast with its dimensions in
//! [`LpError::IterationLimit`].

use crate::problem::LpProblem;
use crate::solution::{LpSolution, SolveStats};
use crate::standard::StandardForm;
use crate::{LpError, Result, EPS};

/// Base of the dimension-scaled pivot budget: even a 1×1 instance gets this
/// many pivots before the solver declares it pathological.
const PIVOT_LIMIT_BASE: usize = 1_000;

/// Per-dimension slope of the pivot budget. Non-degenerate simplex visits
/// at most one basis per vertex on a path whose practical length is a small
/// multiple of `rows + cols`; 500 per dimension is orders of magnitude above
/// anything a well-posed instance needs.
const PIVOT_LIMIT_PER_DIM: usize = 500;

/// Reusable state for repeated simplex solves.
///
/// Owns the flat tableau, the right-hand side, the basis, the cost buffer
/// and recycled solution buffers. Create one per solver (or per thread) and
/// pass it to [`LpProblem::solve_with`].
#[derive(Debug, Clone, Default)]
pub struct SimplexWorkspace {
    /// Standard form of the most recently loaded problem.
    sf: StandardForm,
    /// Flat `rows × total` tableau (structural + slack | artificials).
    a: Vec<f64>,
    /// Right-hand side per row (kept nonnegative by pivoting).
    b: Vec<f64>,
    /// Basic column per row.
    basis: Vec<usize>,
    /// Cost vector of the current phase, length `total`.
    costs: Vec<f64>,
    /// Basic components of `costs`, refreshed before each pricing pass.
    cb: Vec<f64>,
    /// Scratch copy of the pivot row (avoids aliasing during elimination).
    pivot_row: Vec<f64>,
    /// Recycled buffers for [`LpSolution`] values.
    spare_values: Vec<Vec<f64>>,
    /// Number of rows of the loaded tableau.
    rows: usize,
    /// Number of non-artificial columns of the loaded tableau.
    n: usize,
    /// Total number of columns, including artificials.
    total: usize,
    /// Pivot counter across both phases.
    pivots: usize,
}

impl SimplexWorkspace {
    /// Create an empty workspace.
    #[must_use]
    pub fn new() -> Self {
        SimplexWorkspace::default()
    }

    /// Pivots performed by the most recent solve attempt on this workspace,
    /// including attempts that ended in an error such as
    /// [`LpError::Infeasible`] (whose work is otherwise invisible to the
    /// caller because no [`LpSolution`] is returned).
    #[must_use]
    pub fn last_pivots(&self) -> usize {
        self.pivots
    }

    /// Return a solved instance's buffers to the workspace so the next solve
    /// can reuse them instead of allocating.
    pub fn recycle(&mut self, solution: LpSolution) {
        self.spare_values.push(solution.into_buffers());
    }

    /// Solve a validated problem cold: phase 1 builds a feasible basis from
    /// artificials, phase 2 optimizes the original objective.
    pub(crate) fn solve(&mut self, problem: &LpProblem) -> Result<LpSolution> {
        self.load(problem);

        // ---------------- Phase 1: minimize the sum of artificials ----------------
        self.set_phase1_costs();
        self.optimize(true)?;
        if self.objective() > 1e-7 {
            return Err(LpError::Infeasible);
        }
        let phase1_pivots = self.pivots;

        // Drive any artificial still in the basis out of it (degenerate rows).
        for i in 0..self.rows {
            if self.basis[i] >= self.n {
                if let Some(col) = (0..self.n).find(|&j| self.a[i * self.total + j].abs() > EPS) {
                    self.pivot(i, col);
                }
                // If the whole row is zero the constraint was redundant; the
                // artificial stays basic at value zero, which is harmless as
                // long as it is never allowed to re-enter with a nonzero
                // value. Since its row is all zeros it cannot change any
                // other variable.
            }
        }

        // ---------------- Phase 2: original objective ----------------
        self.set_phase2_costs();
        self.optimize(false)?;

        Ok(self.extract(phase1_pivots))
    }

    /// Load `problem` into the workspace: rebuild the standard form and the
    /// `[A | I]` tableau with the all-artificial basis.
    fn load(&mut self, problem: &LpProblem) {
        self.sf.rebuild(problem);
        let m = self.sf.num_rows();
        let n = self.sf.num_cols();
        let total = n + m;
        self.rows = m;
        self.n = n;
        self.total = total;
        self.pivots = 0;

        self.a.clear();
        self.a.resize(m * total, 0.0);
        for i in 0..m {
            let row = &mut self.a[i * total..i * total + n];
            row.copy_from_slice(self.sf.row(i));
            self.a[i * total + n + i] = 1.0;
        }
        self.b.clear();
        self.b.extend_from_slice(&self.sf.b);
        self.basis.clear();
        self.basis.extend(n..n + m);
        self.pivot_row.clear();
        self.pivot_row.resize(total, 0.0);
        self.cb.clear();
        self.cb.resize(m, 0.0);
    }

    /// Fill [`Self::costs`] with the phase-1 objective (sum of artificials).
    fn set_phase1_costs(&mut self) {
        self.costs.clear();
        self.costs.resize(self.total, 0.0);
        for cost in self.costs.iter_mut().skip(self.n) {
            *cost = 1.0;
        }
    }

    /// Fill [`Self::costs`] with the original (phase-2) objective.
    fn set_phase2_costs(&mut self) {
        self.costs.clear();
        self.costs.extend_from_slice(&self.sf.c);
        self.costs.resize(self.total, 0.0);
    }

    /// Perform one pivot on `(row, col)`.
    fn pivot(&mut self, row: usize, col: usize) {
        let t = self.total;
        let pivot_val = self.a[row * t + col];
        debug_assert!(pivot_val.abs() > EPS, "pivot on a (near-)zero element");
        let inv = 1.0 / pivot_val;
        {
            let r = &mut self.a[row * t..(row + 1) * t];
            for v in r.iter_mut() {
                *v *= inv;
            }
            // Clean tiny noise on the pivot column of the pivot row.
            r[col] = 1.0;
            self.pivot_row.copy_from_slice(r);
        }
        self.b[row] *= inv;
        let b_row = self.b[row];

        for i in 0..self.rows {
            if i == row {
                continue;
            }
            let factor = self.a[i * t + col];
            if factor.abs() <= EPS {
                self.a[i * t + col] = 0.0;
                continue;
            }
            let r = &mut self.a[i * t..(i + 1) * t];
            for (v, &p) in r.iter_mut().zip(&self.pivot_row) {
                *v -= factor * p;
            }
            r[col] = 0.0;
            self.b[i] -= factor * b_row;
            if self.b[i].abs() < EPS {
                self.b[i] = 0.0;
            }
        }
        self.basis[row] = col;
        self.pivots += 1;
    }

    /// Reduced cost of column `j` under the current phase costs: basic rows
    /// in ascending order, zero-cost rows skipped.
    fn reduced_cost(&self, j: usize) -> f64 {
        let mut rc = self.costs[j];
        for (i, &cb) in self.cb.iter().enumerate() {
            if cb != 0.0 {
                rc -= cb * self.a[i * self.total + j];
            }
        }
        rc
    }

    /// Objective value of the current basic solution under the phase costs.
    fn objective(&self) -> f64 {
        self.basis
            .iter()
            .zip(&self.b)
            .map(|(&bi, &b)| self.costs[bi] * b)
            .sum()
    }

    /// Pivot budget for the loaded instance, scaled with its dimensions:
    /// small SAG programs keep a still-enormous budget, while a 128-type
    /// game's larger instances earn a proportionally larger one, so a limit
    /// hit always means a pathological instance rather than an undersized
    /// constant.
    fn pivot_limit(&self) -> usize {
        PIVOT_LIMIT_BASE + PIVOT_LIMIT_PER_DIM * (self.rows + self.total)
    }

    /// Run primal simplex iterations under the phase costs. When
    /// `allow_artificials` is false, artificial columns may not enter the
    /// basis. Returns `Ok(())` at optimality.
    fn optimize(&mut self, allow_artificials: bool) -> Result<()> {
        let scan = if allow_artificials {
            self.total
        } else {
            self.n
        };
        let limit = self.pivot_limit();
        loop {
            if self.pivots > limit {
                return Err(LpError::IterationLimit {
                    iterations: self.pivots,
                    rows: self.rows,
                    cols: self.n,
                });
            }
            for (i, &bi) in self.basis.iter().enumerate() {
                self.cb[i] = self.costs[bi];
            }
            // Bland's rule: entering column = smallest index with negative
            // reduced cost.
            let Some(col) = (0..scan).find(|&j| self.reduced_cost(j) < -EPS) else {
                return Ok(());
            };
            // Ratio test; Bland tie-break on the smallest basic column index.
            let mut best: Option<(usize, f64)> = None;
            for i in 0..self.rows {
                let aij = self.a[i * self.total + col];
                if aij > EPS {
                    let ratio = self.b[i] / aij;
                    let better = match best {
                        None => true,
                        Some((bi, br)) => {
                            ratio < br - EPS || (ratio < br + EPS && self.basis[i] < self.basis[bi])
                        }
                    };
                    if better {
                        best = Some((i, ratio));
                    }
                }
            }
            let Some((row, _)) = best else {
                return Err(LpError::Unbounded);
            };
            self.pivot(row, col);
        }
    }

    /// Extract the solution of the optimized tableau.
    fn extract(&mut self, phase1_pivots: usize) -> LpSolution {
        let mut values = self.spare_values.pop().unwrap_or_default();
        values.clear();
        values.resize(self.sf.num_structural, 0.0);
        let mut min_obj = 0.0;
        for (i, &bi) in self.basis.iter().enumerate() {
            if bi < self.n {
                min_obj += self.sf.c[bi] * self.b[i];
                if bi < self.sf.num_structural {
                    values[bi] = self.b[i];
                }
            }
        }
        for (j, v) in values.iter_mut().enumerate() {
            *v += self.sf.shifts[j];
        }
        let stats = SolveStats {
            pivots: self.pivots,
            phase1_pivots,
            rows: self.rows,
            cols: self.n,
        };
        LpSolution::new(self.sf.original_objective(min_obj), values, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::SimplexWorkspace;
    use crate::{LpError, LpProblem, Objective, Relation};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "expected {b}, got {a}");
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (Dantzig's example)
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x", 0.0, f64::INFINITY);
        let y = lp.add_var("y", 0.0, f64::INFINITY);
        lp.set_objective(x, 3.0);
        lp.set_objective(y, 5.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(&[(y, 2.0)], Relation::Le, 12.0);
        lp.add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective(), 36.0);
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 6.0);
    }

    #[test]
    fn minimization_with_ge_constraints() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_var("x", 2.0, f64::INFINITY);
        let y = lp.add_var("y", 3.0, f64::INFINITY);
        lp.set_objective(x, 2.0);
        lp.set_objective(y, 3.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 10.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective(), 2.0 * 7.0 + 3.0 * 3.0);
        assert_close(sol.value(x), 7.0);
        assert_close(sol.value(y), 3.0);
    }

    #[test]
    fn equality_constraints() {
        // max x + y s.t. x + 2y == 4, x <= 3
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x", 0.0, 3.0);
        let y = lp.add_var("y", 0.0, f64::INFINITY);
        lp.set_objective(x, 1.0);
        lp.set_objective(y, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 2.0)], Relation::Eq, 4.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective(), 3.5);
        assert_close(sol.value(x), 3.0);
        assert_close(sol.value(y), 0.5);
    }

    #[test]
    fn infeasible_is_detected() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x", 0.0, 1.0);
        lp.set_objective(x, 1.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn contradictory_constraints_are_infeasible() {
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_var("x", 0.0, f64::INFINITY);
        let y = lp.add_var("y", 0.0, f64::INFINITY);
        lp.set_objective(x, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 3.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_is_detected() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x", 0.0, f64::INFINITY);
        lp.set_objective(x, 1.0);
        lp.add_constraint(&[(x, -1.0)], Relation::Le, 1.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn bounded_variables_without_constraints() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x", -2.0, 5.0);
        let y = lp.add_var("y", 1.0, 3.0);
        lp.set_objective(x, 2.0);
        lp.set_objective(y, -1.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.value(x), 5.0);
        assert_close(sol.value(y), 1.0);
        assert_close(sol.objective(), 9.0);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x + y, x in [-10, 10], y in [-5, 5], x + y >= -3
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_var("x", -10.0, 10.0);
        let y = lp.add_var("y", -5.0, 5.0);
        lp.set_objective(x, 1.0);
        lp.set_objective(y, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, -3.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective(), -3.0);
        assert!(lp.is_feasible(sol.values(), 1e-7));
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degenerate instance (multiple constraints active at the
        // optimum); Bland's rule must not cycle.
        let mut lp = LpProblem::new(Objective::Maximize);
        let x1 = lp.add_var("x1", 0.0, f64::INFINITY);
        let x2 = lp.add_var("x2", 0.0, f64::INFINITY);
        let x3 = lp.add_var("x3", 0.0, f64::INFINITY);
        lp.set_objective(x1, 10.0);
        lp.set_objective(x2, -57.0);
        lp.set_objective(x3, -9.0);
        lp.add_constraint(&[(x1, 0.5), (x2, -5.5), (x3, -2.5)], Relation::Le, 0.0);
        lp.add_constraint(&[(x1, 0.5), (x2, -1.5), (x3, -0.5)], Relation::Le, 0.0);
        lp.add_constraint(&[(x1, 1.0)], Relation::Le, 1.0);
        let sol = lp.solve().unwrap();
        // Known optimum of the Beale-style cycling example (restricted): 1.
        assert!(sol.objective() >= 1.0 - 1e-7);
        assert!(lp.is_feasible(sol.values(), 1e-7));
    }

    #[test]
    fn redundant_equalities_are_handled() {
        // x + y == 2 listed twice; solution must still be found.
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x", 0.0, f64::INFINITY);
        let y = lp.add_var("y", 0.0, f64::INFINITY);
        lp.set_objective(x, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 2.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 2.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective(), 2.0);
        assert_close(sol.value(x), 2.0);
    }

    #[test]
    fn zero_rhs_and_zero_objective() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x", 0.0, 1.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 0.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective(), 0.0);
        assert_close(sol.value(x), 0.0);
    }

    #[test]
    fn stats_are_populated() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x", 0.0, 4.0);
        lp.set_objective(x, 1.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 2.0);
        let sol = lp.solve().unwrap();
        let stats = sol.stats();
        assert!(stats.pivots >= 1);
        assert!(stats.rows >= 1);
        assert!(stats.cols >= 1);
        assert!(stats.phase1_pivots <= stats.pivots);
    }

    #[test]
    fn lp3_shaped_signaling_program() {
        // The OSSP program LP (3) from the paper with Table 2 type 1 payoffs
        // and theta = 0.3, including the attacker-participation constraint
        // p0*Ua,c + q0*Ua,u >= 0 that the Theorem 3 proof treats as implicit
        // ("if not the case, the attacker will not attack initially"):
        //   max 100 p0 - 400 q0
        //   s.t. -2000 p1 + 400 q1 <= 0
        //        -2000 p0 + 400 q0 >= 0
        //        p1 + p0 = 0.3
        //        q1 + q0 = 0.7
        //        all in [0, 1]
        let (udc, udu, uac, uau) = (100.0, -400.0, -2000.0, 400.0);
        let theta = 0.3;
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
        let sol = lp.solve().unwrap();
        // Theorem 3 closed form: beta = 0.3*(-2000) + 0.7*400 = -320 <= 0,
        // so p0 = q0 = 0 and the auditor gets 0 (full deterrence).
        assert_close(sol.objective(), 0.0);
        assert_close(sol.value(p0), 0.0);
        assert_close(sol.value(q0), 0.0);
        assert_close(sol.value(p1), theta);
        assert_close(sol.value(q1), 1.0 - theta);
    }

    fn dantzig_with_budget(budget: f64) -> LpProblem {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x", 0.0, f64::INFINITY);
        let y = lp.add_var("y", 0.0, f64::INFINITY);
        lp.set_objective(x, 3.0);
        lp.set_objective(y, 5.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(&[(y, 2.0)], Relation::Le, 12.0);
        lp.add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Le, budget);
        lp
    }

    /// A wide box-constrained program (150 variables give a standard form
    /// of a few hundred rows and columns).
    fn wide_program(vars: usize) -> LpProblem {
        let mut lp = LpProblem::new(Objective::Maximize);
        let ids: Vec<_> = (0..vars)
            .map(|i| lp.add_var(format!("x{i}"), 0.0, 1.0))
            .collect();
        for (i, &v) in ids.iter().enumerate() {
            lp.set_objective(v, 1.0 + (i % 7) as f64);
        }
        let all: Vec<_> = ids.iter().map(|&v| (v, 1.0)).collect();
        lp.add_constraint(&all, Relation::Le, vars as f64 / 10.0);
        let half: Vec<_> = ids.iter().step_by(2).map(|&v| (v, 2.0)).collect();
        lp.add_constraint(&half, Relation::Ge, 1.0);
        lp
    }

    #[test]
    fn workspace_is_reusable_across_shapes() {
        let mut ws = SimplexWorkspace::new();
        let a = dantzig_with_budget(18.0).solve_with(&mut ws).unwrap();
        assert_close(a.objective(), 36.0);

        // Solve a differently shaped problem with the same workspace.
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_var("x", 2.0, f64::INFINITY);
        lp.set_objective(x, 4.0);
        let b = lp.solve_with(&mut ws).unwrap();
        assert_close(b.objective(), 8.0);

        // And go back.
        let c = dantzig_with_budget(18.0).solve_with(&mut ws).unwrap();
        assert_close(c.objective(), 36.0);
        ws.recycle(a);
        ws.recycle(b);
        ws.recycle(c);
    }

    #[test]
    fn recycled_solutions_do_not_leak_between_solves() {
        let mut ws = SimplexWorkspace::new();
        let a = dantzig_with_budget(18.0).solve_with(&mut ws).unwrap();
        let expected = (a.objective(), a.values().to_vec());
        ws.recycle(a);
        let b = dantzig_with_budget(18.0).solve_with(&mut ws).unwrap();
        assert_close(b.objective(), expected.0);
        assert_eq!(b.values(), &expected.1[..]);
    }

    #[test]
    fn pivot_limit_scales_with_dimensions() {
        let mut ws = SimplexWorkspace::new();
        dantzig_with_budget(18.0).solve_with(&mut ws).unwrap();
        let small_limit = ws.pivot_limit();
        // A small SAG-sized instance gets a tight (still enormous) budget.
        assert!(small_limit >= 1_000);
        wide_program(150).solve_with(&mut ws).unwrap();
        let large_limit = ws.pivot_limit();
        assert!(
            large_limit > small_limit,
            "expected the 150-var budget {large_limit} to exceed the 2-var budget {small_limit}"
        );
        // Large instances earn budgets beyond a flat 100_000 cap.
        assert!(large_limit > 100_000);
    }
}
