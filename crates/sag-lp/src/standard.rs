//! Conversion of an [`LpProblem`] into equality standard form.
//!
//! The simplex routine in [`crate::simplex`] works on the canonical form
//!
//! ```text
//! minimize   c' y
//! subject to A y = b,   y >= 0,   b >= 0
//! ```
//!
//! This module performs the mechanical rewriting from the user-facing model:
//!
//! 1. every original variable `x_j ∈ [lo_j, hi_j]` is shifted to
//!    `y_j = x_j − lo_j ≥ 0`; a finite upper bound becomes an extra row
//!    `y_j ≤ hi_j − lo_j`;
//! 2. a maximization objective is negated (and the flip undone when reporting
//!    the objective value);
//! 3. every `≤` row gains a slack column, every `≥` row gains a surplus
//!    column, and rows are scaled so that the right-hand side is nonnegative.
//!
//! The constraint matrix is stored as a single flat row-major `Vec<f64>` (see
//! [`StandardForm::row`]), and [`StandardForm::rebuild`] refills an existing
//! instance in place so repeated solves through one workspace perform no
//! allocation once the buffers have grown to the steady-state problem size.

use crate::problem::{LpProblem, Objective, Relation};

/// A linear program rewritten as `min c·y, A y = b, y ≥ 0, b ≥ 0`.
#[derive(Debug, Clone, Default)]
pub struct StandardForm {
    /// Flat row-major constraint matrix, `rows × cols` (see [`Self::row`]).
    pub a: Vec<f64>,
    /// Right-hand side, all entries nonnegative.
    pub b: Vec<f64>,
    /// Minimization cost vector over the `cols` columns.
    pub c: Vec<f64>,
    /// Number of columns that correspond to (shifted) original variables.
    /// They occupy the first `num_structural` columns in order.
    pub num_structural: usize,
    /// Lower bounds of the original variables (the shift applied per column).
    pub shifts: Vec<f64>,
    /// Constant added to the (minimization) objective by the shift.
    pub objective_shift: f64,
    /// Whether the original problem was a maximization (so the reported
    /// objective must be negated back).
    pub maximize: bool,
}

impl StandardForm {
    /// Number of equality rows.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.b.len()
    }

    /// Number of columns (structural + slack/surplus).
    #[must_use]
    pub fn num_cols(&self) -> usize {
        self.c.len()
    }

    /// Row `i` of the constraint matrix as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        let cols = self.num_cols();
        &self.a[i * cols..(i + 1) * cols]
    }

    /// Recover a point over the original variables from a point over the
    /// standard-form columns.
    #[must_use]
    pub fn recover(&self, y: &[f64]) -> Vec<f64> {
        (0..self.num_structural)
            .map(|j| y[j] + self.shifts[j])
            .collect()
    }

    /// Objective value of the *original* problem corresponding to the
    /// standard-form objective value `min_obj`.
    #[must_use]
    pub fn original_objective(&self, min_obj: f64) -> f64 {
        let shifted = min_obj + self.objective_shift;
        if self.maximize {
            -shifted
        } else {
            shifted
        }
    }

    /// Build the standard form of a (validated) problem.
    #[must_use]
    pub fn from_problem(problem: &LpProblem) -> Self {
        let mut sf = StandardForm::default();
        sf.rebuild(problem);
        sf
    }

    /// Refill `self` from `problem`, reusing the existing buffers. After the
    /// first call on a given problem shape this performs no allocation.
    pub fn rebuild(&mut self, problem: &LpProblem) {
        let n = problem.variables.len();
        self.maximize = problem.objective == Objective::Maximize;
        self.num_structural = n;

        // Cost over structural columns (after shift, minimization sense).
        let sign = if self.maximize { -1.0 } else { 1.0 };
        self.objective_shift = 0.0;
        self.shifts.clear();
        for v in &problem.variables {
            self.shifts.push(v.lower);
            self.objective_shift += sign * v.objective * v.lower;
        }

        // Row and column counts: every `≤`/`≥` constraint takes one
        // slack/surplus column; every finite upper bound adds a `≤` row.
        let num_bound_rows = problem
            .variables
            .iter()
            .filter(|v| v.upper.is_finite())
            .count();
        let num_slack = problem
            .constraints
            .iter()
            .filter(|c| matches!(c.relation, Relation::Le | Relation::Ge))
            .count()
            + num_bound_rows;
        let rows = problem.constraints.len() + num_bound_rows;
        let cols = n + num_slack;

        self.c.clear();
        self.c.resize(cols, 0.0);
        for (j, v) in problem.variables.iter().enumerate() {
            self.c[j] = sign * v.objective;
        }

        self.a.clear();
        self.a.resize(rows * cols, 0.0);
        self.b.clear();
        self.b.resize(rows, 0.0);

        let mut next_slack = n;
        for (i, cons) in problem.constraints.iter().enumerate() {
            let row = &mut self.a[i * cols..(i + 1) * cols];
            let mut rhs = cons.rhs;
            for &(var, coeff) in &cons.terms {
                row[var.index()] += coeff;
                rhs -= coeff * problem.variables[var.index()].lower;
            }
            match cons.relation {
                Relation::Le => {
                    row[next_slack] = 1.0;
                    next_slack += 1;
                }
                Relation::Ge => {
                    row[next_slack] = -1.0;
                    next_slack += 1;
                }
                Relation::Eq => {}
            }
            if rhs < 0.0 {
                for entry in row.iter_mut() {
                    *entry = -*entry;
                }
                rhs = -rhs;
            }
            self.b[i] = rhs;
        }

        // Finite upper bounds become `y_j <= hi - lo` rows (rhs is always
        // nonnegative because bounds are validated as hi >= lo).
        let mut i = problem.constraints.len();
        for (j, v) in problem.variables.iter().enumerate() {
            if v.upper.is_finite() {
                let row = &mut self.a[i * cols..(i + 1) * cols];
                row[j] = 1.0;
                row[next_slack] = 1.0;
                next_slack += 1;
                self.b[i] = v.upper - v.lower;
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LpProblem, Objective, Relation};

    fn toy_problem() -> LpProblem {
        // maximize 3x + 2y, x in [1, 4], y in [0, inf), x + y >= 2
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x", 1.0, 4.0);
        let y = lp.add_var("y", 0.0, f64::INFINITY);
        lp.set_objective(x, 3.0);
        lp.set_objective(y, 2.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 2.0);
        lp
    }

    #[test]
    fn shifts_and_dimensions() {
        let lp = toy_problem();
        let sf = StandardForm::from_problem(&lp);
        // rows: the >= constraint plus the finite upper bound of x
        assert_eq!(sf.num_rows(), 2);
        // cols: 2 structural + 1 surplus + 1 slack (for the bound row)
        assert_eq!(sf.num_cols(), 4);
        assert_eq!(sf.num_structural, 2);
        assert_eq!(sf.shifts, vec![1.0, 0.0]);
        assert!(sf.maximize);
        assert_eq!(sf.a.len(), sf.num_rows() * sf.num_cols());
    }

    #[test]
    fn rhs_is_nonnegative_and_shift_folded_in() {
        let lp = toy_problem();
        let sf = StandardForm::from_problem(&lp);
        for &rhs in &sf.b {
            assert!(rhs >= 0.0);
        }
        // x + y >= 2 with x = 1 + y0 becomes y0 + y1 >= 1.
        assert!((sf.b[0] - 1.0).abs() < 1e-12);
        // bound row: y0 <= 3
        assert!((sf.b[1] - 3.0).abs() < 1e-12);
        // Surplus on row 0, slack on row 1.
        assert_eq!(sf.row(0)[2], -1.0);
        assert_eq!(sf.row(1)[3], 1.0);
    }

    #[test]
    fn recover_and_objective_round_trip() {
        let lp = toy_problem();
        let sf = StandardForm::from_problem(&lp);
        // standard-form point y0 = 3 (x = 4), y1 = 0 (y = 0)
        let y = vec![3.0, 0.0, 0.0, 0.0];
        let x = sf.recover(&y);
        assert_eq!(x, vec![4.0, 0.0]);
        // min objective at that point is -(3*3) = -9 over shifted vars;
        // original objective must be 3*4 + 2*0 = 12.
        let min_obj: f64 = sf.c.iter().zip(&y).map(|(c, v)| c * v).sum();
        assert!((sf.original_objective(min_obj) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn negative_rhs_rows_are_flipped() {
        // x <= -1 with x in [-5, 0] shifts to y - 5 <= -1, i.e. y <= 4 — stays
        // positive. Use an equality with negative rhs instead: x == -2.
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_var("x", -5.0, 0.0);
        lp.set_objective(x, 1.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Eq, -2.0);
        let sf = StandardForm::from_problem(&lp);
        assert!(sf.b.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn minimization_objective_is_not_negated() {
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_var("x", 0.0, 10.0);
        lp.set_objective(x, 5.0);
        let sf = StandardForm::from_problem(&lp);
        assert!(!sf.maximize);
        assert!((sf.c[0] - 5.0).abs() < 1e-12);
        assert!((sf.original_objective(15.0) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn rebuild_reuses_buffers_and_matches_fresh_build() {
        let lp = toy_problem();
        let mut sf = StandardForm::from_problem(&lp);
        let fresh = StandardForm::from_problem(&lp);

        // Rebuild from a same-shape problem with different numbers: buffers
        // must be reused and the contents must match a fresh conversion.
        let mut lp2 = LpProblem::new(Objective::Maximize);
        let x = lp2.add_var("x", 1.5, 4.5);
        let y = lp2.add_var("y", 0.0, f64::INFINITY);
        lp2.set_objective(x, 2.0);
        lp2.set_objective(y, 1.0);
        lp2.add_constraint(&[(x, 1.0), (y, 2.0)], Relation::Ge, 3.0);
        sf.rebuild(&lp2);
        let fresh2 = StandardForm::from_problem(&lp2);
        assert_eq!(sf.a, fresh2.a);
        assert_eq!(sf.b, fresh2.b);
        assert_eq!(sf.c, fresh2.c);
        assert_eq!(sf.shifts, fresh2.shifts);

        // And rebuilding back reproduces the original exactly.
        sf.rebuild(&lp);
        assert_eq!(sf.a, fresh.a);
        assert_eq!(sf.b, fresh.b);
        assert_eq!(sf.c, fresh.c);
    }
}
