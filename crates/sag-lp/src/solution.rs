//! Solution and statistics types returned by the solver.

use crate::problem::VarId;

/// Statistics about a solve, useful for benchmarking and regression tracking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Total simplex pivots across both phases.
    pub pivots: usize,
    /// Pivots spent in phase 1 (driving artificial variables out).
    pub phase1_pivots: usize,
    /// Number of equality rows in the standard form.
    pub rows: usize,
    /// Number of columns in the standard form (excluding artificials).
    pub cols: usize,
}

/// An optimal solution of a linear program.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    objective: f64,
    values: Vec<f64>,
    stats: SolveStats,
}

impl LpSolution {
    /// Construct a solution (used by the solver).
    #[must_use]
    pub(crate) fn new(objective: f64, values: Vec<f64>, stats: SolveStats) -> Self {
        Self {
            objective,
            values,
            stats,
        }
    }

    /// Optimal objective value in the original optimization direction.
    #[must_use]
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Optimal value of a variable.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to the solved problem.
    #[must_use]
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }

    /// All optimal variable values, indexed by [`VarId::index`].
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Solver statistics for this solve.
    #[must_use]
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Tear the solution apart into its buffer (for workspace recycling).
    pub(crate) fn into_buffers(self) -> Vec<f64> {
        self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_return_constructed_data() {
        let stats = SolveStats {
            pivots: 3,
            phase1_pivots: 1,
            rows: 2,
            cols: 4,
        };
        let sol = LpSolution::new(7.5, vec![1.0, 2.0], stats);
        assert_eq!(sol.objective(), 7.5);
        assert_eq!(sol.value(VarId(0)), 1.0);
        assert_eq!(sol.value(VarId(1)), 2.0);
        assert_eq!(sol.values(), &[1.0, 2.0]);
        assert_eq!(sol.stats(), stats);
    }

    #[test]
    fn solution_clones_and_compares() {
        let sol = LpSolution::new(1.0, vec![0.5], SolveStats::default());
        let copy = sol.clone();
        assert_eq!(copy, sol);
        assert_ne!(LpSolution::new(2.0, vec![0.5], SolveStats::default()), sol);
    }

    #[test]
    fn into_buffers_returns_the_owned_vectors() {
        let sol = LpSolution::new(1.0, vec![0.5, 0.25], SolveStats::default());
        assert_eq!(sol.into_buffers(), vec![0.5, 0.25]);
    }
}
