//! Problem-builder API: variables, bounds, constraints and the objective.

use crate::simplex::SimplexWorkspace;
use crate::{LpError, LpSolution, Result};

/// Optimization direction of the objective function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Maximize the objective.
    Maximize,
    /// Minimize the objective.
    Minimize,
}

/// Relation between the linear expression and the right-hand side of a
/// constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

/// Opaque handle to a decision variable of an [`LpProblem`].
///
/// Handles are only meaningful for the problem that created them; using a
/// handle from another problem is either caught as an out-of-range error or
/// silently refers to a different variable, so don't do that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index of this variable in the problem's variable list.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// A single variable definition: name, bounds and objective coefficient.
#[derive(Debug, Clone)]
pub(crate) struct Variable {
    pub name: String,
    pub lower: f64,
    pub upper: f64,
    pub objective: f64,
}

/// A linear constraint `sum_j coeff_j * x_j  (<=|>=|==)  rhs`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Sparse list of `(variable, coefficient)` terms.
    pub terms: Vec<(VarId, f64)>,
    /// Relation between the expression and `rhs`.
    pub relation: Relation,
    /// Right-hand side constant.
    pub rhs: f64,
}

impl Constraint {
    /// Evaluate the left-hand side of the constraint at the given point.
    #[must_use]
    pub fn lhs_at(&self, x: &[f64]) -> f64 {
        self.terms
            .iter()
            .map(|&(v, c)| c * x.get(v.0).copied().unwrap_or(0.0))
            .sum()
    }

    /// Whether the point satisfies the constraint within tolerance `tol`.
    #[must_use]
    pub fn satisfied_at(&self, x: &[f64], tol: f64) -> bool {
        let lhs = self.lhs_at(x);
        match self.relation {
            Relation::Le => lhs <= self.rhs + tol,
            Relation::Ge => lhs >= self.rhs - tol,
            Relation::Eq => (lhs - self.rhs).abs() <= tol,
        }
    }
}

/// A linear program under construction.
///
/// See the [crate-level documentation](crate) for a usage example.
#[derive(Debug, Clone)]
pub struct LpProblem {
    pub(crate) objective: Objective,
    pub(crate) variables: Vec<Variable>,
    pub(crate) constraints: Vec<Constraint>,
}

impl LpProblem {
    /// Create an empty problem with the given optimization direction.
    #[must_use]
    pub fn new(objective: Objective) -> Self {
        Self {
            objective,
            variables: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Add a decision variable with bounds `lower <= x <= upper` and a zero
    /// objective coefficient. `upper` may be `f64::INFINITY`; `lower` must be
    /// finite (the SAG formulations never need free-below variables, and a
    /// finite lower bound keeps the standard-form conversion simple).
    pub fn add_var(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> VarId {
        let id = VarId(self.variables.len());
        self.variables.push(Variable {
            name: name.into(),
            lower,
            upper,
            objective: 0.0,
        });
        id
    }

    /// Shorthand for a variable bounded to `[0, 1]` (a probability).
    pub fn add_prob_var(&mut self, name: impl Into<String>) -> VarId {
        self.add_var(name, 0.0, 1.0)
    }

    /// Set the objective coefficient of `var`.
    pub fn set_objective(&mut self, var: VarId, coeff: f64) {
        self.variables[var.0].objective = coeff;
    }

    /// Add a constraint from sparse `(variable, coefficient)` terms.
    pub fn add_constraint(&mut self, terms: &[(VarId, f64)], relation: Relation, rhs: f64) {
        self.constraints.push(Constraint {
            terms: terms.to_vec(),
            relation,
            rhs,
        });
    }

    /// Number of decision variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.variables.len()
    }

    /// Number of constraints (excluding variable bounds).
    #[must_use]
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Name of a variable.
    #[must_use]
    pub fn var_name(&self, var: VarId) -> &str {
        &self.variables[var.0].name
    }

    /// Optimization direction.
    #[must_use]
    pub fn objective_direction(&self) -> Objective {
        self.objective
    }

    /// Objective coefficient of a variable.
    #[must_use]
    pub fn objective_coeff(&self, var: VarId) -> f64 {
        self.variables[var.0].objective
    }

    /// Bounds `(lower, upper)` of a variable.
    #[must_use]
    pub fn bounds(&self, var: VarId) -> (f64, f64) {
        let v = &self.variables[var.0];
        (v.lower, v.upper)
    }

    /// Constraints of the problem.
    #[must_use]
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Evaluate the objective function at a point expressed over the original
    /// variables.
    #[must_use]
    pub fn objective_at(&self, x: &[f64]) -> f64 {
        self.variables
            .iter()
            .enumerate()
            .map(|(j, v)| v.objective * x.get(j).copied().unwrap_or(0.0))
            .sum()
    }

    /// Whether a point is feasible (bounds and constraints) within `tol`.
    #[must_use]
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.variables.len() {
            return false;
        }
        for (j, v) in self.variables.iter().enumerate() {
            if x[j] < v.lower - tol || x[j] > v.upper + tol {
                return false;
            }
        }
        self.constraints.iter().all(|c| c.satisfied_at(x, tol))
    }

    /// Validate the problem definition, returning a description of the first
    /// defect found.
    pub fn validate(&self) -> Result<()> {
        for (j, v) in self.variables.iter().enumerate() {
            if !v.lower.is_finite() {
                return Err(LpError::Malformed(format!(
                    "variable {} (`{}`) must have a finite lower bound",
                    j, v.name
                )));
            }
            if v.upper.is_nan() {
                return Err(LpError::Malformed(format!(
                    "variable {} (`{}`) has a NaN upper bound",
                    j, v.name
                )));
            }
            if v.upper < v.lower {
                return Err(LpError::Malformed(format!(
                    "variable {} (`{}`) has upper bound {} below lower bound {}",
                    j, v.name, v.upper, v.lower
                )));
            }
            if !v.objective.is_finite() {
                return Err(LpError::Malformed(format!(
                    "variable {} (`{}`) has a non-finite objective coefficient",
                    j, v.name
                )));
            }
        }
        for (i, c) in self.constraints.iter().enumerate() {
            if !c.rhs.is_finite() {
                return Err(LpError::Malformed(format!(
                    "constraint {i} has a non-finite right-hand side"
                )));
            }
            for &(v, coeff) in &c.terms {
                if v.0 >= self.variables.len() {
                    return Err(LpError::Malformed(format!(
                        "constraint {i} references unknown variable index {}",
                        v.0
                    )));
                }
                if !coeff.is_finite() {
                    return Err(LpError::Malformed(format!(
                        "constraint {i} has a non-finite coefficient for variable {}",
                        v.0
                    )));
                }
            }
        }
        Ok(())
    }

    /// Solve the program with the two-phase simplex method.
    ///
    /// Allocates a fresh [`SimplexWorkspace`] per call; callers that solve
    /// many programs should hold a workspace and use
    /// [`solve_with`](Self::solve_with) instead.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::Infeasible`], [`LpError::Unbounded`],
    /// [`LpError::Malformed`] or [`LpError::IterationLimit`].
    pub fn solve(&self) -> Result<LpSolution> {
        self.solve_with(&mut SimplexWorkspace::new())
    }

    /// Solve, reusing the buffers of `workspace`. After the workspace has
    /// grown to the steady-state problem size, the only per-solve
    /// allocation is the returned solution's values — and even that is
    /// reused if previous solutions are handed back through
    /// [`SimplexWorkspace::recycle`]. The pivot budget behind
    /// [`LpError::IterationLimit`] scales with the program's dimensions, so
    /// large candidate LPs cannot spuriously trip the anti-cycling cap.
    ///
    /// # Errors
    ///
    /// Same as [`solve`](Self::solve).
    pub fn solve_with(&self, workspace: &mut SimplexWorkspace) -> Result<LpSolution> {
        self.validate()?;
        workspace.solve(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_sizes_names_and_bounds() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x", 0.0, 5.0);
        let y = lp.add_prob_var("y");
        lp.set_objective(x, 2.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 3.0);

        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.num_constraints(), 1);
        assert_eq!(lp.var_name(x), "x");
        assert_eq!(lp.bounds(y), (0.0, 1.0));
        assert_eq!(lp.objective_coeff(x), 2.0);
        assert_eq!(lp.objective_coeff(y), 0.0);
        assert_eq!(lp.objective_direction(), Objective::Maximize);
        assert_eq!(x.index(), 0);
        assert_eq!(y.index(), 1);
    }

    #[test]
    fn objective_and_feasibility_evaluation() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x", 0.0, 10.0);
        let y = lp.add_var("y", 0.0, 10.0);
        lp.set_objective(x, 1.0);
        lp.set_objective(y, 4.0);
        lp.add_constraint(&[(x, 1.0), (y, 2.0)], Relation::Le, 8.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, 1.0);

        assert!((lp.objective_at(&[2.0, 3.0]) - 14.0).abs() < 1e-12);
        assert!(lp.is_feasible(&[2.0, 3.0], 1e-9));
        assert!(!lp.is_feasible(&[0.5, 0.0], 1e-9)); // violates x >= 1
        assert!(!lp.is_feasible(&[9.0, 0.0], 1e-9)); // violates x + 2y <= 8
        assert!(!lp.is_feasible(&[1.0], 1e-9)); // wrong dimension
    }

    #[test]
    fn constraint_satisfaction_by_relation() {
        let c_le = Constraint {
            terms: vec![(VarId(0), 1.0)],
            relation: Relation::Le,
            rhs: 1.0,
        };
        let c_ge = Constraint {
            terms: vec![(VarId(0), 1.0)],
            relation: Relation::Ge,
            rhs: 1.0,
        };
        let c_eq = Constraint {
            terms: vec![(VarId(0), 1.0)],
            relation: Relation::Eq,
            rhs: 1.0,
        };
        assert!(c_le.satisfied_at(&[0.5], 1e-9));
        assert!(!c_le.satisfied_at(&[1.5], 1e-9));
        assert!(c_ge.satisfied_at(&[1.5], 1e-9));
        assert!(!c_ge.satisfied_at(&[0.5], 1e-9));
        assert!(c_eq.satisfied_at(&[1.0 + 1e-12], 1e-9));
        assert!(!c_eq.satisfied_at(&[1.1], 1e-9));
    }

    #[test]
    fn validate_rejects_bad_definitions() {
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_var("x", f64::NEG_INFINITY, 1.0);
        lp.set_objective(x, 1.0);
        assert!(matches!(lp.validate(), Err(LpError::Malformed(_))));

        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_var("x", 2.0, 1.0);
        lp.set_objective(x, 1.0);
        assert!(matches!(lp.validate(), Err(LpError::Malformed(_))));

        let mut lp = LpProblem::new(Objective::Minimize);
        let _x = lp.add_var("x", 0.0, 1.0);
        lp.add_constraint(&[(VarId(7), 1.0)], Relation::Le, 1.0);
        assert!(matches!(lp.validate(), Err(LpError::Malformed(_))));

        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_var("x", 0.0, 1.0);
        lp.add_constraint(&[(x, f64::NAN)], Relation::Le, 1.0);
        assert!(matches!(lp.validate(), Err(LpError::Malformed(_))));

        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_var("x", 0.0, 1.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Le, f64::INFINITY);
        assert!(matches!(lp.validate(), Err(LpError::Malformed(_))));
    }

    #[test]
    fn validate_accepts_well_formed_problem() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x", 0.0, f64::INFINITY);
        lp.set_objective(x, 1.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 10.0);
        assert!(lp.validate().is_ok());
    }
}
