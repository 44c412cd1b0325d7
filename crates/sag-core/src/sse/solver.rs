//! The multiple-LP method over [`sag_lp`], solved cold: one LP (2) per
//! candidate best-response type, the best feasible one kept.
//!
//! This is the paper's method and the oracle the breakpoint sweep
//! ([`super::sweep`]) is tested against. Every solve builds its candidate
//! programs from scratch and keeps no state between calls, so its answer is
//! a function of the input alone. Candidates are tried in index order and a
//! later one replaces the incumbent only with a strictly higher auditor
//! utility, so exact ties go to the lowest type index — the rule the sweep
//! reproduces.

use super::input::SseInput;
use super::solution::{SseSolution, SseSolveStats};
use super::EPS;
use crate::{Result, SagError};
use sag_lp::{LpError, LpProblem, Objective, Relation, SimplexWorkspace, VarId};
use sag_sim::AlertTypeId;

/// The largest payoff magnitude of the game. The candidate LPs divide their
/// payoff-derived rows and objective by it, so the simplex's absolute
/// tolerances ([`sag_lp::EPS`]) mean the same at payoffs of 1e-6 and of 1e9:
/// the programs are scale-free up to rounding.
fn payoff_scale(input: &SseInput<'_>) -> f64 {
    input.payoffs.magnitude().max(f64::MIN_POSITIVE)
}

/// Solver for the online SSE (the multiple-LP method over [`sag_lp`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SseSolver;

impl SseSolver {
    /// Create the solver.
    #[must_use]
    pub fn new() -> Self {
        SseSolver
    }

    /// Per-unit-budget coverage rates `ρ^t` for the given input.
    pub(super) fn coverage_rates_into(input: &SseInput<'_>, rates: &mut Vec<f64>) {
        rates.clear();
        rates.extend(
            input
                .future_estimates
                .iter()
                .zip(input.audit_costs)
                .map(|(&lambda, &cost)| sag_forecast::expected_inverse_positive(lambda) / cost),
        );
    }

    /// Solve the online SSE: the single-type closed form for one-type games,
    /// otherwise one cold LP per candidate best-response type through a
    /// shared simplex workspace. The returned stats count every candidate
    /// LP attempted (infeasible ones included) and their pivots.
    ///
    /// # Errors
    ///
    /// Returns [`SagError::InvalidConfig`] for malformed inputs and
    /// [`SagError::NoFeasibleType`] if no candidate best-response LP is
    /// feasible (which cannot happen for valid inputs).
    pub fn solve(&self, input: &SseInput<'_>) -> Result<SseSolution> {
        input.validate()?;
        let mut rates = Vec::new();
        Self::coverage_rates_into(input, &mut rates);
        if input.payoffs.len() == 1 {
            return Ok(Self::solve_single_type(input, &rates, Default::default()));
        }

        let mut best: Option<SseSolution> = None;
        let mut stats = SseSolveStats::default();
        let mut ws = SimplexWorkspace::new();
        for candidate in 0..input.payoffs.len() {
            let result = Self::solve_for_candidate(input, &rates, candidate, &mut ws);
            stats.lp_solves += 1;
            stats.pivots += ws.last_pivots() as u32;
            match result {
                Ok(solution) => {
                    if best
                        .as_ref()
                        .is_none_or(|b| solution.auditor_utility > b.auditor_utility)
                    {
                        best = Some(solution);
                    }
                }
                Err(SagError::Lp(LpError::Infeasible)) => continue,
                Err(other) => return Err(other),
            }
        }
        let mut best = best.ok_or(SagError::NoFeasibleType)?;
        best.stats = stats;
        Ok(best)
    }

    /// Exact closed form for the single-type game: LP (2) with one variable
    /// `B ∈ [0, min(budget, 1/ρ)]` and objective slope `ρ·(Ud,c − Ud,u)`
    /// attains its optimum at the upper bound when the slope is positive and
    /// at zero otherwise — exactly what the simplex returns on this program.
    ///
    /// `buffers` is a recycled `(coverage, budget_split)` pair the solution
    /// is built into — pass a spare from the caller's recycler (or
    /// `Default::default()`) so repeated solves stay allocation-free.
    pub(super) fn solve_single_type(
        input: &SseInput<'_>,
        rates: &[f64],
        buffers: (Vec<f64>, Vec<f64>),
    ) -> SseSolution {
        let payoffs = input.payoffs.get(AlertTypeId(0));
        let rate = rates[0];
        let upper = if rate > 0.0 {
            input.budget.min(1.0 / rate)
        } else {
            input.budget
        };
        let slope = rate * (payoffs.auditor_covered - payoffs.auditor_uncovered);
        let split = if slope > EPS { upper } else { 0.0 };
        let coverage = (split * rate).clamp(0.0, 1.0);
        let (mut coverage_buf, mut split_buf) = buffers;
        coverage_buf.clear();
        coverage_buf.push(coverage);
        split_buf.clear();
        split_buf.push(split);
        SseSolution {
            coverage: coverage_buf,
            budget_split: split_buf,
            best_response: AlertTypeId(0),
            auditor_utility: payoffs.auditor_expected(coverage),
            attacker_utility: payoffs.attacker_expected(coverage),
            stats: SseSolveStats {
                fast_path: true,
                ..SseSolveStats::default()
            },
        }
    }

    /// Solve LP (2) under the assumption that `candidate` is the attacker's
    /// best response.
    fn solve_for_candidate(
        input: &SseInput<'_>,
        rates: &[f64],
        candidate: usize,
        workspace: &mut SimplexWorkspace,
    ) -> Result<SseSolution> {
        let (lp, vars) = candidate_program(input, rates, candidate);
        let solution = lp.solve_with(workspace)?;

        let cand = input.payoffs.get(AlertTypeId(candidate as u16));
        let budget_split: Vec<f64> = vars.iter().map(|&v| solution.value(v)).collect();
        let coverage: Vec<f64> = budget_split
            .iter()
            .zip(rates)
            .map(|(b, r)| (b * r).clamp(0.0, 1.0))
            .collect();
        workspace.recycle(solution);

        Ok(SseSolution {
            auditor_utility: cand.auditor_expected(coverage[candidate]),
            attacker_utility: cand.attacker_expected(coverage[candidate]),
            coverage,
            budget_split,
            best_response: AlertTypeId(candidate as u16),
            stats: SseSolveStats::default(),
        })
    }
}

/// Build the candidate LP and its variable handles.
///
/// Variables: the budget split `B^t`, bounded so that `θ^t = ρ^t B^t ≤ 1`.
/// Objective: the auditor's utility against an attack on the candidate
/// type (`auditor = Ud,u + θ·(Ud,c − Ud,u)`, `θ = ρ·B`). Constraints: one
/// best-response row per other type, then the budget row. The objective and
/// the best-response rows are divided by [`payoff_scale`].
fn candidate_program(
    input: &SseInput<'_>,
    rates: &[f64],
    candidate: usize,
) -> (LpProblem, Vec<VarId>) {
    let n = input.payoffs.len();
    let payoff_of = |t: usize| input.payoffs.get(AlertTypeId(t as u16));
    let scale = payoff_scale(input);

    let mut lp = LpProblem::new(Objective::Maximize);
    let vars: Vec<VarId> = (0..n)
        .map(|t| {
            let max_useful = if rates[t] > 0.0 {
                1.0 / rates[t]
            } else {
                input.budget
            };
            lp.add_var(format!("B{t}"), 0.0, input.budget.min(max_useful))
        })
        .collect();

    let cand = payoff_of(candidate);
    lp.set_objective(
        vars[candidate],
        rates[candidate] * (cand.auditor_covered - cand.auditor_uncovered) / scale,
    );

    // Best-response constraints: attacker prefers the candidate type.
    // Ua,u[c] + θ_c (Ua,c[c] − Ua,u[c]) ≥ Ua,u[t] + θ_t (Ua,c[t] − Ua,u[t])
    let cand_slope = rates[candidate] * (cand.attacker_covered - cand.attacker_uncovered) / scale;
    for t in 0..n {
        if t == candidate {
            continue;
        }
        let other = payoff_of(t);
        let other_slope = rates[t] * (other.attacker_covered - other.attacker_uncovered) / scale;
        // other_slope·B_t − cand_slope·B_c ≤ (Ua,u[c] − Ua,u[t]) / scale
        lp.add_constraint(
            &[(vars[t], other_slope), (vars[candidate], -cand_slope)],
            Relation::Le,
            (cand.attacker_uncovered - other.attacker_uncovered) / scale,
        );
    }

    // Budget constraint.
    let budget_terms: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
    lp.add_constraint(&budget_terms, Relation::Le, input.budget);

    (lp, vars)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PayoffTable, Payoffs};

    fn single_type_input<'a>(
        payoffs: &'a PayoffTable,
        costs: &'a [f64],
        estimates: &'a [f64],
        budget: f64,
    ) -> SseInput<'a> {
        SseInput {
            payoffs,
            audit_costs: costs,
            future_estimates: estimates,
            budget,
        }
    }

    #[test]
    fn single_type_coverage_is_budget_over_expected_alerts() {
        let payoffs = PayoffTable::paper_single_type();
        let costs = [1.0];
        // Large future-alert estimate: E[1/max(d,1)] ≈ 1/λ.
        let estimates = [100.0];
        let input = single_type_input(&payoffs, &costs, &estimates, 10.0);
        let sol = SseSolver::new().solve(&input).unwrap();
        assert_eq!(sol.best_response, AlertTypeId(0));
        assert!(sol.stats.fast_path);
        // Coverage should be close to B/λ = 0.1.
        assert!(
            (sol.coverage[0] - 0.1).abs() < 0.02,
            "coverage {}",
            sol.coverage[0]
        );
        // Utilities follow the linear payoff forms.
        let p = payoffs.get(AlertTypeId(0));
        assert!((sol.auditor_utility - p.auditor_expected(sol.coverage[0])).abs() < 1e-9);
        assert!((sol.attacker_utility - p.attacker_expected(sol.coverage[0])).abs() < 1e-9);
        assert!(sol.attacker_utility > 0.0);
        assert_eq!(sol.effective_auditor_utility(), sol.auditor_utility);
    }

    #[test]
    fn single_type_closed_form_matches_explicit_lp() {
        // The closed form must reproduce what the generic multiple-LP method
        // (forced through the LP by a two-type game whose second type is
        // irrelevant) computes for the same type.
        let payoffs = PayoffTable::paper_single_type();
        let costs = [1.0];
        let solver = SseSolver::new();
        for budget in [0.0, 3.0, 10.0, 17.5, 40.0, 500.0] {
            for estimate in [0.0, 1.0, 20.0, 150.0] {
                let estimates = [estimate];
                let input = single_type_input(&payoffs, &costs, &estimates, budget);
                let fast = solver.solve(&input).unwrap();
                assert!(fast.stats.fast_path);

                // Reference: solve the same one-variable LP explicitly.
                let rate = sag_forecast::expected_inverse_positive(estimate) / costs[0];
                let p = payoffs.get(AlertTypeId(0));
                let mut lp = LpProblem::new(Objective::Maximize);
                let upper = if rate > 0.0 {
                    budget.min(1.0 / rate)
                } else {
                    budget
                };
                let b = lp.add_var("B0", 0.0, upper);
                lp.set_objective(b, rate * (p.auditor_covered - p.auditor_uncovered));
                lp.add_constraint(&[(b, 1.0)], Relation::Le, budget);
                let reference = lp.solve().unwrap();
                let ref_coverage = (reference.value(b) * rate).clamp(0.0, 1.0);

                assert!(
                    (fast.coverage[0] - ref_coverage).abs() < 1e-12,
                    "budget {budget}, estimate {estimate}: fast {} vs lp {}",
                    fast.coverage[0],
                    ref_coverage
                );
                assert!((fast.auditor_utility - p.auditor_expected(ref_coverage)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn ample_budget_caps_coverage_at_one_and_deters() {
        let payoffs = PayoffTable::paper_single_type();
        let costs = [1.0];
        let estimates = [2.0];
        // Budget far exceeding expected alerts: full coverage.
        let input = single_type_input(&payoffs, &costs, &estimates, 1000.0);
        let sol = SseSolver::new().solve(&input).unwrap();
        assert!((sol.coverage[0] - 1.0).abs() < 1e-6);
        assert!(sol.attacker_utility < 0.0);
        // Deterrence: effective utility is 0 even though the raw LP value is
        // the "covered" payoff.
        assert_eq!(sol.effective_auditor_utility(), 0.0);
        assert!((sol.auditor_utility - 100.0).abs() < 1e-6);
    }

    #[test]
    fn zero_budget_gives_zero_coverage_everywhere() {
        let payoffs = PayoffTable::paper_table2();
        let costs = vec![1.0; 7];
        let estimates = vec![50.0; 7];
        let input = single_type_input(&payoffs, &costs, &estimates, 0.0);
        let sol = SseSolver::new().solve(&input).unwrap();
        assert!(sol.coverage.iter().all(|&c| c.abs() < 1e-9));
        // With no coverage anywhere, the attacker picks the type with the
        // highest uncovered payoff (type 7: 800).
        assert_eq!(sol.best_response, AlertTypeId(6));
        assert!((sol.attacker_utility - 800.0).abs() < 1e-9);
        assert!((sol.auditor_utility - (-2000.0)).abs() < 1e-9);
    }

    #[test]
    fn multi_type_equilibrium_equalizes_attractive_types() {
        let payoffs = PayoffTable::paper_table2();
        let costs = vec![1.0; 7];
        // Table 1 daily volumes as the future estimates at start of day.
        let estimates = vec![196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27];
        let input = single_type_input(&payoffs, &costs, &estimates, 50.0);
        let sol = SseSolver::new().solve(&input).unwrap();

        // The attacker's utility on the best-response type must be at least
        // his utility on every other type (the best-response constraints).
        let best = sol.attacker_utility;
        for t in 0..7u16 {
            let p = payoffs.get(AlertTypeId(t));
            let alt = p.attacker_expected(sol.coverage[t as usize]);
            assert!(best >= alt - 1e-6, "type {t}: {alt} exceeds best {best}");
        }
        // Budget is respected.
        let spent: f64 = sol.budget_split.iter().sum();
        assert!(spent <= 50.0 + 1e-6);
        // Coverage is a probability vector.
        assert!(sol
            .coverage
            .iter()
            .all(|&c| (0.0..=1.0 + 1e-9).contains(&c)));
    }

    #[test]
    fn auditor_utility_improves_with_budget() {
        let payoffs = PayoffTable::paper_table2();
        let costs = vec![1.0; 7];
        let estimates = vec![196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27];
        let mut last = f64::NEG_INFINITY;
        for budget in [0.0, 10.0, 25.0, 50.0, 100.0, 200.0] {
            let input = single_type_input(&payoffs, &costs, &estimates, budget);
            let sol = SseSolver::new().solve(&input).unwrap();
            assert!(
                sol.auditor_utility >= last - 1e-6,
                "budget {budget}: utility {} dropped below {last}",
                sol.auditor_utility
            );
            last = sol.auditor_utility;
        }
    }

    #[test]
    fn attacker_utility_decreases_with_budget() {
        let payoffs = PayoffTable::paper_table2();
        let costs = vec![1.0; 7];
        let estimates = vec![196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27];
        let mut last = f64::INFINITY;
        for budget in [0.0, 10.0, 25.0, 50.0, 100.0, 200.0] {
            let input = single_type_input(&payoffs, &costs, &estimates, budget);
            let sol = SseSolver::new().solve(&input).unwrap();
            assert!(sol.attacker_utility <= last + 1e-6);
            last = sol.attacker_utility;
        }
    }

    #[test]
    fn heterogeneous_audit_costs_shift_coverage() {
        // Two identical types except type 1 is 10x more expensive to audit:
        // with the same payoffs, coverage of the cheap type should not be
        // lower than coverage of the expensive one.
        let payoffs = PayoffTable::new(vec![
            Payoffs::new(100.0, -400.0, -2000.0, 400.0),
            Payoffs::new(100.0, -400.0, -2000.0, 400.0),
        ]);
        let costs = [1.0, 10.0];
        let estimates = [50.0, 50.0];
        let input = single_type_input(&payoffs, &costs, &estimates, 30.0);
        let sol = SseSolver::new().solve(&input).unwrap();
        assert!(
            sol.coverage[0] >= sol.coverage[1] - 1e-9,
            "coverage {:?} should favour the cheaper type",
            sol.coverage
        );
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let payoffs = PayoffTable::paper_single_type();
        let costs = [1.0];
        let estimates = [10.0];
        let solver = SseSolver::new();

        let bad_budget = SseInput {
            payoffs: &payoffs,
            audit_costs: &costs,
            future_estimates: &estimates,
            budget: -1.0,
        };
        assert!(matches!(
            solver.solve(&bad_budget),
            Err(SagError::InvalidConfig(_))
        ));

        let bad_lengths = SseInput {
            payoffs: &payoffs,
            audit_costs: &[1.0, 2.0],
            future_estimates: &estimates,
            budget: 5.0,
        };
        assert!(matches!(
            solver.solve(&bad_lengths),
            Err(SagError::InvalidConfig(_))
        ));

        let bad_cost = SseInput {
            payoffs: &payoffs,
            audit_costs: &[0.0],
            future_estimates: &estimates,
            budget: 5.0,
        };
        assert!(matches!(
            solver.solve(&bad_cost),
            Err(SagError::InvalidConfig(_))
        ));

        let bad_estimate = SseInput {
            payoffs: &payoffs,
            audit_costs: &costs,
            future_estimates: &[-2.0],
            budget: 5.0,
        };
        assert!(matches!(
            solver.solve(&bad_estimate),
            Err(SagError::InvalidConfig(_))
        ));
    }

    #[test]
    fn coverage_of_out_of_range_type_is_zero() {
        let sol = SseSolution {
            coverage: vec![0.5],
            budget_split: vec![1.0],
            best_response: AlertTypeId(0),
            auditor_utility: 0.0,
            attacker_utility: 0.0,
            stats: SseSolveStats::default(),
        };
        assert_eq!(sol.coverage_of(AlertTypeId(0)), 0.5);
        assert_eq!(sol.coverage_of(AlertTypeId(3)), 0.0);
    }
}
