//! The exact breakpoint sweep: every candidate LP of the multiple-LP method
//! solved at once, without a simplex.
//!
//! Each candidate LP of [`super::SseSolver`] is a security game with a single
//! budget row, so it has far more structure than a generic LP (the ORIGAMI
//! attack-set argument, Kiekintveld et al., AAMAS 2009). Write `ρ_t` for the
//! per-unit-budget coverage rate of type `t` and `D_t = Ua,u(t) − Ua,c(t)`.
//! Holding the attacker's best-response utility at a level `u` costs every
//! type at least
//!
//! ```text
//! θ_t(u) = clamp((Ua,u(t) − u) / D_t, 0, 1),      B_t(u) = θ_t(u) / ρ_t,
//! ```
//!
//! and the minimal spend `S(u) = Σ_t B_t(u)` is continuous, non-increasing
//! and piecewise linear in `u`, with breakpoints at the `Ua,u(t)`. Candidate
//! `c` maximises its own coverage, i.e. minimises its level, so **every**
//! candidate LP shares one optimal level
//!
//! ```text
//! u* = max( maxₜ Ua,c(t),  min { u : S(u) ≤ B } ),
//! ```
//!
//! found in one pass over the types sorted by `Ua,u`. Candidate `c` is
//! feasible iff `Ua,u(c) ≥ u*`, its optimum is `θ_c(u*)`, and the winner is
//! picked by the same rule as the LP path (highest auditor utility, exact
//! ties to the lowest type index).
//!
//! ## The canonical coverage rule
//!
//! The LP optimum is unique in the winner's coverage but not in the other
//! types': when the budget has slack, a simplex vertex may park it on any
//! type. The sweep always returns the **minimal-spend** coverage `θ_t(u*)`
//! for every type — the least audit effort that keeps the equilibrium — so
//! its answer is a function of the input alone, never of a pivot path.

use super::input::SseInput;
use super::solution::{SseSolution, SseSolveStats};
use super::solver::SseSolver;
use crate::model::Payoffs;
use crate::Result;
use sag_sim::AlertTypeId;

/// Solve the online SSE from scratch: validate, compute the coverage rates
/// and run the sweep on fresh buffers (the closed form for single-type
/// games). The offline whole-day baseline ([`crate::OfflineSse::solve`])
/// solves through here.
///
/// # Errors
///
/// Returns [`crate::SagError::InvalidConfig`] for malformed inputs.
pub fn solve(input: &SseInput<'_>) -> Result<SseSolution> {
    input.validate()?;
    let mut rates = Vec::new();
    SseSolver::coverage_rates_into(input, &mut rates);
    Ok(solve_into(
        input,
        &rates,
        &mut Vec::new(),
        Default::default(),
    ))
}

/// The sweep on validated input with precomputed rates `ρ_t`. Single-type
/// games take [`SseSolver::solve_single_type`], bit for bit; `order` is
/// scratch for the sort and `buffers` a recycled `(coverage, budget_split)`
/// pair, so a caller that recycles both allocates nothing per solve.
pub(super) fn solve_into(
    input: &SseInput<'_>,
    rates: &[f64],
    order: &mut Vec<usize>,
    buffers: (Vec<f64>, Vec<f64>),
) -> SseSolution {
    let solution = if input.payoffs.len() == 1 {
        SseSolver::solve_single_type(input, rates, buffers)
    } else {
        solve_multi(input.payoffs.all(), rates, input.budget, order, buffers)
    };
    debug_assert_eq!(
        super::certify(input, &solution),
        Ok(()),
        "the sweep returned an uncertified SSE"
    );
    solution
}

fn solve_multi(
    payoffs: &[Payoffs],
    rates: &[f64],
    budget: f64,
    order: &mut Vec<usize>,
    buffers: (Vec<f64>, Vec<f64>),
) -> SseSolution {
    let level = attack_level(payoffs, rates, budget, order);
    let (mut coverage, mut budget_split) = buffers;
    coverage.clear();
    budget_split.clear();
    let mut best: Option<(usize, f64)> = None;
    for (t, (p, &rate)) in payoffs.iter().zip(rates).enumerate() {
        let theta = ((p.attacker_uncovered - level) / (p.attacker_uncovered - p.attacker_covered))
            .clamp(0.0, 1.0);
        coverage.push(theta);
        budget_split.push(theta / rate);
        // Candidate `t` is feasible iff it can sit at the shared level; in
        // index order a strict `>` sends exact ties to the lowest index.
        if p.attacker_uncovered >= level {
            let utility = p.auditor_expected(theta);
            if best.is_none_or(|(_, incumbent)| utility > incumbent) {
                best = Some((t, utility));
            }
        }
    }
    // `attack_level` never exceeds the largest `Ua,u`, so that type is
    // always feasible.
    let (winner, auditor_utility) = best.expect("the top-payoff type is always feasible");
    SseSolution {
        attacker_utility: payoffs[winner].attacker_expected(coverage[winner]),
        coverage,
        budget_split,
        best_response: AlertTypeId(winner as u16),
        auditor_utility,
        stats: SseSolveStats {
            fast_path: true,
            ..SseSolveStats::default()
        },
    }
}

/// The shared optimal attacker-utility level `u*`: walk the breakpoints
/// `Ua,u` from the top, tracking the minimal spend at each, and stop in the
/// segment where the spend first exceeds the budget — or at the floor
/// `maxₜ Ua,c(t)`, below which no type can be pushed. The level is always
/// computed downward from a breakpoint, so it never exceeds the largest
/// `Ua,u` (and equals it exactly at zero budget).
fn attack_level(payoffs: &[Payoffs], rates: &[f64], budget: f64, order: &mut Vec<usize>) -> f64 {
    let floor = payoffs
        .iter()
        .map(|p| p.attacker_covered)
        .fold(f64::NEG_INFINITY, f64::max);
    order.clear();
    order.extend(0..payoffs.len());
    order.sort_unstable_by(|&a, &b| {
        payoffs[b]
            .attacker_uncovered
            .total_cmp(&payoffs[a].attacker_uncovered)
            .then(a.cmp(&b))
    });
    // `spent` is S(top) at the current breakpoint; `slope` is −S′ on the
    // segment below it, Σ 1/(ρ_t·D_t) over the types already in play.
    let mut spent = 0.0;
    let mut slope = 0.0;
    for (k, &t) in order.iter().enumerate() {
        let p = &payoffs[t];
        let top = p.attacker_uncovered;
        slope += 1.0 / (rates[t] * (p.attacker_uncovered - p.attacker_covered));
        let next = order
            .get(k + 1)
            .map_or(floor, |&s| payoffs[s].attacker_uncovered.max(floor));
        let spent_next = spent + slope * (top - next);
        if spent_next > budget {
            return top - (budget - spent) / slope;
        }
        if next <= floor {
            break;
        }
        spent = spent_next;
    }
    floor
}

/// The breakpoint sweep as a [`super::SolverBackend`]
/// ([`super::SolverBackendKind::Auto`]): exact, and every solve is a pure
/// function of its input. It keeps only scratch (the coverage rates, the
/// sort order and one recycled solution's buffers), so the per-alert steady
/// state allocates nothing. Every solve is a fast-path solve; no LP is ever
/// built.
#[derive(Debug, Clone, Default)]
pub struct SweepBackend {
    rates: Vec<f64>,
    order: Vec<usize>,
    spare: Option<(Vec<f64>, Vec<f64>)>,
}

impl SweepBackend {
    /// Create the backend.
    #[must_use]
    pub fn new() -> Self {
        SweepBackend::default()
    }
}

impl super::SolverBackend for SweepBackend {
    fn name(&self) -> &'static str {
        "auto"
    }

    fn solve(&mut self, input: &SseInput<'_>) -> Result<SseSolution> {
        input.validate()?;
        SseSolver::coverage_rates_into(input, &mut self.rates);
        let buffers = self.spare.take().unwrap_or_default();
        Ok(solve_into(input, &self.rates, &mut self.order, buffers))
    }

    fn recycle(&mut self, solution: SseSolution) {
        self.spare = Some((solution.coverage, solution.budget_split));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PayoffTable;
    use crate::sse::SolverBackend;

    fn input<'a>(
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

    const TABLE1: [f64; 7] = [196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27];

    #[test]
    fn zero_budget_levels_at_the_top_uncovered_payoff() {
        let payoffs = PayoffTable::paper_table2();
        let costs = [1.0; 7];
        let estimates = [50.0; 7];
        let sol = solve(&input(&payoffs, &costs, &estimates, 0.0)).unwrap();
        assert!(sol.coverage.iter().all(|&c| c == 0.0));
        assert!(sol.budget_split.iter().all(|&b| b == 0.0));
        assert_eq!(sol.best_response, AlertTypeId(6));
        assert_eq!(sol.attacker_utility, 800.0);
    }

    #[test]
    fn single_type_games_take_the_closed_form_bit_for_bit() {
        let payoffs = PayoffTable::paper_single_type();
        let costs = [1.0];
        for budget in [0.0, 3.0, 17.5, 500.0] {
            for estimate in [0.0, 1.0, 20.0, 150.0] {
                let estimates = [estimate];
                let input = input(&payoffs, &costs, &estimates, budget);
                assert_eq!(
                    solve(&input).unwrap(),
                    SseSolver::new().solve(&input).unwrap()
                );
            }
        }
    }

    #[test]
    fn backend_is_stateless_and_recycles_its_buffers() {
        let payoffs = PayoffTable::paper_table2();
        let costs = [1.0; 7];
        let mut backend = SweepBackend::new();
        let probe = input(&payoffs, &costs, &TABLE1, 40.0);
        let first = backend.solve(&probe).unwrap();
        backend.recycle(first.clone());
        let second = backend.solve(&probe).unwrap();
        assert_eq!(first, second);
        assert_eq!(second, solve(&probe).unwrap());
        assert!(second.stats.fast_path);
        assert_eq!(second.stats.lp_solves, 0);
    }
}
