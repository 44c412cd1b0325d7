//! An independent certificate that a solution really is the online SSE.
//!
//! [`certify`] re-derives optimality from the payoffs alone — it shares no
//! code with either solver. A solution passes when:
//!
//! 1. every `θ_t` lies in `[0, 1]` and equals `ρ_t·B_t`;
//! 2. the budget split spends at most `B`;
//! 3. the reported utilities are the winner's payoffs at its coverage;
//! 4. the winner is a best response: its attacker utility `u` (the *level*)
//!    is at least every type's;
//! 5. the level is minimal: holding any lower level costs at least `B`,
//!    unless `u` already sits at the floor `maxₜ Ua,c(t)`;
//! 6. the winner has the highest auditor utility in the attack set — every
//!    type with `Ua,u(t) > u` could be made a best response at level `u`
//!    with coverage `(Ua,u(t) − u)/D_t`, and none of them may beat it.
//!
//! Checks 4–6 together say that no candidate best-response type admits a
//! better commitment, which is the multiple-LP method's optimality
//! condition. Tolerances scale with the largest payoff magnitude (utilities)
//! and with the cost of full coverage (spend), so the checker means the same
//! thing at payoffs of 1e-6 and of 1e9.

use super::input::SseInput;
use super::solution::SseSolution;
use std::fmt;

/// Relative tolerance of every check.
const TOL: f64 = 1e-9;

/// Which condition of [`certify`] failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// The solution has the wrong number of types or an out-of-range winner.
    Shape,
    /// A coverage probability lies outside `[0, 1]`.
    CoverageRange,
    /// A coverage probability differs from `ρ_t·B_t`.
    CoverageRate,
    /// The budget split spends more than the budget.
    Budget,
    /// A reported utility differs from the winner's payoff at its coverage.
    Utilities,
    /// Some type gives the attacker more than the winner.
    BestResponse,
    /// A lower attacker-utility level fits in the budget.
    MinimalLevel,
    /// A type in the attack set would give the auditor more.
    Optimality,
}

/// A failed certificate: the check, the type it failed on (if any), and the
/// offending value next to the bound it broke.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Violation {
    /// The failed check.
    pub check: Check,
    /// The type the check failed on, when it is about one type.
    pub type_index: Option<usize>,
    /// The offending value.
    pub value: f64,
    /// The bound it broke (tolerance included).
    pub bound: f64,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SSE certificate check {:?} failed", self.check)?;
        if let Some(t) = self.type_index {
            write!(f, " on type {t}")?;
        }
        write!(f, ": {} against bound {}", self.value, self.bound)
    }
}

impl std::error::Error for Violation {}

/// Certify that `solution` is an online SSE of `input` (see the module
/// docs for the six checks and their tolerances).
///
/// # Errors
///
/// Returns the first [`Violation`] found.
pub fn certify(input: &SseInput<'_>, solution: &SseSolution) -> Result<(), Violation> {
    let payoffs = input.payoffs.all();
    let n = payoffs.len();
    let winner = solution.best_response.index();
    let fail = |check, type_index, value, bound| {
        Err(Violation {
            check,
            type_index,
            value,
            bound,
        })
    };
    if n == 0
        || solution.coverage.len() != n
        || solution.budget_split.len() != n
        || input.audit_costs.len() != n
        || input.future_estimates.len() != n
        || winner >= n
    {
        return fail(Check::Shape, None, solution.coverage.len() as f64, n as f64);
    }
    let rates: Vec<f64> = input
        .future_estimates
        .iter()
        .zip(input.audit_costs)
        .map(|(&lambda, &cost)| sag_forecast::expected_inverse_positive(lambda) / cost)
        .collect();
    let tol_utility = TOL * input.payoffs.magnitude();
    let full_cover: f64 = rates.iter().map(|r| 1.0 / r).sum();
    let tol_spend = TOL * (input.budget + full_cover);

    // 1–2: a feasible commitment.
    for (t, (&theta, &split)) in solution
        .coverage
        .iter()
        .zip(&solution.budget_split)
        .enumerate()
    {
        if !(-TOL..=1.0 + TOL).contains(&theta) {
            return fail(Check::CoverageRange, Some(t), theta, theta.clamp(0.0, 1.0));
        }
        let implied = rates[t] * split;
        if (theta - implied).abs() > TOL {
            return fail(Check::CoverageRate, Some(t), theta, implied);
        }
    }
    let spent: f64 = solution.budget_split.iter().sum();
    if spent > input.budget + tol_spend {
        return fail(Check::Budget, None, spent, input.budget + tol_spend);
    }

    // 3: the reported utilities belong to the winner.
    let w = &payoffs[winner];
    let theta_w = solution.coverage[winner];
    let level = w.attacker_expected(theta_w);
    let auditor = w.auditor_expected(theta_w);
    if (solution.attacker_utility - level).abs() > tol_utility {
        return fail(
            Check::Utilities,
            Some(winner),
            solution.attacker_utility,
            level,
        );
    }
    if (solution.auditor_utility - auditor).abs() > tol_utility {
        return fail(
            Check::Utilities,
            Some(winner),
            solution.auditor_utility,
            auditor,
        );
    }

    // 4: the winner is a best response.
    for (t, p) in payoffs.iter().enumerate() {
        let utility = p.attacker_expected(solution.coverage[t]);
        if utility > level + tol_utility {
            return fail(Check::BestResponse, Some(t), utility, level + tol_utility);
        }
    }

    // 5: no lower level is affordable.
    let floor = payoffs
        .iter()
        .map(|p| p.attacker_covered)
        .fold(f64::NEG_INFINITY, f64::max);
    if level > floor + tol_utility {
        let below = level - tol_utility;
        let spend: f64 = payoffs
            .iter()
            .zip(&rates)
            .map(|(p, rate)| {
                let theta =
                    (p.attacker_uncovered - below) / (p.attacker_uncovered - p.attacker_covered);
                theta.clamp(0.0, 1.0) / rate
            })
            .sum();
        if spend < input.budget - tol_spend {
            return fail(Check::MinimalLevel, None, spend, input.budget - tol_spend);
        }
    }

    // 6: nothing in the attack set beats the winner.
    for (t, p) in payoffs.iter().enumerate() {
        if p.attacker_uncovered > level + tol_utility {
            let theta = ((p.attacker_uncovered - level)
                / (p.attacker_uncovered - p.attacker_covered))
                .min(1.0);
            let utility = p.auditor_expected(theta);
            if utility > auditor + tol_utility {
                return fail(Check::Optimality, Some(t), utility, auditor + tol_utility);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PayoffTable;
    use crate::sse::SseSolver;
    use sag_sim::AlertTypeId;

    const TABLE1: [f64; 7] = [196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27];

    fn paper_input<'a>(payoffs: &'a PayoffTable, costs: &'a [f64], budget: f64) -> SseInput<'a> {
        SseInput {
            payoffs,
            audit_costs: costs,
            future_estimates: &TABLE1,
            budget,
        }
    }

    fn failed_check(input: &SseInput<'_>, solution: &SseSolution) -> Check {
        certify(input, solution)
            .expect_err("tampered solution")
            .check
    }

    #[test]
    fn lp_solutions_certify() {
        let payoffs = PayoffTable::paper_table2();
        let costs = [1.0; 7];
        for budget in [0.0, 5.0, 50.0, 300.0] {
            let input = paper_input(&payoffs, &costs, budget);
            let solution = SseSolver::new().solve(&input).unwrap();
            assert_eq!(certify(&input, &solution), Ok(()), "budget {budget}");
        }
    }

    #[test]
    fn every_check_catches_its_tampering() {
        let payoffs = PayoffTable::paper_table2();
        let costs = [1.0; 7];
        let input = paper_input(&payoffs, &costs, 50.0);
        // The minimal-spend solution: every covered type sits on the level.
        let good = crate::sse::sweep::solve(&input).unwrap();
        let w = good.best_response.index();
        let other = (w + 1) % 7;

        let mut bad = good.clone();
        bad.coverage.pop();
        assert_eq!(failed_check(&input, &bad), Check::Shape);

        let mut bad = good.clone();
        bad.coverage[other] = 1.5;
        assert_eq!(failed_check(&input, &bad), Check::CoverageRange);

        let mut bad = good.clone();
        bad.budget_split[other] += 0.5;
        assert_eq!(failed_check(&input, &bad), Check::CoverageRate);

        // Over-cover a non-winner consistently: θ and B move together.
        let mut bad = good.clone();
        bad.coverage[other] = 1.0;
        let rate = sag_forecast::expected_inverse_positive(TABLE1[other]);
        bad.budget_split[other] = 1.0 / rate;
        assert_eq!(failed_check(&input, &bad), Check::Budget);

        let mut bad = good.clone();
        bad.auditor_utility += 1.0;
        assert_eq!(failed_check(&input, &bad), Check::Utilities);

        // Drop a non-winner in the attack set to zero coverage.
        let mut bad = good.clone();
        let exposed = (0..7)
            .find(|&t| t != w && good.coverage[t] > 0.0)
            .expect("a second covered type");
        bad.coverage[exposed] = 0.0;
        bad.budget_split[exposed] = 0.0;
        assert_eq!(failed_check(&input, &bad), Check::BestResponse);

        // Leave budget unspent: every covered type backs off to a higher
        // level (still below the winner's uncovered payoff) although the
        // optimal one was affordable.
        let mut bad = good.clone();
        let p = payoffs.get(good.best_response);
        let level = good.attacker_utility
            + 0.5 * good.coverage[w] * (p.attacker_uncovered - p.attacker_covered);
        for (t, p) in payoffs.all().iter().enumerate() {
            let theta = ((p.attacker_uncovered - level)
                / (p.attacker_uncovered - p.attacker_covered))
                .clamp(0.0, 1.0);
            bad.coverage[t] = theta;
            bad.budget_split[t] = theta / sag_forecast::expected_inverse_positive(TABLE1[t]);
        }
        bad.auditor_utility = p.auditor_expected(bad.coverage[w]);
        bad.attacker_utility = p.attacker_expected(bad.coverage[w]);
        assert_eq!(failed_check(&input, &bad), Check::MinimalLevel);
    }

    #[test]
    fn a_worse_candidate_in_the_attack_set_fails_optimality() {
        // Report the worst feasible candidate as the winner, with the
        // optimal coverage vector: the attack set holds a better one.
        let payoffs = PayoffTable::paper_table2();
        let costs = [1.0; 7];
        let input = paper_input(&payoffs, &costs, 50.0);
        let good = crate::sse::sweep::solve(&input).unwrap();
        let (worst, _) = payoffs
            .all()
            .iter()
            .enumerate()
            .filter(|(t, p)| {
                p.attacker_uncovered >= good.attacker_utility && *t != good.best_response.index()
            })
            .map(|(t, p)| (t, p.auditor_expected(good.coverage[t])))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("several feasible candidates");
        let mut bad = good.clone();
        bad.best_response = AlertTypeId(worst as u16);
        let p = payoffs.get(bad.best_response);
        bad.auditor_utility = p.auditor_expected(bad.coverage[worst]);
        bad.attacker_utility = p.attacker_expected(bad.coverage[worst]);
        assert_eq!(failed_check(&input, &bad), Check::Optimality);
    }
}
