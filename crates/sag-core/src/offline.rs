//! The offline SSE baseline.
//!
//! Without signaling, the audit game can be solved once, offline, at the start
//! of the audit cycle: view the whole day's (estimated) alerts as targets and
//! compute the SSE budget allocation against the expected daily totals. The
//! resulting coverage probabilities — and hence the auditor's expected
//! utility — stay fixed for every alert of the day, which is why the offline
//! SSE series in the paper's Figures 2 and 3 is flat.
//!
//! The solve goes through the same exact breakpoint sweep as the default
//! online backend ([`crate::sse::sweep`]), so the baseline and the online
//! worlds use one equilibrium rule.

use crate::model::PayoffTable;
use crate::sse::{sweep, SseInput, SseSolution};
use crate::Result;
use sag_sim::AlertTypeId;

/// A solved offline SSE: fixed coverage and per-alert utilities for a cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct OfflineSse {
    solution: SseSolution,
}

impl OfflineSse {
    /// Solve the offline SSE for a cycle.
    ///
    /// * `payoffs`, `audit_costs` — the game configuration;
    /// * `expected_daily_totals` — expected number of alerts per type over the
    ///   whole day (from the historical arrival model);
    /// * `budget` — the full cycle budget.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SagError::InvalidConfig`] for malformed inputs.
    pub fn solve(
        payoffs: &PayoffTable,
        audit_costs: &[f64],
        expected_daily_totals: &[f64],
        budget: f64,
    ) -> Result<Self> {
        let input = SseInput {
            payoffs,
            audit_costs,
            future_estimates: expected_daily_totals,
            budget,
        };
        let solution = sweep::solve(&input)?;
        Ok(OfflineSse { solution })
    }

    /// The underlying SSE solution.
    #[must_use]
    pub fn solution(&self) -> &SseSolution {
        &self.solution
    }

    /// Fixed coverage probability of a type for the whole day.
    #[must_use]
    pub fn coverage_of(&self, id: AlertTypeId) -> f64 {
        self.solution.coverage_of(id)
    }

    /// The auditor's expected utility, identical for every alert of the day —
    /// the flat line of the paper's figures.
    #[must_use]
    pub fn auditor_utility(&self) -> f64 {
        self.solution.auditor_utility
    }

    /// The attacker's expected utility at the offline equilibrium.
    #[must_use]
    pub fn attacker_utility(&self) -> f64 {
        self.solution.attacker_utility
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GameConfig;

    #[test]
    fn offline_single_type_matches_direct_sse() {
        let config = GameConfig::paper_single_type();
        let totals = vec![196.57];
        let offline =
            OfflineSse::solve(&config.payoffs, &config.audit_costs, &totals, config.budget)
                .unwrap();
        // Coverage ~ B / E[total] ~ 20 / 196.57 ~ 0.102.
        let c = offline.coverage_of(AlertTypeId(0));
        assert!((c - 20.0 / 196.57).abs() < 0.02, "coverage {c}");
        // Utility is the linear payoff at that coverage.
        let p = config.payoffs.get(AlertTypeId(0));
        assert!((offline.auditor_utility() - p.auditor_expected(c)).abs() < 1e-9);
        assert!((offline.attacker_utility() - p.attacker_expected(c)).abs() < 1e-9);
    }

    #[test]
    fn offline_multi_type_is_consistent_and_budget_feasible() {
        let config = GameConfig::paper_multi_type();
        let totals = vec![196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27];
        let offline =
            OfflineSse::solve(&config.payoffs, &config.audit_costs, &totals, config.budget)
                .unwrap();
        let spent: f64 = offline.solution().budget_split.iter().sum();
        assert!(spent <= config.budget + 1e-6);
        assert!(
            offline.auditor_utility() <= 0.0,
            "tight budgets mean expected losses"
        );
        assert!(offline.attacker_utility() > 0.0);
    }

    #[test]
    fn more_budget_never_hurts_offline() {
        let config = GameConfig::paper_multi_type();
        let totals = vec![196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27];
        let low = OfflineSse::solve(&config.payoffs, &config.audit_costs, &totals, 20.0).unwrap();
        let high = OfflineSse::solve(&config.payoffs, &config.audit_costs, &totals, 200.0).unwrap();
        assert!(high.auditor_utility() >= low.auditor_utility() - 1e-9);
        assert!(high.attacker_utility() <= low.attacker_utility() + 1e-9);
    }
}
