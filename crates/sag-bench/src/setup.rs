//! Shared game-setup helpers for benches and experiment drivers.
//!
//! The Criterion benches and the `repro_*` binaries exercise the same
//! handful of workloads (the paper's single-type and 7-type games plus
//! synthetic `n`-type scaling games); this module is the single place that
//! defines them so configuration literals are not duplicated across bench
//! files.

use sag_core::model::{GameConfig, PayoffTable, Payoffs};
use sag_core::sse::SseInput;

/// Budget used by the single-type per-alert benches (the paper's Figure 2
/// game, mid-day).
pub const SINGLE_TYPE_BUDGET: f64 = 17.5;
/// Budget used by the multi-type per-alert benches (the paper's Figure 3
/// game, mid-day).
pub const MULTI_TYPE_BUDGET: f64 = 42.0;

/// Mid-day future-alert estimate for the single-type game.
#[must_use]
pub fn single_type_estimates() -> Vec<f64> {
    vec![150.0]
}

/// Mid-day future-alert estimates for the paper's 7-type game.
#[must_use]
pub fn multi_type_estimates() -> Vec<f64> {
    vec![150.0, 22.0, 110.0, 8.0, 19.0, 11.0, 33.0]
}

/// A synthetic `n`-type payoff table with paper-like magnitudes, used by the
/// scaling benches.
#[must_use]
pub fn synthetic_payoffs(n: usize) -> PayoffTable {
    PayoffTable::new(
        (0..n)
            .map(|i| {
                Payoffs::new(
                    100.0 + i as f64 * 50.0,
                    -400.0 - i as f64 * 100.0,
                    -2000.0 - i as f64 * 300.0,
                    400.0 + i as f64 * 30.0,
                )
            })
            .collect(),
    )
}

/// Unit audit costs for a synthetic `n`-type game.
#[must_use]
pub fn synthetic_costs(n: usize) -> Vec<f64> {
    vec![1.0; n]
}

/// Future-alert estimates for a synthetic `n`-type game.
#[must_use]
pub fn synthetic_estimates(n: usize) -> Vec<f64> {
    (0..n).map(|i| 20.0 + 15.0 * i as f64).collect()
}

/// A complete synthetic `n`-type workload: payoffs, costs and estimates.
#[must_use]
pub fn synthetic_game(n: usize) -> (PayoffTable, Vec<f64>, Vec<f64>) {
    (
        synthetic_payoffs(n),
        synthetic_costs(n),
        synthetic_estimates(n),
    )
}

/// Borrow a synthetic workload as an [`SseInput`].
#[must_use]
pub fn sse_input<'a>(
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

/// The paper's single-type game configuration.
#[must_use]
pub fn single_type_game() -> GameConfig {
    GameConfig::paper_single_type()
}

/// The paper's 7-type game configuration.
#[must_use]
pub fn multi_type_game() -> GameConfig {
    GameConfig::paper_multi_type()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_games_are_valid() {
        for n in [1, 2, 5, 16] {
            let (payoffs, costs, estimates) = synthetic_game(n);
            assert_eq!(payoffs.len(), n);
            assert_eq!(costs.len(), n);
            assert_eq!(estimates.len(), n);
            assert!(payoffs.validate().is_ok());
        }
    }

    #[test]
    fn paper_estimates_match_game_shapes() {
        assert_eq!(
            single_type_estimates().len(),
            single_type_game().num_types()
        );
        assert_eq!(multi_type_estimates().len(), multi_type_game().num_types());
    }
}
