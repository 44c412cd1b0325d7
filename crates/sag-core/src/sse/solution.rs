//! The online SSE solution and its per-solve solver-work statistics.

use sag_sim::AlertTypeId;

/// Per-solve statistics of one online SSE computation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SseSolveStats {
    /// Number of candidate LPs solved (0 when no LP was built).
    pub lp_solves: u32,
    /// Total simplex pivots across the candidate LPs.
    pub pivots: u32,
    /// Whether the solve built no LP (the sweep or the single-type closed
    /// form).
    pub fast_path: bool,
}

/// Solver-work counters summed over the solves of one day (OSSP world),
/// reported as [`crate::engine::CycleResult::sse_totals`]. The warm-start,
/// pruning and ε counters always read 0: every solve is cold and exact.
/// The wire format carries every field, and the end-to-end benchmark in
/// `perfbench/` still reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SseTotals {
    /// SSE computations performed.
    pub solves: u64,
    /// Candidate LPs solved.
    pub lp_solves: u64,
    /// Always 0.
    pub warm_attempts: u64,
    /// Always 0.
    pub warm_hits: u64,
    /// Total simplex pivots.
    pub pivots: u64,
    /// Solves that built no LP (the sweep or the single-type closed form).
    pub fast_path_solves: u64,
    /// Always 0.
    pub pruned_lps: u64,
    /// Always 0.
    pub eps_skipped_lps: u64,
}

impl SseTotals {
    /// Count one solve with its per-solve statistics.
    pub(crate) fn record(&mut self, stats: &SseSolveStats) {
        self.solves += 1;
        self.lp_solves += u64::from(stats.lp_solves);
        self.pivots += u64::from(stats.pivots);
        self.fast_path_solves += u64::from(stats.fast_path);
    }
}

/// The online SSE: marginal coverage per type and the equilibrium utilities.
#[derive(Debug, Clone, PartialEq)]
pub struct SseSolution {
    /// Marginal audit (coverage) probability `θ^t` per type.
    pub coverage: Vec<f64>,
    /// Long-term budget split `B^t` per type (the LP's decision variables).
    pub budget_split: Vec<f64>,
    /// The attacker's best-response type at equilibrium.
    pub best_response: AlertTypeId,
    /// Auditor's expected utility against the best-response attack — the
    /// optimal objective value of LP (2), which is what the paper plots as
    /// the *online SSE* series.
    pub auditor_utility: f64,
    /// Attacker's expected utility at equilibrium.
    pub attacker_utility: f64,
    /// How this solution was computed (solver work).
    pub stats: SseSolveStats,
}

impl SseSolution {
    /// Auditor utility accounting for deterrence: when the attacker's
    /// equilibrium utility is negative he simply does not attack, and the
    /// auditor's realised utility is 0 (Theorem 2's first case).
    #[must_use]
    pub fn effective_auditor_utility(&self) -> f64 {
        if self.attacker_utility < 0.0 {
            0.0
        } else {
            self.auditor_utility
        }
    }

    /// Coverage of a given type.
    #[must_use]
    pub fn coverage_of(&self, id: AlertTypeId) -> f64 {
        self.coverage.get(id.index()).copied().unwrap_or(0.0)
    }
}
