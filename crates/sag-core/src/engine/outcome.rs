//! Per-alert and per-day result types of the streaming engine.

use crate::scheme::SignalingScheme;
use crate::sse::{SseSolveStats, SseTotals};
use sag_sim::{AlertTypeId, TimeOfDay};

/// Everything the engine recorded about one processed alert.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertOutcome {
    /// Index of the alert within the day (0-based).
    pub index: usize,
    /// Day the alert belongs to.
    pub day: u32,
    /// Arrival time.
    pub time: TimeOfDay,
    /// Alert type.
    pub type_id: AlertTypeId,
    /// Auditor's expected utility under the OSSP (with signaling).
    pub ossp_utility: f64,
    /// Auditor's expected utility under the online SSE (no signaling).
    pub online_sse_utility: f64,
    /// Auditor's expected utility under the offline SSE (flat baseline).
    pub offline_sse_utility: f64,
    /// Attacker's expected utility under the OSSP.
    pub ossp_attacker_utility: f64,
    /// Attacker's expected utility under the online SSE.
    pub online_attacker_utility: f64,
    /// The signaling scheme applied to this alert in the OSSP world.
    pub ossp_scheme: SignalingScheme,
    /// Whether the OSSP fully deterred an attack on this alert.
    pub ossp_deterred: bool,
    /// Whether the OSSP was actually applied to this alert (its type equals
    /// the attacker's best-response type); otherwise the online SSE was used.
    pub ossp_applied: bool,
    /// Marginal coverage of this alert's type in the OSSP world.
    pub coverage_ossp: f64,
    /// Marginal coverage of this alert's type in the online-SSE world.
    pub coverage_online: f64,
    /// The attacker's best-response type under the online SSE of the OSSP
    /// world at this point of the day.
    pub best_response: AlertTypeId,
    /// Remaining budget in the OSSP world after processing this alert.
    pub budget_after_ossp: f64,
    /// Remaining budget in the online-SSE world after processing this alert.
    pub budget_after_online: f64,
    /// Wall-clock time spent computing the SSE + OSSP for this alert, in
    /// microseconds (the per-alert optimization cost the paper reports).
    pub solve_micros: u64,
    /// Solver-work statistics of the OSSP-world SSE computation for this
    /// alert (LPs solved, simplex pivots).
    pub sse_stats: SseSolveStats,
}

/// The result of replaying one audit cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleResult {
    /// Day index of the replayed test day.
    pub day: u32,
    /// Per-alert outcomes in chronological order.
    pub outcomes: Vec<AlertOutcome>,
    /// The offline SSE baseline solved for this cycle.
    pub offline_auditor_utility: f64,
    /// The offline SSE attacker utility.
    pub offline_attacker_utility: f64,
    /// Offline coverage per type.
    pub offline_coverage: Vec<f64>,
    /// Aggregate solver work of the OSSP-world SSE solves over this day
    /// (solves, LPs, pivots).
    pub sse_totals: SseTotals,
    /// Always `0.0`: every solve is exact, so no utility is given up. The
    /// wire and WAL formats carry the field.
    pub certified_eps_loss: f64,
}

impl CycleResult {
    /// Number of alerts processed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the day had no alerts.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Mean auditor utility over the day under the OSSP, or `None` for a
    /// zero-alert day (so empty days cannot silently skew aggregates).
    #[must_use]
    pub fn mean_ossp_utility(&self) -> Option<f64> {
        mean(self.outcomes.iter().map(|o| o.ossp_utility))
    }

    /// Mean auditor utility over the day under the online SSE, or `None`
    /// for a zero-alert day.
    #[must_use]
    pub fn mean_online_utility(&self) -> Option<f64> {
        mean(self.outcomes.iter().map(|o| o.online_sse_utility))
    }

    /// Mean auditor utility over the day under the offline SSE. Defined even
    /// for a zero-alert day: the offline baseline is a whole-day solve.
    #[must_use]
    pub fn mean_offline_utility(&self) -> f64 {
        self.offline_auditor_utility
    }

    /// Mean per-alert optimization time in microseconds, or `None` for a
    /// zero-alert day.
    #[must_use]
    pub fn mean_solve_micros(&self) -> Option<f64> {
        mean(self.outcomes.iter().map(|o| o.solve_micros as f64))
    }

    /// Fraction of alerts for which the OSSP utility is at least the online
    /// SSE utility (Theorem 2 predicts 1.0 up to numerical tolerance).
    /// Vacuously 1.0 for a zero-alert day.
    #[must_use]
    pub fn fraction_ossp_not_worse(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 1.0;
        }
        let good = self
            .outcomes
            .iter()
            .filter(|o| o.ossp_utility >= o.online_sse_utility - 1e-9)
            .count();
        good as f64 / self.outcomes.len() as f64
    }
}

/// Mean of an iterator, `None` when it yields nothing.
fn mean(values: impl Iterator<Item = f64>) -> Option<f64> {
    let mut sum = 0.0;
    let mut count = 0usize;
    for v in values {
        sum += v;
        count += 1;
    }
    if count == 0 {
        None
    } else {
        Some(sum / count as f64)
    }
}
