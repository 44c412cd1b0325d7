//! The correctness check: every served decision and closed day must equal
//! an in-process replay of the same requests, bit for bit.
//!
//! `AlertOutcome::solve_micros` is wall-clock time, so it is left out of the
//! comparison; every other field is compared, floats by their IEEE-754 bits.

use sag_core::{AlertOutcome, CycleResult, SignalingScheme};

fn same_f64(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn same_scheme(a: &SignalingScheme, b: &SignalingScheme) -> bool {
    same_f64(a.p1, b.p1) && same_f64(a.q1, b.q1) && same_f64(a.p0, b.p0) && same_f64(a.q0, b.q0)
}

/// Whether two outcomes agree bitwise on every field but `solve_micros`.
#[must_use]
pub fn same_outcome(a: &AlertOutcome, b: &AlertOutcome) -> bool {
    a.index == b.index
        && a.day == b.day
        && a.time == b.time
        && a.type_id == b.type_id
        && same_f64(a.ossp_utility, b.ossp_utility)
        && same_f64(a.online_sse_utility, b.online_sse_utility)
        && same_f64(a.offline_sse_utility, b.offline_sse_utility)
        && same_f64(a.ossp_attacker_utility, b.ossp_attacker_utility)
        && same_f64(a.online_attacker_utility, b.online_attacker_utility)
        && same_scheme(&a.ossp_scheme, &b.ossp_scheme)
        && a.ossp_deterred == b.ossp_deterred
        && a.ossp_applied == b.ossp_applied
        && same_f64(a.coverage_ossp, b.coverage_ossp)
        && same_f64(a.coverage_online, b.coverage_online)
        && a.best_response == b.best_response
        && same_f64(a.budget_after_ossp, b.budget_after_ossp)
        && same_f64(a.budget_after_online, b.budget_after_online)
        && a.sse_stats == b.sse_stats
}

/// Whether two closed days agree: same length, every outcome per
/// [`same_outcome`], and the same offline baseline and solver totals.
#[must_use]
pub fn same_result(a: &CycleResult, b: &CycleResult) -> bool {
    a.day == b.day
        && a.outcomes.len() == b.outcomes.len()
        && a.outcomes
            .iter()
            .zip(&b.outcomes)
            .all(|(x, y)| same_outcome(x, y))
        && same_f64(a.offline_auditor_utility, b.offline_auditor_utility)
        && same_f64(a.offline_attacker_utility, b.offline_attacker_utility)
        && a.offline_coverage.len() == b.offline_coverage.len()
        && a.offline_coverage
            .iter()
            .zip(&b.offline_coverage)
            .all(|(x, y)| same_f64(*x, *y))
        && a.sse_totals == b.sse_totals
        && same_f64(a.certified_eps_loss, b.certified_eps_loss)
}
