//! Lock-free live counters exported from the service hot path.
//!
//! A [`ServiceCounters`] is a block of [`AtomicU64`]s shared (through an
//! `Arc`) between an [`crate::AuditService`] and whatever observability
//! surface wants to watch it — the `sag-net` server renders a snapshot on
//! its plaintext metrics endpoint. Every counter is updated with relaxed
//! atomics on the [`crate::AuditService::handle`] path: no locks, no
//! allocation, one `fetch_add` per field touched, so instrumentation cost
//! is noise next to a single SSE solve.
//!
//! Utilities are accumulated as `f64` sums stored in their IEEE-754 bit
//! patterns, updated with a compare-exchange loop — the standard lock-free
//! "atomic f64 add". Sums are exact in the same sense a single-threaded
//! `+=` loop is; snapshot readers divide by the alert count for means.
//!
//! Counters are monotonically non-decreasing and a
//! [`snapshot`](ServiceCounters::snapshot) is *not* a consistent cut while requests
//! are in flight — individual fields may be mid-update. Once the service is
//! quiescent, the identity
//! `requests == days_opened + alerts + days_closed + errors` holds
//! exactly, and the solver-work counters equal the sums of the served
//! [`AlertOutcome`]s' `sse_stats` (the CI network-smoke job and the
//! metrics-consistency test both assert this).

use sag_core::AlertOutcome;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Lock-free counters of everything an [`crate::AuditService`] served
/// through [`handle`](crate::AuditService::handle).
#[derive(Debug, Default)]
pub struct ServiceCounters {
    /// Requests received (including ones answered with an error).
    requests: AtomicU64,
    /// Successful `OpenDay` requests.
    days_opened: AtomicU64,
    /// Successful `FinishDay` requests.
    days_closed: AtomicU64,
    /// Successful `PushAlert` requests (warning decisions committed).
    alerts: AtomicU64,
    /// Requests answered with a [`crate::ServiceError`].
    errors: AtomicU64,
    /// Candidate LPs solved across all served alerts.
    lp_solves: AtomicU64,
    /// Total simplex pivots.
    pivots: AtomicU64,
    /// Alerts answered without an LP (the sweep or the closed form).
    fast_path_solves: AtomicU64,
    /// Summed time of the sessions' `push_alert` calls, in nanoseconds.
    solve_nanos: AtomicU64,
    /// Duplicate deliveries suppressed by the request-id dedup window
    /// (replayed-from-cache plus stale-beyond-window). These are *not*
    /// requests: the command was never re-applied.
    dup_suppressed: AtomicU64,
    /// The subset of suppressed duplicates answered by replaying the
    /// cached response bitwise.
    dup_replayed: AtomicU64,
    /// Summed OSSP auditor utility, as `f64` bits (see the module docs).
    ossp_utility_bits: AtomicU64,
    /// Summed online-SSE auditor utility, as `f64` bits.
    online_utility_bits: AtomicU64,
}

/// Add `v` to an `f64` accumulator stored as its bit pattern in an
/// [`AtomicU64`] — the standard lock-free compare-exchange loop. Public so
/// other observability surfaces (the `sag-net` per-tenant gauges) can share
/// the idiom instead of re-deriving it.
pub fn add_f64(cell: &AtomicU64, v: f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(current) + v).to_bits();
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(observed) => current = observed,
        }
    }
}

impl ServiceCounters {
    /// Fresh counters, all zero.
    #[must_use]
    pub fn new() -> Self {
        ServiceCounters::default()
    }

    /// One request arrived (called before the outcome is known).
    pub(crate) fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// A day was opened.
    pub(crate) fn record_open(&self) {
        self.days_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// A day was closed.
    pub(crate) fn record_close(&self) {
        self.days_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// A request failed with a service error.
    pub(crate) fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A duplicate delivery was answered by replaying the cached response.
    pub(crate) fn record_dup_replayed(&self) {
        self.dup_suppressed.fetch_add(1, Ordering::Relaxed);
        self.dup_replayed.fetch_add(1, Ordering::Relaxed);
    }

    /// A duplicate delivery was suppressed but its cached response had
    /// already been evicted from the window (answered `Stale`).
    pub(crate) fn record_dup_stale(&self) {
        self.dup_suppressed.fetch_add(1, Ordering::Relaxed);
    }

    /// A warning decision was committed; fold its solver work and utilities
    /// into the totals.
    pub(crate) fn record_outcome(&self, outcome: &AlertOutcome) {
        self.alerts.fetch_add(1, Ordering::Relaxed);
        let stats = &outcome.sse_stats;
        self.lp_solves
            .fetch_add(u64::from(stats.lp_solves), Ordering::Relaxed);
        self.pivots
            .fetch_add(u64::from(stats.pivots), Ordering::Relaxed);
        self.fast_path_solves
            .fetch_add(u64::from(stats.fast_path), Ordering::Relaxed);
        add_f64(&self.ossp_utility_bits, outcome.ossp_utility);
        add_f64(&self.online_utility_bits, outcome.online_sse_utility);
    }

    /// A session took `elapsed` to decide one alert.
    pub(crate) fn record_solve(&self, elapsed: Duration) {
        self.solve_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// A relaxed-atomic read of every counter. See the module docs for what
    /// a snapshot does and does not guarantee.
    #[must_use]
    pub fn snapshot(&self) -> CountersSnapshot {
        CountersSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            days_opened: self.days_opened.load(Ordering::Relaxed),
            days_closed: self.days_closed.load(Ordering::Relaxed),
            alerts: self.alerts.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            lp_solves: self.lp_solves.load(Ordering::Relaxed),
            pivots: self.pivots.load(Ordering::Relaxed),
            fast_path_solves: self.fast_path_solves.load(Ordering::Relaxed),
            solve_micros: self.solve_nanos.load(Ordering::Relaxed) / 1_000,
            dup_suppressed: self.dup_suppressed.load(Ordering::Relaxed),
            dup_replayed: self.dup_replayed.load(Ordering::Relaxed),
            ossp_utility_sum: f64::from_bits(self.ossp_utility_bits.load(Ordering::Relaxed)),
            online_utility_sum: f64::from_bits(self.online_utility_bits.load(Ordering::Relaxed)),
        }
    }
}

/// One point-in-time read of a [`ServiceCounters`]. `Default` is the
/// all-zero snapshot — the identity element of [`merged`](Self::merged),
/// so shard snapshots fold cleanly.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CountersSnapshot {
    /// Requests received (including ones answered with an error).
    pub requests: u64,
    /// Successful `OpenDay` requests.
    pub days_opened: u64,
    /// Successful `FinishDay` requests.
    pub days_closed: u64,
    /// Warning decisions committed.
    pub alerts: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Candidate LPs solved.
    pub lp_solves: u64,
    /// Total simplex pivots.
    pub pivots: u64,
    /// Alerts answered without an LP (the sweep or the closed form).
    pub fast_path_solves: u64,
    /// Summed time of the sessions' `push_alert` calls, microseconds. The
    /// service measures it around each call, WAL append excluded.
    pub solve_micros: u64,
    /// Duplicate deliveries suppressed by the dedup window (not counted
    /// in `requests`: nothing was re-applied).
    pub dup_suppressed: u64,
    /// Suppressed duplicates answered by replaying the cached response.
    pub dup_replayed: u64,
    /// Summed OSSP auditor utility.
    pub ossp_utility_sum: f64,
    /// Summed online-SSE auditor utility.
    pub online_utility_sum: f64,
}

impl CountersSnapshot {
    /// Field-wise sum of two snapshots — how independent services' counters
    /// (one per cluster shard) aggregate into one fleet-wide view. Every
    /// field is a sum (counts and utility sums alike), so the quiescent
    /// identity and the derived rates are computed on the merged snapshot
    /// exactly as on a single service's.
    #[must_use]
    pub fn merged(&self, other: &CountersSnapshot) -> CountersSnapshot {
        CountersSnapshot {
            requests: self.requests + other.requests,
            days_opened: self.days_opened + other.days_opened,
            days_closed: self.days_closed + other.days_closed,
            alerts: self.alerts + other.alerts,
            errors: self.errors + other.errors,
            lp_solves: self.lp_solves + other.lp_solves,
            pivots: self.pivots + other.pivots,
            fast_path_solves: self.fast_path_solves + other.fast_path_solves,
            solve_micros: self.solve_micros + other.solve_micros,
            dup_suppressed: self.dup_suppressed + other.dup_suppressed,
            dup_replayed: self.dup_replayed + other.dup_replayed,
            ossp_utility_sum: self.ossp_utility_sum + other.ossp_utility_sum,
            online_utility_sum: self.online_utility_sum + other.online_utility_sum,
        }
    }

    /// Sum any number of snapshots (an empty iterator yields the zero
    /// snapshot).
    #[must_use]
    pub fn sum<'a>(snapshots: impl IntoIterator<Item = &'a CountersSnapshot>) -> CountersSnapshot {
        snapshots
            .into_iter()
            .fold(CountersSnapshot::default(), |sum, s| sum.merged(s))
    }

    /// The quiescent accounting identity: once no request is in flight,
    /// every request was exactly one of an open, an alert decision, a close,
    /// or an error. Holds per service and — because [`merged`](Self::merged)
    /// sums both sides — cluster-wide across any number of shards.
    #[must_use]
    pub fn quiescent_identity_holds(&self) -> bool {
        self.requests == self.days_opened + self.alerts + self.days_closed + self.errors
    }

    /// Mean OSSP auditor utility per served alert; 0 before the first alert.
    #[must_use]
    pub fn mean_ossp_utility(&self) -> f64 {
        if self.alerts == 0 {
            0.0
        } else {
            self.ossp_utility_sum / self.alerts as f64
        }
    }

    /// Mean online-SSE auditor utility per served alert.
    #[must_use]
    pub fn mean_online_utility(&self) -> f64 {
        if self.alerts == 0 {
            0.0
        } else {
            self.online_utility_sum / self.alerts as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_accumulation_is_exact_for_sequential_adds() {
        let counters = ServiceCounters::new();
        let mut reference = 0.0f64;
        for i in 0..100 {
            let v = -(i as f64) * 0.37;
            add_f64(&counters.ossp_utility_bits, v);
            reference += v;
        }
        assert_eq!(counters.snapshot().ossp_utility_sum, reference);
    }

    #[test]
    fn merged_snapshots_sum_field_wise_and_keep_the_identity() {
        let a = CountersSnapshot {
            requests: 7,
            days_opened: 2,
            days_closed: 2,
            alerts: 3,
            errors: 0,
            ossp_utility_sum: -1.5,
            ..CountersSnapshot::default()
        };
        let b = CountersSnapshot {
            requests: 4,
            days_opened: 1,
            days_closed: 1,
            alerts: 1,
            errors: 1,
            ossp_utility_sum: -2.25,
            ..CountersSnapshot::default()
        };
        assert!(a.quiescent_identity_holds());
        assert!(b.quiescent_identity_holds());
        let merged = a.merged(&b);
        assert_eq!(merged.requests, 11);
        assert_eq!(merged.alerts, 4);
        assert_eq!(merged.errors, 1);
        assert_eq!(merged.ossp_utility_sum, -3.75);
        assert!(merged.quiescent_identity_holds());
        assert_eq!(CountersSnapshot::sum([&a, &b]), merged);
        assert_eq!(CountersSnapshot::sum([]), CountersSnapshot::default());
        // A violated identity on either side is visible in the sum.
        let broken = CountersSnapshot {
            requests: 5,
            ..CountersSnapshot::default()
        };
        assert!(!a.merged(&broken).quiescent_identity_holds());
    }

    #[test]
    fn derived_rates_handle_zero_denominators() {
        let empty = ServiceCounters::new().snapshot();
        assert_eq!(empty.mean_ossp_utility(), 0.0);
        assert_eq!(empty.mean_online_utility(), 0.0);
    }
}
