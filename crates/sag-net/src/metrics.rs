//! Network-side live metrics: transport counters, per-tenant gauges, and
//! the plaintext rendering served on the metrics endpoint.
//!
//! Two counter families feed the endpoint. The *service* family
//! ([`sag_service::ServiceCounters`], one per shard service) is updated
//! inside [`sag_service::AuditService::handle_tagged`] and knows nothing
//! about sockets.
//! This module adds the *transport* family: connections, frames, queue
//! depth, shed requests — everything the service cannot see — plus
//! per-tenant [`TenantGauge`]s and per-shard queue depths that drive the
//! backpressure decision itself (each pending count *is* its bound's check,
//! not a copy of it).
//!
//! Everything is relaxed atomics; the hot path takes no locks. The tenant
//! registry is a `Mutex<HashMap>`, but connections clone the `Arc` once per
//! session open, not per request.

use sag_service::metrics::{add_f64, CountersSnapshot};
use sag_service::TenantId;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Count one more into `pending` unless it already holds `limit`; a refusal
/// returns the count that blocked it and leaves `pending` as it was.
fn try_charge(pending: &AtomicUsize, limit: usize) -> Result<(), usize> {
    let seen = pending.fetch_add(1, Ordering::Relaxed);
    if seen >= limit {
        pending.fetch_sub(1, Ordering::Relaxed);
        return Err(seen);
    }
    Ok(())
}

/// Per-tenant admission gauge: the pending count used for the quota check,
/// plus what the tenant has been served and what was shed.
#[derive(Debug)]
pub struct TenantGauge {
    tenant: TenantId,
    /// Requests admitted for this tenant and not yet served. Incremented
    /// at admission by the connection thread that read the request,
    /// decremented by that thread once the shard has handled it — so the
    /// gauge bounds the tenant's read-ahead and in-service requests across
    /// all of its connections.
    pending: AtomicUsize,
    /// Requests shed because `pending` had reached the per-tenant limit.
    shed: AtomicU64,
    /// Warning decisions served to this tenant.
    alerts: AtomicU64,
    /// Summed OSSP auditor utility over those decisions, as `f64` bits.
    ossp_utility_bits: AtomicU64,
}

impl TenantGauge {
    fn new(tenant: TenantId) -> Self {
        TenantGauge {
            tenant,
            pending: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
            alerts: AtomicU64::new(0),
            ossp_utility_bits: AtomicU64::new(0),
        }
    }

    /// The tenant this gauge watches.
    #[must_use]
    pub fn tenant(&self) -> &TenantId {
        &self.tenant
    }

    /// Try to admit one request under `limit`: increments `pending` and
    /// returns `Ok(())`, or records a shed and returns the pending count
    /// that blocked admission.
    pub(crate) fn try_admit(&self, limit: usize) -> Result<(), usize> {
        try_charge(&self.pending, limit).inspect_err(|_| {
            self.shed.fetch_add(1, Ordering::Relaxed);
        })
    }

    /// A previously admitted request has been served.
    pub(crate) fn release(&self) {
        self.pending.fetch_sub(1, Ordering::Relaxed);
    }

    /// A warning decision was served to this tenant.
    pub(crate) fn record_decision(&self, ossp_utility: f64) {
        self.alerts.fetch_add(1, Ordering::Relaxed);
        add_f64(&self.ossp_utility_bits, ossp_utility);
    }

    /// Requests currently admitted and not yet served: read ahead by a
    /// connection thread, waiting for their shard's lock, or in service.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::Relaxed)
    }

    /// Requests shed at admission so far.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Warning decisions served so far.
    #[must_use]
    pub fn alerts(&self) -> u64 {
        self.alerts.load(Ordering::Relaxed)
    }

    /// Mean OSSP auditor utility per decision served; 0 before the first.
    #[must_use]
    pub fn mean_ossp_utility(&self) -> f64 {
        let alerts = self.alerts();
        if alerts == 0 {
            0.0
        } else {
            f64::from_bits(self.ossp_utility_bits.load(Ordering::Relaxed)) / alerts as f64
        }
    }
}

/// Transport-level counters for one server, shared across its threads.
#[derive(Debug)]
pub struct NetMetrics {
    started: Instant,
    /// Protocol connections accepted (metrics scrapes not included).
    pub(crate) connections_opened: AtomicU64,
    /// Protocol connections that have closed.
    pub(crate) connections_closed: AtomicU64,
    /// Request frames decoded off sockets.
    pub(crate) frames_in: AtomicU64,
    /// Reply frames written to sockets.
    pub(crate) frames_out: AtomicU64,
    /// Per shard: requests admitted and not yet served.
    queue_depth: Vec<AtomicUsize>,
    /// Requests shed (per-tenant quota or shard queue full), total.
    pub(crate) shed: AtomicU64,
    /// Frames that failed to decode into a request.
    pub(crate) decode_errors: AtomicU64,
    /// Metrics scrapes served.
    pub(crate) scrapes: AtomicU64,
    tenants: Mutex<HashMap<TenantId, Arc<TenantGauge>>>,
}

impl NetMetrics {
    /// Fresh counters for a server of `shards` shards.
    pub(crate) fn new(shards: usize) -> Self {
        NetMetrics {
            started: Instant::now(),
            connections_opened: AtomicU64::new(0),
            connections_closed: AtomicU64::new(0),
            frames_in: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            queue_depth: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
            shed: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
            scrapes: AtomicU64::new(0),
            tenants: Mutex::new(HashMap::new()),
        }
    }

    /// The gauge for `tenant`, creating it on first sight.
    pub(crate) fn tenant_gauge(&self, tenant: &TenantId) -> Arc<TenantGauge> {
        let mut map = self.tenants.lock().expect("tenant registry poisoned");
        map.entry(tenant.clone())
            .or_insert_with(|| Arc::new(TenantGauge::new(tenant.clone())))
            .clone()
    }

    /// Try to admit one request on `shard` under `capacity`: counts it
    /// into the shard's queue depth, or returns `false` when `capacity`
    /// requests are already admitted there and not yet served.
    pub(crate) fn try_enqueue(&self, shard: usize, capacity: usize) -> bool {
        try_charge(&self.queue_depth[shard], capacity).is_ok()
    }

    /// A request admitted on `shard` has been served.
    pub(crate) fn dequeue(&self, shard: usize) {
        self.queue_depth[shard].fetch_sub(1, Ordering::Relaxed);
    }

    /// Requests shed so far (all tenants plus shard-queue sheds).
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Requests admitted and not yet served right now, summed over shards:
    /// read ahead by connection threads, waiting for a shard's lock, or in
    /// service. Each shard's share is bounded by
    /// [`ServerConfig::queue_capacity`](crate::ServerConfig::queue_capacity).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
            .iter()
            .map(|depth| depth.load(Ordering::Relaxed))
            .sum()
    }

    /// Seconds since the server started.
    #[must_use]
    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Render the metrics page: one `name value` line per counter,
    /// per-tenant series labelled `{tenant="..."}` — grep- and
    /// split-friendly for the load generator and the CI smoke job.
    #[must_use]
    pub fn render(&self, service: &CountersSnapshot) -> String {
        let uptime = self.uptime_seconds();
        let mut out = String::with_capacity(2048);
        let put_u64 = |out: &mut String, name: &str, v: u64| {
            let _ = writeln!(out, "{name} {v}");
        };
        let put_f64 = |out: &mut String, name: &str, v: f64| {
            let _ = writeln!(out, "{name} {v:.9}");
        };
        put_f64(&mut out, "sag_uptime_seconds", uptime);
        put_u64(&mut out, "sag_requests_total", service.requests);
        put_u64(&mut out, "sag_days_opened_total", service.days_opened);
        put_u64(&mut out, "sag_days_closed_total", service.days_closed);
        put_u64(&mut out, "sag_alerts_total", service.alerts);
        put_u64(&mut out, "sag_errors_total", service.errors);
        put_f64(
            &mut out,
            "sag_alerts_per_sec",
            if uptime > 0.0 {
                service.alerts as f64 / uptime
            } else {
                0.0
            },
        );
        put_u64(&mut out, "sag_lp_solves_total", service.lp_solves);
        put_u64(&mut out, "sag_pivots_total", service.pivots);
        put_u64(
            &mut out,
            "sag_fast_path_solves_total",
            service.fast_path_solves,
        );
        put_u64(&mut out, "sag_solve_micros_total", service.solve_micros);
        put_f64(&mut out, "sag_ossp_utility_sum", service.ossp_utility_sum);
        put_f64(
            &mut out,
            "sag_online_utility_sum",
            service.online_utility_sum,
        );
        put_f64(
            &mut out,
            "sag_mean_ossp_utility",
            service.mean_ossp_utility(),
        );
        put_u64(
            &mut out,
            "sag_connections_opened_total",
            self.connections_opened.load(Ordering::Relaxed),
        );
        put_u64(
            &mut out,
            "sag_connections_closed_total",
            self.connections_closed.load(Ordering::Relaxed),
        );
        put_u64(
            &mut out,
            "sag_frames_in_total",
            self.frames_in.load(Ordering::Relaxed),
        );
        put_u64(
            &mut out,
            "sag_frames_out_total",
            self.frames_out.load(Ordering::Relaxed),
        );
        put_u64(&mut out, "sag_queue_depth", self.queue_depth() as u64);
        put_u64(&mut out, "sag_shed_total", self.shed_total());
        put_u64(&mut out, "sag_dup_suppressed_total", service.dup_suppressed);
        put_u64(&mut out, "sag_dup_replayed_total", service.dup_replayed);
        put_u64(
            &mut out,
            "sag_decode_errors_total",
            self.decode_errors.load(Ordering::Relaxed),
        );
        put_u64(
            &mut out,
            "sag_metrics_scrapes_total",
            self.scrapes.load(Ordering::Relaxed),
        );

        let mut gauges: Vec<Arc<TenantGauge>> = {
            let map = self.tenants.lock().expect("tenant registry poisoned");
            map.values().cloned().collect()
        };
        gauges.sort_by(|a, b| a.tenant.as_str().cmp(b.tenant.as_str()));
        for g in gauges {
            let t = g.tenant.as_str();
            let _ = writeln!(out, "sag_tenant_pending{{tenant=\"{t}\"}} {}", g.pending());
            let _ = writeln!(out, "sag_tenant_shed_total{{tenant=\"{t}\"}} {}", g.shed());
            let _ = writeln!(
                out,
                "sag_tenant_alerts_total{{tenant=\"{t}\"}} {}",
                g.alerts()
            );
            let _ = writeln!(
                out,
                "sag_tenant_mean_ossp_utility{{tenant=\"{t}\"}} {:.9}",
                g.mean_ossp_utility()
            );
        }
        out
    }
}

/// Parse one counter out of a rendered metrics page (the reverse of
/// [`NetMetrics::render`], for the load generator and tests).
#[must_use]
pub fn parse_metric(page: &str, name: &str) -> Option<f64> {
    page.lines().find_map(|line| {
        let (key, value) = line.split_once(' ')?;
        if key == name {
            value.trim().parse().ok()
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_sheds_at_the_limit_and_releases() {
        let gauge = TenantGauge::new(TenantId::from("icu"));
        assert!(gauge.try_admit(2).is_ok());
        assert!(gauge.try_admit(2).is_ok());
        assert_eq!(gauge.try_admit(2), Err(2));
        assert_eq!(gauge.pending(), 2);
        assert_eq!(gauge.shed(), 1);
        gauge.release();
        assert!(gauge.try_admit(2).is_ok());
    }

    #[test]
    fn shard_queues_shed_at_capacity_and_sum_into_the_depth() {
        let metrics = NetMetrics::new(2);
        assert!(metrics.try_enqueue(0, 1));
        assert!(!metrics.try_enqueue(0, 1));
        assert!(metrics.try_enqueue(1, 1));
        assert_eq!(metrics.queue_depth(), 2);
        metrics.dequeue(0);
        assert!(metrics.try_enqueue(0, 1));
        metrics.dequeue(0);
        metrics.dequeue(1);
        assert_eq!(metrics.queue_depth(), 0);
    }

    #[test]
    fn rendered_page_parses_back() {
        let metrics = NetMetrics::new(1);
        metrics.frames_in.fetch_add(7, Ordering::Relaxed);
        let gauge = metrics.tenant_gauge(&TenantId::from("icu"));
        gauge.record_decision(-1.5);
        gauge.record_decision(-0.5);
        let service = sag_service::ServiceCounters::new().snapshot();
        let page = metrics.render(&service);
        assert_eq!(parse_metric(&page, "sag_frames_in_total"), Some(7.0));
        assert_eq!(parse_metric(&page, "sag_requests_total"), Some(0.0));
        assert_eq!(
            parse_metric(&page, "sag_tenant_alerts_total{tenant=\"icu\"}"),
            Some(2.0)
        );
        assert_eq!(
            parse_metric(&page, "sag_tenant_mean_ossp_utility{tenant=\"icu\"}"),
            Some(-1.0)
        );
        assert!(parse_metric(&page, "sag_no_such_metric").is_none());
    }
}
