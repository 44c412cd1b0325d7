//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units,
//! directions and bounds; a test keeps the two in step.

use std::fmt::Write as _;

/// An end-to-end metric: what a user of the service sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A per-layer metric, reported by the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every end-to-end metric, measured with tracing off.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("alerts_per_s", "1/s", "higher", 0.25),
    e2e("decision_p50_us", "us", "lower", 0.25),
    e2e("decision_p95_us", "us", "lower", 0.25),
    e2e("open_p50_us", "us", "lower", 0.25),
    e2e("close_p50_us", "us", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.1),
    e2e("ossp_loss", "utility", "lower", 0.05),
];

/// Every per-layer metric, reported by the traced run.
pub const PER_LAYER: [PerLayer; 42] = [
    layer("codec.push_ns", "ns", "lower"),
    layer("codec.day_closed_ns", "ns", "lower"),
    layer("codec.decision_reply_bytes", "bytes", "lower"),
    layer("codec.day_closed_reply_bytes", "bytes", "lower"),
    layer("server.queue_depth_mean", "count", "lower"),
    layer("wire.unattributed_us", "us", "lower"),
    layer("service.push_ns", "ns", "lower"),
    layer("service.open_ns", "ns", "lower"),
    layer("service.close_ns", "ns", "lower"),
    layer("service.dedup_ns", "ns", "lower"),
    layer("wal.append_ns", "ns", "lower"),
    layer("wal.sync_ns", "ns", "lower"),
    layer("wal.bytes_per_alert", "bytes", "lower"),
    layer("wal.syncs_per_request", "count", "lower"),
    layer("session.push_ns", "ns", "lower"),
    layer("session.open_ns", "ns", "lower"),
    layer("session.finish_ns", "ns", "lower"),
    layer("sse.ossp_solve_ns", "ns", "lower"),
    layer("sse.online_solve_ns", "ns", "lower"),
    layer("sse.online_solve_share", "ratio", "lower"),
    layer("offline.solve_ns", "ns", "lower"),
    layer("ossp.closed_form_ns", "ns", "lower"),
    layer("lp.pivots_per_lp", "count", "lower"),
    layer("sse.lp_solves_per_alert", "count", "lower"),
    layer("sse.pruned_lp_fraction", "ratio", "higher"),
    layer("sse.warm_hit_rate", "ratio", "higher"),
    layer("forecast.fit_ns", "ns", "lower"),
    layer("forecast.estimate_ns", "ns", "lower"),
    layer("self.codec_us", "us", "lower"),
    layer("self.service_us", "us", "lower"),
    layer("self.wal_us", "us", "lower"),
    layer("self.session_us", "us", "lower"),
    layer("self.sse_us", "us", "lower"),
    layer("self.forecast_us", "us", "lower"),
    layer("self.closed_form_us", "us", "lower"),
    layer("trace.decision_p50_us", "us", "lower"),
    layer("trace.overhead_alerts_per_s", "1/s", "higher"),
    layer("trace.overhead_decision_p50_us", "us", "lower"),
    layer("trace.overhead_decision_p95_us", "us", "lower"),
    layer("trace.overhead_open_p50_us", "us", "lower"),
    layer("trace.overhead_close_p50_us", "us", "lower"),
    layer("error_rate", "ratio", "lower"),
];

/// The per-layer self times whose sum, with `wire.unattributed_us`, is
/// `trace.decision_p50_us`.
pub const ATTRIBUTION: [&str; 7] = [
    "self.codec_us",
    "self.service_us",
    "self.wal_us",
    "self.session_us",
    "self.sse_us",
    "self.forecast_us",
    "self.closed_form_us",
];

/// A measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The unit of the metric called `name`, from either list.
#[must_use]
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

/// A JSON number: finite values in Rust's shortest round-trip form,
/// anything else as `null`.
#[must_use]
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

/// A JSON string literal.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The last line of the benchmark's output.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
