//! Smoke tests on a tiny fleet: every metric is emitted with its unit, each
//! layer of the traced run reports a time, a corrupted decision trips the
//! correctness check, and `BENCHMARK.json` lists exactly the metric
//! catalogue.

use sag_perfbench::metrics::{ATTRIBUTION, END_TO_END, PER_LAYER};
use sag_perfbench::workload::{find_workload, WORKLOADS};
use sag_perfbench::{run, RunConfig, RunResult};
use std::path::PathBuf;

/// A run small enough for a test: 8 tenants and a 2-s window, at the
/// benchmark's own load and warm-up. (In a debug build a tenant-day takes
/// about a second, so a shorter window may see no `OpenDay` sent.)
fn tiny(workload: &str, trace: bool, dir: &str) -> RunConfig {
    let spec = find_workload(workload).expect("known workload");
    let mut config = RunConfig::new(spec, 11, 2.0, trace);
    config.tenants = 8;
    config.work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir);
    config
}

fn emitted(result: &RunResult) -> Vec<(&'static str, &'static str)> {
    let mut names: Vec<_> = result.metrics.iter().map(|m| (m.name, m.unit)).collect();
    names.sort_unstable();
    names
}

#[test]
fn untraced_run_emits_every_end_to_end_metric() {
    let result = run(&tiny("paper-fleet", false, "smoke-e2e")).expect("run");
    assert!(result.correct, "{}", result.report);
    assert!(result.attempted > 0);
    let mut expected: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    expected.sort_unstable();
    assert_eq!(emitted(&result), expected);
    for m in &result.metrics {
        assert!(
            m.value.is_finite() && m.value > 0.0,
            "{} = {}",
            m.name,
            m.value
        );
    }
    assert!(result.report.contains("\"transport\": \"loopback-tcp\""));
}

/// A traced run of `workload` emits every per-layer metric, every layer it
/// exercises reports a time, and the decision p50 splits into the layers'
/// self times plus a non-negative rest.
fn check_traced(workload: &str, dir: &str, durable: bool) {
    let result = run(&tiny(workload, true, dir)).expect("run");
    assert!(result.correct, "{}", result.report);
    let mut expected: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    expected.sort_unstable();
    assert_eq!(emitted(&result), expected);
    let value = |name: &str| {
        result
            .metric(name)
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    // Read 0 by design: the WAL metrics without a WAL, and the online
    // world's solves while its budget equals the OSSP world's.
    let zero_by_design = |name: &str| {
        (!durable && (name.starts_with("wal.") || name == "self.wal_us"))
            || name.starts_with("sse.online_solve")
    };
    for m in &result.metrics {
        if m.name.ends_with("_ns") || ATTRIBUTION.contains(&m.name) || m.name.starts_with("wal.") {
            if m.name == "self.session_us" || m.name == "service.dedup_ns" {
                // Gaps between two replays, tens to hundreds of ns in a
                // release build; they stop at 0 when noise crosses them.
                assert!(m.value >= 0.0, "{} = {}", m.name, m.value);
            } else if zero_by_design(m.name) {
                assert_eq!(m.value, 0.0, "{} should read 0", m.name);
            } else {
                assert!(m.value > 0.0, "{} = {}", m.name, m.value);
            }
        }
    }
    let p50 = value("trace.decision_p50_us");
    let rest = value("wire.unattributed_us");
    assert!(0.0 <= rest && rest < p50, "unattributed {rest} of {p50}");
    assert!(value("server.queue_depth_mean") > 0.0);
    assert_eq!(value("error_rate"), 0.0);
}

#[test]
fn traced_in_memory_run_times_every_layer() {
    check_traced("paper-fleet", "smoke-layers", false);
}

#[test]
fn traced_durable_run_times_every_layer_and_the_wal() {
    check_traced("paper-durable", "smoke-layers-durable", true);
}

#[test]
fn a_corrupted_decision_trips_the_check() {
    let mut config = tiny("paper-fleet", false, "smoke-corrupt");
    config.corrupt_decision = Some(3);
    let result = run(&config).expect("run");
    assert!(!result.correct);
    assert_eq!(result.failed, 1);
    assert!(
        result.report.contains("differs from the in-process replay"),
        "{}",
        result.report
    );
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let workloads = WORKLOADS
        .iter()
        .filter(|w| text.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name)))
        .count();
    assert!(
        workloads >= 2,
        "BENCHMARK.json lists fewer than two workloads"
    );
    let mut entries: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    entries.extend(PER_LAYER.iter().map(|m| {
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name, m.unit, m.better
        )
    }));
    for entry in &entries {
        assert!(
            text.contains(entry.as_str()),
            "BENCHMARK.json lacks {entry}"
        );
    }
    assert_eq!(
        text.matches("{\"name\": ").count(),
        entries.len() + workloads,
        "BENCHMARK.json names something the catalogue does not"
    );
}
