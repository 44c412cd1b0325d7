//! End-to-end throughput of the per-alert solve chain, written as the
//! machine-readable `BENCH_1.json` so the trajectory can be tracked: bulk
//! alerts/sec, p50/p99 per-alert latency, and the per-alert *decision*
//! latency of the streaming `DaySession` ingest mode.
//!
//! Usage: `cargo run --release -p sag-bench --bin repro_throughput [seed] [out.json]`

use sag_bench::throughput::{render_json, throughput_experiment, ThroughputConfig};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2019);
    let out_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "BENCH_1.json".to_string());

    let config = ThroughputConfig::default_workload(seed);
    println!(
        "Batched replay: scenario {:?} at its registered layout, seed {seed}",
        config.scenario
    );
    let report = throughput_experiment(&config);

    println!("alerts replayed       : {}", report.alerts);
    println!(
        "throughput            : {:>10.0} alerts/sec",
        report.alerts_per_sec
    );
    println!(
        "latency p50           : {:>10.1} us/alert",
        report.p50_micros
    );
    println!(
        "latency p99           : {:>10.1} us/alert",
        report.p99_micros
    );
    println!(
        "latency mean          : {:>10.1} us/alert",
        report.mean_micros
    );
    println!(
        "streaming (push_alert): {:>10.0} alerts/sec",
        report.streaming.alerts_per_sec
    );
    println!(
        "  decision latency p50: {:>10.1} us/alert",
        report.streaming.p50_micros
    );
    println!(
        "  decision latency p99: {:>10.1} us/alert",
        report.streaming.p99_micros
    );
    println!("paper reference       : ~20000.0 us per alert (2017 laptop hardware)");

    let json = render_json(&report);
    std::fs::write(&out_path, format!("{json}\n")).expect("write throughput report");
    println!("\nwrote {out_path}");
}
