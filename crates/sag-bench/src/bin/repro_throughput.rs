//! End-to-end throughput of the per-alert solve chain, written as the
//! machine-readable `BENCH_1.json` so future PRs can track the trajectory:
//! bulk alerts/sec, p50/p99 per-alert latency, simplex pivots per LP and
//! the warm-start hit rate of the simplex-LP oracle, the per-alert *decision* latency of the streaming
//! `DaySession` ingest mode, and the warm-vs-cold speedup on the 5-type
//! game — plus the blocked-kernel vs frozen-reference LP comparison at
//! 28/64/128 types and the certified ε-approximate mode leg.
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
        "pivots per LP         : {:>10.3} (simplex-LP oracle replay)",
        report.pivots_per_lp
    );
    println!(
        "warm-start hit rate   : {:>9.1}% (simplex-LP oracle replay)",
        report.warm_hit_rate * 100.0
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
    println!(
        "5-type SSE solve      : {:>10.2} us warm vs {:.2} us cold ({:.2}x speedup)",
        report.warm_micros_5type, report.cold_micros_5type, report.warm_speedup_5type
    );
    let p = &report.pruning;
    println!(
        "incremental pruning   : {:>10.0} alerts/sec pruned vs {:.0} exhaustive ({:.2}x)",
        p.pruned_alerts_per_sec, p.exhaustive_alerts_per_sec, p.speedup
    );
    println!(
        "  candidate LPs       : {:>10.2} solved/solve (exhaustive {:.2}), {:.1}% pruned",
        p.lp_solves_per_solve_pruned,
        p.lp_solves_per_solve_exhaustive,
        p.pruned_lp_fraction * 100.0
    );
    println!("LP kernel (blocked vs frozen reference, cold candidate LPs):");
    for size in &report.lp_kernel.sizes {
        println!(
            "  {:>3} types           : {:>8.1} us ref vs {:>8.1} us kernel ({:.2}x), \
             {:.1} pivots/LP, {:.0} ns/pivot",
            size.types,
            size.reference_micros,
            size.kernel_micros,
            size.speedup,
            size.pivots_per_lp,
            size.kernel_nanos_per_pivot
        );
    }
    let e = &report.lp_kernel.epsilon_mode;
    println!(
        "eps mode (global-mesh): eps {:.0} skipped {:.1}% of candidate decisions \
         ({} LPs over {} solves)",
        e.epsilon,
        e.skip_fraction * 100.0,
        e.skipped_lps,
        e.solves
    );
    println!(
        "  certified loss      : {:>10.3} worst day, {:.3} total over {} day(s)",
        e.worst_day_certified_loss, e.total_certified_loss, e.days
    );
    println!("paper reference       : ~20000.0 us per alert (2017 laptop hardware)");

    let json = render_json(&report);
    std::fs::write(&out_path, format!("{json}\n")).expect("write throughput report");
    println!("\nwrote {out_path}");
}
