//! Replay the full scenario registry and write `BENCH_2.json`: per-scenario
//! throughput and utility profile, plus the
//! sharded-vs-sequential wall-clock comparison of `replay_sharded`.
//!
//! Usage:
//!   `cargo run --release -p sag-bench --bin repro_scenarios [seed] [out.json] [shards]`
//!
//! `shards` defaults to one shard per available core (requires the
//! `parallel` feature for actual concurrency; results are identical either
//! way).

use sag_bench::scenario_suite::{render_suite_json, scenario_suite, SuiteConfig};
use sag_core::engine::recommended_shards;

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(2019);
    let out_path = args.next().unwrap_or_else(|| "BENCH_2.json".to_string());
    let shards: usize = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| recommended_shards(16));

    println!("Scenario registry replay (seed {seed}, {shards} shard(s))\n");
    let report = scenario_suite(&SuiteConfig::full(seed, shards)).expect("registry replays");

    println!(
        "{:<16} {:>7} {:>12} {:>10} {:>10} {:>9}",
        "scenario", "alerts", "alerts/sec", "OSSP", "online", "deterred"
    );
    for s in &report.scenarios {
        println!(
            "{:<16} {:>7} {:>12.0} {:>10.2} {:>10.2} {:>8.1}%",
            s.name,
            s.alerts,
            s.alerts_per_sec,
            s.mean_ossp,
            s.mean_online,
            s.fraction_deterred * 100.0
        );
    }

    let sh = &report.sharding;
    println!(
        "\nsharding ({} x {} jobs, {} thread(s) available, parallel feature {}):",
        sh.scenario,
        sh.jobs,
        sh.threads_available,
        if sh.parallel_feature { "on" } else { "off" }
    );
    println!(
        "  1 shard : {:>8.4} s\n  {} shards: {:>8.4} s\n  speedup : {:>8.2}x",
        sh.seq_wall_seconds, sh.shards, sh.sharded_wall_seconds, sh.speedup
    );
    if let Some(note) = &sh.note {
        println!("  note    : {note}");
    }

    let sc = &report.service_concurrent;
    println!(
        "\nservice_concurrent ({} tenants x {} days of {}, {} worker(s), {} thread(s) available):",
        sc.tenants, sc.days_per_tenant, sc.scenario, sc.workers, sc.threads_available
    );
    println!(
        "  concurrent: {:>8.4} s ({:.0} alerts/sec over {} alerts)\n  serial    : {:>8.4} s\n  speedup   : {:>8.2}x",
        sc.wall_seconds, sc.alerts_per_sec, sc.alerts, sc.serial_wall_seconds, sc.speedup_vs_serial
    );
    if let Some(note) = &sc.note {
        println!("  note      : {note}");
    }

    let d = &report.durability;
    println!(
        "\ndurability ({} alerts of {} through the write-ahead log):",
        d.alerts, d.scenario
    );
    println!(
        "  logged, fsync on : {:>10.0} alerts/sec\n  logged, fsync off: {:>10.0} alerts/sec\n  WAL size         : {:>10} bytes\n  recovery         : {:>10.4} s ({:.0} alerts/sec)\n  recovered day    : {}",
        d.fsync_on_alerts_per_sec,
        d.fsync_off_alerts_per_sec,
        d.wal_bytes,
        d.recovery_wall_seconds,
        d.recovery_alerts_per_sec,
        if d.recovered_bitwise_equal {
            "bitwise identical to the uninterrupted run"
        } else {
            "DIVERGED (correctness bug)"
        }
    );

    let cl = &report.cluster;
    println!(
        "\ncluster ({} tenants x {} days of {}, {} thread(s) available, parallel feature {}):",
        cl.tenants,
        cl.days_per_tenant,
        cl.scenario,
        cl.threads_available,
        if cl.parallel_feature { "on" } else { "off" }
    );
    println!(
        "  {:>7} {:>12} {:>9} {:>12} {:>14} {:>9}",
        "shards", "replay s", "speedup", "cluster s", "alerts/sec", "speedup"
    );
    for p in &cl.points {
        println!(
            "  {:>7} {:>12.4} {:>8.2}x {:>12.4} {:>14.0} {:>8.2}x",
            p.workers,
            p.replay_wall_seconds,
            p.replay_speedup,
            p.cluster_wall_seconds,
            p.cluster_alerts_per_sec,
            p.cluster_speedup
        );
    }
    println!(
        "  results : {}",
        if cl.results_identical {
            "bitwise identical at every shard count"
        } else {
            "DIVERGED across shard counts (correctness bug)"
        }
    );
    if let Some(note) = &cl.note {
        println!("  note    : {note}");
    }

    let json = render_suite_json(&report);
    std::fs::write(&out_path, format!("{json}\n")).expect("write scenario report");
    println!("\nwrote {out_path}");
}
