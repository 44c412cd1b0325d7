//! Boot a SAG network server over a scenario tenant fleet.
//!
//! ```text
//! sag_server [--addr HOST:PORT] [--scenario NAME] [--tenants N] [--seed N]
//!            [--history-days N] [--test-days N] [--queue N]
//!            [--tenant-limit N] [--wal-dir DIR] [--recover] [--shards N]
//! ```
//!
//! Builds `--tenants` instances of `--scenario` (each with its registered
//! history, per [`sag_scenarios::tenant_fleet_cluster_parts`]) on
//! `--shards` independent `AuditService` shards (default 1), starts the TCP
//! front door, prints one `listening on ADDR` line to stdout, and serves
//! until killed. The metrics page answers `curl http://ADDR/` on the same
//! port, summed over shards, and `/healthz` answers `ok` — poll it for
//! readiness instead of sleeping.
//!
//! With `--wal-dir DIR` every mutation is logged before it is
//! acknowledged, each shard under its own `DIR/shard-<i>` (`DIR/shard-0`
//! unsharded); `--recover` additionally replays an existing WAL in DIR on
//! boot, so a SIGKILLed server restarted with the same directory and shard
//! count resumes with its open sessions, applied request ids, and dedup
//! windows intact. A DIR that holds `.wal` or `.snap` files itself (an
//! unsharded `AuditService`'s layout) is refused, with or without
//! `--recover`, and the error names the move into `DIR/shard-0` that
//! migrates it.

use sag_net::{Server, ServerConfig};
use sag_scenarios::{find_scenario, tenant_fleet_cluster_parts};
use std::time::Duration;

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr = parse_flag(&args, "--addr", String::from("127.0.0.1:0"));
    let scenario_name = parse_flag(&args, "--scenario", String::from("paper-baseline"));
    let tenants = parse_flag(&args, "--tenants", 4usize);
    let seed = parse_flag(&args, "--seed", 11u64);
    let history_days = parse_flag(&args, "--history-days", 5u32);
    let test_days = parse_flag(&args, "--test-days", 2u32);
    let config = ServerConfig {
        queue_capacity: parse_flag(&args, "--queue", 1024usize),
        tenant_pending_limit: parse_flag(&args, "--tenant-limit", 64usize),
        ..ServerConfig::default()
    };

    let wal_dir = parse_flag(&args, "--wal-dir", String::new());
    let recover = args.iter().any(|a| a == "--recover");
    let shards = parse_flag(&args, "--shards", 1usize).max(1);

    let Some(scenario) = find_scenario(&scenario_name) else {
        eprintln!("unknown scenario {scenario_name:?}; registered scenarios:");
        for s in sag_scenarios::registry() {
            eprintln!("  {}", s.name());
        }
        std::process::exit(2);
    };
    let (builder, _tenants) = tenant_fleet_cluster_parts(
        scenario.as_ref(),
        seed,
        tenants,
        history_days,
        test_days,
        shards,
    );
    let cluster = match (wal_dir.as_str(), recover) {
        ("", _) => builder.build(),
        (dir, false) => builder.durable(dir).build(),
        (dir, true) => builder.recover_from(dir),
    }
    .unwrap_or_else(|e| {
        eprintln!("failed to build the tenant fleet: {e}");
        std::process::exit(1)
    });
    let server = Server::start_cluster(cluster, addr.as_str(), config).unwrap_or_else(|e| {
        eprintln!("failed to bind {addr}: {e}");
        std::process::exit(1)
    });

    // The smoke harness waits for this exact prefix before driving load.
    println!(
        "listening on {} scenario={scenario_name} tenants={tenants} seed={seed} shards={shards}",
        server.local_addr()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    // Serve until killed; the threads do all the work.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
