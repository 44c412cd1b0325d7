//! Connection lifecycle: a long-running server must give back what each
//! connection held once that connection ends, or it runs out of file
//! descriptors after about as many connections as its descriptor limit.
//!
//! This file holds a single test, so no other test in the process moves
//! the descriptor count it reads. It counts through `/proc/self/fd`, so it
//! runs on Linux only.
#![cfg(target_os = "linux")]

use sag_net::{fetch_health, parse_metric, Client, Server, ServerConfig};
use sag_scenarios::{find_scenario, tenant_fleet};
use sag_service::{Request, SessionId};
use std::time::{Duration, Instant};

const CONNECTIONS: usize = 64;

/// How far above its starting value the descriptor count may settle: room
/// for lazily opened descriptors, never one per connection.
const SLACK: usize = 4;

/// Descriptors this process holds open right now.
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd is readable")
        .count()
}

/// Poll `done` every 10 ms until it holds or `limit` passes.
fn eventually(limit: Duration, mut done: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while !done() {
        if start.elapsed() > limit {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    true
}

#[test]
fn ended_connections_and_probes_release_their_descriptors() {
    let scenario = find_scenario("paper-baseline").expect("registry lost the baseline scenario");
    let fleet = tenant_fleet(scenario.as_ref(), 5, 1, 2, 1).unwrap();
    let tenant = fleet.tenants[0].id.clone();
    let server = Server::start(fleet.service, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let closed = |n: usize| {
        parse_metric(&server.render_metrics(), "sag_connections_closed_total") == Some(n as f64)
    };
    let round_trip = || {
        let mut client = Client::connect(addr, tenant.clone()).unwrap();
        // Any served answer proves the connection reached its thread.
        client
            .call(&Request::FinishDay {
                session: SessionId::from_raw(u64::MAX),
            })
            .unwrap()
            .expect_err("no such session");
    };

    // One connection and one probe first, so that whatever the server or
    // the client opens once is already in the baseline.
    round_trip();
    assert_eq!(fetch_health(addr).unwrap(), "ok\n");
    assert!(eventually(Duration::from_secs(10), || closed(1)));
    let baseline = open_fds();

    for _ in 0..CONNECTIONS {
        round_trip();
    }
    for _ in 0..CONNECTIONS {
        assert_eq!(fetch_health(addr).unwrap(), "ok\n");
    }
    assert!(
        eventually(Duration::from_secs(10), || closed(1 + CONNECTIONS)),
        "the server never saw every connection close"
    );
    // A connection thread lets go of its socket just after counting the
    // close, so give the count a moment to settle.
    eventually(Duration::from_secs(5), || open_fds() <= baseline + SLACK);
    let open = open_fds();
    assert!(
        open <= baseline + SLACK,
        "{open} descriptors open after {CONNECTIONS} connections and {CONNECTIONS} \
         probes ended, against {baseline} before"
    );
}
