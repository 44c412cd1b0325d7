//! In-process loopback integration tests: a real [`Server`] on an
//! ephemeral port, real sockets, and the three contracts the network front
//! door makes — transparency (bitwise-identical results to the in-process
//! service), backpressure (over-quota tenants shed, others progress), and
//! observability (the metrics endpoint's counters match the replies).

use sag_net::codec::{encode_request, read_frame, write_frame, write_handshake};
use sag_net::{fetch_metrics, parse_metric, Client, Reply, Server, ServerConfig, WireError};
use sag_scenarios::{find_scenario, tenant_fleet, tenant_fleet_cluster_parts, Scenario};
use sag_service::{AuditService, Request, Response, TenantId};
use sag_sim::DayLog;
use std::io::Write as _;
use std::time::Duration;

const SCENARIO: &str = "paper-baseline";
const SEED: u64 = 31;
const TENANTS: usize = 2;
const HISTORY_DAYS: u32 = 4;
const TEST_DAYS: u32 = 2;

fn scenario() -> Box<dyn Scenario> {
    find_scenario(SCENARIO).expect("registry lost the baseline scenario")
}

/// Two identical builds of the same fleet: one to serve, one to drive
/// directly in-process as the reference.
fn twin_fleets() -> (sag_scenarios::TenantFleet, sag_scenarios::TenantFleet) {
    let scenario = scenario();
    let make = || tenant_fleet(scenario.as_ref(), SEED, TENANTS, HISTORY_DAYS, TEST_DAYS).unwrap();
    (make(), make())
}

/// Drive one tenant-day directly through [`AuditService::handle`].
fn drive_direct(
    service: &mut AuditService,
    tenant: &TenantId,
    day: &DayLog,
    budget: Option<f64>,
) -> sag_core::CycleResult {
    let Ok(Response::DayOpened { session, .. }) = service.handle(Request::OpenDay {
        tenant: tenant.clone(),
        budget,
        day: Some(day.day()),
    }) else {
        panic!("direct OpenDay failed")
    };
    for alert in day.alerts() {
        let response = service
            .handle(Request::PushAlert {
                session,
                alert: *alert,
            })
            .expect("direct PushAlert failed");
        assert!(matches!(response, Response::Decision { .. }));
    }
    match service.handle(Request::FinishDay { session }) {
        Ok(Response::DayClosed { result, .. }) => result,
        other => panic!("direct FinishDay answered {other:?}"),
    }
}

#[test]
fn network_replay_is_bitwise_identical_to_direct_handle() {
    let (served, mut direct) = twin_fleets();
    let scenario = scenario();
    let server = Server::start(served.service, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut alerts_total = 0u64;
    let mut requests_total = 0u64;
    for tenant in &served.tenants {
        // One connection per tenant, as a deployment would run it.
        let mut client = Client::connect(addr, tenant.id.clone()).unwrap();
        for day in &tenant.test_days {
            let budget = scenario.budget_for_day(day.day());
            let session = client.open_day(budget, Some(day.day())).unwrap();
            let mut outcomes = Vec::with_capacity(day.len());
            for alert in day.alerts() {
                outcomes.push(client.push_alert(session, alert).unwrap());
            }
            let over_wire = client.finish_day(session).unwrap();
            alerts_total += day.len() as u64;
            requests_total += day.len() as u64 + 2;

            // The per-alert Decision replies must be the very outcomes the
            // final result carries.
            assert_eq!(over_wire.outcomes, outcomes);

            // Every field must survive the wire bit-for-bit.
            let reference = drive_direct(&mut direct.service, &tenant.id, day, budget);
            assert_eq!(
                over_wire,
                reference,
                "tenant {} day {} diverged over the wire",
                tenant.id,
                day.day()
            );
        }
    }
    assert!(alerts_total > 100, "scenario too small to mean anything");

    // Observability: the scraped counters must agree with what we were
    // served. The service is quiescent here, so the identities are exact.
    let page = fetch_metrics(addr).unwrap();
    let metric = |name: &str| parse_metric(&page, name).unwrap_or(-1.0);
    assert_eq!(metric("sag_alerts_total"), alerts_total as f64);
    assert_eq!(metric("sag_requests_total"), requests_total as f64);
    assert_eq!(metric("sag_errors_total"), 0.0);
    assert_eq!(
        metric("sag_requests_total"),
        metric("sag_days_opened_total")
            + metric("sag_alerts_total")
            + metric("sag_days_closed_total")
            + metric("sag_errors_total"),
    );
    assert_eq!(metric("sag_frames_in_total"), requests_total as f64);
    assert_eq!(metric("sag_frames_out_total"), requests_total as f64);
    assert_eq!(metric("sag_shed_total"), 0.0);
    assert_eq!(metric("sag_queue_depth"), 0.0);
    // No duplicates were delivered, so the dedup machinery must not fire —
    // and the transport identity must hold: every complete inbound frame
    // is either served, shed, suppressed as a duplicate, or a decode error.
    assert_eq!(metric("sag_dup_suppressed_total"), 0.0);
    assert_eq!(metric("sag_dup_replayed_total"), 0.0);
    assert_eq!(
        metric("sag_frames_in_total"),
        metric("sag_requests_total")
            + metric("sag_shed_total")
            + metric("sag_dup_suppressed_total")
            + metric("sag_decode_errors_total"),
    );
    // Per-tenant decision counts must partition the total.
    let per_tenant: f64 = served
        .tenants
        .iter()
        .map(|t| metric(&format!("sag_tenant_alerts_total{{tenant=\"{}\"}}", t.id)))
        .sum();
    assert_eq!(per_tenant, alerts_total as f64);
    // The fleet runs the default sweep backend: every solve answers
    // without a simplex, so no LP is ever solved.
    assert_eq!(metric("sag_fast_path_solves_total"), alerts_total as f64);
    assert_eq!(metric("sag_lp_solves_total"), 0.0);
    // The service timed every served push.
    assert!(metric("sag_solve_micros_total") > 0.0);
}

#[test]
fn sharded_server_is_bitwise_identical_to_the_unsharded_one() {
    // The cluster front door must be wire-invisible: the same fleet served
    // behind 1, 2, or 4 shards answers every request with the same bytes
    // (modulo session ids, which clients treat as opaque), and the
    // aggregated metrics page keeps the quiescent identity cluster-wide.
    let scenario = scenario();
    let mut reference = {
        let (_, mut direct) = twin_fleets();
        let mut results = Vec::new();
        for tenant in &direct.tenants.clone() {
            for day in &tenant.test_days {
                let budget = scenario.budget_for_day(day.day());
                results.push(drive_direct(&mut direct.service, &tenant.id, day, budget));
            }
        }
        results
    };
    reference.sort_by_key(|r| r.day);

    for shards in [1usize, 2, 4] {
        let (builder, tenants) = tenant_fleet_cluster_parts(
            scenario.as_ref(),
            SEED,
            TENANTS,
            HISTORY_DAYS,
            TEST_DAYS,
            shards,
        );
        let cluster = builder.build().unwrap();
        assert_eq!(cluster.num_shards(), shards);
        let server =
            Server::start_cluster(cluster, "127.0.0.1:0", ServerConfig::default()).unwrap();
        assert_eq!(server.num_shards(), shards);
        let addr = server.local_addr();

        let mut over_wire = Vec::new();
        let mut requests_total = 0u64;
        for tenant in &tenants {
            let mut client = Client::connect(addr, tenant.id.clone()).unwrap();
            for day in &tenant.test_days {
                let budget = scenario.budget_for_day(day.day());
                let session = client.open_day(budget, Some(day.day())).unwrap();
                for alert in day.alerts() {
                    client.push_alert(session, alert).unwrap();
                }
                over_wire.push(client.finish_day(session).unwrap());
                requests_total += day.len() as u64 + 2;
            }
        }
        over_wire.sort_by_key(|r| r.day);
        assert_eq!(over_wire, reference, "results diverged at {shards} shards");

        // The metrics page is the sum over per-shard sinks; quiescent here,
        // so the identities are exact — including the satellite invariant
        // that requests partition into opens + alerts + closes + errors
        // *cluster-wide*.
        let page = fetch_metrics(addr).unwrap();
        let metric = |name: &str| parse_metric(&page, name).unwrap_or(-1.0);
        assert_eq!(metric("sag_requests_total"), requests_total as f64);
        assert_eq!(metric("sag_errors_total"), 0.0);
        assert_eq!(
            metric("sag_requests_total"),
            metric("sag_days_opened_total")
                + metric("sag_alerts_total")
                + metric("sag_days_closed_total")
                + metric("sag_errors_total"),
        );
        let snapshot = server.counters_snapshot();
        assert!(snapshot.quiescent_identity_holds());
        assert_eq!(snapshot.requests, requests_total);
        assert_eq!(server.shard_counters().len(), shards);
    }
}

#[test]
fn counters_match_cycle_totals_for_a_replayed_scenario() {
    // Metrics consistency at the source: drive a scenario through a
    // counter-instrumented service and check the exported counters against
    // the CycleResults' own solver-work totals.
    let (fleet, _) = twin_fleets();
    let scenario = scenario();
    let mut service = fleet.service;
    let counters = std::sync::Arc::new(sag_service::ServiceCounters::new());
    service.set_counters(counters.clone());

    let mut results = Vec::new();
    for tenant in &fleet.tenants {
        for day in &tenant.test_days {
            let budget = scenario.budget_for_day(day.day());
            results.push(drive_direct(&mut service, &tenant.id, day, budget));
        }
    }

    let snapshot = counters.snapshot();
    let alerts: u64 = results.iter().map(|r| r.len() as u64).sum();
    assert_eq!(snapshot.alerts, alerts);
    assert_eq!(snapshot.days_opened, results.len() as u64);
    assert_eq!(snapshot.days_closed, results.len() as u64);
    assert_eq!(snapshot.errors, 0);
    assert_eq!(
        snapshot.requests,
        snapshot.days_opened + snapshot.alerts + snapshot.days_closed
    );
    // The hot-path counters must equal both the sum over per-alert stats
    // and the per-day totals the results report.
    let sum = |f: fn(&sag_core::AlertOutcome) -> u64| -> u64 {
        results.iter().flat_map(|r| r.outcomes.iter()).map(f).sum()
    };
    assert_eq!(
        snapshot.lp_solves,
        sum(|o| u64::from(o.sse_stats.lp_solves))
    );
    assert_eq!(
        snapshot.fast_path_solves,
        sum(|o| u64::from(o.sse_stats.fast_path))
    );
    assert_eq!(snapshot.pivots, sum(|o| u64::from(o.sse_stats.pivots)));
    assert_eq!(
        snapshot.lp_solves,
        results.iter().map(|r| r.sse_totals.lp_solves).sum::<u64>()
    );
    assert_eq!(
        snapshot.fast_path_solves,
        results
            .iter()
            .map(|r| r.sse_totals.fast_path_solves)
            .sum::<u64>()
    );
    let utility: f64 = results
        .iter()
        .flat_map(|r| r.outcomes.iter())
        .map(|o| o.ossp_utility)
        .sum();
    assert!((snapshot.ossp_utility_sum - utility).abs() < 1e-9);
    assert!(snapshot.solve_micros > 0, "served pushes were not timed");
}

#[test]
fn over_quota_tenant_sheds_while_others_progress() {
    let (fleet, _) = twin_fleets();
    let scenario = scenario();
    let config = ServerConfig {
        queue_capacity: 256,
        tenant_pending_limit: 2,
        // Slow the service so the flood below outpaces it deterministically.
        handle_delay: Some(Duration::from_millis(25)),
    };
    let server = Server::start(fleet.service, "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    let flooder = &fleet.tenants[0];
    let victim_day = &flooder.test_days[0];
    let mut flood = Client::connect(addr, flooder.id.clone()).unwrap();
    let session = flood
        .open_day(
            scenario.budget_for_day(victim_day.day()),
            Some(victim_day.day()),
        )
        .unwrap();

    // Pipeline far more pushes than the quota admits, without reading.
    let burst: Vec<_> = victim_day.alerts().iter().take(12).cloned().collect();
    for alert in &burst {
        flood
            .send(&Request::PushAlert {
                session,
                alert: *alert,
            })
            .unwrap();
    }

    // While the flooder's backlog drains at 25ms per job, a well-behaved
    // tenant on its own connection must still get served end to end.
    let other = &fleet.tenants[1];
    let other_day = &other.test_days[0];
    let mut polite = Client::connect(addr, other.id.clone()).unwrap();
    let other_session = polite
        .open_day(
            scenario.budget_for_day(other_day.day()),
            Some(other_day.day()),
        )
        .unwrap();
    let first_alert = &other_day.alerts()[0];
    let outcome = polite.push_alert(other_session, first_alert).unwrap();
    assert!(outcome.ossp_scheme.is_valid());

    // Collect the flood's replies — FIFO ordering means reply `i` answers
    // `burst[i]`. Every one is either a served decision or a structured
    // Overloaded shed, and with a 12-deep burst against a quota of 2 both
    // kinds must appear.
    let mut served = 0usize;
    let mut shed_indices = Vec::new();
    for (i, _) in burst.iter().enumerate() {
        match flood.recv().unwrap().1 {
            Ok(Response::Decision { .. }) => served += 1,
            Err(WireError::Overloaded {
                tenant,
                pending,
                limit,
            }) => {
                assert_eq!(tenant, flooder.id.as_str());
                assert_eq!(limit, 2);
                assert!(pending >= limit, "shed below the limit");
                shed_indices.push(i);
            }
            other => panic!("burst reply {i} was {other:?}"),
        }
    }
    let shed = shed_indices.len();
    assert!(shed >= 1, "12-deep burst against quota 2 never shed");
    assert!(served >= 1, "admitted requests were never served");
    assert_eq!(served + shed, burst.len());

    // Shed requests are retryable: push every shed alert again (the quota
    // frees as the backlog drains), then close the day cleanly.
    for &i in &shed_indices {
        loop {
            match flood
                .call(&Request::PushAlert {
                    session,
                    alert: burst[i],
                })
                .unwrap()
            {
                Ok(Response::Decision { .. }) => break,
                Err(WireError::Overloaded { .. }) => {
                    std::thread::sleep(Duration::from_millis(30));
                }
                other => panic!("retry of alert {i} answered {other:?}"),
            }
        }
    }
    let result = flood.finish_day(session).unwrap();
    assert_eq!(result.len(), burst.len());

    // The shed shows up in the metrics, charged to the right tenant.
    let page = fetch_metrics(addr).unwrap();
    let metric = |name: &str| parse_metric(&page, name).unwrap_or(-1.0);
    assert!(metric("sag_shed_total") >= shed as f64);
    assert!(
        metric(&format!(
            "sag_tenant_shed_total{{tenant=\"{}\"}}",
            flooder.id
        )) >= shed as f64
    );
    assert_eq!(
        metric(&format!("sag_tenant_shed_total{{tenant=\"{}\"}}", other.id)),
        0.0
    );
}

#[test]
fn wire_errors_are_structured_and_the_stream_survives_bad_payloads() {
    let (fleet, _) = twin_fleets();
    let server = Server::start(fleet.service, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // Unknown tenant and unknown session answer structured errors. The
    // client is *bound* to the unknown tenant — the envelope and the
    // OpenDay body must agree, and neither is registered.
    let mut client = Client::connect(addr, "no-such-tenant").unwrap();
    match client.call(&Request::OpenDay {
        tenant: TenantId::from("no-such-tenant"),
        budget: None,
        day: None,
    }) {
        Ok(Err(WireError::UnknownTenant(t))) => assert_eq!(t, "no-such-tenant"),
        other => panic!("unknown tenant answered {other:?}"),
    }
    match client.call(&Request::FinishDay {
        session: sag_service::SessionId::from_raw(999_999),
    }) {
        Ok(Err(WireError::UnknownSession(s))) => assert_eq!(s, 999_999),
        other => panic!("unknown session answered {other:?}"),
    }

    // A well-framed frame holding a garbage payload gets BadRequest (with
    // the untagged reply id 0), and the connection keeps serving afterwards.
    let tenant = fleet.tenants[0].id.clone();
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    write_handshake(&mut raw).unwrap();
    raw.flush().unwrap();
    write_frame(&mut raw, &[0xFF, 0x00, 0x01]).unwrap();
    let (id, reply): (u64, Reply) =
        sag_net::codec::decode_reply(&read_frame(&mut raw).unwrap().unwrap()).unwrap();
    assert_eq!(id, 0, "undecodable requests answer with the untagged id");
    assert!(matches!(reply, Err(WireError::BadRequest(_))), "{reply:?}");
    write_frame(
        &mut raw,
        &encode_request(
            7,
            &tenant,
            &Request::OpenDay {
                tenant: tenant.clone(),
                budget: None,
                day: None,
            },
        ),
    )
    .unwrap();
    let (id, reply): (u64, Reply) =
        sag_net::codec::decode_reply(&read_frame(&mut raw).unwrap().unwrap()).unwrap();
    assert_eq!(id, 7, "replies echo the request id");
    assert!(matches!(reply, Ok(Response::DayOpened { .. })), "{reply:?}");

    // An OpenDay whose body names a different tenant than its envelope is
    // refused before touching the service. With two 40,000-byte tenants the
    // refusal names over 80 KB of text, more than a string field holds: it
    // must still arrive as one decodable reply, and the connection must
    // serve the next request.
    let long = |c: &str| TenantId::from(c.repeat(40_000));
    for (id, envelope, body) in [
        (8, long("a"), long("b")),
        (9, TenantId::from("someone-else"), tenant.clone()),
    ] {
        write_frame(
            &mut raw,
            &encode_request(
                id,
                &envelope,
                &Request::OpenDay {
                    tenant: body,
                    budget: None,
                    day: None,
                },
            ),
        )
        .unwrap();
        let (echoed, reply): (u64, Reply) =
            sag_net::codec::decode_reply(&read_frame(&mut raw).unwrap().unwrap()).unwrap();
        assert_eq!(echoed, id);
        assert!(matches!(reply, Err(WireError::BadRequest(_))), "{reply:?}");
    }

    // A wrong-version handshake is answered (structured) and refused.
    let mut stale = std::net::TcpStream::connect(addr).unwrap();
    stale.write_all(&sag_net::MAGIC.to_le_bytes()).unwrap();
    stale.write_all(&999u16.to_le_bytes()).unwrap();
    stale.flush().unwrap();
    let (id, reply): (u64, Reply) =
        sag_net::codec::decode_reply(&read_frame(&mut stale).unwrap().unwrap()).unwrap();
    assert_eq!(id, 0);
    assert!(matches!(reply, Err(WireError::BadRequest(_))), "{reply:?}");

    // Decode errors were counted.
    let page = server.render_metrics();
    assert!(parse_metric(&page, "sag_decode_errors_total").unwrap() >= 1.0);
}
