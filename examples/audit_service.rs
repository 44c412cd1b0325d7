//! The multi-tenant front door: one `AuditService` auditing two very
//! different tenants at once.
//!
//! A regional hospital runs the paper's 7-type EMR game; a payment-fraud
//! desk runs a custom 3-type game with its own payoffs, costs and budget.
//! The service owns an engine and a rolling alert history per tenant, and a
//! single driver loop multiplexes both tenants' audit cycles through the
//! typed `Request`/`Response` API — then the same day is replayed through
//! owned `SessionHandle`s driven on worker threads, which lands on
//! bitwise-identical results.
//!
//! Run with: `cargo run --release --example audit_service`

use sag::prelude::*;
use sag::sim::alert::{AlertTypeInfo, BaseRule, RuleSet};

fn main() -> sag::Result<()> {
    // 1. Tenant one: the paper's hospital, on recorded history.
    let mut generator = StreamGenerator::new(StreamConfig::paper_multi_type(2026));
    let hospital_history = generator.generate_days(10);
    let hospital_day = generator.generate_day(10);

    // 2. Tenant two: a fraud desk with three custom alert types.
    let catalog = AlertCatalog::new(vec![
        AlertTypeInfo {
            id: AlertTypeId(0),
            description: "Card-not-present spike".to_string(),
            rules: RuleSet::from_rules(&[BaseRule::SameLastName]),
            daily_mean: 80.0,
            daily_std: 12.0,
        },
        AlertTypeInfo {
            id: AlertTypeId(1),
            description: "Dormant account reactivation".to_string(),
            rules: RuleSet::from_rules(&[BaseRule::SameAddress]),
            daily_mean: 25.0,
            daily_std: 6.0,
        },
        AlertTypeInfo {
            id: AlertTypeId(2),
            description: "Insider limit override".to_string(),
            rules: RuleSet::from_rules(&[BaseRule::DepartmentCoworker]),
            daily_mean: 6.0,
            daily_std: 2.0,
        },
    ]);
    let fraud_game = GameConfig {
        catalog: catalog.clone(),
        payoffs: PayoffTable::new(vec![
            Payoffs::new(50.0, -300.0, -1500.0, 250.0),
            Payoffs::new(120.0, -700.0, -2500.0, 500.0),
            Payoffs::new(400.0, -2500.0, -9000.0, 1200.0),
        ]),
        audit_costs: vec![0.5, 1.0, 3.0],
        budget: 18.0,
    };
    let mut generator = StreamGenerator::new(StreamConfig::stationary(
        catalog,
        DiurnalProfile::standard_hco(),
        99,
    ));
    let fraud_history = generator.generate_days(10);
    let fraud_day = generator.generate_day(10);

    // 3. One service, two tenants. Every configuration is validated here,
    //    at the front door — a bad knob would fail this build() with a
    //    structured ConfigError, not a panic deep inside a replay.
    let mut service = AuditService::builder()
        .tenant_with_history(
            "regional-hospital",
            EngineBuilder::paper_multi_type(),
            hospital_history.clone(),
        )
        .tenant_with_history(
            "fraud-desk",
            EngineBuilder::new(fraud_game).forecast_decay(0.9),
            fraud_history.clone(),
        )
        .build()?;
    println!(
        "service up: {} tenants, {} pool worker(s)",
        service.num_tenants(),
        service.workers()
    );

    // 4. The driver loop: open a cycle per tenant, interleave both feeds
    //    through the command API, close both cycles.
    let mut sessions = Vec::new();
    for tenant in ["regional-hospital", "fraud-desk"] {
        let response = service.handle(Request::OpenDay {
            tenant: TenantId::from(tenant),
            budget: None,
            day: None,
        })?;
        if let Response::DayOpened { session, tenant } = response {
            println!("opened {session} for {tenant}");
            sessions.push(session);
        }
    }
    let mut feeds = [hospital_day.alerts().iter(), fraud_day.alerts().iter()];
    let mut decisions = [0usize; 2];
    let mut warnings = [0usize; 2];
    loop {
        let mut progressed = false;
        for (t, feed) in feeds.iter_mut().enumerate() {
            if let Some(alert) = feed.next() {
                let response = service.handle(Request::PushAlert {
                    session: sessions[t],
                    alert: *alert,
                })?;
                if let Response::Decision { outcome, .. } = response {
                    decisions[t] += 1;
                    if outcome.ossp_scheme.warning_probability() > 0.5 {
                        warnings[t] += 1;
                    }
                }
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    println!("\nper-tenant cycles, multiplexed through one loop:");
    for (t, session) in sessions.iter().enumerate() {
        let response = service.handle(Request::FinishDay { session: *session })?;
        if let Response::DayClosed { tenant, result, .. } = response {
            println!(
                "  {tenant:<18} {:>5} alerts, {:>5.1}% warned, mean OSSP utility {:>8.2}",
                decisions[t],
                100.0 * warnings[t] as f64 / decisions[t].max(1) as f64,
                result.mean_ossp_utility().unwrap_or(0.0)
            );
        }
    }

    // 5. The same days as owned handles driven on threads: a SessionHandle
    //    has no lifetime, so it moves wholesale onto whatever thread serves
    //    that tenant's feed. Results are bitwise identical to the loop
    //    above.
    let hospital_id = TenantId::from("regional-hospital");
    let fraud_id = TenantId::from("fraud-desk");
    let hospital_handle = service.open_day(&hospital_id, None)?;
    let fraud_handle = service.open_day(&fraud_id, None)?;
    let (hospital_result, fraud_result) = std::thread::scope(|scope| {
        let hospital = scope.spawn(|| hospital_handle.drive(&hospital_day));
        let fraud = scope.spawn(|| fraud_handle.drive(&fraud_day));
        (hospital.join().unwrap(), fraud.join().unwrap())
    });
    println!("\nsame days on owned handles across threads:");
    for (tenant, result) in [
        ("regional-hospital", hospital_result?),
        ("fraud-desk", fraud_result?),
    ] {
        println!(
            "  {tenant:<18} {:>5} alerts, mean OSSP utility {:>8.2}",
            result.len(),
            result.mean_ossp_utility().unwrap_or(0.0)
        );
    }

    // 6. Batch what-if: both tenants' recorded days fanned out over the
    //    service pool in one call.
    let jobs = [
        ServiceJob::new(&hospital_id, &hospital_day),
        ServiceJob::new(&fraud_id, &fraud_day),
    ];
    let results = service.replay_concurrent(&jobs)?;
    println!(
        "\nreplay_concurrent over the pool: {} cycles, {} total alerts",
        results.len(),
        results.iter().map(CycleResult::len).sum::<usize>()
    );
    Ok(())
}
