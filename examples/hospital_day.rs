//! A full audit cycle at a hospital: the paper's headline experiment in
//! miniature.
//!
//! Generates 41 days of historical alert logs calibrated to the paper's
//! Table 1, then replays one test day through the online engine, comparing
//! the auditor's expected utility under the OSSP (with warnings), the online
//! SSE (no warnings) and the offline SSE (planned once per day).
//!
//! Run with: `cargo run --release --example hospital_day [seed]`

use sag::prelude::*;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2019);

    // Calibrated 7-type alert stream (Table 1 volumes, workday diurnal shape).
    let mut generator = StreamGenerator::new(StreamConfig::paper_multi_type(seed));
    let history = generator.generate_days(41);
    let test_day = generator.generate_day(41);
    println!(
        "history: {} days, {} alerts; test day: {} alerts",
        history.len(),
        history.iter().map(DayLog::len).sum::<usize>(),
        test_day.len()
    );

    // The paper's multi-type game: 7 types, unit audit costs, budget 50.
    let engine = EngineBuilder::paper_multi_type()
        .build()
        .expect("paper configuration is valid");
    let result = engine
        .run_day(&history, &test_day)
        .expect("replay succeeds");

    // Hourly averages of the three per-alert utility series.
    println!(
        "\n{:<8} {:>8} {:>12} {:>12} {:>12}",
        "hour", "alerts", "OSSP", "online SSE", "offline SSE"
    );
    for hour in 0..24u32 {
        let in_hour: Vec<&AlertOutcome> = result
            .outcomes
            .iter()
            .filter(|o| o.time.hour() == hour)
            .collect();
        if in_hour.is_empty() {
            continue;
        }
        let mean = |f: &dyn Fn(&AlertOutcome) -> f64| {
            in_hour.iter().map(|o| f(o)).sum::<f64>() / in_hour.len() as f64
        };
        println!(
            "{:02}:00    {:>8} {:>12.1} {:>12.1} {:>12.1}",
            hour,
            in_hour.len(),
            mean(&|o| o.ossp_utility),
            mean(&|o| o.online_sse_utility),
            mean(&|o| o.offline_sse_utility),
        );
    }

    let summary = ExperimentSummary::from_cycles(std::slice::from_ref(&result));
    println!("\nday summary");
    println!("  mean utility, OSSP        : {:8.2}", summary.mean_ossp);
    println!("  mean utility, online SSE  : {:8.2}", summary.mean_online);
    println!("  mean utility, offline SSE : {:8.2}", summary.mean_offline);
    println!(
        "  OSSP >= online SSE        : {:.1}% of alerts",
        summary.fraction_ossp_not_worse * 100.0
    );
    println!(
        "  attacks fully deterred    : {:.1}% of alerts",
        summary.fraction_deterred * 100.0
    );
}
