//! Command-line entry point of the benchmark; see `README.md`.
//!
//! ```text
//! sag-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! Prints a JSON report line (host facts, sample counts), then the result
//! line `{"correct", "attempted", "failed", "metrics"}` last. Exits 0 only
//! when every answer was correct.

use sag_perfbench::metrics::result_line;
use sag_perfbench::workload::{find_workload, WORKLOADS};
use sag_perfbench::{run, RunConfig};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: sag-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(find_workload(value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let mut config = RunConfig::new(
        workload.ok_or("--workload is required")?,
        // Tenant t streams from seed + t; keep that sum in range.
        seed.ok_or("--seed is required")? % (1 << 48),
        seconds.ok_or("--seconds is required")?,
        trace.ok_or("--trace is required")?,
    );
    if let Some(dir) = work_dir {
        config.work_dir = dir;
    }
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&config) {
        Ok(result) => {
            println!("{}", result.report);
            println!(
                "{}",
                result_line(
                    result.correct,
                    result.attempted,
                    result.failed,
                    &result.metrics
                )
            );
            if result.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("correctness check failed: see first_failure in the report line");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
