//! Command line of the benchmark:
//!
//! ```text
//! wavedens-perfbench --workload <bulk_load|fresh_stream>
//!                    --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a metadata line, then as the last line one JSON object with
//! exactly the keys `correct`, `attempted`, `failed` and `metrics`. Exits
//! 2 on a usage error and 3 when a replica answer differs from the
//! primary's.

use std::process::ExitCode;
use wavedens_perfbench::{run, Budget, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("wavedens-perfbench: {message}");
            eprintln!(
                "usage: wavedens-perfbench --workload <bulk_load|fresh_stream> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let report = run(
        args.workload,
        args.seed,
        Budget::Seconds(args.seconds),
        args.trace,
    );
    println!("{}", report.meta_line());
    println!("{}", report.result_line());
    if report.checks.mismatches > 0 {
        eprintln!(
            "wavedens-perfbench: {} replica answers differ from the primary's",
            report.checks.mismatches
        );
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}
