//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]
//! ```
//!
//! Workloads: `paper-routing-digest`, `city-spill`, `hub-sessions`. With
//! `--trace 0` the run measures the end-to-end metrics with tracing off;
//! with `--trace 1` it is the separate, untimed traced run that reports
//! per-layer metrics and writes spans under `.bench_out/`. Every run checks
//! its outputs. The last line of standard output is the JSON result; the
//! line before it carries the host block and the run's parameters. The exit
//! code is nonzero when a check failed or the arguments are invalid.
//! `--size tiny` shrinks every workload for the smoke test.

mod emulation;
mod hub;
mod replay;
mod report;
mod scenario;
mod util;

use std::io::Write;
use std::process::ExitCode;

use emulation::EmuKind;
use scenario::Size;
use util::{host_json, json_str, out_dir};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut size) =
        (None, None, None, None, Size::Full);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(format!("bad --size {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
        size,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "paper-routing-digest" => emulation::run(
            EmuKind::PaperRoutingDigest,
            args.seed,
            args.seconds,
            args.trace,
            args.size,
        ),
        "city-spill" => emulation::run(
            EmuKind::CitySpill,
            args.seed,
            args.seconds,
            args.trace,
            args.size,
        ),
        "hub-sessions" => hub::run(args.seed, args.seconds, args.trace, args.size),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };

    let header = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_json()
    );
    let result = report.result_line(args.trace);
    let record = out_dir().join(format!(
        "result-{}-trace{}-seed{}.json",
        args.workload,
        u8::from(args.trace),
        args.seed
    ));
    let _ = std::fs::write(&record, format!("{header}\n{result}\n"));
    let mut stdout = std::io::stdout().lock();
    let _ = writeln!(stdout, "{header}");
    let _ = writeln!(stdout, "{result}");
    let _ = stdout.flush();
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
