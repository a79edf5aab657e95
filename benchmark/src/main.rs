//! The repository's benchmark: four closed-loop workloads over loopback
//! TCP, four end-to-end metrics taken on the quiet quartile, a traced
//! per-layer ladder, and an A/A `repeat` check. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
//!     run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
//!     repeat [--runs N] [--seed N] [--seconds S]
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

mod host;
mod inputs;
mod ladder;
mod nodes;
mod repeat;
mod report;
mod run;
mod rungs;
mod spans;
mod stats;
mod traced;
mod workloads;

use std::process::ExitCode;

/// Default `--seconds`: the window `BENCHMARK.json` fixes.
pub const RUN_SECONDS: f64 = 23.0;

/// Parsed command line.
pub struct Args {
    /// `run` or `repeat`.
    pub command: String,
    /// `--workload`, if given.
    pub workload: Option<String>,
    /// `--seed` (default 11).
    pub seed: u64,
    /// `--seconds` (default [`RUN_SECONDS`]).
    pub seconds: f64,
    /// `--trace 1`.
    pub trace: bool,
    /// `--runs` (default 10).
    pub runs: usize,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        command: argv.next().ok_or("missing subcommand: run | repeat")?,
        workload: None,
        seed: 11,
        seconds: RUN_SECONDS,
        trace: false,
        runs: 10,
    };
    if !matches!(args.command.as_str(), "run" | "repeat") {
        return Err(format!("unknown subcommand {}", args.command));
    }
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                if !workloads::WORKLOADS.contains(&value.as_str()) {
                    return Err(bad(&format!("one of {:?}", workloads::WORKLOADS)));
                }
                args.workload = Some(value);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--runs" => {
                args.runs = value.parse().map_err(|_| bad("an integer"))?;
                if args.runs < 2 {
                    return Err(bad("at least 2 runs"));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: run [--workload W] [--seed N] [--seconds S] [--trace 0|1] | \
                 repeat [--runs N] [--seed N] [--seconds S]"
            );
            return ExitCode::from(2);
        }
    };
    let ok = match (args.command.as_str(), &args.workload) {
        ("repeat", _) => repeat::repeat(&args),
        ("run", Some(workload)) if args.trace => traced::run(workload, args.seed, args.seconds),
        ("run", Some(workload)) => run::run(workload, args.seed, args.seconds),
        // No workload named: all four, a fresh process each, so every
        // workload's peak RSS is its own.
        _ => run::run_all(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
