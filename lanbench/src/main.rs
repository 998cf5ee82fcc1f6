//! Command-line entry point; see the library docs for what a run does.
//!
//! ```text
//! cargo run --release --manifest-path lanbench/Cargo.toml -- \
//!     --workload syn1k-batch --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line on standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. The line
//! before it reports the configuration and every check. A failed check
//! exits with code 1; bad arguments or a set-up error exit with code 2.

use lanbench::run::{self, RunArgs};
use lanbench::workload::{self, Size};
use std::process::ExitCode;

struct Args {
    workload: String,
    size: Size,
    run: RunArgs,
}

fn usage() -> String {
    format!(
        "usage: lanbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]",
        workload::NAMES.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            "--size" => {
                let v = value()?;
                size = Size::parse(&v)
                    .ok_or_else(|| format!("--size must be full or tiny, got {v:?}"))?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        size,
        run: RunArgs {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    })
}

fn main() -> ExitCode {
    // Before any other thread exists: pin the configuration.
    run::pin_env(lanbench::host_threads());
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::workload(&args.workload, args.size) else {
        eprintln!("unknown workload {:?}\n{}", args.workload, usage());
        return ExitCode::from(2);
    };
    let out = match run::run(&w, &args.run) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{}: {e}", w.name);
            return ExitCode::from(2);
        }
    };
    for c in out.checks.iter().filter(|c| !c.ok) {
        eprintln!("check failed: {} ({})", c.name, c.detail);
    }
    if args.run.trace {
        match run::write_spans(&out, w.name, args.run.seed) {
            Ok(path) => eprintln!("wrote {} spans to {}", out.spans.len(), path.display()),
            Err(e) => {
                eprintln!("writing spans: {e}");
                return ExitCode::from(2);
            }
        }
    }
    println!("{}", run::report_line(&out));
    match run::result_line(&out, args.run.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    }
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
