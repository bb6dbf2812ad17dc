//! The dispatch benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--work DIR]
//! ```
//!
//! Generates the workload's inputs from the seed, measures for about `S`
//! seconds, checks the outputs and prints one JSON line: end-to-end
//! metrics, or with `--trace 1` per-layer metrics from a traced run. See
//! `README.md` for the workloads and metrics.

mod calib;
mod check;
mod input;
mod paced;
mod replay;
mod report;
mod serve;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;

use input::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut work = PathBuf::from(".bench_build/perfbench-work");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!(
                    "unknown workload {value} (one of {})",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?);
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value == "1",
            "--work" => work = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        work,
    })
}

/// Peak resident memory of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn run(args: &Args) -> Result<report::Report, String> {
    if args.trace {
        spans::enable();
    }
    let work = args
        .work
        .join(format!("{}-{}", args.workload.name(), std::process::id()));
    let mut report = match args.workload {
        Workload::ServeTcp => serve::run(args.seed, args.seconds, args.trace, &work),
        w => replay::run(w, args.seed, args.seconds, args.trace),
    }?;
    let _ = std::fs::remove_dir_all(&work);
    report.metric("peak_rss_mib", peak_rss_mib()?, "MiB");
    if args.trace {
        eprint!("{}", report::span_table());
    }
    for problem in &report.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    Ok(report)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| Ok((run(&args)?, args.trace))) {
        Ok((report, trace)) => {
            println!("{}", report.to_json(trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
