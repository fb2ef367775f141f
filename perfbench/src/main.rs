//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its metrics, then, as the last line of
//! standard output, one JSON object: end-to-end metrics for `--trace 0`,
//! per-layer metrics for `--trace 1`. A failed correctness gate exits with
//! status 1 and prints no result. See `README.md` for the metrics.

use effres_perfbench::metrics::WORKLOADS;
use effres_perfbench::serve::Mode;
use effres_perfbench::{edges, fixture, hw, reduce, serve, Ctx, Res};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        return Err(format!(
            "unknown workload {workload}; one of {}",
            names.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn run(args: &Args) -> Res<String> {
    let mut ctx = Ctx::new(args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "edges-pgmesh" => edges::run(&mut ctx)?,
        "resident-uniform" => serve::run(&mut ctx, Mode::Resident)?,
        "paged-zipf" => serve::run(&mut ctx, Mode::Paged)?,
        "pg-reduce" => reduce::run(&mut ctx)?,
        other => unreachable!("workload {other} passed validation"),
    }
    ctx.report.note(format!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    let line = ctx.report.result_line(args.trace)?;
    Ok(format!("{}{line}", ctx.report.table()))
}

fn main() -> ExitCode {
    hw::single_malloc_arena();
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Internal: the child process that builds an untimed fixture.
    if let [flag, name] = args.as_slice() {
        if flag == "--fixture" {
            return match fixture::build(Path::new(fixture::DATA_DIR), name) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: fixture {name}: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let args = match parse(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(output) => {
            println!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
