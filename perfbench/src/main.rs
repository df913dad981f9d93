//! `perfbench --workload <paper|mc|fleet> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a report, then as its last line one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Exits 0 only when
//! every pass's artifact matched. `perfbench --record` prints the pinned
//! digests, each cross-checked against a `--jobs 1` run.

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use abr_bench::fleet::run_fleet;
use abr_bench::mc::run_mc;
use abr_bench::runner;
use perfbench::run::{self, Workload};
use perfbench::{digest, fleet, mc};

/// Worker threads for every pool: two, or fewer on a smaller host.
const JOBS: usize = 2;

/// `--seed` values whose fleets `--record` pins.
const RECORD_SEEDS: std::ops::RangeInclusive<u64> = 0..=16;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "error: {problem}\nusage: perfbench --workload <paper|mc|fleet> --seed <n> \
         --seconds <1..=60> --trace <0|1>\n       perfbench --record"
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1, 10, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` takes a whole number, not `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds must be 1..=60, not {seconds}"));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The commit being measured, when the working directory is a git
/// checkout; `unknown` otherwise.
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn record(jobs: usize) -> ExitCode {
    let mut ok = true;
    let mut check = |what: String, serial: String, parallel: String| {
        if serial == parallel {
            println!("{what}: {serial}");
        } else {
            println!("{what}: MISMATCH jobs 1 {serial} vs jobs {jobs} {parallel}");
            ok = false;
        }
    };
    let artifact = |r: abr_bench::mc::McResult| digest::artifact(&r.text, &r.json);
    check(
        format!("mc seeds={}", mc::SEEDS),
        artifact(run_mc(mc::SEEDS, 1)),
        artifact(run_mc(mc::SEEDS, jobs)),
    );
    for spec in RECORD_SEEDS.flat_map(fleet::specs) {
        check(
            format!("fleet seed={}", spec.seed),
            fleet::digest(&run_fleet(&spec, 1)),
            fleet::digest(&run_fleet(&spec, jobs)),
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("error: perfbench was built without --release; refusing to time a debug build");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let jobs = runner::effective_jobs(JOBS);
    if argv == ["--record"] {
        return record(jobs);
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(problem) => return usage(&problem),
    };
    let budget = Duration::from_secs(args.seconds);
    let root = Path::new(".");
    let outcome = if args.trace {
        run::traced(args.seed, budget, jobs, root)
    } else {
        run::untraced(args.workload, args.seed, budget, jobs, root)
    };
    let run = match outcome {
        Ok(run) => run,
        Err(problem) => {
            eprintln!("error: {problem}");
            return ExitCode::FAILURE;
        }
    };
    let workload = format!("{:?}", args.workload).to_lowercase();
    println!(
        "perfbench workload={workload} trace={} seed={} seconds={} passes={} nproc={} jobs={jobs} \
         profile=release commit={}",
        u8::from(args.trace),
        args.seed,
        args.seconds,
        run.passes.attempted,
        runner::available_cores(),
        commit(),
    );
    if args.trace {
        println!("  traced run: every per-layer metric, each on the workload its name gives");
    } else {
        println!("  size: {}", args.workload.size());
    }
    if args.trace || args.workload != Workload::Fleet {
        println!(
            "  note: run_mc and run_jobs fix their base seed at setup::SEED; --seed varies only \
             the fleet input"
        );
    }
    for line in run.notes.iter().chain(&run.metrics.report()) {
        println!("{line}");
    }
    let problems: Vec<String> = run
        .passes
        .problems
        .iter()
        .cloned()
        .chain(run.metrics.problems())
        .collect();
    for p in &problems {
        println!("  FAILED: {p}");
    }
    let correct = run.correct();
    println!(
        "{}",
        run.metrics
            .result_line(correct, run.passes.attempted, run.passes.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
