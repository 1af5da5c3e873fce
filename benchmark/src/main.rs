//! `mce-benchmark` — the repository's perf ledger. See `README.md`.
//!
//! ```text
//! mce-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick] [--json FILE]
//! mce-benchmark run W [--seed N] [--seconds S] [--trace] [--quick] [--json FILE]
//! mce-benchmark all [--seed N] [--runs R] [--seconds S] [--quick] [--out FILE] [--traces DIR]
//! mce-benchmark compare A.json B.json
//! mce-benchmark list
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command expands to; `run`
//! is the same thing for people. A run prints one JSON object as the
//! last line of its standard output and exits non-zero if a
//! correctness check failed.

mod compare;
mod harness;
mod layers;
mod manifest;
mod probes;
mod report;
mod rng;
mod sim;
mod span;
mod stats;
mod sys;
mod workloads;

use harness::Scale;
use manifest::Manifest;
use report::{Ledger, RunRecord};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Seed used when none is given: the paper's year.
const DEFAULT_SEED: u64 = 1991;

/// Runs per workload `all` makes unless told otherwise: enough for
/// quartiles, and what the acceptance driver's own spread check uses.
const DEFAULT_RUNS: usize = 10;

/// Seconds a `--quick` run measures.
const QUICK_SECONDS: f64 = 0.5;

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    json: Option<PathBuf>,
}

/// A command line split into `--name value` flags and positional
/// arguments.
#[derive(Default)]
struct Parsed {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

/// Split `args`; a flag named in `switches` takes no value.
fn parse_flags(args: &[String], switches: &[&str]) -> Result<Parsed, String> {
    let mut parsed = Parsed::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.strip_prefix("--") {
            Some(name) if switches.contains(&name) => {
                parsed.flags.push((name.to_string(), String::new()));
            }
            Some(name) => {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                parsed.flags.push((name.to_string(), value.clone()));
            }
            None => parsed.positional.push(arg.clone()),
        }
    }
    Ok(parsed)
}

fn number<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("--{name}: cannot read {value:?} as a number"))
}

fn parse_run(m: &Manifest, args: &[String], driver_form: bool) -> Result<RunArgs, String> {
    // `--trace` takes 0|1 in the driver's form and is a switch in `run`.
    let switches: &[&str] = if driver_form { &["quick"] } else { &["quick", "trace"] };
    let Parsed { flags, positional } = parse_flags(args, switches)?;
    let mut run = RunArgs {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: f64::NAN,
        traced: false,
        quick: false,
        json: None,
    };
    if !driver_form {
        run.workload = positional.first().cloned().ok_or("run: which workload?")?;
    }
    for (name, value) in &flags {
        match name.as_str() {
            "workload" => run.workload = value.clone(),
            "seed" => run.seed = number(name, value)?,
            "seconds" => run.seconds = number(name, value)?,
            "trace" if driver_form => run.traced = number::<u8>(name, value)? != 0,
            "trace" => run.traced = true,
            "quick" => run.quick = true,
            "json" => run.json = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    if run.seconds.is_nan() {
        run.seconds = if run.quick { QUICK_SECONDS } else { m.run_seconds as f64 };
    }
    if !(run.seconds > 0.0 && run.seconds <= 600.0) {
        return Err(format!("--seconds {} is outside (0, 600]", run.seconds));
    }
    if !workloads::NAMES.contains(&run.workload.as_str()) {
        return Err(format!("no workload {:?}; try `list`", run.workload));
    }
    Ok(run)
}

fn write_json<T: serde::Serialize>(path: &Path, value: &T) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn run_one(m: &Manifest, args: RunArgs) -> Result<ExitCode, String> {
    let scale = if args.quick { Scale::Quick } else { Scale::Full };
    let outcome = workloads::run(&args.workload, args.seed, args.seconds, scale, args.traced)
        .expect("workload name was validated");
    let record = report::record(
        m,
        &outcome,
        &args.workload,
        args.seed,
        args.seconds,
        args.quick,
        args.traced,
    );
    eprintln!(
        "{} seed {} ({}): sim_digest {}, {} checked, {} failed",
        record.workload,
        record.seed,
        if record.traced { "traced" } else { "untraced" },
        record.sim_digest,
        record.attempted,
        record.failed
    );
    for row in record.metrics.iter().chain(&record.extras) {
        eprintln!("  {:<40} {:>16.6} {}", row.name, row.value, row.unit);
    }
    for why in &record.failures {
        eprintln!("  FAILED: {why}");
    }
    if let Some(path) = &args.json {
        if record.traced {
            write_json(path, &report::trace_file(record.clone(), outcome.spans))?;
        } else {
            write_json(path, &record)?;
        }
    }
    println!("{}", report::result_line(&record));
    Ok(if record.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Run `exe` on one workload in a child process — so peak memory and
/// the process-wide compile cache are that workload's alone — and read
/// back the record it wrote.
fn child_run(exe: &Path, args: &[String], json: &Path) -> Result<String, String> {
    let output = Command::new(exe)
        .args(args)
        .arg("--json")
        .arg(json)
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    if !output.status.success() {
        return Err(format!(
            "{} {} failed:\n{}",
            exe.display(),
            args.join(" "),
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    std::fs::read_to_string(json).map_err(|e| format!("{}: {e}", json.display()))
}

fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let Parsed { flags, .. } = parse_flags(args, &["quick"])?;
    let (mut seed, mut runs, mut seconds, mut quick) = (DEFAULT_SEED, None, None, false);
    let (mut out, mut traces) = (None, None);
    for (name, value) in &flags {
        match name.as_str() {
            "seed" => seed = number(name, value)?,
            "runs" => runs = Some(number::<usize>(name, value)?),
            "seconds" => seconds = Some(number::<f64>(name, value)?),
            "quick" => quick = true,
            "out" => out = Some(PathBuf::from(value)),
            "traces" => traces = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    let runs = runs.unwrap_or(if quick { 1 } else { DEFAULT_RUNS });
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let scratch =
        out.clone().unwrap_or_else(|| PathBuf::from("mce-benchmark")).with_extension("part");
    let base_args = |workload: &str, seed: u64, trace: u8| -> Vec<String> {
        let mut a: Vec<String> =
            ["--workload", workload, "--seed", &seed.to_string(), "--trace", &trace.to_string()]
                .map(String::from)
                .to_vec();
        if let Some(s) = seconds {
            a.extend(["--seconds".to_string(), s.to_string()]);
        }
        if quick {
            a.push("--quick".to_string());
        }
        a
    };

    let mut ledger = Ledger {
        commit: sys::commit(),
        nproc: sys::nproc(),
        rustc: sys::rustc_version(),
        seed,
        runs_per_workload: runs,
        runs: Vec::new(),
    };
    let mut all_correct = true;
    // Workloads interleave, so drift of the box spreads over all of them.
    for i in 0..runs {
        for workload in workloads::NAMES {
            let text = child_run(&exe, &base_args(workload, seed + i as u64, 0), &scratch)?;
            let record: RunRecord = serde_json::from_str(&text).map_err(|e| e.to_string())?;
            let show = |name: &str| {
                record.metrics.iter().find(|r| r.name == name).map_or(f64::NAN, |r| r.value)
            };
            eprintln!(
                "[{}/{runs}] {:<13} wall_s {:.4} cpu_s {:.4} work_per_s {:.0} rss {:.0} MB {}",
                i + 1,
                workload,
                show("wall_s"),
                show("cpu_s"),
                show("work_per_s"),
                show("peak_rss_mb"),
                if record.correct { "ok" } else { "FAILED" }
            );
            all_correct &= record.correct;
            ledger.runs.push(record);
        }
    }
    let _ = std::fs::remove_file(&scratch);
    if let Some(dir) = &traces {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for workload in workloads::NAMES {
            let path = dir.join(format!("trace-{workload}.json"));
            child_run(&exe, &base_args(workload, seed, 1), &path)?;
            eprintln!("traced {workload} -> {}", path.display());
        }
    }
    match &out {
        Some(path) => write_json(path, &ledger)?,
        None => println!("{}", serde_json::to_string_pretty(&ledger).map_err(|e| e.to_string())?),
    }
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn read_ledger(path: &str) -> Result<Ledger, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn list(m: &Manifest) {
    println!("command: {} (files under {})", m.command.join(" "), m.paths.join(", "));
    println!("workloads ({} s per run):", m.run_seconds);
    for w in &m.workloads {
        println!("  {:<14} {}", w.name, w.why);
    }
    println!("end-to-end metrics (untraced run; bound on the median):");
    for e in &m.end_to_end {
        println!(
            "  {:<14} {:<6} {} is better, bound {:.0}%",
            e.name,
            e.unit,
            e.better,
            e.bound * 100.0
        );
    }
    println!("per-layer metrics (traced run):");
    for l in &m.per_layer {
        println!("  {:<40} {:<6} {} is better", l.name, l.unit, l.better);
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let m = manifest::manifest();
    match args.first().map(String::as_str) {
        Some("run") => run_one(&m, parse_run(&m, &args[1..], false)?),
        Some("all") => run_all(&args[1..]),
        Some("list") => {
            list(&m);
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => {
            let [a, b] = &args[1..] else {
                return Err("compare takes two ledger files".to_string());
            };
            let (table, acceptable) = compare::compare(&m, &read_ledger(a)?, &read_ledger(b)?);
            print!("{table}");
            Ok(if acceptable { ExitCode::SUCCESS } else { ExitCode::FAILURE })
        }
        Some(flag) if flag.starts_with("--") => run_one(&m, parse_run(&m, args, true)?),
        _ => Err("usage: mce-benchmark (--workload W --seed N --seconds S --trace 0|1 | run W | all | compare A B | list)".to_string()),
    }
}

fn main() -> ExitCode {
    // Before anything is measured or started: runs, and the children of
    // `all`, are single-CPU (see `sys::pin_to_current_cpu`).
    sys::pin_to_current_cpu();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(why) => {
            eprintln!("mce-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
