//! `lux-benchmark`: the repo benchmark declared in `BENCHMARK.json`.
//!
//! With `--workload` it runs one workload in this process and prints every
//! metric by name with its unit, then one JSON result line. Without it, it
//! runs every workload in a process of its own (so peak RSS and the
//! process-wide memos do not leak across workloads) and summarises; see
//! `benchmark/README.md`.

mod catalog;
mod gen;
mod harness;
mod json;
mod kernels;
mod orchestrate;
mod probe;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Ctx, RunResult};
use workloads::{notebook::NotebookWorkload, print::PrintWorkload, serve::ServeWorkload};

/// Everything the benchmark writes lands here (relative to the repo root,
/// which `run.sh` makes the working directory).
const OUT_DIR: &str = "benchmark/out";

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 11,
        seconds: 20.0,
        trace: false,
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !catalog::WORKLOADS.iter().any(|w| w.name == name) {
                    let known: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload {name:?}; known: {}",
                        known.join(", ")
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => args.trace = true,
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Where and on what the numbers were taken; printed with every run.
fn stamp(workload: &str, args: &Args) -> String {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    let why = catalog::WORKLOADS
        .iter()
        .find(|w| w.name == workload)
        .map_or("", |w| w.why);
    format!(
        "# lux-benchmark workload={workload} seed={} seconds={} trace={} nproc={} engine_threads={} \
         clients={} commit={} rustc={:?} journal_fsync={:?}\n# {workload}: {why}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        lux_engine::LuxConfig::all_opt().effective_threads(),
        workloads::serve::client_count(),
        env("BENCHMARK_COMMIT"),
        env("BENCHMARK_RUSTC"),
        lux_server::journal::JournalConfig::default().fsync,
    )
}

fn run_one(workload: &str, args: &Args) -> ExitCode {
    println!("{}", stamp(workload, args));
    let out_dir = PathBuf::from(OUT_DIR);
    let ctx = Ctx {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        scratch: out_dir.join(format!("run-{}", std::process::id())),
        out_dir,
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.scratch) {
        eprintln!(
            "lux-benchmark: cannot create {}: {e}",
            ctx.scratch.display()
        );
        return ExitCode::from(2);
    }
    let result = match workload {
        "print_wide" | "print_tall" => harness::run::<PrintWorkload>(&ctx, args.trace),
        "notebook" => harness::run::<NotebookWorkload>(&ctx, args.trace),
        "serve_mixed" => harness::run::<ServeWorkload>(&ctx, args.trace),
        other => unreachable!("parse_args admitted workload {other:?}"),
    };
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    report(result, args.trace)
}

/// Print every metric by name with its unit, then the result line.
fn report(mut result: RunResult, trace: bool) -> ExitCode {
    let decls = if trace {
        catalog::PER_LAYER
    } else {
        catalog::END_TO_END
    };
    let mut fields = Vec::new();
    for decl in decls {
        let Some(m) = result.metrics.iter().find(|m| m.name == decl.name) else {
            result
                .violations
                .push(format!("{} was not measured", decl.name));
            continue;
        };
        let samples = m.samples.map_or(String::new(), |n| format!(", n={n}"));
        let better = if decl.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let bound = if trace {
            String::new()
        } else {
            format!(", may worsen {:.0}%", decl.bound * 100.0)
        };
        println!(
            "{:<42} {:>16.4} {:<6} ({better} is better{bound}{samples})",
            m.name, m.value, decl.unit
        );
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        if !m.value.is_finite() {
            result
                .violations
                .push(format!("{} is not a finite number", m.name));
        }
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json::quote(m.name),
            json::quote(decl.unit)
        ));
    }
    for note in &result.notes {
        println!("note: {note}");
    }
    for v in &result.violations {
        println!("CHECK FAILED: {v}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct(),
        result.attempted.max(1),
        result.failed,
        fields.join(", ")
    );
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lux-benchmark: {e}");
            eprintln!(
                "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] \
                 [--trace 0|1 | --traced] [--check-repeat]"
            );
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(workload) if !args.check_repeat => run_one(workload, &args),
        _ => orchestrate::run(&args),
    }
}
