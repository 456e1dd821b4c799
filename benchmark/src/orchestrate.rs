//! Runs spanning several workloads: the full set (one child process per
//! workload) and the repeatability check.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use crate::catalog::{self, END_TO_END};
use crate::json::{self, Json};
use crate::Args;

struct ChildRun {
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

/// Run one workload in a child process and parse its result line. With
/// `echo`, the child's report is passed through.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    echo: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    let line = stdout.lines().last().unwrap_or_default();
    let parsed = json::parse(line)
        .map_err(|e| format!("{workload}: no result line ({e}); exit {}", output.status))?;
    let metrics = parsed
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or(format!("{workload}: result line has no metrics"))?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildRun {
        correct: output.status.success()
            && parsed.get("correct").and_then(Json::as_bool) == Some(true),
        metrics,
    })
}

pub fn run(args: &Args) -> ExitCode {
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => catalog::WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let outcome = if args.check_repeat {
        check_repeat(args, &workloads)
    } else {
        full_set(args, &workloads)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("lux-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Every workload untraced, and traced as well under `--traced`.
fn full_set(args: &Args, workloads: &[&str]) -> Result<bool, String> {
    let mut all_correct = true;
    for workload in workloads {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            all_correct &= child(workload, args.seed, args.seconds, trace, true)?.correct;
            println!();
        }
    }
    println!(
        "# {} workload(s): {}",
        workloads.len(),
        if all_correct {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(all_correct)
}

/// Relative difference of `b` against `a`.
fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a).abs() / a.abs().max(f64::MIN_POSITIVE)
    }
}

/// Verdict on one (metric, workload) pair from two same-seed runs `a`, `b`
/// and one run `c` on another seed.
fn verdict(name: &str, bound: f64, a: f64, b: f64, c: f64) -> &'static str {
    let exact = matches!(name, "topk_recall" | "success_ratio");
    let same_seed_ok = if exact {
        a == b
    } else {
        rel_diff(a, b) <= bound
    };
    if !same_seed_ok {
        "FAIL"
    } else if rel_diff(a, c) > bound {
        "unresolved"
    } else {
        "ok"
    }
}

/// The untraced set twice on one seed and once on the next: same-seed pairs
/// must agree within each metric's bound (`topk_recall` and `success_ratio`
/// exactly); cross-seed pairs wider than the bound are marked unresolved.
fn check_repeat(args: &Args, workloads: &[&str]) -> Result<bool, String> {
    let mut all_ok = true;
    println!(
        "{:<12} {:<20} {:>12} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "C(seed+1)", "A~B", "A~C", "bound"
    );
    for workload in workloads {
        let mut runs = Vec::new();
        for (label, seed) in [("A", args.seed), ("B", args.seed), ("C", args.seed + 1)] {
            eprintln!("check-repeat: {workload} run {label} (seed {seed})");
            let run = child(workload, seed, args.seconds, false, false)?;
            if !run.correct {
                println!("{workload:<12} run {label} failed its own checks");
                all_ok = false;
            }
            runs.push(run.metrics);
        }
        for decl in END_TO_END {
            let value = |run: &BTreeMap<String, f64>| {
                run.get(decl.name)
                    .copied()
                    .ok_or(format!("{workload}: {} missing", decl.name))
            };
            let (a, b, c) = (value(&runs[0])?, value(&runs[1])?, value(&runs[2])?);
            let v = verdict(decl.name, decl.bound, a, b, c);
            all_ok &= v != "FAIL";
            println!(
                "{workload:<12} {:<20} {a:>12.4} {b:>12.4} {c:>12.4} {:>7.1}% {:>7.1}% {:>5.0}%  {v}",
                decl.name,
                rel_diff(a, b) * 100.0,
                rel_diff(a, c) * 100.0,
                decl.bound * 100.0,
            );
        }
    }
    println!("# check-repeat: {}", if all_ok { "ok" } else { "FAILED" });
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        assert_eq!(verdict("latency_p50_ms", 0.10, 10.0, 10.9, 10.5), "ok");
        assert_eq!(verdict("latency_p50_ms", 0.10, 10.0, 11.1, 10.0), "FAIL");
        assert_eq!(
            verdict("latency_p50_ms", 0.10, 10.0, 10.0, 12.0),
            "unresolved"
        );
        // recall and success must repeat exactly on the same seed
        assert_eq!(verdict("topk_recall", 0.01, 1.0, 0.999, 1.0), "FAIL");
        assert_eq!(verdict("success_ratio", 0.01, 1.0, 1.0, 1.0), "ok");
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
    }
}
