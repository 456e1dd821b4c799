//! Acceptance tests for the deterministic simulation harness
//! (DESIGN.md §15):
//!
//! - **Detection power**: with a data-loss bug planted behind the
//!   test-only `fsync_loss_bug` flag (a put deletes the previous version
//!   before its own is durable), the seeded explorer finds the
//!   acked-put-lost violation within 200 seeds and emits a minimized,
//!   replayable schedule.
//! - **Soundness**: with the fix active, the same seed budget passes
//!   clean, and the minimized bug schedule no longer fails.
//! - **Replay**: any single seed re-runs byte-for-byte identically
//!   (equal decision fingerprints), with and without the bug.
//!
//! Everything lives in one `#[test]` because the harness drives
//! process-global state (failpoints, the world seed, the virtual
//! clock); cargo's parallel test runner must not interleave phases.

use lux_server::registry::test_flags;
use lux_sim::{explore, minimize, run_schedule, run_seed, Step};

const SEED_BUDGET: u64 = 200;
const STEPS: usize = 40;

#[test]
fn detection_power_soundness_and_exact_replay() {
    let seed = lux_engine::rng::test_seed();
    eprintln!("sim explorer test: LUX_TEST_SEED={seed} (start seed for clean sweep)");

    // ---- Phase 1: detection power (bug re-introduced) -------------------
    test_flags::set_fsync_loss_bug(true);
    let report = explore(1, SEED_BUDGET, STEPS)
        .expect("explorer must find the planted fsync data-loss bug within 200 seeds");
    eprintln!("{report}");
    assert!(
        report.violation.detail.contains("acked put lost")
            || report.violation.detail.contains("stale recovery"),
        "expected the durability violation, got: {}",
        report.violation
    );
    // The minimized schedule still reproduces under the bug…
    let replayed = run_schedule(report.seed, &report.minimized);
    assert!(
        replayed.violation.is_some(),
        "minimized schedule must still fail under the bug"
    );
    // …is genuinely minimal-ish (the core repro is 4 steps: put, arm,
    // overwrite, crash)…
    assert!(
        report.minimized.len() <= 8,
        "minimizer left too much schedule: {} steps",
        report.minimized.len()
    );
    // …and round-trips through the printed form.
    for step in &report.minimized {
        let line = step.to_string();
        assert_eq!(
            &Step::parse(&line).expect("printed steps parse back"),
            step,
            "display/parse round trip for {line:?}"
        );
    }

    // An overwrite whose file fsync fails exposes it too.
    let overwrite: Vec<Step> = ["put 0 1 1", "arm fsync-next", "put 0 1 2", "crash-restart"]
        .iter()
        .map(|line| Step::parse(line).expect("valid step"))
        .collect();
    assert!(run_schedule(1, &overwrite).violation.is_some());

    // Byte-for-byte replay under the bug: same seed, same fingerprint,
    // same violating step.
    let (_, first) = run_seed(report.seed, STEPS);
    let (_, second) = run_seed(report.seed, STEPS);
    assert_eq!(first.fingerprint, second.fingerprint, "bug-run replay");
    assert_eq!(
        first.violation.as_ref().map(|v| v.step),
        second.violation.as_ref().map(|v| v.step),
        "bug-run violation replay"
    );

    // ---- Phase 2: soundness (fix active) --------------------------------
    test_flags::set_fsync_loss_bug(false);
    let fixed = run_schedule(report.seed, &report.minimized);
    assert!(
        fixed.violation.is_none(),
        "the fix must survive the minimized bug schedule, got: {:?}",
        fixed.violation
    );
    assert!(run_schedule(1, &overwrite).violation.is_none());
    if let Some(r) = explore(seed, 40, STEPS) {
        panic!("clean sweep found a violation with the fix active (replay with LUX_TEST_SEED={seed}): {r}");
    }

    // ---- Phase 3: exact replay with the fix active ----------------------
    let (_, a) = run_seed(42, STEPS);
    let (_, b) = run_seed(42, STEPS);
    assert_eq!(a.fingerprint, b.fingerprint, "clean-run replay");
    assert!(a.violation.is_none());

    // Minimize on a passing schedule is a no-op (returns it unchanged).
    let (sched, _) = run_seed(42, 10);
    assert_eq!(minimize(42, &sched), sched);
}
