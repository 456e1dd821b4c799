//! Fault isolation for the recommendation executor.
//!
//! Lux's core promise is that recommendations are *always on*: every
//! dataframe print must return something useful, fast (paper §8.2). The
//! action framework deliberately runs arbitrary user code — §7.2's custom
//! actions — so the executor must assume any action can panic, error, hang,
//! or return garbage, and still render every healthy action's results.
//!
//! This module provides the pieces the executor (see [`crate::generate`])
//! composes:
//!
//! - [`ActionError`] — the structured failure taxonomy;
//! - [`isolate`] — runs an action body under `std::panic::catch_unwind`
//!   with a panic hook that captures the payload and panic site (and keeps
//!   isolated panics off stderr) so a panic becomes a value, not a crash;
//! - [`Deadline`] — cooperative per-action time budgets, derived from the
//!   cost model (see `crate::plan`) and `LuxConfig::action_budget`;
//! - [`CircuitBreaker`] — per-action failure tracking: after N consecutive
//!   failures an action is skipped with a recorded reason, and re-probed
//!   (half-open) after M fresh frames;
//! - [`ActionStatus`] / [`ActionHealth`] / [`RunReport`] — per-action health
//!   surfaced to the widget, streaming consumers, and the CLI.
//!
//! Faults are injected with a [`crate::CustomAction`] whose closure panics,
//! errors or hangs, and with the `action.score:<name>` failpoint for slow
//! scoring (`lux_engine::failpoint`).

use std::collections::HashMap;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once};
use std::time::{Duration, Instant};

use lux_engine::lock_recover;

use crate::action::ActionResult;

// ---------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------

/// Why one action's execution failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ActionError {
    /// The action panicked; the payload (and panic site, when the hook saw
    /// it) is preserved.
    Panicked { payload: String },
    /// The action exceeded its wall-clock budget before producing anything
    /// servable. (`completed` of `total` candidates were scored.)
    TimedOut {
        budget: Duration,
        completed: usize,
        total: usize,
    },
    /// Candidate generation returned an error.
    Generation(String),
    /// Every candidate that survived ranking failed during processing.
    Processing(String),
}

impl ActionError {
    /// Short machine-readable kind tag.
    pub fn kind(&self) -> &'static str {
        match self {
            ActionError::Panicked { .. } => "panicked",
            ActionError::TimedOut { .. } => "timed-out",
            ActionError::Generation(_) => "generation",
            ActionError::Processing(_) => "processing",
        }
    }
}

impl fmt::Display for ActionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActionError::Panicked { payload } => write!(f, "panicked: {payload}"),
            ActionError::TimedOut {
                budget,
                completed,
                total,
            } => write!(
                f,
                "timed out after {budget:?} ({completed}/{total} candidates scored)"
            ),
            ActionError::Generation(e) => write!(f, "generation failed: {e}"),
            ActionError::Processing(e) => write!(f, "processing failed: {e}"),
        }
    }
}

impl std::error::Error for ActionError {}

// ---------------------------------------------------------------------
// Per-action health
// ---------------------------------------------------------------------

/// The terminal status of one action within a recommendation pass.
#[derive(Debug, Clone, PartialEq)]
pub enum ActionStatus {
    /// Completed normally; results are exact.
    Ok,
    /// Completed, but served partial or sample-scored results (reason
    /// attached) because its deadline expired.
    Degraded(String),
    /// Produced nothing this pass (reason attached).
    Failed(String),
    /// Skipped by the circuit breaker (reason attached).
    Disabled(String),
}

impl ActionStatus {
    pub fn name(&self) -> &'static str {
        match self {
            ActionStatus::Ok => "ok",
            ActionStatus::Degraded(_) => "degraded",
            ActionStatus::Failed(_) => "failed",
            ActionStatus::Disabled(_) => "disabled",
        }
    }

    pub fn reason(&self) -> Option<&str> {
        match self {
            ActionStatus::Ok => None,
            ActionStatus::Degraded(r) | ActionStatus::Failed(r) | ActionStatus::Disabled(r) => {
                Some(r)
            }
        }
    }

    pub fn is_ok(&self) -> bool {
        matches!(self, ActionStatus::Ok)
    }
}

impl fmt::Display for ActionStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.reason() {
            Some(r) => write!(f, "{} ({r})", self.name()),
            None => f.write_str(self.name()),
        }
    }
}

/// One action's health record for a pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionHealth {
    pub action: String,
    pub status: ActionStatus,
}

impl ActionHealth {
    pub fn new(action: impl Into<String>, status: ActionStatus) -> ActionHealth {
        ActionHealth {
            action: action.into(),
            status,
        }
    }
}

impl fmt::Display for ActionHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.action, self.status)
    }
}

/// Everything a recommendation pass produced: the healthy results plus the
/// per-action health ledger (one entry per action that ran, failed, or was
/// skipped — actions that applied but generated zero candidates are omitted,
/// matching the pre-fault-layer behavior of invisible empty tabs).
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    pub results: Vec<ActionResult>,
    pub health: Vec<ActionHealth>,
}

impl RunReport {
    /// The status recorded for `action`, if any.
    pub fn status_of(&self, action: &str) -> Option<&ActionStatus> {
        self.health
            .iter()
            .find(|h| h.action == action)
            .map(|h| &h.status)
    }

    /// Health entries that are not plain `Ok` (what UIs surface).
    pub fn problems(&self) -> Vec<&ActionHealth> {
        self.health.iter().filter(|h| !h.status.is_ok()).collect()
    }
}

// ---------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------

/// A cooperative wall-clock deadline. `Deadline::none()` never expires.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Option<Instant>,
    budget: Duration,
}

impl Deadline {
    pub fn none() -> Deadline {
        Deadline {
            at: None,
            budget: Duration::ZERO,
        }
    }

    pub fn after(budget: Duration) -> Deadline {
        Deadline {
            at: Some(lux_engine::clock::now() + budget),
            budget,
        }
    }

    /// A planned `budget` from now (no deadline without one), falling no
    /// later than `latest`.
    pub(crate) fn planned(budget: Option<Duration>, latest: Option<Instant>) -> Deadline {
        let Some(budget) = budget else {
            return Deadline::none();
        };
        let at = lux_engine::clock::now() + budget;
        let at = Some(latest.map_or(at, |latest| at.min(latest)));
        Deadline { at, budget }
    }

    /// When the deadline falls; `None` for no deadline.
    pub(crate) fn at(&self) -> Option<Instant> {
        self.at
    }

    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| lux_engine::clock::now() >= at)
    }

    /// The budget this deadline was created with (zero for `none`).
    pub fn budget(&self) -> Duration {
        self.budget
    }
}

// ---------------------------------------------------------------------
// Panic isolation
// ---------------------------------------------------------------------

thread_local! {
    /// Name of the action currently running isolated on this thread, if any.
    static ISOLATED_ACTION: std::cell::RefCell<Option<String>> =
        const { std::cell::RefCell::new(None) };
    /// Panic site (`file:line`) captured by the hook for the latest isolated
    /// panic on this thread.
    static LAST_PANIC_SITE: std::cell::RefCell<Option<String>> =
        const { std::cell::RefCell::new(None) };
}

static INSTALL_HOOK: Once = Once::new();

/// Install the capturing panic hook (idempotent). For panics raised while an
/// [`isolate`] body is on the stack, the hook records the panic site for the
/// taxonomy and suppresses the default stderr backtrace — an isolated action
/// failure is an expected, reported condition, not a crash. Panics on any
/// other thread flow to the previously-installed hook untouched.
pub fn install_panic_capture() {
    INSTALL_HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let isolated = ISOLATED_ACTION.with(|a| a.borrow().is_some());
            if isolated {
                let site = info
                    .location()
                    .map(|l| format!("{}:{}", l.file(), l.line()))
                    .unwrap_or_else(|| "unknown location".to_string());
                LAST_PANIC_SITE.with(|s| *s.borrow_mut() = Some(site));
            } else {
                previous(info);
            }
        }));
    });
}

fn panic_payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Run `f` with panic isolation: a panic inside `f` is converted into
/// [`ActionError::Panicked`] carrying the payload and panic site, instead of
/// unwinding into the executor.
pub fn isolate<R>(action: &str, f: impl FnOnce() -> R) -> std::result::Result<R, ActionError> {
    install_panic_capture();
    ISOLATED_ACTION.with(|a| *a.borrow_mut() = Some(action.to_string()));
    LAST_PANIC_SITE.with(|s| *s.borrow_mut() = None);
    let outcome = panic::catch_unwind(AssertUnwindSafe(f));
    ISOLATED_ACTION.with(|a| *a.borrow_mut() = None);
    outcome.map_err(|payload| {
        let message = panic_payload_string(payload.as_ref());
        let payload = match LAST_PANIC_SITE.with(|s| s.borrow_mut().take()) {
            Some(site) => format!("{message} at {site}"),
            None => message,
        };
        ActionError::Panicked { payload }
    })
}

// ---------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Healthy: the action runs normally.
    Closed,
    /// Tripped at the given frame; skipped until the cooldown elapses.
    Open { since_frame: u64 },
    /// Cooldown elapsed: the next run is a probe — one failure re-opens.
    HalfOpen,
}

#[derive(Debug)]
struct BreakerEntry {
    consecutive_failures: u32,
    state: BreakerState,
    last_reason: String,
}

impl Default for BreakerEntry {
    fn default() -> BreakerEntry {
        BreakerEntry {
            consecutive_failures: 0,
            state: BreakerState::Closed,
            last_reason: String::new(),
        }
    }
}

/// What the breaker says about an action at the start of a pass.
#[derive(Debug, Clone, PartialEq)]
pub enum BreakerDecision {
    /// Run normally.
    Run,
    /// Run as a half-open probe (a failure re-opens immediately).
    Probe,
    /// Skip; the reason explains the disablement.
    Skip(String),
}

/// Per-action consecutive-failure tracking shared across frames (it lives in
/// the [`crate::ActionRegistry`], which derived frames share by `Arc`). A
/// "frame" here is one recommendation pass — [`begin_frame`] is called once
/// per pass, so an action disabled after N consecutive failures is re-probed
/// after M *fresh frames*, not after wall-clock time.
///
/// [`begin_frame`]: CircuitBreaker::begin_frame
#[derive(Debug, Default)]
pub struct CircuitBreaker {
    entries: Mutex<HashMap<String, BreakerEntry>>,
    frame: AtomicU64,
}

impl CircuitBreaker {
    /// Advance the frame clock; returns the new frame number.
    pub fn begin_frame(&self) -> u64 {
        self.frame.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// The current frame number.
    pub fn current_frame(&self) -> u64 {
        self.frame.load(Ordering::SeqCst)
    }

    /// Decide whether `action` runs this pass. `cooldown_frames` is the M
    /// after which an open breaker half-opens.
    pub fn decision(&self, action: &str, cooldown_frames: u64) -> BreakerDecision {
        let now = self.current_frame();
        let mut entries = lock_recover(&self.entries);
        let Some(entry) = entries.get_mut(action) else {
            return BreakerDecision::Run;
        };
        match entry.state {
            BreakerState::Closed => BreakerDecision::Run,
            BreakerState::HalfOpen => BreakerDecision::Probe,
            BreakerState::Open { since_frame } => {
                if now.saturating_sub(since_frame) >= cooldown_frames.max(1) {
                    entry.state = BreakerState::HalfOpen;
                    BreakerDecision::Probe
                } else {
                    BreakerDecision::Skip(format!(
                        "disabled after {} consecutive failure(s); last: {}; retrying in {} frame(s)",
                        entry.consecutive_failures,
                        entry.last_reason,
                        cooldown_frames.max(1) - now.saturating_sub(since_frame),
                    ))
                }
            }
        }
    }

    /// Record a success: closes the breaker and clears the failure streak.
    pub fn record_success(&self, action: &str) {
        let mut entries = lock_recover(&self.entries);
        if let Some(entry) = entries.get_mut(action) {
            entry.consecutive_failures = 0;
            entry.state = BreakerState::Closed;
            entry.last_reason.clear();
        }
    }

    /// Record a failure. Opens the breaker when the streak reaches
    /// `threshold` (or instantly if the action was a half-open probe).
    /// Returns `true` when this failure left the breaker open.
    pub fn record_failure(&self, action: &str, reason: &str, threshold: u32) -> bool {
        let now = self.current_frame();
        let mut entries = lock_recover(&self.entries);
        let entry = entries.entry(action.to_string()).or_default();
        entry.consecutive_failures += 1;
        entry.last_reason = reason.to_string();
        let reopen =
            entry.state == BreakerState::HalfOpen || entry.consecutive_failures >= threshold.max(1);
        if reopen {
            entry.state = BreakerState::Open { since_frame: now };
        }
        reopen
    }

    /// Whether `action` is currently open (disabled).
    pub fn is_open(&self, action: &str) -> bool {
        matches!(
            lock_recover(&self.entries).get(action).map(|e| e.state),
            Some(BreakerState::Open { .. })
        )
    }

    /// The action's current consecutive-failure streak.
    pub fn consecutive_failures(&self, action: &str) -> u32 {
        lock_recover(&self.entries)
            .get(action)
            .map_or(0, |e| e.consecutive_failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolate_turns_panics_into_errors() {
        let err = isolate("Test", || -> usize { panic!("boom {}", 42) }).unwrap_err();
        match &err {
            ActionError::Panicked { payload } => {
                assert!(payload.contains("boom 42"), "payload: {payload}");
                assert!(
                    payload.contains("fault.rs"),
                    "panic site captured: {payload}"
                );
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(err.kind(), "panicked");
        // and normal bodies pass through untouched
        assert_eq!(isolate("Test", || 7usize).unwrap(), 7);
    }

    #[test]
    fn isolate_is_reentrant_across_calls() {
        for _ in 0..3 {
            assert!(isolate("A", || panic!("x")).is_err());
            assert_eq!(isolate("A", || 1).unwrap(), 1);
        }
    }

    #[test]
    fn breaker_opens_after_threshold_and_half_opens_after_cooldown() {
        let b = CircuitBreaker::default();
        b.begin_frame();
        assert_eq!(b.decision("A", 2), BreakerDecision::Run);
        assert!(!b.record_failure("A", "panicked: x", 3));
        assert!(!b.record_failure("A", "panicked: x", 3));
        assert!(
            b.record_failure("A", "panicked: x", 3),
            "third failure opens"
        );
        assert!(b.is_open("A"));

        // cooldown of 2 frames: skipped on the next frame...
        b.begin_frame();
        assert!(matches!(b.decision("A", 2), BreakerDecision::Skip(_)));
        // ...half-open once 2 fresh frames have elapsed
        b.begin_frame();
        assert_eq!(b.decision("A", 2), BreakerDecision::Probe);

        // probe failure re-opens instantly
        assert!(b.record_failure("A", "panicked: x", 3));
        assert!(b.is_open("A"));

        // cooldown again; a successful probe closes it fully
        b.begin_frame();
        b.begin_frame();
        assert_eq!(b.decision("A", 2), BreakerDecision::Probe);
        b.record_success("A");
        assert_eq!(b.decision("A", 2), BreakerDecision::Run);
        assert_eq!(b.consecutive_failures("A"), 0);
    }

    #[test]
    fn breaker_success_resets_streak() {
        let b = CircuitBreaker::default();
        b.begin_frame();
        b.record_failure("A", "e", 3);
        b.record_failure("A", "e", 3);
        b.record_success("A");
        assert_eq!(b.consecutive_failures("A"), 0);
        b.record_failure("A", "e", 3);
        assert!(!b.is_open("A"), "streak restarted after success");
    }

    #[test]
    fn deadline_expiry() {
        let d = Deadline::none();
        assert!(!d.expired());
        let d = Deadline::after(Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(10));
        assert!(d.expired());
    }

    #[test]
    fn status_display_includes_reason() {
        assert_eq!(ActionStatus::Ok.to_string(), "ok");
        let s = ActionStatus::Failed("panicked: boom".into());
        assert_eq!(s.to_string(), "failed (panicked: boom)");
        assert_eq!(s.name(), "failed");
        assert!(!s.is_ok());
    }
}
