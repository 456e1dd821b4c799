//! Multi-session overload acceptance suite (DESIGN.md §10).
//!
//! N concurrent sessions hammering one process under a deliberately tiny
//! admission configuration must stay safe: no panic, no deadlock, the
//! global memory ledger never exceeds its cap, every pass returns within a
//! bounded wait, and every decision is accounted in the `lux.admission.*`
//! metrics. Shed passes degrade to a well-formed "engine busy" widget.
//!
//! The [`AdmissionController`] is process-global, so every test that
//! reconfigures it serializes on one lock and restores the previous
//! configuration on exit (panic included) via a drop guard.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use lux::engine::trace::{names, MetricsRegistry};
use lux::engine::{Admission, AdmissionConfig, AdmissionController, Priority};
use lux::prelude::*;
use lux::LuxDataFrame;

fn admission_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Restores the admission configuration when dropped, so a panicking test
/// cannot leak a 2-slot config into the rest of the binary.
struct ConfigGuard {
    prev: AdmissionConfig,
}

impl ConfigGuard {
    fn install(cfg: AdmissionConfig) -> ConfigGuard {
        let ctl = AdmissionController::global();
        let prev = ctl.config();
        ctl.reconfigure(cfg);
        ConfigGuard { prev }
    }
}

impl Drop for ConfigGuard {
    fn drop(&mut self) {
        AdmissionController::global().reconfigure(self.prev.clone());
    }
}

fn frame(rows: usize) -> DataFrame {
    DataFrameBuilder::new()
        .float("value", (0..rows).map(|i| (i % 997) as f64))
        .float("other", (0..rows).map(|i| ((i * 13) % 71) as f64))
        .str("group", (0..rows).map(|i| ["a", "b", "c", "d"][i % 4]))
        .build()
        .unwrap()
}

/// The ISSUE acceptance scenario: 32 sessions, 2 slots, a 64 MiB global
/// cap. Everything completes, nothing panics, the ledger stays under cap,
/// and admits + sheds account for every pass.
#[test]
fn thirty_two_sessions_two_slots_small_cap_all_complete() {
    let _serial = admission_lock().lock().unwrap();
    let ctl = AdmissionController::global();
    let _guard = ConfigGuard::install(AdmissionConfig {
        max_sessions: 2,
        max_global_bytes: 64 << 20,
        interactive_deadline: Duration::from_millis(2_000),
        max_queue: 64,
        ..ctl.config()
    });
    assert_eq!(ctl.ledger().live(), 0, "ledger must start settled");

    let metrics = MetricsRegistry::global();
    let admits0 = metrics.counter(names::ADMISSION_ADMITS);
    let sheds0 = metrics.counter(names::ADMISSION_SHEDS);

    // A sampler races the sessions and asserts the cap invariant *during*
    // the storm, not just after it settles.
    let done = Arc::new(AtomicBool::new(false));
    let sampler = {
        let done = Arc::clone(&done);
        let ledger = ctl.ledger();
        std::thread::spawn(move || {
            let mut max_seen = 0u64;
            while !done.load(Ordering::Relaxed) {
                max_seen = max_seen.max(ledger.live());
                std::thread::sleep(Duration::from_millis(1));
            }
            max_seen
        })
    };

    let sessions = 32;
    let handles: Vec<_> = (0..sessions)
        .map(|i| {
            std::thread::spawn(move || {
                let ldf = LuxDataFrame::new(frame(2_000 + i * 100));
                let start = Instant::now();
                let widget = ldf.print();
                (widget, start.elapsed())
            })
        })
        .collect();

    let mut shed = 0usize;
    let mut served = 0usize;
    for h in handles {
        let (widget, elapsed) = h.join().expect("session panicked");
        // Deadline-bounded: the wait is capped at 2s; the pass itself on
        // these small frames is far under the slack.
        assert!(
            elapsed < Duration::from_secs(30),
            "pass took {elapsed:?} — deadline bound violated"
        );
        if let Some(note) = widget.shed_note() {
            shed += 1;
            assert!(widget.results().is_empty(), "shed widget served tabs");
            assert!(!note.is_empty(), "shed widget without a reason");
            let rendered = widget.to_string();
            assert!(rendered.contains("engine busy"), "{rendered}");
            assert!(rendered.contains("rows x"), "shed widget lost the table");
        } else {
            served += 1;
        }
    }
    done.store(true, Ordering::Relaxed);
    let ledger_max = sampler.join().unwrap();

    assert_eq!(shed + served, sessions, "a session vanished");
    assert!(served > 0, "tiny config shed every single pass");
    assert!(
        ledger_max <= 64 << 20,
        "ledger exceeded the global cap: {ledger_max}"
    );
    // Interactive admission is one decision per print: admits + sheds
    // across the storm must account for every session exactly.
    let admits = metrics.counter(names::ADMISSION_ADMITS) - admits0;
    let sheds = metrics.counter(names::ADMISSION_SHEDS) - sheds0;
    assert_eq!(
        admits + sheds,
        sessions as u64,
        "admission metrics lost a pass (admits {admits}, sheds {sheds})"
    );
    assert_eq!(admits, served as u64);
    assert_eq!(sheds, shed as u64);
    assert_eq!(ctl.ledger().live(), 0, "ledger leaked after settle");
    assert_eq!(ctl.stats().live_sessions, 0, "slot leaked after settle");
}

/// An idle engine admits at Normal pressure: the always-on pass is
/// unchanged — full tabs, no busy note, no admission footer segment — so
/// single-session (threads=1) behavior and determinism are untouched.
#[test]
fn idle_engine_passes_are_unchanged() {
    let _serial = admission_lock().lock().unwrap();
    let ctl = AdmissionController::global();
    let _guard = ConfigGuard::install(AdmissionConfig {
        max_sessions: 8,
        ..AdmissionConfig::default()
    });
    let ldf = LuxDataFrame::new(frame(500));
    let first = ldf.print();
    assert!(first.shed_note().is_none(), "idle pass was shed");
    assert!(!first.results().is_empty(), "idle pass served no tabs");
    let footer = first.timing_footer().expect("traced pass has a footer");
    assert!(
        !footer.contains("admission"),
        "idle footer polluted: {footer}"
    );
    assert!(!footer.contains("shed"), "idle footer polluted: {footer}");
    // Repeat prints are stable: same tabs in the same order.
    let second = ldf.print();
    assert_eq!(first.tabs(), second.tabs());
    assert_eq!(ctl.stats().live_sessions, 0);
}

/// A print whose deadline is already spent is shed by the controller, not
/// granted a slot and dropped: one shed and no admit, in the metrics and in
/// `stats()` alike, so admits + sheds still equals prints.
#[test]
fn a_spent_deadline_is_one_controller_shed() {
    let _serial = admission_lock().lock().unwrap();
    let ctl = AdmissionController::global();
    let _guard = ConfigGuard::install(AdmissionConfig {
        max_sessions: 8,
        ..AdmissionConfig::default()
    });
    let metrics = MetricsRegistry::global();
    let admits0 = metrics.counter(names::ADMISSION_ADMITS);
    let sheds0 = metrics.counter(names::ADMISSION_SHEDS);
    let stats0 = ctl.stats();
    let opts = PrintOptions::default().with_deadline(Some(Duration::ZERO));
    let widget = LuxDataFrame::new(frame(100)).print_with(&opts);
    let note = widget.shed_note().expect("a spent deadline sheds");
    assert!(note.contains("deadline exhausted"), "{note}");
    assert_eq!(metrics.counter(names::ADMISSION_SHEDS) - sheds0, 1);
    assert_eq!(metrics.counter(names::ADMISSION_ADMITS) - admits0, 0);
    let stats = ctl.stats();
    assert_eq!(
        stats.sheds - stats0.sheds,
        1,
        "stats() disagrees with the metric"
    );
    assert_eq!(stats.admits, stats0.admits, "stats() counted an admit");
    assert_eq!(stats.live_sessions, 0);
}

/// A freed slot immediately revives streaming: the same call that shed
/// under saturation serves results once the permit drops — overload is a
/// state, not a death sentence.
#[test]
fn streaming_recovers_after_slot_frees() {
    let _serial = admission_lock().lock().unwrap();
    let ctl = AdmissionController::global();
    let _guard = ConfigGuard::install(AdmissionConfig {
        max_sessions: 1,
        ..AdmissionConfig::default()
    });
    let held = match ctl.admit(Priority::Interactive) {
        Admission::Granted(p) => p,
        Admission::Shed(r) => panic!("empty engine shed: {}", r.reason),
    };
    let ldf = LuxDataFrame::new(frame(300));
    let starved = ldf.recommendations_streaming().collect_report();
    assert!(starved.results.is_empty(), "slot was held");
    drop(held);
    let revived = ldf.recommendations_streaming().collect_report();
    assert!(
        !revived.results.is_empty(),
        "streaming did not recover after the slot freed"
    );
    assert_eq!(ctl.stats().live_sessions, 0, "streaming leaked its slot");
}

/// A tenant's SLO series move with its prints: a served print observes its
/// latency and its queue wait, a shed one counts a shed.
#[test]
fn a_tenants_served_and_shed_prints_move_its_slo_series() {
    let _serial = admission_lock().lock().unwrap();
    let metrics = MetricsRegistry::global();
    let tenant = "slo-probe";
    let opts = PrintOptions {
        tenant: Some(tenant.to_string()),
        ..PrintOptions::default()
    };
    let ldf = LuxDataFrame::new(frame(100));
    {
        let _roomy = ConfigGuard::install(AdmissionConfig {
            max_sessions: 8,
            ..AdmissionConfig::default()
        });
        assert!(ldf.print_with(&opts).shed_note().is_none());
    }
    let snap = metrics.snapshot();
    for series in [names::TENANT_PASS_LATENCY, names::TENANT_QUEUE_WAIT] {
        let served = snap.tenant_histogram(series, tenant).map(|h| h.count);
        assert_eq!(served, Some(1), "{series}");
    }
    assert_eq!(snap.tenant_counter(names::TENANT_SHEDS, tenant), 0);

    let ctl = AdmissionController::global();
    let _guard = ConfigGuard::install(AdmissionConfig {
        max_sessions: 1,
        interactive_deadline: Duration::from_millis(20),
        ..ctl.config()
    });
    let _held = match ctl.admit(Priority::Interactive) {
        Admission::Granted(p) => p,
        Admission::Shed(r) => panic!("empty engine shed: {}", r.reason),
    };
    assert!(ldf.print_with(&opts).shed_note().is_some());
    let snap = metrics.snapshot();
    assert_eq!(snap.tenant_counter(names::TENANT_SHEDS, tenant), 1);
    let served = snap.tenant_histogram(names::TENANT_PASS_LATENCY, tenant);
    assert_eq!(served.map(|h| h.count), Some(1), "a shed pass is not timed");
}

/// Sheds are visible end to end: the widget, its trace root tags, and the
/// pass-summary footer all carry the reason.
#[test]
fn shed_is_observable_in_widget_trace_and_footer() {
    let _serial = admission_lock().lock().unwrap();
    let ctl = AdmissionController::global();
    let _guard = ConfigGuard::install(AdmissionConfig {
        max_sessions: 1,
        interactive_deadline: Duration::from_millis(20),
        ..ctl.config()
    });
    let _held = match ctl.admit(Priority::Interactive) {
        Admission::Granted(p) => p,
        Admission::Shed(r) => panic!("empty engine shed: {}", r.reason),
    };
    let ldf = LuxDataFrame::new(frame(100));
    let widget = ldf.print();
    let note = widget.shed_note().expect("pass should have been shed");
    assert!(note.contains("no slot"), "{note}");
    let tag = widget
        .trace()
        .and_then(|t| t.span("print"))
        .and_then(|s| s.tag("admission.shed").map(str::to_string))
        .expect("trace missing admission.shed tag");
    assert_eq!(tag, note);
    let footer = widget.timing_footer().expect("shed pass still traced");
    assert!(footer.contains("shed:"), "{footer}");
    let view = widget.render_lux_view(1);
    assert!(view.contains("engine busy"), "{view}");
}
