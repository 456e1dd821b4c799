//! Admission under the virtual clock (DESIGN.md §15): the condvar
//! priority queue must not lose a wakeup when a waiter's deadline
//! expires in the same virtual tick as a slot free — the interleaving
//! the real-time overload test cannot pin. A background stream waits in
//! that queue once, for exactly its deadline. The ASYNC pass an admitted
//! streaming run holds its slot for waits on the same clock, so its hard
//! cutoff is the driver's to pass.
//!
//! This file is its own test binary (root `tests/` layout), and each test
//! holds a `World::simulated` for its whole body, so the process-global
//! virtual clock has one owner at a time.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lux::prelude::*;
use lux::recs::ActionStatus;
use lux_engine::trace::{names, MetricsRegistry};
use lux_engine::world::World;
use lux_engine::{
    clock, Admission, AdmissionConfig, AdmissionController, Priority, ResourceBudget,
};

fn one_slot() -> AdmissionConfig {
    AdmissionConfig {
        max_sessions: 1,
        interactive_deadline: Duration::from_millis(50),
        background_deadline: Duration::from_millis(50),
        max_queue: 4,
        ..AdmissionConfig::default()
    }
}

/// Block until the controller reports a queued waiter (bounded by real
/// time; the waiter registers within a couple of its 2 ms sim naps).
fn wait_for_queue(c: &AdmissionController) {
    let start = Instant::now();
    while c.stats().queue_depth == 0 {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "waiter never joined the admission queue"
        );
        std::thread::yield_now();
    }
}

#[test]
fn no_lost_wakeup_when_deadline_expires_in_the_slot_free_tick() {
    let _world = World::simulated(0);

    // Phase A — slot frees first, deadline expires in the same tick: the
    // wakeup must not be lost; the waiter MUST be granted (the admit
    // loop re-checks slot availability before its deadline).
    for round in 0..25 {
        let c = Arc::new(AdmissionController::new(one_slot()));
        let permit = match c.admit(Priority::Interactive) {
            Admission::Granted(p) => p,
            Admission::Shed(r) => panic!("round {round}: empty controller shed: {}", r.reason),
        };
        let (tx, rx) = mpsc::channel();
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || {
            let _ = tx.send(c2.admit(Priority::Interactive));
        });
        wait_for_queue(&c);
        // The critical tick: free the slot, then expire the deadline at
        // the same virtual instant — no clock movement in between.
        drop(permit);
        clock::advance(Duration::from_millis(50));
        let res = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("waiter must return when its deadline and a slot free coincide");
        h.join().expect("waiter thread");
        match res {
            Admission::Granted(p) => drop(p),
            Admission::Shed(r) => panic!(
                "round {round}: lost wakeup — slot freed before the deadline \
                 tick but the waiter shed: {}",
                r.reason
            ),
        }
        assert_eq!(c.stats().queue_depth, 0, "round {round}: queue drained");
        assert_eq!(c.stats().live_sessions, 0, "round {round}: slots drained");
    }

    // Phase B — deadline expires first, slot frees immediately after in
    // the same scheduling window: either outcome (grant or shed) is
    // legal, but the waiter must return promptly and the queue must
    // drain — a hang here is the lost-wakeup bug.
    for round in 0..25 {
        let c = Arc::new(AdmissionController::new(one_slot()));
        let permit = match c.admit(Priority::Interactive) {
            Admission::Granted(p) => p,
            Admission::Shed(r) => panic!("round {round}: empty controller shed: {}", r.reason),
        };
        let (tx, rx) = mpsc::channel();
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || {
            let _ = tx.send(c2.admit(Priority::Interactive));
        });
        wait_for_queue(&c);
        clock::advance(Duration::from_millis(50));
        drop(permit);
        let res = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("waiter must return after its deadline expired");
        h.join().expect("waiter thread");
        if let Admission::Granted(p) = res {
            drop(p);
        }
        assert_eq!(c.stats().queue_depth, 0, "round {round}: queue drained");
        assert_eq!(c.stats().live_sessions, 0, "round {round}: slots drained");
    }
}

/// A waiter whose deadline passes with the slot still held must shed in
/// virtual time — and the shed must happen even though wall time barely
/// moved (the deadline is measured on the virtual clock).
#[test]
fn deadline_is_measured_in_virtual_time() {
    let _world = World::simulated(0);
    let c = Arc::new(AdmissionController::new(one_slot()));
    let _held = match c.admit(Priority::Interactive) {
        Admission::Granted(p) => p,
        Admission::Shed(r) => panic!("empty controller shed: {}", r.reason),
    };
    let (tx, rx) = mpsc::channel();
    let c2 = Arc::clone(&c);
    let h = std::thread::spawn(move || {
        let _ = tx.send(c2.admit(Priority::Interactive));
    });
    wait_for_queue(&c);
    // Without clock movement the waiter must still be waiting…
    assert!(
        rx.recv_timeout(Duration::from_millis(200)).is_err(),
        "waiter returned while virtual time was frozen"
    );
    // …and expiring the deadline virtually sheds it.
    clock::advance(Duration::from_millis(60));
    match rx
        .recv_timeout(Duration::from_secs(10))
        .expect("waiter returns once virtual deadline passes")
    {
        Admission::Shed(r) => assert!(r.reason.contains("no slot"), "{}", r.reason),
        Admission::Granted(_) => panic!("slot is held; grant is impossible"),
    }
    h.join().expect("waiter thread");
}

/// A streaming run with one action hung in a failpoint sleep: the healthy
/// actions deliver on frozen virtual time, and once the driver advances
/// past the hard cutoff (four 10 s budgets) the pass closes at once — no
/// real time waited — with the hung action failed, its admission slot
/// free and the pass's charge off the ledger. When the abandoned worker's
/// sleep ends it delivers nothing.
#[test]
fn the_hard_cutoff_of_an_async_pass_is_on_the_virtual_clock() {
    let world = World::simulated(0);
    let n = 400;
    let df = DataFrameBuilder::new()
        .float("price", (0..n).map(|i| 10.0 + (i % 17) as f64))
        .float("size", (0..n).map(|i| (i * 7 % 23) as f64))
        .str("kind", (0..n).map(|i| ["a", "b", "c"][i % 3]))
        .build()
        .expect("frame");
    let config = LuxConfig {
        r#async: true,
        action_budget: Some(Duration::from_secs(10)),
        ..LuxConfig::default()
    };
    let mut ldf = LuxDataFrame::with_config(df, Arc::new(config));
    ldf.register_action(CustomAction::new(
        "Hang",
        |_| true,
        |ctx| Ok(ctx.compile(&[Clause::axis("price")])),
    ));
    world
        .arm("action.score:Hang", "1*sleep(60000)")
        .expect("arm");
    let trips = || MetricsRegistry::global().counter(names::FAILPOINT_TRIPS);
    let asleep = trips() + 1;
    let real = Instant::now();
    let run = ldf.recommendations_streaming();
    for _ in 1..run.expected() {
        run.next_result().expect("a healthy action delivers");
    }
    // Pass the cutoff only once `Hang` sleeps in its failpoint: before it
    // scores, its own 10 s deadline would expire first and fail it.
    while trips() < asleep {
        assert!(real.elapsed() < Duration::from_secs(10), "Hang never slept");
        std::thread::yield_now();
    }
    clock::advance(Duration::from_secs(41));
    let report = run.collect_report();
    let took = real.elapsed();
    assert!(
        took < Duration::from_secs(5),
        "waited {took:?} of real time"
    );
    match report.status_of("Hang") {
        Some(ActionStatus::Failed(reason)) => {
            assert!(reason.starts_with("exceeded hard deadline"), "{reason}")
        }
        other => panic!("the hung action reads {other:?}"),
    }
    let admission = AdmissionController::global();
    assert_eq!(admission.stats().live_sessions, 0, "the slot is free");
    assert_eq!(
        admission.stats().ledger_live,
        0,
        "the abandoned action's bytes left the ledger with the pass"
    );
    clock::advance(Duration::from_secs(20));
    while admission.stats().ledger_live > 0 {
        let left = admission.stats().ledger_live;
        assert!(
            real.elapsed() < Duration::from_secs(10),
            "{left} B stay charged"
        );
        std::thread::yield_now();
    }
}

/// With every slot held, a streaming run waits in the queue once and sheds
/// when exactly `background_deadline` of virtual time has passed — not a
/// tick sooner, and with no second attempt after it. Its report carries
/// one failed health entry naming the reason.
#[test]
fn a_background_stream_sheds_after_exactly_its_deadline() {
    let _world = World::simulated(0);
    let ctl = AdmissionController::global();
    let deadline = ctl.config().background_deadline;
    let held: Vec<_> = (0..ctl.config().max_sessions)
        .map(|_| match ctl.admit(Priority::Interactive) {
            Admission::Granted(p) => p,
            Admission::Shed(r) => panic!("idle controller shed: {}", r.reason),
        })
        .collect();
    let sheds = ctl.stats().sheds;
    let (tx, rx) = mpsc::channel();
    let h = std::thread::spawn(move || {
        let df = DataFrameBuilder::new()
            .float("price", (0..200).map(|i| (i % 17) as f64))
            .str("kind", (0..200).map(|i| ["a", "b", "c"][i % 3]))
            .build()
            .expect("frame");
        let _ = tx.send(LuxDataFrame::new(df).recommendations_streaming());
    });
    wait_for_queue(ctl);
    let queued = clock::now();
    clock::advance(deadline - Duration::from_millis(1));
    assert!(
        rx.recv_timeout(Duration::from_millis(200)).is_err(),
        "the stream shed before its deadline"
    );
    clock::advance(Duration::from_millis(1));
    let run = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the stream sheds once its deadline has passed");
    h.join().expect("stream thread");
    assert_eq!(clock::elapsed(queued), deadline);
    assert_eq!(ctl.stats().sheds, sheds + 1, "one wait, one shed");
    assert_eq!(run.expected(), 0, "a shed stream dispatched actions");
    let report = run.collect_report();
    assert!(report.results.is_empty());
    let problem = report
        .health
        .iter()
        .find(|h| !h.status.is_ok())
        .expect("a shed run carries a health entry")
        .to_string();
    let reason = format!("no slot within {}ms", deadline.as_millis());
    assert!(
        problem.contains("shed by admission control") && problem.contains(&reason),
        "{problem}"
    );
    drop(held);
    assert_eq!(ctl.stats().live_sessions, 0);
}

/// A streaming run's metadata scan charges the run's admitted budget, as a
/// print's does: under a budget too small for an exact distinct set, the
/// cold scan of a near-unique column degrades to a sketch estimate (an
/// unbudgeted scan would count it exactly). The pass's whole charge still
/// leaves the ledger by the time `collect_report` returns.
#[test]
fn a_streaming_run_charges_its_metadata_scan_to_its_budget() {
    let _world = World::simulated(0);
    let n = 10_000;
    let df = DataFrameBuilder::new()
        .float("price", (0..n).map(|i| i as f64 * 0.25))
        .str("kind", (0..n).map(|i| ["a", "b", "c"][i % 3]))
        .build()
        .expect("frame");
    let config = LuxConfig {
        budget: ResourceBudget {
            max_bytes: 64 << 10,
            ..ResourceBudget::default()
        },
        ..LuxConfig::default()
    };
    let ldf = LuxDataFrame::with_config(df, Arc::new(config));
    let run = ldf.recommendations_streaming();
    assert!(run.expected() > 0, "an idle engine shed the stream");
    run.collect_report();
    let admission = AdmissionController::global();
    assert_eq!(admission.stats().live_sessions, 0, "the slot is free");
    assert_eq!(
        admission.stats().ledger_live,
        0,
        "the pass's charge left the ledger with the pass"
    );
    // The stream computed the frame's metadata; this read is its memo.
    let meta = ldf.metadata();
    let price = meta.column("price").expect("price column");
    assert!(
        price.cardinality_estimated,
        "the stream's metadata scan ran outside its {} B budget",
        64 << 10
    );
}
