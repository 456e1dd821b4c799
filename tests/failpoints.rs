//! Deterministic fault-injection suite (DESIGN.md §10).
//!
//! Every named failpoint is driven end to end: injected CSV/SQL failures
//! surface as ordinary errors, transient SQL errors are retried with
//! backoff, a panic inside the processed-vis memo cache poisons the store
//! and later passes recover, and a panic escaping a pool worker loop gets
//! the worker respawned by its supervisor. Failpoints are process-global
//! state, so every test holds a `World`, which serializes the file and
//! clears the table on both entry and exit.

use std::time::Duration;

use lux::engine::failpoint::{self, names as fp};
use lux::engine::trace::{names, MetricsRegistry};
use lux::engine::world::World;
use lux::prelude::*;
use lux::vis::{process, Backend, Channel, Encoding, Mark, ProcessOptions, VisSpec};
use lux::LuxDataFrame;

/// A World over a clean table: `LUX_FAILPOINTS` is armed (by `init`)
/// before entering clears it, never mid-test.
fn chaos() -> World {
    failpoint::init();
    World::enter()
}

fn frame(rows: usize) -> DataFrame {
    DataFrameBuilder::new()
        .float("pay", (0..rows).map(|i| 40.0 + ((i * 13) % 70) as f64))
        .float("age", (0..rows).map(|i| 22.0 + ((i * 7) % 40) as f64))
        .str("dept", (0..rows).map(|i| ["Sales", "Eng", "HR"][i % 3]))
        .build()
        .unwrap()
}

fn scatter() -> VisSpec {
    VisSpec::new(
        Mark::Scatter,
        vec![
            Encoding::new("pay", SemanticType::Quantitative, Channel::X),
            Encoding::new("age", SemanticType::Quantitative, Channel::Y),
        ],
        vec![],
    )
}

#[test]
fn csv_ingest_failpoint_surfaces_as_parse_error() {
    let chaos = chaos();
    chaos.arm(fp::CSV_INGEST, "return(disk gremlin)").unwrap();
    let err = LuxDataFrame::read_csv_str("a,b\n1,2\n").err().unwrap();
    assert!(err.to_string().contains("injected ingest failure"), "{err}");
    chaos.disarm(fp::CSV_INGEST);
    let df = LuxDataFrame::read_csv_str("a,b\n1,2\n").unwrap();
    assert_eq!(df.num_rows(), 1);
}

#[test]
fn transient_sql_errors_retry_with_backoff_then_succeed() {
    let chaos = chaos();
    let metrics = MetricsRegistry::global();
    let retries0 = metrics.counter(names::SQL_RETRIES);
    // Two transient refusals, then the backend works: the third of the
    // three budgeted attempts succeeds.
    chaos
        .arm(fp::SQL_QUERY, "2*return(connection reset by peer)")
        .unwrap();
    let df = frame(100);
    let opts = ProcessOptions {
        backend: Backend::Sql,
        ..ProcessOptions::default()
    };
    let out = process(&scatter(), &df, &opts).expect("retries should have recovered");
    assert_eq!(out.num_rows(), 100);
    assert!(
        metrics.counter(names::SQL_RETRIES) >= retries0 + 2,
        "transient errors were not counted as retries"
    );
}

#[test]
fn permanent_sql_errors_fail_fast_without_retry() {
    let chaos = chaos();
    let metrics = MetricsRegistry::global();
    let retries0 = metrics.counter(names::SQL_RETRIES);
    chaos
        .arm(fp::SQL_QUERY, "return(malformed projection)")
        .unwrap();
    let df = frame(50);
    let opts = ProcessOptions {
        backend: Backend::Sql,
        ..ProcessOptions::default()
    };
    let err = process(&scatter(), &df, &opts).unwrap_err();
    assert!(
        err.to_string().contains("injected backend failure"),
        "{err}"
    );
    assert_eq!(
        metrics.counter(names::SQL_RETRIES),
        retries0,
        "a permanent error must not be retried"
    );
}

/// The PR 4 poisoning audit, as a regression test: a panic raised while the
/// processed-vis memo store lock is held poisons the mutex mid-pass; the
/// next pass must both succeed *and* still use the cache (the pre-audit
/// `.lock().ok()?` silently disabled it for the rest of the process).
#[test]
fn memo_cache_survives_poisoning_and_keeps_caching() {
    let chaos = chaos();
    let df = frame(200);
    let opts = ProcessOptions {
        memo: true,
        ..ProcessOptions::default()
    };
    // Poison: the panic fires inside the store's critical section.
    chaos
        .arm(fp::MEMO_VIS_INSERT, "1*panic(injected insert fault)")
        .unwrap();
    let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = process(&scatter(), &df, &opts);
    }));
    assert!(poisoned.is_err(), "panic failpoint did not fire");
    chaos.disarm(fp::MEMO_VIS_INSERT);

    // Recovery: the next pass succeeds and the cache still serves hits.
    let metrics = MetricsRegistry::global();
    let first = process(&scatter(), &df, &opts).expect("pass after poisoning failed");
    let hits0 = metrics.counter(names::VIS_MEMO_HIT);
    let second = process(&scatter(), &df, &opts).expect("repeat pass failed");
    assert!(
        metrics.counter(names::VIS_MEMO_HIT) > hits0,
        "memo cache wedged after poisoning — repeat process() did not hit"
    );
    assert_eq!(first.num_rows(), second.num_rows());
}

/// A panic escaping the worker *loop* (not a task) is caught by the
/// supervisor, counted, and the worker restarted — the pool self-heals
/// instead of silently shrinking.
#[test]
fn pool_worker_panic_is_respawned_by_supervisor() {
    let chaos = chaos();
    let metrics = MetricsRegistry::global();
    // Touch the pool first so workers exist before the failpoint arms.
    let warm: Vec<usize> =
        lux::engine::pool::parallel_map(4, (0..64).collect(), |_, x: usize| x * 2);
    assert_eq!(warm[5], 10);
    let respawns0 = metrics.counter(names::POOL_RESPAWNS);
    chaos
        .arm(fp::POOL_WORKER_LOOP, "1*panic(injected loop fault)")
        .unwrap();
    // Idle workers re-enter the loop top within their 50ms nap, so the
    // panic fires without any help; poll for the supervisor's restart.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while metrics.counter(names::POOL_RESPAWNS) == respawns0 {
        assert!(
            std::time::Instant::now() < deadline,
            "supervisor never respawned the panicked worker"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    chaos.disarm(fp::POOL_WORKER_LOOP);
    // The pool still does correct fork-join work afterwards.
    let healed: Vec<usize> =
        lux::engine::pool::parallel_map(4, (0..64).collect(), |_, x: usize| x + 1);
    assert_eq!(healed.iter().sum::<usize>(), (1..=64).sum::<usize>());
}

/// A pool worker stuck on one task past the watchdog threshold is flagged
/// (and a replacement worker started on its queue) while fork-join callers
/// keep completing: the stalled fork claimed no index, so the caller
/// drains the cursor itself.
#[test]
fn hung_pool_worker_is_flagged_by_the_watchdog() {
    let chaos = chaos();
    let metrics = MetricsRegistry::global();
    let warm: Vec<usize> = lux::engine::pool::parallel_map(4, (0..64).collect(), |_, x: usize| x);
    assert_eq!(warm.len(), 64);
    let hung0 = metrics.counter(names::POOL_HUNG_WORKERS);
    lux::engine::pool::set_watchdog_ms(20);
    // Whichever worker runs the next pool task stalls in it for 6s.
    chaos.arm(fp::POOL_TASK_RUN, "1*sleep(6000)").unwrap();
    let out: Vec<usize> =
        lux::engine::pool::parallel_map(4, (0..64).collect(), |_, x: usize| x + 1);
    assert_eq!(out.iter().sum::<usize>(), (1..=64).sum::<usize>());
    // The watchdog may be mid-nap on its old threshold (at most 1s).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while metrics.counter(names::POOL_HUNG_WORKERS) == hung0 {
        assert!(
            std::time::Instant::now() < deadline,
            "watchdog never flagged the stalled worker"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    lux::engine::pool::set_watchdog_ms(30_000);
}

/// A dropped pool task (`return` at `pool.task.run`) cannot hang fork-join
/// callers: the caller drains the index cursor itself.
#[test]
fn dropped_pool_tasks_do_not_hang_fork_join() {
    let chaos = chaos();
    chaos.arm(fp::POOL_TASK_RUN, "3*return").unwrap();
    let out: Vec<usize> = lux::engine::pool::parallel_map(8, (0..256).collect(), |_, x: usize| x);
    assert_eq!(out.len(), 256);
    assert_eq!(out[255], 255);
}

/// Chaos sweep over a whole always-on pass: metadata, memo lookup, and
/// pool failpoints all armed with small counts. The print completes, tabs
/// or a table are served, and after clearing chaos the engine is healthy.
#[test]
fn chaotic_print_pass_completes_and_recovers() {
    let chaos = chaos();
    let metrics = MetricsRegistry::global();
    let trips0 = metrics.counter(names::FAILPOINT_TRIPS);
    chaos
        .arm(fp::METADATA_COLUMN, "2*return(metadata chaos)")
        .unwrap();
    chaos
        .arm(fp::MEMO_VIS_LOOKUP, "4*return(lookup chaos)")
        .unwrap();
    chaos.arm(fp::POOL_TASK_RUN, "1*return").unwrap();
    chaos
        .arm(fp::MEMO_VIS_INSERT, "2*return(insert chaos)")
        .unwrap();
    let ldf = LuxDataFrame::new(frame(400));
    let widget = ldf.print();
    assert!(
        !widget.table().is_empty(),
        "chaotic pass lost even the table"
    );
    assert!(
        metrics.counter(names::FAILPOINT_TRIPS) > trips0,
        "no failpoint actually fired during the chaotic pass"
    );
    chaos.clear_faults();
    let clean = LuxDataFrame::new(frame(400)).print();
    assert!(clean.shed_note().is_none());
    assert!(
        !clean.results().is_empty(),
        "engine unhealthy after chaos cleared"
    );
}

/// `LUX_FAILPOINTS`-style specs parse; malformed actions are rejected
/// loudly rather than silently ignored, and the catalogue stays complete.
#[test]
fn failpoint_spec_parsing_round_trips() {
    let chaos = chaos();
    for name in fp::ALL {
        chaos.arm(name, "off").unwrap();
    }
    assert!(fp::ALL.len() >= 8, "failpoint catalogue shrank");
    assert!(chaos.arm(fp::CSV_INGEST, "dance(badly)").is_err());
    assert!(chaos.arm(fp::CSV_INGEST, "sleep").is_err());
}
