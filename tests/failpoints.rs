//! Deterministic fault-injection suite (DESIGN.md §10).
//!
//! Every named failpoint is driven end to end: injected CSV/SQL failures
//! surface as ordinary errors, a panic inside the processed-vis memo cache
//! poisons the store and later passes recover, and a pool task that is
//! dropped or stuck holds up no fork-join caller. Failpoints are
//! process-global state, so every test holds a `World`, which serializes
//! the file and clears the table on both entry and exit.

use std::time::Duration;

use lux::engine::failpoint::{self, names as fp};
use lux::engine::trace::{names, MetricsRegistry};
use lux::engine::world::World;
use lux::prelude::*;
use lux::recs::structure_actions::meta_for;
use lux::recs::ActionStatus;
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
fn permanent_sql_errors_fail_fast_without_retry() {
    let chaos = chaos();
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

/// A pool worker stuck in a fork (a `sleep` at `pool.task.run`, on the
/// virtual clock, so it stays stuck until the test advances it) holds up no
/// fork-join caller: the stalled fork claimed no index, so the caller
/// drains the cursor itself.
#[test]
fn a_stuck_pool_worker_does_not_block_fork_join() {
    failpoint::init();
    let world = World::simulated(7);
    world.arm(fp::POOL_TASK_RUN, "1*sleep(250)").unwrap();
    let first: Vec<usize> = lux::engine::pool::parallel_map(4, (0..64).collect(), |_, x: usize| x);
    assert_eq!(first.len(), 64);
    // Whichever worker picks up a fork first is now asleep in it.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while lux::engine::clock::next_deadline() != Some(Duration::from_millis(250)) {
        assert!(
            std::time::Instant::now() < deadline,
            "no pool worker stalled in a fork"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let out: Vec<usize> =
        lux::engine::pool::parallel_map(4, (0..64).collect(), |_, x: usize| x + 1);
    assert_eq!(out.iter().sum::<usize>(), (1..=64).sum::<usize>());
    lux::engine::clock::advance(Duration::from_millis(250));
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

/// An ASYNC action job the pool drops unrun (`return` at `pool.task.run`;
/// at one thread the action jobs are the pass's only pool tasks) settles its
/// action as failed as it drops: the pass closes at once instead of waiting
/// out the hard cutoff, and its health says what happened.
#[test]
fn a_dropped_action_job_fails_without_waiting_for_the_cutoff() {
    let chaos = chaos();
    let config = LuxConfig {
        threads: 1,
        r#async: true,
        ..LuxConfig::default()
    };
    // The hard cutoff is four base budgets.
    let cutoff = config.action_budget.expect("a default budget") * 4;
    let ldf = LuxDataFrame::with_config(frame(400), std::sync::Arc::new(config));
    chaos.arm(fp::POOL_TASK_RUN, "1*return").unwrap();
    let start = std::time::Instant::now();
    let report = ldf.recommendations_streaming().collect_report();
    let took = start.elapsed();
    assert!(
        took < cutoff / 2,
        "the pass waited {took:?} for a dropped job"
    );
    let failed: Vec<_> = (report.health.iter())
        .filter(|h| !h.status.is_ok())
        .collect();
    assert_eq!(failed.len(), 1, "{:?}", report.health);
    let reason = "worker terminated without reporting".to_string();
    assert_eq!(failed[0].status, ActionStatus::Failed(reason));
    assert_eq!(report.results.len() + 1, report.health.len());
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

/// A history action's parent is a frame a print already scanned: under
/// WFLOW a second `meta_for` reads the metadata memoized on the frame, and
/// a read under other overrides (a memo miss) finalizes the partials kept
/// in the frame's own state. Neither scans a column (the armed panic never
/// fires). The no-opt baseline rescans.
#[test]
fn meta_for_a_scanned_frame_finalizes_its_cached_partials() {
    let chaos = chaos();
    let config = LuxConfig::default();
    let df = frame(5_000);
    let first = meta_for(&df, &config);
    chaos
        .arm(fp::METADATA_COLUMN, "panic(column rescanned)")
        .unwrap();
    let again = meta_for(&df, &config);
    assert!(std::sync::Arc::ptr_eq(&again, &first), "the memo missed");
    let overrides = [("pay".to_string(), SemanticType::Nominal)].into();
    let typed = lux::engine::metadata::of_frame(&df, &overrides, true, None, None, 1);
    let mut expected = (*first).clone();
    expected.columns[0].semantic = SemanticType::Nominal;
    assert_eq!(format!("{typed:?}"), format!("{expected:?}"));

    chaos.arm(fp::METADATA_COLUMN, "return").unwrap();
    let trips = || MetricsRegistry::global().counter(names::FAILPOINT_TRIPS);
    let trips0 = trips();
    let no_opt = meta_for(&df, &LuxConfig::no_opt());
    assert!(
        trips() > trips0,
        "the no-opt baseline reused cached partials"
    );
    assert_eq!(format!("{no_opt:?}"), format!("{first:?}"));
}

/// A parent that is an append never printed itself, onto a frame that was:
/// `meta_for` falls back to the append lineage and scans only the tail.
#[test]
fn meta_for_an_unprinted_append_merges_its_base_partials() {
    let _chaos = chaos();
    let config = LuxConfig::default();
    let base = frame(5_000);
    meta_for(&base, &config);
    let appended = base.concat(&frame(100)).expect("concat");
    let merges = || MetricsRegistry::global().counter(names::METADATA_APPEND_MERGES);
    let merges0 = merges();
    meta_for(&appended, &config);
    assert_eq!(
        merges(),
        merges0 + 1,
        "the appended frame was rescanned whole"
    );
}
