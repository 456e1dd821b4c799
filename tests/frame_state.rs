//! What a print keeps lives on the printed frame's identity
//! (`DataFrame::state`): one metadata entry (the scan plan, the pass's
//! partials and the memoized metadata with its value lists), the PRUNE
//! sample and the processed-vis memo. Other frames' work never evicts it,
//! and dropping the last frame of the identity frees it — nothing a print
//! leaves behind points back at the frame. The metadata entry is keyed on
//! its scan plan: a read under another budget's plan rescans instead of
//! inheriting a degraded scan, and a hit charges and records what its miss
//! planned.
//!
//! The tests read the process-wide memo counters, so they run one at a time.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use lux::engine::governor::{BudgetHandle, ResourceBudget};
use lux::engine::trace::{names, MetricsRegistry, TraceCollector};
use lux::prelude::*;
use lux::vis::{Channel, Encoding, Mark, ProcessOptions, VisSpec};
use lux::{LuxDataFrame, Widget};

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn memo_counts() -> (u64, u64) {
    let metrics = MetricsRegistry::global();
    let hits = metrics.counter(names::VIS_MEMO_HIT);
    (hits, metrics.counter(names::VIS_MEMO_MISS))
}

/// Each served vis as `(mark, filtered)`.
fn served(widget: &Widget) -> Vec<(Mark, bool)> {
    let visses = widget.results().iter().flat_map(|r| r.vislist.iter());
    visses
        .map(|v| (v.spec.mark, !v.spec.filters.is_empty()))
        .collect()
}

#[test]
fn other_frames_never_evict_a_frames_processed_views() {
    let _serial = serial();
    let config = Arc::new(LuxConfig::wflow_only());
    let frame = lux::workloads::airbnb(1_500, 7);
    let first = LuxDataFrame::with_config(frame.clone(), Arc::clone(&config)).print();
    assert!(!served(&first).is_empty(), "the print served nothing");

    // More processed views over other frames than one frame's memo holds.
    let histogram = VisSpec::new(
        Mark::Histogram,
        vec![Encoding::new("price", SemanticType::Quantitative, Channel::X).with_bin(10)],
        vec![],
    );
    let opts = ProcessOptions {
        memo: true,
        ..ProcessOptions::default()
    };
    for seed in 0..300 {
        let other = lux::workloads::airbnb(50, seed);
        lux::vis::process(&histogram, &other, &opts).expect("histogram");
    }

    // A fresh wrapper has no WFLOW recommendations, so its pass processes
    // again — every view from the frame's own memo.
    let (hits, misses) = memo_counts();
    let again = LuxDataFrame::with_config(frame, config).print();
    assert_eq!(served(&again), served(&first));
    let (hits_after, misses_after) = memo_counts();
    assert!(
        hits_after > hits,
        "the reprint processed nothing from the memo"
    );
    assert_eq!(
        misses_after, misses,
        "another frame's views evicted this one's"
    );
}

#[test]
fn dropping_a_printed_frame_frees_what_its_print_kept() {
    let _serial = serial();
    for detached in [false, true] {
        let config = LuxConfig {
            r#async: detached,
            ..LuxConfig::wflow_only()
        };
        let mut ldf = LuxDataFrame::with_config(lux::workloads::airbnb(1_500, 7), Arc::new(config));
        ldf.set_intent_strs(["price"]).expect("intent parses");
        let state = Arc::downgrade(ldf.data().state());
        let widget = ldf.print();
        let marks = served(&widget);
        for mark in [Mark::Bar, Mark::Histogram, Mark::Scatter] {
            assert!(marks.iter().any(|&(m, _)| m == mark), "no {mark:?} served");
        }
        assert!(
            marks.iter().any(|&(_, filtered)| filtered),
            "no filtered view served"
        );
        drop((widget, ldf));
        assert!(
            state.upgrade().is_none(),
            "async={detached}: the frame's state outlived it"
        );
    }

    // A print whose PRUNE gate engages keeps the drawn sample in the frame's
    // state; the draw's history retains the frame, so the state must not.
    let config = LuxConfig {
        sample_cap: 100,
        top_k: 2,
        ..LuxConfig::wflow_prune()
    };
    let ldf = LuxDataFrame::with_config(lux::workloads::airbnb(1_500, 7), Arc::new(config));
    let state = Arc::downgrade(ldf.data().state());
    let widget = ldf.print();
    let trace = widget.trace().expect("a print records a trace");
    let engaged = (trace.spans.iter()).any(|s| s.tag("prune") == Some("engaged"));
    assert!(engaged, "no PRUNE gate engaged");
    drop((widget, ldf));
    assert!(
        state.upgrade().is_none(),
        "the PRUNE sample kept the frame's state alive"
    );

    // An intent print that builds value lists keeps them in the metadata
    // memo on the frame's state.
    let config = Arc::new(LuxConfig::wflow_only());
    let mut ldf = LuxDataFrame::with_config(lux::workloads::airbnb(1_500, 7), config);
    ldf.set_intent_strs(["price", "room_type=?"])
        .expect("intent parses");
    let state = Arc::downgrade(ldf.data().state());
    let widget = ldf.print();
    assert!(
        !widget.results().is_empty(),
        "the intent print served nothing"
    );
    let meta = ldf.metadata();
    let room_type = meta.column("room_type").expect("room_type");
    assert!(
        room_type.unique_values.is_built(),
        "no value list was built"
    );
    drop((meta, widget, ldf));
    assert!(
        state.upgrade().is_none(),
        "the value lists kept the frame's state alive"
    );
}

/// A `df = df[...]` chain keeps only what the history actions read: the
/// frame before the last filter and the frame before the last aggregate.
/// Every other ancestor's state is freed once its wrapper drops, however
/// long the chain.
#[test]
fn a_chain_of_derived_frames_keeps_only_the_two_history_parents() {
    let _serial = serial();
    let rows = 1_500;
    let base = DataFrameBuilder::new()
        .int("g", 0..rows)
        .float("x", (0..rows).map(|i| (i % 97) as f64))
        .float("y", (0..rows).map(|i| ((i * 31) % 53) as f64))
        .build()
        .expect("frame builds");
    let mut ldf = LuxDataFrame::with_config(base, Arc::new(LuxConfig::wflow_only()));
    let mut ancestors = Vec::new();
    for step in 0..20 {
        let next = match step % 3 {
            0 => ldf.filter("x", FilterOp::Ne, &Value::Float(step as f64)),
            1 => Ok(ldf.head(ldf.num_rows() - 10)),
            _ => ldf.groupby_agg(&["g"], &[("x", Agg::Sum), ("y", Agg::Mean)]),
        };
        let next = next.expect("step derives");
        assert!(
            !next.print().results().is_empty(),
            "step {step} served nothing"
        );
        ancestors.push((ldf.fingerprint(), Arc::downgrade(ldf.data().state())));
        ldf = next;
    }

    let history = ldf.data().history();
    let filter_parent = history.filter_parent().expect("a filter parent");
    let aggregate_parent = history.aggregate_parent().expect("an aggregate parent");
    // step 19 is a head, step 17 the last group-by
    assert_eq!(filter_parent.fingerprint(), ancestors[19].0);
    assert_eq!(aggregate_parent.fingerprint(), ancestors[17].0);
    for (step, (fingerprint, state)) in ancestors.iter().enumerate() {
        let kept = [filter_parent.fingerprint(), aggregate_parent.fingerprint()];
        assert_eq!(
            state.upgrade().is_some(),
            kept.contains(fingerprint),
            "the input of step {step} is alive exactly when a history parent"
        );
    }
}

/// Metadata scanned under a tight budget is kept under the plan that
/// budget made: a default-budget wrapper over a clone plans exact, so it
/// rescans instead of reading the degraded entry, and the tight print's
/// governor events are what they were.
#[test]
fn a_tight_print_does_not_degrade_a_default_wrappers_metadata() {
    let _serial = serial();
    let frame = lux::workloads::airbnb(20_000, 7);
    let tight = Arc::new(LuxConfig {
        budget: ResourceBudget {
            max_bytes: 64 << 10,
            ..ResourceBudget::default()
        },
        ..LuxConfig::wflow_only()
    });
    let tight_note = |frame: &DataFrame| {
        let widget = LuxDataFrame::with_config(frame.clone(), Arc::clone(&tight)).print();
        widget.governor_note().map(str::to_string)
    };
    let first = tight_note(&frame).expect("the tight print degraded nothing");
    assert!(
        first.starts_with("governor: 14 step(s) degraded: metadata:"),
        "{first}"
    );

    let ldf = LuxDataFrame::with_config(frame.clone(), Arc::new(LuxConfig::wflow_only()));
    let widget = ldf.print();
    assert_eq!(widget.governor_note(), None, "the default print degraded");
    let meta = ldf.metadata();
    let id = meta.column("id").expect("id");
    assert_eq!((id.cardinality, id.cardinality_estimated), (20_000, false));

    assert_eq!(tight_note(&frame).as_deref(), Some(first.as_str()));
}

/// The metadata twin of the processed-vis memo's rule: a WFLOW hit charges
/// and records what its miss planned, so a pass's accounting does not
/// depend on whether the frame's metadata was already read.
#[test]
fn a_metadata_hit_charges_and_records_what_its_miss_planned() {
    let _serial = serial();
    let overrides = std::collections::HashMap::new();
    let tight = ResourceBudget {
        max_bytes: 64 << 10,
        ..ResourceBudget::default()
    };
    // (budget, the cold read's charge where pinned, its event count)
    let cases = [
        (ResourceBudget::default(), Some(2_880_048), 0),
        (tight, None, 14),
    ];
    for threads in [1, 8] {
        for (budget, charged, events) in &cases {
            let df = lux::workloads::airbnb(20_000, 7);
            let read = || {
                let h = BudgetHandle::new(budget.clone());
                let trace = TraceCollector::new();
                let root = trace.begin(None, "metadata");
                let pass = Some((trace.as_ref(), root));
                lux::engine::metadata::of_frame(&df, &overrides, true, pass, Some(&h), threads);
                trace.end(root);
                let scans = (trace.snapshot().spans.iter())
                    .filter(|s| s.name.starts_with("column:"))
                    .count();
                let events: Vec<String> = h.events().iter().map(|e| e.to_string()).collect();
                ((h.charged(), events), scans)
            };
            let ((cold, cold_scans), (warm, warm_scans)) = (read(), read());
            assert_eq!(cold.1.len(), *events, "threads={threads}: {:?}", cold.1);
            if let Some(charged) = charged {
                assert_eq!(cold.0, *charged, "threads={threads}");
            }
            assert_eq!(warm, cold, "threads={threads}: the hit's accounting");
            assert!(
                cold_scans > 0,
                "threads={threads}: the cold read scanned nothing"
            );
            assert_eq!(warm_scans, 0, "threads={threads}: the hit scanned");
        }
    }
}

/// Every read of one wrapper plans under the wrapper's own budget: a
/// print and `validate_intent` on a tight wrapper share the frame's one
/// metadata entry, so three rounds of both scan the frame once.
#[test]
fn a_tight_wrappers_reads_share_one_metadata_scan() {
    let _serial = serial();
    let config = LuxConfig {
        budget: ResourceBudget {
            max_bytes: 64 << 10,
            ..ResourceBudget::default()
        },
        ..LuxConfig::wflow_only()
    };
    let mut ldf = LuxDataFrame::with_config(lux::workloads::airbnb(20_000, 7), Arc::new(config));
    ldf.set_intent_strs(["price"]).expect("intent");
    let misses = || MetricsRegistry::global().counter(names::META_MEMO_MISS);
    let misses0 = misses();
    for _ in 0..3 {
        ldf.print();
        ldf.validate_intent();
    }
    assert_eq!(misses() - misses0, 1, "the wrapper's reads rescanned");
}
