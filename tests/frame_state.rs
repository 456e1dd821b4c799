//! What a print keeps lives on the printed frame's identity
//! (`DataFrame::state`): the metadata pass's partials, the metadata memo
//! with its value lists, the PRUNE sample and the processed-vis memo. Other
//! frames' work never evicts it, and dropping the last frame of the identity
//! frees it — nothing a print leaves behind points back at the frame.
//!
//! The tests read the process-wide memo counters, so they run one at a time.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use lux::engine::trace::{names, MetricsRegistry};
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
