//! The four Lux experimental conditions must be performance knobs, not
//! semantics knobs: given the same frame, `no-opt`, `wflow`, `wflow+prune`
//! (with a sample covering the whole frame) and `all-opt` must produce the
//! same recommendations. The benchmark comparisons in Figures 10-12 are
//! only meaningful if the conditions compute the same thing.

use std::sync::Arc;

use lux::prelude::*;
use lux::workloads::Condition;

fn fixture() -> DataFrame {
    DataFrameBuilder::new()
        .float("a", (0..120).map(|i| i as f64))
        .float("b", (0..120).map(|i| ((i * 17) % 31) as f64))
        .float("c", (0..120).map(|i| (120 - i) as f64))
        .str("g", (0..120).map(|i| ["p", "q", "r"][i % 3]))
        .datetime(
            "d",
            (0..120).map(|i| format!("2020-{:02}-{:02}", (i % 12) + 1, (i % 28) + 1)),
        )
        .build()
        .unwrap()
}

/// Canonical signature of a recommendation set: action name -> ordered spec
/// descriptions.
fn signature(recs: &[ActionResult]) -> Vec<(String, Vec<String>)> {
    let mut out: Vec<(String, Vec<String>)> = recs
        .iter()
        .map(|r| {
            (
                r.action.clone(),
                r.vislist.iter().map(|v| v.spec.describe()).collect(),
            )
        })
        .collect();
    out.sort();
    out
}

#[test]
fn all_conditions_produce_identical_recommendations() {
    let df = fixture();
    let mut signatures = Vec::new();
    for cond in [
        Condition::NoOpt,
        Condition::Wflow,
        Condition::WflowPrune,
        Condition::AllOpt,
    ] {
        let mut cfg = cond.config().expect("lux condition");
        // sample covers the frame -> prune is exactness-preserving here
        cfg.sample_cap = 10_000;
        let ldf = LuxDataFrame::with_config(df.clone(), Arc::new(cfg));
        signatures.push((cond.name(), signature(&ldf.recommendations())));
    }
    for (name, sig) in &signatures[1..] {
        assert_eq!(
            sig, &signatures[0].1,
            "condition {name} disagrees with {}",
            signatures[0].0
        );
    }
}

/// Conditions agree under an intent too — and so do the two ways into a
/// pass: a print and a streaming run of the same frame, intent and config
/// yield the same tabs, specs and score bits at every thread count.
#[test]
fn conditions_agree_under_intent_too() {
    let df = fixture();
    let scored = |recs: &[ActionResult]| -> Vec<(String, Vec<(String, u64)>)> {
        let vis = |v: &Vis| (v.spec.describe(), v.score.to_bits());
        recs.iter()
            .map(|r| (r.action.clone(), r.vislist.iter().map(vis).collect()))
            .collect()
    };
    let mut signatures = Vec::new();
    for cond in [
        Condition::NoOpt,
        Condition::Wflow,
        Condition::WflowPrune,
        Condition::AllOpt,
    ] {
        for threads in [1, 8] {
            let mut cfg = cond.config().expect("lux condition");
            cfg.sample_cap = 10_000;
            cfg.threads = threads;
            let mut ldf = LuxDataFrame::with_config(df.clone(), Arc::new(cfg));
            ldf.set_intent_strs(["a", "b"]).unwrap();
            let streamed = ldf.recommendations_streaming().collect_report().results;
            let printed = ldf.print();
            assert_eq!(
                scored(printed.results()),
                scored(&streamed),
                "print and streaming run disagree under {} at threads={threads}",
                cond.name()
            );
            signatures.push(signature(printed.results()));
        }
    }
    for sig in &signatures[1..] {
        assert_eq!(sig, &signatures[0]);
    }
}

#[test]
fn scores_are_identical_across_conditions() {
    let df = fixture();
    let scores = |cfg: LuxConfig| -> Vec<(String, Vec<String>)> {
        let ldf = LuxDataFrame::with_config(df.clone(), Arc::new(cfg));
        ldf.recommendations()
            .iter()
            .map(|r| {
                (
                    r.action.clone(),
                    r.vislist
                        .iter()
                        .map(|v| format!("{:.12}", v.score))
                        .collect(),
                )
            })
            .collect()
    };
    let mut a = scores(LuxConfig {
        sample_cap: 10_000,
        ..LuxConfig::no_opt()
    });
    let mut b = scores(LuxConfig {
        sample_cap: 10_000,
        ..LuxConfig::all_opt()
    });
    a.sort();
    b.sort();
    assert_eq!(
        a, b,
        "final scores must be exact regardless of optimizations"
    );
}
