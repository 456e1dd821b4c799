//! Table 1 conformance: the four action classes with their default actions,
//! and the frame states that trigger each.

use lux::prelude::*;
use lux::recs::{ActionClass, ActionRegistry};

#[test]
fn default_registry_covers_table1() {
    let registry = ActionRegistry::with_defaults();
    let by_class = |class: ActionClass| -> Vec<&str> {
        registry
            .actions()
            .iter()
            .filter(|a| a.class() == class)
            .map(|a| a.name())
            .collect()
    };
    // Metadata: Distribution, Occurrence, Temporal, Geographic, Correlation
    let metadata = by_class(ActionClass::Metadata);
    for name in [
        "Distribution",
        "Occurrence",
        "Temporal",
        "Geographic",
        "Correlation",
    ] {
        assert!(metadata.contains(&name), "missing metadata action {name}");
    }
    // Intent: Enhance, Filter, Generalize (+ Current Vis)
    let intent = by_class(ActionClass::Intent);
    for name in ["Enhance", "Filter", "Generalize", "Current Vis"] {
        assert!(intent.contains(&name), "missing intent action {name}");
    }
    // Structure: Series, Index
    let structure = by_class(ActionClass::Structure);
    for name in ["Series", "Index"] {
        assert!(structure.contains(&name), "missing structure action {name}");
    }
    // History: Pre-aggregate, Pre-filter
    let history = by_class(ActionClass::History);
    for name in ["Pre-aggregate", "Pre-filter"] {
        assert!(history.contains(&name), "missing history action {name}");
    }
    assert_eq!(registry.len(), 13, "Table 1 lists 13 default actions");
}

fn mixed_frame() -> LuxDataFrame {
    LuxDataFrame::new(
        DataFrameBuilder::new()
            .float("quant_a", (0..60).map(|i| i as f64))
            .float("quant_b", (0..60).map(|i| ((i * 31) % 17) as f64))
            .str("nominal", (0..60).map(|i| ["x", "y", "z"][i % 3]))
            .str("country", (0..60).map(|i| ["USA", "Chad", "Japan"][i % 3]))
            .datetime(
                "date",
                (0..60).map(|i| format!("2020-01-{:02}", (i % 28) + 1)),
            )
            .build()
            .unwrap(),
    )
}

#[test]
fn metadata_actions_fire_per_column_types() {
    let tabs: Vec<String> = mixed_frame()
        .print()
        .tabs()
        .iter()
        .map(|s| s.to_string())
        .collect();
    for t in [
        "Correlation",
        "Distribution",
        "Occurrence",
        "Temporal",
        "Geographic",
    ] {
        assert!(tabs.contains(&t.to_string()), "missing {t} in {tabs:?}");
    }
    // no intent, no structure, no history triggers on a plain frame
    for t in [
        "Enhance",
        "Filter",
        "Series",
        "Index",
        "Pre-filter",
        "Pre-aggregate",
    ] {
        assert!(!tabs.contains(&t.to_string()), "unexpected {t} in {tabs:?}");
    }
}

#[test]
fn intent_actions_replace_overviews() {
    let mut df = mixed_frame();
    df.set_intent_strs(["quant_a", "quant_b"]).unwrap();
    let tabs: Vec<String> = df.print().tabs().iter().map(|s| s.to_string()).collect();
    for t in ["Current Vis", "Enhance", "Filter"] {
        assert!(tabs.contains(&t.to_string()), "missing {t} in {tabs:?}");
    }
    assert!(!tabs.contains(&"Correlation".to_string()));
}

#[test]
fn generalize_needs_two_clauses() {
    let mut df = mixed_frame();
    df.set_intent_strs(["quant_a"]).unwrap();
    assert!(!df.print().tabs().contains(&"Generalize"));
    df.set_intent_strs(["quant_a", "nominal=x"]).unwrap();
    assert!(df.print().tabs().contains(&"Generalize"));
}

#[test]
fn structure_actions_on_shapes() {
    // one-column frame -> Series action
    let single = mixed_frame().select(&["quant_a"]).unwrap();
    assert!(single.print().tabs().contains(&"Series"));

    // pivot result -> Index action with row-wise series (Figure 7)
    let pivot = mixed_frame()
        .pivot("nominal", "country", "quant_a", Agg::Mean)
        .unwrap();
    let widget = pivot.print();
    assert!(widget.tabs().contains(&"Index"));
}

#[test]
fn history_actions_on_workflow_states() {
    // head of a larger frame -> Pre-filter
    let head = mixed_frame().head(4);
    assert!(head.print().tabs().contains(&"Pre-filter"));

    // isin and drop_duplicates subset rows too -> Pre-filter
    let base = mixed_frame();
    let isin = (base.data())
        .isin("quant_a", &[Value::Float(1.0), Value::Float(2.0)])
        .unwrap();
    assert!(LuxDataFrame::new(isin)
        .print()
        .tabs()
        .contains(&"Pre-filter"));
    let dedup = base.data().drop_duplicates(&["nominal"]).unwrap();
    assert!(LuxDataFrame::new(dedup)
        .print()
        .tabs()
        .contains(&"Pre-filter"));

    // groupby result -> Pre-aggregate (visualizing the parent's measures)
    let agg = mixed_frame()
        .groupby_agg(&["nominal"], &[("quant_a", Agg::Mean)])
        .unwrap();
    let widget = agg.print();
    let pre = widget
        .results()
        .iter()
        .find(|r| r.action == "Pre-aggregate")
        .unwrap();
    // charts are built over the 60-row parent, not the 3-row aggregate
    let data_rows: usize = pre.vislist.visualizations[0]
        .data
        .as_ref()
        .map(|d| d.num_rows())
        .unwrap_or(0);
    assert!(data_rows <= 3, "processed bar chart groups by the key");
    assert!(pre.vislist.iter().all(|v| v.spec.mark == Mark::Bar));
}

#[test]
fn every_action_ranks_descending() {
    let mut df = mixed_frame();
    df.set_intent_strs(["quant_a"]).unwrap();
    for result in df.print().results() {
        let scores: Vec<f64> = result.vislist.iter().map(|v| v.score).collect();
        for w in scores.windows(2) {
            assert!(
                w[0] >= w[1],
                "action {} is not ranked descending: {scores:?}",
                result.action
            );
        }
    }
}

#[test]
fn top_k_respected_everywhere() {
    let df = LuxDataFrame::with_config(
        lux::workloads::synthetic_wide(40, 300, 5),
        std::sync::Arc::new(LuxConfig {
            top_k: 4,
            ..LuxConfig::default()
        }),
    );
    for result in df.print().results() {
        assert!(
            result.vislist.len() <= 4,
            "action {} exceeded k",
            result.action
        );
    }
}

const CANDIDATES_GOLDEN: &str = include_str!("golden/default_candidates.txt");

/// What every applicable default action generates on `ldf`, in registry
/// order: each candidate's mark, its encodings (attribute, semantic type,
/// channel, aggregation, bin), its filters and, for a candidate pinned to
/// another frame, that frame's row count.
fn describe_candidates(label: &str, ldf: &LuxDataFrame) -> String {
    use lux::recs::ActionContext;
    use std::fmt::Write as _;
    let meta = ldf.metadata();
    let ctx = ActionContext {
        df: ldf.data(),
        meta: &meta,
        intent: &[],
        intent_specs: &[],
        config: ldf.config(),
        max_candidates: usize::MAX,
    };
    let mut out = format!("== {label}\n");
    for action in lux::recs::default_actions() {
        if !action.applies(&ctx) {
            continue;
        }
        let candidates = action.generate(&ctx).expect("default actions generate");
        writeln!(out, "{} ({})", action.name(), candidates.len()).unwrap();
        for c in candidates {
            let mut line = format!("  {}", c.spec.mark.name());
            for e in &c.spec.encodings {
                let synthetic = if e.synthetic { " synthetic" } else { "" };
                write!(
                    line,
                    " | {}:{:?}@{} agg={:?} bin={:?}{synthetic}",
                    e.attribute,
                    e.semantic,
                    e.channel.name(),
                    e.aggregation,
                    e.bin
                )
                .unwrap();
            }
            for f in &c.spec.filters {
                write!(line, " | filter {f}").unwrap();
            }
            if let Some(frame) = &c.frame {
                write!(line, " | on {} rows", frame.num_rows()).unwrap();
            }
            writeln!(out, "{line}").unwrap();
        }
    }
    out
}

/// Characterization of the default actions' search spaces on every frame
/// shape that triggers one: the plain mixed frame (metadata actions), a
/// head (Pre-filter), a one-column select (Series), one- and two-level
/// group-bys (Index column-wise and multi-level, Pre-aggregate) and a pivot
/// (Index row-wise). No bless switch: on mismatch the actual listing is
/// printed between `BEGIN`/`END` markers.
#[test]
fn default_action_candidates_are_pinned() {
    let frame = mixed_frame();
    let shapes = [
        ("mixed_frame", mixed_frame()),
        ("head(4)", frame.head(4)),
        ("select(quant_a)", frame.select(&["quant_a"]).unwrap()),
        (
            "groupby_agg(nominal)",
            frame
                .groupby_agg(&["nominal"], &[("quant_a", Agg::Mean)])
                .unwrap(),
        ),
        (
            "groupby_agg(country, nominal)",
            frame
                .groupby_agg(&["country", "nominal"], &[("quant_a", Agg::Mean)])
                .unwrap(),
        ),
        (
            "pivot(nominal, country, quant_a)",
            frame
                .pivot("nominal", "country", "quant_a", Agg::Mean)
                .unwrap(),
        ),
    ];
    let actual: String = shapes
        .iter()
        .map(|(label, ldf)| describe_candidates(label, ldf))
        .collect();
    if actual != CANDIDATES_GOLDEN {
        println!("BEGIN\n{actual}END");
        panic!("default action candidates differ from tests/golden/default_candidates.txt");
    }
}
