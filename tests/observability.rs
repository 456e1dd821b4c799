//! End-to-end observability: every print yields a structurally consistent
//! `PassTrace` span tree, WFLOW memo tags flip on a repeated print, a
//! degraded pass is marked in both the trace and the process-wide metrics,
//! and the Chrome export is a well-formed `trace_event` array.

use std::sync::Arc;
use std::time::Duration;

use lux::engine::trace::names as metric;
use lux::engine::world::World;
use lux::engine::MetricsRegistry;
use lux::prelude::*;
use lux::recs::structure_actions::univariate_spec;
use lux::recs::{Candidate, CustomAction};

fn frame(n: usize) -> DataFrame {
    DataFrameBuilder::new()
        .float(
            "price",
            (0..n).map(|i| 10.0 + (i % 17) as f64).collect::<Vec<_>>(),
        )
        .float(
            "size",
            (0..n).map(|i| (i * 7 % 23) as f64).collect::<Vec<_>>(),
        )
        .str(
            "kind",
            (0..n).map(|i| ["a", "b", "c"][i % 3]).collect::<Vec<_>>(),
        )
        .build()
        .unwrap()
}

#[test]
fn print_yields_consistent_span_tree() {
    let ldf = LuxDataFrame::new(frame(120));
    assert!(
        ldf.last_trace().is_none(),
        "no trace before the first print"
    );
    let widget = ldf.print();
    let trace = ldf.last_trace().expect("print records a trace");
    assert!(Arc::ptr_eq(widget.trace().unwrap(), &trace));

    // Root and the fixed print stages.
    let root = trace.root().expect("root span");
    assert_eq!(root.name, "print");
    for stage in ["table", "metadata", "intent.validate", "actions"] {
        let span = trace
            .span(stage)
            .unwrap_or_else(|| panic!("missing {stage} span"));
        assert_eq!(span.parent, Some(root.id), "{stage} hangs off the root");
    }

    // Durations are structurally consistent (children within parents,
    // same-thread children summing below the parent, everything within the
    // pass extent).
    trace
        .validate(Duration::from_millis(5))
        .expect("consistent span tree");

    // Per-action spans carry the phase children and decision tags.
    let actions = trace.spans_prefixed("action:");
    assert!(
        actions.len() >= 3,
        "expected several action spans, got {}",
        actions.len()
    );
    for a in &actions {
        assert!(
            a.tag("status").is_some(),
            "{} has a terminal status",
            a.name
        );
        assert!(
            a.tag("sched.order").is_some(),
            "{} records its dispatch order",
            a.name
        );
        let child_names: Vec<&str> = trace
            .children(a.id)
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert!(
            child_names.contains(&"generate"),
            "{}: {child_names:?}",
            a.name
        );
        assert!(
            child_names.contains(&"score"),
            "{}: {child_names:?}",
            a.name
        );
        assert!(
            child_names.contains(&"process"),
            "{}: {child_names:?}",
            a.name
        );
        // PRUNE decision is explicit (engaged / skipped / off) per action.
        assert!(
            matches!(
                a.tag("prune"),
                Some("engaged") | Some("skipped") | Some("off")
            ),
            "{}: prune tag {:?}",
            a.name,
            a.tag("prune")
        );
        assert!(a.tag("candidates").is_some());
        assert!(a.tag("cost.estimated").is_some());
    }

    // The widget footer summarizes the same pass.
    let footer = widget.timing_footer().expect("traced widget has a footer");
    assert!(footer.contains("pass"), "{footer}");
    assert!(footer.contains("memo"), "{footer}");
}

#[test]
fn memo_tags_flip_on_second_identical_print() {
    let ldf = LuxDataFrame::new(frame(60));
    let _ = ldf.print();
    let first = ldf.last_trace().unwrap();
    let _ = ldf.print();
    let second = ldf.last_trace().unwrap();

    let memo =
        |t: &PassTrace, name: &str| t.span(name).and_then(|s| s.tag("memo")).map(str::to_string);
    assert_eq!(memo(&first, "actions").as_deref(), Some("miss"));
    assert_eq!(memo(&first, "metadata").as_deref(), Some("miss"));
    assert_eq!(memo(&second, "actions").as_deref(), Some("hit"));
    assert_eq!(memo(&second, "metadata").as_deref(), Some("hit"));

    // A memoized pass runs no actions at all.
    assert!(second.spans_prefixed("action:").is_empty());

    // Deriving a frame expires the memo: the derived frame misses again.
    let derived = ldf.head(20);
    let _ = derived.print();
    let third = derived.last_trace().unwrap();
    assert_eq!(memo(&third, "actions").as_deref(), Some("miss"));
}

#[test]
fn degraded_pass_is_marked_in_trace_and_metrics() {
    let df = frame(40);
    let mut config = LuxConfig::default();
    config.r#async = false; // deterministic sequential path
    config.action_budget = Some(Duration::from_millis(25));
    let mut ldf = LuxDataFrame::with_config(df, Arc::new(config));
    // 300 candidates, each scored 10 ms slow.
    ldf.register_action(CustomAction::new(
        "Molasses",
        |_| true,
        |ctx| {
            let spec = univariate_spec(
                "price",
                SemanticType::Quantitative,
                ctx.config.histogram_bins,
            );
            Ok((0..300).map(|_| Candidate::new(spec.clone())).collect())
        },
    ));
    let world = World::enter();
    world
        .arm("action.score:Molasses", "sleep(10)")
        .expect("arm");

    let before = MetricsRegistry::global().snapshot();
    let _ = ldf.print();
    let after = MetricsRegistry::global().snapshot();

    let trace = ldf.last_trace().unwrap();
    let molasses = trace
        .span("action:Molasses")
        .expect("span for the slow action");
    assert_eq!(
        molasses.tag("status"),
        Some("degraded"),
        "tags: {:?}",
        molasses.tags
    );
    assert!(molasses
        .tag("degraded.reason")
        .unwrap_or_default()
        .contains("budget"));

    // Counters are process-global and tests run concurrently, so assert
    // deltas monotonically rather than exact counts.
    assert!(after.counter(metric::ACTIONS_DEGRADED) > before.counter(metric::ACTIONS_DEGRADED));
    assert!(after.counter(metric::PRINTS) > before.counter(metric::PRINTS));
    assert!(
        after
            .histogram(metric::PRINT_LATENCY)
            .map_or(0, |h| h.count)
            > before
                .histogram(metric::PRINT_LATENCY)
                .map_or(0, |h| h.count)
    );
}

#[test]
fn failed_action_is_marked_in_trace_and_metrics() {
    let mut ldf = LuxDataFrame::new(frame(50));
    ldf.register_action(CustomAction::new(
        "Saboteur",
        |_| true,
        |_| panic!("injected panic"),
    ));
    let before = MetricsRegistry::global().snapshot();
    let widget = ldf.print();
    let after = MetricsRegistry::global().snapshot();

    // Healthy tabs still delivered; the saboteur is flagged everywhere.
    assert!(widget.tabs().contains(&"Correlation"));
    let trace = ldf.last_trace().unwrap();
    let bad = trace
        .span("action:Saboteur")
        .expect("span for the panicking action");
    assert_eq!(bad.tag("status"), Some("failed"), "tags: {:?}", bad.tags);
    assert!(bad.tag("error").unwrap_or_default().contains("panicked"));
    assert!(after.counter(metric::ACTIONS_FAILED) > before.counter(metric::ACTIONS_FAILED));
}

#[test]
fn chrome_export_is_a_valid_trace_event_array() {
    let ldf = LuxDataFrame::new(frame(80));
    let _ = ldf.print();
    let json = ldf.last_trace().unwrap().to_chrome_json();
    assert!(json.trim_start().starts_with('['));
    assert!(json.trim_end().ends_with(']'));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert!(json.contains("\"ph\": \"X\""));
    assert!(json.contains("\"name\": \"print\""));
    assert!(json.contains("\"args\""));
    // no raw control characters may survive into the export
    assert!(!json.chars().any(|c| c.is_control() && c != '\n'));
}

#[test]
fn metrics_snapshot_renders_and_tracks_memo_rate() {
    let ldf = LuxDataFrame::new(frame(30));
    let _ = ldf.print();
    let _ = ldf.print();
    let snap = ldf.metrics();
    let text = snap.render_text();
    assert!(text.contains(metric::PRINTS), "{text}");
    assert!(snap.counter(metric::MEMO_HIT) >= 1);
    let rate = snap
        .hit_rate(metric::MEMO_HIT, metric::MEMO_MISS)
        .expect("rate defined");
    assert!((0.0..=1.0).contains(&rate));
}

/// The metadata fold is traced where it runs: a pass whose chunk grid gives
/// columns several partials opens one `metadata.fold` span per folded
/// column (tagged with what it folded), those spans count into the pass
/// summary's metadata CPU time, and a single-chunk pass — every print below
/// a million rows — has nothing to fold and opens none.
#[test]
fn metadata_fold_spans_appear_only_when_columns_fold() {
    use lux::engine::trace::TraceCollector;
    use lux::engine::FrameMeta;
    use lux::prelude::PassSummary;

    let df = frame(1_000);
    let overrides = std::collections::HashMap::new();
    let traced_pass = |chunk_rows: usize| {
        let collector = TraceCollector::new();
        let root = collector.begin(None, "print");
        FrameMeta::compute_with_chunk_rows(
            &df,
            &overrides,
            Some((collector.as_ref(), root)),
            None,
            2,
            chunk_rows,
        );
        collector.end(root);
        collector.snapshot()
    };

    let chunked = traced_pass(300);
    let folds = chunked.spans_named("metadata.fold");
    assert_eq!(folds.len(), df.num_columns(), "one fold span per column");
    for fold in &folds {
        assert_eq!(fold.tag("chunks"), Some("4"), "1000 rows on a 300-row grid");
        assert_eq!(fold.tag("rows"), Some("1000"));
    }
    assert_eq!(
        chunked.spans_prefixed("column:").len(),
        4 * df.num_columns()
    );
    let fold_time: Duration = folds.iter().map(|s| s.duration()).sum();
    let scan_time: Duration = chunked
        .spans_prefixed("column:")
        .iter()
        .map(|s| s.duration())
        .sum();
    assert_eq!(
        PassSummary::from_trace(&chunked).metadata_cpu,
        scan_time + fold_time,
        "metadata CPU time counts scans and folds"
    );

    let single = traced_pass(lux::engine::metadata::CHUNK_ROWS);
    assert!(single.spans_named("metadata.fold").is_empty());
    assert_eq!(single.spans_prefixed("column:").len(), df.num_columns());
}
