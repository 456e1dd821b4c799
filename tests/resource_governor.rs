//! End-to-end resource-governor suite (DESIGN.md §8).
//!
//! Pathological frames must complete the full always-on print path within
//! the pass budget: no panic, no OOM, and every downgrade visible in the
//! widget marker, the pass trace, and the `lux.governor.*` metrics. The
//! `#[ignore]`d 1M-row test is the acceptance check run by the CI
//! `governor-stress` job under a hard address-space ceiling.

use std::sync::Arc;

use lux::engine::trace::{names, MetricsRegistry};
use lux::engine::{FrameMeta, LuxConfig};
use lux::prelude::*;
use lux::LuxDataFrame;

/// A frame whose string column is near-unique but *not* id-named, so it
/// stays Nominal and flows into the Occurrence action's group enumeration —
/// the paper's worst case for always-on printing.
fn near_unique_frame(rows: usize) -> DataFrame {
    DataFrameBuilder::new()
        .str("label", (0..rows).map(|i| format!("tag-{i:07}")))
        .float("value", (0..rows).map(|i| (i % 997) as f64))
        .build()
        .unwrap()
}

fn root_tag(widget: &lux::Widget, key: &str) -> Option<String> {
    widget
        .trace()
        .and_then(|t| t.span("print"))
        .and_then(|s| s.tag(key))
        .map(str::to_string)
}

#[test]
fn near_unique_string_frame_degrades_visibly_under_default_budget() {
    let before = MetricsRegistry::global().counter(names::GOVERNOR_DEGRADES);
    let ldf = LuxDataFrame::new(near_unique_frame(100_000));
    let widget = ldf.print();

    // The pass completed and still serves recommendations.
    assert!(!widget.results().is_empty(), "no tabs served");

    // Degradation is visible in all three places: widget marker, trace
    // tags, and global metrics.
    let note = widget.governor_note().expect("expected a governor marker");
    assert!(note.contains("degraded"), "{note}");
    let degrades: usize = root_tag(&widget, "governor.degrades")
        .and_then(|v| v.parse().ok())
        .expect("root span missing governor.degrades tag");
    assert!(degrades > 0, "trace shows an exact pass");
    assert!(
        root_tag(&widget, "governor.summary").is_some(),
        "trace missing governor.summary"
    );
    assert!(
        MetricsRegistry::global().counter(names::GOVERNOR_DEGRADES) > before,
        "global degrade counter did not move"
    );

    // The marker also reaches both render paths.
    assert!(
        widget.to_string().contains("governor"),
        "Display lost the marker"
    );
    assert!(
        widget.render_lux_view(1).contains("(~) governor"),
        "Lux view lost the marker"
    );

    // No served visualization exceeds the group-cardinality ceiling: the
    // 100k-unique axis was folded, not materialized.
    let cap = LuxConfig::default().budget.max_group_cardinality;
    for r in widget.results() {
        for vis in r.vislist.iter() {
            if let Some(data) = vis.data.as_ref() {
                assert!(
                    data.num_rows() <= cap + 1, // top-K plus the "(other)" fold
                    "{}: vis data has {} rows, cap {}",
                    r.action,
                    data.num_rows(),
                    cap
                );
            }
        }
    }
}

#[test]
fn tight_byte_budget_breaches_but_still_serves_the_table() {
    let mut config = LuxConfig::default();
    config.budget.max_bytes = 1; // every allocation is over budget
    let ldf = LuxDataFrame::with_config(near_unique_frame(5_000), Arc::new(config));
    let breaches0 = MetricsRegistry::global().counter(names::GOVERNOR_BREACHES);
    let widget = ldf.print();
    assert!(
        MetricsRegistry::global().counter(names::GOVERNOR_BREACHES) > breaches0,
        "byte breach not counted"
    );

    // The table view always survives; the breach is marked, not fatal.
    assert!(widget.table().contains("rows"), "table view missing");
    assert_eq!(
        root_tag(&widget, "governor.breached").as_deref(),
        Some("true"),
        "byte breach not tagged on the root span"
    );
    assert!(
        widget.governor_note().is_some(),
        "breached pass carries no marker"
    );
    let footer = widget.timing_footer().expect("always-on pass is traced");
    assert!(footer.contains("budget breached"), "{footer}");
}

/// One vis as served: its description, score bits and drawn data.
type Drawn = (String, u64, Option<String>);

/// What a standalone pass serves, in a directly comparable shape: per tab,
/// its name, degraded flag and reason, and its vis.
type Served = Vec<(String, bool, Option<String>, Vec<Drawn>)>;

/// One standalone pass over `df` with ungoverned metadata; its results and
/// whether it breached its byte budget.
fn serve(df: &DataFrame, config: LuxConfig) -> (Served, bool) {
    use lux::recs::{run_pass, ActionRegistry, Pass, PassCtx};
    let df = Arc::new(df.clone());
    let meta = Arc::new(FrameMeta::compute(&df, &Default::default()));
    let ctx = PassCtx::detached("pass", config.budget.clone());
    let governor = Arc::clone(&ctx.governor);
    let pass = Pass::open(df, meta, &[], Arc::new(config), ctx);
    let results = run_pass(&ActionRegistry::with_defaults(), pass).collect_all();
    let table = |d: &DataFrame| d.to_table_string(d.num_rows());
    let served = results
        .iter()
        .map(|r| {
            let visses = r.vislist.iter().map(|v| {
                let data = v.data.as_ref().map(table);
                (v.spec.describe(), v.score.to_bits(), data)
            });
            let reason = r.degraded_reason.clone();
            (r.action.clone(), r.degraded, reason, visses.collect())
        })
        .collect();
    (served, governor.breached())
}

#[test]
fn action_plan_breach_serves_what_an_unbudgeted_pass_serves() {
    // Two geographic columns, two low-cardinality nominal ones and two
    // floats: Occurrence and Geographic plan more group-bys than the three
    // a budget of three full-frame group-bys admits.
    let rows = 2_000;
    let df = DataFrameBuilder::new()
        .str(
            "country",
            (0..rows).map(|i| ["USA", "France", "Japan", "Peru"][i % 4]),
        )
        .str("state", (0..rows).map(|i| ["CA", "NY", "TX"][i % 3]))
        .str("tier", (0..rows).map(|i| ["gold", "silver"][i % 2]))
        .str(
            "channel",
            (0..rows).map(|i| ["web", "store", "phone"][i % 3]),
        )
        .float("price", (0..rows).map(|i| (i % 97) as f64))
        .float("rating", (0..rows).map(|i| ((i * 7) % 50) as f64 / 10.0))
        .build()
        .unwrap();
    for threads in [1, 8] {
        for streamed in [false, true] {
            let config = LuxConfig {
                threads,
                r#async: streamed,
                ..LuxConfig::default()
            };
            let mut budgeted = config.clone();
            budgeted.budget.max_bytes = 8 * rows as u64 * 3;
            let mut unbudgeted = config;
            unbudgeted.budget.max_bytes = u64::MAX;
            let (exact, clean) = serve(&df, unbudgeted);
            let (breached_pass, breached) = serve(&df, budgeted);
            assert!(!clean, "the unbudgeted pass breached");
            assert!(breached, "threads={threads} async={streamed}: no breach");
            assert!(
                exact.iter().any(|(tab, ..)| tab == "Geographic"),
                "{exact:?}"
            );
            assert_eq!(breached_pass, exact, "threads={threads} async={streamed}");
        }
    }
}

#[test]
fn candidate_cap_marks_results_degraded_with_reason() {
    // Six float columns -> 15 Correlation pairs; cap the search space at 3.
    let mut builder = DataFrameBuilder::new();
    for name in ["a", "b", "c", "d", "e", "f"] {
        builder = builder.float(name, (0..40).map(|i| (i * (name.len() + 1)) as f64));
    }
    let mut config = LuxConfig::default();
    config.budget.max_candidates = 3;
    let ldf = LuxDataFrame::with_config(builder.build().unwrap(), Arc::new(config));
    let widget = ldf.print();

    let capped: Vec<_> = widget
        .results()
        .iter()
        .filter(|r| {
            r.degraded
                && r.degraded_reason
                    .as_deref()
                    .is_some_and(|s| s.contains("candidate search space capped"))
        })
        .collect();
    assert!(
        !capped.is_empty(),
        "no action reported the candidate cap; results: {:?}",
        widget
            .results()
            .iter()
            .map(|r| (&r.action, r.degraded, &r.degraded_reason))
            .collect::<Vec<_>>()
    );
    // Capped tabs still serve at most the budgeted number of candidates.
    for r in &capped {
        assert!(
            r.vislist.len() <= 3,
            "{}: {} vis",
            r.action,
            r.vislist.len()
        );
    }
}

/// A budget that keeps no candidate is not a fault: every action settles
/// as one that generated none, so the print serves the table alone.
#[test]
fn zero_candidate_budget_prints_empty_tabs() {
    for detached in [false, true] {
        let mut config = LuxConfig {
            r#async: detached,
            ..LuxConfig::default()
        };
        config.budget.max_candidates = 0;
        let frame = lux::workloads::synthetic_wide(6, 200, 1);
        let widget = LuxDataFrame::with_config(frame, Arc::new(config)).print();
        assert!(!widget.was_shed(), "async={detached}");
        assert!(widget.results().is_empty(), "async={detached}");
        assert!(widget.health_problems().is_empty(), "async={detached}");
    }
}

#[test]
fn degenerate_frames_complete_the_print_path() {
    // Deterministic companions to the proptest adversarial sweep: the exact
    // shapes the issue names, pinned so failures are reproducible.
    let zero_rows = DataFrameBuilder::new()
        .float("x", std::iter::empty::<f64>())
        .str("s", std::iter::empty::<&str>())
        .build()
        .unwrap();
    let all_null = DataFrameBuilder::new()
        .column(
            "nf",
            Column::Float64(PrimitiveColumn::from_options(vec![None; 32])),
        )
        .column(
            "ns",
            Column::Str(StrColumn::from_options(vec![None::<&str>; 32])),
        )
        .build()
        .unwrap();
    let non_finite = DataFrameBuilder::new()
        .float(
            "weird",
            vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 1.0],
        )
        .str("g", ["a", "b", "a", "b", "a", "b"])
        .build()
        .unwrap();
    let single_value = DataFrameBuilder::new()
        .float("constant", std::iter::repeat(7.0).take(24))
        .int("zero", std::iter::repeat(0).take(24))
        .build()
        .unwrap();
    for (name, df) in [
        ("zero_rows", zero_rows),
        ("all_null", all_null),
        ("non_finite", non_finite),
        ("single_value", single_value),
    ] {
        let widget = LuxDataFrame::new(df).print();
        let _ = widget.to_string();
        let _ = widget.render_lux_view(1);
        for r in widget.results() {
            for vis in r.vislist.iter() {
                assert!(!vis.score.is_nan(), "{name}: NaN score from {}", r.action);
            }
        }
    }
}

/// The PR's acceptance criterion: a 1M-row frame with a near-unique string
/// column prints within budget — no OOM, bounded output, and the
/// degradation visible in trace, metrics, and widget marker. Run in CI's
/// `governor-stress` job under a hard address-space rlimit.
#[test]
#[ignore = "acceptance-scale; run via CI governor-stress or --include-ignored"]
fn one_million_row_near_unique_frame_prints_within_budget() {
    let ldf = LuxDataFrame::new(near_unique_frame(1_000_000));
    let widget = ldf.print();
    assert!(!widget.results().is_empty(), "no tabs served at 1M rows");
    assert!(
        widget.governor_note().is_some(),
        "1M-row pass claims to be exact"
    );
    let degrades: usize = root_tag(&widget, "governor.degrades")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    assert!(degrades > 0, "trace shows an exact pass at 1M rows");
    let cap = LuxConfig::default().budget.max_group_cardinality;
    for r in widget.results() {
        for vis in r.vislist.iter() {
            if let Some(data) = vis.data.as_ref() {
                assert!(
                    data.num_rows() <= cap + 1,
                    "{}: unbounded vis data",
                    r.action
                );
            }
        }
    }
}

/// A charge the global admission ledger refuses breaches the pass that made
/// it, and is counted.
#[test]
fn a_charge_past_the_ledger_cap_is_refused_and_counted() {
    use lux::engine::governor::{BudgetHandle, DegradeLevel, ResourceBudget};
    use lux::engine::GlobalLedger;
    let ledger = Arc::new(GlobalLedger::new(1_000));
    let pass = BudgetHandle::governed(
        ResourceBudget::default(),
        Arc::clone(&ledger),
        DegradeLevel::Exact,
    );
    let refusals = || MetricsRegistry::global().counter(names::ADMISSION_LEDGER_REFUSALS);
    let before = refusals();
    assert!(pass.try_charge(600));
    assert!(!pass.try_charge(600), "the ledger holds only 1 000 B");
    assert!(refusals() > before);
    assert!(pass.breached());
    assert_eq!((ledger.live(), pass.charged()), (600, 600));
    drop(pass);
    assert_eq!(ledger.live(), 0);
}
