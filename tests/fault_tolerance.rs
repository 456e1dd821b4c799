//! Fault isolation and graceful degradation, end to end: a registry laced
//! with panicking, hanging, erroring, and garbage-producing actions must
//! still deliver every healthy action's recommendations, flag degraded
//! results, disable repeat offenders through the circuit breaker, and
//! surface all of it through the health ledger and the widget.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lux::engine::trace::{names, MetricsRegistry};
use lux::engine::world::World;
use lux::engine::FlightRecorder;
use lux::prelude::*;
use lux::recs::structure_actions::univariate_spec;
use lux::recs::{Action, ActionContext, Candidate, CustomAction};

/// A small frame with enough shape for the default overview actions.
fn frame() -> DataFrame {
    let n = 80;
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

/// An always-applicable custom action running `generate`: the fault
/// harness of this suite. Each test names its own, so no concurrent test
/// can run it.
fn custom(
    name: &str,
    generate: impl Fn(&ActionContext<'_>) -> Result<Vec<Candidate>> + Send + Sync + 'static,
) -> impl Action {
    CustomAction::new(name, |_| true, generate)
}

/// Univariate candidates over the frame's first two columns.
fn healthy(ctx: &ActionContext<'_>) -> Vec<Candidate> {
    ctx.meta.columns[..2]
        .iter()
        .map(|c| {
            Candidate::new(univariate_spec(
                &c.name,
                c.semantic,
                ctx.config.histogram_bins,
            ))
        })
        .collect()
}

/// An action 400 candidates long; [`slow_sloth`] makes each score 10 ms.
fn sloth_action() -> impl Action {
    custom("Sloth", |ctx| {
        let spec = healthy(ctx).swap_remove(0).spec;
        Ok((0..400).map(|_| Candidate::new(spec.clone())).collect())
    })
}

/// Slows every `Sloth` score by 10 ms for as long as the guard lives.
fn slow_sloth() -> World {
    let world = World::enter();
    world.arm("action.score:Sloth", "sleep(10)").expect("arm");
    world
}

fn panicker() -> impl Action {
    custom("Panicker", |_| panic!("injected panic"))
}

fn statuses(ldf: &LuxDataFrame) -> Vec<(String, String)> {
    ldf.action_health()
        .iter()
        .map(|h| (h.action.clone(), h.status.name().to_string()))
        .collect()
}

fn status_of(ldf: &LuxDataFrame, action: &str) -> Option<String> {
    statuses(ldf)
        .into_iter()
        .find(|(a, _)| a == action)
        .map(|(_, s)| s)
}

#[test]
fn healthy_actions_survive_a_chaotic_registry() {
    let mut ldf = LuxDataFrame::new(frame());
    ldf.register_action(panicker());
    ldf.register_action(custom("Erratic", |_| {
        Err(Error::InvalidArgument("injected error".into()))
    }));
    // Specs on a missing column: every candidate fails processing.
    ldf.register_action(custom("Garbler", |ctx| {
        let spec = univariate_spec(
            "__missing__",
            SemanticType::Quantitative,
            ctx.config.histogram_bins,
        );
        Ok(vec![Candidate::new(spec.clone()), Candidate::new(spec)])
    }));

    let widget = ldf.print(); // must not panic
    let tabs = widget.tabs();
    assert!(
        tabs.contains(&"Distribution"),
        "healthy action still served: {tabs:?}"
    );
    assert!(
        tabs.contains(&"Occurrence"),
        "healthy action still served: {tabs:?}"
    );
    assert!(!tabs.contains(&"Panicker") && !tabs.contains(&"Erratic"));

    assert_eq!(status_of(&ldf, "Panicker").as_deref(), Some("failed"));
    assert_eq!(status_of(&ldf, "Erratic").as_deref(), Some("failed"));
    assert_eq!(status_of(&ldf, "Garbler").as_deref(), Some("failed"));
    assert_eq!(status_of(&ldf, "Distribution").as_deref(), Some("ok"));
}

#[test]
fn chaos_survives_both_executor_paths() {
    for r#async in [false, true] {
        let cfg = LuxConfig {
            r#async,
            ..LuxConfig::default()
        };
        let mut ldf = LuxDataFrame::with_config(frame(), Arc::new(cfg));
        ldf.register_action(panicker());
        let widget = ldf.print();
        assert!(widget.tabs().contains(&"Distribution"), "async={async}");
        assert_eq!(
            status_of(&ldf, "Panicker").as_deref(),
            Some("failed"),
            "async={async}"
        );
    }
}

#[test]
fn slow_action_degrades_to_partial_results() {
    let _slow = slow_sloth();
    let cfg = LuxConfig {
        r#async: false,
        action_budget: Some(Duration::from_millis(30)),
        ..LuxConfig::default()
    };
    let mut ldf = LuxDataFrame::with_config(frame(), Arc::new(cfg));
    ldf.register_action(sloth_action());

    let recs = ldf.recommendations();
    let sloth = recs
        .iter()
        .find(|r| r.action == "Sloth")
        .expect("partial results delivered");
    assert!(
        sloth.degraded,
        "timeout mid-scoring must flag the result degraded"
    );
    assert!(!sloth.vislist.is_empty());
    assert_eq!(status_of(&ldf, "Sloth").as_deref(), Some("degraded"));
    // Healthy actions are unaffected.
    assert_eq!(status_of(&ldf, "Distribution").as_deref(), Some("ok"));

    // The same sloth under a propagated client deadline: what is left of
    // the deadline becomes its budget, so the pass as a whole overruns it —
    // counted process-wide and against the tenant.
    let metrics = MetricsRegistry::global();
    let misses0 = metrics.counter(names::DEADLINE_MISSES);
    let tenant0 = metrics.tenant_counter(names::TENANT_DEADLINE_MISSES, "t-sloth");
    let cfg = LuxConfig {
        r#async: false,
        ..LuxConfig::default()
    };
    let mut ldf = LuxDataFrame::with_config(frame(), Arc::new(cfg));
    ldf.register_action(sloth_action());
    let opts = PrintOptions::default()
        .with_deadline(Some(Duration::from_millis(100)))
        .with_tenant(Some("t-sloth".to_string()));
    let widget = ldf.print_with(&opts);
    assert!(widget.shed_note().is_none(), "idle engine shed the pass");
    assert!(metrics.counter(names::DEADLINE_MISSES) > misses0);
    assert!(metrics.tenant_counter(names::TENANT_DEADLINE_MISSES, "t-sloth") > tenant0);
}

/// A print that outlives its client deadline says so on its own trace, and
/// the flight recorder pins it for that reason.
#[test]
fn missed_deadline_is_tagged_and_pinned() {
    let _slow = slow_sloth();
    let cfg = LuxConfig {
        r#async: false,
        ..LuxConfig::default()
    };
    let mut ldf = LuxDataFrame::with_config(frame(), Arc::new(cfg));
    ldf.register_action(sloth_action());
    let opts = PrintOptions::default()
        .with_deadline(Some(Duration::from_millis(50)))
        .with_request_id(Some("req-deadline-miss".to_string()));
    let widget = ldf.print_with(&opts);
    assert!(widget.shed_note().is_none(), "idle engine shed the pass");
    let root = widget.trace().and_then(|t| t.root().cloned());
    assert_eq!(
        root.as_ref().and_then(|r| r.tag("deadline.missed")),
        Some("true"),
        "{root:?}"
    );
    let pinned = FlightRecorder::global().pinned();
    let entry = pinned
        .iter()
        .find(|e| e.request_id == "req-deadline-miss")
        .expect("the missed deadline is pinned");
    assert_eq!(entry.anomaly, Some("deadline"));
}

#[test]
fn hung_action_is_abandoned_at_the_hard_cutoff() {
    let cfg = LuxConfig {
        r#async: true, // the streaming executor owns the hard cutoff
        action_budget: Some(Duration::from_millis(50)),
        ..LuxConfig::default()
    };
    let mut ldf = LuxDataFrame::with_config(frame(), Arc::new(cfg));
    ldf.register_action(custom("Sleeper", |ctx| {
        std::thread::sleep(Duration::from_secs(30));
        Ok(healthy(ctx))
    }));

    let start = Instant::now();
    let widget = ldf.print();
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "print must not wait out a 30s hang: {:?}",
        start.elapsed()
    );
    assert!(
        widget.tabs().contains(&"Distribution"),
        "healthy results still shipped"
    );
    let sleeper = status_of(&ldf, "Sleeper").expect("abandoned worker reported");
    assert_eq!(sleeper, "failed");
}

#[test]
fn breaker_disables_repeat_offender_then_reprobes() {
    let cfg = LuxConfig {
        wflow: false, // every call below is a fresh recommendation pass
        r#async: false,
        breaker_threshold: 2,
        breaker_cooldown: 2,
        ..LuxConfig::default()
    };
    let mut ldf = LuxDataFrame::with_config(frame(), Arc::new(cfg));
    // Fails twice, then recovers.
    let calls = AtomicUsize::new(0);
    ldf.register_action(custom("Flaky", move |ctx| {
        if calls.fetch_add(1, Ordering::SeqCst) < 2 {
            panic!("injected panic");
        }
        Ok(healthy(ctx))
    }));

    let trips0 = MetricsRegistry::global().counter(names::BREAKER_TRIPS);
    let mut seen = Vec::new();
    for _ in 0..6 {
        seen.push(status_of(&ldf, "Flaky").expect("Flaky always has a health entry"));
    }
    assert!(
        MetricsRegistry::global().counter(names::BREAKER_TRIPS) > trips0,
        "tripped breaker not counted"
    );
    assert_eq!(seen[0], "failed");
    assert_eq!(
        seen[1], "failed",
        "second consecutive failure trips the breaker"
    );
    assert_eq!(seen[2], "disabled", "open breaker skips the action");
    assert!(
        seen.iter().any(|s| s == "ok"),
        "half-open probe must eventually re-admit the recovered action: {seen:?}"
    );
    let first_ok = seen.iter().position(|s| s == "ok").unwrap();
    assert!(
        seen[first_ok..].iter().all(|s| s == "ok"),
        "once recovered, the action stays admitted: {seen:?}"
    );
}

#[test]
fn widget_surfaces_health_problems() {
    let mut ldf = LuxDataFrame::new(frame());
    ldf.register_action(panicker());
    let widget = ldf.print();
    assert_eq!(widget.health_problems().len(), 1);
    let rendered = widget.to_string();
    assert!(
        rendered.contains("action health"),
        "display carries the health line:\n{rendered}"
    );
    assert!(rendered.contains("Panicker"));
}

#[test]
fn permissive_csv_feeds_the_pipeline_despite_bad_rows() {
    // Two ragged rows and an unterminated quote: strict refuses, permissive
    // repairs and still produces an analyzable frame.
    let text = "price,kind\n1.5,a\n2.5\n3.5,b,extra\n4.5,\"unterminated\n";
    assert!(LuxDataFrame::read_csv_str(text).is_err());

    let (ldf, report) = LuxDataFrame::read_csv_str_permissive(text).unwrap();
    assert_eq!(ldf.num_rows(), 4);
    assert_eq!(report.len(), 3, "every repair is accounted for: {report}");
    let widget = ldf.print();
    assert!(
        !widget.tabs().is_empty(),
        "repaired frame still gets recommendations"
    );
}
