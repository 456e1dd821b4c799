//! Parallel determinism suite (DESIGN.md §9): the recommendation output of
//! a print pass must not depend on the parallelism degree. Every test here
//! runs the identical workload under `threads = 1` and `threads = 8` and
//! requires bit-identical results — action lists, spec order, scores,
//! degradation flags, governor notes, each action's plan — plus identical metrics-counter
//! deltas for the pipeline's own accounting. The metadata pass under the
//! print is additionally held invariant over its chunk grid (DESIGN.md §14).
//!
//! Frames are rebuilt (not cloned) between runs: clones share freshness
//! fingerprints, and a shared fingerprint would let the second run answer
//! from the processed-vis memo instead of exercising its own schedule.

mod common;

use std::sync::{Arc, Mutex};

use common::{adversarial_frame, assert_grid_invariant, CHUNK_GRID};
use lux::engine::governor::ResourceBudget;
use lux::engine::trace::{names, MetricsRegistry};
use lux::prelude::*;
use lux::LuxDataFrame;
use proptest::prelude::*;

/// Serializes the tests in this binary: counter-delta comparisons read the
/// process-global [`MetricsRegistry`], so concurrent passes from sibling
/// tests would pollute each other's deltas.
static PASS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    PASS_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Everything observable about one pass, in a directly comparable shape.
#[derive(Debug, PartialEq)]
struct PassOutput {
    /// Tab order: action names as scheduled.
    actions: Vec<String>,
    /// Per action: (spec description, score bits, data rows) per vis, in
    /// rank order. Scores compare as bit patterns — parallel folds must
    /// reproduce the sequential arithmetic exactly, not approximately.
    vislists: Vec<Vec<(String, u64, Option<usize>)>>,
    /// Per action: degraded flag and reason.
    degraded: Vec<(bool, Option<String>)>,
    /// The pass's governor summary line (None when fully exact).
    governor: Option<String>,
    /// Per action span, in dispatch order: its name and the plan tags it
    /// records before scoring — the plan is decided once, whatever the
    /// thread count.
    plans: Vec<(String, Vec<Option<String>>)>,
}

/// The tags an action span records from its plan.
const PLAN_TAGS: [&str; 4] = [
    "candidates",
    "cost.estimated",
    "deadline.budget_ms",
    "prune",
];

fn run_pass(df: DataFrame, threads: usize) -> PassOutput {
    let config = LuxConfig {
        threads,
        ..LuxConfig::all_opt()
    };
    let ldf = LuxDataFrame::with_config(df, Arc::new(config));
    let widget = ldf.print();
    PassOutput {
        actions: widget.results().iter().map(|r| r.action.clone()).collect(),
        vislists: widget
            .results()
            .iter()
            .map(|r| {
                r.vislist
                    .iter()
                    .map(|v| {
                        (
                            v.spec.describe(),
                            v.score.to_bits(),
                            v.data.as_ref().map(|d| d.num_rows()),
                        )
                    })
                    .collect()
            })
            .collect(),
        degraded: widget
            .results()
            .iter()
            .map(|r| (r.degraded, r.degraded_reason.clone()))
            .collect(),
        governor: widget.governor_note().map(str::to_string),
        plans: ldf
            .last_trace()
            .expect("print records a trace")
            .spans_prefixed("action:")
            .into_iter()
            .map(|s| {
                let tags = PLAN_TAGS.iter().map(|t| s.tag(t).map(str::to_string));
                (s.name.clone(), tags.collect())
            })
            .collect(),
    }
}

/// A content-equal frame with a fresh fingerprint (memo-cold).
fn rebuild(df: &DataFrame) -> DataFrame {
    df.head(df.num_rows())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn adversarial_frames_print_identically_at_any_thread_count(df in adversarial_frame()) {
        let _guard = lock();
        let sequential = run_pass(rebuild(&df), 1);
        let parallel = run_pass(rebuild(&df), 8);
        prop_assert_eq!(&sequential.actions, &parallel.actions, "action schedule diverged");
        prop_assert_eq!(&sequential.vislists, &parallel.vislists, "vis ranking diverged");
        prop_assert_eq!(&sequential.degraded, &parallel.degraded, "degradation diverged");
        prop_assert_eq!(&sequential.governor, &parallel.governor, "governor events diverged");
        prop_assert_eq!(&sequential.plans, &parallel.plans, "action plans diverged");
    }

    /// The metadata pass under the print: on the pathological frames, the
    /// chunk grid and the thread count change neither `FrameMeta`, nor what
    /// the governor was charged, nor its events. These frames are a few
    /// dozen rows, so a 7-row grid joins the shipped ones to make every
    /// column fold; the budget is tight enough that later columns degrade.
    #[test]
    fn adversarial_frames_have_one_metadata_answer_on_every_grid(df in adversarial_frame()) {
        let _guard = lock();
        let grid = [7, CHUNK_GRID[0], CHUNK_GRID[1], CHUNK_GRID[2]];
        for max_bytes in [u64::MAX, 2_000] {
            let budget = ResourceBudget { max_bytes, ..ResourceBudget::default() };
            assert_grid_invariant(&df, &budget, &grid);
        }
    }
}

#[test]
fn structured_frame_prints_identically_at_any_thread_count() {
    let _guard = lock();
    let df = lux::workloads::synthetic_wide(10, 2_000, 42);
    let sequential = run_pass(rebuild(&df), 1);
    let parallel = run_pass(rebuild(&df), 8);
    assert_eq!(sequential, parallel);
    assert!(
        !sequential.actions.is_empty(),
        "workload frame must produce recommendations"
    );
}

#[test]
fn pipeline_counters_are_thread_count_invariant() {
    let _guard = lock();
    let watched = [
        names::VIS_MEMO_HIT,
        names::VIS_MEMO_MISS,
        names::META_MEMO_HIT,
        names::META_MEMO_MISS,
    ];
    let metrics = MetricsRegistry::global();
    let df = lux::workloads::synthetic_wide(8, 1_000, 7);

    let mut deltas: Vec<Vec<u64>> = Vec::new();
    for threads in [1usize, 8] {
        let before: Vec<u64> = watched.iter().map(|n| metrics.counter(n)).collect();
        let _ = run_pass(rebuild(&df), threads);
        let after: Vec<u64> = watched.iter().map(|n| metrics.counter(n)).collect();
        deltas.push(
            before
                .iter()
                .zip(&after)
                .map(|(b, a)| a.saturating_sub(*b))
                .collect(),
        );
    }
    assert_eq!(
        deltas[0], deltas[1],
        "counter deltas diverged between threads=1 and threads=8 ({watched:?})"
    );
}

/// What a print shows of its Correlation tab, at the thread count
/// `LUX_THREADS` sets.
struct CorrelationTab {
    /// The tab's degraded reason.
    reason: Option<String>,
    /// Spec description and score bits per vis, in rank order.
    specs: Vec<(String, u64)>,
    /// The pass's governor note.
    note: Option<String>,
    /// The `candidates` tag of the action's `generate` span.
    candidates: Option<String>,
}

fn correlation_tab(df: DataFrame, config: LuxConfig) -> CorrelationTab {
    let ldf = LuxDataFrame::with_config(df, Arc::new(config));
    let widget = ldf.print();
    let tab = (widget.results().iter())
        .find(|r| r.action == "Correlation")
        .expect("a wide frame has a Correlation tab");
    let trace = ldf.last_trace().expect("print records a trace");
    let action = trace.span("action:Correlation").expect("Correlation ran");
    let generate = (trace.children(action.id).into_iter()).find(|s| s.name == "generate");
    CorrelationTab {
        reason: tab.degraded_reason.clone(),
        specs: (tab.vislist.iter())
            .map(|v| (v.spec.describe(), v.score.to_bits()))
            .collect(),
        note: widget.governor_note().map(str::to_string),
        candidates: generate
            .and_then(|s| s.tag("candidates"))
            .map(str::to_string),
    }
}

/// The capped path, which no frame of the other tests reaches: the 126
/// quantitative columns of `communities(2_000, 11)` span 7 875 Correlation
/// pairs, of which the budget keeps the first 64. What the print shows of
/// them is the same with and without the optimizations, at whatever thread
/// count `LUX_THREADS` sets, and under a tighter candidate budget.
#[test]
fn a_capped_correlation_space_keeps_its_prefix() {
    let _guard = lock();
    let df = lux::workloads::communities(2_000, 11);
    let expected: Vec<(String, u64)> = (CAPPED_CORRELATION.iter())
        .map(|&(describe, bits)| (describe.to_string(), bits))
        .collect();
    for base in [LuxConfig::all_opt(), LuxConfig::no_opt()] {
        let tab = correlation_tab(rebuild(&df), base.clone());
        let capped = "candidate search space capped at 64 (7811 dropped)";
        assert_eq!(tab.reason.as_deref(), Some(capped));
        assert_eq!(tab.specs, expected);
        assert_eq!(tab.note.as_deref(), Some(CAPPED_NOTE));
        assert_eq!(tab.candidates.as_deref(), Some("7875"));

        let mut tight = base;
        tight.budget.max_candidates = 16;
        let tab = correlation_tab(rebuild(&df), tight);
        let capped = "candidate search space capped at 16 (7859 dropped)";
        assert_eq!(tab.reason.as_deref(), Some(capped));
        assert_eq!(tab.specs.len(), 15);
        assert_eq!(tab.candidates.as_deref(), Some("7875"));
    }
}

/// The governor note of those prints: Distribution's 126 histograms are
/// capped too, and Occurrence folds the community names.
const CAPPED_NOTE: &str = "governor: 4 step(s) degraded: \
    action:Distribution -> capped-cardinality (candidate search space capped at 64 (62 dropped)); \
    process:communityname -> capped-cardinality (distinct group keys exceed cap 1000; folded into \"(other)\"); \
    process:communityname -> capped-cardinality (distinct group keys exceed cap 1000; folded into \"(other)\"); \
    action:Correlation -> capped-cardinality (candidate search space capped at 64 (7811 dropped))";

/// The Correlation tab of those prints, in rank order, with score bits.
const CAPPED_CORRELATION: [(&str, u64); 15] = [
    ("scatter of state vs attr_004", 0x3fa7fa75b22791aa),
    ("scatter of state vs attr_003", 0x3fa394464e208431),
    ("scatter of state vs attr_019", 0x3fa26b3da77102e5),
    ("scatter of state vs attr_041", 0x3fa16b4bebdae065),
    ("scatter of state vs attr_007", 0x3fa0fe39b8d15535),
    ("scatter of state vs attr_055", 0x3f979d3f218055b3),
    ("scatter of state vs attr_038", 0x3f95bc26621b6579),
    ("scatter of state vs population", 0x3f9598e6fe6b4829),
    ("scatter of state vs attr_058", 0x3f9510dc930beae8),
    ("scatter of state vs attr_031", 0x3f942201a775b572),
    ("scatter of state vs attr_025", 0x3f9344b17199490d),
    ("scatter of state vs attr_043", 0x3f9324c8aeab1d8a),
    ("scatter of state vs attr_006", 0x3f92856d453fcc25),
    ("scatter of state vs attr_036", 0x3f90550569fe5d51),
    ("scatter of state vs attr_001", 0x3f8b5e18c32e74d5),
];
