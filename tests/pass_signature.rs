//! Pass-signature golden: everything a `print()` lets a user observe about
//! its recommendation pass, recorded for three frames under the paper's four
//! conditions at `threads = 1` and `threads = 8`, and compared byte for byte
//! against `tests/golden/pass_signature.txt`.
//!
//! The fixture was recorded before the executor was collapsed to one pass
//! runner, so it pins that refactor (and any later one) to the old output.
//! There is no bless switch: on mismatch the test prints the full actual
//! signature between `BEGIN`/`END` markers; replacing the fixture is a
//! deliberate, reviewed act.
//!
//! One `#[test]` only — the counter deltas read the process-global
//! [`MetricsRegistry`], and a sibling test's passes would pollute them.
//! Frames are rebuilt per run (fresh fingerprint) so the processed-vis memo
//! starts cold every time. Health entries are sorted by name: under ASYNC
//! the ledger is in completion order, which is not reproducible.

use std::fmt::Write as _;
use std::sync::Arc;

use lux::engine::trace::{names, MetricsRegistry};
use lux::prelude::*;
use lux::{LuxDataFrame, Widget};

const GOLDEN: &str = include_str!("golden/pass_signature.txt");

const WATCHED: [&str; 8] = [
    names::ACTIONS_OK,
    names::ACTIONS_DEGRADED,
    names::ACTIONS_FAILED,
    names::ACTIONS_DISABLED,
    names::PRUNE_ENGAGED,
    names::PRUNE_SKIPPED,
    names::VIS_MEMO_HIT,
    names::VIS_MEMO_MISS,
];

fn conditions() -> [(&'static str, LuxConfig); 4] {
    [
        ("no-opt", LuxConfig::no_opt()),
        ("wflow", LuxConfig::wflow_only()),
        ("wflow+prune", LuxConfig::wflow_prune()),
        ("all-opt", LuxConfig::all_opt()),
    ]
}

/// The three inputs, each built fresh (memo-cold) for one configuration.
fn inputs(config: &Arc<LuxConfig>) -> Vec<(&'static str, LuxDataFrame)> {
    let wide = LuxDataFrame::with_config(
        lux::workloads::synthetic_wide(10, 2_000, 42),
        Arc::clone(config),
    );
    let mut airbnb =
        LuxDataFrame::with_config(lux::workloads::airbnb(1_500, 7), Arc::clone(config));
    airbnb
        .set_intent_strs(["price", "room_type"])
        .expect("intent parses");
    let grouped = LuxDataFrame::with_config(lux::workloads::airbnb(1_500, 7), Arc::clone(config))
        .groupby_agg(&["neighbourhood_group"], &[("price", Agg::Mean)])
        .expect("groupby");
    vec![
        ("synthetic_wide", wide),
        ("airbnb+intent", airbnb),
        ("groupby_agg", grouped),
    ]
}

/// Tab order plus, per tab, the degradation mark and every vis in rank order
/// (spec, score bit pattern, processed row count).
fn describe_tabs(widget: &Widget) -> String {
    let mut out = String::new();
    let tabs: Vec<&str> = widget.results().iter().map(|r| r.action.as_str()).collect();
    writeln!(out, "tabs: {}", tabs.join(", ")).unwrap();
    for r in widget.results() {
        writeln!(
            out,
            "tab {} degraded={} reason={}",
            r.action,
            r.degraded,
            r.degraded_reason.as_deref().unwrap_or("-")
        )
        .unwrap();
        for v in r.vislist.iter() {
            let rows = v
                .data
                .as_ref()
                .map_or("-".to_string(), |d| d.num_rows().to_string());
            writeln!(
                out,
                "  {} | {:016x} | rows={rows}",
                v.spec.describe(),
                v.score.to_bits()
            )
            .unwrap();
        }
    }
    out
}

fn describe_health(out: &mut String, widget: &Widget) {
    let mut health: Vec<String> = widget
        .health()
        .iter()
        .map(|h| format!("{}:{}", h.action, h.status))
        .collect();
    health.sort();
    writeln!(out, "health: {}", health.join(", ")).unwrap();
    writeln!(out, "governor: {}", widget.governor_note().unwrap_or("-")).unwrap();
}

fn signature() -> String {
    let metrics = MetricsRegistry::global();
    let mut out = String::new();
    for (condition, base) in conditions() {
        for threads in [1usize, 8] {
            // Scaled to the 1.5-2k-row frames: with a 300-row sample and
            // k = 5 the cost model engages PRUNE on the wide candidate
            // lists instead of skipping the gate everywhere.
            let config = Arc::new(LuxConfig {
                threads,
                sample_cap: 300,
                top_k: 5,
                ..base.clone()
            });
            for (input, ldf) in inputs(&config) {
                writeln!(out, "## {input} | {condition} | threads={threads}").unwrap();
                // Two prints per frame: the second is the WFLOW memo hit
                // (or, without WFLOW, a full recompute). Its tabs are
                // spelled out only when they differ from the first print's.
                let mut first_tabs = None;
                for print in 1..=2 {
                    let before: Vec<u64> = WATCHED.iter().map(|n| metrics.counter(n)).collect();
                    let widget = ldf.print();
                    let deltas: Vec<String> = WATCHED
                        .iter()
                        .zip(&before)
                        .map(|(n, b)| format!("{n}={}", metrics.counter(n).saturating_sub(*b)))
                        .collect();
                    writeln!(out, "print {print}").unwrap();
                    let tabs = describe_tabs(&widget);
                    if first_tabs.as_ref() == Some(&tabs) {
                        writeln!(out, "tabs: identical to print 1").unwrap();
                    } else {
                        out.push_str(&tabs);
                        first_tabs = Some(tabs);
                    }
                    describe_health(&mut out, &widget);
                    writeln!(out, "deltas: {}", deltas.join(" ")).unwrap();
                }
            }
        }
    }
    out
}

#[test]
fn pass_signature_matches_golden() {
    let actual = signature();
    if actual != GOLDEN {
        let first_diff = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
        eprintln!("-----BEGIN ACTUAL PASS SIGNATURE-----");
        eprint!("{actual}");
        eprintln!("-----END ACTUAL PASS SIGNATURE-----");
        panic!(
            "pass signature diverged from tests/golden/pass_signature.txt at line {} \
             (actual {:?}, golden {:?})",
            first_diff + 1,
            actual.lines().nth(first_diff),
            GOLDEN.lines().nth(first_diff),
        );
    }
}
