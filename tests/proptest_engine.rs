//! Property-based tests over engine services: semantic type inference must
//! be stable under row duplication (the paper scales every dataset by
//! duplicating rows — if duplication changed inferred types, the scaled
//! benchmarks would measure a different workload), sampling must preserve
//! value ranges, and the cost model must stay monotone.

use std::collections::HashMap;

use lux::engine::FrameMeta;
use lux::prelude::*;
use lux::recs::plan::{prune_worthwhile, vis_cost};
use lux::vis::OpClass;
use proptest::prelude::*;

/// Duplicate a frame's rows `k` times (the paper's scaling method).
fn duplicate(df: &DataFrame, k: usize) -> DataFrame {
    let mut out = df.clone();
    for _ in 1..k {
        out = out.concat(df).unwrap();
    }
    out
}

mod common;
use common::adversarial_frame;

fn small_frame() -> impl Strategy<Value = DataFrame> {
    (2usize..30).prop_flat_map(|rows| {
        (
            proptest::collection::vec(-100i64..100, rows),
            proptest::collection::vec(0usize..3, rows),
            proptest::collection::vec(0.0f64..1.0, rows),
        )
            .prop_map(|(ints, cats, floats)| {
                let labels = ["alpha", "beta", "gamma"];
                DataFrameBuilder::new()
                    .int("ints", ints)
                    .str("cats", cats.iter().map(|&c| labels[c]))
                    .float("floats", floats)
                    .build()
                    .unwrap()
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn semantic_types_stable_under_duplication(df in small_frame(), k in 2usize..6) {
        let overrides = HashMap::new();
        let before = FrameMeta::compute(&df, &overrides);
        let after = FrameMeta::compute(&duplicate(&df, k), &overrides);
        for (a, b) in before.columns.iter().zip(&after.columns) {
            prop_assert_eq!(a.semantic, b.semantic, "column {} changed type", a.name);
            prop_assert_eq!(a.cardinality, b.cardinality, "column {} changed cardinality", a.name);
            prop_assert_eq!(a.min, b.min);
            prop_assert_eq!(a.max, b.max);
        }
    }

    #[test]
    fn metadata_min_max_bound_all_values(df in small_frame()) {
        let meta = FrameMeta::compute(&df, &HashMap::new());
        for cm in &meta.columns {
            if let (Some(lo), Some(hi)) = (cm.min, cm.max) {
                let col = df.column(&cm.name).unwrap();
                for i in 0..col.len() {
                    if let Some(v) = col.f64_at(i) {
                        if !v.is_nan() {
                            prop_assert!(v >= lo && v <= hi);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn unique_values_are_actually_unique_and_present(df in small_frame()) {
        let meta = FrameMeta::compute(&df, &HashMap::new());
        for cm in &meta.columns {
            for (i, a) in cm.unique_values.iter().enumerate() {
                for b in &cm.unique_values[i + 1..] {
                    prop_assert!(a != b, "duplicate unique value in {}", cm.name);
                }
            }
            if cm.unique_complete {
                prop_assert_eq!(cm.unique_values.len(), cm.cardinality);
            }
        }
    }

    #[test]
    fn cost_model_monotone_in_rows_and_groups(
        rows_a in 1usize..100_000,
        rows_b in 1usize..100_000,
        groups in 0usize..1_000,
    ) {
        let (lo, hi) = (rows_a.min(rows_b), rows_a.max(rows_b));
        for class in OpClass::ALL {
            prop_assert!(vis_cost(class, lo, groups) <= vis_cost(class, hi, groups));
            prop_assert!(vis_cost(class, hi, groups) <= vis_cost(class, hi, groups + 1));
        }
    }

    #[test]
    fn prune_gate_never_fires_below_k(n in 0usize..200, k in 1usize..50) {
        if n <= k {
            prop_assert!(!prune_worthwhile(n, k, OpClass::Selection2, 1_000_000, 10_000, 0));
        }
    }

    #[test]
    fn adversarial_frames_survive_the_full_print_path(df in adversarial_frame()) {
        // The acceptance property of the governor PR: no pathological frame
        // may panic, hang, or emit NaN rankings anywhere in the always-on
        // path — metadata, actions, ranking, rendering.
        let ldf = lux::LuxDataFrame::new(df);
        let widget = ldf.print();
        let _ = widget.to_string();
        let _ = widget.render_lux_view(1);
        for r in widget.results() {
            for v in r.vislist.iter() {
                prop_assert!(!v.score.is_nan(), "NaN score served by {}", r.action);
            }
        }
        let meta = ldf.metadata();
        for cm in &meta.columns {
            prop_assert!(cm.min.is_none_or(|v| !v.is_nan()), "NaN min on {}", cm.name);
            prop_assert!(cm.max.is_none_or(|v| !v.is_nan()), "NaN max on {}", cm.name);
        }
    }

    #[test]
    fn sampling_preserves_value_bounds(df in small_frame(), n in 1usize..40, seed in 0u64..1000) {
        let sample = df.sample(n, seed);
        let meta_full = FrameMeta::compute(&df, &HashMap::new());
        let meta_sample = FrameMeta::compute(&sample, &HashMap::new());
        for (full, samp) in meta_full.columns.iter().zip(&meta_sample.columns) {
            if let (Some(flo), Some(fhi), Some(slo), Some(shi)) =
                (full.min, full.max, samp.min, samp.max)
            {
                prop_assert!(slo >= flo && shi <= fhi, "sample range escapes source range");
            }
            prop_assert!(samp.cardinality <= full.cardinality);
        }
    }
}

#[test]
fn scaled_benchmark_frames_keep_types() {
    // The concrete scaling used in the harness: airbnb/communities at two
    // sizes must infer identical schemas.
    let small = lux::workloads::airbnb(500, 42);
    let large = lux::workloads::airbnb(5_000, 42);
    let (ms, ml) = (
        FrameMeta::compute(&small, &HashMap::new()),
        FrameMeta::compute(&large, &HashMap::new()),
    );
    for (a, b) in ms.columns.iter().zip(&ml.columns) {
        assert_eq!(
            a.semantic, b.semantic,
            "airbnb column {} type unstable across scales",
            a.name
        );
    }
}
