//! Shared strategies for the integration suites. Lives in `tests/common/`
//! so both the engine proptests and the parallel-determinism suite can draw
//! from the same pathological frame distribution.

use std::collections::HashMap;

use lux::engine::governor::{BudgetHandle, ResourceBudget};
use lux::engine::FrameMeta;
use lux::prelude::*;
use proptest::prelude::*;

/// Effective seed for seeded integration suites: honors the shared
/// `LUX_TEST_SEED` replay knob (decimal or `0x`-hex, DESIGN.md §15) and
/// otherwise derives ambient entropy. Tests that roll their own RNG
/// should draw the seed here and print it on failure so any run can be
/// replayed with `LUX_TEST_SEED=<printed value>`.
#[allow(dead_code)]
pub fn test_seed() -> u64 {
    lux_engine::rng::test_seed()
}

/// The scan cap [`dense_int_columns`] is shaped around inside
/// [`adversarial_frame`]: small enough that a 50-row frame crosses it.
#[allow(dead_code)]
pub const ADVERSARIAL_SCAN_CAP: usize = 16;

/// Integer columns placed around the edges of the metadata pass's dense
/// distinct form (DESIGN.md §14), for a frame of `rows` rows scanned in
/// chunks of about `step` rows against an exact ceiling of `cap`:
///
/// - `dense`: a small span straddling zero — a bitset on any grid;
/// - `dense_outlier`: the same with one value just past `16 x rows`, so the
///   chunk that holds it is hashed and its neighbours are bitsets;
/// - `dense_stepped`: each run of `step` rows is a tight span of its own, a
///   billion apart — dense per chunk, never jointly;
/// - `exactly_cap` / `cap_plus_one`: `cap` and `cap + 1` distinct values in
///   one dense span — the last exact bitset and the first one that must
///   become the sketch of its keys.
#[allow(dead_code)]
pub fn dense_int_columns(rows: usize, step: usize, cap: usize) -> Vec<(String, Column)> {
    let ints = |f: &dyn Fn(usize) -> i64| {
        Column::Int64(PrimitiveColumn::from_values((0..rows).map(f).collect()))
    };
    vec![
        ("dense".into(), ints(&|i| (i * 7 % 1_000) as i64 - 500)),
        (
            "dense_outlier".into(),
            ints(&|i| {
                if i == rows / 2 {
                    16 * rows as i64 + 64
                } else {
                    (i % 100) as i64
                }
            }),
        ),
        (
            "dense_stepped".into(),
            ints(&|i| (i / step) as i64 * 1_000_000_000 + (i % step) as i64),
        ),
        ("exactly_cap".into(), ints(&|i| (i % cap) as i64)),
        ("cap_plus_one".into(), ints(&|i| (i % (cap + 1)) as i64)),
    ]
}

/// Adversarial frame generator: the pathological shapes the resource
/// governor and the always-on print path must survive (DESIGN.md §8) —
/// empty frames, all-null columns, near-unique categoricals, NaN/inf
/// floats, single-value and mixed-sign-zero columns, huge strings, and
/// integer columns on both sides of every dense-form bound.
pub fn adversarial_frame() -> impl Strategy<Value = DataFrame> {
    let zero_rows = Just(
        DataFrameBuilder::new()
            .float("x", std::iter::empty::<f64>())
            .str("s", std::iter::empty::<&str>())
            .build()
            .unwrap(),
    );
    let all_null = (1usize..60).prop_map(|rows| {
        DataFrameBuilder::new()
            .column(
                "nf",
                Column::Float64(PrimitiveColumn::from_options(vec![None; rows])),
            )
            .column(
                "ns",
                Column::Str(StrColumn::from_options(vec![None::<&str>; rows])),
            )
            .build()
            .unwrap()
    });
    let near_unique = (50usize..200).prop_map(|rows| {
        DataFrameBuilder::new()
            .str("id", (0..rows).map(|i| format!("user-{i:06}")))
            .float("v", (0..rows).map(|i| i as f64))
            .build()
            .unwrap()
    });
    let non_finite = proptest::collection::vec(
        prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(0.0),
            Just(-0.0),
            -1e300f64..1e300,
        ],
        2..40,
    )
    .prop_map(|vals| {
        let n = vals.len();
        DataFrameBuilder::new()
            .float("weird", vals)
            .str("g", (0..n).map(|i| if i % 2 == 0 { "a" } else { "b" }))
            .build()
            .unwrap()
    });
    let single_value = (2usize..40).prop_map(|rows| {
        DataFrameBuilder::new()
            .float("constant", std::iter::repeat(7.0).take(rows))
            .int("zero", std::iter::repeat(0).take(rows))
            .build()
            .unwrap()
    });
    let huge_strings = (2usize..10).prop_map(|rows| {
        DataFrameBuilder::new()
            .str("blob", (0..rows).map(|i| "x".repeat(10_000 + i)))
            .float("v", (0..rows).map(|i| i as f64))
            .build()
            .unwrap()
    });
    let dense_ints = (50usize..400, 1usize..80).prop_map(|(rows, step)| {
        DataFrame::from_columns(dense_int_columns(rows, step, ADVERSARIAL_SCAN_CAP)).unwrap()
    });
    prop_oneof![
        zero_rows,
        all_null,
        near_unique,
        non_finite,
        single_value,
        huge_strings,
        dense_ints,
    ]
}

/// Chunk grids the metadata pass is held invariant over: many chunks per
/// column, the pre-PR-20 grid (where a near-unique column's first chunk is
/// exact at exactly the scan cap and its fold converts), and the shipped
/// one-accumulator grid.
#[allow(dead_code)]
pub const CHUNK_GRID: [usize; 3] = [4_096, 65_536, 1 << 20];

/// Thread counts the metadata pass is held invariant over.
#[allow(dead_code)]
pub const THREAD_GRID: [usize; 3] = [1, 2, 8];

/// Everything comparable about one governed metadata pass: the governor's
/// charge, every `ColumnMeta` field per column, and the event list.
#[allow(dead_code)]
pub type MetadataPassOutput = (u64, Vec<String>, Vec<String>);

#[allow(dead_code)]
pub fn pass_output(m: &FrameMeta, h: &BudgetHandle) -> MetadataPassOutput {
    let cols: Vec<String> = m
        .columns
        .iter()
        .map(|c| {
            format!(
                "{}|{:?}|{:?}|{}|{}|{:?}|{}|{:?}|{:?}|{}",
                c.name,
                c.dtype,
                c.semantic,
                c.cardinality,
                c.cardinality_estimated,
                c.unique_values,
                c.unique_complete,
                c.min.map(f64::to_bits),
                c.max.map(f64::to_bits),
                c.null_count
            )
        })
        .collect();
    let events: Vec<String> = h.events().iter().map(|e| e.to_string()).collect();
    (h.charged(), cols, events)
}

/// One governed metadata pass over `df` on an explicit chunk grid.
#[allow(dead_code)]
pub fn governed_pass(
    df: &DataFrame,
    budget: &ResourceBudget,
    threads: usize,
    chunk_rows: usize,
) -> MetadataPassOutput {
    let h = BudgetHandle::new(budget.clone());
    let m = FrameMeta::compute_with_chunk_rows(
        df,
        &HashMap::new(),
        None,
        Some(&h),
        threads,
        chunk_rows,
        df.append_lineage().as_slice(),
    );
    pass_output(&m, &h)
}

/// Run [`governed_pass`] at every `chunk_grid` x [`THREAD_GRID`] point and
/// require one answer; returns it.
#[allow(dead_code)]
pub fn assert_grid_invariant(
    df: &DataFrame,
    budget: &ResourceBudget,
    chunk_grid: &[usize],
) -> MetadataPassOutput {
    let reference = governed_pass(df, budget, 1, chunk_grid[0]);
    for &chunk_rows in chunk_grid {
        for threads in THREAD_GRID {
            let out = governed_pass(df, budget, threads, chunk_rows);
            assert_eq!(
                out, reference,
                "metadata pass diverged at chunk_rows={chunk_rows} threads={threads}"
            );
        }
    }
    reference
}
