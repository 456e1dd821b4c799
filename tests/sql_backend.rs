//! Cross-backend equivalence: the SQL execution path (paper §7's
//! relational-database alternative) must produce the same visualization
//! data as the native columnar kernels, for every Table-2 visualization
//! type. Only the relational step differs between the backends, so the
//! one pinned exception is the group cap's `"(other)"` fold, which happens
//! inside the native group-by kernel.

use std::sync::{Arc, RwLock, RwLockReadGuard};

use lux::engine::failpoint;
use lux::engine::world::World;
use lux::prelude::*;
use lux::vis::{process, Backend, ProcessOptions};
use lux::LuxVis;

/// The `sql.query` failpoint is process-wide: the one test that arms it
/// holds this lock exclusively, every other test shares it.
static SQL_FAILPOINT: RwLock<()> = RwLock::new(());

fn backend_up() -> RwLockReadGuard<'static, ()> {
    SQL_FAILPOINT.read().unwrap_or_else(|e| e.into_inner())
}

fn fixture() -> DataFrame {
    DataFrameBuilder::new()
        .str(
            "dept",
            (0..200).map(|i| ["Sales", "Eng", "HR", "Legal"][i % 4]),
        )
        .str("level", (0..200).map(|i| ["jr", "sr"][i % 2]))
        .float("pay", (0..200).map(|i| 40.0 + ((i * 13) % 70) as f64))
        .float("age", (0..200).map(|i| 22.0 + ((i * 7) % 40) as f64))
        .build()
        .unwrap()
}

fn opts(backend: Backend) -> ProcessOptions {
    ProcessOptions {
        backend,
        ..ProcessOptions::default()
    }
}

fn assert_frames_equal(native: &DataFrame, sql: &DataFrame, label: &str) {
    assert_eq!(
        native.num_rows(),
        sql.num_rows(),
        "{label}: row counts differ"
    );
    assert_eq!(
        native.column_names(),
        sql.column_names(),
        "{label}: schemas differ"
    );
    for r in 0..native.num_rows() {
        for c in native.column_names() {
            let (a, b) = (native.value(r, c).unwrap(), sql.value(r, c).unwrap());
            match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => {
                    assert!((x - y).abs() < 1e-9, "{label}: {c}[{r}] {x} vs {y}")
                }
                _ => assert_eq!(a, b, "{label}: {c}[{r}]"),
            }
        }
    }
}

/// Process `spec` over `df` on both backends, assert the frames are equal,
/// and return the native one.
fn check(spec: VisSpec, df: &DataFrame, label: &str) -> DataFrame {
    let _up = backend_up();
    let native = process(&spec, df, &opts(Backend::Native)).unwrap();
    let sql = process(&spec, df, &opts(Backend::Sql)).unwrap();
    assert_frames_equal(&native, &sql, label);
    native
}

fn floats(name: &str, values: impl IntoIterator<Item = Option<f64>>) -> (String, Column) {
    let values = values.into_iter().collect();
    (
        name.to_string(),
        Column::Float64(PrimitiveColumn::from_options(values)),
    )
}

/// `i`-th value of a float column that holds NaN, ±inf and nulls among
/// ordinary values.
fn awkward(i: usize) -> Option<f64> {
    match i % 11 {
        0 => None,
        1 => Some(f64::NAN),
        2 => Some(f64::INFINITY),
        3 => Some(f64::NEG_INFINITY),
        k => Some((i * 7 % 23) as f64 - 5.5 * k as f64),
    }
}

fn xy(x: &str, y: &str) -> Vec<Encoding> {
    vec![
        Encoding::new(x, SemanticType::Quantitative, Channel::X),
        Encoding::new(y, SemanticType::Quantitative, Channel::Y),
    ]
}

#[test]
fn scatter_backends_agree() {
    check(
        VisSpec::new(
            Mark::Scatter,
            vec![
                Encoding::new("pay", SemanticType::Quantitative, Channel::X),
                Encoding::new("age", SemanticType::Quantitative, Channel::Y),
            ],
            vec![],
        ),
        &fixture(),
        "scatter",
    );
}

#[test]
fn filtered_scatter_backends_agree() {
    check(
        VisSpec::new(
            Mark::Scatter,
            vec![
                Encoding::new("pay", SemanticType::Quantitative, Channel::X),
                Encoding::new("age", SemanticType::Quantitative, Channel::Y),
            ],
            vec![FilterSpec::new("dept", FilterOp::Eq, Value::str("Sales"))],
        ),
        &fixture(),
        "filtered scatter",
    );
}

#[test]
fn bar_backends_agree() {
    check(
        VisSpec::new(
            Mark::Bar,
            vec![
                Encoding::new("dept", SemanticType::Nominal, Channel::X),
                Encoding::new("pay", SemanticType::Quantitative, Channel::Y)
                    .with_aggregation(Agg::Mean),
            ],
            vec![],
        ),
        &fixture(),
        "bar mean",
    );
}

#[test]
fn count_bar_backends_agree() {
    check(
        VisSpec::new(
            Mark::Bar,
            vec![
                Encoding::new("dept", SemanticType::Nominal, Channel::X),
                Encoding::synthetic_count(Channel::Y),
            ],
            vec![],
        ),
        &fixture(),
        "bar count",
    );
}

#[test]
fn histogram_backends_agree() {
    check(
        VisSpec::new(
            Mark::Histogram,
            vec![
                Encoding::new("pay", SemanticType::Quantitative, Channel::X).with_bin(8),
                Encoding::synthetic_count(Channel::Y),
            ],
            vec![],
        ),
        &fixture(),
        "histogram",
    );
}

#[test]
fn filtered_histogram_backends_agree() {
    check(
        VisSpec::new(
            Mark::Histogram,
            vec![
                Encoding::new("age", SemanticType::Quantitative, Channel::X).with_bin(5),
                Encoding::synthetic_count(Channel::Y),
            ],
            vec![FilterSpec::new("level", FilterOp::Eq, Value::str("jr"))],
        ),
        &fixture(),
        "filtered histogram",
    );
}

/// Past `max_points` both backends draw the same seeded sample of the
/// same filtered rows, not the first rows the relational step returns.
#[test]
fn tall_scatter_backends_agree() {
    let df = DataFrameBuilder::new()
        .float("a", (0..12_000).map(|i| (i % 6_000) as f64))
        .float("b", (0..12_000).map(|i| ((i * 37) % 1_000) as f64))
        .str("half", (0..12_000).map(|i| ["lo", "hi"][i / 6_000]))
        .build()
        .unwrap();
    let plain = check(
        VisSpec::new(Mark::Scatter, xy("a", "b"), vec![]),
        &df,
        "tall scatter",
    );
    assert_eq!(plain.num_rows(), ProcessOptions::default().max_points);
    let filtered = check(
        VisSpec::new(
            Mark::Scatter,
            xy("a", "b"),
            vec![FilterSpec::new("half", FilterOp::Eq, Value::str("hi"))],
        ),
        &df,
        "tall filtered scatter",
    );
    assert_eq!(filtered.num_rows(), ProcessOptions::default().max_points);
}

#[test]
fn heatmap_backends_agree() {
    let binned = |attr: &str, ch| Encoding::new(attr, SemanticType::Quantitative, ch).with_bin(6);
    let encodings = vec![binned("pay", Channel::X), binned("age", Channel::Y)];
    let out = check(
        VisSpec::new(Mark::Heatmap, encodings, vec![]),
        &fixture(),
        "heatmap",
    );
    assert_eq!(out.column_names(), &["pay", "age", "count"]);
}

/// Null and NaN in x, y and colour, and ±inf in x: a row lands in a cell
/// only where x and y are finite, and the colour mean skips null and NaN.
#[test]
fn heatmaps_with_missing_values_agree() {
    let df = DataFrame::from_columns(vec![
        floats("x", (0..400).map(awkward)),
        floats(
            "y",
            (0..400).map(|i| match i % 13 {
                0 => None,
                1 => Some(f64::NAN),
                _ => Some((i % 17) as f64),
            }),
        ),
        floats(
            "c",
            (0..400).map(|i| match i % 5 {
                0 => None,
                1 => Some(f64::NAN),
                _ => Some(i as f64 * 0.25),
            }),
        ),
    ])
    .unwrap();
    let binned =
        |attr: &str, ch: Channel| Encoding::new(attr, SemanticType::Quantitative, ch).with_bin(4);
    let plain = vec![binned("x", Channel::X), binned("y", Channel::Y)];
    let out = check(
        VisSpec::new(Mark::Heatmap, plain.clone(), vec![]),
        &df,
        "heatmap without colour",
    );
    assert_eq!(out.column_names(), &["x", "y", "count"]);
    let mut coloured = plain;
    coloured.push(Encoding::new(
        "c",
        SemanticType::Quantitative,
        Channel::Color,
    ));
    let out = check(
        VisSpec::new(Mark::Heatmap, coloured, vec![]),
        &df,
        "heatmap with colour",
    );
    assert_eq!(out.column_names(), &["x", "y", "count", "mean_c"]);
}

#[test]
fn histograms_over_nan_inf_and_nulls_agree() {
    let df = DataFrame::from_columns(vec![
        floats("v", (0..300).map(awkward)),
        floats("empty", (0..300).map(|i| [None, Some(f64::NAN)][i % 2])),
        floats("flat", (0..300).map(|i| (i % 3 != 0).then_some(2.5))),
    ])
    .unwrap();
    for (col, bins) in [("v", 7), ("v", 1), ("empty", 5), ("flat", 4)] {
        let spec = VisSpec::new(
            Mark::Histogram,
            vec![
                Encoding::new(col, SemanticType::Quantitative, Channel::X).with_bin(bins),
                Encoding::synthetic_count(Channel::Y),
            ],
            vec![],
        );
        let out = check(spec, &df, &format!("histogram of {col} in {bins} bins"));
        assert_eq!(out.num_rows(), bins);
    }
}

/// Past `temporal_buckets` distinct instants, both backends group by the
/// same bucket index and label it with the bucket's start instant.
#[test]
fn temporal_line_past_the_bucket_count_agrees() {
    let base = 18_262i64 * 86_400;
    let df = DataFrame::from_columns(vec![
        (
            "when".to_string(),
            Column::DateTime(PrimitiveColumn::from_options(
                (0..520)
                    .map(|i| (i % 50 != 7).then_some(base + (i % 500) as i64 * 3_600))
                    .collect(),
            )),
        ),
        floats("v", (0..520).map(|i| Some((i * 31 % 97) as f64))),
    ])
    .unwrap();
    let spec = VisSpec::new(
        Mark::Line,
        vec![
            Encoding::new("when", SemanticType::Temporal, Channel::X),
            Encoding::new("v", SemanticType::Quantitative, Channel::Y).with_aggregation(Agg::Mean),
        ],
        vec![],
    );
    let out = check(spec, &df, "temporal line");
    // 64 buckets and the null instant's group
    assert_eq!(
        out.num_rows(),
        ProcessOptions::default().temporal_buckets + 1
    );
}

/// Ties keep first-seen group order on both backends, and a null key is a
/// group of its own.
#[test]
fn bars_with_ties_and_a_null_key_agree() {
    let keys = (0..90).map(|i| match i % 9 {
        0 | 1 => None,
        k => Some(["p", "q", "r", "s"][k % 4]),
    });
    let df = DataFrame::from_columns(vec![
        ("k".to_string(), Column::Str(StrColumn::from_options(keys))),
        floats("v", (0..90).map(|i| Some((i % 4) as f64))),
    ])
    .unwrap();
    let count = VisSpec::new(
        Mark::Bar,
        vec![
            Encoding::new("k", SemanticType::Nominal, Channel::X),
            Encoding::synthetic_count(Channel::Y),
        ],
        vec![],
    );
    let out = check(count, &df, "tied count bar");
    assert_eq!(out.num_rows(), 5);
    assert!((0..5).any(|r| out.value(r, "k").unwrap().is_null()));
    let max = VisSpec::new(
        Mark::Bar,
        vec![
            Encoding::new("k", SemanticType::Nominal, Channel::X),
            Encoding::new("v", SemanticType::Quantitative, Channel::Y).with_aggregation(Agg::Max),
        ],
        vec![],
    );
    check(max, &df, "tied max bar");
}

/// The one pinned difference (ROADMAP item 15): past
/// `max_group_cardinality` keys the native group-by kernel folds the rest
/// into `"(other)"` to bound its memory, while SQL returns every group.
/// Lowering the fold waits for item 3's shared data requests.
#[test]
fn over_cap_bar_folds_only_natively() {
    let _up = backend_up();
    let df = DataFrameBuilder::new()
        .str("k", (0..1_500).map(|i| format!("k{i:04}")))
        .build()
        .unwrap();
    let spec = VisSpec::new(
        Mark::Bar,
        vec![
            Encoding::new("k", SemanticType::Nominal, Channel::X),
            Encoding::synthetic_count(Channel::Y),
        ],
        vec![],
    );
    let native = process(&spec, &df, &opts(Backend::Native)).unwrap();
    let sql = process(&spec, &df, &opts(Backend::Sql)).unwrap();
    let bars = ProcessOptions::default().max_bars;
    assert_eq!((native.num_rows(), sql.num_rows()), (bars, bars));
    assert_eq!(native.value(0, "k").unwrap(), Value::str("(other)"));
    assert_eq!(native.value(0, "count").unwrap(), Value::Int(500));
    assert_eq!(sql.value(0, "k").unwrap(), Value::str("k0000"));
    assert!((0..bars).all(|r| sql.value(r, "count").unwrap() == Value::Int(1)));
}

#[test]
fn colour_heatmap_means_skip_nulls_on_both_backends() {
    // A 4x4 lattice, three rows per point. The colour is null on every row
    // of the points with x == 1, and on one row in three elsewhere.
    let point = |i: usize| ((i / 3) % 4, (i / 12) % 4);
    let colour = |i: usize| {
        let (x, y) = point(i);
        (x != 1 && i % 3 != 0).then(|| (10 * y + x) as f64 + (i % 3) as f64)
    };
    let df = DataFrame::from_columns(vec![
        (
            "x".to_string(),
            Column::Float64(PrimitiveColumn::from_values(
                (0..48).map(|i| point(i).0 as f64).collect(),
            )),
        ),
        (
            "y".to_string(),
            Column::Float64(PrimitiveColumn::from_values(
                (0..48).map(|i| point(i).1 as f64).collect(),
            )),
        ),
        (
            "c".to_string(),
            Column::Float64(PrimitiveColumn::from_options((0..48).map(colour).collect())),
        ),
    ])
    .unwrap();
    let spec = VisSpec::new(
        Mark::Heatmap,
        vec![
            Encoding::new("x", SemanticType::Quantitative, Channel::X).with_bin(4),
            Encoding::new("y", SemanticType::Quantitative, Channel::Y).with_bin(4),
            Encoding::new("c", SemanticType::Quantitative, Channel::Color),
        ],
        vec![],
    );
    let native = check(spec, &df, "colour heatmap");
    // every lattice point is its own cell, in (y bin, x bin) order
    assert_eq!(native.num_rows(), 16);
    for r in 0..16 {
        let mean = native.value(r, "mean_c").unwrap();
        let (x, y) = (r % 4, r / 4);
        if x == 1 {
            assert!(mean.is_null(), "cell {r}: {mean:?}");
        } else {
            // the two non-null rows carry 10y + x + 1 and 10y + x + 2
            let want = (10 * y + x) as f64 + 1.5;
            assert_eq!(mean.as_f64(), Some(want), "cell {r}");
        }
    }
}

#[test]
fn full_print_runs_on_sql_backend() {
    let _up = backend_up();
    let cfg = LuxConfig {
        sql_backend: true,
        ..LuxConfig::default()
    };
    let ldf = LuxDataFrame::with_config(fixture(), Arc::new(cfg));
    let widget = ldf.print();
    assert!(widget.tabs().contains(&"Correlation"));
    assert!(widget.tabs().contains(&"Occurrence"));
    // every shipped vis carries processed data from the SQL path
    for result in widget.results() {
        for vis in result.vislist.iter() {
            assert!(vis.data.is_some(), "{} vis missing data", result.action);
        }
    }
}

#[test]
fn sql_and_native_prints_rank_identically() {
    let _up = backend_up();
    let native = LuxDataFrame::with_config(
        fixture(),
        Arc::new(LuxConfig {
            sql_backend: false,
            r#async: false,
            ..LuxConfig::default()
        }),
    );
    let sql = LuxDataFrame::with_config(
        fixture(),
        Arc::new(LuxConfig {
            sql_backend: true,
            r#async: false,
            ..LuxConfig::default()
        }),
    );
    let (rn, rs) = (native.recommendations(), sql.recommendations());
    assert_eq!(rn.len(), rs.len());
    for (a, b) in rn.iter().zip(rs.iter()) {
        assert_eq!(a.action, b.action);
        let specs = |r: &ActionResult| -> Vec<String> {
            r.vislist.iter().map(|v| v.spec.describe()).collect()
        };
        assert_eq!(specs(a), specs(b), "ranking differs for {}", a.action);
    }
}

#[test]
fn lux_vis_runs_on_the_configured_backend() {
    let _exclusive = SQL_FAILPOINT.write().unwrap_or_else(|e| e.into_inner());
    // A fresh frame per vis, so no processed-vis memo entry can serve it.
    let vis = |config: LuxConfig| {
        let ldf = LuxDataFrame::with_config(fixture(), Arc::new(config));
        LuxVis::from_strs(["pay", "dept"], &ldf)
    };
    let on = |sql_backend| LuxConfig {
        sql_backend,
        ..LuxConfig::default()
    };
    let (native, sql) = (vis(on(false)).unwrap(), vis(on(true)).unwrap());
    assert_eq!(native.spec(), sql.spec());
    assert_frames_equal(native.data().unwrap(), sql.data().unwrap(), "LuxVis");
    // A refusing backend fails the SQL vis and only it: the path was taken.
    let world = World::enter();
    world.arm(failpoint::names::SQL_QUERY, "return(x)").unwrap();
    let (native, sql) = (vis(on(false)), vis(on(true)));
    drop(world);
    assert!(native.is_ok());
    assert!(sql.is_err());
    // The group cap is the config's too: keys past it fold into "(other)".
    let mut capped = LuxConfig::default();
    capped.budget.max_group_cardinality = 2;
    assert_eq!(native.unwrap().data().unwrap().num_rows(), 4);
    assert_eq!(vis(capped).unwrap().data().unwrap().num_rows(), 3);
}
