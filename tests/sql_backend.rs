//! Cross-backend equivalence: the SQL execution path (paper §7's
//! relational-database alternative) must produce the same visualization
//! data as the native columnar kernels, for every Table-2 visualization
//! type that has a SQL translation.

use std::sync::{Arc, RwLock, RwLockReadGuard};

use lux::engine::failpoint;
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

fn check(spec: VisSpec, label: &str) {
    let _up = backend_up();
    let df = fixture();
    let native = process(&spec, &df, &opts(Backend::Native)).unwrap();
    let sql = process(&spec, &df, &opts(Backend::Sql)).unwrap();
    assert_frames_equal(&native, &sql, label);
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
        "filtered histogram",
    );
}

#[test]
fn heatmap_total_counts_agree() {
    let _up = backend_up();
    // Heatmaps order cells identically; compare total mass and cell count.
    let spec = VisSpec::new(
        Mark::Heatmap,
        vec![
            Encoding::new("pay", SemanticType::Quantitative, Channel::X).with_bin(6),
            Encoding::new("age", SemanticType::Quantitative, Channel::Y).with_bin(6),
        ],
        vec![],
    );
    let df = fixture();
    let native = process(&spec, &df, &opts(Backend::Native)).unwrap();
    let sql = process(&spec, &df, &opts(Backend::Sql)).unwrap();
    let total = |d: &DataFrame| -> i64 {
        (0..d.num_rows())
            .map(|i| d.value(i, "count").unwrap().as_f64().unwrap() as i64)
            .sum()
    };
    assert_eq!(total(&native), total(&sql));
}

#[test]
fn colour_heatmap_means_skip_nulls_on_both_backends() {
    let _up = backend_up();
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
    let native = process(&spec, &df, &opts(Backend::Native)).unwrap();
    let sql = process(&spec, &df, &opts(Backend::Sql)).unwrap();
    // Both order cells by (y bin, x bin) and every lattice point is its own
    // cell, so the rows line up even though SQL labels cells by bin index
    // (the maximum in an edge bin of its own) and native by bin start.
    assert_eq!(native.num_rows(), 16);
    assert_eq!(sql.num_rows(), 16);
    for r in 0..16 {
        assert_eq!(
            native.value(r, "count").unwrap(),
            sql.value(r, "count").unwrap()
        );
        let (n, s) = (
            native.value(r, "mean_c").unwrap(),
            sql.value(r, "mean_c").unwrap(),
        );
        let (x, y) = (r % 4, r / 4);
        if x == 1 {
            assert!(n.is_null() && s.is_null(), "cell {r}: {n:?} vs {s:?}");
        } else {
            // the two non-null rows carry 10y + x + 1 and 10y + x + 2
            let want = (10 * y + x) as f64 + 1.5;
            assert_eq!(n.as_f64(), Some(want), "native cell {r}");
            assert_eq!(s.as_f64(), Some(want), "sql cell {r}");
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
    let fp = failpoint::scope();
    fp.arm(failpoint::names::SQL_QUERY, "return(x)").unwrap();
    let (native, sql) = (vis(on(false)), vis(on(true)));
    drop(fp);
    assert!(native.is_ok());
    assert!(sql.is_err());
    // The group cap is the config's too: keys past it fold into "(other)".
    let mut capped = LuxConfig::default();
    capped.budget.max_group_cardinality = 2;
    assert_eq!(native.unwrap().data().unwrap().num_rows(), 4);
    assert_eq!(vis(capped).unwrap().data().unwrap().num_rows(), 3);
}
