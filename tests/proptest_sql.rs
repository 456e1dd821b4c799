//! Differential property tests: the from-scratch SQL engine must agree
//! with the native dataframe operations on generated inputs — WHERE vs
//! `filter`, GROUP BY COUNT vs `groupby().count()`, aggregates vs the
//! typed kernels, ORDER/LIMIT vs `sort_by`/`head` — and visualization
//! processing must draw the same data on both backends.

use lux::dataframe::sql::query_frame;
use lux::prelude::*;
use lux::vis::{process, Backend, ProcessOptions};
use proptest::prelude::*;

fn frame_strategy() -> impl Strategy<Value = DataFrame> {
    (1usize..50).prop_flat_map(|rows| {
        (
            proptest::collection::vec(-50i64..50, rows),
            proptest::collection::vec(0usize..3, rows),
        )
            .prop_map(|(nums, cats)| {
                let labels = ["red", "green", "blue"];
                DataFrameBuilder::new()
                    .int("v", nums)
                    .str("c", cats.iter().map(|&i| labels[i]))
                    .build()
                    .unwrap()
            })
    })
}

/// Small frames whose float columns hold nulls, NaN and ±inf: `x` float,
/// `y` int, `z` float colour, `c` category, `t` hourly instants.
fn vis_frame_strategy() -> impl Strategy<Value = DataFrame> {
    (0usize..40).prop_flat_map(|rows| {
        proptest::collection::vec(
            (0usize..12, 0usize..6, 0usize..12, 0usize..4, 0usize..9),
            rows,
        )
        .prop_map(|codes| {
            let float = |code: usize| match code {
                0 => None,
                1 => Some(f64::NAN),
                2 => Some(f64::INFINITY),
                3 => Some(f64::NEG_INFINITY),
                k => Some(k as f64 * 1.5 - 7.0),
            };
            let present = |code: usize| (code > 0).then_some(code);
            let col = |f: &dyn Fn(&(usize, usize, usize, usize, usize)) -> Option<f64>| {
                Column::Float64(PrimitiveColumn::from_options(codes.iter().map(f).collect()))
            };
            DataFrame::from_columns(vec![
                ("x".to_string(), col(&|r| float(r.0))),
                (
                    "y".to_string(),
                    Column::Int64(PrimitiveColumn::from_options(
                        codes
                            .iter()
                            .map(|r| present(r.1).map(|k| k as i64 % 4))
                            .collect(),
                    )),
                ),
                ("z".to_string(), col(&|r| float(r.2))),
                (
                    "c".to_string(),
                    Column::Str(StrColumn::from_options(
                        codes
                            .iter()
                            .map(|r| present(r.3).map(|k| ["a", "b", "c"][k % 3])),
                    )),
                ),
                (
                    "t".to_string(),
                    Column::DateTime(PrimitiveColumn::from_options(
                        codes
                            .iter()
                            .map(|r| present(r.4).map(|k| k as i64 * 3_600))
                            .collect(),
                    )),
                ),
            ])
            .unwrap()
        })
    })
}

/// One spec of every mark over [`vis_frame_strategy`]'s columns.
fn vis_specs(filtered: bool) -> Vec<VisSpec> {
    let q = SemanticType::Quantitative;
    let n = SemanticType::Nominal;
    let enc = |attr: &str, semantic, ch| Encoding::new(attr, semantic, ch);
    let filters = || match filtered {
        true => vec![FilterSpec::new("c", FilterOp::Ne, Value::str("b"))],
        false => vec![],
    };
    let spec = |mark, encodings| VisSpec::new(mark, encodings, filters());
    vec![
        spec(
            Mark::Scatter,
            vec![
                enc("x", q, Channel::X),
                enc("y", q, Channel::Y),
                enc("c", n, Channel::Color),
            ],
        ),
        spec(
            Mark::Bar,
            vec![
                enc("c", n, Channel::X),
                Encoding::synthetic_count(Channel::Y),
            ],
        ),
        spec(
            Mark::Bar,
            vec![
                enc("c", n, Channel::X),
                enc("y", q, Channel::Y).with_aggregation(Agg::Sum),
            ],
        ),
        spec(
            Mark::Bar,
            vec![
                enc("x", q, Channel::X),
                enc("y", q, Channel::Y).with_aggregation(Agg::Min),
                enc("c", n, Channel::Color),
            ],
        ),
        spec(
            Mark::Line,
            vec![
                enc("t", SemanticType::Temporal, Channel::X),
                enc("y", q, Channel::Y).with_aggregation(Agg::Mean),
            ],
        ),
        spec(
            Mark::Line,
            vec![
                enc("x", q, Channel::X),
                enc("y", q, Channel::Y).with_aggregation(Agg::Mean),
            ],
        ),
        spec(
            Mark::Choropleth,
            vec![
                enc("c", n, Channel::X),
                enc("y", q, Channel::Y).with_aggregation(Agg::Max),
            ],
        ),
        spec(
            Mark::Histogram,
            vec![
                enc("x", q, Channel::X),
                Encoding::synthetic_count(Channel::Y),
            ],
        ),
        spec(
            Mark::Heatmap,
            vec![enc("x", q, Channel::X), enc("z", q, Channel::Y)],
        ),
        spec(
            Mark::Heatmap,
            vec![
                enc("x", q, Channel::X),
                enc("t", q, Channel::Y),
                enc("z", q, Channel::Color),
            ],
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Native and SQL processing draw the same frame for every mark: the
    /// same schema and rows, exact counts, other values within 1e-9. Small
    /// limits make the downsample, the top bars, the time buckets and the
    /// clamped last bin all engage.
    #[test]
    fn every_mark_processes_alike_on_both_backends(df in vis_frame_strategy(), filtered in any::<bool>()) {
        let opts = |backend| ProcessOptions {
            backend,
            max_points: 10,
            max_bars: 3,
            temporal_buckets: 4,
            histogram_bins: 4,
            heatmap_bins: 3,
            ..ProcessOptions::default()
        };
        for spec in vis_specs(filtered) {
            let native = process(&spec, &df, &opts(Backend::Native)).unwrap();
            let sql = process(&spec, &df, &opts(Backend::Sql)).unwrap();
            let label = spec.describe();
            prop_assert_eq!(native.column_names(), sql.column_names(), "{}", label);
            prop_assert_eq!(native.num_rows(), sql.num_rows(), "{}", label);
            for c in native.column_names() {
                for r in 0..native.num_rows() {
                    let (a, b) = (native.value(r, c).unwrap(), sql.value(r, c).unwrap());
                    let close = match (a.as_f64(), b.as_f64()) {
                        (Some(x), Some(y)) => x == y || (x - y).abs() < 1e-9 || (x.is_nan() && y.is_nan()),
                        _ => a == b,
                    };
                    prop_assert!(close, "{}: {}[{}] {:?} vs {:?}", label, c, r, a, b);
                }
            }
        }
    }

    #[test]
    fn where_matches_filter(df in frame_strategy(), threshold in -50i64..50) {
        let sql = query_frame(&format!("SELECT v FROM t WHERE v > {threshold}"), &df).unwrap();
        let native = df.filter("v", FilterOp::Gt, &Value::Int(threshold)).unwrap();
        prop_assert_eq!(sql.num_rows(), native.num_rows());
        for i in 0..sql.num_rows() {
            prop_assert_eq!(sql.value(i, "v").unwrap(), native.value(i, "v").unwrap());
        }
    }

    #[test]
    fn group_count_matches_groupby(df in frame_strategy()) {
        let sql = query_frame(
            "SELECT c, COUNT(*) AS count FROM t GROUP BY c ORDER BY c ASC",
            &df,
        )
        .unwrap();
        let native = df.groupby(&["c"]).unwrap().count().unwrap().sort_by(&["c"], true).unwrap();
        prop_assert_eq!(sql.num_rows(), native.num_rows());
        for i in 0..sql.num_rows() {
            prop_assert_eq!(sql.value(i, "c").unwrap(), native.value(i, "c").unwrap());
            prop_assert_eq!(sql.value(i, "count").unwrap(), native.value(i, "count").unwrap());
        }
    }

    #[test]
    fn global_aggregates_match_kernels(df in frame_strategy()) {
        let sql = query_frame(
            "SELECT COUNT(*) AS n, SUM(v) AS s, AVG(v) AS m, MIN(v) AS lo, MAX(v) AS hi FROM t",
            &df,
        )
        .unwrap();
        prop_assert_eq!(
            sql.value(0, "n").unwrap().as_f64().unwrap() as usize,
            df.num_rows()
        );
        let col = df.column("v").unwrap();
        let vals: Vec<f64> = (0..col.len()).filter_map(|i| col.f64_at(i)).collect();
        let sum: f64 = vals.iter().sum();
        prop_assert!((sql.value(0, "s").unwrap().as_f64().unwrap() - sum).abs() < 1e-9);
        prop_assert!(
            (sql.value(0, "m").unwrap().as_f64().unwrap() - sum / vals.len() as f64).abs() < 1e-9
        );
        let (lo, hi) = col.min_max_f64().unwrap();
        prop_assert_eq!(sql.value(0, "lo").unwrap().as_f64().unwrap(), lo);
        prop_assert_eq!(sql.value(0, "hi").unwrap().as_f64().unwrap(), hi);
    }

    #[test]
    fn order_and_limit_match_sort_head(df in frame_strategy(), n in 1usize..20) {
        let sql = query_frame(&format!("SELECT v FROM t ORDER BY v ASC LIMIT {n}"), &df).unwrap();
        let native = df.sort_by(&["v"], true).unwrap().head(n);
        prop_assert_eq!(sql.num_rows(), native.num_rows());
        for i in 0..sql.num_rows() {
            prop_assert_eq!(sql.value(i, "v").unwrap(), native.value(i, "v").unwrap());
        }
    }

    #[test]
    fn sql_parser_is_total(q in ".{0,80}") {
        // arbitrary text never panics the engine; errors are fine
        let df = DataFrameBuilder::new().int("v", [1]).build().unwrap();
        let _ = query_frame(&q, &df);
    }

    #[test]
    fn string_predicates_match_dictionary_filter(df in frame_strategy(), pick in 0usize..3) {
        let labels = ["red", "green", "blue"];
        let target = labels[pick];
        let sql =
            query_frame(&format!("SELECT c FROM t WHERE c = '{target}'"), &df).unwrap();
        let native = df.filter("c", FilterOp::Eq, &Value::str(target)).unwrap();
        prop_assert_eq!(sql.num_rows(), native.num_rows());
    }
}
