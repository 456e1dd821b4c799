//! SQL lowering of visualization processing (paper §7: the engine runs
//! "either as a series of dataframe operations in pandas or equivalently in
//! SQL queries in relational databases").
//!
//! Only a spec's relational step — Table 2's filter, projection, group-by
//! with aggregate and bin-count — is lowered, to one `SELECT` against a
//! table named `t` ([`to_sql`]). Its answer feeds the finishing step in
//! [`crate::data`] that the native kernels feed too, so both backends draw
//! the same data, with one exception: the native group-by folds keys past
//! `max_group_cardinality` into `"(other)"`, and SQL returns them all.

use lux_dataframe::prelude::*;
use lux_dataframe::scan::for_each_f64_pair;
use lux_dataframe::sql::query_frame;
use lux_engine::failpoint;

use crate::data::{
    binned_axes, colour, drawn_columns, group_keys, measure, temporal_line, Bins, Cells,
    ProcessOptions, Relational,
};
use crate::spec::{Mark, VisSpec};

/// Run one statement against `df` as table `t`. The `sql.query` failpoint
/// refuses it.
fn run(sql: &str, df: &DataFrame) -> Result<DataFrame> {
    if let Some(msg) = failpoint::hit(failpoint::names::SQL_QUERY) {
        let msg = format!("injected backend failure: {msg}");
        return Err(Error::InvalidArgument(msg));
    }
    query_frame(sql, df)
}

/// Quote an identifier for SQL.
fn ident(name: &str) -> String {
    format!("\"{}\"", name.replace('"', "\"\""))
}

/// Render a value as a SQL literal.
fn literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Int(x) => x.to_string(),
        Value::Float(x) => format!("{x:?}"),
        Value::Bool(b) => format!("'{b}'"),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        Value::DateTime(x) => x.to_string(),
    }
}

/// The spec's filter conjunction and `extra` predicates as a `WHERE`
/// clause (empty when there are none).
fn where_clause(spec: &VisSpec, extra: impl IntoIterator<Item = String>) -> String {
    let preds: Vec<String> = spec
        .filters
        .iter()
        .map(|f| format!("{} {} {}", ident(&f.attribute), f.op, literal(&f.value)))
        .chain(extra)
        .collect();
    match preds.is_empty() {
        true => String::new(),
        false => format!(" WHERE {}", preds.join(" AND ")),
    }
}

/// `AGG("col")`, for the aggregations the engine has.
fn agg_sql(agg: Agg, col: &str) -> Result<String> {
    let f = match agg {
        Agg::Mean => "AVG",
        Agg::Count | Agg::Sum | Agg::Min | Agg::Max => agg.name(),
        other => {
            let msg = format!("aggregation {other} has no SQL translation in this engine");
            return Err(Error::InvalidArgument(msg));
        }
    };
    Ok(format!("{}({})", f.to_uppercase(), ident(col)))
}

/// `bin_of` in SQL: the same arithmetic on the same f64 literals, which
/// `{:?}` prints exactly, floored and clamped into the last bin. Every
/// finite value in `[lo, hi]` lands in the bin the native kernel picks.
fn bin_expr(col: &str, bins: Bins) -> String {
    // `bin_of` puts every value of a zero-width range in bin 0
    let half_span = bins.hi * 0.5 - bins.lo * 0.5;
    if half_span <= 0.0 {
        return "0".to_string();
    }
    format!(
        "LEAST(FLOOR(({} * 0.5 - {:?}) / {half_span:?} * {:?}), {:?})",
        ident(col),
        bins.lo * 0.5,
        bins.n as f64,
        (bins.n - 1) as f64
    )
}

/// Lower a spec's relational step to its statement and the bins it counts
/// into. A histogram or heatmap reads its bounds first, with one
/// `MIN`/`MAX` statement; a temporal line reads its distinct instants.
fn lower(spec: &VisSpec, df: &DataFrame, opts: &ProcessOptions) -> Result<(String, Vec<Bins>)> {
    let (mut group, mut bins, mut finite) = (vec![], vec![], vec![]);
    let select: Vec<String> = match spec.mark {
        Mark::Scatter => drawn_columns(spec)?.into_iter().map(ident).collect(),
        Mark::Bar | Mark::Line | Mark::Choropleth => {
            let keys = group_keys(spec)?;
            group = keys.iter().map(|k| ident(k)).collect();
            let mut select = group.clone();
            if temporal_line(spec, df, keys[0])? {
                let (x, wher) = (&group[0], where_clause(spec, []));
                let instants = run(&format!("SELECT {x} FROM t{wher} GROUP BY {x}"), df)?;
                if instants.cardinality_exceeds(keys[0], opts.temporal_buckets)? {
                    let bounds = instants.column(keys[0])?.min_max_finite();
                    bins.push(Bins::new(bounds, opts.temporal_buckets.max(1)));
                    select[0] = format!("{} AS {x}", bin_expr(keys[0], bins[0]));
                }
            }
            select.push(match measure(spec) {
                Some((col, agg)) => format!("{} AS {}", agg_sql(agg, col)?, ident(col)),
                None => "COUNT(*) AS count".to_string(),
            });
            select
        }
        Mark::Histogram | Mark::Heatmap => {
            // `c + c * 0` is `c` for a finite value and NaN, which `MIN` and
            // `MAX` skip, for ±inf: the bounds native binning uses.
            let axes = binned_axes(spec, opts)?;
            let mut extremes = vec![];
            for (i, (c, _)) in axes.iter().enumerate() {
                let c = ident(c);
                extremes.push(format!(
                    "MIN({c} + {c} * 0) AS lo{i}, MAX({c} + {c} * 0) AS hi{i}"
                ));
            }
            let wher = where_clause(spec, []);
            let found = run(&format!("SELECT {} FROM t{wher}", extremes.join(", ")), df)?;
            let bound = |name: String| found.value(0, &name).map(|v| v.as_f64());
            let mut cell = vec![];
            for (i, &(col, n)) in axes.iter().enumerate() {
                let b = Bins::new(bound(format!("lo{i}"))?.zip(bound(format!("hi{i}"))?), n);
                let bin = bin_expr(col, b);
                cell.push(match bins.first() {
                    Some(x) => format!("{bin} * {:?}", x.n as f64),
                    None => bin,
                });
                // `c * 0 = 0` holds exactly for finite numbers: ±inf * 0
                // and NaN * 0 are NaN, and null stays null.
                finite.push(format!("{} * 0 = 0", ident(col)));
                bins.push(b);
            }
            group.push("cell".to_string());
            let mut select = vec![format!("{} AS cell", cell.join(" + "))];
            select.push("COUNT(*) AS count".to_string());
            if let Some(c) = colour(spec).map(|e| ident(&e.attribute)) {
                select.push(format!("SUM({c}) AS sum, COUNT({c}) AS n"));
            }
            select
        }
    };
    let wher = where_clause(spec, finite);
    let mut sql = format!("SELECT {} FROM t{wher}", select.join(", "));
    if !group.is_empty() {
        sql.push_str(&format!(" GROUP BY {}", group.join(", ")));
    }
    Ok((sql, bins))
}

/// The statement that runs `spec`'s relational step against table `t`.
/// A histogram, heatmap or temporal line reads `df` first to decide its
/// bins.
pub fn to_sql(spec: &VisSpec, df: &DataFrame, opts: &ProcessOptions) -> Result<String> {
    lower(spec, df, opts).map(|(sql, _)| sql)
}

/// Run `spec`'s relational step as SQL, in the shape the native kernels
/// hand to the finishing step.
pub fn relational(spec: &VisSpec, df: &DataFrame, opts: &ProcessOptions) -> Result<Relational> {
    let (sql, bins) = lower(spec, df, opts)?;
    let out = run(&sql, df)?;
    Ok(match spec.mark {
        Mark::Scatter => Relational::Points(out),
        Mark::Bar | Mark::Line | Mark::Choropleth => Relational::Groups(out, bins.first().copied()),
        Mark::Histogram | Mark::Heatmap => {
            let mut cells = Cells::new(bins);
            let mut cell = vec![0; out.num_rows()];
            out.column("cell")?
                .for_each_f64(|r, c| cell[r] = c as usize);
            let count = out.column("count")?;
            count.for_each_f64(|r, n| cells.count[cell[r]] += n as i64);
            if colour(spec).is_some() {
                // a cell with no numeric colour value has a null sum
                for_each_f64_pair(out.column("sum")?, out.column("n")?, |r, sum, n| {
                    cells.sum[cell[r]] += sum;
                    cells.colored[cell[r]] += n as u64;
                });
            }
            Relational::Binned(cells)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{process, Backend};
    use crate::spec::{Channel, Encoding, FilterSpec};
    use lux_engine::SemanticType;

    fn df() -> DataFrame {
        DataFrameBuilder::new()
            .str("dept", ["Sales", "Eng", "Sales", "Eng", "HR"])
            .float("pay", [50.0, 80.0, 60.0, 90.0, 55.0])
            .float("age", [25.0, 32.0, 47.0, 28.0, 36.0])
            .build()
            .unwrap()
    }

    fn sql() -> ProcessOptions {
        ProcessOptions {
            backend: Backend::Sql,
            ..ProcessOptions::default()
        }
    }

    #[test]
    fn scatter_sql() {
        let spec = VisSpec::new(
            Mark::Scatter,
            vec![
                Encoding::new("pay", SemanticType::Quantitative, Channel::X),
                Encoding::new("age", SemanticType::Quantitative, Channel::Y),
            ],
            vec![FilterSpec::new("dept", FilterOp::Eq, Value::str("Sales"))],
        );
        let text = to_sql(&spec, &df(), &sql()).unwrap();
        assert_eq!(
            text,
            "SELECT \"pay\", \"age\" FROM t WHERE \"dept\" = 'Sales'"
        );
        let out = process(&spec, &df(), &sql()).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn bar_sql_matches_native() {
        let spec = VisSpec::new(
            Mark::Bar,
            vec![
                Encoding::new("dept", SemanticType::Nominal, Channel::X),
                Encoding::new("pay", SemanticType::Quantitative, Channel::Y)
                    .with_aggregation(Agg::Mean),
            ],
            vec![],
        );
        let native = process(&spec, &df(), &ProcessOptions::default()).unwrap();
        let sql = process(&spec, &df(), &sql()).unwrap();
        assert_eq!(native.num_rows(), sql.num_rows());
        for i in 0..native.num_rows() {
            for c in ["dept", "pay"] {
                assert_eq!(native.value(i, c).unwrap(), sql.value(i, c).unwrap());
            }
        }
    }

    #[test]
    fn histogram_bins_the_way_native_does() {
        let big = DataFrameBuilder::new()
            .float("v", (0..100).map(|i| i as f64))
            .build()
            .unwrap();
        let spec = VisSpec::new(
            Mark::Histogram,
            vec![
                Encoding::new("v", SemanticType::Quantitative, Channel::X).with_bin(5),
                Encoding::synthetic_count(Channel::Y),
            ],
            vec![],
        );
        // the maximum is clamped into the last bin, not counted in a sixth
        assert_eq!(
            to_sql(&spec, &big, &sql()).unwrap(),
            "SELECT LEAST(FLOOR((\"v\" * 0.5 - 0.0) / 49.5 * 5.0), 4.0) AS cell, \
             COUNT(*) AS count FROM t WHERE \"v\" * 0 = 0 GROUP BY cell"
        );
        let out = process(&spec, &big, &sql()).unwrap();
        let counts: Vec<Value> = (0..5).map(|i| out.value(i, "count").unwrap()).collect();
        assert_eq!(counts, [20, 20, 20, 20, 20].map(Value::Int));
    }

    #[test]
    fn unsupported_aggregation_rejected() {
        let spec = VisSpec::new(
            Mark::Bar,
            vec![
                Encoding::new("dept", SemanticType::Nominal, Channel::X),
                Encoding::new("pay", SemanticType::Quantitative, Channel::Y)
                    .with_aggregation(Agg::Median),
            ],
            vec![],
        );
        assert!(to_sql(&spec, &df(), &ProcessOptions::default()).is_err());
    }

    #[test]
    fn identifier_and_literal_quoting() {
        assert_eq!(ident("weird\"col"), "\"weird\"\"col\"");
        assert_eq!(literal(&Value::str("it's")), "'it''s'");
        assert_eq!(literal(&Value::Int(5)), "5");
    }
}
