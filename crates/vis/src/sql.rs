//! SQL translation of visualization processing (paper §7: "the execution
//! engine performs the required data processing ... either as a series of
//! dataframe operations in pandas or equivalently in SQL queries in
//! relational databases").
//!
//! [`to_sql`] emits the Table-2 query for a complete [`VisSpec`] against a
//! table named `t`, and [`process_sql`] executes it through the in-crate
//! SQL engine — an alternative backend whose results match the native
//! processing in [`crate::data`] (verified by integration tests).

use std::time::Duration;

use lux_dataframe::prelude::*;
use lux_dataframe::sql::query_frame;
use lux_engine::admission::Backoff;
use lux_engine::failpoint;
use lux_engine::trace::{names, MetricsRegistry};

use crate::data::ProcessOptions;
use crate::spec::{Channel, Mark, VisSpec};

/// Classify a backend error as transient (worth retrying) or permanent.
/// Permanent errors — bad SQL, unknown columns, type mismatches — will fail
/// identically on every attempt; transient ones (a busy/locked/timed-out
/// backend, a dropped connection, an injected `transient` fault) are the
/// relational-backend failure modes a bounded retry absorbs.
pub fn is_transient_error(e: &Error) -> bool {
    let msg = e.to_string().to_ascii_lowercase();
    [
        "transient",
        "busy",
        "locked",
        "timeout",
        "timed out",
        "connection",
    ]
    .iter()
    .any(|needle| msg.contains(needle))
}

/// Attempts per query (1 initial + bounded retries).
const SQL_MAX_ATTEMPTS: u32 = 3;

/// Run one backend query, retrying transient errors with jittered
/// exponential backoff (deterministically seeded from the query text).
/// Every retry is counted in `lux.sql.retries`.
fn query_with_retry(sql: &str, df: &DataFrame) -> Result<DataFrame> {
    let seed = sql.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    });
    let mut backoff = Backoff::new(Duration::from_millis(1), Duration::from_millis(16), seed);
    loop {
        let outcome = match failpoint::hit(failpoint::names::SQL_QUERY) {
            Some(msg) => Err(Error::InvalidArgument(format!(
                "injected backend failure: {msg}"
            ))),
            None => query_frame(sql, df),
        };
        match outcome {
            Ok(out) => return Ok(out),
            Err(e) if is_transient_error(&e) && backoff.attempts() + 1 < SQL_MAX_ATTEMPTS => {
                MetricsRegistry::global().incr(names::SQL_RETRIES);
                std::thread::sleep(backoff.next_delay());
            }
            Err(e) => return Err(e),
        }
    }
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

fn where_clause(spec: &VisSpec) -> String {
    if spec.filters.is_empty() {
        return String::new();
    }
    let preds: Vec<String> = spec
        .filters
        .iter()
        .map(|f| {
            let op = match f.op {
                FilterOp::Eq => "=",
                FilterOp::Ne => "!=",
                FilterOp::Gt => ">",
                FilterOp::Lt => "<",
                FilterOp::Ge => ">=",
                FilterOp::Le => "<=",
            };
            format!("{} {op} {}", ident(&f.attribute), literal(&f.value))
        })
        .collect();
    format!(" WHERE {}", preds.join(" AND "))
}

fn agg_sql(agg: Agg, col: &str) -> Result<String> {
    let f = match agg {
        Agg::Count => "COUNT",
        Agg::Sum => "SUM",
        Agg::Mean => "AVG",
        Agg::Min => "MIN",
        Agg::Max => "MAX",
        other => {
            return Err(Error::InvalidArgument(format!(
                "aggregation {other} has no SQL translation in this engine"
            )))
        }
    };
    Ok(format!("{f}({})", ident(col)))
}

/// Emit the Table-2 SQL query for a spec. `meta_min` supplies the binned
/// attribute's minimum (histograms bin as `FLOOR((x - lo) / width)`; the
/// caller provides `lo`/`width` from metadata, as Lux's SQL executor does).
pub fn to_sql(spec: &VisSpec, df: &DataFrame, opts: &ProcessOptions) -> Result<String> {
    let wher = where_clause(spec);
    match spec.mark {
        Mark::Scatter => {
            let x = spec
                .channel(Channel::X)
                .ok_or_else(|| Error::InvalidArgument("scatter needs x".into()))?;
            let y = spec
                .channel(Channel::Y)
                .ok_or_else(|| Error::InvalidArgument("scatter needs y".into()))?;
            let mut cols = vec![ident(&x.attribute), ident(&y.attribute)];
            if let Some(c) = spec.channel(Channel::Color) {
                cols.push(ident(&c.attribute));
            }
            Ok(format!(
                "SELECT {} FROM t{wher} LIMIT {}",
                cols.join(", "),
                opts.max_points
            ))
        }
        Mark::Bar | Mark::Line | Mark::Choropleth => {
            let x = spec
                .channel(Channel::X)
                .ok_or_else(|| Error::InvalidArgument("group chart needs x".into()))?;
            let y = spec.channel(Channel::Y);
            let color = spec.channel(Channel::Color).filter(|e| !e.synthetic);
            let mut select = vec![ident(&x.attribute)];
            let mut group = vec![ident(&x.attribute)];
            if let Some(c) = color {
                if c.aggregation.is_none() {
                    select.push(ident(&c.attribute));
                    group.push(ident(&c.attribute));
                }
            }
            let (measure, y_name) = match y {
                Some(e) if !e.synthetic => {
                    let agg = e.aggregation.unwrap_or(Agg::Mean);
                    (
                        format!("{} AS {}", agg_sql(agg, &e.attribute)?, ident(&e.attribute)),
                        e.attribute.clone(),
                    )
                }
                _ => ("COUNT(*) AS count".to_string(), "count".to_string()),
            };
            select.push(measure);
            if let Some(c) = color {
                if let Some(agg) = c.aggregation {
                    select.push(format!(
                        "{} AS {}",
                        agg_sql(agg, &c.attribute)?,
                        ident(&c.attribute)
                    ));
                }
            }
            let order = match spec.mark {
                Mark::Bar => format!(" ORDER BY {} DESC LIMIT {}", ident(&y_name), opts.max_bars),
                _ => format!(" ORDER BY {} ASC", ident(&x.attribute)),
            };
            Ok(format!(
                "SELECT {} FROM t{wher} GROUP BY {}{order}",
                select.join(", "),
                group.join(", ")
            ))
        }
        Mark::Histogram => {
            let x = spec
                .channel(Channel::X)
                .ok_or_else(|| Error::InvalidArgument("histogram needs x".into()))?;
            let bins = x.bin.unwrap_or(opts.histogram_bins).max(1);
            let (lo, hi) = filtered_min_max(spec, df, &x.attribute)?;
            let width = if hi > lo {
                (hi - lo) / bins as f64
            } else {
                1.0
            };
            Ok(format!(
                "SELECT FLOOR(({col} - {lo:?}) / {width:?}) AS bin, COUNT(*) AS count FROM t{wher} GROUP BY bin ORDER BY bin ASC",
                col = ident(&x.attribute)
            ))
        }
        Mark::Heatmap => {
            let x = spec
                .channel(Channel::X)
                .ok_or_else(|| Error::InvalidArgument("heatmap needs x".into()))?;
            let y = spec
                .channel(Channel::Y)
                .ok_or_else(|| Error::InvalidArgument("heatmap needs y".into()))?;
            let xb = x.bin.unwrap_or(opts.heatmap_bins).max(1);
            let yb = y.bin.unwrap_or(opts.heatmap_bins).max(1);
            let (xlo, xhi) = filtered_min_max(spec, df, &x.attribute)?;
            let (ylo, yhi) = filtered_min_max(spec, df, &y.attribute)?;
            let xw = if xhi > xlo {
                (xhi - xlo) / xb as f64
            } else {
                1.0
            };
            let yw = if yhi > ylo {
                (yhi - ylo) / yb as f64
            } else {
                1.0
            };
            let mut select = format!(
                "FLOOR(({x} - {xlo:?}) / {xw:?}) AS xbin, FLOOR(({y} - {ylo:?}) / {yw:?}) AS ybin, COUNT(*) AS count",
                x = ident(&x.attribute),
                y = ident(&y.attribute),
            );
            if let Some(c) = spec.channel(Channel::Color).filter(|e| !e.synthetic) {
                select.push_str(&format!(
                    ", AVG({}) AS mean_{}",
                    ident(&c.attribute),
                    c.attribute
                ));
            }
            Ok(format!(
                "SELECT {select} FROM t{wher} GROUP BY xbin, ybin ORDER BY ybin ASC, xbin ASC"
            ))
        }
    }
}

/// min/max of an attribute under the spec's filters (two tiny SQL queries,
/// mirroring how a relational backend would plan the histogram).
fn filtered_min_max(spec: &VisSpec, df: &DataFrame, attr: &str) -> Result<(f64, f64)> {
    let wher = where_clause(spec);
    let q = format!(
        "SELECT MIN({c}) AS lo, MAX({c}) AS hi FROM t{wher}",
        c = ident(attr)
    );
    let r = query_with_retry(&q, df)?;
    let lo = r.value(0, "lo")?.as_f64().unwrap_or(0.0);
    let hi = r.value(0, "hi")?.as_f64().unwrap_or(1.0);
    Ok((lo, hi))
}

/// Process a visualization through the SQL backend. The result frame has
/// the same columns as the native [`crate::data::process`] output (bin
/// columns hold bin *indices* scaled back to bin starts for histograms).
pub fn process_sql(spec: &VisSpec, df: &DataFrame, opts: &ProcessOptions) -> Result<DataFrame> {
    let sql = to_sql(spec, df, opts)?;
    let out = query_with_retry(&sql, df)?;
    // Histograms: SQL's FLOOR puts the maximum value into its own edge bin
    // (index == bins); native processing clamps it into the last bin.
    // Merge edge bins and convert indices back to bin-start values so the
    // output matches native processing's x column exactly.
    if spec.mark == Mark::Histogram {
        let x = spec.channel(Channel::X).expect("checked in to_sql");
        let bins = x.bin.unwrap_or(opts.histogram_bins).max(1);
        let (lo, hi) = filtered_min_max(spec, df, &x.attribute)?;
        let width = if hi > lo {
            (hi - lo) / bins as f64
        } else {
            1.0
        };
        let mut counts = vec![0i64; bins];
        for r in 0..out.num_rows() {
            let idx = out.value(r, "bin")?.as_f64().unwrap_or(0.0).max(0.0) as usize;
            let n = out.value(r, "count")?.as_f64().unwrap_or(0.0) as i64;
            counts[idx.min(bins - 1)] += n;
        }
        let starts: Vec<f64> = (0..bins).map(|b| lo + width * b as f64).collect();
        return DataFrameBuilder::new()
            .float(&x.attribute, starts)
            .int("count", counts)
            .build();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Encoding, FilterSpec};
    use lux_engine::SemanticType;

    fn df() -> DataFrame {
        DataFrameBuilder::new()
            .str("dept", ["Sales", "Eng", "Sales", "Eng", "HR"])
            .float("pay", [50.0, 80.0, 60.0, 90.0, 55.0])
            .float("age", [25.0, 32.0, 47.0, 28.0, 36.0])
            .build()
            .unwrap()
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
        let sql = to_sql(&spec, &df(), &ProcessOptions::default()).unwrap();
        assert!(sql.contains("SELECT \"pay\", \"age\" FROM t WHERE \"dept\" = 'Sales'"));
        let out = process_sql(&spec, &df(), &ProcessOptions::default()).unwrap();
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
        let opts = ProcessOptions::default();
        let native = crate::data::process(&spec, &df(), &opts).unwrap();
        let sql = process_sql(&spec, &df(), &opts).unwrap();
        assert_eq!(native.num_rows(), sql.num_rows());
        for i in 0..native.num_rows() {
            assert_eq!(
                native.value(i, "dept").unwrap(),
                sql.value(i, "dept").unwrap()
            );
            assert_eq!(
                native.value(i, "pay").unwrap(),
                sql.value(i, "pay").unwrap()
            );
        }
    }

    #[test]
    fn histogram_sql_counts_match_native() {
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
        let opts = ProcessOptions::default();
        let native = crate::data::process(&spec, &big, &opts).unwrap();
        let sql = process_sql(&spec, &big, &opts).unwrap();
        let total = |d: &DataFrame| -> i64 {
            (0..d.num_rows())
                .map(|i| d.value(i, "count").unwrap().as_f64().unwrap() as i64)
                .sum()
        };
        assert_eq!(total(&native), total(&sql));
        assert_eq!(sql.num_rows(), 5);
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
