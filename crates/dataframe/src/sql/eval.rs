//! SELECT evaluation over a dataframe.

use std::collections::HashMap;

use crate::column::Column;
use crate::error::{Error, Result};
use crate::frame::DataFrame;
use crate::ops::FilterOp;
use crate::value::Value;

use super::parse::{AggFunc, BinOp, CmpOp, OrderKey, SelectStmt, SqlExpr};

/// Execute a parsed SELECT against a frame.
pub fn execute(stmt: &SelectStmt, df: &DataFrame) -> Result<DataFrame> {
    // 1. WHERE
    let rows: Vec<usize> = match &stmt.predicate {
        Some(pred) => (0..df.num_rows())
            .filter_map(|r| match eval_scalar(pred, df, r) {
                Ok(v) => {
                    if truthy(&v) {
                        Some(Ok(r))
                    } else {
                        None
                    }
                }
                Err(e) => Some(Err(e)),
            })
            .collect::<Result<_>>()?,
        None => (0..df.num_rows()).collect(),
    };

    let any_agg = stmt.items.iter().any(|(e, _)| e.has_aggregate());
    let mut out = if !stmt.group_by.is_empty() || any_agg {
        execute_grouped(stmt, df, &rows)?
    } else {
        execute_projection(stmt, df, &rows)?
    };

    // ORDER BY output columns
    if !stmt.order_by.is_empty() {
        out = apply_order(&out, &stmt.order_by)?;
    }
    // LIMIT
    if let Some(n) = stmt.limit {
        if n < out.num_rows() {
            out = out.head(n);
        }
    }
    Ok(out)
}

/// Plain projection (no grouping).
fn execute_projection(stmt: &SelectStmt, df: &DataFrame, rows: &[usize]) -> Result<DataFrame> {
    let mut cols: Vec<(String, Column)> = Vec::with_capacity(stmt.items.len());
    for (expr, name) in &stmt.items {
        let values: Vec<Value> = rows
            .iter()
            .map(|&r| eval_scalar(expr, df, r))
            .collect::<Result<_>>()?;
        cols.push((name.clone(), Column::from_values(&values)?));
    }
    DataFrame::from_columns(cols)
}

/// GROUP BY + aggregates (or global aggregates with no GROUP BY).
fn execute_grouped(stmt: &SelectStmt, df: &DataFrame, rows: &[usize]) -> Result<DataFrame> {
    // Group keys may reference select-item aliases (`GROUP BY bin` where
    // `bin` aliases `FLOOR(...)`), standard SQL behavior: resolve them.
    let resolved_keys: Vec<SqlExpr> = stmt
        .group_by
        .iter()
        .map(|e| resolve_alias(e, stmt))
        .collect();

    let mut groups: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
    if resolved_keys.is_empty() {
        // global aggregation: one group of all rows
        groups.push((Vec::new(), rows.to_vec()));
    } else {
        let mut lookup: HashMap<String, usize> = HashMap::new();
        for &r in rows {
            let key_vals: Vec<Value> = resolved_keys
                .iter()
                .map(|e| eval_scalar(e, df, r))
                .collect::<Result<_>>()?;
            let key_str = key_vals
                .iter()
                .map(|v| format!("{v}\u{1}"))
                .collect::<String>();
            let idx = *lookup.entry(key_str).or_insert_with(|| {
                groups.push((key_vals, Vec::new()));
                groups.len() - 1
            });
            groups[idx].1.push(r);
        }
    }

    let mut cols: Vec<(String, Column)> = Vec::with_capacity(stmt.items.len());
    for (expr, name) in &stmt.items {
        let resolved = resolve_alias(expr, stmt);
        let values: Vec<Value> = groups
            .iter()
            .map(|(_, members)| eval_in_group(&resolved, df, members))
            .collect::<Result<_>>()?;
        cols.push((name.clone(), Column::from_values(&values)?));
    }
    DataFrame::from_columns(cols)
}

/// Substitute a bare column reference that names a select alias with the
/// aliased expression (and leave real source columns untouched).
fn resolve_alias(expr: &SqlExpr, stmt: &SelectStmt) -> SqlExpr {
    if let SqlExpr::Column(name) = expr {
        if let Some((aliased, _)) = stmt
            .items
            .iter()
            .find(|(e, alias)| alias == name && !matches!(e, SqlExpr::Column(c) if c == name))
        {
            return aliased.clone();
        }
    }
    expr.clone()
}

/// Evaluate a select item within one group: aggregates reduce over the
/// group's rows; column references (group keys) read its first member.
fn eval_in_group(expr: &SqlExpr, df: &DataFrame, members: &[usize]) -> Result<Value> {
    eval(expr, &|leaf| match (leaf, members.first()) {
        (SqlExpr::Agg(func, arg), _) => eval_aggregate(*func, arg.as_deref(), df, members),
        (SqlExpr::Column(name), Some(&r)) => Ok(df.column(name)?.value(r)),
        _ => Ok(Value::Null),
    })
}

/// Reduce one group. NaN is missing, as null is (pandas' reading of a
/// float column): every aggregate but `COUNT(*)` skips both.
fn eval_aggregate(
    func: AggFunc,
    arg: Option<&SqlExpr>,
    df: &DataFrame,
    members: &[usize],
) -> Result<Value> {
    let Some(e) = arg else {
        return match func {
            AggFunc::Count => Ok(Value::Int(members.len() as i64)),
            _ => Err(Error::Parse(format!("{func:?} requires an argument"))),
        };
    };
    let mut present = Vec::new();
    for &r in members {
        let v = eval_scalar(e, df, r)?;
        if !v.is_null() && !v.as_f64().is_some_and(f64::is_nan) {
            present.push(v);
        }
    }
    let extreme = |pick: std::cmp::Ordering| {
        present
            .iter()
            .reduce(|best, v| if v.total_cmp(best) == pick { v } else { best })
            .cloned()
            .unwrap_or(Value::Null)
    };
    Ok(match func {
        AggFunc::Count => Value::Int(present.len() as i64),
        AggFunc::Sum | AggFunc::Avg => {
            let nums: Vec<f64> = present.iter().filter_map(Value::as_f64).collect();
            match (func, nums.len()) {
                (_, 0) => Value::Null,
                (AggFunc::Sum, _) => Value::Float(nums.iter().sum()),
                (_, n) => Value::Float(nums.iter().sum::<f64>() / n as f64),
            }
        }
        AggFunc::Min => extreme(std::cmp::Ordering::Less),
        AggFunc::Max => extreme(std::cmp::Ordering::Greater),
    })
}

/// Row-scalar evaluation.
fn eval_scalar(expr: &SqlExpr, df: &DataFrame, row: usize) -> Result<Value> {
    eval(expr, &|leaf| match leaf {
        SqlExpr::Column(name) => Ok(df.column(name)?.value(row)),
        _ => Err(Error::Parse(
            "aggregate used outside GROUP BY context".into(),
        )),
    })
}

/// Evaluate `expr`, with `leaf` answering its column references and
/// aggregate calls.
fn eval(expr: &SqlExpr, leaf: &dyn Fn(&SqlExpr) -> Result<Value>) -> Result<Value> {
    let num = |e: &SqlExpr, f: fn(f64) -> f64| {
        Ok(eval(e, leaf)?
            .as_f64()
            .map_or(Value::Null, |v| Value::Float(f(v))))
    };
    match expr {
        SqlExpr::Column(_) | SqlExpr::Agg(..) => leaf(expr),
        SqlExpr::Int(v) => Ok(Value::Int(*v)),
        SqlExpr::Float(v) => Ok(Value::Float(*v)),
        SqlExpr::Str(s) => Ok(Value::str(s)),
        SqlExpr::Floor(e) => num(e, f64::floor),
        SqlExpr::Neg(e) => num(e, |v| -v),
        SqlExpr::Least(args) => least(args, |e| eval(e, leaf)),
        SqlExpr::Arith(a, op, b) => arith(&eval(a, leaf)?, *op, &eval(b, leaf)?),
        SqlExpr::Cmp(a, op, b) => {
            let fop = match op {
                CmpOp::Eq => FilterOp::Eq,
                CmpOp::Ne => FilterOp::Ne,
                CmpOp::Lt => FilterOp::Lt,
                CmpOp::Le => FilterOp::Le,
                CmpOp::Gt => FilterOp::Gt,
                CmpOp::Ge => FilterOp::Ge,
            };
            Ok(Value::Bool(fop.eval(&eval(a, leaf)?, &eval(b, leaf)?)))
        }
        SqlExpr::And(a, b) => Ok(Value::Bool(
            truthy(&eval(a, leaf)?) && truthy(&eval(b, leaf)?),
        )),
        SqlExpr::Or(a, b) => Ok(Value::Bool(
            truthy(&eval(a, leaf)?) || truthy(&eval(b, leaf)?),
        )),
        SqlExpr::Not(e) => Ok(Value::Bool(!truthy(&eval(e, leaf)?))),
    }
}

/// The smallest argument; null when any argument is, as arithmetic on a
/// null is null.
fn least(args: &[SqlExpr], mut value: impl FnMut(&SqlExpr) -> Result<Value>) -> Result<Value> {
    let mut best: Option<Value> = None;
    for arg in args {
        let v = value(arg)?;
        if v.is_null() {
            return Ok(Value::Null);
        }
        if best.as_ref().is_none_or(|b| v.total_cmp(b).is_lt()) {
            best = Some(v);
        }
    }
    Ok(best.unwrap_or(Value::Null))
}

fn truthy(v: &Value) -> bool {
    matches!(v, Value::Bool(true))
}

fn arith(a: &Value, op: BinOp, b: &Value) -> Result<Value> {
    let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else {
        return Ok(Value::Null);
    };
    let r = match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => {
            if y == 0.0 {
                return Ok(Value::Null);
            }
            x / y
        }
    };
    Ok(Value::Float(r))
}

/// Sort the output frame by the ORDER BY keys.
fn apply_order(df: &DataFrame, keys: &[OrderKey]) -> Result<DataFrame> {
    // All keys must exist in the output; sort by each in reverse priority
    // is incorrect for stable multi-key; instead sort once with a composite
    // comparator via repeated stable sorts from last key to first.
    let mut out = df.clone();
    for key in keys.iter().rev() {
        out = out.sort_by(&[key.column.as_str()], key.ascending)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::super::query_frame;
    use crate::frame::DataFrameBuilder;
    use crate::value::Value;

    #[test]
    fn null_handling_in_aggregates() {
        let df = crate::csv::read_csv_str("g,v\na,1\na,\nb,3\n").unwrap();
        let r = query_frame(
            "SELECT g, COUNT(v) AS n, AVG(v) AS m FROM t GROUP BY g ORDER BY g ASC",
            &df,
        )
        .unwrap();
        assert_eq!(r.value(0, "n").unwrap(), Value::Int(1));
        assert_eq!(r.value(0, "m").unwrap(), Value::Float(1.0));
    }

    #[test]
    fn aggregates_skip_nan_like_null() {
        let df = DataFrameBuilder::new()
            .float("v", [1.0, f64::NAN, 3.0])
            .build()
            .unwrap();
        let r = query_frame(
            "SELECT COUNT(*) AS rows, COUNT(v) AS n, MIN(v) AS lo, MAX(v) AS hi, SUM(v) AS s FROM t",
            &df,
        )
        .unwrap();
        assert_eq!(r.value(0, "rows").unwrap(), Value::Int(3));
        assert_eq!(r.value(0, "n").unwrap(), Value::Int(2));
        assert_eq!(r.value(0, "lo").unwrap(), Value::Float(1.0));
        assert_eq!(r.value(0, "hi").unwrap(), Value::Float(3.0));
        assert_eq!(r.value(0, "s").unwrap(), Value::Float(4.0));
    }

    #[test]
    fn least_clamps_and_propagates_null() {
        let df = crate::csv::read_csv_str("x,k\n1,a\n7,b\n,c\n").unwrap();
        let r = query_frame("SELECT LEAST(x * 2, 5) AS b FROM t", &df).unwrap();
        assert_eq!(r.value(0, "b").unwrap(), Value::Float(2.0));
        assert_eq!(r.value(1, "b").unwrap(), Value::Int(5));
        assert!(r.value(2, "b").unwrap().is_null());
    }

    #[test]
    fn division_by_zero_is_null() {
        let df = DataFrameBuilder::new().float("x", [1.0]).build().unwrap();
        let r = query_frame("SELECT x / 0 AS d FROM t", &df).unwrap();
        assert!(r.value(0, "d").unwrap().is_null());
    }

    #[test]
    fn multi_key_order_by() {
        let df = DataFrameBuilder::new()
            .str("g", ["b", "a", "b", "a"])
            .int("v", [2, 2, 1, 1])
            .build()
            .unwrap();
        let r = query_frame("SELECT g, v FROM t ORDER BY g ASC, v DESC", &df).unwrap();
        assert_eq!(r.value(0, "g").unwrap(), Value::str("a"));
        assert_eq!(r.value(0, "v").unwrap(), Value::Int(2));
        assert_eq!(r.value(2, "v").unwrap(), Value::Int(2));
    }

    #[test]
    fn aggregate_outside_group_errors_when_scalar() {
        let df = DataFrameBuilder::new().float("x", [1.0]).build().unwrap();
        // aggregate in WHERE is invalid
        assert!(query_frame("SELECT x FROM t WHERE SUM(x) > 1", &df).is_err());
    }

    #[test]
    fn group_by_expression_key() {
        let df = DataFrameBuilder::new()
            .int("x", [1, 2, 3, 4, 5, 6])
            .build()
            .unwrap();
        let r = query_frame(
            "SELECT FLOOR(x / 2) AS half, COUNT(*) AS n FROM t GROUP BY half ORDER BY half ASC",
            &df,
        )
        .unwrap();
        // halves: 0 (1), 1 (2,3), 2 (4,5), 3 (6)
        assert_eq!(r.num_rows(), 4);
        assert_eq!(r.value(1, "n").unwrap(), Value::Int(2));
    }
}
