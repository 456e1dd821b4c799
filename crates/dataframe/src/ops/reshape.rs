//! Additional reshaping and numeric utility operations: `melt` (wide ->
//! long), `astype`, `clip`, `quantile`, `rolling_mean`, and `rank` — the
//! long tail of operations exploratory notebooks lean on between prints.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::column::{Column, PrimitiveColumn, StrColumn};
use crate::error::{Error, Result};
use crate::frame::DataFrame;
use crate::history::{Event, OpKind};
use crate::index::Index;
use crate::value::{DType, Value};

impl DataFrame {
    /// Unpivot: keep `id_vars` as identifiers and stack `value_vars` into
    /// `(variable, value)` pairs — one output row per (input row, value
    /// var). All `value_vars` must share a dtype.
    pub fn melt(&self, id_vars: &[&str], value_vars: &[&str]) -> Result<DataFrame> {
        if value_vars.is_empty() {
            return Err(Error::InvalidArgument(
                "melt requires at least one value var".into(),
            ));
        }
        let val_cols: Vec<&Column> = value_vars
            .iter()
            .map(|v| self.column(v))
            .collect::<Result<_>>()?;
        let dtype = val_cols[0].dtype();
        for (name, col) in value_vars.iter().zip(&val_cols) {
            if col.dtype() != dtype {
                return Err(Error::TypeMismatch {
                    column: name.to_string(),
                    expected: dtype.name(),
                    got: col.dtype().name(),
                });
            }
        }
        let id_cols: Vec<&Column> = id_vars
            .iter()
            .map(|v| self.column(v))
            .collect::<Result<_>>()?;

        let nrows = self.num_rows();
        let out_len = nrows * value_vars.len();
        let mut out: Vec<(String, Column)> = Vec::new();
        // id columns repeat per value var (var-major order)
        for (name, col) in id_vars.iter().zip(&id_cols) {
            let mut c = Column::empty(col.dtype());
            for _ in value_vars {
                for row in 0..nrows {
                    c.push_value(&col.value(row))?;
                }
            }
            out.push((name.to_string(), c));
        }
        let mut variable = StrColumn::new();
        let mut value = Column::empty(dtype);
        for (vname, vcol) in value_vars.iter().zip(&val_cols) {
            for row in 0..nrows {
                variable.push(Some(vname));
                value.push_value(&vcol.value(row))?;
            }
        }
        out.push(("variable".to_string(), Column::Str(variable)));
        out.push(("value".to_string(), value));

        let names: Vec<String> = out.iter().map(|(n, _)| n.clone()).collect();
        let cols: Vec<Arc<Column>> = out.into_iter().map(|(_, c)| Arc::new(c)).collect();
        let event = Event::new(
            OpKind::Other,
            format!("melt(id={id_vars:?}, value={value_vars:?})"),
        )
        .with_columns(value_vars.iter().map(|s| s.to_string()).collect());
        Ok(self.derive(names, cols, Index::range(out_len), event))
    }

    /// Convert a column to another dtype. Numeric <-> numeric casts are
    /// lossy-but-defined; anything -> Str stringifies; Str -> numeric parses
    /// (unparseable values become null).
    pub fn astype(&self, column: &str, dtype: DType) -> Result<DataFrame> {
        let col = self.column(column)?;
        if col.dtype() == dtype {
            return Ok(self.clone());
        }
        let mut out = Column::empty(dtype);
        for i in 0..col.len() {
            let v = col.value(i);
            let converted = cast_value(&v, dtype);
            out.push_value(&converted)?;
        }
        let mut df = self.with_column(column, out)?;
        df.record_event(
            Event::new(OpKind::Other, format!("astype({column} -> {dtype})"))
                .with_columns(vec![column.to_string()]),
        );
        Ok(df)
    }

    /// Clamp a numeric column into `[lo, hi]` (nulls pass through).
    pub fn clip(&self, column: &str, lo: f64, hi: f64) -> Result<DataFrame> {
        let col = self.column(column)?;
        if !col.dtype().is_numeric() {
            return Err(Error::TypeMismatch {
                column: column.to_string(),
                expected: "numeric",
                got: col.dtype().name(),
            });
        }
        let mut clipped: Vec<Option<f64>> = vec![None; col.len()];
        col.for_each_f64(|row, v| clipped[row] = Some(v.clamp(lo, hi)));
        let out = Column::Float64(PrimitiveColumn::from_options(clipped));
        let mut df = self.with_column(column, out)?;
        df.record_event(
            Event::new(OpKind::Other, format!("clip({column}, {lo}, {hi})"))
                .with_columns(vec![column.to_string()]),
        );
        Ok(df)
    }

    /// The `q`-quantile (0..=1) of a numeric column with linear
    /// interpolation, ignoring nulls/NaN.
    pub fn quantile(&self, column: &str, q: f64) -> Result<Option<f64>> {
        if !(0.0..=1.0).contains(&q) {
            return Err(Error::InvalidArgument(format!(
                "quantile {q} outside [0, 1]"
            )));
        }
        let col = self.column(column)?;
        let mut vals = col.non_nan_f64s();
        if vals.is_empty() {
            return Ok(None);
        }
        vals.sort_by(f64::total_cmp);
        let rank = q * (vals.len() - 1) as f64;
        let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
        let frac = rank - lo as f64;
        Ok(Some(vals[lo] * (1.0 - frac) + vals[hi] * frac))
    }

    /// Trailing-window rolling mean of a numeric column, emitted as a new
    /// column `out`. The first `window - 1` rows (and windows with no valid
    /// values) are null.
    pub fn rolling_mean(&self, column: &str, window: usize, out: &str) -> Result<DataFrame> {
        if window == 0 {
            return Err(Error::InvalidArgument("rolling window must be >= 1".into()));
        }
        let col = self.column(column)?;
        if !col.dtype().is_numeric() {
            return Err(Error::TypeMismatch {
                column: column.to_string(),
                expected: "numeric",
                got: col.dtype().name(),
            });
        }
        let mut result: Vec<Option<f64>> = Vec::with_capacity(col.len());
        // The trailing window, oldest first (NaN folded into null); each row
        // re-sums it in that order.
        let mut trailing: VecDeque<Option<f64>> = VecDeque::with_capacity(window.min(col.len()));
        col.for_each_row_f64(|_, v| {
            if trailing.len() == window {
                trailing.pop_front();
            }
            trailing.push_back(v.filter(|v| !v.is_nan()));
            if trailing.len() < window {
                result.push(None);
                return;
            }
            let mut sum = 0.0;
            let mut count = 0usize;
            for v in trailing.iter().flatten() {
                sum += v;
                count += 1;
            }
            result.push((count > 0).then(|| sum / count as f64));
        });
        let mut df =
            self.with_column(out, Column::Float64(PrimitiveColumn::from_options(result)))?;
        df.record_event(
            Event::new(OpKind::Other, format!("rolling_mean({column}, {window})"))
                .with_columns(vec![column.to_string(), out.to_string()]),
        );
        Ok(df)
    }

    /// Dense ascending rank of a column's values (1-based; nulls ranked 0),
    /// emitted as a new Int64 column `out`. Ties share a rank.
    pub fn rank(&self, column: &str, out: &str) -> Result<DataFrame> {
        let col = self.column(column)?;
        let mut order: Vec<usize> = (0..col.len()).filter(|&i| col.is_valid(i)).collect();
        order.sort_by(|&a, &b| col.value(a).total_cmp(&col.value(b)));
        let mut ranks = vec![0i64; col.len()];
        let mut rank = 0i64;
        let mut prev: Option<Value> = None;
        for &i in &order {
            let v = col.value(i);
            if prev.as_ref() != Some(&v) {
                rank += 1;
                prev = Some(v);
            }
            ranks[i] = rank;
        }
        let mut df = self.with_column(out, Column::Int64(PrimitiveColumn::from_values(ranks)))?;
        df.record_event(
            Event::new(OpKind::Other, format!("rank({column})"))
                .with_columns(vec![column.to_string(), out.to_string()]),
        );
        Ok(df)
    }
}

fn cast_value(v: &Value, dtype: DType) -> Value {
    if v.is_null() {
        return Value::Null;
    }
    match dtype {
        DType::Int64 => v.as_f64().map_or(Value::Null, |f| {
            if f.is_nan() {
                Value::Null
            } else {
                Value::Int(f as i64)
            }
        }),
        DType::Float64 => match v {
            Value::Str(s) => s.trim().parse::<f64>().map_or(Value::Null, Value::Float),
            _ => v.as_f64().map_or(Value::Null, Value::Float),
        },
        DType::Bool => match v {
            Value::Bool(b) => Value::Bool(*b),
            Value::Int(i) => Value::Bool(*i != 0),
            Value::Float(f) => Value::Bool(*f != 0.0),
            Value::Str(s) => match s.to_ascii_lowercase().as_str() {
                "true" | "1" | "yes" => Value::Bool(true),
                "false" | "0" | "no" => Value::Bool(false),
                _ => Value::Null,
            },
            Value::DateTime(_) => Value::Null,
            Value::Null => Value::Null,
        },
        DType::Str => Value::str(v.to_string()),
        DType::DateTime => match v {
            Value::DateTime(d) => Value::DateTime(*d),
            Value::Str(s) => crate::value::parse_datetime(s).map_or(Value::Null, Value::DateTime),
            Value::Int(i) => Value::DateTime(*i),
            _ => Value::Null,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::DataFrameBuilder;

    fn df() -> DataFrame {
        DataFrameBuilder::new()
            .str("state", ["CA", "NY"])
            .float("jan", [10.0, 5.0])
            .float("feb", [20.0, 8.0])
            .build()
            .unwrap()
    }

    #[test]
    fn melt_stacks_value_vars() {
        let m = df().melt(&["state"], &["jan", "feb"]).unwrap();
        assert_eq!(m.num_rows(), 4);
        assert_eq!(m.column_names(), &["state", "variable", "value"]);
        assert_eq!(m.value(0, "variable").unwrap(), Value::str("jan"));
        assert_eq!(m.value(2, "variable").unwrap(), Value::str("feb"));
        assert_eq!(m.value(3, "value").unwrap(), Value::Float(8.0));
        assert_eq!(m.value(3, "state").unwrap(), Value::str("NY"));
    }

    #[test]
    fn melt_type_checks() {
        let bad = DataFrameBuilder::new()
            .float("a", [1.0])
            .str("b", ["x"])
            .build()
            .unwrap();
        assert!(bad.melt(&[], &["a", "b"]).is_err());
        assert!(bad.melt(&[], &[]).is_err());
    }

    #[test]
    fn astype_casts() {
        let d = df().astype("jan", DType::Int64).unwrap();
        assert_eq!(d.value(0, "jan").unwrap(), Value::Int(10));
        let d = df().astype("jan", DType::Str).unwrap();
        assert_eq!(d.value(0, "jan").unwrap(), Value::str("10.0"));
        // string -> float parses, junk becomes null
        let s = DataFrameBuilder::new()
            .str("x", ["1.5", "oops"])
            .build()
            .unwrap();
        let d = s.astype("x", DType::Float64).unwrap();
        assert_eq!(d.value(0, "x").unwrap(), Value::Float(1.5));
        assert!(d.value(1, "x").unwrap().is_null());
    }

    #[test]
    fn astype_bool_and_datetime() {
        let s = DataFrameBuilder::new()
            .str("b", ["yes", "0", "maybe"])
            .build()
            .unwrap();
        let d = s.astype("b", DType::Bool).unwrap();
        assert_eq!(d.value(0, "b").unwrap(), Value::Bool(true));
        assert_eq!(d.value(1, "b").unwrap(), Value::Bool(false));
        assert!(d.value(2, "b").unwrap().is_null());
        let s = DataFrameBuilder::new()
            .str("d", ["2020-01-02", "junk"])
            .build()
            .unwrap();
        let d = s.astype("d", DType::DateTime).unwrap();
        assert!(matches!(d.value(0, "d").unwrap(), Value::DateTime(_)));
        assert!(d.value(1, "d").unwrap().is_null());
    }

    #[test]
    fn clip_bounds_values() {
        let d = df().clip("feb", 6.0, 15.0).unwrap();
        assert_eq!(d.value(0, "feb").unwrap(), Value::Float(15.0));
        assert_eq!(d.value(1, "feb").unwrap(), Value::Float(8.0));
        assert!(df().clip("state", 0.0, 1.0).is_err());
    }

    #[test]
    fn quantile_interpolates() {
        let d = DataFrameBuilder::new()
            .float("x", [0.0, 10.0, 20.0, 30.0])
            .build()
            .unwrap();
        assert_eq!(d.quantile("x", 0.5).unwrap(), Some(15.0));
        assert_eq!(d.quantile("x", 0.0).unwrap(), Some(0.0));
        assert_eq!(d.quantile("x", 1.0).unwrap(), Some(30.0));
        assert!(d.quantile("x", 1.5).is_err());
        let empty = DataFrameBuilder::new()
            .float("x", Vec::<f64>::new())
            .build()
            .unwrap();
        assert_eq!(empty.quantile("x", 0.5).unwrap(), None);
    }

    #[test]
    fn rolling_mean_trailing_window() {
        let d = DataFrameBuilder::new()
            .float("x", [1.0, 2.0, 3.0, 4.0])
            .build()
            .unwrap();
        let r = d.rolling_mean("x", 2, "x_ma").unwrap();
        assert!(r.value(0, "x_ma").unwrap().is_null());
        assert_eq!(r.value(1, "x_ma").unwrap(), Value::Float(1.5));
        assert_eq!(r.value(3, "x_ma").unwrap(), Value::Float(3.5));
        assert!(d.rolling_mean("x", 0, "y").is_err());
    }

    #[test]
    fn rank_dense_with_ties() {
        let d = DataFrameBuilder::new()
            .float("x", [3.0, 1.0, 3.0, 2.0])
            .build()
            .unwrap();
        let r = d.rank("x", "r").unwrap();
        let ranks: Vec<Value> = (0..4).map(|i| r.value(i, "r").unwrap()).collect();
        assert_eq!(
            ranks,
            vec![Value::Int(3), Value::Int(1), Value::Int(3), Value::Int(2)]
        );
    }
}
