//! `describe`: summary statistics over numeric columns, pandas-style.

use std::sync::Arc;

use crate::column::{Column, PrimitiveColumn, StrColumn};
use crate::error::Result;
use crate::frame::DataFrame;
use crate::history::{Event, OpKind};
use crate::index::Index;

/// The statistic rows produced by [`DataFrame::describe`], in order.
pub const DESCRIBE_STATS: [&str; 8] = ["count", "mean", "std", "min", "25%", "50%", "75%", "max"];

impl DataFrame {
    /// Summary statistics for every numeric column: one row per statistic in
    /// [`DESCRIBE_STATS`], one column per numeric input column. The result
    /// carries a labeled index of statistic names and an `Aggregate` history
    /// event, like any other pre-aggregated frame.
    pub fn describe(&self) -> Result<DataFrame> {
        let numeric: Vec<&str> = self
            .schema()
            .into_iter()
            .filter(|(_, t)| t.is_numeric())
            .map(|(n, _)| n)
            .collect();

        let mut names = Vec::with_capacity(numeric.len());
        let mut cols: Vec<Arc<Column>> = Vec::with_capacity(numeric.len());
        for name in numeric {
            let col = self.column(name)?;
            let mut vals = col.non_nan_f64s();
            vals.sort_by(f64::total_cmp);
            let n = vals.len();
            let mean = if n > 0 {
                vals.iter().sum::<f64>() / n as f64
            } else {
                f64::NAN
            };
            let std = if n > 1 {
                (vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt()
            } else {
                f64::NAN
            };
            let q = |p: f64| -> f64 {
                if n == 0 {
                    return f64::NAN;
                }
                // linear interpolation between closest ranks (pandas default)
                let rank = p * (n - 1) as f64;
                let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
                let frac = rank - lo as f64;
                vals[lo] * (1.0 - frac) + vals[hi] * frac
            };
            // Undefined or non-finite aggregates become nulls, never NaN:
            // NaN would poison any ranking/sort consuming the describe frame.
            let fin = |v: f64| v.is_finite().then_some(v);
            let stats = vec![
                Some(n as f64),
                fin(mean),
                fin(std),
                if n > 0 { fin(vals[0]) } else { None },
                fin(q(0.25)),
                fin(q(0.50)),
                fin(q(0.75)),
                if n > 0 { fin(vals[n - 1]) } else { None },
            ];
            names.push(name.to_string());
            cols.push(Arc::new(Column::Float64(PrimitiveColumn::from_options(
                stats,
            ))));
        }

        let index = Index::labels(
            Some("statistic".into()),
            Column::Str(StrColumn::from_strings(DESCRIBE_STATS)),
        );
        let event = Event::new(OpKind::Aggregate, "describe()");
        Ok(self.derive(names, cols, index, event))
    }
}

#[cfg(test)]
mod tests {
    use crate::frame::DataFrameBuilder;
    use crate::value::Value;

    #[test]
    fn describe_basic_stats() {
        let df = DataFrameBuilder::new()
            .float("x", [1.0, 2.0, 3.0, 4.0])
            .str("s", ["a", "b", "c", "d"])
            .build()
            .unwrap();
        let d = df.describe().unwrap();
        assert_eq!(d.column_names(), &["x"]); // string column excluded
        assert_eq!(d.num_rows(), 8);
        assert_eq!(d.value(0, "x").unwrap(), Value::Float(4.0)); // count
        assert_eq!(d.value(1, "x").unwrap(), Value::Float(2.5)); // mean
        assert_eq!(d.value(3, "x").unwrap(), Value::Float(1.0)); // min
        assert_eq!(d.value(5, "x").unwrap(), Value::Float(2.5)); // median
        assert_eq!(d.value(7, "x").unwrap(), Value::Float(4.0)); // max
        assert_eq!(d.index().label(0), Value::str("count"));
    }

    #[test]
    fn describe_quartiles_interpolate() {
        let df = DataFrameBuilder::new().int("x", [0, 10]).build().unwrap();
        let d = df.describe().unwrap();
        assert_eq!(d.value(4, "x").unwrap(), Value::Float(2.5)); // 25%
        assert_eq!(d.value(6, "x").unwrap(), Value::Float(7.5)); // 75%
    }

    #[test]
    fn describe_never_emits_nan() {
        let df = DataFrameBuilder::new()
            .float("empty", [f64::NAN, f64::NAN, f64::NAN])
            .float("inf", [f64::INFINITY, 1.0, 2.0])
            .float("single", [3.0, f64::NAN, f64::NAN])
            .build()
            .unwrap();
        let d = df.describe().unwrap();
        for name in ["empty", "inf", "single"] {
            let col = d.column(name).unwrap();
            for i in 0..col.len() {
                if let Some(v) = col.f64_at(i) {
                    assert!(v.is_finite(), "{name} row {i} produced {v}");
                }
            }
        }
        // NaN-only column: count is 0, every other stat is null.
        assert_eq!(d.value(0, "empty").unwrap(), Value::Float(0.0));
        assert_eq!(d.value(1, "empty").unwrap(), Value::Null);
        // inf poisons mean/max but the count survives.
        assert_eq!(d.value(0, "inf").unwrap(), Value::Float(3.0));
        assert_eq!(d.value(1, "inf").unwrap(), Value::Null);
        // single value: std undefined -> null, min/max defined.
        assert_eq!(d.value(2, "single").unwrap(), Value::Null);
        assert_eq!(d.value(3, "single").unwrap(), Value::Float(3.0));
    }

    #[test]
    fn describe_marks_aggregate() {
        let df = DataFrameBuilder::new().float("x", [1.0]).build().unwrap();
        let d = df.describe().unwrap();
        assert!(d.history().contains(crate::history::OpKind::Aggregate));
        assert!(d.index().is_labeled());
    }
}
