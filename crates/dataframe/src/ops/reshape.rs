//! Numeric utility operations: `quantile` and `rank`.

use crate::column::{Column, PrimitiveColumn};
use crate::error::{Error, Result};
use crate::frame::DataFrame;
use crate::history::{Event, OpKind};
use crate::value::Value;

impl DataFrame {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::DataFrameBuilder;

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
