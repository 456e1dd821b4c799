//! [`Series`]: a single named column with an index.
//!
//! The paper treats a Series as a one-column dataframe and reuses the same
//! visualization machinery for it (structure-based "Series" action), so our
//! Series is a thin wrapper that can always be viewed as a frame.

use std::sync::Arc;

use crate::column::Column;
use crate::error::Result;
use crate::frame::DataFrame;
use crate::index::Index;
use crate::value::{DType, Value};

/// A named single column plus its row index.
#[derive(Debug, Clone)]
pub struct Series {
    name: String,
    column: Arc<Column>,
    index: Index,
}

impl Series {
    /// Build a series from a name and column with a fresh positional index.
    pub fn new(name: impl Into<String>, column: Column) -> Series {
        let index = Index::range(column.len());
        Series {
            name: name.into(),
            column: Arc::new(column),
            index,
        }
    }

    /// Extract a column of a dataframe as a series, carrying the frame's index.
    pub fn from_frame(df: &DataFrame, column: &str) -> Result<Series> {
        let col = df.column_arc(column)?;
        Ok(Series {
            name: column.to_string(),
            column: col,
            index: df.index().clone(),
        })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn len(&self) -> usize {
        self.column.len()
    }

    pub fn is_empty(&self) -> bool {
        self.column.is_empty()
    }

    pub fn dtype(&self) -> DType {
        self.column.dtype()
    }

    pub fn column(&self) -> &Column {
        &self.column
    }

    pub fn index(&self) -> &Index {
        &self.index
    }

    pub fn value(&self, i: usize) -> Value {
        self.column.value(i)
    }

    /// View the series as a one-column dataframe (shares the column buffer).
    pub fn to_frame(&self) -> DataFrame {
        let df = DataFrame::from_shared(vec![(self.name.clone(), Arc::clone(&self.column))])
            .expect("single column cannot mismatch");
        df.with_index(self.index.clone())
    }

    /// Mean of the numeric view, ignoring nulls/NaN.
    pub fn mean(&self) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        self.column.for_each_f64(|_, v| {
            if !v.is_nan() {
                sum += v;
                n += 1;
            }
        });
        if n > 0 {
            Some(sum / n as f64)
        } else {
            None
        }
    }

    /// Min/max of the numeric view.
    pub fn min_max(&self) -> Option<(f64, f64)> {
        self.column.min_max_f64()
    }
}

impl DataFrame {
    /// Extract a column as a [`Series`].
    pub fn series(&self, column: &str) -> Result<Series> {
        Series::from_frame(self, column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::DataFrameBuilder;

    #[test]
    fn series_from_frame_shares_data() {
        let df = DataFrameBuilder::new().int("x", [1, 2, 3]).build().unwrap();
        let s = df.series("x").unwrap();
        assert_eq!(s.name(), "x");
        assert_eq!(s.len(), 3);
        assert_eq!(s.value(2), Value::Int(3));
        assert_eq!(s.dtype(), DType::Int64);
    }

    #[test]
    fn series_stats() {
        let s = df_series();
        assert_eq!(s.mean(), Some(2.0));
        assert_eq!(s.min_max(), Some((1.0, 3.0)));
    }

    fn df_series() -> Series {
        let df = DataFrameBuilder::new()
            .float("x", [1.0, 2.0, 3.0])
            .build()
            .unwrap();
        df.series("x").unwrap()
    }

    #[test]
    fn to_frame_roundtrip() {
        let s = df_series();
        let f = s.to_frame();
        assert_eq!(f.num_columns(), 1);
        assert_eq!(f.num_rows(), 3);
        assert!(f.has_column("x"));
    }

    #[test]
    fn to_frame_shares_the_column_buffer() {
        let s = df_series();
        let f = s.to_frame();
        assert!(std::ptr::eq(f.column_at(0), s.column()));
    }

    #[test]
    fn series_from_grouped_frame_keeps_labels() {
        let df = DataFrameBuilder::new()
            .str("g", ["a", "b", "a"])
            .int("v", [1, 2, 3])
            .build()
            .unwrap();
        let agg = df.groupby(&["g"]).unwrap().count().unwrap();
        let s = agg.series("count").unwrap();
        assert!(s.index().is_labeled());
        assert_eq!(s.index().name(), Some("g"));
    }

    #[test]
    fn missing_column_errors() {
        let df = DataFrameBuilder::new().int("x", [1]).build().unwrap();
        assert!(df.series("nope").is_err());
    }
}
