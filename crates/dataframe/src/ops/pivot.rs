//! Reshaping: `pivot` and `crosstab`.
//!
//! These produce the "pre-aggregated, labeled-index" frames that drive the
//! paper's index-based structure recommendations (Figure 7: each row of a
//! pivot result is visualized as a series).

use std::sync::Arc;

use crate::column::Column;
use crate::error::{Error, Result};
use crate::frame::DataFrame;
use crate::history::{Event, OpKind};
use crate::index::Index;
use crate::ops::groupby::Agg;
use crate::value::Value;

impl DataFrame {
    /// Pivot: one output row per distinct `index` value, one output column
    /// per distinct `columns` value, cells aggregating `values` with `agg`.
    /// Cells with no backing rows are null.
    pub fn pivot(&self, index: &str, columns: &str, values: &str, agg: Agg) -> Result<DataFrame> {
        self.column(index)?;
        self.column(columns)?;
        self.column(values)?;
        if agg.requires_numeric() && !self.column(values)?.dtype().is_numeric() {
            return Err(Error::UnsupportedAggregation {
                agg: agg.name(),
                dtype: self.column(values)?.dtype().name(),
            });
        }

        // Aggregate on the (index, columns) pair, then scatter into the grid.
        let agged = self.groupby(&[index, columns])?.agg(&[(values, agg)])?;

        let row_labels = self.unique(index)?;
        let col_labels = self.unique(columns)?;
        let row_pos = |v: &Value| row_labels.iter().position(|r| r == v);
        let col_pos = |v: &Value| col_labels.iter().position(|c| c == v);

        let mut grid: Vec<Vec<Value>> = vec![vec![Value::Null; row_labels.len()]; col_labels.len()];
        let a_idx = agged.column(index)?;
        let a_col = agged.column(columns)?;
        let a_val = agged.column(values)?;
        for r in 0..agged.num_rows() {
            let (iv, cv) = (a_idx.value(r), a_col.value(r));
            if let (Some(ri), Some(ci)) = (row_pos(&iv), col_pos(&cv)) {
                grid[ci][ri] = a_val.value(r);
            }
        }

        let mut names = Vec::with_capacity(col_labels.len());
        let mut cols: Vec<Arc<Column>> = Vec::with_capacity(col_labels.len());
        for (ci, label) in col_labels.iter().enumerate() {
            names.push(label.to_string());
            cols.push(Arc::new(Column::from_values(&grid[ci])?));
        }
        let index_col = Column::from_values(&row_labels)?;
        let out_index = Index::labels(Some(index.to_string()), index_col);
        let event = Event::new(
            OpKind::Aggregate,
            format!("pivot(index={index}, columns={columns}, values={values}, agg={agg})"),
        )
        .with_columns(vec![
            index.to_string(),
            columns.to_string(),
            values.to_string(),
        ]);
        Ok(self.derive(names, cols, out_index, event))
    }

    /// Cross-tabulation: counts of co-occurrence between two columns.
    pub fn crosstab(&self, rows: &str, columns: &str) -> Result<DataFrame> {
        // crosstab(a, b) == pivot on count of any column; count ignores the
        // values column's content, so reuse `rows` itself as the counted column.
        let counted = self.groupby(&[rows, columns])?.count()?;
        let row_labels = self.unique(rows)?;
        let col_labels = self.unique(columns)?;
        let mut grid: Vec<Vec<Value>> =
            vec![vec![Value::Int(0); row_labels.len()]; col_labels.len()];
        let a_r = counted.column(rows)?;
        let a_c = counted.column(columns)?;
        let a_n = counted.column("count")?;
        for r in 0..counted.num_rows() {
            let rv = a_r.value(r);
            let cv = a_c.value(r);
            let ri = row_labels.iter().position(|x| *x == rv);
            let ci = col_labels.iter().position(|x| *x == cv);
            if let (Some(ri), Some(ci)) = (ri, ci) {
                grid[ci][ri] = a_n.value(r);
            }
        }
        let mut names = Vec::new();
        let mut cols: Vec<Arc<Column>> = Vec::new();
        for (ci, label) in col_labels.iter().enumerate() {
            names.push(label.to_string());
            cols.push(Arc::new(Column::from_values(&grid[ci])?));
        }
        let out_index = Index::labels(Some(rows.to_string()), Column::from_values(&row_labels)?);
        let event = Event::new(OpKind::Aggregate, format!("crosstab({rows}, {columns})"))
            .with_columns(vec![rows.to_string(), columns.to_string()]);
        Ok(self.derive(names, cols, out_index, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::DataFrameBuilder;

    fn df() -> DataFrame {
        DataFrameBuilder::new()
            .str("state", ["CA", "CA", "NY", "NY", "CA"])
            .str("month", ["Jan", "Feb", "Jan", "Feb", "Jan"])
            .float("cases", [10.0, 20.0, 5.0, 8.0, 2.0])
            .build()
            .unwrap()
    }

    #[test]
    fn pivot_builds_grid() {
        let p = df().pivot("state", "month", "cases", Agg::Sum).unwrap();
        assert_eq!(p.num_rows(), 2);
        assert_eq!(p.column_names(), &["Jan", "Feb"]);
        assert!(p.index().is_labeled());
        assert_eq!(p.index().label(0), Value::str("CA"));
        assert_eq!(p.value(0, "Jan").unwrap(), Value::Float(12.0));
        assert_eq!(p.value(1, "Feb").unwrap(), Value::Float(8.0));
    }

    #[test]
    fn pivot_missing_cell_is_null() {
        let df = DataFrameBuilder::new()
            .str("a", ["x", "y"])
            .str("b", ["p", "q"])
            .float("v", [1.0, 2.0])
            .build()
            .unwrap();
        let p = df.pivot("a", "b", "v", Agg::Mean).unwrap();
        assert!(p.value(0, "q").unwrap().is_null());
        assert_eq!(p.value(0, "p").unwrap(), Value::Float(1.0));
    }

    #[test]
    fn pivot_records_aggregate_event() {
        let p = df().pivot("state", "month", "cases", Agg::Mean).unwrap();
        assert!(p.history().contains(OpKind::Aggregate));
        assert!(p.history().aggregate_parent().is_some());
    }

    #[test]
    fn crosstab_counts() {
        let ct = df().crosstab("state", "month").unwrap();
        assert_eq!(ct.value(0, "Jan").unwrap(), Value::Int(2)); // CA-Jan
        assert_eq!(ct.value(1, "Feb").unwrap(), Value::Int(1)); // NY-Feb
    }

    #[test]
    fn pivot_type_checks() {
        assert!(df().pivot("state", "month", "month", Agg::Mean).is_err());
        assert!(df().pivot("zzz", "month", "cases", Agg::Mean).is_err());
    }
}
