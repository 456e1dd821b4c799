//! Null handling: `dropna`, `fillna`, `null_counts`.

use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::error::Result;
use crate::frame::DataFrame;
use crate::history::{Event, OpKind};
use crate::value::Value;

impl DataFrame {
    /// Drop rows containing any null in any column.
    pub fn dropna(&self) -> DataFrame {
        let mask = valid_in_all(
            self.num_rows(),
            (0..self.num_columns()).map(|c| self.column_at(c)),
        );
        let mut out = self
            .filter_rows(&mask)
            .expect("mask length matches by construction");
        out.record_event(Event::new(OpKind::NullHandling, "dropna"));
        out
    }

    /// Drop rows with a null in any of the named columns.
    pub fn dropna_subset(&self, columns: &[&str]) -> Result<DataFrame> {
        let cols: Vec<&Column> = columns
            .iter()
            .map(|c| self.column(c))
            .collect::<Result<_>>()?;
        let mask = valid_in_all(self.num_rows(), cols);
        let mut out = self.filter_rows(&mask)?;
        out.record_event(
            Event::new(OpKind::NullHandling, format!("dropna(subset={columns:?})"))
                .with_columns(columns.iter().map(|s| s.to_string()).collect()),
        );
        Ok(out)
    }

    /// Replace nulls in `column` with `value`.
    pub fn fillna(&self, column: &str, value: &Value) -> Result<DataFrame> {
        let col = self.column(column)?;
        let values: Vec<Value> = (0..col.len())
            .map(|i| {
                let v = col.value(i);
                if v.is_null() {
                    value.clone()
                } else {
                    v
                }
            })
            .collect();
        let new_col = Column::from_values(&values)?;
        let mut out = self.with_column(column, new_col)?;
        out.record_event(
            Event::new(OpKind::NullHandling, format!("fillna({column:?}, {value})"))
                .with_columns(vec![column.to_string()]),
        );
        Ok(out)
    }

    /// Per-column null counts, in column order.
    pub fn null_counts(&self) -> Vec<(String, usize)> {
        self.column_names()
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), self.column_at(i).null_count()))
            .collect()
    }
}

/// The rows valid in every one of `cols`: the AND of their validity words.
fn valid_in_all<'a>(rows: usize, cols: impl IntoIterator<Item = &'a Column>) -> Bitmap {
    cols.into_iter()
        .filter_map(Column::validity)
        .fold(Bitmap::filled(rows, true), |mask, valid| mask.and(valid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{Column, PrimitiveColumn, StrColumn};
    use crate::frame::DataFrame;

    fn df_with_nulls() -> DataFrame {
        let a = Column::Int64(PrimitiveColumn::from_options(vec![Some(1), None, Some(3)]));
        let b = Column::Str(StrColumn::from_options([Some("x"), Some("y"), None]));
        DataFrame::from_columns(vec![("a".into(), a), ("b".into(), b)]).unwrap()
    }

    #[test]
    fn dropna_removes_any_null_row() {
        let d = df_with_nulls().dropna();
        assert_eq!(d.num_rows(), 1);
        assert_eq!(d.value(0, "a").unwrap(), Value::Int(1));
        assert!(d.history().contains(OpKind::NullHandling));
    }

    #[test]
    fn dropna_subset_scopes() {
        let d = df_with_nulls().dropna_subset(&["a"]).unwrap();
        assert_eq!(d.num_rows(), 2); // only row with null a dropped
        assert!(df_with_nulls().dropna_subset(&["zz"]).is_err());
    }

    #[test]
    fn fillna_replaces() {
        let d = df_with_nulls().fillna("a", &Value::Int(0)).unwrap();
        assert_eq!(d.value(1, "a").unwrap(), Value::Int(0));
        assert_eq!(d.column("a").unwrap().null_count(), 0);
    }

    #[test]
    fn null_counts_reports() {
        let counts = df_with_nulls().null_counts();
        assert_eq!(counts, vec![("a".to_string(), 1), ("b".to_string(), 1)]);
    }
}
