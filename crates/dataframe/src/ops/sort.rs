//! Row sorting.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::column::Column;
use crate::error::Result;
use crate::frame::DataFrame;
use crate::history::{Event, OpKind};

impl DataFrame {
    /// Sort rows by one or more columns. `ascending` applies to all keys.
    /// The sort is stable; nulls sort first in ascending order.
    pub fn sort_by(&self, columns: &[&str], ascending: bool) -> Result<DataFrame> {
        let keys: Vec<&Column> = columns
            .iter()
            .map(|c| self.column(c))
            .collect::<Result<_>>()?;
        let mut indices: Vec<usize> = (0..self.num_rows()).collect();
        indices.sort_by(|&a, &b| {
            for key in &keys {
                let ord = key.value(a).total_cmp(&key.value(b));
                if ord != Ordering::Equal {
                    return if ascending { ord } else { ord.reverse() };
                }
            }
            Ordering::Equal
        });
        let names = self.column_names().to_vec();
        let cols: Vec<Arc<Column>> = (0..self.num_columns())
            .map(|c| Arc::new(self.column_at(c).take(&indices)))
            .collect();
        let index = self.index().take(&indices);
        let event = Event::new(
            OpKind::Sort,
            format!("sort_by({columns:?}, asc={ascending})"),
        )
        .with_columns(columns.iter().map(|s| s.to_string()).collect());
        Ok(self.derive(names, cols, index, event))
    }
}

#[cfg(test)]
mod tests {
    use crate::frame::DataFrameBuilder;
    use crate::history::OpKind;
    use crate::value::Value;

    #[test]
    fn sort_single_key() {
        let df = DataFrameBuilder::new()
            .int("x", [3, 1, 2])
            .str("y", ["c", "a", "b"])
            .build()
            .unwrap();
        let s = df.sort_by(&["x"], true).unwrap();
        assert_eq!(s.value(0, "y").unwrap(), Value::str("a"));
        assert_eq!(s.value(2, "y").unwrap(), Value::str("c"));
        let d = df.sort_by(&["x"], false).unwrap();
        assert_eq!(d.value(0, "x").unwrap(), Value::Int(3));
    }

    #[test]
    fn sort_multi_key_is_stable() {
        let df = DataFrameBuilder::new()
            .str("g", ["b", "a", "b", "a"])
            .int("v", [1, 2, 0, 1])
            .build()
            .unwrap();
        let s = df.sort_by(&["g", "v"], true).unwrap();
        let gs: Vec<String> = (0..4)
            .map(|i| s.value(i, "g").unwrap().to_string())
            .collect();
        assert_eq!(gs, vec!["a", "a", "b", "b"]);
        assert_eq!(s.value(0, "v").unwrap(), Value::Int(1));
        assert_eq!(s.value(2, "v").unwrap(), Value::Int(0));
    }

    #[test]
    fn sort_records_event() {
        let df = DataFrameBuilder::new().int("x", [2, 1]).build().unwrap();
        let s = df.sort_by(&["x"], true).unwrap();
        assert!(s.history().contains(OpKind::Sort));
    }

    #[test]
    fn sort_missing_column_errors() {
        let df = DataFrameBuilder::new().int("x", [1]).build().unwrap();
        assert!(df.sort_by(&["nope"], true).is_err());
    }
}
