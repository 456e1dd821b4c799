//! Row-wise concatenation.

use std::sync::Arc;

use crate::column::Column;
use crate::error::{Error, Result};
use crate::frame::DataFrame;
use crate::history::{Event, OpKind};
use crate::index::Index;

impl DataFrame {
    /// Stack `other`'s rows below `self`'s. Schemas must match exactly
    /// (same column names, order, and dtypes).
    pub fn concat(&self, other: &DataFrame) -> Result<DataFrame> {
        if self.column_names() != other.column_names() {
            return Err(Error::InvalidArgument(format!(
                "concat schema mismatch: {:?} vs {:?}",
                self.column_names(),
                other.column_names()
            )));
        }
        let mut names = Vec::with_capacity(self.num_columns());
        let mut cols: Vec<Arc<Column>> = Vec::with_capacity(self.num_columns());
        for (i, name) in self.column_names().iter().enumerate() {
            let (a, b) = (self.column_at(i), other.column_at(i));
            if a.dtype() != b.dtype() {
                return Err(Error::TypeMismatch {
                    column: name.clone(),
                    expected: a.dtype().name(),
                    got: b.dtype().name(),
                });
            }
            let mut merged = a.clone();
            merged.extend_from(b)?;
            names.push(name.clone());
            cols.push(Arc::new(merged));
        }
        let index = Index::range(self.num_rows() + other.num_rows());
        let event = Event::new(
            OpKind::Concat,
            format!("concat(+{} rows)", other.num_rows()),
        );
        let mut out = self.derive(names, cols, index, event);
        // Rows 0..self.num_rows() of the result are byte-identical to
        // `self` (extend_from appends in place; string dictionaries grow by
        // suffix), so the metadata pass may merge `self`'s per-column
        // partials with a scan of only the appended tail.
        out.set_append_lineage(self);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use crate::frame::DataFrameBuilder;
    use crate::history::OpKind;
    use crate::value::Value;

    #[test]
    fn concat_stacks_rows() {
        let a = DataFrameBuilder::new()
            .int("x", [1, 2])
            .str("y", ["a", "b"])
            .build()
            .unwrap();
        let b = DataFrameBuilder::new()
            .int("x", [3])
            .str("y", ["c"])
            .build()
            .unwrap();
        let c = a.concat(&b).unwrap();
        assert_eq!(c.num_rows(), 3);
        assert_eq!(c.value(2, "y").unwrap(), Value::str("c"));
        assert!(c.history().contains(OpKind::Concat));
    }

    #[test]
    fn concat_schema_mismatch_errors() {
        let a = DataFrameBuilder::new().int("x", [1]).build().unwrap();
        let b = DataFrameBuilder::new().int("z", [1]).build().unwrap();
        assert!(a.concat(&b).is_err());
        let c = DataFrameBuilder::new().float("x", [1.0]).build().unwrap();
        assert!(a.concat(&c).is_err());
    }
}
