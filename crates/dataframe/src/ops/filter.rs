//! Row filtering by predicate.

use std::fmt;
use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::error::{Error, Result};
use crate::frame::DataFrame;
use crate::history::{Event, OpKind};
use crate::value::Value;

/// Comparison operators usable in filters — the same set the paper's intent
/// grammar allows for `<Filter>` clauses (Eq. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilterOp {
    Eq,
    Ne,
    Gt,
    Lt,
    Ge,
    Le,
}

impl FilterOp {
    /// Parse the operator from its symbol, longest match first.
    pub fn parse_prefix(s: &str) -> Option<(FilterOp, &str)> {
        for (sym, op) in [
            (">=", FilterOp::Ge),
            ("<=", FilterOp::Le),
            ("!=", FilterOp::Ne),
            ("=", FilterOp::Eq),
            (">", FilterOp::Gt),
            ("<", FilterOp::Lt),
        ] {
            if let Some(rest) = s.strip_prefix(sym) {
                return Some((op, rest));
            }
        }
        None
    }

    pub fn symbol(self) -> &'static str {
        match self {
            FilterOp::Eq => "=",
            FilterOp::Ne => "!=",
            FilterOp::Gt => ">",
            FilterOp::Lt => "<",
            FilterOp::Ge => ">=",
            FilterOp::Le => "<=",
        }
    }

    /// Evaluate `lhs OP rhs`. Null never matches any operator.
    pub fn eval(self, lhs: &Value, rhs: &Value) -> bool {
        if lhs.is_null() || rhs.is_null() {
            return false;
        }
        match self {
            FilterOp::Eq => lhs == rhs,
            FilterOp::Ne => lhs != rhs,
            _ => {
                let ord = lhs.total_cmp(rhs);
                match self {
                    FilterOp::Gt => ord.is_gt(),
                    FilterOp::Lt => ord.is_lt(),
                    FilterOp::Ge => ord.is_ge(),
                    FilterOp::Le => ord.is_le(),
                    _ => unreachable!(),
                }
            }
        }
    }
}

impl fmt::Display for FilterOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

impl DataFrame {
    /// Boolean mask of rows where `column OP value` holds. Nulls never match.
    pub fn filter_mask(&self, column: &str, op: FilterOp, value: &Value) -> Result<Bitmap> {
        let col = self.column(column)?;
        Ok(build_mask(col, op, value))
    }

    /// Keep rows where `column OP value` holds.
    pub fn filter(&self, column: &str, op: FilterOp, value: &Value) -> Result<DataFrame> {
        let mask = self.filter_mask(column, op, value)?;
        let detail = format!("filter: {column} {op} {value}");
        self.filter_rows_with_detail(&mask, detail, vec![column.to_string()])
    }

    /// Keep rows where the mask is set. The mask length must match.
    pub fn filter_rows(&self, mask: &Bitmap) -> Result<DataFrame> {
        self.filter_rows_with_detail(mask, "filter: mask".to_string(), vec![])
    }

    pub(crate) fn filter_rows_with_detail(
        &self,
        mask: &Bitmap,
        detail: String,
        columns: Vec<String>,
    ) -> Result<DataFrame> {
        if mask.len() != self.num_rows() {
            return Err(Error::LengthMismatch {
                expected: self.num_rows(),
                got: mask.len(),
            });
        }
        let indices = mask.ones();
        let names = self.column_names().to_vec();
        let cols: Vec<Arc<Column>> = (0..self.num_columns())
            .map(|c| Arc::new(self.column_at(c).take(&indices)))
            .collect();
        let index = self.index().take(&indices);
        let event = Event::new(OpKind::Filter, detail).with_columns(columns);
        Ok(self.derive(names, cols, index, event))
    }
}

/// Typed fast paths for mask construction, 64 rows per word; falls back to
/// boxed comparison.
fn build_mask(col: &Column, op: FilterOp, value: &Value) -> Bitmap {
    match (col, value) {
        // Dictionary fast path: equality on strings compares codes. A value
        // not in the dictionary has no code: Eq matches nothing, Ne every
        // valid row.
        (Column::Str(c), Value::Str(s)) if matches!(op, FilterOp::Eq | FilterOp::Ne) => {
            let code = c.code_of(s);
            let eq = op == FilterOp::Eq;
            word_mask(c.codes(), c.validity(), |&x| (Some(x) == code) == eq)
        }
        (Column::Int64(c) | Column::DateTime(c), v) => match v.as_f64() {
            Some(rhs) => f64_mask(c.values(), c.validity(), op, rhs, |x| x as f64),
            None => boxed_mask(col, op, value),
        },
        (Column::Float64(c), v) => match v.as_f64() {
            Some(rhs) => f64_mask(c.values(), c.validity(), op, rhs, |x| x),
            None => boxed_mask(col, op, value),
        },
        _ => boxed_mask(col, op, value),
    }
}

/// `hit` over every slot of `values`, 64 to a word, then ANDed with the
/// validity words — a null row never matches, whatever its placeholder.
fn word_mask<T>(values: &[T], validity: Option<&Bitmap>, hit: impl Fn(&T) -> bool) -> Bitmap {
    let mask = Bitmap::pack(values, hit);
    match validity {
        Some(valid) => mask.and(valid),
        None => mask,
    }
}

/// `f(x) OP rhs` over a numeric buffer, the operator resolved once so each
/// arm is its own loop.
fn f64_mask<T: Copy>(
    values: &[T],
    validity: Option<&Bitmap>,
    op: FilterOp,
    rhs: f64,
    f: impl Fn(T) -> f64,
) -> Bitmap {
    match op {
        FilterOp::Eq => word_mask(values, validity, |&x| f(x) == rhs),
        FilterOp::Ne => word_mask(values, validity, |&x| f(x) != rhs),
        FilterOp::Gt => word_mask(values, validity, |&x| f(x) > rhs),
        FilterOp::Lt => word_mask(values, validity, |&x| f(x) < rhs),
        FilterOp::Ge => word_mask(values, validity, |&x| f(x) >= rhs),
        FilterOp::Le => word_mask(values, validity, |&x| f(x) <= rhs),
    }
}

fn boxed_mask(col: &Column, op: FilterOp, value: &Value) -> Bitmap {
    Bitmap::from_iter((0..col.len()).map(|i| op.eval(&col.value(i), value)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::DataFrameBuilder;

    fn df() -> DataFrame {
        DataFrameBuilder::new()
            .int("age", [25, 32, 47, 19])
            .str("dept", ["Sales", "Eng", "Sales", "HR"])
            .build()
            .unwrap()
    }

    #[test]
    fn parse_prefix_longest_match() {
        assert_eq!(FilterOp::parse_prefix(">=5"), Some((FilterOp::Ge, "5")));
        assert_eq!(FilterOp::parse_prefix("=x"), Some((FilterOp::Eq, "x")));
        assert_eq!(FilterOp::parse_prefix("!=x"), Some((FilterOp::Ne, "x")));
        assert!(FilterOp::parse_prefix("x").is_none());
    }

    #[test]
    fn numeric_filters() {
        let f = df().filter("age", FilterOp::Gt, &Value::Int(30)).unwrap();
        assert_eq!(f.num_rows(), 2);
        let f = df()
            .filter("age", FilterOp::Le, &Value::Float(25.0))
            .unwrap();
        assert_eq!(f.num_rows(), 2);
    }

    #[test]
    fn string_equality_uses_dictionary() {
        let f = df()
            .filter("dept", FilterOp::Eq, &Value::str("Sales"))
            .unwrap();
        assert_eq!(f.num_rows(), 2);
        let f = df()
            .filter("dept", FilterOp::Ne, &Value::str("Sales"))
            .unwrap();
        assert_eq!(f.num_rows(), 2);
        // value not present in dictionary
        let f = df()
            .filter("dept", FilterOp::Eq, &Value::str("Nope"))
            .unwrap();
        assert_eq!(f.num_rows(), 0);
        let f = df()
            .filter("dept", FilterOp::Ne, &Value::str("Nope"))
            .unwrap();
        assert_eq!(f.num_rows(), 4);
    }

    #[test]
    fn nulls_never_match() {
        let mut b = crate::column::PrimitiveColumn::from_values(vec![1i64, 2]);
        b.push(None);
        let df = DataFrame::from_columns(vec![("x".into(), Column::Int64(b))]).unwrap();
        let f = df.filter("x", FilterOp::Ne, &Value::Int(1)).unwrap();
        assert_eq!(f.num_rows(), 1); // only the row with 2; null excluded
    }

    #[test]
    fn filter_records_history_with_parent() {
        let f = df()
            .filter("dept", FilterOp::Eq, &Value::str("Eng"))
            .unwrap();
        let e = f.history().last_of(OpKind::Filter).unwrap();
        assert!(e.detail.contains("dept"));
        assert_eq!(f.history().filter_parent().unwrap().num_rows(), 4);
    }

    #[test]
    fn filter_missing_column_errors() {
        assert!(df().filter("zzz", FilterOp::Eq, &Value::Int(1)).is_err());
    }

    #[test]
    fn op_eval_boxed() {
        assert!(FilterOp::Gt.eval(&Value::Float(2.0), &Value::Int(1)));
        assert!(!FilterOp::Eq.eval(&Value::Null, &Value::Null));
        assert!(FilterOp::Le.eval(&Value::str("a"), &Value::str("b")));
    }
}
