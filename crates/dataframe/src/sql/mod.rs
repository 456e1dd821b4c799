//! A minimal SQL `SELECT` engine over dataframes.
//!
//! The paper's execution engine can run "either as a series of dataframe
//! operations in pandas or equivalently in SQL queries in relational
//! databases" (§7). This module is that second backend, built from scratch:
//! a tokenizer, a recursive-descent parser, and an evaluator covering the
//! query shapes visualization processing emits (Table 2):
//!
//! ```sql
//! SELECT x, y FROM t WHERE dept = 'Sales';                     -- scatter
//! SELECT dept, AVG(pay) AS pay FROM t GROUP BY dept;           -- bar
//! SELECT MIN(price + price * 0) AS lo0,
//!        MAX(price + price * 0) AS hi0 FROM t;                 -- bin bounds
//! SELECT LEAST(FLOOR((price * 0.5 - 0.0) / 250.0 * 10.0), 9) AS bin,
//!        COUNT(*) AS count
//!   FROM t WHERE price * 0 = 0 GROUP BY bin;                   -- histogram
//! ```
//!
//! Supported: projections with aliases and arithmetic, `COUNT(*)` /
//! `COUNT` / `SUM` / `AVG` / `MIN` / `MAX` (which skip NaN as they skip
//! null), `FLOOR`, `LEAST`, `WHERE` with `AND`/`OR`/`NOT` and the six
//! comparators, `GROUP BY` on expressions, `ORDER BY` output columns, and
//! `LIMIT`.

mod eval;
mod parse;
mod token;

pub use eval::execute;
pub use parse::{parse_select, AggFunc, BinOp, CmpOp, OrderKey, SelectStmt, SqlExpr};

use crate::error::{Error, Result};
use crate::frame::DataFrame;

/// Parse and execute one `SELECT` statement against `df`, the one table,
/// named `t`.
pub fn query_frame(sql: &str, df: &DataFrame) -> Result<DataFrame> {
    let stmt = parse_select(sql)?;
    if stmt.table != "t" {
        return Err(Error::InvalidArgument(format!(
            "unknown table {:?}",
            stmt.table
        )));
    }
    execute(&stmt, df)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::DataFrameBuilder;
    use crate::value::Value;

    fn df() -> DataFrame {
        DataFrameBuilder::new()
            .str("dept", ["Sales", "Eng", "Sales", "Eng", "HR"])
            .float("pay", [50.0, 80.0, 60.0, 90.0, 55.0])
            .int("age", [25, 32, 47, 28, 36])
            .build()
            .unwrap()
    }

    #[test]
    fn select_columns() {
        let r = query_frame("SELECT dept, pay FROM t", &df()).unwrap();
        assert_eq!(r.column_names(), &["dept", "pay"]);
        assert_eq!(r.num_rows(), 5);
    }

    #[test]
    fn where_and_limit() {
        let r = query_frame("SELECT pay FROM t WHERE dept = 'Sales' AND age > 30", &df()).unwrap();
        assert_eq!(r.num_rows(), 1);
        assert_eq!(r.value(0, "pay").unwrap(), Value::Float(60.0));
        let r = query_frame("SELECT age FROM t LIMIT 2", &df()).unwrap();
        assert_eq!(r.num_rows(), 2);
    }

    #[test]
    fn group_by_avg_order_desc() {
        let r = query_frame(
            "SELECT dept, AVG(pay) AS mean_pay FROM t GROUP BY dept ORDER BY mean_pay DESC",
            &df(),
        )
        .unwrap();
        assert_eq!(r.num_rows(), 3);
        assert_eq!(r.value(0, "dept").unwrap(), Value::str("Eng"));
        assert_eq!(r.value(0, "mean_pay").unwrap(), Value::Float(85.0));
    }

    #[test]
    fn count_star_and_aggregates() {
        let r = query_frame("SELECT COUNT(*) AS n, SUM(age) AS total FROM t", &df()).unwrap();
        assert_eq!(r.num_rows(), 1);
        assert_eq!(r.value(0, "n").unwrap(), Value::Int(5));
        assert_eq!(r.value(0, "total").unwrap(), Value::Float(168.0));
        let r = query_frame("SELECT MIN(pay) AS lo, MAX(pay) AS hi FROM t", &df()).unwrap();
        assert_eq!(r.value(0, "lo").unwrap(), Value::Float(50.0));
        assert_eq!(r.value(0, "hi").unwrap(), Value::Float(90.0));
    }

    #[test]
    fn histogram_query_shape() {
        let r = query_frame(
            "SELECT FLOOR((pay - 50) / 10) AS bin, COUNT(*) AS count FROM t GROUP BY bin ORDER BY bin ASC",
            &df(),
        )
        .unwrap();
        // pay 50,55 -> bin 0; 60 -> 1; 80 -> 3; 90 -> 4
        assert_eq!(r.num_rows(), 4);
        assert_eq!(r.value(0, "bin").unwrap(), Value::Float(0.0));
        assert_eq!(r.value(0, "count").unwrap(), Value::Int(2));
    }

    #[test]
    fn arithmetic_projection() {
        let r = query_frame("SELECT pay * 2 + 1 AS double_pay FROM t LIMIT 1", &df()).unwrap();
        assert_eq!(r.value(0, "double_pay").unwrap(), Value::Float(101.0));
    }

    #[test]
    fn unknown_table_and_column_error() {
        assert!(query_frame("SELECT pay FROM nope", &df()).is_err());
        assert!(query_frame("SELECT nope FROM t", &df()).is_err());
    }

    #[test]
    fn or_and_not_predicates() {
        let r = query_frame("SELECT age FROM t WHERE dept = 'HR' OR age >= 47", &df()).unwrap();
        assert_eq!(r.num_rows(), 2);
        let r = query_frame("SELECT age FROM t WHERE NOT dept = 'Sales'", &df()).unwrap();
        assert_eq!(r.num_rows(), 3);
    }
}
