//! Numeric binning (`cut`) — the paper's example workflow bins `stringency`
//! into a binary `stringency_level`, and the histogram vis type is
//! "bin + count" (Table 2).

use crate::column::{Column, StrColumn};
use crate::error::{Error, Result};
use crate::frame::DataFrame;
use crate::history::{Event, OpKind};

impl DataFrame {
    /// Bin a numeric column into `labels.len()` equal-width categories over
    /// its observed min/max, adding the result as a new string column named
    /// `out`. Null and NaN inputs map to null outputs.
    pub fn cut(&self, column: &str, labels: &[&str], out: &str) -> Result<DataFrame> {
        if labels.is_empty() {
            return Err(Error::InvalidArgument(
                "cut requires at least one label".into(),
            ));
        }
        let col = self.column(column)?;
        if !col.dtype().is_numeric() {
            return Err(Error::TypeMismatch {
                column: column.to_string(),
                expected: "numeric",
                got: col.dtype().name(),
            });
        }
        let (lo, hi) = col.min_max_finite().ok_or_else(|| {
            Error::InvalidArgument(format!("column {column:?} has no finite values"))
        })?;
        let nbins = labels.len();

        let mut out_col = StrColumn::new();
        col.for_each_row_f64(|_, v| match v {
            Some(v) if v.is_finite() => out_col.push(Some(labels[bin_of(v, lo, hi, nbins)])),
            _ => out_col.push(None),
        });
        let mut df = self.with_column(out, Column::Str(out_col))?;
        df.record_event(
            Event::new(OpKind::Bin, format!("cut({column} -> {out}, {nbins} bins)"))
                .with_columns(vec![column.to_string(), out.to_string()]),
        );
        Ok(df)
    }

    /// Equal-width histogram of a numeric column: returns `(bin_edges,
    /// counts)` with `bins + 1` edges. Nulls and NaNs are excluded.
    pub fn histogram(&self, column: &str, bins: usize) -> Result<(Vec<f64>, Vec<u64>)> {
        let (bounds, counts) = self.bin_counts(column, bins)?;
        let (lo, hi) = bounds.unwrap_or((0.0, 0.0));
        let edges = (0..=bins).map(|b| edge_of(b, lo, hi, bins)).collect();
        Ok((edges, counts))
    }

    /// The counting half of [`DataFrame::histogram`]: the finite range the
    /// bins span (`None` when the column has no finite value, and every
    /// count is zero) and the count per bin. Nulls, NaNs and ±inf are
    /// excluded.
    pub fn bin_counts(&self, column: &str, bins: usize) -> Result<BinCounts> {
        if bins == 0 {
            return Err(Error::InvalidArgument(
                "histogram requires bins >= 1".into(),
            ));
        }
        let col = self.column(column)?;
        if !col.dtype().is_numeric() && col.dtype() != crate::value::DType::DateTime {
            return Err(Error::TypeMismatch {
                column: column.to_string(),
                expected: "numeric",
                got: col.dtype().name(),
            });
        }
        let mut counts = vec![0u64; bins];
        let Some((lo, hi)) = col.min_max_finite() else {
            return Ok((None, counts));
        };
        col.for_each_f64(|_, v| {
            if v.is_finite() {
                counts[bin_of(v, lo, hi, bins)] += 1;
            }
        });
        Ok((Some((lo, hi)), counts))
    }
}

/// A column's finite `(min, max)`, `None` when it has none, and its count
/// per equal-width bin.
pub type BinCounts = (Option<(f64, f64)>, Vec<u64>);

/// Equal-width bin index of a finite `v` in `[lo, hi]`, overflow-safe: the
/// half-span `hi/2 - lo/2` stays finite even when `hi - lo` would overflow
/// (e.g. `lo = -f64::MAX`, `hi = f64::MAX`).
#[inline]
pub fn bin_of(v: f64, lo: f64, hi: f64, nbins: usize) -> usize {
    let half_span = hi * 0.5 - lo * 0.5;
    if !(half_span > 0.0) {
        return 0; // degenerate range: everything lands in the first bin
    }
    let pos = ((v * 0.5 - lo * 0.5) / half_span).clamp(0.0, 1.0);
    // `pos * nbins` lies in `[0, nbins]`, so the signed cast yields the same
    // index as an unsigned one — x86-64 has an instruction for it, where
    // f64 -> u64 is a multi-branch sequence a third of this function's cost.
    ((pos * nbins as f64) as i64 as usize).min(nbins - 1)
}

/// Start edge `b` of `nbins` equal-width bins over `[lo, hi]`, computed as a
/// convex combination so extreme-magnitude endpoints never overflow to inf.
#[inline]
pub fn edge_of(b: usize, lo: f64, hi: f64, nbins: usize) -> f64 {
    let t = b as f64 / nbins as f64;
    lo * (1.0 - t) + hi * t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::DataFrameBuilder;
    use crate::value::Value;

    #[test]
    fn cut_two_bins() {
        let df = DataFrameBuilder::new()
            .float("stringency", [10.0, 90.0, 45.0, 55.0])
            .build()
            .unwrap();
        let d = df
            .cut("stringency", &["Low", "High"], "stringency_level")
            .unwrap();
        assert_eq!(d.value(0, "stringency_level").unwrap(), Value::str("Low"));
        assert_eq!(d.value(1, "stringency_level").unwrap(), Value::str("High"));
        assert_eq!(d.value(2, "stringency_level").unwrap(), Value::str("Low"));
        assert_eq!(d.value(3, "stringency_level").unwrap(), Value::str("High"));
        assert!(d.history().contains(OpKind::Bin));
    }

    #[test]
    fn cut_rejects_non_numeric_and_empty_labels() {
        let df = DataFrameBuilder::new().str("s", ["a"]).build().unwrap();
        assert!(df.cut("s", &["x"], "o").is_err());
        let df = DataFrameBuilder::new().float("x", [1.0]).build().unwrap();
        assert!(df.cut("x", &[], "o").is_err());
    }

    #[test]
    fn histogram_counts_sum_to_valid_rows() {
        let df = DataFrameBuilder::new()
            .float("x", (0..100).map(|i| i as f64))
            .build()
            .unwrap();
        let (edges, counts) = df.histogram("x", 10).unwrap();
        assert_eq!(edges.len(), 11);
        assert_eq!(counts.iter().sum::<u64>(), 100);
        assert_eq!(counts, vec![10; 10]);
    }

    #[test]
    fn histogram_constant_column() {
        let df = DataFrameBuilder::new()
            .float("x", [5.0, 5.0, 5.0])
            .build()
            .unwrap();
        let (_, counts) = df.histogram("x", 4).unwrap();
        assert_eq!(counts.iter().sum::<u64>(), 3);
    }

    #[test]
    fn histogram_ignores_non_finite_values() {
        let df = DataFrameBuilder::new()
            .float(
                "x",
                [f64::NEG_INFINITY, 1.0, 2.0, 3.0, f64::INFINITY, f64::NAN],
            )
            .build()
            .unwrap();
        let (edges, counts) = df.histogram("x", 4).unwrap();
        assert!(edges.iter().all(|e| e.is_finite()), "{edges:?}");
        assert_eq!(counts.iter().sum::<u64>(), 3);
    }

    #[test]
    fn cut_extreme_range_does_not_overflow() {
        let df = DataFrameBuilder::new()
            .float("x", [-f64::MAX, 0.0, f64::MAX])
            .build()
            .unwrap();
        let d = df.cut("x", &["lo", "hi"], "level").unwrap();
        assert_eq!(d.value(0, "level").unwrap(), Value::str("lo"));
        assert_eq!(d.value(2, "level").unwrap(), Value::str("hi"));
    }

    #[test]
    fn histogram_zero_bins_errors() {
        let df = DataFrameBuilder::new().float("x", [1.0]).build().unwrap();
        assert!(df.histogram("x", 0).is_err());
    }
}
