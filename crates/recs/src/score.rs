//! Interestingness scoring.
//!
//! Each action ranks its candidate visualizations with a statistic suited to
//! the chart type (paper §4: "the Correlation action plots pairwise
//! relationships ranked by Pearson's correlation"):
//!
//! - scatter/heatmap -> |Pearson r| between the two axes;
//! - histogram      -> |skewness| of the binned attribute;
//! - bar            -> deviation from a uniform distribution;
//! - line/map       -> coefficient of variation across groups;
//! - any filtered vis -> deviation between the filtered and unfiltered
//!   distributions (the classic SeeDB-style utility of a subset view).

use lux_dataframe::prelude::*;
use lux_dataframe::scan::for_each_f64_pair;
use lux_vis::{Channel, Mark, ProcessOptions, VisSpec};

/// Pearson correlation between two numeric columns, ignoring rows where
/// either side is null/NaN. Returns 0 for degenerate inputs.
pub fn pearson(x: &Column, y: &Column) -> f64 {
    let mut count = 0usize;
    let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for_each_f64_pair(x, y, |_, a, b| {
        if a.is_nan() || b.is_nan() {
            return;
        }
        count += 1;
        sx += a;
        sy += b;
        sxx += a * a;
        syy += b * b;
        sxy += a * b;
    });
    if count < 2 {
        return 0.0;
    }
    let nf = count as f64;
    let cov = sxy - sx * sy / nf;
    let vx = sxx - sx * sx / nf;
    let vy = syy - sy * sy / nf;
    if vx <= 0.0 || vy <= 0.0 {
        return 0.0;
    }
    cov / (vx * vy).sqrt()
}

/// Sample skewness of a numeric column (Fisher-Pearson), nulls/NaN ignored.
pub fn skewness(col: &Column) -> f64 {
    let (n, sum) = count_and_sum(col);
    if n < 3 {
        return 0.0;
    }
    let nf = n as f64;
    let mean = sum / nf;
    let (mut m2, mut m3) = (0.0, 0.0);
    col.for_each_f64(|_, v| {
        if !v.is_nan() {
            let d = v - mean;
            m2 += d.powi(2);
            m3 += d.powi(3);
        }
    });
    let (m2, m3) = (m2 / nf, m3 / nf);
    if m2 <= 0.0 {
        return 0.0;
    }
    m3 / m2.powf(1.5)
}

/// L2 deviation of a discrete distribution from uniform, after normalizing
/// the weights to sum to 1. Ranges in [0, sqrt((k-1)/k)].
pub fn deviation_from_uniform(weights: &[f64]) -> f64 {
    let total: f64 = weights.iter().filter(|w| w.is_finite()).sum();
    let k = weights.len();
    if k == 0 || total <= 0.0 {
        return 0.0;
    }
    let uniform = 1.0 / k as f64;
    weights
        .iter()
        .map(|w| {
            let p = if w.is_finite() { w / total } else { 0.0 };
            (p - uniform).powi(2)
        })
        .sum::<f64>()
        .sqrt()
}

/// L2 distance between two normalized distributions aligned by label.
/// Labels present on one side only contribute their full mass.
pub fn distribution_deviation(a: &[(Value, f64)], b: &[(Value, f64)]) -> f64 {
    let ta: f64 = a.iter().map(|(_, w)| w.max(0.0)).sum();
    let tb: f64 = b.iter().map(|(_, w)| w.max(0.0)).sum();
    if ta <= 0.0 || tb <= 0.0 {
        return 0.0;
    }
    let mut sum = 0.0;
    for (label, wa) in a {
        let pb = b
            .iter()
            .find(|(l, _)| l == label)
            .map_or(0.0, |(_, w)| w.max(0.0) / tb);
        sum += (wa.max(0.0) / ta - pb).powi(2);
    }
    for (label, wb) in b {
        if !a.iter().any(|(l, _)| l == label) {
            sum += (wb.max(0.0) / tb).powi(2);
        }
    }
    sum.sqrt()
}

/// Coefficient of variation of a numeric column (std/|mean|), for ranking
/// line charts and maps by how much the measure moves.
pub fn coefficient_of_variation(col: &Column) -> f64 {
    let (n, sum) = count_and_sum(col);
    if n < 2 {
        return 0.0;
    }
    let mean = sum / n as f64;
    if mean.abs() < 1e-12 {
        return 0.0;
    }
    let mut ss = 0.0;
    col.for_each_f64(|_, v| {
        if !v.is_nan() {
            ss += (v - mean).powi(2);
        }
    });
    (ss / (n - 1) as f64).sqrt() / mean.abs()
}

/// Count and row-order sum of a column's non-null, non-NaN values — the
/// first pass of the two-pass moments above.
fn count_and_sum(col: &Column) -> (usize, f64) {
    let (mut n, mut sum) = (0usize, 0.0);
    col.for_each_f64(|_, v| {
        if !v.is_nan() {
            n += 1;
            sum += v;
        }
    });
    (n, sum)
}

/// Interestingness of a complete spec evaluated against `df` (which may be
/// the full frame or a sample — the caller decides; that is the PRUNE lever).
pub fn interestingness(spec: &VisSpec, df: &DataFrame, opts: &ProcessOptions) -> f64 {
    match try_interestingness(spec, df, opts) {
        Ok(score) if score.is_finite() => score,
        _ => 0.0,
    }
}

fn try_interestingness(spec: &VisSpec, df: &DataFrame, opts: &ProcessOptions) -> Result<f64> {
    // Filtered views are ranked by how much the subset's distribution
    // deviates from the overall distribution.
    if !spec.filters.is_empty() && spec.mark != Mark::Scatter {
        return filtered_deviation(spec, df, opts);
    }

    match spec.mark {
        Mark::Scatter | Mark::Heatmap => {
            let frame = lux_vis::filtered_view(spec, df)?;
            let x = spec
                .channel(Channel::X)
                .ok_or_else(|| Error::InvalidArgument("no x".into()))?;
            let y = spec
                .channel(Channel::Y)
                .ok_or_else(|| Error::InvalidArgument("no y".into()))?;
            Ok(pearson(frame.column(&x.attribute)?, frame.column(&y.attribute)?).abs())
        }
        Mark::Histogram => {
            let x = spec
                .channel(Channel::X)
                .ok_or_else(|| Error::InvalidArgument("no x".into()))?;
            Ok(skewness(df.column(&x.attribute)?).abs())
        }
        Mark::Bar | Mark::Line | Mark::Choropleth => {
            let data = lux_vis::process(spec, df, opts)?;
            let y_name = spec
                .channel(Channel::Y)
                .map(|e| e.attribute.as_str())
                .filter(|a| data.has_column(a))
                .unwrap_or("count");
            let ycol = data.column(y_name)?;
            match spec.mark {
                Mark::Bar => {
                    let mut weights = Vec::with_capacity(ycol.len());
                    ycol.for_each_f64(|_, w| weights.push(w));
                    Ok(deviation_from_uniform(&weights))
                }
                _ => Ok(coefficient_of_variation(ycol)),
            }
        }
    }
}

/// Deviation of the filtered view's distribution from the unfiltered one.
fn filtered_deviation(spec: &VisSpec, df: &DataFrame, opts: &ProcessOptions) -> Result<f64> {
    let mut unfiltered = spec.clone();
    unfiltered.filters.clear();
    let with = lux_vis::process(spec, df, opts)?;
    let without = lux_vis::process(&unfiltered, df, opts)?;
    let x_name = spec
        .channel(Channel::X)
        .map(|e| e.attribute.clone())
        .ok_or_else(|| Error::InvalidArgument("no x".into()))?;
    let y_name = spec
        .channel(Channel::Y)
        .map(|e| e.attribute.as_str())
        .filter(|a| with.has_column(a))
        .unwrap_or("count")
        .to_string();
    let dist = |frame: &DataFrame| -> Result<Vec<(Value, f64)>> {
        let x = frame.column(&x_name)?;
        let y = frame.column(&y_name)?;
        let mut dist = Vec::with_capacity(frame.num_rows());
        y.for_each_row_f64(|i, w| dist.push((x.value(i), w.unwrap_or(0.0))));
        Ok(dist)
    };
    Ok(distribution_deviation(&dist(&with)?, &dist(&without)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lux_engine::SemanticType;
    use lux_vis::{Encoding, FilterSpec};

    fn col(vals: &[f64]) -> Column {
        Column::Float64(PrimitiveColumn::from_values(vals.to_vec()))
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let x = col(&[1.0, 2.0, 3.0, 4.0]);
        let y = col(&[2.0, 4.0, 6.0, 8.0]);
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let z = col(&[8.0, 6.0, 4.0, 2.0]);
        assert!((pearson(&x, &z) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_is_zero() {
        let x = col(&[1.0, 1.0, 1.0]);
        let y = col(&[1.0, 2.0, 3.0]);
        assert_eq!(pearson(&x, &y), 0.0);
        assert_eq!(pearson(&col(&[1.0]), &col(&[2.0])), 0.0);
    }

    #[test]
    fn pearson_skips_nulls() {
        let x = Column::Float64(PrimitiveColumn::from_options(vec![
            Some(1.0),
            None,
            Some(2.0),
            Some(3.0),
        ]));
        let y = col(&[1.0, 100.0, 2.0, 3.0]);
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skewness_signs() {
        let sym = col(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(skewness(&sym).abs() < 1e-9);
        let right = col(&[1.0, 1.0, 1.0, 1.0, 10.0]);
        assert!(skewness(&right) > 1.0);
        let left = col(&[-10.0, 1.0, 1.0, 1.0, 1.0]);
        assert!(skewness(&left) < -1.0);
    }

    #[test]
    fn uniform_deviation_bounds() {
        assert!(deviation_from_uniform(&[1.0, 1.0, 1.0]).abs() < 1e-12);
        let skewed = deviation_from_uniform(&[100.0, 1.0, 1.0]);
        assert!(skewed > 0.5);
        assert_eq!(deviation_from_uniform(&[]), 0.0);
        assert_eq!(deviation_from_uniform(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn distribution_deviation_alignment() {
        let a = vec![(Value::str("x"), 1.0), (Value::str("y"), 1.0)];
        assert!(distribution_deviation(&a, &a).abs() < 1e-12);
        let b = vec![(Value::str("x"), 2.0)];
        assert!(distribution_deviation(&a, &b) > 0.1);
        // disjoint labels -> both full masses count
        let c = vec![(Value::str("z"), 1.0)];
        assert!(distribution_deviation(&b, &c) > 1.0);
    }

    #[test]
    fn cv_measures_spread() {
        assert!(coefficient_of_variation(&col(&[5.0, 5.0, 5.0])) < 1e-12);
        assert!(coefficient_of_variation(&col(&[1.0, 10.0, 1.0, 10.0])) > 0.5);
    }

    #[test]
    fn interestingness_scatter_uses_pearson() {
        let df = DataFrameBuilder::new()
            .float("a", [1.0, 2.0, 3.0])
            .float("b", [2.0, 4.0, 6.0])
            .build()
            .unwrap();
        let spec = VisSpec::new(
            Mark::Scatter,
            vec![
                Encoding::new("a", SemanticType::Quantitative, Channel::X),
                Encoding::new("b", SemanticType::Quantitative, Channel::Y),
            ],
            vec![],
        );
        let s = interestingness(&spec, &df, &ProcessOptions::default());
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn interestingness_filtered_bar_measures_subset_deviation() {
        let df = DataFrameBuilder::new()
            .str("dept", ["S", "S", "S", "E", "E", "E"])
            .str("country", ["US", "US", "FR", "FR", "FR", "FR"])
            .build()
            .unwrap();
        let base = VisSpec::new(
            Mark::Bar,
            vec![
                Encoding::new("dept", SemanticType::Nominal, Channel::X),
                Encoding::synthetic_count(Channel::Y),
            ],
            vec![],
        );
        let mut filtered = base.clone();
        filtered
            .filters
            .push(FilterSpec::new("country", FilterOp::Eq, Value::str("US")));
        let s = interestingness(&filtered, &df, &ProcessOptions::default());
        assert!(s > 0.3, "US subset is all-Sales, far from overall: {s}");
    }

    #[test]
    fn interestingness_never_panics_on_bad_spec() {
        let df = DataFrameBuilder::new().float("a", [1.0]).build().unwrap();
        let spec = VisSpec::new(Mark::Scatter, vec![], vec![]);
        assert_eq!(interestingness(&spec, &df, &ProcessOptions::default()), 0.0);
    }
}
