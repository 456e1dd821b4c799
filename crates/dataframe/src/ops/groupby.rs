//! Group-by aggregation, `value_counts`, and `unique`.
//!
//! Group-by aggregation is the primary relational operation behind bar and
//! line charts in the paper's Table 2, so the implementation avoids boxed
//! values on the hot path. Keys with a dense form — dictionary codes, bools,
//! small-span integers, tuples of those — are indexed, not hashed: each row's
//! key is a code in `0..space` and group ids come out of a table of `space`
//! slots. Everything else (floats, wide-span integers, oversized products)
//! is hashed as compact [`KeyPart`]s, which is also the reference semantics.
//! Numeric aggregations run over the typed buffers.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::column::{Column, PrimitiveColumn};
use crate::error::{Error, Result};
use crate::frame::DataFrame;
use crate::history::{Event, OpKind};
use crate::index::Index;
use crate::scan::{for_each_valid, int_span};
use crate::value::{DType, Value};

/// Aggregation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Agg {
    Count,
    Sum,
    Mean,
    Min,
    Max,
    Var,
    Std,
    Median,
    First,
}

impl Agg {
    pub fn name(self) -> &'static str {
        match self {
            Agg::Count => "count",
            Agg::Sum => "sum",
            Agg::Mean => "mean",
            Agg::Min => "min",
            Agg::Max => "max",
            Agg::Var => "var",
            Agg::Std => "std",
            Agg::Median => "median",
            Agg::First => "first",
        }
    }

    /// True for aggregations defined only on numeric columns.
    pub fn requires_numeric(self) -> bool {
        matches!(
            self,
            Agg::Sum | Agg::Mean | Agg::Var | Agg::Std | Agg::Median
        )
    }

    /// Output type given an input type.
    fn output_dtype(self, input: DType) -> DType {
        match self {
            Agg::Count => DType::Int64,
            Agg::Sum => {
                if input == DType::Int64 {
                    DType::Int64
                } else {
                    DType::Float64
                }
            }
            Agg::Mean | Agg::Var | Agg::Std | Agg::Median => DType::Float64,
            Agg::Min | Agg::Max | Agg::First => input,
        }
    }
}

impl fmt::Display for Agg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Compact hashable group-key component of the reference tier.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum KeyPart {
    Null,
    Int(i64),
    /// f64 bit pattern with NaN normalized to a single representation.
    Bits(u64),
    /// Dictionary code (valid within one column).
    Code(u32),
    Bool(bool),
}

fn key_part(col: &Column, row: usize) -> KeyPart {
    match col {
        Column::Int64(c) | Column::DateTime(c) => c.get(row).map_or(KeyPart::Null, KeyPart::Int),
        Column::Float64(c) => c.get(row).map_or(KeyPart::Null, |v| {
            // Normalize NaN to one bit pattern and -0.0 to +0.0 so values
            // that compare equal always land in the same group.
            KeyPart::Bits(if v.is_nan() {
                f64::NAN.to_bits()
            } else if v == 0.0 {
                0f64.to_bits()
            } else {
                v.to_bits()
            })
        }),
        Column::Bool(c) => c.get(row).map_or(KeyPart::Null, KeyPart::Bool),
        Column::Str(c) => c.code(row).map_or(KeyPart::Null, KeyPart::Code),
    }
}

/// A deferred group-by: created by [`DataFrame::groupby`], consumed by
/// [`GroupBy::agg`] or [`GroupBy::count`].
pub struct GroupBy<'a> {
    df: &'a DataFrame,
    keys: Vec<String>,
    /// group id per row
    group_of: Vec<u32>,
    /// first row index of each group, in first-seen order
    representatives: Vec<usize>,
    /// Overflow group id when a cardinality cap cut enumeration short: every
    /// key first seen after the cap folds into this group, rendered as
    /// `"(other)"` (string keys) or null in the result.
    overflow: Option<u32>,
    /// Size of the dense code space the keys were indexed through; `None`
    /// when they went to the hashed reference tier.
    key_space: Option<usize>,
}

/// `(group id per row, first row of each group, overflow group id)`.
type Grouping = (Vec<u32>, Vec<usize>, Option<u32>);

/// Hash-grouping, the reference tier: what float keys, wide-span integers
/// and oversized key products run, and the semantics the dense tier must
/// reproduce. Group ids are assigned in global first-seen order; keys first
/// seen past `max_groups` fold into one overflow group, so the map never
/// holds more than `max_groups` entries however many keys there are.
fn group_rows_sequential<K, F>(nrows: usize, max_groups: usize, extract: F) -> Grouping
where
    K: Eq + std::hash::Hash,
    F: Fn(usize) -> K,
{
    let mut map: HashMap<K, u32> = HashMap::new();
    let mut group_of = Vec::with_capacity(nrows);
    let mut representatives = Vec::new();
    let mut overflow: Option<u32> = None;
    for row in 0..nrows {
        let part = extract(row);
        let id = match map.get(&part) {
            Some(&id) => id,
            None if map.len() < max_groups => {
                let next = representatives.len() as u32;
                representatives.push(row);
                map.insert(part, next);
                next
            }
            None => *overflow.get_or_insert_with(|| {
                let next = representatives.len() as u32;
                representatives.push(row);
                next
            }),
        };
        group_of.push(id);
    }
    (group_of, representatives, overflow)
}

/// The dense tier indexes a table of one slot per possible key, so the key
/// space is bounded twice. Both bounds are constants: the first keeps the
/// table (4 MiB of `u32` at most) from ever being a memory event, the
/// second keeps clearing it cheaper than scanning the rows it serves, with
/// a floor so small frames with modest dictionaries still index.
const DENSE_MAX_SPACE: usize = 1 << 20;
const DENSE_SLOTS_PER_ROW: usize = 4;
const DENSE_MIN_ROWS: usize = 1_024;

/// Largest key space a frame of `nrows` rows is indexed through.
fn dense_space_limit(nrows: usize) -> usize {
    DENSE_MAX_SPACE.min(DENSE_SLOTS_PER_ROW * nrows.max(DENSE_MIN_ROWS))
}

/// One code per row: `code(value)` at valid rows, `null_code` at nulls.
fn codes_of<T: Copy>(
    values: &[T],
    validity: Option<&Bitmap>,
    null_code: u32,
    code: impl Fn(T) -> u32,
) -> Vec<u32> {
    if validity.is_none() {
        return values.iter().map(|&v| code(v)).collect();
    }
    let mut out = vec![null_code; values.len()];
    for_each_valid(validity, 0, values.len(), |i| out[i] = code(values[i]));
    out
}

/// Per-row codes in `0..width` for one key column, equal exactly where the
/// keys are: a string is its dictionary code (borrowed when nothing is
/// null), a bool 0/1, an integer or datetime `v - min`; a column with a
/// validity bitmap gets one extra code, the top one, for null. `None` when
/// the column has no such form (floats) or needs more than `max_width`
/// codes (a wide integer span, a dictionary far larger than the frame) —
/// decided before anything is allocated.
fn key_codes(col: &Column, max_width: usize) -> Option<(Cow<'_, [u32]>, usize)> {
    let validity = col.validity();
    // `values` codes for the values, then the null code (= `values`) if
    // the column can hold a null
    let width_of = |values: u64| {
        let width = usize::try_from(values)
            .ok()?
            .checked_add(validity.is_some() as usize)?;
        (width <= max_width).then_some((width, values as u32))
    };
    match col {
        Column::Str(c) => {
            let (width, null) = width_of(c.dict().len() as u64)?;
            let codes = match validity {
                None => Cow::Borrowed(c.codes()),
                Some(_) => Cow::Owned(codes_of(c.codes(), validity, null, |c| c)),
            };
            Some((codes, width))
        }
        Column::Bool(c) => {
            let (width, null) = width_of(2)?;
            let codes = codes_of(c.values(), validity, null, |b| b as u32);
            Some((Cow::Owned(codes), width))
        }
        Column::Int64(c) | Column::DateTime(c) => {
            let (lo, values) = match int_span(c.values(), validity, 0, c.len()) {
                // hi - lo as u64 is exact even from i64::MIN to i64::MAX
                Some((lo, hi)) => (lo, (hi.wrapping_sub(lo) as u64).checked_add(1)?),
                None => (0, 0),
            };
            let (width, null) = width_of(values)?;
            let codes = codes_of(c.values(), validity, null, |v| v.wrapping_sub(lo) as u32);
            Some((Cow::Owned(codes), width))
        }
        Column::Float64(_) => None,
    }
}

/// Per-row codes in `0..space` for the whole key tuple — the columns' codes
/// combined by mixed radix — when every column has a dense form and the
/// product of their widths fits the bounds.
fn dense_codes<'a>(cols: &[&'a Column], nrows: usize) -> Option<(Cow<'a, [u32]>, usize)> {
    let limit = dense_space_limit(nrows);
    let mut combined: Option<Cow<'a, [u32]>> = None;
    let mut space = 1usize;
    for col in cols {
        // (a zero-width key is a column of an empty frame: no rows, no slots)
        let (codes, width) = key_codes(col, limit / space.max(1))?;
        space *= width;
        combined = Some(match combined {
            None => codes,
            Some(prev) => {
                let radix = width as u32;
                let mixed = prev.iter().zip(&*codes).map(|(&p, &c)| p * radix + c);
                Cow::Owned(mixed.collect())
            }
        });
    }
    Some((combined?, space))
}

/// The dense tier: group ids through a table indexed by key code, in row
/// order, with [`group_rows_sequential`]'s first-seen / cap / overflow rule.
fn group_rows_dense(codes: &[u32], space: usize, max_groups: usize) -> Grouping {
    const UNSEEN: u32 = u32::MAX;
    let mut table = vec![UNSEEN; space];
    let mut group_of = Vec::with_capacity(codes.len());
    let mut representatives = Vec::new();
    let mut overflow: Option<u32> = None;
    for (row, &code) in codes.iter().enumerate() {
        let slot = &mut table[code as usize];
        if *slot == UNSEEN {
            // A key first seen once the overflow group exists belongs to it
            // for good, so the slot can say so.
            *slot = match overflow {
                Some(id) => id,
                None => {
                    let next = representatives.len() as u32;
                    if next as usize == max_groups {
                        overflow = Some(next);
                    }
                    representatives.push(row);
                    next
                }
            };
        }
        group_of.push(*slot);
    }
    (group_of, representatives, overflow)
}

impl DataFrame {
    /// Start a group-by over the named key columns.
    pub fn groupby(&self, keys: &[&str]) -> Result<GroupBy<'_>> {
        self.groupby_impl(keys, usize::MAX)
    }

    /// Start a group-by that enumerates at most `max_groups` distinct keys;
    /// any further distinct keys fold into a single overflow group ("top-K +
    /// other"). This bounds the output cardinality — and therefore memory —
    /// no matter how pathological the key column is.
    pub fn groupby_capped(&self, keys: &[&str], max_groups: usize) -> Result<GroupBy<'_>> {
        self.groupby_impl(keys, max_groups.max(1))
    }

    fn groupby_impl(&self, keys: &[&str], max_groups: usize) -> Result<GroupBy<'_>> {
        if keys.is_empty() {
            return Err(Error::InvalidArgument(
                "groupby requires at least one key".into(),
            ));
        }
        let key_cols: Vec<&Column> = keys.iter().map(|k| self.column(k)).collect::<Result<_>>()?;
        let nrows = self.num_rows();
        let dense = dense_codes(&key_cols, nrows);
        let (group_of, representatives, overflow) = match (&dense, &key_cols[..]) {
            (Some((codes, space)), _) => group_rows_dense(codes, *space, max_groups),
            (None, [col]) => group_rows_sequential(nrows, max_groups, |row| key_part(col, row)),
            (None, cols) => group_rows_sequential(nrows, max_groups, |row| {
                cols.iter().map(|c| key_part(c, row)).collect::<Vec<_>>()
            }),
        };

        Ok(GroupBy {
            df: self,
            keys: keys.iter().map(|s| s.to_string()).collect(),
            group_of,
            representatives,
            overflow,
            key_space: dense.map(|(_, space)| space),
        })
    }

    /// Distinct values of a column, in first-seen order (nulls excluded).
    pub fn unique(&self, column: &str) -> Result<Vec<Value>> {
        let gb = self.groupby(&[column])?;
        let col = self.column(column)?;
        Ok(gb
            .representatives
            .iter()
            .map(|&row| col.value(row))
            .filter(|v| !v.is_null())
            .collect())
    }

    /// Count of distinct non-null values.
    pub fn cardinality(&self, column: &str) -> Result<usize> {
        Ok(self.unique(column)?.len())
    }

    /// Whether the column has more than `limit` distinct non-null values,
    /// answered without enumerating them: the group-by stops admitting keys
    /// at `limit + 1`, so a near-unique column costs one scan and a
    /// `limit`-sized table, never one boxed [`Value`] per distinct value.
    pub fn cardinality_exceeds(&self, column: &str, limit: usize) -> Result<bool> {
        // `limit + 1` groups hold `limit` values and the null group, or
        // `limit + 1` values; anything past that caps.
        let gb = self.groupby_capped(&[column], limit.saturating_add(1))?;
        let null_group = (self.column(column)?.null_count() > 0) as usize;
        Ok(gb.is_capped() || gb.num_groups() - null_group > limit)
    }

    /// Frequency table of a column: columns `[column, "count"]`, sorted by
    /// count descending, with a labeled index.
    pub fn value_counts(&self, column: &str) -> Result<DataFrame> {
        let counted = self.groupby(&[column])?.count()?;
        counted.sort_by(&["count"], false)
    }

    /// [`DataFrame::value_counts`] with at most `max_groups` output rows:
    /// values beyond the cap are folded into an `"(other)"` row.
    pub fn value_counts_capped(&self, column: &str, max_groups: usize) -> Result<DataFrame> {
        let counted = self.groupby_capped(&[column], max_groups)?.count()?;
        counted.sort_by(&["count"], false)
    }
}

impl GroupBy<'_> {
    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.representatives.len()
    }

    /// Group id for each row.
    pub fn group_ids(&self) -> &[u32] {
        &self.group_of
    }

    /// True when the `max_groups` cap fired and an overflow group exists.
    pub fn is_capped(&self) -> bool {
        self.overflow.is_some()
    }

    /// Size of the code space the keys were direct-indexed through, `None`
    /// when they were hashed (mechanism checks only).
    #[doc(hidden)]
    pub fn key_space(&self) -> Option<usize> {
        self.key_space
    }

    /// Count rows per group: output columns are the keys plus `"count"`.
    pub fn count(&self) -> Result<DataFrame> {
        let ngroups = self.num_groups();
        let mut counts = vec![0i64; ngroups];
        for &g in &self.group_of {
            counts[g as usize] += 1;
        }
        let count_col = Column::Int64(PrimitiveColumn::from_values(counts));
        self.finish(vec![("count".to_string(), count_col)], "count")
    }

    /// Aggregate: one output column per `(source column, agg)` pair. Output
    /// columns are named after the source column, or `"{column}_{agg}"` when
    /// the same source appears more than once.
    pub fn agg(&self, specs: &[(&str, Agg)]) -> Result<DataFrame> {
        let mut out: Vec<(String, Column)> = Vec::with_capacity(specs.len());
        for &(col_name, agg) in specs {
            let source = self.df.column(col_name)?;
            if agg.requires_numeric() && !source.dtype().is_numeric() {
                return Err(Error::UnsupportedAggregation {
                    agg: agg.name(),
                    dtype: source.dtype().name(),
                });
            }
            let duplicated = specs.iter().filter(|(c, _)| *c == col_name).count() > 1;
            let name = if duplicated {
                format!("{col_name}_{agg}")
            } else {
                col_name.to_string()
            };
            let column = self.aggregate_column(source, agg)?;
            out.push((name, column));
        }
        let detail = specs
            .iter()
            .map(|(c, a)| format!("{c}:{a}"))
            .collect::<Vec<_>>()
            .join(",");
        self.finish(out, &detail)
    }

    /// Per-group sums of an integer column in integer arithmetic — exact
    /// where `mean * n` is not (above 2^53, and off by one below it). Null
    /// for a group with no valid row; `None` when some group's sum does not
    /// fit an `i64`.
    fn sum_i64(&self, source: &PrimitiveColumn<i64>) -> Option<Column> {
        // i128 cannot overflow over fewer than 2^64 rows, so only the final
        // sums need checking, not every addition.
        let mut sums: Vec<Option<i128>> = vec![None; self.num_groups()];
        let values = source.values();
        for_each_valid(source.validity(), 0, values.len(), |row| {
            *sums[self.group_of[row] as usize].get_or_insert(0) += values[row] as i128;
        });
        let sums: Option<Vec<Option<i64>>> = sums
            .into_iter()
            .map(|sum| sum.map(i64::try_from).transpose().ok())
            .collect();
        Some(Column::Int64(PrimitiveColumn::from_options(sums?)))
    }

    fn aggregate_column(&self, source: &Column, agg: Agg) -> Result<Column> {
        let ngroups = self.num_groups();
        if let (Agg::Sum, Column::Int64(ints)) = (agg, source) {
            // An overflowing group sends the whole column down the float
            // path below, with the float path's `Float64` result.
            if let Some(sums) = self.sum_i64(ints) {
                return Ok(sums);
            }
        }
        match agg {
            Agg::Count => {
                let mut counts = vec![0i64; ngroups];
                for_each_valid(source.validity(), 0, source.len(), |row| {
                    counts[self.group_of[row] as usize] += 1;
                });
                Ok(Column::Int64(PrimitiveColumn::from_values(counts)))
            }
            Agg::Sum | Agg::Mean | Agg::Var | Agg::Std => {
                // single Welford pass covers all four
                let mut n = vec![0u64; ngroups];
                let mut mean = vec![0f64; ngroups];
                let mut m2 = vec![0f64; ngroups];
                source.for_each_f64(|row, v| {
                    let g = self.group_of[row] as usize;
                    n[g] += 1;
                    let delta = v - mean[g];
                    mean[g] += delta / n[g] as f64;
                    m2[g] += delta * (v - mean[g]);
                });
                let vals: Vec<Option<f64>> = (0..ngroups)
                    .map(|g| {
                        if n[g] == 0 {
                            return None;
                        }
                        Some(match agg {
                            Agg::Sum => mean[g] * n[g] as f64,
                            Agg::Mean => mean[g],
                            Agg::Var => {
                                if n[g] > 1 {
                                    m2[g] / (n[g] - 1) as f64
                                } else {
                                    0.0
                                }
                            }
                            Agg::Std => {
                                if n[g] > 1 {
                                    (m2[g] / (n[g] - 1) as f64).sqrt()
                                } else {
                                    0.0
                                }
                            }
                            _ => unreachable!(),
                        })
                    })
                    .collect();
                Ok(Column::Float64(PrimitiveColumn::from_options(vals)))
            }
            Agg::Median => {
                let mut per_group: Vec<Vec<f64>> = vec![Vec::new(); ngroups];
                source.for_each_f64(|row, v| {
                    if !v.is_nan() {
                        per_group[self.group_of[row] as usize].push(v);
                    }
                });
                let vals: Vec<Option<f64>> = per_group
                    .into_iter()
                    .map(|mut vs| {
                        if vs.is_empty() {
                            return None;
                        }
                        vs.sort_by(f64::total_cmp);
                        let mid = vs.len() / 2;
                        Some(if vs.len() % 2 == 1 {
                            vs[mid]
                        } else {
                            (vs[mid - 1] + vs[mid]) / 2.0
                        })
                    })
                    .collect();
                Ok(Column::Float64(PrimitiveColumn::from_options(vals)))
            }
            Agg::Min | Agg::Max | Agg::First => {
                let mut best: Vec<Value> = vec![Value::Null; ngroups];
                for (row, &g) in self.group_of.iter().enumerate() {
                    let v = source.value(row);
                    if v.is_null() {
                        continue;
                    }
                    let slot = &mut best[g as usize];
                    let replace = match (agg, &*slot) {
                        (_, Value::Null) => true,
                        (Agg::First, _) => false,
                        (Agg::Min, cur) => v.total_cmp(cur).is_lt(),
                        (Agg::Max, cur) => v.total_cmp(cur).is_gt(),
                        _ => unreachable!(),
                    };
                    if replace {
                        *slot = v;
                    }
                }
                // preserve the input dtype even when all groups are null
                let mut col = Column::empty(agg.output_dtype(source.dtype()));
                for v in &best {
                    col.push_value(v)?;
                }
                Ok(col)
            }
        }
    }

    /// Assemble the result frame: key columns first (gathered from group
    /// representatives), then aggregate columns; a single key also becomes
    /// the labeled index, which is what marks the frame "pre-aggregated" for
    /// Lux's structure-based recommendations.
    fn finish(&self, aggs: Vec<(String, Column)>, detail: &str) -> Result<DataFrame> {
        // The overflow group's representative row carries an arbitrary key;
        // patch it to "(other)" (string keys) or null so the fold is visible.
        let levels: Vec<Column> = self
            .keys
            .iter()
            .map(|key| {
                let taken = self.df.column(key)?.take(&self.representatives);
                Ok(match self.overflow {
                    Some(ov) => patch_row(taken, ov as usize),
                    None => taken,
                })
            })
            .collect::<Result<_>>()?;
        let mut names = Vec::with_capacity(self.keys.len() + aggs.len());
        let mut cols: Vec<Arc<Column>> = Vec::with_capacity(self.keys.len() + aggs.len());
        for (key, level) in self.keys.iter().zip(&levels) {
            names.push(key.clone());
            cols.push(Arc::new(level.clone()));
        }
        for (name, col) in aggs {
            if names.contains(&name) {
                return Err(Error::DuplicateColumn(name));
            }
            names.push(name);
            cols.push(Arc::new(col));
        }
        let index = match <[Column; 1]>::try_from(levels) {
            Ok([level]) => Index::labels(Some(self.keys[0].clone()), level),
            // Multi-key group-bys carry a multi-level index (the paper's
            // future-work extension; see crate::index).
            Err(levels) => {
                Index::multi_labels(self.keys.iter().map(|k| Some(k.clone())).collect(), levels)
            }
        };
        let event = Event::new(
            OpKind::Aggregate,
            format!("groupby({:?}).agg({detail})", self.keys),
        )
        .with_columns(self.keys.clone());
        Ok(self.df.derive(names, cols, index, event))
    }
}

/// `col` with row `row` replaced by `"(other)"` for string columns or null
/// otherwise, in place: a string column interns `"(other)"` once (copying a
/// dictionary it shares) and sets that row's code. Only ever applied to the
/// (already capped) group-key gather, never to full-height data.
fn patch_row(mut col: Column, row: usize) -> Column {
    match &mut col {
        Column::Str(c) => c.set(row, "(other)"),
        Column::Int64(c) | Column::DateTime(c) => c.set_null(row),
        Column::Float64(c) => c.set_null(row),
        Column::Bool(c) => c.set_null(row),
    }
    col
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::DataFrameBuilder;

    fn df() -> DataFrame {
        DataFrameBuilder::new()
            .str("dept", ["Sales", "Eng", "Sales", "Eng", "Sales"])
            .int("age", [25, 32, 47, 28, 36])
            .float("pay", [50.0, 80.0, 60.0, 90.0, 70.0])
            .build()
            .unwrap()
    }

    #[test]
    fn count_per_group() {
        let c = df().groupby(&["dept"]).unwrap().count().unwrap();
        assert_eq!(c.num_rows(), 2);
        let sales = c
            .filter("dept", crate::ops::FilterOp::Eq, &Value::str("Sales"))
            .unwrap();
        assert_eq!(sales.value(0, "count").unwrap(), Value::Int(3));
    }

    #[test]
    fn mean_sum_var_std() {
        let df = df();
        let g = df.groupby(&["dept"]).unwrap();
        let a = g.agg(&[("pay", Agg::Mean), ("age", Agg::Sum)]).unwrap();
        let eng = a
            .filter("dept", crate::ops::FilterOp::Eq, &Value::str("Eng"))
            .unwrap();
        assert_eq!(eng.value(0, "pay").unwrap(), Value::Float(85.0));
        assert_eq!(eng.value(0, "age").unwrap(), Value::Int(60));
        let v = g.agg(&[("pay", Agg::Var), ("pay", Agg::Std)]).unwrap();
        assert!(v.has_column("pay_var") && v.has_column("pay_std"));
        let eng = v
            .filter("dept", crate::ops::FilterOp::Eq, &Value::str("Eng"))
            .unwrap();
        assert_eq!(eng.value(0, "pay_var").unwrap(), Value::Float(50.0));
    }

    #[test]
    fn min_max_first_median() {
        let df = df();
        let g = df.groupby(&["dept"]).unwrap();
        let a = g.agg(&[("age", Agg::Min), ("pay", Agg::Max)]).unwrap();
        let sales = a
            .filter("dept", crate::ops::FilterOp::Eq, &Value::str("Sales"))
            .unwrap();
        assert_eq!(sales.value(0, "age").unwrap(), Value::Int(25));
        assert_eq!(sales.value(0, "pay").unwrap(), Value::Float(70.0));
        let m = g.agg(&[("pay", Agg::Median)]).unwrap();
        let sales = m
            .filter("dept", crate::ops::FilterOp::Eq, &Value::str("Sales"))
            .unwrap();
        assert_eq!(sales.value(0, "pay").unwrap(), Value::Float(60.0));
        let f = g.agg(&[("age", Agg::First)]).unwrap();
        let eng = f
            .filter("dept", crate::ops::FilterOp::Eq, &Value::str("Eng"))
            .unwrap();
        assert_eq!(eng.value(0, "age").unwrap(), Value::Int(32));
    }

    #[test]
    fn numeric_agg_on_string_errors() {
        let df = df();
        let g = df.groupby(&["dept"]).unwrap();
        assert!(matches!(
            g.agg(&[("dept", Agg::Mean)]),
            Err(Error::UnsupportedAggregation { .. })
        ));
    }

    #[test]
    fn single_key_result_has_labeled_index() {
        let a = df().groupby(&["dept"]).unwrap().count().unwrap();
        assert!(a.index().is_labeled());
        assert_eq!(a.index().name(), Some("dept"));
        assert!(a.history().contains(OpKind::Aggregate));
    }

    #[test]
    fn multi_key_groupby() {
        let df = DataFrameBuilder::new()
            .str("a", ["x", "x", "y", "y"])
            .int("b", [1, 1, 1, 2])
            .float("v", [1.0, 2.0, 3.0, 4.0])
            .build()
            .unwrap();
        let a = df
            .groupby(&["a", "b"])
            .unwrap()
            .agg(&[("v", Agg::Sum)])
            .unwrap();
        assert_eq!(a.num_rows(), 3);
        assert!(a.index().is_labeled());
        assert_eq!(a.index().num_levels(), 2);
        assert_eq!(a.index().level_names(), vec![Some("a"), Some("b")]);
    }

    #[test]
    fn null_keys_form_their_own_group() {
        let col = Column::Str(crate::column::StrColumn::from_options([
            Some("a"),
            None,
            Some("a"),
            None,
        ]));
        let v = Column::Int64(PrimitiveColumn::from_values(vec![1, 2, 3, 4]));
        let df = DataFrame::from_columns(vec![("k".into(), col), ("v".into(), v)]).unwrap();
        let a = df.groupby(&["k"]).unwrap().count().unwrap();
        assert_eq!(a.num_rows(), 2);
    }

    #[test]
    fn unique_and_cardinality() {
        let u = df().unique("dept").unwrap();
        assert_eq!(u, vec![Value::str("Sales"), Value::str("Eng")]);
        assert_eq!(df().cardinality("dept").unwrap(), 2);
        assert_eq!(df().cardinality("age").unwrap(), 5);
    }

    #[test]
    fn value_counts_sorted_desc() {
        let vc = df().value_counts("dept").unwrap();
        assert_eq!(vc.value(0, "dept").unwrap(), Value::str("Sales"));
        assert_eq!(vc.value(0, "count").unwrap(), Value::Int(3));
        assert_eq!(vc.value(1, "count").unwrap(), Value::Int(2));
    }

    #[test]
    fn capped_groupby_folds_overflow_into_other() {
        let df = DataFrameBuilder::new()
            .str("k", (0..100).map(|i| format!("key{i}")))
            .int("v", 0..100)
            .build()
            .unwrap();
        let g = df.groupby_capped(&["k"], 10).unwrap();
        assert!(g.is_capped());
        assert_eq!(g.num_groups(), 11); // 10 kept + "(other)"
        let c = g.count().unwrap();
        assert_eq!(c.num_rows(), 11);
        let other = c
            .filter("k", crate::ops::FilterOp::Eq, &Value::str("(other)"))
            .unwrap();
        assert_eq!(other.value(0, "count").unwrap(), Value::Int(90));
        // counts still cover every input row
        let total: i64 = (0..c.num_rows())
            .map(|r| match c.value(r, "count").unwrap() {
                Value::Int(n) => n,
                _ => 0,
            })
            .sum();
        assert_eq!(total, 100);
        // the index label is patched too
        assert!((0..11).any(|r| c.index().label(r) == Value::str("(other)")));
    }

    #[test]
    fn capped_groupby_below_cap_is_exact() {
        let df = df();
        let g = df.groupby_capped(&["dept"], 10).unwrap();
        assert!(!g.is_capped());
        assert_eq!(g.num_groups(), 2);
    }

    #[test]
    fn value_counts_capped_bounds_rows() {
        let df = DataFrameBuilder::new().int("k", 0..50).build().unwrap();
        let vc = df.value_counts_capped("k", 5).unwrap();
        assert_eq!(vc.num_rows(), 6);
        // numeric overflow key renders as null
        assert!((0..6).any(|r| vc.value(r, "k").unwrap() == Value::Null));
        assert_eq!(vc.value(0, "count").unwrap(), Value::Int(45)); // "(other)" sorts first
    }

    #[test]
    fn negative_zero_groups_with_positive_zero() {
        let df = DataFrameBuilder::new()
            .float("x", [0.0, -0.0, 1.0])
            .build()
            .unwrap();
        assert_eq!(df.groupby(&["x"]).unwrap().num_groups(), 2);
        assert_eq!(df.cardinality("x").unwrap(), 2);
    }

    /// Both tiers on the same keys: a 20-bit-wide integer span is hashed, the
    /// same values shifted into a small span are indexed, and the grouping
    /// (ids, representatives, overflow) is the same either way.
    #[test]
    fn dense_and_hashed_tiers_group_alike() {
        let n = 20_000i64;
        let build = |stretch: i64| {
            DataFrameBuilder::new()
                .str("k", (0..n).map(|i| format!("key{}", i % 113)))
                .int("kind", (0..n).map(|i| (i % 7) * stretch))
                .build()
                .unwrap()
        };
        let (narrow, wide) = (build(1), build(1 << 40));
        for (keys, cap) in [
            (&["kind"][..], usize::MAX),
            (&["k", "kind"][..], usize::MAX),
            (&["k", "kind"][..], 10),
        ] {
            let dense = narrow.groupby_capped(keys, cap).unwrap();
            let hashed = wide.groupby_capped(keys, cap).unwrap();
            assert!(dense.key_space().is_some() && hashed.key_space().is_none());
            assert_eq!(dense.group_ids(), hashed.group_ids());
            assert_eq!(dense.representatives, hashed.representatives);
            assert_eq!(dense.overflow, hashed.overflow);
        }
        assert_eq!(narrow.groupby(&["k"]).unwrap().key_space(), Some(113));
    }

    #[test]
    fn integer_sum_is_exact_and_overflow_falls_back_to_float() {
        let big = (1i64 << 53) + 1;
        let df = DataFrameBuilder::new()
            .str("g", ["a", "a", "a", "b"])
            .int("v", [big, 1, 1, 7])
            .build()
            .unwrap();
        let sums = df.groupby(&["g"]).unwrap().agg(&[("v", Agg::Sum)]).unwrap();
        // `mean * n` rounds this to 2^53 + 4
        assert_eq!(sums.value(0, "v").unwrap(), Value::Int(big + 2));
        assert_eq!(sums.value(1, "v").unwrap(), Value::Int(7));

        let df = DataFrameBuilder::new()
            .str("g", ["a", "a", "b"])
            .int("v", [i64::MAX, 1, 7])
            .build()
            .unwrap();
        let sums = df.groupby(&["g"]).unwrap().agg(&[("v", Agg::Sum)]).unwrap();
        assert_eq!(sums.column("v").unwrap().dtype(), DType::Float64);
        assert_eq!(sums.value(0, "v").unwrap(), Value::Float(2f64.powi(63)));
        assert_eq!(sums.value(1, "v").unwrap(), Value::Float(7.0));
    }

    #[test]
    fn cardinality_exceeds_counts_non_null_values_only() {
        let col = |n: i64, nulls: bool| {
            let vals = (0..1_000).map(|i| (!nulls || i % 10 != 0).then_some(i % n));
            let col = Column::Int64(PrimitiveColumn::from_options(vals.collect()));
            DataFrame::from_columns(vec![("k".into(), col)]).unwrap()
        };
        for nulls in [false, true] {
            assert!(!col(64, nulls).cardinality_exceeds("k", 64).unwrap());
            assert!(col(65, nulls).cardinality_exceeds("k", 64).unwrap());
            assert!(col(900, nulls).cardinality_exceeds("k", 64).unwrap());
            assert!(col(1, nulls).cardinality_exceeds("k", 0).unwrap());
        }
    }

    #[test]
    fn agg_count_skips_nulls() {
        let k = Column::Str(crate::column::StrColumn::from_strings(["a", "a", "b"]));
        let v = Column::Int64(PrimitiveColumn::from_options(vec![Some(1), None, Some(3)]));
        let df = DataFrame::from_columns(vec![("k".into(), k), ("v".into(), v)]).unwrap();
        let a = df
            .groupby(&["k"])
            .unwrap()
            .agg(&[("v", Agg::Count)])
            .unwrap();
        let row_a = a
            .filter("k", crate::ops::FilterOp::Eq, &Value::str("a"))
            .unwrap();
        assert_eq!(row_a.value(0, "v").unwrap(), Value::Int(1));
    }

    /// The value-by-value rebuild `patch_row` replaced, kept as its
    /// reference.
    fn patch_row_by_values(col: &Column, row: usize) -> Column {
        let replacement = match col {
            Column::Str(_) => Value::str("(other)"),
            _ => Value::Null,
        };
        let mut out = Column::empty(col.dtype());
        for i in 0..col.len() {
            let v = if i == row {
                replacement.clone()
            } else {
                col.value(i)
            };
            out.push_value(&v).unwrap();
        }
        out
    }

    /// Every cell, floats by Debug so NaN and -0.0 compare as themselves.
    fn cells(col: &Column) -> Vec<String> {
        (0..col.len())
            .map(|i| format!("{:?}", col.value(i)))
            .collect()
    }

    #[test]
    fn patch_row_matches_the_value_by_value_rebuild() {
        use crate::column::StrColumn;
        let source = StrColumn::from_options([Some("a"), Some("(other)"), None, Some("b")]);
        let cols = [
            // "(other)" already a real value, and a null key
            Column::Str(source.clone()),
            // a gather that shares a larger dictionary
            Column::Str(source.take(&[3, 2, 0])),
            Column::Str(StrColumn::from_strings(["x", "y", "x"])),
            Column::Int64(PrimitiveColumn::from_values(vec![4, 5, 6])),
            Column::Int64(PrimitiveColumn::from_options(vec![Some(1), None, Some(3)])),
            Column::Float64(PrimitiveColumn::from_options(vec![
                Some(f64::NAN),
                Some(-0.0),
                None,
            ])),
            Column::Bool(PrimitiveColumn::from_values(vec![true, false, true])),
            Column::DateTime(PrimitiveColumn::from_values(vec![86_400, 0, -1])),
        ];
        for col in cols {
            for row in 0..col.len() {
                let got = patch_row(col.clone(), row);
                let want = patch_row_by_values(&col, row);
                assert_eq!(got.dtype(), want.dtype());
                assert_eq!(cells(&got), cells(&want), "{col:?} at row {row}");
                assert_eq!(got.null_count(), want.null_count(), "{col:?} at row {row}");
                if let Column::Str(c) = &got {
                    let others = c.dict().iter().filter(|s| s.as_ref() == "(other)");
                    assert_eq!(others.count(), 1, "\"(other)\" interned once");
                }
            }
        }
        // the source's dictionary never sees a patch
        assert_eq!(source.dict().len(), 3);
        let fresh = StrColumn::from_strings(["p", "q"]);
        patch_row(Column::Str(fresh.take(&[1, 0])), 0);
        assert_eq!(fresh.code_of("(other)"), None);
    }

    #[test]
    fn capped_index_levels_carry_the_patched_keys() {
        let df = DataFrameBuilder::new()
            .str("k", ["a", "b", "c", "a", "d"])
            .int("n", [1, 2, 3, 1, 4])
            .build()
            .unwrap();
        // (a, 1) and (b, 2) fit the cap; row 2 founds the overflow group
        let multi = df.groupby_capped(&["k", "n"], 2).unwrap().count().unwrap();
        assert_eq!(multi.value(2, "k").unwrap(), Value::str("(other)"));
        assert!(multi.value(2, "n").unwrap().is_null());
        for (level, key) in ["k", "n"].into_iter().enumerate() {
            let values = multi.index().level_values(level).unwrap();
            assert_eq!(cells(values), cells(multi.column(key).unwrap()), "{key}");
        }
        let single = df.groupby_capped(&["k"], 2).unwrap().count().unwrap();
        assert_eq!(
            cells(single.index().values().unwrap()),
            cells(single.column("k").unwrap())
        );
        assert_eq!(single.value(2, "k").unwrap(), Value::str("(other)"));
    }
}
