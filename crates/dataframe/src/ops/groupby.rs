//! Group-by aggregation, `value_counts`, and `unique`.
//!
//! Group-by aggregation is the primary relational operation behind bar and
//! line charts in the paper's Table 2, so the implementation avoids boxed
//! values on the hot path: keys are hashed as compact [`KeyPart`]s (string
//! keys compare dictionary codes, floats compare bit patterns) and numeric
//! aggregations run over the typed buffers.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::column::Column;
use crate::error::{Error, Result};
use crate::frame::DataFrame;
use crate::history::{Event, OpKind};
use crate::index::Index;
use crate::scan::for_each_valid;
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

/// Compact hashable group-key component.
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
}

/// Rows below this run the sequential kernel even when parallelism is
/// requested: sharding overhead swamps the win on small frames.
const PARALLEL_GROUPBY_MIN_ROWS: usize = 8_192;

/// Minimum rows per shard; caps the shard count for mid-sized frames.
const PARALLEL_GROUPBY_MIN_SHARD: usize = 2_048;

/// Sequential hash-grouping: the reference semantics every other path must
/// reproduce. Group ids are assigned in global first-seen order; keys first
/// seen past `max_groups` fold into one overflow group.
fn group_rows_sequential<K, F>(
    nrows: usize,
    max_groups: usize,
    extract: &F,
) -> (Vec<u32>, Vec<usize>, Option<u32>)
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

/// One shard's partial grouping over a contiguous row range.
struct ShardGroups {
    /// First row (global index) of each shard-local group, first-seen order.
    reps: Vec<usize>,
    /// Shard-local group id per row of the range.
    local_of: Vec<u32>,
    /// The shard-local map hit `max_groups`; the scan stopped early.
    capped: bool,
}

/// Sharded parallel hash-grouping: each worker builds a partial map over a
/// contiguous row range, then the partials merge sequentially *in shard
/// order*, which reproduces the exact global first-seen group ids and
/// representatives of [`group_rows_sequential`]. Returns `None` — fall back
/// to the sequential kernel — whenever the `max_groups` cap binds (a shard
/// hit the cap locally, or the merged distinct count crossed it): overflow
/// folding is order-sensitive, and only the sequential scan gets it right.
fn group_rows_sharded<K, F>(
    nrows: usize,
    max_groups: usize,
    par: usize,
    extract: &F,
) -> Option<(Vec<u32>, Vec<usize>, Option<u32>)>
where
    K: Eq + std::hash::Hash + Send,
    F: Fn(usize) -> K + Sync,
{
    let shards = par.min(nrows / PARALLEL_GROUPBY_MIN_SHARD).max(1);
    if shards <= 1 {
        return None;
    }
    let chunk = nrows.div_ceil(shards);
    let slots: Vec<std::sync::Mutex<Option<ShardGroups>>> =
        (0..shards).map(|_| std::sync::Mutex::new(None)).collect();
    crate::parallel::run(shards, shards, &|s| {
        let lo = s * chunk;
        let hi = ((s + 1) * chunk).min(nrows);
        let mut map: HashMap<K, u32> = HashMap::new();
        let mut reps = Vec::new();
        let mut local_of = Vec::with_capacity(hi - lo);
        let mut capped = false;
        for row in lo..hi {
            let part = extract(row);
            let id = match map.get(&part) {
                Some(&id) => id,
                None if map.len() < max_groups => {
                    let next = reps.len() as u32;
                    reps.push(row);
                    map.insert(part, next);
                    next
                }
                None => {
                    // Local cap hit: abandon this shard — the caller falls
                    // back to the sequential kernel, whose map is bounded
                    // by the same cap, so memory stays bounded either way.
                    capped = true;
                    break;
                }
            };
            local_of.push(id);
        }
        if let Ok(mut slot) = slots[s].lock() {
            *slot = Some(ShardGroups {
                reps,
                local_of,
                capped,
            });
        }
    });
    let mut map: HashMap<K, u32> = HashMap::new();
    let mut representatives = Vec::new();
    let mut group_of = vec![0u32; nrows];
    let mut offset = 0usize;
    for slot in &slots {
        let out = slot.lock().ok()?.take()?;
        if out.capped {
            return None;
        }
        let mut translate = Vec::with_capacity(out.reps.len());
        for &rep in &out.reps {
            let part = extract(rep);
            let id = match map.get(&part) {
                Some(&id) => id,
                None => {
                    if representatives.len() >= max_groups {
                        return None; // cap binds across shards: fall back
                    }
                    let next = representatives.len() as u32;
                    representatives.push(rep);
                    map.insert(part, next);
                    next
                }
            };
            translate.push(id);
        }
        for (i, &lid) in out.local_of.iter().enumerate() {
            group_of[offset + i] = translate[lid as usize];
        }
        offset += out.local_of.len();
    }
    debug_assert_eq!(offset, nrows);
    Some((group_of, representatives, None))
}

fn group_rows<K, F>(
    nrows: usize,
    max_groups: usize,
    par: usize,
    extract: F,
) -> (Vec<u32>, Vec<usize>, Option<u32>)
where
    K: Eq + std::hash::Hash + Send,
    F: Fn(usize) -> K + Sync,
{
    if par > 1 && nrows >= PARALLEL_GROUPBY_MIN_ROWS && crate::parallel::has_executor() {
        if let Some(r) = group_rows_sharded(nrows, max_groups, par, &extract) {
            return r;
        }
    }
    group_rows_sequential(nrows, max_groups, &extract)
}

impl DataFrame {
    /// Start a group-by over the named key columns.
    pub fn groupby(&self, keys: &[&str]) -> Result<GroupBy<'_>> {
        self.groupby_impl(keys, usize::MAX, 1)
    }

    /// [`DataFrame::groupby`] with the hash-grouping scan sharded over up to
    /// `par` pool workers. Results are identical to the sequential kernel
    /// for every `par` (group ids stay in global first-seen order).
    pub fn groupby_par(&self, keys: &[&str], par: usize) -> Result<GroupBy<'_>> {
        self.groupby_impl(keys, usize::MAX, par)
    }

    /// Start a group-by that enumerates at most `max_groups` distinct keys;
    /// any further distinct keys fold into a single overflow group ("top-K +
    /// other"). This bounds the output cardinality — and therefore memory —
    /// no matter how pathological the key column is.
    pub fn groupby_capped(&self, keys: &[&str], max_groups: usize) -> Result<GroupBy<'_>> {
        self.groupby_impl(keys, max_groups.max(1), 1)
    }

    /// [`DataFrame::groupby_capped`] with a sharded parallel scan. When the
    /// cap actually binds the kernel reruns sequentially (overflow folding
    /// is order-sensitive), so capped results too are `par`-independent.
    pub fn groupby_capped_par(
        &self,
        keys: &[&str],
        max_groups: usize,
        par: usize,
    ) -> Result<GroupBy<'_>> {
        self.groupby_impl(keys, max_groups.max(1), par)
    }

    fn groupby_impl(&self, keys: &[&str], max_groups: usize, par: usize) -> Result<GroupBy<'_>> {
        if keys.is_empty() {
            return Err(Error::InvalidArgument(
                "groupby requires at least one key".into(),
            ));
        }
        let key_cols: Vec<&Column> = keys.iter().map(|k| self.column(k)).collect::<Result<_>>()?;
        let nrows = self.num_rows();
        let (group_of, representatives, overflow) = if key_cols.len() == 1 {
            let col = key_cols[0];
            group_rows(nrows, max_groups, par, |row| key_part(col, row))
        } else {
            let cols = &key_cols;
            group_rows(nrows, max_groups, par, |row| {
                cols.iter().map(|c| key_part(c, row)).collect::<Vec<_>>()
            })
        };

        Ok(GroupBy {
            df: self,
            keys: keys.iter().map(|s| s.to_string()).collect(),
            group_of,
            representatives,
            overflow,
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

    /// [`DataFrame::value_counts_capped`] with the grouping scan sharded
    /// over up to `par` pool workers.
    pub fn value_counts_capped_par(
        &self,
        column: &str,
        max_groups: usize,
        par: usize,
    ) -> Result<DataFrame> {
        let counted = self
            .groupby_capped_par(&[column], max_groups, par)?
            .count()?;
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

    /// Count rows per group: output columns are the keys plus `"count"`.
    pub fn count(&self) -> Result<DataFrame> {
        let ngroups = self.num_groups();
        let mut counts = vec![0i64; ngroups];
        for &g in &self.group_of {
            counts[g as usize] += 1;
        }
        let count_col = Column::Int64(crate::column::PrimitiveColumn::from_values(counts));
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

    fn aggregate_column(&self, source: &Column, agg: Agg) -> Result<Column> {
        let ngroups = self.num_groups();
        match agg {
            Agg::Count => {
                let mut counts = vec![0i64; ngroups];
                for_each_valid(source.validity(), 0, source.len(), |row| {
                    counts[self.group_of[row] as usize] += 1;
                });
                Ok(Column::Int64(crate::column::PrimitiveColumn::from_values(
                    counts,
                )))
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
                if agg == Agg::Sum && source.dtype() == DType::Int64 {
                    let ints: Vec<Option<i64>> =
                        vals.iter().map(|v| v.map(|x| x.round() as i64)).collect();
                    Ok(Column::Int64(crate::column::PrimitiveColumn::from_options(
                        ints,
                    )))
                } else {
                    Ok(Column::Float64(
                        crate::column::PrimitiveColumn::from_options(vals),
                    ))
                }
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
                Ok(Column::Float64(
                    crate::column::PrimitiveColumn::from_options(vals),
                ))
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
        let gather = |source: &Column| -> Result<Column> {
            let taken = source.take(&self.representatives);
            match self.overflow {
                Some(ov) => patch_row(&taken, ov as usize),
                None => Ok(taken),
            }
        };
        let mut names = Vec::with_capacity(self.keys.len() + aggs.len());
        let mut cols: Vec<Arc<Column>> = Vec::with_capacity(self.keys.len() + aggs.len());
        for key in &self.keys {
            let source = self.df.column(key)?;
            names.push(key.clone());
            cols.push(Arc::new(gather(source)?));
        }
        for (name, col) in aggs {
            if names.contains(&name) {
                return Err(Error::DuplicateColumn(name));
            }
            names.push(name);
            cols.push(Arc::new(col));
        }
        let index = if self.keys.len() == 1 {
            Index::labels(
                Some(self.keys[0].clone()),
                gather(self.df.column(&self.keys[0])?)?,
            )
        } else {
            // Multi-key group-bys carry a multi-level index (the paper's
            // future-work extension; see crate::index).
            let levels: Vec<Column> = self
                .keys
                .iter()
                .map(|k| gather(self.df.column(k)?))
                .collect::<Result<_>>()?;
            Index::multi_labels(self.keys.iter().map(|k| Some(k.clone())).collect(), levels)
        };
        let event = Event::new(
            OpKind::Aggregate,
            format!("groupby({:?}).agg({detail})", self.keys),
        )
        .with_columns(self.keys.clone());
        Ok(self.df.derive_with_parent(names, cols, index, event))
    }
}

/// Rebuild `col` with row `row` replaced by `"(other)"` for string columns
/// or null otherwise. O(len), and only ever applied to the (already capped)
/// group-key gather, never to full-height data.
fn patch_row(col: &Column, row: usize) -> Result<Column> {
    let replacement = match col {
        Column::Str(_) => Value::str("(other)"),
        _ => Value::Null,
    };
    let mut out = Column::empty(col.dtype());
    for i in 0..col.len() {
        if i == row {
            out.push_value(&replacement)?;
        } else {
            out.push_value(&col.value(i))?;
        }
    }
    Ok(out)
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
        let v = Column::Int64(crate::column::PrimitiveColumn::from_values(vec![
            1, 2, 3, 4,
        ]));
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

    /// A plain scoped-thread executor, installed so the sharded kernel runs
    /// for real inside this crate's tests (the work-stealing pool lives in
    /// `lux-engine` and installs itself the same way).
    struct ScopedExec;
    impl crate::parallel::ParallelExec for ScopedExec {
        fn run(&self, par: usize, n: usize, body: &(dyn Fn(usize) + Sync)) {
            use std::sync::atomic::{AtomicUsize, Ordering};
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..par.min(n).max(1) {
                    s.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        body(i);
                    });
                }
            });
        }
    }

    fn install_test_executor() {
        static EXEC: ScopedExec = ScopedExec;
        crate::parallel::install_executor(&EXEC);
    }

    fn tall_df(n: i64) -> DataFrame {
        DataFrameBuilder::new()
            .str("k", (0..n).map(|i| format!("key{}", i % 113)))
            .int("kind", (0..n).map(|i| i % 7))
            .float("v", (0..n).map(|i| (i % 31) as f64))
            .build()
            .unwrap()
    }

    #[test]
    fn sharded_groupby_matches_sequential() {
        install_test_executor();
        let df = tall_df(20_000);
        let seq = df.groupby(&["k"]).unwrap();
        let par = df.groupby_par(&["k"], 8).unwrap();
        assert_eq!(seq.group_ids(), par.group_ids());
        assert_eq!(seq.representatives, par.representatives);
        assert_eq!(seq.overflow, par.overflow);
        let a = df
            .groupby_par(&["k"], 8)
            .unwrap()
            .agg(&[("v", Agg::Mean)])
            .unwrap();
        let b = df
            .groupby(&["k"])
            .unwrap()
            .agg(&[("v", Agg::Mean)])
            .unwrap();
        for r in 0..a.num_rows() {
            assert_eq!(a.value(r, "k").unwrap(), b.value(r, "k").unwrap());
            assert_eq!(a.value(r, "v").unwrap(), b.value(r, "v").unwrap());
        }
    }

    #[test]
    fn sharded_multi_key_matches_sequential() {
        install_test_executor();
        let df = tall_df(20_000);
        let seq = df.groupby(&["k", "kind"]).unwrap();
        let par = df.groupby_par(&["k", "kind"], 8).unwrap();
        assert_eq!(seq.group_ids(), par.group_ids());
        assert_eq!(seq.representatives, par.representatives);
    }

    #[test]
    fn sharded_capped_falls_back_to_exact_fold() {
        install_test_executor();
        // 113 distinct keys, cap 10: the cap binds, so the parallel entry
        // point must reproduce the sequential overflow fold exactly.
        let df = tall_df(20_000);
        let seq = df.groupby_capped(&["k"], 10).unwrap();
        let par = df.groupby_capped_par(&["k"], 10, 8).unwrap();
        assert!(seq.is_capped() && par.is_capped());
        assert_eq!(seq.group_ids(), par.group_ids());
        assert_eq!(seq.representatives, par.representatives);
        assert_eq!(seq.overflow, par.overflow);
    }

    #[test]
    fn sharded_capped_below_cap_stays_parallel_and_exact() {
        install_test_executor();
        let df = tall_df(20_000);
        let seq = df.groupby_capped(&["k"], 1_000).unwrap();
        let par = df.groupby_capped_par(&["k"], 1_000, 8).unwrap();
        assert!(!seq.is_capped() && !par.is_capped());
        assert_eq!(seq.group_ids(), par.group_ids());
        let a = df.value_counts_capped_par("k", 1_000, 8).unwrap();
        let b = df.value_counts_capped("k", 1_000).unwrap();
        assert_eq!(a.num_rows(), b.num_rows());
        for r in 0..a.num_rows() {
            assert_eq!(a.value(r, "count").unwrap(), b.value(r, "count").unwrap());
        }
    }

    #[test]
    fn agg_count_skips_nulls() {
        let k = Column::Str(crate::column::StrColumn::from_strings(["a", "a", "b"]));
        let v = Column::Int64(crate::column::PrimitiveColumn::from_options(vec![
            Some(1),
            None,
            Some(3),
        ]));
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
}
