//! Mergeable per-column statistics (the metadata hot path).
//!
//! A [`ColumnStats`] is a **chunk partial**: everything the metadata layer
//! needs from one fused pass over a row range — null count, min/max,
//! distinct keys (exact set up to a cap, then a [`CardinalitySketch`]), and
//! the smallest-K distinct values. Partials merge, and every accumulator is
//! a pure function of the *set* of scanned rows:
//!
//! - null count / row count / min / max are trivially associative and
//!   commutative;
//! - the distinct counter is exact while the union of keys fits
//!   [`StatsSpec::scan_cap`] and converts to a sketch the moment it does
//!   not — and because the conversion inserts every exact key, the final
//!   registers depend only on the distinct key set, never on where chunk
//!   boundaries fell or which side of a merge overflowed;
//! - the smallest-K accumulator runs over **all** rows regardless of
//!   exact/sketch mode, so the materialized `unique_values` list is also
//!   grouping-insensitive.
//!
//! Consequences (tested in `tests/stats_kernels.rs`): merge is associative
//! and order-insensitive, parallel chunked scans are byte-identical to the
//! sequential scan at any thread count, and an appended frame can reuse its
//! parent's partials and scan only the tail.

pub mod cache;
pub mod kernels;
pub mod sketch;

use lux_dataframe::prelude::*;

use kernels::{decode_f64, decode_i64, for_each_valid, ScanValue, SmallestKeys, U64Set};
use sketch::CardinalitySketch;

/// Shape parameters for a statistics pass. Partials are only mergeable when
/// their specs match — the stats cache stores the spec next to the partial
/// and the append path falls back to a full rescan on any mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSpec {
    /// Exact distinct ceiling: past this many distinct keys the counter
    /// degrades to a sketch and cardinality becomes an estimate.
    pub scan_cap: usize,
    /// Sketch precision (`2^p` registers).
    pub precision: u32,
    /// How many smallest distinct values to materialize.
    pub values_cap: usize,
}

/// Distinct counter: exact until the union of keys outgrows the cap.
#[derive(Debug, Clone)]
pub enum DistinctAcc {
    Exact(U64Set),
    Sketch(CardinalitySketch),
}

impl DistinctAcc {
    /// Insert one key. Returns true when the caller should forward the key
    /// to the smallest-K accumulator (known-fresh in exact mode; always in
    /// sketch mode, where freshness is unknowable and `offer` dedups).
    #[inline]
    fn insert(&mut self, key: u64, spec: &StatsSpec) -> bool {
        match self {
            DistinctAcc::Exact(set) => {
                let fresh = set.insert(key);
                if fresh && set.len() > spec.scan_cap {
                    *self = DistinctAcc::Sketch(sketch_of(set, spec.precision));
                }
                fresh
            }
            DistinctAcc::Sketch(s) => {
                s.insert_key(key);
                true
            }
        }
    }
}

/// Convert an exact key set into a sketch by inserting every key: the
/// resulting registers are a function of the key set alone, which is what
/// keeps mid-scan and merge-time conversions grouping-insensitive.
fn sketch_of(set: &U64Set, precision: u32) -> CardinalitySketch {
    let mut s = CardinalitySketch::new(precision);
    for k in set.iter() {
        s.insert_key(k);
    }
    s
}

/// Fused-scan partial for a primitive (int/float/bool/datetime) column.
#[derive(Debug, Clone)]
pub struct NumericStats {
    pub rows: usize,
    pub null_count: usize,
    /// Running extremes over valid non-NaN rows; `lo > hi` means none seen.
    pub lo: f64,
    pub hi: f64,
    pub distinct: DistinctAcc,
    pub smallest: SmallestKeys,
}

/// Partial for a dictionary-encoded string column: a bitset over dictionary
/// codes. Exact and bounded by construction (the dictionary is the cap);
/// merges across an append are sound because dictionaries extend by suffix.
#[derive(Debug, Clone)]
pub struct StrStats {
    pub rows: usize,
    pub null_count: usize,
    /// One bit per dictionary code, packed; set = referenced by a valid row.
    pub seen: Vec<u64>,
}

/// One column's mergeable statistics partial.
#[derive(Debug, Clone)]
pub enum ColumnStats {
    Numeric(NumericStats),
    Str(StrStats),
}

/// Finalized per-column statistics, ready to become a `ColumnMeta`.
#[derive(Debug, Clone)]
pub struct FinalColumnStats {
    pub cardinality: usize,
    /// True when the distinct counter degraded to a sketch: `cardinality`
    /// is an estimate (within the sketch's documented error), not a count.
    pub estimated: bool,
    pub unique_values: Vec<Value>,
    pub unique_complete: bool,
    pub min: Option<f64>,
    pub max: Option<f64>,
    pub null_count: usize,
}

impl ColumnStats {
    /// The identity partial for `col` (a scan of zero rows).
    pub fn empty(col: &Column, spec: &StatsSpec) -> ColumnStats {
        ColumnStats::scan(col, 0, 0, spec)
    }

    /// One fused pass over rows `start..end` of `col`: null count, min/max,
    /// distinct, and smallest-K in a single loop over the validity words.
    pub fn scan(col: &Column, start: usize, end: usize, spec: &StatsSpec) -> ColumnStats {
        match col {
            Column::Int64(c) | Column::DateTime(c) => {
                ColumnStats::Numeric(scan_primitive(c.values(), c.validity(), start, end, spec))
            }
            Column::Float64(c) => {
                ColumnStats::Numeric(scan_primitive(c.values(), c.validity(), start, end, spec))
            }
            Column::Bool(c) => {
                ColumnStats::Numeric(scan_primitive(c.values(), c.validity(), start, end, spec))
            }
            Column::Str(c) => {
                let codes = c.codes();
                let mut seen = vec![0u64; c.dict().len().div_ceil(64)];
                let valid = for_each_valid(c.validity(), start, end, |i| {
                    let code = codes[i] as usize;
                    seen[code / 64] |= 1u64 << (code % 64);
                });
                ColumnStats::Str(StrStats {
                    rows: end - start,
                    null_count: (end - start) - valid,
                    seen,
                })
            }
        }
    }

    /// Fold another partial in. Associative and order-insensitive given
    /// equal specs (callers fold in chunk order anyway, for clarity).
    pub fn merge(&mut self, other: &ColumnStats, spec: &StatsSpec) {
        match (self, other) {
            (ColumnStats::Numeric(a), ColumnStats::Numeric(b)) => {
                a.rows += b.rows;
                a.null_count += b.null_count;
                if b.lo < a.lo {
                    a.lo = b.lo;
                }
                if b.hi > a.hi {
                    a.hi = b.hi;
                }
                a.smallest.merge(&b.smallest);
                match (&mut a.distinct, &b.distinct) {
                    (DistinctAcc::Exact(x), DistinctAcc::Exact(y)) => {
                        // Re-insert the smaller side into the larger — the
                        // union is the same either way, and an append merge
                        // then costs O(tail distinct), not O(parent
                        // distinct).
                        let acc = if x.len() < y.len() {
                            let small = std::mem::replace(x, U64Set::with_capacity(0));
                            let mut acc = DistinctAcc::Exact(y.clone());
                            for k in small.iter() {
                                acc.insert(k, spec);
                            }
                            acc
                        } else {
                            let mut acc =
                                DistinctAcc::Exact(std::mem::replace(x, U64Set::with_capacity(0)));
                            for k in y.iter() {
                                acc.insert(k, spec);
                            }
                            acc
                        };
                        a.distinct = acc;
                    }
                    (DistinctAcc::Exact(x), DistinctAcc::Sketch(s)) => {
                        let mut merged = sketch_of(x, spec.precision);
                        merged.merge(s);
                        a.distinct = DistinctAcc::Sketch(merged);
                    }
                    (DistinctAcc::Sketch(s), DistinctAcc::Exact(y)) => {
                        for k in y.iter() {
                            s.insert_key(k);
                        }
                    }
                    (DistinctAcc::Sketch(s), DistinctAcc::Sketch(t)) => s.merge(t),
                }
            }
            (ColumnStats::Str(a), ColumnStats::Str(b)) => {
                a.rows += b.rows;
                a.null_count += b.null_count;
                // An appended tail may have grown the dictionary.
                if b.seen.len() > a.seen.len() {
                    a.seen.resize(b.seen.len(), 0);
                }
                for (w, &o) in a.seen.iter_mut().zip(&b.seen) {
                    *w |= o;
                }
            }
            _ => unreachable!("merging statistics partials of different column kinds"),
        }
    }

    /// Finalize into the numbers `ColumnMeta` carries. `col` supplies the
    /// dtype for key decoding and the dictionary for string values.
    pub fn finalize(&self, col: &Column, spec: &StatsSpec) -> FinalColumnStats {
        match self {
            ColumnStats::Numeric(n) => {
                let (cardinality, estimated) = match &n.distinct {
                    DistinctAcc::Exact(set) => (set.len(), false),
                    DistinctAcc::Sketch(s) => {
                        // The sketch only exists because the true count
                        // exceeded the cap, and it cannot exceed the number
                        // of valid rows.
                        let valid = n.rows - n.null_count;
                        let est = s.estimate().round() as usize;
                        (
                            est.clamp(spec.scan_cap + 1, valid.max(spec.scan_cap + 1)),
                            true,
                        )
                    }
                };
                let decode: fn(u64) -> Value = match col.dtype() {
                    DType::Int64 => |k| Value::Int(decode_i64(k)),
                    DType::DateTime => |k| Value::DateTime(decode_i64(k)),
                    DType::Float64 => |k| Value::Float(decode_f64(k)),
                    DType::Bool => |k| Value::Bool(k == 1),
                    DType::Str => unreachable!("numeric partial for a string column"),
                };
                let unique_values: Vec<Value> =
                    n.smallest.keys().iter().map(|&k| decode(k)).collect();
                FinalColumnStats {
                    cardinality,
                    estimated,
                    unique_complete: !estimated && cardinality <= spec.values_cap,
                    unique_values,
                    min: (n.lo <= n.hi).then_some(n.lo),
                    max: (n.lo <= n.hi).then_some(n.hi),
                    null_count: n.null_count,
                }
            }
            ColumnStats::Str(s) => {
                let Column::Str(c) = col else {
                    unreachable!("string partial for a non-string column")
                };
                let cardinality: usize = s.seen.iter().map(|w| w.count_ones() as usize).sum();
                let mut unique_values = Vec::with_capacity(cardinality.min(spec.values_cap));
                'outer: for (wi, &w) in s.seen.iter().enumerate() {
                    let mut w = w;
                    while w != 0 {
                        let code = wi * 64 + w.trailing_zeros() as usize;
                        unique_values.push(Value::Str(c.dict()[code].clone()));
                        if unique_values.len() == spec.values_cap {
                            break 'outer;
                        }
                        w &= w - 1;
                    }
                }
                FinalColumnStats {
                    cardinality,
                    estimated: false,
                    unique_complete: cardinality <= spec.values_cap,
                    unique_values,
                    min: None,
                    max: None,
                    null_count: s.null_count,
                }
            }
        }
    }

    /// Rows this partial has scanned.
    pub fn rows(&self) -> usize {
        match self {
            ColumnStats::Numeric(n) => n.rows,
            ColumnStats::Str(s) => s.rows,
        }
    }

    /// True when the distinct counter has degraded to a sketch.
    pub fn is_sketched(&self) -> bool {
        matches!(
            self,
            ColumnStats::Numeric(NumericStats {
                distinct: DistinctAcc::Sketch(_),
                ..
            })
        )
    }

    /// Approximate resident bytes (cache accounting).
    pub fn bytes(&self) -> u64 {
        match self {
            ColumnStats::Numeric(n) => {
                let d = match &n.distinct {
                    DistinctAcc::Exact(set) => set.bytes(),
                    DistinctAcc::Sketch(s) => s.bytes(),
                };
                48 + d + n.smallest.bytes()
            }
            ColumnStats::Str(s) => 32 + s.seen.capacity() as u64 * 8,
        }
    }
}

fn scan_primitive<T: ScanValue>(
    values: &[T],
    validity: Option<&Bitmap>,
    start: usize,
    end: usize,
    spec: &StatsSpec,
) -> NumericStats {
    // The most keys this chunk can hand the exact set before it converts.
    let hint = (end - start).min(spec.scan_cap.saturating_add(1));
    let mut distinct = DistinctAcc::Exact(U64Set::with_capacity(hint));
    let mut smallest = SmallestKeys::new(spec.values_cap);
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    let valid = for_each_valid(validity, start, end, |i| {
        let v = values[i];
        v.update_minmax(&mut lo, &mut hi);
        let key = v.key();
        if distinct.insert(key, spec) {
            smallest.offer(key);
        }
    });
    smallest.compact();
    if let DistinctAcc::Exact(set) = &mut distinct {
        set.trim();
    }
    NumericStats {
        rows: end - start,
        null_count: (end - start) - valid,
        lo,
        hi,
        distinct,
        smallest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> StatsSpec {
        StatsSpec {
            scan_cap: 64,
            precision: 12,
            values_cap: 8,
        }
    }

    fn int_col(values: Vec<i64>) -> Column {
        Column::Int64(PrimitiveColumn::from_values(values))
    }

    #[test]
    fn fused_scan_matches_naive() {
        let col = Column::Float64(PrimitiveColumn::from_options(vec![
            Some(3.5),
            None,
            Some(-1.0),
            Some(f64::NAN),
            Some(3.5),
            Some(0.0),
            Some(-0.0),
        ]));
        let s = ColumnStats::scan(&col, 0, col.len(), &spec());
        let f = s.finalize(&col, &spec());
        assert_eq!(f.null_count, 1);
        assert_eq!(f.cardinality, 4); // -1, 0 (-0 folded), 3.5, NaN
        assert_eq!((f.min, f.max), (Some(-1.0), Some(3.5)));
        assert!(f.unique_complete);
        assert_eq!(f.unique_values.len(), 4);
        assert_eq!(f.unique_values[0], Value::Float(-1.0));
    }

    #[test]
    fn chunked_scan_equals_whole_scan() {
        let values: Vec<i64> = (0..1000).map(|i| (i * 37) % 250).collect();
        let col = int_col(values);
        let sp = spec();
        let whole = ColumnStats::scan(&col, 0, 1000, &sp);
        for boundaries in [
            vec![0, 1000],
            vec![0, 1, 999, 1000],
            vec![0, 64, 500, 640, 1000],
        ] {
            let mut acc = ColumnStats::empty(&col, &sp);
            for w in boundaries.windows(2) {
                acc.merge(&ColumnStats::scan(&col, w[0], w[1], &sp), &sp);
            }
            let (a, b) = (acc.finalize(&col, &sp), whole.finalize(&col, &sp));
            assert_eq!(a.cardinality, b.cardinality, "{boundaries:?}");
            assert_eq!(a.estimated, b.estimated);
            assert_eq!(a.unique_values, b.unique_values);
            assert_eq!((a.min, a.max, a.null_count), (b.min, b.max, b.null_count));
        }
    }

    #[test]
    fn sketch_conversion_is_boundary_insensitive() {
        // 500 distinct > scan_cap 64: every grouping must converge on the
        // exact same sketch registers, hence the same estimate.
        let col = int_col((0..500).collect());
        let sp = spec();
        let whole = ColumnStats::scan(&col, 0, 500, &sp);
        let mut halves = ColumnStats::scan(&col, 0, 250, &sp);
        halves.merge(&ColumnStats::scan(&col, 250, 500, &sp), &sp);
        let (a, b) = (whole.finalize(&col, &sp), halves.finalize(&col, &sp));
        assert!(a.estimated && b.estimated);
        assert_eq!(a.cardinality, b.cardinality);
        assert_eq!(a.unique_values, b.unique_values);
        assert_eq!(a.unique_values.len(), sp.values_cap);
        assert_eq!(a.unique_values[0], Value::Int(0));
    }

    #[test]
    fn string_partials_merge_across_dictionary_growth() {
        let a = StrColumn::from_strings(["x", "y", "x"]);
        let mut grown = a.clone();
        grown.push(Some("z"));
        grown.push(None);
        let col_a = Column::Str(a);
        let col = Column::Str(grown);
        let sp = spec();
        // Parent partial (old, shorter dictionary) + tail partial.
        let mut acc = ColumnStats::scan(&col_a, 0, 3, &sp);
        acc.merge(&ColumnStats::scan(&col, 3, 5, &sp), &sp);
        let f = acc.finalize(&col, &sp);
        assert_eq!(f.cardinality, 3);
        assert_eq!(f.null_count, 1);
        assert!(f.unique_complete);
        assert_eq!(f.unique_values[2], Value::str("z"));
    }

    #[test]
    fn estimated_cardinality_is_clamped_to_valid_rows() {
        let col = int_col((0..200).collect());
        let sp = StatsSpec {
            scan_cap: 64,
            precision: 4, // tiny sketch, huge error — the clamp must hold
            values_cap: 8,
        };
        let f = ColumnStats::scan(&col, 0, 200, &sp).finalize(&col, &sp);
        assert!(f.estimated);
        assert!(
            f.cardinality > sp.scan_cap && f.cardinality <= 200,
            "{}",
            f.cardinality
        );
    }
}
