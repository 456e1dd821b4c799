//! Mergeable per-column statistics (the metadata hot path).
//!
//! A [`ColumnStats`] is a **chunk partial**: everything the metadata layer
//! needs from one fused pass over a row range — null count, min/max, and
//! distinct keys (exact set up to a cap, then a [`CardinalitySketch`]).
//! Partials merge, and every accumulator is a pure function of the *set* of
//! scanned rows:
//!
//! - null count / row count / min / max are trivially associative and
//!   commutative;
//! - the distinct counter is exact while the union of keys fits
//!   [`StatsSpec::scan_cap`] — a bitset when the keys sit in a small range
//!   (dictionary codes, close-together integers), a hashed set otherwise —
//!   and converts to a sketch the moment it does not; because the
//!   conversion inserts every exact key, the final registers depend only on
//!   the distinct key set, never on where chunk boundaries fell, which form
//!   a chunk took, or which side of a merge overflowed.
//!
//! Consequences (tested in `tests/stats_kernels.rs`): merge is associative
//! and order-insensitive, parallel chunked scans are byte-identical to the
//! sequential scan at any thread count, and an appended frame can reuse its
//! parent's partials and scan only the tail.
//!
//! A column's value list is no partial: [`value_list`] builds it from the
//! whole column when first read, so a print that reads none pays nothing.

pub mod kernels;
pub mod sketch;

use lux_dataframe::prelude::*;

use kernels::{
    decode_f64, decode_i64, encode_i64, for_each_valid, KeyBits, ScanValue, SmallestKeys, U64Set,
};
use lux_dataframe::scan::int_span;
use sketch::CardinalitySketch;

/// Shape parameters for a statistics pass. Partials are only mergeable when
/// their specs match — a frame keeps the spec next to its partials and the
/// append path falls back to a full rescan on any mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSpec {
    /// Exact distinct ceiling: past this many distinct keys the counter
    /// degrades to a sketch and cardinality becomes an estimate.
    pub scan_cap: usize,
    /// Sketch precision (`2^p` registers).
    pub precision: u32,
}

/// Distinct counter: exact until the union of keys outgrows the cap. The
/// two exact forms hold the same thing — a key set of at most `scan_cap`
/// keys — and nothing `finalize` reports tells them apart.
#[derive(Debug, Clone)]
pub enum DistinctAcc {
    /// Exact, one bit per key of a small range (integer chunks whose values
    /// sit close together).
    Dense(KeyBits),
    /// Exact, hashed (everything else under the cap).
    Exact(U64Set),
    Sketch(CardinalitySketch),
}

/// An integer chunk is counted in a bitset when its keys span at most this
/// many per row scanned — 2 bytes of bitset a row at worst, under what the
/// plan charged for the hashed set — and at most [`DENSE_MAX_SPAN`] in all
/// (2 MiB). Constants: both only say when an index beats a hash probe.
const DENSE_SPAN_PER_ROW: u64 = 16;
const DENSE_MAX_SPAN: u64 = 1 << 24;

/// Whether the keys `lo..=hi` of a partial over `rows` rows are worth a
/// bitset (whose range starts on a word boundary at or below `lo`).
fn dense_span_fits(lo: u64, hi: u64, rows: usize) -> bool {
    let span = (hi - (lo & !63)).saturating_add(1);
    span <= DENSE_MAX_SPAN && span <= DENSE_SPAN_PER_ROW * rows as u64
}

impl DistinctAcc {
    /// A filled bitset as a counter: past the cap it becomes the sketch of
    /// its keys on the spot, exactly as a hashed set does mid-scan.
    fn dense(bits: KeyBits, spec: &StatsSpec) -> DistinctAcc {
        if bits.count() > spec.scan_cap {
            DistinctAcc::Sketch(sketch_of(bits.iter(), spec.precision))
        } else {
            DistinctAcc::Dense(bits)
        }
    }

    /// Insert one key into a hashed or sketched counter; a set that passes
    /// the cap becomes the sketch of its keys.
    fn insert(&mut self, key: u64, spec: &StatsSpec) {
        match self {
            DistinctAcc::Exact(set) => {
                if set.insert(key) && set.len() > spec.scan_cap {
                    *self = DistinctAcc::Sketch(sketch_of(set.iter(), spec.precision));
                }
            }
            DistinctAcc::Sketch(s) => s.insert_key(key),
            DistinctAcc::Dense(_) => unreachable!("a bitset is filled whole by its scan"),
        }
    }

    /// Keys held by an exact form.
    fn len(&self) -> usize {
        match self {
            DistinctAcc::Dense(bits) => bits.count(),
            DistinctAcc::Exact(set) => set.len(),
            DistinctAcc::Sketch(_) => unreachable!("a sketch does not know its keys"),
        }
    }

    /// Visit the keys of an exact form (any order).
    fn for_each_key(&self, mut f: impl FnMut(u64)) {
        match self {
            DistinctAcc::Dense(bits) => bits.iter().for_each(&mut f),
            DistinctAcc::Exact(set) => set.iter().for_each(&mut f),
            DistinctAcc::Sketch(_) => unreachable!("a sketch does not know its keys"),
        }
    }

    /// The range an exact form's keys lie in (what a bitset covers, the
    /// extremes of a hashed set); `None` when it holds none.
    fn key_range(&self) -> Option<(u64, u64)> {
        match self {
            DistinctAcc::Dense(bits) => bits.range(),
            DistinctAcc::Exact(set) => set.iter().fold(None, |range, k| {
                Some(range.map_or((k, k), |(lo, hi): (u64, u64)| (lo.min(k), hi.max(k))))
            }),
            DistinctAcc::Sketch(_) => unreachable!("a sketch does not know its keys"),
        }
    }

    /// An exact form as a hashed set.
    fn into_hashed(self) -> U64Set {
        match self {
            DistinctAcc::Exact(set) => set,
            dense => {
                let mut set = U64Set::with_capacity(dense.len());
                dense.for_each_key(|k| {
                    set.insert(k);
                });
                set
            }
        }
    }

    /// Fold `other` in; `rows` is what the two partials scanned together.
    /// Closed over the three forms, and what it reports a function of the
    /// two key sets: anything with a sketch is a sketch; a bitset absorbs
    /// the other side while their joint range is worth indexing (an append
    /// then costs an OR over the parent's words plus O(tail distinct),
    /// whatever form the tail took); every other exact pair is hashed; and
    /// whichever exact form results converts once it is past the cap.
    fn merge(&mut self, other: &DistinctAcc, rows: usize, spec: &StatsSpec) {
        use DistinctAcc::{Dense, Exact, Sketch};
        match (&mut *self, other) {
            (Sketch(s), Sketch(t)) => s.merge(t),
            (Sketch(s), exact) => exact.for_each_key(|k| s.insert_key(k)),
            (exact, Sketch(t)) => {
                let mut merged = CardinalitySketch::new(spec.precision);
                exact.for_each_key(|k| merged.insert_key(k));
                merged.merge(t);
                *self = Sketch(merged);
            }
            (mine, other) => {
                let dense = (matches!(mine, Dense(_)) || matches!(other, Dense(_)))
                    .then(|| match (mine.key_range(), other.key_range()) {
                        (Some((a, b)), Some((c, d))) => Some((a.min(c), b.max(d))),
                        (one, none) => one.or(none),
                    })
                    .filter(|joint| joint.is_none_or(|(lo, hi)| dense_span_fits(lo, hi, rows)));
                *self = if let Some(joint) = dense {
                    let mut bits = KeyBits::default();
                    if let Some((lo, hi)) = joint {
                        bits.cover(lo, hi);
                    }
                    for side in [&*mine, other] {
                        match side {
                            Dense(theirs) => bits.union(theirs),
                            hashed => hashed.for_each_key(|k| bits.set(k)),
                        }
                    }
                    DistinctAcc::dense(bits, spec)
                } else {
                    // Re-insert the smaller side into the larger — the
                    // union is the same either way, and an append merge
                    // then costs O(tail distinct), not O(parent distinct).
                    let mine = std::mem::replace(mine, Dense(KeyBits::default()));
                    let (large, small) = if mine.len() < other.len() {
                        (other.clone(), &mine)
                    } else {
                        (mine, other)
                    };
                    let mut acc = Exact(large.into_hashed());
                    small.for_each_key(|k| acc.insert(k, spec));
                    acc
                };
            }
        }
    }
}

/// The sketch of a key set: its registers are a function of the set alone,
/// which is what keeps mid-scan and merge-time conversions, from either
/// exact form, grouping-insensitive.
fn sketch_of(keys: impl Iterator<Item = u64>, precision: u32) -> CardinalitySketch {
    let mut s = CardinalitySketch::new(precision);
    for k in keys {
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
}

/// Partial for a dictionary-encoded string column: a bitset over dictionary
/// codes. Exact and bounded by construction (the dictionary is the cap);
/// merges across an append are sound because dictionaries extend by suffix.
#[derive(Debug, Clone)]
pub struct StrStats {
    pub rows: usize,
    pub null_count: usize,
    /// The dictionary codes referenced by a valid row.
    pub seen: KeyBits,
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
    pub min: Option<f64>,
    pub max: Option<f64>,
    pub null_count: usize,
}

impl ColumnStats {
    /// The identity partial for `col` (a scan of zero rows).
    pub fn empty(col: &Column, spec: &StatsSpec) -> ColumnStats {
        ColumnStats::scan(col, 0, 0, spec)
    }

    /// One fused pass over rows `start..end` of `col`: null count, min/max
    /// and distinct in a single loop over the validity words.
    pub fn scan(col: &Column, start: usize, end: usize, spec: &StatsSpec) -> ColumnStats {
        match col {
            Column::Int64(c) | Column::DateTime(c) => {
                ColumnStats::Numeric(scan_ints(c.values(), c.validity(), start, end, spec))
            }
            Column::Float64(c) => {
                ColumnStats::Numeric(scan_primitive(c.values(), c.validity(), start, end, spec))
            }
            Column::Bool(c) => {
                ColumnStats::Numeric(scan_primitive(c.values(), c.validity(), start, end, spec))
            }
            Column::Str(c) => {
                let (seen, valid) = referenced_codes(c, start, end);
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
                a.distinct.merge(&b.distinct, a.rows, spec);
            }
            (ColumnStats::Str(a), ColumnStats::Str(b)) => {
                a.rows += b.rows;
                a.null_count += b.null_count;
                // An appended tail may have grown the dictionary.
                a.seen.union(&b.seen);
            }
            _ => unreachable!("merging statistics partials of different column kinds"),
        }
    }

    /// Finalize into the numbers `ColumnMeta` carries.
    pub fn finalize(&self, spec: &StatsSpec) -> FinalColumnStats {
        match self {
            ColumnStats::Numeric(n) => {
                let (cardinality, estimated) = match &n.distinct {
                    exact @ (DistinctAcc::Dense(_) | DistinctAcc::Exact(_)) => (exact.len(), false),
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
                FinalColumnStats {
                    cardinality,
                    estimated,
                    min: (n.lo <= n.hi).then_some(n.lo),
                    max: (n.lo <= n.hi).then_some(n.hi),
                    null_count: n.null_count,
                }
            }
            ColumnStats::Str(s) => FinalColumnStats {
                cardinality: s.seen.count(),
                estimated: false,
                min: None,
                max: None,
                null_count: s.null_count,
            },
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

    /// True when the distinct counter is a bitset: a string column's always
    /// is, an integer column's while its keys sit in a small range.
    pub fn is_dense(&self) -> bool {
        matches!(
            self,
            ColumnStats::Str(_)
                | ColumnStats::Numeric(NumericStats {
                    distinct: DistinctAcc::Dense(_),
                    ..
                })
        )
    }

    /// Approximate resident bytes (what a frame keeping the partial holds).
    pub fn bytes(&self) -> u64 {
        match self {
            ColumnStats::Numeric(n) => {
                let d = match &n.distinct {
                    DistinctAcc::Dense(bits) => bits.bytes(),
                    DistinctAcc::Exact(set) => set.bytes(),
                    DistinctAcc::Sketch(s) => s.bytes(),
                };
                48 + d
            }
            ColumnStats::Str(s) => 32 + s.seen.bytes(),
        }
    }
}

/// The value list of `col`: the `cap` smallest distinct values of its
/// valid rows in value order (NaN last, `-0.0` folded into `0.0`), or the
/// first `cap` dictionary entries they reference. A function of the column
/// alone, whatever grid, thread count or append merge described it.
pub fn value_list(col: &Column, cap: usize) -> Vec<Value> {
    match col {
        Column::Int64(c) => smallest(c, cap, |k| Value::Int(decode_i64(k))),
        Column::DateTime(c) => smallest(c, cap, |k| Value::DateTime(decode_i64(k))),
        Column::Float64(c) => smallest(c, cap, |k| Value::Float(decode_f64(k))),
        Column::Bool(c) => smallest(c, cap, |k| Value::Bool(k == 1)),
        Column::Str(c) => (referenced_codes(c, 0, c.len()).0.iter().take(cap))
            .map(|code| Value::Str(c.dict()[code as usize].clone()))
            .collect(),
    }
}

/// The `cap` smallest distinct keys of `c`'s valid rows, as values. The
/// 64-row blocks are visited from both ends toward the middle, so a sorted
/// column, ascending or descending, meets its smallest values in its first
/// few blocks and rejects the rest against the retained maximum.
fn smallest<T: ScanValue>(c: &PrimitiveColumn<T>, cap: usize, v: fn(u64) -> Value) -> Vec<Value> {
    let (values, mut keys) = (c.values(), SmallestKeys::new(cap));
    let blocks = values.len().div_ceil(64);
    for i in 0..blocks {
        let start = 64 * [i / 2, blocks - 1 - i / 2][i % 2];
        let end = (start + 64).min(values.len());
        for_each_valid(c.validity(), start, end, |i| keys.offer(values[i].key()));
    }
    keys.compact();
    keys.keys().iter().map(|&k| v(k)).collect()
}

/// The dictionary codes valid rows of `start..end` reference; valid rows.
fn referenced_codes(c: &StrColumn, start: usize, end: usize) -> (KeyBits, usize) {
    let codes = c.codes();
    let mut seen = match c.dict().len() as u64 {
        0 => KeyBits::default(),
        entries => KeyBits::covering(0, entries - 1),
    };
    let valid = for_each_valid(c.validity(), start, end, |i| seen.set(codes[i] as u64));
    (seen, valid)
}

/// The integer scan: when the chunk's values sit close together the
/// distinct set is a bitset over `min..=max` — one extremes pass, then one
/// pass that sets a bit per row; otherwise the hashed scan every other
/// dtype runs.
fn scan_ints(
    values: &[i64],
    validity: Option<&Bitmap>,
    start: usize,
    end: usize,
    spec: &StatsSpec,
) -> NumericStats {
    let rows = end - start;
    let (mut bits, lo, hi) = match int_span(values, validity, start, end) {
        // nothing valid: the empty bitset, so an all-null chunk folds into
        // a dense neighbour without turning it into a hashed set
        None => (KeyBits::default(), f64::INFINITY, f64::NEG_INFINITY),
        Some((lo, hi)) => {
            let (klo, khi) = (encode_i64(lo), encode_i64(hi));
            if !dense_span_fits(klo, khi, rows) {
                return scan_primitive(values, validity, start, end, spec);
            }
            // i64 -> f64 is monotone: the extremes convert to what a
            // per-row min/max of converted values finds.
            (KeyBits::covering(klo, khi), lo as f64, hi as f64)
        }
    };
    let valid = for_each_valid(validity, start, end, |i| bits.set(encode_i64(values[i])));
    NumericStats {
        rows,
        null_count: rows - valid,
        lo,
        hi,
        distinct: DistinctAcc::dense(bits, spec),
    }
}

/// The hashed scan. In a chunk taller than `scan_cap` (one that can
/// overflow), once the set's first growth judges the stream mostly fresh
/// keys, a sketch seeded with its keys is fed every row, and a set past the
/// cap is dropped with nothing re-inserted: the registers are the
/// conversion's, and the set alone decides exactness.
fn scan_primitive<T: ScanValue>(
    values: &[T],
    validity: Option<&Bitmap>,
    start: usize,
    end: usize,
    spec: &StatsSpec,
) -> NumericStats {
    let rows = end - start;
    let tall = rows > spec.scan_cap;
    // The most keys this chunk can hand the exact set before it converts.
    let set = U64Set::with_capacity(rows.min(spec.scan_cap.saturating_add(1)));
    let (mut exact, mut sketch) = (Some(set), None::<CardinalitySketch>);
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    let valid = for_each_valid(validity, start, end, |i| {
        values[i].update_minmax(&mut lo, &mut hi);
        let key = values[i].key();
        if let Some(s) = &mut sketch {
            s.insert_key(key);
        }
        let Some(set) = &mut exact else {
            return;
        };
        if set.insert(key) {
            let over = set.len() > spec.scan_cap;
            if sketch.is_none() && tall && (over || set.jumped()) {
                sketch = Some(sketch_of(set.iter(), spec.precision));
            }
            if over {
                exact = None;
            }
        }
    });
    let sketch = || DistinctAcc::Sketch(sketch.expect("a dropped set leaves its sketch"));
    let mut distinct = exact.map_or_else(sketch, DistinctAcc::Exact);
    if let DistinctAcc::Exact(set) = &mut distinct {
        set.trim();
    }
    NumericStats {
        rows,
        null_count: rows - valid,
        lo,
        hi,
        distinct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::{UniqueValues, UNIQUE_VALUES_CAP};
    use std::sync::Arc;

    fn spec() -> StatsSpec {
        StatsSpec {
            scan_cap: 64,
            precision: 12,
        }
    }

    /// The column's lazy value list, built.
    fn list(col: &Column) -> Vec<Value> {
        UniqueValues::new(Arc::new(col.clone())).to_vec()
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
        let f = s.finalize(&spec());
        assert_eq!(f.null_count, 1);
        assert_eq!(f.cardinality, 4); // -1, 0 (-0 folded), 3.5, NaN
        assert_eq!((f.min, f.max), (Some(-1.0), Some(3.5)));
        let values = list(&col);
        assert_eq!(values.len(), 4);
        assert_eq!(values[0], Value::Float(-1.0));
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
            let (a, b) = (acc.finalize(&sp), whole.finalize(&sp));
            assert_eq!(a.cardinality, b.cardinality, "{boundaries:?}");
            assert_eq!(a.estimated, b.estimated);
            assert_eq!((a.min, a.max, a.null_count), (b.min, b.max, b.null_count));
        }
        // The value list is the column's, whatever the grid: all 250 keys.
        assert_eq!(list(&col), (0..250).map(Value::Int).collect::<Vec<_>>());
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
        let (a, b) = (whole.finalize(&sp), halves.finalize(&sp));
        assert!(a.estimated && b.estimated);
        assert_eq!(a.cardinality, b.cardinality);
        let values = list(&col);
        assert_eq!(values.len(), UNIQUE_VALUES_CAP);
        assert_eq!(values[0], Value::Int(0));
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
        let f = acc.finalize(&sp);
        assert_eq!(f.cardinality, 3);
        assert_eq!(f.null_count, 1);
        assert_eq!(list(&col)[2], Value::str("z"));
    }

    #[test]
    fn estimated_cardinality_is_clamped_to_valid_rows() {
        let col = int_col((0..200).collect());
        let sp = StatsSpec {
            scan_cap: 64,
            precision: 4, // tiny sketch, huge error — the clamp must hold
        };
        let f = ColumnStats::scan(&col, 0, 200, &sp).finalize(&sp);
        assert!(f.estimated);
        assert!(
            f.cardinality > sp.scan_cap && f.cardinality <= 200,
            "{}",
            f.cardinality
        );
    }
}
