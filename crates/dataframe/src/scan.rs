//! The typed row-scan primitive under every score/process loop.
//!
//! A row kernel that asks [`Column::f64_at`] for each cell pays an enum
//! match, a validity-bit test and an `Option` per row. The visitors here pay
//! the dtype dispatch once per column: the scan is monomorphized per element
//! type and walks the validity bitmap a word at a time — an all-valid word
//! (`u64::MAX`) takes a branch-free loop over 64 values, a mixed word visits
//! only its set bits via `trailing_zeros`. Nothing is materialized; the
//! callback sees `(row, value)` in ascending row order, exactly the sequence
//! `(0..len).filter_map(|i| f64_at(i).map(|v| (i, v)))` yields.
//!
//! Rule: a loop over the rows of a column goes through a visitor; `f64_at`
//! is for genuine random access (renderers, tests) only.

use crate::bitmap::Bitmap;
use crate::column::{Column, PrimitiveColumn};

/// Walk the valid rows of `[start, end)` word-by-word: `on_valid` runs for
/// every valid row index, and the number of valid rows visited is returned
/// (nulls are `len - valid` — counted by popcount, never per row).
#[inline]
pub fn for_each_valid<F: FnMut(usize)>(
    validity: Option<&Bitmap>,
    start: usize,
    end: usize,
    mut on_valid: F,
) -> usize {
    debug_assert!(start <= end);
    if start == end {
        return 0;
    }
    let Some(bm) = validity else {
        for i in start..end {
            on_valid(i);
        }
        return end - start;
    };
    let words = bm.words();
    walk_words(|wi| words[wi], start, end, on_valid)
}

/// The word walk itself, over validity words supplied by `word_at` (one
/// bitmap's words, or the AND of several row-aligned columns').
#[inline]
fn walk_words(
    word_at: impl Fn(usize) -> u64,
    start: usize,
    end: usize,
    mut on_valid: impl FnMut(usize),
) -> usize {
    let mut valid = 0usize;
    for wi in start / 64..end.div_ceil(64) {
        let base = wi * 64;
        let mut w = word_at(wi);
        if base < start {
            w &= u64::MAX << (start - base);
        }
        if end - base < 64 {
            w &= (1u64 << (end - base)) - 1;
        }
        if w == u64::MAX {
            valid += 64;
            for i in base..base + 64 {
                on_valid(i);
            }
        } else {
            valid += w.count_ones() as usize;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                on_valid(base + bit);
                w &= w - 1;
            }
        }
    }
    valid
}

/// Smallest and largest valid value of rows `[start, end)`, `None` when
/// every row is null. The dense-key kernels read it to decide whether
/// `v - min` fits a small code space before they index with it.
pub fn int_span(
    values: &[i64],
    validity: Option<&Bitmap>,
    start: usize,
    end: usize,
) -> Option<(i64, i64)> {
    let (mut lo, mut hi) = (i64::MAX, i64::MIN);
    let valid = for_each_valid(validity, start, end, |i| {
        lo = lo.min(values[i]);
        hi = hi.max(values[i]);
    });
    (valid > 0).then_some((lo, hi))
}

/// Element types with a numeric view — exactly [`Column::f64_at`]'s
/// conversions.
trait AsF64: Copy {
    fn as_f64(self) -> f64;
}

impl AsF64 for i64 {
    #[inline]
    fn as_f64(self) -> f64 {
        self as f64
    }
}

impl AsF64 for f64 {
    #[inline]
    fn as_f64(self) -> f64 {
        self
    }
}

impl AsF64 for bool {
    #[inline]
    fn as_f64(self) -> f64 {
        if self {
            1.0
        } else {
            0.0
        }
    }
}

/// Row-aligned typed inputs of one scan: a single column's buffer, or a
/// tuple of them (valid where every member is valid, as long as the
/// shortest).
trait Lanes {
    type Item;
    fn len(&self) -> usize;
    /// Validity word `wi`; all ones for a lane without a bitmap (the walk
    /// masks the tail).
    fn word(&self, wi: usize) -> u64;
    fn at(&self, i: usize) -> Self::Item;
}

/// One column's value buffer and validity.
struct Lane<'a, T> {
    values: &'a [T],
    validity: Option<&'a [u64]>,
}

impl<'a, T: Copy + Default> Lane<'a, T> {
    fn of(col: &'a PrimitiveColumn<T>) -> Lane<'a, T> {
        Lane {
            values: col.values(),
            validity: col.validity().map(Bitmap::words),
        }
    }
}

impl<T: AsF64> Lanes for Lane<'_, T> {
    type Item = f64;
    #[inline]
    fn len(&self) -> usize {
        self.values.len()
    }
    #[inline]
    fn word(&self, wi: usize) -> u64 {
        self.validity.map_or(u64::MAX, |words| words[wi])
    }
    #[inline]
    fn at(&self, i: usize) -> f64 {
        self.values[i].as_f64()
    }
}

impl<A: Lanes, B: Lanes> Lanes for (A, B) {
    type Item = (A::Item, B::Item);
    #[inline]
    fn len(&self) -> usize {
        self.0.len().min(self.1.len())
    }
    #[inline]
    fn word(&self, wi: usize) -> u64 {
        self.0.word(wi) & self.1.word(wi)
    }
    #[inline]
    fn at(&self, i: usize) -> Self::Item {
        (self.0.at(i), self.1.at(i))
    }
}

#[inline]
fn scan<L: Lanes>(lanes: L, mut f: impl FnMut(usize, L::Item)) {
    walk_words(|wi| lanes.word(wi), 0, lanes.len(), |i| f(i, lanes.at(i)));
}

/// The one per-column dtype dispatch: bind `$lane` to the column's typed
/// [`Lane`] and evaluate `$body` (a `Str` column has no numeric view and
/// visits nothing, as `f64_at` returns `None` for it).
macro_rules! with_lane {
    ($col:expr, $lane:ident => $body:expr) => {
        match $col {
            Column::Int64(c) | Column::DateTime(c) => {
                let $lane = Lane::of(c);
                $body
            }
            Column::Float64(c) => {
                let $lane = Lane::of(c);
                $body
            }
            Column::Bool(c) => {
                let $lane = Lane::of(c);
                $body
            }
            Column::Str(_) => {}
        }
    };
}

impl Column {
    /// The validity bitmap, if any row is null.
    pub fn validity(&self) -> Option<&Bitmap> {
        match self {
            Column::Int64(c) | Column::DateTime(c) => c.validity(),
            Column::Float64(c) => c.validity(),
            Column::Bool(c) => c.validity(),
            Column::Str(c) => c.validity(),
        }
    }

    /// Visit `(row, numeric view)` of every non-null row, ascending.
    #[inline]
    pub fn for_each_f64(&self, f: impl FnMut(usize, f64)) {
        with_lane!(self, a => scan(a, f));
    }

    /// The non-null, non-NaN values of the numeric view in row order, for
    /// the order statistics that have to sort them.
    pub fn non_nan_f64s(&self) -> Vec<f64> {
        let mut vals = Vec::new();
        self.for_each_f64(|_, v| {
            if !v.is_nan() {
                vals.push(v);
            }
        });
        vals
    }

    /// Dense form of [`Column::for_each_f64`]: every row in order, `None`
    /// where the numeric view is null — for kernels that emit one output
    /// per input row.
    pub fn for_each_row_f64(&self, mut f: impl FnMut(usize, Option<f64>)) {
        let mut next = 0;
        self.for_each_f64(|row, v| {
            for null in next..row {
                f(null, None);
            }
            f(row, Some(v));
            next = row + 1;
        });
        for null in next..self.len() {
            f(null, None);
        }
    }
}

/// Visit `(row, x, y)` of every row where both columns are non-null,
/// ascending, over the shorter column's length.
#[inline]
pub fn for_each_f64_pair(x: &Column, y: &Column, mut f: impl FnMut(usize, f64, f64)) {
    with_lane!(x, a => with_lane!(y, b => scan((a, b), |i, (p, q)| f(i, p, q))));
}

/// Three-column form of [`for_each_f64_pair`].
#[inline]
pub fn for_each_f64_triple(
    x: &Column,
    y: &Column,
    z: &Column,
    mut f: impl FnMut(usize, f64, f64, f64),
) {
    with_lane!(x, a => with_lane!(y, b => with_lane!(z, c => {
        scan(((a, b), c), |i, ((p, q), r)| f(i, p, q, r))
    })));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_each_valid_handles_unaligned_ranges() {
        let bm = Bitmap::from_iter((0..200).map(|i| i % 3 != 0));
        for (start, end) in [(0, 200), (1, 199), (63, 65), (64, 128), (130, 131)] {
            let mut seen = Vec::new();
            let valid = for_each_valid(Some(&bm), start, end, |i| seen.push(i));
            let expect: Vec<usize> = (start..end).filter(|&i| i % 3 != 0).collect();
            assert_eq!(seen, expect, "range {start}..{end}");
            assert_eq!(valid, expect.len());
        }
        let mut n = 0;
        assert_eq!(for_each_valid(None, 5, 10, |_| n += 1), 5);
        assert_eq!(n, 5);
    }
}
