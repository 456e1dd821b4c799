//! Column selection and row subsetting: `select`, `drop_columns`, `head`,
//! `tail`, `take`, `sample`.

use std::sync::{Arc, Mutex, PoisonError};

use crate::error::{Error, Result};
use crate::frame::DataFrame;
use crate::history::{Event, OpKind};

impl DataFrame {
    /// Keep only the named columns, in the given order.
    pub fn select(&self, names: &[&str]) -> Result<DataFrame> {
        let mut out_names = Vec::with_capacity(names.len());
        let mut out_cols = Vec::with_capacity(names.len());
        for &name in names {
            let pos = self
                .column_position(name)
                .ok_or_else(|| Error::ColumnNotFound(name.to_string()))?;
            out_names.push(name.to_string());
            out_cols.push(self.column_arc(self.column_names()[pos].as_str())?);
        }
        let event = Event::new(OpKind::Other, format!("select({names:?})"))
            .with_columns(names.iter().map(|s| s.to_string()).collect());
        Ok(self.derive(out_names, out_cols, self.index().clone(), event))
    }

    /// Drop the named columns (missing names are an error).
    pub fn drop_columns(&self, names: &[&str]) -> Result<DataFrame> {
        for &name in names {
            if !self.has_column(name) {
                return Err(Error::ColumnNotFound(name.to_string()));
            }
        }
        let keep: Vec<&str> = self
            .column_names()
            .iter()
            .filter(|n| !names.contains(&n.as_str()))
            .map(String::as_str)
            .collect();
        let mut df = self.select(&keep)?;
        df.record_event(Event::new(
            OpKind::Other,
            format!("drop_columns({names:?})"),
        ));
        Ok(df)
    }

    /// The first `n` rows.
    pub fn head(&self, n: usize) -> DataFrame {
        let n = n.min(self.num_rows());
        let indices: Vec<usize> = (0..n).collect();
        self.take_rows_with_event(&indices, Event::new(OpKind::Filter, format!("head({n})")))
    }

    /// The last `n` rows.
    pub fn tail(&self, n: usize) -> DataFrame {
        let nrows = self.num_rows();
        let n = n.min(nrows);
        let indices: Vec<usize> = (nrows - n..nrows).collect();
        self.take_rows_with_event(&indices, Event::new(OpKind::Filter, format!("tail({n})")))
    }

    /// Gather arbitrary rows by position.
    pub fn take_rows(&self, indices: &[usize]) -> DataFrame {
        self.take_rows_with_event(
            indices,
            Event::new(OpKind::Filter, format!("take({} rows)", indices.len())),
        )
    }

    /// Deterministic sample of up to `n` rows using a seeded xorshift
    /// permutation (no external RNG dependency in this crate).
    pub fn sample(&self, n: usize, seed: u64) -> DataFrame {
        let indices = sample_indices(self.num_rows(), n, seed);
        self.take_rows_with_event(&indices, Event::new(OpKind::Filter, format!("sample({n})")))
    }

    fn take_rows_with_event(&self, indices: &[usize], event: Event) -> DataFrame {
        let names = self.column_names().to_vec();
        let columns: Vec<Arc<crate::column::Column>> = (0..self.num_columns())
            .map(|c| Arc::new(self.column_at(c).take(indices)))
            .collect();
        let index = self.index().take(indices);
        self.derive_with_parent(names, columns, index, event)
    }
}

/// The xorshift64* stream [`DataFrame::sample`] draws from.
fn xorshift64star(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// The ascending row indices of a `min(n, nrows)`-row sample. The draw is
/// a pure function of its arguments and the last one is kept: a print's
/// scatters sample one frame to one cap with one seed (paper §8.2, "a
/// cached sample"), so only the first of them draws and the rest gather
/// their own columns through the shared indices.
fn sample_indices(nrows: usize, n: usize, seed: u64) -> Arc<[usize]> {
    type Draw = ((usize, usize, u64), Arc<[usize]>);
    static LAST: Mutex<Option<Draw>> = Mutex::new(None);
    let key = (nrows, n, seed);
    let mut last = LAST.lock().unwrap_or_else(PoisonError::into_inner);
    match &*last {
        Some((drawn_for, indices)) if *drawn_for == key => Arc::clone(indices),
        _ => {
            let indices: Arc<[usize]> = draw_indices(nrows, n, seed).into();
            *last = Some((key, Arc::clone(&indices)));
            indices
        }
    }
}

/// A partial Fisher-Yates over the virtual pool `0..nrows`. Only the first
/// `n` slots (where the draws land) are materialized; a swap partner past
/// them goes through a map of displaced slots, so a draw costs O(n) time
/// and memory however tall the frame is.
fn draw_indices(nrows: usize, n: usize, seed: u64) -> Vec<usize> {
    if n >= nrows {
        return (0..nrows).collect();
    }
    let mut next = xorshift64star(seed);
    let mut head: Vec<usize> = (0..n).collect();
    let mut tail = DisplacedSlots::with_capacity(n);
    for i in 0..n {
        let j = i + (next() as usize) % (nrows - i);
        if j < n {
            head.swap(i, j);
        } else {
            head[i] = tail.replace(j, head[i]);
        }
    }
    head.sort_unstable();
    head
}

/// The pool slots past the head that a swap has displaced: an open-addressed
/// `slot -> value` table sized once for its at most `n` keys (a slot absent
/// from it still holds its own index). Keys are stored `+ 1`; 0 is empty.
struct DisplacedSlots {
    entries: Vec<(usize, usize)>,
    shift: u32,
}

impl DisplacedSlots {
    fn with_capacity(n: usize) -> DisplacedSlots {
        let len = (n * 2).next_power_of_two().max(2);
        DisplacedSlots {
            entries: vec![(0, 0); len],
            shift: usize::BITS - len.trailing_zeros(),
        }
    }

    /// Store `value` at pool slot `slot`; returns what the pool held there.
    fn replace(&mut self, slot: usize, value: usize) -> usize {
        let mask = self.entries.len() - 1;
        // Fibonacci hashing: the high bits of the product index the table.
        let mut at = slot.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as usize) >> self.shift;
        loop {
            let entry = &mut self.entries[at];
            if entry.0 == 0 {
                *entry = (slot + 1, value);
                return slot;
            }
            if entry.0 == slot + 1 {
                return std::mem::replace(&mut entry.1, value);
            }
            at = (at + 1) & mask;
        }
    }
}

impl DataFrame {
    /// Drop rows whose values in `subset` duplicate an earlier row (first
    /// occurrence wins, pandas-style). An empty subset means all columns.
    pub fn drop_duplicates(&self, subset: &[&str]) -> Result<DataFrame> {
        let columns: Vec<&str> = if subset.is_empty() {
            self.column_names().iter().map(String::as_str).collect()
        } else {
            subset.to_vec()
        };
        for c in &columns {
            if !self.has_column(c) {
                return Err(Error::ColumnNotFound(c.to_string()));
            }
        }
        let gb = self.groupby(&columns)?;
        let mut seen = vec![false; gb.num_groups()];
        let mut keep = Vec::new();
        for (row, &g) in gb.group_ids().iter().enumerate() {
            if !seen[g as usize] {
                seen[g as usize] = true;
                keep.push(row);
            }
        }
        let mut out = self.take_rows(&keep);
        out.record_event(Event::new(
            OpKind::Filter,
            format!("drop_duplicates({columns:?})"),
        ));
        Ok(out)
    }

    /// Keep rows whose `column` value is in `values` (null never matches).
    pub fn isin(&self, column: &str, values: &[crate::value::Value]) -> Result<DataFrame> {
        let col = self.column(column)?;
        let mask = crate::bitmap::Bitmap::from_iter((0..col.len()).map(|i| {
            let v = col.value(i);
            !v.is_null() && values.contains(&v)
        }));
        let mut out = self.filter_rows(&mask)?;
        out.record_event(
            Event::new(
                OpKind::Filter,
                format!("isin({column}, {} values)", values.len()),
            )
            .with_columns(vec![column.to_string()]),
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::{draw_indices, sample_indices, xorshift64star};
    use crate::frame::DataFrameBuilder;
    use crate::history::OpKind;
    use crate::value::Value;

    /// The dense-pool partial Fisher-Yates `draw_indices` replaced.
    fn dense_sample_indices(nrows: usize, n: usize, seed: u64) -> Vec<usize> {
        if n >= nrows {
            return (0..nrows).collect();
        }
        let mut next = xorshift64star(seed);
        let mut pool: Vec<usize> = (0..nrows).collect();
        for i in 0..n {
            let j = i + (next() as usize) % (nrows - i);
            pool.swap(i, j);
        }
        let mut indices = pool[..n].to_vec();
        indices.sort_unstable();
        indices
    }

    #[test]
    fn sparse_sample_draws_the_dense_pools_indices() {
        for nrows in [0usize, 1, 2, 7, 64, 1000] {
            for n in [0, 1, nrows.saturating_sub(1), nrows, nrows + 1] {
                assert_eq!(
                    draw_indices(nrows, n, 42),
                    dense_sample_indices(nrows, n, 42),
                    "nrows {nrows}, n {n}"
                );
            }
        }
        // 100 random (nrows, n, seed) triples off the same generator
        let mut next = xorshift64star(0xC0FFEE);
        for _ in 0..100 {
            let nrows = (next() % 5000) as usize;
            let n = (next() % 5200) as usize;
            let seed = next();
            assert_eq!(
                draw_indices(nrows, n, seed),
                dense_sample_indices(nrows, n, seed),
                "nrows {nrows}, n {n}, seed {seed}"
            );
        }
    }

    /// The kept draw is the one its key asks for: a repeat shares it, and
    /// interleaved keys (a filtered scatter between two unfiltered ones)
    /// each get their own draw back.
    #[test]
    fn kept_draw_answers_only_its_own_key() {
        // Tests sampling on other threads may replace the kept draw between
        // the two calls, so one shared pair in a few tries is the evidence.
        let shared = (0..100).any(|_| {
            let first = sample_indices(12_000, 5_000, 7);
            std::sync::Arc::ptr_eq(&first, &sample_indices(12_000, 5_000, 7))
        });
        assert!(shared, "a repeated draw was never shared");
        for (nrows, n, seed) in [(12_000, 5_000, 7), (9_000, 5_000, 7), (12_000, 5_000, 8)] {
            for _ in 0..2 {
                let drawn = sample_indices(nrows, n, seed);
                assert_eq!(
                    *drawn,
                    *dense_sample_indices(nrows, n, seed),
                    "{nrows} {n} {seed}"
                );
            }
        }
    }

    fn df() -> crate::frame::DataFrame {
        DataFrameBuilder::new()
            .int("a", [1, 2, 3, 4, 5])
            .str("b", ["v", "w", "x", "y", "z"])
            .build()
            .unwrap()
    }

    #[test]
    fn select_reorders() {
        let s = df().select(&["b", "a"]).unwrap();
        assert_eq!(s.column_names(), &["b", "a"]);
        assert_eq!(s.num_rows(), 5);
    }

    #[test]
    fn select_missing_errors() {
        assert!(df().select(&["nope"]).is_err());
    }

    #[test]
    fn drop_columns_removes() {
        let d = df().drop_columns(&["a"]).unwrap();
        assert_eq!(d.column_names(), &["b"]);
        assert!(df().drop_columns(&["zz"]).is_err());
    }

    #[test]
    fn head_tail() {
        let h = df().head(2);
        assert_eq!(h.num_rows(), 2);
        assert_eq!(h.value(1, "a").unwrap(), Value::Int(2));
        let t = df().tail(2);
        assert_eq!(t.value(0, "a").unwrap(), Value::Int(4));
        // clamped
        assert_eq!(df().head(99).num_rows(), 5);
    }

    #[test]
    fn head_records_filter_event_with_parent() {
        let h = df().head(2);
        let e = h.history().last_of(OpKind::Filter).unwrap();
        assert!(e.detail.contains("head"));
        let parent = e.parent.as_ref().unwrap();
        assert_eq!(parent.num_rows(), 5);
    }

    #[test]
    fn sample_is_deterministic_and_sized() {
        let s1 = df().sample(3, 42);
        let s2 = df().sample(3, 42);
        assert_eq!(s1.num_rows(), 3);
        for i in 0..3 {
            assert_eq!(s1.value(i, "a").unwrap(), s2.value(i, "a").unwrap());
        }
        let s3 = df().sample(10, 1);
        assert_eq!(s3.num_rows(), 5);
    }

    #[test]
    fn take_rows_gathers() {
        let t = df().take_rows(&[4, 0]);
        assert_eq!(t.value(0, "b").unwrap(), Value::str("z"));
        assert_eq!(t.value(1, "b").unwrap(), Value::str("v"));
    }
}

#[cfg(test)]
mod dedup_tests {
    use crate::frame::DataFrameBuilder;
    use crate::value::Value;

    #[test]
    fn drop_duplicates_keeps_first() {
        let df = DataFrameBuilder::new()
            .str("k", ["a", "b", "a", "c", "b"])
            .int("v", [1, 2, 3, 4, 5])
            .build()
            .unwrap();
        let d = df.drop_duplicates(&["k"]).unwrap();
        assert_eq!(d.num_rows(), 3);
        assert_eq!(d.value(0, "v").unwrap(), Value::Int(1)); // first "a"
        assert_eq!(d.value(1, "v").unwrap(), Value::Int(2)); // first "b"
    }

    #[test]
    fn drop_duplicates_all_columns_by_default() {
        let df = DataFrameBuilder::new()
            .str("k", ["a", "a", "a"])
            .int("v", [1, 1, 2])
            .build()
            .unwrap();
        let d = df.drop_duplicates(&[]).unwrap();
        assert_eq!(d.num_rows(), 2);
        assert!(df.drop_duplicates(&["zz"]).is_err());
    }

    #[test]
    fn isin_filters_membership() {
        let df = DataFrameBuilder::new()
            .str("c", ["x", "y", "z", "x"])
            .build()
            .unwrap();
        let d = df.isin("c", &[Value::str("x"), Value::str("z")]).unwrap();
        assert_eq!(d.num_rows(), 3);
        let none = df.isin("c", &[]).unwrap();
        assert_eq!(none.num_rows(), 0);
    }
}
