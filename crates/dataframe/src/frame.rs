//! The columnar [`DataFrame`].

use std::any::Any;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::column::Column;
use crate::error::{Error, Result};
use crate::history::{Event, History, OpKind};
use crate::index::Index;
use crate::value::{DType, Value};

/// An immutable, columnar dataframe.
///
/// Columns are `Arc`-shared, so deriving frames (filter, select, assign, ...)
/// is cheap: untouched columns are reference-counted rather than copied. All
/// operations return *new* frames; the attached [`History`] records how each
/// frame was derived, which is what powers Lux's history-based
/// recommendations.
#[derive(Debug, Clone)]
pub struct DataFrame {
    names: Vec<String>,
    columns: Vec<Arc<Column>>,
    index: Index,
    history: History,
    /// The frame's identity: every constructed or derived frame mints a
    /// fresh one, while plain clones share it (same data, same identity).
    /// Downstream memos live in it, so any data-changing operation starts
    /// them empty and dropping the last frame of an identity frees them.
    state: Arc<FrameState>,
    /// Set only by [`DataFrame::concat`]: `(parent_state, parent_rows)`
    /// records that rows `0..parent_rows` of every column are byte-identical
    /// to the frames of `parent_state` (string dictionaries extend by
    /// prefix). The metadata pass uses it to merge the parent's per-column
    /// partials with a scan of only the appended tail instead of
    /// recomputing from row zero.
    append_lineage: Option<(Arc<FrameState>, usize)>,
}

/// What one frame identity keeps beside its data: its fingerprint, and the
/// state downstream crates attach to it (the metadata pass's partials, the
/// processed-vis memo), one value per type. It is minted with every fresh
/// fingerprint and shared by clones, so two frames share a `FrameState`
/// exactly when they share a fingerprint, and what it holds is freed with
/// the last of them.
pub struct FrameState {
    fingerprint: u64,
    slots: Mutex<Vec<Arc<dyn Any + Send + Sync>>>,
}

impl FrameState {
    /// A fresh identity. Fingerprints start at 1 and never repeat within a
    /// process.
    fn mint() -> Arc<FrameState> {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        Arc::new(FrameState {
            fingerprint: NEXT.fetch_add(1, Ordering::Relaxed),
            slots: Mutex::default(),
        })
    }

    /// This identity's `T`, made with `T::default()` on first use. A value
    /// kept here must not hold a frame of this identity, a clone included:
    /// that would be an `Arc` cycle, never freed.
    pub fn get<T: Any + Send + Sync + Default>(&self) -> Arc<T> {
        // Every update is one push, so a poisoned lock guards a valid list.
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(t) = slots
            .iter()
            .find_map(|s| Arc::clone(s).downcast::<T>().ok())
        {
            return t;
        }
        let t = Arc::new(T::default());
        slots.push(t.clone());
        t
    }
}

impl fmt::Debug for FrameState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FrameState({})", self.fingerprint)
    }
}

impl DataFrame {
    /// An empty frame with no columns and no rows.
    pub fn empty() -> DataFrame {
        DataFrame {
            names: Vec::new(),
            columns: Vec::new(),
            index: Index::range(0),
            history: History::new(),
            state: FrameState::mint(),
            append_lineage: None,
        }
    }

    /// Build a frame from `(name, column)` pairs. All columns must share a
    /// length and names must be distinct.
    pub fn from_columns(cols: Vec<(String, Column)>) -> Result<DataFrame> {
        DataFrame::from_shared(cols.into_iter().map(|(n, c)| (n, Arc::new(c))).collect())
    }

    /// [`DataFrame::from_columns`] around column buffers it shares.
    pub(crate) fn from_shared(cols: Vec<(String, Arc<Column>)>) -> Result<DataFrame> {
        let mut df = DataFrame::empty();
        let nrows = cols.first().map_or(0, |(_, c)| c.len());
        df.index = Index::range(nrows);
        for (name, col) in cols {
            if col.len() != nrows {
                return Err(Error::LengthMismatch {
                    expected: nrows,
                    got: col.len(),
                });
            }
            if df.names.iter().any(|n| n == &name) {
                return Err(Error::DuplicateColumn(name));
            }
            df.names.push(name);
            df.columns.push(col);
        }
        df.record_event(Event::new(OpKind::Load, "from_columns"));
        Ok(df)
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(self.index.len(), |c| c.len())
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column names, in order.
    pub fn column_names(&self) -> &[String] {
        &self.names
    }

    /// True if a column with this name exists.
    pub fn has_column(&self, name: &str) -> bool {
        self.names.iter().any(|n| n == name)
    }

    /// Position of a column by name.
    pub fn column_position(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// A column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.column_position(name)
            .map(|i| self.columns[i].as_ref())
            .ok_or_else(|| Error::ColumnNotFound(name.to_string()))
    }

    /// The shared handle for a column by name.
    pub fn column_arc(&self, name: &str) -> Result<Arc<Column>> {
        self.column_position(name)
            .map(|i| Arc::clone(&self.columns[i]))
            .ok_or_else(|| Error::ColumnNotFound(name.to_string()))
    }

    /// A column by position.
    pub fn column_at(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// The shared handle for a column by position.
    pub fn column_arc_at(&self, i: usize) -> &Arc<Column> {
        &self.columns[i]
    }

    /// `(name, dtype)` pairs describing the schema.
    pub fn schema(&self) -> Vec<(&str, DType)> {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.columns.iter().map(|c| c.dtype()))
            .collect()
    }

    /// The row index.
    pub fn index(&self) -> &Index {
        &self.index
    }

    /// The operation history.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The frame's freshness stamp: process-unique per constructed/derived
    /// frame, shared by clones. Two frames with equal fingerprints hold the
    /// same data, so memo caches may key on it (the converse does not hold —
    /// re-deriving identical data yields a new stamp, costing only a miss).
    pub fn fingerprint(&self) -> u64 {
        self.state.fingerprint
    }

    /// The frame's identity and the state kept on it, shared by clones.
    pub fn state(&self) -> &Arc<FrameState> {
        &self.state
    }

    /// Append provenance, when this frame was produced by
    /// [`DataFrame::concat`]: `(parent_state, parent_rows)` such that rows
    /// `0..parent_rows` of every column equal the parent frame's rows (and
    /// string dictionaries extend the parent's by suffix). `None` for every
    /// other derivation.
    pub fn append_lineage(&self) -> Option<(&FrameState, usize)> {
        self.append_lineage
            .as_ref()
            .map(|(parent, rows)| (&**parent, *rows))
    }

    /// Stamp append provenance on a freshly derived frame (concat only).
    pub(crate) fn set_append_lineage(&mut self, parent: &DataFrame) {
        self.append_lineage = Some((Arc::clone(&parent.state), parent.num_rows()));
    }

    /// The boxed value at `(row, column-name)`.
    pub fn value(&self, row: usize, column: &str) -> Result<Value> {
        Ok(self.column(column)?.value(row))
    }

    /// A full row as boxed values, in column order.
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(row)).collect()
    }

    // ------------------------------------------------------------------
    // Internal construction helpers used by the ops modules.
    // ------------------------------------------------------------------

    /// Derive a new frame with the given parts, carrying this frame's history
    /// plus `event`. A Filter or Aggregate event keeps `self` as its kind's
    /// parent, for the history actions that show the pre-operation frame.
    pub(crate) fn derive(
        &self,
        names: Vec<String>,
        columns: Vec<Arc<Column>>,
        index: Index,
        event: Event,
    ) -> DataFrame {
        let mut history = self.history.clone();
        history.push(event, Some(self));
        DataFrame {
            names,
            columns,
            index,
            history,
            ..DataFrame::empty()
        }
    }

    /// A clone whose history keeps no parents: stored as a parent it chains no
    /// ancestors, and kept in a [`FrameState`] it holds no other identity's.
    pub fn clone_without_parents(&self) -> DataFrame {
        let mut df = self.clone();
        df.history.clear_parents();
        df
    }

    /// Record an extra event on this frame, with no parent.
    pub(crate) fn record_event(&mut self, event: Event) {
        self.history.push(event, None);
    }

    /// Replace the index (used by group-by style ops). Re-stamps the
    /// fingerprint: index labels are part of what downstream consumers see.
    pub(crate) fn with_index(mut self, index: Index) -> DataFrame {
        self.index = index;
        self.state = FrameState::mint();
        self.append_lineage = None;
        self
    }

    /// Render at most `max_rows` rows as an aligned text table, pandas-style
    /// (head and tail with an ellipsis row in between).
    pub fn to_table_string(&self, max_rows: usize) -> String {
        let nrows = self.num_rows();
        let mut rows_to_show: Vec<Option<usize>> = Vec::new();
        if nrows <= max_rows {
            rows_to_show.extend((0..nrows).map(Some));
        } else {
            let half = max_rows / 2;
            rows_to_show.extend((0..half).map(Some));
            rows_to_show.push(None); // ellipsis
            rows_to_show.extend((nrows - half..nrows).map(Some));
        }

        let mut headers: Vec<String> = vec![self.index.name().unwrap_or("").to_string()];
        headers.extend(self.names.iter().cloned());
        let mut table: Vec<Vec<String>> = vec![headers];
        for r in &rows_to_show {
            let row = match r {
                Some(i) => {
                    let mut cells = vec![self.index.label(*i).to_string()];
                    cells.extend(self.columns.iter().map(|c| c.value(*i).to_string()));
                    cells
                }
                None => vec!["...".to_string(); self.num_columns() + 1],
            };
            table.push(row);
        }

        let ncols = table[0].len();
        let widths: Vec<usize> = (0..ncols)
            .map(|c| table.iter().map(|row| row[c].len()).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        for row in &table {
            for (c, cell) in row.iter().enumerate() {
                if c > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{:>width$}", cell, width = widths[c]));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "[{} rows x {} columns]\n",
            nrows,
            self.num_columns()
        ));
        out
    }
}

impl fmt::Display for DataFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_table_string(10))
    }
}

/// Convenience constructor used heavily in tests and examples:
/// `df![("a", [1,2,3]), ("b", ["x","y","z"])]`-style building via tuples.
#[derive(Debug, Default)]
pub struct DataFrameBuilder {
    cols: Vec<(String, Column)>,
}

impl DataFrameBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an i64 column.
    pub fn int(mut self, name: &str, values: impl IntoIterator<Item = i64>) -> Self {
        let col = Column::Int64(crate::column::PrimitiveColumn::from_values(
            values.into_iter().collect(),
        ));
        self.cols.push((name.to_string(), col));
        self
    }

    /// Add an f64 column.
    pub fn float(mut self, name: &str, values: impl IntoIterator<Item = f64>) -> Self {
        let col = Column::Float64(crate::column::PrimitiveColumn::from_values(
            values.into_iter().collect(),
        ));
        self.cols.push((name.to_string(), col));
        self
    }

    /// Add a string column.
    pub fn str(mut self, name: &str, values: impl IntoIterator<Item = impl AsRef<str>>) -> Self {
        let col = Column::Str(crate::column::StrColumn::from_strings(values));
        self.cols.push((name.to_string(), col));
        self
    }

    /// Add a bool column.
    pub fn bool(mut self, name: &str, values: impl IntoIterator<Item = bool>) -> Self {
        let col = Column::Bool(crate::column::PrimitiveColumn::from_values(
            values.into_iter().collect(),
        ));
        self.cols.push((name.to_string(), col));
        self
    }

    /// Add a datetime column from `YYYY-MM-DD` strings. Panics on parse
    /// failure — builder is for literals in tests/examples.
    pub fn datetime(
        mut self,
        name: &str,
        values: impl IntoIterator<Item = impl AsRef<str>>,
    ) -> Self {
        let vals: Vec<i64> = values
            .into_iter()
            .map(|s| crate::value::parse_datetime(s.as_ref()).expect("invalid datetime literal"))
            .collect();
        let col = Column::DateTime(crate::column::PrimitiveColumn::from_values(vals));
        self.cols.push((name.to_string(), col));
        self
    }

    /// Add an arbitrary column.
    pub fn column(mut self, name: &str, col: Column) -> Self {
        self.cols.push((name.to_string(), col));
        self
    }

    pub fn build(self) -> Result<DataFrame> {
        DataFrame::from_columns(self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataFrame {
        DataFrameBuilder::new()
            .int("age", [25, 32, 47])
            .str("dept", ["Sales", "Eng", "Sales"])
            .float("salary", [50.0, 80.0, 65.5])
            .build()
            .unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let df = sample();
        assert_eq!(df.num_rows(), 3);
        assert_eq!(df.num_columns(), 3);
        assert_eq!(df.column_names(), &["age", "dept", "salary"]);
    }

    #[test]
    fn schema_reports_types() {
        let df = sample();
        let schema = df.schema();
        assert_eq!(schema[0], ("age", DType::Int64));
        assert_eq!(schema[1], ("dept", DType::Str));
        assert_eq!(schema[2], ("salary", DType::Float64));
    }

    #[test]
    fn column_lookup() {
        let df = sample();
        assert!(df.column("age").is_ok());
        assert!(matches!(df.column("nope"), Err(Error::ColumnNotFound(_))));
        assert_eq!(df.value(1, "dept").unwrap(), Value::str("Eng"));
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let r = DataFrameBuilder::new()
            .int("a", [1, 2])
            .int("b", [1])
            .build();
        assert!(matches!(r, Err(Error::LengthMismatch { .. })));
    }

    #[test]
    fn duplicate_names_rejected() {
        let r = DataFrameBuilder::new()
            .int("a", [1])
            .float("a", [1.0])
            .build();
        assert!(matches!(r, Err(Error::DuplicateColumn(_))));
    }

    #[test]
    fn construction_records_load_event() {
        let df = sample();
        assert!(df.history().contains(OpKind::Load));
    }

    #[test]
    fn row_extraction() {
        let df = sample();
        let row = df.row(2);
        assert_eq!(
            row,
            vec![Value::Int(47), Value::str("Sales"), Value::Float(65.5)]
        );
    }

    #[test]
    fn table_string_truncates() {
        let df = DataFrameBuilder::new().int("x", 0..100).build().unwrap();
        let s = df.to_table_string(6);
        assert!(s.contains("..."));
        assert!(s.contains("[100 rows x 1 columns]"));
        // head and tail present
        assert!(s.contains('0') && s.contains("99"));
    }

    #[test]
    fn empty_frame() {
        let df = DataFrame::empty();
        assert_eq!(df.num_rows(), 0);
        assert_eq!(df.num_columns(), 0);
    }

    #[test]
    fn fingerprint_fresh_on_derive_stable_on_clone() {
        let df = sample();
        assert_ne!(df.fingerprint(), 0);
        let clone = df.clone();
        assert_eq!(df.fingerprint(), clone.fingerprint(), "clones share data");
        assert!(Arc::ptr_eq(df.state(), clone.state()), "and their state");
        let other = sample();
        assert_ne!(df.fingerprint(), other.fingerprint());
        let derived = df.head(2);
        assert_ne!(df.fingerprint(), derived.fingerprint());
        assert!(!Arc::ptr_eq(df.state(), derived.state()));
    }

    #[test]
    fn state_is_one_value_per_type_and_freed_with_its_frames() {
        #[derive(Default)]
        struct Tally(AtomicU64);
        let df = sample();
        let clone = df.clone();
        df.state().get::<Tally>().0.fetch_add(2, Ordering::Relaxed);
        assert_eq!(clone.state().get::<Tally>().0.load(Ordering::Relaxed), 2);
        assert_eq!(
            df.head(1).state().get::<Tally>().0.load(Ordering::Relaxed),
            0
        );
        let weak = Arc::downgrade(df.state());
        drop((df, clone));
        assert!(weak.upgrade().is_none());
    }
}
