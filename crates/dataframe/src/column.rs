//! Typed column storage.
//!
//! A [`Column`] is a homogeneous vector of values with an optional validity
//! bitmap. Strings are dictionary-encoded ([`StrColumn`]): each distinct
//! string is stored once and rows hold `u32` codes, which makes cardinality,
//! group-by and filter-by-value operations cheap — exactly the operations the
//! Lux metadata and recommendation layers lean on.

use std::collections::HashMap;
use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::error::{Error, Result};
use crate::value::{DType, Value};

/// A primitive column: a dense buffer plus an optional validity bitmap.
///
/// `validity == None` means every row is valid. When a bitmap is present,
/// rows whose bit is unset are null and the corresponding buffer slot holds
/// an arbitrary (but initialized) placeholder.
#[derive(Debug, Clone, PartialEq)]
pub struct PrimitiveColumn<T> {
    values: Vec<T>,
    validity: Option<Bitmap>,
}

impl<T: Copy + Default> PrimitiveColumn<T> {
    /// Build an all-valid column from raw values.
    pub fn from_values(values: Vec<T>) -> Self {
        Self {
            values,
            validity: None,
        }
    }

    /// Build from options; `None` entries become nulls.
    pub fn from_options(values: Vec<Option<T>>) -> Self {
        let any_null = values.iter().any(Option::is_none);
        if !any_null {
            return Self::from_values(values.into_iter().map(|v| v.unwrap()).collect());
        }
        let validity = Bitmap::from_iter(values.iter().map(Option::is_some));
        let values = values.into_iter().map(Option::unwrap_or_default).collect();
        Self {
            values,
            validity: Some(validity),
        }
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Raw buffer including placeholder slots for nulls.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// The validity bitmap, if any row is null.
    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }

    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().is_none_or(|v| v.get(i))
    }

    /// `Some(value)` for valid rows, `None` for nulls.
    #[inline]
    pub fn get(&self, i: usize) -> Option<T> {
        if self.is_valid(i) {
            Some(self.values[i])
        } else {
            None
        }
    }

    pub fn push(&mut self, value: Option<T>) {
        match value {
            Some(v) => {
                self.values.push(v);
                if let Some(b) = &mut self.validity {
                    b.push(true);
                }
            }
            None => {
                if self.validity.is_none() {
                    self.validity = Some(Bitmap::filled(self.values.len(), true));
                }
                self.values.push(T::default());
                self.validity.as_mut().unwrap().push(false);
            }
        }
    }

    /// Number of null rows.
    pub fn null_count(&self) -> usize {
        self.validity.as_ref().map_or(0, Bitmap::count_zeros)
    }

    /// Make row `i` null, its slot holding the placeholder `push(None)`
    /// writes.
    pub(crate) fn set_null(&mut self, i: usize) {
        self.values[i] = T::default();
        let len = self.values.len();
        self.validity
            .get_or_insert_with(|| Bitmap::filled(len, true))
            .set(i, false);
    }

    /// Gather rows at `indices`.
    pub fn take(&self, indices: &[usize]) -> Self {
        let values = indices.iter().map(|&i| self.values[i]).collect();
        let validity = self.validity.as_ref().map(|b| b.take(indices));
        Self { values, validity }
    }

    /// Iterate as options.
    pub fn iter(&self) -> impl Iterator<Item = Option<T>> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

/// A dictionary-encoded string column.
///
/// `codes[i]` indexes into the dictionary; nulls are tracked by the validity
/// bitmap with code 0 (or any code) as placeholder. The dictionary — the
/// distinct strings and their lookup map — sits behind one `Arc`: `clone`,
/// `take` and every row gather built on them (filter, sort, head, sample,
/// the group-by key gathers) share it, and `intern` copies it only when it
/// appends a new string to a shared one. It only ever grows by appending,
/// so a code names the same string in every column derived from this one.
#[derive(Debug, Clone)]
pub struct StrColumn {
    codes: Vec<u32>,
    dict: Arc<Dictionary>,
    validity: Option<Bitmap>,
}

/// The distinct strings of a [`StrColumn`], in first-interned order, and
/// their codes.
#[derive(Debug, Clone, Default)]
struct Dictionary {
    strings: Vec<Arc<str>>,
    lookup: HashMap<Arc<str>, u32>,
}

impl Default for StrColumn {
    fn default() -> Self {
        Self::new()
    }
}

impl StrColumn {
    pub fn new() -> Self {
        Self {
            codes: Vec::new(),
            dict: Arc::default(),
            validity: None,
        }
    }

    /// Build an all-valid column from strings.
    pub fn from_strings<S: AsRef<str>, I: IntoIterator<Item = S>>(iter: I) -> Self {
        let mut col = StrColumn::new();
        for s in iter {
            col.push(Some(s.as_ref()));
        }
        col
    }

    /// Build from options; `None` entries become nulls.
    pub fn from_options<S: AsRef<str>, I: IntoIterator<Item = Option<S>>>(iter: I) -> Self {
        let mut col = StrColumn::new();
        for s in iter {
            col.push(s.as_ref().map(AsRef::as_ref));
        }
        col
    }

    pub fn len(&self) -> usize {
        self.codes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Intern `s`, returning its dictionary code. A new string is appended
    /// to this column's own copy of the dictionary when it is shared.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(code) = self.code_of(s) {
            return code;
        }
        let dict = Arc::make_mut(&mut self.dict);
        let arc: Arc<str> = Arc::from(s);
        let code = dict.strings.len() as u32;
        dict.strings.push(arc.clone());
        dict.lookup.insert(arc, code);
        code
    }

    pub fn push(&mut self, value: Option<&str>) {
        match value {
            Some(s) => {
                let code = self.intern(s);
                self.codes.push(code);
                if let Some(b) = &mut self.validity {
                    b.push(true);
                }
            }
            None => {
                if self.validity.is_none() {
                    self.validity = Some(Bitmap::filled(self.codes.len(), true));
                }
                self.codes.push(0);
                self.validity.as_mut().unwrap().push(false);
            }
        }
    }

    /// Overwrite row `i` with the (valid) string `s`.
    pub(crate) fn set(&mut self, i: usize, s: &str) {
        self.codes[i] = self.intern(s);
        if let Some(v) = &mut self.validity {
            v.set(i, true);
        }
    }

    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().is_none_or(|v| v.get(i))
    }

    /// `Some(code)` for valid rows.
    #[inline]
    pub fn code(&self, i: usize) -> Option<u32> {
        if self.is_valid(i) {
            Some(self.codes[i])
        } else {
            None
        }
    }

    /// `Some(string)` for valid rows.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&Arc<str>> {
        self.code(i).map(|c| &self.dict.strings[c as usize])
    }

    /// The distinct strings present in the dictionary. Note: the dictionary
    /// may contain strings no longer referenced after filtering.
    pub fn dict(&self) -> &[Arc<str>] {
        &self.dict.strings
    }

    /// Dictionary code for `s`, if interned.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.dict.lookup.get(s).copied()
    }

    /// Raw code buffer (placeholder codes at null rows).
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }

    pub fn null_count(&self) -> usize {
        self.validity.as_ref().map_or(0, Bitmap::count_zeros)
    }

    /// Gather rows at `indices`. The result shares this column's
    /// dictionary (one reference count, no copy), so it may hold strings no
    /// taken row references.
    pub fn take(&self, indices: &[usize]) -> Self {
        let codes = indices.iter().map(|&i| self.codes[i]).collect();
        let validity = self.validity.as_ref().map(|b| b.take(indices));
        Self {
            codes,
            dict: Arc::clone(&self.dict),
            validity,
        }
    }

    /// Iterate as option-strings.
    pub fn iter(&self) -> impl Iterator<Item = Option<&Arc<str>>> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

impl PartialEq for StrColumn {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && (0..self.len()).all(|i| match (self.get(i), other.get(i)) {
                (None, None) => true,
                (Some(a), Some(b)) => a == b,
                _ => false,
            })
    }
}

/// A typed column.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    Int64(PrimitiveColumn<i64>),
    Float64(PrimitiveColumn<f64>),
    Bool(PrimitiveColumn<bool>),
    Str(StrColumn),
    /// Seconds since the Unix epoch.
    DateTime(PrimitiveColumn<i64>),
}

impl Column {
    pub fn dtype(&self) -> DType {
        match self {
            Column::Int64(_) => DType::Int64,
            Column::Float64(_) => DType::Float64,
            Column::Bool(_) => DType::Bool,
            Column::Str(_) => DType::Str,
            Column::DateTime(_) => DType::DateTime,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Column::Int64(c) | Column::DateTime(c) => c.len(),
            Column::Float64(c) => c.len(),
            Column::Bool(c) => c.len(),
            Column::Str(c) => c.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn null_count(&self) -> usize {
        match self {
            Column::Int64(c) | Column::DateTime(c) => c.null_count(),
            Column::Float64(c) => c.null_count(),
            Column::Bool(c) => c.null_count(),
            Column::Str(c) => c.null_count(),
        }
    }

    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        match self {
            Column::Int64(c) | Column::DateTime(c) => c.is_valid(i),
            Column::Float64(c) => c.is_valid(i),
            Column::Bool(c) => c.is_valid(i),
            Column::Str(c) => c.is_valid(i),
        }
    }

    /// The boxed value at row `i`.
    pub fn value(&self, i: usize) -> Value {
        match self {
            Column::Int64(c) => c.get(i).map_or(Value::Null, Value::Int),
            Column::Float64(c) => c.get(i).map_or(Value::Null, Value::Float),
            Column::Bool(c) => c.get(i).map_or(Value::Null, Value::Bool),
            Column::Str(c) => c.get(i).map_or(Value::Null, |s| Value::Str(s.clone())),
            Column::DateTime(c) => c.get(i).map_or(Value::Null, Value::DateTime),
        }
    }

    /// Numeric view of row `i` (ints/floats/bools/datetimes coerce to f64).
    #[inline]
    pub fn f64_at(&self, i: usize) -> Option<f64> {
        match self {
            Column::Int64(c) | Column::DateTime(c) => c.get(i).map(|v| v as f64),
            Column::Float64(c) => c.get(i),
            Column::Bool(c) => c.get(i).map(|b| if b { 1.0 } else { 0.0 }),
            Column::Str(_) => None,
        }
    }

    /// Gather rows at `indices` into a new column.
    pub fn take(&self, indices: &[usize]) -> Column {
        match self {
            Column::Int64(c) => Column::Int64(c.take(indices)),
            Column::Float64(c) => Column::Float64(c.take(indices)),
            Column::Bool(c) => Column::Bool(c.take(indices)),
            Column::Str(c) => Column::Str(c.take(indices)),
            Column::DateTime(c) => Column::DateTime(c.take(indices)),
        }
    }

    /// Keep rows where `mask` is set. `mask.len()` must equal `self.len()`.
    pub fn filter(&self, mask: &Bitmap) -> Result<Column> {
        if mask.len() != self.len() {
            return Err(Error::LengthMismatch {
                expected: self.len(),
                got: mask.len(),
            });
        }
        Ok(self.take(&mask.ones()))
    }

    /// Append the rows of `other` (must be same dtype).
    pub fn extend_from(&mut self, other: &Column) -> Result<()> {
        if self.dtype() != other.dtype() {
            return Err(Error::TypeMismatch {
                column: String::new(),
                expected: self.dtype().name(),
                got: other.dtype().name(),
            });
        }
        for i in 0..other.len() {
            self.push_value(&other.value(i))?;
        }
        Ok(())
    }

    /// Append one boxed value (must match dtype or be null).
    pub fn push_value(&mut self, v: &Value) -> Result<()> {
        match (self, v) {
            (Column::Int64(c), Value::Int(x)) => c.push(Some(*x)),
            (Column::Int64(c), Value::Null) => c.push(None),
            (Column::Float64(c), Value::Float(x)) => c.push(Some(*x)),
            (Column::Float64(c), Value::Int(x)) => c.push(Some(*x as f64)),
            (Column::Float64(c), Value::Null) => c.push(None),
            (Column::Bool(c), Value::Bool(x)) => c.push(Some(*x)),
            (Column::Bool(c), Value::Null) => c.push(None),
            (Column::Str(c), Value::Str(x)) => c.push(Some(x)),
            (Column::Str(c), Value::Null) => c.push(None),
            (Column::DateTime(c), Value::DateTime(x)) => c.push(Some(*x)),
            (Column::DateTime(c), Value::Null) => c.push(None),
            (col, v) => {
                return Err(Error::TypeMismatch {
                    column: String::new(),
                    expected: col.dtype().name(),
                    got: v.dtype().map_or("null", DType::name),
                })
            }
        }
        Ok(())
    }

    /// An empty column of the given dtype.
    pub fn empty(dtype: DType) -> Column {
        match dtype {
            DType::Int64 => Column::Int64(PrimitiveColumn::from_values(vec![])),
            DType::Float64 => Column::Float64(PrimitiveColumn::from_values(vec![])),
            DType::Bool => Column::Bool(PrimitiveColumn::from_values(vec![])),
            DType::Str => Column::Str(StrColumn::new()),
            DType::DateTime => Column::DateTime(PrimitiveColumn::from_values(vec![])),
        }
    }

    /// Build a column from boxed values, inferring dtype from the first
    /// non-null value (all-null defaults to Float64).
    pub fn from_values(values: &[Value]) -> Result<Column> {
        let dtype = values
            .iter()
            .find_map(|v| v.dtype())
            // int followed by float should widen: scan for any float
            .map(|d| {
                if d == DType::Int64 && values.iter().any(|v| v.dtype() == Some(DType::Float64)) {
                    DType::Float64
                } else {
                    d
                }
            })
            .unwrap_or(DType::Float64);
        let mut col = Column::empty(dtype);
        for v in values {
            col.push_value(v)?;
        }
        Ok(col)
    }

    /// Iterate boxed values (allocation per string avoided via Arc clone).
    pub fn iter_values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.value(i))
    }

    /// Minimum and maximum over the numeric view, ignoring nulls/NaN.
    pub fn min_max_f64(&self) -> Option<(f64, f64)> {
        self.min_max_where(|v| !v.is_nan())
    }

    /// Minimum and maximum over the numeric view, ignoring nulls, NaN, and
    /// ±inf. Binning needs finite edges; an infinite endpoint would collapse
    /// every value into one bin (or produce NaN widths).
    pub fn min_max_finite(&self) -> Option<(f64, f64)> {
        self.min_max_where(f64::is_finite)
    }

    /// Extremes of the kept (never NaN) values. Folding from ±inf gives the
    /// first kept value `(v, v)` exactly, and keeps the loop body free of an
    /// `Option` state.
    fn min_max_where(&self, keep: impl Fn(f64) -> bool) -> Option<(f64, f64)> {
        let (mut lo, mut hi, mut any) = (f64::INFINITY, f64::NEG_INFINITY, false);
        self.for_each_f64(|_, v| {
            if keep(v) {
                lo = lo.min(v);
                hi = hi.max(v);
                any = true;
            }
        });
        any.then_some((lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_from_options_tracks_nulls() {
        let c = PrimitiveColumn::from_options(vec![Some(1i64), None, Some(3)]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.get(0), Some(1));
        assert_eq!(c.get(1), None);
        assert_eq!(c.get(2), Some(3));
    }

    #[test]
    fn primitive_all_valid_has_no_bitmap() {
        let c = PrimitiveColumn::from_options(vec![Some(1i64), Some(2)]);
        assert!(c.validity().is_none());
    }

    #[test]
    fn push_null_lazily_creates_bitmap() {
        let mut c = PrimitiveColumn::from_values(vec![1.0, 2.0]);
        assert!(c.validity().is_none());
        c.push(None);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.get(0), Some(1.0));
        assert_eq!(c.get(2), None);
    }

    #[test]
    fn str_column_interns() {
        let c = StrColumn::from_strings(["a", "b", "a", "a"]);
        assert_eq!(c.dict().len(), 2);
        assert_eq!(c.code(0), c.code(2));
        assert_eq!(c.get(1).unwrap().as_ref(), "b");
    }

    #[test]
    fn str_column_nulls() {
        let c = StrColumn::from_options([Some("x"), None, Some("y")]);
        assert_eq!(c.null_count(), 1);
        assert!(c.get(1).is_none());
    }

    #[test]
    fn str_take_keeps_dictionary() {
        let c = StrColumn::from_strings(["a", "b", "c"]);
        let t = c.take(&[2, 0]);
        assert_eq!(t.get(0).unwrap().as_ref(), "c");
        assert_eq!(t.get(1).unwrap().as_ref(), "a");
        // "b" is still in the shared dictionary but unused
        assert_eq!(t.codes(), &[2, 0]);
        assert_eq!(t.dict().len(), 3);
    }

    #[test]
    fn column_value_and_f64() {
        let c = Column::from_values(&[Value::Int(1), Value::Float(2.5)]).unwrap();
        assert_eq!(c.dtype(), DType::Float64); // widened
        assert_eq!(c.f64_at(0), Some(1.0));
        assert_eq!(c.value(1), Value::Float(2.5));
    }

    #[test]
    fn column_filter_by_mask() {
        let c = Column::Int64(PrimitiveColumn::from_values(vec![10, 20, 30, 40]));
        let mask = Bitmap::from_iter([true, false, true, false]);
        let f = c.filter(&mask).unwrap();
        assert_eq!(f.len(), 2);
        assert_eq!(f.value(1), Value::Int(30));
    }

    #[test]
    fn column_filter_length_mismatch_errors() {
        let c = Column::Int64(PrimitiveColumn::from_values(vec![1]));
        let mask = Bitmap::from_iter([true, false]);
        assert!(matches!(c.filter(&mask), Err(Error::LengthMismatch { .. })));
    }

    #[test]
    fn push_value_type_checks() {
        let mut c = Column::empty(DType::Int64);
        assert!(c.push_value(&Value::Int(1)).is_ok());
        assert!(c.push_value(&Value::str("no")).is_err());
        assert!(c.push_value(&Value::Null).is_ok());
        assert_eq!(c.len(), 2);
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn min_max_ignores_nulls_and_nan() {
        let c = Column::Float64(PrimitiveColumn::from_options(vec![
            Some(3.0),
            None,
            Some(f64::NAN),
            Some(-1.0),
        ]));
        assert_eq!(c.min_max_f64(), Some((-1.0, 3.0)));
        let empty = Column::empty(DType::Float64);
        assert_eq!(empty.min_max_f64(), None);
    }

    #[test]
    fn all_null_from_values_defaults_float() {
        let c = Column::from_values(&[Value::Null, Value::Null]).unwrap();
        assert_eq!(c.dtype(), DType::Float64);
        assert_eq!(c.null_count(), 2);
    }

    #[test]
    fn extend_from_appends() {
        let mut a = Column::from_values(&[Value::str("x")]).unwrap();
        let b = Column::from_values(&[Value::str("y"), Value::Null]).unwrap();
        a.extend_from(&b).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.value(1), Value::str("y"));
        assert!(a.value(2).is_null());
    }
}
