//! Row indexes.
//!
//! Lux's structure-based recommendations (paper §6) key off the dataframe
//! index: frames produced by `groupby`/`pivot`/`crosstab` carry a labeled
//! index whose labels become the grouping axis of the recommended charts.
//! The paper supports single-level indexes and lists multi-level indexes as
//! future work; this implementation provides both ([`Index::MultiLabels`]
//! is the extension — multi-key group-bys produce a two-or-more-level
//! index, and the Index action charts level 0 on the axis with level 1 on
//! the color channel).

use std::sync::Arc;

use crate::column::Column;
use crate::value::Value;

/// A row index: positional, single-level labeled, or multi-level labeled.
#[derive(Debug, Clone)]
pub enum Index {
    /// The default positional index `0..len`.
    Range(usize),
    /// A labeled index, typically produced by group-by style operations.
    Labels {
        /// The name of the source column the labels came from (e.g. the
        /// group-by key), if known.
        name: Option<String>,
        values: Arc<Column>,
    },
    /// A multi-level labeled index (the paper's future-work extension),
    /// produced by multi-key group-bys. All levels share the row count.
    MultiLabels {
        names: Vec<Option<String>>,
        levels: Vec<Arc<Column>>,
    },
}

impl Index {
    /// A fresh positional index of length `len`.
    pub fn range(len: usize) -> Index {
        Index::Range(len)
    }

    /// A labeled index over `values`.
    pub fn labels(name: Option<String>, values: Column) -> Index {
        Index::Labels {
            name,
            values: Arc::new(values),
        }
    }

    /// A multi-level index. Panics if levels are empty or disagree on
    /// length (construction-time invariant, internal call sites only).
    pub fn multi_labels(names: Vec<Option<String>>, levels: Vec<Column>) -> Index {
        assert!(
            !levels.is_empty(),
            "multi-level index needs at least one level"
        );
        assert_eq!(names.len(), levels.len(), "one name per level");
        let len = levels[0].len();
        assert!(
            levels.iter().all(|l| l.len() == len),
            "level lengths must agree"
        );
        Index::MultiLabels {
            names,
            levels: levels.into_iter().map(Arc::new).collect(),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Index::Range(len) => *len,
            Index::Labels { values, .. } => values.len(),
            Index::MultiLabels { levels, .. } => levels[0].len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True for labeled (non-positional) indexes of any depth.
    pub fn is_labeled(&self) -> bool {
        !matches!(self, Index::Range(_))
    }

    /// Number of label levels (0 for positional indexes).
    pub fn num_levels(&self) -> usize {
        match self {
            Index::Range(_) => 0,
            Index::Labels { .. } => 1,
            Index::MultiLabels { levels, .. } => levels.len(),
        }
    }

    /// The label name, if this is a labeled index with a known name (the
    /// first level's name for multi-level indexes).
    pub fn name(&self) -> Option<&str> {
        match self {
            Index::Range(_) => None,
            Index::Labels { name, .. } => name.as_deref(),
            Index::MultiLabels { names, .. } => names.first().and_then(|n| n.as_deref()),
        }
    }

    /// Names of all levels (empty for positional indexes).
    pub fn level_names(&self) -> Vec<Option<&str>> {
        match self {
            Index::Range(_) => Vec::new(),
            Index::Labels { name, .. } => vec![name.as_deref()],
            Index::MultiLabels { names, .. } => names.iter().map(|n| n.as_deref()).collect(),
        }
    }

    /// The label at row `i`. Multi-level labels render as
    /// `(level0, level1, ...)`.
    pub fn label(&self, i: usize) -> Value {
        match self {
            Index::Range(_) => Value::Int(i as i64),
            Index::Labels { values, .. } => values.value(i),
            Index::MultiLabels { levels, .. } => {
                let parts: Vec<String> = levels.iter().map(|l| l.value(i).to_string()).collect();
                Value::str(format!("({})", parts.join(", ")))
            }
        }
    }

    /// Gather rows, preserving labels.
    pub fn take(&self, indices: &[usize]) -> Index {
        match self {
            Index::Range(_) => Index::Range(indices.len()),
            Index::Labels { name, values } => Index::Labels {
                name: name.clone(),
                values: Arc::new(values.take(indices)),
            },
            Index::MultiLabels { names, levels } => Index::MultiLabels {
                names: names.clone(),
                levels: levels.iter().map(|l| Arc::new(l.take(indices))).collect(),
            },
        }
    }

    /// The label column for single-level labeled indexes.
    pub fn values(&self) -> Option<&Column> {
        match self {
            Index::Labels { values, .. } => Some(values),
            _ => None,
        }
    }

    /// The label column of one level, for any labeled index.
    pub fn level_values(&self, level: usize) -> Option<&Column> {
        match self {
            Index::Range(_) => None,
            Index::Labels { values, .. } => (level == 0).then(|| values.as_ref()),
            Index::MultiLabels { levels, .. } => levels.get(level).map(Arc::as_ref),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{PrimitiveColumn, StrColumn};

    #[test]
    fn range_index_basics() {
        let idx = Index::range(5);
        assert_eq!(idx.len(), 5);
        assert!(!idx.is_labeled());
        assert_eq!(idx.num_levels(), 0);
        assert_eq!(idx.label(3), Value::Int(3));
        assert!(idx.name().is_none());
        assert!(idx.values().is_none());
        assert!(idx.level_values(0).is_none());
    }

    #[test]
    fn labeled_index_basics() {
        let col = Column::Str(StrColumn::from_strings(["a", "b"]));
        let idx = Index::labels(Some("Region".into()), col);
        assert!(idx.is_labeled());
        assert_eq!(idx.num_levels(), 1);
        assert_eq!(idx.name(), Some("Region"));
        assert_eq!(idx.label(1), Value::str("b"));
        assert_eq!(
            idx.level_values(0).map(|l| l.value(1)),
            Some(Value::str("b"))
        );
        assert_eq!(idx.level_values(1).map(|l| l.value(1)), None);
    }

    #[test]
    fn take_preserves_labels() {
        let col = Column::Str(StrColumn::from_strings(["a", "b", "c"]));
        let idx = Index::labels(None, col).take(&[2, 0]);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.label(0), Value::str("c"));
        let r = Index::range(3).take(&[1]);
        assert_eq!(r.len(), 1);
        assert_eq!(r.label(0), Value::Int(0));
    }

    #[test]
    fn multi_level_basics() {
        let l0 = Column::Str(StrColumn::from_strings(["x", "x", "y"]));
        let l1 = Column::Int64(PrimitiveColumn::from_values(vec![1, 2, 1]));
        let idx = Index::multi_labels(vec![Some("g".into()), Some("sub".into())], vec![l0, l1]);
        assert!(idx.is_labeled());
        assert_eq!(idx.num_levels(), 2);
        assert_eq!(idx.name(), Some("g"));
        assert_eq!(idx.level_names(), vec![Some("g"), Some("sub")]);
        assert_eq!(idx.label(1), Value::str("(x, 2)"));
        assert_eq!(idx.level_values(1).map(|l| l.value(2)), Some(Value::Int(1)));
        // single-level accessor stays None for multi-level
        assert!(idx.values().is_none());
        assert!(idx.level_values(1).is_some());
    }

    #[test]
    fn multi_level_take() {
        let l0 = Column::Str(StrColumn::from_strings(["x", "y", "z"]));
        let l1 = Column::Int64(PrimitiveColumn::from_values(vec![1, 2, 3]));
        let idx = Index::multi_labels(vec![None, None], vec![l0, l1]).take(&[2]);
        assert_eq!(idx.len(), 1);
        assert_eq!(
            idx.level_values(0).map(|l| l.value(0)),
            Some(Value::str("z"))
        );
        assert_eq!(idx.level_values(1).map(|l| l.value(0)), Some(Value::Int(3)));
    }

    #[test]
    #[should_panic(expected = "level lengths")]
    fn multi_level_length_mismatch_panics() {
        let l0 = Column::Str(StrColumn::from_strings(["x"]));
        let l1 = Column::Int64(PrimitiveColumn::from_values(vec![1, 2]));
        Index::multi_labels(vec![None, None], vec![l0, l1]);
    }
}
