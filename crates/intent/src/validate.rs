//! Intent validation (paper §7.1.1).
//!
//! The validator checks clauses against the dataframe's pre-computed
//! metadata and "provides early warnings and suggests corrections": unknown
//! attributes get nearest-name suggestions, filter values are checked
//! against the column's observed uniques, and transforms are type-checked.

use lux_dataframe::prelude::*;
use lux_engine::{FrameMeta, SemanticType};

use crate::clause::{AttributeSpec, Clause, ValueSpec};

/// A validation problem. `Error`s prevent compilation; `Warning`s don't.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Severity {
    Error,
    Warning,
}

/// One validator finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub severity: Severity,
    pub message: String,
    /// A corrected input the user probably meant, when one exists.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    fn error(message: String, suggestion: Option<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            message,
            suggestion,
        }
    }

    fn warning(message: String, suggestion: Option<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            message,
            suggestion,
        }
    }
}

/// Validate an intent against frame metadata. Returns every finding;
/// use [`has_errors`] to decide whether compilation may proceed.
pub fn validate(intent: &[Clause], meta: &FrameMeta) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for clause in intent {
        match clause {
            Clause::Axis {
                attribute,
                aggregation,
                bin_size,
                ..
            } => {
                if let AttributeSpec::Named(names) = attribute {
                    for name in names {
                        match meta.column(name) {
                            None => out.push(unknown_attribute(name, meta)),
                            Some(cm) => {
                                if aggregation.is_some_and(|a| a.requires_numeric())
                                    && !cm.dtype.is_numeric()
                                {
                                    out.push(Diagnostic::error(
                                        format!(
                                            "aggregation {} is not defined for non-numeric column {name:?} ({})",
                                            aggregation.unwrap(),
                                            cm.dtype
                                        ),
                                        None,
                                    ));
                                }
                                if bin_size.is_some()
                                    && cm.semantic != SemanticType::Quantitative
                                    && cm.semantic != SemanticType::Temporal
                                {
                                    out.push(Diagnostic::warning(
                                        format!(
                                            "binning a {} column {name:?} is unusual",
                                            cm.semantic
                                        ),
                                        None,
                                    ));
                                }
                            }
                        }
                    }
                }
                if let Some(b) = bin_size {
                    if *b == 0 {
                        out.push(Diagnostic::error("bin size must be >= 1".into(), None));
                    }
                }
            }
            Clause::Filter {
                attribute,
                op,
                value,
            } => match meta.column(attribute) {
                None => out.push(unknown_attribute(attribute, meta)),
                Some(cm) => {
                    let check_value = |v: &Value, out: &mut Vec<Diagnostic>| {
                        // only flag unseen values on complete unique lists
                        // and equality filters, where "no match" is certain
                        if *op == FilterOp::Eq
                            && cm.unique_complete
                            && !v.is_null()
                            && !cm.unique_values.iter().any(|u| u == v)
                        {
                            let suggestion = v.as_str().and_then(|s| {
                                nearest(s, cm.unique_values.iter().filter_map(|u| u.as_str()))
                            });
                            out.push(Diagnostic::warning(
                                format!(
                                    "value {v} does not occur in column {attribute:?}; the filter will match nothing"
                                ),
                                suggestion,
                            ));
                        }
                        // comparisons on string columns are suspicious
                        if !matches!(op, FilterOp::Eq | FilterOp::Ne) && cm.dtype == DType::Str {
                            out.push(Diagnostic::warning(
                                format!(
                                    "ordered comparison on string column {attribute:?} uses lexicographic order"
                                ),
                                None,
                            ));
                        }
                    };
                    match value {
                        ValueSpec::One(v) => check_value(v, &mut out),
                        ValueSpec::Union(vs) => {
                            for v in vs {
                                check_value(v, &mut out);
                            }
                        }
                        ValueSpec::Wildcard => {
                            if cm.cardinality == 0 {
                                out.push(Diagnostic::warning(
                                    format!("column {attribute:?} has no values to enumerate"),
                                    None,
                                ));
                            }
                        }
                    }
                }
            },
        }
    }
    out
}

/// True when any diagnostic is an error.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

fn unknown_attribute(name: &str, meta: &FrameMeta) -> Diagnostic {
    let suggestion = nearest(name, meta.columns.iter().map(|c| c.name.as_str()));
    Diagnostic::error(format!("column not found: {name:?}"), suggestion)
}

/// The candidate with the smallest edit distance, if within a sane bound.
fn nearest<'a, I: Iterator<Item = &'a str>>(target: &str, candidates: I) -> Option<String> {
    let target_l = target.to_ascii_lowercase();
    candidates
        .map(|c| (edit_distance(&target_l, &c.to_ascii_lowercase()), c))
        .filter(|(d, c)| *d <= (c.len() / 2).max(2))
        .min_by_key(|(d, _)| *d)
        .map(|(_, c)| c.to_string())
}

/// Classic Levenshtein distance (O(nm), fine for column names).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn meta() -> FrameMeta {
        let df = DataFrameBuilder::new()
            .float("AvrgLifeExpectancy", [70.0, 80.0])
            .str("Region", ["Europe", "Africa"])
            .int("Population", [1000, 2000])
            .build()
            .unwrap();
        FrameMeta::compute(&df, &HashMap::new())
    }

    #[test]
    fn valid_intent_is_clean() {
        let intent = vec![Clause::axis("Region"), Clause::axis("Population")];
        assert!(validate(&intent, &meta()).is_empty());
    }

    #[test]
    fn unknown_attribute_suggests_nearest() {
        let intent = vec![Clause::axis("region")]; // case typo
        let diags = validate(&intent, &meta());
        assert!(has_errors(&diags));
        assert_eq!(diags[0].suggestion.as_deref(), Some("Region"));
    }

    #[test]
    fn numeric_agg_on_string_is_error() {
        let intent = vec![Clause::axis("Region").aggregate(Agg::Mean)];
        let diags = validate(&intent, &meta());
        assert!(has_errors(&diags));
    }

    #[test]
    fn unseen_filter_value_warns_with_suggestion() {
        let intent = vec![Clause::filter("Region", FilterOp::Eq, Value::str("Europ"))];
        let diags = validate(&intent, &meta());
        assert!(!has_errors(&diags)); // warning only
        assert_eq!(diags[0].suggestion.as_deref(), Some("Europe"));
    }

    #[test]
    fn string_comparison_warns() {
        let intent = vec![Clause::filter("Region", FilterOp::Gt, Value::str("A"))];
        let diags = validate(&intent, &meta());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn zero_bins_is_error() {
        let intent = vec![Clause::axis("Population").bin(0)];
        assert!(has_errors(&validate(&intent, &meta())));
    }

    #[test]
    fn wildcards_validate_clean() {
        let intent = vec![Clause::wildcard(), Clause::filter_wildcard("Region")];
        assert!(validate(&intent, &meta()).is_empty());
    }

    #[test]
    fn edit_distance_basic() {
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("same", "same"), 0);
    }
}
