//! Intent clauses — the terms of the paper's §5 grammar.
//!
//! ```text
//! <Intent> -> <Clause>+
//! <Clause> -> <Axis> | <Filter>
//! <Axis>   -> <attribute>* <channel> <aggregation> <bin_size>
//! <Filter> -> <attribute> [= > < <= >= !=] <value>
//! <attribute> -> attribute | union | ? constraint
//! <value>     -> value | union | ?
//! ```
//!
//! Axis attributes may be unions or wildcards (Eq. 4); filter values may be
//! unions or wildcards (Eq. 5). Channel, aggregation, and bin size are
//! optional on axes and inferred by the compiler when omitted.

use lux_dataframe::prelude::*;
use lux_engine::SemanticType;
use lux_vis::Channel;

/// The attribute part of an axis clause: one name, a union of names, or a
/// wildcard with an optional semantic-type constraint.
#[derive(Debug, Clone, PartialEq)]
pub enum AttributeSpec {
    /// A union of one or more concrete attribute names.
    Named(Vec<String>),
    /// `?` — any attribute, optionally constrained to a semantic type.
    Wildcard { constraint: Option<SemanticType> },
}

impl AttributeSpec {
    pub fn one(name: impl Into<String>) -> AttributeSpec {
        AttributeSpec::Named(vec![name.into()])
    }
}

/// The value part of a filter clause: one value, a union, or a wildcard.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueSpec {
    One(Value),
    Union(Vec<Value>),
    /// `?` — every distinct value of the filter attribute.
    Wildcard,
}

/// One clause of an intent.
#[derive(Debug, Clone, PartialEq)]
pub enum Clause {
    Axis {
        attribute: AttributeSpec,
        /// Explicit channel; inferred when `None`.
        channel: Option<Channel>,
        /// Explicit aggregation; inferred when `None`.
        aggregation: Option<Agg>,
        /// Explicit bin count; inferred when `None`.
        bin_size: Option<usize>,
    },
    Filter {
        attribute: String,
        op: FilterOp,
        value: ValueSpec,
    },
}

impl Clause {
    /// An axis over a single attribute (Q1: `lux.Clause(attribute="Age")`).
    pub fn axis(name: impl Into<String>) -> Clause {
        Clause::Axis {
            attribute: AttributeSpec::one(name),
            channel: None,
            aggregation: None,
            bin_size: None,
        }
    }

    /// An axis over a union of attributes (Q5: `["HourlyRate", "DailyRate", ...]`).
    pub fn axis_union<S: Into<String>, I: IntoIterator<Item = S>>(names: I) -> Clause {
        Clause::Axis {
            attribute: AttributeSpec::Named(names.into_iter().map(Into::into).collect()),
            channel: None,
            aggregation: None,
            bin_size: None,
        }
    }

    /// A wildcard axis (Q6: `lux.Clause("?")`).
    pub fn wildcard() -> Clause {
        Clause::Axis {
            attribute: AttributeSpec::Wildcard { constraint: None },
            channel: None,
            aggregation: None,
            bin_size: None,
        }
    }

    /// A wildcard axis constrained to a semantic type
    /// (Q6: `lux.Clause("?", data_type="quantitative")`).
    pub fn wildcard_typed(constraint: SemanticType) -> Clause {
        Clause::Axis {
            attribute: AttributeSpec::Wildcard {
                constraint: Some(constraint),
            },
            channel: None,
            aggregation: None,
            bin_size: None,
        }
    }

    /// A concrete filter (Q2: `"Department=Sales"`).
    pub fn filter(attribute: impl Into<String>, op: FilterOp, value: Value) -> Clause {
        Clause::Filter {
            attribute: attribute.into(),
            op,
            value: ValueSpec::One(value),
        }
    }

    /// A filter over a union of values.
    pub fn filter_in<I: IntoIterator<Item = Value>>(
        attribute: impl Into<String>,
        values: I,
    ) -> Clause {
        Clause::Filter {
            attribute: attribute.into(),
            op: FilterOp::Eq,
            value: ValueSpec::Union(values.into_iter().collect()),
        }
    }

    /// A filter enumerating every value (Q7: `"Country=?"`).
    pub fn filter_wildcard(attribute: impl Into<String>) -> Clause {
        Clause::Filter {
            attribute: attribute.into(),
            op: FilterOp::Eq,
            value: ValueSpec::Wildcard,
        }
    }

    /// Set the channel (builder style). No-op on filters.
    pub fn on_channel(mut self, ch: Channel) -> Clause {
        if let Clause::Axis { channel, .. } = &mut self {
            *channel = Some(ch);
        }
        self
    }

    /// Set the aggregation (Q4: `lux.Clause("MonthlyIncome", aggregation=var)`).
    pub fn aggregate(mut self, agg: Agg) -> Clause {
        if let Clause::Axis { aggregation, .. } = &mut self {
            *aggregation = Some(agg);
        }
        self
    }

    /// Set the bin count.
    pub fn bin(mut self, bins: usize) -> Clause {
        if let Clause::Axis { bin_size, .. } = &mut self {
            *bin_size = Some(bins);
        }
        self
    }

    pub fn is_axis(&self) -> bool {
        matches!(self, Clause::Axis { .. })
    }

    pub fn is_filter(&self) -> bool {
        matches!(self, Clause::Filter { .. })
    }

    /// The number of alternatives this clause contributes to the expansion
    /// cross-product, given how many candidates a wildcard would match.
    pub fn alternatives(&self, wildcard_candidates: usize) -> usize {
        match self {
            Clause::Axis {
                attribute: AttributeSpec::Named(names),
                ..
            } => names.len(),
            Clause::Axis {
                attribute: AttributeSpec::Wildcard { .. },
                ..
            } => wildcard_candidates,
            Clause::Filter {
                value: ValueSpec::One(_),
                ..
            } => 1,
            Clause::Filter {
                value: ValueSpec::Union(vs),
                ..
            } => vs.len(),
            Clause::Filter {
                value: ValueSpec::Wildcard,
                ..
            } => wildcard_candidates,
        }
    }
}

/// A user intent: an ordered list of clauses.
pub type Intent = Vec<Clause>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_expected_shapes() {
        let a = Clause::axis("Age")
            .aggregate(Agg::Var)
            .bin(5)
            .on_channel(Channel::Y);
        match a {
            Clause::Axis {
                attribute,
                channel,
                aggregation,
                bin_size,
            } => {
                assert_eq!(attribute, AttributeSpec::one("Age"));
                assert_eq!(channel, Some(Channel::Y));
                assert_eq!(aggregation, Some(Agg::Var));
                assert_eq!(bin_size, Some(5));
            }
            _ => panic!("expected axis"),
        }
    }

    #[test]
    fn filter_builders() {
        let f = Clause::filter("dept", FilterOp::Eq, Value::str("Sales"));
        assert!(f.is_filter());
        let w = Clause::filter_wildcard("Country");
        assert!(matches!(
            w,
            Clause::Filter {
                value: ValueSpec::Wildcard,
                ..
            }
        ));
        let u = Clause::filter_in("x", [Value::Int(1), Value::Int(2)]);
        assert_eq!(u.alternatives(99), 2);
    }

    #[test]
    fn builder_modifiers_noop_on_filters() {
        let f = Clause::filter("a", FilterOp::Eq, Value::Int(1)).aggregate(Agg::Mean);
        assert!(matches!(f, Clause::Filter { .. }));
    }

    #[test]
    fn alternatives_counting() {
        assert_eq!(Clause::axis("x").alternatives(10), 1);
        assert_eq!(Clause::axis_union(["a", "b", "c"]).alternatives(10), 3);
        assert_eq!(Clause::wildcard().alternatives(10), 10);
        assert_eq!(Clause::filter_wildcard("c").alternatives(7), 7);
    }
}
