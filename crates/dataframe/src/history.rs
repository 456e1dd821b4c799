//! Per-frame operation history.
//!
//! The paper (§6, "History-based recommendations") instruments each dataframe
//! operation and stores the log on the frame itself, propagating it to
//! derived frames "so that the history is not lost". We do exactly that:
//! every operation in [`crate::frame::DataFrame`] appends an [`Event`], and
//! derived frames start from a clone of the parent's history. Pre-filter and
//! Pre-aggregate show the frame just before the last filter and the last
//! aggregate, so the history keeps those two frames (without their own
//! parents) and no others: a row-subsetting op gathers fresh columns, so a
//! chain that kept every input would keep every ancestor alive.

use std::fmt;
use std::sync::Arc;

use crate::frame::DataFrame;

/// The kind of operation recorded in the history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Initial construction (from columns, CSV, ...).
    Load,
    /// Row subsetting: boolean filter, head, tail, sample.
    Filter,
    /// Group-by aggregation, pivot, crosstab, value_counts, describe.
    Aggregate,
    Join,
    Sort,
    /// Column added or overwritten.
    Assign,
    Rename,
    /// Null handling: dropna / fillna.
    NullHandling,
    Bin,
    Concat,
    /// Anything else that derives a frame.
    Other,
}

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Load => "load",
            OpKind::Filter => "filter",
            OpKind::Aggregate => "aggregate",
            OpKind::Join => "join",
            OpKind::Sort => "sort",
            OpKind::Assign => "assign",
            OpKind::Rename => "rename",
            OpKind::NullHandling => "null-handling",
            OpKind::Bin => "bin",
            OpKind::Concat => "concat",
            OpKind::Other => "other",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded operation.
#[derive(Debug, Clone)]
pub struct Event {
    pub op: OpKind,
    /// Human-readable detail, e.g. `"filter: Country == 'USA'"`.
    pub detail: String,
    /// Columns the operation touched (for column-targeted recommendations).
    pub columns: Vec<String>,
}

impl Event {
    pub fn new(op: OpKind, detail: impl Into<String>) -> Event {
        Event {
            op,
            detail: detail.into(),
            columns: Vec::new(),
        }
    }

    pub fn with_columns(mut self, columns: Vec<String>) -> Event {
        self.columns = columns;
        self
    }
}

/// The ordered operation log attached to a frame, and the frames the last
/// Filter and the last Aggregate event were applied to.
#[derive(Debug, Clone, Default)]
pub struct History {
    events: Vec<Event>,
    filter_parent: Option<Arc<DataFrame>>,
    aggregate_parent: Option<Arc<DataFrame>>,
}

impl History {
    pub fn new() -> History {
        History::default()
    }

    /// Append `event`, applied to `input`. A Filter or Aggregate event makes
    /// `input` its kind's parent; any other event leaves both parents as is.
    pub(crate) fn push(&mut self, event: Event, input: Option<&DataFrame>) {
        let kept = || input.map(|df| Arc::new(df.clone_without_parents()));
        match event.op {
            OpKind::Filter => self.filter_parent = kept(),
            OpKind::Aggregate => self.aggregate_parent = kept(),
            _ => {}
        }
        self.events.push(event);
    }

    /// The frame the most recent Filter event was applied to.
    pub fn filter_parent(&self) -> Option<&Arc<DataFrame>> {
        self.filter_parent.as_ref()
    }

    /// The frame the most recent Aggregate event was applied to.
    pub fn aggregate_parent(&self) -> Option<&Arc<DataFrame>> {
        self.aggregate_parent.as_ref()
    }

    /// Drop both parents, keeping the events.
    pub(crate) fn clear_parents(&mut self) {
        (self.filter_parent, self.aggregate_parent) = (None, None);
    }

    pub fn events(&self) -> &[Event] {
        &self.events
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The most recent event, if any.
    pub fn last(&self) -> Option<&Event> {
        self.events.last()
    }

    /// The most recent event of the given kind.
    pub fn last_of(&self, op: OpKind) -> Option<&Event> {
        self.events.iter().rev().find(|e| e.op == op)
    }

    /// True if any event of the given kind was recorded.
    pub fn contains(&self, op: OpKind) -> bool {
        self.events.iter().any(|e| e.op == op)
    }

    /// Events within the trailing window of `n` operations, newest last.
    pub fn recent(&self, n: usize) -> &[Event] {
        let start = self.events.len().saturating_sub(n);
        &self.events[start..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::DataFrameBuilder;
    use crate::ops::{Agg, FilterOp};
    use crate::value::Value;

    #[test]
    fn push_and_query() {
        let mut h = History::new();
        h.push(Event::new(OpKind::Load, "load csv"), None);
        h.push(Event::new(OpKind::Filter, "head(5)"), None);
        h.push(Event::new(OpKind::Assign, "df['x'] = ..."), None);
        assert_eq!(h.len(), 3);
        assert_eq!(h.last().unwrap().op, OpKind::Assign);
        assert_eq!(h.last_of(OpKind::Filter).unwrap().detail, "head(5)");
        assert!(h.contains(OpKind::Load));
        assert!(!h.contains(OpKind::Join));
    }

    #[test]
    fn recent_window() {
        let mut h = History::new();
        for i in 0..5 {
            h.push(Event::new(OpKind::Other, format!("op{i}")), None);
        }
        let r = h.recent(2);
        assert_eq!(r.len(), 2);
        assert_eq!(r[1].detail, "op4");
        assert_eq!(h.recent(100).len(), 5);
    }

    #[test]
    fn event_builders() {
        let e = Event::new(OpKind::Rename, "rename").with_columns(vec!["a".into()]);
        assert_eq!(e.columns, vec!["a".to_string()]);
        let mut h = History::new();
        h.push(e, None);
        assert!(h.filter_parent().is_none() && h.aggregate_parent().is_none());
    }

    /// filter -> group-by -> sort -> head: each kind's parent is the input
    /// of its kind's last event, and a kept parent keeps no parents.
    #[test]
    fn history_keeps_the_last_filter_and_aggregate_inputs() {
        let base = DataFrameBuilder::new()
            .str("k", ["a", "b", "a", "c"])
            .float("v", [1.0, 2.0, 3.0, 4.0])
            .build()
            .unwrap();
        let filtered = base.filter("v", FilterOp::Gt, &Value::Float(1.0)).unwrap();
        let grouped = filtered
            .groupby(&["k"])
            .unwrap()
            .agg(&[("v", Agg::Sum)])
            .unwrap();
        let sorted = grouped.sort_by(&["v"], false).unwrap();
        let head = sorted.head(1);
        let is = |parent: Option<&Arc<DataFrame>>, of: &DataFrame| {
            parent.is_some_and(|p| p.fingerprint() == of.fingerprint())
        };
        assert!(is(grouped.history().filter_parent(), &base));
        assert!(is(grouped.history().aggregate_parent(), &filtered));
        // the aggregate parent survives the sort and the head
        assert!(is(sorted.history().aggregate_parent(), &filtered));
        assert!(is(head.history().aggregate_parent(), &filtered));
        // the head replaces only the filter parent
        assert!(is(sorted.history().filter_parent(), &base));
        assert!(is(head.history().filter_parent(), &sorted));
        // a kept parent keeps its events but no parents of its own
        let kept = head.history().filter_parent().unwrap().history();
        assert_eq!(kept.len(), sorted.history().len());
        assert!(kept.filter_parent().is_none() && kept.aggregate_parent().is_none());
    }
}
