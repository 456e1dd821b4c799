//! History-based actions (paper §6): Pre-filter and Pre-aggregate.
//!
//! These consult the operation log carried by every frame. "When a
//! filtering-based operation leads to a small dataframe (such as when a head
//! or tail is performed), Lux visualizes the previous unfiltered dataframe
//! since there are too few tuples for generating recommendations."

use std::sync::Arc;

use lux_dataframe::prelude::*;
use lux_engine::SemanticType;
use lux_intent::{dimension_by_measure, Clause};
use lux_vis::{Channel, Encoding};

use crate::action::{Action, ActionClass, ActionContext, Candidate};
use crate::structure_actions::meta_for;

/// Frames at or below this row count are "too small to recommend on";
/// the pre-filter parent is shown instead.
pub const SMALL_FRAME_ROWS: usize = 10;

/// Visualize the pre-filter parent of a freshly-subset frame.
pub struct PreFilter;

impl PreFilter {
    fn parent_of(ctx: &ActionContext<'_>) -> Option<Arc<DataFrame>> {
        let parent = ctx.df.history().filter_parent()?;
        // Only useful when the parent actually has more data to show.
        (parent.num_rows() > ctx.df.num_rows()).then(|| Arc::clone(parent))
    }
}

impl Action for PreFilter {
    fn name(&self) -> &str {
        "Pre-filter"
    }

    fn class(&self) -> ActionClass {
        ActionClass::History
    }

    fn applies(&self, ctx: &ActionContext<'_>) -> bool {
        ctx.df.num_rows() <= SMALL_FRAME_ROWS
            && ctx
                .df
                .history()
                .last()
                .is_some_and(|e| e.op == OpKind::Filter)
            && Self::parent_of(ctx).is_some()
    }

    fn generate(&self, ctx: &ActionContext<'_>) -> Result<Vec<Candidate>> {
        let Some(parent) = Self::parent_of(ctx) else {
            return Ok(vec![]);
        };
        let parent_meta = meta_for(&parent, ctx.config);
        let parent_ctx = ActionContext {
            df: &parent,
            meta: &parent_meta,
            ..*ctx
        };
        Ok((parent_ctx.compile(&[Clause::wildcard()]).into_iter())
            .map(|c| Candidate::on_frame(c.spec, Arc::clone(&parent)))
            .collect())
    }
}

/// Visualize the measures of the frame that fed a recent aggregation,
/// grouped by the aggregation keys — the "what did this aggregate summarize"
/// view of a pre-aggregated workflow. Not an intent: the key may be typed
/// Quantitative or Id, where the compiler would draw a scatter or nothing,
/// so it is charted with the compiler's dimension-by-measure rule directly.
pub struct PreAggregate;

impl PreAggregate {
    fn last_agg<'a>(
        ctx: &'a ActionContext<'_>,
    ) -> Option<(&'a lux_dataframe::Event, Arc<DataFrame>)> {
        let history = ctx.df.history();
        let parent = history.aggregate_parent()?;
        Some((history.last_of(OpKind::Aggregate)?, Arc::clone(parent)))
    }
}

impl Action for PreAggregate {
    fn name(&self) -> &str {
        "Pre-aggregate"
    }

    fn class(&self) -> ActionClass {
        ActionClass::History
    }

    fn applies(&self, ctx: &ActionContext<'_>) -> bool {
        Self::last_agg(ctx).is_some_and(|(e, parent)| {
            // keys recorded on the event must still exist on the parent
            !e.columns.is_empty() && e.columns.iter().all(|k| parent.has_column(k))
        })
    }

    fn generate(&self, ctx: &ActionContext<'_>) -> Result<Vec<Candidate>> {
        let Some((event, parent)) = Self::last_agg(ctx) else {
            return Ok(vec![]);
        };
        let key = match event.columns.first() {
            Some(k) => k.clone(),
            None => return Ok(vec![]),
        };
        let parent_meta = meta_for(&parent, ctx.config);
        let Some(key_meta) = parent_meta.column(&key) else {
            return Ok(vec![]);
        };
        let mut out = Vec::new();
        for cm in &parent_meta.columns {
            if cm.name == key || cm.semantic != SemanticType::Quantitative {
                continue;
            }
            let spec = dimension_by_measure(
                Encoding::new(key.clone(), key_meta.semantic, Channel::X),
                Encoding::new(cm.name.clone(), SemanticType::Quantitative, Channel::Y),
                vec![],
            );
            out.push(Candidate::on_frame(spec, Arc::clone(&parent)));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lux_engine::{FrameMeta, LuxConfig};
    use std::collections::HashMap;

    fn ctx_for(df: &DataFrame) -> ActionContext<'static> {
        let meta = FrameMeta::compute(df, &HashMap::new());
        let df = Box::leak(Box::new(df.clone()));
        let meta = Box::leak(Box::new(meta));
        let cfg = Box::leak(Box::new(LuxConfig::default()));
        ActionContext {
            df,
            meta,
            intent: &[],
            intent_specs: &[],
            config: cfg,
            max_candidates: usize::MAX,
        }
    }

    fn base() -> DataFrame {
        DataFrameBuilder::new()
            .str("dept", (0..50).map(|i| if i % 2 == 0 { "S" } else { "E" }))
            .float("pay", (0..50).map(|i| i as f64))
            .build()
            .unwrap()
    }

    #[test]
    fn prefilter_fires_on_head_of_large_frame() {
        let small = base().head(5);
        let ctx = ctx_for(&small);
        assert!(PreFilter.applies(&ctx));
        let c = PreFilter.generate(&ctx).unwrap();
        assert_eq!(c.len(), 2); // dept bar + pay histogram, on the parent
        let parent = c[0].frame.as_ref().unwrap();
        assert_eq!(parent.num_rows(), 50);
    }

    #[test]
    fn prefilter_ignores_large_results() {
        let big = base().head(40);
        assert!(!PreFilter.applies(&ctx_for(&big)));
    }

    #[test]
    fn prefilter_requires_filter_as_last_op() {
        let df = base()
            .head(5)
            .with_column_from("pay2", "pay", |v| v.clone())
            .unwrap();
        // last op is Assign, not Filter
        assert!(!PreFilter.applies(&ctx_for(&df)));
    }

    #[test]
    fn preaggregate_uses_recorded_keys() {
        let agg = base()
            .groupby(&["dept"])
            .unwrap()
            .agg(&[("pay", Agg::Mean)])
            .unwrap();
        let ctx = ctx_for(&agg);
        assert!(PreAggregate.applies(&ctx));
        let c = PreAggregate.generate(&ctx).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].spec.channel(Channel::X).unwrap().attribute, "dept");
        assert_eq!(c[0].frame.as_ref().unwrap().num_rows(), 50);
    }

    #[test]
    fn preaggregate_not_applicable_without_history() {
        assert!(!PreAggregate.applies(&ctx_for(&base())));
    }
}
