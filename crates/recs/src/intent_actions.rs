//! Intent-based actions (Table 1): Current Vis, Enhance, Filter, Generalize.
//!
//! These apply when the user has attached an intent to the dataframe. The
//! paper §6: "the Enhance action recommends visualizations formed by adding
//! an additional attribute to the current visualization", Filter adds or
//! swaps a filter, Generalize removes a clause.

use lux_dataframe::prelude::*;
use lux_engine::SemanticType;
use lux_intent::{Clause, ValueSpec};
use lux_vis::VisSpec;

use crate::action::{Action, ActionClass, ActionContext, Candidate};

/// Attribute names referenced by the current intent (axes and filters).
fn intent_attributes(intent: &[Clause]) -> Vec<&str> {
    let mut out = Vec::new();
    for c in intent {
        match c {
            Clause::Axis {
                attribute: lux_intent::AttributeSpec::Named(names),
                ..
            } => {
                out.extend(names.iter().map(String::as_str));
            }
            Clause::Filter { attribute, .. } => out.push(attribute),
            _ => {}
        }
    }
    out
}

fn count_axes(intent: &[Clause]) -> usize {
    intent.iter().filter(|c| c.is_axis()).count()
}

/// The visualization(s) of the user's intent itself, shown first.
pub struct CurrentVis;

impl Action for CurrentVis {
    fn name(&self) -> &str {
        "Current Vis"
    }

    fn class(&self) -> ActionClass {
        ActionClass::Intent
    }

    fn applies(&self, ctx: &ActionContext<'_>) -> bool {
        !ctx.intent_specs.is_empty()
    }

    fn generate(&self, ctx: &ActionContext<'_>) -> Result<Vec<Candidate>> {
        Ok(ctx
            .intent_specs
            .iter()
            .cloned()
            .map(Candidate::new)
            .collect())
    }

    /// The current vis is shown as specified, not ranked by a statistic.
    fn score(&self, _spec: &VisSpec, _frame: &DataFrame, _opts: &lux_vis::ProcessOptions) -> f64 {
        1.0
    }
}

/// Add one attribute to the current intent.
pub struct Enhance;

impl Action for Enhance {
    fn name(&self) -> &str {
        "Enhance"
    }

    fn class(&self) -> ActionClass {
        ActionClass::Intent
    }

    fn applies(&self, ctx: &ActionContext<'_>) -> bool {
        // Three axes is the most a single chart can encode (x, y, color).
        !ctx.intent.is_empty() && count_axes(ctx.intent) < 3
    }

    fn generate(&self, ctx: &ActionContext<'_>) -> Result<Vec<Candidate>> {
        let used = intent_attributes(ctx.intent);
        let mut out = Vec::new();
        for cm in &ctx.meta.columns {
            if used.contains(&cm.name.as_str()) || cm.semantic == SemanticType::Id {
                continue;
            }
            let mut intent = ctx.intent.to_vec();
            intent.push(Clause::axis(cm.name.clone()));
            out.extend(ctx.compile(&intent));
        }
        Ok(out)
    }
}

/// Add one filter to the current intent, or swap an existing filter's value.
pub struct FilterAction;

impl Action for FilterAction {
    fn name(&self) -> &str {
        "Filter"
    }

    fn class(&self) -> ActionClass {
        ActionClass::Intent
    }

    fn applies(&self, ctx: &ActionContext<'_>) -> bool {
        !ctx.intent.is_empty() && count_axes(ctx.intent) >= 1
    }

    fn generate(&self, ctx: &ActionContext<'_>) -> Result<Vec<Candidate>> {
        let mut out = Vec::new();
        let existing_filter = ctx.intent.iter().find(|c| c.is_filter());

        match existing_filter {
            // "change its value": enumerate sibling values of the filtered column.
            Some(Clause::Filter {
                attribute,
                op,
                value,
            }) => {
                let Some(cm) = ctx.meta.column(attribute) else {
                    return Ok(out);
                };
                let current = match value {
                    ValueSpec::One(v) => Some(v.clone()),
                    _ => None,
                };
                for v in cm
                    .unique_values
                    .iter()
                    .take(ctx.config.max_filter_expansions)
                {
                    if current.as_ref() == Some(v) {
                        continue;
                    }
                    let mut intent: Vec<Clause> =
                        ctx.intent.iter().filter(|c| c.is_axis()).cloned().collect();
                    intent.push(Clause::filter(attribute.clone(), *op, v.clone()));
                    out.extend(ctx.compile(&intent));
                }
            }
            // "add 1 additional filter": wildcard over each unused
            // low-cardinality nominal/geographic column.
            _ => {
                let used = intent_attributes(ctx.intent);
                for cm in &ctx.meta.columns {
                    let filterable = matches!(
                        cm.semantic,
                        SemanticType::Nominal | SemanticType::Geographic
                    );
                    if !filterable
                        || used.contains(&cm.name.as_str())
                        || cm.cardinality > ctx.config.max_filter_expansions
                        || cm.cardinality == 0
                    {
                        continue;
                    }
                    let mut intent = ctx.intent.to_vec();
                    intent.push(Clause::filter_wildcard(cm.name.clone()));
                    out.extend(ctx.compile(&intent));
                }
            }
        }
        Ok(out)
    }
}

/// Remove one attribute or filter from the current intent ("shows what the
/// data looks like with one constraint relaxed").
pub struct Generalize;

impl Action for Generalize {
    fn name(&self) -> &str {
        "Generalize"
    }

    fn class(&self) -> ActionClass {
        ActionClass::Intent
    }

    fn applies(&self, ctx: &ActionContext<'_>) -> bool {
        // Removing from a single-clause intent leaves nothing to chart.
        ctx.intent.len() >= 2
    }

    fn generate(&self, ctx: &ActionContext<'_>) -> Result<Vec<Candidate>> {
        let mut out = Vec::new();
        let mut seen: Vec<VisSpec> = Vec::new();
        for drop_i in 0..ctx.intent.len() {
            let intent: Vec<Clause> = ctx
                .intent
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != drop_i)
                .map(|(_, c)| c.clone())
                .collect();
            if !intent.iter().any(|c| c.is_axis()) {
                continue;
            }
            for cand in ctx.compile(&intent) {
                if !seen.contains(&cand.spec) {
                    seen.push(cand.spec.clone());
                    out.push(cand);
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lux_engine::{FrameMeta, LuxConfig};
    use lux_vis::{Channel, Mark};
    use std::collections::HashMap;

    struct Fixture {
        df: DataFrame,
        meta: FrameMeta,
        config: LuxConfig,
        intent: Vec<Clause>,
        specs: Vec<VisSpec>,
    }

    impl Fixture {
        fn new(intent: Vec<Clause>) -> Fixture {
            let df = DataFrameBuilder::new()
                .float("life", [70.0, 80.0, 60.0, 75.0])
                .float("inequality", [30.0, 20.0, 45.0, 25.0])
                .str("region", ["EU", "EU", "AF", "AS"])
                .str("g10", ["yes", "yes", "no", "no"])
                .build()
                .unwrap();
            let meta = FrameMeta::compute(&df, &HashMap::new());
            let config = LuxConfig::default();
            let specs = lux_intent::compile(&intent, &meta, &Default::default()).unwrap();
            Fixture {
                df,
                meta,
                config,
                intent,
                specs,
            }
        }

        fn ctx(&self) -> ActionContext<'_> {
            ActionContext {
                df: &self.df,
                meta: &self.meta,
                intent: &self.intent,
                intent_specs: &self.specs,
                config: &self.config,
                max_candidates: usize::MAX,
            }
        }
    }

    #[test]
    fn current_vis_echoes_intent() {
        let f = Fixture::new(vec![Clause::axis("life"), Clause::axis("inequality")]);
        let c = CurrentVis.generate(&f.ctx()).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].spec.mark, Mark::Scatter);
    }

    #[test]
    fn enhance_adds_each_unused_attribute() {
        // The paper's Figure 2: intent on (life, inequality), Enhance colors
        // by each remaining attribute.
        let f = Fixture::new(vec![Clause::axis("life"), Clause::axis("inequality")]);
        let c = Enhance.generate(&f.ctx()).unwrap();
        assert_eq!(c.len(), 2); // region, g10
        assert!(c
            .iter()
            .all(|x| x.spec.channel(Channel::Color).is_some() && x.spec.mark == Mark::Scatter));
    }

    #[test]
    fn enhance_not_applicable_at_three_axes() {
        let f = Fixture::new(vec![
            Clause::axis("life"),
            Clause::axis("inequality"),
            Clause::axis("region"),
        ]);
        assert!(!Enhance.applies(&f.ctx()));
    }

    #[test]
    fn filter_action_adds_wildcard_filters() {
        let f = Fixture::new(vec![Clause::axis("life")]);
        let c = FilterAction.generate(&f.ctx()).unwrap();
        // region has 3 values, g10 has 2 -> 5 filtered histograms
        assert_eq!(c.len(), 5);
        assert!(c.iter().all(|x| x.spec.filters.len() == 1));
    }

    #[test]
    fn filter_action_swaps_existing_filter_value() {
        let f = Fixture::new(vec![
            Clause::axis("life"),
            Clause::filter("region", FilterOp::Eq, Value::str("EU")),
        ]);
        let c = FilterAction.generate(&f.ctx()).unwrap();
        assert_eq!(c.len(), 2); // AF, AS
        assert!(c
            .iter()
            .all(|x| x.spec.filters[0].value != Value::str("EU")));
    }

    #[test]
    fn generalize_drops_each_clause() {
        let f = Fixture::new(vec![
            Clause::axis("life"),
            Clause::axis("inequality"),
            Clause::filter("region", FilterOp::Eq, Value::str("EU")),
        ]);
        let c = Generalize.generate(&f.ctx()).unwrap();
        // drop life -> filtered histogram of inequality;
        // drop inequality -> filtered histogram of life;
        // drop filter -> scatter.
        assert_eq!(c.len(), 3);
        assert!(c
            .iter()
            .any(|x| x.spec.mark == Mark::Scatter && x.spec.filters.is_empty()));
    }

    #[test]
    fn generalize_requires_two_clauses() {
        let f = Fixture::new(vec![Clause::axis("life")]);
        assert!(!Generalize.applies(&f.ctx()));
    }
}
