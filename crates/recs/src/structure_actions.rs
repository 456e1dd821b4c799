//! Structure-based actions (paper §6): Series and Index visualizations.
//!
//! "Dataframe structure reveals strong signals for what the users
//! subsequently choose to visualize": one-column frames get their univariate
//! view, and pre-aggregated frames (labeled index from groupby/pivot/
//! crosstab) get their values charted against the index — column-wise, and
//! row-wise as in the paper's Figure 7.

use std::collections::HashMap;
use std::sync::Arc;

use lux_dataframe::prelude::*;
use lux_engine::{FrameMeta, LuxConfig, SemanticType};
use lux_intent::{dimension_by_measure, Clause};
use lux_vis::{Channel, Encoding, Mark};

use crate::action::{Action, ActionClass, ActionContext, Candidate};

/// Univariate visualization of a one-column frame (a Series printed on its
/// own).
pub struct SeriesVis;

impl Action for SeriesVis {
    fn name(&self) -> &str {
        "Series"
    }

    fn class(&self) -> ActionClass {
        ActionClass::Structure
    }

    fn applies(&self, ctx: &ActionContext<'_>) -> bool {
        ctx.df.num_columns() == 1 && ctx.df.num_rows() > 0
    }

    fn generate(&self, ctx: &ActionContext<'_>) -> Result<Vec<Candidate>> {
        Ok(ctx.compile(&[Clause::wildcard()]))
    }
}

/// The semantic type of an index label column.
fn label_semantic(labels: &Column, name: Option<&str>) -> SemanticType {
    let mut uniques = std::collections::HashSet::new();
    for i in 0..labels.len() {
        uniques.insert(labels.value(i).to_string());
    }
    lux_engine::metadata::infer_semantic(
        name.unwrap_or("index"),
        labels.dtype(),
        uniques.len(),
        labels.len(),
    )
}

/// Visualizations of a pre-aggregated frame's values grouped by its labeled
/// index: one chart per value column (column-wise), plus per-row series
/// across the columns when the frame is a pivot-style grid (Figure 7). Not
/// intents: each chart lives on a synthesized frame the metadata does not
/// describe, so it is charted with the compiler's dimension-by-measure rule
/// directly.
pub struct IndexVis;

impl IndexVis {
    /// Column-wise: each numeric column charted against the index labels.
    fn column_wise(ctx: &ActionContext<'_>) -> Result<Vec<Candidate>> {
        let df = ctx.df;
        let Some(labels) = df.index().values() else {
            return Ok(vec![]);
        };
        let index_name = df.index().name().unwrap_or("index").to_string();
        let semantic = label_semantic(labels, df.index().name());
        let mut out = Vec::new();
        for (i, col_name) in df.column_names().iter().enumerate() {
            let col = df.column_at(i);
            if !col.dtype().is_numeric() || col_name == &index_name {
                continue;
            }
            // Synthesize (label, value) and chart value by label. Labels are
            // unique in an aggregated frame, so the mean is the identity.
            let synth = DataFrame::from_columns(vec![
                (index_name.clone(), (*labels).clone()),
                (col_name.clone(), col.clone()),
            ])?;
            let spec = dimension_by_measure(
                Encoding::new(index_name.clone(), semantic, Channel::X),
                Encoding::new(col_name.clone(), SemanticType::Quantitative, Channel::Y),
                vec![],
            );
            out.push(Candidate::on_frame(spec, Arc::new(synth)));
        }
        Ok(out)
    }

    /// Row-wise (Figure 7): every row becomes a series over the columns.
    /// Applies when all value columns are numeric and there are at least two
    /// of them (a pivot grid); capped at top-k rows.
    fn row_wise(ctx: &ActionContext<'_>) -> Result<Vec<Candidate>> {
        let df = ctx.df;
        let Some(labels) = df.index().values() else {
            return Ok(vec![]);
        };
        if df.num_columns() < 2
            || !(0..df.num_columns()).all(|i| df.column_at(i).dtype().is_numeric())
        {
            return Ok(vec![]);
        }
        // Column names form the x axis; temporal if they parse as dates.
        let names = df.column_names();
        let as_dates: Option<Vec<i64>> = names
            .iter()
            .map(|n| lux_dataframe::value::parse_datetime(n))
            .collect();
        let mut out = Vec::new();
        for row in 0..df.num_rows().min(ctx.config.top_k) {
            let label = labels.value(row).to_string();
            let values: Vec<f64> = (0..df.num_columns())
                .map(|c| df.column_at(c).f64_at(row).unwrap_or(f64::NAN))
                .collect();
            let (x_col, x_sem) = match &as_dates {
                Some(dates) => (
                    Column::DateTime(PrimitiveColumn::from_values(dates.clone())),
                    SemanticType::Temporal,
                ),
                None => (
                    Column::Str(StrColumn::from_strings(names.iter().map(String::as_str))),
                    SemanticType::Nominal,
                ),
            };
            let synth = DataFrame::from_columns(vec![
                ("column".to_string(), x_col),
                (
                    label.clone(),
                    Column::Float64(PrimitiveColumn::from_values(values)),
                ),
            ])?;
            let spec = dimension_by_measure(
                Encoding::new("column", x_sem, Channel::X),
                Encoding::new(label, SemanticType::Quantitative, Channel::Y),
                vec![],
            );
            out.push(Candidate::on_frame(spec, Arc::new(synth)));
        }
        Ok(out)
    }
}

impl IndexVis {
    /// Multi-level indexes (the paper's future-work extension): chart each
    /// numeric column with index level 0 on the axis and level 1 on the
    /// color channel — a 2D group-by aggregate shape.
    fn multi_level(ctx: &ActionContext<'_>) -> Result<Vec<Candidate>> {
        let df = ctx.df;
        let (Some(l0), Some(l1)) = (df.index().level_values(0), df.index().level_values(1)) else {
            return Ok(vec![]);
        };
        let names = df.index().level_names();
        let n0 = names
            .first()
            .copied()
            .flatten()
            .unwrap_or("level_0")
            .to_string();
        let n1 = names
            .get(1)
            .copied()
            .flatten()
            .unwrap_or("level_1")
            .to_string();
        let sem0 = label_semantic(l0, Some(&n0));
        let sem1 = label_semantic(l1, Some(&n1));
        let mut out = Vec::new();
        for (i, col_name) in df.column_names().iter().enumerate() {
            let col = df.column_at(i);
            if !col.dtype().is_numeric() || col_name == &n0 || col_name == &n1 {
                continue;
            }
            let synth = DataFrame::from_columns(vec![
                (n0.clone(), l0.clone()),
                (n1.clone(), l1.clone()),
                (col_name.clone(), col.clone()),
            ])?;
            let mut spec = dimension_by_measure(
                Encoding::new(n0.clone(), sem0, Channel::X),
                Encoding::new(col_name.clone(), SemanticType::Quantitative, Channel::Y),
                vec![],
            );
            // The one exception to the compiler's marks: a geographic level 0
            // stays a bar, since a map draws one value per region and has no
            // second colour series for level 1.
            if spec.mark == Mark::Choropleth {
                spec.mark = Mark::Bar;
            }
            spec.encodings
                .push(Encoding::new(n1.clone(), sem1, Channel::Color));
            out.push(Candidate::on_frame(spec, Arc::new(synth)));
        }
        Ok(out)
    }
}

impl Action for IndexVis {
    fn name(&self) -> &str {
        "Index"
    }

    fn class(&self) -> ActionClass {
        ActionClass::Structure
    }

    fn applies(&self, ctx: &ActionContext<'_>) -> bool {
        ctx.df.index().is_labeled()
            && ctx.df.history().contains(OpKind::Aggregate)
            && ctx.df.num_rows() > 0
    }

    fn generate(&self, ctx: &ActionContext<'_>) -> Result<Vec<Candidate>> {
        if ctx.df.index().num_levels() >= 2 {
            return Self::multi_level(ctx);
        }
        let mut out = Self::column_wise(ctx)?;
        out.extend(Self::row_wise(ctx)?);
        Ok(out)
    }
}

/// Metadata for a synthesized or parent frame, read on demand: under WFLOW a
/// history action's big parent reuses what its print kept (no-opt rescans).
pub fn meta_for(df: &DataFrame, config: &LuxConfig) -> Arc<FrameMeta> {
    lux_engine::metadata::of_frame(df, &HashMap::new(), config.wflow, None, None, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_for(df: &DataFrame, meta: &FrameMeta, cfg: &LuxConfig) -> ActionContext<'static> {
        // SAFETY-free workaround for lifetimes in tests: leak fixtures.
        let df = Box::leak(Box::new(df.clone()));
        let meta = Box::leak(Box::new(meta.clone()));
        let cfg = Box::leak(Box::new(cfg.clone()));
        ActionContext {
            df,
            meta,
            intent: &[],
            intent_specs: &[],
            config: cfg,
            max_candidates: usize::MAX,
        }
    }

    #[test]
    fn series_vis_on_single_column() {
        let df = DataFrameBuilder::new()
            .float("x", [1.0, 2.0, 3.0])
            .build()
            .unwrap();
        let cfg = LuxConfig::default();
        let meta = meta_for(&df, &cfg);
        let ctx = ctx_for(&df, &meta, &cfg);
        assert!(SeriesVis.applies(&ctx));
        let c = SeriesVis.generate(&ctx).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].spec.mark, Mark::Histogram);
    }

    #[test]
    fn series_vis_rejects_multicolumn() {
        let df = DataFrameBuilder::new()
            .float("x", [1.0])
            .float("y", [1.0])
            .build()
            .unwrap();
        let cfg = LuxConfig::default();
        let meta = meta_for(&df, &cfg);
        assert!(!SeriesVis.applies(&ctx_for(&df, &meta, &cfg)));
    }

    #[test]
    fn index_vis_on_groupby_result() {
        let df = DataFrameBuilder::new()
            .str("dept", ["S", "E", "S", "E"])
            .float("pay", [1.0, 2.0, 3.0, 4.0])
            .build()
            .unwrap();
        let agg = df
            .groupby(&["dept"])
            .unwrap()
            .agg(&[("pay", Agg::Mean)])
            .unwrap();
        let cfg = LuxConfig::default();
        let meta = meta_for(&agg, &cfg);
        let ctx = ctx_for(&agg, &meta, &cfg);
        assert!(IndexVis.applies(&ctx));
        let c = IndexVis.generate(&ctx).unwrap();
        // column-wise chart for "pay" (the dept key column is skipped).
        assert!(!c.is_empty());
        assert!(c[0].frame.is_some());
        assert_eq!(c[0].spec.channel(Channel::X).unwrap().attribute, "dept");
    }

    #[test]
    fn index_vis_row_wise_on_pivot() {
        // Figure 7 shape: states x months grid.
        let df = DataFrameBuilder::new()
            .str("state", ["CA", "CA", "NY", "NY"])
            .str(
                "month",
                ["2020-01-01", "2020-02-01", "2020-01-01", "2020-02-01"],
            )
            .float("cases", [1.0, 2.0, 3.0, 4.0])
            .build()
            .unwrap();
        let pivot = df.pivot("state", "month", "cases", Agg::Sum).unwrap();
        let cfg = LuxConfig::default();
        let meta = meta_for(&pivot, &cfg);
        let ctx = ctx_for(&pivot, &meta, &cfg);
        let c = IndexVis.generate(&ctx).unwrap();
        // 2 column-wise + 2 row-wise (CA, NY)
        let row_wise: Vec<_> = c
            .iter()
            .filter(|x| {
                x.spec
                    .channel(Channel::X)
                    .map(|e| e.attribute == "column")
                    .unwrap_or(false)
            })
            .collect();
        assert_eq!(row_wise.len(), 2);
        // month names parse as dates -> temporal line charts
        assert!(row_wise.iter().all(|x| x.spec.mark == Mark::Line));
    }

    #[test]
    fn index_vis_multi_level_charts_level0_by_level1() {
        let df = DataFrameBuilder::new()
            .str("dept", ["S", "S", "E", "E"])
            .str("level", ["jr", "sr", "jr", "sr"])
            .float("pay", [1.0, 2.0, 3.0, 4.0])
            .build()
            .unwrap();
        let agg = df
            .groupby(&["dept", "level"])
            .unwrap()
            .agg(&[("pay", Agg::Mean)])
            .unwrap();
        assert_eq!(agg.index().num_levels(), 2);
        let cfg = LuxConfig::default();
        let meta = meta_for(&agg, &cfg);
        let ctx = ctx_for(&agg, &meta, &cfg);
        assert!(IndexVis.applies(&ctx));
        let c = IndexVis.generate(&ctx).unwrap();
        assert_eq!(c.len(), 1); // one chart for the "pay" measure
        let spec = &c[0].spec;
        assert_eq!(spec.channel(Channel::X).unwrap().attribute, "dept");
        assert_eq!(spec.channel(Channel::Color).unwrap().attribute, "level");
    }

    #[test]
    fn index_vis_not_applicable_without_labels() {
        let df = DataFrameBuilder::new().float("x", [1.0]).build().unwrap();
        let cfg = LuxConfig::default();
        let meta = meta_for(&df, &cfg);
        assert!(!IndexVis.applies(&ctx_for(&df, &meta, &cfg)));
    }
}
