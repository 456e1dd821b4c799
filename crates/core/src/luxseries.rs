//! [`LuxSeries`]: the wrapped single-column view.
//!
//! The paper treats Series as one-column dataframes and reuses the same
//! visualization machinery (§6, Series visualizations); printing a series
//! costs far less than printing a frame because the search space is a
//! single column — the effect measured in Table 3's "Print Series" rows.

use std::collections::HashMap;
use std::sync::Arc;

use lux_dataframe::prelude::*;
use lux_engine::LuxConfig;
use lux_recs::ActionRegistry;

use crate::luxframe::LuxDataFrame;
use crate::widget::Widget;

/// A single named column with always-on visualization support.
pub struct LuxSeries {
    series: Series,
    config: Arc<LuxConfig>,
    registry: Arc<ActionRegistry>,
}

impl LuxSeries {
    pub fn new(series: Series) -> LuxSeries {
        let registry = Arc::new(ActionRegistry::with_defaults());
        Self::from_parts(series, Arc::new(LuxConfig::default()), registry)
    }

    pub(crate) fn from_parts(
        series: Series,
        config: Arc<LuxConfig>,
        registry: Arc<ActionRegistry>,
    ) -> LuxSeries {
        LuxSeries {
            series,
            config,
            registry,
        }
    }

    pub fn name(&self) -> &str {
        self.series.name()
    }

    pub fn len(&self) -> usize {
        self.series.len()
    }

    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    pub fn dtype(&self) -> DType {
        self.series.dtype()
    }

    /// The underlying series.
    pub fn data(&self) -> &Series {
        &self.series
    }

    /// View as a one-column LuxDataFrame sharing the config and the action
    /// registry, so custom actions registered on the parent frame stay
    /// available.
    pub fn to_frame(&self) -> LuxDataFrame {
        LuxDataFrame::assemble(
            self.series.to_frame(),
            Vec::new(),
            Arc::clone(&self.config),
            Arc::clone(&self.registry),
            HashMap::new(),
        )
    }

    /// Print the series: a one-column frame print, which exercises only the
    /// Series structure action (single-column search space).
    pub fn print(&self) -> Widget {
        self.to_frame().print()
    }
}

impl std::fmt::Display for LuxSeries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.print())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::luxframe::LuxDataFrame;

    #[test]
    fn series_print_shows_univariate_vis() {
        let df = DataFrameBuilder::new()
            .float("pay", (0..30).map(|i| i as f64))
            .str("dept", (0..30).map(|i| if i % 2 == 0 { "S" } else { "E" }))
            .build()
            .unwrap();
        let ldf = LuxDataFrame::new(df);
        let s = ldf.series("pay").unwrap();
        assert_eq!(s.name(), "pay");
        assert_eq!(s.len(), 30);
        let w = s.print();
        let names: Vec<&str> = w.results().iter().map(|r| r.action.as_str()).collect();
        assert!(names.contains(&"Series"), "got {names:?}");
    }

    #[test]
    fn nominal_series_gets_bar() {
        let df = DataFrameBuilder::new()
            .str("dept", ["S", "E", "S"])
            .build()
            .unwrap();
        let ldf = LuxDataFrame::new(df);
        let s = ldf.series("dept").unwrap();
        let w = s.print();
        let series_result = w.results().iter().find(|r| r.action == "Series").unwrap();
        assert_eq!(
            series_result.vislist.visualizations[0].spec.mark,
            lux_vis::Mark::Bar
        );
    }

    #[test]
    fn series_print_runs_the_parents_custom_actions() {
        let df = DataFrameBuilder::new()
            .float("x", (0..30).map(|i| i as f64))
            .float("y", (0..30).map(|i| (i % 7) as f64))
            .build()
            .expect("columns of equal length");
        let mut ldf = LuxDataFrame::new(df);
        ldf.register_action(lux_recs::CustomAction::new(
            "Lonely",
            |ctx: &lux_recs::ActionContext<'_>| ctx.df.num_columns() == 1,
            |ctx: &lux_recs::ActionContext<'_>| {
                Ok(ctx.compile(&[lux_intent::Clause::axis(ctx.meta.columns[0].name.clone())]))
            },
        ));
        assert!(!ldf.print().tabs().contains(&"Lonely"));
        let w = ldf.series("x").expect("column exists").print();
        assert!(w.tabs().contains(&"Lonely"), "got {:?}", w.tabs());
    }
}
