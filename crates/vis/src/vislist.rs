//! [`Vis`] and [`VisList`]: specifications paired with processed data and
//! interestingness scores (paper §4: "Each visualization, i.e., Vis, is an
//! intent operating on a specific dataframe instance; a collection of
//! visualizations is known as a VisList").

use lux_dataframe::prelude::*;

use crate::data::{process, ProcessOptions};
use crate::spec::VisSpec;

/// One visualization: a complete spec plus (once processed) its data and
/// (once ranked) its interestingness score.
#[derive(Debug, Clone)]
pub struct Vis {
    pub spec: VisSpec,
    /// The processed view data; `None` until [`Vis::process`] runs.
    pub data: Option<DataFrame>,
    /// Interestingness score assigned by an action's ranking function.
    pub score: f64,
    /// True when the score came from a sampled (approximate) pass.
    pub approximate: bool,
}

impl Vis {
    pub fn new(spec: VisSpec) -> Vis {
        Vis {
            spec,
            data: None,
            score: 0.0,
            approximate: false,
        }
    }

    /// Process this visualization's data against `df`.
    pub fn process(&mut self, df: &DataFrame, opts: &ProcessOptions) -> Result<()> {
        self.data = Some(process(&self.spec, df, opts)?);
        Ok(())
    }

    /// Chart title.
    pub fn title(&self) -> String {
        self.spec.describe()
    }
}

/// An ordered collection of visualizations.
#[derive(Debug, Clone, Default)]
pub struct VisList {
    pub visualizations: Vec<Vis>,
}

impl VisList {
    pub fn new(visualizations: Vec<Vis>) -> VisList {
        VisList { visualizations }
    }

    pub fn len(&self) -> usize {
        self.visualizations.len()
    }

    pub fn is_empty(&self) -> bool {
        self.visualizations.is_empty()
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Vis> {
        self.visualizations.iter()
    }

    /// Sort by score descending (stable, so spec order breaks ties). NaN
    /// scores sort last deterministically — `partial_cmp` fallbacks would
    /// leave their position dependent on the sort's visit order.
    pub fn rank(&mut self) {
        self.visualizations
            .sort_by(|a, b| lux_engine::cmp_score_desc(a.score, b.score));
    }

    /// Keep the top `k` by current order.
    pub fn truncate(&mut self, k: usize) {
        self.visualizations.truncate(k);
    }
}

impl IntoIterator for VisList {
    type Item = Vis;
    type IntoIter = std::vec::IntoIter<Vis>;
    fn into_iter(self) -> Self::IntoIter {
        self.visualizations.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Channel, Encoding, Mark};
    use lux_engine::SemanticType;

    fn spec(x: &str, y: &str) -> VisSpec {
        VisSpec::new(
            Mark::Scatter,
            vec![
                Encoding::new(x, SemanticType::Quantitative, Channel::X),
                Encoding::new(y, SemanticType::Quantitative, Channel::Y),
            ],
            vec![],
        )
    }

    fn list(specs: Vec<VisSpec>) -> VisList {
        VisList::new(specs.into_iter().map(Vis::new).collect())
    }

    fn df() -> DataFrame {
        DataFrameBuilder::new()
            .float("a", [1.0, 2.0])
            .float("b", [3.0, 4.0])
            .build()
            .unwrap()
    }

    #[test]
    fn vis_process_fills_data() {
        let mut v = Vis::new(spec("a", "b"));
        assert!(v.data.is_none());
        v.process(&df(), &ProcessOptions::default()).unwrap();
        assert_eq!(v.data.as_ref().unwrap().num_rows(), 2);
    }

    #[test]
    fn rank_sorts_desc() {
        let mut list = list(vec![spec("a", "b"), spec("b", "a")]);
        list.visualizations[0].score = 0.1;
        list.visualizations[1].score = 0.9;
        list.rank();
        assert_eq!(list.visualizations[0].score, 0.9);
    }

    #[test]
    fn rank_sorts_nan_last() {
        let mut list = list(vec![spec("a", "b"), spec("b", "a"), spec("a", "b")]);
        list.visualizations[0].score = f64::NAN;
        list.visualizations[1].score = 0.3;
        list.visualizations[2].score = 0.7;
        list.rank();
        assert_eq!(list.visualizations[0].score, 0.7);
        assert_eq!(list.visualizations[1].score, 0.3);
        assert!(list.visualizations[2].score.is_nan());
    }

    #[test]
    fn truncate_keeps_top() {
        let mut list = list(vec![spec("a", "b"); 5]);
        list.truncate(2);
        assert_eq!(list.len(), 2);
    }
}
