//! The direct visualization API (paper §5.2.2): `Vis([clauses], df)` and
//! `VisList([clauses], df)` build charts immediately from an intent instead
//! of attaching it to the dataframe.

use lux_dataframe::prelude::*;
use lux_intent::Clause;
use lux_vis::{ProcessOptions, Vis, VisSpec};

use crate::luxframe::LuxDataFrame;

/// A single visualization created directly from an intent
/// (Q3: `Vis([axis1, axis2], df)`).
#[derive(Debug)]
pub struct LuxVis {
    vis: Vis,
}

impl LuxVis {
    /// Compile the clauses against `ldf` and process the first resulting
    /// visualization. Errors if the intent is invalid or compiles to no
    /// visualization.
    pub fn new(intent: Vec<Clause>, ldf: &LuxDataFrame) -> Result<LuxVis> {
        let mut list = LuxVisList::new(intent, ldf)?;
        if list.visualizations.is_empty() {
            return Err(Error::InvalidArgument(
                "intent compiles to no visualization".into(),
            ));
        }
        Ok(LuxVis {
            vis: list.visualizations.remove(0),
        })
    }

    /// Parse string clauses and build (Q3 shorthand).
    pub fn from_strs<S: AsRef<str>, I: IntoIterator<Item = S>>(
        intent: I,
        ldf: &LuxDataFrame,
    ) -> Result<LuxVis> {
        Self::new(lux_intent::parse_intent(intent)?, ldf)
    }

    /// The complete specification.
    pub fn spec(&self) -> &VisSpec {
        &self.vis.spec
    }

    /// The processed chart data.
    pub fn data(&self) -> Option<&DataFrame> {
        self.vis.data.as_ref()
    }

    /// The inner [`Vis`].
    pub fn inner(&self) -> &Vis {
        &self.vis
    }

    /// Terminal rendering.
    pub fn render_ascii(&self) -> String {
        lux_vis::render::ascii::render(&self.vis)
    }

    /// Vega-Lite JSON.
    pub fn to_vega_lite(&self) -> String {
        lux_vis::render::vega::to_vega_lite(&self.vis)
    }

    /// Reconstructable Rust source (the export-as-code path).
    pub fn to_code(&self) -> String {
        lux_vis::render::code::to_rust_code(&self.vis.spec)
    }
}

impl std::fmt::Display for LuxVis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render_ascii())
    }
}

/// A collection of visualizations from one intent
/// (Q5: `VisList(["EducationField", rates], df)`).
#[derive(Debug)]
pub struct LuxVisList {
    pub visualizations: Vec<Vis>,
}

impl LuxVisList {
    /// Compile and process every visualization the intent describes.
    pub fn new(intent: Vec<Clause>, ldf: &LuxDataFrame) -> Result<LuxVisList> {
        let meta = ldf.metadata();
        let diags = lux_intent::validate(&intent, &meta);
        if lux_intent::has_errors(&diags) {
            let msgs: Vec<String> = diags.iter().map(|d| d.message.clone()).collect();
            return Err(Error::InvalidArgument(format!(
                "invalid intent: {}",
                msgs.join("; ")
            )));
        }
        let specs = lux_intent::compile(&intent, &meta, &ldf.config().into())?;
        let popts = ProcessOptions::from(ldf.config());
        let mut visualizations = Vec::with_capacity(specs.len());
        for spec in specs {
            let mut vis = Vis::new(spec);
            if vis.process(ldf.data(), &popts).is_ok() {
                visualizations.push(vis);
            }
        }
        Ok(LuxVisList { visualizations })
    }

    /// Parse string clauses and build (Q5-Q7 shorthand).
    pub fn from_strs<S: AsRef<str>, I: IntoIterator<Item = S>>(
        intent: I,
        ldf: &LuxDataFrame,
    ) -> Result<LuxVisList> {
        Self::new(lux_intent::parse_intent(intent)?, ldf)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use lux_vis::{Channel, Mark};

    fn ldf() -> LuxDataFrame {
        let df = DataFrameBuilder::new()
            .float("Age", (0..30).map(|i| 20.0 + i as f64))
            .float("HourlyRate", (0..30).map(|i| 10.0 + (i % 7) as f64))
            .float("DailyRate", (0..30).map(|i| 80.0 + (i % 11) as f64))
            .str(
                "EducationField",
                (0..30).map(|i| ["STEM", "Arts", "Business"][i % 3]),
            )
            .str(
                "Country",
                (0..30).map(|i| ["USA", "Japan", "Germany"][i % 3]),
            )
            .build()
            .unwrap();
        LuxDataFrame::new(df)
    }

    #[test]
    fn q3_vis_direct() {
        let ldf = ldf();
        let v = LuxVis::from_strs(["Age", "EducationField"], &ldf).unwrap();
        assert_eq!(v.spec().mark, Mark::Bar);
        assert_eq!(
            v.spec().channel(Channel::Y).unwrap().aggregation,
            Some(Agg::Mean)
        );
        assert!(v.data().is_some());
        assert!(v.render_ascii().contains('█'));
    }

    #[test]
    fn q4_explicit_variance() {
        let ldf = ldf();
        let v = LuxVis::new(
            vec![
                Clause::axis("HourlyRate").aggregate(Agg::Var),
                Clause::axis("EducationField"),
            ],
            &ldf,
        )
        .unwrap();
        assert_eq!(
            v.spec().channel(Channel::Y).unwrap().aggregation,
            Some(Agg::Var)
        );
    }

    #[test]
    fn q5_union_vislist() {
        let ldf = ldf();
        let list = LuxVisList::from_strs(["EducationField", "HourlyRate|DailyRate"], &ldf).unwrap();
        assert_eq!(list.len(), 2);
    }

    #[test]
    fn q7_country_wildcard() {
        let ldf = ldf();
        let list = LuxVisList::from_strs(["Age", "Country=?"], &ldf).unwrap();
        assert_eq!(list.len(), 3);
        assert!(list.iter().all(|v| v.spec.mark == Mark::Histogram));
    }

    #[test]
    fn invalid_intent_errors_with_message() {
        let ldf = ldf();
        let err = LuxVis::from_strs(["NotAColumn"], &ldf).unwrap_err();
        assert!(err.to_string().contains("NotAColumn"));
    }

    #[test]
    fn export_to_code_roundtrips_structure() {
        let ldf = ldf();
        let v = LuxVis::from_strs(["Age", "EducationField"], &ldf).unwrap();
        let code = v.to_code();
        assert!(
            code.contains("Clause::axis(\"Age\")")
                || code.contains("Clause::axis(\"EducationField\")")
        );
        let json = v.to_vega_lite();
        assert!(json.contains("\"mark\": \"bar\""));
    }
}
