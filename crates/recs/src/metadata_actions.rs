//! Metadata-based actions (Table 1): Correlation, Distribution, Occurrence,
//! Temporal, Geographic — the always-available univariate and bivariate
//! overviews driven purely by column statistics. Each states its search
//! space as an intent and takes its marks from the compiler.

use lux_dataframe::prelude::*;
use lux_engine::SemanticType;
use lux_intent::Clause;
use lux_vis::{Channel, Encoding, Mark, VisSpec};

use crate::action::{Action, ActionClass, ActionContext, Candidate};

/// Bivariate scatterplots between all pairs of quantitative attributes,
/// ranked by |Pearson's r|.
///
/// The one default action that builds its specs by hand. The intent
/// `[?:quantitative, ?:quantitative]` yields ordered pairs, and past the
/// compiler's `scatter_row_threshold` it draws heatmaps, where Correlation
/// scores scatters at every frame height: compiling it would change what a
/// tall frame's print computes.
pub struct Correlation;

impl Action for Correlation {
    fn name(&self) -> &str {
        "Correlation"
    }

    fn class(&self) -> ActionClass {
        ActionClass::Metadata
    }

    fn applies(&self, ctx: &ActionContext<'_>) -> bool {
        ctx.intent.is_empty() && ctx.meta.columns_of(SemanticType::Quantitative).len() >= 2
    }

    /// Unordered pairs: the search space the paper's Q6 describes, with the
    /// symmetric duplicates removed. It grows with the square of the width,
    /// so only the `max_candidates` pairs the plan keeps are built.
    fn generate(&self, ctx: &ActionContext<'_>) -> Result<Vec<Candidate>> {
        let quant = ctx.meta.columns_of(SemanticType::Quantitative);
        let pairs = (0..quant.len()).flat_map(|i| (i + 1..quant.len()).map(move |j| (i, j)));
        let scatter = |(i, j): (usize, usize)| {
            let axis = |column, channel| Encoding::new(column, SemanticType::Quantitative, channel);
            let encodings = vec![axis(quant[i], Channel::X), axis(quant[j], Channel::Y)];
            Candidate::new(VisSpec::new(Mark::Scatter, encodings, vec![]))
        };
        Ok(pairs.take(ctx.max_candidates).map(scatter).collect())
    }

    fn space_size(&self, ctx: &ActionContext<'_>) -> Option<usize> {
        let q = ctx.meta.columns_of(SemanticType::Quantitative).len();
        Some(q * q.saturating_sub(1) / 2)
    }
}

/// One univariate chart per column of one semantic type — upstream Lux's
/// `univariate` action, compiled from `[?:<type>]`: Distribution
/// (histograms of quantitative columns, ranked by |skewness|), Occurrence
/// (bars of nominal columns, ranked by how uneven the counts are) and
/// Temporal (record counts over time).
pub struct Univariate(SemanticType);

impl Univariate {
    pub const DISTRIBUTION: Univariate = Univariate(SemanticType::Quantitative);
    pub const OCCURRENCE: Univariate = Univariate(SemanticType::Nominal);
    pub const TEMPORAL: Univariate = Univariate(SemanticType::Temporal);
}

impl Action for Univariate {
    fn name(&self) -> &str {
        match self.0 {
            SemanticType::Quantitative => "Distribution",
            SemanticType::Nominal => "Occurrence",
            _ => "Temporal",
        }
    }

    fn class(&self) -> ActionClass {
        ActionClass::Metadata
    }

    fn applies(&self, ctx: &ActionContext<'_>) -> bool {
        ctx.intent.is_empty() && !ctx.meta.columns_of(self.0).is_empty()
    }

    fn generate(&self, ctx: &ActionContext<'_>) -> Result<Vec<Candidate>> {
        Ok(ctx.compile(&[Clause::wildcard_typed(self.0)]))
    }
}

/// Choropleth maps: each geographic attribute against each quantitative
/// measure (mean per region), ranked by how much the measure varies across
/// regions — or each region's record count on a frame with no measure.
pub struct Geographic;

impl Action for Geographic {
    fn name(&self) -> &str {
        "Geographic"
    }

    fn class(&self) -> ActionClass {
        ActionClass::Metadata
    }

    fn applies(&self, ctx: &ActionContext<'_>) -> bool {
        ctx.intent.is_empty() && !ctx.meta.columns_of(SemanticType::Geographic).is_empty()
    }

    fn generate(&self, ctx: &ActionContext<'_>) -> Result<Vec<Candidate>> {
        let mut intent = vec![Clause::wildcard_typed(SemanticType::Geographic)];
        if !ctx.meta.columns_of(SemanticType::Quantitative).is_empty() {
            intent.push(Clause::wildcard_typed(SemanticType::Quantitative));
        }
        Ok(ctx.compile(&intent))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lux_engine::{FrameMeta, LuxConfig};
    use std::collections::HashMap;

    fn fixture() -> (DataFrame, FrameMeta, LuxConfig) {
        let df = DataFrameBuilder::new()
            .float("a", [1.0, 2.0, 3.0])
            .float("b", [3.0, 2.0, 1.0])
            .float("c", [1.0, 1.0, 9.0])
            .str("dept", ["S", "E", "S"])
            .str("country", ["US", "FR", "US"])
            .datetime("date", ["2020-01-01", "2020-01-02", "2020-01-03"])
            .build()
            .unwrap();
        let meta = FrameMeta::compute(&df, &HashMap::new());
        (df, meta, LuxConfig::default())
    }

    macro_rules! ctx {
        ($df:expr, $meta:expr, $cfg:expr) => {
            ActionContext {
                df: &$df,
                meta: &$meta,
                intent: &[],
                intent_specs: &[],
                config: &$cfg,
                max_candidates: usize::MAX,
            }
        };
    }

    #[test]
    fn correlation_generates_unordered_pairs() {
        let (df, meta, cfg) = fixture();
        let ctx = ctx!(df, meta, cfg);
        assert!(Correlation.applies(&ctx));
        let c = Correlation.generate(&ctx).unwrap();
        assert_eq!(c.len(), 3); // C(3,2) over a,b,c
    }

    #[test]
    fn capped_correlation_is_a_prefix_of_the_whole_space() {
        for q in 0..=20usize {
            // `q` float columns of 50 rows, beside a nominal one so the
            // frame is never empty.
            let mut builder = DataFrameBuilder::new().str("g", (0..50).map(|i| ["x", "y"][i % 2]));
            for c in 0..q {
                let values = (0..50).map(move |i| ((i * 7_919 + c * 104_729) % 1_009) as f64 / 7.0);
                builder = builder.float(&format!("q{c}"), values);
            }
            let df = builder.build().expect("equal-length columns");
            let meta = FrameMeta::compute(&df, &HashMap::new());
            let cfg = LuxConfig::default();
            let ctx = ctx!(df, meta, cfg);
            let whole = Correlation.generate(&ctx).expect("Correlation generates");
            assert_eq!(whole.len(), q * q.saturating_sub(1) / 2);
            assert_eq!(Correlation.space_size(&ctx), Some(whole.len()));
            for cap in [0, 1, 15, 64, usize::MAX] {
                let capped_ctx = ActionContext {
                    max_candidates: cap,
                    ..ctx!(df, meta, cfg)
                };
                let prefix = Correlation
                    .generate(&capped_ctx)
                    .expect("Correlation generates");
                let expected = &whole[..cap.min(whole.len())];
                let specs = |c: &[Candidate]| c.iter().map(|c| c.spec.clone()).collect::<Vec<_>>();
                assert_eq!(specs(&prefix), specs(expected), "q={q} cap={cap}");
                assert_eq!(Correlation.space_size(&capped_ctx), Some(whole.len()));
            }
        }
    }

    #[test]
    fn distribution_one_histogram_per_quant() {
        let (df, meta, cfg) = fixture();
        let ctx = ctx!(df, meta, cfg);
        let c = Univariate::DISTRIBUTION.generate(&ctx).unwrap();
        assert_eq!(c.len(), 3);
        assert!(c.iter().all(|x| x.spec.mark == Mark::Histogram));
    }

    #[test]
    fn occurrence_covers_nominal_only() {
        let (df, meta, cfg) = fixture();
        let ctx = ctx!(df, meta, cfg);
        let c = Univariate::OCCURRENCE.generate(&ctx).unwrap();
        // dept is nominal; country is geographic so excluded here
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].spec.channel(Channel::X).unwrap().attribute, "dept");
    }

    #[test]
    fn temporal_and_geographic() {
        let (df, meta, cfg) = fixture();
        let ctx = ctx!(df, meta, cfg);
        assert_eq!(Univariate::TEMPORAL.generate(&ctx).unwrap().len(), 1);
        let g = Geographic.generate(&ctx).unwrap();
        assert_eq!(g.len(), 3); // country x {a,b,c}
        assert!(g.iter().all(|x| x.spec.mark == Mark::Choropleth));
    }

    #[test]
    fn actions_do_not_apply_when_intent_set() {
        let (df, meta, cfg) = fixture();
        let intent = vec![lux_intent::Clause::axis("a")];
        let ctx = ActionContext {
            df: &df,
            meta: &meta,
            intent: &intent,
            intent_specs: &[],
            config: &cfg,
            max_candidates: usize::MAX,
        };
        assert!(!Correlation.applies(&ctx));
        assert!(!Univariate::DISTRIBUTION.applies(&ctx));
    }

    #[test]
    fn applicability_requires_matching_columns() {
        let df = DataFrameBuilder::new().str("only", ["x"]).build().unwrap();
        let meta = FrameMeta::compute(&df, &HashMap::new());
        let cfg = LuxConfig::default();
        let ctx = ctx!(df, meta, cfg);
        assert!(!Correlation.applies(&ctx));
        assert!(!Univariate::DISTRIBUTION.applies(&ctx));
        assert!(Univariate::OCCURRENCE.applies(&ctx));
        assert!(!Univariate::TEMPORAL.applies(&ctx));
    }
}
