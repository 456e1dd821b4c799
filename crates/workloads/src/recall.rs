//! Recall@k machinery for RQ3 (Figure 12 right).
//!
//! The paper measures how accurately the approximate (sampled) scoring pass
//! retrieves the true top-k visualizations: "We computed Recall@15 of the
//! top k results against the ground truth rankings ... the metric only
//! needs to capture how accurately the top-k visualizations are retrieved"
//! (positions don't matter because the top-k is re-ranked exactly).

use std::collections::HashSet;

use lux_dataframe::prelude::DataFrame;
use lux_recs::{ActionContext, Candidate};
use lux_vis::ProcessOptions;

/// Recall@k between two ranked lists of item keys: the fraction of the true
/// top-k found in the approximate top-k.
pub fn recall_at_k<T: Eq + std::hash::Hash + Clone>(truth: &[T], approx: &[T], k: usize) -> f64 {
    let k = k.min(truth.len());
    if k == 0 {
        return 1.0;
    }
    let truth_set: HashSet<&T> = truth.iter().take(k).collect();
    let hits = approx
        .iter()
        .take(k)
        .filter(|x| truth_set.contains(x))
        .count();
    hits as f64 / k as f64
}

/// A stable key identifying a candidate visualization (spec description
/// uniquely covers mark + attributes + filters).
fn spec_key(c: &Candidate) -> String {
    c.spec.describe()
}

/// Rank an action's candidates by score on `frame`, returning keys in
/// descending score order.
pub fn ranked_keys(
    action: &dyn lux_recs::Action,
    ctx: &ActionContext<'_>,
    frame: &DataFrame,
    opts: &ProcessOptions,
) -> Vec<String> {
    let candidates = match action.generate(ctx) {
        Ok(c) => c,
        Err(_) => return Vec::new(),
    };
    let mut scored: Vec<(String, f64)> = candidates
        .iter()
        .map(|c| {
            let f: &DataFrame = c.frame.as_deref().unwrap_or(frame);
            (spec_key(c), action.score(&c.spec, f, opts))
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    scored.into_iter().map(|(k, _)| k).collect()
}

/// Measure Recall@k of sampled scoring for one action: ground truth ranks
/// on the full frame, the approximate pass ranks on a fraction-sized sample.
pub fn action_recall(
    action: &dyn lux_recs::Action,
    ctx: &ActionContext<'_>,
    sample_fraction: f64,
    k: usize,
    seed: u64,
) -> f64 {
    let opts = ProcessOptions::from(ctx.config);
    let truth = ranked_keys(action, ctx, ctx.df, &opts);
    if truth.is_empty() {
        return 1.0;
    }
    let n = ((ctx.df.num_rows() as f64) * sample_fraction)
        .round()
        .max(1.0) as usize;
    let sample = ctx.df.sample(n, seed);
    let approx = ranked_keys(action, ctx, &sample, &opts);
    recall_at_k(&truth, &approx, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lux_engine::{FrameMeta, LuxConfig, SemanticType};
    use lux_recs::metadata_actions::Correlation;
    use std::collections::HashMap;

    #[test]
    fn recall_basic_properties() {
        let truth = vec!["a", "b", "c", "d"];
        assert_eq!(recall_at_k(&truth, &truth, 4), 1.0);
        let reversed = vec!["d", "c", "b", "a"];
        assert_eq!(recall_at_k(&truth, &reversed, 4), 1.0); // order-insensitive
        let half = vec!["a", "x", "b", "y"];
        assert_eq!(recall_at_k(&truth, &half, 2), 0.5);
        assert_eq!(recall_at_k::<&str>(&[], &[], 5), 1.0);
    }

    #[test]
    fn full_sample_recall_is_perfect() {
        let df = crate::communities::communities(400, 5);
        let meta = FrameMeta::compute(&df, &HashMap::new());
        let config = LuxConfig::default();
        let ctx = ActionContext {
            df: &df,
            meta: &meta,
            intent: &[],
            intent_specs: &[],
            config: &config,
            max_candidates: usize::MAX,
        };
        let r = action_recall(&Correlation, &ctx, 1.0, 15, 7);
        assert_eq!(r, 1.0);
    }

    #[test]
    fn an_uncapped_context_ranks_every_pair() {
        // More pairs than the default budget keeps.
        let df = crate::synth::synthetic_wide(20, 200, 3);
        let meta = FrameMeta::compute(&df, &HashMap::new());
        let q = meta.columns_of(SemanticType::Quantitative).len();
        assert!(q * (q - 1) / 2 > LuxConfig::default().budget.max_candidates);
        let config = LuxConfig::default();
        let ctx = ActionContext {
            df: &df,
            meta: &meta,
            intent: &[],
            intent_specs: &[],
            config: &config,
            max_candidates: usize::MAX,
        };
        let keys = ranked_keys(&Correlation, &ctx, &df, &ProcessOptions::from(&config));
        assert_eq!(keys.len(), q * (q - 1) / 2);
    }

    #[test]
    fn tiny_sample_recall_degrades_or_holds() {
        let df = crate::communities::communities(500, 6);
        let meta = FrameMeta::compute(&df, &HashMap::new());
        let config = LuxConfig::default();
        let ctx = ActionContext {
            df: &df,
            meta: &meta,
            intent: &[],
            intent_specs: &[],
            config: &config,
            max_candidates: usize::MAX,
        };
        let tiny = action_recall(&Correlation, &ctx, 0.02, 15, 7);
        let big = action_recall(&Correlation, &ctx, 0.5, 15, 7);
        assert!((0.0..=1.0).contains(&tiny));
        assert!(
            big >= tiny - 0.2,
            "larger samples should not be much worse: {big} vs {tiny}"
        );
    }
}
