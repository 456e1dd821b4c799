//! Regenerates **Figure 12 (right)** (RQ3): Recall@15 of the sampled
//! (approximate) scoring pass against the exact ground-truth ranking, per
//! action, as the sample fraction grows — on the Communities-shaped dataset
//! (the paper uses 50k Communities).
//!
//! Expected shape: recall rises with the sample fraction, reaching ~90%
//! around a 10% sample for most actions, with the Filter action needing
//! larger samples because it stratifies the data into subsets ("since
//! Filter enumerates over data subsets, it requires more samples to ensure
//! enough data points per stratum").

use std::collections::HashMap;

use lux_bench::{env_scales, full_scale, print_table};
use lux_engine::{FrameMeta, LuxConfig, SemanticType};
use lux_intent::Clause;
use lux_recs::metadata_actions::{self, Univariate};
use lux_recs::{intent_actions, Action, ActionContext};
use lux_workloads::{action_recall, communities};

fn main() {
    let rows = if full_scale() {
        env_scales("LUX_RECALL_ROWS", &[50_000])[0]
    } else {
        env_scales("LUX_RECALL_ROWS", &[5_000])[0]
    };
    let k = 15;
    let fractions = [0.01, 0.02, 0.05, 0.10, 0.20, 0.40, 0.60, 1.0];
    let trials: u64 = if full_scale() { 5 } else { 3 };

    println!("# RQ3: recommendation accuracy under sampling (Recall@{k}, Communities {rows} rows)");

    // Rename one attribute as the analysis target and classify `state` as
    // nominal (it is a categorical code in the real dataset), so the
    // intent-based Filter action has a realistic subset space to enumerate.
    let df = communities(rows, 11)
        .rename(&[("attr_099", "target")])
        .expect("rename");
    let mut overrides = HashMap::new();
    overrides.insert("state".to_string(), SemanticType::Nominal);
    let meta = FrameMeta::compute(&df, &overrides);
    let config = LuxConfig {
        max_filter_expansions: 48,
        ..LuxConfig::default()
    };

    // Metadata actions run intent-free; intent actions search around an
    // intent on the target attribute, as a user exploring it would.
    let empty_intent: Vec<Clause> = vec![];
    let intent = vec![Clause::axis("target".to_string())];
    let intent_specs = lux_intent::compile(&intent, &meta, &Default::default()).unwrap_or_default();

    let metadata_actions: Vec<(&str, Box<dyn Action>)> = vec![
        ("Correlation", Box::new(metadata_actions::Correlation)),
        ("Distribution", Box::new(Univariate::DISTRIBUTION)),
        ("Occurrence", Box::new(Univariate::OCCURRENCE)),
    ];
    let intent_based: Vec<(&str, Box<dyn Action>)> = vec![
        ("Enhance", Box::new(intent_actions::Enhance)),
        ("Filter", Box::new(intent_actions::FilterAction)),
    ];

    let mut rows_out: Vec<Vec<String>> = Vec::new();
    let mut run_group =
        |actions: &[(&str, Box<dyn Action>)], intent: &[Clause], specs: &[lux_vis::VisSpec]| {
            for (name, action) in actions {
                let ctx = ActionContext {
                    df: &df,
                    meta: &meta,
                    intent,
                    intent_specs: specs,
                    config: &config,
                    max_candidates: usize::MAX,
                };
                if !action.applies(&ctx) {
                    eprintln!("  {name}: not applicable, skipped");
                    continue;
                }
                eprint!("  {name}:");
                let mut row = vec![name.to_string()];
                for &f in &fractions {
                    let mut total = 0.0;
                    for t in 0..trials {
                        total += action_recall(action.as_ref(), &ctx, f, k, 100 + t);
                    }
                    let mean = total / trials as f64;
                    eprint!(" {mean:.2}");
                    row.push(format!("{mean:.2}"));
                }
                eprintln!();
                rows_out.push(row);
            }
        };
    run_group(&metadata_actions, &empty_intent, &[]);
    run_group(&intent_based, &intent, &intent_specs);

    println!("\n## Figure 12 (right): Recall@{k} vs sample fraction");
    let mut header: Vec<String> = vec!["action".into()];
    header.extend(fractions.iter().map(|f| format!("{:.0}%", f * 100.0)));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    print_table(&header_refs, &rows_out);
    println!("\n(paper: ~10% sample suffices for >=90% recall on most actions; Filter needs more)");
}
