//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! 1. freshness-based memoization vs recompute-always (WFLOW);
//! 2. cost-model-gated pruning vs no pruning (PRUNE);
//! 3. cached sample vs fresh sample per print;
//! 4. streamed async execution vs sequential execution (ASYNC), on a wide
//!    frame and on a tall one where the cheapest plan runs alone first.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lux_core::prelude::*;
use lux_engine::FrameMeta;
use lux_recs::{
    execute_action, metadata_actions::Correlation, run_pass, ActionRegistry, Pass, PassCtx,
    ORDERED_ROWS,
};
use lux_workloads::{airbnb, communities, synthetic_wide};

/// WFLOW ablation: repeated prints with and without memoization.
fn ablation_wflow(c: &mut Criterion) {
    let df = synthetic_wide(20, 5_000, 1);
    let mut g = c.benchmark_group("ablation_wflow");
    g.sample_size(10);
    g.bench_function("memoized_reprint", |b| {
        let ldf = LuxDataFrame::with_config(df.clone(), Arc::new(LuxConfig::all_opt()));
        let _ = ldf.recommendations();
        b.iter(|| ldf.recommendations().len())
    });
    g.bench_function("recompute_reprint", |b| {
        let mut cfg = LuxConfig::all_opt();
        cfg.wflow = false;
        let cfg = Arc::new(cfg);
        let ldf = LuxDataFrame::with_config(df.clone(), Arc::clone(&cfg));
        b.iter(|| ldf.recommendations().len())
    });
    g.finish();
}

/// A standalone pass: no intent, detached. The PRUNE sample is kept on the
/// frame, so a pass over a fresh identity of it draws a cold one.
fn pass_over(df: &Arc<DataFrame>, meta: &Arc<FrameMeta>, config: &Arc<LuxConfig>) -> Pass {
    let ctx = PassCtx::detached("pass", config.budget.clone());
    Pass::open(
        Arc::clone(df),
        Arc::clone(meta),
        &[],
        Arc::clone(config),
        ctx,
    )
}

/// PRUNE ablation: the Correlation action on a wide frame, exact vs sampled
/// two-pass (drawing its 1k-row sample afresh each iteration).
fn ablation_prune(c: &mut Criterion) {
    let df = communities(10_000, 2);
    let meta = Arc::new(FrameMeta::compute(&df, &HashMap::new()));
    let columns: Vec<&str> = df.column_names().iter().map(String::as_str).collect();
    let mut g = c.benchmark_group("ablation_prune");
    g.sample_size(10);
    for (name, prune) in [("exact", false), ("pruned_1k_sample", true)] {
        g.bench_with_input(
            BenchmarkId::new("correlation", name),
            &prune,
            |b, &prune| {
                let config = Arc::new(LuxConfig {
                    prune,
                    sample_cap: 1_000,
                    sample_seed: 9,
                    ..LuxConfig::default()
                });
                b.iter(|| {
                    // A pass per iteration: its budget is per pass, and its
                    // frame a fresh identity (shared columns), so the
                    // sample is drawn anew.
                    let fresh = Arc::new(df.select(&columns).expect("own columns"));
                    let pass = pass_over(&fresh, &meta, &config);
                    execute_action(&Correlation, &pass, &pass.trace)
                        .expect("correlation runs clean")
                        .expect("correlation has candidates")
                        .vislist
                        .len()
                })
            },
        );
    }
    g.finish();
}

/// Sample-cache ablation: the frame's filled sample slot vs re-sampling per
/// use.
fn ablation_sample_cache(c: &mut Criterion) {
    let df = communities(50_000, 3);
    let mut g = c.benchmark_group("ablation_sample_cache");
    g.bench_function("cached", |b| {
        let slot = OnceLock::new();
        b.iter(|| slot.get_or_init(|| df.sample(5_000, 7)).num_rows())
    });
    g.bench_function("fresh_each_time", |b| {
        b.iter(|| df.sample(5_000, 7).num_rows())
    });
    g.finish();
}

/// ASYNC ablation: full default action set, threaded vs sequential, on a
/// wide frame and on a tall one of `ORDERED_ROWS` rows, where ASYNC runs the
/// cheapest planned action alone before the rest.
fn ablation_async(c: &mut Criterion) {
    let frames = [
        ("wide", synthetic_wide(30, 5_000, 4)),
        ("tall", airbnb(ORDERED_ROWS, 4)),
    ];
    let registry = ActionRegistry::with_defaults();
    let mut g = c.benchmark_group("ablation_async");
    g.sample_size(10);
    for (shape, df) in frames {
        let df = Arc::new(df);
        let meta = Arc::new(FrameMeta::compute(&df, &HashMap::new()));
        for (name, is_async) in [("sequential", false), ("async", true)] {
            let config = Arc::new(LuxConfig {
                r#async: is_async,
                prune: false,
                ..LuxConfig::default()
            });
            g.bench_with_input(BenchmarkId::new(name, shape), &config, |b, config| {
                b.iter(|| {
                    let pass = pass_over(&df, &meta, config);
                    run_pass(&registry, pass).collect_all().len()
                })
            });
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    ablation_wflow,
    ablation_prune,
    ablation_sample_cache,
    ablation_async,
    ablation_backend
);
criterion_main!(benches);

/// Backend ablation: native kernels vs SQL translation for the Table-2
/// processing shapes.
fn ablation_backend(c: &mut Criterion) {
    use lux_vis::{process, Backend, Channel, Encoding, Mark, ProcessOptions, VisSpec};
    let df = lux_workloads::airbnb(20_000, 5);
    let q = SemanticType::Quantitative;
    let n = SemanticType::Nominal;
    let cases = vec![
        (
            "bar_mean",
            VisSpec::new(
                Mark::Bar,
                vec![
                    Encoding::new("neighbourhood_group", n, Channel::X),
                    Encoding::new("price", q, Channel::Y).with_aggregation(Agg::Mean),
                ],
                vec![],
            ),
        ),
        (
            "histogram",
            VisSpec::new(
                Mark::Histogram,
                vec![
                    Encoding::new("price", q, Channel::X).with_bin(10),
                    Encoding::synthetic_count(Channel::Y),
                ],
                vec![],
            ),
        ),
    ];
    let mut g = c.benchmark_group("ablation_backend");
    for (name, spec) in &cases {
        for (backend_name, backend) in [("native", Backend::Native), ("sql", Backend::Sql)] {
            let opts = ProcessOptions {
                backend,
                ..ProcessOptions::default()
            };
            g.bench_function(format!("{name}/{backend_name}"), |b| {
                b.iter(|| process(spec, &df, &opts).unwrap().num_rows())
            });
        }
    }
    g.finish();
}
