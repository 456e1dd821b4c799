//! Layer by layer through a print of the workload's own frames.
//!
//! Everything here is timed from outside, around calls into public
//! functions of each crate. A decomposed print is the chain `with_config` ->
//! `metadata()` -> `recommendations()` -> `print()` -> `render_lux_view(2)`;
//! WFLOW memoisation makes the middle three additive, so their sum against
//! an undecomposed print of the same frames is the part no outside call
//! explains (`core.print.residual_*`). Standalone kernel calls (score and
//! process per returned spec, dataframe ops, codecs, intent calls) hang
//! under a sibling `kernels` span and are not part of that sum.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lux_core::prelude::*;
use lux_engine::trace::names as counter;
use lux_intent::CompileOptions;
use lux_vis::ProcessOptions;

use crate::harness::{fresh, ms, plain, Metric, ProbeInputs};
use crate::spans::SpanBuf;
use crate::stats::{mean, p50};

/// Fewest decomposed prints behind the per-layer medians, however slow.
const MIN_ROUNDS: usize = 6;

/// The options the recommendation pass hands to score and process, minus
/// the memo: a standalone kernel call must not observe cross-call state.
fn process_options(config: &LuxConfig) -> ProcessOptions {
    ProcessOptions {
        histogram_bins: config.histogram_bins,
        max_bars: config.max_bars,
        seed: config.sample_seed,
        max_group_cardinality: config.budget.max_group_cardinality,
        threads: config.effective_threads(),
        ..ProcessOptions::default()
    }
}

/// (group-by key, aggregated column): the lowest-cardinality nominal column
/// and the first quantitative one, falling back to the lowest-cardinality
/// column of any kind on all-numeric frames.
fn groupby_columns(meta: &lux_engine::FrameMeta) -> (String, String) {
    let lowest = |only_nominal: bool| {
        meta.columns
            .iter()
            .filter(|c| !only_nominal || c.semantic == SemanticType::Nominal)
            .filter(|c| c.cardinality > 0)
            .min_by_key(|c| c.cardinality)
    };
    let key = lowest(true)
        .or_else(|| lowest(false))
        .expect("a frame has columns");
    let value = meta
        .columns
        .iter()
        .find(|c| c.semantic == SemanticType::Quantitative && c.name != key.name)
        .expect("a frame has a quantitative column");
    (key.name.clone(), value.name.clone())
}

pub fn layers(
    inputs: &ProbeInputs,
    budget: Duration,
    spans: &SpanBuf,
    violations: &mut Vec<String>,
) -> Vec<Metric> {
    let config = Arc::new(LuxConfig::all_opt());
    let opts = process_options(&config);
    let compile_opts = CompileOptions {
        max_filter_expansions: config.max_filter_expansions,
        histogram_bins: config.histogram_bins,
        ..CompileOptions::default()
    };
    // The workload's intents, or the empty intent when it never sets one.
    let intents: Vec<Vec<String>> = if inputs.intents.is_empty() {
        vec![Vec::new()]
    } else {
        inputs.intents.clone()
    };

    let merges = MetricsRegistry::global().counter_handle(counter::METADATA_APPEND_MERGES);
    let merges_before = merges.load(Ordering::Relaxed);
    let mut whole_ms = Vec::new();
    let mut vis_returned = Vec::new();
    let mut wire_bytes = Vec::new();
    let mut columns = Vec::new();
    let mut rows = Vec::new();
    let start = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || start.elapsed() < budget {
        let base = &inputs.frames[round % inputs.frames.len()];
        let op = round as u64;
        round += 1;

        // Undecomposed reference, interleaved so both see the same machine.
        let frame = fresh(base);
        let t = Instant::now();
        std::hint::black_box(LuxDataFrame::with_config(frame, Arc::clone(&config)).print());
        whole_ms.push(ms(t));

        let frame = fresh(base);
        let root = spans.begin("probe_print", None, op);
        let print = spans.begin("core.print", Some(root), op);
        let ldf = spans.time("core.with_config", Some(print), op, || {
            LuxDataFrame::with_config(frame, Arc::clone(&config))
        });
        let meta = spans.time("engine.metadata", Some(print), op, || ldf.metadata());
        let recs = spans.time("recs.actions", Some(print), op, || ldf.recommendations());
        let widget = spans.time("core.print_memo", Some(print), op, || ldf.print());
        spans.end(print);
        let view = spans.time("vis.render", Some(root), op, || widget.render_lux_view(2));
        std::hint::black_box(view);
        spans.end(root);
        columns.push(meta.columns.len() as f64);
        rows.push(meta.num_rows as f64);
        vis_returned.push(recs.iter().map(|r| r.visualizations().len()).sum::<usize>() as f64);

        let kernels = spans.begin("kernels", None, op);
        let k = Some(kernels);
        for vis in recs.iter().flat_map(|r| r.visualizations()) {
            spans.time("recs.score", k, op, || {
                std::hint::black_box(lux_recs::score::interestingness(
                    &vis.spec,
                    ldf.data(),
                    &opts,
                ))
            });
            spans.time("vis.process", k, op, || {
                std::hint::black_box(lux_vis::data::process(&vis.spec, ldf.data(), &opts).is_ok())
            });
        }
        // Append 1% of the rows: `concat` stamps the parent's fingerprint,
        // so metadata finds the parent's partials in the process-wide stats
        // cache and scans only the tail.
        let tail = ldf.data().head((ldf.num_rows() / 100).max(1));
        let appended = ldf.data().concat(&tail).expect("concat with own head");
        let appended = LuxDataFrame::with_config(appended, Arc::clone(&config));
        spans.time("engine.stats_cache.hit", k, op, || appended.metadata());

        let wire = spans.time("core.wire_encode", k, op, || {
            WireWidget::from_widget(&widget, 2).encode()
        });
        spans.time("core.wire_decode", k, op, || {
            std::hint::black_box(WireWidget::decode(&wire).is_ok())
        });
        wire_bytes.push(wire.len() as f64);

        let (key, value) = groupby_columns(&meta);
        let df = ldf.data();
        spans.time("dataframe.groupby", k, op, || {
            let grouped = df
                .groupby(&[&key])
                .and_then(|g| g.agg(&[(&value, Agg::Mean)]));
            std::hint::black_box(grouped.is_ok())
        });
        let needle = meta
            .column(&key)
            .and_then(|c| c.unique_values.first().cloned());
        if let Some(needle) = needle {
            spans.time("dataframe.filter", k, op, || {
                std::hint::black_box(df.filter(&key, FilterOp::Eq, &needle).is_ok())
            });
        }
        spans.time("dataframe.table", k, op, || {
            std::hint::black_box(df.to_table_string(10))
        });
        spans.time("core.series_print", k, op, || {
            std::hint::black_box(ldf.series(&value).expect("own column").print())
        });

        for intent in &intents {
            let clauses = spans.time("intent.parse", k, op, || {
                lux_intent::parse_intent(intent).expect("own intent parses")
            });
            spans.time("intent.validate", k, op, || {
                std::hint::black_box(lux_intent::validate(&clauses, &meta))
            });
            spans.time("intent.compile", k, op, || {
                std::hint::black_box(lux_intent::compile(&clauses, &meta, &compile_opts).is_ok())
            });
        }
        spans.end(kernels);
    }

    // Spans recorded so far belong to this probe or to root-only workload
    // spans with other names, so reading back by name is unambiguous.
    let p50_of = |name: &str| p50(&spans.durations_ms(name));
    let metadata_ms = p50_of("engine.metadata");
    let actions_ms = p50_of("recs.actions");
    let memo_ms = p50_of("core.print_memo");
    let whole = p50(&whole_ms);
    let residual = whole - (metadata_ms + actions_ms + memo_ms);
    if merges.load(Ordering::Relaxed) == merges_before {
        violations.push(
            "engine.stats_cache.hit_p50_ms was measured on passes that never merged cached partials"
                .to_string(),
        );
    }
    vec![
        plain("engine.metadata.p50_ms", metadata_ms),
        plain(
            "engine.metadata.per_column_us",
            metadata_ms * 1e3 / mean(&columns),
        ),
        plain(
            "engine.metadata.rows_per_s",
            mean(&rows) / (metadata_ms / 1e3),
        ),
        plain(
            "engine.stats_cache.hit_p50_ms",
            p50_of("engine.stats_cache.hit"),
        ),
        plain("recs.actions.p50_ms", actions_ms),
        plain("recs.actions.vis_returned", mean(&vis_returned)),
        plain("recs.score.per_vis_p50_us", p50_of("recs.score") * 1e3),
        plain("vis.process.per_vis_p50_us", p50_of("vis.process") * 1e3),
        plain("vis.render.p50_us", p50_of("vis.render") * 1e3),
        plain("intent.parse.p50_us", p50_of("intent.parse") * 1e3),
        plain("intent.validate.p50_us", p50_of("intent.validate") * 1e3),
        plain("intent.compile.p50_us", p50_of("intent.compile") * 1e3),
        plain("dataframe.groupby.p50_ms", p50_of("dataframe.groupby")),
        plain("dataframe.filter.p50_ms", p50_of("dataframe.filter")),
        plain("dataframe.table.p50_us", p50_of("dataframe.table") * 1e3),
        plain("core.print_memo.p50_us", memo_ms * 1e3),
        plain("core.series_print.p50_ms", p50_of("core.series_print")),
        plain("core.print.residual_ms", residual),
        plain("core.print.residual_pct", residual / whole * 100.0),
        plain("core.wire_encode.p50_us", p50_of("core.wire_encode") * 1e3),
        plain("core.wire_decode.p50_us", p50_of("core.wire_decode") * 1e3),
        plain("core.wire.bytes", mean(&wire_bytes)),
    ]
}
