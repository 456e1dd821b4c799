//! Visualization data processing (paper §8.1 "Visualization Processing").
//!
//! Translates a complete [`VisSpec`] into the relational operations of
//! Table 2 against a dataframe, producing a small result frame that is
//! decoupled from the source data (the paper's WYSIWYG rule: recommendations
//! are views, they never mutate the user's dataframe).

use std::borrow::Cow;
use std::sync::Arc;

use lux_dataframe::ops::{bin_of, edge_of};
use lux_dataframe::prelude::*;
use lux_dataframe::scan::{for_each_f64_pair, for_each_f64_triple};
use lux_engine::governor::{BudgetHandle, DegradeLevel};
use lux_engine::trace::{names, MetricsRegistry};
use lux_engine::LuxConfig;

use crate::spec::{Channel, Encoding, Mark, VisSpec};

/// Which execution backend processes visualization data (paper §7: the
/// engine runs "either as a series of dataframe operations ... or
/// equivalently in SQL queries").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Native columnar kernels (the default).
    #[default]
    Native,
    /// Translate to SQL and run through the in-crate SQL engine.
    Sql,
}

/// Limits applied during processing.
#[derive(Debug, Clone)]
pub struct ProcessOptions {
    /// Bin count for histograms when the encoding does not specify one.
    pub histogram_bins: usize,
    /// Bar charts keep only this many highest bars.
    pub max_bars: usize,
    /// Scatterplots are downsampled beyond this many points.
    pub max_points: usize,
    /// Per-axis bins for heatmaps.
    pub heatmap_bins: usize,
    /// Seed for deterministic scatter downsampling.
    pub seed: u64,
    /// Execution backend.
    pub backend: Backend,
    /// Line charts over temporal axes with more distinct instants than this
    /// are resampled into this many equal-width time buckets.
    pub temporal_buckets: usize,
    /// Hard ceiling on group-by output cardinality during processing: keys
    /// beyond it fold into a single `"(other)"` group, so a near-unique
    /// axis can never materialize millions of groups.
    pub max_group_cardinality: usize,
    /// Where a group-by records its `"(other)"` fold: the executor's scope
    /// of the pass budget for this call (its plan did the charging).
    pub governor: Option<Arc<BudgetHandle>>,
    /// Read by nothing: the sharded group-by it selected is gone. The field
    /// stays only because `benchmark/src/probe.rs` names it and product PRs
    /// may not edit `benchmark/`; the next `[benchmark]` PR deletes both.
    pub threads: usize,
    /// Consult and fill the processed-vis memo cache (the paper's WFLOW
    /// rule extended past metadata). Off by default so direct `process`
    /// calls never observe cross-call state.
    pub memo: bool,
}

impl Default for ProcessOptions {
    fn default() -> Self {
        ProcessOptions {
            histogram_bins: 10,
            max_bars: 15,
            max_points: 5_000,
            heatmap_bins: 20,
            seed: 7,
            backend: Backend::Native,
            temporal_buckets: 64,
            max_group_cardinality: 1_000,
            governor: None,
            threads: 1,
            memo: false,
        }
    }
}

/// How a [`LuxConfig`] becomes processing options — the one place. The
/// per-call `governor` scope is the executor's to attach.
impl From<&LuxConfig> for ProcessOptions {
    fn from(config: &LuxConfig) -> ProcessOptions {
        ProcessOptions {
            histogram_bins: config.histogram_bins,
            max_bars: config.max_bars,
            seed: config.sample_seed,
            backend: if config.sql_backend {
                Backend::Sql
            } else {
                Backend::Native
            },
            max_group_cardinality: config.budget.max_group_cardinality,
            memo: config.wflow,
            ..ProcessOptions::default()
        }
    }
}

/// Process the data for one visualization. The result is a small dataframe
/// whose columns match the spec's channels (`x`, `y`, and optionally
/// `color`-named after the source attributes, or `count` for synthetic
/// count axes).
///
/// With [`ProcessOptions::memo`] set, results are served from a bounded
/// memo kept in the source frame's state (so it lives and dies with the
/// frame), keyed on the full spec/options serialization. Only exact
/// (non-degraded) results are kept: a pass whose governor recorded a
/// degradation during processing computed something budget-shaped, not
/// data-shaped, and must not leak into healthier passes. The memo keeps a
/// result without its history's parent frames, one of which may be `df`.
pub fn process(spec: &VisSpec, df: &DataFrame, opts: &ProcessOptions) -> Result<DataFrame> {
    if !opts.memo {
        return process_uncached(spec, df, opts).map(|(out, _)| out);
    }
    let key = memo::key(spec, opts);
    let metrics = MetricsRegistry::global();
    if let Some(hit) = memo::get(df, &key) {
        metrics.incr(names::VIS_MEMO_HIT);
        return Ok(hit);
    }
    let (out, degraded) = process_uncached(spec, df, opts)?;
    if degraded {
        metrics.incr(names::VIS_MEMO_MISS);
    } else if memo::insert(df, key, out.clone_without_parents()) {
        // Another worker finished the same vis while we computed: count it
        // as the hit it would have been sequentially, so hit/miss totals
        // stay identical across thread counts.
        metrics.incr(names::VIS_MEMO_HIT);
    } else {
        metrics.incr(names::VIS_MEMO_MISS);
    }
    Ok(out)
}

/// The processed frame and whether this call folded a group-by.
///
/// The backend runs the relational step; the finishing step is shared, so
/// both backends draw the same chart from the same relational answer.
fn process_uncached(
    spec: &VisSpec,
    df: &DataFrame,
    opts: &ProcessOptions,
) -> Result<(DataFrame, bool)> {
    let (rows, degraded) = match opts.backend {
        Backend::Native => relational(spec, df, opts)?,
        Backend::Sql => (crate::sql::relational(spec, df, opts)?, false),
    };
    Ok((finish(spec, rows, opts)?, degraded))
}

/// The relational step's answer — Table 2's filter, projection, group-by
/// with aggregate and bin-count — in the one shape [`finish`] reads,
/// whichever backend computed it.
pub(crate) enum Relational {
    /// Scatter: the filtered rows of the drawn columns, in row order.
    Points(DataFrame),
    /// Bar, line, map: one row per group in first-seen order, the keys
    /// ([`group_keys`]) then the measure ([`measure`]). A temporal line
    /// past `temporal_buckets` instants carries its bins, and its x key
    /// holds bucket indices.
    Groups(DataFrame, Option<Bins>),
    /// Histogram and heatmap: the bin-count.
    Binned(Cells),
}

/// `n` equal-width bins over an axis' finite range, decided once by the
/// backend that runs the relational step and labelled by [`finish`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bins {
    pub lo: f64,
    pub hi: f64,
    pub n: usize,
}

impl Bins {
    /// `n` bins over `bounds`, the axis' finite `(min, max)`; an axis with
    /// no finite value spans the empty range at 0.
    pub fn new(bounds: Option<(f64, f64)>, n: usize) -> Bins {
        let (lo, hi) = bounds.unwrap_or((0.0, 0.0));
        Bins { lo, hi, n }
    }

    pub fn index(&self, v: f64) -> usize {
        bin_of(v, self.lo, self.hi, self.n)
    }

    pub fn edge(&self, b: usize) -> f64 {
        edge_of(b, self.lo, self.hi, self.n)
    }
}

/// The cells of the [`binned_axes`], x varying fastest: rows per cell, and
/// the sum and count of the cell's colour values that are neither null nor
/// NaN (SQL's `AVG` skips nulls, so the colour mean keeps its own count).
pub(crate) struct Cells {
    pub axes: Vec<Bins>,
    pub count: Vec<i64>,
    pub sum: Vec<f64>,
    pub colored: Vec<u64>,
}

impl Cells {
    pub fn new(axes: Vec<Bins>) -> Cells {
        let n = axes.iter().map(|b| b.n).product();
        let (count, sum, colored) = (vec![0; n], vec![0.0; n], vec![0; n]);
        Cells {
            axes,
            count,
            sum,
            colored,
        }
    }
}

/// The native relational step: the filter, then the mark's kernel.
fn relational(spec: &VisSpec, df: &DataFrame, opts: &ProcessOptions) -> Result<(Relational, bool)> {
    // 1. Apply the filter conjunction to the columns the view draws.
    let frame = &*filtered_view(spec, df)?;

    // 2. Mark-specific kernels; only grouping can degrade.
    let rows = match spec.mark {
        Mark::Bar | Mark::Line | Mark::Choropleth => return group_agg(spec, frame, opts),
        Mark::Scatter => Relational::Points(frame.select(&drawn_columns(spec)?)?),
        Mark::Histogram => {
            let (x, n) = binned_axes(spec, opts)?[0];
            let (bounds, counts) = frame.bin_counts(x, n)?;
            let mut cells = Cells::new(vec![Bins::new(bounds, n)]);
            cells.count = counts.into_iter().map(|c| c as i64).collect();
            Relational::Binned(cells)
        }
        Mark::Heatmap => Relational::Binned(bin_cells(spec, frame, opts)?),
    };
    Ok((rows, false))
}

/// The rows of `df` that pass `spec`'s filter conjunction, holding only the
/// columns the spec reads (`VisSpec::attributes`: its axes, colour and
/// filter attributes), so a filter gathers what the view draws rather than
/// the whole frame; `df` itself, borrowed, when the spec has no filter.
/// Every processing step reads its columns by name, so the result is the
/// same as filtering the whole frame first.
pub fn filtered_view<'a>(spec: &VisSpec, df: &'a DataFrame) -> Result<Cow<'a, DataFrame>> {
    if spec.filters.is_empty() {
        return Ok(Cow::Borrowed(df));
    }
    let mut frame = df.select(&spec.attributes())?;
    for f in &spec.filters {
        frame = frame.filter(&f.attribute, f.op, &f.value)?;
    }
    Ok(Cow::Owned(frame))
}

/// The finishing step, shared by both backends: the scatter downsample,
/// the top `max_bars` bars, the line and map sort, bin and bucket labels,
/// empty histogram bins, and the heatmap's cells and colour means.
fn finish(spec: &VisSpec, rows: Relational, opts: &ProcessOptions) -> Result<DataFrame> {
    let x = &channel(spec, Channel::X)?.attribute;
    match rows {
        Relational::Points(points) if points.num_rows() > opts.max_points => {
            Ok(points.sample(opts.max_points, opts.seed))
        }
        Relational::Points(points) => Ok(points),
        Relational::Groups(groups, buckets) => {
            let groups = match buckets {
                Some(bins) => label_buckets(&groups, x, bins)?,
                None => groups,
            };
            match spec.mark {
                // Rank bars by value and keep the top ones so high-cardinality
                // axes stay readable (and bounded in cost).
                Mark::Bar => {
                    let y = measure(spec).map_or("count", |(attr, _)| attr);
                    Ok(groups.sort_by(&[y], false)?.head(opts.max_bars))
                }
                // Lines and maps read left-to-right / by region: sort by the axis.
                _ => groups.sort_by(&[x.as_str()], true),
            }
        }
        Relational::Binned(cells) => emit_cells(spec, opts, &cells),
    }
}

/// The encoding on `ch`, which the spec's mark requires.
pub(crate) fn channel(spec: &VisSpec, ch: Channel) -> Result<&Encoding> {
    spec.channel(ch)
        .ok_or_else(|| Error::InvalidArgument(format!("spec {spec} has no {} encoding", ch.name())))
}

/// A histogram's x, or a heatmap's x and y, each with its bin count: its
/// own, else the mark's default.
pub(crate) fn binned_axes<'a>(
    spec: &'a VisSpec,
    opts: &ProcessOptions,
) -> Result<Vec<(&'a str, usize)>> {
    let (axes, default): (&[Channel], _) = match spec.mark {
        Mark::Histogram => (&[Channel::X], opts.histogram_bins),
        _ => (&[Channel::X, Channel::Y], opts.heatmap_bins),
    };
    let axis = |&ch: &Channel| {
        let e = channel(spec, ch)?;
        match e.bin.unwrap_or(default) {
            0 => Err(Error::InvalidArgument(format!(
                "{} needs a bin",
                e.attribute
            ))),
            n => Ok((e.attribute.as_str(), n)),
        }
    };
    axes.iter().map(axis).collect()
}

/// A heatmap's colour encoding, when it draws one.
pub(crate) fn colour(spec: &VisSpec) -> Option<&Encoding> {
    let heatmap = spec.mark == Mark::Heatmap;
    spec.channel(Channel::Color)
        .filter(|e| heatmap && !e.synthetic)
}

/// The columns a scatter draws: x, y, and a colour that is neither.
pub(crate) fn drawn_columns(spec: &VisSpec) -> Result<Vec<&str>> {
    let mut cols = vec![
        channel(spec, Channel::X)?.attribute.as_str(),
        channel(spec, Channel::Y)?.attribute.as_str(),
    ];
    if let Some(c) = spec
        .channel(Channel::Color)
        .filter(|c| !cols.contains(&c.attribute.as_str()))
    {
        cols.push(&c.attribute);
    }
    Ok(cols)
}

/// A group chart's keys: x, then a colour other than x.
pub(crate) fn group_keys(spec: &VisSpec) -> Result<Vec<&str>> {
    let x = channel(spec, Channel::X)?.attribute.as_str();
    let mut keys = vec![x];
    keys.extend(
        spec.channel(Channel::Color)
            .map(|e| e.attribute.as_str())
            .filter(|&c| c != x),
    );
    Ok(keys)
}

/// What a group chart aggregates: the y attribute under its aggregation
/// (the mean by default), or `None` for a row count.
pub(crate) fn measure(spec: &VisSpec) -> Option<(&str, Agg)> {
    spec.channel(Channel::Y)
        .filter(|e| !e.synthetic)
        .map(|e| (e.attribute.as_str(), e.aggregation.unwrap_or(Agg::Mean)))
}

/// Whether a line's x axis is temporal: past `temporal_buckets` distinct
/// instants it is drawn over that many equal-width time buckets, since a
/// point per instant is unreadable and as expensive as the raw data.
pub(crate) fn temporal_line(spec: &VisSpec, df: &DataFrame, x: &str) -> Result<bool> {
    Ok(spec.mark == Mark::Line && df.column(x)?.dtype() == lux_dataframe::DType::DateTime)
}

/// Bar / line / choropleth: (1D or 2D) group-by aggregation.
fn group_agg(spec: &VisSpec, df: &DataFrame, opts: &ProcessOptions) -> Result<(Relational, bool)> {
    let keys = group_keys(spec)?;
    let x = keys[0];

    let bucketed;
    let mut buckets = None;
    let mut df = df;
    if temporal_line(spec, df, x)? && df.cardinality_exceeds(x, opts.temporal_buckets)? {
        let bins = Bins::new(df.column(x)?.min_max_finite(), opts.temporal_buckets.max(1));
        bucketed = bucket_indices(df, x, bins)?;
        (df, buckets) = (&bucketed, Some(bins));
    }

    // Past the cap the kernel folds the tail keys into "(other)": the one
    // degradation decided at run time. The cap is the config's, whatever
    // the pass budget.
    let gb = df.groupby_capped(&keys, opts.max_group_cardinality)?;
    let folded = opts.governor.as_ref().filter(|_| gb.is_capped());
    if let Some(g) = folded {
        let (stage, cap) = (format!("process:{x}"), opts.max_group_cardinality);
        let detail = format!("distinct group keys exceed cap {cap}; folded into \"(other)\"");
        g.record(stage, DegradeLevel::CappedCardinality, detail);
    }

    let grouped = match measure(spec) {
        Some((attr, agg)) => gb.agg(&[(attr, agg)])?,
        None => gb.count()?,
    };
    Ok((Relational::Groups(grouped, buckets), folded.is_some()))
}

/// Heatmap bin-count: rows per cell where x and y are both finite, plus
/// the colour sum and count.
fn bin_cells(spec: &VisSpec, df: &DataFrame, opts: &ProcessOptions) -> Result<Cells> {
    let axes = binned_axes(spec, opts)?;
    let (xcol, ycol) = (df.column(axes[0].0)?, df.column(axes[1].0)?);
    let ccol = colour(spec).map(|e| df.column(&e.attribute)).transpose()?;
    let xb = Bins::new(xcol.min_max_finite(), axes[0].1);
    let yb = Bins::new(ycol.min_max_finite(), axes[1].1);
    let mut cells = Cells::new(vec![xb, yb]);

    // The cell of a row whose x and y are both finite.
    let cell_of = |xv: f64, yv: f64| {
        (xv.is_finite() && yv.is_finite()).then(|| yb.index(yv) * xb.n + xb.index(xv))
    };
    for_each_f64_pair(xcol, ycol, |_, xv, yv| {
        if let Some(cell) = cell_of(xv, yv) {
            cells.count[cell] += 1;
        }
    });
    if let Some(ccol) = ccol {
        for_each_f64_triple(xcol, ycol, ccol, |_, xv, yv, cv| {
            if let Some(cell) = cell_of(xv, yv).filter(|_| !cv.is_nan()) {
                cells.sum[cell] += cv;
                cells.colored[cell] += 1;
            }
        });
    }
    Ok(cells)
}

/// Every histogram bin, or the non-empty heatmap cells, y-major: each axis
/// labelled with its bins' start edges, the count, and the colour mean.
fn emit_cells(spec: &VisSpec, opts: &ProcessOptions, cells: &Cells) -> Result<DataFrame> {
    let mut labels = vec![Vec::new(); cells.axes.len()];
    let (mut ns, mut means) = (Vec::new(), Vec::new());
    for (cell, &n) in cells.count.iter().enumerate() {
        if n == 0 && spec.mark == Mark::Heatmap {
            continue;
        }
        let mut rest = cell;
        for (bins, labels) in cells.axes.iter().zip(&mut labels) {
            labels.push(bins.edge(rest % bins.n));
            rest /= bins.n;
        }
        ns.push(n);
        let colored = cells.colored[cell];
        means.push((colored > 0).then(|| cells.sum[cell] / colored as f64));
    }
    let mut b = DataFrameBuilder::new();
    for ((attr, _), labels) in binned_axes(spec, opts)?.into_iter().zip(labels) {
        b = b.float(attr, labels);
    }
    b = b.int("count", ns);
    if let Some(e) = colour(spec) {
        let means = Column::Float64(PrimitiveColumn::from_options(means));
        b = b.column(&format!("mean_{}", e.attribute), means);
    }
    b.build()
}

/// Replace a datetime column with the index of its values' time bucket.
fn bucket_indices(df: &DataFrame, column: &str, bins: Bins) -> Result<DataFrame> {
    let col = df.column(column)?;
    let mut binned: Vec<Option<i64>> = vec![None; col.len()];
    col.for_each_f64(|row, v| {
        if v.is_finite() {
            binned[row] = Some(bins.index(v) as i64);
        }
    });
    df.with_column(column, Column::Int64(PrimitiveColumn::from_options(binned)))
}

/// A temporal line's bucket-index key relabelled with each bucket's start
/// instant.
fn label_buckets(groups: &DataFrame, x: &str, bins: Bins) -> Result<DataFrame> {
    let mut labels = Vec::with_capacity(groups.num_rows());
    groups
        .column(x)?
        .for_each_row_f64(|_, b| labels.push(b.map(|b| bins.edge(b as usize) as i64)));
    groups.with_column(x, Column::DateTime(PrimitiveColumn::from_options(labels)))
}

/// Processed-vis memo (paper's WFLOW rule applied to processing, not just
/// metadata): a bounded FIFO per source frame, kept in the frame's
/// [`FrameState`](lux_dataframe::FrameState). Any derivation mints a fresh
/// state, so it starts empty; the memo is freed with the last frame of its
/// identity.
mod memo {
    use std::collections::{HashMap, VecDeque};
    use std::sync::Mutex;

    use lux_dataframe::DataFrame;
    use lux_engine::lock_recover;

    use super::{ProcessOptions, VisSpec};

    /// Processed views kept per source frame.
    const CAPACITY: usize = 256;

    #[derive(Default)]
    struct Store {
        map: HashMap<String, DataFrame>,
        order: VecDeque<String>,
    }

    /// The memo in a source frame's state.
    type Memo = Mutex<Store>;

    /// Full cache key: the spec serialization plus every option that can
    /// change the processed output.
    pub(super) fn key(spec: &VisSpec, opts: &ProcessOptions) -> String {
        format!(
            "{}|hb={}|mb={}|mp={}|hm={}|s={}|tb={}|gc={}|be={:?}",
            spec.cache_key(),
            opts.histogram_bins,
            opts.max_bars,
            opts.max_points,
            opts.heatmap_bins,
            opts.seed,
            opts.temporal_buckets,
            opts.max_group_cardinality,
            opts.backend,
        )
    }

    pub(super) fn get(df: &DataFrame, key: &str) -> Option<DataFrame> {
        // Injected lookup failure reads as a miss (the vis recomputes).
        if lux_engine::failpoint::hit(lux_engine::failpoint::names::MEMO_VIS_LOOKUP).is_some() {
            return None;
        }
        // Recover from poisoning: a panic while the lock was held (e.g. an
        // injected insert fault) leaves plain map/deque state that is never
        // torn across a panic point — silently disabling the memo for the
        // rest of the frame's life (the old `.lock().ok()?`) wedged every
        // later pass into miss-and-recompute.
        lock_recover(&df.state().get::<Memo>())
            .map
            .get(key)
            .cloned()
    }

    /// Insert unless present. Returns `true` when an entry already existed
    /// (a concurrent computation of the same vis won the race). `value`
    /// must hold no frame of `df`'s identity (see `FrameState::get`).
    pub(super) fn insert(df: &DataFrame, key: String, value: DataFrame) -> bool {
        let memo = df.state().get::<Memo>();
        let mut store = lock_recover(&memo);
        // Inside the critical section on purpose: a `panic` action poisons
        // the store mutex mid-insert, which the poisoning regression test
        // requires later passes to survive.
        if lux_engine::failpoint::hit(lux_engine::failpoint::names::MEMO_VIS_INSERT).is_some() {
            return false;
        }
        if store.map.contains_key(&key) {
            return true;
        }
        if store.order.len() >= CAPACITY {
            if let Some(old) = store.order.pop_front() {
                store.map.remove(&old);
            }
        }
        store.order.push_back(key.clone());
        store.map.insert(key, value);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Encoding, FilterSpec};
    use lux_engine::SemanticType;

    fn sample_df() -> DataFrame {
        DataFrameBuilder::new()
            .str("dept", ["Sales", "Eng", "Sales", "Eng", "HR"])
            .float("pay", [50.0, 80.0, 60.0, 90.0, 55.0])
            .float("age", [25.0, 32.0, 47.0, 28.0, 36.0])
            .build()
            .unwrap()
    }

    fn opts() -> ProcessOptions {
        ProcessOptions::default()
    }

    #[test]
    fn scatter_selects_columns() {
        let spec = VisSpec::new(
            Mark::Scatter,
            vec![
                Encoding::new("pay", SemanticType::Quantitative, Channel::X),
                Encoding::new("age", SemanticType::Quantitative, Channel::Y),
            ],
            vec![],
        );
        let out = process(&spec, &sample_df(), &opts()).unwrap();
        assert_eq!(out.column_names(), &["pay", "age"]);
        assert_eq!(out.num_rows(), 5);
    }

    #[test]
    fn scatter_downsamples() {
        let df = DataFrameBuilder::new()
            .float("a", (0..1000).map(|i| i as f64))
            .float("b", (0..1000).map(|i| (i * 2) as f64))
            .build()
            .unwrap();
        let spec = VisSpec::new(
            Mark::Scatter,
            vec![
                Encoding::new("a", SemanticType::Quantitative, Channel::X),
                Encoding::new("b", SemanticType::Quantitative, Channel::Y),
            ],
            vec![],
        );
        let o = ProcessOptions {
            max_points: 100,
            ..opts()
        };
        let out = process(&spec, &df, &o).unwrap();
        assert_eq!(out.num_rows(), 100);
    }

    #[test]
    fn bar_groups_and_sorts_desc() {
        let spec = VisSpec::new(
            Mark::Bar,
            vec![
                Encoding::new("dept", SemanticType::Nominal, Channel::X),
                Encoding::new("pay", SemanticType::Quantitative, Channel::Y)
                    .with_aggregation(Agg::Mean),
            ],
            vec![],
        );
        let out = process(&spec, &sample_df(), &opts()).unwrap();
        assert_eq!(out.num_rows(), 3);
        // Eng has the highest mean pay (85), so it comes first.
        assert_eq!(out.value(0, "dept").unwrap(), Value::str("Eng"));
        assert_eq!(out.value(0, "pay").unwrap(), Value::Float(85.0));
    }

    #[test]
    fn bar_count_when_no_measure() {
        let spec = VisSpec::new(
            Mark::Bar,
            vec![
                Encoding::new("dept", SemanticType::Nominal, Channel::X),
                Encoding::synthetic_count(Channel::Y),
            ],
            vec![],
        );
        let out = process(&spec, &sample_df(), &opts()).unwrap();
        assert!(out.has_column("count"));
        assert_eq!(out.value(0, "count").unwrap(), Value::Int(2));
    }

    #[test]
    fn bar_caps_at_max_bars() {
        let df = DataFrameBuilder::new()
            .str("k", (0..100).map(|i| format!("k{i}")))
            .float("v", (0..100).map(|i| i as f64))
            .build()
            .unwrap();
        let spec = VisSpec::new(
            Mark::Bar,
            vec![
                Encoding::new("k", SemanticType::Nominal, Channel::X),
                Encoding::new("v", SemanticType::Quantitative, Channel::Y)
                    .with_aggregation(Agg::Mean),
            ],
            vec![],
        );
        let o = ProcessOptions {
            max_bars: 10,
            ..opts()
        };
        let out = process(&spec, &df, &o).unwrap();
        assert_eq!(out.num_rows(), 10);
        assert_eq!(out.value(0, "k").unwrap(), Value::str("k99"));
    }

    #[test]
    fn colored_bar_is_2d_group() {
        let df = DataFrameBuilder::new()
            .str("dept", ["S", "S", "E", "E"])
            .str("level", ["jr", "sr", "jr", "sr"])
            .float("pay", [1.0, 2.0, 3.0, 4.0])
            .build()
            .unwrap();
        let spec = VisSpec::new(
            Mark::Bar,
            vec![
                Encoding::new("dept", SemanticType::Nominal, Channel::X),
                Encoding::new("pay", SemanticType::Quantitative, Channel::Y)
                    .with_aggregation(Agg::Mean),
                Encoding::new("level", SemanticType::Nominal, Channel::Color),
            ],
            vec![],
        );
        let out = process(&spec, &df, &opts()).unwrap();
        assert_eq!(out.num_rows(), 4); // dept x level combinations
        assert!(out.has_column("level"));
    }

    #[test]
    fn histogram_bins_and_counts() {
        let df = DataFrameBuilder::new()
            .float("v", (0..100).map(|i| i as f64))
            .build()
            .unwrap();
        let spec = VisSpec::new(
            Mark::Histogram,
            vec![
                Encoding::new("v", SemanticType::Quantitative, Channel::X).with_bin(5),
                Encoding::synthetic_count(Channel::Y),
            ],
            vec![],
        );
        let out = process(&spec, &df, &opts()).unwrap();
        assert_eq!(out.num_rows(), 5);
        let total: i64 = (0..5)
            .map(|i| out.value(i, "count").unwrap().as_f64().unwrap() as i64)
            .sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn filters_apply_before_processing() {
        let spec = VisSpec::new(
            Mark::Histogram,
            vec![
                Encoding::new("pay", SemanticType::Quantitative, Channel::X).with_bin(4),
                Encoding::synthetic_count(Channel::Y),
            ],
            vec![FilterSpec::new("dept", FilterOp::Eq, Value::str("Sales"))],
        );
        let out = process(&spec, &sample_df(), &opts()).unwrap();
        let total: i64 = (0..out.num_rows())
            .map(|i| out.value(i, "count").unwrap().as_f64().unwrap() as i64)
            .sum();
        assert_eq!(total, 2); // only the two Sales rows
    }

    #[test]
    fn heatmap_cells() {
        let df = DataFrameBuilder::new()
            .float("a", (0..100).map(|i| (i % 10) as f64))
            .float("b", (0..100).map(|i| (i / 10) as f64))
            .build()
            .unwrap();
        let spec = VisSpec::new(
            Mark::Heatmap,
            vec![
                Encoding::new("a", SemanticType::Quantitative, Channel::X).with_bin(5),
                Encoding::new("b", SemanticType::Quantitative, Channel::Y).with_bin(5),
            ],
            vec![],
        );
        let out = process(&spec, &df, &opts()).unwrap();
        assert!(out.num_rows() <= 25);
        let total: i64 = (0..out.num_rows())
            .map(|i| out.value(i, "count").unwrap().as_f64().unwrap() as i64)
            .sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn line_sorts_by_x() {
        let df = DataFrameBuilder::new()
            .datetime("date", ["2020-03-03", "2020-01-01", "2020-02-02"])
            .float("v", [3.0, 1.0, 2.0])
            .build()
            .unwrap();
        let spec = VisSpec::new(
            Mark::Line,
            vec![
                Encoding::new("date", SemanticType::Temporal, Channel::X),
                Encoding::new("v", SemanticType::Quantitative, Channel::Y)
                    .with_aggregation(Agg::Mean),
            ],
            vec![],
        );
        let out = process(&spec, &df, &opts()).unwrap();
        assert_eq!(out.value(0, "v").unwrap(), Value::Float(1.0));
        assert_eq!(out.value(2, "v").unwrap(), Value::Float(3.0));
    }

    #[test]
    fn high_cardinality_temporal_line_is_resampled() {
        // 1000 distinct timestamps -> resampled into <= temporal_buckets points
        let base = 18_262i64 * 86_400;
        let dates: Vec<i64> = (0..1000).map(|i| base + i * 3600).collect();
        let df = DataFrame::from_columns(vec![
            (
                "when".to_string(),
                Column::DateTime(PrimitiveColumn::from_values(dates)),
            ),
            (
                "v".to_string(),
                Column::Float64(PrimitiveColumn::from_values(
                    (0..1000).map(|i| i as f64).collect(),
                )),
            ),
        ])
        .unwrap();
        let spec = VisSpec::new(
            Mark::Line,
            vec![
                Encoding::new("when", lux_engine::SemanticType::Temporal, Channel::X),
                Encoding::new("v", lux_engine::SemanticType::Quantitative, Channel::Y)
                    .with_aggregation(Agg::Mean),
            ],
            vec![],
        );
        let o = ProcessOptions {
            temporal_buckets: 40,
            ..ProcessOptions::default()
        };
        let out = process(&spec, &df, &o).unwrap();
        assert!(
            out.num_rows() <= 40,
            "expected resampling, got {} rows",
            out.num_rows()
        );
        assert!(out.num_rows() >= 20);
    }

    /// The resample decision counts distinct non-null instants up to the
    /// bucket count and no further; it must still be the decision an exact
    /// count makes, on either side of the threshold and far past it.
    #[test]
    fn temporal_resample_threshold_matches_exact_cardinality() {
        let spec = VisSpec::new(
            Mark::Line,
            vec![
                Encoding::new("when", lux_engine::SemanticType::Temporal, Channel::X),
                Encoding::new("v", lux_engine::SemanticType::Quantitative, Channel::Y)
                    .with_aggregation(Agg::Mean),
            ],
            vec![],
        );
        let buckets = ProcessOptions::default().temporal_buckets;
        assert_eq!(buckets, 64);
        for distinct in [64usize, 65, 100_000] {
            for nulls in [false, true] {
                // every instant twice, then (optionally) a run of nulls
                let mut dates: Vec<Option<i64>> = (0..2 * distinct)
                    .map(|i| Some((i % distinct) as i64 * 3_600))
                    .collect();
                dates.extend(std::iter::repeat_n(None, 10 * nulls as usize));
                let rows = dates.len();
                let df = DataFrame::from_columns(vec![
                    (
                        "when".to_string(),
                        Column::DateTime(PrimitiveColumn::from_options(dates)),
                    ),
                    (
                        "v".to_string(),
                        Column::Float64(PrimitiveColumn::from_values(
                            (0..rows).map(|i| i as f64).collect(),
                        )),
                    ),
                ])
                .unwrap();
                assert_eq!(df.cardinality("when").unwrap(), distinct);
                let out = process(&spec, &df, &ProcessOptions::default()).unwrap();
                let points = out.num_rows() - nulls as usize; // less the null group
                if distinct > buckets {
                    assert!(points <= buckets, "{distinct} instants: {points} points");
                } else {
                    assert_eq!(points, distinct, "{distinct} instants left as they are");
                }
            }
        }
    }

    #[test]
    fn missing_encoding_errors() {
        let spec = VisSpec::new(Mark::Scatter, vec![], vec![]);
        assert!(process(&spec, &sample_df(), &opts()).is_err());
    }

    #[test]
    fn near_unique_bar_axis_is_cardinality_capped() {
        use lux_engine::governor::ResourceBudget;
        let df = DataFrameBuilder::new()
            .str("k", (0..500).map(|i| format!("k{i}")))
            .float("v", (0..500).map(|i| i as f64))
            .build()
            .unwrap();
        let spec = VisSpec::new(
            Mark::Bar,
            vec![
                Encoding::new("k", SemanticType::Nominal, Channel::X),
                Encoding::synthetic_count(Channel::Y),
            ],
            vec![],
        );
        let gov = Arc::new(BudgetHandle::new(ResourceBudget::default()));
        let o = ProcessOptions {
            max_group_cardinality: 50,
            governor: Some(gov.clone()),
            ..opts()
        };
        let out = process(&spec, &df, &o).unwrap();
        assert!(out.num_rows() <= o.max_bars);
        // the fold is recorded and the "(other)" bar carries the overflow
        assert!(gov.event_count() >= 1, "no governor event for the cap");
        assert_eq!(out.value(0, "k").unwrap(), Value::str("(other)"));
        assert_eq!(out.value(0, "count").unwrap(), Value::Int(450));
    }

    #[test]
    fn memo_caches_exact_results_by_fingerprint() {
        let df = sample_df();
        let spec = VisSpec::new(
            Mark::Bar,
            vec![
                Encoding::new("dept", SemanticType::Nominal, Channel::X),
                Encoding::new("pay", SemanticType::Quantitative, Channel::Y)
                    .with_aggregation(Agg::Mean),
            ],
            vec![],
        );
        let o = ProcessOptions {
            memo: true,
            ..opts()
        };
        let first = process(&spec, &df, &o).unwrap();
        let k = memo::key(&spec, &o);
        assert!(memo::get(&df, &k).is_some(), "exact result was not cached");
        let second = process(&spec, &df, &o).unwrap();
        assert_eq!(first.num_rows(), second.num_rows());
        assert_eq!(
            first.value(0, "dept").unwrap(),
            second.value(0, "dept").unwrap()
        );
        assert_eq!(
            first.value(0, "pay").unwrap(),
            second.value(0, "pay").unwrap()
        );
        // a fresh frame with identical data has a different identity: at
        // worst a miss, never a wrong hit
        assert!(memo::get(&sample_df(), &k).is_none());
    }

    #[test]
    fn memo_skips_degraded_results() {
        let df = DataFrameBuilder::new()
            .str("k", (0..500).map(|i| format!("k{i}")))
            .float("v", (0..500).map(|i| i as f64))
            .build()
            .unwrap();
        let spec = VisSpec::new(
            Mark::Bar,
            vec![
                Encoding::new("k", SemanticType::Nominal, Channel::X),
                Encoding::synthetic_count(Channel::Y),
            ],
            vec![],
        );
        let gov = Arc::new(BudgetHandle::new(
            lux_engine::governor::ResourceBudget::default(),
        ));
        let o = ProcessOptions {
            max_group_cardinality: 50,
            governor: Some(gov.clone()),
            memo: true,
            ..opts()
        };
        process(&spec, &df, &o).unwrap();
        assert!(gov.event_count() >= 1, "expected a cap degradation");
        let k = memo::key(&spec, &o);
        assert!(
            memo::get(&df, &k).is_none(),
            "degraded result must not be cached"
        );
    }

    #[test]
    fn heatmap_survives_inf_values() {
        let df = DataFrameBuilder::new()
            .float("a", [f64::INFINITY, 1.0, 2.0, 3.0, f64::NEG_INFINITY])
            .float("b", [1.0, 2.0, f64::NAN, 4.0, 5.0])
            .build()
            .unwrap();
        let spec = VisSpec::new(
            Mark::Heatmap,
            vec![
                Encoding::new("a", SemanticType::Quantitative, Channel::X).with_bin(4),
                Encoding::new("b", SemanticType::Quantitative, Channel::Y).with_bin(4),
            ],
            vec![],
        );
        let out = process(&spec, &df, &opts()).unwrap();
        // only the two fully-finite rows land in cells, at finite coords
        let total: i64 = (0..out.num_rows())
            .map(|i| out.value(i, "count").unwrap().as_f64().unwrap() as i64)
            .sum();
        assert_eq!(total, 2);
        for i in 0..out.num_rows() {
            assert!(out.value(i, "a").unwrap().as_f64().unwrap().is_finite());
            assert!(out.value(i, "b").unwrap().as_f64().unwrap().is_finite());
        }
    }
}
