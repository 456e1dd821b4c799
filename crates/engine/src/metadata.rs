//! Dataframe metadata: per-column statistics and semantic data types.
//!
//! This is the paper's §8.1 "Metadata Computation": for each attribute Lux
//! records the unique values, cardinality, and min/max; it then infers a
//! *semantic* data type (nominal, quantitative, temporal, geographic) from
//! the physical type, the cardinality, and name heuristics. The semantic
//! type drives everything downstream — which actions apply, which mark a
//! compiled visualization uses, how wildcards expand.
//!
//! The statistics themselves come from the fused one-pass kernels in
//! [`crate::stats`]: one branch-light loop per column chunk produces null
//! count, min/max and distinct count (exact set up to [`UNIQUE_SCAN_CAP`],
//! then a mergeable cardinality sketch); [`UniqueValues`] lists are built
//! when first read. Because the per-chunk partials merge into a result that depends
//! only on the scanned row set, the pass can
//!
//! - fan column chunks out over the worker pool and fold deterministically,
//!   and
//! - reuse a parent frame's partials across an append (`concat` stamps
//!   lineage; each frame keeps its last pass's partials in its
//!   [`FrameState`], in the one metadata entry [`of_frame`] reads, keyed on
//!   the pass's scan plan), scanning only the tail.
//!
//! Governor accounting stays thread-count-independent by splitting the pass
//! into plan (sequential) / scan (parallel) / record (sequential) phases.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use lux_dataframe::prelude::*;
use lux_dataframe::FrameState;

use crate::governor::{self, BudgetHandle, DegradeLevel};
use crate::stats::sketch::{self, CardinalitySketch};
use crate::stats::{self, ColumnStats, StatsSpec};
use crate::sync::lock_recover;
use crate::trace::{names, MetricsRegistry};

/// Semantic data type of a column (paper §8.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SemanticType {
    /// Categorical attribute (bar charts, color encodings, filters).
    Nominal,
    /// Continuous numeric attribute (histograms, scatterplots).
    Quantitative,
    /// Date/time attribute (line charts).
    Temporal,
    /// Geographic attribute (choropleth maps).
    Geographic,
    /// Identifier column: near-unique per row, excluded from recommendations.
    Id,
}

impl SemanticType {
    pub fn name(self) -> &'static str {
        match self {
            SemanticType::Nominal => "nominal",
            SemanticType::Quantitative => "quantitative",
            SemanticType::Temporal => "temporal",
            SemanticType::Geographic => "geographic",
            SemanticType::Id => "id",
        }
    }

    /// Parse from the names accepted in intent constraints
    /// (e.g. `lux.Clause("?", data_type="quantitative")`).
    pub fn parse(s: &str) -> Option<SemanticType> {
        match s.to_ascii_lowercase().as_str() {
            "nominal" | "categorical" => Some(SemanticType::Nominal),
            "quantitative" | "numeric" => Some(SemanticType::Quantitative),
            "temporal" | "datetime" | "time" => Some(SemanticType::Temporal),
            "geographic" | "geo" => Some(SemanticType::Geographic),
            "id" => Some(SemanticType::Id),
            _ => None,
        }
    }
}

impl std::fmt::Display for SemanticType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How many distinct values a column's [`UniqueValues`] holds (the smallest
/// K in value order), for wildcard enumeration and filter validation.
pub const UNIQUE_VALUES_CAP: usize = 256;

/// Ceiling on the exact distinct set built while scanning a non-string
/// column. Below it, cardinality is exact; past it the counter degrades to
/// a mergeable cardinality sketch and cardinality becomes an estimate, so a
/// near-unique numeric column of any height costs O(cap) memory, not
/// O(rows).
pub const UNIQUE_SCAN_CAP: usize = 65_536;

/// Exact-set ceiling once a pass's memory budget is already breached (the
/// governor's "sampled" rung for metadata).
const DEGRADED_SCAN_CAP: usize = 4_096;

/// Integer columns at or below this distinct-count are treated as nominal
/// (e.g. ratings 1-5, month numbers), mirroring Lux's cardinality heuristic.
pub const NOMINAL_INT_CARDINALITY: usize = 20;

/// Rows per fused-scan chunk task. The chunk grid is a pure function of the
/// scanned row range — never of the worker count — so folding the per-chunk
/// partials yields the same result at every `par`. A million rows: below
/// that a column is one accumulator (no second table, nothing to fold) and
/// the columns are the fan-out; above it a near-unique column's partial is
/// already a sketch by the time a second chunk exists, so its fold is a
/// register-max merge.
pub const CHUNK_ROWS: usize = 1 << 20;

/// Partials past this many bytes are not kept on their frame: an append to
/// it rescans from row zero.
const MAX_KEPT_PARTIALS_BYTES: u64 = 64 << 20;

/// A metadata pass's plan, decided before any scan (phase 1): per column, in
/// frame order, its name, dtype and [`StatsSpec`].
type ScanPlan = Vec<(String, DType, StatsSpec)>;

/// A frame's metadata, in its [`FrameState`]: the rows and plan it was
/// scanned under, the merged partials (`None` past
/// [`MAX_KEPT_PARTIALS_BYTES`]) a finalize under new overrides or an append
/// child starts from, and the [`FrameMeta`] per override set WFLOW memoized.
struct MetaEntry {
    rows: usize,
    plan: ScanPlan,
    partials: Option<Arc<[ColumnStats]>>,
    metas: Vec<(HashMap<String, SemanticType>, Arc<FrameMeta>)>,
}

type MetaSlot = Mutex<Option<MetaEntry>>;

impl MetaEntry {
    /// The one reuse rule: this entry, scanned over the first `rows` rows
    /// of a frame (the frame itself, or its append parent), serves a pass
    /// planned as `plan` when every column's name, dtype and spec match.
    fn fits(&self, rows: usize, plan: &ScanPlan) -> bool {
        self.rows == rows && self.plan == *plan
    }
}

/// Statistics and inferred type for one column.
#[derive(Debug, Clone)]
pub struct ColumnMeta {
    pub name: String,
    pub dtype: DType,
    pub semantic: SemanticType,
    /// Count of distinct non-null values. Exact for string columns and for
    /// columns under [`UNIQUE_SCAN_CAP`] distinct values; past that it is a
    /// sketch estimate (see `cardinality_estimated`).
    pub cardinality: usize,
    /// True when `cardinality` is a sketch estimate rather than an exact
    /// count. The estimate's standard error is documented on
    /// [`CardinalitySketch::standard_error`]; renderers mark it with `~`.
    pub cardinality_estimated: bool,
    /// Up to [`UNIQUE_VALUES_CAP`] distinct values. Numeric columns carry
    /// the smallest distinct values in value order; string columns the
    /// first-interned dictionary entries still referenced. Only intent
    /// paths read it, so a print without one never builds it.
    pub unique_values: UniqueValues,
    /// True when `unique_values` holds every distinct value.
    pub unique_complete: bool,
    /// Numeric min/max (ints, floats, bools, datetimes), nulls/NaN ignored.
    pub min: Option<f64>,
    pub max: Option<f64>,
    pub null_count: usize,
}

/// A column's value list, built in one pass over the column when first
/// read, into a slot every clone of its [`ColumnMeta`] shares: once per
/// `FrameMeta` a frame's metadata entry keeps, freed with it. The build
/// opens no span and charges no budget. Derefs to `[Value]`, as `Debug` and `==` do.
#[derive(Clone)]
pub struct UniqueValues {
    column: Arc<Column>,
    list: Arc<OnceLock<Vec<Value>>>,
}

impl UniqueValues {
    /// The (not yet built) value list of `column`.
    pub fn new(column: Arc<Column>) -> UniqueValues {
        UniqueValues {
            column,
            list: Arc::default(),
        }
    }

    /// True once the list has been built.
    #[doc(hidden)]
    pub fn is_built(&self) -> bool {
        self.list.get().is_some()
    }
}

impl std::ops::Deref for UniqueValues {
    type Target = [Value];
    fn deref(&self) -> &[Value] {
        self.list
            .get_or_init(|| stats::value_list(&self.column, UNIQUE_VALUES_CAP))
    }
}

impl std::fmt::Debug for UniqueValues {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl PartialEq for UniqueValues {
    fn eq(&self, other: &UniqueValues) -> bool {
        **self == **other
    }
}

/// Metadata for a whole frame.
#[derive(Debug, Clone, Default)]
pub struct FrameMeta {
    pub columns: Vec<ColumnMeta>,
    pub num_rows: usize,
}

impl FrameMeta {
    /// Compute metadata for every column. `overrides` lets users correct a
    /// misclassified semantic type (paper §8.1: "If the data type is
    /// misclassified, users can override the automatically-inferred type").
    pub fn compute(df: &DataFrame, overrides: &HashMap<String, SemanticType>) -> FrameMeta {
        let lineage = df.append_lineage();
        Self::compute_with_chunk_rows(df, overrides, None, None, 1, CHUNK_ROWS, lineage.as_slice())
    }

    /// [`FrameMeta::compute`] as a pass runs it ([`of_frame`]): under the
    /// pass budget (per-column scans charge `governor` before allocating,
    /// shrink their distinct-value scan when the byte budget is exhausted,
    /// and record every downgrade as a [`crate::governor::GovernorEvent`]),
    /// with a `column:<name>` span per scanned chunk under `trace`, fanned
    /// out over up to `par` pool workers (DESIGN.md §9), seeded from the
    /// partials of the first `(state, rows)` of `lineage` whose plan matches,
    /// on a `chunk_rows` grid (tests pass one below [`CHUNK_ROWS`] to reach
    /// the fold). Runs in three phases so the result — governor accounting
    /// and event order included — is byte-identical for every `par` and
    /// grid:
    ///
    /// 1. **plan** (sequential, column order): every byte-charge and
    ///    scan-cap decision happens on the caller thread, always against
    ///    the full column length (append reuse does not change charges);
    /// 2. **scan** (parallel): one task per column chunk runs the fused
    ///    kernels with its pre-decided cap. Up to `chunk_rows` rows a
    ///    column is one chunk and its partial is the result; past that (or
    ///    when `lineage` supplies partials, so only the rows past them are
    ///    scanned) each column folds its own partials in chunk order, one
    ///    pool task per column, under a `metadata.fold` span;
    /// 3. **record** (sequential, column order): finalize each column,
    ///    record capped-cardinality events, and keep the merged partials
    ///    with the plan as this frame's metadata entry in its
    ///    [`FrameState`], for an append child or a WFLOW read.
    pub fn compute_with_chunk_rows(
        df: &DataFrame,
        overrides: &HashMap<String, SemanticType>,
        trace: Option<(&crate::trace::TraceCollector, crate::trace::SpanId)>,
        governor: Option<&BudgetHandle>,
        par: usize,
        chunk_rows: usize,
        lineage: &[(&FrameState, usize)],
    ) -> FrameMeta {
        let (meta, _) = Self::read(
            df, overrides, false, trace, governor, par, chunk_rows, lineage,
        );
        Arc::unwrap_or_clone(meta)
    }

    /// The pass behind [`of_frame`] and [`FrameMeta::compute_with_chunk_rows`],
    /// and whether it was a WFLOW hit: phase 1, then under the frame's entry
    /// lock phases 2 and 3 on a miss, seeded from its own partials or `lineage`'s.
    #[allow(clippy::too_many_arguments)]
    fn read(
        df: &DataFrame,
        overrides: &HashMap<String, SemanticType>,
        memo: bool,
        trace: Option<(&crate::trace::TraceCollector, crate::trace::SpanId)>,
        governor: Option<&BudgetHandle>,
        par: usize,
        chunk_rows: usize,
        lineage: &[(&FrameState, usize)],
    ) -> (Arc<FrameMeta>, bool) {
        assert!(chunk_rows > 0, "chunk grid needs a positive stride");
        let num_rows = df.num_rows();
        // Columns are walked by position, once; every phase carries the
        // column instead of resolving the name again.
        let cols: Vec<(&String, &Arc<Column>)> = (df.column_names().iter().enumerate())
            .map(|(i, name)| (name, df.column_arc_at(i)))
            .collect();

        // Phase 1: plan.
        let plan: ScanPlan = (cols.iter())
            .map(|&(name, c)| (name.clone(), c.dtype(), plan_column_scan(name, c, governor)))
            .collect();
        let slot = df.state().get::<MetaSlot>();
        let mut entry = lock_recover(&slot);
        let own = (entry.as_ref()).filter(|e| memo && e.fits(num_rows, &plan));
        let hit = own.and_then(|e| e.metas.iter().find(|(key, _)| key == overrides));
        if let Some((_, meta)) = hit {
            record_estimates(governor, meta, &plan);
            return (Arc::clone(meta), true);
        }

        // Partials for the first rows come from the frame's own entry (no
        // rows left to scan) or its append parent's (only the tail).
        let seed = (own.and_then(|e| e.partials.clone()))
            .map(|partials| (num_rows, partials))
            .or_else(|| {
                lineage.iter().find_map(|&(state, rows)| {
                    let slot = state.get::<MetaSlot>();
                    let parent = lock_recover(&slot);
                    let parent = parent.as_ref().filter(|e| e.fits(rows, &plan))?;
                    Some((rows, parent.partials.clone()?))
                })
            });
        let scan_from = seed.as_ref().map_or(0, |(rows, _)| *rows);

        // Phase 2: scan. One task per (column, chunk); the grid depends
        // only on the row range, so every `par` folds identically.
        let mut tasks: Vec<(usize, usize, usize)> = Vec::new();
        for (ci, (_, col)) in cols.iter().enumerate() {
            let len = col.len();
            let mut start = scan_from.min(len);
            while start < len {
                let end = (start + chunk_rows).min(len);
                tasks.push((ci, start, end));
                start = end;
            }
        }
        // Claim the chunks that may hash before the bitset-only ones, taller
        // first, so the heaviest columns never start last and set the
        // makespan. The sort is stable and partials fold by column index.
        let hashing = [DType::Float64, DType::Int64, DType::DateTime];
        tasks.sort_by_key(|&(ci, start, end)| {
            let rank = hashing.iter().position(|&d| d == cols[ci].1.dtype());
            (rank.unwrap_or(hashing.len()), Reverse(end - start))
        });
        let mut chunks: Vec<Vec<ColumnStats>> = cols.iter().map(|_| Vec::new()).collect();
        let scanned = crate::pool::parallel_map(par, tasks, |_, (ci, start, end)| {
            // Chaos site: `panic`/`sleep` actions inject a crash or a
            // stall into the per-chunk scan (a `return` is a no-op
            // here — metadata has no error channel).
            let _ = crate::failpoint::hit(crate::failpoint::names::METADATA_COLUMN);
            let (name, col) = cols[ci];
            let span =
                trace.map(|(c, parent)| (c, c.begin(Some(parent), format!("column:{name}"))));
            let stats = ColumnStats::scan(col, start, end, &plan[ci].2);
            if let Some((c, id)) = span {
                if let Some(w) = crate::pool::worker_index() {
                    c.tag(id, "sched.worker", w.to_string());
                }
                c.tag(id, "rows", (end - start).to_string());
                c.end(id);
            }
            (ci, stats)
        });
        for (ci, stats) in scanned {
            chunks[ci].push(stats);
        }

        // Fold each column's partials, seeded from the kept ones (own or
        // append parent's) or from its first chunk — never from an empty set
        // that would force a pointless rehash of the first chunk's keys. A
        // column with a single partial has nothing to fold, so the pool is
        // only entered when some column does.
        let seeds = seed.as_ref().map(|(_, partials)| partials);
        let fold_par = if seeds.is_some() || chunks.iter().any(|c| c.len() > 1) {
            par
        } else {
            1
        };
        let folded: Vec<ColumnStats> = crate::pool::parallel_map(fold_par, chunks, |ci, chunks| {
            let seed = seeds.map(|s| &s[ci]);
            fold_column(cols[ci].1, &plan[ci].2, seed, chunks, trace)
        });
        if seed.is_some() && scan_from < num_rows {
            MetricsRegistry::global().incr(names::METADATA_APPEND_MERGES);
        }

        // Phase 3: record + finalize, in column order.
        let mut columns = Vec::with_capacity(cols.len());
        for ((&(name, col), stats), (_, dtype, spec)) in cols.iter().zip(&folded).zip(&plan) {
            let fin = stats.finalize(spec);
            let semantic = overrides.get(name).copied().unwrap_or_else(|| {
                infer_semantic_est(
                    name,
                    *dtype,
                    fin.cardinality,
                    num_rows,
                    fin.estimated,
                    spec.precision,
                )
            });
            columns.push(ColumnMeta {
                name: name.clone(),
                dtype: *dtype,
                semantic,
                cardinality: fin.cardinality,
                cardinality_estimated: fin.estimated,
                unique_values: UniqueValues::new(Arc::clone(col)),
                unique_complete: !fin.estimated && fin.cardinality <= UNIQUE_VALUES_CAP,
                min: fin.min,
                max: fin.max,
                null_count: fin.null_count,
            });
        }
        let meta = Arc::new(FrameMeta { columns, num_rows });
        record_estimates(governor, &meta, &plan);

        // Keep the merged partials under the plan, replacing an entry scanned
        // under another one (an entry under this plan already holds them).
        if !entry.as_ref().is_some_and(|e| e.fits(num_rows, &plan)) {
            let bytes: u64 = (plan.iter().zip(&folded))
                .map(|((name, ..), stats)| 64 + name.len() as u64 + stats.bytes())
                .sum();
            *entry = Some(MetaEntry {
                rows: num_rows,
                plan,
                partials: (bytes <= MAX_KEPT_PARTIALS_BYTES).then(|| folded.into()),
                metas: Vec::new(),
            });
        }
        if let Some(kept) = entry.as_mut().filter(|_| memo) {
            kept.metas.push((overrides.clone(), Arc::clone(&meta)));
        }
        (meta, false)
    }

    /// Metadata for a column by name.
    pub fn column(&self, name: &str) -> Option<&ColumnMeta> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Names of columns with the given semantic type.
    pub fn columns_of(&self, semantic: SemanticType) -> Vec<&str> {
        self.columns
            .iter()
            .filter(|c| c.semantic == semantic)
            .map(|c| c.name.as_str())
            .collect()
    }
}

/// A frame's metadata as a pass reads it: the one way into the metadata pass
/// outside tests and the experiment binaries. It plans first. Under WFLOW
/// (`memo`), if the plan matches the frame's entry, it returns the entry's
/// [`FrameMeta`] for `overrides` (a hit) or finalizes one from its partials;
/// otherwise it computes, merging an append parent's partials, and replaces
/// the entry. A hit charges and records what its miss planned; a miss holds
/// the entry's lock, so concurrent first reads scan once. No-opt reads always
/// compute. Counts in `lux.wflow.meta_memo_*`, tags `memo` on `trace`'s span;
/// the rest is as for [`FrameMeta::compute_with_chunk_rows`].
pub fn of_frame(
    df: &DataFrame,
    overrides: &HashMap<String, SemanticType>,
    memo: bool,
    trace: Option<(&crate::trace::TraceCollector, crate::trace::SpanId)>,
    governor: Option<&BudgetHandle>,
    par: usize,
) -> Arc<FrameMeta> {
    let lineage = df.append_lineage();
    let lineage = lineage.as_slice();
    let (meta, hit) = FrameMeta::read(
        df, overrides, memo, trace, governor, par, CHUNK_ROWS, lineage,
    );
    let (verdict, counter) = match (hit, memo) {
        (true, _) => ("hit", names::META_MEMO_HIT),
        (false, true) => ("miss", names::META_MEMO_MISS),
        (false, false) => ("off", names::META_MEMO_MISS),
    };
    if let Some((c, span)) = trace {
        c.tag(span, "memo", verdict);
    }
    MetricsRegistry::global().incr(counter);
    meta
}

/// The metadata [`of_frame`] memoized on `df` for `overrides`, if any,
/// whatever its plan. Never scans: a shed print validates its intent
/// against this alone.
pub fn memoized(
    df: &DataFrame,
    overrides: &HashMap<String, SemanticType>,
) -> Option<Arc<FrameMeta>> {
    let slot = df.state().get::<MetaSlot>();
    let entry = lock_recover(&slot);
    let (_, meta) = (entry.as_ref()?.metas.iter()).find(|(key, _)| key == overrides)?;
    Some(Arc::clone(meta))
}

/// Phase 3's events: `capped-cardinality` for each column whose count
/// `meta` estimates, in column order.
fn record_estimates(governor: Option<&BudgetHandle>, meta: &FrameMeta, plan: &ScanPlan) {
    let Some(g) = governor else { return };
    for (column, (_, _, spec)) in meta.columns.iter().zip(plan) {
        if column.cardinality_estimated {
            g.record(
                format!("metadata:{}", column.name),
                DegradeLevel::CappedCardinality,
                format!(
                    "distinct values exceed scan cap {}; cardinality estimated by sketch",
                    spec.scan_cap
                ),
            );
        }
    }
}

/// Phase-1 governor planning for one column: performs every byte-charge for
/// the column's scan and returns the [`StatsSpec`] to scan with. Always
/// runs sequentially in column order on the caller thread, against the full
/// column length (even when an append merge will skip most rows), so
/// accounting is independent of scheduling *and* of kept partials.
fn plan_column_scan(name: &str, col: &Column, governor: Option<&BudgetHandle>) -> StatsSpec {
    let mut spec = StatsSpec {
        scan_cap: UNIQUE_SCAN_CAP,
        precision: sketch::DEFAULT_PRECISION,
    };
    let Some(g) = governor else { return spec };
    if let Column::Str(c) = col {
        // Exact and already bounded: distinct values come from a bitset over
        // the dictionary, one bit per entry (charged whole words).
        g.try_charge(c.dict().len().div_ceil(64) as u64 * 8);
        return spec;
    }
    let mut est = col.len().min(spec.scan_cap) as u64 * governor::METADATA_EXACT_SLOT_BYTES;
    if col.len() > spec.scan_cap {
        // Tall enough that the exact set may spill into a sketch.
        est += governor::metadata_sketch_bytes(spec.precision);
    }
    if !g.try_charge(est) {
        spec.scan_cap = DEGRADED_SCAN_CAP;
        g.record(
            format!("metadata:{name}"),
            DegradeLevel::Sampled,
            "pass memory budget exhausted; exact distinct set shrunk",
        );
    }
    spec
}

/// Phase-2 fold for one column: its partials merged in chunk order, seeded
/// from a kept partial (the frame's own, or its append parent's). Runs as
/// one pool task per column; a column with a single partial returns it
/// untouched and opens no span.
fn fold_column(
    col: &Column,
    plan: &StatsSpec,
    seed: Option<&ColumnStats>,
    chunks: Vec<ColumnStats>,
    trace: Option<(&crate::trace::TraceCollector, crate::trace::SpanId)>,
) -> ColumnStats {
    let partials = chunks.len() + seed.is_some() as usize;
    let mut chunks = chunks.into_iter();
    if partials <= 1 {
        return seed
            .cloned()
            .or_else(|| chunks.next())
            .unwrap_or_else(|| ColumnStats::empty(col, plan));
    }
    let span = trace.map(|(c, parent)| (c, c.begin(Some(parent), "metadata.fold")));
    let mut acc = match seed {
        Some(parent) => parent.clone(),
        None => chunks.next().expect("two or more partials"),
    };
    for partial in chunks {
        acc.merge(&partial, plan);
    }
    if let Some((c, id)) = span {
        c.tag(id, "chunks", partials.to_string());
        c.tag(id, "rows", acc.rows().to_string());
        c.end(id);
    }
    acc
}

/// Names that strongly suggest a geographic attribute.
const GEO_NAMES: [&str; 12] = [
    "country",
    "countries",
    "state",
    "states",
    "city",
    "cities",
    "county",
    "region",
    "continent",
    "zipcode",
    "zip",
    "nation",
];

/// Names that suggest a temporal attribute even for non-datetime storage.
const TEMPORAL_NAMES: [&str; 6] = ["date", "year", "month", "day", "time", "timestamp"];

/// Rule-based semantic type inference from physical type + cardinality +
/// column name, following the heuristics Lux ships. Assumes `cardinality`
/// is exact; the metadata pass itself goes through [`infer_semantic_est`]
/// so sketch-estimated counts get an error-aware Id threshold.
pub fn infer_semantic(
    name: &str,
    dtype: DType,
    cardinality: usize,
    num_rows: usize,
) -> SemanticType {
    infer_semantic_est(
        name,
        dtype,
        cardinality,
        num_rows,
        false,
        sketch::DEFAULT_PRECISION,
    )
}

/// [`infer_semantic`] for possibly-estimated cardinalities: when the count
/// came from a sketch, the near-unique Id threshold is relaxed by three
/// standard errors so a genuinely unique column whose estimate landed low
/// still reads as an identifier.
fn infer_semantic_est(
    name: &str,
    dtype: DType,
    cardinality: usize,
    num_rows: usize,
    estimated: bool,
    precision: u32,
) -> SemanticType {
    let lower = name.to_ascii_lowercase();
    let name_matches = |names: &[&str]| {
        names.iter().any(|n| {
            lower == *n || lower.ends_with(&format!("_{n}")) || lower.ends_with(&format!(" {n}"))
        })
    };
    let id_floor = if estimated {
        0.99 - 3.0 * CardinalitySketch::standard_error(precision)
    } else {
        0.99
    };

    match dtype {
        DType::DateTime => SemanticType::Temporal,
        DType::Bool => SemanticType::Nominal,
        DType::Str => {
            if name_matches(&GEO_NAMES) {
                SemanticType::Geographic
            } else if (lower == "id" || lower.ends_with("_id") || lower.ends_with(" id"))
                && num_rows > 0
                && cardinality == num_rows
            {
                SemanticType::Id
            } else {
                SemanticType::Nominal
            }
        }
        DType::Int64 => {
            if name_matches(&TEMPORAL_NAMES) && lower != "day" {
                // year/month columns stored as ints read as temporal
                SemanticType::Temporal
            } else if (lower == "id" || lower.ends_with("_id") || lower.ends_with(" id"))
                && num_rows > 0
                && cardinality as f64 >= id_floor * num_rows as f64
            {
                SemanticType::Id
            } else if cardinality <= NOMINAL_INT_CARDINALITY {
                SemanticType::Nominal
            } else {
                SemanticType::Quantitative
            }
        }
        DType::Float64 => SemanticType::Quantitative,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta_of(df: &DataFrame) -> FrameMeta {
        FrameMeta::compute(df, &HashMap::new())
    }

    #[test]
    fn quantitative_float() {
        let df = DataFrameBuilder::new()
            .float("pay", [1.0, 2.0, 3.0])
            .build()
            .unwrap();
        let m = meta_of(&df);
        let c = m.column("pay").unwrap();
        assert_eq!(c.semantic, SemanticType::Quantitative);
        assert_eq!(c.cardinality, 3);
        assert!(!c.cardinality_estimated);
        assert_eq!((c.min, c.max), (Some(1.0), Some(3.0)));
    }

    #[test]
    fn low_cardinality_int_is_nominal() {
        let df = DataFrameBuilder::new()
            .int("rating", (0..100).map(|i| i % 5))
            .int("salary", 0..100)
            .build()
            .unwrap();
        let m = meta_of(&df);
        assert_eq!(m.column("rating").unwrap().semantic, SemanticType::Nominal);
        assert_eq!(
            m.column("salary").unwrap().semantic,
            SemanticType::Quantitative
        );
    }

    #[test]
    fn geographic_by_name() {
        let df = DataFrameBuilder::new()
            .str("Country", ["USA", "France"])
            .str("dept", ["a", "b"])
            .build()
            .unwrap();
        let m = meta_of(&df);
        assert_eq!(
            m.column("Country").unwrap().semantic,
            SemanticType::Geographic
        );
        assert_eq!(m.column("dept").unwrap().semantic, SemanticType::Nominal);
    }

    #[test]
    fn temporal_by_dtype_and_name() {
        let df = DataFrameBuilder::new()
            .datetime("when", ["2020-01-01", "2020-01-02"])
            .int("Year", [1999, 2000])
            .build()
            .unwrap();
        let m = meta_of(&df);
        assert_eq!(m.column("when").unwrap().semantic, SemanticType::Temporal);
        assert_eq!(m.column("Year").unwrap().semantic, SemanticType::Temporal);
    }

    #[test]
    fn id_detection() {
        let df = DataFrameBuilder::new()
            .int("user_id", 0..50)
            .int("value", (0..50).map(|i| i % 30))
            .build()
            .unwrap();
        let m = meta_of(&df);
        assert_eq!(m.column("user_id").unwrap().semantic, SemanticType::Id);
        assert_eq!(
            m.column("value").unwrap().semantic,
            SemanticType::Quantitative
        );
    }

    #[test]
    fn override_wins() {
        let df = DataFrameBuilder::new().int("code", 0..100).build().unwrap();
        let mut overrides = HashMap::new();
        overrides.insert("code".to_string(), SemanticType::Nominal);
        let m = FrameMeta::compute(&df, &overrides);
        assert_eq!(m.column("code").unwrap().semantic, SemanticType::Nominal);
    }

    #[test]
    fn unique_values_capped_but_cardinality_exact() {
        let df = DataFrameBuilder::new().int("x", 0..1000).build().unwrap();
        let m = meta_of(&df);
        let c = m.column("x").unwrap();
        assert_eq!(c.cardinality, 1000);
        assert!(!c.cardinality_estimated);
        assert_eq!(c.unique_values.len(), UNIQUE_VALUES_CAP);
        assert!(!c.unique_complete);
    }

    #[test]
    fn negative_zero_counts_as_one_distinct_value() {
        let df = DataFrameBuilder::new()
            .float("x", [0.0, -0.0, 1.0])
            .build()
            .expect("build");
        assert_eq!(meta_of(&df).column("x").expect("col").cardinality, 2);
    }

    #[test]
    fn near_unique_scan_caps_but_extrapolates_cardinality() {
        let n = UNIQUE_SCAN_CAP as i64 * 2;
        let df = DataFrameBuilder::new()
            .int("user_id", 0..n)
            .build()
            .expect("build");
        let c = meta_of(&df);
        let c = c.column("user_id").expect("col");
        assert!(!c.unique_complete);
        assert!(c.cardinality_estimated);
        assert!(
            c.cardinality as i64 > n * 9 / 10,
            "estimated cardinality {} too far from true {}",
            c.cardinality,
            n
        );
        // Id detection still fires on the estimated near-unique cardinality.
        assert_eq!(c.semantic, SemanticType::Id);
    }

    #[test]
    fn governed_scan_degrades_and_records_events() {
        use crate::governor::{BudgetHandle, ResourceBudget};
        let df = DataFrameBuilder::new()
            .int("x", 0..10_000)
            .build()
            .expect("build");
        let h = BudgetHandle::new(ResourceBudget {
            max_bytes: 1,
            ..ResourceBudget::default()
        });
        let m = of_frame(&df, &HashMap::new(), false, None, Some(&h), 1);
        assert!(h.breached());
        assert!(h.event_count() >= 1, "no governor events recorded");
        // the degraded scan still produces usable metadata
        let c = m.column("x").expect("col");
        assert!(c.cardinality > 0);
        assert!(c.cardinality_estimated);
        assert_eq!(c.semantic, SemanticType::Quantitative);
    }

    #[test]
    fn parallel_metadata_matches_sequential() {
        use crate::governor::{BudgetHandle, ResourceBudget};
        let df = DataFrameBuilder::new()
            .int("id", 0..5_000)
            .float("pay", (0..5_000).map(|i| (i % 97) as f64))
            .str("dept", (0..5_000).map(|i| ["a", "b", "c"][i % 3]))
            .int("rating", (0..5_000).map(|i| i % 5))
            .datetime(
                "when",
                (0..5_000).map(|i| {
                    if i % 2 == 0 {
                        "2020-01-01"
                    } else {
                        "2021-06-15"
                    }
                }),
            )
            .build()
            .expect("fixture frame");
        let budget = ResourceBudget {
            max_bytes: 300_000, // tight enough that later columns degrade
            ..ResourceBudget::default()
        };
        let h1 = BudgetHandle::new(budget.clone());
        let h8 = BudgetHandle::new(budget);
        let seq = of_frame(&df, &HashMap::new(), false, None, Some(&h1), 1);
        let par = of_frame(&df, &HashMap::new(), false, None, Some(&h8), 8);
        assert_eq!(seq.columns.len(), par.columns.len());
        for (a, b) in seq.columns.iter().zip(par.columns.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.semantic, b.semantic, "{}", a.name);
            assert_eq!(a.cardinality, b.cardinality, "{}", a.name);
            assert_eq!(a.unique_values, b.unique_values, "{}", a.name);
            assert_eq!((a.min, a.max, a.null_count), (b.min, b.max, b.null_count));
        }
        assert_eq!(h1.charged(), h8.charged(), "governor accounting must match");
        let ev1: Vec<String> = h1.events().iter().map(|e| e.to_string()).collect();
        let ev8: Vec<String> = h8.events().iter().map(|e| e.to_string()).collect();
        assert_eq!(ev1, ev8, "governor events must match in order");
    }

    #[test]
    fn string_uniques_after_filter_are_exact() {
        let df = DataFrameBuilder::new()
            .str("s", ["a", "b", "c", "c"])
            .build()
            .unwrap();
        let f = df.filter("s", FilterOp::Ne, &Value::str("a")).unwrap();
        let m = meta_of(&f);
        let c = m.column("s").unwrap();
        assert_eq!(c.cardinality, 2); // "a" is gone even though still interned
    }

    #[test]
    fn null_count_and_semantic_parse() {
        let col = Column::Float64(PrimitiveColumn::from_options(vec![Some(1.0), None]));
        let df = DataFrame::from_columns(vec![("x".into(), col)]).unwrap();
        let m = meta_of(&df);
        assert_eq!(m.column("x").unwrap().null_count, 1);
        assert_eq!(
            SemanticType::parse("QUANTITATIVE"),
            Some(SemanticType::Quantitative)
        );
        assert_eq!(SemanticType::parse("geo"), Some(SemanticType::Geographic));
        assert_eq!(SemanticType::parse("whatever"), None);
    }

    #[test]
    fn columns_of_filters_by_type() {
        let df = DataFrameBuilder::new()
            .float("a", [1.0])
            .float("b", [2.0])
            .str("c", ["x"])
            .build()
            .unwrap();
        let m = meta_of(&df);
        assert_eq!(m.columns_of(SemanticType::Quantitative), vec!["a", "b"]);
        assert_eq!(m.columns_of(SemanticType::Nominal), vec!["c"]);
    }

    #[test]
    fn bool_is_nominal() {
        let df = DataFrameBuilder::new()
            .bool("flag", [true, false, true])
            .build()
            .unwrap();
        let m = meta_of(&df);
        assert_eq!(m.column("flag").unwrap().semantic, SemanticType::Nominal);
        assert_eq!(m.column("flag").unwrap().cardinality, 2);
    }

    #[test]
    fn append_merge_equals_full_recompute() {
        let base = DataFrameBuilder::new()
            .int("id", 0..3_000)
            .float("pay", (0..3_000).map(|i| (i % 211) as f64))
            .str("dept", (0..3_000).map(|i| ["a", "b", "c"][i % 3]))
            .build()
            .expect("base");
        let tail = DataFrameBuilder::new()
            .int("id", 3_000..4_000)
            .float("pay", (0..1_000).map(|i| (i % 7) as f64 * -1.5))
            .str("dept", (0..1_000).map(|i| ["c", "d"][i % 2]))
            .build()
            .expect("tail");
        // Keep the parent's partials on it...
        let _ = meta_of(&base);
        let appended = base.concat(&tail).expect("concat");
        assert!(appended.append_lineage().is_some());
        let merged = meta_of(&appended);
        // ...and compare against a from-scratch pass on an identical frame
        // with the lineage (and therefore the append path) stripped.
        let all: Vec<&str> = appended.column_names().iter().map(|s| s.as_str()).collect();
        let fresh = appended.select(&all).expect("select");
        assert!(fresh.append_lineage().is_none());
        let full = meta_of(&fresh);
        assert_eq!(merged.num_rows, full.num_rows);
        for (a, b) in merged.columns.iter().zip(full.columns.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.semantic, b.semantic, "{}", a.name);
            assert_eq!(a.cardinality, b.cardinality, "{}", a.name);
            assert_eq!(a.cardinality_estimated, b.cardinality_estimated);
            assert_eq!(a.unique_values, b.unique_values, "{}", a.name);
            assert_eq!((a.min, a.max, a.null_count), (b.min, b.max, b.null_count));
        }
        let dept = merged.column("dept").expect("dept");
        assert_eq!(dept.cardinality, 4); // "d" arrived with the tail
    }
}
