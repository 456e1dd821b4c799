//! [`LuxDataFrame`]: the always-on wrapper (paper §7).
//!
//! `LuxDataFrame` wraps a [`DataFrame`] and mirrors its operations while
//! storing the extra state Lux needs — intent, semantic-type overrides, the
//! action registry, and the recommendations memo. The WFLOW optimization
//! (§8.2) is implemented here:
//!
//! - **lazy**: metadata and recommendations are computed only at
//!   [`LuxDataFrame::print`] time;
//! - **expiry**: every data-changing operation derives a *new* frame, whose
//!   state and wrapper start empty, so stale results can never be shown;
//! - **memoization**: repeated prints of an unmodified frame reuse its
//!   metadata and PRUNE sample, which live on the frame's own state (every
//!   wrapper over a clone of it shares them), and this wrapper's
//!   recommendations.
//!
//! When `config.wflow` is off (the paper's `no-opt` baseline), every wrapped
//! operation eagerly recomputes metadata and recommendations, reproducing a
//! naive always-on implementation.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use lux_dataframe::prelude::*;
use lux_engine::sync::lock_recover;
use lux_engine::trace::{names as metric, MetricsRegistry, MetricsSnapshot};
use lux_engine::{
    failpoint, Admission, AdmissionController, AdmissionPermit, AdmitRequest, FlightRecorder,
    FrameMeta, LuxConfig, PassSummary, PassTrace, Priority, SemanticType, ShedReason,
};
use lux_intent::{Clause, Diagnostic};
use lux_recs::{ActionHealth, ActionRegistry, ActionResult, Pass, PassCtx, TraceCtx};
use lux_vis::Vis;

use crate::logging::{EventKind, SessionLogger};
use crate::widget::Widget;

type PassOutput = (Arc<Vec<ActionResult>>, Arc<Vec<ActionHealth>>);

// Metadata reads on this thread (each a scan under no-opt), for unit tests.
#[cfg(test)]
thread_local!(static META_READS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) });

/// Caller-supplied options for one print pass, used by the serving layer to
/// propagate per-request context into the engine. `deadline` is end-to-end:
/// it bounds the admission wait, and whatever is left after queueing caps the
/// per-action compute budget. `tenant` charges the pass against that
/// tenant's admission quota.
#[derive(Debug, Clone, Default)]
pub struct PrintOptions {
    /// End-to-end deadline for the pass (admission wait + compute).
    pub deadline: Option<std::time::Duration>,
    /// Tenant label for per-tenant admission quotas and SLO metrics.
    pub tenant: Option<String>,
    /// Wire-propagated request id (client-supplied or server-minted). Tagged
    /// onto the root span as `request.id` so the trace, the pass-summary
    /// JSONL event, and any flight-recorder dump are attributable end to end.
    pub request_id: Option<String>,
}

impl PrintOptions {
    /// Builder-style deadline setter.
    pub fn with_deadline(mut self, deadline: Option<std::time::Duration>) -> PrintOptions {
        self.deadline = deadline;
        self
    }

    /// Builder-style tenant setter.
    pub fn with_tenant(mut self, tenant: Option<String>) -> PrintOptions {
        self.tenant = tenant;
        self
    }

    /// Builder-style request-id setter.
    pub fn with_request_id(mut self, request_id: Option<String>) -> PrintOptions {
        self.request_id = request_id;
        self
    }
}

/// A pandas-style dataframe with always-on visualization recommendations.
pub struct LuxDataFrame {
    df: Arc<DataFrame>,
    intent: Vec<Clause>,
    config: Arc<LuxConfig>,
    registry: Arc<ActionRegistry>,
    overrides: HashMap<String, SemanticType>,
    /// The last pass's WFLOW memo: results and health (intent-dependent).
    recommendations: Mutex<Option<PassOutput>>,
    exported: Mutex<Vec<Vis>>,
    logger: Option<Arc<SessionLogger>>,
    /// Span tree of the most recent print pass on this frame.
    last_trace: Mutex<Option<Arc<PassTrace>>>,
}

impl LuxDataFrame {
    /// Wrap an existing frame with the default config and actions.
    pub fn new(df: DataFrame) -> LuxDataFrame {
        Self::with_config(df, Arc::new(LuxConfig::default()))
    }

    /// Wrap with an explicit config (used by the benchmark conditions).
    pub fn with_config(df: DataFrame, config: Arc<LuxConfig>) -> LuxDataFrame {
        Self::assemble(
            df,
            Vec::new(),
            config,
            Arc::new(ActionRegistry::with_defaults()),
            HashMap::new(),
        )
    }

    /// Read a CSV file into a wrapped frame.
    pub fn read_csv(path: &std::path::Path) -> Result<LuxDataFrame> {
        ingest_gate()?;
        Ok(Self::new(lux_dataframe::csv::read_csv_path(path)?))
    }

    /// Parse CSV text into a wrapped frame.
    pub fn read_csv_str(text: &str) -> Result<LuxDataFrame> {
        ingest_gate()?;
        Ok(Self::new(lux_dataframe::csv::read_csv_str(text)?))
    }

    /// Read a CSV file leniently: malformed records are repaired (padded,
    /// truncated, or quote-closed) instead of failing the whole load, and
    /// every repair is listed in the returned
    /// [`ParseReport`](lux_dataframe::csv::ParseReport).
    pub fn read_csv_permissive(
        path: &std::path::Path,
    ) -> Result<(LuxDataFrame, lux_dataframe::csv::ParseReport)> {
        ingest_gate()?;
        let (df, report) = lux_dataframe::csv::read_csv_path_permissive(path)?;
        Ok((Self::new(df), report))
    }

    /// Parse CSV text leniently; see [`LuxDataFrame::read_csv_permissive`].
    pub fn read_csv_str_permissive(
        text: &str,
    ) -> Result<(LuxDataFrame, lux_dataframe::csv::ParseReport)> {
        ingest_gate()?;
        let (df, report) = lux_dataframe::csv::read_csv_str_permissive(text)?;
        Ok((Self::new(df), report))
    }

    pub(crate) fn assemble(
        df: DataFrame,
        intent: Vec<Clause>,
        config: Arc<LuxConfig>,
        registry: Arc<ActionRegistry>,
        overrides: HashMap<String, SemanticType>,
    ) -> LuxDataFrame {
        let ldf = LuxDataFrame {
            df: Arc::new(df),
            intent,
            config,
            registry,
            overrides,
            recommendations: Mutex::default(),
            exported: Mutex::new(Vec::new()),
            logger: None,
            last_trace: Mutex::new(None),
        };
        if !ldf.config.wflow {
            // no-opt baseline: recompute everything eagerly on every
            // operation that produces a frame.
            let _ = ldf.recommendations();
        }
        ldf
    }

    /// Derive a wrapper around a transformed frame: intent, config, registry,
    /// overrides and logger propagate; the memos start empty (the frame's
    /// state is new). The derived operation is logged.
    fn wrap(&self, df: DataFrame) -> LuxDataFrame {
        let mut derived = Self::assemble(
            df,
            self.intent.clone(),
            Arc::clone(&self.config),
            Arc::clone(&self.registry),
            self.overrides.clone(),
        );
        derived.logger = self.logger.clone();
        if let (Some(log), Some(event)) = (&self.logger, derived.df.history().last()) {
            log.log(EventKind::Operation, event.detail.clone(), None);
        }
        derived
    }

    /// Attach a usage logger (the paper's lux-logger analogue); propagated
    /// to every frame derived from this one.
    pub fn attach_logger(&mut self, logger: Arc<SessionLogger>) {
        self.logger = Some(logger);
    }

    // ------------------------------------------------------------------
    // State accessors
    // ------------------------------------------------------------------

    /// The wrapped dataframe.
    pub fn data(&self) -> &DataFrame {
        &self.df
    }

    pub fn num_rows(&self) -> usize {
        self.df.num_rows()
    }

    pub fn num_columns(&self) -> usize {
        self.df.num_columns()
    }

    pub fn column_names(&self) -> &[String] {
        self.df.column_names()
    }

    /// The underlying frame's identity fingerprint (shared by clones, and
    /// by them only).
    pub fn fingerprint(&self) -> u64 {
        self.df.fingerprint()
    }

    /// The active config.
    pub fn config(&self) -> &LuxConfig {
        &self.config
    }

    /// The current intent.
    pub fn intent(&self) -> &[Clause] {
        &self.intent
    }

    /// Set the intent from parsed clauses. Expires cached recommendations
    /// but not metadata (the data did not change).
    pub fn set_intent(&mut self, intent: Vec<Clause>) {
        if let Some(log) = &self.logger {
            log.log(
                EventKind::IntentChanged,
                format!("{} clause(s)", intent.len()),
                None,
            );
        }
        self.intent = intent;
        self.expire_recommendations();
    }

    /// Set the intent from strings (`df.intent = ["Age", "Dept=Sales"]`).
    pub fn set_intent_strs<S: AsRef<str>, I: IntoIterator<Item = S>>(
        &mut self,
        intent: I,
    ) -> Result<()> {
        self.set_intent(lux_intent::parse_intent(intent)?);
        Ok(())
    }

    /// Clear the intent.
    pub fn clear_intent(&mut self) {
        self.set_intent(Vec::new());
    }

    /// Override the inferred semantic type of a column (§8.1). Expires
    /// recommendations; metadata is memoized per override set.
    pub fn set_data_type(&mut self, column: &str, semantic: SemanticType) -> Result<()> {
        if !self.df.has_column(column) {
            return Err(Error::ColumnNotFound(column.to_string()));
        }
        self.overrides.insert(column.to_string(), semantic);
        self.expire_recommendations();
        Ok(())
    }

    /// Register a custom action (paper §7.2). Expires recommendations.
    pub fn register_action<A: lux_recs::Action + 'static>(&mut self, action: A) {
        let mut registry = ActionRegistry::new();
        for a in self.registry.actions() {
            registry.register_arc(Arc::clone(a));
        }
        registry.register(action);
        self.registry = Arc::new(registry);
        self.expire_recommendations();
    }

    /// Remove an action by name. Expires recommendations.
    pub fn remove_action(&mut self, name: &str) -> bool {
        let mut registry = ActionRegistry::new();
        for a in self.registry.actions() {
            registry.register_arc(Arc::clone(a));
        }
        let removed = registry.remove(name);
        self.registry = Arc::new(registry);
        if removed {
            self.expire_recommendations();
        }
        removed
    }

    // ------------------------------------------------------------------
    // Metadata & recommendations (the WFLOW-managed state)
    // ------------------------------------------------------------------

    /// The frame's metadata, memoized on the frame for this wrapper's
    /// overrides (when `wflow` is on) under the scan plan of this wrapper's
    /// own budget, the plan its prints make: a print, `validate_intent` and
    /// this read share one entry, and a frame last scanned under another
    /// budget's plan rescans. Every access counts as a memo query
    /// (`lux.wflow.meta_memo_*`).
    pub fn metadata(&self) -> Arc<FrameMeta> {
        self.metadata_in(&PassCtx::detached("metadata", self.config.budget.clone()))
    }

    /// [`LuxDataFrame::metadata`] in a pass's context: per-column spans and
    /// the memo hit/miss tag go under a `metadata` span of `ctx.trace`, and
    /// the scan plan charges `ctx.governor`, on a memo hit as on a miss.
    fn metadata_in(&self, ctx: &PassCtx) -> Arc<FrameMeta> {
        #[cfg(test)]
        META_READS.with(|n| n.set(n.get() + 1));
        let span = ctx.trace.child("metadata");
        let meta = lux_engine::metadata::of_frame(
            &self.df,
            &self.overrides,
            self.config.wflow,
            Some((span.collector.as_ref(), span.span)),
            Some(ctx.governor.as_ref()),
            self.config.effective_threads(),
        );
        span.end();
        meta
    }

    /// True when memoized recommendations are available.
    pub fn is_fresh(&self) -> bool {
        lock_recover(&self.recommendations).is_some()
    }

    fn expire_recommendations(&self) {
        *lock_recover(&self.recommendations) = None;
    }

    /// Validate the current intent against the frame.
    pub fn validate_intent(&self) -> Vec<Diagnostic> {
        lux_intent::validate(&self.intent, &self.metadata())
    }

    /// Open a pass over this frame in `ctx`: the one place the frame's
    /// state meets [`Pass::open`].
    fn open_pass(&self, ctx: &PassCtx, meta: Arc<FrameMeta>) -> Pass {
        Pass::open(
            Arc::clone(&self.df),
            meta,
            &self.intent,
            Arc::clone(&self.config),
            ctx.clone(),
        )
    }

    /// One blocking pass in `ctx` — its recommendations and their health
    /// ledger — through the WFLOW memo. `meta` is what the pass reads, asked
    /// for only on a memo miss.
    fn pass_in(&self, ctx: &PassCtx, meta: impl FnOnce() -> Arc<FrameMeta>) -> PassOutput {
        let metrics = MetricsRegistry::global();
        // Only a WFLOW pass fills the memo; it is released while computing.
        if let Some(memoized) = &*lock_recover(&self.recommendations) {
            metrics.incr(metric::MEMO_HIT);
            ctx.trace.tag("memo", "hit");
            return memoized.clone();
        }
        metrics.incr(metric::MEMO_MISS);
        ctx.trace
            .tag("memo", if self.config.wflow { "miss" } else { "off" });
        // The caller blocks on collect_report, holding the pass's admission
        // slot itself when there is one, so the pass carries none.
        let pass = self.open_pass(ctx, meta());
        let report = lux_recs::run_pass(&self.registry, pass).collect_report();
        if let Some(log) = &self.logger {
            for h in report.problems() {
                log.log(EventKind::ActionFault, h.to_string(), None);
            }
        }
        let (recs, health) = (Arc::new(report.results), Arc::new(report.health));
        if self.config.wflow {
            // A pass under a client deadline that degraded must not poison
            // the memo: the next print with a full budget would otherwise
            // replay the partial results forever. Clean passes cache as usual.
            if ctx.deadline.is_none() || health.iter().all(|h| h.status.is_ok()) {
                *lock_recover(&self.recommendations) =
                    Some((Arc::clone(&recs), Arc::clone(&health)));
            } else {
                ctx.trace.tag("memo", "skip-degraded");
            }
        }
        (recs, health)
    }

    /// The blocking pass outside a print: what [`LuxDataFrame::print_with`]
    /// opens minus admission (a detached trace, a fresh budget), so results
    /// memoized here carry the governor marks a print would give them.
    fn detached_pass(&self) -> PassOutput {
        let ctx = PassCtx::detached("recommendations", self.config.budget.clone());
        self.pass_in(&ctx, || self.metadata_in(&ctx))
    }

    /// The ranked recommendations, computed lazily and memoized under WFLOW.
    pub fn recommendations(&self) -> Arc<Vec<ActionResult>> {
        self.detached_pass().0
    }

    /// Per-action health of the most recent recommendation pass (computing
    /// one if needed): which actions served exact results, which degraded to
    /// partial ones, which failed and why, and which the circuit breaker has
    /// disabled. Memoized alongside the recommendations under WFLOW.
    pub fn action_health(&self) -> Arc<Vec<ActionHealth>> {
        self.detached_pass().1
    }

    /// Begin a streaming recommendation run: dispatches every applicable
    /// action onto background workers and returns immediately — the ASYNC
    /// experience of §8.2, where "recommendation results can be streamed
    /// into the frontend widget as the computation for each action
    /// completes". Each worker sends its result the moment it has one; on a
    /// frame of at least [`lux_recs::ORDERED_ROWS`] rows the cheapest
    /// planned action runs alone first, so its result is the first to
    /// arrive. Bypasses the WFLOW memo (results go to the caller, not the
    /// cache).
    ///
    /// The run is admitted and budgeted like a print, its metadata scan
    /// included, at background priority: it waits once behind every
    /// interactive print, and a shed run carries one failed health entry
    /// naming the reason.
    pub fn recommendations_streaming(&self) -> lux_recs::StreamingRun {
        let request = AdmitRequest::new(Priority::Background);
        let (ctx, permit) = match self.admit_pass("recommendations.streaming", request) {
            Ok(admitted) => admitted,
            Err(shed) => {
                if let Some(log) = &self.logger {
                    let note = format!("shed: {}", shed.reason);
                    log.log(EventKind::ActionFault, note, None);
                }
                return lux_recs::StreamingRun::shed(&shed.reason);
            }
        };
        let meta = self.metadata_in(&ctx);
        // The run's collector holds the slot until every action has settled.
        let mut pass = self.open_pass(&ctx, meta);
        pass.permit = Some(Arc::new(permit));
        lux_recs::run_pass(&self.registry, pass)
    }

    /// The one door into the engine for a pass (DESIGN.md §10). A granted
    /// pass gets one budget that every allocation-heavy step charges
    /// (DESIGN.md §8), shaped by the pressure it was granted under and
    /// mirrored into the process-wide ledger. What queueing left of the
    /// request's deadline caps every action's time budget.
    fn admit_pass(
        &self,
        name: &str,
        request: AdmitRequest,
    ) -> std::result::Result<(PassCtx, AdmissionPermit), ShedReason> {
        let deadline = request.deadline;
        let permit = match AdmissionController::global().admit_request(request) {
            Admission::Granted(p) => p,
            Admission::Shed(shed) => return Err(shed),
        };
        let ctx = PassCtx {
            deadline: deadline.map(|d| d.saturating_sub(permit.waited())),
            ..PassCtx::admitted(name, &permit, &self.config.budget)
        };
        let root = &ctx.trace;
        root.tag("admission.wait_ms", permit.waited().as_millis().to_string());
        root.tag("admission.pressure", permit.pressure().name());
        if let Some(rem) = ctx.deadline {
            root.tag("deadline.remaining_ms", rem.as_millis().to_string());
        }
        if let Some(tenant) = permit.tenant() {
            root.tag("admission.tenant", tenant.to_string());
        }
        Ok((ctx, permit))
    }

    /// The full span tree of the most recent [`LuxDataFrame::print`] on this
    /// frame, or `None` before the first print. Export with
    /// [`PassTrace::to_chrome_json`] or inspect with
    /// [`PassTrace::render_text`].
    pub fn last_trace(&self) -> Option<Arc<PassTrace>> {
        lock_recover(&self.last_trace).clone()
    }

    /// Point-in-time snapshot of the process-wide engine metrics: prints,
    /// WFLOW memo hit rates, PRUNE activation, action latency percentiles,
    /// and circuit-breaker trips (see `lux_engine::trace::names`).
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsRegistry::global().snapshot()
    }

    /// "Print" the dataframe: the always-on entry point. Returns the widget
    /// holding the table view, the recommendation tabs, and any intent
    /// diagnostics. Never fails — internal errors degrade to the plain
    /// table (§10.3 fail-safe behavior).
    ///
    /// Every print records a full [`PassTrace`] (kept on the frame, see
    /// [`LuxDataFrame::last_trace`]) and updates the process-wide metrics.
    pub fn print(&self) -> Widget {
        self.print_with(&PrintOptions::default())
    }

    /// [`LuxDataFrame::print`] with caller-supplied admission options: an
    /// end-to-end deadline (covering both the admission wait and the compute
    /// pass — the serving layer propagates each client's deadline here) and
    /// a tenant label charged against the per-tenant admission quota.
    pub fn print_with(&self, opts: &PrintOptions) -> Widget {
        let start = lux_engine::clock::now();
        // Under overload the pass is shed to a well-formed "engine busy"
        // widget instead of piling more work onto a saturated process.
        // Interactive priority: prints jump the queue ahead of streaming runs.
        let request = AdmitRequest::new(Priority::Interactive)
            .with_deadline(opts.deadline)
            .with_tenant(opts.tenant.clone());
        let (ctx, permit) = match self.admit_pass("print", request) {
            Ok(admitted) => admitted,
            Err(shed) => return self.print_shed(start, shed, opts),
        };
        let (root, governor) = (&ctx.trace, &ctx.governor);
        self.tag_request_context(root, opts);
        let table = root.time("table", || self.df.to_table_string(10));
        // Metadata first (and traced), once: the validate/compile/action
        // stages below all read this one computation, WFLOW or not.
        let meta = self.metadata_in(&ctx);
        let diagnostics = root.time("intent.validate", || {
            lux_intent::validate(&self.intent, &meta)
        });
        let actions = ctx.child("actions");
        let (results, health) = self.pass_in(&actions, || meta);
        actions.trace.end();
        root.tag("governor.degrades", governor.event_count().to_string());
        root.tag("governor.breached", governor.breached().to_string());
        if let Some(note) = governor.summary() {
            root.tag("governor.summary", note);
        }
        root.end();
        Widget::new(
            table,
            results,
            health,
            diagnostics,
            self.df.num_rows(),
            self.df.num_columns(),
            self.finish_print(root, opts, start, Some(permit.waited())),
        )
    }

    /// Tag wire-propagated request context (`request.id` / `request.tenant`)
    /// onto a pass's root span so traces, pass summaries, and flight dumps
    /// stay attributable across the process boundary.
    fn tag_request_context(&self, root: &TraceCtx, opts: &PrintOptions) {
        if let Some(id) = &opts.request_id {
            root.tag("request.id", id.clone());
        }
        if let Some(tenant) = &opts.tenant {
            root.tag("request.tenant", tenant.clone());
        }
    }

    /// The one place a finished print is observed, served or shed
    /// (`permit_wait` is `None` for a shed pass): a served pass that
    /// outlived its client deadline is tagged `deadline.missed`, the trace
    /// is frozen and summarized once, and that one [`PassSummary`] feeds
    /// every sink — the print counters, the tenant SLO series, the
    /// `Print` / `PassSummary` log events (sheds too, so the JSONL log
    /// attributes every request), the flight recorder, and the widget the
    /// caller builds. The trace stays on the frame.
    fn finish_print(
        &self,
        root: &TraceCtx,
        opts: &PrintOptions,
        start: std::time::Instant,
        permit_wait: Option<std::time::Duration>,
    ) -> (Arc<PassTrace>, PassSummary) {
        let elapsed = lux_engine::clock::elapsed(start);
        let metrics = MetricsRegistry::global();
        // The pass finished, but after the client's end-to-end budget — the
        // client has likely timed out on its side.
        if permit_wait.is_some() && opts.deadline.is_some_and(|d| elapsed > d) {
            root.tag("deadline.missed", "true");
            metrics.incr(metric::DEADLINE_MISSES);
        }
        let trace = Arc::new(root.collector.snapshot());
        let summary = PassSummary::from_trace(&trace);
        metrics.incr(metric::PRINTS);
        metrics.observe(metric::PRINT_LATENCY, elapsed);
        if let Some(tenant) = &summary.tenant {
            record_slo(
                metrics,
                tenant,
                elapsed,
                permit_wait,
                summary.deadline_missed,
            );
        }
        if let Some(log) = &self.logger {
            let mut detail = format!("print {}x{}", self.df.num_rows(), self.df.num_columns());
            if let Some(reason) = &summary.admission_shed {
                detail.push_str(&format!(" shed: {reason}"));
            }
            let elapsed = Some(elapsed.as_secs_f64());
            log.log(EventKind::Print, detail, elapsed);
            log.log(EventKind::PassSummary, summary.to_compact_json(), elapsed);
        }
        FlightRecorder::global().record(Arc::clone(&trace), &summary);
        *lock_recover(&self.last_trace) = Some(Arc::clone(&trace));
        (trace, summary)
    }

    /// The load-shedding tail of [`LuxDataFrame::print`]: admission refused
    /// the pass, so degrade to the plain table plus a busy note — still a
    /// complete, well-formed widget with a trace and metrics, never a panic
    /// or a hang (§10.3 fail-safe behavior under overload).
    fn print_shed(
        &self,
        start: std::time::Instant,
        shed: ShedReason,
        opts: &PrintOptions,
    ) -> Widget {
        let root = TraceCtx::root("print");
        self.tag_request_context(&root, opts);
        let table = root.time("table", || self.df.to_table_string(10));
        // Admission refused this pass, so it must not scan the frame: the
        // intent is validated only against metadata an earlier pass
        // memoized, and an empty intent has nothing to validate.
        let diagnostics = match lux_engine::metadata::memoized(&self.df, &self.overrides) {
            Some(meta) if self.config.wflow && !self.intent.is_empty() => root
                .time("intent.validate", || {
                    lux_intent::validate(&self.intent, &meta)
                }),
            _ => Vec::new(),
        };
        root.tag("admission.shed", shed.reason);
        root.tag("admission.priority", shed.priority.name());
        root.end();
        Widget::new(
            table,
            Arc::default(),
            Arc::default(),
            diagnostics,
            self.df.num_rows(),
            self.df.num_columns(),
            self.finish_print(&root, opts, start, None),
        )
    }

    /// One-shot dataset profile: the metadata overview actions plus a
    /// per-column summary, independent of any intent (the pandas-profiling
    /// / sweetviz-style report the related-work tools produce on demand —
    /// here it is just a convenience over the always-on machinery).
    pub fn profile(&self) -> String {
        let meta = self.metadata();
        let mut out = String::new();
        out.push_str(&format!(
            "# Profile: {} rows x {} columns\n\n",
            self.num_rows(),
            self.num_columns()
        ));
        out.push_str(
            "column                 type         semantic      cardinality  nulls  min..max\n",
        );
        for cm in &meta.columns {
            let range = match (cm.min, cm.max) {
                (Some(lo), Some(hi)) => format!("{lo:.4}..{hi:.4}"),
                _ => "-".to_string(),
            };
            // `~` marks a sketch-estimated cardinality (distinct count
            // exceeded the exact scan cap).
            let cardinality = if cm.cardinality_estimated {
                format!("~{}", cm.cardinality)
            } else {
                cm.cardinality.to_string()
            };
            out.push_str(&format!(
                "{:<22} {:<12} {:<13} {:>11}  {:>5}  {}\n",
                cm.name,
                cm.dtype.name(),
                cm.semantic.name(),
                cardinality,
                cm.null_count,
                range
            ));
        }
        out.push('\n');
        out.push_str(&self.print().render_lux_view(1));
        out
    }

    // ------------------------------------------------------------------
    // Export (paper §3: widget -> Vis -> code)
    // ------------------------------------------------------------------

    /// Export a visualization from the printed widget, by action name and
    /// rank. Accessible afterwards via [`LuxDataFrame::exported`].
    pub fn export(&self, action: &str, rank: usize) -> Result<Vis> {
        let recs = self.recommendations();
        let result = recs
            .iter()
            .find(|r| r.action.eq_ignore_ascii_case(action))
            .ok_or_else(|| Error::InvalidArgument(format!("no action named {action:?}")))?;
        let vis = result
            .vislist
            .visualizations
            .get(rank)
            .ok_or_else(|| {
                Error::InvalidArgument(format!(
                    "action {action:?} has {} visualizations, rank {rank} out of range",
                    result.vislist.len()
                ))
            })?
            .clone();
        lock_recover(&self.exported).push(vis.clone());
        if let Some(log) = &self.logger {
            log.log(EventKind::Export, vis.spec.describe(), None);
        }
        Ok(vis)
    }

    /// Visualizations exported so far.
    pub fn exported(&self) -> Vec<Vis> {
        lock_recover(&self.exported).clone()
    }

    // ------------------------------------------------------------------
    // Wrapped dataframe operations (instrumented; cache expires via wrap)
    // ------------------------------------------------------------------

    pub fn filter(&self, column: &str, op: FilterOp, value: &Value) -> Result<LuxDataFrame> {
        Ok(self.wrap(self.df.filter(column, op, value)?))
    }

    pub fn head(&self, n: usize) -> LuxDataFrame {
        self.wrap(self.df.head(n))
    }

    pub fn tail(&self, n: usize) -> LuxDataFrame {
        self.wrap(self.df.tail(n))
    }

    pub fn sample(&self, n: usize, seed: u64) -> LuxDataFrame {
        self.wrap(self.df.sample(n, seed))
    }

    pub fn select(&self, names: &[&str]) -> Result<LuxDataFrame> {
        Ok(self.wrap(self.df.select(names)?))
    }

    pub fn drop_columns(&self, names: &[&str]) -> Result<LuxDataFrame> {
        Ok(self.wrap(self.df.drop_columns(names)?))
    }

    pub fn sort_by(&self, columns: &[&str], ascending: bool) -> Result<LuxDataFrame> {
        Ok(self.wrap(self.df.sort_by(columns, ascending)?))
    }

    pub fn with_column(&self, name: &str, column: Column) -> Result<LuxDataFrame> {
        Ok(self.wrap(self.df.with_column(name, column)?))
    }

    pub fn with_column_from<F>(&self, name: &str, source: &str, f: F) -> Result<LuxDataFrame>
    where
        F: Fn(&Value) -> Value,
    {
        Ok(self.wrap(self.df.with_column_from(name, source, f)?))
    }

    pub fn rename(&self, mapping: &[(&str, &str)]) -> Result<LuxDataFrame> {
        Ok(self.wrap(self.df.rename(mapping)?))
    }

    pub fn dropna(&self) -> LuxDataFrame {
        self.wrap(self.df.dropna())
    }

    pub fn fillna(&self, column: &str, value: &Value) -> Result<LuxDataFrame> {
        Ok(self.wrap(self.df.fillna(column, value)?))
    }

    pub fn cut(&self, column: &str, labels: &[&str], out: &str) -> Result<LuxDataFrame> {
        Ok(self.wrap(self.df.cut(column, labels, out)?))
    }

    pub fn groupby_agg(&self, keys: &[&str], specs: &[(&str, Agg)]) -> Result<LuxDataFrame> {
        Ok(self.wrap(self.df.groupby(keys)?.agg(specs)?))
    }

    pub fn groupby_count(&self, keys: &[&str]) -> Result<LuxDataFrame> {
        Ok(self.wrap(self.df.groupby(keys)?.count()?))
    }

    pub fn pivot(
        &self,
        index: &str,
        columns: &str,
        values: &str,
        agg: Agg,
    ) -> Result<LuxDataFrame> {
        Ok(self.wrap(self.df.pivot(index, columns, values, agg)?))
    }

    pub fn crosstab(&self, rows: &str, columns: &str) -> Result<LuxDataFrame> {
        Ok(self.wrap(self.df.crosstab(rows, columns)?))
    }

    pub fn join(
        &self,
        other: &LuxDataFrame,
        left_on: &str,
        right_on: &str,
        kind: JoinKind,
    ) -> Result<LuxDataFrame> {
        Ok(self.wrap(self.df.join(&other.df, left_on, right_on, kind)?))
    }

    pub fn concat(&self, other: &LuxDataFrame) -> Result<LuxDataFrame> {
        Ok(self.wrap(self.df.concat(&other.df)?))
    }

    pub fn describe(&self) -> Result<LuxDataFrame> {
        Ok(self.wrap(self.df.describe()?))
    }

    pub fn value_counts(&self, column: &str) -> Result<LuxDataFrame> {
        Ok(self.wrap(self.df.value_counts(column)?))
    }

    /// Extract a column as a wrapped series.
    pub fn series(&self, column: &str) -> Result<crate::luxseries::LuxSeries> {
        Ok(crate::luxseries::LuxSeries::from_parts(
            self.df.series(column)?,
            Arc::clone(&self.config),
            Arc::clone(&self.registry),
        ))
    }
}

/// The tenant SLO series of one finished print, served or shed
/// (`permit_wait` is `None` for a shed pass): a shed counts a shed; a
/// served pass observes its latency since the admission request and its
/// permit wait.
fn record_slo(
    metrics: &MetricsRegistry,
    tenant: &str,
    elapsed: std::time::Duration,
    permit_wait: Option<std::time::Duration>,
    deadline_missed: bool,
) {
    metrics.incr_tenant(metric::TENANT_REQUESTS, tenant);
    let Some(wait) = permit_wait else {
        metrics.incr_tenant(metric::TENANT_SHEDS, tenant);
        return;
    };
    metrics.observe_tenant(metric::TENANT_PASS_LATENCY, tenant, elapsed);
    metrics.observe_tenant(metric::TENANT_QUEUE_WAIT, tenant, wait);
    // The event-driven series exist at zero from a tenant's first served
    // request, so scrapers can tell "no sheds yet" from "tenant unknown".
    let _ = metrics.tenant_counter_handle(metric::TENANT_SHEDS, tenant);
    let misses = metrics.tenant_counter_handle(metric::TENANT_DEADLINE_MISSES, tenant);
    if deadline_missed {
        misses.fetch_add(1, Ordering::Relaxed);
    }
}

/// The `csv.ingest` failpoint: every CSV entry into the engine (the readers
/// above, and through them the server's puts and journal replay) passes it.
fn ingest_gate() -> Result<()> {
    match failpoint::hit(failpoint::names::CSV_INGEST) {
        Some(msg) => Err(Error::Parse(format!("injected ingest failure: {msg}"))),
        None => Ok(()),
    }
}

impl std::fmt::Display for LuxDataFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.print())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lux_engine::ResourceBudget;
    use lux_recs::{ActionClass, ActionContext};

    fn sample_ldf() -> LuxDataFrame {
        let df = DataFrameBuilder::new()
            .float("life", (0..40).map(|i| 60.0 + (i % 20) as f64))
            .float("inequality", (0..40).map(|i| 50.0 - (i % 20) as f64))
            .str("region", (0..40).map(|i| ["EU", "AF", "AS", "NA"][i % 4]))
            .str(
                "tier",
                (0..40).map(|i| if i % 3 == 0 { "high" } else { "low" }),
            )
            .build()
            .unwrap();
        LuxDataFrame::new(df)
    }

    #[test]
    fn print_produces_table_and_recommendations() {
        let ldf = sample_ldf();
        let w = ldf.print();
        assert!(w.table().contains("life"));
        let names: Vec<&str> = w.results().iter().map(|r| r.action.as_str()).collect();
        assert!(names.contains(&"Correlation"));
        assert!(names.contains(&"Distribution"));
        assert!(names.contains(&"Occurrence")); // "tier" is nominal
        assert!(names.contains(&"Geographic")); // "region" matches the geo heuristic
    }

    #[test]
    fn wrappers_over_clones_of_a_frame_share_its_metadata_and_sample() {
        let config = Arc::new(LuxConfig {
            sample_cap: 10,
            ..LuxConfig::default()
        });
        let frame = sample_ldf().data().clone();
        let (a, b) = (
            LuxDataFrame::with_config(frame.clone(), Arc::clone(&config)),
            LuxDataFrame::with_config(frame.clone(), Arc::clone(&config)),
        );
        // One metadata computation, read by both wrappers.
        let meta = a.metadata();
        assert!(Arc::ptr_eq(&meta, &b.metadata()), "b recomputed metadata");
        // One PRUNE sample, drawn by whichever pass asks first.
        let ctx = PassCtx::detached("pass", ResourceBudget::unlimited());
        let first = a.open_pass(&ctx, a.metadata()).sample();
        assert_eq!(first.num_rows(), 10);
        let second = b.open_pass(&ctx, b.metadata()).sample();
        assert!(Arc::ptr_eq(&first, &second), "b drew the sample again");
        let other_seed = LuxConfig {
            sample_seed: config.sample_seed + 1,
            ..(*config).clone()
        };
        let c = LuxDataFrame::with_config(frame.clone(), Arc::new(other_seed));
        let third = c.open_pass(&ctx, c.metadata()).sample();
        assert!(!Arc::ptr_eq(&first, &third), "another seed read this draw");

        // The overrides are part of the key: an override gets its own entry.
        let mut typed = LuxDataFrame::with_config(frame.clone(), Arc::clone(&config));
        typed
            .set_data_type("life", SemanticType::Nominal)
            .expect("column exists");
        let typed_meta = typed.metadata();
        let semantic = |m: &FrameMeta| m.column("life").expect("life").semantic;
        assert_eq!(semantic(&typed_meta), SemanticType::Nominal);
        assert_eq!(semantic(&a.metadata()), SemanticType::Quantitative);
        assert!(Arc::ptr_eq(&typed_meta, &typed.metadata()));

        // The no-opt baseline rescans on every read, memo or not.
        let no_opt = LuxDataFrame::with_config(frame, Arc::new(LuxConfig::no_opt()));
        assert!(!Arc::ptr_eq(&no_opt.metadata(), &no_opt.metadata()));
        assert!(!Arc::ptr_eq(&no_opt.metadata(), &meta));
    }

    #[test]
    fn print_with_zero_deadline_sheds_cleanly() {
        let ldf = sample_ldf();
        let opts =
            crate::luxframe::PrintOptions::default().with_deadline(Some(std::time::Duration::ZERO));
        let w = ldf.print_with(&opts);
        assert!(w.was_shed());
        // Either the deadline expired after admission ("deadline exhausted")
        // or — when parallel tests hold all slots — during the wait ("no
        // slot within 0ms"); both are the deadline doing its job.
        let note = w.shed_note().expect("shed widget carries a note");
        assert!(
            note.contains("deadline") || note.contains("no slot within"),
            "unexpected shed note: {note}"
        );
        // A deadline-shed pass must not poison the memo: a follow-up
        // unconstrained print serves full recommendations.
        let w2 = ldf.print();
        assert!(!w2.was_shed());
        assert!(!w2.results().is_empty());
    }

    #[test]
    fn shed_print_of_a_cold_frame_does_not_scan_it() {
        // Admission refused the pass: validating the intent must not run
        // the metadata scan the refusal was meant to avoid.
        let mut ldf = sample_ldf();
        ldf.set_intent_strs(["life"]).expect("valid intent");
        let opts =
            crate::luxframe::PrintOptions::default().with_deadline(Some(std::time::Duration::ZERO));
        assert!(ldf.print_with(&opts).was_shed());
        assert!(
            lux_engine::metadata::memoized(ldf.data(), &ldf.overrides).is_none(),
            "a shed print computed metadata"
        );
    }

    #[test]
    fn no_opt_print_computes_metadata_once() {
        // Without the WFLOW memo every stage of a print (validate, compile,
        // the pass itself) must still share one metadata computation.
        let mut ldf =
            LuxDataFrame::with_config(sample_ldf().data().clone(), Arc::new(LuxConfig::no_opt()));
        ldf.set_intent_strs(["life"]).expect("valid intent");
        let before = META_READS.with(|n| n.get());
        let w = ldf.print();
        assert!(!w.was_shed());
        assert_eq!(META_READS.with(|n| n.get()) - before, 1);
    }

    #[test]
    fn print_with_generous_deadline_serves_normally() {
        let ldf = sample_ldf();
        let opts = crate::luxframe::PrintOptions::default()
            .with_deadline(Some(std::time::Duration::from_secs(120)))
            .with_tenant(Some("t-test".to_string()));
        let w = ldf.print_with(&opts);
        assert!(!w.was_shed());
        assert!(!w.results().is_empty());
        let trace = w.trace().expect("print attaches a trace");
        let rendered = trace.render_text();
        assert!(rendered.contains("deadline.remaining_ms"));
        assert!(rendered.contains("t-test"));
    }

    #[test]
    fn wflow_memoizes_until_modified() {
        let ldf = sample_ldf();
        assert!(!ldf.is_fresh());
        let _ = ldf.print();
        assert!(ldf.is_fresh());
        let r1 = ldf.recommendations();
        let r2 = ldf.recommendations();
        assert!(Arc::ptr_eq(&r1, &r2), "second print must reuse the cache");
        // deriving a frame starts with an expired cache
        let filtered = ldf
            .filter("region", FilterOp::Eq, &Value::str("EU"))
            .unwrap();
        assert!(!filtered.is_fresh());
    }

    #[test]
    fn set_intent_expires_recs_but_not_metadata() {
        let mut ldf = sample_ldf();
        let _ = ldf.print();
        let meta_before = ldf.metadata();
        ldf.set_intent_strs(["life"]).unwrap();
        assert!(!ldf.is_fresh());
        let meta_after = ldf.metadata();
        assert!(Arc::ptr_eq(&meta_before, &meta_after));
    }

    #[test]
    fn intent_drives_intent_actions() {
        let mut ldf = sample_ldf();
        ldf.set_intent_strs(["life", "inequality"]).unwrap();
        let w = ldf.print();
        let names: Vec<&str> = w.results().iter().map(|r| r.action.as_str()).collect();
        assert!(names.contains(&"Current Vis"));
        assert!(names.contains(&"Enhance"));
        assert!(names.contains(&"Filter"));
        assert!(!names.contains(&"Correlation")); // metadata overviews replaced
    }

    #[test]
    fn invalid_intent_falls_back_to_table_with_diagnostics() {
        let mut ldf = sample_ldf();
        ldf.set_intent_strs(["lyfe"]).unwrap();
        let w = ldf.print();
        assert!(!w.diagnostics().is_empty());
        assert!(w.diagnostics()[0].suggestion.as_deref() == Some("life"));
        // no intent actions, but the table still renders
        assert!(w.table().contains("life"));
    }

    #[test]
    fn type_override_changes_recommendations() {
        let df = DataFrameBuilder::new()
            .int("code", (0..50).map(|i| i % 30))
            .float("v", (0..50).map(|i| i as f64))
            .build()
            .unwrap();
        let mut ldf = LuxDataFrame::new(df);
        assert_eq!(
            ldf.metadata().column("code").unwrap().semantic,
            SemanticType::Quantitative
        );
        ldf.set_data_type("code", SemanticType::Nominal).unwrap();
        assert_eq!(
            ldf.metadata().column("code").unwrap().semantic,
            SemanticType::Nominal
        );
        assert!(ldf.set_data_type("nope", SemanticType::Nominal).is_err());
    }

    #[test]
    fn groupby_result_triggers_structure_actions() {
        let ldf = sample_ldf();
        let agg = ldf
            .groupby_agg(&["region"], &[("life", Agg::Mean)])
            .unwrap();
        let w = agg.print();
        let classes: Vec<ActionClass> = w.results().iter().map(|r| r.class).collect();
        assert!(classes.contains(&ActionClass::Structure));
        assert!(classes.contains(&ActionClass::History));
    }

    #[test]
    fn head_triggers_prefilter() {
        let ldf = sample_ldf();
        let small = ldf.head(3);
        let w = small.print();
        let names: Vec<&str> = w.results().iter().map(|r| r.action.as_str()).collect();
        assert!(names.contains(&"Pre-filter"), "got {names:?}");
    }

    #[test]
    fn export_records_vis() {
        let ldf = sample_ldf();
        let _ = ldf.print();
        let vis = ldf.export("Correlation", 0).unwrap();
        assert_eq!(vis.spec.mark, lux_vis::Mark::Scatter);
        assert_eq!(ldf.exported().len(), 1);
        assert!(ldf.export("Correlation", 99).is_err());
        assert!(ldf.export("Nope", 0).is_err());
    }

    #[test]
    fn custom_action_registration() {
        let mut ldf = sample_ldf();
        ldf.register_action(lux_recs::CustomAction::new(
            "Always",
            |_ctx: &ActionContext<'_>| true,
            |ctx: &ActionContext<'_>| {
                Ok(ctx.compile(&[Clause::axis(ctx.meta.columns[0].name.clone())]))
            },
        ));
        let w = ldf.print();
        assert!(w.results().iter().any(|r| r.action == "Always"));
        assert!(ldf.remove_action("Always"));
        let w = ldf.print();
        assert!(!w.results().iter().any(|r| r.action == "Always"));
    }

    #[test]
    fn no_opt_mode_recomputes_every_time() {
        let df = DataFrameBuilder::new()
            .float("x", (0..20).map(|i| i as f64))
            .build()
            .unwrap();
        let ldf = LuxDataFrame::with_config(df, Arc::new(LuxConfig::no_opt()));
        let r1 = ldf.recommendations();
        let r2 = ldf.recommendations();
        assert!(!Arc::ptr_eq(&r1, &r2), "no-opt must not memoize");
    }

    #[test]
    fn profile_summarizes_columns_and_charts() {
        let ldf = sample_ldf();
        let p = ldf.profile();
        assert!(p.contains("40 rows x 4 columns"));
        assert!(p.contains("quantitative"));
        assert!(p.contains("=== ")); // action sections present
    }

    #[test]
    fn logger_records_workflow_events() {
        let mut ldf = sample_ldf();
        let log = crate::logging::SessionLogger::in_memory();
        ldf.attach_logger(Arc::clone(&log));
        let _ = ldf.print();
        ldf.set_intent_strs(["life"]).unwrap();
        let _ = ldf.print();
        let filtered = ldf
            .filter("tier", FilterOp::Eq, &Value::str("low"))
            .unwrap();
        let _ = filtered.print(); // derived frames inherit the logger
        let _ = ldf.export("Current Vis", 0).unwrap();
        use crate::logging::EventKind;
        assert_eq!(log.count_of(EventKind::Print), 3);
        assert_eq!(log.count_of(EventKind::IntentChanged), 1);
        assert_eq!(log.count_of(EventKind::Operation), 1);
        assert_eq!(log.count_of(EventKind::Export), 1);
        assert!(log.to_jsonl().lines().count() >= 6);
    }

    #[test]
    fn csv_roundtrip() {
        let ldf = LuxDataFrame::read_csv_str("a,b\n1,x\n2,y\n").unwrap();
        assert_eq!(ldf.num_rows(), 2);
        assert_eq!(ldf.column_names(), &["a", "b"]);
    }
}
